//! Small-World graph (Malkov et al., paper reference \[31\]).
//!
//! The graph-building algorithm finds insertion points by running the same
//! best-first algorithm used during retrieval: every new point is searched
//! in the graph built so far and linked bidirectionally to the `m` nearest
//! nodes found. Long-range links created early (when the graph is sparse)
//! give the structure its navigable small-world property.

use std::sync::Arc;

use permsearch_core::{Dataset, Neighbor, Point, SearchIndex, SearchScratch, Space};

use crate::search::greedy_search_with;

/// Small-World graph construction/search parameters.
#[derive(Debug, Clone, Copy)]
pub struct SwGraphParams {
    /// Bidirectional links added per inserted point (NN count).
    pub m: usize,
    /// Restarts used during construction searches.
    pub build_attempts: usize,
    /// Result-pool width during construction searches.
    pub build_ef: usize,
    /// Restarts at query time.
    pub search_attempts: usize,
    /// Result-pool width at query time (≥ k; higher → better recall).
    pub search_ef: usize,
}

impl Default for SwGraphParams {
    fn default() -> Self {
        Self {
            m: 10,
            build_attempts: 2,
            build_ef: 20,
            search_attempts: 2,
            search_ef: 40,
        }
    }
}

/// The Small-World proximity graph index.
pub struct SwGraph<P, S> {
    data: Arc<Dataset<P>>,
    space: S,
    adjacency: Vec<Vec<u32>>,
    params: SwGraphParams,
    seed: u64,
}

impl<P, S> SwGraph<P, S>
where
    P: Point,
    S: Space<P::Ref>,
{
    /// Build by search-based insertion in id order (the insertion order is
    /// already random for generated data; a dedicated shuffle would only
    /// reshuffle randomness).
    pub fn build(data: Arc<Dataset<P>>, space: S, params: SwGraphParams, seed: u64) -> Self {
        assert!(params.m >= 1, "m must be at least 1");
        let n = data.len();
        let mut adjacency: Vec<Vec<u32>> = vec![Vec::new(); n];
        for id in 1..n as u32 {
            // Search the partial graph for the m nearest existing nodes.
            // We restrict the search to inserted nodes by building a view:
            // adjacency entries only reference ids < id by construction,
            // and entry points must be sampled below id, so we run a
            // dedicated partial search here instead of greedy_search_with.
            let found = partial_search(
                &data,
                &space,
                &adjacency,
                id,
                id,
                params.m,
                params.build_attempts,
                params.build_ef,
                seed ^ u64::from(id),
            );
            for nb in found {
                adjacency[id as usize].push(nb.id);
                adjacency[nb.id as usize].push(id);
            }
        }
        Self {
            data,
            space,
            adjacency,
            params,
            seed,
        }
    }

    /// Batched-parallel construction (the paper builds graphs with four
    /// threads).
    ///
    /// Points are inserted in batches: within a batch, every point's
    /// m-nearest search runs in parallel against the graph *as of the
    /// batch start* (read-only), then the links are applied sequentially.
    /// The resulting graph differs from sequential insertion only in that
    /// batch-mates do not see each other during their searches — the same
    /// relaxation concurrent NSW construction makes — and reaches the same
    /// recall regime (asserted in tests).
    pub fn build_parallel(
        data: Arc<Dataset<P>>,
        space: S,
        params: SwGraphParams,
        seed: u64,
        threads: usize,
    ) -> Self
    where
        P: Send + Sync,
        S: Sync,
    {
        assert!(params.m >= 1, "m must be at least 1");
        let threads = threads.max(1);
        let n = data.len();
        let mut adjacency: Vec<Vec<u32>> = vec![Vec::new(); n];
        let batch = (threads * 4).max(1);
        let mut next = 1u32;
        while (next as usize) < n {
            let end = (next as usize + batch).min(n) as u32;
            let limit = next; // frozen graph prefix for this batch
            let ids: Vec<u32> = (next..end).collect();
            let mut found: Vec<Vec<Neighbor>> = vec![Vec::new(); ids.len()];
            {
                let adjacency = &adjacency;
                let data = &data;
                let space = &space;
                let chunk = ids.len().div_ceil(threads);
                crossbeam::thread::scope(|s| {
                    for (slot, id_chunk) in found.chunks_mut(chunk).zip(ids.chunks(chunk)) {
                        s.spawn(move |_| {
                            for (out, &id) in slot.iter_mut().zip(id_chunk) {
                                *out = partial_search(
                                    data,
                                    space,
                                    adjacency,
                                    id,
                                    limit,
                                    params.m,
                                    params.build_attempts,
                                    params.build_ef,
                                    seed ^ u64::from(id),
                                );
                            }
                        });
                    }
                })
                .expect("SW parallel construction worker panicked");
            }
            for (&id, nbs) in ids.iter().zip(&found) {
                for nb in nbs {
                    adjacency[id as usize].push(nb.id);
                    adjacency[nb.id as usize].push(id);
                }
            }
            next = end;
        }
        Self {
            data,
            space,
            adjacency,
            params,
            seed,
        }
    }

    /// The parameters the graph was built with.
    pub fn params(&self) -> &SwGraphParams {
        &self.params
    }

    /// Average out-degree (diagnostics; long-range links double it over m).
    pub fn avg_degree(&self) -> f64 {
        if self.adjacency.is_empty() {
            return 0.0;
        }
        self.adjacency.iter().map(Vec::len).sum::<usize>() as f64 / self.adjacency.len() as f64
    }

    /// Borrow the adjacency lists (for diagnostics and tests).
    pub fn adjacency(&self) -> &[Vec<u32>] {
        &self.adjacency
    }
}

/// Best-first search for the neighbors of `query_id` over the nodes
/// `0..limit` only (the already-inserted prefix).
#[allow(clippy::too_many_arguments)]
fn partial_search<P: Point, S: Space<P::Ref>>(
    data: &Dataset<P>,
    space: &S,
    adjacency: &[Vec<u32>],
    query_id: u32,
    limit: u32,
    k: usize,
    attempts: usize,
    ef: usize,
    seed: u64,
) -> Vec<Neighbor> {
    use permsearch_core::rng::seeded_rng;
    use permsearch_core::KnnHeap;
    use rand::Rng;
    use std::cmp::Reverse;
    use std::collections::BinaryHeap;

    let query = data.get(query_id);
    let n = limit as usize;
    if n == 0 {
        return Vec::new();
    }
    let ef = ef.max(k);
    let mut rng = seeded_rng(seed);
    let mut pool = KnnHeap::new(ef);
    let mut visited = vec![false; n];
    for _ in 0..attempts.max(1) {
        let entry = rng.gen_range(0..n);
        if visited[entry] {
            continue;
        }
        visited[entry] = true;
        let d = space.distance(data.get(entry as u32), query);
        pool.push(entry as u32, d);
        let mut candidates: BinaryHeap<Reverse<Neighbor>> = BinaryHeap::new();
        candidates.push(Reverse(Neighbor::new(entry as u32, d)));
        while let Some(Reverse(current)) = candidates.pop() {
            if pool.is_full() && current.dist > pool.radius() {
                break;
            }
            for &nb in &adjacency[current.id as usize] {
                debug_assert!(nb < limit);
                if visited[nb as usize] {
                    continue;
                }
                visited[nb as usize] = true;
                let d = space.distance(data.get(nb), query);
                if !pool.is_full() || d < pool.radius() {
                    candidates.push(Reverse(Neighbor::new(nb, d)));
                }
                pool.push(nb, d);
            }
        }
    }
    let mut res = pool.into_sorted();
    res.truncate(k);
    res
}

// ---------------------------------------------------------------------------
// Snapshot persistence. The adjacency lists are the expensive product of
// construction (every insertion ran a graph search); the query-time seed is
// stored too, so a reloaded graph restarts its traversals from the same
// entry points and returns bit-identical results.
// ---------------------------------------------------------------------------

impl<P, S> permsearch_core::Snapshot<P, S> for SwGraph<P, S> {
    fn write_snapshot<W: std::io::Write + ?Sized>(
        &self,
        w: &mut W,
    ) -> Result<(), permsearch_core::SnapshotError> {
        use permsearch_core::snapshot as codec;
        codec::write_len(w, self.data.len())?;
        codec::write_len(w, self.params.m)?;
        codec::write_len(w, self.params.build_attempts)?;
        codec::write_len(w, self.params.build_ef)?;
        codec::write_len(w, self.params.search_attempts)?;
        codec::write_len(w, self.params.search_ef)?;
        codec::write_u64(w, self.seed)?;
        codec::write_seq(w, &self.adjacency, |w, list| codec::write_u32_seq(w, list))
    }

    fn read_snapshot<R: std::io::Read + ?Sized>(
        r: &mut R,
        data: Arc<Dataset<P>>,
        space: S,
    ) -> Result<Self, permsearch_core::SnapshotError> {
        use permsearch_core::snapshot as codec;
        use permsearch_core::snapshot::corrupt;
        codec::check_point_count(codec::read_len(r)?, data.len())?;
        let params = SwGraphParams {
            m: codec::read_len(r)?,
            build_attempts: codec::read_len(r)?,
            build_ef: codec::read_len(r)?,
            search_attempts: codec::read_len(r)?,
            search_ef: codec::read_len(r)?,
        };
        if params.m == 0 {
            return Err(corrupt("SW-graph snapshot with m = 0"));
        }
        let seed = codec::read_u64(r)?;
        let adjacency = codec::read_seq(r, |r| codec::read_u32_seq(r))?;
        if adjacency.len() != data.len() {
            return Err(corrupt(format!(
                "SW-graph snapshot has {} adjacency lists for {} points",
                adjacency.len(),
                data.len()
            )));
        }
        for list in &adjacency {
            codec::check_ids(list, data.len(), "SW-graph adjacency list")?;
        }
        Ok(Self {
            data,
            space,
            adjacency,
            params,
            seed,
        })
    }
}

impl<P, S> SearchIndex<P> for SwGraph<P, S>
where
    P: Point + Send + Sync,
    S: Space<P::Ref>,
{
    fn search_into(
        &self,
        query: &P,
        k: usize,
        scratch: &mut SearchScratch,
        out: &mut Vec<Neighbor>,
    ) {
        greedy_search_with(
            &self.data,
            &self.space,
            &self.adjacency,
            query.point_ref(),
            k,
            self.params.search_attempts,
            self.params.search_ef,
            self.seed ^ 0x5157_0000,
            scratch,
            out,
        );
    }

    fn len(&self) -> usize {
        self.data.len()
    }

    fn name(&self) -> &'static str {
        "kNN-graph (SW)"
    }

    fn index_size_bytes(&self) -> usize {
        self.adjacency
            .iter()
            .map(|l| l.len() * 4 + std::mem::size_of::<Vec<u32>>())
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use permsearch_core::ExhaustiveSearch;
    use permsearch_datasets::{DenseGaussianMixture, Generator};
    use permsearch_spaces::L2;

    fn world(n: usize) -> (Arc<Dataset<Vec<f32>>>, Vec<Vec<f32>>) {
        let gen = DenseGaussianMixture::new(10, 5, 0.2);
        (
            Arc::new(Dataset::new(gen.generate(n, 81))),
            gen.generate(25, 137),
        )
    }

    #[test]
    fn reaches_high_recall() {
        let (data, queries) = world(1200);
        let graph = SwGraph::build(data.clone(), L2, SwGraphParams::default(), 3);
        let exact = ExhaustiveSearch::new(data.clone(), L2);
        let mut total = 0.0;
        for q in &queries {
            let truth: Vec<u32> = exact.search(q, 10).iter().map(|n| n.id).collect();
            let res = graph.search(q, 10);
            assert_eq!(res.len(), 10);
            total += truth
                .iter()
                .filter(|t| res.iter().any(|n| n.id == **t))
                .count() as f64
                / 10.0;
        }
        let recall = total / queries.len() as f64;
        assert!(recall > 0.85, "recall {recall}");
    }

    #[test]
    fn graph_is_undirected_and_degree_bounded_below() {
        let (data, _) = world(500);
        let graph = SwGraph::build(data, L2, SwGraphParams::default(), 5);
        for (v, nbs) in graph.adjacency().iter().enumerate() {
            for &nb in nbs {
                assert!(
                    graph.adjacency()[nb as usize].contains(&(v as u32)),
                    "edge {v}->{nb} missing its reverse"
                );
            }
        }
        // Every inserted node (id >= 1) got at least one link.
        assert!(graph.adjacency().iter().skip(1).all(|l| !l.is_empty()));
        assert!(graph.avg_degree() >= 2.0);
    }

    #[test]
    fn handles_tiny_datasets() {
        for n in [1usize, 2, 3] {
            let gen = DenseGaussianMixture::new(4, 1, 0.5);
            let data = Arc::new(Dataset::new(gen.generate(n, 9)));
            let graph = SwGraph::build(data.clone(), L2, SwGraphParams::default(), 1);
            let res = graph.search(&data.get(0).to_owned(), n);
            assert!(!res.is_empty(), "n={n}");
        }
    }

    #[test]
    fn parallel_build_matches_sequential_recall() {
        let (data, queries) = world(900);
        let seq = SwGraph::build(data.clone(), L2, SwGraphParams::default(), 3);
        let par = SwGraph::build_parallel(data.clone(), L2, SwGraphParams::default(), 3, 4);
        let exact = ExhaustiveSearch::new(data.clone(), L2);
        let recall = |g: &SwGraph<Vec<f32>, L2>| {
            let mut total = 0.0;
            for q in &queries {
                let truth: Vec<u32> = exact.search(q, 10).iter().map(|n| n.id).collect();
                let res = g.search(q, 10);
                total += truth
                    .iter()
                    .filter(|t| res.iter().any(|n| n.id == **t))
                    .count() as f64
                    / 10.0;
            }
            total / queries.len() as f64
        };
        let r_seq = recall(&seq);
        let r_par = recall(&par);
        assert!(
            r_par > r_seq - 0.1,
            "parallel build degraded recall: {r_par} vs {r_seq}"
        );
        // Parallel graph is still undirected.
        for (v, nbs) in par.adjacency().iter().enumerate() {
            for &nb in nbs {
                assert!(par.adjacency()[nb as usize].contains(&(v as u32)));
            }
        }
        // Every non-root node got linked.
        assert!(par.adjacency().iter().skip(1).all(|l| !l.is_empty()));
    }

    #[test]
    fn parallel_build_handles_tiny_inputs() {
        for n in [1usize, 2, 5, 17] {
            let gen = DenseGaussianMixture::new(4, 1, 0.5);
            let data = Arc::new(Dataset::new(gen.generate(n, 9)));
            let g = SwGraph::build_parallel(data.clone(), L2, SwGraphParams::default(), 1, 4);
            let res = g.search(&data.get(0).to_owned(), n);
            assert!(!res.is_empty(), "n={n}");
        }
    }

    #[test]
    fn self_query_finds_itself() {
        let (data, _) = world(400);
        let graph = SwGraph::build(data.clone(), L2, SwGraphParams::default(), 11);
        let res = graph.search(&data.get(123).to_owned(), 1);
        assert_eq!(res[0].dist, 0.0);
    }
}
