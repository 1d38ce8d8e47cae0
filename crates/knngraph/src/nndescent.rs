//! NN-descent approximate k-NN-graph construction (Dong et al., paper
//! reference \[16\]).
//!
//! Starts from a random k-NN graph and iteratively improves it by *local
//! joins*: for every node, newly discovered neighbors are compared against
//! each other and against older neighbors; every comparison may improve
//! either endpoint's neighbor list. Iterations stop when the number of
//! updates drops below `delta · n · k` (the paper's decay/convergence
//! parameter) or after `max_iters`.
//!
//! The resulting directed k-NN graph is symmetrized for search (reverse
//! edges appended), and queried with the same best-first routine used for
//! Small-World graphs — exactly the paper's setup, where NN-descent comes
//! without a search algorithm and NMSLIB's is used instead.

use std::sync::Arc;

use rand::Rng;

use permsearch_core::rng::{sample_distinct, seeded_rng};
use permsearch_core::{Dataset, Neighbor, Point, SearchIndex, SearchScratch, Space};

use crate::search::greedy_search_with;

/// NN-descent construction/search parameters.
#[derive(Debug, Clone, Copy)]
pub struct NnDescentParams {
    /// Neighbors per node in the constructed graph (k).
    pub k: usize,
    /// Sampling rate ρ for the local join (Dong et al. use 0.5–1.0).
    pub rho: f64,
    /// Convergence threshold: stop when updates < `delta · n · k`.
    pub delta: f64,
    /// Hard iteration cap.
    pub max_iters: usize,
    /// Restarts at query time.
    pub search_attempts: usize,
    /// Result-pool width at query time.
    pub search_ef: usize,
}

impl Default for NnDescentParams {
    fn default() -> Self {
        Self {
            k: 10,
            rho: 0.7,
            delta: 0.001,
            max_iters: 12,
            search_attempts: 2,
            search_ef: 40,
        }
    }
}

/// One neighbor entry in the evolving graph.
#[derive(Debug, Clone, Copy)]
struct Entry {
    dist: f32,
    id: u32,
    is_new: bool,
}

/// Bounded, sorted neighbor list with deduplication.
struct NeighborList {
    entries: Vec<Entry>,
    cap: usize,
}

impl NeighborList {
    fn new(cap: usize) -> Self {
        Self {
            entries: Vec::with_capacity(cap + 1),
            cap,
        }
    }

    /// Try to insert `(dist, id)`; returns `true` on an update.
    fn insert(&mut self, dist: f32, id: u32) -> bool {
        if self.entries.len() == self.cap
            && dist >= self.entries.last().expect("non-empty at cap").dist
        {
            return false;
        }
        if self.entries.iter().any(|e| e.id == id) {
            return false;
        }
        let pos = self.entries.partition_point(|e| e.dist <= dist);
        self.entries.insert(
            pos,
            Entry {
                dist,
                id,
                is_new: true,
            },
        );
        if self.entries.len() > self.cap {
            self.entries.pop();
        }
        true
    }
}

/// The NN-descent-built graph index.
pub struct NnDescentGraph<P, S> {
    data: Arc<Dataset<P>>,
    space: S,
    adjacency: Vec<Vec<u32>>,
    params: NnDescentParams,
    seed: u64,
    iterations_run: usize,
}

/// Run NN-descent and wrap the result in a searchable index.
pub fn nndescent<P, S>(
    data: Arc<Dataset<P>>,
    space: S,
    params: NnDescentParams,
    seed: u64,
) -> NnDescentGraph<P, S>
where
    P: Point,
    S: Space<P::Ref>,
{
    assert!(params.k >= 1, "k must be at least 1");
    assert!(params.rho > 0.0 && params.rho <= 1.0);
    let n = data.len();
    let k = params.k.min(n.saturating_sub(1)).max(1);
    let mut rng = seeded_rng(seed);

    // Random initialization.
    let mut lists: Vec<NeighborList> = (0..n).map(|_| NeighborList::new(k)).collect();
    if n > 1 {
        for (v, list) in lists.iter_mut().enumerate() {
            let mut chosen = 0usize;
            while chosen < k {
                let u = rng.gen_range(0..n);
                if u == v {
                    continue;
                }
                let d = space.distance(data.get(u as u32), data.get(v as u32));
                list.insert(d, u as u32);
                chosen += 1;
            }
        }
    }

    let sample_size = ((k as f64 * params.rho).ceil() as usize).max(1);
    let mut iterations_run = 0usize;
    if n > 1 {
        for _ in 0..params.max_iters {
            iterations_run += 1;
            // Forward new/old lists; sampling marks sampled new entries old.
            let mut new_fwd: Vec<Vec<u32>> = vec![Vec::new(); n];
            let mut old_fwd: Vec<Vec<u32>> = vec![Vec::new(); n];
            for (v, list) in lists.iter_mut().enumerate() {
                let new_positions: Vec<usize> = list
                    .entries
                    .iter()
                    .enumerate()
                    .filter(|(_, e)| e.is_new)
                    .map(|(i, _)| i)
                    .collect();
                let picked: Vec<usize> = if new_positions.len() > sample_size {
                    sample_distinct(&mut rng, new_positions.len(), sample_size)
                        .into_iter()
                        .map(|i| new_positions[i as usize])
                        .collect()
                } else {
                    new_positions
                };
                for &i in &picked {
                    list.entries[i].is_new = false;
                    new_fwd[v].push(list.entries[i].id);
                }
                for e in &list.entries {
                    if !e.is_new && !new_fwd[v].contains(&e.id) {
                        old_fwd[v].push(e.id);
                    }
                }
            }
            // Reverse lists.
            let mut new_rev: Vec<Vec<u32>> = vec![Vec::new(); n];
            let mut old_rev: Vec<Vec<u32>> = vec![Vec::new(); n];
            for v in 0..n {
                for &u in &new_fwd[v] {
                    new_rev[u as usize].push(v as u32);
                }
                for &u in &old_fwd[v] {
                    old_rev[u as usize].push(v as u32);
                }
            }
            // Local joins.
            let mut updates = 0usize;
            for v in 0..n {
                let mut new_all = new_fwd[v].clone();
                sample_into(&mut rng, &mut new_rev[v], sample_size);
                new_all.extend_from_slice(&new_rev[v]);
                new_all.sort_unstable();
                new_all.dedup();
                let mut old_all = old_fwd[v].clone();
                sample_into(&mut rng, &mut old_rev[v], sample_size);
                old_all.extend_from_slice(&old_rev[v]);
                old_all.sort_unstable();
                old_all.dedup();

                for (i, &p1) in new_all.iter().enumerate() {
                    // new × new (each unordered pair once)
                    for &p2 in &new_all[i + 1..] {
                        if p1 == p2 {
                            continue;
                        }
                        let d = space.distance(data.get(p1), data.get(p2));
                        updates += lists[p1 as usize].insert(d, p2) as usize;
                        updates += lists[p2 as usize].insert(d, p1) as usize;
                    }
                    // new × old
                    for &p2 in &old_all {
                        if p1 == p2 {
                            continue;
                        }
                        let d = space.distance(data.get(p1), data.get(p2));
                        updates += lists[p1 as usize].insert(d, p2) as usize;
                        updates += lists[p2 as usize].insert(d, p1) as usize;
                    }
                }
            }
            if (updates as f64) < params.delta * n as f64 * k as f64 {
                break;
            }
        }
    }

    // Symmetrize for search.
    let mut adjacency: Vec<Vec<u32>> = lists
        .iter()
        .map(|l| l.entries.iter().map(|e| e.id).collect::<Vec<u32>>())
        .collect();
    for v in 0..n {
        let nbs = adjacency[v].clone();
        for nb in nbs {
            if !adjacency[nb as usize].contains(&(v as u32)) {
                adjacency[nb as usize].push(v as u32);
            }
        }
    }

    NnDescentGraph {
        data,
        space,
        adjacency,
        params,
        seed,
        iterations_run,
    }
}

/// Downsample `v` in place to at most `cap` elements.
fn sample_into<R: Rng>(rng: &mut R, v: &mut Vec<u32>, cap: usize) {
    if v.len() > cap {
        let keep = sample_distinct(rng, v.len(), cap);
        let kept: Vec<u32> = keep.into_iter().map(|i| v[i as usize]).collect();
        *v = kept;
    }
}

impl<P, S> NnDescentGraph<P, S> {
    /// Number of NN-descent iterations actually run before convergence.
    pub fn iterations_run(&self) -> usize {
        self.iterations_run
    }

    /// Borrow the (symmetrized) adjacency lists.
    pub fn adjacency(&self) -> &[Vec<u32>] {
        &self.adjacency
    }

    /// The parameters the graph was built with.
    pub fn params(&self) -> &NnDescentParams {
        &self.params
    }
}

impl<P, S> SearchIndex<P> for NnDescentGraph<P, S>
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
            self.seed ^ 0x4e4e_0000,
            scratch,
            out,
        );
    }

    fn len(&self) -> usize {
        self.data.len()
    }

    fn name(&self) -> &'static str {
        "kNN-graph (NN-desc)"
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
            Arc::new(Dataset::new(gen.generate(n, 91))),
            gen.generate(20, 147),
        )
    }

    /// Fraction of true k-NN edges recovered by the construction.
    fn graph_quality(data: &Dataset<Vec<f32>>, adj: &[Vec<u32>], k: usize) -> f64 {
        let mut total = 0.0;
        let sample: Vec<u32> = (0..50u32).collect();
        for &v in &sample {
            let mut all: Vec<(f32, u32)> = data
                .iter()
                .filter(|(id, _)| *id != v)
                .map(|(id, p)| (L2.distance(p, data.get(v)), id))
                .collect();
            all.sort_by(|a, b| a.0.total_cmp(&b.0));
            let truth: Vec<u32> = all[..k].iter().map(|&(_, id)| id).collect();
            let found = truth.iter().filter(|t| adj[v as usize].contains(t)).count();
            total += found as f64 / k as f64;
        }
        total / sample.len() as f64
    }

    #[test]
    fn construction_recovers_most_true_neighbors() {
        let (data, _) = world(800);
        let graph = nndescent(data.clone(), L2, NnDescentParams::default(), 7);
        let quality = graph_quality(&data, graph.adjacency(), 5);
        assert!(quality > 0.8, "graph quality {quality}");
        assert!(graph.iterations_run() >= 1);
    }

    #[test]
    fn search_reaches_high_recall() {
        // Overlapping clusters: unlike the SW graph, NN-descent creates no
        // long-range links, so a well-separated mixture leaves the graph
        // effectively disconnected and recall hostage to entry-point luck
        // (restarts mitigate this; see `disconnected_components` in
        // search.rs). Search quality proper is assessed on connected data.
        let gen = DenseGaussianMixture::new(10, 3, 0.45);
        let data = Arc::new(Dataset::new(gen.generate(1000, 91)));
        let queries = gen.generate(20, 147);
        let params = NnDescentParams {
            k: 15,
            search_attempts: 4,
            search_ef: 80,
            ..Default::default()
        };
        let graph = nndescent(data.clone(), L2, params, 7);
        let exact = ExhaustiveSearch::new(data.clone(), L2);
        let mut total = 0.0;
        for q in &queries {
            let truth: Vec<u32> = exact.search(q, 10).iter().map(|n| n.id).collect();
            let res = graph.search(q, 10);
            total += truth
                .iter()
                .filter(|t| res.iter().any(|n| n.id == **t))
                .count() as f64
                / 10.0;
        }
        let recall = total / queries.len() as f64;
        assert!(recall > 0.8, "recall {recall}");
    }

    #[test]
    fn neighbor_list_insert_semantics() {
        let mut l = NeighborList::new(3);
        assert!(l.insert(3.0, 1));
        assert!(l.insert(1.0, 2));
        assert!(l.insert(2.0, 3));
        // Full; worse entry rejected.
        assert!(!l.insert(5.0, 4));
        // Duplicate rejected even if better.
        assert!(!l.insert(0.5, 2));
        // Better entry evicts the worst.
        assert!(l.insert(0.7, 5));
        let ids: Vec<u32> = l.entries.iter().map(|e| e.id).collect();
        assert_eq!(ids, vec![5, 2, 3]);
        assert!(l.entries.windows(2).all(|w| w[0].dist <= w[1].dist));
    }

    #[test]
    fn tiny_datasets_do_not_panic() {
        for n in [1usize, 2, 3, 5] {
            let gen = DenseGaussianMixture::new(4, 1, 0.5);
            let data = Arc::new(Dataset::new(gen.generate(n, 9)));
            let graph = nndescent(data.clone(), L2, NnDescentParams::default(), 1);
            let res = graph.search(&data.get(0).to_owned(), n);
            assert!(!res.is_empty());
        }
    }
}
