//! NAPP — Neighborhood APProximation index (Tellez et al., paper §2.3 and
//! §3.2).
//!
//! A large pivot set of `m` pivots is selected, but only the `mi` pivots
//! closest to each data point are *indexed*: the point's id is appended to
//! the posting list of each of those pivots. Posting lists store ids only —
//! no pivot positions — so candidates are ranked by the **number of shared
//! closest pivots** with the query, and candidates sharing fewer than `t`
//! pivots are discarded.
//!
//! Following the paper's implementation notes we (1) leave the index
//! uncompressed and (2) merge posting lists with ScanCount: one counter per
//! data point, zeroed before every search (the `memset` in the paper),
//! incremented per posting-list hit. For expensive distances an additional
//! filtering step sorts the surviving candidates by shared-pivot count and
//! keeps the best `max_candidates`.

use std::sync::Arc;

use crossbeam::thread;

use permsearch_core::{Dataset, Neighbor, Point, SearchIndex, SearchScratch, Space, Stage};

use crate::perm::{compute_ranks, compute_ranks_into};
use crate::pivots::select_pivots;
use crate::refine::refine_into;

/// NAPP tuning parameters (paper §3.2 discusses their trade-offs).
#[derive(Debug, Clone)]
pub struct NappParams {
    /// Total number of pivots `m`. The paper finds 500–2000 a good
    /// trade-off: recall and speed improve with `m`, indexing cost grows.
    pub num_pivots: usize,
    /// Number of indexed (closest) pivots per point, `mi`; paper: 32.
    pub num_indexed: usize,
    /// Number of query pivots `ms` whose posting lists are read;
    /// `0` means "same as `num_indexed`".
    pub num_query_pivots: usize,
    /// Minimum number of indexed pivots shared with the query, `t`.
    /// Smaller `t` → higher recall, more candidates.
    pub min_shared: u32,
    /// Optional cap on refined candidates; when set, candidates are sorted
    /// by shared-pivot count (descending) first — the paper's extra
    /// filtering step for expensive distances.
    pub max_candidates: Option<usize>,
    /// Worker threads for index construction (the paper uses four).
    pub threads: usize,
}

impl Default for NappParams {
    fn default() -> Self {
        Self {
            num_pivots: 512,
            num_indexed: 32,
            num_query_pivots: 0,
            min_shared: 2,
            max_candidates: None,
            threads: 4,
        }
    }
}

/// The NAPP inverted index.
pub struct Napp<P, S> {
    pub(crate) data: Arc<Dataset<P>>,
    pub(crate) space: S,
    pub(crate) pivots: Vec<P>,
    /// `postings[p]` lists ids of points having pivot `p` among their `mi`
    /// closest, in increasing id order.
    pub(crate) postings: Vec<Vec<u32>>,
    pub(crate) params: NappParams,
}

impl<P, S> Napp<P, S>
where
    P: Point + Clone + Sync,
    S: Space<P::Ref> + Sync,
{
    /// Build the index; pivots are sampled from the data with `seed`.
    pub fn build(data: Arc<Dataset<P>>, space: S, params: NappParams, seed: u64) -> Self {
        assert!(params.num_pivots > 0, "need at least one pivot");
        assert!(
            params.num_indexed > 0 && params.num_indexed <= params.num_pivots,
            "num_indexed must be in 1..=num_pivots"
        );
        let pivots = select_pivots(&data, params.num_pivots, seed);
        let closest = Self::closest_pivots(&data, &space, &pivots, &params);
        // Sequential inversion keeps posting lists sorted by id.
        let mut postings = vec![Vec::new(); params.num_pivots];
        for (id, pivot_ids) in closest.iter().enumerate() {
            for &p in pivot_ids {
                postings[p as usize].push(id as u32);
            }
        }
        Self {
            data,
            space,
            pivots,
            postings,
            params,
        }
    }

    /// Compute, in parallel, the `mi` closest pivot ids of every point.
    fn closest_pivots(
        data: &Dataset<P>,
        space: &S,
        pivots: &[P],
        params: &NappParams,
    ) -> Vec<Vec<u32>> {
        let n = data.len();
        let mi = params.num_indexed;
        let mut out: Vec<Vec<u32>> = vec![Vec::new(); n];
        if n == 0 {
            return out;
        }
        let threads = params.threads.max(1).min(n);
        let chunk = n.div_ceil(threads);
        thread::scope(|s| {
            for (t, slot) in out.chunks_mut(chunk).enumerate() {
                let start = (t * chunk) as u32;
                s.spawn(move |_| {
                    for (slot, id) in slot.iter_mut().zip(start..) {
                        *slot = closest_pivot_ids(space, pivots, data.get(id), mi);
                    }
                });
            }
        })
        .expect("NAPP indexing worker panicked");
        out
    }

    /// Effective number of query pivots.
    fn ms(&self) -> usize {
        if self.params.num_query_pivots == 0 {
            self.params.num_indexed
        } else {
            self.params.num_query_pivots.min(self.params.num_pivots)
        }
    }

    /// The parameters the index was built with.
    pub fn params(&self) -> &NappParams {
        &self.params
    }
}

/// Ids of the `mi` pivots closest to `point` (ranks 0..mi in the induced
/// permutation).
fn closest_pivot_ids<P: Point, S: Space<P::Ref>>(
    space: &S,
    pivots: &[P],
    point: &P::Ref,
    mi: usize,
) -> Vec<u32> {
    let ranks = compute_ranks(space, pivots, point);
    let mut ids = vec![u32::MAX; mi];
    for (pivot, &r) in ranks.iter().enumerate() {
        if (r as usize) < mi {
            ids[r as usize] = pivot as u32;
        }
    }
    ids
}

impl<P, S> SearchIndex<P> for Napp<P, S>
where
    P: Point + Clone + Sync,
    S: Space<P::Ref> + Sync,
{
    /// Scratch pipeline: the ScanCount counter array is reused (its
    /// re-zeroing *is* the paper's per-query memset, over retained
    /// capacity instead of a fresh allocation), candidate pairs collect
    /// into a reused buffer — counts widened from `u8` to `u32`, which
    /// preserves the sort order exactly — and refinement is batched.
    fn search_into(
        &self,
        query: &P,
        k: usize,
        scratch: &mut SearchScratch,
        out: &mut Vec<Neighbor>,
    ) {
        out.clear();
        let n = self.data.len();
        if n == 0 {
            return;
        }
        let t0 = scratch.trace.start();
        scratch
            .trace
            .add_dists(Stage::Filter, self.pivots.len() as u64);
        compute_ranks_into(
            &self.space,
            &self.pivots,
            query.point_ref(),
            &mut scratch.dists,
            &mut scratch.order,
            &mut scratch.ranks,
        );
        let ms = self.ms();
        let q_pivots = &mut scratch.pivot_ids;
        q_pivots.clear();
        q_pivots.resize(ms, u32::MAX);
        for (pivot, &r) in scratch.ranks.iter().enumerate() {
            if (r as usize) < ms {
                q_pivots[r as usize] = pivot as u32;
            }
        }
        // ScanCount: re-zeroed counters (the paper's per-query memset).
        let counters = &mut scratch.counters;
        counters.clear();
        counters.resize(n, 0);
        for &p in q_pivots.iter() {
            for &id in &self.postings[p as usize] {
                counters[id as usize] = counters[id as usize].saturating_add(1);
            }
        }
        let t = self.params.min_shared.min(u8::MAX as u32) as u8;
        let candidates = &mut scratch.scored_u32;
        candidates.clear();
        candidates.extend(
            counters
                .iter()
                .enumerate()
                .filter(|&(_, &c)| c >= t && c > 0)
                .map(|(id, &c)| (u32::from(c), id as u32)),
        );
        if let Some(cap) = self.params.max_candidates {
            // Extra filtering step: most-shared-pivots first.
            candidates.sort_unstable_by(|a, b| b.0.cmp(&a.0).then(a.1.cmp(&b.1)));
            candidates.truncate(cap.max(k));
        }
        scratch.trace.finish(Stage::Filter, t0);
        let SearchScratch {
            scored_u32,
            ids,
            dists,
            heap,
            trace,
            budget,
            ..
        } = scratch;
        refine_into(
            &self.data,
            &self.space,
            query.point_ref(),
            scored_u32.iter().map(|&(_, id)| id),
            k,
            ids,
            dists,
            heap,
            out,
            trace,
            budget,
        );
    }

    fn len(&self) -> usize {
        self.data.len()
    }

    fn name(&self) -> &'static str {
        "napp"
    }

    fn index_size_bytes(&self) -> usize {
        let posting_bytes: usize = self
            .postings
            .iter()
            .map(|l| l.len() * 4 + std::mem::size_of::<Vec<u32>>())
            .sum();
        posting_bytes
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use permsearch_datasets::{DenseGaussianMixture, Generator};
    use permsearch_spaces::L2;

    /// Shared test fixture: the 800-point world is generated **once** and
    /// borrowed by every test, instead of each test regenerating and
    /// re-allocating its own copy (the old per-test `small_world()` plus
    /// `data.clone()` churn). Tests that need ownership clone the `Arc`,
    /// which is a refcount bump, never a point copy.
    type World = (Arc<Dataset<Vec<f32>>>, Vec<Vec<f32>>);

    fn small_world() -> &'static World {
        static WORLD: std::sync::OnceLock<World> = std::sync::OnceLock::new();
        WORLD.get_or_init(|| {
            let gen = DenseGaussianMixture::new(12, 6, 0.15);
            let data = Arc::new(Dataset::new(gen.generate(800, 21)));
            let queries = gen.generate(25, 77);
            (data, queries)
        })
    }

    fn gold(data: &Dataset<Vec<f32>>, q: &[f32], k: usize) -> Vec<u32> {
        let mut all: Vec<(f32, u32)> = data.iter().map(|(id, p)| (L2.distance(p, q), id)).collect();
        all.sort_by(|a, b| a.0.total_cmp(&b.0));
        all[..k].iter().map(|&(_, id)| id).collect()
    }

    #[test]
    fn paper_figure1_candidate_selection() {
        // Figure 1 layout (see perm.rs): with one indexed pivot per point,
        // query a shares its closest pivot π1 with b but not with c or d —
        // so b is the sole candidate besides a itself.
        let pivots = vec![
            vec![0.0f32, 0.0],
            vec![3.0, 0.0],
            vec![-2.5, 2.0],
            vec![2.8, 3.5],
        ];
        let a = vec![0.5f32, 0.5];
        let data = Arc::new(Dataset::new(vec![
            a.clone(),
            vec![1.2, 0.3],  // b
            vec![-1.2, 1.4], // c
            vec![2.9, 2.0],  // d
        ]));
        // Build with our own pivot wiring: sample seed yields data points as
        // pivots, so instead construct via the public API with num_pivots =
        // 4 and then overwrite pivots/postings through a rebuilt instance.
        let params = NappParams {
            num_pivots: 4,
            num_indexed: 1,
            num_query_pivots: 0,
            min_shared: 1,
            max_candidates: None,
            threads: 1,
        };
        let mut idx = Napp::build(data.clone(), L2, params.clone(), 0);
        // Overwrite the sampled pivots with the exact Figure 1 pivots and
        // rebuild postings accordingly.
        idx.pivots = pivots;
        let closest = Napp::closest_pivots(&data, &L2, &idx.pivots, &params);
        idx.postings = vec![Vec::new(); 4];
        for (id, ps) in closest.iter().enumerate() {
            for &p in ps {
                idx.postings[p as usize].push(id as u32);
            }
        }
        let res = idx.search(&a, 2);
        let ids: Vec<u32> = res.iter().map(|n| n.id).collect();
        assert_eq!(ids, vec![0, 1], "a itself then b; got {ids:?}");
    }

    #[test]
    fn reaches_high_recall_with_generous_parameters() {
        let (data, queries) = small_world();
        let params = NappParams {
            num_pivots: 128,
            num_indexed: 16,
            min_shared: 1,
            threads: 2,
            ..Default::default()
        };
        let idx = Napp::build(data.clone(), L2, params, 3);
        let mut total = 0.0;
        for q in queries {
            let res = idx.search(q, 10);
            let truth = gold(data, q, 10);
            let hit = truth
                .iter()
                .filter(|t| res.iter().any(|n| n.id == **t))
                .count();
            total += hit as f64 / truth.len() as f64;
        }
        let avg = total / queries.len() as f64;
        assert!(avg > 0.85, "avg recall {avg}");
    }

    #[test]
    fn larger_min_shared_reduces_candidates() {
        let (data, queries) = small_world();
        let build = |t: u32| {
            Napp::build(
                data.clone(),
                L2,
                NappParams {
                    num_pivots: 128,
                    num_indexed: 16,
                    min_shared: t,
                    threads: 2,
                    ..Default::default()
                },
                3,
            )
        };
        let loose = build(1);
        let strict = build(8);
        // Strict filtering cannot return more results than loose filtering
        // finds, and usually returns fewer/worse.
        let q = &queries[0];
        let loose_res = loose.search(q, 10);
        let strict_res = strict.search(q, 10);
        assert!(strict_res.len() <= loose_res.len());
    }

    #[test]
    fn max_candidates_caps_refinement() {
        let (data, queries) = small_world();
        let idx = Napp::build(
            data.clone(),
            L2,
            NappParams {
                num_pivots: 128,
                num_indexed: 16,
                min_shared: 1,
                max_candidates: Some(30),
                threads: 2,
                ..Default::default()
            },
            3,
        );
        // Results are still valid and sorted.
        let res = idx.search(&queries[0], 10);
        assert!(res.len() <= 10);
        assert!(res.windows(2).all(|w| w[0].dist <= w[1].dist));
    }

    #[test]
    fn posting_lists_partition_points_mi_times() {
        let (data, _) = small_world();
        let params = NappParams {
            num_pivots: 64,
            num_indexed: 8,
            threads: 2,
            ..Default::default()
        };
        let idx = Napp::build(data.clone(), L2, params, 9);
        let total: usize = idx.postings.iter().map(Vec::len).sum();
        assert_eq!(total, data.len() * 8, "every point posted mi times");
        for list in &idx.postings {
            assert!(list.windows(2).all(|w| w[0] < w[1]), "sorted, unique ids");
        }
        assert!(idx.index_size_bytes() >= total * 4);
    }

    #[test]
    fn empty_dataset() {
        let data: Arc<Dataset<Vec<f32>>> = Arc::new(Dataset::new(vec![vec![0.0f32; 4]]));
        let idx = Napp::build(
            data,
            L2,
            NappParams {
                num_pivots: 1,
                num_indexed: 1,
                min_shared: 1,
                threads: 1,
                ..Default::default()
            },
            0,
        );
        let res = idx.search(&vec![0.0f32; 4], 1);
        assert_eq!(res.len(), 1);
        assert_eq!(idx.name(), "napp");
    }
}
