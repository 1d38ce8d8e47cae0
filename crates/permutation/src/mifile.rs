//! MI-file — Metric Inverted File (Amato & Savino, paper §2.3).
//!
//! Like NAPP, only the `mi` pivots closest to each point are indexed; unlike
//! NAPP, each posting stores the pivot's **position** in the point's
//! permutation: `(pos(π_i, x), x)`, and posting lists are kept sorted by
//! position. At query time the `ms ≤ mi` pivots closest to the query are
//! read and an estimate of the Footrule distance on truncated permutations
//! is accumulated:
//!
//! * accumulators start at `ms · m` (the pessimistic assumption that
//!   unseen pivots sit at the maximum position `m`);
//! * for every encountered posting, `m − |pos(π_i, x) − pos(π_i, q)|` is
//!   subtracted.
//!
//! The *maximum position difference* optimization restricts each posting
//! list to the window `|pos(π_i, x) − pos(π_i, q)| ≤ D`, located by binary
//! search thanks to the position ordering.

use std::sync::Arc;

use crossbeam::thread;

use permsearch_core::incsort::k_smallest;
use permsearch_core::{Dataset, Neighbor, Point, SearchIndex, SearchScratch, Space, Stage};

use crate::perm::{compute_ranks, compute_ranks_into};
use crate::pivots::select_pivots;
use crate::refine::refine_into;

/// MI-file tuning parameters.
#[derive(Debug, Clone)]
pub struct MiFileParams {
    /// Total number of pivots `m`.
    pub num_pivots: usize,
    /// Indexed (closest) pivots per point, `mi`.
    pub num_indexed: usize,
    /// Query pivots `ms ≤ mi` whose posting lists are read; `0` = `mi`.
    pub num_query_pivots: usize,
    /// Maximum position difference `D`; `None` disables the optimization.
    pub max_pos_diff: Option<u32>,
    /// Candidate budget as a fraction of the dataset (γ).
    pub gamma: f64,
    /// Construction worker threads.
    pub threads: usize,
}

impl Default for MiFileParams {
    fn default() -> Self {
        Self {
            num_pivots: 512,
            num_indexed: 32,
            num_query_pivots: 0,
            max_pos_diff: None,
            gamma: 0.01,
            threads: 4,
        }
    }
}

/// One posting: the pivot's position in the inducing point's permutation
/// and the point id.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Posting {
    pub(crate) pos: u16,
    pub(crate) id: u32,
}

/// The MI-file index.
pub struct MiFile<P, S> {
    pub(crate) data: Arc<Dataset<P>>,
    pub(crate) space: S,
    pub(crate) pivots: Vec<P>,
    /// `postings[p]` sorted by `pos` (ties by id).
    pub(crate) postings: Vec<Vec<Posting>>,
    pub(crate) params: MiFileParams,
}

impl<P, S> MiFile<P, S>
where
    P: Point + Clone + Sync,
    S: Space<P::Ref> + Sync,
{
    /// Build the index; pivots are sampled from the data with `seed`.
    pub fn build(data: Arc<Dataset<P>>, space: S, params: MiFileParams, seed: u64) -> Self {
        assert!(params.num_pivots > 0 && params.num_pivots <= u16::MAX as usize);
        assert!(
            params.num_indexed > 0 && params.num_indexed <= params.num_pivots,
            "num_indexed must be in 1..=num_pivots"
        );
        assert!(params.gamma > 0.0 && params.gamma <= 1.0);
        let pivots = select_pivots(&data, params.num_pivots, seed);

        // Parallel permutation computation; collect (pivot, pos, id).
        let n = data.len();
        let mi = params.num_indexed;
        let mut rows: Vec<Vec<(u32, u16)>> = vec![Vec::new(); n];
        if n > 0 {
            let threads = params.threads.max(1).min(n);
            let chunk = n.div_ceil(threads);
            let pv = &pivots;
            let sp = &space;
            let data_ref = &data;
            thread::scope(|s| {
                for (t, slot) in rows.chunks_mut(chunk).enumerate() {
                    let start = (t * chunk) as u32;
                    s.spawn(move |_| {
                        for (slot, id) in slot.iter_mut().zip(start..) {
                            let ranks = compute_ranks(sp, pv, data_ref.get(id));
                            let mut entry = Vec::with_capacity(mi);
                            for (pivot, &r) in ranks.iter().enumerate() {
                                if (r as usize) < mi {
                                    entry.push((pivot as u32, r as u16));
                                }
                            }
                            *slot = entry;
                        }
                    });
                }
            })
            .expect("MI-file indexing worker panicked");
        }

        let mut postings: Vec<Vec<Posting>> = vec![Vec::new(); params.num_pivots];
        for (id, entries) in rows.iter().enumerate() {
            for &(pivot, pos) in entries {
                postings[pivot as usize].push(Posting { pos, id: id as u32 });
            }
        }
        for list in &mut postings {
            list.sort_unstable_by(|a, b| a.pos.cmp(&b.pos).then(a.id.cmp(&b.id)));
        }
        Self {
            data,
            space,
            pivots,
            postings,
            params,
        }
    }

    fn ms(&self) -> usize {
        if self.params.num_query_pivots == 0 {
            self.params.num_indexed
        } else {
            self.params.num_query_pivots.min(self.params.num_indexed)
        }
    }

    /// The parameters the index was built with.
    pub fn params(&self) -> &MiFileParams {
        &self.params
    }
}

impl<P, S> SearchIndex<P> for MiFile<P, S>
where
    P: Point + Clone + Sync,
    S: Space<P::Ref> + Sync,
{
    /// Scratch pipeline: the accumulator array is re-initialized in place
    /// (same pessimistic `ms · m` start), the touched-id and scored
    /// buffers are reused, query-permutation induction and refinement are
    /// batched.
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
        let m = self.params.num_pivots as u32;
        let ms = self.ms();
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

        // The ms pivots closest to the query, with their query positions.
        let q_pivots = &mut scratch.pivot_pos;
        q_pivots.clear();
        for (pivot, &r) in scratch.ranks.iter().enumerate() {
            if (r as usize) < ms {
                q_pivots.push((pivot as u32, r as u16));
            }
        }

        // Accumulators start at the pessimistic ms * m; every encountered
        // posting subtracts m - |pos_x - pos_q| (paper §2.3). Untouched
        // entries keep the initial value and are never candidates.
        let init = ms as u32 * m;
        let acc = &mut scratch.acc;
        acc.clear();
        acc.resize(n, init);
        let touched = &mut scratch.touched;
        touched.clear();
        for &(pivot, q_pos) in q_pivots.iter() {
            let list = &self.postings[pivot as usize];
            let (lo, hi) = match self.params.max_pos_diff {
                Some(d) => {
                    let lo_pos = q_pos.saturating_sub(d as u16);
                    let hi_pos = q_pos.saturating_add(d as u16);
                    let lo = list.partition_point(|p| p.pos < lo_pos);
                    let hi = list.partition_point(|p| p.pos <= hi_pos);
                    (lo, hi)
                }
                None => (0, list.len()),
            };
            for p in &list[lo..hi] {
                let a = &mut acc[p.id as usize];
                if *a == init {
                    touched.push(p.id);
                }
                *a -= m - u32::from(p.pos.abs_diff(q_pos));
            }
        }

        let gamma = (((n as f64) * self.params.gamma).ceil() as usize)
            .max(k)
            .min(touched.len());
        let scored = &mut scratch.scored_u32;
        scored.clear();
        scored.extend(touched.iter().map(|&id| (acc[id as usize], id)));
        k_smallest(scored, gamma, |a, b| a.cmp(b));
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
            scored_u32[..gamma].iter().map(|&(_, id)| id),
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
        "mi-file"
    }

    fn index_size_bytes(&self) -> usize {
        self.postings
            .iter()
            .map(|l| l.len() * std::mem::size_of::<Posting>() + std::mem::size_of::<Vec<Posting>>())
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use permsearch_datasets::{DenseGaussianMixture, Generator};
    use permsearch_spaces::L2;

    fn small_world() -> (Arc<Dataset<Vec<f32>>>, Vec<Vec<f32>>) {
        let gen = DenseGaussianMixture::new(12, 6, 0.15);
        let data = Arc::new(Dataset::new(gen.generate(800, 31)));
        let queries = gen.generate(25, 87);
        (data, queries)
    }

    fn recall_of(
        idx: &MiFile<Vec<f32>, L2>,
        data: &Dataset<Vec<f32>>,
        queries: &[Vec<f32>],
    ) -> f64 {
        let mut total = 0.0;
        for q in queries {
            let mut all: Vec<(f32, u32)> =
                data.iter().map(|(id, p)| (L2.distance(p, q), id)).collect();
            all.sort_by(|a, b| a.0.total_cmp(&b.0));
            let truth: Vec<u32> = all[..10].iter().map(|&(_, id)| id).collect();
            let res = idx.search(q, 10);
            let hit = truth
                .iter()
                .filter(|t| res.iter().any(|n| n.id == **t))
                .count();
            total += hit as f64 / 10.0;
        }
        total / queries.len() as f64
    }

    #[test]
    fn paper_worked_accumulator_example() {
        // Paper §2.3: Figure 1 points, mi = ms = 2, query a. Accumulators
        // start at 4·2 = 8; after reading π1 and π2's lists the
        // accumulators of b, c, d are 0, 5, 4 — predicting order b, d, c.
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
        let params = MiFileParams {
            num_pivots: 4,
            num_indexed: 2,
            num_query_pivots: 0,
            max_pos_diff: None,
            gamma: 1.0,
            threads: 1,
        };
        let mut idx = MiFile::build(data.clone(), L2, params.clone(), 0);
        // Install the exact Figure 1 pivots and rebuild postings.
        idx.pivots = pivots.clone();
        let mut postings: Vec<Vec<Posting>> = vec![Vec::new(); 4];
        for (id, p) in data.iter() {
            let ranks = compute_ranks(&L2, &pivots, p);
            for (pivot, &r) in ranks.iter().enumerate() {
                if r < 2 {
                    postings[pivot].push(Posting { pos: r as u16, id });
                }
            }
        }
        for l in &mut postings {
            l.sort_unstable_by(|x, y| x.pos.cmp(&y.pos).then(x.id.cmp(&y.id)));
        }
        idx.postings = postings;

        let res = idx.search(&a, 4);
        // The refine step re-ranks by true distance; the filter must have
        // passed a (acc 0, the query point itself), b (0), d (4), c (5).
        let ids: Vec<u32> = res.iter().map(|n| n.id).collect();
        assert_eq!(ids[0], 0, "query point first");
        assert_eq!(ids[1], 1, "b is the true 1-NN and passes the filter");
        assert_eq!(res.len(), 4);
    }

    #[test]
    fn reaches_high_recall() {
        let (data, queries) = small_world();
        let idx = MiFile::build(
            data.clone(),
            L2,
            MiFileParams {
                num_pivots: 128,
                num_indexed: 64,
                gamma: 0.2,
                threads: 2,
                ..Default::default()
            },
            5,
        );
        let r = recall_of(&idx, &data, &queries);
        assert!(r > 0.8, "recall {r}");
    }

    #[test]
    fn max_pos_diff_trades_recall_for_fewer_candidates() {
        let (data, queries) = small_world();
        let build = |d: Option<u32>| {
            MiFile::build(
                data.clone(),
                L2,
                MiFileParams {
                    num_pivots: 128,
                    num_indexed: 32,
                    max_pos_diff: d,
                    gamma: 0.05,
                    threads: 2,
                    ..Default::default()
                },
                5,
            )
        };
        let unlimited = build(None);
        let windowed = build(Some(4));
        let r_unlimited = recall_of(&unlimited, &data, &queries);
        let r_windowed = recall_of(&windowed, &data, &queries);
        // The window only removes candidates, so it cannot improve recall
        // beyond the unlimited variant (allowing small sampling noise).
        assert!(
            r_windowed <= r_unlimited + 0.05,
            "{r_windowed} vs {r_unlimited}"
        );
        assert!(r_windowed > 0.3, "window too destructive: {r_windowed}");
    }

    #[test]
    fn posting_lists_are_position_sorted() {
        let (data, _) = small_world();
        let idx = MiFile::build(
            data,
            L2,
            MiFileParams {
                num_pivots: 64,
                num_indexed: 8,
                threads: 2,
                ..Default::default()
            },
            5,
        );
        for list in &idx.postings {
            assert!(list.windows(2).all(|w| w[0].pos <= w[1].pos));
        }
        let total: usize = idx.postings.iter().map(Vec::len).sum();
        assert_eq!(total, idx.len() * 8);
        assert!(idx.index_size_bytes() > 0);
        assert_eq!(idx.name(), "mi-file");
    }
}
