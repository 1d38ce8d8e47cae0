//! OMEDRANK — rank aggregation over pivot orderings (Fagin et al., paper
//! §2.1 and §3.2).
//!
//! The dual of permutation methods: instead of each *point* ranking the
//! pivots, each *pivot* ranks the data points by distance. At query time
//! the query's position in every pivot's ranking is located by binary
//! search, and cursors expand outward from those positions in lockstep; a
//! data point becomes a candidate as soon as it has been encountered in
//! more than half of the rankings (the MEDRANK median-rank heuristic —
//! exact aggregation is NP-complete, as the paper notes).

use std::sync::Arc;

use crossbeam::thread;

use permsearch_core::{Dataset, Neighbor, Point, SearchIndex, SearchScratch, Space};

use crate::pivots::select_pivots;
use crate::refine::refine_into;

/// OMEDRANK tuning parameters.
#[derive(Debug, Clone)]
pub struct OmedRankParams {
    /// Number of voting pivots (rankings). Fagin et al. use a small set.
    pub num_pivots: usize,
    /// Candidate budget γ as a fraction of the dataset.
    pub gamma: f64,
    /// Fraction of rankings a point must appear in to be output
    /// (MEDRANK uses strictly more than 1/2).
    pub quorum: f64,
    /// Construction worker threads.
    pub threads: usize,
}

impl Default for OmedRankParams {
    fn default() -> Self {
        Self {
            num_pivots: 15,
            gamma: 0.02,
            quorum: 0.5,
            threads: 4,
        }
    }
}

/// The OMEDRANK index: one distance-sorted id list per voting pivot.
pub struct OmedRank<P, S> {
    data: Arc<Dataset<P>>,
    space: S,
    pivots: Vec<P>,
    /// `lists[p]` = (distance to pivot p, id), sorted by distance.
    lists: Vec<Vec<(f32, u32)>>,
    params: OmedRankParams,
}

impl<P, S> OmedRank<P, S>
where
    P: Point + Clone + Sync,
    S: Space<P::Ref> + Sync,
{
    /// Build the index; voting pivots are sampled from the data with
    /// `seed`.
    pub fn build(data: Arc<Dataset<P>>, space: S, params: OmedRankParams, seed: u64) -> Self {
        assert!(params.num_pivots > 0);
        assert!(params.gamma > 0.0 && params.gamma <= 1.0);
        assert!((0.0..1.0).contains(&params.quorum));
        let pivots = select_pivots(&data, params.num_pivots, seed);
        let mut lists: Vec<Vec<(f32, u32)>> =
            vec![Vec::with_capacity(data.len()); params.num_pivots];
        let threads = params.threads.max(1).min(params.num_pivots);
        let chunk = params.num_pivots.div_ceil(threads);
        let data_ref: &Dataset<P> = data.as_ref();
        let space_ref = &space;
        let pivots_ref = &pivots;
        thread::scope(|s| {
            for (t, slot) in lists.chunks_mut(chunk).enumerate() {
                let start = t * chunk;
                s.spawn(move |_| {
                    for (j, list) in slot.iter_mut().enumerate() {
                        let pivot = &pivots_ref[start + j];
                        // Data point is the left argument, pivot plays the
                        // query role in this ranking.
                        *list = data_ref
                            .iter()
                            .map(|(id, p)| (space_ref.distance(p, pivot.point_ref()), id))
                            .collect();
                        list.sort_unstable_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
                    }
                });
            }
        })
        .expect("OMEDRANK indexing worker panicked");
        Self {
            data,
            space,
            pivots,
            lists,
            params,
        }
    }

    /// The parameters the index was built with.
    pub fn params(&self) -> &OmedRankParams {
        &self.params
    }
}

impl<P, S> SearchIndex<P> for OmedRank<P, S>
where
    P: Point + Clone + Sync,
    S: Space<P::Ref> + Sync,
{
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
        let l = self.lists.len();
        let quorum = ((l as f64 * self.params.quorum).floor() as u32 + 1).min(l as u32);
        let gamma = (((n as f64) * self.params.gamma).ceil() as usize)
            .max(k)
            .min(n);

        // Query's distance to each voting pivot and the insertion position
        // in each ranking.
        let mut cursors: Vec<(usize, usize, f32)> = self
            .lists
            .iter()
            .enumerate()
            .map(|(p, list)| {
                let qd = self
                    .space
                    .distance(query.point_ref(), self.pivots[p].point_ref());
                let pos = list.partition_point(|&(d, _)| d < qd);
                (pos, pos, qd) // (hi, lo, query distance); hi points at next unseen above
            })
            .collect();

        let mut seen_count = vec![0u32; n];
        let mut candidates: Vec<u32> = Vec::with_capacity(gamma);
        let mut exhausted = 0usize;
        // Round-robin expansion: each list advances its cheaper frontier.
        while candidates.len() < gamma && exhausted < l {
            exhausted = 0;
            for (li, cur) in cursors.iter_mut().enumerate() {
                let list = &self.lists[li];
                let (hi, lo, qd) = *cur;
                // Pick the frontier entry whose pivot distance is nearest
                // to the query's.
                let up = (hi < list.len()).then(|| (list[hi].0 - qd).abs());
                let down = (lo > 0).then(|| (qd - list[lo - 1].0).abs());
                let id = match (up, down) {
                    (None, None) => {
                        exhausted += 1;
                        continue;
                    }
                    (Some(_), None) => {
                        cur.0 += 1;
                        list[hi].1
                    }
                    (None, Some(_)) => {
                        cur.1 -= 1;
                        list[lo - 1].1
                    }
                    (Some(u), Some(d)) => {
                        if u <= d {
                            cur.0 += 1;
                            list[hi].1
                        } else {
                            cur.1 -= 1;
                            list[lo - 1].1
                        }
                    }
                };
                let c = &mut seen_count[id as usize];
                *c += 1;
                if *c == quorum {
                    candidates.push(id);
                    if candidates.len() >= gamma {
                        break;
                    }
                }
            }
        }
        let SearchScratch {
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
            candidates,
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
        "omedrank"
    }

    fn index_size_bytes(&self) -> usize {
        self.lists
            .iter()
            .map(|list| list.len() * 8 + std::mem::size_of::<Vec<(f32, u32)>>())
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
        let data = Arc::new(Dataset::new(gen.generate(700, 51)));
        let queries = gen.generate(25, 107);
        (data, queries)
    }

    #[test]
    fn reaches_reasonable_recall() {
        let (data, queries) = small_world();
        let idx = OmedRank::build(
            data.clone(),
            L2,
            OmedRankParams {
                num_pivots: 32,
                gamma: 0.3,
                quorum: 0.5,
                threads: 2,
            },
            17,
        );
        let mut total = 0.0;
        for q in &queries {
            let mut all: Vec<(f32, u32)> =
                data.iter().map(|(id, p)| (L2.distance(p, q), id)).collect();
            all.sort_by(|a, b| a.0.total_cmp(&b.0));
            let truth: Vec<u32> = all[..10].iter().map(|&(_, id)| id).collect();
            let res = idx.search(q, 10);
            total += truth
                .iter()
                .filter(|t| res.iter().any(|n| n.id == **t))
                .count() as f64
                / 10.0;
        }
        let avg = total / queries.len() as f64;
        // OMEDRANK's shell-intersection signal is weak — the paper itself
        // found it inferior to NAPP; we only require a clearly
        // better-than-chance filter here (chance recall at γ = 0.3 is 0.3).
        assert!(avg > 0.45, "avg recall {avg}");
    }

    #[test]
    fn rankings_are_sorted_and_complete() {
        let (data, _) = small_world();
        let idx = OmedRank::build(data.clone(), L2, OmedRankParams::default(), 17);
        for list in &idx.lists {
            assert_eq!(list.len(), data.len());
            assert!(list.windows(2).all(|w| w[0].0 <= w[1].0));
        }
        assert_eq!(idx.index_size_bytes(), 15 * (data.len() * 8 + 24));
    }

    #[test]
    fn self_query_finds_itself() {
        let (data, _) = small_world();
        let idx = OmedRank::build(
            data.clone(),
            L2,
            OmedRankParams {
                num_pivots: 10,
                gamma: 0.05,
                quorum: 0.5,
                threads: 1,
            },
            17,
        );
        let res = idx.search(&data.get(42).to_owned(), 3);
        assert_eq!(res[0].id, 42);
        assert_eq!(res[0].dist, 0.0);
    }

    #[test]
    fn tiny_dataset_exhausts_lists_gracefully() {
        let data = Arc::new(Dataset::new(vec![
            vec![0.0f32, 0.0],
            vec![1.0, 0.0],
            vec![0.0, 1.0],
        ]));
        let idx = OmedRank::build(
            data,
            L2,
            OmedRankParams {
                num_pivots: 2,
                gamma: 1.0,
                quorum: 0.5,
                threads: 1,
            },
            3,
        );
        let res = idx.search(&vec![0.1f32, 0.1], 3);
        assert_eq!(res.len(), 3);
    }
}
