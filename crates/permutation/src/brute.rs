//! Brute-force searching of permutations (paper §2.2, §3.2).
//!
//! The filtering stage exhaustively compares the query permutation against
//! every stored permutation, selects the γ closest with incremental sorting
//! (twice as fast as a priority queue per Chávez et al. and our bench), and
//! refines the candidates with the original distance.
//!
//! Two variants, matching the paper's "brute-force filt." and "brute-force
//! filt. bin." curves:
//!
//! * [`BruteForcePermFilter`] — full rank vectors under Spearman's rho or
//!   the Footrule;
//! * [`BruteForceBinFilter`] — bit-packed binarized permutations under the
//!   Hamming distance (XOR + popcount), the winner on DNA (Figure 4f)
//!   because 256 binarized pivots cost 32 bytes per point.
//!
//! The filtering cost is linear in `n`, so these methods pay off only when
//! the original distance is expensive (SQFD, normalized Levenshtein) — the
//! paper's central observation about when permutation methods are useful.

use std::sync::Arc;

use permsearch_core::incsort::k_smallest;
use permsearch_core::{Dataset, Neighbor, Point, SearchIndex, SearchScratch, Space, Stage};

use crate::binary::BinarizedPermutations;
use crate::perm::{compute_ranks_into, PermutationTable};
use crate::refine::refine_into;

/// Which permutation distance the filter stage uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum PermDistanceKind {
    /// Spearman's rho `Σ (x_i − y_i)^2` — the paper's default.
    #[default]
    SpearmanRho,
    /// The Footrule `Σ |x_i − y_i|`.
    Footrule,
}

/// Brute-force filtering over full permutations.
pub struct BruteForcePermFilter<P, S> {
    pub(crate) data: Arc<Dataset<P>>,
    pub(crate) space: S,
    pub(crate) pivots: Vec<P>,
    pub(crate) table: PermutationTable,
    pub(crate) distance: PermDistanceKind,
    pub(crate) gamma: f64,
}

impl<P, S> BruteForcePermFilter<P, S>
where
    P: Point + Sync,
    S: Space<P::Ref> + Sync,
{
    /// Build the filter: `num_pivots` random pivots (selected by the
    /// caller via [`crate::select_pivots`] — passed in explicitly so
    /// variants share pivots), permutations computed with `threads`
    /// workers, candidate budget `gamma` as a fraction of the dataset.
    pub fn build(
        data: Arc<Dataset<P>>,
        space: S,
        pivots: Vec<P>,
        distance: PermDistanceKind,
        gamma: f64,
        threads: usize,
    ) -> Self {
        assert!(gamma > 0.0 && gamma <= 1.0, "gamma must be in (0, 1]");
        let table = PermutationTable::build(&data, &space, &pivots, threads);
        Self {
            data,
            space,
            pivots,
            table,
            distance,
            gamma,
        }
    }

    /// Number of candidate records the filter keeps for a dataset of the
    /// indexed size (at least `k` at query time).
    pub fn candidate_budget(&self) -> usize {
        ((self.data.len() as f64 * self.gamma).ceil() as usize).max(1)
    }

    /// The permutation table (exposed for diagnostics / Figure 3 curves).
    pub fn table(&self) -> &PermutationTable {
        &self.table
    }
}

impl<P, S> SearchIndex<P> for BruteForcePermFilter<P, S>
where
    P: Point + Sync,
    S: Space<P::Ref> + Sync,
{
    /// Scratch pipeline: the query permutation is induced with batched
    /// pivot scoring, the filtering stage is one flat scan over the
    /// contiguous permutation table, and refinement scores the γ survivors
    /// in batched blocks — all through reused buffers.
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
        // Filtering: permutation distance to every point, flat scan.
        match self.distance {
            PermDistanceKind::SpearmanRho => self
                .table
                .scan_rho_into(&scratch.ranks, &mut scratch.scored_u64),
            PermDistanceKind::Footrule => self
                .table
                .scan_footrule_into(&scratch.ranks, &mut scratch.scored_u64),
        }
        let gamma = self.candidate_budget().max(k).min(n);
        k_smallest(&mut scratch.scored_u64, gamma, |a, b| a.cmp(b));
        scratch.trace.finish(Stage::Filter, t0);
        // Refinement with the original distance.
        let SearchScratch {
            scored_u64,
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
            scored_u64[..gamma].iter().map(|&(_, id)| id),
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
        "brute-force filt."
    }

    fn index_size_bytes(&self) -> usize {
        self.table.size_bytes()
    }
}

/// Brute-force filtering over binarized permutations (Hamming distance).
pub struct BruteForceBinFilter<P, S> {
    pub(crate) data: Arc<Dataset<P>>,
    pub(crate) space: S,
    pub(crate) pivots: Vec<P>,
    pub(crate) table: BinarizedPermutations,
    pub(crate) gamma: f64,
}

impl<P, S> BruteForceBinFilter<P, S>
where
    P: Point + Sync,
    S: Space<P::Ref> + Sync,
{
    /// Build with binarization threshold `m / 2` (paper's balanced choice).
    pub fn build(
        data: Arc<Dataset<P>>,
        space: S,
        pivots: Vec<P>,
        gamma: f64,
        threads: usize,
    ) -> Self {
        assert!(gamma > 0.0 && gamma <= 1.0, "gamma must be in (0, 1]");
        let table = BinarizedPermutations::build(&data, &space, &pivots, None, threads);
        Self {
            data,
            space,
            pivots,
            table,
            gamma,
        }
    }

    /// Candidate budget for the indexed dataset size.
    pub fn candidate_budget(&self) -> usize {
        ((self.data.len() as f64 * self.gamma).ceil() as usize).max(1)
    }
}

impl<P, S> SearchIndex<P> for BruteForceBinFilter<P, S>
where
    P: Point + Sync,
    S: Space<P::Ref> + Sync,
{
    /// Scratch pipeline: batched query-permutation induction, one flat
    /// XOR+popcount pass over the contiguous word table, batched
    /// refinement.
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
        self.table
            .pack_query_into(&scratch.ranks, &mut scratch.qwords);
        self.table
            .scan_hamming_into(&scratch.qwords, &mut scratch.scored_u32);
        let gamma = self.candidate_budget().max(k).min(n);
        k_smallest(&mut scratch.scored_u32, gamma, |a, b| a.cmp(b));
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
        "brute-force filt. bin."
    }

    fn index_size_bytes(&self) -> usize {
        self.table.size_bytes()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use permsearch_core::rng::seeded_rng;
    use permsearch_datasets::{DenseGaussianMixture, Generator};
    use permsearch_spaces::L2;
    use rand::Rng;

    use crate::pivots::select_pivots;

    fn small_world() -> (Arc<Dataset<Vec<f32>>>, Vec<Vec<f32>>) {
        let gen = DenseGaussianMixture::new(12, 6, 0.15);
        let data = Arc::new(Dataset::new(gen.generate(600, 11)));
        let queries = gen.generate(20, 99);
        (data, queries)
    }

    /// Exact 10-NN by linear scan.
    fn gold(data: &Dataset<Vec<f32>>, q: &[f32], k: usize) -> Vec<u32> {
        let mut all: Vec<(f32, u32)> = data.iter().map(|(id, p)| (L2.distance(p, q), id)).collect();
        all.sort_by(|a, b| a.0.total_cmp(&b.0));
        all[..k].iter().map(|&(_, id)| id).collect()
    }

    fn recall(result: &[Neighbor], truth: &[u32]) -> f64 {
        let found = truth
            .iter()
            .filter(|t| result.iter().any(|n| n.id == **t))
            .count();
        found as f64 / truth.len() as f64
    }

    #[test]
    fn high_gamma_reaches_high_recall() {
        let (data, queries) = small_world();
        let pivots = select_pivots(&data, 64, 5);
        let idx = BruteForcePermFilter::build(
            data.clone(),
            L2,
            pivots,
            PermDistanceKind::SpearmanRho,
            0.3,
            2,
        );
        let mut total = 0.0;
        for q in &queries {
            let res = idx.search(q, 10);
            assert_eq!(res.len(), 10);
            assert!(res.windows(2).all(|w| w[0].dist <= w[1].dist));
            total += recall(&res, &gold(&data, q, 10));
        }
        let avg = total / queries.len() as f64;
        assert!(avg > 0.88, "avg recall {avg}");
    }

    #[test]
    fn footrule_variant_works() {
        let (data, queries) = small_world();
        let pivots = select_pivots(&data, 64, 5);
        let idx = BruteForcePermFilter::build(
            data.clone(),
            L2,
            pivots,
            PermDistanceKind::Footrule,
            0.3,
            2,
        );
        let mut total = 0.0;
        for q in &queries {
            total += recall(&idx.search(q, 10), &gold(&data, q, 10));
        }
        let avg = total / queries.len() as f64;
        assert!(avg > 0.85, "avg recall {avg}");
    }

    #[test]
    fn binarized_variant_reaches_reasonable_recall() {
        let (data, queries) = small_world();
        let pivots = select_pivots(&data, 128, 5);
        let idx = BruteForceBinFilter::build(data.clone(), L2, pivots, 0.25, 2);
        let mut total = 0.0;
        for q in &queries {
            let res = idx.search(q, 10);
            assert_eq!(res.len(), 10);
            total += recall(&res, &gold(&data, q, 10));
        }
        let avg = total / queries.len() as f64;
        assert!(avg > 0.75, "avg recall {avg}");
    }

    #[test]
    fn self_query_returns_self_first() {
        let (data, _) = small_world();
        let pivots = select_pivots(&data, 32, 3);
        let idx = BruteForcePermFilter::build(
            data.clone(),
            L2,
            pivots,
            PermDistanceKind::SpearmanRho,
            0.1,
            1,
        );
        let mut rng = seeded_rng(0);
        for _ in 0..5 {
            let id = rng.gen_range(0..data.len()) as u32;
            let res = idx.search(&data.get(id).to_owned(), 5);
            assert_eq!(res[0].dist, 0.0);
        }
    }

    #[test]
    fn index_size_reporting() {
        let (data, _) = small_world();
        let pivots = select_pivots(&data, 32, 3);
        let full = BruteForcePermFilter::build(
            data.clone(),
            L2,
            pivots.clone(),
            PermDistanceKind::SpearmanRho,
            0.1,
            1,
        );
        let binf = BruteForceBinFilter::build(data.clone(), L2, pivots, 0.1, 1);
        // Full perms: n*m*4 bytes; binarized: n*ceil(m/64)*8 bytes.
        assert_eq!(full.index_size_bytes(), 600 * 32 * 4);
        assert_eq!(binf.index_size_bytes(), 600 * 8);
        assert_eq!(full.len(), 600);
        assert_eq!(binf.name(), "brute-force filt. bin.");
    }

    #[test]
    fn empty_dataset_returns_empty() {
        let data: Arc<Dataset<Vec<f32>>> = Arc::new(Dataset::default());
        let pivots = vec![vec![0.0f32; 12]; 4];
        let idx =
            BruteForcePermFilter::build(data, L2, pivots, PermDistanceKind::SpearmanRho, 0.5, 1);
        assert!(idx.search(&vec![0.0f32; 12], 3).is_empty());
        assert!(idx.is_empty());
    }

    #[test]
    #[should_panic(expected = "gamma must be in")]
    fn invalid_gamma_panics() {
        let data: Arc<Dataset<Vec<f32>>> = Arc::new(Dataset::new(vec![vec![0.0f32]]));
        let _ = BruteForcePermFilter::build(
            data,
            L2,
            vec![vec![0.0f32]],
            PermDistanceKind::SpearmanRho,
            0.0,
            1,
        );
    }
}
