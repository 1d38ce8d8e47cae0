//! Indexing permutations with a metric tree (Figueroa & Fredriksson,
//! paper §2.3 and §3.2).
//!
//! Spearman's rho is a monotonic transformation (squaring) of the
//! Euclidean distance between rank vectors, so the γ nearest permutations
//! can be found *exactly* by a VP-tree over the permutation space — no
//! brute-force scan needed for the filtering stage. The refine stage is
//! unchanged.
//!
//! The paper reports this variant was "either outperformed by the VP-tree
//! in the original space or by NAPP"; it is included both for completeness
//! and because it is the natural ablation between brute-force filtering
//! (same candidates, linear filter cost) and NAPP (different candidates,
//! sublinear filter cost). Our Figure-4-style sweeps reproduce that
//! finding.

use std::sync::Arc;

use permsearch_core::{Dataset, Neighbor, Point, SearchIndex, SearchScratch, Space};
use permsearch_vptree::{VpTree, VpTreeParams};

use crate::perm::{compute_ranks, PermutationTable, SpearmanRhoSpace};
use crate::refine::refine_into;

/// Parameters for the permutation-VP-tree method.
#[derive(Debug, Clone, Copy)]
pub struct PermVpTreeParams {
    /// Candidate budget γ as a fraction of the dataset.
    pub gamma: f64,
    /// VP-tree bucket size for the permutation tree.
    pub bucket_size: usize,
    /// Construction worker threads for the permutation table.
    pub threads: usize,
}

impl Default for PermVpTreeParams {
    fn default() -> Self {
        Self {
            gamma: 0.02,
            bucket_size: 32,
            threads: 4,
        }
    }
}

/// Filter-and-refine index whose filtering stage is an exact VP-tree k-NN
/// search in the permutation (rank-vector) space under `sqrt(rho)`.
pub struct PermVpTree<P, S> {
    data: Arc<Dataset<P>>,
    space: S,
    pivots: Vec<P>,
    tree: VpTree<Vec<u32>, SpearmanRhoSpace>,
    params: PermVpTreeParams,
}

impl<P, S> PermVpTree<P, S>
where
    P: Point + Sync,
    S: Space<P::Ref> + Sync,
{
    /// Build: compute all permutations (parallel), then index them in a
    /// metric VP-tree. The tree is exact (Spearman's rho is a squared
    /// metric), so filtering quality equals brute-force filtering with the
    /// same pivots and γ.
    pub fn build(
        data: Arc<Dataset<P>>,
        space: S,
        pivots: Vec<P>,
        params: PermVpTreeParams,
        seed: u64,
    ) -> Self {
        assert!(params.gamma > 0.0 && params.gamma <= 1.0);
        let table = PermutationTable::build(&data, &space, &pivots, params.threads);
        let perms: Vec<Vec<u32>> = (0..data.len() as u32)
            .map(|id| table.ranks(id).to_vec())
            .collect();
        let tree = VpTree::build(
            Arc::new(Dataset::new(perms)),
            SpearmanRhoSpace,
            VpTreeParams {
                bucket_size: params.bucket_size,
                ..Default::default()
            },
            seed,
        );
        Self {
            data,
            space,
            pivots,
            tree,
            params,
        }
    }

    /// Candidate budget for the indexed dataset size.
    pub fn candidate_budget(&self) -> usize {
        ((self.data.len() as f64 * self.params.gamma).ceil() as usize).max(1)
    }
}

impl<P, S> SearchIndex<P> for PermVpTree<P, S>
where
    P: Point + Sync,
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
        if self.data.is_empty() {
            return;
        }
        let q_ranks = compute_ranks(&self.space, &self.pivots, query.point_ref());
        let gamma = self.candidate_budget().max(k).min(self.data.len());
        let candidates = self.tree.search(&q_ranks, gamma);
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
            candidates.into_iter().map(|n| n.id),
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
        "perm-vptree"
    }

    fn index_size_bytes(&self) -> usize {
        // Permutation rows stored inside the tree's dataset + tree nodes.
        self.data.len() * self.pivots.len() * 4 + self.tree.index_size_bytes()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use permsearch_datasets::{DenseGaussianMixture, Generator};
    use permsearch_spaces::L2;

    use crate::brute::{BruteForcePermFilter, PermDistanceKind};
    use crate::pivots::select_pivots;

    fn world() -> (Arc<Dataset<Vec<f32>>>, Vec<Vec<f32>>) {
        let gen = DenseGaussianMixture::new(12, 6, 0.15);
        (
            Arc::new(Dataset::new(gen.generate(700, 61))),
            gen.generate(20, 63),
        )
    }

    #[test]
    fn matches_brute_force_filtering_recall() {
        // Same pivots, same gamma: the VP-tree filter is exact in the
        // permutation space, so recall must match brute-force filtering
        // (up to rho ties broken differently).
        let (data, queries) = world();
        let pivots = select_pivots(&data, 48, 5);
        let gamma = 0.1;
        let tree_variant = PermVpTree::build(
            data.clone(),
            L2,
            pivots.clone(),
            PermVpTreeParams {
                gamma,
                ..Default::default()
            },
            3,
        );
        let brute_variant = BruteForcePermFilter::build(
            data.clone(),
            L2,
            pivots,
            PermDistanceKind::SpearmanRho,
            gamma,
            2,
        );
        let mut agree = 0usize;
        let mut total = 0usize;
        for q in &queries {
            let a: Vec<u32> = tree_variant.search(q, 10).iter().map(|n| n.id).collect();
            let b: Vec<u32> = brute_variant.search(q, 10).iter().map(|n| n.id).collect();
            total += b.len();
            agree += b.iter().filter(|id| a.contains(id)).count();
        }
        let overlap = agree as f64 / total as f64;
        assert!(overlap > 0.9, "tree/brute candidate overlap {overlap}");
    }

    #[test]
    fn reaches_high_recall() {
        let (data, queries) = world();
        let pivots = select_pivots(&data, 64, 7);
        let idx = PermVpTree::build(
            data.clone(),
            L2,
            pivots,
            PermVpTreeParams {
                gamma: 0.2,
                ..Default::default()
            },
            3,
        );
        let mut totals = 0.0;
        for q in &queries {
            let mut all: Vec<(f32, u32)> =
                data.iter().map(|(id, p)| (L2.distance(p, q), id)).collect();
            all.sort_by(|a, b| a.0.total_cmp(&b.0));
            let truth: Vec<u32> = all[..10].iter().map(|&(_, id)| id).collect();
            let res = idx.search(q, 10);
            totals += truth
                .iter()
                .filter(|t| res.iter().any(|n| n.id == **t))
                .count() as f64
                / 10.0;
        }
        let recall = totals / queries.len() as f64;
        assert!(recall > 0.85, "recall {recall}");
    }

    #[test]
    fn reports_size_and_name() {
        let (data, _) = world();
        let pivots = select_pivots(&data, 16, 7);
        let idx = PermVpTree::build(data, L2, pivots, PermVpTreeParams::default(), 3);
        assert_eq!(idx.name(), "perm-vptree");
        assert!(idx.index_size_bytes() >= 700 * 16 * 4);
        assert_eq!(idx.len(), 700);
    }
}
