//! Exact brute-force search over the original space.
//!
//! The reference every experiment is measured against: the paper's
//! "improvement in efficiency" is the ratio of single-threaded brute-force
//! search time to a method's search time, and recall is computed against
//! the exact neighbors this scan returns.

use std::sync::Arc;

use permsearch_obs::Stage;

use crate::{score_all, Dataset, Neighbor, Point, SearchIndex, SearchScratch, Space};

/// Exact sequential-scan k-NN search.
///
/// Always scans full-precision points — never the SQ8 tier — because it is
/// the gold standard recall is measured against.
pub struct ExhaustiveSearch<P, S> {
    data: Arc<Dataset<P>>,
    space: S,
}

impl<P: Point, S: Space<P::Ref>> ExhaustiveSearch<P, S> {
    /// Wrap a dataset and space; no index construction is needed.
    pub fn new(data: Arc<Dataset<P>>, space: S) -> Self {
        Self { data, space }
    }

    /// Borrow the wrapped space.
    pub fn space(&self) -> &S {
        &self.space
    }

    /// Borrow the wrapped dataset.
    pub fn data(&self) -> &Arc<Dataset<P>> {
        &self.data
    }
}

impl<P: Point, S: Space<P::Ref>> SearchIndex<P> for ExhaustiveSearch<P, S> {
    /// Batched scan: points are scored in [`crate::BATCH_WIDTH`] blocks via
    /// [`Space::distance_block`] and offered to the reused result heap in
    /// increasing id order — the same push sequence as the scalar scan, so
    /// results (tie order included) are identical.
    fn search_into(
        &self,
        query: &P,
        k: usize,
        scratch: &mut SearchScratch,
        out: &mut Vec<Neighbor>,
    ) {
        // Budget boundary: the scan is all-or-nothing, so an expired
        // query returns empty instead of paying for the whole dataset.
        if !scratch.budget.checkpoint() {
            out.clear();
            return;
        }
        // The whole scan is the exact re-rank: attribute it to Refine.
        let t0 = scratch.trace.start();
        scratch
            .trace
            .add_dists(Stage::Refine, self.data.len() as u64);
        scratch.trace.add_candidates(self.data.len());
        let heap = &mut scratch.heap;
        heap.reset(k);
        score_all(
            &self.space,
            &self.data,
            query.point_ref(),
            &mut scratch.dists,
            |id, d| {
                heap.push(id, d);
            },
        );
        heap.drain_sorted_into(out);
        scratch.trace.finish(Stage::Refine, t0);
    }

    fn len(&self) -> usize {
        self.data.len()
    }

    fn name(&self) -> &'static str {
        "brute-force"
    }

    fn index_size_bytes(&self) -> usize {
        0 // no auxiliary structure beyond the dataset itself
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    struct Abs;
    impl Space<f32> for Abs {
        fn distance(&self, x: &f32, y: &f32) -> f32 {
            (x - y).abs()
        }
        fn name(&self) -> &'static str {
            "abs"
        }
    }

    #[test]
    fn finds_exact_neighbors_in_order() {
        let data = Arc::new(Dataset::new(vec![5.0f32, 1.0, 3.0, 2.0, 4.0]));
        let idx = ExhaustiveSearch::new(data, Abs);
        let res = idx.search(&2.2, 3);
        let ids: Vec<u32> = res.iter().map(|n| n.id).collect();
        assert_eq!(ids, vec![3, 2, 1]); // 2.0, 3.0, 1.0
        assert!(res.windows(2).all(|w| w[0].dist <= w[1].dist));
        assert_eq!(idx.name(), "brute-force");
        assert_eq!(idx.index_size_bytes(), 0);
    }

    #[test]
    fn k_larger_than_dataset() {
        let data = Arc::new(Dataset::new(vec![1.0f32, 2.0]));
        let idx = ExhaustiveSearch::new(data, Abs);
        assert_eq!(idx.search(&0.0, 10).len(), 2);
        assert_eq!(idx.len(), 2);
    }
}
