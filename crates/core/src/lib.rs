//! Core abstractions of the `permsearch` library.
//!
//! This crate defines the vocabulary shared by every index implementation in
//! the workspace:
//!
//! * [`Space`] — a (possibly non-metric, possibly non-symmetric) distance
//!   function over a point type, the paper's `d(x, y)`;
//! * [`Dataset`] — an in-memory collection of points addressed by dense ids;
//! * [`SearchIndex`] — the k-NN query interface implemented by every method
//!   (VP-tree, NAPP, brute-force permutation filtering, proximity graphs,
//!   multi-probe LSH, ...);
//! * [`Neighbor`] / [`KnnHeap`] — k-NN result representation and the bounded
//!   max-heap used to collect results;
//! * [`incsort`] — incremental sorting used by the filtering stage of
//!   permutation methods (Chávez et al. report it is about twice as fast as a
//!   priority queue; we reproduce that claim in a Criterion bench);
//! * [`bits`] — packed bit vectors with word-level Hamming distance for
//!   binarized permutations.
//!
//! The convention for non-symmetric distances follows the paper's *left*
//! queries: a data point is always the **first** argument of
//! [`Space::distance`], the query is the second.

pub mod bits;
pub mod budget;
pub mod dataset;
pub mod exhaustive;
pub mod failpoints;
pub mod incsort;
pub mod mutable;
pub mod neighbor;
pub mod point;
pub mod quant;
pub mod rng;
pub mod scratch;
pub mod snapshot;
pub mod space;

pub use bits::BitVector;
pub use budget::{deadline_after, remaining_micros, QueryBudget};
pub use dataset::{Dataset, DenseStore, FlatAccess, FlatVectors};
pub use exhaustive::ExhaustiveSearch;
pub use mutable::{BoxedMutableIndex, MutableIndex};
pub use neighbor::{merge_sorted_topk, merge_sorted_topk_with, KnnHeap, Neighbor};
pub use point::Point;
pub use quant::{QuantizedVectors, QuantizedView};
pub use scratch::{SearchScratch, VisitedSet};
pub use snapshot::{PointCodec, Snapshot, SnapshotError};
pub use space::{
    score_all, score_ids, score_ids_quantized, score_slice, CountedSpace, Space, SpaceStats,
    BATCH_WIDTH,
};
// Tracing vocabulary, re-exported so index crates can stamp stage timings
// without depending on `permsearch_obs` directly.
pub use permsearch_obs::{QueryTrace, Stage, StageBreakdown, STAGES, STAGE_COUNT};

/// A heap-allocated, thread-shareable search index.
///
/// [`SearchIndex`] is object-safe, so any paper method can be erased to
/// this one type — the serving layer stores one per shard and moves them
/// across worker threads, which is why `Send + Sync` are part of the
/// alias.
pub type BoxedSearchIndex<P> = Box<dyn SearchIndex<P> + Send + Sync>;

/// The k-NN query interface implemented by every index in the workspace.
///
/// Implementations answer approximate (or, for brute force, exact) k-nearest
/// neighbor queries against the dataset they were built over. Results are
/// returned sorted by increasing distance; ties are broken arbitrarily.
///
/// [`search_into`](Self::search_into) is the one query method an index
/// implements; [`search`](Self::search) is a provided convenience over it.
pub trait SearchIndex<P> {
    /// Write up to `k` approximate nearest neighbors of `query` into `out`
    /// (cleared first), sorted by increasing distance in the *original*
    /// space. Every intermediate buffer — candidate lists, visited sets,
    /// result heaps — lives in `scratch`, so a serving thread that reuses
    /// one scratch and one output vector performs no per-query heap
    /// allocation in steady state.
    ///
    /// **Reuse contract:** the answer must not depend on what earlier
    /// queries left in `scratch`, distance-tie ordering included (pinned
    /// by the cross-method scratch-equivalence tests).
    fn search_into(
        &self,
        query: &P,
        k: usize,
        scratch: &mut SearchScratch,
        out: &mut Vec<Neighbor>,
    );

    /// Allocating form of [`search_into`](Self::search_into): a fresh
    /// scratch and a fresh result vector per call. For tests, examples and
    /// one-off queries; serving loops reuse their buffers instead.
    fn search(&self, query: &P, k: usize) -> Vec<Neighbor> {
        let mut out = Vec::new();
        self.search_into(query, k, &mut SearchScratch::new(), &mut out);
        out
    }

    /// Number of indexed points.
    fn len(&self) -> usize;

    /// True when the index contains no points.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Human-readable method name used in experiment reports
    /// (e.g. `"vp-tree"`, `"napp"`, `"brute-force filt. bin."`).
    fn name(&self) -> &'static str;

    /// Approximate heap footprint of the index structure in bytes,
    /// excluding the dataset itself. Used to regenerate Table 2.
    fn index_size_bytes(&self) -> usize;
}

// Boxed (and in particular type-erased `dyn`) indices are indices too, so
// generic consumers like `eval::runner::evaluate` accept a
// [`BoxedSearchIndex`] without unwrapping it.
impl<P, I: SearchIndex<P> + ?Sized> SearchIndex<P> for Box<I> {
    fn search_into(
        &self,
        query: &P,
        k: usize,
        scratch: &mut SearchScratch,
        out: &mut Vec<Neighbor>,
    ) {
        (**self).search_into(query, k, scratch, out)
    }
    fn len(&self) -> usize {
        (**self).len()
    }
    fn is_empty(&self) -> bool {
        (**self).is_empty()
    }
    fn name(&self) -> &'static str {
        (**self).name()
    }
    fn index_size_bytes(&self) -> usize {
        (**self).index_size_bytes()
    }
}

#[cfg(test)]
mod trait_tests {
    use super::*;

    struct Dummy;

    impl SearchIndex<f32> for Dummy {
        fn search_into(
            &self,
            _query: &f32,
            _k: usize,
            _scratch: &mut SearchScratch,
            out: &mut Vec<Neighbor>,
        ) {
            out.clear();
        }
        fn len(&self) -> usize {
            0
        }
        fn name(&self) -> &'static str {
            "dummy"
        }
        fn index_size_bytes(&self) -> usize {
            0
        }
    }

    #[test]
    fn is_empty_follows_len() {
        assert!(Dummy.is_empty());
        assert_eq!(Dummy.name(), "dummy");
    }

    #[test]
    fn boxed_index_delegates() {
        let boxed: BoxedSearchIndex<f32> = Box::new(Dummy);
        assert!(boxed.is_empty());
        assert_eq!(boxed.name(), "dummy");
        assert_eq!(boxed.len(), 0);
        assert_eq!(boxed.index_size_bytes(), 0);
        assert!(boxed.search(&0.0, 3).is_empty());
    }
}
