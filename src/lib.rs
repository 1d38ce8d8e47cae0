//! # permsearch
//!
//! A Rust reproduction of *"Permutation Search Methods are Efficient, Yet
//! Faster Search is Possible"* (Naidan, Boytsov, Nyberg — VLDB 2015).
//!
//! The crate is a façade that re-exports the whole workspace:
//!
//! * [`core`] — traits ([`core::Space`], [`core::SearchIndex`]), result
//!   types, incremental sorting, bit vectors;
//! * [`spaces`] — the paper's distance functions: L2, sparse cosine,
//!   KL-divergence, JS-divergence, normalized Levenshtein, SQFD;
//! * [`datasets`] — synthetic generators mirroring the paper's seven
//!   datasets (CoPhIR, SIFT, ImageNet signatures, Wiki-sparse, Wiki-8,
//!   Wiki-128, DNA);
//! * [`permutation`] — the surveyed permutation methods: brute-force
//!   filtering (plain and binarized), NAPP, MI-file, PP-index, OMEDRANK,
//!   plus random projections;
//! * [`vptree`] — VP-tree with the polynomial non-metric pruner;
//! * [`knngraph`] — Small-World graph and NN-descent construction;
//! * [`lsh`] — multi-probe LSH for L2;
//! * [`eval`] — recall / improvement-in-efficiency evaluation harness;
//! * [`engine`] — sharded, multi-threaded query serving over any of the
//!   above methods (deployment registry, worker pool, QPS/latency/recall
//!   reports); see `examples/serve.rs` for an end-to-end tour;
//! * [`store`] — versioned, checksummed snapshot persistence: any built
//!   index saves to disk and reloads without rebuilding, which is how the
//!   engine warm-starts (`examples/warm_start.rs`);
//! * [`serve`] — the TCP front door: a length-prefixed checksummed frame
//!   protocol, a thread-per-connection server that serves whatever
//!   queries queued while the engine was busy as one engine batch, a
//!   blocking client, and open-loop Poisson load generation.
//!
//! ## Quickstart
//!
//! ```
//! use permsearch::prelude::*;
//!
//! // 1000 random 16-d vectors under L2.
//! let data = permsearch::datasets::DenseGaussianMixture::new(16, 4, 0.2)
//!     .generate(1000, 42);
//! let dataset = std::sync::Arc::new(Dataset::new(data));
//! let space = L2;
//!
//! // Build a NAPP index (32 pivots, 8 indexed, threshold 2).
//! let params = permsearch::permutation::NappParams {
//!     num_pivots: 32,
//!     num_indexed: 8,
//!     min_shared: 2,
//!     ..Default::default()
//! };
//! let index = permsearch::permutation::Napp::build(
//!     dataset.clone(), space, params, 7,
//! );
//!
//! let query = dataset.get(0).to_owned();
//! let hits = index.search(&query, 10);
//! assert!(!hits.is_empty());
//! assert_eq!(hits[0].id, 0); // the point itself is its own 1-NN
//!
//! // Compare against exact search: at these parameters NAPP recovers the
//! // true 10-NN almost perfectly (measured 1.0; 0.7 leaves seed slack).
//! let exact = permsearch::core::ExhaustiveSearch::new(dataset.clone(), L2);
//! let truth: Vec<u32> = exact.search(&query, 10).iter().map(|n| n.id).collect();
//! let recall = permsearch::eval::recall(&hits, &truth);
//! assert!(recall >= 0.7, "NAPP recall collapsed: {recall}");
//! ```

pub use permsearch_core as core;
pub use permsearch_datasets as datasets;
pub use permsearch_engine as engine;
pub use permsearch_eval as eval;
pub use permsearch_knngraph as knngraph;
pub use permsearch_lsh as lsh;
pub use permsearch_permutation as permutation;
pub use permsearch_serve as serve;
pub use permsearch_spaces as spaces;
pub use permsearch_store as store;
pub use permsearch_vptree as vptree;

/// Convenience re-exports for examples and downstream users.
pub mod prelude {
    pub use permsearch_core::{Dataset, KnnHeap, Neighbor, SearchIndex, Space};
    pub use permsearch_core::{PointCodec, Snapshot, SnapshotError};
    pub use permsearch_datasets::Generator;
    pub use permsearch_engine::{Engine, MethodRegistry, ShardedEngine};
    pub use permsearch_spaces::dense::L2;
}
