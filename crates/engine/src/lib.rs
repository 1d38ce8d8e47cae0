//! # permsearch-engine
//!
//! A sharded, multi-threaded query-serving subsystem layered over every
//! index method in the workspace.
//!
//! The paper's methods are one-shot [`SearchIndex`] objects; this crate
//! turns any of them into a deployment that serves query *batches* under
//! load:
//!
//! * [`ShardedIndex`] — partitions a [`Dataset`](permsearch_core::Dataset)
//!   into contiguous shards, builds one index per shard in parallel, and
//!   reduces per-shard top-k lists with the k-way heap merge
//!   ([`permsearch_core::merge_sorted_topk`]), preserving exact
//!   distance-tie semantics;
//! * [`MethodRegistry`] — string-keyed builders (`"napp"`, `"mifile"`,
//!   `"ppindex"`, `"brute"`, `"vptree"`, `"sw-graph"`, and `"lsh"` for
//!   dense L2) so any paper method deploys behind one API;
//! * [`serve_batch`] — executes a batch across a scoped worker pool and
//!   records per-query latencies;
//! * [`Engine`] / [`ShardedEngine`] — the object-safe serving façade,
//!   producing [`ServeReport`]s (QPS, mean/p50/p99 latency, optional
//!   recall) for dashboards.
//!
//! ```
//! use std::sync::Arc;
//! use permsearch_core::Dataset;
//! use permsearch_engine::{dense_l2_registry, Engine, ShardedEngine};
//!
//! let data = Arc::new(Dataset::new(
//!     (0..500).map(|i| vec![(i % 23) as f32, (i / 23) as f32]).collect::<Vec<_>>(),
//! ));
//! let registry = dense_l2_registry();
//! let engine = ShardedEngine::from_registry(&registry, "napp", &data, 4, 2, 42).unwrap();
//! let batch: Vec<Vec<f32>> = (0..32).map(|i| vec![i as f32 * 0.7, 3.1]).collect();
//! let out = engine.serve(&batch, 10);
//! assert_eq!(out.results.len(), 32);
//! assert!(out.stats.qps > 0.0);
//! ```

pub mod engine;
pub mod metrics;
pub mod mutable;
pub mod registry;
pub mod serve;
pub mod shard;

pub use engine::{
    manifest_path, shard_path, DeploymentManifest, Engine, ShardedEngine, WarmStart, MANIFEST_KIND,
};
pub use metrics::{set_deployment_gauges, ServeMetrics, DEFAULT_SAMPLE_EVERY};
pub use mutable::{
    folded_segment_path, journal_path, mutation_kind, segment_kind, CompactionConfig,
    CompactorHandle, FlushInfo, MutableEngine, MutableServing, MutableWarmStart, MutationError,
    MutationMetrics, OP_INSERT, OP_REMOVE,
};
pub use registry::{
    dense_l2_registry, index_kind, standard_registry, EngineError, MethodBuilder, MethodRegistry,
    MutableBuilder, Provenance, SnapshotLoader, SnapshotSaver,
};
pub use serve::{
    effective_workers, percentile, serve_batch, QueryOutcome, ServeOptions, ServeOutput,
    ServeReport, ServeStats,
};
pub use shard::ShardedIndex;

// Re-exported so engine users reach the registry type without a direct
// `permsearch-obs` dependency.
pub use permsearch_obs::MetricsRegistry;

// Re-exported so engine users don't need a direct `permsearch_core`
// dependency for the one trait the outputs are expressed in.
pub use permsearch_core::SearchIndex;
