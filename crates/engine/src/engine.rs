//! The object-safe [`Engine`] trait and its sharded implementation.
//!
//! An engine owns a deployed index (typically sharded) plus a serving
//! configuration and answers whole query batches. The trait is
//! deliberately object-safe — `Box<dyn Engine<P>>` — so heterogeneous
//! deployments (different methods, shard counts, worker pools) can sit
//! behind one API, e.g. in a routing table keyed by collection name.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use permsearch_core::snapshot::{self, corrupt};
use permsearch_core::{Dataset, SearchIndex, SnapshotError};
use permsearch_eval::GoldStandard;

use permsearch_obs::MetricsRegistry;

use crate::metrics::{set_deployment_gauges, ServeMetrics};
use crate::registry::{EngineError, MethodRegistry, Provenance};
use crate::serve::{optional_recall, serve_batch, ServeOptions, ServeOutput, ServeReport};
use crate::shard::ShardedIndex;

/// A deployed, batch-serving search engine. Object-safe.
///
/// [`serve_opts`](Self::serve_opts) is the one serving method an engine
/// implements; [`serve`](Self::serve) is a provided convenience over it.
pub trait Engine<P>: Send + Sync {
    /// Serve one query batch under [`ServeOptions`] — degraded-mode
    /// refinement and per-query deadlines — returning the global top-`k`
    /// per query, per-query outcomes and batch statistics.
    fn serve_opts(&self, queries: &[P], k: usize, options: &ServeOptions) -> ServeOutput;

    /// [`serve_opts`](Self::serve_opts) with default options: never
    /// degraded, no deadlines.
    fn serve(&self, queries: &[P], k: usize) -> ServeOutput {
        self.serve_opts(queries, k, &ServeOptions::default())
    }

    /// Registry name of the deployed method.
    fn method(&self) -> &str;

    /// Number of index shards.
    fn num_shards(&self) -> usize;

    /// Worker threads used per batch.
    fn workers(&self) -> usize;

    /// Total indexed points.
    fn len(&self) -> usize;

    /// True when no points are indexed.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// The standard engine: one registry method deployed on every shard of a
/// partitioned dataset, served by a fixed-size worker pool.
pub struct ShardedEngine<P> {
    sharded: ShardedIndex<P>,
    method: String,
    workers: usize,
    metrics: Option<ServeMetrics>,
}

impl<P> ShardedEngine<P>
where
    P: Clone + Send + Sync,
{
    /// Partition `data` into `num_shards` shards, build the registry
    /// method `method` on each shard in parallel, and serve batches with
    /// `workers` threads. Shard `s` is built with a seed derived from
    /// `seed` and `s`, so shards are decorrelated but the deployment is
    /// reproducible.
    pub fn from_registry(
        registry: &MethodRegistry<P>,
        method: &str,
        data: &Arc<Dataset<P>>,
        num_shards: usize,
        workers: usize,
        seed: u64,
    ) -> Result<Self, EngineError> {
        let builder = registry.get(method)?;
        let sharded = ShardedIndex::build(data, num_shards, |sid, shard_data| {
            builder(shard_data, seed_for_shard(seed, sid))
        });
        Ok(Self {
            sharded,
            method: method.to_string(),
            workers: workers.max(1),
            metrics: None,
        })
    }

    /// Warm-start construction: per-shard snapshots under `dir` are
    /// restored when present (in parallel, one worker per shard) and built
    /// and persisted when missing, so the second process start of the same
    /// deployment does zero index-build work. A [`DeploymentManifest`] is
    /// written next to the shard files and cross-checked on later runs, so
    /// a directory built for one configuration cannot silently serve
    /// another.
    pub fn build_or_load(
        registry: &MethodRegistry<P>,
        method: &str,
        data: &Arc<Dataset<P>>,
        num_shards: usize,
        workers: usize,
        seed: u64,
        dir: &Path,
    ) -> Result<(Self, WarmStart), EngineError>
    where
        P: permsearch_core::PointCodec,
    {
        let wrap = |source| EngineError::Snapshot {
            method: method.to_string(),
            source,
        };
        let manifest = DeploymentManifest {
            method: method.to_string(),
            num_shards,
            num_points: data.len(),
            seed,
            dataset_fingerprint: permsearch_store::fingerprint_dataset(data).map_err(wrap)?,
        };
        std::fs::create_dir_all(dir).map_err(|e| wrap(SnapshotError::Io(e)))?;
        let manifest_path = manifest_path(dir);
        if manifest_path.exists() {
            let found = DeploymentManifest::load(dir).map_err(wrap)?;
            if found != manifest {
                return Err(wrap(corrupt(format!(
                    "deployment directory holds {found:?}, requested {manifest:?}"
                ))));
            }
        } else {
            manifest.save(dir).map_err(wrap)?;
        }
        Self::from_dir(registry, &manifest, data, workers, dir, false)
    }

    /// Restore a deployment saved by [`build_or_load`](Self::build_or_load)
    /// without any fallback to building: the manifest describes the
    /// configuration, and a missing or corrupt shard snapshot is an error.
    /// This is the `serve --from-snapshot` path — after it returns, no
    /// index-build work has run.
    pub fn from_snapshots(
        registry: &MethodRegistry<P>,
        data: &Arc<Dataset<P>>,
        workers: usize,
        dir: &Path,
    ) -> Result<Self, EngineError>
    where
        P: permsearch_core::PointCodec,
    {
        let manifest = DeploymentManifest::load(dir).map_err(|source| EngineError::Snapshot {
            method: "<manifest>".to_string(),
            source,
        })?;
        if manifest.num_points != data.len() {
            return Err(EngineError::Snapshot {
                method: manifest.method.clone(),
                source: corrupt(format!(
                    "manifest records {} points but the dataset has {}",
                    manifest.num_points,
                    data.len()
                )),
            });
        }
        let fingerprint = permsearch_store::fingerprint_dataset(data).map_err(|source| {
            EngineError::Snapshot {
                method: manifest.method.clone(),
                source,
            }
        })?;
        if fingerprint != manifest.dataset_fingerprint {
            return Err(EngineError::Snapshot {
                method: manifest.method.clone(),
                source: corrupt(format!(
                    "dataset fingerprint {fingerprint:#018x} does not match the manifest's \
                     {:#018x}: these shards were built over a different dataset",
                    manifest.dataset_fingerprint
                )),
            });
        }
        let (engine, warm) = Self::from_dir(registry, &manifest, data, workers, dir, true)?;
        debug_assert_eq!(warm.shards_built, 0);
        Ok(engine)
    }

    fn from_dir(
        registry: &MethodRegistry<P>,
        manifest: &DeploymentManifest,
        data: &Arc<Dataset<P>>,
        workers: usize,
        dir: &Path,
        load_only: bool,
    ) -> Result<(Self, WarmStart), EngineError> {
        let method = manifest.method.as_str();
        // Resolve hooks up front so an unknown or snapshot-less method
        // fails with the enumerating error before any I/O.
        let _ = registry.snapshot_hooks(method)?;
        let loaded = AtomicUsize::new(0);
        let built = AtomicUsize::new(0);
        let sharded = ShardedIndex::try_build(data, manifest.num_shards, |sid, shard_data| {
            let path = shard_path(dir, sid);
            let shard_seed = seed_for_shard(manifest.seed, sid);
            // In load-only mode the strict loader opens the file directly —
            // a missing snapshot is a NotFound error, never a rebuild, with
            // no exists()-then-open race.
            let (index, provenance) = if load_only {
                (
                    registry.load(method, shard_data, &path)?,
                    Provenance::Loaded,
                )
            } else {
                registry.build_or_load(method, shard_data, shard_seed, &path)?
            };
            match provenance {
                Provenance::Loaded => loaded.fetch_add(1, Ordering::Relaxed),
                Provenance::Built => built.fetch_add(1, Ordering::Relaxed),
            };
            Ok(index)
        })?;
        let engine = Self {
            sharded,
            method: method.to_string(),
            workers: workers.max(1),
            metrics: None,
        };
        let warm = WarmStart {
            shards_loaded: loaded.into_inner(),
            shards_built: built.into_inner(),
        };
        Ok((engine, warm))
    }

    /// Publish this deployment into `registry`: registers every serving
    /// family under the engine's method label, sets the deployment-shape
    /// gauges (total points, shard count, per-shard points), and turns on
    /// 1-in-`sample_every` stage tracing for all subsequent batches.
    ///
    /// Registration is the cold path; serving afterwards touches only the
    /// resolved handles' relaxed atomics. Returns the handle bundle so
    /// callers can wire [`ServeMetrics::dists_counter`] into a
    /// [`CountedSpace`](permsearch_core::CountedSpace) — note the space is
    /// chosen at registry-build time, so distance counting requires
    /// building the method registry over the counted space with the same
    /// handle (see `index_tool serve --metrics`).
    pub fn attach_metrics(
        &mut self,
        registry: &MetricsRegistry,
        sample_every: usize,
    ) -> &ServeMetrics {
        let metrics = ServeMetrics::register(registry, &self.method, self.workers, sample_every);
        set_deployment_gauges(
            registry,
            &self.method,
            SearchIndex::len(&self.sharded),
            &self.sharded.shard_lens(),
        );
        self.metrics.insert(metrics)
    }

    /// The attached metric handles, when [`attach_metrics`](Self::attach_metrics)
    /// has been called.
    pub fn metrics(&self) -> Option<&ServeMetrics> {
        self.metrics.as_ref()
    }

    /// Borrow the underlying sharded index (itself a [`SearchIndex`]).
    pub fn sharded(&self) -> &ShardedIndex<P> {
        &self.sharded
    }

    /// Serve a batch and package the run as a [`ServeReport`], computing
    /// recall when `gold` is supplied.
    pub fn serve_with_report(
        &self,
        queries: &[P],
        k: usize,
        gold: Option<&GoldStandard>,
    ) -> (ServeOutput, ServeReport) {
        let output = self.serve(queries, k);
        let report = ServeReport {
            method: self.method.clone(),
            num_points: self.len(),
            shards: self.num_shards(),
            // Report what the batch actually ran with, not the configured
            // pool size — they differ for batches smaller than the pool.
            workers: crate::serve::effective_workers(self.workers, queries.len()),
            k,
            stats: output.stats.clone(),
            recall: optional_recall(&output, gold),
        };
        (output, report)
    }
}

/// Shard `sid`'s build seed: decorrelated across shards, reproducible from
/// the deployment seed (shared by cold builds and warm-start rebuilds).
fn seed_for_shard(seed: u64, sid: usize) -> u64 {
    seed ^ (sid as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15)
}

/// Snapshot file of shard `sid` inside a deployment directory.
pub fn shard_path(dir: &Path, sid: usize) -> PathBuf {
    dir.join(format!("shard_{sid:04}.psnp"))
}

/// Manifest file inside a deployment directory.
pub fn manifest_path(dir: &Path) -> PathBuf {
    dir.join("deployment.psnp")
}

/// How a warm-start construction obtained its shards.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WarmStart {
    /// Shards restored from snapshots (no build work).
    pub shards_loaded: usize,
    /// Shards built from the dataset (snapshots written).
    pub shards_built: usize,
}

impl WarmStart {
    /// True when every shard came from a snapshot.
    pub fn is_warm(&self) -> bool {
        self.shards_built == 0
    }
}

/// The configuration a deployment directory was written for, persisted as
/// its own kind-tagged container so restore-time mismatches (different
/// method, shard count, dataset size or seed) are typed errors instead of
/// silently wrong deployments.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DeploymentManifest {
    /// Registry method deployed on every shard.
    pub method: String,
    /// Number of shards the dataset was partitioned into.
    pub num_shards: usize,
    /// Total indexed points.
    pub num_points: usize,
    /// Deployment seed (per-shard seeds derive from it).
    pub seed: u64,
    /// FNV-1a fingerprint of the dataset's snapshot encoding
    /// ([`permsearch_store::fingerprint_dataset`]): a same-length but
    /// different dataset cannot silently reuse this directory's shards.
    pub dataset_fingerprint: u64,
}

/// Container kind tag of [`DeploymentManifest`] snapshots.
pub const MANIFEST_KIND: &str = "engine-manifest";

impl DeploymentManifest {
    /// Write the manifest into `dir` (atomically, via the store container).
    pub fn save(&self, dir: &Path) -> Result<(), SnapshotError> {
        permsearch_store::save_to_file(&manifest_path(dir), MANIFEST_KIND, |w| {
            snapshot::write_str(w, &self.method)?;
            snapshot::write_len(w, self.num_shards)?;
            snapshot::write_len(w, self.num_points)?;
            snapshot::write_u64(w, self.seed)?;
            snapshot::write_u64(w, self.dataset_fingerprint)
        })
    }

    /// Read the manifest of a deployment directory.
    pub fn load(dir: &Path) -> Result<Self, SnapshotError> {
        let container = permsearch_store::load_from_file(&manifest_path(dir), Some(MANIFEST_KIND))?;
        let mut r = container.payload.as_slice();
        let manifest = Self {
            method: snapshot::read_str(&mut r)?,
            num_shards: snapshot::read_len(&mut r)?,
            num_points: snapshot::read_len(&mut r)?,
            seed: snapshot::read_u64(&mut r)?,
            dataset_fingerprint: snapshot::read_u64(&mut r)?,
        };
        if !r.is_empty() {
            return Err(corrupt("trailing bytes after the manifest payload"));
        }
        if manifest.num_shards == 0 {
            return Err(corrupt("manifest records zero shards"));
        }
        Ok(manifest)
    }
}

impl<P> Engine<P> for ShardedEngine<P>
where
    P: Send + Sync,
{
    fn serve_opts(&self, queries: &[P], k: usize, options: &ServeOptions) -> ServeOutput {
        serve_batch(
            &self.sharded,
            queries,
            k,
            self.workers,
            self.metrics.as_ref(),
            options,
        )
    }

    fn method(&self) -> &str {
        &self.method
    }

    fn num_shards(&self) -> usize {
        self.sharded.num_shards()
    }

    fn workers(&self) -> usize {
        self.workers
    }

    fn len(&self) -> usize {
        SearchIndex::len(&self.sharded)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::dense_l2_registry;

    fn grid_world(n: usize) -> (Arc<Dataset<Vec<f32>>>, Vec<Vec<f32>>) {
        let data = Arc::new(Dataset::new(
            (0..n)
                .map(|i| vec![(i % 17) as f32, (i / 17) as f32])
                .collect::<Vec<_>>(),
        ));
        let queries: Vec<Vec<f32>> = (0..25)
            .map(|i| vec![(i % 5) as f32 + 0.3, (i / 5) as f32 + 0.6])
            .collect();
        (data, queries)
    }

    #[test]
    fn engine_is_object_safe_and_serves() {
        let (data, queries) = grid_world(300);
        let reg = dense_l2_registry();
        let engine: Box<dyn Engine<Vec<f32>>> =
            Box::new(ShardedEngine::from_registry(&reg, "vptree", &data, 3, 2, 42).unwrap());
        assert_eq!(engine.method(), "vptree");
        assert_eq!(engine.num_shards(), 3);
        assert_eq!(engine.workers(), 2);
        assert_eq!(engine.len(), 300);
        assert!(!engine.is_empty());
        let out = engine.serve(&queries, 4);
        assert_eq!(out.results.len(), 25);
        assert!(out.results.iter().all(|r| r.len() == 4));
    }

    #[test]
    fn unknown_method_surfaces_engine_error() {
        let (data, _) = grid_world(20);
        let reg = dense_l2_registry();
        let err = ShardedEngine::from_registry(&reg, "nope", &data, 2, 1, 0)
            .err()
            .expect("must fail");
        assert!(matches!(err, EngineError::UnknownMethod { .. }));
    }

    #[test]
    fn report_carries_deployment_metadata() {
        let (data, queries) = grid_world(120);
        let reg = dense_l2_registry();
        let engine = ShardedEngine::from_registry(&reg, "napp", &data, 4, 3, 7).unwrap();
        let gold = permsearch_eval::compute_gold(&data, permsearch_spaces::L2, &queries, 5);
        let (out, report) = engine.serve_with_report(&queries, 5, Some(&gold));
        assert_eq!(report.shards, 4);
        assert_eq!(report.workers, 3);
        assert_eq!(report.stats.queries, 25);
        let r = report.recall.unwrap();
        assert!(r > 0.5, "napp recall collapsed: {r}");
        assert_eq!(out.results.len(), 25);
        // A batch smaller than the pool reports the clamped worker count.
        let (_, small) = engine.serve_with_report(&queries[..2], 5, None);
        assert_eq!(small.workers, 2);
        assert!(small.recall.is_none());
    }
}
