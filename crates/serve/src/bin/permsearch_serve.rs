//! The serving daemon: warm-start a deployment directory and put the TCP
//! front door in front of it.
//!
//! ```text
//! # Build snapshots once (index_tool), then serve them:
//! cargo run -p permsearch-serve --release --bin permsearch-serve -- \
//!     --from-snapshot DIR --addr 127.0.0.1:7377 \
//!     [--workers W] [--max-batch N] [--max-k N] [--sample-every N]
//! ```
//!
//! The process loads dataset + manifest + shard snapshots (zero build
//! work, exactly the `index_tool serve` warm-start path), binds the
//! listener, prints one `listening on ADDR` line to stdout as the
//! readiness signal, and serves until a client sends a shutdown frame
//! (`loadgen` does on exit) or the process is killed. Metrics are always
//! attached; clients fetch the exposition with a metrics-request frame.
//!
//! With `--mutable DELTA_METHOD` the deployment additionally accepts
//! insert/delete/flush frames: the base warm-starts as usual, the
//! mutation journal in the same directory is replayed on top of it, and
//! a background compactor folds the delta once it crosses
//! `--compact-min-slots` live slots.

use std::path::PathBuf;
use std::process::exit;
use std::sync::Arc;
use std::time::{Duration, Instant};

use permsearch_core::Dataset;
use permsearch_engine::{
    CompactionConfig, DeploymentManifest, Engine, MetricsRegistry, MutableEngine, ShardedEngine,
    DEFAULT_SAMPLE_EVERY,
};
use permsearch_serve::{Server, ServerConfig};

const USAGE: &str = "usage:
  permsearch-serve --from-snapshot DIR --addr HOST:PORT [--workers W] \\
                   [--max-batch N] [--max-k N] [--sample-every N] \\
                   [--mutable DELTA_METHOD] [--compact-min-slots N] \\
                   [--queue-cap N] [--degrade-at N] [--retry-after-ms N] \\
                   [--journal-sync-every N]";

fn die(msg: &str) -> ! {
    eprintln!("permsearch-serve: {msg}");
    eprintln!("{USAGE}");
    exit(2)
}

struct Args {
    dir: PathBuf,
    addr: String,
    workers: usize,
    max_batch: usize,
    max_k: usize,
    sample_every: usize,
    mutable: Option<String>,
    compact_min_slots: usize,
    queue_cap: usize,
    degrade_at: usize,
    retry_after_ms: u64,
    journal_sync_every: u64,
}

fn parse(argv: &[String]) -> Args {
    let mut args = Args {
        dir: PathBuf::new(),
        addr: String::new(),
        workers: 2,
        max_batch: 256,
        max_k: 1024,
        sample_every: DEFAULT_SAMPLE_EVERY,
        mutable: None,
        compact_min_slots: CompactionConfig::default().min_delta_slots,
        queue_cap: 1024,
        degrade_at: 512,
        retry_after_ms: 20,
        // Sync the mutation journal after every record by default: the
        // durability window of an acknowledged write is zero unless the
        // operator widens it explicitly.
        journal_sync_every: 1,
    };
    let mut it = argv.iter();
    let next_value = |flag: &str, it: &mut std::slice::Iter<String>| -> String {
        it.next()
            .unwrap_or_else(|| die(&format!("flag {flag} needs a value")))
            .clone()
    };
    let parse_num = |flag: &str, value: &str| -> usize {
        value
            .parse()
            .unwrap_or_else(|_| die(&format!("flag {flag}: not a number: {value}")))
    };
    while let Some(flag) = it.next() {
        match flag.as_str() {
            "--from-snapshot" => args.dir = next_value(flag, &mut it).into(),
            "--addr" => args.addr = next_value(flag, &mut it),
            "--workers" => args.workers = parse_num(flag, &next_value(flag, &mut it)),
            "--max-batch" => args.max_batch = parse_num(flag, &next_value(flag, &mut it)),
            "--max-k" => args.max_k = parse_num(flag, &next_value(flag, &mut it)),
            "--sample-every" => args.sample_every = parse_num(flag, &next_value(flag, &mut it)),
            "--mutable" => args.mutable = Some(next_value(flag, &mut it)),
            "--compact-min-slots" => {
                args.compact_min_slots = parse_num(flag, &next_value(flag, &mut it));
            }
            "--queue-cap" => args.queue_cap = parse_num(flag, &next_value(flag, &mut it)),
            "--degrade-at" => args.degrade_at = parse_num(flag, &next_value(flag, &mut it)),
            "--retry-after-ms" => {
                args.retry_after_ms = parse_num(flag, &next_value(flag, &mut it)) as u64;
            }
            "--journal-sync-every" => {
                args.journal_sync_every = parse_num(flag, &next_value(flag, &mut it)) as u64;
            }
            "--help" | "-h" => {
                println!("{USAGE}");
                exit(0);
            }
            other => die(&format!("unknown flag {other}")),
        }
    }
    if args.dir.as_os_str().is_empty() {
        die("--from-snapshot is required");
    }
    if args.addr.is_empty() {
        die("--addr is required");
    }
    if args.max_batch == 0 {
        die("--max-batch must be at least 1");
    }
    if args.max_k == 0 {
        die("--max-k must be at least 1");
    }
    if args.queue_cap == 0 {
        die("--queue-cap must be at least 1");
    }
    args
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = parse(&argv);

    let t = Instant::now();
    let data: Dataset<Vec<f32>> = permsearch_store::load_dataset(&args.dir.join("dataset.psnp"))
        .unwrap_or_else(|e| die(&format!("loading dataset snapshot: {e}")));
    let dim = data.dim();
    let data = Arc::new(data);
    let manifest = DeploymentManifest::load(&args.dir).unwrap_or_else(|e| die(&e.to_string()));
    let registry = permsearch_engine::dense_l2_registry();
    let metrics = Arc::new(MetricsRegistry::new());

    let config = ServerConfig {
        addr: args.addr.clone(),
        max_batch: args.max_batch,
        max_k: args.max_k,
        dim,
        metrics: Some(Arc::clone(&metrics)),
        queue_cap: args.queue_cap,
        degrade_at: args.degrade_at,
        retry_after: Duration::from_millis(args.retry_after_ms),
    };

    // Compactor handle must outlive serving (dropping it stops the
    // thread), hence declared out here.
    let _compactor;
    let handle = if let Some(delta_method) = &args.mutable {
        let (mut engine, warm) = MutableEngine::open(
            &registry,
            &manifest.method,
            delta_method,
            &data,
            manifest.num_shards,
            args.workers,
            manifest.seed,
            &args.dir,
        )
        .unwrap_or_else(|e| die(&e.to_string()));
        engine.attach_metrics(&metrics, args.sample_every);
        engine.set_journal_sync_every(args.journal_sync_every);
        eprintln!(
            "[serve] mutable warm start: method={} shards={} points={} dim={dim} \
             journal_records={} loaded in {:.3}s",
            engine.method(),
            engine.num_shards(),
            engine.len(),
            warm.journal_records,
            t.elapsed().as_secs_f64(),
        );
        let engine = Arc::new(engine);
        _compactor = engine.spawn_compactor(CompactionConfig {
            min_delta_slots: args.compact_min_slots,
            ..CompactionConfig::default()
        });
        Server::start_mutable(Arc::clone(&engine), config)
    } else {
        let mut engine = ShardedEngine::from_snapshots(&registry, &data, args.workers, &args.dir)
            .unwrap_or_else(|e| die(&e.to_string()));
        engine.attach_metrics(&metrics, args.sample_every);
        eprintln!(
            "[serve] warm start: method={} shards={} points={} dim={dim} loaded in {:.3}s",
            manifest.method,
            engine.num_shards(),
            engine.len(),
            t.elapsed().as_secs_f64(),
        );
        Server::start(Arc::new(engine), config)
    }
    .unwrap_or_else(|e| die(&format!("binding {}: {e}", args.addr)));
    // Readiness line: scripts wait for this before connecting.
    println!("listening on {}", handle.addr());
    handle.wait();
    eprintln!("[serve] drained and stopped");
}
