//! Open-loop load generator for the TCP front door.
//!
//! ```text
//! # Target-QPS sweep against a running permsearch-serve:
//! cargo run -p permsearch-serve --release --bin loadgen -- \
//!     --addr 127.0.0.1:7377 --from-snapshot DIR \
//!     [--qps 500,1000,2000] [--duration-secs 5] [--connections 4] \
//!     [--k 10] [--queries 1000] [--seed 42] [--out PATH]
//!
//! # CI loopback gate: parity with the in-process engine, empty-batch
//! # behavior, metrics re-parse, a short sweep, then remote shutdown:
//! cargo run -p permsearch-serve --release --bin loadgen -- \
//!     --addr 127.0.0.1:7377 --from-snapshot DIR --smoke
//!
//! # CI overload gate: baseline point, a point past saturation (assert the
//! # accepted-query p50 stays under the pinned bound and admission
//! # control actually shed), then a return-to-baseline point:
//! cargo run -p permsearch-serve --release --bin loadgen -- \
//!     --addr 127.0.0.1:7377 --from-snapshot DIR --overload \
//!     --qps 200 --overload-qps 12000 --overload-p50-ms 60
//! ```
//!
//! `--from-snapshot` points at the same deployment directory the server
//! was started from: the generator reads the manifest to derive the query
//! workload (same generator and seed fold as `index_tool serve`, so
//! results are comparable across tools) and, under `--smoke`, warm-starts
//! its own in-process copy of the engine to assert bit-exact result parity
//! across the wire.
//!
//! Results land in `--out` (default `bench_results/BENCH_serve_tcp.json`),
//! the only file loadgen writes.

use std::fs;
use std::path::PathBuf;
use std::process::exit;
use std::sync::Arc;
use std::time::Duration;

use permsearch_core::Dataset;
use permsearch_datasets::{sift_like, Generator};
use permsearch_engine::{DeploymentManifest, Engine, ShardedEngine};
use permsearch_serve::{Client, LoadPoint, OpenLoopConfig};

const USAGE: &str = "usage:
  loadgen --addr HOST:PORT --from-snapshot DIR [--qps LIST] \\
          [--duration-secs N] [--connections N] [--k K] [--queries N] \\
          [--seed S] [--out PATH] [--deadline-ms N] [--smoke] \\
          [--overload] [--overload-qps N] [--overload-p50-ms N]";

fn die(msg: &str) -> ! {
    eprintln!("loadgen: {msg}");
    eprintln!("{USAGE}");
    exit(2)
}

struct Args {
    addr: String,
    dir: PathBuf,
    qps: Vec<f64>,
    duration_secs: f64,
    connections: usize,
    k: usize,
    queries: usize,
    seed: u64,
    out: String,
    deadline_ms: u64,
    smoke: bool,
    overload: bool,
    overload_qps: f64,
    overload_p50_ms: f64,
}

fn parse(argv: &[String]) -> Args {
    let mut args = Args {
        addr: String::new(),
        dir: PathBuf::new(),
        qps: vec![500.0, 1_000.0, 2_000.0, 4_000.0],
        duration_secs: 5.0,
        connections: 4,
        k: 10,
        queries: 1_000,
        seed: 42,
        out: "bench_results/BENCH_serve_tcp.json".to_string(),
        deadline_ms: 0,
        smoke: false,
        overload: false,
        overload_qps: 12_000.0,
        overload_p50_ms: 60.0,
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
            "--addr" => args.addr = next_value(flag, &mut it),
            "--from-snapshot" => args.dir = next_value(flag, &mut it).into(),
            "--qps" => {
                args.qps = next_value(flag, &mut it)
                    .split(',')
                    .map(|s| {
                        let v: f64 = s
                            .trim()
                            .parse()
                            .unwrap_or_else(|_| die(&format!("flag --qps: not a number: {s}")));
                        if v.is_nan() || v <= 0.0 {
                            die(&format!("flag --qps: rate must be positive, got {s}"));
                        }
                        v
                    })
                    .collect();
                if args.qps.is_empty() {
                    die("flag --qps: empty list");
                }
            }
            "--duration-secs" => {
                let raw = next_value(flag, &mut it);
                args.duration_secs = raw
                    .parse()
                    .unwrap_or_else(|_| die(&format!("flag --duration-secs: not a number: {raw}")));
                if args.duration_secs.is_nan() || args.duration_secs <= 0.0 {
                    die("flag --duration-secs must be positive");
                }
            }
            "--connections" => args.connections = parse_num(flag, &next_value(flag, &mut it)),
            "--k" => args.k = parse_num(flag, &next_value(flag, &mut it)),
            "--queries" => args.queries = parse_num(flag, &next_value(flag, &mut it)),
            "--seed" => args.seed = parse_num(flag, &next_value(flag, &mut it)) as u64,
            "--out" => args.out = next_value(flag, &mut it),
            "--deadline-ms" => {
                args.deadline_ms = parse_num(flag, &next_value(flag, &mut it)) as u64;
            }
            "--smoke" => args.smoke = true,
            "--overload" => args.overload = true,
            "--overload-qps" => {
                args.overload_qps = parse_num(flag, &next_value(flag, &mut it)) as f64;
            }
            "--overload-p50-ms" => {
                args.overload_p50_ms = parse_num(flag, &next_value(flag, &mut it)) as f64;
            }
            "--help" | "-h" => {
                println!("{USAGE}");
                exit(0);
            }
            other => die(&format!("unknown flag {other}")),
        }
    }
    if args.addr.is_empty() {
        die("--addr is required");
    }
    if args.dir.as_os_str().is_empty() {
        die("--from-snapshot is required (query workload derives from the manifest)");
    }
    if args.k == 0 {
        die("--k must be at least 1");
    }
    if args.queries == 0 {
        die("--queries must be at least 1");
    }
    if args.connections == 0 {
        die("--connections must be at least 1");
    }
    args
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut args = parse(&argv);
    if args.smoke {
        // Short but real: enough arrivals for stable smoke percentiles
        // without stretching CI.
        args.qps = vec![300.0];
        args.duration_secs = 2.0;
        args.queries = 1_000;
    }

    let manifest = DeploymentManifest::load(&args.dir).unwrap_or_else(|e| die(&e.to_string()));
    // The exact workload `index_tool serve` uses: same generator, same
    // seed fold, so measurements line up across the in-process and TCP
    // serving paths.
    let gen = sift_like();
    let queries = gen.generate(args.queries, manifest.seed ^ 0x0051_C0DE);

    let mut client = Client::connect_retry(args.addr.as_str(), Duration::from_secs(10))
        .unwrap_or_else(|e| die(&format!("connecting to {}: {e}", args.addr)));
    let info = client.ping().unwrap_or_else(|e| die(&format!("ping: {e}")));
    eprintln!(
        "[loadgen] server at {}: method={} points={} shards={} dim={}",
        args.addr, info.method, info.points, info.shards, info.dim
    );
    if info.method != manifest.method || info.points as usize != manifest.num_points {
        die(&format!(
            "server deployment (method={}, points={}) does not match {} \
             (method={}, points={})",
            info.method,
            info.points,
            args.dir.display(),
            manifest.method,
            manifest.num_points
        ));
    }

    if args.smoke {
        smoke_checks(&mut client, &args, &queries);
    }

    let mut sweep = Vec::new();
    if args.overload {
        sweep = overload_gate(&args, &queries);
    } else {
        for &qps in &args.qps {
            let point = run_point(&args, &queries, qps);
            if args.smoke && point.completed == 0 {
                die("smoke: open-loop sweep completed zero requests");
            }
            sweep.push(point);
        }
    }

    write_results(&args, &info.method, info.points, info.shards, &sweep);

    if args.smoke || args.overload {
        client
            .shutdown_server()
            .unwrap_or_else(|e| die(&format!("shutdown: {e}")));
        eprintln!("[loadgen] server acknowledged shutdown");
    }
    if args.smoke {
        println!("smoke OK: parity, empty batch, metrics, sweep, shutdown");
    }
    if args.overload {
        println!("overload gate OK: bounded accepted p50, nonzero shed, baseline recovery");
    }
}

/// Run one open-loop measurement point at `qps` and log its summary.
fn run_point(args: &Args, queries: &[Vec<f32>], qps: f64) -> LoadPoint {
    let config = OpenLoopConfig {
        addr: args.addr.clone(),
        qps,
        duration: Duration::from_secs_f64(args.duration_secs),
        connections: args.connections,
        k: args.k as u32,
        seed: args.seed,
        deadline: (args.deadline_ms > 0).then(|| Duration::from_millis(args.deadline_ms)),
    };
    let point = permsearch_serve::run_open_loop(&config, queries)
        .unwrap_or_else(|e| die(&format!("open-loop run at {qps} qps: {e}")));
    eprintln!(
        "[loadgen] target {qps:.0} qps -> achieved {:.0} qps, \
         p50 {:.3}ms p99 {:.3}ms p999 {:.3}ms ({} completed, {} errors, \
         {} shed, {} degraded, {} partial)",
        point.achieved_qps,
        point.p50_latency_secs * 1e3,
        point.p99_latency_secs * 1e3,
        point.p999_latency_secs * 1e3,
        point.completed,
        point.errors,
        point.shed,
        point.degraded,
        point.partial,
    );
    point
}

/// The CI overload gate: a baseline point at the (pre-knee) normal rate,
/// an overload point far past saturation, and a recovery point back at
/// the normal rate. Dies unless (a) the overload point's accepted-query
/// p50 stays under the pinned `--overload-p50-ms` bound, (b) admission
/// control shed a nonzero fraction, and (c) the recovery point's p50
/// returns to within 3x the baseline (or the pinned bound, whichever is
/// looser — tiny baselines would otherwise gate on scheduler noise).
fn overload_gate(args: &Args, queries: &[Vec<f32>]) -> Vec<LoadPoint> {
    let normal = args.qps[0];
    eprintln!(
        "[loadgen] overload gate: baseline {normal:.0} qps, overload {:.0} qps",
        args.overload_qps
    );
    let baseline = run_point(args, queries, normal);
    if baseline.completed == 0 {
        die("overload gate: baseline point completed zero requests");
    }
    let overload = run_point(args, queries, args.overload_qps);
    let p50_ms = overload.p50_latency_secs * 1e3;
    if overload.completed == 0 {
        die("overload gate: overload point completed zero requests");
    }
    if p50_ms > args.overload_p50_ms {
        die(&format!(
            "overload gate: accepted-query p50 {p50_ms:.1}ms exceeds the \
             {:.1}ms bound — admission control is not protecting latency",
            args.overload_p50_ms
        ));
    }
    if overload.shed == 0 {
        die(&format!(
            "overload gate: {:.0} qps offered, zero requests shed — the load \
             was absorbed without admission control engaging (raise \
             --overload-qps or lower the server's --queue-cap)",
            args.overload_qps
        ));
    }
    let recovery = run_point(args, queries, normal);
    let recovered_ms = recovery.p50_latency_secs * 1e3;
    let bound_ms = (baseline.p50_latency_secs * 1e3 * 3.0).max(args.overload_p50_ms);
    if recovery.completed == 0 || recovered_ms > bound_ms {
        die(&format!(
            "overload gate: post-overload p50 {recovered_ms:.1}ms did not \
             return to baseline (bound {bound_ms:.1}ms from baseline p50 \
             {:.1}ms)",
            baseline.p50_latency_secs * 1e3
        ));
    }
    eprintln!(
        "[loadgen] overload gate: p50 {p50_ms:.1}ms under load ({} shed, \
         {} degraded), recovered to {recovered_ms:.1}ms",
        overload.shed, overload.degraded
    );
    vec![baseline, overload, recovery]
}

/// The CI loopback gate: bit-exact parity with the in-process engine on a
/// 1000-query batch, zeroed empty-batch behavior, and a re-parseable
/// metrics exposition.
fn smoke_checks(client: &mut Client, args: &Args, queries: &[Vec<f32>]) {
    // Parity: warm-start our own copy of the deployment and compare.
    let data: Dataset<Vec<f32>> = permsearch_store::load_dataset(&args.dir.join("dataset.psnp"))
        .unwrap_or_else(|e| die(&format!("smoke: loading dataset snapshot: {e}")));
    let data = Arc::new(data);
    let registry = permsearch_engine::dense_l2_registry();
    let engine = ShardedEngine::from_snapshots(&registry, &data, 2, &args.dir)
        .unwrap_or_else(|e| die(&format!("smoke: in-process warm start: {e}")));
    let local = engine.serve(queries, args.k);
    let remote = client
        .search(queries, args.k as u32)
        .unwrap_or_else(|e| die(&format!("smoke: remote batch: {e}")));
    if remote.len() != local.results.len() {
        die(&format!(
            "smoke: parity: {} remote result lists vs {} local",
            remote.len(),
            local.results.len()
        ));
    }
    for (qi, (r, l)) in remote.iter().zip(&local.results).enumerate() {
        if r.len() != l.len() {
            die(&format!(
                "smoke: parity: query {qi}: {} remote neighbors vs {} local",
                r.len(),
                l.len()
            ));
        }
        for (rank, (rn, ln)) in r.iter().zip(l).enumerate() {
            // Bit-exact: the wire carries f32 verbatim, so even the
            // distances must round-trip unchanged.
            if rn.id != ln.id || rn.dist.to_bits() != ln.dist.to_bits() {
                die(&format!(
                    "smoke: parity: query {qi} rank {rank}: remote ({}, {}) vs \
                     local ({}, {})",
                    rn.id, rn.dist, ln.id, ln.dist
                ));
            }
        }
    }
    eprintln!(
        "[loadgen] smoke: parity OK over {} queries x k={}",
        queries.len(),
        args.k
    );

    // Empty batch: zero queries, zero results, server stays up.
    let empty = client
        .search(&[], args.k as u32)
        .unwrap_or_else(|e| die(&format!("smoke: empty batch: {e}")));
    if !empty.is_empty() {
        die(&format!(
            "smoke: empty batch returned {} result lists",
            empty.len()
        ));
    }
    client
        .ping()
        .unwrap_or_else(|e| die(&format!("smoke: ping after empty batch: {e}")));
    eprintln!("[loadgen] smoke: empty batch OK");

    // Metrics: the exposition must re-parse and carry both the engine
    // serving families and the TCP families.
    let text = client
        .metrics_text()
        .unwrap_or_else(|e| die(&format!("smoke: metrics request: {e}")));
    let families = permsearch_obs::validate_text(&text)
        .unwrap_or_else(|e| die(&format!("smoke: metrics exposition failed to parse: {e}")));
    for required in [
        "permsearch_queries_total",
        "permsearch_query_latency_seconds",
        "permsearch_index_points",
        "permsearch_tcp_connections_total",
        "permsearch_tcp_queries_total",
        "permsearch_tcp_batches_total",
    ] {
        if !families.iter().any(|f| f == required) {
            die(&format!(
                "smoke: exposition is missing family {required} (got {families:?})"
            ));
        }
    }
    eprintln!(
        "[loadgen] smoke: metrics OK ({} families validated)",
        families.len()
    );
}

/// Null non-finite floats, mirroring `ServeReport::to_json`.
fn json_f64(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_string()
    }
}

fn point_to_json(p: &LoadPoint) -> String {
    format!(
        "{{\"target_qps\": {}, \"offered\": {}, \"completed\": {}, \"errors\": {}, \
         \"shed\": {}, \"degraded\": {}, \"partial\": {}, \
         \"achieved_qps\": {}, \"mean_latency_secs\": {}, \"p50_latency_secs\": {}, \
         \"p99_latency_secs\": {}, \"p999_latency_secs\": {}}}",
        json_f64(p.target_qps),
        p.offered,
        p.completed,
        p.errors,
        p.shed,
        p.degraded,
        p.partial,
        json_f64(p.achieved_qps),
        json_f64(p.mean_latency_secs),
        json_f64(p.p50_latency_secs),
        json_f64(p.p99_latency_secs),
        json_f64(p.p999_latency_secs),
    )
}

/// Days since 1970-01-01 to a civil (y, m, d) date (Gregorian; Howard
/// Hinnant's `civil_from_days`). Enough calendar for the results' date stamp.
fn civil_from_days(days: i64) -> (i64, u32, u32) {
    let z = days + 719_468;
    let era = if z >= 0 { z } else { z - 146_096 } / 146_097;
    let doe = z - era * 146_097;
    let yoe = (doe - doe / 1460 + doe / 36_524 - doe / 146_096) / 365;
    let y = yoe + era * 400;
    let doy = doe - (365 * yoe + yoe / 4 - yoe / 100);
    let mp = (5 * doy + 2) / 153;
    let d = (doy - (153 * mp + 2) / 5 + 1) as u32;
    let m = if mp < 10 { mp + 3 } else { mp - 9 } as u32;
    (if m <= 2 { y + 1 } else { y }, m, d)
}

fn write_results(args: &Args, method: &str, points: u64, shards: u32, sweep: &[LoadPoint]) {
    let unix = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map_or(0, |d| d.as_secs());
    let (y, m, d) = civil_from_days((unix / 86_400) as i64);
    let date = format!("{y:04}-{m:02}-{d:02}");
    let cells: Vec<String> = sweep.iter().map(point_to_json).collect();
    let json = format!(
        "{{\n  \"bench\": \"serve_tcp\",\n  \"date\": \"{date}\",\n  \"unix\": {unix},\n  \
         \"smoke\": {},\n  \"overload\": {},\n  \"deadline_ms\": {},\n  \
         \"method\": \"{method}\",\n  \"points\": {points},\n  \
         \"shards\": {shards},\n  \"connections\": {},\n  \"k\": {},\n  \
         \"duration_secs\": {},\n  \"sweep\": [\n    {}\n  ]\n}}\n",
        args.smoke,
        args.overload,
        args.deadline_ms,
        args.connections,
        args.k,
        json_f64(args.duration_secs),
        cells.join(",\n    "),
    );
    if let Some(parent) = std::path::Path::new(&args.out).parent() {
        if !parent.as_os_str().is_empty() {
            if let Err(e) = fs::create_dir_all(parent) {
                eprintln!("cannot create {}: {e}", parent.display());
                exit(1);
            }
        }
    }
    if let Err(e) = fs::write(&args.out, &json) {
        eprintln!("cannot write {}: {e}", args.out);
        exit(1);
    }
    println!("wrote {} ({} sweep points)", args.out, sweep.len());
}
