//! `sift_tcp_closed`: one PSRV connection in a closed loop against a
//! small two-shard deployment.
//!
//! Set-up is the whole deployment path an operator runs: persist the
//! dataset, build and snapshot the shards, load both back, warm-start the
//! engine, start the server with default configuration, connect and
//! ping. A round is 1 000 single-query Search frames, each timed from the
//! caller's side, in raw wall time (see README, rule 2).

use std::io::Write;
use std::net::{SocketAddr, TcpStream};
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

use permsearch_core::{Dataset, Neighbor, SearchIndex, SearchScratch, Space};
use permsearch_engine::{standard_registry, Engine, MetricsRegistry, ShardedEngine};
use permsearch_serve::{
    frame_to_vec, read_frame, Client, Frame, ProtocolError, QueryStatus, Server, ServerConfig,
    ServerHandle,
};
use permsearch_spaces::L2;

use crate::gold::{exact_ids, recall_ids, squared_l2};
use crate::harness::{answer_hash, sample_setup, scratch_dir, summarise, Harness, Outcome};
use crate::inputs::{fingerprint_indices, pick, select, sift_world, BUILD_SEED, K};
use crate::pins::Pins;
use crate::spans::SpanId;
use crate::stats::{median, percentile_us, RoundStats};
use crate::workload::{
    counted_l2, exposition_delta, family_sum, report_engine_trace, report_overhead,
};

pub const NAME: &str = "sift_tcp_closed";
pub const SHARDS: usize = 2;
/// Engine worker threads, as `permsearch-serve` defaults them.
pub const WORKERS: usize = 2;
const SALT: u64 = 0x7C9_0003;
/// Family label the engine registers its serving metrics under.
pub const METHOD: &str = "napp";

/// A running deployment: server, one connected client, and the directory
/// it was started from.
pub struct Deployment {
    pub server: ServerHandle,
    pub client: Client,
    pub addr: SocketAddr,
    pub dir: PathBuf,
}

impl Deployment {
    /// Stop the server, wait for its threads, and delete the directory.
    pub fn teardown(self) {
        drop(self.client);
        self.server.shutdown();
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

/// The deployment path, start to first pong. With `metrics`, the server
/// and the engine publish into that registry and every query is traced
/// (traced run only; the measured run uses `ServerConfig::new` as is).
pub fn deploy<S>(
    h: &mut Harness,
    points: Vec<Vec<f32>>,
    space: S,
    dir: &Path,
    metrics: Option<Arc<MetricsRegistry>>,
) -> Deployment
where
    S: Space<[f32]> + Clone + Send + Sync + 'static,
{
    let root = h.rec.open("setup", SpanId::NONE, 0);
    let registry = standard_registry::<Vec<f32>, S>(space);
    let dataset_path = dir.join("dataset.psnp");

    let s = h.rec.open("core.make_dataset", root, 0);
    let data = Arc::new(Dataset::new_flat(points).quantize());
    let dim = data.dim();
    h.rec.close(s, data.len() as u64);

    std::fs::create_dir_all(dir).expect("create the deployment directory");
    let s = h.rec.open("store.save_dataset", root, 0);
    permsearch_store::save_dataset(&dataset_path, &data).expect("save the dataset");
    h.close_as(s, 0, "store.snapshot_save_s");

    let s = h.rec.open("engine.build_or_load", root, 0);
    let (built, warm) =
        ShardedEngine::build_or_load(&registry, "napp", &data, SHARDS, WORKERS, BUILD_SEED, dir)
            .expect("build and snapshot the shards");
    assert_eq!(
        warm.shards_built, SHARDS,
        "a fresh directory builds every shard"
    );
    drop(built);
    drop(data);
    h.close_as(s, SHARDS as u64, "engine.build_s");
    if h.rec.enabled() {
        let bytes: u64 = std::fs::read_dir(dir)
            .map(|entries| {
                entries
                    .filter_map(|e| e.ok()?.metadata().ok())
                    .map(|m| m.len())
                    .sum()
            })
            .unwrap_or(0);
        h.set("store.snapshot_mb", bytes as f64 / (1024.0 * 1024.0));
    }

    let s = h.rec.open("store.load_dataset", root, 0);
    let loaded: Dataset<Vec<f32>> =
        permsearch_store::load_dataset(&dataset_path).expect("load the dataset back");
    let loaded = Arc::new(loaded);
    h.close_as(s, loaded.len() as u64, "store.snapshot_load_s");

    let s = h.rec.open("engine.from_snapshots", root, 0);
    let mut engine = ShardedEngine::from_snapshots(&registry, &loaded, WORKERS, dir)
        .expect("warm-start from the snapshots");
    h.close_as(s, SHARDS as u64, "engine.warm_start_s");

    let mut config = ServerConfig::new("127.0.0.1:0", dim);
    if let Some(registry) = metrics {
        engine.attach_metrics(&registry, 1);
        config.metrics = Some(registry);
    }
    let s = h.rec.open("serve.server_start", root, 0);
    let server = Server::start(Arc::new(engine), config).expect("bind 127.0.0.1:0");
    let addr = server.addr();
    h.rec.close(s, 0);

    let s = h.rec.open("serve.connect_ping", root, 0);
    let mut client = Client::connect(addr).expect("connect to the server");
    let info = client.ping().expect("first ping");
    assert_eq!(
        info.points as usize,
        loaded.len(),
        "pong reports the deployment"
    );
    h.rec.close(s, 0);
    h.rec.close(root, 0);
    Deployment {
        server,
        client,
        addr,
        dir: dir.to_path_buf(),
    }
}

pub fn run(h: &mut Harness, pins: &mut Pins) -> Outcome {
    let n = h.cfg.scale(2_000, 500);
    let pool = h.cfg.scale(1_250, 150);
    let round = h.cfg.scale(1_000, 100);
    let (world, generate_s) = h.phase("datasets.generate", || sift_world(n, pool));
    h.set("datasets.generate_s", generate_s);
    let selection = select(world.pool.len(), round, h.cfg.seed, SALT);
    pins.check(h, NAME, "population", world.fingerprint, false);
    pins.check(h, NAME, "queries", fingerprint_indices(&selection), true);
    if h.cfg.trace {
        // Only the traced run climbs the ladder.
        let schedule = crate::ladder::schedule_fingerprint(h);
        pins.check(h, NAME, "schedule", schedule, true);
    }
    let queries = pick(&world.pool, &selection);

    let (gold, gold_s) = h.phase("eval.gold", || {
        exact_ids(
            &world.indexed,
            |i| i as u32,
            &world.pool,
            |a, b| squared_l2(a, b),
        )
    });
    h.set("eval.gold_s", gold_s);

    // In-process reference: an engine built cold from the registry (not
    // from the snapshots), so every reply is checked against an answer
    // that never crossed the store or the wire.
    let reference_data = Arc::new(Dataset::new_flat(world.indexed.clone()).quantize());
    let reference_engine = ShardedEngine::from_registry(
        &standard_registry::<Vec<f32>, L2>(L2),
        "napp",
        &reference_data,
        SHARDS,
        1,
        BUILD_SEED,
    )
    .expect("napp is a standard method");
    let served = reference_engine.serve(&world.pool, K);
    let mut recall_sum = 0.0;
    for (answer, truth) in served.results.iter().zip(&gold) {
        h.check_order(NAME, answer);
        recall_sum += recall_ids(answer.iter().map(|n| n.id), truth);
    }
    let recall_at_10 = recall_sum / world.pool.len().max(1) as f64;
    h.check_recall(NAME, recall_at_10);
    let reference: Vec<u64> = served.results.iter().map(|a| answer_hash(a)).collect();
    if h.cfg.trace {
        probe_engine(h, &reference_engine, &reference_data, &queries);
    }
    drop(reference_engine);
    drop(reference_data);

    let scratch = scratch_dir("tcp");
    let indexed = &world.indexed;
    let mut rep = 0usize;
    let mut next_dir = || {
        rep += 1;
        scratch.join(format!("deploy-{rep}"))
    };
    let (mut deployment, setup_reps) = sample_setup(
        h,
        || (indexed.clone(), next_dir()),
        |h, (points, dir)| deploy(h, points, L2, &dir, None),
        Deployment::teardown,
    );
    for q in queries.iter().take(h.cfg.scale(200, 20)) {
        let _ = deployment.client.search(std::slice::from_ref(q), K as u32);
    }

    let (plain_rounds, _) = h.cfg.round_split(16);
    let mut stats: Vec<RoundStats> = Vec::new();
    let mut latencies: Vec<u64> = Vec::with_capacity(queries.len());
    for _ in 0..plain_rounds {
        latencies.clear();
        let client = &mut deployment.client;
        let ((), wall, slowdown) = h.bracketed(|h| {
            for (q, &slot) in queries.iter().zip(&selection) {
                let t0 = Instant::now();
                let reply = client.search_deadline(std::slice::from_ref(q), K as u32, None);
                latencies.push(t0.elapsed().as_nanos() as u64);
                let reply = reply.map(|r| (r.results, r.statuses));
                check_reply(h, reply, reference[slot as usize]);
            }
        });
        stats.push(RoundStats::from_latencies(
            &mut latencies,
            queries.len(),
            wall,
            slowdown,
        ));
    }

    if h.cfg.trace {
        probe_ping(h, &mut deployment.client);
        deployment.teardown();
        // A second deployment that publishes metrics and traces every
        // query, so the plain rounds above price what tracing adds.
        let registry = Arc::new(MetricsRegistry::new());
        let space = counted_l2(&registry, METHOD);
        let mut traced = deploy(
            h,
            indexed.clone(),
            space,
            &next_dir(),
            Some(registry.clone()),
        );
        traced_rounds(h, &mut traced, &queries, &selection, &reference, &stats);
        let secs = median(
            &(0..21)
                .map(|_| {
                    let t0 = Instant::now();
                    std::hint::black_box(registry.render_text());
                    t0.elapsed().as_secs_f64()
                })
                .collect::<Vec<_>>(),
        );
        h.set("obs.metrics_text_us", secs * 1e6);
        traced.teardown();
    } else {
        deployment.teardown();
    }
    let _ = std::fs::remove_dir_all(&scratch);
    summarise(&stats, &setup_reps, recall_at_10)
}

/// The traced half of a traced run: the client's three steps spelled out
/// with the protocol's public functions on a second connection, one span
/// each; then the open-loop rate ladder; then what the server's own
/// exposition says about both.
fn traced_rounds(
    h: &mut Harness,
    deployment: &mut Deployment,
    queries: &[Vec<f32>],
    selection: &[u32],
    reference: &[u64],
    plain: &[RoundStats],
) {
    let before = deployment
        .client
        .metrics_text()
        .expect("metrics exposition before the traced rounds");
    let mut stream = TcpStream::connect(deployment.addr).expect("second connection");
    let _ = stream.set_nodelay(true);
    let mut traced_stats: Vec<RoundStats> = Vec::new();
    let mut latencies: Vec<u64> = Vec::with_capacity(queries.len());
    for _ in 0..plain.len() {
        latencies.clear();
        let round_span = h.rec.open("round", SpanId::NONE, 0);
        let ((), wall, slowdown) = h.bracketed(|h| {
            for (q, &slot) in queries.iter().zip(selection) {
                let request = h.request_id();
                let span = h.rec.open("harness.request", round_span, request);
                let reply = traced_search(h, &mut stream, q, span, request);
                latencies.push(h.rec.close(span, 1));
                check_reply(h, reply, reference[slot as usize]);
            }
        });
        h.rec.close(round_span, queries.len() as u64);
        traced_stats.push(RoundStats::from_latencies(
            &mut latencies,
            queries.len(),
            wall,
            slowdown,
        ));
    }
    drop(stream);
    let after = deployment
        .client
        .metrics_text()
        .expect("metrics exposition after the traced rounds");
    report_engine_trace(h, &exposition_delta(&before, &after));
    report_overhead(h, plain, &traced_stats);

    let search_rtt = h.layer["harness.raw_query_p50_us"];
    h.set("serve.search_rtt_us", search_rtt);
    let unattributed = search_rtt
        - h.layer.get("serve.ping_rtt_us").copied().unwrap_or(0.0)
        - h.layer
            .get("engine.serve_single_us")
            .copied()
            .unwrap_or(0.0);
    h.set("serve.unattributed_us", unattributed);

    crate::ladder::run(h, deployment.addr, queries);
    let end = deployment
        .client
        .metrics_text()
        .expect("metrics exposition after the ladder");
    let served = exposition_delta(&before, &end);
    let batches = family_sum(&served, "permsearch_tcp_batches_total", None).max(1.0);
    h.set(
        "serve.mean_batch_size",
        family_sum(&served, "permsearch_tcp_batched_queries_total", None) / batches,
    );
    h.set(
        "serve.shed",
        family_sum(&served, "permsearch_tcp_shed_total", None),
    );
}

/// Median round trip of a Ping: socket, frame and connection thread, with
/// no batcher and no engine in the way.
fn probe_ping(h: &mut Harness, client: &mut Client) {
    let span = h.rec.open("serve.ping", SpanId::NONE, 0);
    let mut latencies: Vec<u64> = (0..500)
        .map(|_| {
            let t0 = Instant::now();
            let _ = std::hint::black_box(client.ping());
            t0.elapsed().as_nanos() as u64
        })
        .collect();
    h.rec.close(span, latencies.len() as u64);
    h.set("serve.ping_rtt_us", percentile_us(&mut latencies, 0.5));
}

/// The engine without the wire: a single-query `serve` on the two-shard
/// engine against `search_into` on one unsharded index of the same data.
fn probe_engine(
    h: &mut Harness,
    engine: &ShardedEngine<Vec<f32>>,
    data: &Arc<Dataset<Vec<f32>>>,
    queries: &[Vec<f32>],
) {
    let sample = &queries[..queries.len().min(300)];
    let span = h.rec.open("engine.serve_single", SpanId::NONE, 0);
    let mut latencies: Vec<u64> = sample
        .iter()
        .map(|q| {
            let t0 = Instant::now();
            std::hint::black_box(engine.serve(std::slice::from_ref(q), K));
            t0.elapsed().as_nanos() as u64
        })
        .collect();
    h.rec.close(span, sample.len() as u64);
    let sharded_us = percentile_us(&mut latencies, 0.5);
    h.set("engine.serve_single_us", sharded_us);

    let unsharded = standard_registry::<Vec<f32>, L2>(L2)
        .build("napp", data.clone(), BUILD_SEED)
        .expect("napp is a standard method");
    let mut scratch = SearchScratch::new();
    let mut answer = Vec::new();
    let span = h.rec.open("permutation.search_into", SpanId::NONE, 0);
    let mut latencies: Vec<u64> = sample
        .iter()
        .map(|q| {
            let t0 = Instant::now();
            unsharded.search_into(q, K, &mut scratch, &mut answer);
            t0.elapsed().as_nanos() as u64
        })
        .collect();
    h.rec.close(span, sample.len() as u64);
    h.set(
        "engine.shard_overhead_us",
        sharded_us - percentile_us(&mut latencies, 0.5),
    );
}

type Reply = Result<(Vec<Vec<Neighbor>>, Vec<QueryStatus>), ProtocolError>;

/// Tally one reply. Errors, shed requests and any failed, partial or
/// degraded status count as failed operations; a complete answer that
/// differs from the in-process engine's is a correctness violation.
fn check_reply(h: &mut Harness, reply: Reply, reference: u64) {
    match reply {
        Ok((results, statuses)) => {
            let complete =
                results.len() == 1 && results[0].len() == K && statuses.iter().all(|s| s.is_ok());
            h.tally(!complete);
            if complete && answer_hash(&results[0]) != reference {
                h.violation(format!(
                    "{NAME}: a reply differs from the in-process engine's answer"
                ));
            }
        }
        Err(_) => h.tally(true),
    }
}

/// One Search round trip with a span around each step the client takes.
fn traced_search(
    h: &mut Harness,
    stream: &mut TcpStream,
    query: &[f32],
    parent: SpanId,
    request: u64,
) -> Reply {
    let s = h.rec.open("serve.encode_query", parent, request);
    let bytes = frame_to_vec(&Frame::Query {
        k: K as u32,
        deadline_micros: 0,
        queries: vec![query.to_vec()],
    })?;
    h.rec.close(s, bytes.len() as u64);

    let s = h.rec.open("serve.socket_write", parent, request);
    stream.write_all(&bytes)?;
    stream.flush()?;
    h.rec.close(s, bytes.len() as u64);

    // Server time (decode, admission, batch window, engine, encode) and
    // the reply's read, checksum and decode all land here; the codec
    // probes price the decode on its own.
    let s = h.rec.open("serve.await_reply", parent, request);
    let frame = read_frame(stream)?;
    h.rec.close(s, 1);
    match frame {
        Some(Frame::Results { results, statuses }) => Ok((results, statuses)),
        Some(Frame::Overloaded { retry_after_ms }) => {
            Err(ProtocolError::Overloaded { retry_after_ms })
        }
        Some(Frame::Error(message)) => Err(ProtocolError::Remote(message)),
        _ => Err(ProtocolError::Truncated {
            context: "response frame",
        }),
    }
}
