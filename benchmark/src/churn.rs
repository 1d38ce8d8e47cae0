//! `sift_churn_mixed`: writes beside reads on one durable mutable engine.
//!
//! One driver thread runs a seeded script against a freshly opened
//! `MutableEngine`: script rounds of inserts, removes of live ids and
//! single-query `serve` calls, an inline `try_compact()` every
//! [`COMPACT_EVERY`] script rounds, one `flush()`, then a drop and a
//! reopen that replays the journal. A benchmark round is one full script;
//! its wall holds every one of those steps, so `ops_per_s` pays for
//! writes, compaction, fsync and replay. The journal syncs every 64th
//! record (the flush policy, stated and fixed).
//!
//! The mix was calibrated once on the seed commit so that mutations,
//! compaction, flush and replay take 40–60 % of the timed wall, and is
//! frozen in the constants below. One driver on purpose: two cores cannot
//! measure lock contention repeatably.

use std::collections::HashSet;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

use permsearch_core::{Dataset, Neighbor, Space};
use permsearch_engine::{
    folded_segment_path, journal_path, standard_registry, Engine, MethodRegistry, MetricsRegistry,
    MutableEngine,
};
use permsearch_spaces::L2;

use crate::gold::{exact_ids, recall_ids, squared_l2};
use crate::harness::{answer_hash, sample_setup, scratch_dir, summarise, Harness, Outcome};
use crate::inputs::{select, sift_world, Fnv, SplitMix, BUILD_SEED, K};
use crate::pins::Pins;
use crate::spans::SpanId;
use crate::stats::{percentile_us, RoundStats};
use crate::workload::{counted_l2, exposition_delta, report_engine_trace, report_overhead};

pub const NAME: &str = "sift_churn_mixed";
pub const SHARDS: usize = 2;
/// Journal records between automatic fsyncs.
pub const SYNC_EVERY: u64 = 64;
/// Script rounds between inline compactions.
pub const COMPACT_EVERY: usize = 25;
/// The frozen mix: per script round.
pub const INSERTS: usize = 60;
pub const REMOVES: usize = 4;
pub const QUERIES: usize = 5;
/// Check queries put to the live and to the reopened engine.
const CHECKS: usize = 200;
const SALT: u64 = 0x7C9_0004;
/// Label the mutable engine registers its metrics under.
const METHOD: &str = "napp+dynamic-napp";

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Op {
    /// Insert the insert-pool point with this index.
    Insert(u32),
    /// Remove this global id (live when the op runs).
    Remove(u32),
    /// Query with the query-pool point with this index.
    Query(u32),
}

/// One full seeded script.
pub struct Script {
    pub ops: Vec<Op>,
    /// Positions in `ops` after which `try_compact()` runs.
    pub compact_after: Vec<usize>,
    /// Global ids removed by the end of the script.
    pub removed: Vec<u32>,
    /// Number of inserts (their global ids are `base..base + inserted`).
    pub inserted: usize,
}

impl Script {
    /// Draw the script: which pool points are inserted and queried, in
    /// what order, and which live ids are removed.
    pub fn generate(
        base: usize,
        insert_pool: usize,
        query_pool: usize,
        script_rounds: usize,
        compact_every: usize,
        seed: u64,
    ) -> Self {
        let inserts = select(insert_pool, script_rounds * INSERTS, seed, SALT);
        let queries = select(query_pool, script_rounds * QUERIES, seed, SALT ^ 0xFF);
        let mut rng = SplitMix::new(seed ^ SALT ^ 0xFFFF);
        let mut live: Vec<u32> = (0..base as u32).collect();
        let mut next_id = base as u32;
        let (mut ins, mut qs) = (inserts.iter(), queries.iter());
        let mut ops = Vec::new();
        let mut compact_after = Vec::new();
        let mut removed = Vec::new();
        for round in 0..script_rounds {
            // 0 = insert, 1 = remove, 2 = query; shuffled within the round.
            let mut kinds: Vec<u8> = std::iter::repeat_n(0u8, INSERTS)
                .chain(std::iter::repeat_n(1u8, REMOVES))
                .chain(std::iter::repeat_n(2u8, QUERIES))
                .collect();
            rng.shuffle(&mut kinds);
            for kind in kinds {
                match kind {
                    0 => {
                        ops.push(Op::Insert(*ins.next().expect("one index per insert")));
                        live.push(next_id);
                        next_id += 1;
                    }
                    1 => {
                        let id = live.swap_remove(rng.below(live.len()));
                        removed.push(id);
                        ops.push(Op::Remove(id));
                    }
                    _ => ops.push(Op::Query(*qs.next().expect("one index per query"))),
                }
            }
            if (round + 1) % compact_every == 0 {
                compact_after.push(ops.len());
            }
        }
        Self {
            ops,
            compact_after,
            removed,
            inserted: (next_id as usize) - base,
        }
    }

    pub fn fingerprint(&self) -> u64 {
        let mut h = Fnv::new();
        for op in &self.ops {
            match *op {
                Op::Insert(i) => h.u32(0).u32(i),
                Op::Remove(id) => h.u32(1).u32(id),
                Op::Query(i) => h.u32(2).u32(i),
            };
        }
        for &at in &self.compact_after {
            h.u64(at as u64);
        }
        h.finish()
    }

    fn queries(&self) -> usize {
        self.ops
            .iter()
            .filter(|op| matches!(op, Op::Query(_)))
            .count()
    }
}

/// An open engine and what reopening it needs.
struct Deployment {
    engine: MutableEngine<Vec<f32>>,
    data: Arc<Dataset<Vec<f32>>>,
    dir: PathBuf,
}

impl Deployment {
    fn teardown(self) {
        drop(self.engine);
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

fn open(
    registry: &MethodRegistry<Vec<f32>>,
    data: &Arc<Dataset<Vec<f32>>>,
    dir: &Path,
    metrics: Option<&Arc<MetricsRegistry>>,
) -> MutableEngine<Vec<f32>> {
    let (mut engine, _) = MutableEngine::open(
        registry,
        "napp",
        "dynamic-napp",
        data,
        SHARDS,
        1,
        BUILD_SEED,
        dir,
    )
    .expect("open the mutable engine");
    engine.set_journal_sync_every(SYNC_EVERY);
    if let Some(registry) = metrics {
        engine.attach_metrics(registry, 1);
    }
    engine
}

/// What one benchmark round measured beyond its `RoundStats`.
#[derive(Default)]
struct RoundTrace {
    mutation_ns: Vec<u64>,
    compact_s: Vec<f64>,
    replay_s: f64,
    journal_bytes: u64,
    tombstones: usize,
    /// Completed seal-fold-swap cycles of the round (inline ones + flush).
    generation: u64,
}

pub fn run(h: &mut Harness, pins: &mut Pins) -> Outcome {
    if h.cfg.trace {
        let metrics = Arc::new(MetricsRegistry::new());
        let space = counted_l2(&metrics, METHOD);
        run_with(h, pins, space, Some(metrics))
    } else {
        run_with(h, pins, L2, None)
    }
}

fn run_with<S>(
    h: &mut Harness,
    pins: &mut Pins,
    space: S,
    metrics: Option<Arc<MetricsRegistry>>,
) -> Outcome
where
    S: Space<[f32]> + Clone + Send + Sync + 'static,
{
    let base = h.cfg.scale(20_000, 2_000);
    let script_rounds = h.cfg.scale(100, 8);
    let compact_every = h.cfg.scale(COMPACT_EVERY, 3);
    let insert_pool = script_rounds * INSERTS * 11 / 10;
    let query_pool = script_rounds * QUERIES * 5 / 4;
    let checks = h.cfg.scale(CHECKS, 40);
    let (world, generate_s) = h.phase("datasets.generate", || {
        sift_world(base, insert_pool + query_pool + checks)
    });
    h.set("datasets.generate_s", generate_s);
    let (insert_points, rest) = world.pool.split_at(insert_pool);
    let (query_points, check_points) = rest.split_at(query_pool);
    let script = Script::generate(
        base,
        insert_pool,
        query_pool,
        script_rounds,
        compact_every,
        h.cfg.seed,
    );
    pins.check(h, NAME, "population", world.fingerprint, false);
    pins.check(h, NAME, "script", script.fingerprint(), true);

    let registry = standard_registry::<Vec<f32>, S>(space);
    let scratch = scratch_dir("churn");
    let indexed = &world.indexed;
    let (mut deployment, setup_reps) = sample_setup(
        h,
        {
            let mut rep = 0usize;
            let scratch = scratch.clone();
            move || {
                rep += 1;
                (indexed.clone(), scratch.join(format!("engine-{rep}")))
            }
        },
        |h, (points, dir)| {
            let root = h.rec.open("setup", SpanId::NONE, 0);
            let s = h.rec.open("core.make_dataset", root, 0);
            let data = Arc::new(Dataset::new_flat(points).quantize());
            h.rec.close(s, data.len() as u64);
            let s = h.rec.open("engine.mutable_open", root, 0);
            let engine = open(&registry, &data, &dir, None);
            h.rec.close(s, 0);
            h.rec.close(root, 0);
            Deployment { engine, data, dir }
        },
        Deployment::teardown,
    );

    let (plain_rounds, traced_rounds) = h.cfg.round_split(6);
    let removed: HashSet<u32> = script.removed.iter().copied().collect();
    let mut gone: HashSet<u32> = HashSet::with_capacity(removed.len());
    let mut stats: Vec<RoundStats> = Vec::new();
    let mut traced_stats: Vec<RoundStats> = Vec::new();
    let mut trace = RoundTrace::default();
    let mut reference: Option<Vec<u64>> = None;
    let mut recall_at_10 = 0.0;
    let mut before: Option<String> = None;
    for round in 0..plain_rounds + traced_rounds {
        // Spans, and the engine's own per-query trace, only in the traced
        // rounds, so that the plain rounds price what tracing adds.
        let spans_on = round >= plain_rounds;
        let attached = metrics.as_ref().filter(|_| spans_on);
        if let (Some(m), None) = (attached, &before) {
            before = Some(m.render_text());
        }
        let Deployment { engine, data, dir } = deployment;
        // A freshly opened engine: same base snapshots, no journal, no
        // folded segment.
        drop(engine);
        let _ = std::fs::remove_file(journal_path(&dir));
        let _ = std::fs::remove_file(folded_segment_path(&dir));
        let mut engine = open(&registry, &data, &dir, attached);

        // Each round inserts its own copies; cloning is not the engine's
        // work and stays outside the wall.
        let mut to_insert: Vec<Option<Vec<f32>>> = script
            .ops
            .iter()
            .filter_map(|op| match op {
                Op::Insert(i) => Some(Some(insert_points[*i as usize].clone())),
                _ => None,
            })
            .collect();
        to_insert.reverse();

        gone.clear();
        let mut latencies: Vec<u64> = Vec::with_capacity(script.queries());
        let mut hashes: Vec<u64> = Vec::with_capacity(script.queries());
        let round_span = if spans_on {
            h.rec.open("round", SpanId::NONE, 0)
        } else {
            SpanId::NONE
        };
        let ref_before = h.ref_sample();
        let t0 = Instant::now();
        let mut compactions = script.compact_after.iter().peekable();
        for (at, op) in script.ops.iter().enumerate() {
            match *op {
                Op::Insert(_) => {
                    let point = to_insert.pop().flatten().expect("one copy per insert");
                    let s = open_op(h, spans_on, "engine.try_insert", round_span);
                    let outcome = engine.try_insert(point);
                    if spans_on {
                        trace.mutation_ns.push(h.rec.close(s, 1));
                    }
                    h.tally(outcome.is_err());
                }
                Op::Remove(id) => {
                    let s = open_op(h, spans_on, "engine.try_remove", round_span);
                    let outcome = engine.try_remove(id);
                    if spans_on {
                        trace.mutation_ns.push(h.rec.close(s, 1));
                    }
                    // The script only removes live ids: `false` is a refusal.
                    h.tally(!matches!(outcome, Ok(true)));
                    gone.insert(id);
                }
                Op::Query(i) => {
                    let query = std::slice::from_ref(&query_points[i as usize]);
                    let s = open_op(h, spans_on, "engine.serve", round_span);
                    let t = Instant::now();
                    let served = engine.serve(query, K);
                    let ns = if spans_on {
                        h.rec.close(s, 1)
                    } else {
                        t.elapsed().as_nanos() as u64
                    };
                    latencies.push(ns);
                    let answer = &served.results[0];
                    let outcome = served.outcomes[0];
                    h.tally(
                        answer.len() != K || outcome.failed || outcome.partial || outcome.degraded,
                    );
                    h.check_order(NAME, answer);
                    if answer.iter().any(|n| gone.contains(&n.id)) {
                        h.violation(format!("{NAME}: an answer holds a removed id"));
                    }
                    hashes.push(answer_hash(answer));
                }
            }
            if compactions.peek() == Some(&&(at + 1)) {
                compactions.next();
                let s = open_op(h, spans_on, "engine.try_compact", round_span);
                let t = Instant::now();
                if let Err(text) = engine.try_compact() {
                    h.violation(format!("{NAME}: compaction failed: {text}"));
                }
                trace.compact_s.push(t.elapsed().as_secs_f64());
                h.rec.close(s, 0);
            }
        }
        let s = open_op(h, spans_on, "engine.flush", round_span);
        let flushed = engine.try_flush();
        h.rec.close(s, 0);
        if flushed.is_err() {
            h.violation(format!("{NAME}: flush refused"));
        }
        let mut wall = t0.elapsed().as_secs_f64();

        // Untimed, first round only: what the live engine answers.
        let live_answers: Option<Vec<Vec<Neighbor>>> = (round == 0).then(|| {
            check_points
                .iter()
                .map(|q| engine.serve(std::slice::from_ref(q), K).results.remove(0))
                .collect()
        });
        trace.tombstones = engine.tombstone_count();
        trace.generation = engine.generation();
        trace.journal_bytes = std::fs::metadata(journal_path(&dir)).map_or(0, |m| m.len());

        // Restart: drop, reopen, replay. Inside the wall.
        let t1 = Instant::now();
        let s = open_op(h, spans_on, "engine.reopen_replay", round_span);
        drop(engine);
        engine = open(&registry, &data, &dir, attached);
        h.rec.close(s, script.ops.len() as u64);
        trace.replay_s = t1.elapsed().as_secs_f64();
        wall += trace.replay_s;
        let ref_after = h.ref_sample();
        h.rec.close(round_span, script.ops.len() as u64);

        let round_stats = RoundStats::from_latencies(
            &mut latencies,
            script.ops.len(),
            wall,
            crate::refkernel::RefKernel::slowdown(ref_before, ref_after),
        );
        if spans_on {
            traced_stats.push(round_stats);
        } else {
            stats.push(round_stats);
        }

        // Every round runs the same script, so its answers must repeat.
        match &reference {
            None => reference = Some(hashes),
            Some(first) if *first != hashes => {
                h.violation(format!("{NAME}: round {round} answered unlike round 0"));
            }
            Some(_) => {}
        }
        if let Some(live) = live_answers {
            recall_at_10 = check_reopened(
                h,
                &engine,
                &live,
                &world.indexed,
                insert_points,
                check_points,
                &script,
                &removed,
            );
        }
        deployment = Deployment { engine, data, dir };
    }

    if let (Some(before), Some(m)) = (before, &metrics) {
        report_engine_trace(h, &exposition_delta(&before, &m.render_text()));
        report_overhead(h, &stats, &traced_stats);
        report_layers(h, &mut trace, &script);
        probe_layers(h, &registry, &deployment.data, insert_points, &scratch);
    }
    deployment.teardown();
    let _ = std::fs::remove_dir_all(&scratch);
    summarise(&stats, &setup_reps, recall_at_10)
}

/// Open a per-operation span (and draw its request id) in a traced round.
fn open_op(h: &mut Harness, spans_on: bool, name: &'static str, parent: SpanId) -> SpanId {
    if !spans_on {
        return SpanId::NONE;
    }
    let request = h.request_id();
    h.rec.open(name, parent, request)
}

/// After the reopen: the reopened engine must answer the check queries
/// bitwise like the live one did, never return a removed id, and reach
/// the recall floor against brute force over the final live set. Returns
/// the recall.
#[allow(clippy::too_many_arguments)]
fn check_reopened(
    h: &mut Harness,
    engine: &MutableEngine<Vec<f32>>,
    live: &[Vec<Neighbor>],
    indexed: &[Vec<f32>],
    insert_points: &[Vec<f32>],
    check_points: &[Vec<f32>],
    script: &Script,
    removed: &HashSet<u32>,
) -> f64 {
    // The final live set, with the global id of every survivor.
    let base = indexed.len() as u32;
    let mut ids: Vec<u32> = Vec::new();
    let mut points: Vec<&[f32]> = Vec::new();
    for (i, p) in indexed.iter().enumerate() {
        if !removed.contains(&(i as u32)) {
            ids.push(i as u32);
            points.push(p);
        }
    }
    let mut next = base;
    for op in &script.ops {
        if let Op::Insert(i) = *op {
            if !removed.contains(&next) {
                ids.push(next);
                points.push(&insert_points[i as usize]);
            }
            next += 1;
        }
    }
    let queries: Vec<&[f32]> = check_points.iter().map(Vec::as_slice).collect();
    let gold = exact_ids(&points, |i| ids[i], &queries, |a, b| squared_l2(a, b));

    let mut recall_sum = 0.0;
    for ((q, was), truth) in check_points.iter().zip(live).zip(&gold) {
        let now = engine.serve(std::slice::from_ref(q), K).results.remove(0);
        if answer_hash(&now) != answer_hash(was) {
            h.violation(format!(
                "{NAME}: the reopened engine answers unlike the live one"
            ));
        }
        if now.iter().any(|n| removed.contains(&n.id)) {
            h.violation(format!("{NAME}: an answer holds a removed id"));
        }
        h.check_order(NAME, &now);
        recall_sum += recall_ids(now.iter().map(|n| n.id), truth);
    }
    let recall = recall_sum / check_points.len().max(1) as f64;
    h.check_recall(NAME, recall);
    recall
}

/// Per-layer figures of the engine and store layers as the traced rounds
/// saw them.
fn report_layers(h: &mut Harness, trace: &mut RoundTrace, script: &Script) {
    h.set(
        "engine.mutation_p50_us",
        percentile_us(&mut trace.mutation_ns, 0.5),
    );
    h.set(
        "engine.mutation_p90_us",
        percentile_us(&mut trace.mutation_ns, 0.9),
    );
    if let Some(&query_us) = h.layer.get("harness.raw_query_p50_us") {
        h.set("engine.mutable_query_us", query_us);
    }
    let compactions = trace.compact_s.len().max(1) as f64;
    h.set(
        "engine.compact_s",
        trace.compact_s.iter().sum::<f64>() / compactions,
    );
    h.set("engine.compactions", trace.generation as f64);
    h.set("engine.tombstones_final", trace.tombstones as f64);
    // Drop, reopen and replay, as the round's wall pays for it.
    h.set("store.journal_replay_s", trace.replay_s);
    let mutations = (script.inserted + script.removed.len()).max(1) as f64;
    h.set(
        "store.journal_bytes_per_op",
        trace.journal_bytes as f64 / mutations,
    );
}

/// The two layers under a mutation, each called directly: the dynamic
/// index's insert (no engine, no journal) and the journal's append under
/// the workload's flush policy (no engine, no index).
fn probe_layers(
    h: &mut Harness,
    registry: &MethodRegistry<Vec<f32>>,
    data: &Arc<Dataset<Vec<f32>>>,
    insert_points: &[Vec<f32>],
    scratch: &Path,
) {
    let sample = &insert_points[..insert_points.len().min(512)];
    let mut delta = registry
        .build_mutable("dynamic-napp", data.clone(), BUILD_SEED)
        .expect("dynamic-napp is the standard mutable method");
    let copies: Vec<Vec<f32>> = sample.to_vec();
    let root = h.rec.open("probe.dynamic_insert", SpanId::NONE, 0);
    let t0 = Instant::now();
    for point in copies {
        std::hint::black_box(delta.insert(point));
    }
    let per_insert = t0.elapsed().as_secs_f64() * 1e6 / sample.len().max(1) as f64;
    h.rec.close(root, sample.len() as u64);
    h.set("permutation.dynamic_insert_us", per_insert);

    let path = scratch.join("probe.psjl");
    std::fs::create_dir_all(scratch).expect("create the scratch directory");
    let mut journal =
        permsearch_store::create_journal(&path, "probe").expect("create the probe journal");
    journal.set_sync_every(SYNC_EVERY);
    let payloads: Vec<Vec<u8>> = sample
        .iter()
        .map(|p| p.iter().flat_map(|v| v.to_le_bytes()).collect())
        .collect();
    let root = h.rec.open("probe.journal_append", SpanId::NONE, 0);
    let t0 = Instant::now();
    for payload in &payloads {
        journal
            .append(permsearch_engine::OP_INSERT, payload)
            .expect("append to the probe journal");
    }
    let per_append = t0.elapsed().as_secs_f64() * 1e6 / payloads.len().max(1) as f64;
    h.rec.close(root, payloads.len() as u64);
    h.set("store.journal_append_us", per_append);
    drop(journal);
    let _ = std::fs::remove_file(&path);
}
