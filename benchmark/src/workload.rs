//! Dispatch by workload name, the traced run's fillers, and the reporting
//! the workloads share.

use std::collections::BTreeMap;

use permsearch_core::{CountedSpace, Dataset};
use permsearch_engine::MetricsRegistry;
use permsearch_spaces::{NormalizedLevenshtein, Sequence, L2};

use crate::defs::WORKLOADS;
use crate::gold::{exact_ids, normalized_levenshtein, squared_l2};
use crate::harness::{Config, Harness, Outcome};
use crate::inputs::{dna_world, sift_world};
use crate::pins::Pins;
use crate::refkernel::REF_NOMINAL_US;
use crate::stats::{median, percentile_sorted, sorted, RoundStats};
use crate::{churn, inproc, probes, tcp};

/// Run the workload `h.cfg.workload` names.
pub fn run_one(h: &mut Harness, pins: &mut Pins) -> Outcome {
    match h.cfg.workload.as_str() {
        "sift_napp_inproc" => sift_napp_inproc(h, pins),
        "dna_napp_inproc" => dna_napp_inproc(h, pins),
        tcp::NAME => tcp::run(h, pins),
        churn::NAME => churn::run(h, pins),
        other => unreachable!("workload {other} was validated by the command line"),
    }
}

/// Run the workload and, in a traced run, complete the per-layer set.
///
/// The benchmark contract wants every per-layer name from every traced
/// run. A traced run measures the layers its workload exercises on that
/// workload, at full scale; the layers it does not exercise are then
/// filled in by the other workloads run traced at `--smoke` scale, on
/// this harness (one clock origin, one id space, one failure tally).
/// Values the workload itself produced are never overwritten, and the
/// names filled in are returned for the run record.
pub fn run(h: &mut Harness, pins: &mut Pins) -> (Outcome, Vec<&'static str>) {
    let outcome = run_one(h, pins);
    let mut fillers = Vec::new();
    if !h.cfg.trace {
        return (outcome, fillers);
    }
    probes::micro(h);
    let own_cfg = h.cfg.clone();
    let own_layer = std::mem::take(&mut h.layer);
    for other in WORKLOADS.iter().filter(|w| w.name != own_cfg.workload) {
        h.cfg = Config {
            workload: other.name.to_string(),
            smoke: true,
            ..own_cfg.clone()
        };
        run_one(h, pins);
    }
    h.cfg = own_cfg;
    for (name, value) in std::mem::replace(&mut h.layer, own_layer) {
        if let std::collections::btree_map::Entry::Vacant(slot) = h.layer.entry(name) {
            slot.insert(value);
            fillers.push(name);
        }
    }
    let samples = sorted(&h.ref_samples_us);
    h.set("harness.ref_us", percentile_sorted(&samples, 0.5));
    h.set(
        "harness.slowdown_p50",
        percentile_sorted(&samples, 0.5) / REF_NOMINAL_US,
    );
    h.set(
        "harness.slowdown_max",
        samples.last().copied().unwrap_or(REF_NOMINAL_US) / REF_NOMINAL_US,
    );
    h.set("trace.spans", h.rec.len() as f64);
    (outcome, fillers)
}

fn sift_napp_inproc(h: &mut Harness, pins: &mut Pins) -> Outcome {
    let n = h.cfg.scale(20_000, 2_000);
    let pool = h.cfg.scale(750, 150);
    let (world, generate_s) = h.phase("datasets.generate", || sift_world(n, pool));
    let (gold, gold_s) = h.phase("eval.gold", || {
        exact_ids(
            &world.indexed,
            |i| i as u32,
            &world.pool,
            |a, b| squared_l2(a, b),
        )
    });
    h.set("datasets.generate_s", generate_s);
    h.set("eval.gold_s", gold_s);
    let spec = inproc::Spec {
        name: "sift_napp_inproc",
        indexed: world.indexed,
        pool: world.pool,
        population_fingerprint: world.fingerprint,
        gold,
        round: h.cfg.scale(600, 100),
        warmup: h.cfg.scale(200, 20),
        salt: 0x7C9_0001,
        make_dataset: |points| Dataset::new_flat(points).quantize(),
        world_probes: probes::dense_world,
    };
    inproc::run(h, spec, L2, pins)
}

fn dna_napp_inproc(h: &mut Harness, pins: &mut Pins) -> Outcome {
    let n = h.cfg.scale(2_000, 300);
    let pool = h.cfg.scale(320, 60);
    let (world, generate_s) = h.phase("datasets.generate", || dna_world(n, pool));
    let (gold, gold_s) = h.phase("eval.gold", || {
        exact_ids(
            &world.indexed,
            |i| i as u32,
            &world.pool,
            |a, b| normalized_levenshtein(a, b),
        )
    });
    h.set("datasets.generate_s", generate_s);
    h.set("eval.gold_s", gold_s);
    let spec: inproc::Spec<Sequence> = inproc::Spec {
        name: "dna_napp_inproc",
        indexed: world.indexed,
        pool: world.pool,
        population_fingerprint: world.fingerprint,
        gold,
        round: h.cfg.scale(250, 40),
        warmup: h.cfg.scale(100, 10),
        salt: 0x7C9_0002,
        make_dataset: Dataset::new,
        world_probes: probes::sequence_world,
    };
    inproc::run(h, spec, NormalizedLevenshtein, pins)
}

/// L2 wrapped in the program's `CountedSpace`, sharing the counter the
/// engine publishes as `permsearch_dists_total{method}` in `registry`.
pub fn counted_l2(registry: &MetricsRegistry, method: &str) -> CountedSpace<L2> {
    let counter = registry.counter(
        "permsearch_dists_total",
        "Distance computations (space-level, counted by CountedSpace).",
        &[("method", method)],
    );
    CountedSpace::with_counter(L2, counter)
}

/// What the traced rounds add over the untraced ones, and the medians
/// over rounds behind the run's quartiles.
pub fn report_overhead(h: &mut Harness, plain: &[RoundStats], traced: &[RoundStats]) {
    let p50 = |rounds: &[RoundStats]| median(&rounds.iter().map(|r| r.p50_us).collect::<Vec<_>>());
    let plain_p50 = p50(plain);
    let traced_p50 = p50(traced);
    h.set("harness.raw_query_p50_us", plain_p50);
    h.set(
        "harness.raw_query_p99_us",
        median(&plain.iter().map(|r| r.p99_us).collect::<Vec<_>>()),
    );
    h.set("harness.rounds", (plain.len() + traced.len()) as f64);
    h.set("trace.query_p50_us", traced_p50);
    h.set(
        "trace.overhead_share",
        if plain_p50 > 0.0 {
            (traced_p50 - plain_p50) / plain_p50
        } else {
            0.0
        },
    );
}

/// Every sample of a Prometheus text exposition as `series -> value`
/// (the series is the text before the last space).
fn exposition(text: &str) -> BTreeMap<&str, f64> {
    text.lines()
        .filter(|l| !l.starts_with('#'))
        .filter_map(|l| {
            let (series, value) = l.rsplit_once(' ')?;
            Some((series, value.parse::<f64>().ok()?))
        })
        .collect()
}

/// `after − before` for every series of two expositions.
pub fn exposition_delta(before: &str, after: &str) -> BTreeMap<String, f64> {
    let before = exposition(before);
    exposition(after)
        .into_iter()
        .map(|(series, value)| {
            (
                series.to_string(),
                value - before.get(series).copied().unwrap_or(0.0),
            )
        })
        .collect()
}

/// Sum of a family's series, optionally only those carrying `label`
/// (written `key="value"`).
pub fn family_sum(delta: &BTreeMap<String, f64>, family: &str, label: Option<&str>) -> f64 {
    delta
        .iter()
        .filter(|(series, _)| {
            let name = series.split('{').next().unwrap_or(series);
            name == family && label.is_none_or(|l| series.contains(l))
        })
        .map(|(_, v)| v)
        .sum()
}

/// Stage times and counts of an engine-served workload, from the counters
/// the engine publishes with every query traced: means per traced query.
pub fn report_engine_trace(h: &mut Harness, delta: &BTreeMap<String, f64>) {
    let sampled = family_sum(delta, "permsearch_traces_sampled_total", None).max(1.0);
    for (name, stage) in [
        ("permutation.stage_filter_us", "stage=\"filter\""),
        (
            "permutation.stage_quant_filter_us",
            "stage=\"quant_filter\"",
        ),
        ("permutation.stage_refine_us", "stage=\"refine\""),
        ("permutation.stage_merge_us", "stage=\"merge\""),
    ] {
        let nanos = family_sum(delta, "permsearch_trace_stage_nanos_total", Some(stage));
        h.set(name, nanos / sampled / 1e3);
    }
    h.set(
        "permutation.candidates_per_query",
        family_sum(delta, "permsearch_trace_candidates_total", None) / sampled,
    );
    h.set(
        "permutation.quant_engaged_share",
        family_sum(delta, "permsearch_trace_quant_engaged_total", None) / sampled,
    );
    let refined = family_sum(
        delta,
        "permsearch_trace_stage_dists_total",
        Some("stage=\"refine\""),
    );
    h.set(
        "permutation.refine_yield",
        if refined > 0.0 {
            crate::inputs::K as f64 * sampled / refined
        } else {
            0.0
        },
    );
    let queries = family_sum(delta, "permsearch_queries_total", None).max(1.0);
    h.set(
        "spaces.dists_per_query",
        family_sum(delta, "permsearch_dists_total", None) / queries,
    );
}
