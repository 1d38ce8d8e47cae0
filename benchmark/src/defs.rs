//! The names the benchmark fixes: workloads, end-to-end metrics with
//! their bounds, and per-layer metrics. `BENCHMARK.json` at the repo
//! root is this file written out (`definition` subcommand); a test keeps
//! the two equal.

use crate::json::quote;
use crate::stats::Better::{self, Higher, Lower};

pub struct WorkloadDef {
    pub name: &'static str,
    pub why: &'static str,
}

pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the parent's median by which the metric may worsen;
    /// `None` for per-layer metrics, which are never gated.
    pub bound: Option<f64>,
}

/// Seconds one run measures (`--seconds`): 16 rounds of about 1 s, or 6
/// churn rounds of about 3 s.
pub const RUN_SECONDS: u64 = 16;

pub const COMMAND: &[&str] = &[
    "cargo",
    "run",
    "--release",
    "--offline",
    "--quiet",
    "--manifest-path",
    "benchmark/Cargo.toml",
    "--",
    "run",
];

pub const PATHS: &[&str] = &["benchmark"];

pub const WORKLOADS: &[WorkloadDef] = &[
    WorkloadDef {
        name: "sift_napp_inproc",
        why: "cheap L2 distance in process: permutation filter, SQ8 quant_filter and refine do the work; engine, store and serve do none",
    },
    WorkloadDef {
        name: "dna_napp_inproc",
        why: "expensive Levenshtein distance in process: the distance kernel dominates; arena, SQ8 tier and posting layout are bypassed",
    },
    WorkloadDef {
        name: "sift_tcp_closed",
        why: "one PSRV connection in a closed loop on a small index: frame codec, admission, batch window, hand-off and socket I/O dominate, the engine is about a tenth",
    },
    WorkloadDef {
        name: "sift_churn_mixed",
        why: "inserts, removes, compaction, flush and replay beside reads on one mutable engine: a read gain bought with slower writes shows only here",
    },
];

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound: Some(bound),
    }
}

pub const END_TO_END: &[MetricDef] = &[
    e2e("setup_s", "s", Better::Lower, 0.10),
    e2e("query_p50_us", "us", Better::Lower, 0.10),
    e2e("query_p90_us", "us", Better::Lower, 0.10),
    e2e("ops_per_s", "1/s", Better::Higher, 0.10),
    e2e("recall_at_10", "share", Better::Higher, 0.01),
    e2e("peak_rss_mb", "MB", Better::Lower, 0.05),
];

const fn layer(name: &'static str, unit: &'static str, better: Better) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound: None,
    }
}

pub const PER_LAYER: &[MetricDef] = &[
    layer("spaces.l2_flat_ns_per_dist", "ns", Lower),
    layer("spaces.l2_flat_ids_gather_ns_per_dist", "ns", Lower),
    layer("spaces.l2_quant_ids_ns_per_dist", "ns", Lower),
    layer("spaces.levenshtein_ns_per_dist", "ns", Lower),
    layer("spaces.dists_per_query", "count", Lower),
    layer("core.k_smallest_ns_per_item", "ns", Lower),
    layer("core.merge_topk_us", "us", Lower),
    layer("core.quantize_build_s", "s", Lower),
    layer("core.dataset_mb", "MB", Lower),
    layer("core.quant_tier_mb", "MB", Lower),
    layer("permutation.napp_build_s", "s", Lower),
    layer("permutation.ranks_us", "us", Lower),
    layer("permutation.stage_filter_us", "us", Lower),
    layer("permutation.stage_quant_filter_us", "us", Lower),
    layer("permutation.stage_refine_us", "us", Lower),
    layer("permutation.stage_merge_us", "us", Lower),
    layer("permutation.candidates_per_query", "count", Lower),
    layer("permutation.quant_engaged_share", "share", Higher),
    layer("permutation.refine_yield", "share", Higher),
    layer("permutation.dynamic_insert_us", "us", Lower),
    layer("eval.brute_query_us", "us", Lower),
    layer("eval.gold_s", "s", Lower),
    layer("datasets.generate_s", "s", Lower),
    layer("vptree.query_us", "us", Lower),
    layer("vptree.recall_at_10", "share", Higher),
    layer("knngraph.query_us", "us", Lower),
    layer("knngraph.recall_at_10", "share", Higher),
    layer("lsh.query_us", "us", Lower),
    layer("lsh.recall_at_10", "share", Higher),
    layer("engine.build_s", "s", Lower),
    layer("engine.warm_start_s", "s", Lower),
    layer("engine.serve_single_us", "us", Lower),
    layer("engine.shard_overhead_us", "us", Lower),
    layer("engine.mutation_p50_us", "us", Lower),
    layer("engine.mutation_p90_us", "us", Lower),
    layer("engine.mutable_query_us", "us", Lower),
    layer("engine.compact_s", "s", Lower),
    layer("engine.compactions", "count", Lower),
    layer("engine.tombstones_final", "count", Lower),
    layer("store.snapshot_save_s", "s", Lower),
    layer("store.snapshot_load_s", "s", Lower),
    layer("store.snapshot_mb", "MB", Lower),
    layer("store.journal_append_us", "us", Lower),
    layer("store.journal_bytes_per_op", "B", Lower),
    layer("store.journal_replay_s", "s", Lower),
    layer("serve.encode_query_ns", "ns", Lower),
    layer("serve.decode_query_ns", "ns", Lower),
    layer("serve.encode_reply_ns", "ns", Lower),
    layer("serve.decode_reply_ns", "ns", Lower),
    layer("serve.ping_rtt_us", "us", Lower),
    layer("serve.search_rtt_us", "us", Lower),
    layer("serve.unattributed_us", "us", Lower),
    layer("serve.mean_batch_size", "count", Higher),
    layer("serve.shed", "count", Lower),
    layer("loadgen.r200_p50_us", "us", Lower),
    layer("loadgen.r400_p50_us", "us", Lower),
    layer("loadgen.r800_p50_us", "us", Lower),
    layer("loadgen.r800_p90_us", "us", Lower),
    layer("loadgen.late_p90_us", "us", Lower),
    layer("loadgen.slo_rate_qps", "1/s", Higher),
    layer("loadgen.failed_share", "share", Lower),
    layer("obs.metrics_text_us", "us", Lower),
    layer("harness.ref_us", "us", Lower),
    layer("harness.slowdown_p50", "ratio", Lower),
    layer("harness.slowdown_max", "ratio", Lower),
    layer("harness.raw_query_p50_us", "us", Lower),
    layer("harness.raw_query_p99_us", "us", Lower),
    layer("harness.rounds", "count", Higher),
    layer("trace.query_p50_us", "us", Lower),
    layer("trace.overhead_share", "share", Lower),
    layer("trace.spans", "count", Higher),
];

pub fn workload(name: &str) -> Option<&'static WorkloadDef> {
    WORKLOADS.iter().find(|w| w.name == name)
}

pub fn end_to_end(name: &str) -> Option<&'static MetricDef> {
    END_TO_END.iter().find(|m| m.name == name)
}

fn metric_json(m: &MetricDef) -> String {
    let mut s = format!(
        "{{\"name\": {}, \"unit\": {}, \"better\": {}",
        quote(m.name),
        quote(m.unit),
        quote(m.better.as_str())
    );
    if let Some(bound) = m.bound {
        s.push_str(&format!(", \"bound\": {bound}"));
    }
    s.push('}');
    s
}

/// The text of `BENCHMARK.json`.
pub fn benchmark_json() -> String {
    let list = |items: Vec<String>| format!("[\n    {}\n  ]", items.join(",\n    "));
    let strings = |items: &[&str]| {
        format!(
            "[{}]",
            items
                .iter()
                .map(|s| quote(s))
                .collect::<Vec<_>>()
                .join(", ")
        )
    };
    format!(
        "{{\n  \"command\": {},\n  \"paths\": {},\n  \"run_seconds\": {},\n  \"workloads\": {},\n  \"end_to_end\": {},\n  \"per_layer\": {}\n}}\n",
        strings(COMMAND),
        strings(PATHS),
        RUN_SECONDS,
        list(
            WORKLOADS
                .iter()
                .map(|w| format!("{{\"name\": {}, \"why\": {}}}", quote(w.name), quote(w.why)))
                .collect()
        ),
        list(END_TO_END.iter().map(metric_json).collect()),
        list(PER_LAYER.iter().map(metric_json).collect()),
    )
}
