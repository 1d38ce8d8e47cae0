//! The two in-process workloads: a closed loop of one thread calling
//! `search_into` with one reused `SearchScratch`.
//!
//! `sift_napp_inproc` and `dna_napp_inproc` share this loop and differ
//! only in their world, their space and their dataset representation.

use std::sync::Arc;
use std::time::Instant;

use permsearch_core::{
    CountedSpace, Dataset, Neighbor, Point, PointCodec, SearchIndex, SearchScratch, Space, STAGES,
};
use permsearch_engine::standard_registry;
use permsearch_obs::Counter;

use crate::gold::recall_ids;
use crate::harness::{answer_hash, sample_setup, summarise, Harness, Outcome};
use crate::inputs::{fingerprint_indices, pick, select, BUILD_SEED, K};
use crate::pins::Pins;
use crate::spans::SpanId;
use crate::stats::RoundStats;

/// Layer probes on a workload's own world, run in its traced run:
/// `(harness, indexed points, pool, gold)`.
pub type WorldProbes<P> = fn(&mut Harness, &[P], &[P], &[Vec<u32>]);

/// Everything that tells one in-process workload from the other.
pub struct Spec<P> {
    pub name: &'static str,
    pub indexed: Vec<P>,
    pub pool: Vec<P>,
    pub population_fingerprint: u64,
    /// Exact answers of every pool point, by id.
    pub gold: Vec<Vec<u32>>,
    /// Queries in one round, drawn from the pool by `--seed`.
    pub round: usize,
    pub warmup: usize,
    /// Salt that keeps this workload's selection apart from the others'.
    pub salt: u64,
    /// Points to the representation the program indexes (flat arena plus
    /// SQ8 tier for dense data, owned points for sequences).
    pub make_dataset: fn(Vec<P>) -> Dataset<P>,
    pub world_probes: WorldProbes<P>,
}

/// Per-query record of a traced round.
struct TracedQuery {
    total_ns: u64,
    stage_ns: [u64; 4],
    candidates: u64,
    refined: u64,
    quant_engaged: bool,
}

/// Run the workload; under `--trace` the space is wrapped in the
/// program's `CountedSpace` so distances are counted exactly.
pub fn run<P, S>(h: &mut Harness, spec: Spec<P>, space: S, pins: &mut Pins) -> Outcome
where
    P: Point + PointCodec + Clone + Send + Sync + 'static,
    S: Space<P::Ref> + Clone + Send + Sync + 'static,
{
    if h.cfg.trace {
        let counted = CountedSpace::new(space);
        let counter = counted.counter().clone();
        run_with(h, spec, counted, Some(counter), pins)
    } else {
        run_with(h, spec, space, None, pins)
    }
}

fn run_with<P, S>(
    h: &mut Harness,
    spec: Spec<P>,
    space: S,
    dists: Option<Arc<Counter>>,
    pins: &mut Pins,
) -> Outcome
where
    P: Point + PointCodec + Clone + Send + Sync + 'static,
    S: Space<P::Ref> + Clone + Send + Sync + 'static,
{
    let selection = select(spec.pool.len(), spec.round, h.cfg.seed, spec.salt);
    pins.check(
        h,
        spec.name,
        "population",
        spec.population_fingerprint,
        false,
    );
    pins.check(
        h,
        spec.name,
        "queries",
        fingerprint_indices(&selection),
        true,
    );
    let queries = pick(&spec.pool, &selection);

    // Set-up: generated points to an index that can answer.
    let registry = standard_registry::<P, S>(space);
    let make_dataset = spec.make_dataset;
    let indexed = &spec.indexed;
    let (index, setup_reps) = sample_setup(
        h,
        || indexed.clone(),
        |h, points| {
            let span = h.rec.open("setup", SpanId::NONE, 0);
            let s = h.rec.open("core.make_dataset", span, 0);
            let data = Arc::new(make_dataset(points));
            h.rec.close(s, data.len() as u64);
            let s = h.rec.open("permutation.napp_build", span, 0);
            let index = registry
                .build("napp", data, BUILD_SEED)
                .expect("napp is a standard method");
            h.close_as(s, index.len() as u64, "permutation.napp_build_s");
            h.rec.close(span, 0);
            index
        },
        drop,
    );

    // Reference pass over the whole pool, untimed: recall is taken over
    // every held-out point (so it is exact for a commit, whatever the
    // seed), and the timed answers must repeat these bit for bit. It also
    // grows the scratch to its steady state.
    let mut scratch = SearchScratch::new();
    let mut answer: Vec<Neighbor> = Vec::new();
    let mut reference = Vec::with_capacity(spec.pool.len());
    let mut recall_sum = 0.0;
    for (q, truth) in spec.pool.iter().zip(&spec.gold) {
        index.search_into(q, K, &mut scratch, &mut answer);
        h.check_order(spec.name, &answer);
        recall_sum += recall_ids(answer.iter().map(|n| n.id), truth);
        reference.push(answer_hash(&answer));
    }
    let recall_at_10 = recall_sum / spec.pool.len().max(1) as f64;
    h.check_recall(spec.name, recall_at_10);
    for q in queries.iter().cycle().take(spec.warmup) {
        index.search_into(q, K, &mut scratch, &mut answer);
    }

    let (plain_rounds, traced_rounds) = h.cfg.round_split(16);
    let mut stats: Vec<RoundStats> = Vec::new();
    let mut latencies: Vec<u64> = Vec::with_capacity(queries.len());
    for _ in 0..plain_rounds {
        latencies.clear();
        let ((), wall, slowdown) = h.bracketed(|h| {
            for (q, &slot) in queries.iter().zip(&selection) {
                let t0 = Instant::now();
                index.search_into(q, K, &mut scratch, &mut answer);
                latencies.push(t0.elapsed().as_nanos() as u64);
                check(h, spec.name, &answer, reference[slot as usize]);
            }
        });
        stats.push(RoundStats::from_latencies(
            &mut latencies,
            queries.len(),
            wall,
            slowdown,
        ));
    }

    // Traced rounds: the same queries with the program's QueryTrace armed
    // and a span around every call.
    let mut traced_stats: Vec<RoundStats> = Vec::new();
    let mut traced: Vec<TracedQuery> = Vec::new();
    if let Some(counter) = &dists {
        counter.reset();
    }
    for _ in 0..traced_rounds {
        latencies.clear();
        let round_span = h.rec.open("round", SpanId::NONE, 0);
        let ((), wall, slowdown) = h.bracketed(|h| {
            for (q, &slot) in queries.iter().zip(&selection) {
                let request = h.request_id();
                scratch.trace.begin(true);
                let span = h.rec.open("permutation.search_into", round_span, request);
                index.search_into(q, K, &mut scratch, &mut answer);
                let total_ns = h.rec.close(span, scratch.trace.candidates());
                latencies.push(total_ns);
                traced.push(TracedQuery {
                    total_ns,
                    stage_ns: STAGES.map(|s| scratch.trace.stage_nanos(s)),
                    candidates: scratch.trace.candidates(),
                    refined: scratch.trace.stage_dists(permsearch_core::Stage::Refine),
                    quant_engaged: scratch.trace.quant_engaged(),
                });
                check(h, spec.name, &answer, reference[slot as usize]);
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
    scratch.trace.begin(false);

    if h.cfg.trace {
        let traced_queries = traced.len().max(1) as f64;
        if let Some(counter) = &dists {
            h.set(
                "spaces.dists_per_query",
                counter.get() as f64 / traced_queries,
            );
        }
        report_stages(h, &mut traced);
        crate::workload::report_overhead(h, &stats, &traced_stats);
        (spec.world_probes)(h, &spec.indexed, &spec.pool, &spec.gold);
    }

    summarise(&stats, &setup_reps, recall_at_10)
}

/// Tally one timed answer: short answers count as failed operations; an
/// answer that differs from the reference pass is a correctness
/// violation.
fn check(h: &mut Harness, name: &str, answer: &[Neighbor], reference: u64) {
    h.tally(answer.len() != K);
    if answer_hash(answer) != reference {
        h.violation(format!(
            "{name}: a timed answer differs from the reference pass"
        ));
    }
}

/// Stage times of the median query: the mean per-stage time over the
/// queries whose total lies between the 40th and 60th percentile, so the
/// four stages add up to the traced `query_p50_us` rather than to a mean
/// the tail inflates. Counts are means over all traced queries.
fn report_stages(h: &mut Harness, traced: &mut [TracedQuery]) {
    if traced.is_empty() {
        return;
    }
    traced.sort_unstable_by_key(|t| t.total_ns);
    let n = traced.len();
    let band = &traced[n * 2 / 5..(n * 3 / 5).max(n * 2 / 5 + 1)];
    let names = [
        "permutation.stage_filter_us",
        "permutation.stage_quant_filter_us",
        "permutation.stage_refine_us",
        "permutation.stage_merge_us",
    ];
    for (i, name) in names.into_iter().enumerate() {
        let mean_ns = band.iter().map(|t| t.stage_ns[i] as f64).sum::<f64>() / band.len() as f64;
        h.set(name, mean_ns / 1e3);
    }
    let candidates = traced.iter().map(|t| t.candidates as f64).sum::<f64>();
    let refined = traced.iter().map(|t| t.refined as f64).sum::<f64>();
    let engaged = traced.iter().filter(|t| t.quant_engaged).count() as f64;
    h.set("permutation.candidates_per_query", candidates / n as f64);
    h.set("permutation.quant_engaged_share", engaged / n as f64);
    h.set(
        "permutation.refine_yield",
        if refined > 0.0 {
            (K * n) as f64 / refined
        } else {
            0.0
        },
    );
}
