//! What every workload shares: the run configuration, the reference
//! kernel and span recorder, the failure tally, and the shape of a
//! result.

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::time::Instant;

use permsearch_core::Neighbor;

use crate::defs::RUN_SECONDS;
use crate::inputs::Fnv;
use crate::refkernel::RefKernel;
use crate::spans::{Recorder, SpanId};
use crate::stats::{self, Better, RoundStats};

/// One invocation of one workload.
#[derive(Debug, Clone)]
pub struct Config {
    pub workload: String,
    pub seed: u64,
    /// Seconds the rounds are sized for (`--seconds`).
    pub seconds: u64,
    pub trace: bool,
    /// Shrunken worlds and three rounds: prints every name in seconds,
    /// measures nothing worth keeping.
    pub smoke: bool,
}

impl Config {
    /// Rounds of this run: `per_run` at the benchmark's own `--seconds`
    /// ([`RUN_SECONDS`]) or less, in proportion above it.
    pub fn rounds(&self, per_run: usize) -> usize {
        if self.smoke {
            3
        } else {
            (per_run * self.seconds as usize / RUN_SECONDS as usize).max(per_run)
        }
    }

    /// `(untraced, traced)` rounds of this run: all of them untraced in a
    /// measured run; a fifth of them each way (at least one) in a traced
    /// run, whose end-to-end figures are not reported.
    pub fn round_split(&self, per_run: usize) -> (usize, usize) {
        let rounds = self.rounds(per_run);
        if self.trace {
            let side = (rounds / 5).max(1);
            (side, side)
        } else {
            (rounds, 0)
        }
    }

    /// `full` at full scale, `smoke` under `--smoke`.
    pub fn scale(&self, full: usize, smoke: usize) -> usize {
        if self.smoke {
            smoke
        } else {
            full
        }
    }
}

/// Recall@10 below this is a correctness violation, on every workload.
pub const RECALL_FLOOR: f64 = 0.90;

/// Directory for everything a run writes: `benchmark/out/`.
pub fn out_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out")
}

/// Scratch directory of this process for `tag`, under `benchmark/out/`.
pub fn scratch_dir(tag: &str) -> PathBuf {
    out_dir().join(format!("scratch-{tag}-{}", std::process::id()))
}

/// The six end-to-end numbers of a run.
#[derive(Debug, Clone, Copy)]
pub struct EndToEnd {
    pub setup_s: f64,
    pub query_p50_us: f64,
    pub query_p90_us: f64,
    pub ops_per_s: f64,
    pub recall_at_10: f64,
    pub peak_rss_mb: f64,
}

impl EndToEnd {
    pub fn get(&self, name: &str) -> Option<f64> {
        Some(match name {
            "setup_s" => self.setup_s,
            "query_p50_us" => self.query_p50_us,
            "query_p90_us" => self.query_p90_us,
            "ops_per_s" => self.ops_per_s,
            "recall_at_10" => self.recall_at_10,
            "peak_rss_mb" => self.peak_rss_mb,
            _ => return None,
        })
    }
}

/// Every round and set-up repetition of a run, raw, with the host
/// slowdown around each: what the run record keeps so that a run can be
/// read again another way.
#[derive(Debug, Clone)]
pub struct Detail {
    pub round_stats: Vec<RoundStats>,
    /// Every set-up repetition as `(seconds, slowdown)`.
    pub setup_stats: Vec<(f64, f64)>,
    pub slowdown_p50: f64,
}

/// What a workload hands back.
pub struct Outcome {
    pub end_to_end: EndToEnd,
    pub detail: Detail,
}

pub struct Harness {
    pub cfg: Config,
    pub refk: RefKernel,
    pub rec: Recorder,
    /// Per-layer metric values gathered so far (traced run).
    pub layer: BTreeMap<&'static str, f64>,
    /// Every reference sample of the run, in microseconds.
    pub ref_samples_us: Vec<f64>,
    pub attempted: u64,
    pub failed: u64,
    /// Correctness violations; any entry makes the run incorrect.
    pub violations: Vec<String>,
    next_request: u64,
}

impl Harness {
    pub fn new(cfg: Config) -> Self {
        let trace = cfg.trace;
        Self {
            cfg,
            refk: RefKernel::new(),
            rec: Recorder::new(trace),
            layer: BTreeMap::new(),
            ref_samples_us: Vec::new(),
            attempted: 0,
            failed: 0,
            violations: Vec::new(),
            next_request: 0,
        }
    }

    /// Take one reference sample and remember it.
    pub fn ref_sample(&mut self) -> f64 {
        let us = self.refk.sample_us();
        self.ref_samples_us.push(us);
        us
    }

    /// Run `work` between two reference samples; returns its result, its
    /// wall time in seconds and the slowdown around it.
    pub fn bracketed<T>(&mut self, work: impl FnOnce(&mut Self) -> T) -> (T, f64, f64) {
        let before = self.ref_sample();
        let t0 = Instant::now();
        let out = work(self);
        let wall = t0.elapsed().as_secs_f64();
        let after = self.ref_sample();
        (out, wall, RefKernel::slowdown(before, after))
    }

    /// Run `work` under a phase-level span; returns its result and wall
    /// seconds.
    pub fn phase<T>(&mut self, name: &'static str, work: impl FnOnce() -> T) -> (T, f64) {
        let span = self.rec.open(name, SpanId::NONE, 0);
        let t0 = Instant::now();
        let out = work();
        let secs = t0.elapsed().as_secs_f64();
        self.rec.close(span, 0);
        (out, secs)
    }

    /// Close a span and, in a traced run, report its duration in seconds
    /// as the per-layer metric `name`.
    pub fn close_as(&mut self, span: SpanId, count: u64, name: &'static str) {
        let ns = self.rec.close(span, count);
        if self.rec.enabled() {
            self.set(name, ns as f64 / 1e9);
        }
    }

    /// A fresh request id (one id space per run).
    pub fn request_id(&mut self) -> u64 {
        self.next_request += 1;
        self.next_request
    }

    pub fn set(&mut self, name: &'static str, value: f64) {
        self.layer.insert(name, value);
    }

    pub fn violation(&mut self, message: String) {
        if self.violations.len() < 16 {
            self.violations.push(message);
        } else if self.violations.len() == 16 {
            self.violations
                .push("further violations suppressed".to_string());
        }
    }

    /// Count one attempted operation and whether it failed.
    pub fn tally(&mut self, failed: bool) {
        self.attempted += 1;
        self.failed += u64::from(failed);
    }

    /// Structural check of one answer: ascending by distance and no id
    /// twice, or it is a violation. (A short answer is a failed
    /// operation, not a wrong one.)
    pub fn check_order(&mut self, workload: &str, answer: &[Neighbor]) {
        let ordered = answer.windows(2).all(|w| w[0].dist <= w[1].dist)
            && (1..answer.len()).all(|i| answer[..i].iter().all(|n| n.id != answer[i].id));
        if !ordered {
            self.violation(format!(
                "{workload}: unordered or repeated ids in an answer"
            ));
        }
    }

    /// The recall floor every workload must reach.
    pub fn check_recall(&mut self, workload: &str, recall: f64) {
        if recall < RECALL_FLOOR {
            self.violation(format!(
                "{workload}: recall {recall:.4} below the floor {RECALL_FLOOR}"
            ));
        }
    }
}

/// Bitwise fingerprint of one answer (ids and distance bits, in order).
pub fn answer_hash(answer: &[Neighbor]) -> u64 {
    let mut h = Fnv::new();
    for n in answer {
        h.u32(n.id).u32(n.dist.to_bits());
    }
    h.finish()
}

/// `VmHWM` of this process in MB (0 where `/proc` is missing).
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|rest| rest.trim().strip_suffix("kB"))
                .and_then(|kb| kb.trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Rule 4: repeat the set-up until it has run at least four times and
/// for at least five seconds in total (twice, with no floor, under
/// `--smoke`; once in a traced run, whose set-up time is not reported).
/// `prepare` makes a repetition's input and is not timed; `setup` is, and
/// is bracketed by reference samples. Each repetition's state is torn
/// down before the next starts, so peak memory is that of one set-up; the
/// last state is returned for the rounds with the `(seconds, slowdown)`
/// of every repetition.
pub fn sample_setup<I, T>(
    h: &mut Harness,
    mut prepare: impl FnMut() -> I,
    mut setup: impl FnMut(&mut Harness, I) -> T,
    mut teardown: impl FnMut(T),
) -> (T, Vec<(f64, f64)>) {
    let (min_reps, min_total) = match (h.cfg.trace, h.cfg.smoke) {
        (true, _) => (1, 0.0),
        (false, true) => (2, 0.0),
        (false, false) => (4, 5.0),
    };
    let mut reps: Vec<(f64, f64)> = Vec::new();
    let mut total = 0.0;
    loop {
        let input = prepare();
        let (state, secs, slowdown) = h.bracketed(|h| setup(h, input));
        reps.push((secs, slowdown));
        total += secs;
        if reps.len() >= min_reps && total >= min_total {
            return (state, reps);
        }
        teardown(state);
    }
}

/// Fold the rounds and set-up repetitions of a run into its result: the
/// better-side quartile across rounds (rule 1) and the lower quartile of
/// the set-up repetitions (rule 4), in raw wall time.
pub fn summarise(rounds: &[RoundStats], setup_reps: &[(f64, f64)], recall_at_10: f64) -> Outcome {
    let across = |pick: fn(&RoundStats) -> f64, better: Better| {
        let values: Vec<f64> = rounds.iter().map(pick).collect();
        stats::better_quartile(&values, better)
    };
    Outcome {
        end_to_end: EndToEnd {
            setup_s: stats::setup_reading(setup_reps),
            query_p50_us: across(|r| r.p50_us, Better::Lower),
            query_p90_us: across(|r| r.p90_us, Better::Lower),
            ops_per_s: across(|r| r.ops_per_s, Better::Higher),
            recall_at_10,
            peak_rss_mb: peak_rss_mb(),
        },
        detail: Detail {
            round_stats: rounds.to_vec(),
            setup_stats: setup_reps.to_vec(),
            slowdown_p50: stats::run_slowdown(rounds, setup_reps),
        },
    }
}
