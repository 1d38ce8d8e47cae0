//! The arithmetic behind every reported number: percentiles inside a
//! round, the undisturbed quartile across rounds, and the run's host
//! slowdown.
//!
//! The harness owns this arithmetic (it does not call the program's
//! `obs::percentile`), so a change to the program can never change how
//! its own speed is summarised.

/// Which direction of a metric is better.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// Percentile `p` in `[0, 1]` of an ascending slice, by linear
/// interpolation between order statistics. Empty input yields 0.
pub fn percentile_sorted(sorted: &[f64], p: f64) -> f64 {
    match sorted.len() {
        0 => 0.0,
        1 => sorted[0],
        n => {
            let pos = p.clamp(0.0, 1.0) * (n - 1) as f64;
            let lo = pos.floor() as usize;
            let hi = (lo + 1).min(n - 1);
            sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
        }
    }
}

/// Percentile `p` of latencies in nanoseconds (sorted in place), in
/// microseconds.
pub fn percentile_us(latencies_ns: &mut [u64], p: f64) -> f64 {
    latencies_ns.sort_unstable();
    let as_us: Vec<f64> = latencies_ns.iter().map(|&n| n as f64 / 1e3).collect();
    percentile_sorted(&as_us, p)
}

/// Sort a copy ascending (total order, so a stray NaN cannot panic).
pub fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_unstable_by(f64::total_cmp);
    v
}

/// Median of `values`.
pub fn median(values: &[f64]) -> f64 {
    percentile_sorted(&sorted(values), 0.5)
}

/// The three quartile cut points as Python's
/// `statistics.quantiles(values, n=4)` (exclusive method) gives them —
/// the rule the benchmark contract's spread is defined with. Fewer than
/// two values collapse to the single value (or 0).
pub fn quartiles(values: &[f64]) -> [f64; 3] {
    let data = sorted(values);
    let ld = data.len();
    if ld < 2 {
        let v = data.first().copied().unwrap_or(0.0);
        return [v; 3];
    }
    let n = 4usize;
    let m = ld + 1;
    let mut out = [0.0; 3];
    for (slot, i) in out.iter_mut().zip(1..n) {
        let j = (i * m / n).clamp(1, ld - 1);
        let delta = (i * m) as f64 - (j * n) as f64;
        *slot = (data[j - 1] * (n as f64 - delta) + data[j] * delta) / n as f64;
    }
    out
}

/// The quartile on the better side across rounds: the lower quartile of
/// a time, the upper quartile of a rate. A neighbour on the host only
/// ever adds time, so this estimates the program's own speed while still
/// resting on a quarter of the rounds rather than on one lucky one.
pub fn better_quartile(values: &[f64], better: Better) -> f64 {
    let q = quartiles(values);
    match better {
        Better::Lower => q[0],
        Better::Higher => q[2],
    }
}

/// Distance between the first and third quartile as a share of the
/// median — the spread the contract bounds.
pub fn quartile_spread(values: &[f64]) -> f64 {
    let q = quartiles(values);
    if q[1] == 0.0 {
        0.0
    } else {
        (q[2] - q[0]) / q[1].abs()
    }
}

/// What one round yields: its own percentiles and rate, raw, plus the
/// host slowdown measured around it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RoundStats {
    pub p50_us: f64,
    pub p90_us: f64,
    pub p99_us: f64,
    pub ops_per_s: f64,
    /// Mean of the reference-kernel samples before and after the round
    /// over the frozen nominal value; 1.0 on a quiet host.
    pub slowdown: f64,
}

impl RoundStats {
    /// Summarise one round from its per-operation latencies (nanoseconds,
    /// any order), the operations completed and the round's wall time.
    pub fn from_latencies(
        latencies_ns: &mut [u64],
        ops: usize,
        wall_s: f64,
        slowdown: f64,
    ) -> Self {
        Self {
            p50_us: percentile_us(latencies_ns, 0.50),
            p90_us: percentile_us(latencies_ns, 0.90),
            p99_us: percentile_us(latencies_ns, 0.99),
            ops_per_s: if wall_s > 0.0 {
                ops as f64 / wall_s
            } else {
                0.0
            },
            slowdown,
        }
    }
}

/// The run's slowdown: the median of the slowdowns measured around every
/// round and every set-up repetition. A single pair of reference samples
/// carries a few per cent of noise of its own; the median over a run's
/// pairs does not. It marks disturbed runs and scales nothing.
pub fn run_slowdown(rounds: &[RoundStats], setup_reps: &[(f64, f64)]) -> f64 {
    let all: Vec<f64> = rounds
        .iter()
        .map(|r| r.slowdown)
        .chain(setup_reps.iter().map(|&(_, s)| s))
        .collect();
    if all.is_empty() {
        1.0
    } else {
        median(&all)
    }
}

/// Set-up repetitions `(seconds, slowdown)` read by rule 4: the lower
/// quartile of the seconds.
pub fn setup_reading(reps: &[(f64, f64)]) -> f64 {
    let seconds: Vec<f64> = reps.iter().map(|&(secs, _)| secs).collect();
    better_quartile(&seconds, Better::Lower)
}
