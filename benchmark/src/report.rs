//! What a run leaves behind: the human-readable metric lines, the result
//! line the benchmark contract asks for, and the full run record with its
//! provenance block.

use std::fmt::Write as _;
use std::io::Write as _;
use std::path::Path;
use std::process::Command;

use crate::defs::{MetricDef, END_TO_END, PER_LAYER, RUN_SECONDS};
use crate::harness::{out_dir, Config, Detail, Harness, Outcome};
use crate::json::{number, quote};
use crate::pins::Pins;
use crate::refkernel::REF_NOMINAL_US;
use crate::spans::self_time_by_name;

/// A median slowdown above this marks the run as disturbed.
pub const DISTURBED_ABOVE: f64 = 1.25;

/// Everything one run produced.
pub struct Record {
    pub cfg: Config,
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub violations: Vec<String>,
    /// The metrics of the result line, in definition order.
    pub metrics: Vec<(&'static MetricDef, f64)>,
    pub detail: Detail,
    pub fillers: Vec<&'static str>,
    /// Traced run: total self time (µs) and calls per span name.
    pub self_times: Vec<(&'static str, f64, u64)>,
    pub fingerprints: String,
}

impl Record {
    pub fn new(h: &Harness, outcome: Outcome, fillers: Vec<&'static str>, pins: &Pins) -> Self {
        let mut violations = h.violations.clone();
        let metrics: Vec<(&'static MetricDef, f64)> = if h.cfg.trace {
            PER_LAYER
                .iter()
                .filter_map(|def| match h.layer.get(def.name) {
                    Some(&v) => Some((def, v)),
                    None => {
                        violations.push(format!("per-layer metric {} was not measured", def.name));
                        None
                    }
                })
                .collect()
        } else {
            END_TO_END
                .iter()
                .map(|def| {
                    let v = outcome
                        .end_to_end
                        .get(def.name)
                        .expect("every end-to-end metric");
                    (def, v)
                })
                .collect()
        };
        if h.attempted == 0 {
            violations.push("no operation was attempted".to_string());
        }
        Self {
            cfg: h.cfg.clone(),
            correct: violations.is_empty(),
            attempted: h.attempted,
            failed: h.failed,
            violations,
            metrics,
            detail: outcome.detail,
            fillers,
            self_times: self_time_by_name(h.rec.spans())
                .into_iter()
                .map(|(name, (ns, calls))| (name, ns as f64 / 1e3, calls))
                .collect(),
            fingerprints: pins.observed_json(),
        }
    }

    pub fn disturbed(&self) -> bool {
        self.detail.slowdown_p50 > DISTURBED_ABOVE
    }

    /// `name value unit` for every metric, one per line.
    pub fn metric_lines(&self) -> String {
        let mut out = String::new();
        for (def, value) in &self.metrics {
            let filler = if self.fillers.contains(&def.name) {
                "  (filler: another workload at smoke scale)"
            } else {
                ""
            };
            let _ = writeln!(
                out,
                "{:<44} {:>16} {}{filler}",
                def.name,
                number(*value),
                def.unit
            );
        }
        out
    }

    fn metrics_json(&self) -> String {
        let members: Vec<String> = self
            .metrics
            .iter()
            .map(|(def, value)| {
                format!(
                    "{}: {{\"value\": {}, \"unit\": {}}}",
                    quote(def.name),
                    number(*value),
                    quote(def.unit)
                )
            })
            .collect();
        format!("{{{}}}", members.join(", "))
    }

    /// The contract's result line: exactly `correct`, `attempted`,
    /// `failed` and `metrics`.
    pub fn result_line(&self) -> String {
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
            self.correct,
            self.attempted.max(1),
            self.failed,
            self.metrics_json()
        )
    }

    /// The full record: the result line's fields plus every round
    /// (`[p50_us, p90_us, p99_us, ops_per_s, slowdown]`) and set-up
    /// repetition (`[seconds, slowdown]`) raw, the violations, the
    /// fillers, the input fingerprints and the provenance block.
    pub fn full_json(&self) -> String {
        fn strings<S: AsRef<str>>(items: &[S]) -> String {
            let quoted: Vec<String> = items.iter().map(|s| quote(s.as_ref())).collect();
            format!("[{}]", quoted.join(", "))
        }
        let d = &self.detail;
        format!(
            "{{\"workload\": {}, \"seed\": {}, \"seconds\": {}, \"trace\": {}, \"smoke\": {}, \
             \"correct\": {}, \"attempted\": {}, \"failed\": {}, \"disturbed\": {}, \
             \"metrics\": {}, \
             \"round_stats\": [{}], \"setup_stats\": [{}], \
             \"violations\": {}, \"fillers\": {}, \"self_time_us\": {{{}}}, \
             \"fingerprints\": {}, \"provenance\": {}}}",
            quote(&self.cfg.workload),
            self.cfg.seed,
            self.cfg.seconds,
            self.cfg.trace,
            self.cfg.smoke,
            self.correct,
            self.attempted,
            self.failed,
            self.disturbed(),
            self.metrics_json(),
            d.round_stats
                .iter()
                .map(|r| format!(
                    "[{}, {}, {}, {}, {}]",
                    number(r.p50_us),
                    number(r.p90_us),
                    number(r.p99_us),
                    number(r.ops_per_s),
                    number(r.slowdown)
                ))
                .collect::<Vec<_>>()
                .join(", "),
            d.setup_stats
                .iter()
                .map(|&(secs, slowdown)| format!("[{}, {}]", number(secs), number(slowdown)))
                .collect::<Vec<_>>()
                .join(", "),
            strings(&self.violations),
            strings(&self.fillers),
            self.self_times
                .iter()
                .map(|(name, us, calls)| format!("{}: [{}, {calls}]", quote(name), number(*us)))
                .collect::<Vec<_>>()
                .join(", "),
            self.fingerprints,
            provenance_json(&self.cfg, d),
        )
    }

    /// Write the full record to `benchmark/out/<workload>[.trace].json`
    /// and append it to `extra` when given (one record per line — the
    /// input of `compare`).
    pub fn save(&self, extra: Option<&Path>) -> std::io::Result<()> {
        let dir = out_dir();
        std::fs::create_dir_all(&dir)?;
        let suffix = if self.cfg.trace { ".trace" } else { "" };
        let json = self.full_json();
        std::fs::write(
            dir.join(format!("{}{suffix}.json", self.cfg.workload)),
            format!("{json}\n"),
        )?;
        if let Some(path) = extra {
            if let Some(parent) = path.parent().filter(|p| !p.as_os_str().is_empty()) {
                std::fs::create_dir_all(parent)?;
            }
            let mut file = std::fs::OpenOptions::new()
                .create(true)
                .append(true)
                .open(path)?;
            writeln!(file, "{json}")?;
        }
        Ok(())
    }
}

fn command_line(program: &str, args: &[&str]) -> Option<String> {
    let output = Command::new(program).args(args).output().ok()?;
    output
        .status
        .success()
        .then(|| String::from_utf8_lossy(&output.stdout).trim().to_string())
}

/// Who measured, what and where: commit, cores, CPU model, compiler,
/// seed, the frozen configuration, the load average, and the median
/// slowdown of the host during the run.
fn provenance_json(cfg: &Config, detail: &Detail) -> String {
    let unknown = || "unknown".to_string();
    let repo = Path::new(env!("CARGO_MANIFEST_DIR")).join("..");
    let commit = command_line("git", &["-C", &repo.to_string_lossy(), "rev-parse", "HEAD"])
        .unwrap_or_else(unknown);
    let rustc = command_line("rustc", &["--version"]).unwrap_or_else(unknown);
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|text| {
            text.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().to_string())
        })
        .unwrap_or_else(unknown);
    let loadavg = std::fs::read_to_string("/proc/loadavg")
        .map(|t| t.trim().to_string())
        .unwrap_or_else(|_| unknown());
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    format!(
        "{{\"commit\": {}, \"nproc\": {}, \"cpu\": {}, \"rustc\": {}, \"seed\": {}, \
         \"loadavg\": {}, \"harness.slowdown_p50\": {}, \
         \"config\": {{\"run_seconds\": {}, \"ref_nominal_us\": {}, \"k\": {}, \
         \"population_seed\": {}, \"build_seed\": {}, \"churn_mix\": [{}, {}, {}], \
         \"churn_compact_every\": {}, \"journal_sync_every\": {}, \"shards\": {}}}}}",
        quote(&commit),
        nproc,
        quote(&cpu),
        quote(&rustc),
        cfg.seed,
        quote(&loadavg),
        number(detail.slowdown_p50),
        RUN_SECONDS,
        number(REF_NOMINAL_US),
        crate::inputs::K,
        crate::inputs::POPULATION_SEED,
        crate::inputs::BUILD_SEED,
        crate::churn::INSERTS,
        crate::churn::REMOVES,
        crate::churn::QUERIES,
        crate::churn::COMPACT_EVERY,
        crate::churn::SYNC_EVERY,
        crate::churn::SHARDS,
    )
}
