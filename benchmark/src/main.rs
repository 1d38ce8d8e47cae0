//! The one command of the repository benchmark.
//!
//! ```text
//! permsearch-benchmark run [--workload NAME|all] [--seed N] [--seconds S]
//!                          [--trace [0|1]] [--smoke] [--out FILE]
//! permsearch-benchmark compare A B
//! permsearch-benchmark definition
//! ```
//!
//! `run` generates the inputs, runs the workload, checks the answers and
//! prints every metric by name with its unit; its last line of standard
//! output is the result object the benchmark contract defines. It exits
//! non-zero when an answer is wrong or an input is not the pinned one.

use std::path::PathBuf;
use std::process::{exit, Command, Stdio};

use permsearch_benchmark::defs::{self, RUN_SECONDS, WORKLOADS};
use permsearch_benchmark::harness::{out_dir, Config, Harness};
use permsearch_benchmark::inputs::DEFAULT_SEED;
use permsearch_benchmark::json::{self, Value};
use permsearch_benchmark::pins::Pins;
use permsearch_benchmark::report::Record;
use permsearch_benchmark::{compare, workload};

const USAGE: &str = "usage:
  permsearch-benchmark run [--workload NAME|all] [--seed N] [--seconds S] [--trace [0|1]] [--smoke] [--out FILE]
  permsearch-benchmark compare A B
  permsearch-benchmark definition";

fn die(message: &str) -> ! {
    eprintln!("permsearch-benchmark: {message}\n{USAGE}");
    exit(2)
}

struct RunArgs {
    cfg: Config,
    out: Option<PathBuf>,
}

fn parse_run(args: &[String]) -> RunArgs {
    let mut parsed = RunArgs {
        cfg: Config {
            workload: "all".to_string(),
            seed: DEFAULT_SEED,
            seconds: RUN_SECONDS,
            trace: false,
            smoke: false,
        },
        out: None,
    };
    let mut it = args.iter().peekable();
    while let Some(flag) = it.next() {
        let mut value = |flag: &str| -> String {
            it.next()
                .unwrap_or_else(|| die(&format!("flag {flag} needs a value")))
                .clone()
        };
        match flag.as_str() {
            "--workload" => parsed.cfg.workload = value(flag),
            "--seed" => {
                parsed.cfg.seed = value(flag)
                    .parse()
                    .unwrap_or_else(|_| die("--seed takes a whole number"));
            }
            "--seconds" => {
                parsed.cfg.seconds = value(flag)
                    .parse()
                    .unwrap_or_else(|_| die("--seconds takes a whole number"));
            }
            "--out" => parsed.out = Some(PathBuf::from(value(flag))),
            "--smoke" => parsed.cfg.smoke = true,
            // `--trace` alone switches tracing on; `--trace 0|1` is the
            // contract's spelling.
            "--trace" => {
                parsed.cfg.trace = match it.peek().map(|s| s.as_str()) {
                    Some("0") => {
                        it.next();
                        false
                    }
                    Some("1") => {
                        it.next();
                        true
                    }
                    _ => true,
                };
            }
            other => die(&format!("unknown flag {other}")),
        }
    }
    if parsed.cfg.workload != "all" && defs::workload(&parsed.cfg.workload).is_none() {
        let names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
        die(&format!(
            "unknown workload {}; workloads: {}, all",
            parsed.cfg.workload,
            names.join(", ")
        ));
    }
    parsed
}

/// Run one workload in this process. Returns whether it was correct.
fn run_workload(args: &RunArgs) -> bool {
    let mut h = Harness::new(args.cfg.clone());
    let mut pins = Pins::new();
    let (outcome, fillers) = workload::run(&mut h, &mut pins);
    let record = Record::new(&h, outcome, fillers, &pins);

    println!(
        "# {} seed={} seconds={} trace={} smoke={}{}",
        args.cfg.workload,
        args.cfg.seed,
        args.cfg.seconds,
        args.cfg.trace,
        args.cfg.smoke,
        if record.disturbed() {
            "  DISTURBED: the host ran more than 1.25x slower than the reference"
        } else {
            ""
        }
    );
    print!("{}", record.metric_lines());
    for v in &record.violations {
        println!("VIOLATION {v}");
    }
    if args.cfg.trace {
        let path = out_dir().join(format!("{}.trace.jsonl", args.cfg.workload));
        if let Err(e) = std::fs::create_dir_all(out_dir())
            .and_then(|()| std::fs::write(&path, h.rec.to_jsonl()))
        {
            eprintln!("cannot write {}: {e}", path.display());
        }
    }
    if let Err(e) = record.save(args.out.as_deref()) {
        eprintln!("cannot write the run record: {e}");
    }
    println!("{}", record.result_line());
    record.correct
}

/// `--workload all`: one child process per workload, so each workload's
/// `peak_rss_mb` is its own process's `VmHWM`. The last line combines the
/// children's results under `workload:metric` names.
fn run_all(raw: &[String]) -> bool {
    let exe = std::env::current_exe().unwrap_or_else(|e| die(&format!("current_exe: {e}")));
    let mut forwarded: Vec<String> = Vec::new();
    let mut it = raw.iter();
    while let Some(a) = it.next() {
        if a == "--workload" {
            it.next();
        } else {
            forwarded.push(a.clone());
        }
    }
    let (mut correct, mut attempted, mut failed) = (true, 0u64, 0u64);
    let mut metrics: Vec<String> = Vec::new();
    for w in WORKLOADS {
        let output = Command::new(&exe)
            .arg("run")
            .args(["--workload", w.name])
            .args(&forwarded)
            .stdin(Stdio::null())
            .stderr(Stdio::inherit())
            .output()
            .unwrap_or_else(|e| die(&format!("cannot start the {} child: {e}", w.name)));
        let stdout = String::from_utf8_lossy(&output.stdout);
        print!("{stdout}");
        correct &= output.status.success();
        let Some(result) = stdout.lines().last().and_then(|l| json::parse(l).ok()) else {
            correct = false;
            continue;
        };
        correct &= result.get("correct").and_then(Value::as_bool) == Some(true);
        attempted += result
            .get("attempted")
            .and_then(Value::as_f64)
            .unwrap_or(0.0) as u64;
        failed += result.get("failed").and_then(Value::as_f64).unwrap_or(0.0) as u64;
        for (name, metric) in result
            .get("metrics")
            .and_then(Value::as_object)
            .unwrap_or(&[])
        {
            let value = metric.get("value").and_then(Value::as_f64).unwrap_or(0.0);
            let unit = metric.get("unit").and_then(Value::as_str).unwrap_or("");
            metrics.push(format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                json::quote(&format!("{}:{name}", w.name)),
                json::number(value),
                json::quote(unit)
            ));
        }
    }
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        attempted.max(1),
        metrics.join(", ")
    );
    correct
}

/// A malloc whose footprint follows the program's live memory. Part of
/// the frozen configuration, the same for parent and change.
///
/// One arena: glibc otherwise gives every thread its own, and which
/// thread's arena a shard build or a compaction grows depends on timing.
/// A fixed mmap threshold (glibc's initial 128 KiB): left alone, glibc
/// raises it to the size of the first large block freed, after which the
/// 10 MB arrays of a set-up live in the heap, and whether a repetition
/// finds its predecessor's hole or grows the heap is again timing.
/// `peak_rss_mb` of `sift_churn_mixed` then lands on 82, 89 or 99 MB from
/// run to run; with both settings it stays within 2 %, and every
/// set-up repetition faults its pages in like the first set-up of a fresh
/// process does.
#[cfg(all(target_os = "linux", target_env = "gnu"))]
fn steady_malloc() {
    extern "C" {
        fn mallopt(param: i32, value: i32) -> i32;
    }
    const M_MMAP_THRESHOLD: i32 = -3;
    const M_ARENA_MAX: i32 = -8;
    // SAFETY: `mallopt` is glibc's documented tuning call; it takes two
    // plain integers, keeps no pointer, and runs here before any other
    // thread exists.
    unsafe {
        mallopt(M_ARENA_MAX, 1);
        mallopt(M_MMAP_THRESHOLD, 128 * 1024);
    }
}

#[cfg(not(all(target_os = "linux", target_env = "gnu")))]
fn steady_malloc() {}

fn main() {
    steady_malloc();
    let argv: Vec<String> = std::env::args().skip(1).collect();
    match argv.first().map(String::as_str) {
        Some("run") => {
            let args = parse_run(&argv[1..]);
            let correct = if args.cfg.workload == "all" {
                run_all(&argv[1..])
            } else {
                run_workload(&args)
            };
            exit(if correct { 0 } else { 1 });
        }
        Some("compare") => {
            let [a, b] = &argv[1..] else {
                die("compare takes two files of run records");
            };
            match compare::compare(a.as_ref(), b.as_ref()) {
                Ok((table, agree)) => {
                    print!("{table}");
                    exit(if agree { 0 } else { 1 });
                }
                Err(e) => die(&e),
            }
        }
        Some("definition") => print!("{}", defs::benchmark_json()),
        _ => die("expected a subcommand"),
    }
}
