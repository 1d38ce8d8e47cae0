//! The gates inside the one command: pinned inputs, correctness, and one
//! process per workload.

use std::process::Command;

use permsearch_benchmark::harness::{summarise, Config, Harness};
use permsearch_benchmark::inputs::DEFAULT_SEED;
use permsearch_benchmark::json::{self, Value};
use permsearch_benchmark::pins::Pins;
use permsearch_benchmark::report::Record;
use permsearch_benchmark::stats::RoundStats;

const BIN: &str = env!("CARGO_BIN_EXE_permsearch-benchmark");

fn harness(seed: u64, smoke: bool) -> Harness {
    Harness::new(Config {
        workload: "sift_napp_inproc".to_string(),
        seed,
        seconds: 16,
        trace: false,
        smoke,
    })
}

#[test]
fn an_input_that_differs_from_its_pin_is_a_violation() {
    let mut pins = Pins::new();
    let mut h = harness(DEFAULT_SEED, false);
    pins.check(&mut h, "sift_napp_inproc", "population", 0xDEAD_BEEF, false);
    assert_eq!(h.violations.len(), 1, "{:?}", h.violations);
    assert!(h.violations[0].contains("00000000deadbeef"));

    // Seed-dependent inputs are pinned at the default seed only.
    let mut h = harness(DEFAULT_SEED + 1, false);
    pins.check(&mut h, "sift_napp_inproc", "queries", 0xDEAD_BEEF, true);
    assert!(h.violations.is_empty());
    pins.check(&mut h, "sift_napp_inproc", "population", 0xDEAD_BEEF, false);
    assert_eq!(h.violations.len(), 1);

    // Smoke worlds are not pinned.
    let mut h = harness(DEFAULT_SEED, true);
    pins.check(&mut h, "sift_napp_inproc", "population", 0xDEAD_BEEF, false);
    assert!(h.violations.is_empty());
}

#[test]
fn a_violation_makes_the_result_incorrect() {
    let mut h = harness(DEFAULT_SEED, true);
    h.tally(false);
    let round = RoundStats {
        p50_us: 1.0,
        p90_us: 2.0,
        p99_us: 3.0,
        ops_per_s: 4.0,
        slowdown: 1.0,
    };
    let outcome = || summarise(&[round; 3], &[(0.1, 1.0); 2], 0.95);
    let clean = Record::new(&h, outcome(), Vec::new(), &Pins::new());
    assert!(clean.correct);
    assert!(clean
        .result_line()
        .starts_with("{\"correct\": true, \"attempted\": 1, \"failed\": 0"));

    h.violation("a reply differs from the in-process engine's answer".to_string());
    let bad = Record::new(&h, outcome(), Vec::new(), &Pins::new());
    assert!(!bad.correct);
    assert!(bad.result_line().starts_with("{\"correct\": false"));
    let full = json::parse(&bad.full_json()).expect("the full record is JSON");
    assert!(full
        .get("provenance")
        .and_then(|p| p.get("nproc"))
        .is_some());
    assert_eq!(full.get("disturbed").and_then(Value::as_bool), Some(false));
}

fn peak_rss(stdout: &str, metric: &str) -> f64 {
    let last = stdout.lines().last().expect("a result line");
    json::parse(last)
        .expect("JSON")
        .get("metrics")
        .and_then(|m| m.get(metric))
        .and_then(|m| m.get("value"))
        .and_then(Value::as_f64)
        .unwrap_or_else(|| panic!("no {metric} in {last}"))
}

#[test]
fn under_all_each_workload_reports_its_own_peak_rss() {
    let run = |args: &[&str]| {
        let output = Command::new(BIN)
            .args(args)
            .output()
            .expect("run the benchmark");
        assert!(output.status.success(), "{args:?} failed");
        String::from_utf8_lossy(&output.stdout).to_string()
    };
    let all = run(&["run", "--workload", "all", "--smoke"]);
    let alone = run(&["run", "--workload", "dna_napp_inproc", "--smoke"]);
    let under_all = peak_rss(&all, "dna_napp_inproc:peak_rss_mb");
    let by_itself = peak_rss(&alone, "peak_rss_mb");
    // One process per workload: dna's peak is its own, not sift's (which
    // runs before it and is twice as large). Equal within 2 %; at smoke
    // scale the whole process is under 6 MB, so the tolerance is floored
    // at a quarter of a megabyte (2 % of the full-scale peak).
    assert!(
        (under_all - by_itself).abs() <= (0.02 * by_itself).max(0.25),
        "dna_napp_inproc peaks at {under_all} MB under `all`, {by_itself} MB alone"
    );
    assert!(peak_rss(&all, "sift_napp_inproc:peak_rss_mb") > 1.2 * under_all);
}

#[test]
fn an_unknown_workload_is_refused() {
    let output = Command::new(BIN)
        .args(["run", "--workload", "nope"])
        .output()
        .expect("run the benchmark");
    assert_eq!(output.status.code(), Some(2));
    assert!(output.stdout.is_empty(), "no result line on a usage error");
}
