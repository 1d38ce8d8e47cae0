//! `BENCHMARK.json` and the harness must name the same things, and a
//! `--smoke` run must print exactly those names.

use std::collections::BTreeSet;
use std::path::Path;
use std::process::Command;

use permsearch_benchmark::defs::{self, END_TO_END, PER_LAYER, WORKLOADS};
use permsearch_benchmark::json::{self, Value};

const BIN: &str = env!("CARGO_BIN_EXE_permsearch-benchmark");

fn well_formed_name(name: &str) -> bool {
    !name.is_empty()
        && name.len() <= 64
        && name.starts_with(|c: char| c.is_ascii_alphanumeric())
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

fn names(doc: &Value, key: &str) -> Vec<String> {
    doc.get(key)
        .and_then(Value::as_array)
        .unwrap_or_else(|| panic!("BENCHMARK.json has no {key}"))
        .iter()
        .map(|m| {
            m.get("name")
                .and_then(Value::as_str)
                .expect("a name")
                .to_string()
        })
        .collect()
}

#[test]
fn benchmark_json_is_the_definition_written_out() {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let text = std::fs::read_to_string(&path).expect("BENCHMARK.json at the repo root");
    assert_eq!(
        text,
        defs::benchmark_json(),
        "run `definition > BENCHMARK.json`"
    );
    assert!(text.len() <= 64 * 1024);
    let doc = json::parse(&text).expect("valid JSON");
    let keys: Vec<&str> = doc
        .as_object()
        .unwrap()
        .iter()
        .map(|(k, _)| k.as_str())
        .collect();
    assert_eq!(
        keys,
        [
            "command",
            "paths",
            "run_seconds",
            "workloads",
            "end_to_end",
            "per_layer"
        ]
    );

    let mut all = BTreeSet::new();
    for key in ["workloads", "end_to_end", "per_layer"] {
        for name in names(&doc, key) {
            assert!(well_formed_name(&name), "{name:?} is not a contract name");
            assert!(all.insert(name.clone()), "{name} is used twice");
        }
    }
    assert_eq!(names(&doc, "workloads").len(), 4);
    assert_eq!(names(&doc, "end_to_end").len(), 6);
    assert!(PER_LAYER.len() <= 128);
    for w in WORKLOADS {
        assert!(w.why.len() <= 200 && !w.why.contains('\n'), "{}", w.name);
    }
    for m in END_TO_END {
        let bound = m.bound.expect("end-to-end metrics carry a bound");
        assert!(bound > 0.0 && bound <= 0.10, "{} bound {bound}", m.name);
    }
    for m in END_TO_END.iter().chain(PER_LAYER) {
        assert!(m.unit.len() <= 16, "{}", m.name);
    }
    let setup = defs::end_to_end("setup_s").expect("setup_s is required");
    assert_eq!((setup.unit, setup.better.as_str()), ("s", "lower"));
}

/// The names and values of the last line a run prints.
fn result_metrics(args: &[&str]) -> (Value, Vec<String>) {
    let output = Command::new(BIN)
        .args(args)
        .output()
        .expect("run the benchmark");
    let stdout = String::from_utf8_lossy(&output.stdout).to_string();
    assert!(
        output.status.success(),
        "{args:?} failed:\n{stdout}\n{}",
        String::from_utf8_lossy(&output.stderr)
    );
    let last = stdout.lines().last().expect("a result line");
    let result = json::parse(last).expect("the last line is JSON");
    let keys: Vec<&str> = result
        .as_object()
        .unwrap()
        .iter()
        .map(|(k, _)| k.as_str())
        .collect();
    assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
    assert_eq!(result.get("correct").and_then(Value::as_bool), Some(true));
    assert!(result.get("attempted").and_then(Value::as_f64).unwrap() >= 1.0);
    assert_eq!(result.get("failed").and_then(Value::as_f64), Some(0.0));
    let printed = result
        .get("metrics")
        .and_then(Value::as_object)
        .unwrap()
        .iter()
        .map(|(k, _)| k.clone())
        .collect();
    // Every metric is also printed by name with its unit on its own line.
    for (name, metric) in result.get("metrics").and_then(Value::as_object).unwrap() {
        let unit = metric.get("unit").and_then(Value::as_str).unwrap();
        assert!(
            stdout
                .lines()
                .any(|l| l.starts_with(name.as_str()) && l.contains(unit)),
            "{name} has no line of its own"
        );
    }
    (result, printed)
}

#[test]
fn an_untraced_smoke_run_prints_exactly_the_end_to_end_names() {
    let expected: Vec<String> = END_TO_END.iter().map(|m| m.name.to_string()).collect();
    for w in WORKLOADS {
        let (result, printed) =
            result_metrics(&["run", "--workload", w.name, "--smoke", "--trace", "0"]);
        assert_eq!(printed, expected, "{}", w.name);
        for (name, metric) in result.get("metrics").and_then(Value::as_object).unwrap() {
            let value = metric.get("value").and_then(Value::as_f64).unwrap();
            assert!(
                value > 0.0,
                "{} {name} = {value}: end-to-end metrics are never 0",
                w.name
            );
        }
    }
}

#[test]
fn a_traced_smoke_run_prints_exactly_the_per_layer_names() {
    let expected: Vec<String> = PER_LAYER.iter().map(|m| m.name.to_string()).collect();
    let (_, printed) = result_metrics(&[
        "run",
        "--workload",
        "sift_churn_mixed",
        "--smoke",
        "--trace",
        "1",
    ]);
    assert_eq!(printed, expected);
    let trace = Path::new(env!("CARGO_MANIFEST_DIR")).join("out/sift_churn_mixed.trace.jsonl");
    let spans = std::fs::read_to_string(trace).expect("the traced run writes its spans");
    let first = json::parse(spans.lines().next().expect("at least one span")).unwrap();
    for key in [
        "id", "parent", "request", "name", "start_ns", "end_ns", "count",
    ] {
        assert!(first.get(key).is_some(), "a span has no {key}");
    }
}
