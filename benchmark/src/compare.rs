//! `compare A B`: do two sets of runs agree within the benchmark's own
//! bounds?
//!
//! `A` and `B` are files of run records, one JSON object per line (what
//! `run --out FILE` appends). One row per workload × end-to-end metric:
//! both medians, both quartile distances (as shares of their median, by
//! the contract's rule), the bound, and a verdict. `unresolved` means a
//! set's own spread is wider than the bound, so the two medians cannot
//! be told apart at that resolution.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::Path;

use crate::defs::{END_TO_END, WORKLOADS};
use crate::json::{self, Value};
use crate::stats::{median, quartile_spread, Better};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Same,
    Worse,
    Better,
    Unresolved,
}

impl Verdict {
    pub fn as_str(self) -> &'static str {
        match self {
            Verdict::Same => "same",
            Verdict::Worse => "worse",
            Verdict::Better => "better",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// The verdict for one metric of one workload: `a` is the parent's set,
/// `b` the candidate's. A set whose own spread is wider than the bound
/// resolves nothing.
pub fn verdict(a: &[f64], b: &[f64], better: Better, bound: f64) -> Verdict {
    if quartile_spread(a).max(quartile_spread(b)) > bound {
        return Verdict::Unresolved;
    }
    let (ma, mb) = (median(a), median(b));
    if ma == 0.0 {
        return if mb == 0.0 {
            Verdict::Same
        } else {
            Verdict::Unresolved
        };
    }
    // Positive when B is worse than A.
    let worsening = match better {
        Better::Lower => (mb - ma) / ma.abs(),
        Better::Higher => (ma - mb) / ma.abs(),
    };
    if worsening > bound {
        Verdict::Worse
    } else if worsening < -bound {
        Verdict::Better
    } else {
        Verdict::Same
    }
}

/// Untraced, full-scale run records of a file as
/// `workload -> metric -> values`.
pub fn load(path: &Path) -> Result<BTreeMap<String, BTreeMap<String, Vec<f64>>>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    let mut sets: BTreeMap<String, BTreeMap<String, Vec<f64>>> = BTreeMap::new();
    for (i, line) in text
        .lines()
        .enumerate()
        .filter(|(_, l)| !l.trim().is_empty())
    {
        let record = json::parse(line).map_err(|e| format!("{}:{}: {e}", path.display(), i + 1))?;
        let flag = |key: &str| record.get(key).and_then(Value::as_bool).unwrap_or(false);
        if flag("trace") || flag("smoke") {
            continue;
        }
        let workload = record
            .get("workload")
            .and_then(Value::as_str)
            .ok_or_else(|| format!("{}:{}: record without a workload", path.display(), i + 1))?;
        let metrics = record
            .get("metrics")
            .and_then(Value::as_object)
            .ok_or_else(|| format!("{}:{}: record without metrics", path.display(), i + 1))?;
        let set = sets.entry(workload.to_string()).or_default();
        for (name, metric) in metrics {
            if let Some(v) = metric.get("value").and_then(Value::as_f64) {
                set.entry(name.clone()).or_default().push(v);
            }
        }
    }
    Ok(sets)
}

/// The comparison table and whether every row is `same` or `better`.
pub fn compare(a: &Path, b: &Path) -> Result<(String, bool), String> {
    let (set_a, set_b) = (load(a)?, load(b)?);
    let mut table = String::new();
    let _ = writeln!(
        table,
        "{:<18} {:<13} {:>14} {:>14} {:>8} {:>8} {:>6}  verdict",
        "workload", "metric", "median A", "median B", "iqr A", "iqr B", "bound"
    );
    let mut agree = true;
    for w in WORKLOADS {
        for def in END_TO_END {
            let values = |set: &BTreeMap<String, BTreeMap<String, Vec<f64>>>| {
                set.get(w.name)
                    .and_then(|m| m.get(def.name))
                    .cloned()
                    .unwrap_or_default()
            };
            let (va, vb) = (values(&set_a), values(&set_b));
            if va.is_empty() && vb.is_empty() {
                continue;
            }
            let bound = def.bound.expect("end-to-end metrics carry a bound");
            let v = if va.is_empty() || vb.is_empty() {
                Verdict::Unresolved
            } else {
                verdict(&va, &vb, def.better, bound)
            };
            agree &= matches!(v, Verdict::Same | Verdict::Better);
            let _ = writeln!(
                table,
                "{:<18} {:<13} {:>14.4} {:>14.4} {:>7.2}% {:>7.2}% {:>5.0}%  {}",
                w.name,
                def.name,
                median(&va),
                median(&vb),
                quartile_spread(&va) * 100.0,
                quartile_spread(&vb) * 100.0,
                bound * 100.0,
                v.as_str()
            );
        }
    }
    Ok((table, agree))
}
