//! Input pinning: FNV-1a fingerprints of every workload's inputs.
//!
//! `fingerprints.json` records, per workload, the fingerprint of the
//! frozen population and — at the default seed — of the query set, the
//! op script and the Poisson schedule. A full-scale run whose inputs
//! differ is incorrect and exits non-zero. Seed-dependent entries are
//! checked only at the default seed; `--smoke` worlds are not pinned.

use std::collections::BTreeMap;

use crate::harness::Harness;
use crate::inputs::DEFAULT_SEED;
use crate::json::{self, Value};

const PINNED: &str = include_str!("../fingerprints.json");

pub struct Pins {
    pinned: Value,
    /// Every fingerprint this run computed, as `workload -> key -> hex`.
    pub observed: BTreeMap<String, BTreeMap<String, String>>,
}

impl Default for Pins {
    fn default() -> Self {
        Self::new()
    }
}

impl Pins {
    pub fn new() -> Self {
        Self {
            pinned: json::parse(PINNED).expect("fingerprints.json is valid JSON"),
            observed: BTreeMap::new(),
        }
    }

    /// Compare one computed fingerprint with the pinned one.
    pub fn check(&mut self, h: &mut Harness, workload: &str, key: &str, value: u64, seeded: bool) {
        if h.cfg.smoke {
            return;
        }
        let hex = format!("{value:016x}");
        self.observed
            .entry(workload.to_string())
            .or_default()
            .insert(key.to_string(), hex.clone());
        if seeded && h.cfg.seed != DEFAULT_SEED {
            return;
        }
        let pinned = self
            .pinned
            .get(workload)
            .and_then(|w| w.get(key))
            .and_then(Value::as_str);
        if pinned != Some(hex.as_str()) {
            h.violation(format!(
                "{workload}: input {key} has fingerprint {hex}, fingerprints.json pins {}",
                pinned.unwrap_or("nothing")
            ));
        }
    }

    /// The observed fingerprints as one JSON object, keyed like
    /// `fingerprints.json`.
    pub fn observed_json(&self) -> String {
        let workloads: Vec<String> = self
            .observed
            .iter()
            .map(|(w, keys)| {
                let members: Vec<String> = keys
                    .iter()
                    .map(|(k, v)| format!("{}: {}", json::quote(k), json::quote(v)))
                    .collect();
                format!("{}: {{{}}}", json::quote(w), members.join(", "))
            })
            .collect();
        format!("{{{}}}", workloads.join(", "))
    }
}
