//! The repository benchmark (see `README.md` beside this crate and
//! `BENCHMARK.json` at the repo root).
//!
//! The harness measures every layer from outside: it times calls into
//! the program's public functions and reads counters the program already
//! exposes. It owns its inputs, its arithmetic, its exact answers and
//! its reference kernel, so a change to the program cannot change how
//! the program is measured.

pub mod churn;
pub mod compare;
pub mod defs;
pub mod gold;
pub mod harness;
pub mod inproc;
pub mod inputs;
pub mod json;
pub mod ladder;
pub mod pins;
pub mod probes;
pub mod refkernel;
pub mod report;
pub mod spans;
pub mod stats;
pub mod tcp;
pub mod workload;
