//! The host-speed reference kernel (rule 2 of the README).
//!
//! A fixed piece of work that belongs to the harness and never changes
//! with the program: squared L2 of one 128-d query against 2 048 rows
//! (1 MiB, resident in the L2 cache, so a sample reads the speed of the
//! core and not the state of a cache shared with other tenants). Its time
//! on a quiet host is frozen in [`REF_NOMINAL_US`]; the ratio of a fresh
//! sample to that constant is the host's slowdown.
//!
//! The slowdown marks disturbed runs and is printed beside every raw
//! figure. It does not scale the gated numbers: measured on this host,
//! dividing by it widened the spread of every workload (README, rule 2).

use std::hint::black_box;
use std::time::Instant;

use crate::gold::squared_l2;

pub const REF_DIM: usize = 128;
pub const REF_ROWS: usize = 2048;
const REF_PASSES: usize = 8;

/// Quiet-host time of one pass on the host the bounds were measured on
/// (2 shared cores of an Intel Xeon @ 2.10 GHz). Frozen: changing it
/// rescales every slowdown and moves the `disturbed` mark.
pub const REF_NOMINAL_US: f64 = 59.5;

pub struct RefKernel {
    rows: Vec<f32>,
    query: Vec<f32>,
}

impl Default for RefKernel {
    fn default() -> Self {
        Self::new()
    }
}

impl RefKernel {
    /// Rows and query from a fixed 64-bit LCG, so the work (and its
    /// checksum) is identical in every process.
    pub fn new() -> Self {
        let mut state: u64 = 0x9E37_79B9_7F4A_7C15;
        let mut next = move || {
            state = state
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            // 24 high bits -> [0, 256), the range of a SIFT component.
            ((state >> 40) as f32) / 65_536.0
        };
        let rows = (0..REF_ROWS * REF_DIM).map(|_| next()).collect();
        let query = (0..REF_DIM).map(|_| next()).collect();
        Self { rows, query }
    }

    /// One pass over all rows; returns the sum of the squared distances.
    /// Four scalar accumulator chains per row in a fixed order
    /// ([`squared_l2`]): the result is bit-stable across runs and builds.
    pub fn pass(&self) -> f32 {
        let mut total = 0.0f32;
        for row in self.rows.chunks_exact(REF_DIM) {
            total += squared_l2(row, &self.query);
        }
        total
    }

    /// One sample: the fastest of eight passes, in microseconds. The first
    /// two run on a cache the workload just evicted; the minimum discards
    /// them and any pass a neighbour interrupted, so the sample tracks the
    /// sustained speed of the core, not a single preemption.
    pub fn sample_us(&self) -> f64 {
        let mut best = f64::INFINITY;
        for _ in 0..REF_PASSES {
            let t0 = Instant::now();
            black_box(black_box(self).pass());
            best = best.min(t0.elapsed().as_secs_f64() * 1e6);
        }
        best
    }

    /// The slowdown implied by two samples taken around a piece of work.
    pub fn slowdown(before_us: f64, after_us: f64) -> f64 {
        (before_us + after_us) / 2.0 / REF_NOMINAL_US
    }
}
