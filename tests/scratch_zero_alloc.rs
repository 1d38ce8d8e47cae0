//! Zero steady-state heap allocation on the query path — flat dense worlds
//! and the sequence world alike — pinned by a counting global allocator.
//!
//! `crates/core/tests/scratch_equivalence.rs` pins that scratch *reuse*
//! returns identical results; this suite pins the other half of the
//! contract — that reuse actually eliminates allocation. A thread-local
//! counting wrapper around the system allocator counts every
//! `alloc`/`alloc_zeroed`/`realloc` on the test thread; after one warm-up
//! pass over the query set has grown every scratch buffer to its
//! high-water capacity, a second pass over the same queries through
//! `search_into` must perform **zero** heap allocations — brute force,
//! NAPP and VP-tree alike, all over an arena-backed dense dataset so the
//! gather-free flat kernels are the code under test. The sequence pin does
//! the same for NAPP under `NormalizedLevenshtein`, where the allocator
//! used to be hit twice per distance by the dynamic program's cost rows.
//!
//! The counter is thread-local, so concurrently running tests on other
//! harness threads cannot pollute the measurement.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::Arc;

use permsearch_core::{Dataset, SearchIndex, SearchScratch, Space};
use permsearch_datasets::{DenseGaussianMixture, DnaSubstrings, Generator};
use permsearch_permutation::{Napp, NappParams};
use permsearch_spaces::{NormalizedLevenshtein, L2};
use permsearch_vptree::{VpTree, VpTreeParams};

struct CountingAllocator;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

fn allocs_on_this_thread() -> u64 {
    ALLOCS.with(Cell::get)
}

fn bump() {
    // `try_with` so allocation during TLS teardown cannot panic.
    let _ = ALLOCS.try_with(|c| c.set(c.get() + 1));
}

unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        bump();
        unsafe { System.alloc(layout) }
    }
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        bump();
        unsafe { System.alloc_zeroed(layout) }
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        bump();
        unsafe { System.realloc(ptr, layout, new_size) }
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOCATOR: CountingAllocator = CountingAllocator;

const K: usize = 10;

fn flat_world() -> (Arc<Dataset<Vec<f32>>>, Vec<Vec<f32>>) {
    let gen = DenseGaussianMixture::new(16, 5, 0.2);
    let data = Arc::new(Dataset::new_flat(gen.generate(1200, 33)));
    let queries = gen.generate(24, 91);
    (data, queries)
}

/// Warm one pass, then assert the second pass over the same queries
/// allocates nothing.
fn assert_zero_steady_state<P, I: SearchIndex<P>>(index: &I, queries: &[P]) {
    let mut scratch = SearchScratch::new();
    let mut out = Vec::new();
    for q in queries {
        index.search_into(q, K, &mut scratch, &mut out);
        assert!(out.len() <= K && !out.is_empty());
    }
    let before = allocs_on_this_thread();
    for q in queries {
        index.search_into(q, K, &mut scratch, &mut out);
    }
    let after = allocs_on_this_thread();
    assert_eq!(
        after - before,
        0,
        "{}: steady-state queries must not touch the allocator",
        index.name()
    );
}

#[test]
fn brute_force_flat_path_is_allocation_free() {
    let (data, queries) = flat_world();
    assert!(
        data.flat().is_some() && L2.supports_flat(),
        "flat path active"
    );
    let index = permsearch_core::ExhaustiveSearch::new(data, L2);
    assert_zero_steady_state(&index, &queries);
}

#[test]
fn napp_flat_path_is_allocation_free() {
    let (data, queries) = flat_world();
    let index = Napp::build(
        data,
        L2,
        NappParams {
            num_pivots: 64,
            num_indexed: 8,
            min_shared: 1,
            max_candidates: Some(400),
            threads: 1,
            ..Default::default()
        },
        7,
    );
    assert_zero_steady_state(&index, &queries);
}

/// The expensive-distance half of the paper: pivot ranking and refine both
/// score through the Levenshtein block kernel, whose mask table and column
/// states live on the stack for the ~32-byte strings of the dna world.
#[test]
fn napp_sequence_path_is_allocation_free() {
    let gen = DnaSubstrings::new(1 << 14, 32.0, 4.0);
    let data = Arc::new(Dataset::new(gen.generate(600, 33)));
    let queries = gen.generate(24, 91);
    let index = Napp::build(
        data,
        NormalizedLevenshtein,
        NappParams {
            num_pivots: 64,
            num_indexed: 8,
            min_shared: 1,
            max_candidates: Some(200),
            threads: 1,
            ..Default::default()
        },
        7,
    );
    assert_zero_steady_state(&index, &queries);
}

#[test]
fn vptree_flat_path_is_allocation_free() {
    let (data, queries) = flat_world();
    let index = VpTree::build(data, L2, VpTreeParams::default(), 7);
    assert_zero_steady_state(&index, &queries);
}

/// Metrics-enabled serving stays allocation-free in steady state: the
/// registry handles are resolved once up front, every per-query record is
/// a relaxed `fetch_add`, and tracing at the default 1-in-64 sample rate
/// writes only into the scratch's inline trace arrays. One warm pass, then
/// a full observed pass — latency recording, query counting, trace arming
/// and harvesting for every query — must not touch the allocator.
#[test]
fn observed_serving_is_allocation_free() {
    use permsearch_engine::{MetricsRegistry, ServeMetrics, DEFAULT_SAMPLE_EVERY};

    let (data, queries) = flat_world();
    let index = permsearch_core::ExhaustiveSearch::new(data, L2);
    // Cold path: registration interns names and label sets (allocates).
    let registry = MetricsRegistry::new();
    let metrics = ServeMetrics::register(&registry, "brute-force", 1, DEFAULT_SAMPLE_EVERY);
    let hist = permsearch_obs::ShardedHistogram::new(1);

    // Warm pass with tracing armed on its schedule, so the traced variant
    // of every buffer reaches its high-water size too.
    let mut scratch = SearchScratch::new();
    let mut out = Vec::new();
    let pass = |scratch: &mut SearchScratch, out: &mut Vec<_>| {
        for (i, q) in queries.iter().enumerate() {
            scratch.trace.begin(metrics.should_trace(i));
            let t0 = std::time::Instant::now();
            index.search_into(q, K, scratch, out);
            let nanos = t0.elapsed().as_nanos() as u64;
            hist.record(0, nanos);
            metrics.observe_query(0, nanos);
            metrics.observe_trace(&scratch.trace);
        }
        metrics.observe_batch();
    };
    pass(&mut scratch, &mut out);

    let before = allocs_on_this_thread();
    pass(&mut scratch, &mut out);
    let after = allocs_on_this_thread();
    assert_eq!(
        after - before,
        0,
        "metrics-enabled steady-state serving must not touch the allocator"
    );
    // The observed pass really did publish: queries, latencies and traces.
    assert_eq!(
        registry
            .counter("permsearch_queries_total", "", &[("method", "brute-force")])
            .get(),
        2 * queries.len() as u64
    );
    assert!(
        registry
            .counter(
                "permsearch_traces_sampled_total",
                "",
                &[("method", "brute-force")]
            )
            .get()
            >= 2
    );
}

/// The counting allocator itself must observe ordinary allocations —
/// otherwise the pins above would pass vacuously.
#[test]
fn counting_allocator_counts() {
    let before = allocs_on_this_thread();
    let v: Vec<u64> = Vec::with_capacity(32);
    let after = allocs_on_this_thread();
    assert!(after > before, "allocation went uncounted");
    drop(v);
}
