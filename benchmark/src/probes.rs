//! Layer probes of the traced run: public functions of one layer timed
//! from outside, on inputs the harness owns.
//!
//! [`micro`] runs in every traced run (its inputs do not depend on the
//! workload); [`dense_world`] and [`sequence_world`] are the in-process
//! workloads' own probes, run on their worlds.

use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

use permsearch_core::{
    merge_sorted_topk_with, Dataset, ExhaustiveSearch, Neighbor, QuantizedVectors, QuantizedView,
    SearchIndex, SearchScratch, Space,
};
use permsearch_engine::{dense_l2_registry, MethodRegistry};
use permsearch_permutation::{perm::compute_ranks_into, select_pivots};
use permsearch_serve::{frame_to_vec, read_frame, Frame, QueryStatus};
use permsearch_spaces::batch::{l2_flat, l2_flat_ids, l2_quant_ids};
use permsearch_spaces::{NormalizedLevenshtein, Sequence, L2};

use crate::gold::recall_ids;
use crate::harness::Harness;
use crate::inputs::{dna_world, SplitMix, BUILD_SEED, K};
use crate::spans::SpanId;
use crate::stats::median;

/// Shape of the kernel probes' table: 8 192 rows of 128 floats (4 MiB,
/// past the L2 cache like the arenas the kernels really scan).
const PROBE_ROWS: usize = 8192;
const PROBE_DIM: usize = 128;

/// Median seconds of `reps` calls of `work`, under one span.
fn timed(h: &mut Harness, name: &'static str, reps: usize, mut work: impl FnMut()) -> f64 {
    let span = h.rec.open(name, SpanId::NONE, 0);
    let samples: Vec<f64> = (0..reps)
        .map(|_| {
            let t0 = Instant::now();
            work();
            t0.elapsed().as_secs_f64()
        })
        .collect();
    h.rec.close(span, reps as u64);
    median(&samples)
}

/// Kernel, selection, merge and codec probes on harness-owned inputs.
pub fn micro(h: &mut Harness) {
    let mut rng = SplitMix::new(0x5EED_0001);
    let rows: Vec<f32> = (0..PROBE_ROWS * PROBE_DIM)
        .map(|_| (rng.unit() * 255.0) as f32)
        .collect();
    let query: Vec<f32> = (0..PROBE_DIM)
        .map(|_| (rng.unit() * 255.0) as f32)
        .collect();
    let mut out = vec![0.0f32; PROBE_ROWS];
    let per_dist_ns = |secs: f64| secs * 1e9 / PROBE_ROWS as f64;

    let secs = timed(h, "spaces.l2_flat", 9, || {
        l2_flat(black_box(&rows), PROBE_DIM, &query, &mut out);
        black_box(&out);
    });
    h.set("spaces.l2_flat_ns_per_dist", per_dist_ns(secs));

    let mut gather: Vec<u32> = (0..PROBE_ROWS as u32).collect();
    rng.shuffle(&mut gather);
    let secs = timed(h, "spaces.l2_flat_ids_gather", 9, || {
        for (ids, o) in gather.chunks(64).zip(out.chunks_mut(64)) {
            l2_flat_ids(black_box(&rows), PROBE_DIM, ids, &query, o);
        }
        black_box(&out);
    });
    h.set("spaces.l2_flat_ids_gather_ns_per_dist", per_dist_ns(secs));

    let quant = QuantizedView::new(QuantizedVectors::from_flat(&rows, PROBE_DIM, PROBE_ROWS));
    let secs = timed(h, "spaces.l2_quant_ids", 9, || {
        for (ids, o) in gather.chunks(64).zip(out.chunks_mut(64)) {
            l2_quant_ids(black_box(&quant), ids, &query, o);
        }
        black_box(&out);
    });
    h.set("spaces.l2_quant_ids_ns_per_dist", per_dist_ns(secs));

    // Levenshtein over pairs of dna-like sequences.
    let dna = dna_world(256, 0);
    let pairs = dna.indexed.len() * dna.indexed.len();
    let secs = timed(h, "spaces.levenshtein", 5, || {
        let mut sum = 0.0f32;
        for a in &dna.indexed {
            for b in &dna.indexed {
                sum += NormalizedLevenshtein.distance(a, b);
            }
        }
        black_box(sum);
    });
    h.set("spaces.levenshtein_ns_per_dist", secs * 1e9 / pairs as f64);

    // Selection of the 64 smallest of 65 536 scored candidates.
    let scored: Vec<(u32, u32)> = (0..65_536u32)
        .map(|id| ((rng.next_u64() >> 40) as u32, id))
        .collect();
    let mut work = scored.clone();
    let secs = timed(h, "core.k_smallest", 9, || {
        work.copy_from_slice(&scored);
        permsearch_core::incsort::k_smallest(&mut work, 64, |a, b| a.cmp(b));
        black_box(&work[..64]);
    });
    h.set(
        "core.k_smallest_ns_per_item",
        secs * 1e9 / scored.len() as f64,
    );

    // Merge of 8 sorted lists of 64 into a top 10.
    let lists: Vec<Vec<Neighbor>> = (0..8u32)
        .map(|l| {
            let mut list: Vec<Neighbor> = (0..64u32)
                .map(|i| Neighbor::new(l * 64 + i, rng.unit() as f32))
                .collect();
            list.sort_unstable_by(|a, b| a.dist.total_cmp(&b.dist).then(a.id.cmp(&b.id)));
            list
        })
        .collect();
    let mut scratch = SearchScratch::new();
    let mut merged = Vec::new();
    let secs = timed(h, "core.merge_topk", 99, || {
        merge_sorted_topk_with(black_box(&lists), K, &mut scratch, &mut merged);
        black_box(&merged);
    });
    h.set("core.merge_topk_us", secs * 1e6);

    // Frame codec: one 128-d query out, one reply of K neighbours back.
    let request = Frame::Query {
        k: K as u32,
        deadline_micros: 0,
        queries: vec![query.clone()],
    };
    let reply = Frame::Results {
        results: vec![lists[0][..K].to_vec()],
        statuses: vec![QueryStatus::default()],
    };
    for (frame, encode, decode) in [
        (&request, "serve.encode_query_ns", "serve.decode_query_ns"),
        (&reply, "serve.encode_reply_ns", "serve.decode_reply_ns"),
    ] {
        let bytes = frame_to_vec(frame).expect("encode a well-formed frame");
        let secs = timed(h, "serve.encode", 999, || {
            black_box(frame_to_vec(black_box(frame)).expect("encode"));
        });
        h.set(encode, secs * 1e9);
        let secs = timed(h, "serve.decode", 999, || {
            black_box(read_frame(&mut black_box(&bytes[..])).expect("decode"));
        });
        h.set(decode, secs * 1e9);
    }
}

/// Mean microseconds per query of `index` over `queries`, and its mean
/// recall against `gold`.
fn query_us_and_recall<P>(
    index: &dyn SearchIndex<P>,
    queries: &[P],
    gold: &[Vec<u32>],
) -> (f64, f64) {
    let mut scratch = SearchScratch::new();
    let mut answer = Vec::new();
    for q in queries.iter().take(8) {
        index.search_into(q, K, &mut scratch, &mut answer);
    }
    let mut recall = 0.0;
    let t0 = Instant::now();
    for (q, truth) in queries.iter().zip(gold) {
        index.search_into(q, K, &mut scratch, &mut answer);
        recall += recall_ids(answer.iter().map(|n| n.id), truth);
    }
    let n = queries.len().max(1) as f64;
    (t0.elapsed().as_secs_f64() * 1e6 / n, recall / n)
}

/// Median microseconds of ranking the registry-sized pivot set for one
/// query: `compute_ranks_into` over `min(512, n / 4)` pivots.
fn ranks_us<P, S>(h: &mut Harness, data: &Dataset<P>, space: &S, queries: &[P]) -> f64
where
    P: permsearch_core::Point,
    S: Space<P::Ref>,
{
    let pivots = select_pivots(data, 512.min(data.len() / 4).max(1), BUILD_SEED);
    let (mut dists, mut order, mut ranks) = (Vec::new(), Vec::new(), Vec::new());
    let mut next = queries.iter().cycle();
    timed(h, "permutation.compute_ranks", 201, || {
        let q = next.next().expect("at least one query");
        compute_ranks_into(
            space,
            &pivots,
            q.point_ref(),
            &mut dists,
            &mut order,
            &mut ranks,
        );
        black_box(&ranks);
    }) * 1e6
}

/// Probes on the sift world of `sift_napp_inproc`: the storage tiers, the
/// pivot ranking, brute force, and the paper's three baselines, so that
/// "faster search is possible" stays a printed comparison.
pub fn dense_world(h: &mut Harness, indexed: &[Vec<f32>], pool: &[Vec<f32>], gold: &[Vec<u32>]) {
    let flat = Dataset::new_flat(indexed.to_vec());
    let span = h.rec.open("core.quantize", SpanId::NONE, 0);
    let t0 = Instant::now();
    let data = Arc::new(flat.quantize());
    h.set("core.quantize_build_s", t0.elapsed().as_secs_f64());
    h.rec.close(span, data.len() as u64);
    let mb = |bytes: usize| bytes as f64 / (1024.0 * 1024.0);
    h.set(
        "core.dataset_mb",
        mb(data.flat().map_or(0, |f| f.arena().size_bytes())),
    );
    h.set(
        "core.quant_tier_mb",
        mb(data.quantized().map_or(0, |q| q.block().size_bytes())),
    );

    let sample = &pool[..pool.len().min(200)];
    let gold = &gold[..sample.len()];
    let us = ranks_us(h, &data, &L2, sample);
    h.set("permutation.ranks_us", us);

    let brute = ExhaustiveSearch::new(data.clone(), L2);
    let (us, _) = query_us_and_recall(&brute, sample, gold);
    h.set("eval.brute_query_us", us);

    let registry: MethodRegistry<Vec<f32>> = dense_l2_registry();
    for (method, query_metric, recall_metric) in [
        ("vptree", "vptree.query_us", "vptree.recall_at_10"),
        ("sw-graph", "knngraph.query_us", "knngraph.recall_at_10"),
        ("lsh", "lsh.query_us", "lsh.recall_at_10"),
    ] {
        let span = h.rec.open("baseline", SpanId::NONE, 0);
        let index = registry
            .build(method, data.clone(), BUILD_SEED)
            .expect("a standard method");
        let (us, recall) = query_us_and_recall(index.as_ref(), sample, gold);
        h.rec.close(span, sample.len() as u64);
        h.set(query_metric, us);
        h.set(recall_metric, recall);
    }
}

/// Probes on the dna world of `dna_napp_inproc`: pivot ranking and brute
/// force under the expensive distance.
pub fn sequence_world(h: &mut Harness, indexed: &[Sequence], pool: &[Sequence], gold: &[Vec<u32>]) {
    let data = Arc::new(Dataset::new(indexed.to_vec()));
    let sample = &pool[..pool.len().min(60)];
    let us = ranks_us(h, &data, &NormalizedLevenshtein, sample);
    h.set("permutation.ranks_us", us);
    let brute = ExhaustiveSearch::new(data, NormalizedLevenshtein);
    let (us, _) = query_us_and_recall(&brute, sample, &gold[..sample.len()]);
    h.set("eval.brute_query_us", us);
}
