//! The batch-kernel accuracy contract, pinned bit-for-bit.
//!
//! Every batched kernel — the `distance_block` overrides and the flat
//! row-major kernels in `permsearch_spaces::batch`, plus the flat Hamming
//! kernel in `permsearch_core::bits` — must return **bitwise identical**
//! results to the scalar `Space::distance` reference for every point. (The
//! workspace policy allows a documented ≤ 1-ulp deviation for kernels that
//! cannot preserve the scalar operation order; none of the current kernels
//! needs it, so the assertions here are exact.)
//!
//! Coverage dimensions, per the issue checklist: random dims including 0
//! and 1 and non-multiples of the 4-lane chunk, block lengths 0/1 and
//! non-multiples of the gather width, and zero/denormal inputs.

use proptest::prelude::*;

use permsearch_core::{CountedSpace, Space, SpaceStats};
use permsearch_spaces::batch;
use permsearch_spaces::{
    DenseCosine, JsDivergence, KlDivergence, NormalizedLevenshtein, Sequence, TopicHistogram, L1,
    L2,
};

/// Dims exercised per case: 0, 1, several non-multiples of the 4-lane
/// chunk, one exact multiple, and one spanning a whole gather block.
const DIMS: [usize; 8] = [0, 1, 3, 4, 5, 7, 16, 65];

/// A block of equal-length rows plus one query. Element values are skewed
/// toward the hard cases — exact zeros of both signs, denormals, the
/// smallest normal — via a tag channel (the vendored proptest stub has no
/// `prop_oneof`, so the mix is decoded from `(tag, value)` pairs).
fn rows_and_query() -> impl Strategy<Value = (Vec<Vec<f32>>, Vec<f32>)> {
    let pool = proptest::collection::vec((0u8..10, -100.0f32..100.0), 720);
    (pool, 0usize..DIMS.len(), 0usize..10).prop_map(|(pool, dim_idx, nrows)| {
        let dim = DIMS[dim_idx];
        let mut vals = pool.into_iter().map(|(tag, v)| match tag {
            0 => 0.0f32,
            1 => -0.0f32,
            2 => 1.0e-41f32,  // denormal
            3 => -1.0e-41f32, // negative denormal
            4 => f32::MIN_POSITIVE,
            5 => 1.0e-38f32,
            _ => v,
        });
        let q: Vec<f32> = vals.by_ref().take(dim).collect();
        let rows: Vec<Vec<f32>> = (0..nrows)
            .map(|_| vals.by_ref().take(dim).collect())
            .collect();
        (rows, q)
    })
}

fn refs(rows: &[Vec<f32>]) -> Vec<&[f32]> {
    rows.iter().map(Vec::as_slice).collect()
}

/// A deterministic xorshift64 stream (any seed; zero is nudged off).
fn xorshift(seed: u64) -> impl FnMut() -> u64 {
    let mut state = seed | 1;
    move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn dense_blocks_match_scalar_bitwise((rows, q) in rows_and_query()) {
        let refs = refs(&rows);
        let mut out = vec![0.0f32; rows.len()];
        L2.distance_block(&refs, &q, &mut out);
        for (r, d) in rows.iter().zip(&out) {
            prop_assert_eq!(d.to_bits(), L2.distance(r, &q).to_bits());
        }
        L1.distance_block(&refs, &q, &mut out);
        for (r, d) in rows.iter().zip(&out) {
            prop_assert_eq!(d.to_bits(), L1.distance(r, &q).to_bits());
        }
        DenseCosine.distance_block(&refs, &q, &mut out);
        for (r, d) in rows.iter().zip(&out) {
            prop_assert_eq!(d.to_bits(), DenseCosine.distance(r, &q).to_bits());
        }
    }

    #[test]
    fn dense_flat_kernels_match_scalar_bitwise((rows, q) in rows_and_query()) {
        let dim = q.len();
        let flat = batch::flatten_rows(&rows);
        let mut out = vec![0.0f32; rows.len()];
        batch::l2_flat(&flat, dim, &q, &mut out);
        for (r, d) in rows.iter().zip(&out) {
            prop_assert_eq!(d.to_bits(), L2.distance(r, &q).to_bits());
        }
        batch::l1_flat(&flat, dim, &q, &mut out);
        for (r, d) in rows.iter().zip(&out) {
            prop_assert_eq!(d.to_bits(), L1.distance(r, &q).to_bits());
        }
        batch::cosine_flat(&flat, dim, &q, &mut out);
        for (r, d) in rows.iter().zip(&out) {
            prop_assert_eq!(d.to_bits(), DenseCosine.distance(r, &q).to_bits());
        }
        batch::dot_flat(&flat, dim, &q, &mut out);
        for (r, d) in rows.iter().zip(&out) {
            let mut acc = 0.0f32;
            for (a, b) in r.iter().zip(&q) {
                acc += a * b;
            }
            prop_assert_eq!(d.to_bits(), acc.to_bits());
        }
    }

    #[test]
    fn divergence_kernels_match_scalar_bitwise((rows, q) in rows_and_query()) {
        // Histograms floor entries to 1e-5, so denormal/zero inputs are
        // exercised through the constructor exactly as production data is.
        let hists: Vec<TopicHistogram> =
            rows.iter().map(|r| TopicHistogram::new(r.iter().map(|v| v.abs()).collect())).collect();
        let qh = TopicHistogram::new(q.iter().map(|v| v.abs()).collect());
        let hrefs: Vec<&TopicHistogram> = hists.iter().collect();
        let mut out = vec![0.0f32; hists.len()];

        KlDivergence.distance_block(&hrefs, &qh, &mut out);
        for (h, d) in hists.iter().zip(&out) {
            prop_assert_eq!(d.to_bits(), KlDivergence.distance(h, &qh).to_bits());
        }
        JsDivergence.distance_block(&hrefs, &qh, &mut out);
        for (h, d) in hists.iter().zip(&out) {
            prop_assert_eq!(d.to_bits(), JsDivergence.distance(h, &qh).to_bits());
        }

        // Flat tables: parallel row-major values/logs.
        let dim = qh.dim();
        let mut values = Vec::new();
        let mut logs = Vec::new();
        for h in &hists {
            values.extend_from_slice(h.values());
            logs.extend_from_slice(h.logs());
        }
        batch::kl_flat(&values, &logs, dim, qh.logs(), &mut out);
        for (h, d) in hists.iter().zip(&out) {
            prop_assert_eq!(d.to_bits(), KlDivergence.distance(h, &qh).to_bits());
        }
        batch::js_flat(&values, &logs, dim, qh.values(), qh.logs(), &mut out);
        for (h, d) in hists.iter().zip(&out) {
            prop_assert_eq!(d.to_bits(), JsDivergence.distance(h, &qh).to_bits());
        }
    }

    #[test]
    fn hamming_flat_matches_per_row(
        rows in 0usize..8,
        wpp in 1usize..5,
        seed in any::<u64>(),
    ) {
        // Deterministic word table from the seed, covering full and sparse
        // bit patterns.
        let mut next = xorshift(seed);
        let table: Vec<u64> = (0..rows * wpp).map(|_| next()).collect();
        let q: Vec<u64> = (0..wpp).map(|_| next()).collect();
        let mut got = Vec::new();
        permsearch_core::bits::hamming_flat(&table, wpp, &q, |id, h| got.push((id, h)));
        let expect: Vec<(u32, u32)> = table
            .chunks_exact(wpp)
            .enumerate()
            .map(|(i, row)| {
                (i as u32, row.iter().zip(&q).map(|(a, b)| (a ^ b).count_ones()).sum())
            })
            .collect();
        prop_assert_eq!(got, expect);
    }

    #[test]
    fn counting_wrappers_count_per_point_scored((rows, q) in rows_and_query()) {
        let mut out = vec![0.0f32; rows.len()];
        let refs = refs(&rows);

        let counted = CountedSpace::new(L2);
        counted.distance_block(&refs, &q, &mut out);
        prop_assert_eq!(counted.count(), rows.len() as u64);

        let stats = SpaceStats::new(L2);
        stats.distance_block_counted(&refs, &q, &mut out);
        prop_assert_eq!(stats.count(), rows.len() as u64);
    }
}

/// The sparse cosine space has no custom kernel; the default block path
/// must still agree with the scalar reference bit for bit.
#[test]
fn sparse_cosine_default_block_matches_scalar() {
    use permsearch_spaces::{CosineDistance, SparseVector};
    let rows: Vec<SparseVector> = (0..7)
        .map(|i| {
            SparseVector::new(
                (0..30u32)
                    .filter(|j| (i + j) % 3 == 0)
                    .map(|j| (j, (j as f32 * 0.37 + i as f32).sin()))
                    .collect(),
            )
        })
        .collect();
    let q = SparseVector::new((0..30u32).step_by(2).map(|j| (j, 0.5 + j as f32)).collect());
    let refs: Vec<&SparseVector> = rows.iter().collect();
    let mut out = vec![0.0f32; rows.len()];
    CosineDistance.distance_block(&refs, &q, &mut out);
    for (r, d) in rows.iter().zip(&out) {
        assert_eq!(d.to_bits(), CosineDistance.distance(r, &q).to_bits());
    }
}

// ---------------------------------------------------------------------------
// Gather-free (`*_flat_ids`) kernels and the `distance_block_flat` hook.
// ---------------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn flat_ids_kernels_match_scalar_bitwise(
        (rows, q) in rows_and_query(),
        ids_seed in proptest::collection::vec(0usize..1024, 0..24),
        shape in 0u8..4,
    ) {
        // Decode ids against this case's row count.
        let n = rows.len();
        let ids: Vec<u32> = if n == 0 {
            Vec::new()
        } else {
            let mut ids: Vec<u32> =
                ids_seed.iter().map(|&i| (i % n) as u32).collect();
            match shape {
                0 => ids.clear(),
                1 => {
                    ids.sort_unstable();
                    ids.dedup();
                }
                2 => ids = (0..n as u32).collect(), // consecutive fast path
                _ => {}
            }
            ids
        };
        let dim = q.len();
        let flat = batch::flatten_rows(&rows);
        let mut out = vec![f32::NAN; ids.len()];
        batch::l2_flat_ids(&flat, dim, &ids, &q, &mut out);
        for (&id, d) in ids.iter().zip(&out) {
            prop_assert_eq!(d.to_bits(), L2.distance(&rows[id as usize], &q).to_bits());
        }
        batch::l1_flat_ids(&flat, dim, &ids, &q, &mut out);
        for (&id, d) in ids.iter().zip(&out) {
            prop_assert_eq!(d.to_bits(), L1.distance(&rows[id as usize], &q).to_bits());
        }
        batch::cosine_flat_ids(&flat, dim, &ids, &q, &mut out);
        for (&id, d) in ids.iter().zip(&out) {
            prop_assert_eq!(d.to_bits(), DenseCosine.distance(&rows[id as usize], &q).to_bits());
        }
        batch::dot_flat_ids(&flat, dim, &ids, &q, &mut out);
        for (&id, d) in ids.iter().zip(&out) {
            let mut acc = 0.0f32;
            for (a, b) in rows[id as usize].iter().zip(&q) {
                acc += a * b;
            }
            prop_assert_eq!(d.to_bits(), acc.to_bits());
        }
    }

    #[test]
    fn distance_block_flat_matches_scalar_through_sliced_views(
        (rows, q) in rows_and_query(),
        split in 0usize..8,
    ) {
        use permsearch_core::{FlatAccess, FlatVectors};
        // An empty row set builds a dim-0 arena whatever the query length;
        // real consumers never score against an empty dataset (search_into
        // returns early), so skip the degenerate shape here.
        if !rows.is_empty() {
            let view = FlatAccess::new(FlatVectors::from_rows(&rows));
            // A sub-view starting at a nonzero arena offset: view-relative
            // ids must address view rows, not arena rows.
            let start = split.min(rows.len());
            let sub = view.slice(start, rows.len() - start);
            let ids: Vec<u32> = (0..sub.len() as u32).rev().collect(); // non-consecutive
            let mut out = vec![f32::NAN; ids.len()];
            for space in [&L2 as &dyn Space<[f32]>, &L1, &DenseCosine] {
                prop_assert!(space.supports_flat());
                space.distance_block_flat(&sub, &ids, &q, &mut out);
                for (&id, d) in ids.iter().zip(&out) {
                    let row = &rows[start + id as usize];
                    prop_assert_eq!(d.to_bits(), space.distance(row, &q).to_bits());
                }
            }
        }
    }
}

// ---------------------------------------------------------------------------
// SQ8 asymmetric kernels. These are approximate by design (the documented
// exemption from the bitwise policy), but still pinned two ways: exactly
// against a reference loop over the *dequantized* codes, and within the
// analytic quantization error bound against the exact f32 distance.
// ---------------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn quant_kernels_match_dequantized_reference_and_error_bound(
        (rows, q) in rows_and_query(),
        split in 0usize..8,
    ) {
        use permsearch_core::{QuantizedVectors, QuantizedView};
        let dim = q.len();
        let flat = batch::flatten_rows(&rows);
        let full = QuantizedView::new(QuantizedVectors::from_flat(&flat, dim, rows.len()));
        // Also exercise a sliced sub-range view with view-relative ids.
        let start = split.min(rows.len());
        let view = full.slice(start, rows.len() - start);
        let ids: Vec<u32> = (0..view.len() as u32).rev().collect();
        let mut out = vec![f32::NAN; ids.len()];

        batch::l2_quant_ids(&view, &ids, &q, &mut out);
        // Triangle inequality: |‖x̂−q‖ − ‖x−q‖| ≤ ‖x̂−x‖ ≤ ‖scale/2‖ + eps.
        let step_bound = view
            .scales()
            .iter()
            .map(|s| (s * 0.5) * (s * 0.5))
            .sum::<f32>()
            .sqrt();
        for (&id, d) in ids.iter().zip(&out) {
            let codes = view.row(id);
            let mut acc = 0.0f32;
            let mut dot = 0.0f32;
            for dd in 0..dim {
                let v = view.mins()[dd] + view.scales()[dd] * f32::from(codes[dd]);
                let diff = v - q[dd];
                acc += diff * diff;
                dot += v * q[dd];
            }
            prop_assert_eq!(d.to_bits(), acc.sqrt().to_bits(), "dequantized reference");
            let exact = L2.distance(&rows[start + id as usize], &q);
            prop_assert!(
                (d - exact).abs() <= step_bound + 1e-3 * exact.max(1.0),
                "quant L2 {} vs exact {} beyond bound {}", d, exact, step_bound
            );
            let _ = dot;
        }

        batch::dot_quant_ids(&view, &ids, &q, &mut out);
        for (&id, d) in ids.iter().zip(&out) {
            let codes = view.row(id);
            let mut dot = 0.0f32;
            for dd in 0..dim {
                let v = view.mins()[dd] + view.scales()[dd] * f32::from(codes[dd]);
                dot += v * q[dd];
            }
            prop_assert_eq!(d.to_bits(), dot.to_bits());
        }

        batch::cosine_quant_ids(&view, &ids, &q, &mut out);
        let ny = q.iter().map(|&b| b * b).sum::<f32>().sqrt();
        for (&id, d) in ids.iter().zip(&out) {
            let codes = view.row(id);
            let mut dot = 0.0f32;
            for dd in 0..dim {
                let v = view.mins()[dd] + view.scales()[dd] * f32::from(codes[dd]);
                dot += v * q[dd];
            }
            let nx = view.norms()[id as usize];
            let expect = if nx == 0.0 || ny == 0.0 {
                if nx == ny { 0.0 } else { 1.0 }
            } else {
                (1.0 - dot / (nx * ny)).max(0.0)
            };
            prop_assert_eq!(d.to_bits(), expect.to_bits());
            prop_assert!((0.0..=2.0 + 1e-6).contains(d), "cosine range");
        }
    }
}

/// KL/JS id-addressed kernels against the scalar divergences, including
/// duplicate and reversed id lists.
#[test]
fn divergence_flat_ids_match_scalar_bitwise() {
    let dim = 8;
    let hists: Vec<TopicHistogram> = (0..9)
        .map(|i| {
            TopicHistogram::new(
                (0..dim)
                    .map(|j| ((i * dim + j) as f32 * 0.173).sin().abs() + 0.01)
                    .collect(),
            )
        })
        .collect();
    let qh = TopicHistogram::new((0..dim).map(|j| 0.02 + j as f32 * 0.11).collect());
    let values: Vec<f32> = hists.iter().flat_map(|h| h.values().to_vec()).collect();
    let logs: Vec<f32> = hists.iter().flat_map(|h| h.logs().to_vec()).collect();
    let ids: Vec<u32> = vec![8, 0, 3, 3, 7, 1, 0];
    let mut out = vec![f32::NAN; ids.len()];
    batch::kl_flat_ids(&values, &logs, dim, &ids, qh.logs(), &mut out);
    for (&id, d) in ids.iter().zip(&out) {
        assert_eq!(
            d.to_bits(),
            KlDivergence.distance(&hists[id as usize], &qh).to_bits()
        );
    }
    batch::js_flat_ids(&values, &logs, dim, &ids, qh.values(), qh.logs(), &mut out);
    for (&id, d) in ids.iter().zip(&out) {
        assert_eq!(
            d.to_bits(),
            JsDivergence.distance(&hists[id as usize], &qh).to_bits()
        );
    }
}

// ---------------------------------------------------------------------------
// Levenshtein: one mask table per block, four texts in flight.
// ---------------------------------------------------------------------------

/// The block kernel shares the query's mask table across the block and
/// advances texts four at a time; per-pair `distance` builds its own table
/// (from whichever side is shorter) and runs one text. Same integers, same
/// division, so the same bits — for every block length around the four-way
/// interleave and its remainder, texts of mixed lengths (empty, equal to
/// the query, on both sides of a word boundary), an empty query, and
/// queries longer than one word.
#[test]
fn levenshtein_block_matches_scalar_bitwise() {
    let mut next = xorshift(0x9E37_79B9_7F4A_7C15);
    let mut sequence = |len: usize| -> Sequence {
        (0..len)
            .map(|_| b"ACGT"[(next() >> 20) as usize % 4])
            .collect()
    };
    const TEXT_LENS: [usize; 12] = [0, 31, 1, 40, 64, 27, 65, 33, 0, 130, 36, 29];
    for query_len in [0usize, 1, 32, 64, 65, 150] {
        let query = sequence(query_len);
        for block_len in [0usize, 1, 3, 4, 5, 63, 64] {
            let texts: Vec<Sequence> = (0..block_len)
                .map(|i| match i % 7 {
                    // A text equal to the query, and a near copy of it.
                    2 => query.clone(),
                    5 => {
                        let mut near = query.clone();
                        near.truncate(query_len.saturating_sub(3));
                        near.extend_from_slice(b"GA");
                        near
                    }
                    _ => sequence(TEXT_LENS[(i + query_len) % TEXT_LENS.len()]),
                })
                .collect();
            let refs: Vec<&Sequence> = texts.iter().collect();
            let mut out = vec![f32::NAN; block_len];
            NormalizedLevenshtein.distance_block(&refs, &query, &mut out);
            for (i, (text, d)) in texts.iter().zip(&out).enumerate() {
                assert_eq!(
                    d.to_bits(),
                    NormalizedLevenshtein.distance(text, &query).to_bits(),
                    "|query|={query_len} block={block_len} text {i} (|text|={})",
                    text.len()
                );
            }
        }
    }
}
