//! Dense-vector spaces: `L2` and `L1`.
//!
//! The paper compares raw CoPhIR (282-d) and SIFT (128-d) descriptors with
//! an SIMD-optimized `L2`. We write the kernels as simple indexed loops over
//! fixed-size chunks, which LLVM auto-vectorizes for the target's baseline
//! instruction set — SSE2 on x86-64, since nothing in this repository sets
//! `target-cpu` or any other codegen flag; the relative costs across
//! spaces — the property the experiments depend on — are preserved either
//! way.

use permsearch_core::{FlatAccess, QuantizedView, Space};

/// A dense vector point. All vectors in one dataset must share length.
///
/// The spaces themselves are implemented over the *borrowed* form `[f32]`
/// (`Space<[f32]>`), so they score borrowed arena rows and owned vectors
/// alike — `&Vec<f32>` coerces to `&[f32]` at every call site.
pub type DenseVector = Vec<f32>;

/// The Euclidean distance `sqrt(Σ (x_i - y_i)^2)`.
#[derive(Debug, Clone, Copy, Default)]
pub struct L2;

/// Squared-difference accumulation, split into four independent partial sums
/// so the compiler can keep four vector accumulators in flight.
#[inline]
pub(crate) fn squared_l2(x: &[f32], y: &[f32]) -> f32 {
    debug_assert_eq!(x.len(), y.len(), "dimension mismatch");
    // `chunks_exact` instead of manual indexing: the compiler proves every
    // access in-bounds, so the loop vectorizes without checks. The
    // additions happen in exactly the order of the classic indexed loop —
    // results are bitwise unchanged.
    let mut acc = [0.0f32; 4];
    let mut cx = x.chunks_exact(4);
    let mut cy = y.chunks_exact(4);
    for (a, b) in (&mut cx).zip(&mut cy) {
        for lane in 0..4 {
            let d = a[lane] - b[lane];
            acc[lane] += d * d;
        }
    }
    let mut sum = acc[0] + acc[1] + acc[2] + acc[3];
    for (a, b) in cx.remainder().iter().zip(cy.remainder()) {
        let d = a - b;
        sum += d * d;
    }
    sum
}

/// Absolute-difference accumulation with the same 4-lane,
/// `chunks_exact`-addressed layout as [`squared_l2`] (the shared row
/// kernel of `L1::distance` and the batched L1 kernels).
#[inline]
pub(crate) fn l1_sum(x: &[f32], y: &[f32]) -> f32 {
    debug_assert_eq!(x.len(), y.len(), "dimension mismatch");
    let mut acc = [0.0f32; 4];
    let mut cx = x.chunks_exact(4);
    let mut cy = y.chunks_exact(4);
    for (a, b) in (&mut cx).zip(&mut cy) {
        for lane in 0..4 {
            acc[lane] += (a[lane] - b[lane]).abs();
        }
    }
    let mut sum = acc[0] + acc[1] + acc[2] + acc[3];
    for (a, b) in cx.remainder().iter().zip(cy.remainder()) {
        sum += (a - b).abs();
    }
    sum
}

impl Space<[f32]> for L2 {
    fn distance(&self, x: &[f32], y: &[f32]) -> f32 {
        squared_l2(x, y).sqrt()
    }
    fn distance_block(&self, xs: &[&[f32]], y: &[f32], out: &mut [f32]) {
        crate::batch::l2_block(xs, y, out)
    }
    fn supports_flat(&self) -> bool {
        true
    }
    fn distance_block_flat(&self, flat: &FlatAccess, ids: &[u32], y: &[f32], out: &mut [f32]) {
        crate::batch::l2_flat_ids(flat.data(), flat.dim(), ids, y, out)
    }
    fn supports_quantized(&self) -> bool {
        true
    }
    fn distance_block_quantized(
        &self,
        quant: &QuantizedView,
        ids: &[u32],
        y: &[f32],
        out: &mut [f32],
    ) {
        crate::batch::l2_quant_ids(quant, ids, y, out)
    }
    fn name(&self) -> &'static str {
        "L2"
    }
}

/// The Manhattan distance `Σ |x_i - y_i|`.
///
/// Used for the NAPP comparison against Chávez et al. on normalized CoPhIR
/// descriptors under `L1` (paper §3.2).
#[derive(Debug, Clone, Copy, Default)]
pub struct L1;

impl Space<[f32]> for L1 {
    fn distance(&self, x: &[f32], y: &[f32]) -> f32 {
        l1_sum(x, y)
    }
    fn distance_block(&self, xs: &[&[f32]], y: &[f32], out: &mut [f32]) {
        crate::batch::l1_block(xs, y, out)
    }
    fn supports_flat(&self) -> bool {
        true
    }
    fn distance_block_flat(&self, flat: &FlatAccess, ids: &[u32], y: &[f32], out: &mut [f32]) {
        crate::batch::l1_flat_ids(flat.data(), flat.dim(), ids, y, out)
    }
    // No quantized kernel: per-dim SQ8 rounding biases |x̂ - y| upward in a
    // way that reorders close L1 candidates far more than L2, so L1 filter
    // stages bypass the quantized tier.
    fn name(&self) -> &'static str {
        "L1"
    }
}

/// Cosine distance `1 − ⟨x, y⟩ / (|x| |y|)` over dense vectors.
///
/// The paper's cosine space is sparse ([`crate::CosineDistance`]); this
/// dense variant gives dense embedding workloads the same dissimilarity and
/// serves as the scalar reference of the batched
/// [`cosine_flat`](crate::batch::cosine_flat) kernel. A zero vector has no
/// direction: its distance is defined as 1 to any non-zero vector and 0 to
/// another zero vector.
#[derive(Debug, Clone, Copy, Default)]
pub struct DenseCosine;

/// Shared row kernel of [`DenseCosine`] and the batched cosine kernels:
/// one pass accumulating the dot product and both squared norms.
#[inline]
pub(crate) fn cosine_row(x: &[f32], y: &[f32]) -> f32 {
    debug_assert_eq!(x.len(), y.len(), "dimension mismatch");
    let mut dot = 0.0f32;
    let mut nx = 0.0f32;
    let mut ny = 0.0f32;
    for (&a, &b) in x.iter().zip(y) {
        dot += a * b;
        nx += a * a;
        ny += b * b;
    }
    if nx == 0.0 || ny == 0.0 {
        return if nx == ny { 0.0 } else { 1.0 };
    }
    // Clamp float noise into the cosine distance's [0, 2] range.
    (1.0 - dot / (nx.sqrt() * ny.sqrt())).max(0.0)
}

impl Space<[f32]> for DenseCosine {
    fn distance(&self, x: &[f32], y: &[f32]) -> f32 {
        cosine_row(x, y)
    }
    fn distance_block(&self, xs: &[&[f32]], y: &[f32], out: &mut [f32]) {
        debug_assert_eq!(xs.len(), out.len(), "block/output length mismatch");
        for (x, o) in xs.iter().zip(out.iter_mut()) {
            *o = cosine_row(x, y);
        }
    }
    fn supports_flat(&self) -> bool {
        true
    }
    fn distance_block_flat(&self, flat: &FlatAccess, ids: &[u32], y: &[f32], out: &mut [f32]) {
        crate::batch::cosine_flat_ids(flat.data(), flat.dim(), ids, y, out)
    }
    fn supports_quantized(&self) -> bool {
        true
    }
    fn distance_block_quantized(
        &self,
        quant: &QuantizedView,
        ids: &[u32],
        y: &[f32],
        out: &mut [f32],
    ) {
        crate::batch::cosine_quant_ids(quant, ids, y, out)
    }
    fn name(&self) -> &'static str {
        "cosine-dense"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn l2_matches_reference() {
        let x = vec![1.0, 2.0, 3.0, 4.0, 5.0];
        let y = vec![2.0, 2.0, 1.0, 4.0, 8.0];
        // diff = (-1, 0, 2, 0, -3); sum sq = 1 + 4 + 9 = 14
        assert!((L2.distance(&x, &y) - 14.0f32.sqrt()).abs() < 1e-6);
        assert_eq!(L2.distance(&x, &x), 0.0);
        assert!(L2.is_symmetric());
        assert_eq!(L2.name(), "L2");
    }

    #[test]
    fn l1_matches_reference() {
        let x = vec![1.0, 2.0, 3.0, 4.0, 5.0];
        let y = vec![2.0, 2.0, 1.0, 4.0, 8.0];
        assert!((L1.distance(&x, &y) - 6.0).abs() < 1e-6);
        assert_eq!(L1.distance(&y, &y), 0.0);
        assert_eq!(L1.name(), "L1");
    }

    #[test]
    fn distances_are_symmetric() {
        let x = vec![0.5; 17];
        let mut y = x.clone();
        y[16] = -2.0;
        assert_eq!(L2.distance(&x, &y), L2.distance(&y, &x));
        assert_eq!(L1.distance(&x, &y), L1.distance(&y, &x));
    }

    #[test]
    fn handles_non_multiple_of_four_dims() {
        for dim in [1usize, 2, 3, 5, 7, 127] {
            let x: Vec<f32> = (0..dim).map(|i| i as f32).collect();
            let y: Vec<f32> = (0..dim).map(|i| (i as f32) + 1.0).collect();
            assert!((L2.distance(&x, &y) - (dim as f32).sqrt()).abs() < 1e-4);
            assert!((L1.distance(&x, &y) - dim as f32).abs() < 1e-4);
        }
    }

    #[test]
    fn empty_vectors_have_zero_distance() {
        let x: Vec<f32> = vec![];
        assert_eq!(L2.distance(&x, &x), 0.0);
        assert_eq!(L1.distance(&x, &x), 0.0);
        assert_eq!(DenseCosine.distance(&x, &x), 0.0);
    }

    #[test]
    fn dense_cosine_basics() {
        let x = vec![1.0f32, 0.0];
        let y = vec![0.0f32, 2.0];
        assert!(
            (DenseCosine.distance(&x, &y) - 1.0).abs() < 1e-6,
            "orthogonal"
        );
        assert_eq!(DenseCosine.distance(&x, &x), 0.0);
        let scaled = vec![5.0f32, 0.0];
        assert_eq!(DenseCosine.distance(&x, &scaled), 0.0, "scale invariant");
        let opposite = vec![-1.0f32, 0.0];
        assert!((DenseCosine.distance(&x, &opposite) - 2.0).abs() < 1e-6);
        // Zero vectors: no direction.
        let zero = vec![0.0f32, 0.0];
        assert_eq!(DenseCosine.distance(&zero, &x), 1.0);
        assert_eq!(DenseCosine.distance(&zero, &zero), 0.0);
        assert!(DenseCosine.is_symmetric());
        assert_eq!(DenseCosine.name(), "cosine-dense");
    }

    #[test]
    fn chunked_kernels_match_naive_reference_closely() {
        // The 4-lane kernels reassociate the sum relative to a strict
        // left-to-right reference, so allow proportional float slack; the
        // *batched* paths must then match the kernels bitwise, which the
        // kernel_equivalence suite pins.
        for dim in [0usize, 1, 3, 4, 5, 8, 17, 127] {
            let x: Vec<f32> = (0..dim).map(|i| (i as f32).sin()).collect();
            let y: Vec<f32> = (0..dim).map(|i| 0.1 * i as f32 - 0.5).collect();
            let mut naive2 = 0.0f32;
            let mut naive1 = 0.0f32;
            for i in 0..dim {
                let d = x[i] - y[i];
                naive2 += d * d;
                naive1 += d.abs();
            }
            assert!((squared_l2(&x, &y) - naive2).abs() <= 1e-4 * naive2.max(1.0));
            assert!((l1_sum(&x, &y) - naive1).abs() <= 1e-4 * naive1.max(1.0));
        }
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    fn vec_pair(dim: usize) -> impl Strategy<Value = (Vec<f32>, Vec<f32>)> {
        (
            proptest::collection::vec(-100.0f32..100.0, dim),
            proptest::collection::vec(-100.0f32..100.0, dim),
        )
    }

    proptest! {
        #[test]
        fn l2_axioms((x, y) in vec_pair(23)) {
            let d = L2.distance(&x, &y);
            prop_assert!(d >= 0.0);
            prop_assert!((d - L2.distance(&y, &x)).abs() <= 1e-3 * d.max(1.0));
            prop_assert!(L2.distance(&x, &x) == 0.0);
        }

        #[test]
        fn l1_triangle_inequality((x, y) in vec_pair(16), z in proptest::collection::vec(-100.0f32..100.0, 16)) {
            let xy = L1.distance(&x, &y);
            let xz = L1.distance(&x, &z);
            let zy = L1.distance(&z, &y);
            // allow tiny float slack
            prop_assert!(xy <= xz + zy + 1e-3);
        }

        #[test]
        fn l2_le_l1((x, y) in vec_pair(16)) {
            prop_assert!(L2.distance(&x, &y) <= L1.distance(&x, &y) + 1e-3);
        }
    }
}
