//! The reference kernel is the harness's yardstick: its work must be the
//! same in every process, bit for bit.

use permsearch_benchmark::gold::{levenshtein, squared_l2};
use permsearch_benchmark::refkernel::{RefKernel, REF_NOMINAL_US};

#[test]
fn the_reference_pass_is_bit_stable() {
    let (a, b) = (RefKernel::new(), RefKernel::new());
    let first = a.pass();
    assert_eq!(
        first.to_bits(),
        a.pass().to_bits(),
        "same kernel, same bits"
    );
    assert_eq!(
        first.to_bits(),
        b.pass().to_bits(),
        "fresh kernel, same bits"
    );
    // Pinned: a change to the generator, the shape or the summation order
    // of the kernel is a change of yardstick and must be deliberate.
    assert_eq!(
        first.to_bits(),
        PINNED_BITS,
        "pass() = {first} ({:#x})",
        first.to_bits()
    );
}

const PINNED_BITS: u32 = 0x4f27_64c8;

#[test]
fn a_sample_is_a_plausible_time() {
    let us = RefKernel::new().sample_us();
    assert!(us > 0.0 && us < 100.0 * REF_NOMINAL_US, "sample of {us} us");
    assert!((RefKernel::slowdown(REF_NOMINAL_US, REF_NOMINAL_US) - 1.0).abs() < 1e-12);
}

#[test]
fn the_harness_owned_distances_are_exact_on_small_cases() {
    assert_eq!(
        squared_l2(&[1.0, 2.0, 3.0, 4.0, 5.0], &[1.0, 0.0, 3.0, 0.0, 4.0]),
        21.0
    );
    assert_eq!(levenshtein(b"kitten", b"sitting"), 3);
    assert_eq!(levenshtein(b"", b"ACGT"), 4);
    assert_eq!(levenshtein(b"ACGT", b"ACGT"), 0);
}
