//! Frozen populations and seeded selections.
//!
//! The world of a workload is one frozen population (generated from
//! [`POPULATION_SEED`], never from `--seed`): the first `n` generated
//! points are indexed, the rest form a held-out pool. `--seed` only
//! chooses which pool points are used, and in what order; the program's
//! own builders always receive [`BUILD_SEED`]. Selection and
//! fingerprinting use the harness's own generator and hash, so a change
//! to the program's RNG helpers cannot silently change the inputs —
//! and a change to its dataset generators trips the fingerprint check.

use permsearch_datasets::Generator;
use permsearch_spaces::Sequence;

/// Seed of every frozen population.
pub const POPULATION_SEED: u64 = 20_150_831;
/// Seed handed to the program's index builders and engines.
pub const BUILD_SEED: u64 = 42;
/// `--seed` when none is given; `fingerprints.json` pins the inputs at it.
pub const DEFAULT_SEED: u64 = 1;
/// Neighbours asked for by every query.
pub const K: usize = 10;

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// Streaming 64-bit FNV-1a.
#[derive(Debug, Clone, Copy)]
pub struct Fnv(u64);

impl Default for Fnv {
    fn default() -> Self {
        Self(FNV_OFFSET)
    }
}

impl Fnv {
    pub fn new() -> Self {
        Self::default()
    }

    pub fn bytes(&mut self, bytes: &[u8]) -> &mut Self {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(FNV_PRIME);
        }
        self
    }

    pub fn u32(&mut self, v: u32) -> &mut Self {
        self.bytes(&v.to_le_bytes())
    }

    pub fn u64(&mut self, v: u64) -> &mut Self {
        self.bytes(&v.to_le_bytes())
    }

    pub fn f32s(&mut self, values: &[f32]) -> &mut Self {
        for v in values {
            self.bytes(&v.to_bits().to_le_bytes());
        }
        self
    }

    pub fn finish(&self) -> u64 {
        self.0
    }
}

/// splitmix64: the harness's own generator for selections and schedules.
#[derive(Debug, Clone)]
pub struct SplitMix(u64);

impl SplitMix {
    pub fn new(seed: u64) -> Self {
        Self(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..bound` (bound > 0); the modulo bias is below 2^-40
    /// for every bound the harness uses.
    pub fn below(&mut self, bound: usize) -> usize {
        (self.next_u64() % bound as u64) as usize
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i + 1));
        }
    }
}

/// `take` distinct indices of `0..pool`, in seeded order.
pub fn select(pool: usize, take: usize, seed: u64, salt: u64) -> Vec<u32> {
    assert!(take <= pool, "cannot take {take} of a pool of {pool}");
    let mut all: Vec<u32> = (0..pool as u32).collect();
    SplitMix::new(seed ^ salt).shuffle(&mut all);
    all.truncate(take);
    all
}

/// Fingerprint of a selection (indices in order).
pub fn fingerprint_indices(indices: &[u32]) -> u64 {
    let mut h = Fnv::new();
    for &i in indices {
        h.u32(i);
    }
    h.finish()
}

/// A frozen dense population: `indexed` is what the program indexes,
/// `pool` is held out.
pub struct DenseWorld {
    pub indexed: Vec<Vec<f32>>,
    pub pool: Vec<Vec<f32>>,
    pub fingerprint: u64,
}

/// The sift-like population of `n` indexed and `pool` held-out points.
pub fn sift_world(n: usize, pool: usize) -> DenseWorld {
    let mut all = permsearch_datasets::sift_like().generate(n + pool, POPULATION_SEED);
    let mut h = Fnv::new();
    for p in &all {
        h.f32s(p);
    }
    let held = all.split_off(n);
    DenseWorld {
        indexed: all,
        pool: held,
        fingerprint: h.finish(),
    }
}

/// A frozen sequence population.
pub struct DnaWorld {
    pub indexed: Vec<Sequence>,
    pub pool: Vec<Sequence>,
    pub fingerprint: u64,
}

/// The dna-like population of `n` indexed and `pool` held-out sequences.
pub fn dna_world(n: usize, pool: usize) -> DnaWorld {
    let mut all = permsearch_datasets::dna_like().generate(n + pool, POPULATION_SEED);
    let mut h = Fnv::new();
    for s in &all {
        h.u32(s.len() as u32).bytes(s);
    }
    let held = all.split_off(n);
    DnaWorld {
        indexed: all,
        pool: held,
        fingerprint: h.finish(),
    }
}

/// Pool points named by `indices`, cloned in that order.
pub fn pick<P: Clone>(pool: &[P], indices: &[u32]) -> Vec<P> {
    indices.iter().map(|&i| pool[i as usize].clone()).collect()
}
