//! Normalized Levenshtein distance over byte sequences (the DNA space).
//!
//! The paper samples ~32-character DNA substrings from the human genome and
//! compares them with the *normalized* Levenshtein distance: the minimum
//! number of insertions, deletions and substitutions divided by the maximum
//! of the two lengths. The normalization makes the function non-metric, but
//! on realistic data the triangle inequality is rarely violated (paper §3.5),
//! which is why VP-tree pruning still works with a mild stretch.
//!
//! # Algorithm
//!
//! The Myers bit-vector recurrence in Hyyrö's edit-distance form. One
//! sequence is the *pattern* (rows of the DP matrix), the other the *text*
//! (columns). A DP column is never stored as numbers: adjacent cells differ
//! by −1, 0 or +1, so the column is two bit vectors — `pv` (row `i` is one
//! more than row `i − 1`) and `mv` (one less) — plus the value of its last
//! cell, `score`. Consuming one text byte turns column `j − 1` into column
//! `j` with a fixed sequence of word operations ([`advance`]); the only
//! per-byte input is `eq`, the mask of pattern rows equal to that byte.
//! Edit distance is an exact integer, so the result is the one the classic
//! dynamic program returns (the test oracle here), for sequences of any
//! length: counts are `u32`, and nothing narrower is ever held.
//!
//! # Word layout
//!
//! Pattern row `i` lives in bit `i % 64` of word `i / 64`; a pattern of `m`
//! bytes takes `⌈m / 64⌉` words. The match masks are one table per pattern,
//! `masks[c * words + w]` for byte `c` and word `w`, so the words a text
//! byte needs are contiguous. With one word (`m ≤ 64`, every DNA string of
//! the paper) the table is a `[u64; 256]` on the stack and a distance
//! touches the allocator not at all. Longer patterns chain the words of a
//! column: the horizontal difference leaving the top bit of one word
//! enters the next as its carry, and the one leaving row `m − 1` updates
//! `score`. Bits above row `m − 1` in the last word hold garbage that never
//! flows down — every operation of the recurrence moves information towards
//! higher bits only.
//!
//! # Why the table is per block
//!
//! Zeroing and filling 2 KB of masks costs about as much as scanning a
//! 32-byte text, and the table depends on the pattern alone. Every hot
//! path scores many data points against *one* query through
//! [`Space::distance_block`], so the block override makes the query the
//! pattern, builds the table once, and reuses it for every text in the
//! block. The recurrence is one serial dependency chain per text, so the
//! block also keeps **four texts in flight** with independent
//! `(pv, mv, score)` states: they advance in lockstep over their common
//! length and finish their tails one by one. Scalar [`Space::distance`]
//! runs the same kernel with a table per pair.
//!
//! # Cost
//!
//! About twenty word operations and one table load per text byte per
//! pattern word, against one DP column (`m` min-of-three cells) before. On ~32-byte ACGT strings that
//! is ≈60 ns a distance inside a block and ≈140 ns per pair, where the
//! two-row DP took ≈1600 ns.

use permsearch_core::Space;

use crate::PointSize;

/// A byte sequence point (DNA strings use the alphabet `ACGT`).
pub type Sequence = Vec<u8>;

/// Pattern rows per word of a bit-vector column.
const WORD: usize = 64;

/// Advance one word of a column by one text byte.
///
/// `eq` marks the word's pattern rows equal to the byte; `ph_in`/`mh_in`
/// (each 0 or 1, never both 1) say whether the cell just below the word's
/// lowest row grew or shrank by one from the previous column. Returns the
/// same pair for row `top` of this word.
#[inline(always)]
fn advance(pv: &mut u64, mv: &mut u64, eq: u64, ph_in: u64, mh_in: u64, top: u32) -> (u64, u64) {
    let xv = eq | *mv;
    let eq = eq | mh_in;
    let xh = ((eq & *pv).wrapping_add(*pv) ^ *pv) | eq;
    let ph = *mv | !(xh | *pv);
    let mh = *pv & xh;
    let out = ((ph >> top) & 1, (mh >> top) & 1);
    let ph = (ph << 1) | ph_in;
    let mh = (mh << 1) | mh_in;
    *pv = mh | !(xv | ph);
    *mv = ph & xv;
    out
}

/// The column of a pattern that fits one word, with its last cell's value.
#[derive(Clone, Copy)]
struct Column {
    pv: u64,
    mv: u64,
    score: u32,
}

impl Column {
    /// Column 0 of the matrix: cell `i` holds `i`.
    fn first(rows: u32) -> Self {
        Self {
            pv: !0,
            mv: 0,
            score: rows,
        }
    }

    /// Row 0 of the matrix grows by one per column, hence the carry-in.
    #[inline(always)]
    fn step(&mut self, eq: u64, top: u32) {
        let (up, down) = advance(&mut self.pv, &mut self.mv, eq, 1, 0, top);
        self.score = self.score + up as u32 - down as u32;
    }
}

/// The match masks of one pattern (see the module header for the layout).
// The large variant is the hot one, and holding it inline is the point: a
// one-word pattern lives on the stack and never touches the allocator.
#[allow(clippy::large_enum_variant)]
enum Masks {
    /// The empty pattern: the distance is the text's length.
    Empty,
    /// At most [`WORD`] rows: one mask per byte value, no heap.
    Word([u64; 256]),
    /// `words > 1` masks per byte value, and the column they advance — kept
    /// here so that a block of texts shares one allocation.
    Words {
        masks: Vec<u64>,
        column: Vec<(u64, u64)>,
    },
}

/// One side of the distance, preprocessed to be scored against many texts.
struct Pattern {
    rows: u32,
    /// Bit of the last row within its word (unused by the empty pattern).
    top: u32,
    masks: Masks,
}

impl Pattern {
    fn new(pattern: &[u8]) -> Self {
        let words = pattern.len().div_ceil(WORD);
        let masks = match words {
            0 => Masks::Empty,
            1 => {
                let mut masks = [0u64; 256];
                for (row, &c) in pattern.iter().enumerate() {
                    masks[c as usize] |= 1 << row;
                }
                Masks::Word(masks)
            }
            _ => {
                let mut masks = vec![0u64; 256 * words];
                for (row, &c) in pattern.iter().enumerate() {
                    masks[c as usize * words + row / WORD] |= 1 << (row % WORD);
                }
                Masks::Words {
                    masks,
                    column: vec![(0, 0); words],
                }
            }
        };
        Self {
            rows: pattern.len() as u32,
            top: (pattern.len().saturating_sub(1) % WORD) as u32,
            masks,
        }
    }

    /// Edit distance from the pattern to `text`.
    fn distance(&mut self, text: &[u8]) -> u32 {
        let (rows, top) = (self.rows, self.top);
        match &mut self.masks {
            Masks::Empty => text.len() as u32,
            Masks::Word(masks) => {
                let mut col = Column::first(rows);
                for &c in text {
                    col.step(masks[c as usize], top);
                }
                col.score
            }
            Masks::Words { masks, column } => {
                let words = column.len();
                column.fill((!0, 0));
                let mut score = rows;
                for &c in text {
                    let eqs = &masks[c as usize * words..][..words];
                    let (mut up, mut down) = (1, 0);
                    for ((pv, mv), &eq) in column[..words - 1].iter_mut().zip(eqs) {
                        (up, down) = advance(pv, mv, eq, up, down, WORD as u32 - 1);
                    }
                    let (pv, mv) = &mut column[words - 1];
                    (up, down) = advance(pv, mv, eqs[words - 1], up, down, top);
                    score = score + up as u32 - down as u32;
                }
                score
            }
        }
    }

    /// [`distance`](Self::distance) to four texts at once. A one-word
    /// pattern advances the four columns in lockstep over the texts'
    /// common length — four independent dependency chains for the CPU to
    /// overlap — and then finishes each tail on its own.
    fn distance4(&mut self, texts: [&[u8]; 4]) -> [u32; 4] {
        let Masks::Word(masks) = &self.masks else {
            return texts.map(|t| self.distance(t));
        };
        let top = self.top;
        let mut cols = [Column::first(self.rows); 4];
        let common = texts.iter().map(|t| t.len()).min().unwrap_or(0);
        let heads = texts.map(|t| &t[..common]);
        for i in 0..common {
            for (col, head) in cols.iter_mut().zip(heads) {
                col.step(masks[head[i] as usize], top);
            }
        }
        for (col, text) in cols.iter_mut().zip(texts) {
            for &c in &text[common..] {
                col.step(masks[c as usize], top);
            }
        }
        cols.map(|col| col.score)
    }
}

/// Plain (unnormalized) edit distance between two byte slices, exact for
/// any length.
pub fn levenshtein(x: &[u8], y: &[u8]) -> u32 {
    // Work is ⌈rows / 64⌉ · columns: the shorter side makes the pattern.
    let (pattern, text) = if x.len() <= y.len() { (x, y) } else { (y, x) };
    Pattern::new(pattern).distance(text)
}

/// `edits / max(|x|, |y|)`, with two empty sequences at distance zero.
fn normalized(edits: u32, x_len: usize, y_len: usize) -> f32 {
    match x_len.max(y_len) {
        0 => 0.0,
        max_len => edits as f32 / max_len as f32,
    }
}

/// The normalized Levenshtein distance
/// `lev(x, y) / max(|x|, |y|)`, in `[0, 1]`.
#[derive(Debug, Clone, Copy, Default)]
pub struct NormalizedLevenshtein;

impl Space<Sequence> for NormalizedLevenshtein {
    fn distance(&self, x: &Sequence, y: &Sequence) -> f32 {
        normalized(levenshtein(x, y), x.len(), y.len())
    }

    /// One mask table from the shared query `y`, four texts in flight.
    fn distance_block(&self, xs: &[&Sequence], y: &Sequence, out: &mut [f32]) {
        debug_assert_eq!(xs.len(), out.len(), "block/output length mismatch");
        let mut pattern = Pattern::new(y);
        let mut quads = xs.chunks_exact(4);
        let mut outs = out.chunks_exact_mut(4);
        for (quad, o) in (&mut quads).zip(&mut outs) {
            let edits = pattern.distance4([quad[0], quad[1], quad[2], quad[3]]);
            for lane in 0..4 {
                o[lane] = normalized(edits[lane], quad[lane].len(), y.len());
            }
        }
        for (x, o) in quads.remainder().iter().zip(outs.into_remainder()) {
            *o = normalized(pattern.distance(x), x.len(), y.len());
        }
    }

    fn name(&self) -> &'static str {
        "norm-Levenshtein"
    }
}

impl PointSize for Sequence {
    fn point_size_bytes(&self) -> usize {
        std::mem::size_of::<Sequence>() + self.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The classic dynamic program over the full matrix: slow, obviously
    /// correct, and the only DP left — the oracle for the bit-vector kernel.
    pub(super) fn reference(x: &[u8], y: &[u8]) -> u32 {
        let mut dp = vec![vec![0u32; y.len() + 1]; x.len() + 1];
        for (i, row) in dp.iter_mut().enumerate() {
            row[0] = i as u32;
        }
        for (j, cell) in dp[0].iter_mut().enumerate() {
            *cell = j as u32;
        }
        for i in 1..=x.len() {
            for j in 1..=y.len() {
                let sub = dp[i - 1][j - 1] + u32::from(x[i - 1] != y[j - 1]);
                dp[i][j] = sub.min(dp[i - 1][j] + 1).min(dp[i][j - 1] + 1);
            }
        }
        dp[x.len()][y.len()]
    }

    #[test]
    fn classic_cases() {
        assert_eq!(levenshtein(b"kitten", b"sitting"), 3);
        assert_eq!(levenshtein(b"flaw", b"lawn"), 2);
        assert_eq!(levenshtein(b"", b"abc"), 3);
        assert_eq!(levenshtein(b"abc", b""), 3);
        assert_eq!(levenshtein(b"", b""), 0);
        assert_eq!(levenshtein(b"ACGT", b"ACGT"), 0);
    }

    #[test]
    fn single_edit_operations() {
        assert_eq!(levenshtein(b"ACGT", b"AGGT"), 1); // substitution
        assert_eq!(levenshtein(b"ACGT", b"ACGTT"), 1); // insertion
        assert_eq!(levenshtein(b"ACGT", b"AGT"), 1); // deletion
    }

    #[test]
    fn normalized_in_unit_interval() {
        let d = NormalizedLevenshtein.distance(&b"AAAA".to_vec(), &b"TTTTTTTT".to_vec());
        assert!((d - 1.0).abs() < 1e-6); // 8 edits / max len 8
        assert_eq!(
            NormalizedLevenshtein.distance(&Vec::new(), &Vec::new()),
            0.0
        );
        assert_eq!(NormalizedLevenshtein.name(), "norm-Levenshtein");
    }

    #[test]
    fn symmetric_regardless_of_argument_order() {
        let a = b"GATTACA".to_vec();
        let b = b"GCATGCU".to_vec();
        assert_eq!(
            NormalizedLevenshtein.distance(&a, &b),
            NormalizedLevenshtein.distance(&b, &a)
        );
    }

    /// A related pair of the given lengths: `y` is `x` cut or extended to
    /// its own length, with every seventh byte changed.
    fn related_pair(x_len: usize, y_len: usize) -> (Vec<u8>, Vec<u8>) {
        let byte = |i: usize| b"ACGT"[(i * 7 + i / 5) % 4];
        let x: Vec<u8> = (0..x_len).map(byte).collect();
        let y: Vec<u8> = (0..y_len)
            .map(|i| if i % 7 == 3 { b'N' } else { byte(i + 1) })
            .collect();
        (x, y)
    }

    #[test]
    fn word_boundaries_on_either_side_match_the_oracle() {
        const LENS: [usize; 8] = [0, 1, 63, 64, 65, 127, 128, 129];
        for x_len in LENS {
            for y_len in LENS {
                let (x, y) = related_pair(x_len, y_len);
                let want = reference(&x, &y);
                assert_eq!(levenshtein(&x, &y), want, "|x|={x_len} |y|={y_len}");
                // Either side as the pattern, not only the shorter one.
                assert_eq!(Pattern::new(&x).distance(&y), want, "pattern |x|={x_len}");
                assert_eq!(Pattern::new(&y).distance(&x), want, "pattern |y|={y_len}");
                assert_eq!(levenshtein(&x, &x), 0);
            }
        }
    }

    /// The `u16` cost row this kernel replaced wrapped (release) or panicked
    /// (debug) from 65 535 bytes on; counts are `u32` now.
    #[test]
    fn exact_past_65535_bytes() {
        let n = usize::from(u16::MAX) + 65;
        let x = vec![b'A'; n];
        // Nothing matches: every byte of the longer side is one edit.
        assert_eq!(levenshtein(&x, &vec![b'C'; n - 2]), n as u32);
        // All but three bytes match: each stray `C` costs a substitution,
        // and the two missing bytes an insertion each.
        let mut y = vec![b'A'; n - 2];
        for at in [10, 40_000, n - 3] {
            y[at] = b'C';
        }
        assert_eq!(levenshtein(&x, &y), 5);
    }
}

#[cfg(test)]
mod proptests {
    use super::tests::reference;
    use super::*;
    use proptest::prelude::*;

    /// Up to `max_len` bytes over an alphabet of 2, 4 or all 256 values,
    /// spread over the whole byte range so both ends of the mask table are
    /// used; the narrow alphabets make related strings, the wide one
    /// unrelated ones.
    fn bytes(max_len: usize) -> impl Strategy<Value = Vec<u8>> {
        (
            proptest::sample::select(vec![2u16, 4, 256]),
            proptest::collection::vec(any::<u8>(), 0..max_len),
        )
            .prop_map(|(width, raw)| {
                let spread = (255 / (width - 1)) as u8;
                raw.into_iter()
                    .map(|b| (u16::from(b) % width) as u8 * spread)
                    .collect()
            })
    }

    proptest! {
        #[test]
        fn matches_reference_dp(x in bytes(200), y in bytes(200)) {
            prop_assert_eq!(levenshtein(&x, &y), reference(&x, &y));
        }

        #[test]
        fn either_side_can_be_the_pattern(x in bytes(200), y in bytes(200)) {
            let want = reference(&x, &y);
            prop_assert_eq!(Pattern::new(&x).distance(&y), want);
            prop_assert_eq!(Pattern::new(&y).distance(&x), want);
        }

        #[test]
        fn bounded_by_length_difference_and_max_len(x in bytes(200), y in bytes(200)) {
            let d = levenshtein(&x, &y);
            prop_assert!(d as usize >= x.len().abs_diff(y.len()));
            prop_assert!(d as usize <= x.len().max(y.len()));
        }

        #[test]
        fn symmetric(x in bytes(200), y in bytes(200)) {
            prop_assert_eq!(levenshtein(&x, &y), levenshtein(&y, &x));
        }

        #[test]
        fn unnormalized_triangle_inequality(x in bytes(200), y in bytes(200), z in bytes(200)) {
            // Plain Levenshtein IS a metric; the normalized variant only
            // approximately satisfies the triangle inequality.
            prop_assert!(levenshtein(&x, &y) <= levenshtein(&x, &z) + levenshtein(&z, &y));
        }
    }
}
