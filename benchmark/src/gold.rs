//! Exact answers computed by the harness itself.
//!
//! Gold does not go through the program's distance kernels or its
//! exhaustive search: a change that breaks a kernel must not move the
//! truth along with the answers. Distances here are plain scalar code;
//! ties are broken by the smaller id.

use crate::inputs::K;

/// Squared Euclidean distance, four scalar lanes in a fixed order (the
/// reference kernel's arithmetic).
pub fn squared_l2(a: &[f32], b: &[f32]) -> f32 {
    let mut acc = [0.0f32; 4];
    let mut chunks_a = a.chunks_exact(4);
    let mut chunks_b = b.chunks_exact(4);
    for (a4, b4) in (&mut chunks_a).zip(&mut chunks_b) {
        for lane in 0..4 {
            let d = a4[lane] - b4[lane];
            acc[lane] += d * d;
        }
    }
    let mut total = (acc[0] + acc[1]) + (acc[2] + acc[3]);
    for (x, y) in chunks_a.remainder().iter().zip(chunks_b.remainder()) {
        total += (x - y) * (x - y);
    }
    total
}

/// Levenshtein distance over bytes (two-row dynamic programme).
pub fn levenshtein(a: &[u8], b: &[u8]) -> u32 {
    let mut prev: Vec<u32> = (0..=b.len() as u32).collect();
    let mut curr = vec![0u32; b.len() + 1];
    for (i, &ca) in a.iter().enumerate() {
        curr[0] = i as u32 + 1;
        for (j, &cb) in b.iter().enumerate() {
            let sub = prev[j] + u32::from(ca != cb);
            curr[j + 1] = sub.min(prev[j + 1] + 1).min(curr[j] + 1);
        }
        std::mem::swap(&mut prev, &mut curr);
    }
    prev[b.len()]
}

/// Levenshtein distance over the longer length, as the program's
/// `NormalizedLevenshtein` defines it.
pub fn normalized_levenshtein(a: &[u8], b: &[u8]) -> f32 {
    match a.len().max(b.len()) {
        0 => 0.0,
        longest => levenshtein(a, b) as f32 / longest as f32,
    }
}

/// Ids of the `K` nearest `points` of one query (ids are positions in
/// `points` mapped through `id_of`).
fn nearest<P>(
    points: &[P],
    id_of: &(impl Fn(usize) -> u32 + Sync),
    query: &P,
    dist: &(impl Fn(&P, &P) -> f32 + Sync),
) -> Vec<u32> {
    let mut scored: Vec<(f32, u32)> = points
        .iter()
        .enumerate()
        .map(|(i, p)| (dist(p, query), id_of(i)))
        .collect();
    let k = K.min(scored.len());
    if k == 0 {
        return Vec::new();
    }
    let order = |a: &(f32, u32), b: &(f32, u32)| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1));
    scored.select_nth_unstable_by(k - 1, order);
    scored.truncate(k);
    scored.sort_unstable_by(order);
    scored.into_iter().map(|(_, id)| id).collect()
}

/// Exact `K` nearest ids of every query over `points`, fanned out over
/// the available cores. `id_of` maps a position in `points` to the id the
/// program reports for it (identity for a frozen index, the surviving
/// global ids after churn).
pub fn exact_ids<P: Sync>(
    points: &[P],
    id_of: impl Fn(usize) -> u32 + Sync,
    queries: &[P],
    dist: impl Fn(&P, &P) -> f32 + Sync,
) -> Vec<Vec<u32>> {
    let threads = std::thread::available_parallelism()
        .map_or(1, |n| n.get())
        .clamp(1, queries.len().max(1));
    let chunk = queries.len().div_ceil(threads).max(1);
    let mut out: Vec<Vec<u32>> = vec![Vec::new(); queries.len()];
    std::thread::scope(|scope| {
        for (qs, slots) in queries.chunks(chunk).zip(out.chunks_mut(chunk)) {
            let (id_of, dist) = (&id_of, &dist);
            scope.spawn(move || {
                for (q, slot) in qs.iter().zip(slots) {
                    *slot = nearest(points, id_of, q, dist);
                }
            });
        }
    });
    out
}

/// Share of `truth` ids present in `answer_ids`.
pub fn recall_ids(answer_ids: impl Iterator<Item = u32> + Clone, truth: &[u32]) -> f64 {
    if truth.is_empty() {
        return 1.0;
    }
    let hits = truth
        .iter()
        .filter(|&&t| answer_ids.clone().any(|a| a == t))
        .count();
    hits as f64 / truth.len() as f64
}
