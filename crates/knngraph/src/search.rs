//! Best-first greedy search over a proximity graph (Malkov et al.).
//!
//! Each restart begins at a random entry node and runs a best-first
//! expansion: the closest unexpanded candidate is popped; if it is farther
//! than the current k-th result the attempt terminates (the "extended
//! neighborhood" stopping rule); otherwise its graph neighbors are scored
//! and enqueued. Multiple restarts lower the chance of being trapped in a
//! local minimum, at a linear cost in search time.

use std::cmp::Reverse;

use rand::Rng;

use permsearch_core::rng::seeded_rng;
use permsearch_core::{Dataset, Neighbor, Point, SearchScratch, Space, Stage};

/// Best-first k-NN search over `adjacency`, written into `out`.
///
/// * `attempts` — number of random restarts;
/// * `ef` — result-pool width: the expansion keeps going while candidates
///   are closer than the `ef`-th best seen so far (`ef ≥ k`; larger values
///   trade speed for recall).
///
/// The result pool, frontier heap and visited set live in `scratch` and are
/// reused across queries (the visited set resets in `O(1)` via an epoch
/// bump instead of zeroing `n` booleans). Distances along the traversal
/// stay scalar by design — each expansion depends on the previous one's
/// result, so there is no candidate block to batch.
#[allow(clippy::too_many_arguments)]
pub fn greedy_search_with<P: Point, S: Space<P::Ref>>(
    data: &Dataset<P>,
    space: &S,
    adjacency: &[Vec<u32>],
    query: &P::Ref,
    k: usize,
    attempts: usize,
    ef: usize,
    seed: u64,
    scratch: &mut SearchScratch,
    out: &mut Vec<Neighbor>,
) {
    out.clear();
    let n = data.len();
    if n == 0 {
        return;
    }
    let ef = ef.max(k);
    let mut rng = seeded_rng(seed);
    // Pool of the ef best results across all attempts; the final answer is
    // its k best.
    scratch.heap.reset(ef);
    scratch.visited.reset(n);
    let SearchScratch {
        heap: pool,
        visited,
        frontier: candidates,
        trace,
        ..
    } = scratch;

    // The whole traversal is candidate generation: Filter. Each visited
    // node costs exactly one scalar distance, so the per-stage distance
    // tally doubles as the expansion count.
    let t0 = trace.start();
    for _ in 0..attempts.max(1) {
        let entry = rng.gen_range(0..n) as u32;
        if !visited.insert(entry) {
            continue;
        }
        trace.add_dists(Stage::Filter, 1);
        trace.add_candidates(1);
        let d = space.distance(data.get(entry), query);
        pool.push(entry, d);
        // Min-heap of candidates to expand.
        candidates.clear();
        candidates.push(Reverse(Neighbor::new(entry, d)));
        while let Some(Reverse(current)) = candidates.pop() {
            if pool.is_full() && current.dist > pool.radius() {
                break;
            }
            for &nb in &adjacency[current.id as usize] {
                if !visited.insert(nb) {
                    continue;
                }
                trace.add_dists(Stage::Filter, 1);
                trace.add_candidates(1);
                let d = space.distance(data.get(nb), query);
                // Enqueue for expansion only if it could improve the pool.
                if !pool.is_full() || d < pool.radius() {
                    candidates.push(Reverse(Neighbor::new(nb, d)));
                }
                pool.push(nb, d);
            }
        }
    }
    trace.finish(Stage::Filter, t0);
    pool.drain_sorted_into(out);
    out.truncate(k);
}

#[cfg(test)]
mod tests {
    use super::*;
    use permsearch_spaces::L2;

    fn traverse(
        data: &Dataset<Vec<f32>>,
        adjacency: &[Vec<u32>],
        query: f32,
        k: usize,
        attempts: usize,
        ef: usize,
        seed: u64,
    ) -> Vec<Neighbor> {
        let mut out = Vec::new();
        greedy_search_with(
            data,
            &L2,
            adjacency,
            &[query],
            k,
            attempts,
            ef,
            seed,
            &mut SearchScratch::new(),
            &mut out,
        );
        out
    }

    /// A 1-d line graph 0-1-2-...-9 with points at integer coordinates:
    /// greedy search must walk to the true nearest neighbor.
    #[test]
    fn walks_a_line_graph() {
        let data = Dataset::new((0..10).map(|i| vec![i as f32]).collect::<Vec<_>>());
        let adjacency: Vec<Vec<u32>> = (0..10u32)
            .map(|i| {
                let mut nb = Vec::new();
                if i > 0 {
                    nb.push(i - 1);
                }
                if i < 9 {
                    nb.push(i + 1);
                }
                nb
            })
            .collect();
        let res = traverse(&data, &adjacency, 6.4, 2, 3, 4, 1);
        assert_eq!(res[0].id, 6);
        assert_eq!(res[1].id, 7);
    }

    #[test]
    fn empty_graph_returns_nothing() {
        let data: Dataset<Vec<f32>> = Dataset::default();
        let res = traverse(&data, &[], 0.0, 5, 2, 8, 0);
        assert!(res.is_empty());
    }

    #[test]
    fn disconnected_components_need_restarts() {
        // Two clusters with no edges between them; with many attempts the
        // search must reach the right component eventually.
        let mut pts: Vec<Vec<f32>> = (0..5).map(|i| vec![i as f32 * 0.01]).collect();
        pts.extend((0..5).map(|i| vec![100.0 + i as f32 * 0.01]));
        let data = Dataset::new(pts);
        let adjacency: Vec<Vec<u32>> = (0..10u32)
            .map(|i| {
                let base = if i < 5 { 0..5u32 } else { 5..10u32 };
                base.filter(|&j| j != i).collect()
            })
            .collect();
        let res = traverse(&data, &adjacency, 100.02, 1, 10, 4, 7);
        assert_eq!(res[0].id, 7, "must find the far component");
    }
}
