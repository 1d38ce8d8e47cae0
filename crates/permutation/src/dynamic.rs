//! Dynamic (insert/delete) NAPP index.
//!
//! Paper §3.5 argues a key practical advantage of inverted-file
//! permutation methods: "indexes based on the inverted files are database
//! friendly, because they require neither complex data structures nor many
//! random accesses. Furthermore, deletion and addition of records can be
//! easily implemented. In that, it is rather challenging to implement a
//! dynamic version of the VP-tree."
//!
//! [`DynamicNapp`] makes that claim concrete: it owns its point storage,
//! supports `insert` (append the id to the posting lists of the point's
//! `mi` closest pivots) and `remove` (tombstone; postings are filtered at
//! query time and reclaimed by [`compact`](DynamicNapp::compact)), while
//! answering the same filter-and-refine queries as the static
//! [`Napp`](crate::Napp). It also implements the engine-facing
//! [`MutableIndex`] trait, which is what the generational serving layer
//! stores for its delta shard and frozen segments.
//!
//! ## Accounting invariants (pinned by the unit tests below)
//!
//! * `indexed[id]` is the number of posting entries id currently holds;
//!   it is charged to `garbage` exactly once, at remove time, and zeroed
//!   there — so double-removes and removes interleaved with `compact`
//!   can neither double-charge nor leak.
//! * Posting lists are strictly increasing: ids are assigned
//!   monotonically and each insert appends to each touched list at most
//!   once, so a duplicate id in a list is impossible by construction
//!   (and rejected as corrupt by the snapshot reader).
//! * `insert` mutates no index state before the point slot exists, so a
//!   panicking distance function cannot leave a posting entry pointing
//!   at a missing slot (which would make the ScanCount counter array
//!   index out of bounds).

use permsearch_core::{
    BoxedMutableIndex, MutableIndex, Neighbor, Point, PointCodec, SearchIndex, SearchScratch,
    Snapshot, SnapshotError, Space,
};

use crate::napp::NappParams;
use crate::perm::{compute_ranks, compute_ranks_into};

/// A NAPP index supporting online insertion and deletion.
pub struct DynamicNapp<P, S> {
    pub(crate) space: S,
    pub(crate) pivots: Vec<P>,
    /// Tombstoned storage: `None` = deleted.
    pub(crate) points: Vec<Option<P>>,
    pub(crate) live: usize,
    /// `postings[p]` holds ids (possibly tombstoned until compaction),
    /// strictly increasing within each list.
    pub(crate) postings: Vec<Vec<u32>>,
    /// Posting entries currently held per id; zeroed when the id's
    /// entries are charged to `garbage` (remove) so they can never be
    /// charged twice.
    pub(crate) indexed: Vec<u16>,
    /// Dead ids still present in posting lists.
    pub(crate) garbage: usize,
    pub(crate) params: NappParams,
}

impl<P, S> DynamicNapp<P, S>
where
    P: Point + Clone,
    S: Space<P::Ref>,
{
    /// Create an empty index over a fixed pivot set.
    ///
    /// Unlike the static builder, pivots are supplied by the caller (e.g.
    /// sampled from a bootstrap collection or a previous index epoch):
    /// with no data yet, there is nothing to sample from.
    pub fn new(space: S, pivots: Vec<P>, params: NappParams) -> Self {
        assert!(!pivots.is_empty(), "need at least one pivot");
        assert!(
            params.num_indexed > 0 && params.num_indexed <= pivots.len(),
            "num_indexed must be in 1..=pivots.len()"
        );
        assert!(
            params.num_indexed <= u16::MAX as usize,
            "num_indexed must fit the per-id entry counter"
        );
        let m = pivots.len();
        Self {
            space,
            pivots,
            points: Vec::new(),
            live: 0,
            postings: vec![Vec::new(); m],
            indexed: Vec::new(),
            garbage: 0,
            params,
        }
    }

    /// Insert a point, returning its id. `O(m log m)` for the permutation
    /// plus `mi` posting appends — no global rebuild.
    pub fn insert(&mut self, point: P) -> u32 {
        let id = self.points.len() as u32;
        assert!(id < u32::MAX, "id space exhausted");
        // Ranks first: a panicking distance function leaves the index
        // untouched rather than with postings referencing a missing slot.
        let ranks = compute_ranks(&self.space, &self.pivots, point.point_ref());
        self.points.push(Some(point));
        let mi = self.params.num_indexed;
        let mut entries: u16 = 0;
        for (pivot, &r) in ranks.iter().enumerate() {
            if (r as usize) < mi {
                let list = &mut self.postings[pivot];
                debug_assert!(
                    list.last().copied() < Some(id),
                    "posting lists must stay strictly increasing"
                );
                list.push(id);
                entries += 1;
            }
        }
        self.indexed.push(entries);
        self.live += 1;
        id
    }

    /// Delete a point by id. Returns `false` when the id was already
    /// deleted or never existed — a double delete disturbs no counter.
    /// `O(1)`: posting entries become garbage that queries skip and
    /// [`compact`](Self::compact) reclaims.
    pub fn remove(&mut self, id: u32) -> bool {
        match self.points.get_mut(id as usize) {
            Some(slot @ Some(_)) => {
                *slot = None;
                self.live -= 1;
                // Exact accounting: charge the entries this id actually
                // holds (not the nominal `num_indexed`) and zero the
                // per-id count in the same step, so no interleaving of
                // removes and compactions can charge an entry twice.
                let entries = std::mem::take(&mut self.indexed[id as usize]);
                self.garbage += entries as usize;
                true
            }
            _ => false,
        }
    }

    /// Rewrite posting lists without tombstoned ids. `O(total postings)`.
    /// Pure reclamation: queries filter tombstones anyway, so no result
    /// changes across a compaction.
    pub fn compact(&mut self) {
        let points = &self.points;
        for list in &mut self.postings {
            // `get` rather than indexing: a compaction must not panic
            // even if a snapshot smuggled in an out-of-range id (the
            // reader rejects those, but defense in depth is cheap here).
            list.retain(|&id| points.get(id as usize).is_some_and(|slot| slot.is_some()));
        }
        self.garbage = 0;
    }

    /// Number of live points.
    pub fn live_len(&self) -> usize {
        self.live
    }

    /// Tombstoned posting entries awaiting compaction.
    pub fn garbage_len(&self) -> usize {
        self.garbage
    }

    fn ms(&self) -> usize {
        if self.params.num_query_pivots == 0 {
            self.params.num_indexed
        } else {
            self.params.num_query_pivots.min(self.pivots.len())
        }
    }
}

impl<P, S> SearchIndex<P> for DynamicNapp<P, S>
where
    P: Point + Clone + Send + Sync,
    S: Space<P::Ref> + Sync,
{
    /// Scratch pipeline, mirroring the static NAPP: the ScanCount
    /// counter array re-zeroes over retained capacity (the paper's
    /// per-query memset), ranks compute into reused buffers, and the
    /// result heap drains into `out` — no per-query allocation in steady
    /// state.
    fn search_into(
        &self,
        query: &P,
        k: usize,
        scratch: &mut SearchScratch,
        out: &mut Vec<Neighbor>,
    ) {
        out.clear();
        if self.live == 0 {
            return;
        }
        let SearchScratch {
            dists,
            order,
            ranks,
            counters,
            heap,
            ..
        } = scratch;
        compute_ranks_into(
            &self.space,
            &self.pivots,
            query.point_ref(),
            dists,
            order,
            ranks,
        );
        let ms = self.ms();
        counters.clear();
        counters.resize(self.points.len(), 0);
        for (pivot, &r) in ranks.iter().enumerate() {
            if (r as usize) < ms {
                for &id in &self.postings[pivot] {
                    counters[id as usize] = counters[id as usize].saturating_add(1);
                }
            }
        }
        let t = self.params.min_shared.min(u8::MAX as u32) as u8;
        heap.reset(k);
        for (id, &c) in counters.iter().enumerate() {
            if c >= t && c > 0 {
                if let Some(point) = &self.points[id] {
                    heap.push(
                        id as u32,
                        self.space.distance(point.point_ref(), query.point_ref()),
                    );
                }
            }
        }
        heap.drain_sorted_into(out);
    }

    fn len(&self) -> usize {
        self.live
    }

    fn name(&self) -> &'static str {
        "napp (dynamic)"
    }

    fn index_size_bytes(&self) -> usize {
        self.postings
            .iter()
            .map(|l| l.len() * 4 + std::mem::size_of::<Vec<u32>>())
            .sum::<usize>()
            + self.indexed.len() * 2
    }
}

impl<P, S> MutableIndex<P> for DynamicNapp<P, S>
where
    P: PointCodec + Clone + Send + Sync,
    S: Space<P::Ref> + Clone + Send + Sync + 'static,
{
    fn insert(&mut self, point: P) -> u32 {
        DynamicNapp::insert(self, point)
    }

    fn remove(&mut self, id: u32) -> bool {
        DynamicNapp::remove(self, id)
    }

    fn compact(&mut self) {
        DynamicNapp::compact(self)
    }

    fn live_len(&self) -> usize {
        self.live
    }

    fn garbage_len(&self) -> usize {
        self.garbage
    }

    fn slot_len(&self) -> usize {
        self.points.len()
    }

    fn live_entries(&self) -> Vec<(u32, P)> {
        self.points
            .iter()
            .enumerate()
            .filter_map(|(id, slot)| slot.as_ref().map(|p| (id as u32, p.clone())))
            .collect()
    }

    fn empty_like(&self) -> BoxedMutableIndex<P> {
        Box::new(Self::new(
            self.space.clone(),
            self.pivots.clone(),
            self.params.clone(),
        ))
    }

    fn write_snapshot_dyn(&self, w: &mut dyn std::io::Write) -> Result<(), SnapshotError> {
        Snapshot::<P, S>::write_snapshot(self, w)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use permsearch_core::rng::seeded_rng;
    use permsearch_core::Dataset;
    use permsearch_datasets::{DenseGaussianMixture, Generator};
    use permsearch_spaces::L2;
    use rand::Rng;

    use crate::pivots::select_pivots;

    fn setup(n: usize) -> (DynamicNapp<Vec<f32>, L2>, Vec<Vec<f32>>) {
        let gen = DenseGaussianMixture::new(10, 4, 0.2);
        let points = gen.generate(n, 71);
        let pivot_pool = Dataset::new(gen.generate(400, 72));
        let pivots = select_pivots(&pivot_pool, 64, 3);
        let mut idx = DynamicNapp::new(
            L2,
            pivots,
            NappParams {
                num_pivots: 64,
                num_indexed: 8,
                min_shared: 1,
                threads: 1,
                ..Default::default()
            },
        );
        for p in &points {
            idx.insert(p.clone());
        }
        (idx, points)
    }

    /// Ground truth for the `garbage` counter: posting entries whose id
    /// is tombstoned, counted by brute scan.
    fn dead_entries(idx: &DynamicNapp<Vec<f32>, L2>) -> usize {
        idx.postings
            .iter()
            .flatten()
            .filter(|&&id| idx.points[id as usize].is_none())
            .count()
    }

    #[test]
    fn insert_then_search_finds_inserted_points() {
        let (idx, points) = setup(500);
        assert_eq!(idx.live_len(), 500);
        let res = idx.search(&points[42], 1);
        assert_eq!(res[0].id, 42);
        assert_eq!(res[0].dist, 0.0);
    }

    #[test]
    fn removed_points_never_come_back() {
        let (mut idx, points) = setup(300);
        assert!(idx.remove(42));
        assert!(!idx.remove(42), "double delete must report false");
        assert!(!idx.remove(9999));
        assert_eq!(idx.live_len(), 299);
        let res = idx.search(&points[42], 5);
        assert!(res.iter().all(|n| n.id != 42), "tombstone leaked");
        // Garbage accounting and compaction.
        assert_eq!(idx.garbage_len(), 8);
        idx.compact();
        assert_eq!(idx.garbage_len(), 0);
        let res = idx.search(&points[42], 5);
        assert!(res.iter().all(|n| n.id != 42));
    }

    #[test]
    fn garbage_accounting_is_exact_under_double_remove_and_compact() {
        let (mut idx, points) = setup(120);
        // Remove a batch; counter must equal the brute-scanned truth.
        for id in [3u32, 17, 44, 90] {
            assert!(idx.remove(id));
        }
        assert_eq!(idx.garbage_len(), dead_entries(&idx));
        // Double-removes (of dead ids and out-of-range ids) change nothing.
        let before = (idx.live_len(), idx.garbage_len());
        assert!(!idx.remove(3));
        assert!(!idx.remove(44));
        assert!(!idx.remove(u32::MAX - 1));
        assert_eq!((idx.live_len(), idx.garbage_len()), before);
        // Compaction zeroes the counter and physically drops the entries.
        idx.compact();
        assert_eq!(idx.garbage_len(), 0);
        assert_eq!(dead_entries(&idx), 0);
        // Removing *after* a compaction charges exactly the entries the
        // new victim holds — not a stale figure from the old epoch.
        assert!(idx.remove(7));
        assert_eq!(idx.garbage_len(), dead_entries(&idx));
        // Re-remove of a pre-compaction victim stays inert.
        assert!(!idx.remove(17));
        assert_eq!(idx.garbage_len(), dead_entries(&idx));
        // Fresh inserts and another remove keep the books balanced.
        let id = idx.insert(points[0].clone());
        assert!(idx.remove(id));
        assert_eq!(idx.garbage_len(), dead_entries(&idx));
        idx.compact();
        idx.compact(); // idempotent
        assert_eq!(idx.garbage_len(), 0);
        assert_eq!(dead_entries(&idx), 0);
    }

    #[test]
    fn posting_lists_stay_strictly_increasing_under_churn() {
        let (mut idx, points) = setup(150);
        let mut rng = seeded_rng(11);
        for round in 0..120 {
            match rng.gen_range(0..3) {
                0 => {
                    idx.insert(points[round % points.len()].clone());
                }
                1 => {
                    let id = rng.gen_range(0..idx.points.len()) as u32;
                    idx.remove(id);
                }
                _ => idx.compact(),
            }
            for list in &idx.postings {
                assert!(
                    list.windows(2).all(|w| w[0] < w[1]),
                    "posting list not strictly increasing (duplicate or disorder)"
                );
            }
        }
    }

    #[test]
    fn search_into_matches_search_with_dirty_scratch() {
        let (mut idx, points) = setup(250);
        for id in [5u32, 80, 130] {
            idx.remove(id);
        }
        let mut scratch = SearchScratch::new();
        let mut out = Vec::new();
        // Dirty the scratch with an unrelated query first.
        idx.search_into(&points[9], 7, &mut scratch, &mut out);
        for q in points.iter().take(20) {
            let fresh = idx.search(q, 10);
            idx.search_into(q, 10, &mut scratch, &mut out);
            assert_eq!(fresh, out, "scratch path diverged from allocating path");
        }
    }

    #[test]
    fn live_entries_and_empty_like_round_trip() {
        let (mut idx, points) = setup(60);
        idx.remove(10);
        idx.remove(20);
        let entries = MutableIndex::live_entries(&idx);
        assert_eq!(entries.len(), 58);
        assert!(entries.windows(2).all(|w| w[0].0 < w[1].0), "ids ascending");
        assert!(entries.iter().all(|(id, _)| *id != 10 && *id != 20));
        // A same-config empty twin refilled with the survivors answers
        // queries with the same live ids.
        let mut twin = MutableIndex::empty_like(&idx);
        assert_eq!(twin.live_len(), 0);
        assert_eq!(twin.slot_len(), 0);
        for (_, p) in &entries {
            twin.insert(p.clone());
        }
        assert_eq!(twin.live_len(), 58);
        let a: Vec<f32> = idx.search(&points[0], 5).iter().map(|n| n.dist).collect();
        let b: Vec<f32> = twin.search(&points[0], 5).iter().map(|n| n.dist).collect();
        assert_eq!(a, b, "twin must find the same distances");
    }

    #[test]
    fn interleaved_inserts_and_deletes_stay_consistent() {
        let (mut idx, points) = setup(200);
        let mut rng = seeded_rng(5);
        let mut live: Vec<u32> = (0..200).collect();
        for round in 0..50 {
            if rng.gen_bool(0.5) && live.len() > 10 {
                let at = rng.gen_range(0..live.len());
                let id = live.swap_remove(at);
                assert!(idx.remove(id));
            } else {
                let id = idx.insert(points[round % points.len()].clone());
                live.push(id);
            }
        }
        assert_eq!(idx.live_len(), live.len());
        // Every search result is a live id.
        let res = idx.search(&points[0], 10);
        for n in &res {
            assert!(live.contains(&n.id), "dead id {} returned", n.id);
        }
    }

    #[test]
    fn matches_static_napp_recall() {
        // Built over the same data with the same parameters, the dynamic
        // index must answer queries as well as the static one.
        let gen = DenseGaussianMixture::new(10, 4, 0.2);
        let points = gen.generate(600, 81);
        let queries = gen.generate(15, 83);
        let data = std::sync::Arc::new(Dataset::new(points.clone()));
        let static_idx = crate::Napp::build(
            data.clone(),
            L2,
            NappParams {
                num_pivots: 64,
                num_indexed: 8,
                min_shared: 1,
                threads: 2,
                ..Default::default()
            },
            3,
        );
        let pivots = select_pivots(&data, 64, 3);
        let mut dyn_idx = DynamicNapp::new(
            L2,
            pivots,
            NappParams {
                num_pivots: 64,
                num_indexed: 8,
                min_shared: 1,
                threads: 1,
                ..Default::default()
            },
        );
        for p in &points {
            dyn_idx.insert(p.clone());
        }
        // Same pivot seed => same pivots => identical candidate sets.
        for q in &queries {
            let a: Vec<u32> = static_idx.search(q, 10).iter().map(|n| n.id).collect();
            let b: Vec<u32> = dyn_idx.search(q, 10).iter().map(|n| n.id).collect();
            assert_eq!(a, b, "static and dynamic NAPP disagree");
        }
    }

    #[test]
    fn empty_index_returns_nothing() {
        let pivots = vec![vec![0.0f32; 4]; 8];
        let idx: DynamicNapp<Vec<f32>, L2> = DynamicNapp::new(
            L2,
            pivots,
            NappParams {
                num_pivots: 8,
                num_indexed: 2,
                min_shared: 1,
                threads: 1,
                ..Default::default()
            },
        );
        assert!(idx.search(&vec![0.0f32; 4], 3).is_empty());
        assert!(idx.is_empty());
        assert_eq!(idx.name(), "napp (dynamic)");
    }
}
