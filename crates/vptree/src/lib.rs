//! VP-tree with metric and polynomial non-metric pruning (paper §3.2).
//!
//! The vantage-point tree (Yianilos, Uhlmann) recursively partitions the
//! space around a randomly chosen pivot `π`: the median distance `R` from
//! `π` to the points of the current partition defines a ball; inner points
//! go to the left subtree, outer points to the right. Partitioning stops at
//! buckets of `b` points, which are scanned sequentially.
//!
//! k-NN search is simulated as a range search with a shrinking radius `r`
//! (the distance of the current k-th best result):
//!
//! * **metric pruning** — if the query is inside the ball and
//!   `R − d(π, q) > r`, the right subtree cannot contain an answer (and
//!   symmetrically for the left subtree);
//! * **polynomial pruning** (this paper's non-metric rule) — the right
//!   subtree is pruned when `α_left · (R − d(π, q))^β > r`, the left when
//!   `α_right · (d(π, q) − R)^β > r`. With `α = 1, β = 1` this degenerates
//!   to the metric rule; `β = 2` is used for the KL-divergence and the
//!   optimal `α`s are found by a shrinking grid search on a data sample
//!   ([`tune`]).

pub mod tune;

use std::sync::Arc;

use permsearch_core::rng::seeded_rng;
use permsearch_core::{
    score_ids, Dataset, KnnHeap, Neighbor, Point, QueryTrace, SearchIndex, SearchScratch, Space,
    Stage,
};
use rand::Rng;

pub use tune::{tune_alphas, TuneResult};

/// Pruning rule applied during traversal.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Pruner {
    /// Exact triangle-inequality pruning (metric spaces only).
    Metric,
    /// The paper's polynomial pruner for generic spaces.
    Polynomial {
        /// Stretch factor when the query falls inside the pivot ball.
        alpha_left: f32,
        /// Stretch factor when the query falls outside the pivot ball.
        alpha_right: f32,
        /// Polynomial degree β (2 for the KL-divergence, 1 otherwise).
        beta: u32,
    },
}

impl Pruner {
    /// Polynomial pruner with `α = 1` on both sides.
    pub fn polynomial(beta: u32) -> Self {
        Pruner::Polynomial {
            alpha_left: 1.0,
            alpha_right: 1.0,
            beta,
        }
    }
}

/// VP-tree construction parameters.
#[derive(Debug, Clone, Copy)]
pub struct VpTreeParams {
    /// Bucket size `b`: partitions smaller than this become leaves.
    pub bucket_size: usize,
    /// The pruning rule used at query time.
    pub pruner: Pruner,
}

impl Default for VpTreeParams {
    fn default() -> Self {
        Self {
            bucket_size: 32,
            pruner: Pruner::Metric,
        }
    }
}

enum Node {
    Internal {
        pivot: u32,
        radius: f32,
        left: u32,
        right: u32,
    },
    Leaf {
        /// Range into the `bucket_ids` arena.
        start: u32,
        end: u32,
    },
}

/// The VP-tree index.
pub struct VpTree<P, S> {
    data: Arc<Dataset<P>>,
    space: S,
    nodes: Vec<Node>,
    /// All bucket point ids, stored contiguously ("all points in a bucket
    /// are stored in the same chunk of memory", paper §3.2).
    bucket_ids: Vec<u32>,
    params: VpTreeParams,
    root: u32,
}

impl<P, S> VpTree<P, S>
where
    P: Point,
    S: Space<P::Ref>,
{
    /// Build the tree over `data`; pivots are chosen uniformly at random
    /// (deterministic in `seed`).
    pub fn build(data: Arc<Dataset<P>>, space: S, params: VpTreeParams, seed: u64) -> Self {
        assert!(params.bucket_size >= 1, "bucket size must be positive");
        let mut ids: Vec<u32> = (0..data.len() as u32).collect();
        let mut tree = Self {
            data,
            space,
            nodes: Vec::new(),
            bucket_ids: Vec::new(),
            params,
            root: 0,
        };
        let mut rng = seeded_rng(seed);
        let n = ids.len();
        tree.root = tree.build_node(&mut ids[..], n, &mut rng);
        tree
    }

    fn build_node<R: Rng>(&mut self, ids: &mut [u32], _n: usize, rng: &mut R) -> u32 {
        if ids.len() <= self.params.bucket_size {
            // Ascending ids inside each bucket: the batched leaf scan then
            // reads a flat arena near-sequentially, and equal-distance ties
            // at the heap boundary resolve to the smallest ids
            // deterministically.
            ids.sort_unstable();
            let start = self.bucket_ids.len() as u32;
            self.bucket_ids.extend_from_slice(ids);
            let end = self.bucket_ids.len() as u32;
            self.nodes.push(Node::Leaf { start, end });
            return (self.nodes.len() - 1) as u32;
        }
        // Random vantage point; move it out of the partition.
        let pick = rng.gen_range(0..ids.len());
        ids.swap(0, pick);
        let pivot = ids[0];
        let rest = &mut ids[1..];
        let pivot_point = self.data.get(pivot);
        // Median distance from the pivot (pivot plays the data role, the
        // partition point the query role — consistent with query-time
        // d(π, q)).
        let mut dists: Vec<(f32, u32)> = rest
            .iter()
            .map(|&id| (self.space.distance(pivot_point, self.data.get(id)), id))
            .collect();
        let mid = dists.len() / 2;
        dists.select_nth_unstable_by(mid, |a, b| a.0.total_cmp(&b.0));
        let radius = dists[mid].0;
        for (slot, &(_, id)) in rest.iter_mut().zip(dists.iter()) {
            *slot = id;
        }
        // Split: [0, mid) inner (points exactly at distance R may land on
        // either side, which the paper explicitly allows), [mid, len)
        // outer. The pivot itself is reported at this internal node during
        // traversal, so it belongs to neither subtree.
        let (inner, outer) = rest.split_at_mut(mid);
        let left = self.build_node(inner, _n, rng);
        let right = self.build_node(outer, _n, rng);
        self.nodes.push(Node::Internal {
            pivot,
            radius,
            left,
            right,
        });
        (self.nodes.len() - 1) as u32
    }

    fn search_node(
        &self,
        node: u32,
        query: &P::Ref,
        heap: &mut KnnHeap,
        dists: &mut Vec<f32>,
        trace: &mut QueryTrace,
    ) {
        match &self.nodes[node as usize] {
            Node::Leaf { start, end } => {
                // Bucket scan: all points in a bucket sit in one contiguous
                // chunk of the arena (paper §3.2), so the whole leaf is
                // scored in batched blocks. Pushes happen in the same id
                // order as the scalar loop, and the heap radius is only
                // consulted *between* nodes, so pruning decisions — and
                // results — are identical.
                let ids = &self.bucket_ids[*start as usize..*end as usize];
                trace.add_dists(Stage::Filter, ids.len() as u64);
                trace.add_candidates(ids.len());
                score_ids(&self.space, &self.data, query, ids, dists, |id, d| {
                    heap.push(id, d);
                });
            }
            Node::Internal {
                pivot,
                radius,
                left,
                right,
            } => {
                trace.add_dists(Stage::Filter, 1);
                let d = self.space.distance(self.data.get(*pivot), query);
                heap.push(*pivot, d);
                let diff = radius - d;
                // Visit the subspace containing the query first so the
                // radius shrinks before the pruning test on the far side.
                let (first, second) = if diff >= 0.0 {
                    (*left, *right)
                } else {
                    (*right, *left)
                };
                self.search_node(first, query, heap, dists, trace);
                if !self.prunes(diff.abs(), diff >= 0.0, heap.radius()) {
                    self.search_node(second, query, heap, dists, trace);
                }
            }
        }
    }

    /// Whether the far subtree can be pruned given the margin
    /// `|R − d(π, q)|` and the current query radius `r`.
    #[inline]
    fn prunes(&self, margin: f32, query_inside: bool, r: f32) -> bool {
        if r == f32::INFINITY {
            return false;
        }
        match self.params.pruner {
            Pruner::Metric => margin > r,
            Pruner::Polynomial {
                alpha_left,
                alpha_right,
                beta,
            } => {
                let alpha = if query_inside {
                    alpha_left
                } else {
                    alpha_right
                };
                alpha * margin.powi(beta as i32) > r
            }
        }
    }

    /// The parameters the tree was built with.
    pub fn params(&self) -> &VpTreeParams {
        &self.params
    }

    /// Number of tree nodes (diagnostics).
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }
}

// ---------------------------------------------------------------------------
// Snapshot persistence: the node arena, bucket arena and pruner are the
// whole derived structure; distances are recomputed from (data, space) at
// query time, so a reloaded tree traverses and prunes identically.
// ---------------------------------------------------------------------------

impl<P, S> permsearch_core::Snapshot<P, S> for VpTree<P, S> {
    fn write_snapshot<W: std::io::Write + ?Sized>(
        &self,
        w: &mut W,
    ) -> Result<(), permsearch_core::SnapshotError> {
        use permsearch_core::snapshot as codec;
        codec::write_len(w, self.data.len())?;
        codec::write_len(w, self.params.bucket_size)?;
        match self.params.pruner {
            Pruner::Metric => codec::write_u8(w, 0)?,
            Pruner::Polynomial {
                alpha_left,
                alpha_right,
                beta,
            } => {
                codec::write_u8(w, 1)?;
                codec::write_f32(w, alpha_left)?;
                codec::write_f32(w, alpha_right)?;
                codec::write_u32(w, beta)?;
            }
        }
        codec::write_u32(w, self.root)?;
        codec::write_u32_seq(w, &self.bucket_ids)?;
        codec::write_seq(w, &self.nodes, |w, node| match node {
            Node::Internal {
                pivot,
                radius,
                left,
                right,
            } => {
                codec::write_u8(w, 0)?;
                codec::write_u32(w, *pivot)?;
                codec::write_f32(w, *radius)?;
                codec::write_u32(w, *left)?;
                codec::write_u32(w, *right)
            }
            Node::Leaf { start, end } => {
                codec::write_u8(w, 1)?;
                codec::write_u32(w, *start)?;
                codec::write_u32(w, *end)
            }
        })
    }

    fn read_snapshot<R: std::io::Read + ?Sized>(
        r: &mut R,
        data: Arc<Dataset<P>>,
        space: S,
    ) -> Result<Self, permsearch_core::SnapshotError> {
        use permsearch_core::snapshot as codec;
        use permsearch_core::snapshot::corrupt;
        codec::check_point_count(codec::read_len(r)?, data.len())?;
        let bucket_size = codec::read_len(r)?;
        if bucket_size == 0 {
            return Err(corrupt("VP-tree snapshot with zero bucket size"));
        }
        let pruner = match codec::read_u8(r)? {
            0 => Pruner::Metric,
            1 => Pruner::Polynomial {
                alpha_left: codec::read_f32(r)?,
                alpha_right: codec::read_f32(r)?,
                beta: codec::read_u32(r)?,
            },
            tag => return Err(corrupt(format!("invalid pruner tag {tag}"))),
        };
        let root = codec::read_u32(r)?;
        let bucket_ids = codec::read_u32_seq(r)?;
        codec::check_ids(&bucket_ids, data.len(), "VP-tree bucket")?;
        let nodes: Vec<Node> = codec::read_seq(r, |r| match codec::read_u8(r)? {
            0 => Ok(Node::Internal {
                pivot: codec::read_u32(r)?,
                radius: codec::read_f32(r)?,
                left: codec::read_u32(r)?,
                right: codec::read_u32(r)?,
            }),
            1 => Ok(Node::Leaf {
                start: codec::read_u32(r)?,
                end: codec::read_u32(r)?,
            }),
            tag => Err(corrupt(format!("invalid VP-tree node tag {tag}"))),
        })?;
        if nodes.is_empty() || root as usize >= nodes.len() {
            return Err(corrupt(format!(
                "VP-tree root {root} outside {} nodes",
                nodes.len()
            )));
        }
        for (idx, node) in nodes.iter().enumerate() {
            match *node {
                Node::Internal {
                    pivot, left, right, ..
                } => {
                    if pivot as usize >= data.len() {
                        return Err(corrupt(format!("VP-tree pivot {pivot} out of range")));
                    }
                    // The builder pushes both subtrees before their parent,
                    // so children always have smaller indices; enforcing
                    // that exact invariant also proves the traversal
                    // terminates (no cycles reachable from any node).
                    if left as usize >= idx || right as usize >= idx {
                        return Err(corrupt(format!(
                            "VP-tree node {idx} references a non-descendant child"
                        )));
                    }
                }
                Node::Leaf { start, end } => {
                    if start > end || end as usize > bucket_ids.len() {
                        return Err(corrupt(format!(
                            "VP-tree leaf range {start}..{end} outside the bucket arena"
                        )));
                    }
                }
            }
        }
        Ok(Self {
            data,
            space,
            nodes,
            bucket_ids,
            params: VpTreeParams {
                bucket_size,
                pruner,
            },
            root,
        })
    }
}

impl<P, S> SearchIndex<P> for VpTree<P, S>
where
    P: Point + Send + Sync,
    S: Space<P::Ref>,
{
    /// Scratch pipeline: the result heap is reused and leaf buckets are
    /// scored in batched blocks.
    fn search_into(
        &self,
        query: &P,
        k: usize,
        scratch: &mut SearchScratch,
        out: &mut Vec<Neighbor>,
    ) {
        out.clear();
        if self.data.is_empty() {
            return;
        }
        scratch.heap.reset(k);
        let SearchScratch {
            heap, dists, trace, ..
        } = scratch;
        // The whole pruned traversal is candidate generation: Filter.
        let t0 = trace.start();
        self.search_node(self.root, query.point_ref(), heap, dists, trace);
        trace.finish(Stage::Filter, t0);
        heap.drain_sorted_into(out);
    }

    fn len(&self) -> usize {
        self.data.len()
    }

    fn name(&self) -> &'static str {
        "vp-tree"
    }

    fn index_size_bytes(&self) -> usize {
        self.nodes.len() * std::mem::size_of::<Node>() + self.bucket_ids.len() * 4
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use permsearch_core::ExhaustiveSearch;
    use permsearch_datasets::{DenseGaussianMixture, DirichletTopics, Generator};
    use permsearch_spaces::{KlDivergence, L2};

    fn dense_world() -> (Arc<Dataset<Vec<f32>>>, Vec<Vec<f32>>) {
        let gen = DenseGaussianMixture::new(8, 5, 0.2);
        let data = Arc::new(Dataset::new(gen.generate(1500, 61)));
        let queries = gen.generate(30, 117);
        (data, queries)
    }

    #[test]
    fn metric_pruning_is_exact_for_l2() {
        let (data, queries) = dense_world();
        let tree = VpTree::build(data.clone(), L2, VpTreeParams::default(), 1);
        let exact = ExhaustiveSearch::new(data.clone(), L2);
        for q in &queries {
            let t = tree.search(q, 10);
            let e = exact.search(q, 10);
            let t_ids: Vec<u32> = t.iter().map(|n| n.id).collect();
            let e_ids: Vec<u32> = e.iter().map(|n| n.id).collect();
            assert_eq!(t_ids, e_ids, "VP-tree with metric pruning must be exact");
        }
    }

    #[test]
    fn polynomial_alpha_one_beta_one_equals_metric() {
        let (data, queries) = dense_world();
        let metric = VpTree::build(data.clone(), L2, VpTreeParams::default(), 7);
        let poly = VpTree::build(
            data.clone(),
            L2,
            VpTreeParams {
                bucket_size: 32,
                pruner: Pruner::polynomial(1),
            },
            7,
        );
        for q in &queries {
            let a: Vec<u32> = metric.search(q, 5).iter().map(|n| n.id).collect();
            let b: Vec<u32> = poly.search(q, 5).iter().map(|n| n.id).collect();
            assert_eq!(a, b);
        }
    }

    #[test]
    fn larger_alpha_prunes_more_and_can_lose_recall() {
        let (data, queries) = dense_world();
        let aggressive = VpTree::build(
            data.clone(),
            L2,
            VpTreeParams {
                bucket_size: 32,
                pruner: Pruner::Polynomial {
                    alpha_left: 50.0,
                    alpha_right: 50.0,
                    beta: 1,
                },
            },
            7,
        );
        let exact = ExhaustiveSearch::new(data.clone(), L2);
        let mut total = 0.0;
        for q in &queries {
            let truth: Vec<u32> = exact.search(q, 10).iter().map(|n| n.id).collect();
            let res = aggressive.search(q, 10);
            total += truth
                .iter()
                .filter(|t| res.iter().any(|n| n.id == **t))
                .count() as f64
                / 10.0;
        }
        let recall = total / queries.len() as f64;
        // Aggressive stretching is allowed to be (very) approximate, but
        // the traversal must still reach the query's own neighborhood.
        assert!(recall > 0.05, "recall collapsed: {recall}");
        assert!(recall < 1.0, "alpha = 50 should actually prune something");
    }

    #[test]
    fn works_on_non_metric_kl() {
        let gen = DirichletTopics::new(8, 0.35);
        let data = Arc::new(Dataset::new(gen.generate(1000, 71)));
        let queries = gen.generate(20, 127);
        let tree = VpTree::build(
            data.clone(),
            KlDivergence,
            VpTreeParams {
                bucket_size: 16,
                pruner: Pruner::Polynomial {
                    alpha_left: 0.5,
                    alpha_right: 0.5,
                    beta: 2,
                },
            },
            9,
        );
        let exact = ExhaustiveSearch::new(data.clone(), KlDivergence);
        let mut total = 0.0;
        for q in &queries {
            let truth: Vec<u32> = exact.search(q, 10).iter().map(|n| n.id).collect();
            let res = tree.search(q, 10);
            total += truth
                .iter()
                .filter(|t| res.iter().any(|n| n.id == **t))
                .count() as f64
                / 10.0;
        }
        let recall = total / queries.len() as f64;
        assert!(recall > 0.7, "KL recall {recall}");
    }

    #[test]
    fn every_point_is_reachable() {
        let (data, _) = dense_world();
        let tree = VpTree::build(data.clone(), L2, VpTreeParams::default(), 3);
        // k = n returns everything exactly once.
        let res = tree.search(&data.get(0).to_owned(), data.len());
        assert_eq!(res.len(), data.len());
        let mut ids: Vec<u32> = res.iter().map(|n| n.id).collect();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), data.len());
    }

    #[test]
    fn bucket_size_one_and_tiny_datasets() {
        for n in [1usize, 2, 3, 7] {
            let gen = DenseGaussianMixture::new(4, 2, 0.3);
            let data = Arc::new(Dataset::new(gen.generate(n, 5)));
            let tree = VpTree::build(
                data.clone(),
                L2,
                VpTreeParams {
                    bucket_size: 1,
                    pruner: Pruner::Metric,
                },
                1,
            );
            let res = tree.search(&data.get(0).to_owned(), n);
            assert_eq!(res.len(), n, "n={n}");
            assert_eq!(res[0].id, 0);
        }
    }

    #[test]
    fn empty_dataset() {
        let data: Arc<Dataset<Vec<f32>>> = Arc::new(Dataset::default());
        let tree = VpTree::build(data, L2, VpTreeParams::default(), 0);
        assert!(tree.search(&vec![0.0f32; 4], 5).is_empty());
        assert_eq!(tree.name(), "vp-tree");
        assert!(tree.index_size_bytes() > 0);
    }
}
