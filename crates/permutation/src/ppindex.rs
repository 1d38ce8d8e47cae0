//! PP-Index — Permutation Prefix Index (Esuli, paper §2.3).
//!
//! Permutations are viewed as strings over the pivot alphabet: the sequence
//! of pivot ids in increasing distance order. Each data point's length-`l`
//! prefix is inserted into a prefix tree. At query time the tree is walked
//! down along the query's prefix; if the subtree under the deepest matching
//! node holds fewer than γ candidates, the prefix is recursively shortened
//! (one level up) until enough candidates accumulate.
//!
//! As the paper notes, a good recall/efficiency trade-off typically needs
//! *several* tree copies built over different pivot subsets; the
//! `num_trees` parameter unions their candidate sets.

use std::sync::Arc;

use permsearch_core::{Dataset, Neighbor, Point, SearchIndex, SearchScratch, Space, Stage};

use crate::perm::{compute_ranks, compute_ranks_into};
use crate::pivots::select_pivots;
use crate::refine::refine_into;

/// PP-index tuning parameters.
#[derive(Debug, Clone)]
pub struct PpIndexParams {
    /// Pivots per tree.
    pub num_pivots: usize,
    /// Prefix length `l` (indexed permutation depth).
    pub prefix_len: usize,
    /// Candidate budget γ as a fraction of the dataset.
    pub gamma: f64,
    /// Number of tree copies over different pivot subsets.
    pub num_trees: usize,
    /// Construction worker threads.
    pub threads: usize,
}

impl Default for PpIndexParams {
    fn default() -> Self {
        Self {
            num_pivots: 64,
            prefix_len: 6,
            gamma: 0.02,
            num_trees: 2,
            threads: 4,
        }
    }
}

/// Arena node of one prefix tree.
#[derive(Debug, Clone, Default)]
pub(crate) struct Node {
    /// `(pivot id, child node index)`, sorted by pivot id.
    pub(crate) children: Vec<(u32, u32)>,
    /// Point ids terminating at this node (depth == prefix_len).
    pub(crate) ids: Vec<u32>,
    /// Number of points in this subtree.
    pub(crate) subtree: u32,
}

/// One prefix tree with its own pivot subset.
pub(crate) struct Tree<P> {
    pub(crate) pivots: Vec<P>,
    pub(crate) nodes: Vec<Node>,
}

impl<P> Tree<P> {
    fn child(&self, node: u32, pivot: u32) -> Option<u32> {
        let n = &self.nodes[node as usize];
        n.children
            .binary_search_by_key(&pivot, |&(p, _)| p)
            .ok()
            .map(|i| n.children[i].1)
    }

    fn insert(&mut self, prefix: &[u32], id: u32) {
        let mut cur = 0u32;
        self.nodes[0].subtree += 1;
        for &pivot in prefix {
            let next = match self.child(cur, pivot) {
                Some(c) => c,
                None => {
                    let idx = self.nodes.len() as u32;
                    self.nodes.push(Node::default());
                    let n = &mut self.nodes[cur as usize];
                    let at = n
                        .children
                        .binary_search_by_key(&pivot, |&(p, _)| p)
                        .unwrap_err();
                    n.children.insert(at, (pivot, idx));
                    idx
                }
            };
            cur = next;
            self.nodes[cur as usize].subtree += 1;
        }
        self.nodes[cur as usize].ids.push(id);
    }

    /// Collect every id under `node` into `out` (test-only convenience;
    /// the query path uses [`collect_with`](Self::collect_with)).
    #[cfg(test)]
    fn collect(&self, node: u32, out: &mut Vec<u32>) {
        self.collect_with(node, &mut Vec::new(), out);
    }

    /// Buffer-reusing form of [`collect`](Self::collect): the DFS stack is
    /// supplied by the caller.
    fn collect_with(&self, node: u32, stack: &mut Vec<u32>, out: &mut Vec<u32>) {
        stack.clear();
        stack.push(node);
        while let Some(n) = stack.pop() {
            let n = &self.nodes[n as usize];
            out.extend_from_slice(&n.ids);
            stack.extend(n.children.iter().map(|&(_, c)| c));
        }
    }

    fn size_bytes(&self) -> usize {
        self.nodes
            .iter()
            .map(|n| {
                std::mem::size_of::<Node>()
                    + n.children.len() * std::mem::size_of::<(u32, u32)>()
                    + n.ids.len() * 4
            })
            .sum()
    }
}

/// The PP-index: one or more prefix trees plus the shared refine stage.
pub struct PpIndex<P, S> {
    pub(crate) data: Arc<Dataset<P>>,
    pub(crate) space: S,
    pub(crate) trees: Vec<Tree<P>>,
    pub(crate) params: PpIndexParams,
}

impl<P, S> PpIndex<P, S>
where
    P: Point + Clone + Sync,
    S: Space<P::Ref> + Sync,
{
    /// Build `num_trees` prefix trees; tree `i` samples its pivots with
    /// `seed + i`.
    pub fn build(data: Arc<Dataset<P>>, space: S, params: PpIndexParams, seed: u64) -> Self {
        assert!(params.num_pivots > 0);
        assert!(
            params.prefix_len > 0 && params.prefix_len <= params.num_pivots,
            "prefix_len must be in 1..=num_pivots"
        );
        assert!(params.gamma > 0.0 && params.gamma <= 1.0);
        assert!(params.num_trees > 0);

        let mut trees = Vec::with_capacity(params.num_trees);
        for t in 0..params.num_trees {
            let pivots = select_pivots(&data, params.num_pivots, seed + t as u64);
            let prefixes =
                compute_prefixes(&data, &space, &pivots, params.prefix_len, params.threads);
            let mut tree = Tree {
                pivots,
                nodes: vec![Node::default()],
            };
            for (id, prefix) in prefixes.iter().enumerate() {
                tree.insert(prefix, id as u32);
            }
            trees.push(tree);
        }
        Self {
            data,
            space,
            trees,
            params,
        }
    }

    /// The parameters the index was built with.
    pub fn params(&self) -> &PpIndexParams {
        &self.params
    }
}

/// Length-`l` closest-pivot prefixes of every point, computed in parallel.
fn compute_prefixes<P, S>(
    data: &Dataset<P>,
    space: &S,
    pivots: &[P],
    l: usize,
    threads: usize,
) -> Vec<Vec<u32>>
where
    P: Point + Sync,
    S: Space<P::Ref> + Sync,
{
    let n = data.len();
    let mut out: Vec<Vec<u32>> = vec![Vec::new(); n];
    if n == 0 {
        return out;
    }
    let threads = threads.max(1).min(n);
    let chunk = n.div_ceil(threads);
    crossbeam::thread::scope(|s| {
        for (t, slot) in out.chunks_mut(chunk).enumerate() {
            let start = (t * chunk) as u32;
            s.spawn(move |_| {
                for (slot, id) in slot.iter_mut().zip(start..) {
                    *slot = prefix_of(space, pivots, data.get(id), l);
                }
            });
        }
    })
    .expect("PP-index worker panicked");
    out
}

/// The `l` closest pivot ids of `point`, closest first.
fn prefix_of<P: Point, S: Space<P::Ref>>(
    space: &S,
    pivots: &[P],
    point: &P::Ref,
    l: usize,
) -> Vec<u32> {
    let ranks = compute_ranks(space, pivots, point);
    let mut prefix = vec![u32::MAX; l];
    for (pivot, &r) in ranks.iter().enumerate() {
        if (r as usize) < l {
            prefix[r as usize] = pivot as u32;
        }
    }
    prefix
}

/// Scratch-reusing form of [`prefix_of`]: rank induction goes through the
/// batched [`compute_ranks_into`] and the prefix lands in `prefix`.
#[allow(clippy::too_many_arguments)]
fn prefix_of_into<P: Point, S: Space<P::Ref>>(
    space: &S,
    pivots: &[P],
    point: &P::Ref,
    l: usize,
    dists: &mut Vec<f32>,
    order: &mut Vec<(f32, u32)>,
    ranks: &mut Vec<u32>,
    prefix: &mut Vec<u32>,
) {
    compute_ranks_into(space, pivots, point, dists, order, ranks);
    prefix.clear();
    prefix.resize(l, u32::MAX);
    for (pivot, &r) in ranks.iter().enumerate() {
        if (r as usize) < l {
            prefix[r as usize] = pivot as u32;
        }
    }
}

impl<P, S> SearchIndex<P> for PpIndex<P, S>
where
    P: Point + Clone + Sync,
    S: Space<P::Ref> + Sync,
{
    /// Scratch pipeline: per-tree prefix induction, tree walk and candidate
    /// collection all run through reused buffers, and the deduplicated
    /// candidate union is refined in batched blocks.
    fn search_into(
        &self,
        query: &P,
        k: usize,
        scratch: &mut SearchScratch,
        out: &mut Vec<Neighbor>,
    ) {
        out.clear();
        let n = self.data.len();
        if n == 0 {
            return;
        }
        let gamma = (((n as f64) * self.params.gamma).ceil() as usize).max(k);
        let SearchScratch {
            dists,
            order,
            ranks,
            pivot_ids: q_prefix,
            path,
            ids: candidates,
            touched,
            heap,
            trace,
            budget,
            ..
        } = scratch;
        let t0 = trace.start();
        candidates.clear();
        for tree in &self.trees {
            trace.add_dists(Stage::Filter, tree.pivots.len() as u64);
            prefix_of_into(
                &self.space,
                &tree.pivots,
                query.point_ref(),
                self.params.prefix_len,
                dists,
                order,
                ranks,
                q_prefix,
            );
            // Walk down the query prefix, remembering the path.
            path.clear();
            path.push(0u32);
            for &pivot in q_prefix.iter() {
                match tree.child(*path.last().expect("root"), pivot) {
                    Some(c) => path.push(c),
                    None => break,
                }
            }
            // Recursive prefix shortening: pop back up until the subtree is
            // large enough (or we are at the root).
            while path.len() > 1
                && (tree.nodes[*path.last().expect("non-empty") as usize].subtree as usize) < gamma
            {
                path.pop();
            }
            // `touched` doubles as the DFS stack here; refine clears it
            // again before using it as its dedup buffer.
            tree.collect_with(*path.last().expect("root"), touched, candidates);
        }
        candidates.sort_unstable();
        candidates.dedup();
        trace.finish(Stage::Filter, t0);
        refine_into(
            &self.data,
            &self.space,
            query.point_ref(),
            candidates.iter().copied(),
            k,
            touched,
            dists,
            heap,
            out,
            trace,
            budget,
        );
    }

    fn len(&self) -> usize {
        self.data.len()
    }

    fn name(&self) -> &'static str {
        "pp-index"
    }

    fn index_size_bytes(&self) -> usize {
        self.trees.iter().map(Tree::size_bytes).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use permsearch_datasets::{DenseGaussianMixture, Generator};
    use permsearch_spaces::L2;

    fn small_world() -> (Arc<Dataset<Vec<f32>>>, Vec<Vec<f32>>) {
        let gen = DenseGaussianMixture::new(12, 6, 0.15);
        let data = Arc::new(Dataset::new(gen.generate(800, 41)));
        let queries = gen.generate(25, 97);
        (data, queries)
    }

    #[test]
    fn paper_prefix_example() {
        // Figure 1 permutations as strings: a = 1234, b = 1243, c = 2314,
        // d = 3241. a and b share a two-character prefix; c and d share no
        // prefix with a.
        let pivots = vec![
            vec![0.0f32, 0.0],
            vec![3.0, 0.0],
            vec![-2.5, 2.0],
            vec![2.8, 3.5],
        ];
        let a = vec![0.5f32, 0.5];
        let b = vec![1.2f32, 0.3];
        let c = vec![-1.2f32, 1.4];
        let d = vec![2.9f32, 2.0];
        assert_eq!(prefix_of(&L2, &pivots, &a, 2), vec![0, 1]);
        assert_eq!(prefix_of(&L2, &pivots, &b, 2), vec![0, 1]);
        assert_eq!(prefix_of(&L2, &pivots, &c, 2), vec![2, 0]);
        assert_eq!(prefix_of(&L2, &pivots, &d, 2), vec![3, 1]);
    }

    #[test]
    fn reaches_reasonable_recall() {
        let (data, queries) = small_world();
        let idx = PpIndex::build(
            data.clone(),
            L2,
            PpIndexParams {
                num_pivots: 32,
                prefix_len: 4,
                gamma: 0.08,
                num_trees: 4,
                threads: 2,
            },
            13,
        );
        let mut total = 0.0;
        for q in &queries {
            let mut all: Vec<(f32, u32)> =
                data.iter().map(|(id, p)| (L2.distance(p, q), id)).collect();
            all.sort_by(|a, b| a.0.total_cmp(&b.0));
            let truth: Vec<u32> = all[..10].iter().map(|&(_, id)| id).collect();
            let res = idx.search(q, 10);
            total += truth
                .iter()
                .filter(|t| res.iter().any(|n| n.id == **t))
                .count() as f64
                / 10.0;
        }
        let avg = total / queries.len() as f64;
        assert!(avg > 0.7, "avg recall {avg}");
    }

    #[test]
    fn subtree_counts_are_consistent() {
        let (data, _) = small_world();
        let idx = PpIndex::build(
            data.clone(),
            L2,
            PpIndexParams {
                num_pivots: 16,
                prefix_len: 3,
                gamma: 0.05,
                num_trees: 1,
                threads: 2,
            },
            13,
        );
        let tree = &idx.trees[0];
        assert_eq!(tree.nodes[0].subtree as usize, data.len());
        // Every point must be collectable from the root.
        let mut all = Vec::new();
        tree.collect(0, &mut all);
        all.sort_unstable();
        assert_eq!(all, (0..data.len() as u32).collect::<Vec<_>>());
    }

    #[test]
    fn prefix_shortening_guarantees_candidates() {
        // With a huge gamma the search must fall back to the root and
        // return exact results.
        let (data, queries) = small_world();
        let idx = PpIndex::build(
            data.clone(),
            L2,
            PpIndexParams {
                num_pivots: 16,
                prefix_len: 8,
                gamma: 1.0,
                num_trees: 1,
                threads: 2,
            },
            13,
        );
        let q = &queries[0];
        let res = idx.search(q, 10);
        assert_eq!(res.len(), 10);
        // gamma = 1.0 collects everything -> exact search.
        let mut all: Vec<(f32, u32)> = data.iter().map(|(id, p)| (L2.distance(p, q), id)).collect();
        all.sort_by(|a, b| a.0.total_cmp(&b.0));
        assert_eq!(res[0].id, all[0].1);
    }

    #[test]
    fn more_trees_do_not_hurt_recall() {
        let (data, queries) = small_world();
        let build = |trees: usize| {
            PpIndex::build(
                data.clone(),
                L2,
                PpIndexParams {
                    num_pivots: 32,
                    prefix_len: 4,
                    gamma: 0.03,
                    num_trees: trees,
                    threads: 2,
                },
                13,
            )
        };
        let one = build(1);
        let four = build(4);
        let recall = |idx: &PpIndex<Vec<f32>, L2>| {
            let mut total = 0.0;
            for q in &queries {
                let mut all: Vec<(f32, u32)> =
                    data.iter().map(|(id, p)| (L2.distance(p, q), id)).collect();
                all.sort_by(|a, b| a.0.total_cmp(&b.0));
                let truth: Vec<u32> = all[..10].iter().map(|&(_, id)| id).collect();
                let res = idx.search(q, 10);
                total += truth
                    .iter()
                    .filter(|t| res.iter().any(|n| n.id == **t))
                    .count() as f64
                    / 10.0;
            }
            total / queries.len() as f64
        };
        assert!(recall(&four) >= recall(&one) - 0.05);
        assert!(four.index_size_bytes() > one.index_size_bytes());
    }
}
