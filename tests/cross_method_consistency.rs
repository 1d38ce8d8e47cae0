//! Cross-crate integration: every index implementation answers the same
//! queries over the same dataset with valid, consistently ordered results,
//! and the exact methods agree with brute force.

use std::sync::Arc;

use permsearch::core::{Dataset, ExhaustiveSearch, Neighbor, SearchIndex, Space};
use permsearch::datasets::{DenseGaussianMixture, Generator};
use permsearch::knngraph::{nndescent, NnDescentParams, SwGraph, SwGraphParams};
use permsearch::lsh::{MpLsh, MpLshParams};
use permsearch::permutation::{
    select_pivots, BruteForceBinFilter, BruteForcePermFilter, MiFile, MiFileParams, Napp,
    NappParams, OmedRank, OmedRankParams, PermDistanceKind, PermVpTree, PermVpTreeParams, PpIndex,
    PpIndexParams,
};
use permsearch::spaces::L2;
use permsearch::vptree::{VpTree, VpTreeParams};

fn world() -> (Arc<Dataset<Vec<f32>>>, Vec<Vec<f32>>) {
    let gen = DenseGaussianMixture::new(12, 5, 0.2);
    (
        Arc::new(Dataset::new(gen.generate(1200, 3))),
        gen.generate(15, 5),
    )
}

fn assert_valid(results: &[Neighbor], data: &Dataset<Vec<f32>>, query: &[f32], k: usize) {
    assert!(results.len() <= k);
    // Sorted by distance.
    assert!(results.windows(2).all(|w| w[0].dist <= w[1].dist));
    // Unique ids within range, distances match recomputation.
    let mut ids: Vec<u32> = results.iter().map(|n| n.id).collect();
    ids.sort_unstable();
    let mut dedup = ids.clone();
    dedup.dedup();
    assert_eq!(ids, dedup, "duplicate ids in result");
    for n in results {
        assert!((n.id as usize) < data.len());
        let d = L2.distance(data.get(n.id), query);
        assert!(
            (d - n.dist).abs() <= 1e-4 * d.max(1.0),
            "reported distance {} != recomputed {d}",
            n.dist
        );
    }
}

#[test]
fn all_indexes_return_valid_results() {
    let (data, queries) = world();
    let pivots = select_pivots(&data, 64, 1);

    let indexes: Vec<Box<dyn SearchIndex<Vec<f32>>>> = vec![
        Box::new(ExhaustiveSearch::new(data.clone(), L2)),
        Box::new(VpTree::build(data.clone(), L2, VpTreeParams::default(), 1)),
        Box::new(Napp::build(
            data.clone(),
            L2,
            NappParams {
                num_pivots: 64,
                num_indexed: 8,
                min_shared: 1,
                threads: 2,
                ..Default::default()
            },
            1,
        )),
        Box::new(MiFile::build(
            data.clone(),
            L2,
            MiFileParams {
                num_pivots: 64,
                num_indexed: 16,
                gamma: 0.1,
                threads: 2,
                ..Default::default()
            },
            1,
        )),
        Box::new(PpIndex::build(
            data.clone(),
            L2,
            PpIndexParams {
                num_pivots: 32,
                prefix_len: 4,
                gamma: 0.05,
                num_trees: 2,
                threads: 2,
            },
            1,
        )),
        Box::new(OmedRank::build(
            data.clone(),
            L2,
            OmedRankParams {
                num_pivots: 12,
                gamma: 0.1,
                quorum: 0.5,
                threads: 2,
            },
            1,
        )),
        Box::new(BruteForcePermFilter::build(
            data.clone(),
            L2,
            pivots.clone(),
            PermDistanceKind::SpearmanRho,
            0.1,
            2,
        )),
        Box::new(BruteForceBinFilter::build(data.clone(), L2, pivots, 0.1, 2)),
        Box::new(SwGraph::build(
            data.clone(),
            L2,
            SwGraphParams::default(),
            1,
        )),
        Box::new(nndescent(data.clone(), L2, NnDescentParams::default(), 1)),
        Box::new(MpLsh::build(
            data.clone(),
            MpLshParams {
                num_tables: 12,
                hashes_per_table: 8,
                bucket_width: 4.0,
                num_probes: 8,
            },
            1,
        )),
    ];

    for idx in &indexes {
        assert_eq!(idx.len(), data.len(), "{}", idx.name());
        for q in &queries {
            let res = idx.search(q, 10);
            assert!(!res.is_empty(), "{} returned nothing", idx.name());
            assert_valid(&res, &data, q, 10);
        }
    }
}

#[test]
fn exact_methods_agree_with_brute_force() {
    let (data, queries) = world();
    let exact = ExhaustiveSearch::new(data.clone(), L2);
    let vp = VpTree::build(data.clone(), L2, VpTreeParams::default(), 9);
    for q in &queries {
        let a: Vec<u32> = exact.search(q, 10).iter().map(|n| n.id).collect();
        let b: Vec<u32> = vp.search(q, 10).iter().map(|n| n.id).collect();
        assert_eq!(a, b, "metric VP-tree must be exact");
    }
}

/// The scratch reuse contract: `search_into` with one scratch reused
/// across every query *and every method* must return exactly what a fresh
/// scratch returns (the provided `search`) — ids, distances, and
/// distance-tie order included.
#[test]
fn scratch_pipeline_matches_fresh_search_across_methods() {
    use permsearch::core::SearchScratch;
    let (data, queries) = world();
    let pivots = select_pivots(&data, 64, 1);

    let mut indexes: Vec<Box<dyn SearchIndex<Vec<f32>>>> = vec![
        Box::new(ExhaustiveSearch::new(data.clone(), L2)),
        Box::new(VpTree::build(data.clone(), L2, VpTreeParams::default(), 1)),
        Box::new(Napp::build(
            data.clone(),
            L2,
            NappParams {
                num_pivots: 64,
                num_indexed: 8,
                min_shared: 1,
                max_candidates: Some(60),
                threads: 2,
                ..Default::default()
            },
            1,
        )),
        Box::new(MiFile::build(
            data.clone(),
            L2,
            MiFileParams {
                num_pivots: 64,
                num_indexed: 16,
                gamma: 0.1,
                max_pos_diff: Some(8),
                threads: 2,
                ..Default::default()
            },
            1,
        )),
        Box::new(PpIndex::build(
            data.clone(),
            L2,
            PpIndexParams {
                num_pivots: 32,
                prefix_len: 4,
                gamma: 0.05,
                num_trees: 2,
                threads: 2,
            },
            1,
        )),
        Box::new(BruteForcePermFilter::build(
            data.clone(),
            L2,
            pivots.clone(),
            PermDistanceKind::SpearmanRho,
            0.1,
            2,
        )),
        Box::new(BruteForcePermFilter::build(
            data.clone(),
            L2,
            pivots.clone(),
            PermDistanceKind::Footrule,
            0.1,
            2,
        )),
        Box::new(BruteForceBinFilter::build(data.clone(), L2, pivots, 0.1, 2)),
        Box::new(SwGraph::build(
            data.clone(),
            L2,
            SwGraphParams::default(),
            1,
        )),
        Box::new(nndescent(data.clone(), L2, NnDescentParams::default(), 1)),
        Box::new(MpLsh::build(
            data.clone(),
            MpLshParams {
                num_tables: 12,
                hashes_per_table: 8,
                bucket_width: 4.0,
                num_probes: 8,
            },
            1,
        )),
    ];
    indexes.extend(rank_aggregation_methods(&data));

    // ONE scratch across all methods and queries, never reset in between —
    // the strongest form of the reuse contract. Varying k stresses heap
    // reconfiguration.
    let mut scratch = SearchScratch::new();
    let mut out = Vec::new();
    for idx in &indexes {
        for (qi, q) in queries.iter().enumerate() {
            let k = 1 + (qi % 10);
            let fresh = idx.search(q, k);
            idx.search_into(q, k, &mut scratch, &mut out);
            assert_eq!(out, fresh, "{} k={k} query {qi}", idx.name());
        }
    }

    // The sharded reduce path obeys the same contract.
    let sharded = permsearch::engine::ShardedIndex::build(&data, 3, |_, shard_data| {
        Box::new(ExhaustiveSearch::new(shard_data, L2))
    });
    for (qi, q) in queries.iter().enumerate() {
        let k = 1 + (qi % 10);
        let fresh = sharded.search(q, k);
        sharded.search_into(q, k, &mut scratch, &mut out);
        assert_eq!(out, fresh, "sharded k={k} query {qi}");
    }
}

/// OMEDRANK and the permutation VP-tree, at the parameters the answer
/// fingerprints below were recorded with.
fn rank_aggregation_methods(data: &Arc<Dataset<Vec<f32>>>) -> Vec<Box<dyn SearchIndex<Vec<f32>>>> {
    vec![
        Box::new(OmedRank::build(
            data.clone(),
            L2,
            OmedRankParams {
                num_pivots: 12,
                gamma: 0.1,
                quorum: 0.5,
                threads: 2,
            },
            1,
        )),
        Box::new(PermVpTree::build(
            data.clone(),
            L2,
            select_pivots(data, 32, 1),
            PermVpTreeParams {
                gamma: 0.05,
                ..Default::default()
            },
            1,
        )),
    ]
}

/// FNV-1a over the ids and distance bits of every k = 10 answer to the
/// `world()` queries, in order.
fn answer_fingerprint(idx: &dyn SearchIndex<Vec<f32>>, queries: &[Vec<f32>]) -> u64 {
    let mut bytes = Vec::new();
    for q in queries {
        for n in idx.search(q, 10) {
            bytes.extend(n.id.to_le_bytes());
            bytes.extend(n.dist.to_bits().to_le_bytes());
        }
    }
    permsearch::store::fnv1a64(&bytes)
}

/// OMEDRANK and the permutation VP-tree answer exactly what they answered
/// before their queries moved onto the scratch pipeline: ids, distance
/// bits and order.
#[test]
fn rank_aggregation_answers_are_pinned() {
    let (data, queries) = world();
    let got: Vec<(&str, u64)> = rank_aggregation_methods(&data)
        .iter()
        .map(|idx| (idx.name(), answer_fingerprint(idx.as_ref(), &queries)))
        .collect();
    assert_eq!(
        got,
        [
            ("omedrank", OMEDRANK_FINGERPRINT),
            ("perm-vptree", PERM_VPTREE_FINGERPRINT)
        ],
        "answers changed"
    );
}

const OMEDRANK_FINGERPRINT: u64 = 910095933510285510;
const PERM_VPTREE_FINGERPRINT: u64 = 12671504703471097402;

/// Golden recall@10 conformance on 10k-point dense / sparse / topic
/// worlds: fixed seeds make these runs fully deterministic, so a kernel or
/// scratch regression that silently degrades quality moves a pinned value
/// and fails tier-1. Pins carry a ±0.005 band (they are exact today;
/// the band only absorbs a future platform's libm differences).
#[test]
fn golden_recall_conformance_10k_worlds() {
    use permsearch::datasets::{sift_like, wiki8_like, wiki_sparse_like};
    use permsearch::eval::{compute_gold, GoldStandard};
    use permsearch::spaces::{CosineDistance, KlDivergence};

    // Exact answers are computed ONCE per world (compute_gold fans out
    // across cores) and shared by every pinned method.
    fn recall10<P, I: SearchIndex<P>>(idx: &I, gold: &GoldStandard, queries: &[P]) -> f64 {
        let total: f64 = queries
            .iter()
            .zip(&gold.neighbors)
            .map(|(q, truth)| permsearch::eval::metrics::recall_vs(&idx.search(q, 10), truth))
            .sum();
        total / queries.len() as f64
    }

    fn pin(world: &str, method: &str, got: f64, expected: f64) {
        assert!(
            (got - expected).abs() <= 0.005,
            "{world}/{method} recall@10 {got:.4} drifted from pinned {expected:.4}"
        );
    }

    // Dense 10k (SIFT-like, L2).
    {
        let gen = sift_like();
        let data = Arc::new(Dataset::new(gen.generate(10_000, 1001)));
        let queries = gen.generate(30, 2002);
        let gold = compute_gold(&data, L2, &queries, 10);
        let napp = Napp::build(
            data.clone(),
            L2,
            NappParams {
                num_pivots: 256,
                num_indexed: 16,
                min_shared: 2,
                threads: 2,
                ..Default::default()
            },
            7,
        );
        pin(
            "dense",
            "napp",
            recall10(&napp, &gold, &queries),
            GOLD_DENSE_NAPP,
        );
        let pivots = select_pivots(&data, 128, 7);
        let bin = BruteForceBinFilter::build(data.clone(), L2, pivots, 0.05, 2);
        pin(
            "dense",
            "brutebin",
            recall10(&bin, &gold, &queries),
            GOLD_DENSE_BRUTEBIN,
        );
        let vp = VpTree::build(data.clone(), L2, VpTreeParams::default(), 7);
        pin("dense", "vptree", recall10(&vp, &gold, &queries), 1.0);
    }

    // Sparse 10k (Wiki-sparse-like TF-IDF, cosine).
    {
        let gen = wiki_sparse_like();
        let data = Arc::new(Dataset::new(gen.generate(10_000, 3003)));
        let queries = gen.generate(20, 4004);
        let gold = compute_gold(&data, CosineDistance, &queries, 10);
        let napp = Napp::build(
            data.clone(),
            CosineDistance,
            NappParams {
                num_pivots: 128,
                num_indexed: 16,
                min_shared: 1,
                max_candidates: Some(1500),
                threads: 2,
                ..Default::default()
            },
            7,
        );
        pin(
            "sparse",
            "napp",
            recall10(&napp, &gold, &queries),
            GOLD_SPARSE_NAPP,
        );
    }

    // Topic 10k (Wiki-8-like histograms, KL-divergence).
    {
        let gen = wiki8_like();
        let data = Arc::new(Dataset::new(gen.generate(10_000, 5005)));
        let queries = gen.generate(30, 6006);
        let gold = compute_gold(&data, KlDivergence, &queries, 10);
        let napp = Napp::build(
            data.clone(),
            KlDivergence,
            NappParams {
                num_pivots: 256,
                num_indexed: 16,
                min_shared: 2,
                threads: 2,
                ..Default::default()
            },
            7,
        );
        pin(
            "topic",
            "napp",
            recall10(&napp, &gold, &queries),
            GOLD_TOPIC_NAPP,
        );
        let mifile = MiFile::build(
            data.clone(),
            KlDivergence,
            MiFileParams {
                num_pivots: 128,
                num_indexed: 32,
                gamma: 0.05,
                threads: 2,
                ..Default::default()
            },
            7,
        );
        pin(
            "topic",
            "mifile",
            recall10(&mifile, &gold, &queries),
            GOLD_TOPIC_MIFILE,
        );
    }
}

/// The golden values, measured at the seeds above when the batched
/// pipeline landed. `vptree` is pinned inline at exactly 1.0 (metric
/// pruning is exact).
const GOLD_DENSE_NAPP: f64 = 0.9867;
const GOLD_DENSE_BRUTEBIN: f64 = 0.3833;
const GOLD_SPARSE_NAPP: f64 = 0.67;
const GOLD_TOPIC_NAPP: f64 = 1.0;
const GOLD_TOPIC_MIFILE: f64 = 0.63;

#[test]
fn self_queries_rank_self_first_across_methods() {
    let (data, _) = world();
    let pivots = select_pivots(&data, 64, 2);
    let bf = BruteForcePermFilter::build(
        data.clone(),
        L2,
        pivots,
        PermDistanceKind::SpearmanRho,
        0.1,
        2,
    );
    let vp = VpTree::build(data.clone(), L2, VpTreeParams::default(), 2);
    for id in [0u32, 57, 1199] {
        let q = data.get(id).to_owned();
        assert_eq!(bf.search(&q, 1)[0].dist, 0.0);
        assert_eq!(vp.search(&q, 1)[0].id, id);
    }
}
