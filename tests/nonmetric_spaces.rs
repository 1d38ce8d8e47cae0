//! Integration coverage of the non-metric spaces: the left-query
//! convention for the asymmetric KL-divergence, JS-divergence workflows,
//! and edit-distance search — each through a full index + refine pipeline.

use std::sync::Arc;

use permsearch::core::{Dataset, ExhaustiveSearch, SearchIndex, Space};
use permsearch::datasets::{DirichletTopics, DnaSubstrings, Generator};
use permsearch::permutation::{Napp, NappParams};
use permsearch::spaces::{JsDivergence, KlDivergence, NormalizedLevenshtein};
use permsearch::vptree::{tune_alphas, Pruner, VpTree, VpTreeParams};

#[test]
fn kl_left_queries_are_consistent_across_methods() {
    let gen = DirichletTopics::new(8, 0.35);
    let data = Arc::new(Dataset::new(gen.generate(800, 3)));
    let queries = gen.generate(15, 5);
    let exact = ExhaustiveSearch::new(data.clone(), KlDivergence);
    let napp = Napp::build(
        data.clone(),
        KlDivergence,
        NappParams {
            num_pivots: 128,
            num_indexed: 16,
            min_shared: 1,
            threads: 2,
            ..Default::default()
        },
        7,
    );
    // Every reported distance must be the left-query KL(data || query).
    for q in &queries {
        for n in napp.search(q, 5) {
            let expected = KlDivergence.distance(data.get(n.id), q);
            assert!((n.dist - expected).abs() < 1e-5);
        }
    }
    // And high recall against the exact left-query scan.
    let mut total = 0.0;
    for q in &queries {
        let truth: Vec<u32> = exact.search(q, 10).iter().map(|n| n.id).collect();
        let res = napp.search(q, 10);
        total += truth
            .iter()
            .filter(|t| res.iter().any(|n| n.id == **t))
            .count() as f64
            / 10.0;
    }
    assert!(total / queries.len() as f64 > 0.8);
}

#[test]
fn tuned_vptree_beats_untuned_on_kl() {
    let gen = DirichletTopics::new(8, 0.35);
    let data = Arc::new(Dataset::new(gen.generate(1500, 11)));
    let queries = gen.generate(20, 13);
    let exact = ExhaustiveSearch::new(data.clone(), KlDivergence);

    let tuned = tune_alphas(&data, KlDivergence, 2, 0.9, 700, 25, 10, 3);
    let tree = VpTree::build(
        data.clone(),
        KlDivergence,
        VpTreeParams {
            bucket_size: 32,
            pruner: tuned.pruner(),
        },
        5,
    );
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
    assert!(recall > 0.75, "tuned VP-tree recall {recall}");
}

#[test]
fn js_divergence_pipeline_works() {
    let gen = DirichletTopics::new(16, 0.3);
    let data = Arc::new(Dataset::new(gen.generate(600, 17)));
    let queries = gen.generate(10, 19);
    let tree = VpTree::build(
        data.clone(),
        JsDivergence,
        VpTreeParams {
            bucket_size: 16,
            pruner: Pruner::Polynomial {
                alpha_left: 0.5,
                alpha_right: 0.5,
                beta: 1,
            },
        },
        3,
    );
    for q in &queries {
        let res = tree.search(q, 5);
        assert_eq!(res.len(), 5);
        assert!(res.windows(2).all(|w| w[0].dist <= w[1].dist));
        assert!(res.iter().all(|n| n.dist.is_finite() && n.dist >= 0.0));
    }
}

#[test]
fn edit_distance_search_finds_close_substrings() {
    let gen = DnaSubstrings::new(1 << 14, 32.0, 4.0);
    let data = Arc::new(Dataset::new(gen.generate(500, 23)));
    // Mutate an indexed sequence slightly: the original must be its 1-NN.
    let mut q = data.get(123).clone();
    if q[0] == b'A' {
        q[0] = b'C';
    } else {
        q[0] = b'A';
    }
    let exact = ExhaustiveSearch::new(data.clone(), NormalizedLevenshtein);
    let res = exact.search(&q, 1);
    assert_eq!(res[0].id, 123);
    assert!(res[0].dist <= 1.0 / 16.0, "one edit over len >= 16");
}

/// The classic two-row edit-distance dynamic program, kept here as an
/// oracle that shares no code with the library's bit-vector kernel.
fn reference_levenshtein(x: &[u8], y: &[u8]) -> u32 {
    let mut prev: Vec<u32> = (0..=y.len() as u32).collect();
    let mut curr = vec![0u32; y.len() + 1];
    for (i, &xi) in x.iter().enumerate() {
        curr[0] = i as u32 + 1;
        for (j, &yj) in y.iter().enumerate() {
            let sub = prev[j] + u32::from(xi != yj);
            curr[j + 1] = sub.min(prev[j + 1] + 1).min(curr[j] + 1);
        }
        std::mem::swap(&mut prev, &mut curr);
    }
    prev[y.len()]
}

/// Edit distance is an exact integer, so the exhaustive scan over the
/// block kernel must return the very neighbours — ids and distance bits,
/// ties broken by id — that a scan over the dynamic program returns.
#[test]
fn exhaustive_dna_scan_matches_reference_dp_oracle() {
    let gen = DnaSubstrings::new(1 << 14, 32.0, 4.0);
    let data = Arc::new(Dataset::new(gen.generate(300, 29)));
    let queries = gen.generate(25, 31);
    let exact = ExhaustiveSearch::new(data.clone(), NormalizedLevenshtein);
    for q in &queries {
        let mut oracle: Vec<(u32, u32)> = (0..data.len() as u32)
            .map(|id| {
                let x = data.get(id);
                let edits = reference_levenshtein(x, q);
                let dist = edits as f32 / x.len().max(q.len()) as f32;
                (dist.to_bits(), id)
            })
            .collect();
        // Non-negative floats order like their bit patterns.
        oracle.sort_unstable();
        oracle.truncate(10);
        let got: Vec<(u32, u32)> = exact
            .search(q, 10)
            .iter()
            .map(|n| (n.dist.to_bits(), n.id))
            .collect();
        assert_eq!(got, oracle);
    }
}
