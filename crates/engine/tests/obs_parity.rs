//! Parity between the metrics registry's `permsearch_dists_total` and an
//! independent `CountedSpace` tally.
//!
//! The observability design has exactly one distance counter: the registry
//! handle *is* the counter a `CountedSpace` bumps
//! (`CountedSpace::with_counter`). This test deploys every space-generic
//! method twice with identical seeds — once over a space counting into a
//! registry handle, once over a control `CountedSpace` — serves the same
//! batch through both, and requires the two tallies to agree exactly.

use std::sync::Arc;

use permsearch_core::{CountedSpace, Dataset};
use permsearch_engine::{standard_registry, Engine, MetricsRegistry, ShardedEngine};
use permsearch_spaces::L2;

fn world(n: usize) -> (Arc<Dataset<Vec<f32>>>, Vec<Vec<f32>>) {
    let data = Arc::new(Dataset::new(
        (0..n)
            .map(|i| vec![(i % 19) as f32, (i / 19) as f32, (i % 7) as f32])
            .collect::<Vec<_>>(),
    ));
    let queries: Vec<Vec<f32>> = (0..48)
        .map(|i| vec![(i % 6) as f32 + 0.3, (i / 6) as f32 + 0.7, (i % 3) as f32])
        .collect();
    (data, queries)
}

#[test]
fn registry_dists_total_matches_counted_space_per_method() {
    let (data, queries) = world(400);
    for method in ["napp", "mifile", "ppindex", "brute", "vptree", "sw-graph"] {
        let metrics_registry = MetricsRegistry::new();
        let handle = metrics_registry.counter(
            "permsearch_dists_total",
            "Distance computations.",
            &[("method", method)],
        );
        let observed_methods = standard_registry(CountedSpace::with_counter(L2, handle.clone()));
        let observed =
            ShardedEngine::from_registry(&observed_methods, method, &data, 2, 1, 7).unwrap();

        let control_space = CountedSpace::new(L2);
        // Clones share one Arc'd counter, so the control tally spans every
        // shard builder clone exactly like the registry handle does.
        let control_methods = standard_registry(control_space.clone());
        let control =
            ShardedEngine::from_registry(&control_methods, method, &data, 2, 1, 7).unwrap();

        let a = observed.serve(&queries, 5);
        let b = control.serve(&queries, 5);
        assert_eq!(a.results, b.results, "{method}: deployments must be twins");

        assert!(handle.get() > 0, "{method}: no distances counted");
        assert_eq!(
            handle.get(),
            control_space.count(),
            "{method}: registry dists_total diverged from CountedSpace"
        );
    }
}
