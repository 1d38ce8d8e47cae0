//! Mutation frames against a live mutable server: wire round-trips,
//! visibility of acknowledged writes, read-only refusals, and bitwise
//! parity between TCP-driven mutations and a local oracle engine fed the
//! same operation stream.

use std::sync::Arc;

use permsearch_core::Dataset;
use permsearch_datasets::{sift_like, Generator};
use permsearch_engine::{
    dense_l2_registry, Engine, MetricsRegistry, MutableEngine, MutableServing, ShardedEngine,
};
use permsearch_serve::{Client, ProtocolError, Server, ServerConfig, ServerHandle};

const N: usize = 300;
const SEED: u64 = 42;

struct World {
    engine: Arc<MutableEngine<Vec<f32>>>,
    handle: ServerHandle,
    addr: String,
    queries: Vec<Vec<f32>>,
    fresh: Vec<Vec<f32>>,
    dim: usize,
}

/// A small mutable deployment (brute base + dynamic-napp delta) served on
/// a free loopback port, plus query and insert material.
fn start_world() -> World {
    let gen = sift_like();
    let data = Arc::new(Dataset::new_flat(gen.generate(N, SEED)));
    let dim = data.dim();
    let queries = gen.generate(24, SEED ^ 0x0051_C0DE);
    let fresh = gen.generate(40, SEED ^ 0x000F_2E54);
    let registry = dense_l2_registry();
    let mut engine =
        MutableEngine::from_registry(&registry, "brute", "dynamic-napp", &data, 2, 2, SEED)
            .expect("build mutable engine");
    let metrics = Arc::new(MetricsRegistry::new());
    engine.attach_metrics(&metrics, 8);
    let engine = Arc::new(engine);
    let mut config = ServerConfig::new("127.0.0.1:0", dim);
    config.metrics = Some(metrics);
    let handle = Server::start_mutable(Arc::clone(&engine), config).expect("bind mutable server");
    let addr = handle.addr().to_string();
    World {
        engine,
        handle,
        addr,
        queries,
        fresh,
        dim,
    }
}

#[test]
fn wire_mutations_are_acknowledged_and_visible() {
    let world = start_world();
    let mut client = Client::connect(world.addr.as_str()).expect("connect");

    // Inserts return ids ascending from the base size, in request order.
    let ids = client.insert(&world.fresh[..6]).expect("insert batch");
    assert_eq!(
        ids,
        (N as u32..N as u32 + 6).collect::<Vec<_>>(),
        "ids ascend from the base size"
    );

    // An inserted point is its own nearest neighbor immediately.
    let got = client.search(&world.fresh[..1], 1).expect("search insert");
    assert_eq!(got[0][0].id, ids[0]);
    assert_eq!(got[0][0].dist, 0.0);

    // Delete it: first remove true, double-remove false, unknown false.
    let flags = client
        .delete(&[ids[0], ids[0], 900_000])
        .expect("delete batch");
    assert_eq!(flags, vec![true, false, false]);
    let got = client.search(&world.fresh[..1], 1).expect("search deleted");
    assert_ne!(got[0][0].id, ids[0], "tombstoned id must not serve");

    // Flush forces a compaction and reports the post-fold state.
    let (generation, live) = client.flush().expect("flush");
    assert!(generation >= 1, "flush forces at least one compaction");
    assert_eq!(live as usize, N + 6 - 1);
    assert_eq!(world.engine.generation(), generation);

    // TCP answers stay bitwise-identical to in-process serving of the
    // same (mutated, compacted) engine.
    let got = client.search(&world.queries, 5).expect("search batch");
    let want = world.engine.serve(&world.queries, 5);
    assert_eq!(got, want.results, "wire results diverged after mutations");
    world.handle.shutdown();
}

#[test]
fn tcp_mutations_match_a_local_oracle_engine() {
    let world = start_world();
    let mut client = Client::connect(world.addr.as_str()).expect("connect");

    // The oracle: an identical engine (same data, methods, seed) that
    // receives the same operation stream locally and never compacts.
    let gen = sift_like();
    let data = Arc::new(Dataset::new_flat(gen.generate(N, SEED)));
    let registry = dense_l2_registry();
    let oracle =
        MutableEngine::from_registry(&registry, "brute", "dynamic-napp", &data, 2, 2, SEED)
            .expect("build oracle");

    // Interleave inserts and deletes, flushing (compacting) the server
    // mid-stream so the comparison crosses a generation boundary.
    for (round, chunk) in world.fresh.chunks(8).enumerate() {
        let ids = client.insert(chunk).expect("insert");
        let oracle_ids = oracle.insert_points(chunk.to_vec()).expect("oracle insert");
        assert_eq!(ids, oracle_ids, "round {round}: id assignment diverged");
        let victims = [ids[0], (round as u32) * 3, N as u32 + round as u32];
        let flags = client.delete(&victims).expect("delete");
        assert_eq!(
            flags,
            oracle.remove_ids(&victims).expect("oracle delete"),
            "round {round}: delete outcomes diverged"
        );
        if round % 2 == 1 {
            client.flush().expect("flush");
        }
    }
    assert!(world.engine.generation() >= 1, "server engine compacted");
    assert_eq!(oracle.generation(), 0, "oracle never compacted");

    // Same ops, one side compacted over TCP: answers are bitwise equal.
    for k in [1usize, 4, 13] {
        let got = client.search(&world.queries, k as u32).expect("search");
        let want = oracle.serve(&world.queries, k);
        assert_eq!(got, want.results, "k={k} diverged from the oracle");
    }
    world.handle.shutdown();
}

#[test]
fn invalid_insert_points_are_remote_errors_and_connection_survives() {
    let world = start_world();
    let mut client = Client::connect(world.addr.as_str()).expect("connect");

    match client.insert(&[vec![1.0, 2.0]]) {
        Err(ProtocolError::Remote(msg)) => assert!(msg.contains("dimension"), "{msg}"),
        other => panic!("wrong dim should be a remote error, got {other:?}"),
    }
    match client.insert(&[vec![f32::INFINITY; world.dim]]) {
        Err(ProtocolError::Remote(msg)) => assert!(msg.contains("non-finite"), "{msg}"),
        other => panic!("inf point should be a remote error, got {other:?}"),
    }
    // A rejected batch inserts nothing...
    assert_eq!(world.engine.len(), N);
    // ...and the same connection still accepts a valid one.
    let ids = client
        .insert(&world.fresh[..1])
        .expect("insert after rejects");
    assert_eq!(ids, vec![N as u32]);
    world.handle.shutdown();
}

#[test]
fn read_only_server_refuses_mutation_frames() {
    let gen = sift_like();
    let data = Arc::new(Dataset::new_flat(gen.generate(N, SEED)));
    let dim = data.dim();
    let registry = dense_l2_registry();
    let engine = ShardedEngine::from_registry(&registry, "brute", &data, 2, 2, SEED)
        .expect("build read-only engine");
    let handle = Server::start(
        Arc::new(engine) as Arc<dyn Engine<Vec<f32>>>,
        ServerConfig::new("127.0.0.1:0", dim),
    )
    .expect("bind read-only server");
    let addr = handle.addr().to_string();
    let mut client = Client::connect(addr.as_str()).expect("connect");

    let point = vec![0.0f32; dim];
    let refusals: [Result<(), ProtocolError>; 3] = [
        client.insert(&[point]).map(|_| ()),
        client.delete(&[0]).map(|_| ()),
        client.flush().map(|_| ()),
    ];
    for refusal in refusals {
        match refusal {
            Err(ProtocolError::Remote(msg)) => {
                assert!(msg.contains("read-only"), "{msg}");
            }
            other => panic!("expected a read-only refusal, got {other:?}"),
        }
    }
    // The connection still serves queries after three refusals.
    let results = client.search(&[vec![0.5f32; dim]], 3).expect("search");
    assert_eq!(results[0].len(), 3);
    handle.shutdown();
}
