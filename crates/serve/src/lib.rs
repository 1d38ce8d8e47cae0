//! The TCP front door over the permsearch engine.
//!
//! Everything before this crate served in-process slices; this crate puts
//! a network in front of the same engine without changing what it
//! computes:
//!
//! * [`protocol`] — the length-prefixed, checksummed binary frame format,
//!   built from the `permsearch_core::snapshot` codec helpers and the
//!   store container's corruption discipline (magic, version gate,
//!   FNV-1a checksum, capped preallocation);
//! * [`server`] — thread-per-connection serving over
//!   `std::net::TcpListener` with server-side batching: whatever queued
//!   while the engine was busy is served as one engine batch the moment
//!   it frees up, so batches grow with load and an idle server adds no
//!   wait;
//! * [`client`] — a blocking protocol client (also the test harness's
//!   view of the server);
//! * [`loadgen`] — open-loop Poisson load generation for
//!   throughput-vs-latency curves that include queueing delay (no
//!   coordinated omission).
//!
//! The `permsearch-serve` binary warm-starts a deployment directory
//! (dataset + manifest + shard snapshots) and serves it; the `loadgen`
//! binary drives target-QPS sweeps against it and records
//! `BENCH_serve_tcp.json`.

pub mod client;
pub mod loadgen;
pub mod protocol;
pub mod server;

pub use client::{Client, SearchReply};
pub use loadgen::{poisson_schedule, run_open_loop, LoadPoint, OpenLoopConfig};
pub use protocol::{
    frame_to_vec, frame_to_vec_versioned, read_frame, read_frame_versioned, write_frame,
    write_frame_versioned, Frame, ProtocolError, QueryStatus, ServerInfo, MAGIC, MAX_FRAME_BYTES,
    PROTOCOL_VERSION, PROTOCOL_VERSION_V1,
};
pub use server::{Server, ServerConfig, ServerHandle};
