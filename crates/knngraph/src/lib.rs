//! Proximity-graph retrieval (paper §3.2).
//!
//! Data points are graph nodes; edges connect points to their (approximate)
//! nearest neighbors. Search exploits the folklore wisdom "the closest
//! neighbor of my closest neighbor is my neighbor as well": a greedy
//! traversal repeatedly moves to the neighbor closest to the query,
//! escaping local minima through an extended neighborhood (best-first
//! expansion) and multiple restarts.
//!
//! Two construction algorithms, as in the paper:
//!
//! * [`SwGraph`] — Malkov et al.'s Small-World graph: points are inserted
//!   one by one, each connected to the `m` nearest nodes found by running
//!   the search algorithm itself on the graph built so far;
//! * [`nndescent()`](nndescent::nndescent) — Dong et al.'s NN-descent: iterative neighborhood
//!   propagation from a random initial k-NN graph until convergence.
//!
//! Both graphs are queried with the same best-first algorithm
//! ([`search::greedy_search_with`]), mirroring the paper's use of the
//! NMSLIB search routine for NN-descent-built graphs.

pub mod nndescent;
pub mod search;
pub mod sw;

pub use nndescent::{nndescent, NnDescentGraph, NnDescentParams};
pub use search::greedy_search_with;
pub use sw::{SwGraph, SwGraphParams};
