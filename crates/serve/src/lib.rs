#![warn(missing_docs)]

//! Streaming edge ingestion and batched online inference serving for
//! TaGNN.
//!
//! The paper's pipeline is offline: a full [`tagnn_graph::DynamicGraph`]
//! is batched into windows of K snapshots, planned, and executed. This
//! crate turns that into a service for the setting dynamic GNNs actually
//! run in — a live edge stream with latency budgets:
//!
//! * [`event`] — the typed ingestion events ([`EdgeEvent`]: edge/vertex
//!   churn, feature updates, snapshot-boundary ticks) and the canonical
//!   trace derivation used by replay tests and the load generator;
//! * [`roller`] — [`WindowRoller`], sealing events into snapshots and
//!   snapshots into K-windows bit-identical to offline batching;
//! * [`queue`] / [`core`] — bounded admission, opportunistic
//!   micro-batching (the batcher takes what is queued and never waits
//!   for more), and the worker pool running one
//!   [`tagnn_models::EngineSession`] per stream (windows of a stream are
//!   sequentially dependent; streams shard across workers);
//! * [`degrade`] — the graceful-degradation policy that widens the
//!   similarity-aware skip band under sustained backlog and unwinds it
//!   with hysteresis when load clears;
//! * [`binwire`] / [`json`] / [`wire`] / [`server`] — a dependency-free
//!   TCP frontend (binary frames by default, JSON lines for debugging):
//!   one I/O thread blocked in `poll(2)`, woken by the workers when a
//!   reply is ready;
//! * [`loadgen`] — an open/closed-loop trace-replaying client feeding
//!   the `tagnn-loadgen` binary and the `experiments serve-bench`
//!   harness.
//!
//! The load-bearing invariant, pinned by `tests/integration_serve.rs`:
//! at zero backlog, serving a replayed stream produces outputs and work
//! counters bit-identical to the offline engine on the same graph.

pub mod binwire;
pub mod config;
pub mod core;
pub mod degrade;
pub mod error;
pub mod event;
pub mod json;
pub mod loadgen;
pub mod persist;
pub mod queue;
pub mod roller;
pub mod server;
pub mod shard;
pub mod wire;

pub use config::{DurabilityConfig, ServeConfig};
pub use core::{
    digest_matrices, InferRequest, PlanSourceCounts, Reply, ServeCore, ShardStats, Ticket,
    WindowResult,
};
pub use degrade::{DegradationPolicy, DegradationState};
pub use error::ServeError;
pub use event::{empty_base, events_from_graph, EdgeEvent};
pub use loadgen::{LoadgenConfig, LoadgenSummary};
pub use queue::{BoundedQueue, PushOutcome};
pub use roller::{RolledWindow, RollerState, ShardedRoller, ShardedRollerState, WindowRoller};
pub use server::{Server, WireFormat};
pub use shard::{LanesState, SealStats, ShardAssignment, ShardLanes, ShardRouter};
