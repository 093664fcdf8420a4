//! # dbp-serve — the live dispatcher daemon
//!
//! Everything below the socket is the same engine the batch simulator
//! runs: each shard worker owns a
//! [`StreamingEngine`](dbp_core::streaming::StreamingEngine) — the
//! bounded-memory, event-time core proven byte-identical to
//! `simulate_probed` — wrapped in a deterministic
//! [`ShardPipeline`](shard::ShardPipeline) that adds the external session
//! map, event-time admission control (reused from
//! [`dbp_cloudsim::faults::AdmissionPolicy`]) and a write-ahead journal.
//! The daemon layer ([`server`]) adds NDJSON-over-TCP ingest, online
//! routing through [`dbp_cluster::vector::route_one_dims`], bounded
//! ingress queues with a [`server::BackpressurePolicy`], a Prometheus
//! `/metrics` endpoint, and the graceful drain protocol that seals every
//! journal and emits one conserved ledger.
//!
//! No external runtime: std-only TCP, thread-per-connection, one worker
//! thread per shard. Memory in the hot path is O(live sessions + open
//! bins), never O(stream length).

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod protocol;
pub mod server;
pub mod shard;
pub mod shutdown;

pub use protocol::{parse_line, parse_line_dims, Reply, Request, WireMsg, MAX_DIMS};
pub use server::{
    journal_shard_path, run_server, BackpressurePolicy, ServeConfig, ServeHandle, ServeSummary,
    ShardReport,
};
pub use shard::{GShardPipeline, Outcome, ServeProbe, ShardLedger, ShardPipeline};
pub use shutdown::{
    global_flag, install_signal_handlers, request_shutdown, reset_shutdown, shutdown_requested,
};
