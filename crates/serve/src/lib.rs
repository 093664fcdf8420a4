//! # dbp-serve — the live dispatcher daemon
//!
//! Everything below the socket is the same engine the batch simulator
//! runs: each shard is a deterministic [`ShardPipeline`] that drives the
//! shared [`EventCore`](dbp_core::EventCore) in open mode — proven to
//! journal the bytes `simulate_probed` journals for the same schedule —
//! and adds the external session map, the event-time horizon, admission
//! control (reused from [`dbp_cloudsim::faults::AdmissionPolicy`]) and a
//! write-ahead journal. The daemon layer ([`server`]) adds NDJSON-over-TCP
//! ingest, online routing through [`dbp_cluster::vector::route_one_dims`],
//! a bounded queue per shard with a [`server::BackpressurePolicy`], a
//! Prometheus `/metrics` endpoint, and the graceful drain protocol that
//! seals every journal and emits one conserved ledger.
//!
//! No external runtime: std-only TCP, thread-per-connection, and each
//! request served on its connection's thread under its shard's lock.
//! The session tables hold live sessions only, but each shard's arena
//! keeps a few columns per arrival and per bin it ever saw (the
//! [`shard`] module docs give the bytes), so memory grows with the
//! stream.

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
