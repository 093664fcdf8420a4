//! # dbp-cluster — sharded multi-dispatcher scale-out
//!
//! The paper's dispatcher is a single MinTotal DBP instance; the providers
//! its introduction cites run many regional server pools behind a routing
//! layer. This crate is that layer over the `dbp-core` engine:
//!
//! * [`Router`] — deterministic routing policies (hash-by-item,
//!   game-affinity against the `dbp-workloads` catalog, exact-integer
//!   least-loaded) that partition one request stream into per-shard
//!   instances via [`Instance::restrict`](dbp_core::instance::Instance::restrict).
//!   One rule, [`route_one_dims`], decides each arrival — the serve
//!   daemon's front door calls it, and [`Router::assign`] folds it over
//!   scalar and vector instances alike;
//! * [`ClusterEngine`] — runs every shard as an independent
//!   [`GamingSystem`](dbp_cloudsim::GamingSystem)-equivalent dispatch on a
//!   bounded thread pool. Every run shares one fan-out (validate, partition,
//!   enqueue, pool, panic containment, timing) and differs only in its
//!   per-shard work and its fan-in. There is one entry point per fault
//!   model, and each is generic over the demand type
//!   ([`Demand`](dbp_core::demand::Demand)): a scalar
//!   [`Instance`](dbp_core::instance::Instance) and a multi-resource
//!   [`GInstance`](dbp_core::instance::GInstance) take the same path,
//!   bill and ledger alike:
//!   * [`ClusterEngine::run_traced`] — the plain run: one
//!     [`Probe`](dbp_core::probe::Probe) and one
//!     [`SpanRecorder`](dbp_core::span::SpanRecorder) per shard plus a
//!     driver lane, returning a [`ClusterTrace`] with exact
//!     [`ClusterTiming`] (partition / enqueue / dispatch / fan-in, and
//!     per-shard queue-wait vs busy) for `dbp profile` and Chrome traces;
//!     [`ClusterEngine::run_probed`] is it without spans;
//!   * [`ClusterEngine::run_resilient`] — per-shard
//!     [`FaultPlan`](dbp_cloudsim::FaultPlan)s through the resilient
//!     dispatcher, with a cluster-wide conserved
//!     [`SessionLedger`](dbp_cloudsim::SessionLedger);
//!   * [`ClusterEngine::run_self_healing`] — shard-level fault
//!     containment: a deterministic [`ShardFaultPlan`] kills shards
//!     mid-run, a per-shard supervisor catches the unwind, re-runs the
//!     shard verified against its whole event journal under a
//!     [`VerifyProbe`](dbp_core::probe::VerifyProbe) within a bounded
//!     restart budget, and reroutes only *future* arrivals off
//!     shards that stay dead — returning a [`ClusterHealedRun`] whose
//!     extended ledger conserves
//!     `served + dropped + lost + rerouted == total`.
//!
//!   Pass `|_| NoProbe` / `|_, _| NoSpans` (zero-sized) for "none";
//!   [`run_shard`] drives one shard on its own;
//! * [`ClusterReport`] — the exact aggregate: its
//!   [`Bill`](dbp_cloudsim::Bill) is the plain sum of the shard bills
//!   (shards share no servers, so costs are additive), plus a merged
//!   [`RunManifest`](dbp_obs::RunManifest) whose digest covers the full
//!   pre-partition stream. At `D > 1`, [`vector::dim_reports`] adds the
//!   per-dimension utilization/waste ledger.
//!
//! The differential guarantee the test suite pins down: a 1-shard cluster
//! *is* the plain system run — same report, same JSONL event stream, same
//! manifest digest — and for any shard count the union of shard traces
//! serves every item exactly once.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod cancel;
pub mod engine;
pub mod faults;
pub mod router;
pub mod vector;

pub use engine::{
    run_shard, ClusterConfig, ClusterEngine, ClusterError, ClusterHealedRun, ClusterReport,
    ClusterResilientReport, ClusterResilientRun, ClusterRun, ClusterTiming, ClusterTrace,
    ShardHealthReport, ShardRun, TracedRun,
};
pub use faults::{KillPoint, RestartPolicy, ShardFaultPlan, ShardHealth, ShardKill};
pub use router::Router;
pub use vector::route_one_dims;
