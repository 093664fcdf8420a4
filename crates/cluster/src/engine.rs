//! The cluster engine: partition one request stream across N independent
//! `dbp-core` engine shards, run them on a bounded thread pool, and merge
//! the accounting exactly.
//!
//! Every shard is a full [`GamingSystem`]-equivalent dispatch run over the
//! restricted instance its router slice produced; costs are additive
//! because shards share no servers, so the aggregate `busy_ticks`,
//! `billed_ticks` and `cost_cents` are plain sums in `u128`/[`Ratio`] —
//! no floats anywhere in the ledger. A 1-shard cluster is *the* plain
//! system run: same trace, same event stream, same report.

use crate::faults::{
    panic_message, supervise_shard, KillPoint, ShardFate, ShardFaultPlan, ShardHealth,
    ShardSupervision,
};
use crate::router::Router;
use dbp_cloudsim::{
    DispatchError, FaultPlan, GamingSystem, ResilientReport, ResilientSystem, SystemReport,
};
use dbp_core::demand::Demand;
use dbp_core::engine::EngineRun;
use dbp_core::instance::{GInstance, Instance};
use dbp_core::item::ItemId;
use dbp_core::packer::SelectorFactory;
use dbp_core::probe::{NoProbe, Probe, ProbeEvent, VerifyProbe};
use dbp_core::ratio::Ratio;
use dbp_core::span::{stage, NoSpans, SpanRecorder};
use dbp_core::time::Tick;
use dbp_core::trace::PackingTrace;
use dbp_obs::span::{SpanCollector, DRIVER_LANE};
use dbp_obs::{MetricsRegistry, RunManifest};
use serde::{Deserialize, Serialize};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, PoisonError};
use std::time::Instant;

/// How the ingestion loop drains each shard's schedule.
///
/// Batching is *transparent by construction*: the engine's schedule is
/// already time-ordered and a batch boundary only decides how many events
/// one `step()` burst processes before the worker yields, so the decision
/// sequence, trace and cost are identical for every policy (property-tested
/// in `tests/cluster_props.rs`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BatchPolicy {
    /// One schedule event per burst — the unbatched reference feeding.
    PerEvent,
    /// Time-ordered chunks of up to `n` schedule events.
    Chunks(usize),
    /// Drain the whole shard schedule in one burst.
    WholeStream,
}

impl BatchPolicy {
    pub(crate) fn burst(self) -> usize {
        match self {
            BatchPolicy::PerEvent => 1,
            BatchPolicy::Chunks(n) => n.max(1),
            BatchPolicy::WholeStream => usize::MAX,
        }
    }
}

/// Typed failure of a cluster run: bad shape, workload mismatch, a
/// malformed fault plan, or a shard worker panic the pool contained. One
/// shard dying yields this value — never a process abort.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ClusterError {
    /// The cluster was configured with zero shards.
    ZeroShards,
    /// The ingestion batch size was zero ([`BatchPolicy::Chunks`]`(0)`).
    ZeroBatch,
    /// The per-shard system rejected the workload.
    Dispatch(DispatchError),
    /// A shard worker panicked; the pool contained the unwind and the
    /// run was abandoned with this report instead of aborting.
    ShardPanicked {
        /// Index of the shard whose worker died.
        shard: usize,
        /// The panic payload, rendered.
        message: String,
    },
    /// `run_resilient` needs exactly one [`FaultPlan`] per shard.
    FaultPlanCount {
        /// The cluster's shard count.
        expected: usize,
        /// Plans supplied.
        got: usize,
    },
    /// A [`ShardFaultPlan`] is inconsistent with this cluster.
    BadFaultPlan {
        /// What was wrong.
        message: String,
    },
    /// The registered [`cancel`](crate::cancel) latch was raised mid-run:
    /// every shard stopped stepping promptly and the run was abandoned.
    /// Probes (journals included) flush and fsync on the way out, so a
    /// journaled run interrupted this way stays `dbp recover`-clean.
    Interrupted,
}

impl std::fmt::Display for ClusterError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClusterError::ZeroShards => write!(f, "a cluster needs at least one shard"),
            ClusterError::ZeroBatch => write!(f, "ingestion batch size must be at least 1"),
            ClusterError::Dispatch(e) => write!(f, "{e}"),
            ClusterError::ShardPanicked { shard, message } => {
                write!(f, "shard {shard} panicked: {message}")
            }
            ClusterError::Interrupted => {
                write!(f, "run interrupted by shutdown request; journals flushed")
            }
            ClusterError::FaultPlanCount { expected, got } => {
                write!(
                    f,
                    "need exactly one fault plan per shard ({expected}), got {got}"
                )
            }
            ClusterError::BadFaultPlan { message } => write!(f, "bad shard fault plan: {message}"),
        }
    }
}

impl std::error::Error for ClusterError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ClusterError::Dispatch(e) => Some(e),
            _ => None,
        }
    }
}

impl From<DispatchError> for ClusterError {
    fn from(e: DispatchError) -> ClusterError {
        ClusterError::Dispatch(e)
    }
}

/// Cluster shape: shard count, routing policy, ingestion batching and the
/// worker pool bound.
#[derive(Debug, Clone, Copy)]
pub struct ClusterConfig {
    /// Number of engine shards (≥ 1).
    pub shards: usize,
    /// Routing policy.
    pub router: Router,
    /// Ingestion batching policy.
    pub batch: BatchPolicy,
    /// Worker threads running shards; `0` means available parallelism.
    /// Always clamped to the shard count, like `run_all`'s pool.
    pub jobs: usize,
}

impl ClusterConfig {
    /// A cluster of `shards` shards under `router`, whole-stream batching,
    /// default worker pool.
    ///
    /// # Errors
    /// [`ClusterError::ZeroShards`] when `shards == 0`.
    pub fn new(shards: usize, router: Router) -> Result<ClusterConfig, ClusterError> {
        let config = ClusterConfig {
            shards,
            router,
            batch: BatchPolicy::WholeStream,
            jobs: 0,
        };
        config.validate()?;
        Ok(config)
    }

    /// Check the shape invariants. The fields are public, so every run
    /// boundary re-validates rather than trusting construction.
    ///
    /// # Errors
    /// [`ClusterError::ZeroShards`] / [`ClusterError::ZeroBatch`].
    pub fn validate(&self) -> Result<(), ClusterError> {
        if self.shards == 0 {
            return Err(ClusterError::ZeroShards);
        }
        if matches!(self.batch, BatchPolicy::Chunks(0)) {
            return Err(ClusterError::ZeroBatch);
        }
        Ok(())
    }

    /// The resolved worker-pool size: `jobs` (or available parallelism
    /// when 0), clamped to the shard count.
    pub fn workers(&self) -> usize {
        let n = if self.jobs == 0 {
            std::thread::available_parallelism()
                .map(|p| p.get())
                .unwrap_or(1)
        } else {
            self.jobs
        };
        n.clamp(1, self.shards)
    }
}

/// One shard's complete outcome.
#[derive(Debug, Clone)]
pub struct ShardRun {
    /// Shard index in `0..shards`.
    pub shard: usize,
    /// The shard's dispatch report (per-shard manifest attached, its
    /// digest taken over the shard's restricted instance).
    pub report: SystemReport,
    /// The shard's packing trace (item ids are shard-local).
    pub trace: PackingTrace,
    /// Back-map: shard-local item id index → original [`ItemId`].
    pub back: Vec<ItemId>,
}

/// Exact aggregate of a cluster run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ClusterReport {
    /// Dispatcher name (every shard runs the same policy).
    pub algorithm: String,
    /// Router name.
    pub router: String,
    /// Shard count.
    pub shards: usize,
    /// Sessions served across all shards (= the instance size).
    pub sessions_served: usize,
    /// Distinct servers rented across all shards (ids are per-shard).
    pub servers_rented: usize,
    /// Sum of per-shard peak fleets — what the cluster must be able to
    /// provision if every pool peaks at once.
    pub peak_servers: u32,
    /// Exact sum of shard busy times, in server-ticks.
    pub busy_ticks: u128,
    /// Exact sum of shard billed times.
    pub billed_ticks: u128,
    /// Exact sum of shard bills, in cents.
    pub cost_cents: Ratio,
    /// Cluster-wide utilization: total demand over `W ·` total busy time.
    pub utilization: Ratio,
    /// Merged provenance: the *combined* digest is taken over the full
    /// (pre-partition) instance, so it is independent of shard count and
    /// router — any two clusterings of the same stream share it — and for
    /// one shard it equals the plain run's digest byte for byte.
    pub manifest: RunManifest,
}

/// A finished cluster run: the aggregate report, every shard's outcome,
/// and the router's item → shard assignment.
#[derive(Debug, Clone)]
pub struct ClusterRun {
    /// Exact aggregate accounting.
    pub report: ClusterReport,
    /// Per-shard outcomes, indexed by shard.
    pub shards: Vec<ShardRun>,
    /// `assignment[item.index()]` is the shard that served the item.
    pub assignment: Vec<usize>,
}

impl ClusterRun {
    /// Per-shard metrics with `{shard="N"}`-labelled names plus unlabelled
    /// cluster totals, ready for Prometheus text export. The per-shard
    /// registries fan in via [`MetricsRegistry::absorb_labeled`].
    pub fn metrics(&self, per_shard: &[MetricsRegistry]) -> MetricsRegistry {
        let mut merged = MetricsRegistry::new();
        merged.counter_add("dbp_cluster_shards", self.report.shards as u64);
        merged.counter_add(
            "dbp_cluster_sessions_served_total",
            self.report.sessions_served as u64,
        );
        merged.counter_add(
            "dbp_cluster_servers_rented_total",
            self.report.servers_rented as u64,
        );
        merged.counter_add(
            "dbp_cluster_busy_ticks_total",
            u64::try_from(self.report.busy_ticks).unwrap_or(u64::MAX),
        );
        merged.counter_add(
            "dbp_cluster_billed_ticks_total",
            u64::try_from(self.report.billed_ticks).unwrap_or(u64::MAX),
        );
        for (shard, reg) in per_shard.iter().enumerate() {
            merged.absorb_labeled(reg, "shard", &shard.to_string());
        }
        merged
    }
}

/// Exact wall-clock attribution of one cluster run, nanoseconds end to
/// end: where the driver spent its time and, per shard, how long the work
/// unit waited for a pool worker versus actually ran. Derived from the
/// same epoch as every span lane, so `partition + batch_enqueue + dispatch
/// + fan_in` accounts for (nearly all of) `wall_ns`, and per shard
/// `queue_wait + busy ≤ dispatch`.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ClusterTiming {
    /// Whole run, capacity check to merged report.
    pub wall_ns: u64,
    /// Router assignment + instance restriction.
    pub partition_ns: u64,
    /// Building the per-shard work units.
    pub batch_enqueue_ns: u64,
    /// The parallel section: pool start to last shard done.
    pub dispatch_ns: u64,
    /// Collecting shard outcomes and merging the ledger + manifest.
    pub fan_in_ns: u64,
    /// Per shard: pool start → a worker claimed the unit.
    pub queue_wait_ns: Vec<u64>,
    /// Per shard: claim → shard complete (engine run + validation + report).
    pub busy_ns: Vec<u64>,
}

impl ClusterTiming {
    /// Driver-side accounted time: the sequential stages end to end.
    pub fn accounted_ns(&self) -> u64 {
        self.partition_ns + self.batch_enqueue_ns + self.dispatch_ns + self.fan_in_ns
    }
}

/// Span capture of one traced cluster run: the driver lane, one recorder
/// per shard (in shard order, merged lock-free by collection), and the
/// derived [`ClusterTiming`]. All lanes share one epoch.
#[derive(Debug, Clone)]
pub struct ClusterTrace<R> {
    /// Driver-lane spans: `partition`/`route`, `batch_enqueue`,
    /// `dispatch`, `fan_in`/`manifest_merge`.
    pub driver: SpanCollector,
    /// Per-shard recorders, indexed by shard. Each holds the shard's
    /// `queue_wait` and `shard_busy` spans with the engine's
    /// `arrival`/`decide`/`place`/`departure` spans nested inside.
    pub shards: Vec<R>,
    /// Exact stage/utilization attribution.
    pub timing: ClusterTiming,
}

/// Aggregate SLA ledger of a fault-injected cluster run.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct ClusterResilientReport {
    /// Dispatcher name.
    pub algorithm: String,
    /// Router name.
    pub router: String,
    /// Shard count.
    pub shards: usize,
    /// Sum of shard session totals (= the instance size).
    pub sessions_total: u64,
    /// Sessions served to completion, across shards.
    pub sessions_served: u64,
    /// Sessions dropped at admission, across shards.
    pub sessions_dropped: u64,
    /// Sessions lost to crashes, across shards.
    pub sessions_lost: u64,
    /// Exact sum of shard busy times.
    pub busy_ticks: u128,
    /// Exact sum of shard billed times.
    pub billed_ticks: u128,
    /// Exact sum of shard bills, in cents.
    pub cost_cents: Ratio,
    /// Sessions rerouted off dead shards onto healthy ones by the
    /// self-healing runs; always 0 for [`ClusterEngine::run_resilient`].
    #[serde(default)]
    pub sessions_rerouted: u64,
    /// Shard kills that landed (self-healing runs; injected or genuine).
    #[serde(default)]
    pub shard_kills: u64,
    /// Successful journal-backed shard resurrections.
    #[serde(default)]
    pub shard_restarts: u64,
    /// Total events replayed across all resurrections.
    #[serde(default)]
    pub shard_replayed_events: u64,
    /// Shards that ended the run abandoned ([`ShardHealth::Down`]).
    #[serde(default)]
    pub shards_lost: u64,
}

impl ClusterResilientReport {
    /// The conservation law, cluster-wide: every session is served,
    /// dropped, lost, or rerouted — nothing double-counted, nothing
    /// vanishes. (Rerouted sessions are billed under `sessions_rerouted`
    /// alone, even though a healthy shard ultimately served them.)
    pub fn conserved(&self) -> bool {
        self.sessions_served + self.sessions_dropped + self.sessions_lost + self.sessions_rerouted
            == self.sessions_total
    }
}

/// A finished fault-injected cluster run.
#[derive(Debug, Clone)]
pub struct ClusterResilientRun {
    /// Aggregate SLA ledger.
    pub report: ClusterResilientReport,
    /// Per-shard ledgers, indexed by shard.
    pub shards: Vec<ResilientReport>,
    /// Router assignment, item → shard.
    pub assignment: Vec<usize>,
}

/// One shard's outcome under self-healing supervision: final health, the
/// four-way session ledger over its *original* assignment, restart
/// statistics, and its exact bill (reroute work it hosted included).
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct ShardHealthReport {
    /// Shard index.
    pub shard: usize,
    /// Final health ([`ShardHealth::Up`] possibly after resurrections).
    pub health: ShardHealth,
    /// Sessions the router originally assigned to this shard.
    pub sessions_total: u64,
    /// Of those, sessions served to completion here.
    pub sessions_served: u64,
    /// Of those, sessions dropped (shard died with no healthy peer left).
    pub sessions_dropped: u64,
    /// Of those, sessions in flight when the shard was abandoned.
    pub sessions_lost: u64,
    /// Of those, not-yet-arrived sessions moved to healthy shards.
    pub sessions_rerouted_out: u64,
    /// Sessions this shard hosted *for* dead peers (not part of its own
    /// conservation ledger — they stay billed under the cluster's
    /// `sessions_rerouted`).
    pub sessions_rerouted_in: u64,
    /// Kills that landed on this shard.
    pub kills: u64,
    /// Successful journal-backed resurrections.
    pub restarts: u64,
    /// Events replayed across this shard's resurrections.
    pub replayed_events: u64,
    /// Restart backoff charged, in ticks.
    pub backoff_ticks: u64,
    /// Distinct servers this shard rented (host work included).
    pub servers_rented: u64,
    /// Server-ticks used (host work for rerouted sessions included).
    pub busy_ticks: u128,
    /// Billed ticks under the system granularity.
    pub billed_ticks: u128,
    /// Exact bill in cents.
    pub cost_cents: Ratio,
    /// Why the shard went [`ShardHealth::Down`], when it did.
    #[serde(default, skip_serializing_if = "Option::is_none")]
    pub down_reason: Option<String>,
}

impl ShardHealthReport {
    /// Per-shard conservation over the original assignment:
    /// `served + dropped + lost + rerouted_out == total`.
    pub fn conserved(&self) -> bool {
        self.sessions_served
            + self.sessions_dropped
            + self.sessions_lost
            + self.sessions_rerouted_out
            == self.sessions_total
    }
}

/// A finished self-healing cluster run: the extended SLA ledger, per-shard
/// health, the original routing, and the run manifest (restart count and
/// conservation verdict stamped in).
#[derive(Debug, Clone)]
pub struct ClusterHealedRun {
    /// Extended aggregate ledger; `report.conserved()` is the cluster's
    /// conservation law.
    pub report: ClusterResilientReport,
    /// Per-shard health reports, indexed by shard.
    pub shards: Vec<ShardHealthReport>,
    /// Router assignment, item → shard (the *original* assignment;
    /// rerouted sessions keep their dead home shard here).
    pub assignment: Vec<usize>,
    /// Provenance with `shard_restarts` and `ledger_conserved` attached.
    pub manifest: RunManifest,
}

impl ClusterHealedRun {
    /// Prometheus-ready metrics: cluster totals plus per-shard
    /// `dbp_cluster_shard_up{shard="K"}` gauges and restart/kill counters.
    pub fn metrics(&self) -> MetricsRegistry {
        let mut reg = MetricsRegistry::new();
        reg.counter_add("dbp_cluster_shards", self.report.shards as u64);
        reg.counter_add(
            "dbp_cluster_sessions_served_total",
            self.report.sessions_served,
        );
        reg.counter_add(
            "dbp_cluster_sessions_dropped_total",
            self.report.sessions_dropped,
        );
        reg.counter_add("dbp_cluster_sessions_lost_total", self.report.sessions_lost);
        reg.counter_add(
            "dbp_cluster_sessions_rerouted_total",
            self.report.sessions_rerouted,
        );
        reg.counter_add("dbp_cluster_shard_kills_total", self.report.shard_kills);
        reg.counter_add(
            "dbp_cluster_shard_restarts_total",
            self.report.shard_restarts,
        );
        reg.counter_add(
            "dbp_cluster_shard_replayed_events_total",
            self.report.shard_replayed_events,
        );
        reg.counter_add(
            "dbp_cluster_busy_ticks_total",
            u64::try_from(self.report.busy_ticks).unwrap_or(u64::MAX),
        );
        reg.counter_add(
            "dbp_cluster_billed_ticks_total",
            u64::try_from(self.report.billed_ticks).unwrap_or(u64::MAX),
        );
        for h in &self.shards {
            let up = matches!(h.health, ShardHealth::Up);
            reg.gauge_set(
                &format!("dbp_cluster_shard_up{{shard=\"{}\"}}", h.shard),
                i64::from(up),
            );
            reg.counter_add(
                &format!("dbp_cluster_shard_restarts{{shard=\"{}\"}}", h.shard),
                h.restarts,
            );
            reg.counter_add(
                &format!("dbp_cluster_shard_kills{{shard=\"{}\"}}", h.shard),
                h.kills,
            );
        }
        reg
    }
}

/// The scale-out dispatch layer: a [`GamingSystem`] per shard behind a
/// [`Router`].
#[derive(Debug, Clone, Copy)]
pub struct ClusterEngine {
    /// The per-shard system (server flavor + billing granularity).
    pub system: GamingSystem,
    /// Cluster shape.
    pub config: ClusterConfig,
}

impl ClusterEngine {
    /// A cluster of `config` shape over `system`.
    pub fn new(system: GamingSystem, config: ClusterConfig) -> ClusterEngine {
        ClusterEngine { system, config }
    }

    /// Partition `requests` by the configured router: one restricted
    /// instance + back-map per shard, plus the item → shard assignment.
    /// Restriction preserves arrival order and renumbers densely, so each
    /// shard is a well-formed instance in its own right.
    pub fn partition(&self, requests: &Instance) -> (Vec<(Instance, Vec<ItemId>)>, Vec<usize>) {
        self.config
            .router
            .partition(requests, self.config.shards, &mut NoSpans)
    }

    /// Run the cluster with one probe per shard. `make_probe(shard)` is
    /// called in shard order before the pool starts; the probes come back
    /// in the same order for draining (event logs, journal sealing).
    ///
    /// # Errors
    /// [`ClusterError::Dispatch`] when the workload was generated against
    /// a different `W` than the shard server flavor provides;
    /// [`ClusterError::ZeroShards`] / [`ClusterError::ZeroBatch`] for a
    /// malformed shape; [`ClusterError::ShardPanicked`] when a shard
    /// worker dies (the pool contains the unwind).
    pub fn run_probed<P, F>(
        &self,
        requests: &Instance,
        factory: &SelectorFactory,
        make_probe: F,
    ) -> Result<(ClusterRun, Vec<P>), ClusterError>
    where
        P: Probe + Send,
        F: FnMut(usize) -> P,
    {
        self.run_traced(requests, factory, make_probe, |_, _| NoSpans)
            .map(|(run, probes, _trace)| (run, probes))
    }

    /// [`run_probed`](Self::run_probed) plus one [`SpanRecorder`] per shard
    /// and a driver-lane recorder, all sharing one epoch so their
    /// timestamps compose into a single timeline (Chrome trace, stage
    /// table). `make_spans(shard, epoch)` is called in shard order before
    /// the pool starts; recorders come back in [`ClusterTrace::shards`] in
    /// the same order — merged at fan-in time, lock-free by construction
    /// because each lane is single-writer.
    ///
    /// The driver lane records `partition`/`route`, `batch_enqueue`,
    /// `dispatch` and `fan_in`/`manifest_merge`. Each shard recorder is
    /// entered into its `queue_wait` span *before* the pool starts and
    /// flipped to `shard_busy` the moment a worker claims the unit, so
    /// pool contention is attributed, not lost. Pass `|_, _| NoSpans` to
    /// get the zero-cost path — [`run_probed`](Self::run_probed) is
    /// exactly that delegation.
    ///
    /// # Errors
    /// As for [`run_probed`](Self::run_probed).
    pub fn run_traced<P, R, FP, FR>(
        &self,
        requests: &Instance,
        factory: &SelectorFactory,
        make_probe: FP,
        make_spans: FR,
    ) -> Result<(ClusterRun, Vec<P>, ClusterTrace<R>), ClusterError>
    where
        P: Probe + Send,
        R: SpanRecorder + Send,
        FP: FnMut(usize) -> P,
        FR: FnMut(usize, Instant) -> R,
    {
        self.system.check_capacity(requests)?;
        self.fan_out(
            requests,
            make_probe,
            make_spans,
            |shard, inst, back, mut probe, spans| {
                let mut sel = factory.build();
                let (report, trace) = run_shard(
                    &self.system,
                    &inst,
                    &mut *sel,
                    &mut probe,
                    spans,
                    self.config.batch,
                );
                let run = ShardRun {
                    shard,
                    report,
                    trace,
                    back,
                };
                (run, probe)
            },
            |outcomes, assignment, driver| {
                if crate::cancel::requested() {
                    // Shards returned sentinels, not real reports;
                    // aggregating them would fabricate a zero-cost run.
                    // Dropping the probes here flushes and fsyncs any
                    // journals (JournalWriter syncs on drop), so the
                    // on-disk prefix is recover-clean.
                    return Err(ClusterError::Interrupted);
                }
                let (shards, probes): (Vec<ShardRun>, Vec<P>) = outcomes.into_iter().unzip();
                let report = self.aggregate(requests, &shards, factory.name(), driver);
                let run = ClusterRun {
                    report,
                    shards,
                    assignment,
                };
                Ok((run, probes))
            },
        )
        .map(|((run, probes), trace)| (run, probes, trace))
    }

    /// Run the cluster under per-shard fault plans through
    /// [`ResilientSystem`]; `plans` must hold one plan per shard, and
    /// `make_probe(shard)` supplies one probe per shard exactly as in
    /// [`run_probed`](Self::run_probed) (pass `|_| NoProbe` for none).
    ///
    /// # Errors
    /// As for [`run_probed`](Self::run_probed), plus
    /// [`ClusterError::FaultPlanCount`] when `plans.len()` differs from
    /// the shard count, and [`ClusterError::Dispatch`] when a shard's
    /// plan is refused ([`DispatchError::BadFaultPlan`]).
    pub fn run_resilient<P, F>(
        &self,
        requests: &Instance,
        factory: &SelectorFactory,
        plans: &[FaultPlan],
        mut make_probe: F,
    ) -> Result<(ClusterResilientRun, Vec<P>), ClusterError>
    where
        P: Probe + Send,
        F: FnMut(usize) -> P,
    {
        if plans.len() != self.config.shards {
            return Err(ClusterError::FaultPlanCount {
                expected: self.config.shards,
                got: plans.len(),
            });
        }
        self.system.check_capacity(requests)?;
        let ((shards, probes, assignment), _) = self.fan_out(
            requests,
            |s| (plans[s].clone(), make_probe(s)),
            |_, _| NoSpans,
            |_shard, inst, _back, (plan, mut probe), _spans| {
                let mut sel = factory.build();
                let resilient = ResilientSystem::new(self.system, plan);
                let report = resilient.run_probed(&inst, &mut *sel, &mut probe);
                (report, probe)
            },
            |outcomes, assignment, _driver| {
                let mut shards = Vec::with_capacity(outcomes.len());
                let mut probes = Vec::with_capacity(outcomes.len());
                for (report, probe) in outcomes {
                    shards.push(report?);
                    probes.push(probe);
                }
                Ok((shards, probes, assignment))
            },
        )?;
        let algorithm = shards
            .first()
            .map(|r| r.algorithm.clone())
            .unwrap_or_else(|| factory.name().to_string());
        let report = ClusterResilientReport {
            algorithm,
            router: self.config.router.name().to_string(),
            shards: self.config.shards,
            sessions_total: shards.iter().map(|r| r.sessions_total).sum(),
            sessions_served: shards.iter().map(|r| r.sessions_served).sum(),
            sessions_dropped: shards.iter().map(|r| r.sessions_dropped).sum(),
            sessions_lost: shards.iter().map(|r| r.sessions_lost).sum(),
            busy_ticks: shards.iter().map(|r| r.busy_ticks).sum(),
            billed_ticks: shards.iter().map(|r| r.billed_ticks).sum(),
            cost_cents: shards.iter().fold(Ratio::ZERO, |acc, r| acc + r.cost_cents),
            ..ClusterResilientReport::default()
        };
        let run = ClusterResilientRun {
            report,
            shards,
            assignment,
        };
        Ok((run, probes))
    }

    /// Run the cluster under a [`ShardFaultPlan`] with self-healing
    /// supervision: every scheduled kill is contained with
    /// `catch_unwind`, the killed shard is resurrected from its own
    /// write-ahead event journal (bounded retries with
    /// [`RetryPolicy`](dbp_cloudsim::RetryPolicy) backoff), and shards
    /// that exhaust their budget are abandoned with exact accounting —
    /// in-flight sessions billed lost, not-yet-arrived sessions rerouted
    /// to healthy shards.
    ///
    /// Unlike [`run_probed`](Self::run_probed)'s per-shard probes, the
    /// whole cluster's event stream is delivered to the one `probe` at
    /// fan-in on the driver thread, shard by shard in shard order: each
    /// shard's engine events with its `ShardKilled`/`ShardRestarted`
    /// markers interleaved at the stream positions they occurred, and a
    /// final `ShardAbandoned` marker for dead shards. Under a zero-kill
    /// plan the delivered stream is byte-identical to the per-shard
    /// streams of a plain run, concatenated.
    ///
    /// Spans mirror [`run_traced`](Self::run_traced): one recorder per
    /// shard and a driver lane sharing one epoch (`|_, _| NoSpans` for
    /// none). Shard lanes additionally carry `shard_restart` (finding the
    /// WAL's recovery point) and `shard_replay` (verified re-execution of
    /// the WAL prefix) spans for
    /// every resurrection; the driver lane carries a `reroute` span
    /// nested in `fan_in` when degraded-mode routing ran.
    ///
    /// # Errors
    /// As for [`run_probed`](Self::run_probed), plus
    /// [`ClusterError::BadFaultPlan`] when a kill targets a shard outside
    /// the cluster. [`ClusterError::ShardPanicked`] here means the
    /// *supervisor itself* died — engine and selector panics are treated
    /// as kills and handled inside the run.
    pub fn run_self_healing<P, R, FR>(
        &self,
        requests: &Instance,
        factory: &SelectorFactory,
        plan: &ShardFaultPlan,
        probe: &mut P,
        make_spans: FR,
    ) -> Result<(ClusterHealedRun, ClusterTrace<R>), ClusterError>
    where
        P: Probe,
        R: SpanRecorder + Send,
        FR: FnMut(usize, Instant) -> R,
    {
        let shards_n = self.config.shards;
        let mut sched: Vec<Vec<KillPoint>> = vec![Vec::new(); shards_n];
        for kill in &plan.kills {
            let Some(kills) = sched.get_mut(kill.shard as usize) else {
                return Err(ClusterError::BadFaultPlan {
                    message: format!(
                        "kill targets shard {} but the cluster has {} shards",
                        kill.shard, shards_n
                    ),
                });
            };
            kills.push(kill.at);
        }
        self.system.check_capacity(requests)?;
        self.fan_out(
            requests,
            |s| std::mem::take(&mut sched[s]),
            make_spans,
            |shard, inst, back, kills, spans| {
                let sup = supervise_shard(
                    &self.system,
                    &inst,
                    factory,
                    kills,
                    plan.restart,
                    self.config.batch,
                    shard as u32,
                    spans,
                );
                (back, sup)
            },
            |collected, assignment, driver| {
                Ok(self.heal(requests, factory, collected, assignment, probe, driver))
            },
        )
    }

    /// The self-healing fan-in: per-shard ledgers, degraded-mode routing
    /// of dead shards' future arrivals, the cluster stream delivered to
    /// `probe`, and the extended ledger with its manifest.
    fn heal<P: Probe>(
        &self,
        requests: &Instance,
        factory: &SelectorFactory,
        collected: Vec<(Vec<ItemId>, ShardSupervision)>,
        assignment: Vec<usize>,
        probe: &mut P,
        driver: &mut SpanCollector,
    ) -> ClusterHealedRun {
        let shards_n = collected.len();
        let any_healthy = collected
            .iter()
            .any(|(_, sup)| matches!(sup.fate, ShardFate::Completed { .. }));

        // First pass: per-shard ledgers, abandon markers, the reroute set.
        let mut health_reports: Vec<ShardHealthReport> = Vec::with_capacity(shards_n);
        let mut streams: Vec<Vec<ProbeEvent>> = Vec::with_capacity(shards_n);
        let mut decision_streams: Vec<Vec<u64>> = Vec::with_capacity(shards_n);
        let mut algorithm: Option<String> = None;
        let mut reroute = vec![false; requests.len()];
        for (s, (back, sup)) in collected.into_iter().enumerate() {
            let base = ShardHealthReport {
                shard: s,
                health: sup.health(),
                sessions_total: back.len() as u64,
                kills: sup.kills as u64,
                restarts: sup.restarts as u64,
                replayed_events: sup.replayed_events,
                backoff_ticks: sup.backoff_ticks,
                ..ShardHealthReport::default()
            };
            let mut events = sup.events;
            match sup.fate {
                ShardFate::Completed { report } => {
                    algorithm.get_or_insert_with(|| report.algorithm.clone());
                    health_reports.push(ShardHealthReport {
                        sessions_served: report.sessions_served as u64,
                        servers_rented: report.servers_rented as u64,
                        busy_ticks: report.busy_ticks,
                        billed_ticks: report.billed_ticks,
                        cost_cents: report.cost_cents,
                        ..base
                    });
                }
                ShardFate::Dead(dead) => {
                    // Online-legal degradation: only sessions that had NOT
                    // yet arrived at the time of death move — in-flight
                    // sessions are lost with their servers, never migrated.
                    let (moved, dropped) = if any_healthy {
                        for &local in &dead.unarrived {
                            reroute[back[local].index()] = true;
                        }
                        (dead.unarrived.len() as u64, 0)
                    } else {
                        (0, dead.unarrived.len() as u64)
                    };
                    events.push(ProbeEvent::ShardAbandoned {
                        at: Tick(dead.died_at),
                        shard: s as u32,
                        lost: dead.lost as u32,
                        rerouted: moved as u32,
                    });
                    health_reports.push(ShardHealthReport {
                        sessions_served: dead.served,
                        sessions_dropped: dropped,
                        sessions_lost: dead.lost,
                        sessions_rerouted_out: moved,
                        servers_rented: dead.servers_rented,
                        busy_ticks: dead.busy_ticks,
                        billed_ticks: dead.billed_ticks,
                        cost_cents: dead.cost_cents,
                        down_reason: Some(dead.reason),
                        ..base
                    });
                }
            }
            streams.push(events);
            decision_streams.push(sup.decisions);
        }

        // Degraded-mode routing: re-run the router over the displaced
        // sub-stream across the surviving shards only. Each host packs its
        // slice in a fresh overflow pool — an upper bound on the cost a
        // merged packing would pay, and the only online-legal choice
        // (rerouted sessions arrive in the future; no migration happens).
        // Host-side reroute events are deliberately NOT journaled into any
        // shard stream: healthy journals stay single-engine-replayable.
        let rerouted_total: u64 = health_reports.iter().map(|h| h.sessions_rerouted_out).sum();
        if rerouted_total > 0 {
            driver.enter(stage::REROUTE);
            let (sub, _sub_back) = requests.restrict(|it| reroute[it.id.index()]);
            let hosts: Vec<usize> = health_reports
                .iter()
                .filter(|h| matches!(h.health, ShardHealth::Up))
                .map(|h| h.shard)
                .collect();
            let (slices, _) = self
                .config
                .router
                .partition(&sub, hosts.len(), &mut NoSpans);
            for (&host, (hinst, _)) in hosts.iter().zip(slices) {
                if hinst.is_empty() {
                    continue;
                }
                let mut sel = factory.build();
                let (rep, _trace) = run_shard(
                    &self.system,
                    &hinst,
                    &mut *sel,
                    &mut NoProbe,
                    &mut NoSpans,
                    self.config.batch,
                );
                let hr = &mut health_reports[host];
                hr.sessions_rerouted_in += hinst.len() as u64;
                hr.servers_rented += rep.servers_rented as u64;
                hr.busy_ticks += rep.busy_ticks;
                hr.billed_ticks += rep.billed_ticks;
                hr.cost_cents = hr.cost_cents + rep.cost_cents;
            }
            driver.exit();
        }

        // Deliver the whole cluster's stream to the user probe, shard by
        // shard in shard order — on the driver thread, after the ledger is
        // final, so markers and engine events interleave deterministically.
        if P::ENABLED {
            for events in &streams {
                for ev in events {
                    probe.record(ev.clone());
                }
            }
        }
        if P::TIMED {
            for decisions in &decision_streams {
                for &ns in decisions {
                    probe.on_decision_ns(ns);
                }
            }
        }

        let algorithm = algorithm.unwrap_or_else(|| factory.name().to_string());
        let busy: u128 = health_reports.iter().map(|h| h.busy_ticks).sum();
        let total_restarts: u64 = health_reports.iter().map(|h| h.restarts).sum();
        let report = ClusterResilientReport {
            algorithm: algorithm.clone(),
            router: self.config.router.name().to_string(),
            shards: shards_n,
            sessions_total: health_reports.iter().map(|h| h.sessions_total).sum(),
            sessions_served: health_reports.iter().map(|h| h.sessions_served).sum(),
            sessions_dropped: health_reports.iter().map(|h| h.sessions_dropped).sum(),
            sessions_lost: health_reports.iter().map(|h| h.sessions_lost).sum(),
            busy_ticks: busy,
            billed_ticks: health_reports.iter().map(|h| h.billed_ticks).sum(),
            cost_cents: health_reports
                .iter()
                .fold(Ratio::ZERO, |acc, h| acc + h.cost_cents),
            sessions_rerouted: rerouted_total,
            shard_kills: health_reports.iter().map(|h| h.kills).sum(),
            shard_restarts: total_restarts,
            shard_replayed_events: health_reports.iter().map(|h| h.replayed_events).sum(),
            shards_lost: health_reports
                .iter()
                .filter(|h| !matches!(h.health, ShardHealth::Up))
                .count() as u64,
        };
        driver.enter(stage::MANIFEST_MERGE);
        let manifest = RunManifest::capture(&algorithm, None, requests, driver.epoch().elapsed())
            .with_cost(busy)
            .with_shard_restarts(total_restarts)
            .with_ledger_conserved(report.conserved());
        driver.exit();
        ClusterHealedRun {
            report,
            shards: health_reports,
            assignment,
            manifest,
        }
    }

    /// The one cluster fan-out every driver shares, scalar and vector
    /// alike: validate the shape, partition (`partition`/`route` spans),
    /// build one work unit per shard (`batch_enqueue`), open every shard
    /// lane's `queue_wait` span, run the pool (`dispatch`), flip each lane to
    /// `shard_busy` the moment a worker claims its unit, map a shard panic
    /// to [`ClusterError::ShardPanicked`], run the caller's fan-in under a
    /// `fan_in` span, and derive the [`ClusterTiming`].
    ///
    /// `make_unit(shard)` then `make_spans(shard, epoch)` run in shard
    /// order on the driver thread; `work(shard, instance, back_map, unit,
    /// spans)` runs on a pool worker inside the shard's `shard_busy` span;
    /// `fan_in(outcomes, assignment, driver)` gets the outcomes in shard
    /// order on the driver thread.
    pub(crate) fn fan_out<Sz, U, T, R, X, FU, FR, W, FI>(
        &self,
        requests: &GInstance<Sz>,
        mut make_unit: FU,
        mut make_spans: FR,
        work: W,
        fan_in: FI,
    ) -> Result<(X, ClusterTrace<R>), ClusterError>
    where
        Sz: Demand,
        U: Send,
        T: Send,
        R: SpanRecorder + Send,
        FU: FnMut(usize) -> U,
        FR: FnMut(usize, Instant) -> R,
        W: Fn(usize, GInstance<Sz>, Vec<ItemId>, U, &mut R) -> T + Sync,
        FI: FnOnce(Vec<T>, Vec<usize>, &mut SpanCollector) -> Result<X, ClusterError>,
    {
        self.config.validate()?;
        let epoch = Instant::now();
        let mut driver = SpanCollector::with_epoch(epoch, DRIVER_LANE);

        driver.enter(stage::PARTITION);
        let (parts, assignment) =
            self.config
                .router
                .partition(requests, self.config.shards, &mut driver);
        driver.exit();

        driver.enter(stage::BATCH_ENQUEUE);
        let mut units: Vec<(GInstance<Sz>, Vec<ItemId>, U, R)> = parts
            .into_iter()
            .enumerate()
            .map(|(s, (inst, back))| (inst, back, make_unit(s), make_spans(s, epoch)))
            .collect();
        driver.exit();

        // Open every shard's queue-wait span on the driver thread, before
        // the pool exists: the gap until a worker claims the unit is real
        // contention and must land in the shard's own lane.
        let dispatch_start = elapsed_ns(epoch);
        for unit in &mut units {
            unit.3.enter(stage::QUEUE_WAIT);
        }
        driver.enter(stage::DISPATCH);
        let results = run_pool(
            units,
            self.config.workers(),
            |shard, (inst, back, unit, mut spans)| {
                let claim_ns = elapsed_ns(epoch);
                spans.exit(); // queue_wait ends the moment the worker claims
                spans.enter(stage::SHARD_BUSY);
                let out = work(shard, inst, back, unit, &mut spans);
                spans.exit();
                (out, spans, claim_ns, elapsed_ns(epoch))
            },
        );
        driver.exit();

        let n = results.len();
        let mut outcomes = Vec::with_capacity(n);
        let mut recorders = Vec::with_capacity(n);
        let mut queue_wait_ns = Vec::with_capacity(n);
        let mut busy_ns = Vec::with_capacity(n);
        for (shard, result) in results.into_iter().enumerate() {
            let (out, spans, claim_ns, done_ns) =
                result.map_err(|p| ClusterError::ShardPanicked {
                    shard,
                    message: panic_message(&*p),
                })?;
            queue_wait_ns.push(claim_ns.saturating_sub(dispatch_start));
            busy_ns.push(done_ns.saturating_sub(claim_ns));
            recorders.push(spans);
            outcomes.push(out);
        }

        driver.enter(stage::FAN_IN);
        let merged = fan_in(outcomes, assignment, &mut driver)?;
        driver.exit();

        let stage_ns = |name: &'static str| -> u64 {
            driver
                .spans()
                .iter()
                .filter(|s| s.name == name)
                .map(|s| s.dur_ns)
                .sum()
        };
        let timing = ClusterTiming {
            wall_ns: elapsed_ns(epoch),
            partition_ns: stage_ns(stage::PARTITION),
            batch_enqueue_ns: stage_ns(stage::BATCH_ENQUEUE),
            dispatch_ns: stage_ns(stage::DISPATCH),
            fan_in_ns: stage_ns(stage::FAN_IN),
            queue_wait_ns,
            busy_ns,
        };
        let trace = ClusterTrace {
            driver,
            shards: recorders,
            timing,
        };
        Ok((merged, trace))
    }

    /// Merge shard reports into the exact aggregate. The manifest capture
    /// (full-stream digest) dominates fan-in cost, so it gets its own span.
    fn aggregate(
        &self,
        requests: &Instance,
        shards: &[ShardRun],
        fallback_algorithm: &str,
        driver: &mut SpanCollector,
    ) -> ClusterReport {
        let busy: u128 = shards.iter().map(|s| s.report.busy_ticks).sum();
        let algorithm = shards
            .first()
            .map(|s| s.report.algorithm.clone())
            .unwrap_or_else(|| fallback_algorithm.to_string());
        driver.enter(stage::MANIFEST_MERGE);
        let wall = driver.epoch().elapsed();
        let manifest = RunManifest::capture(&algorithm, None, requests, wall).with_cost(busy);
        driver.exit();
        ClusterReport {
            algorithm: algorithm.clone(),
            router: self.config.router.name().to_string(),
            shards: self.config.shards,
            sessions_served: shards.iter().map(|s| s.report.sessions_served).sum(),
            servers_rented: shards.iter().map(|s| s.report.servers_rented).sum(),
            peak_servers: shards.iter().map(|s| s.report.peak_servers).sum(),
            busy_ticks: busy,
            billed_ticks: shards.iter().map(|s| s.report.billed_ticks).sum(),
            cost_cents: shards
                .iter()
                .fold(Ratio::ZERO, |acc, s| acc + s.report.cost_cents),
            utilization: dbp_cloudsim::utilization(requests, busy),
            manifest,
        }
    }
}

fn elapsed_ns(epoch: Instant) -> u64 {
    u64::try_from(epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

/// One shard's dispatch: the [`GamingSystem::run`] accounting, driven
/// through [`EngineRun::traced`] in time-ordered `batch` bursts so
/// ingestion can batch (per-event `arrival`/`decide`/`place`/`departure`
/// spans, plus the shard's own `validate` / `report_build` spans).
/// Validation and report construction mirror the plain system run
/// exactly — a 1-shard cluster must be byte-identical to it. With
/// [`NoProbe`] and [`NoSpans`] this compiles down to the bare engine loop.
///
/// # Panics
/// Panics if `requests` was generated against a different capacity than
/// `system`'s server flavor (the cluster runs check it up front).
pub fn run_shard<S, P, R>(
    system: &GamingSystem,
    requests: &Instance,
    dispatcher: &mut S,
    probe: &mut P,
    spans: &mut R,
    batch: BatchPolicy,
) -> (SystemReport, PackingTrace)
where
    S: dbp_core::packer::BinSelector + ?Sized,
    P: Probe,
    R: SpanRecorder,
{
    run_shard_from(system, requests, dispatcher, probe, spans, None, batch)
        .expect("a fresh run has no journal to diverge from")
}

/// The one shard drive: start fresh, or resume a journaled shard by
/// verified re-execution. With `resume = Some((prefix, cursor))` the run
/// starts from scratch under a [`VerifyProbe`] that checks every event
/// against the WAL `prefix` and forwards only the continuation to
/// `probe`; re-executing the prefix's `cursor` schedule events is timed
/// as a `shard_replay` span and the rest runs span-free (byte-identity is
/// about events, not spans). Either way the engine steps to completion in
/// `batch` bursts, the O(n + B) conservation check runs under a
/// `validate` span, and [`GamingSystem::report`] builds the report under
/// a `report_build` span.
///
/// # Errors
/// The first divergence between the re-execution and `prefix`, rendered.
pub(crate) fn run_shard_from<S, P, R>(
    system: &GamingSystem,
    requests: &Instance,
    dispatcher: &mut S,
    probe: &mut P,
    spans: &mut R,
    resume: Option<(&[ProbeEvent], usize)>,
    batch: BatchPolicy,
) -> Result<(SystemReport, PackingTrace), String>
where
    S: dbp_core::packer::BinSelector + ?Sized,
    P: Probe,
    R: SpanRecorder,
{
    system
        .check_capacity(requests)
        .expect("capacity is checked at the cluster boundary");
    let started = Instant::now();
    let finished = match resume {
        None => drive(
            EngineRun::traced(requests, &mut *dispatcher, &mut *probe, &mut *spans),
            batch,
        ),
        Some((prefix, cursor)) => {
            let mut verify = VerifyProbe::new(prefix, &mut *probe);
            let mut run = EngineRun::new(requests, &mut *dispatcher, &mut verify);
            if R::ENABLED {
                spans.enter(stage::SHARD_REPLAY);
            }
            for _ in 0..cursor {
                run.step();
            }
            if R::ENABLED {
                spans.exit();
            }
            let finished = drive(run, batch);
            if finished.is_some() {
                verify.finish()?;
            }
            finished
        }
    };
    let Some(trace) = finished else {
        // Cancelled: the journaled prefix is already durable (probes flush
        // + fsync on drop); the caller sees [`ClusterError::Interrupted`]
        // and discards this sentinel.
        let report = SystemReport {
            algorithm: dispatcher.name().to_string(),
            ..SystemReport::default()
        };
        let trace = PackingTrace {
            algorithm: dispatcher.name().to_string(),
            capacity: requests.capacity(),
            bins: Vec::new(),
            assignment: Vec::new(),
            open_bins_steps: Vec::new(),
        };
        return Ok((report, trace));
    };
    if R::ENABLED {
        spans.enter(stage::VALIDATE);
    }
    // O(n + B) conservation check, not the full quadratic
    // `PackingTrace::validate`: the engine already asserts fit on every
    // placement, so the per-tick level audit is redundant defense that used
    // to dominate shard wall time. Full validation stays available through
    // `simulate_validated` and the test suites.
    let errs = trace.check_conservation(requests);
    if R::ENABLED {
        spans.exit();
    }
    if P::ENABLED {
        for err in &errs {
            probe.record(ProbeEvent::Violation {
                at: Tick(0),
                message: err.clone(),
            });
        }
    }
    assert!(
        errs.is_empty(),
        "trace conservation check failed for {}:\n{}",
        trace.algorithm,
        errs.join("\n")
    );
    if R::ENABLED {
        spans.enter(stage::REPORT_BUILD);
    }
    let report = system.report(requests, &trace, started.elapsed());
    if R::ENABLED {
        spans.exit();
    }
    Ok((report, trace))
}

/// Step `run` to completion in bursts of `batch`, polling the
/// [`cancel`](crate::cancel) latch at least every 4096 steps even under
/// whole-stream batching; the clamp is semantically invisible (the outer
/// loop re-enters until `is_done`). `None` when cancelled mid-run.
fn drive<S, P, R>(mut run: EngineRun<'_, S, P, R>, batch: BatchPolicy) -> Option<PackingTrace>
where
    S: dbp_core::packer::BinSelector + ?Sized,
    P: Probe,
    R: SpanRecorder,
{
    const CANCEL_CHECK: usize = 4096;
    let burst = batch.burst().min(CANCEL_CHECK);
    while !run.is_done() {
        if crate::cancel::requested() {
            return None;
        }
        for _ in 0..burst {
            if !run.step() {
                break;
            }
        }
    }
    Some(run.finish())
}

/// One pool unit's outcome: the work's value, or the panic payload the
/// unit died with.
type PoolResult<T> = Result<T, Box<dyn std::any::Any + Send>>;

/// The bounded worker pool `run_all` uses, as a library primitive: `n`
/// work units claimed by index from `workers` scoped threads, results
/// returned in unit order regardless of scheduling.
///
/// Fault containment: each unit runs under `catch_unwind`, so one unit
/// panicking yields `Err(payload)` in its slot instead of unwinding
/// through the scope and aborting the whole run; every other unit still
/// completes. Mutex poison left behind by a dying sibling is recovered,
/// not propagated — the guarded data (a claim token / result slot) is
/// valid regardless of where the panic landed.
fn run_pool<U, T, F>(units: Vec<U>, workers: usize, work: F) -> Vec<PoolResult<T>>
where
    U: Send,
    T: Send,
    F: Fn(usize, U) -> T + Sync,
{
    let n = units.len();
    // Dedicated-thread fast path: with a worker per unit there is nothing
    // to schedule, so each shard gets its own long-lived thread with a
    // direct handoff — no claim counter, no Mutex slots, no contention on
    // the dispatch path. Containment is identical: the unit runs under
    // `catch_unwind` and a panicking thread yields `Err(payload)` in its
    // slot via the join handle.
    if workers >= n && n > 0 {
        return std::thread::scope(|scope| {
            let handles: Vec<_> = units
                .into_iter()
                .enumerate()
                .map(|(i, unit)| {
                    let work = &work;
                    scope.spawn(move || catch_unwind(AssertUnwindSafe(|| work(i, unit))))
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().unwrap_or_else(Err))
                .collect()
        });
    }
    let slots: Vec<Mutex<Option<U>>> = units.into_iter().map(|u| Mutex::new(Some(u))).collect();
    let results: Vec<Mutex<Option<PoolResult<T>>>> = (0..n).map(|_| Mutex::new(None)).collect();
    let next = AtomicUsize::new(0);
    std::thread::scope(|scope| {
        for _ in 0..workers.clamp(1, n.max(1)) {
            scope.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= n {
                    return;
                }
                let unit = slots[i]
                    .lock()
                    .unwrap_or_else(PoisonError::into_inner)
                    .take();
                let Some(unit) = unit else { continue };
                let out = catch_unwind(AssertUnwindSafe(|| work(i, unit)));
                *results[i].lock().unwrap_or_else(PoisonError::into_inner) = Some(out);
            });
        }
    });
    results
        .into_iter()
        .map(|m| {
            m.into_inner()
                .unwrap_or_else(PoisonError::into_inner)
                .unwrap_or_else(|| {
                    Err(Box::new("worker pool lost a result".to_string())
                        as Box<dyn std::any::Any + Send>)
                })
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use dbp_core::algorithms::FirstFit;
    use dbp_core::instance::InstanceBuilder;
    use dbp_workloads::{generate, CloudGamingConfig};

    fn workload(seed: u64) -> Instance {
        generate(&CloudGamingConfig {
            horizon: 1800,
            seed,
            ..CloudGamingConfig::default()
        })
    }

    fn ff_factory() -> SelectorFactory {
        SelectorFactory::new("FF", || Box::new(FirstFit::new()))
    }

    #[test]
    fn shard_reports_sum_to_the_aggregate_exactly() {
        let inst = workload(11);
        for router in Router::ALL {
            let engine = ClusterEngine::new(
                GamingSystem::paper_model(),
                ClusterConfig::new(4, router).unwrap(),
            );
            let run = engine
                .run_probed(&inst, &ff_factory(), |_| NoProbe)
                .unwrap()
                .0;
            let busy: u128 = run.shards.iter().map(|s| s.report.busy_ticks).sum();
            assert_eq!(run.report.busy_ticks, busy, "{}", router.name());
            let cents = run
                .shards
                .iter()
                .fold(Ratio::ZERO, |acc, s| acc + s.report.cost_cents);
            assert_eq!(run.report.cost_cents, cents, "{}", router.name());
            assert_eq!(run.report.sessions_served, inst.len(), "{}", router.name());
        }
    }

    #[test]
    fn manifest_digest_is_router_and_shard_count_independent() {
        let inst = workload(12);
        let mut digests = Vec::new();
        for router in Router::ALL {
            for shards in [1, 2, 8] {
                let engine = ClusterEngine::new(
                    GamingSystem::paper_model(),
                    ClusterConfig::new(shards, router).unwrap(),
                );
                let run = engine
                    .run_probed(&inst, &ff_factory(), |_| NoProbe)
                    .unwrap()
                    .0;
                digests.push(run.report.manifest.instance_digest.clone());
            }
        }
        digests.dedup();
        assert_eq!(digests.len(), 1, "combined digest must be the stream's");
        assert_eq!(digests[0], dbp_obs::manifest::instance_digest(&inst));
    }

    #[test]
    fn capacity_mismatch_is_rejected_at_the_boundary() {
        let mut b = InstanceBuilder::new(10);
        b.add(0, 5, 3);
        let inst = b.build().unwrap();
        let engine = ClusterEngine::new(
            GamingSystem::paper_model(),
            ClusterConfig::new(2, Router::HashByItem).unwrap(),
        );
        assert!(matches!(
            engine.run_probed(&inst, &ff_factory(), |_| NoProbe),
            Err(ClusterError::Dispatch(
                DispatchError::CapacityMismatch { .. }
            ))
        ));
    }

    #[test]
    fn zero_shards_and_zero_batch_are_typed_errors() {
        assert_eq!(
            ClusterConfig::new(0, Router::HashByItem).unwrap_err(),
            ClusterError::ZeroShards
        );
        // The fields are public, so the run boundary re-validates.
        let mut config = ClusterConfig::new(2, Router::HashByItem).unwrap();
        config.batch = BatchPolicy::Chunks(0);
        let engine = ClusterEngine::new(GamingSystem::paper_model(), config);
        assert_eq!(
            engine
                .run_probed(&workload(31), &ff_factory(), |_| NoProbe)
                .unwrap_err(),
            ClusterError::ZeroBatch
        );
    }

    /// A selector that panics on the k-th select call — a stand-in for a
    /// genuine dispatcher bug, not an injected kill.
    struct PanicAfter {
        calls: u32,
        at: u32,
    }

    impl dbp_core::packer::BinSelector for PanicAfter {
        fn name(&self) -> &'static str {
            "PanicAfter"
        }
        fn select(
            &mut self,
            bins: &[dbp_core::OpenBinView],
            item: &dbp_core::ArrivingItem,
            _capacity: dbp_core::Size,
        ) -> dbp_core::packer::Decision {
            self.calls += 1;
            assert!(self.calls < self.at, "selector bug tripped");
            for b in bins {
                if b.fits(item.size) {
                    return dbp_core::packer::Decision::Use(b.id);
                }
            }
            dbp_core::packer::Decision::Open {
                tag: dbp_core::BinTag::DEFAULT,
            }
        }
    }

    #[test]
    fn a_panicking_selector_is_contained_as_a_typed_error() {
        let inst = workload(32);
        let engine = ClusterEngine::new(
            GamingSystem::paper_model(),
            ClusterConfig::new(3, Router::HashByItem).unwrap(),
        );
        let factory =
            SelectorFactory::new("PanicAfter", || Box::new(PanicAfter { calls: 0, at: 5 }));
        // The pool contains the unwind: a failure value, not an abort,
        // and the test process is alive to assert on it.
        let err = engine.run_probed(&inst, &factory, |_| NoProbe).unwrap_err();
        assert!(
            matches!(err, ClusterError::ShardPanicked { .. }),
            "got {err:?}"
        );
        assert!(err.to_string().contains("selector bug tripped"));
    }

    #[test]
    fn self_healing_with_zero_kills_is_byte_identical_to_the_plain_run() {
        let inst = workload(33);
        let engine = ClusterEngine::new(
            GamingSystem::paper_model(),
            ClusterConfig::new(4, Router::HashByItem).unwrap(),
        );
        let mut healed_log = dbp_obs::EventLog::new();
        let healed = engine
            .run_self_healing(
                &inst,
                &ff_factory(),
                &ShardFaultPlan::none(),
                &mut healed_log,
                |_, _| NoSpans,
            )
            .unwrap()
            .0;
        // Same ledger as the zero-fault resilient run...
        let resilient = engine
            .run_resilient(&inst, &ff_factory(), &vec![FaultPlan::none(); 4], |_| {
                NoProbe
            })
            .unwrap()
            .0;
        assert_eq!(healed.report, resilient.report);
        assert!(healed.report.conserved());
        assert_eq!(healed.report.shard_restarts, 0);
        assert_eq!(healed.manifest.ledger_conserved, Some(true));
        // ...and the delivered stream is the plain per-shard streams,
        // concatenated in shard order, byte for byte.
        let (_, logs) = engine
            .run_probed(&inst, &ff_factory(), |_| dbp_obs::EventLog::new())
            .unwrap();
        let plain: Vec<ProbeEvent> = logs
            .iter()
            .flat_map(|l| l.events().iter().cloned())
            .collect();
        assert_eq!(healed_log.events(), &plain[..]);
        for shard in &healed.shards {
            assert!(shard.conserved());
            assert_eq!(shard.health, ShardHealth::Up);
        }
    }

    #[test]
    fn self_healing_reroutes_only_future_arrivals_off_dead_shards() {
        let inst = workload(34);
        let engine = ClusterEngine::new(
            GamingSystem::paper_model(),
            ClusterConfig::new(4, Router::HashByItem).unwrap(),
        );
        // Kill shard 2 four times at event 5: budget of 3 restarts is
        // exhausted on the fourth kill and the shard dies for good.
        let plan = ShardFaultPlan {
            seed: 0,
            kills: vec![
                crate::faults::ShardKill {
                    shard: 2,
                    at: KillPoint::Event(5),
                };
                4
            ],
            restart: crate::faults::RestartPolicy::default(),
        };
        let mut log = dbp_obs::EventLog::new();
        let healed = engine
            .run_self_healing(&inst, &ff_factory(), &plan, &mut log, |_, _| NoSpans)
            .unwrap()
            .0;
        assert!(healed.report.conserved(), "extended ledger must conserve");
        let dead = &healed.shards[2];
        assert_eq!(dead.health, ShardHealth::Down);
        assert!(dead.down_reason.is_some());
        assert_eq!(dead.kills, 4);
        assert_eq!(dead.restarts, 3);
        assert!(dead.conserved());
        assert!(
            dead.sessions_rerouted_out > 0,
            "a shard killed early must strand future arrivals"
        );
        assert_eq!(healed.report.sessions_rerouted, dead.sessions_rerouted_out);
        let hosted: u64 = healed.shards.iter().map(|h| h.sessions_rerouted_in).sum();
        assert_eq!(hosted, dead.sessions_rerouted_out);
        // The abandonment is stamped into the delivered stream.
        assert!(log
            .events()
            .iter()
            .any(|e| matches!(e, ProbeEvent::ShardAbandoned { shard: 2, .. })));
        assert_eq!(healed.manifest.shard_restarts, Some(3));
    }

    #[test]
    fn fault_plan_outside_the_cluster_is_rejected() {
        let engine = ClusterEngine::new(
            GamingSystem::paper_model(),
            ClusterConfig::new(2, Router::HashByItem).unwrap(),
        );
        let plan = ShardFaultPlan {
            seed: 0,
            kills: vec![crate::faults::ShardKill {
                shard: 7,
                at: KillPoint::Event(1),
            }],
            restart: crate::faults::RestartPolicy::default(),
        };
        assert!(matches!(
            engine.run_self_healing(&workload(35), &ff_factory(), &plan, &mut NoProbe, |_, _| {
                NoSpans
            }),
            Err(ClusterError::BadFaultPlan { .. })
        ));
        let wrong_count =
            engine.run_resilient(&workload(35), &ff_factory(), &[FaultPlan::none()], |_| {
                NoProbe
            });
        assert!(matches!(
            wrong_count,
            Err(ClusterError::FaultPlanCount {
                expected: 2,
                got: 1
            })
        ));
    }

    #[test]
    fn more_shards_than_items_leaves_empty_shards_sound() {
        let mut b = InstanceBuilder::new(1000);
        b.add(0, 10, 100);
        b.add(2, 8, 200);
        let inst = b.build().unwrap();
        let engine = ClusterEngine::new(
            GamingSystem::paper_model(),
            ClusterConfig::new(8, Router::HashByItem).unwrap(),
        );
        let run = engine
            .run_probed(&inst, &ff_factory(), |_| NoProbe)
            .unwrap()
            .0;
        assert_eq!(run.report.sessions_served, 2);
        let nonempty = run.shards.iter().filter(|s| !s.back.is_empty()).count();
        assert!(nonempty <= 2);
        assert!(run.report.busy_ticks > 0);
    }

    #[test]
    fn traced_run_matches_probed_run_and_accounts_the_wall() {
        let inst = workload(21);
        let engine = ClusterEngine::new(
            GamingSystem::paper_model(),
            ClusterConfig::new(4, Router::HashByItem).unwrap(),
        );
        let (plain, _) = engine
            .run_probed(&inst, &ff_factory(), |_| NoProbe)
            .unwrap();
        let (traced, _, trace) = engine
            .run_traced(
                &inst,
                &ff_factory(),
                |_| NoProbe,
                |s, e| SpanCollector::with_epoch(e, s as u32),
            )
            .unwrap();

        // Spans never touch the ledger.
        assert_eq!(traced.report.busy_ticks, plain.report.busy_ticks);
        assert_eq!(traced.report.cost_cents, plain.report.cost_cents);
        assert_eq!(traced.report.sessions_served, plain.report.sessions_served);
        for (a, b) in traced.shards.iter().zip(plain.shards.iter()) {
            assert_eq!(a.trace, b.trace);
        }

        // Exact timing: the sequential driver stages fit inside the wall,
        // and every shard's queue-wait + busy fits inside dispatch.
        let t = &trace.timing;
        assert!(t.accounted_ns() <= t.wall_ns);
        assert!(t.dispatch_ns > 0);
        assert_eq!(t.queue_wait_ns.len(), 4);
        assert_eq!(t.busy_ns.len(), 4);
        for s in 0..4 {
            assert!(t.queue_wait_ns[s] + t.busy_ns[s] <= t.wall_ns);
        }

        // Every shard lane starts with queue_wait then shard_busy, with
        // the engine's spans nested under shard_busy.
        for lane in &trace.shards {
            let shape = lane.shape();
            assert_eq!(
                shape[0],
                (stage::QUEUE_WAIT, dbp_core::span::SpanEvent::ROOT)
            );
            assert_eq!(
                shape[1],
                (stage::SHARD_BUSY, dbp_core::span::SpanEvent::ROOT)
            );
        }
    }

    #[test]
    fn driver_lane_records_the_pipeline_stages_in_order() {
        let inst = workload(22);
        let engine = ClusterEngine::new(
            GamingSystem::paper_model(),
            ClusterConfig::new(2, Router::LeastLoaded).unwrap(),
        );
        let (_, _, trace) = engine
            .run_traced(&inst, &ff_factory(), |_| NoProbe, |_, _| NoSpans)
            .unwrap();
        let shape = trace.driver.shape();
        use dbp_core::span::SpanEvent;
        const ROOT: u32 = SpanEvent::ROOT;
        assert_eq!(
            shape,
            vec![
                (stage::PARTITION, ROOT),
                (stage::ROUTE, 0),
                (stage::BATCH_ENQUEUE, ROOT),
                (stage::DISPATCH, ROOT),
                (stage::FAN_IN, ROOT),
                (stage::MANIFEST_MERGE, 4),
            ]
        );
    }

    #[test]
    fn shard_span_shapes_are_deterministic_for_a_fixed_seed() {
        let inst = workload(23);
        let engine = ClusterEngine::new(
            GamingSystem::paper_model(),
            ClusterConfig::new(3, Router::HashByItem).unwrap(),
        );
        let run = |_: &()| {
            let (_, _, trace) = engine
                .run_traced(
                    &inst,
                    &ff_factory(),
                    |_| NoProbe,
                    |s, e| SpanCollector::with_epoch(e, s as u32),
                )
                .unwrap();
            trace
                .shards
                .iter()
                .map(|lane| lane.shape())
                .collect::<Vec<_>>()
        };
        assert_eq!(
            run(&()),
            run(&()),
            "span structure must not depend on timing"
        );
    }

    #[test]
    fn resilient_ledger_is_conserved_across_shards() {
        let inst = workload(13);
        let engine = ClusterEngine::new(
            GamingSystem::paper_model(),
            ClusterConfig::new(3, Router::LeastLoaded).unwrap(),
        );
        let plans: Vec<FaultPlan> = (0..3)
            .map(|s| FaultPlan::from_seed(100 + s, 1800))
            .collect();
        let run = engine
            .run_resilient(&inst, &ff_factory(), &plans, |_| NoProbe)
            .unwrap()
            .0;
        assert!(run.report.conserved());
        assert_eq!(run.report.sessions_total, inst.len() as u64);
        for shard in &run.shards {
            assert!(shard.conserved());
        }
    }

    #[test]
    fn zero_fault_plans_reproduce_the_plain_cluster_bill() {
        let inst = workload(14);
        let engine = ClusterEngine::new(
            GamingSystem::paper_model(),
            ClusterConfig::new(4, Router::HashByItem).unwrap(),
        );
        let plain = engine
            .run_probed(&inst, &ff_factory(), |_| NoProbe)
            .unwrap()
            .0;
        let plans = vec![FaultPlan::none(); 4];
        let faulted = engine
            .run_resilient(&inst, &ff_factory(), &plans, |_| NoProbe)
            .unwrap()
            .0;
        assert_eq!(faulted.report.busy_ticks, plain.report.busy_ticks);
        assert_eq!(faulted.report.cost_cents, plain.report.cost_cents);
        assert_eq!(faulted.report.sessions_served, inst.len() as u64);
    }
}
