//! Seeded, fully deterministic fault injection and resilient dispatch.
//!
//! The paper's model assumes servers never fail and provisioning is instant
//! and infallible. This module drops that assumption while keeping every
//! run exactly reproducible:
//!
//! * [`FaultPlan`] — a declarative fault schedule: server crashes at given
//!   ticks, flaky provisioning (per-attempt boot failures and boot delays),
//!   and transient dispatch rejections. Plans are generated from a seeded
//!   RNG ([`FaultPlan::generate`]) or loaded from JSON (the plan is plain
//!   serde data), and a zero-fault plan ([`FaultPlan::none`]) reproduces
//!   the fault-free [`GamingSystem`] bill *exactly* — same decisions, same
//!   integers.
//! * [`ResilientSystem`] — a wrapper around [`GamingSystem`] that retries
//!   failed provisioning with capped exponential backoff plus deterministic
//!   jitter, re-dispatches sessions orphaned by a crash through the same
//!   [`BinSelector`] (the one event where the no-migration rule is forcibly
//!   broken — re-placements are tagged [`GProbeEvent::ItemRedispatched`]
//!   and counted separately), and bounds admission with a queue + timeout
//!   so overload degrades to *accounted* session drops, never a panic.
//!
//! The run is a driver of the one event core, [`EventCore`], generic over
//! the demand type (scalar or vector, any D). The core owns the fleet, the
//! selector hooks and every engine event; the driver owns the plan's hash
//! streams, the admission queue and the SLA ledger, and pulls its timed
//! inputs from one queue ordered by tick, then departure < crash <
//! boot-ready < retry < arrival. It calls the core's arrival halves
//! ([`EventCore::decide`], then [`EventCore::place`]) so a rejection or a
//! failed boot falls between them, holds a delayed boot as a pending bin
//! ([`EventCore::reserve`]), and crashes a server with
//! [`EventCore::force_close`].
//!
//! Determinism does not come from sharing one RNG across the run (that
//! would entangle outcome streams); every per-attempt outcome is a pure
//! hash of `(plan seed, stream tag, attempt counter)`, so two runs with the
//! same plan take byte-identical fault decisions regardless of timing.
//!
//! Accounting rules, chosen so the SLA numbers always conserve:
//!
//! * a session is **served** if its full duration completed, **dropped** if
//!   it never received any service (queue full, queue timeout, or retries
//!   exhausted before first placement), and **lost** if it was placed at
//!   least once but a crash prevented completion;
//!   `served + dropped + lost == total` always holds;
//! * a server is billed from the tick its provisioning was *committed*
//!   (boot start) to the tick it closed or crashed — you pay for booting
//!   VMs, not for failed provision attempts;
//! * crashes in the plan name a fleet slot, resolved at crash time against
//!   the open fleet in id order (`open[slot % n]`; booting servers are not
//!   open); a crash against an empty fleet is a deterministic no-op. The
//!   crash's orphans are re-dispatched at once, in the order they were
//!   placed on the crashed server.

use crate::billing::{Bill, TICKS_PER_HOUR};
use crate::system::{DispatchError, GamingSystem};
use dbp_core::bin::BinId;
use dbp_core::demand::Demand;
use dbp_core::instance::GInstance;
use dbp_core::item::{GArrivingItem, ItemId};
use dbp_core::packer::{BinSelector, Decision};
use dbp_core::probe::{DropReason, GProbeEvent, NoProbe, Probe};
use dbp_core::span::{stage, NoSpans, SpanRecorder};
use dbp_core::time::Tick;
use dbp_core::EventCore;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use serde::{Deserialize, Serialize};
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::iter::Sum;

/// Most crashes [`FaultPlan::generate`] draws for one seeded plan (16 MiB
/// of crash events).
pub const MAX_SEEDED_CRASHES: u64 = 1 << 20;

/// One scheduled server crash.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct CrashEvent {
    /// Tick the crash fires at.
    pub at: u64,
    /// Fleet slot the crash targets: resolved at crash time as
    /// `open[slot % open.len()]` over the open fleet in id order, so a
    /// generated plan always hits *some* server while any are running.
    pub server: u32,
}

/// Tick-based exponential backoff for failed provisioning and rejected
/// dispatches. Attempt `k` (1-based) that fails is retried after
/// `min(base · 2^(k-1), cap) + hash % (jitter + 1)` ticks (at least 1).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct RetryPolicy {
    /// First backoff in ticks.
    pub base: u64,
    /// Backoff ceiling in ticks.
    pub cap: u64,
    /// Maximum deterministic jitter added on top, in ticks.
    pub jitter: u64,
    /// Total dispatch attempts per session (first try included) before the
    /// session is dropped with [`DropReason::RetriesExhausted`].
    pub max_attempts: u32,
}

impl Default for RetryPolicy {
    fn default() -> RetryPolicy {
        RetryPolicy {
            base: 4,
            cap: 64,
            jitter: 3,
            max_attempts: 5,
        }
    }
}

impl RetryPolicy {
    /// Deterministic backoff (without jitter) after `failed_attempts`
    /// attempts have failed.
    pub fn backoff_ticks(&self, failed_attempts: u32) -> u64 {
        if self.base == 0 {
            return 0;
        }
        // Cap the exponent *before* shifting: `1u64 << exp` is only defined
        // for exp < 64, and any exponent that large is already past every
        // representable cap.
        let exp = failed_attempts.saturating_sub(1);
        if exp >= 64 {
            return self.cap;
        }
        self.base.saturating_mul(1u64 << exp).min(self.cap)
    }
}

/// Bounded admission: sessions waiting for their first placement occupy a
/// queue slot; overload degrades to accounted drops, not unbounded fleets.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct AdmissionPolicy {
    /// Maximum sessions simultaneously waiting (arrived, never yet placed).
    /// An arrival finding the queue full is dropped with
    /// [`DropReason::QueueFull`].
    pub queue_capacity: u32,
    /// Maximum ticks a session may wait for its first placement, measured
    /// in **event time** against the injected clock: a session that has
    /// waited `queue_timeout` ticks or more when its retry fires (i.e.
    /// `now - arrival >= queue_timeout`; the boundary `wait == timeout` is
    /// a drop) leaves with [`DropReason::QueueTimeout`].
    pub queue_timeout: u64,
}

impl Default for AdmissionPolicy {
    fn default() -> AdmissionPolicy {
        AdmissionPolicy {
            queue_capacity: 64,
            queue_timeout: 300,
        }
    }
}

impl AdmissionPolicy {
    /// No admission control at all (the fault-free limit).
    pub fn unbounded() -> AdmissionPolicy {
        AdmissionPolicy {
            queue_capacity: u32::MAX,
            queue_timeout: u64::MAX,
        }
    }
}

/// Knobs for [`FaultPlan::generate`]: the *rates* of each fault class.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct FaultConfig {
    /// Expected server crashes per simulated hour.
    pub crash_rate_per_hour: f64,
    /// Probability each provisioning attempt fails outright.
    pub boot_fail_prob: f64,
    /// Maximum boot delay in ticks (each successful boot is delayed by
    /// `hash % (max + 1)` ticks).
    pub boot_delay_max: u64,
    /// Probability each `Use` dispatch is transiently rejected.
    pub reject_prob: f64,
}

impl FaultConfig {
    /// No faults of any kind.
    pub fn none() -> FaultConfig {
        FaultConfig {
            crash_rate_per_hour: 0.0,
            boot_fail_prob: 0.0,
            boot_delay_max: 0,
            reject_prob: 0.0,
        }
    }

    /// A moderately hostile cloud: occasional crashes, 10% flaky boots
    /// with up to 30 s delay, 5% transient rejections.
    pub fn moderate() -> FaultConfig {
        FaultConfig {
            crash_rate_per_hour: 2.0,
            boot_fail_prob: 0.10,
            boot_delay_max: 30,
            reject_prob: 0.05,
        }
    }
}

/// A complete, self-describing fault schedule. Serializable as JSON so a
/// run's faults are reproducible artifacts, not ambient randomness.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FaultPlan {
    /// Seed of every per-attempt outcome stream (boot failures, boot
    /// delays, rejections, retry jitter).
    pub seed: u64,
    /// Scheduled crashes in tick order (generated plans break ties by
    /// `server`; ties fire in list order).
    pub crashes: Vec<CrashEvent>,
    /// Per-attempt provisioning failure probability in `[0, 1]`.
    pub boot_fail_prob: f64,
    /// Maximum boot delay in ticks.
    pub boot_delay_max: u64,
    /// Per-attempt transient dispatch rejection probability in `[0, 1]`.
    pub reject_prob: f64,
    /// Backoff policy for failed attempts.
    pub retry: RetryPolicy,
    /// Admission queue bounds.
    pub admission: AdmissionPolicy,
}

impl FaultPlan {
    /// The zero-fault plan: reproduces the fault-free [`GamingSystem`] run
    /// exactly (identical decisions, identical bill integers).
    pub fn none() -> FaultPlan {
        FaultPlan {
            seed: 0,
            crashes: Vec::new(),
            boot_fail_prob: 0.0,
            boot_delay_max: 0,
            reject_prob: 0.0,
            retry: RetryPolicy::default(),
            admission: AdmissionPolicy::unbounded(),
        }
    }

    /// Check the plan's own contract: crashes in non-decreasing tick
    /// order, both probabilities in `[0, 1]`, and `boot_delay_max` and
    /// `retry.jitter` below `u64::MAX` (each draw is `hash % (max + 1)`).
    /// Hand-written JSON can break any of these, and none may be repaired
    /// silently — a reordered crash list would re-time the run.
    ///
    /// # Errors
    /// [`DispatchError::BadFaultPlan`] naming the first violation.
    pub fn validate(&self) -> Result<(), DispatchError> {
        let bad = |message: String| Err(DispatchError::BadFaultPlan { message });
        if let Some(k) = self.crashes.windows(2).position(|w| w[0].at > w[1].at) {
            return bad(format!(
                "crashes must be in tick order, but crash {} at tick {} follows one at tick {}",
                k + 1,
                self.crashes[k + 1].at,
                self.crashes[k].at
            ));
        }
        for (name, p) in [
            ("boot_fail_prob", self.boot_fail_prob),
            ("reject_prob", self.reject_prob),
        ] {
            if !(0.0..=1.0).contains(&p) {
                return bad(format!("{name} must be a probability in [0, 1], got {p}"));
            }
        }
        for (name, max) in [
            ("boot_delay_max", self.boot_delay_max),
            ("retry.jitter", self.retry.jitter),
        ] {
            if max == u64::MAX {
                return bad(format!(
                    "{name} must be below {max}: draws are hash % ({name} + 1)"
                ));
            }
        }
        Ok(())
    }

    /// Whether the plan can never inject a fault.
    pub fn is_fault_free(&self) -> bool {
        self.crashes.is_empty()
            && self.boot_fail_prob <= 0.0
            && self.boot_delay_max == 0
            && self.reject_prob <= 0.0
    }

    /// Generate a plan from a seed: crash count drawn from
    /// `crash_rate_per_hour · horizon / 3600` (fractional part resolved by
    /// one Bernoulli draw), crash ticks uniform over `[1, horizon)`, fleet
    /// slots uniform over `[0, fleet_hint)`.
    ///
    /// # Errors
    /// [`DispatchError::BadFaultPlan`] when the expected crash count passes
    /// [`MAX_SEEDED_CRASHES`] (a huge horizon or rate): such a plan would
    /// not fit in memory, and a hand-written plan file is the way to ask
    /// for that many crashes.
    pub fn generate(
        seed: u64,
        horizon: u64,
        fleet_hint: u32,
        cfg: &FaultConfig,
    ) -> Result<FaultPlan, DispatchError> {
        let mut rng = StdRng::seed_from_u64(seed);
        let expected = cfg.crash_rate_per_hour.max(0.0) * horizon as f64 / TICKS_PER_HOUR as f64;
        // An infinite rate over an empty horizon expects NaN crashes.
        if expected.is_nan() || expected > MAX_SEEDED_CRASHES as f64 {
            return Err(DispatchError::BadFaultPlan {
                message: format!(
                    "a seeded plan over a {horizon}-tick horizon expects {expected:.3e} crashes, \
                     over the cap of {MAX_SEEDED_CRASHES}; pass a plan file instead"
                ),
            });
        }
        let mut n = expected.floor() as u64;
        if rng.random_bool(expected - expected.floor()) {
            n += 1;
        }
        let mut crashes = Vec::with_capacity(n as usize);
        if horizon > 1 {
            for _ in 0..n {
                crashes.push(CrashEvent {
                    at: rng.random_range(1..horizon),
                    server: rng.random_range(0..fleet_hint.max(1)),
                });
            }
        }
        crashes.sort_by_key(|c| (c.at, c.server));
        Ok(FaultPlan {
            seed,
            crashes,
            boot_fail_prob: cfg.boot_fail_prob.clamp(0.0, 1.0),
            boot_delay_max: cfg.boot_delay_max,
            reject_prob: cfg.reject_prob.clamp(0.0, 1.0),
            retry: RetryPolicy::default(),
            admission: AdmissionPolicy::default(),
        })
    }

    /// Shorthand for the CLI: a [`FaultConfig::moderate`] plan over a
    /// horizon, from a bare seed. Refused as [`FaultPlan::generate`]
    /// refuses.
    pub fn from_seed(seed: u64, horizon: u64) -> Result<FaultPlan, DispatchError> {
        FaultPlan::generate(seed, horizon, 16, &FaultConfig::moderate())
    }
}

/// Where every session of a fault-injected run ended up. One ledger type
/// serves a single dispatcher, a cluster shard and a whole cluster; the
/// conservation law `served + dropped + lost + rerouted == total` is the
/// same for all three, and ledgers of disjoint session sets add field by
/// field.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct SessionLedger {
    /// Sessions in the workload (for a shard: the ones routed to it).
    pub total: u64,
    /// Sessions that completed their full duration.
    pub served: u64,
    /// Sessions that never received service (queue full / timeout /
    /// retries exhausted before first placement, or a dead shard with no
    /// healthy peer left).
    pub dropped: u64,
    /// Sessions interrupted by a crash or shard kill and never completed.
    pub lost: u64,
    /// Not-yet-arrived sessions moved off a dead shard onto healthy ones;
    /// always 0 for a single dispatcher.
    pub rerouted: u64,
}

impl SessionLedger {
    /// The conservation invariant every run must satisfy.
    pub fn conserved(&self) -> bool {
        self.served + self.dropped + self.lost + self.rerouted == self.total
    }

    /// Fraction of sessions that completed, in `[0, 1]` (1 on empty input).
    pub fn service_rate(&self) -> f64 {
        if self.total == 0 {
            1.0
        } else {
            self.served as f64 / self.total as f64
        }
    }
}

impl Sum for SessionLedger {
    fn sum<I: Iterator<Item = SessionLedger>>(iter: I) -> SessionLedger {
        iter.fold(SessionLedger::default(), |a, b| SessionLedger {
            total: a.total + b.total,
            served: a.served + b.served,
            dropped: a.dropped + b.dropped,
            lost: a.lost + b.lost,
            rerouted: a.rerouted + b.rerouted,
        })
    }
}

/// Outcome report of one [`ResilientSystem`] run. All counts are exact;
/// `ledger.conserved()` always holds.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct ResilientReport {
    /// Dispatcher name.
    pub algorithm: String,
    /// Where every session ended up.
    pub ledger: SessionLedger,
    /// Successful re-placements of crash orphans (no-migration broken).
    pub redispatches: u64,
    /// Crashes that actually hit an open server.
    pub crashes: u64,
    /// Provisioning attempts that failed outright.
    pub provision_failures: u64,
    /// Retries scheduled (after failed provisions or rejections).
    pub retries_scheduled: u64,
    /// Transient dispatch rejections.
    pub dispatch_rejections: u64,
    /// Summed ticks from each crash to its last orphan's terminal state.
    pub recovery_ticks: u64,
    /// Peak sessions simultaneously waiting in the admission queue.
    pub queue_peak: u64,
    /// Peak simultaneously-open servers.
    pub peak_servers: u64,
    /// The rental bill: servers actually booted (failed provisions
    /// excluded), each billed from boot start to close or crash.
    pub bill: Bill,
}

/// [`GamingSystem`] plus a [`FaultPlan`]: dispatch under injected faults
/// with retry, re-dispatch, and bounded admission.
#[derive(Debug, Clone)]
pub struct ResilientSystem {
    /// The underlying billing model.
    pub system: GamingSystem,
    /// The fault schedule for this run.
    pub plan: FaultPlan,
}

impl ResilientSystem {
    /// Wrap a system with a fault plan.
    pub fn new(system: GamingSystem, plan: FaultPlan) -> ResilientSystem {
        ResilientSystem { system, plan }
    }

    /// Run without a probe.
    ///
    /// # Errors
    /// As for [`run_traced`](Self::run_traced).
    pub fn run<Sz: Demand, S: BinSelector<Sz> + ?Sized>(
        &self,
        requests: &GInstance<Sz>,
        dispatcher: &mut S,
    ) -> Result<ResilientReport, DispatchError> {
        self.run_probed(requests, dispatcher, &mut NoProbe)
    }

    /// Run, reporting every engine and fault event to `probe`.
    ///
    /// # Errors
    /// As for [`run_traced`](Self::run_traced).
    pub fn run_probed<Sz: Demand, S: BinSelector<Sz> + ?Sized, P: Probe<Sz>>(
        &self,
        requests: &GInstance<Sz>,
        dispatcher: &mut S,
        probe: &mut P,
    ) -> Result<ResilientReport, DispatchError> {
        self.run_traced(requests, dispatcher, probe, &mut NoSpans)
    }

    /// [`run_probed`](Self::run_probed) plus a [`SpanRecorder`]: every
    /// retry dispatch attempt gets a `retry` span and every crash's orphan
    /// re-placement sweep gets a `redispatch` span, so fault-handling cost
    /// shows up in the stage breakdown next to the engine stages. With
    /// [`NoSpans`] this is exactly the probed run.
    ///
    /// # Errors
    /// [`DispatchError::CapacityMismatch`] when the workload was generated
    /// against a different server capacity; [`DispatchError::BadFaultPlan`]
    /// before any dispatch when [`FaultPlan::validate`] refuses the plan,
    /// and mid-run when its boot delays or retry backoff push an event
    /// past tick `u64::MAX` (the run stops there; `probe` holds the
    /// prefix).
    pub fn run_traced<Sz: Demand, S: BinSelector<Sz> + ?Sized, P: Probe<Sz>, R: SpanRecorder>(
        &self,
        requests: &GInstance<Sz>,
        dispatcher: &mut S,
        probe: &mut P,
        spans: &mut R,
    ) -> Result<ResilientReport, DispatchError> {
        self.system.check_capacity(requests)?;
        self.plan.validate()?;
        let mut sim = Sim::new(requests, &self.plan, dispatcher, probe, spans);
        sim.run();
        if let Some(message) = sim.overflow.take() {
            return Err(DispatchError::BadFaultPlan { message });
        }
        Ok(sim.into_report(self.system))
    }
}

// Hash streams: each per-attempt outcome is `mix(seed, STREAM, counter)`,
// so outcome sequences are independent of each other and of wall time.
const STREAM_BOOT: u64 = 0xB007_FA11;
const STREAM_DELAY: u64 = 0xDE1A_90A7;
const STREAM_REJECT: u64 = 0x8E7E_C700;
const STREAM_JITTER: u64 = 0x717E_8ACC;

/// splitmix64-style avalanche over (seed, stream, counter).
fn mix(seed: u64, stream: u64, counter: u64) -> u64 {
    let mut z = seed
        ^ stream.wrapping_mul(0x9E37_79B9_7F4A_7C15)
        ^ counter.wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Map 64 hash bits to a uniform `[0, 1)` double (53 mantissa bits).
fn hash_prob(h: u64) -> f64 {
    (h >> 11) as f64 * (1.0 / 9007199254740992.0)
}

/// The next draw of hash stream `stream`, advancing its counter.
fn draw(seed: u64, stream: u64, counter: &mut u64) -> u64 {
    let h = mix(seed, stream, *counter);
    *counter += 1;
    h
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum ItemState {
    /// Not yet arrived.
    Pending,
    /// Arrived, waiting for first placement (occupies a queue slot).
    Waiting,
    /// Committed to a server that is still booting.
    Booting,
    /// Running on a server.
    Placed,
    /// Orphaned by a crash, awaiting re-placement.
    Orphaned,
    /// Completed its full duration.
    Served,
    /// Terminal without any service.
    Dropped,
    /// Terminal after partial service (crash interrupted).
    Lost,
}

struct Recovery {
    bin: BinId,
    started: u64,
    outstanding: u32,
    redispatched: u32,
    lost: u32,
}

/// A timed input's kind, in its within-tick order: departures free
/// capacity before anything is placed (as in the engine's schedule), and
/// the fault inputs fall between them and the tick's arrivals.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum Phase {
    Departure,
    Crash,
    Boot,
    Retry,
    Arrival,
}

/// One timed input, min-ordered by `(at, phase, key)`. `key` is the item
/// id for departures and arrivals, the plan index for crashes, the pending
/// bin's id for boots (ids are reserved in scheduling order) and the
/// number of retries scheduled before it for retries. `item` is the
/// session the input concerns (unused by crashes).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
struct Timed {
    at: u64,
    phase: Phase,
    key: u64,
    item: ItemId,
}

/// One resilient run: a driver of the shared [`EventCore`], which owns the
/// fleet (the arena), the selector hooks and every engine event. The
/// driver keeps the timed-input queue, the plan's hash streams, the
/// admission queue and the SLA ledger.
struct Sim<'a, Sz: Demand, S: BinSelector<Sz> + ?Sized, P: Probe<Sz>, R: SpanRecorder> {
    plan: &'a FaultPlan,
    requests: &'a GInstance<Sz>,
    core: EventCore<&'a mut S, &'a mut P, Sz>,
    spans: &'a mut R,
    /// Every timed input not yet handled.
    queue: BinaryHeap<Reverse<Timed>>,
    // The SLA ledger, indexed by ItemId.
    state: Vec<ItemState>,
    /// Whether the item currently occupies an admission-queue slot.
    queued: Vec<bool>,
    attempts: Vec<u32>,
    /// Scheduled session end, set at first placement (0 before).
    end: Vec<u64>,
    orphaned_from: Vec<Option<BinId>>,
    recovery_of: Vec<Option<usize>>,
    recoveries: Vec<Recovery>,
    /// Ticks each booted server spent booting: billed on top of its open
    /// span, since rental runs from the boot decision.
    boot_ticks: Vec<(BinId, u64)>,
    /// Servers booted so far.
    servers_rented: u64,
    // Hash-stream counters.
    boot_ctr: u64,
    delay_ctr: u64,
    reject_ctr: u64,
    jitter_ctr: u64,
    waiting_now: u64,
    /// The report's counters, filled in as the run goes.
    report: ResilientReport,
    /// Set when plan delays pushed an event past tick `u64::MAX`; the
    /// run stops after that tick and is refused with this message.
    overflow: Option<String>,
}

impl<'a, Sz: Demand, S: BinSelector<Sz> + ?Sized, P: Probe<Sz>, R: SpanRecorder>
    Sim<'a, Sz, S, P, R>
{
    fn new(
        requests: &'a GInstance<Sz>,
        plan: &'a FaultPlan,
        selector: &'a mut S,
        probe: &'a mut P,
        spans: &'a mut R,
    ) -> Sim<'a, Sz, S, P, R> {
        let n = requests.len();
        let arrivals = requests.items().iter().map(|it| Timed {
            at: it.arrival.0,
            phase: Phase::Arrival,
            key: it.id.0 as u64,
            item: it.id,
        });
        // A crash at tick 0 fires at tick 1, once something can be open.
        let crashes = plan.crashes.iter().enumerate().map(|(k, c)| Timed {
            at: c.at.max(1),
            phase: Phase::Crash,
            key: k as u64,
            item: ItemId(0),
        });
        let report = ResilientReport {
            algorithm: selector.name().to_string(),
            ledger: SessionLedger {
                total: n as u64,
                ..SessionLedger::default()
            },
            ..ResilientReport::default()
        };
        Sim {
            plan,
            requests,
            core: EventCore::new(requests.capacity(), selector, probe, n),
            spans,
            queue: arrivals.chain(crashes).map(Reverse).collect(),
            state: vec![ItemState::Pending; n],
            queued: vec![false; n],
            attempts: vec![0; n],
            end: vec![0; n],
            orphaned_from: vec![None; n],
            recovery_of: vec![None; n],
            recoveries: Vec::new(),
            boot_ticks: Vec::new(),
            servers_rented: 0,
            boot_ctr: 0,
            delay_ctr: 0,
            reject_ctr: 0,
            jitter_ctr: 0,
            waiting_now: 0,
            report,
            overflow: None,
        }
    }

    fn run(&mut self) {
        let mut now = 0;
        while let Some(Reverse(input)) = self.queue.pop() {
            if self.overflow.is_some() && input.at != now {
                break;
            }
            now = input.at;
            match input.phase {
                Phase::Departure => self.depart(now, input.item),
                Phase::Crash => self.crash(now, self.plan.crashes[input.key as usize].server),
                Phase::Boot => self.boot(now, input.item, BinId(input.key as u32)),
                Phase::Retry => self.retry(now, input.item),
                Phase::Arrival => self.arrive(now, input.item),
            }
        }
        debug_assert!(
            self.overflow.is_some() || self.core.open_bins() == 0,
            "open servers with nothing in flight"
        );
    }

    /// `item` as the selector sees it on an attempt at tick `t`.
    fn arriving(&self, item: ItemId, t: u64) -> GArrivingItem<Sz> {
        let it = self.requests.item(item);
        GArrivingItem {
            id: item,
            arrival: Tick(t),
            size: it.size,
            region: it.region,
        }
    }

    fn depart(&mut self, t: u64, item: ItemId) {
        if self.state[item.index()] != ItemState::Placed {
            // The session was lost to a crash after this departure was
            // scheduled; its terminal state already happened.
            return;
        }
        self.state[item.index()] = ItemState::Served;
        self.report.ledger.served += 1;
        let size = self.requests.item(item).size;
        self.core.depart(&mut NoSpans, item, size, Tick(t));
    }

    fn crash(&mut self, t: u64, slot: u32) {
        let open = self.core.open_bins();
        if open == 0 {
            return; // deterministic no-op
        }
        let bin = self
            .core
            .nth_open_bin(slot as usize % open)
            .expect("slot below the open count");
        let orphans = self.core.force_close(bin, Tick(t));
        self.report.crashes += 1;
        let rec = self.recoveries.len();
        self.recoveries.push(Recovery {
            bin,
            started: t,
            outstanding: orphans.len() as u32,
            redispatched: 0,
            lost: 0,
        });
        if orphans.is_empty() {
            // No orphans: recovery is instantly complete.
            self.finish_recovery(t, rec);
            return;
        }
        for &item in &orphans {
            debug_assert_eq!(self.state[item.index()], ItemState::Placed);
            self.state[item.index()] = ItemState::Orphaned;
            self.orphaned_from[item.index()] = Some(bin);
            self.recovery_of[item.index()] = Some(rec);
        }
        // Re-dispatch orphans immediately, in placement order.
        if R::ENABLED {
            self.spans.enter(stage::REDISPATCH);
        }
        for item in orphans {
            if !self.dispatch(t, item) {
                self.retry_or_drop(t, item);
            }
        }
        if R::ENABLED {
            self.spans.exit();
        }
    }

    fn boot(&mut self, t: u64, item: ItemId, bin: BinId) {
        let i = item.index();
        self.servers_rented += 1;
        if self.end[i] > 0 && self.end[i] <= t {
            // An orphan committed to this boot, but its session ended
            // before the server came up: the server opens empty and
            // closes at once; the session is lost.
            let booted = self.core.open_dead(bin, item, Tick(t));
            self.boot_ticks.push((bin, booted));
            self.terminal_drop(t, item, DropReason::CrashLost);
            return;
        }
        let arriving = self.arriving(item, t);
        let booted = self
            .core
            .open_reserved(bin, &arriving, self.orphaned_from[i]);
        self.boot_ticks.push((bin, booted));
        self.committed(t, item);
    }

    fn retry(&mut self, t: u64, item: ItemId) {
        let i = item.index();
        match self.state[i] {
            ItemState::Waiting => {
                // Event-time wait, boundary inclusive: a session whose
                // wait *equals* the timeout is already out of budget.
                if t - self.requests.item(item).arrival.0 >= self.plan.admission.queue_timeout {
                    self.terminal_drop(t, item, DropReason::QueueTimeout);
                    return;
                }
            }
            ItemState::Orphaned => {
                if self.end[i] <= t {
                    // The interrupted session's scheduled end passed
                    // while it waited: nothing left to serve.
                    self.terminal_drop(t, item, DropReason::CrashLost);
                    return;
                }
            }
            // Terminal while the retry was in flight (e.g. timed out).
            _ => return,
        }
        if R::ENABLED {
            self.spans.enter(stage::RETRY);
        }
        let committed = self.dispatch(t, item);
        if R::ENABLED {
            self.spans.exit();
        }
        if !committed {
            self.retry_or_drop(t, item);
        }
    }

    fn arrive(&mut self, t: u64, item: ItemId) {
        if P::ENABLED {
            let size = self.requests.item(item).size;
            self.core.probe_mut().record(GProbeEvent::ItemArrived {
                at: Tick(t),
                item,
                size,
            });
        }
        self.state[item.index()] = ItemState::Waiting;
        if self.waiting_now >= self.plan.admission.queue_capacity as u64 {
            self.terminal_drop(t, item, DropReason::QueueFull);
            return;
        }
        if !self.dispatch(t, item) {
            self.queued[item.index()] = true;
            self.waiting_now += 1;
            self.report.queue_peak = self.report.queue_peak.max(self.waiting_now);
            self.retry_or_drop(t, item);
        }
    }

    /// One dispatch attempt for `item` at tick `t`: the selector decides,
    /// the plan may reject a placement or fail a boot, and otherwise the
    /// item is placed or committed to a booting server. `false` when the
    /// attempt failed (the caller retries or drops). An attempt that
    /// commits is timed like `EventCore::arrive` times an arrival, from
    /// the decision through the placement (or the boot reservation).
    fn dispatch(&mut self, t: u64, item: ItemId) -> bool {
        let i = item.index();
        self.attempts[i] += 1;
        let arriving = self.arriving(item, t);
        let started = P::TIMED.then(std::time::Instant::now);
        let decision = self.core.decide(&mut NoSpans, &arriving);
        let seed = self.plan.seed;
        match decision {
            Decision::Use(bin) => {
                if self.plan.reject_prob > 0.0
                    && hash_prob(draw(seed, STREAM_REJECT, &mut self.reject_ctr))
                        < self.plan.reject_prob
                {
                    self.report.dispatch_rejections += 1;
                    if P::ENABLED {
                        self.core.probe_mut().record(GProbeEvent::DispatchRejected {
                            at: Tick(t),
                            item,
                            bin,
                        });
                    }
                    return false;
                }
            }
            Decision::Open { tag } => {
                if self.plan.boot_fail_prob > 0.0
                    && hash_prob(draw(seed, STREAM_BOOT, &mut self.boot_ctr))
                        < self.plan.boot_fail_prob
                {
                    self.report.provision_failures += 1;
                    if P::ENABLED {
                        self.core.probe_mut().record(GProbeEvent::ProvisionFailed {
                            at: Tick(t),
                            item,
                            attempt: self.attempts[i],
                        });
                    }
                    self.core.burn(Tick(t));
                    return false;
                }
                let delay = if self.plan.boot_delay_max > 0 {
                    draw(seed, STREAM_DELAY, &mut self.delay_ctr) % (self.plan.boot_delay_max + 1)
                } else {
                    0
                };
                if delay > 0 {
                    let bin = self.core.reserve(&arriving, tag);
                    self.decision_timed(started);
                    let ready = self.tick_after(t, Some(delay), "boot");
                    self.queue.push(Reverse(Timed {
                        at: ready,
                        phase: Phase::Boot,
                        key: bin.0 as u64,
                        item,
                    }));
                    // Committing to a boot admits the session: it no longer
                    // holds a queue slot while the server comes up.
                    self.leave_queue(item);
                    if self.state[i] == ItemState::Waiting {
                        self.state[i] = ItemState::Booting;
                    }
                    return true;
                }
                self.servers_rented += 1;
            }
        }
        self.core
            .place(&mut NoSpans, &arriving, decision, self.orphaned_from[i]);
        self.decision_timed(started);
        self.committed(t, item);
        true
    }

    /// Report a committed attempt's decision time to the probe.
    fn decision_timed(&mut self, started: Option<std::time::Instant>) {
        if let Some(started) = started {
            self.core
                .probe_mut()
                .on_decision_ns(started.elapsed().as_nanos() as u64);
        }
    }

    /// The ledger side of a placement at `t`: the session leaves the
    /// queue and runs; a re-dispatched orphan advances its recovery, and a
    /// first placement fixes the session's end and queues its departure.
    fn committed(&mut self, t: u64, item: ItemId) {
        let i = item.index();
        self.leave_queue(item);
        self.state[i] = ItemState::Placed;
        self.report.peak_servers = self.report.peak_servers.max(self.core.open_bins() as u64);
        if self.orphaned_from[i].take().is_some() {
            self.report.redispatches += 1;
            if let Some(rec) = self.recovery_of[i].take() {
                self.recoveries[rec].redispatched += 1;
                self.settle(t, rec);
            }
        } else {
            let it = self.requests.item(item);
            let duration = it.departure.0 - it.arrival.0;
            self.end[i] = self.tick_after(t, Some(duration), "session end");
            self.queue.push(Reverse(Timed {
                at: self.end[i],
                phase: Phase::Departure,
                key: item.0 as u64,
                item,
            }));
        }
    }

    /// Terminal state without (further) service: dropped if never placed,
    /// lost if a crash interrupted it.
    fn terminal_drop(&mut self, t: u64, item: ItemId, reason: DropReason) {
        let i = item.index();
        self.leave_queue(item);
        self.state[i] = if self.orphaned_from[i].take().is_some() {
            self.report.ledger.lost += 1;
            ItemState::Lost
        } else {
            self.report.ledger.dropped += 1;
            ItemState::Dropped
        };
        if P::ENABLED {
            self.core.probe_mut().record(GProbeEvent::ItemDropped {
                at: Tick(t),
                item,
                reason,
            });
        }
        if let Some(rec) = self.recovery_of[i].take() {
            self.recoveries[rec].lost += 1;
            self.settle(t, rec);
        }
    }

    fn leave_queue(&mut self, item: ItemId) {
        if std::mem::replace(&mut self.queued[item.index()], false) {
            self.waiting_now -= 1;
        }
    }

    /// One of recovery `rec`'s orphans met its fate at `t`.
    fn settle(&mut self, t: u64, rec: usize) {
        self.recoveries[rec].outstanding -= 1;
        if self.recoveries[rec].outstanding == 0 {
            self.finish_recovery(t, rec);
        }
    }

    fn finish_recovery(&mut self, t: u64, rec: usize) {
        let r = &self.recoveries[rec];
        self.report.recovery_ticks = self.report.recovery_ticks.saturating_add(t - r.started);
        if P::ENABLED {
            let event = GProbeEvent::RecoveryEnded {
                at: Tick(t),
                bin: r.bin,
                redispatched: r.redispatched,
                lost: r.lost,
            };
            self.core.probe_mut().record(event);
        }
    }

    fn retry_or_drop(&mut self, t: u64, item: ItemId) {
        let i = item.index();
        if self.attempts[i] >= self.plan.retry.max_attempts {
            let reason = if self.orphaned_from[i].is_some() {
                DropReason::CrashLost
            } else {
                DropReason::RetriesExhausted
            };
            self.terminal_drop(t, item, reason);
            return;
        }
        let jitter = if self.plan.retry.jitter > 0 {
            draw(self.plan.seed, STREAM_JITTER, &mut self.jitter_ctr) % (self.plan.retry.jitter + 1)
        } else {
            0
        };
        let delay = self
            .plan
            .retry
            .backoff_ticks(self.attempts[i])
            .checked_add(jitter)
            .map(|d| d.max(1));
        let next = self.tick_after(t, delay, "retry");
        self.queue.push(Reverse(Timed {
            at: next,
            phase: Phase::Retry,
            key: self.report.retries_scheduled,
            item,
        }));
        self.report.retries_scheduled += 1;
        if P::ENABLED {
            self.core.probe_mut().record(GProbeEvent::RetryScheduled {
                at: Tick(t),
                item,
                attempt: self.attempts[i] + 1,
                next: Tick(next),
            });
        }
    }

    /// `t + delay`, the tick of an event `delay` ticks from now (`None`
    /// when the delay itself overflowed). Past `u64::MAX` the overflow is
    /// latched, the run stops after this tick, and `u64::MAX` stands in.
    fn tick_after(&mut self, t: u64, delay: Option<u64>, what: &str) -> u64 {
        delay.and_then(|d| t.checked_add(d)).unwrap_or_else(|| {
            self.overflow.get_or_insert_with(|| {
                format!(
                    "{what} delay from tick {t} passes the last tick {}",
                    u64::MAX
                )
            });
            u64::MAX
        })
    }

    /// The finished report: each server is billed from its boot decision
    /// to its close or crash, rounded per server. The run counted the
    /// booted servers; the core's spans also cover ids that failed
    /// provisions burned, at zero ticks.
    fn into_report(self, system: GamingSystem) -> ResilientReport {
        let mut rented: Vec<u64> = self.core.bin_spans().collect();
        for (bin, booted) in self.boot_ticks {
            rented[bin.index()] += booted;
        }
        ResilientReport {
            bill: system.bill(self.servers_rented, rented),
            ..self.report
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dbp_core::prelude::*;
    use dbp_core::probe::{FnProbe, ProbeEvent, VerifyProbe};
    use dbp_obs::export::events_to_jsonl;
    use dbp_obs::EventLog;
    use dbp_workloads::{generate, CloudGamingConfig};

    fn workload(seed: u64, horizon: u64) -> Instance {
        generate(&CloudGamingConfig {
            horizon,
            seed,
            ..CloudGamingConfig::default()
        })
    }

    #[test]
    fn zero_fault_plan_reproduces_fault_free_bill_exactly() {
        let inst = workload(11, 3600);
        for sys in [GamingSystem::paper_model(), GamingSystem::hourly_model()] {
            let (baseline, _) = sys.run_or_panic(&inst, &mut FirstFit::new());
            let resilient = ResilientSystem::new(sys, FaultPlan::none())
                .run(&inst, &mut FirstFit::new())
                .unwrap();
            assert_eq!(resilient.ledger.served, inst.len() as u64);
            assert_eq!(resilient.ledger.dropped + resilient.ledger.lost, 0);
            assert_eq!(resilient.bill.busy_ticks, baseline.bill.busy_ticks);
            assert_eq!(resilient.bill.billed_ticks, baseline.bill.billed_ticks);
            assert_eq!(resilient.bill.cost_cents, baseline.bill.cost_cents);
            assert_eq!(resilient.bill.servers_rented, baseline.bill.servers_rented);
            assert_eq!(resilient.peak_servers as u32, baseline.peak_servers);
        }
    }

    #[test]
    fn zero_fault_plan_matches_every_dispatcher() {
        let inst = workload(12, 2400);
        let sys = GamingSystem::paper_model();
        let selectors: Vec<(&str, Box<dyn BinSelector>)> = vec![
            ("FF", Box::new(FirstFit::new())),
            ("BF", Box::new(BestFit::new())),
            ("NF", Box::new(NextFit::new())),
            ("MFF", Box::new(ModifiedFirstFit::for_known_mu(3600))),
        ];
        for (name, mut sel) in selectors {
            let (baseline, _) = sys.run_or_panic(&inst, &mut *factory_clone(name));
            let resilient = ResilientSystem::new(sys, FaultPlan::none())
                .run(&inst, &mut *sel)
                .unwrap();
            assert_eq!(
                resilient.bill.cost_cents, baseline.bill.cost_cents,
                "{name}"
            );
            assert_eq!(
                resilient.bill.busy_ticks, baseline.bill.busy_ticks,
                "{name}"
            );
        }
    }

    fn factory_clone(name: &str) -> Box<dyn BinSelector> {
        match name {
            "FF" => Box::new(FirstFit::new()),
            "BF" => Box::new(BestFit::new()),
            "NF" => Box::new(NextFit::new()),
            "MFF" => Box::new(ModifiedFirstFit::for_known_mu(3600)),
            _ => unreachable!(),
        }
    }

    #[test]
    fn identical_seeds_give_identical_reports_and_event_logs() {
        let inst = workload(13, 3600);
        let plan = FaultPlan::generate(99, 3600, 8, &FaultConfig::moderate()).unwrap();
        let sys = ResilientSystem::new(GamingSystem::paper_model(), plan);
        let mut log_a = EventLog::new();
        let mut log_b = EventLog::new();
        let a = sys
            .run_probed(&inst, &mut BestFit::new(), &mut log_a)
            .unwrap();
        let b = sys
            .run_probed(&inst, &mut BestFit::new(), &mut log_b)
            .unwrap();
        assert_eq!(a, b);
        assert_eq!(
            events_to_jsonl(log_a.events()),
            events_to_jsonl(log_b.events())
        );
    }

    #[test]
    fn conservation_holds_under_heavy_faults() {
        let inst = workload(14, 3600);
        let cfg = FaultConfig {
            crash_rate_per_hour: 20.0,
            boot_fail_prob: 0.4,
            boot_delay_max: 60,
            reject_prob: 0.3,
        };
        let plan = FaultPlan::generate(7, 3600, 8, &cfg).unwrap();
        let report = ResilientSystem::new(GamingSystem::paper_model(), plan)
            .run(&inst, &mut FirstFit::new())
            .unwrap();
        assert!(report.ledger.conserved(), "{report:?}");
        assert!(report.crashes > 0);
        assert!(report.provision_failures > 0);
        assert!(report.dispatch_rejections > 0);
    }

    #[test]
    fn crash_orphans_are_redispatched() {
        // Two long sessions on one server; crash it mid-flight.
        let mut b = InstanceBuilder::new(1000);
        b.add(0, 1000, 400);
        b.add(0, 1000, 400);
        let inst = b.build().unwrap();
        let mut plan = FaultPlan::none();
        plan.crashes.push(CrashEvent { at: 500, server: 0 });
        let mut log = EventLog::new();
        let report = ResilientSystem::new(GamingSystem::paper_model(), plan)
            .run_probed(&inst, &mut FirstFit::new(), &mut log)
            .unwrap();
        assert_eq!(report.crashes, 1);
        assert_eq!(report.redispatches, 2);
        assert_eq!(report.ledger.served, 2);
        assert_eq!(report.ledger.lost, 0);
        assert_eq!(report.bill.servers_rented, 2); // original + replacement
        let kinds: Vec<&str> = log.events().iter().map(|e| e.kind()).collect();
        assert!(kinds.contains(&"BinCrashed"));
        assert!(kinds.contains(&"ItemRedispatched"));
        assert!(kinds.contains(&"RecoveryEnded"));
        // Redispatched sessions keep their original end: still 1000 ticks
        // of service each, but the replacement server is billed from 500.
        assert_eq!(report.bill.busy_ticks, 500 + 500);
    }

    #[test]
    fn faulted_runs_record_retry_and_redispatch_spans() {
        use dbp_obs::SpanCollector;
        // One crash with two orphans: exactly one redispatch sweep span,
        // and the span seam must not perturb the ledger.
        let mut b = InstanceBuilder::new(1000);
        b.add(0, 1000, 400);
        b.add(0, 1000, 400);
        let inst = b.build().unwrap();
        let mut plan = FaultPlan::none();
        plan.crashes.push(CrashEvent { at: 500, server: 0 });
        let sys = ResilientSystem::new(GamingSystem::paper_model(), plan);
        let plain = sys.run(&inst, &mut FirstFit::new()).unwrap();
        let mut spans = SpanCollector::new(0);
        let traced = sys
            .run_traced(&inst, &mut FirstFit::new(), &mut NoProbe, &mut spans)
            .unwrap();
        assert_eq!(traced, plain);
        let sweeps = spans
            .spans()
            .iter()
            .filter(|s| s.name == stage::REDISPATCH)
            .count();
        assert_eq!(sweeps, 1);

        // Flaky provisioning: every fired retry attempt gets its own span.
        let inst = workload(15, 2400);
        let cfg = FaultConfig {
            crash_rate_per_hour: 0.0,
            boot_fail_prob: 0.5,
            boot_delay_max: 0,
            reject_prob: 0.0,
        };
        let plan = FaultPlan::generate(21, 2400, 8, &cfg).unwrap();
        let mut spans = SpanCollector::new(0);
        let report = ResilientSystem::new(GamingSystem::paper_model(), plan)
            .run_traced(&inst, &mut FirstFit::new(), &mut NoProbe, &mut spans)
            .unwrap();
        assert!(report.retries_scheduled > 0);
        let retries = spans
            .spans()
            .iter()
            .filter(|s| s.name == stage::RETRY)
            .count() as u64;
        assert!(retries > 0, "retry attempts must be visible as spans");
        assert!(retries <= report.retries_scheduled);
    }

    #[test]
    fn queue_full_drops_are_accounted() {
        let mut b = InstanceBuilder::new(1000);
        for _ in 0..4 {
            b.add(0, 100, 600); // only one fits per server
        }
        let inst = b.build().unwrap();
        let mut plan = FaultPlan::none();
        plan.boot_fail_prob = 1.0; // nothing ever provisions
        plan.admission = AdmissionPolicy {
            queue_capacity: 2,
            queue_timeout: 1000,
        };
        let report = ResilientSystem::new(GamingSystem::paper_model(), plan)
            .run(&inst, &mut FirstFit::new())
            .unwrap();
        assert!(report.ledger.conserved());
        assert_eq!(report.ledger.served, 0);
        assert_eq!(report.ledger.dropped, 4);
        assert!(report.provision_failures > 0);
        assert_eq!(report.bill.servers_rented, 0);
        assert_eq!(report.bill.cost_cents, Ratio::ZERO);
        assert_eq!(report.queue_peak, 2);
    }

    #[test]
    fn queue_timeout_boundary_wait_equal_to_timeout_drops() {
        // One oversized session that can never provision, retrying on a
        // jitter-free fixed cadence: retries fire at event-time waits of
        // exactly 4, 8, 12, … ticks after arrival. With `queue_timeout: 8`
        // the wait-8 retry sits exactly on the boundary — and the boundary
        // is a drop (`wait >= timeout`), so the session must leave with
        // `QueueTimeout` at tick arrival + 8, not survive to wait 12.
        let mut b = InstanceBuilder::new(1000);
        b.add(10, 500, 600);
        let inst = b.build().unwrap();
        let mut plan = FaultPlan::none();
        plan.boot_fail_prob = 1.0;
        plan.retry = RetryPolicy {
            base: 4,
            cap: 4,
            jitter: 0,
            max_attempts: 100,
        };
        plan.admission = AdmissionPolicy {
            queue_capacity: 64,
            queue_timeout: 8,
        };
        let mut events = Vec::new();
        let report = ResilientSystem::new(GamingSystem::paper_model(), plan)
            .run_probed(
                &inst,
                &mut FirstFit::new(),
                &mut FnProbe::new(|ev| events.push(ev)),
            )
            .unwrap();
        assert!(report.ledger.conserved());
        assert_eq!(report.ledger.served, 0);
        assert_eq!(report.ledger.dropped, 1);
        let drops: Vec<_> = events
            .iter()
            .filter_map(|ev| match ev {
                ProbeEvent::ItemDropped { at, reason, .. } => Some((*at, *reason)),
                _ => None,
            })
            .collect();
        assert_eq!(drops, vec![(Tick(18), DropReason::QueueTimeout)]);
    }

    #[test]
    fn fault_plan_json_round_trips() {
        let plan = FaultPlan::generate(42, 7200, 8, &FaultConfig::moderate()).unwrap();
        let json = serde_json::to_string(&plan).unwrap();
        let back: FaultPlan = serde_json::from_str(&json).unwrap();
        assert_eq!(plan, back);
    }

    #[test]
    fn generate_is_deterministic_and_scales_with_rate() {
        let cfg = FaultConfig {
            crash_rate_per_hour: 6.0,
            ..FaultConfig::none()
        };
        let a = FaultPlan::generate(5, 7200, 8, &cfg).unwrap();
        let b = FaultPlan::generate(5, 7200, 8, &cfg).unwrap();
        assert_eq!(a, b);
        assert!(a.crashes.len() >= 11 && a.crashes.len() <= 13);
        assert!(a.crashes.windows(2).all(|w| w[0].at <= w[1].at));
        let zero = FaultPlan::generate(5, 7200, 8, &FaultConfig::none()).unwrap();
        assert!(zero.is_fault_free());
    }

    #[test]
    fn generate_refuses_more_crashes_than_the_cap() {
        let refused = |horizon: u64, rate: f64| {
            let cfg = FaultConfig {
                crash_rate_per_hour: rate,
                ..FaultConfig::none()
            };
            matches!(
                FaultPlan::generate(3, horizon, 8, &cfg),
                Err(DispatchError::BadFaultPlan { .. })
            )
        };
        assert!(refused(u64::MAX, 2.0));
        assert!(refused(3600, f64::INFINITY));
        assert!(refused(0, f64::INFINITY));
        // Exactly the cap is still drawn; one hour more is not.
        let at_cap = MAX_SEEDED_CRASHES * TICKS_PER_HOUR;
        assert!(!refused(at_cap, 1.0));
        assert!(refused(at_cap + TICKS_PER_HOUR, 1.0));
        assert!(FaultPlan::from_seed(3, u64::MAX).is_err());
    }

    #[test]
    fn backoff_is_capped_and_monotone() {
        let p = RetryPolicy::default();
        let seq: Vec<u64> = (1..8).map(|k| p.backoff_ticks(k)).collect();
        assert_eq!(seq, vec![4, 8, 16, 32, 64, 64, 64]);
    }

    #[test]
    fn backoff_never_overflows_at_extreme_attempt_counts() {
        let p = RetryPolicy::default();
        // Exponents at and past the shift-width boundary stay at the cap.
        for k in [63, 64, 65, 66, 1_000, u32::MAX] {
            assert_eq!(p.backoff_ticks(k), p.cap, "attempt {k}");
        }
        // A zero base backs off by zero no matter the attempt count.
        let zero = RetryPolicy {
            base: 0,
            ..RetryPolicy::default()
        };
        assert_eq!(zero.backoff_ticks(u32::MAX), 0);
        // A huge base is still capped from the first retry.
        let huge = RetryPolicy {
            base: u64::MAX,
            cap: 100,
            ..RetryPolicy::default()
        };
        assert_eq!(huge.backoff_ticks(1), 100);
        assert_eq!(huge.backoff_ticks(u32::MAX), 100);
    }

    #[test]
    fn contract_breaking_plans_are_refused_before_dispatch() {
        let inst = workload(16, 2400);
        let mut unsorted = FaultPlan::none();
        unsorted.crashes = vec![
            CrashEvent {
                at: 2000,
                server: 0,
            },
            CrashEvent { at: 500, server: 0 },
        ];
        let mut nan = FaultPlan::none();
        nan.reject_prob = f64::NAN;
        let mut jitter = FaultPlan::none();
        jitter.retry.jitter = u64::MAX;
        for plan in [unsorted, nan, jitter] {
            let mut log = EventLog::new();
            let got = ResilientSystem::new(GamingSystem::paper_model(), plan).run_probed(
                &inst,
                &mut FirstFit::new(),
                &mut log,
            );
            assert!(
                matches!(got, Err(DispatchError::BadFaultPlan { .. })),
                "{got:?}"
            );
            assert!(log.events().is_empty(), "refused plans dispatch nothing");
        }
    }

    #[test]
    fn a_retry_past_the_last_tick_refuses_the_plan() {
        let mut b = InstanceBuilder::new(1000);
        b.add(0, 100, 600);
        let inst = b.build().unwrap();
        let mut plan = FaultPlan::none();
        plan.boot_fail_prob = 1.0;
        plan.retry = RetryPolicy {
            base: u64::MAX / 2 + 1,
            cap: u64::MAX,
            jitter: 0,
            max_attempts: 3,
        };
        // Retry 1 fires at tick 2^63; the second backoff saturates at
        // u64::MAX ticks, which no tick after 0 can add.
        let err = ResilientSystem::new(GamingSystem::paper_model(), plan)
            .run(&inst, &mut FirstFit::new())
            .unwrap_err();
        assert!(err.to_string().contains("retry delay"), "{err}");
    }

    fn recovery_setup() -> (Instance, ResilientSystem) {
        let inst = workload(21, 2400);
        let plan = FaultPlan::generate(77, 2400, 8, &FaultConfig::moderate()).unwrap();
        (
            inst,
            ResilientSystem::new(GamingSystem::paper_model(), plan),
        )
    }

    /// Recover a crashed run from its journal the way every journal
    /// recovers: re-run under a `VerifyProbe` over the whole journal, then
    /// `finish()`. Returns the report and the (verified, appended) counts.
    fn recover(
        sys: &ResilientSystem,
        inst: &Instance,
        dispatcher: &mut dyn BinSelector,
        cont: &mut EventLog,
        journal: &[ProbeEvent],
    ) -> Result<(ResilientReport, usize, u64), String> {
        let mut verify = VerifyProbe::new(journal, cont);
        let report = sys
            .run_probed(inst, dispatcher, &mut verify)
            .map_err(|e| e.to_string())?;
        let (replayed, appended) = verify.finish()?;
        Ok((report, replayed, appended))
    }

    #[test]
    fn recovery_from_any_prefix_reproduces_report_and_stream() {
        let (inst, sys) = recovery_setup();
        let mut full_log = EventLog::new();
        let full = sys
            .run_probed(&inst, &mut FirstFit::new(), &mut full_log)
            .unwrap();
        let events = full_log.into_events();
        assert!(full.crashes > 0, "fault plan must exercise recovery");
        for cut in [0, 1, events.len() / 3, events.len() / 2, events.len()] {
            let mut cont = EventLog::new();
            let (report, replayed, appended) =
                recover(&sys, &inst, &mut FirstFit::new(), &mut cont, &events[..cut])
                    .unwrap_or_else(|e| panic!("cut {cut}: {e}"));
            assert_eq!(report, full, "cut {cut}");
            assert_eq!(replayed, cut);
            assert_eq!(appended as usize, events.len() - cut);
            let mut combined = events[..cut].to_vec();
            combined.extend(cont.into_events());
            assert_eq!(combined, events, "cut {cut}");
        }
    }

    #[test]
    fn recovery_rejects_foreign_journals() {
        let (inst, sys) = recovery_setup();
        let mut log = EventLog::new();
        sys.run_probed(&inst, &mut FirstFit::new(), &mut log)
            .unwrap();
        let events = log.into_events();

        // A journal from a different dispatcher diverges, never panics.
        let err = recover(
            &sys,
            &inst,
            &mut BestFit::new(),
            &mut EventLog::new(),
            &events,
        )
        .unwrap_err();
        assert!(err.contains("diverges"), "{err}");

        // A journal from a different fault plan diverges too.
        let other = ResilientSystem::new(
            GamingSystem::paper_model(),
            FaultPlan::generate(78, 2400, 8, &FaultConfig::moderate()).unwrap(),
        );
        let err = recover(
            &other,
            &inst,
            &mut FirstFit::new(),
            &mut EventLog::new(),
            &events,
        )
        .unwrap_err();
        assert!(err.contains("diverges"), "{err}");

        // A journal longer than the run is caught by finish().
        let mut long = events.clone();
        long.extend(events.iter().cloned());
        let err = recover(
            &sys,
            &inst,
            &mut FirstFit::new(),
            &mut EventLog::new(),
            &long,
        )
        .unwrap_err();
        assert!(err.contains("different plan"), "{err}");
    }
}
