//! Shard-level fault injection and self-healing supervision.
//!
//! Where `dbp-cloudsim`'s [`FaultPlan`](dbp_cloudsim::FaultPlan) kills
//! individual *servers* inside one dispatcher, a [`ShardFaultPlan`] kills
//! whole dispatcher *shards* — the biggest untested failure domain of the
//! cluster layer. The supervisor in this module contains each kill with
//! `catch_unwind`, walks the shard through the
//! Up → Failed → Recovering → Up health machine ([`ShardHealth`]), and
//! resurrects it from its own write-ahead event stream by verified
//! re-execution under a [`VerifyProbe`](dbp_core::probe::VerifyProbe) —
//! the same recipe `dbp recover` uses for process crashes.
//!
//! ## The resurrection invariant
//!
//! Every event a shard emits is journaled *before* a kill can land after
//! it, so the WAL at death is exact. Recovery keeps the whole WAL, even
//! when the kill cut an engine operation in half, and re-runs the shard
//! from scratch with a fresh selector, checking every re-emitted event
//! against it; past its end, the run appends only what the WAL lacks.
//! The continued stream is therefore **byte-identical** to an unkilled
//! run of the same shard —
//! kill markers aside, which are fault-vocabulary events interleaved at
//! their stream position and filtered by `is_fault_event()`.

use crate::engine::run_shard_from;
use dbp_cloudsim::{Bill, GamingSystem, RetryPolicy, SystemReport};
use dbp_core::demand::Demand;
use dbp_core::instance::GInstance;
use dbp_core::packer::GSelectorFactory;
use dbp_core::probe::{GProbeEvent, Probe};
use dbp_core::span::SpanRecorder;
use dbp_core::time::Tick;
use serde::{Deserialize, Serialize};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Once;

/// When, along a shard's own event stream, a kill fires.
///
/// Kills in a schedule fire in plan order: the cursor only advances past a
/// kill once it has fired, so a later entry cannot fire before an earlier
/// one.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum KillPoint {
    /// Kill once the shard has journaled at least `k` engine events
    /// (fires immediately after the `k`-th event is durably recorded —
    /// the event survives, the shard does not).
    Event(u64),
    /// Kill immediately *before* the shard records its first event at
    /// simulation tick ≥ `t` (that event is lost with the shard).
    Tick(u64),
}

/// One scheduled shard kill.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct ShardKill {
    /// Target shard index.
    pub shard: u32,
    /// When the kill fires along the shard's stream.
    pub at: KillPoint,
}

/// Bounded restart budget for killed shards, reusing the
/// [`RetryPolicy`] backoff semantics of the server-level fault layer:
/// restart `i` charges `backoff.backoff_ticks(i)` ticks of accounted
/// downtime before the shard is considered up again.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct RestartPolicy {
    /// Restarts allowed per shard before it is abandoned.
    pub max_restarts: u32,
    /// Capped exponential backoff charged per restart attempt.
    pub backoff: RetryPolicy,
}

impl Default for RestartPolicy {
    fn default() -> RestartPolicy {
        RestartPolicy {
            max_restarts: 3,
            backoff: RetryPolicy::default(),
        }
    }
}

/// A deterministic, JSON-loadable shard-kill schedule for one cluster run,
/// mirroring [`FaultPlan`](dbp_cloudsim::FaultPlan)'s seeded/explicit dual
/// construction.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ShardFaultPlan {
    /// Seed the plan was generated from (0 for hand-written plans).
    pub seed: u64,
    /// Scheduled kills; entries targeting one shard fire in plan order.
    pub kills: Vec<ShardKill>,
    /// Restart budget and backoff applied to every shard.
    #[serde(default)]
    pub restart: RestartPolicy,
}

const STREAM_SHARD_KILL: u64 = 0x5AAD_F417_C1A5_7E12;

/// SplitMix64-style avalanche, independent of the cloudsim fault streams.
fn mix(seed: u64, stream: u64, counter: u64) -> u64 {
    let mut z = seed ^ stream.rotate_left(17) ^ counter.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

impl ShardFaultPlan {
    /// The empty plan: no kills, default restart budget. A self-healing
    /// run under this plan is byte-identical to the fault-free cluster
    /// run (property-tested).
    pub fn none() -> ShardFaultPlan {
        ShardFaultPlan {
            seed: 0,
            kills: Vec::new(),
            restart: RestartPolicy::default(),
        }
    }

    /// Deterministic plan with exactly `kill_count` kills spread over
    /// `shards` shards at event offsets in `1..=events_hint`. Same seed,
    /// same plan — independent of platform and call site.
    pub fn generate(
        seed: u64,
        shards: usize,
        events_hint: u64,
        kill_count: usize,
    ) -> ShardFaultPlan {
        let span = events_hint.max(2);
        let shards = shards.max(1) as u64;
        let mut kills: Vec<ShardKill> = (0..kill_count as u64)
            .map(|i| ShardKill {
                shard: (mix(seed, STREAM_SHARD_KILL, 2 * i) % shards) as u32,
                at: KillPoint::Event(1 + mix(seed, STREAM_SHARD_KILL, 2 * i + 1) % span),
            })
            .collect();
        // Ascending offsets per shard so every generated kill can fire.
        kills.sort_by_key(|k| {
            let off = match k.at {
                KillPoint::Event(e) => e,
                KillPoint::Tick(t) => t,
            };
            (k.shard, off)
        });
        ShardFaultPlan {
            seed,
            kills,
            restart: RestartPolicy::default(),
        }
    }

    /// Seeded default: roughly one kill per shard.
    pub fn from_seed(seed: u64, shards: usize, events_hint: u64) -> ShardFaultPlan {
        ShardFaultPlan::generate(seed, shards, events_hint, shards.max(1))
    }
}

/// Health of one shard, as reported after a self-healing run. The
/// supervisor drives each shard through
/// `Up → Failed → Recovering → Up` per kill, ending `Down` only when the
/// restart budget is exhausted or WAL recovery itself fails.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub enum ShardHealth {
    /// Serving (possibly after one or more resurrections).
    #[default]
    Up,
    /// Killed; a restart is pending.
    Failed,
    /// Rebuilding engine state from the WAL.
    Recovering,
    /// Abandoned: restart budget exhausted or recovery failed.
    Down,
}

impl ShardHealth {
    /// Stable lower-snake name for reports and metrics labels.
    pub fn name(self) -> &'static str {
        match self {
            ShardHealth::Up => "up",
            ShardHealth::Failed => "failed",
            ShardHealth::Recovering => "recovering",
            ShardHealth::Down => "down",
        }
    }
}

/// Typed panic payload for injected shard kills, so the panic hook can
/// keep them off stderr and the supervisor can tell them from genuine
/// engine panics.
pub(crate) struct ShardKillSignal;

static KILL_SILENCER: Once = Once::new();

/// Install (once, process-wide) a panic hook that swallows injected
/// [`ShardKillSignal`] panics and delegates everything else to the
/// previous hook.
fn silence_kill_panics() {
    KILL_SILENCER.call_once(|| {
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            if info.payload().is::<ShardKillSignal>() {
                return;
            }
            prev(info);
        }));
    });
}

/// The scheduled kills of one shard, consumed front to back.
struct KillCursor {
    kills: Vec<KillPoint>,
    next: usize,
}

impl KillCursor {
    fn new(kills: Vec<KillPoint>) -> KillCursor {
        KillCursor { kills, next: 0 }
    }

    /// Fires a pending `Tick(t)` kill before an event at tick ≥ `t`.
    fn fire_before_tick(&mut self, at: Tick) -> bool {
        match self.kills.get(self.next) {
            Some(KillPoint::Tick(t)) if at.0 >= *t => {
                self.next += 1;
                true
            }
            _ => false,
        }
    }

    /// Fires a pending `Event(k)` kill once the WAL holds ≥ `k` events.
    fn fire_at_len(&mut self, len: usize) -> bool {
        match self.kills.get(self.next) {
            Some(KillPoint::Event(k)) if len as u64 >= *k => {
                self.next += 1;
                true
            }
            _ => false,
        }
    }
}

/// The supervised shard's write-ahead probe: every engine event is pushed
/// to the in-memory WAL *before* a post-event kill can fire, so the WAL at
/// death is exactly what a durable journal would hold.
struct WalProbe<'a, Sz> {
    wal: &'a mut Vec<GProbeEvent<Sz>>,
    decisions: &'a mut Vec<u64>,
    kills: &'a mut KillCursor,
}

impl<Sz: Demand> Probe<Sz> for WalProbe<'_, Sz> {
    const TIMED: bool = true;

    fn record(&mut self, event: GProbeEvent<Sz>) {
        if self.kills.fire_before_tick(event.at()) {
            std::panic::panic_any(ShardKillSignal);
        }
        self.wal.push(event);
        if self.kills.fire_at_len(self.wal.len()) {
            std::panic::panic_any(ShardKillSignal);
        }
    }

    fn on_decision_ns(&mut self, ns: u64) {
        self.decisions.push(ns);
    }
}

/// Span forwarding that counts open depth, so the supervisor can close the
/// spans a kill left dangling and keep every lane well-nested.
struct DepthTracked<'r, R: SpanRecorder> {
    inner: &'r mut R,
    depth: u32,
}

impl<R: SpanRecorder> SpanRecorder for DepthTracked<'_, R> {
    const ENABLED: bool = R::ENABLED;

    fn enter(&mut self, name: &'static str) {
        self.depth += 1;
        self.inner.enter(name);
    }

    fn exit(&mut self) {
        self.depth = self.depth.saturating_sub(1);
        self.inner.exit();
    }
}

/// What ultimately became of a supervised shard.
pub(crate) enum ShardFate {
    /// The shard served its whole stream (possibly after resurrections).
    Completed {
        /// The shard's dispatch report, as a fault-free run would build it.
        report: SystemReport,
    },
    /// The shard was abandoned.
    Dead(DeadShard),
}

/// Exact accounting of an abandoned shard, derived from its WAL alone.
pub(crate) struct DeadShard {
    /// Tick of the last journaled event (the shard's time of death).
    pub died_at: u64,
    /// Sessions that fully departed before death.
    pub served: u64,
    /// Sessions in flight at death (arrived, never departed) — billed lost.
    pub lost: u64,
    /// Shard-local indices of sessions that had not arrived yet — the
    /// reroute set.
    pub unarrived: Vec<usize>,
    /// Exact bill for the shard's partial run: every server it booted,
    /// the ones still open billed to `died_at`.
    pub bill: Bill,
    /// Why the shard was abandoned.
    pub reason: String,
}

/// The full outcome of supervising one shard.
pub(crate) struct ShardSupervision<Sz> {
    /// The shard's user-visible event stream: the engine WAL with
    /// `ShardKilled`/`ShardRestarted` markers interleaved at the stream
    /// positions they occurred.
    pub events: Vec<GProbeEvent<Sz>>,
    /// Per-arrival decision timings (each arrival timed exactly once,
    /// replay is silent).
    pub decisions: Vec<u64>,
    /// Kills that landed (injected or genuine panics).
    pub kills: u32,
    /// Successful WAL resurrections.
    pub restarts: u32,
    /// Total events replayed across all resurrections.
    pub replayed_events: u64,
    /// Total restart backoff charged, in ticks.
    pub backoff_ticks: u64,
    /// Health transitions, starting `Up`.
    pub transitions: Vec<ShardHealth>,
    /// Final outcome.
    pub fate: ShardFate,
}

impl<Sz> ShardSupervision<Sz> {
    /// Final health: the last transition.
    pub fn health(&self) -> ShardHealth {
        *self.transitions.last().unwrap_or(&ShardHealth::Up)
    }
}

/// Run one shard under a kill schedule: contain every kill with
/// `catch_unwind`, resurrect from the WAL within the restart budget, and
/// account the corpse exactly when the budget runs out.
#[allow(clippy::too_many_arguments)] // internal seam: the engine passes the full shard context
pub(crate) fn supervise_shard<Sz: Demand, R: SpanRecorder>(
    system: &GamingSystem,
    requests: &GInstance<Sz>,
    factory: &GSelectorFactory<Sz>,
    kills: Vec<KillPoint>,
    restart: RestartPolicy,
    shard: u32,
    spans: &mut R,
) -> ShardSupervision<Sz> {
    if !kills.is_empty() {
        silence_kill_panics();
    }
    let mut wal: Vec<GProbeEvent<Sz>> = Vec::new();
    let mut decisions: Vec<u64> = Vec::new();
    let mut cursor = KillCursor::new(kills);
    let mut markers: Vec<(usize, GProbeEvent<Sz>)> = Vec::new();
    let mut kills_fired = 0u32;
    let mut restarts = 0u32;
    let mut replayed_events = 0u64;
    let mut backoff_ticks = 0u64;
    let mut transitions = vec![ShardHealth::Up];
    // The WAL at the last death, once resurrected.
    let mut resume: Option<Vec<GProbeEvent<Sz>>> = None;

    let outcome = loop {
        let mut sel = factory.build();
        let mut tracked = DepthTracked {
            inner: &mut *spans,
            depth: 0,
        };
        let attempt = catch_unwind(AssertUnwindSafe(|| {
            let mut probe = WalProbe {
                wal: &mut wal,
                decisions: &mut decisions,
                kills: &mut cursor,
            };
            run_shard_from(
                system,
                requests,
                &mut *sel,
                &mut probe,
                &mut tracked,
                resume.as_deref(),
            )
        }));
        match attempt {
            Ok(Ok((report, _trace))) => break Ok(report),
            // The re-execution diverged from the WAL —
            // deterministic, so retrying cannot help.
            Ok(Err(message)) => break Err(format!("shard resume rejected: {message}")),
            Err(payload) => {
                for _ in 0..tracked.depth {
                    tracked.inner.exit();
                }
                let injected = payload.is::<ShardKillSignal>();
                kills_fired += 1;
                transitions.push(ShardHealth::Failed);
                let k = wal.len();
                let at = wal.last().map(|e| e.at()).unwrap_or(Tick(0));
                markers.push((
                    k,
                    GProbeEvent::ShardKilled {
                        at,
                        shard,
                        events_done: k as u64,
                    },
                ));
                // An organic panic is deterministic: verified
                // re-execution would reach it again at the same WAL point,
                // so only an injected kill is worth a restart.
                if !injected {
                    break Err(format!("panic: {}", panic_message(&*payload)));
                }
                if restarts >= restart.max_restarts {
                    break Err("restart budget exhausted".to_string());
                }
                restarts += 1;
                backoff_ticks =
                    backoff_ticks.saturating_add(restart.backoff.backoff_ticks(restarts));
                transitions.push(ShardHealth::Recovering);
                replayed_events += k as u64;
                markers.push((
                    k,
                    GProbeEvent::ShardRestarted {
                        at,
                        shard,
                        attempt: restarts,
                        replayed: k as u64,
                    },
                ));
                transitions.push(ShardHealth::Up);
                resume = Some(wal.clone());
            }
        }
    };
    let fate = match outcome {
        Ok(report) => ShardFate::Completed { report },
        Err(reason) => {
            transitions.push(ShardHealth::Down);
            ShardFate::Dead(account_dead_shard(system, requests, &wal, reason))
        }
    };

    ShardSupervision {
        events: assemble_stream(wal, markers),
        decisions,
        kills: kills_fired,
        restarts,
        replayed_events,
        backoff_ticks,
        transitions,
        fate,
    }
}

/// Interleave health markers into the WAL at their stream positions:
/// a marker at position `k` lands after the `k`-th engine event.
fn assemble_stream<Sz: Demand>(
    wal: Vec<GProbeEvent<Sz>>,
    mut markers: Vec<(usize, GProbeEvent<Sz>)>,
) -> Vec<GProbeEvent<Sz>> {
    if markers.is_empty() {
        return wal;
    }
    markers.sort_by_key(|(pos, _)| *pos);
    let mut out = Vec::with_capacity(wal.len() + markers.len());
    let mut mi = 0;
    for (i, ev) in wal.into_iter().enumerate() {
        while mi < markers.len() && markers[mi].0 <= i {
            out.push(markers[mi].1.clone());
            mi += 1;
        }
        out.push(ev);
    }
    for (_, m) in markers.drain(mi..) {
        out.push(m);
    }
    out
}

/// Bill an abandoned shard from its WAL alone: closed servers at their
/// journaled spans, still-open servers from boot to the time of death,
/// sessions split into served (departed) / lost (in flight) / unarrived.
fn account_dead_shard<Sz: Demand>(
    system: &GamingSystem,
    requests: &GInstance<Sz>,
    wal: &[GProbeEvent<Sz>],
    reason: String,
) -> DeadShard {
    let died_at = wal.last().map(|e| e.at().0).unwrap_or(0);
    let n = requests.len();
    let mut arrived = vec![false; n];
    let mut departed = vec![false; n];
    // Bin ids are dense in opening order, so `bins[b]` is bin b's boot
    // tick and, once it closed, its journaled span.
    let mut bins: Vec<(u64, Option<u64>)> = Vec::new();
    for ev in wal {
        match ev {
            GProbeEvent::ItemArrived { item, .. } => {
                if let Some(slot) = arrived.get_mut(item.index()) {
                    *slot = true;
                }
            }
            GProbeEvent::ItemDeparted { item, .. } => {
                if let Some(slot) = departed.get_mut(item.index()) {
                    *slot = true;
                }
            }
            GProbeEvent::BinOpened { at, .. } => bins.push((at.0, None)),
            GProbeEvent::BinClosed {
                bin, open_ticks, ..
            } => {
                if let Some(slot) = bins.get_mut(bin.index()) {
                    slot.1 = Some(*open_ticks);
                }
            }
            _ => {}
        }
    }
    let spans = bins
        .iter()
        .map(|&(at, span)| span.unwrap_or_else(|| died_at.saturating_sub(at)));
    let bill = system.bill(bins.len() as u64, spans);
    let mut served = 0u64;
    let mut lost = 0u64;
    let mut unarrived = Vec::new();
    for i in 0..n {
        if departed[i] {
            served += 1;
        } else if arrived[i] {
            lost += 1;
        } else {
            unarrived.push(i);
        }
    }
    DeadShard {
        died_at,
        served,
        lost,
        unarrived,
        bill,
        reason,
    }
}

/// Human-readable panic payload (for `ShardPanicked` errors and abandon
/// reasons).
pub(crate) fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&'static str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else if payload.is::<ShardKillSignal>() {
        "shard killed by fault injection".to_string()
    } else {
        "non-string panic payload".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dbp_core::algorithms::FirstFit;
    use dbp_core::instance::Instance;
    use dbp_core::packer::SelectorFactory;
    use dbp_core::probe::ProbeEvent;
    use dbp_core::span::NoSpans;
    use dbp_workloads::{generate, CloudGamingConfig};

    fn workload(seed: u64) -> Instance {
        generate(&CloudGamingConfig {
            horizon: 900,
            seed,
            ..CloudGamingConfig::default()
        })
    }

    fn ff_factory() -> SelectorFactory {
        SelectorFactory::new("FF", || Box::new(FirstFit::new()))
    }

    #[test]
    fn plan_generation_is_deterministic_and_json_round_trips() {
        let a = ShardFaultPlan::from_seed(7, 4, 100);
        let b = ShardFaultPlan::from_seed(7, 4, 100);
        assert_eq!(a, b);
        assert_eq!(a.kills.len(), 4);
        for k in &a.kills {
            assert!(k.shard < 4);
            match k.at {
                KillPoint::Event(e) => assert!((1..=100).contains(&e)),
                KillPoint::Tick(_) => {}
            }
        }
        let text = serde_json::to_string(&a).unwrap();
        let back: ShardFaultPlan = serde_json::from_str(&text).unwrap();
        assert_eq!(back, a);
        // `restart` is optional in hand-written plans.
        let bare: ShardFaultPlan =
            serde_json::from_str(r#"{"seed":0,"kills":[{"shard":1,"at":{"Event":5}}]}"#).unwrap();
        assert_eq!(bare.restart, RestartPolicy::default());
        assert!(ShardFaultPlan::none().kills.is_empty());
    }

    #[test]
    fn unkilled_supervision_is_byte_identical_to_the_plain_shard_run() {
        let inst = workload(3);
        let system = GamingSystem::paper_model();
        let sup = supervise_shard(
            &system,
            &inst,
            &ff_factory(),
            Vec::new(),
            RestartPolicy::default(),
            0,
            &mut NoSpans,
        );
        let mut log = dbp_obs::EventLog::new();
        let mut sel = ff_factory().build();
        let (report, _) =
            crate::engine::run_shard(&system, &inst, &mut *sel, &mut log, &mut NoSpans);
        assert_eq!(sup.events, log.events());
        // Decision *timings* are wall-clock and differ run to run; only the
        // count is deterministic.
        assert_eq!(sup.decisions.len(), log.decision_ns().len());
        assert_eq!(sup.transitions, vec![ShardHealth::Up]);
        assert_eq!((sup.kills, sup.restarts), (0, 0));
        match sup.fate {
            ShardFate::Completed { report: r, .. } => {
                assert_eq!(r.bill.busy_ticks, report.bill.busy_ticks);
                assert_eq!(r.bill.cost_cents, report.bill.cost_cents);
            }
            ShardFate::Dead(_) => panic!("unkilled shard must complete"),
        }
    }

    #[test]
    fn killed_shard_resurrects_with_a_byte_identical_stream() {
        let inst = workload(4);
        let system = GamingSystem::paper_model();
        let mut unkilled = dbp_obs::EventLog::new();
        let mut sel = ff_factory().build();
        crate::engine::run_shard(&system, &inst, &mut *sel, &mut unkilled, &mut NoSpans);
        let total = unkilled.len() as u64;
        assert!(total > 20, "fixture too small");
        // Kill early, mid and late along the same shard's stream.
        for offset in [1, total / 2, total - 1] {
            let sup = supervise_shard(
                &system,
                &inst,
                &ff_factory(),
                vec![KillPoint::Event(offset)],
                RestartPolicy::default(),
                0,
                &mut NoSpans,
            );
            assert_eq!(sup.kills, 1, "offset {offset}");
            assert_eq!(sup.restarts, 1, "offset {offset}");
            assert!(matches!(sup.fate, ShardFate::Completed { .. }));
            assert_eq!(
                sup.transitions,
                vec![
                    ShardHealth::Up,
                    ShardHealth::Failed,
                    ShardHealth::Recovering,
                    ShardHealth::Up
                ]
            );
            let engine_events: Vec<&ProbeEvent> =
                sup.events.iter().filter(|e| !e.is_fault_event()).collect();
            let expected: Vec<&ProbeEvent> = unkilled.events().iter().collect();
            assert_eq!(engine_events, expected, "offset {offset}");
            // Markers sit at the kill position.
            let kinds: Vec<&str> = sup.events.iter().map(|e| e.kind()).collect();
            assert!(kinds.contains(&"ShardKilled"));
            assert!(kinds.contains(&"ShardRestarted"));
            // Replay is timing-silent, so no arrival is ever timed twice;
            // a kill landing between an arrival's last event and its
            // timing callback can lose at most that one measurement.
            assert!(sup.decisions.len() <= inst.len(), "offset {offset}");
            assert!(
                sup.decisions.len() + sup.kills as usize >= inst.len(),
                "offset {offset}"
            );
        }
    }

    #[test]
    fn budget_exhaustion_leaves_an_exactly_accounted_corpse() {
        let inst = workload(5);
        let system = GamingSystem::paper_model();
        let kills = vec![
            KillPoint::Event(10),
            KillPoint::Event(20),
            KillPoint::Event(30),
        ];
        let sup = supervise_shard(
            &system,
            &inst,
            &ff_factory(),
            kills,
            RestartPolicy {
                max_restarts: 2,
                backoff: RetryPolicy::default(),
            },
            3,
            &mut NoSpans,
        );
        assert_eq!(sup.kills, 3);
        assert_eq!(sup.restarts, 2);
        assert_eq!(sup.health(), ShardHealth::Down);
        let ShardFate::Dead(dead) = sup.fate else {
            panic!("third kill must exhaust a budget of 2 restarts");
        };
        assert_eq!(
            dead.served + dead.lost + dead.unarrived.len() as u64,
            inst.len() as u64,
            "every session accounted"
        );
        assert_eq!(dead.reason, "restart budget exhausted");
        // Backoff follows RetryPolicy semantics: base, then 2*base.
        let p = RetryPolicy::default();
        assert_eq!(sup.backoff_ticks, p.backoff_ticks(1) + p.backoff_ticks(2));
    }

    #[test]
    fn tick_kills_lose_the_triggering_event() {
        let inst = workload(6);
        let system = GamingSystem::paper_model();
        let mut unkilled = dbp_obs::EventLog::new();
        let mut sel = ff_factory().build();
        crate::engine::run_shard(&system, &inst, &mut *sel, &mut unkilled, &mut NoSpans);
        let mid_tick = unkilled.events()[unkilled.len() / 2].at().0;
        let sup = supervise_shard(
            &system,
            &inst,
            &ff_factory(),
            vec![KillPoint::Tick(mid_tick)],
            RestartPolicy::default(),
            0,
            &mut NoSpans,
        );
        assert_eq!(sup.kills, 1);
        assert!(matches!(sup.fate, ShardFate::Completed { .. }));
        let engine_events: Vec<&ProbeEvent> =
            sup.events.iter().filter(|e| !e.is_fault_event()).collect();
        assert_eq!(
            engine_events,
            unkilled.events().iter().collect::<Vec<_>>(),
            "resurrection heals the lost event"
        );
    }
}
