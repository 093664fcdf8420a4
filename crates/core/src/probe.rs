//! Zero-cost instrumentation seam for the packing engine.
//!
//! A [`Probe`] receives typed [`ProbeEvent`]s from
//! [`simulate_probed`](crate::engine::simulate_probed) as the event loop
//! runs: arrivals, fit attempts (with scan depth), placements, departures,
//! bin opens/closes, and validation violations. Observability consumers
//! (`dbp-obs`) build event logs, metrics registries, and time-series
//! samplers on top of this trait without the engine knowing about any of
//! them.
//!
//! ## Zero cost when off
//!
//! The seam is monomorphized: every emission site is guarded by
//! `if P::ENABLED`, an associated `const` that is `false` for [`NoProbe`].
//! The optimizer deletes the guarded blocks, so `simulate` (which forwards
//! to `simulate_probed` with [`NoProbe`]) compiles to the same code as the
//! uninstrumented engine. The `packing_throughput` benchmark keeps this
//! honest.
//!
//! Decision timing has its own switch, [`Probe::TIMED`], `false` unless a
//! probe overrides [`Probe::on_decision_ns`]: the engine reads the clock
//! twice per arrival only for a probe that consumes the reading, so an
//! event-only probe (a journal) pays for events and nothing else.

use crate::bin::{BinId, BinTag};
use crate::demand::Demand;
use crate::item::{ItemId, Size};
use crate::time::Tick;
use serde::{Deserialize, Serialize};

/// One typed engine event, stamped with the simulation tick it occurred at.
///
/// Serialization (via the JSONL exporter in `dbp-obs`) uses serde's
/// externally-tagged enum form: `{"ItemArrived": {"at": 3, ...}}`.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum GProbeEvent<Sz> {
    /// An item reached the engine and a decision is about to be requested.
    ItemArrived {
        /// Simulation tick.
        at: Tick,
        /// The arriving item.
        item: ItemId,
        /// Its size.
        size: Sz,
    },
    /// The selector returned a decision; `bins_scanned` is the First-Fit
    /// scan depth it implies: the 1-based position of the chosen bin in
    /// opening order, or the full open-bin count when a new bin is opened.
    FitAttempt {
        /// Simulation tick.
        at: Tick,
        /// The item being placed.
        item: ItemId,
        /// Scan depth (see above).
        bins_scanned: u32,
        /// Number of bins open when the decision was made.
        open_bins: u32,
    },
    /// A new bin was opened for an item.
    BinOpened {
        /// Simulation tick.
        at: Tick,
        /// The new bin (ids are assigned in opening order).
        bin: BinId,
        /// Tag the selector attached to the bin.
        tag: BinTag,
        /// The item that caused the open.
        item: ItemId,
    },
    /// An item was placed into a bin (newly opened or existing).
    ItemPlaced {
        /// Simulation tick.
        at: Tick,
        /// The placed item.
        item: ItemId,
        /// The receiving bin.
        bin: BinId,
        /// Bin level *after* the placement.
        level: Sz,
    },
    /// An item departed from its bin.
    ItemDeparted {
        /// Simulation tick.
        at: Tick,
        /// The departing item.
        item: ItemId,
        /// The bin it left.
        bin: BinId,
        /// Bin level *after* the departure.
        level: Sz,
    },
    /// A bin became empty and closed.
    BinClosed {
        /// Simulation tick.
        at: Tick,
        /// The closed bin.
        bin: BinId,
        /// Total ticks the bin stayed open.
        open_ticks: u64,
    },
    /// A trace-validation violation (emitted by
    /// [`simulate_validated_probed`](crate::engine::simulate_validated_probed)
    /// before it panics).
    Violation {
        /// Simulation tick the violation refers to (0 when unknown).
        at: Tick,
        /// Human-readable description.
        message: String,
    },
    /// A bin (server) was killed by fault injection; its items were
    /// orphaned and handed back to the dispatcher for re-placement.
    BinCrashed {
        /// Simulation tick.
        at: Tick,
        /// The crashed bin.
        bin: BinId,
        /// Number of items orphaned by the crash.
        orphans: u32,
    },
    /// A provisioning attempt for a new bin failed (flaky boot).
    ProvisionFailed {
        /// Simulation tick.
        at: Tick,
        /// The item whose placement triggered the provisioning.
        item: ItemId,
        /// 1-based attempt number for this item.
        attempt: u32,
    },
    /// A retry was scheduled with exponential backoff after a failed
    /// provision or a rejected dispatch.
    RetryScheduled {
        /// Simulation tick.
        at: Tick,
        /// The waiting item.
        item: ItemId,
        /// The attempt number the retry will carry.
        attempt: u32,
        /// The tick the retry will fire at.
        next: Tick,
    },
    /// An open bin transiently rejected a dispatch (the placement did not
    /// happen; the item retries or drops).
    DispatchRejected {
        /// Simulation tick.
        at: Tick,
        /// The rejected item.
        item: ItemId,
        /// The bin that refused it.
        bin: BinId,
    },
    /// An item left the system without (further) service — an accounted
    /// SLA violation, never a panic.
    ItemDropped {
        /// Simulation tick.
        at: Tick,
        /// The dropped item.
        item: ItemId,
        /// Why it was dropped.
        reason: DropReason,
    },
    /// An orphaned item was placed again on a different bin after a crash —
    /// the one event where the no-migration rule is forcibly broken.
    ItemRedispatched {
        /// Simulation tick.
        at: Tick,
        /// The re-placed item.
        item: ItemId,
        /// The crashed bin it was orphaned from.
        from: BinId,
        /// The bin it landed on.
        to: BinId,
        /// Level of the receiving bin *after* the placement.
        level: Sz,
    },
    /// Every orphan of one crash reached a terminal state (re-placed or
    /// dropped); `at - crash_at` is the crash's recovery time.
    RecoveryEnded {
        /// Simulation tick recovery completed at.
        at: Tick,
        /// The crashed bin this recovery belonged to.
        bin: BinId,
        /// Orphans successfully re-dispatched.
        redispatched: u32,
        /// Orphans lost.
        lost: u32,
    },
    /// A whole dispatcher shard died mid-run (injected kill or contained
    /// panic). `events_done` is how many engine events the shard had
    /// journaled before it went down.
    ShardKilled {
        /// Simulation tick of the shard's last journaled event.
        at: Tick,
        /// The dead shard.
        shard: u32,
        /// Engine events the shard emitted before dying.
        events_done: u64,
    },
    /// A killed shard came back up: its engine state was rebuilt from the
    /// shard's write-ahead event stream and the run continued.
    ShardRestarted {
        /// Simulation tick the restart resumed from.
        at: Tick,
        /// The resurrected shard.
        shard: u32,
        /// 1-based restart attempt for this shard.
        attempt: u32,
        /// Events replayed from the WAL to rebuild state.
        replayed: u64,
    },
    /// A shard exhausted its restart budget and was abandoned: in-flight
    /// sessions are billed lost, unarrived ones rerouted to healthy shards.
    ShardAbandoned {
        /// Simulation tick the shard was abandoned at.
        at: Tick,
        /// The abandoned shard.
        shard: u32,
        /// In-flight sessions lost with the shard.
        lost: u32,
        /// Unarrived sessions rerouted to healthy shards.
        rerouted: u32,
    },
}

/// The scalar probe event of the source paper's engine.
pub type ProbeEvent = GProbeEvent<Size>;

/// Why an item was dropped instead of served (see
/// [`ProbeEvent::ItemDropped`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum DropReason {
    /// The bounded admission queue was full on arrival.
    QueueFull,
    /// The item waited longer than the admission queue timeout.
    QueueTimeout,
    /// Provisioning/dispatch retries were exhausted.
    RetriesExhausted,
    /// The item was orphaned by a crash and could not be re-placed.
    CrashLost,
}

impl DropReason {
    /// Stable lower-snake name for reports and metrics labels.
    pub fn name(self) -> &'static str {
        match self {
            DropReason::QueueFull => "queue_full",
            DropReason::QueueTimeout => "queue_timeout",
            DropReason::RetriesExhausted => "retries_exhausted",
            DropReason::CrashLost => "crash_lost",
        }
    }
}

impl<Sz> GProbeEvent<Sz> {
    /// The tick the event is stamped with.
    pub fn at(&self) -> Tick {
        match self {
            GProbeEvent::ItemArrived { at, .. }
            | GProbeEvent::FitAttempt { at, .. }
            | GProbeEvent::BinOpened { at, .. }
            | GProbeEvent::ItemPlaced { at, .. }
            | GProbeEvent::ItemDeparted { at, .. }
            | GProbeEvent::BinClosed { at, .. }
            | GProbeEvent::Violation { at, .. }
            | GProbeEvent::BinCrashed { at, .. }
            | GProbeEvent::ProvisionFailed { at, .. }
            | GProbeEvent::RetryScheduled { at, .. }
            | GProbeEvent::DispatchRejected { at, .. }
            | GProbeEvent::ItemDropped { at, .. }
            | GProbeEvent::ItemRedispatched { at, .. }
            | GProbeEvent::RecoveryEnded { at, .. }
            | GProbeEvent::ShardKilled { at, .. }
            | GProbeEvent::ShardRestarted { at, .. }
            | GProbeEvent::ShardAbandoned { at, .. } => *at,
        }
    }

    /// Stable event-kind name (the serde variant tag).
    pub fn kind(&self) -> &'static str {
        match self {
            GProbeEvent::ItemArrived { .. } => "ItemArrived",
            GProbeEvent::FitAttempt { .. } => "FitAttempt",
            GProbeEvent::BinOpened { .. } => "BinOpened",
            GProbeEvent::ItemPlaced { .. } => "ItemPlaced",
            GProbeEvent::ItemDeparted { .. } => "ItemDeparted",
            GProbeEvent::BinClosed { .. } => "BinClosed",
            GProbeEvent::Violation { .. } => "Violation",
            GProbeEvent::BinCrashed { .. } => "BinCrashed",
            GProbeEvent::ProvisionFailed { .. } => "ProvisionFailed",
            GProbeEvent::RetryScheduled { .. } => "RetryScheduled",
            GProbeEvent::DispatchRejected { .. } => "DispatchRejected",
            GProbeEvent::ItemDropped { .. } => "ItemDropped",
            GProbeEvent::ItemRedispatched { .. } => "ItemRedispatched",
            GProbeEvent::RecoveryEnded { .. } => "RecoveryEnded",
            GProbeEvent::ShardKilled { .. } => "ShardKilled",
            GProbeEvent::ShardRestarted { .. } => "ShardRestarted",
            GProbeEvent::ShardAbandoned { .. } => "ShardAbandoned",
        }
    }

    /// Whether this event comes from the fault-injection layer (crash,
    /// retry, recovery) rather than the fault-free engine vocabulary.
    pub fn is_fault_event(&self) -> bool {
        matches!(
            self,
            GProbeEvent::BinCrashed { .. }
                | GProbeEvent::ProvisionFailed { .. }
                | GProbeEvent::RetryScheduled { .. }
                | GProbeEvent::DispatchRejected { .. }
                | GProbeEvent::ItemDropped { .. }
                | GProbeEvent::ItemRedispatched { .. }
                | GProbeEvent::RecoveryEnded { .. }
                | GProbeEvent::ShardKilled { .. }
                | GProbeEvent::ShardRestarted { .. }
                | GProbeEvent::ShardAbandoned { .. }
        )
    }
}

impl<Sz> GProbeEvent<Sz> {
    /// The same event with its demand payloads mapped through `f`. The D=1
    /// equivalence suite uses this to compare a `VSize<1>` event stream
    /// against the scalar stream field-for-field.
    pub fn map_demand<T>(self, mut f: impl FnMut(Sz) -> T) -> GProbeEvent<T> {
        match self {
            GProbeEvent::ItemArrived { at, item, size } => GProbeEvent::ItemArrived {
                at,
                item,
                size: f(size),
            },
            GProbeEvent::FitAttempt {
                at,
                item,
                bins_scanned,
                open_bins,
            } => GProbeEvent::FitAttempt {
                at,
                item,
                bins_scanned,
                open_bins,
            },
            GProbeEvent::BinOpened { at, bin, tag, item } => {
                GProbeEvent::BinOpened { at, bin, tag, item }
            }
            GProbeEvent::ItemPlaced {
                at,
                item,
                bin,
                level,
            } => GProbeEvent::ItemPlaced {
                at,
                item,
                bin,
                level: f(level),
            },
            GProbeEvent::ItemDeparted {
                at,
                item,
                bin,
                level,
            } => GProbeEvent::ItemDeparted {
                at,
                item,
                bin,
                level: f(level),
            },
            GProbeEvent::BinClosed {
                at,
                bin,
                open_ticks,
            } => GProbeEvent::BinClosed {
                at,
                bin,
                open_ticks,
            },
            GProbeEvent::Violation { at, message } => GProbeEvent::Violation { at, message },
            GProbeEvent::BinCrashed { at, bin, orphans } => {
                GProbeEvent::BinCrashed { at, bin, orphans }
            }
            GProbeEvent::ProvisionFailed { at, item, attempt } => {
                GProbeEvent::ProvisionFailed { at, item, attempt }
            }
            GProbeEvent::RetryScheduled {
                at,
                item,
                attempt,
                next,
            } => GProbeEvent::RetryScheduled {
                at,
                item,
                attempt,
                next,
            },
            GProbeEvent::DispatchRejected { at, item, bin } => {
                GProbeEvent::DispatchRejected { at, item, bin }
            }
            GProbeEvent::ItemDropped { at, item, reason } => {
                GProbeEvent::ItemDropped { at, item, reason }
            }
            GProbeEvent::ItemRedispatched {
                at,
                item,
                from,
                to,
                level,
            } => GProbeEvent::ItemRedispatched {
                at,
                item,
                from,
                to,
                level: f(level),
            },
            GProbeEvent::RecoveryEnded {
                at,
                bin,
                redispatched,
                lost,
            } => GProbeEvent::RecoveryEnded {
                at,
                bin,
                redispatched,
                lost,
            },
            GProbeEvent::ShardKilled {
                at,
                shard,
                events_done,
            } => GProbeEvent::ShardKilled {
                at,
                shard,
                events_done,
            },
            GProbeEvent::ShardRestarted {
                at,
                shard,
                attempt,
                replayed,
            } => GProbeEvent::ShardRestarted {
                at,
                shard,
                attempt,
                replayed,
            },
            GProbeEvent::ShardAbandoned {
                at,
                shard,
                lost,
                rerouted,
            } => GProbeEvent::ShardAbandoned {
                at,
                shard,
                lost,
                rerouted,
            },
        }
    }
}

/// Receiver of engine events. See the module docs for the zero-cost
/// contract; implementors outside benchmarks normally leave `ENABLED` at
/// its default of `true`.
pub trait Probe<Sz: Demand = Size> {
    /// Compile-time switch: when `false`, the engine skips event
    /// construction entirely.
    const ENABLED: bool = true;

    /// Compile-time switch for decision timing: when `false` (the
    /// default), the engine reads no clock and never calls
    /// [`on_decision_ns`](Probe::on_decision_ns). Every probe that
    /// overrides `on_decision_ns` sets it to `true`; combinators forward
    /// it.
    const TIMED: bool = false;

    /// Receive one event. Called in simulation order.
    fn record(&mut self, event: GProbeEvent<Sz>);

    /// Receive the wall-clock duration of one full arrival handling — the
    /// `BinSelector::select` call *plus* the engine's placement bookkeeping
    /// (view updates, record pushes, selector notifications) — in
    /// nanoseconds. This is the per-arrival cost a caller of `simulate`
    /// actually observes, not just the selector's share. Only called when
    /// [`TIMED`](Probe::TIMED); separate from [`record`](Probe::record) so
    /// the hot path never allocates for it.
    fn on_decision_ns(&mut self, ns: u64) {
        let _ = ns;
    }
}

/// The default probe: does nothing, costs nothing.
#[derive(Debug, Clone, Copy, Default)]
pub struct NoProbe;

impl<Sz: Demand> Probe<Sz> for NoProbe {
    const ENABLED: bool = false;

    #[inline(always)]
    fn record(&mut self, _event: GProbeEvent<Sz>) {}

    #[inline(always)]
    fn on_decision_ns(&mut self, _ns: u64) {}
}

impl<Sz: Demand, P: Probe<Sz>> Probe<Sz> for &mut P {
    const ENABLED: bool = P::ENABLED;
    const TIMED: bool = P::TIMED;

    fn record(&mut self, event: GProbeEvent<Sz>) {
        (**self).record(event);
    }

    fn on_decision_ns(&mut self, ns: u64) {
        (**self).on_decision_ns(ns);
    }
}

/// Fan-out combinator: `(A, B)` forwards every event to both probes, so a
/// run can, say, write a JSONL log *and* aggregate metrics in one pass.
impl<Sz: Demand, A: Probe<Sz>, B: Probe<Sz>> Probe<Sz> for (A, B) {
    const ENABLED: bool = A::ENABLED || B::ENABLED;
    const TIMED: bool = A::TIMED || B::TIMED;

    fn record(&mut self, event: GProbeEvent<Sz>) {
        if A::ENABLED && B::ENABLED {
            self.0.record(event.clone());
            self.1.record(event);
        } else if A::ENABLED {
            self.0.record(event);
        } else if B::ENABLED {
            self.1.record(event);
        }
    }

    fn on_decision_ns(&mut self, ns: u64) {
        if A::TIMED {
            self.0.on_decision_ns(ns);
        }
        if B::TIMED {
            self.1.on_decision_ns(ns);
        }
    }
}

/// Adapter turning any closure into a probe, convenient in tests:
/// `simulate_probed(&inst, &mut ff, &mut FnProbe::new(|ev| events.push(ev)))`.
#[derive(Debug)]
pub struct FnProbe<F> {
    f: F,
}

impl<F> FnProbe<F> {
    /// Wrap a closure as a probe.
    pub fn new(f: F) -> FnProbe<F> {
        FnProbe { f }
    }
}

impl<Sz: Demand, F: FnMut(GProbeEvent<Sz>)> Probe<Sz> for FnProbe<F> {
    fn record(&mut self, event: GProbeEvent<Sz>) {
        (self.f)(event);
    }
}

/// A probe that checks a re-executed event stream against a journaled
/// prefix and forwards only the continuation to an inner probe — the one
/// recovery verifier: fault-free engine journals and fault-injection
/// journals both resume by running again under it.
///
/// The first divergence is latched (the run cannot be aborted from inside
/// a probe) and surfaced by [`finish`](VerifyProbe::finish); after it,
/// nothing further is forwarded, so a corrupt recovery never emits a
/// partially-wrong continuation. Decision timings are forwarded only when
/// the arrival's events were, so verified prefix arrivals are not timed
/// and continuation arrivals are timed once.
#[derive(Debug)]
pub struct VerifyProbe<'a, P, Sz = Size> {
    prefix: &'a [GProbeEvent<Sz>],
    inner: &'a mut P,
    pos: usize,
    appended: u64,
    forwarding: bool,
    error: Option<String>,
}

impl<'a, Sz: Demand, P: Probe<Sz>> VerifyProbe<'a, P, Sz> {
    /// Verify against `prefix`, forwarding post-prefix events to `inner`.
    pub fn new(prefix: &'a [GProbeEvent<Sz>], inner: &'a mut P) -> VerifyProbe<'a, P, Sz> {
        VerifyProbe {
            prefix,
            inner,
            pos: 0,
            appended: 0,
            forwarding: false,
            error: None,
        }
    }

    /// Finish verification: `(replayed, appended)` counts on success, the
    /// first divergence otherwise. Errors if the journal is *longer* than
    /// the re-execution — a journal from a different configuration.
    pub fn finish(self) -> Result<(usize, u64), String> {
        if let Some(e) = self.error {
            return Err(e);
        }
        if self.pos < self.prefix.len() {
            return Err(format!(
                "journal has {} events but re-execution produced only {}: \
                 the journal belongs to a different plan, workload, or dispatcher",
                self.prefix.len(),
                self.pos
            ));
        }
        Ok((self.pos, self.appended))
    }
}

impl<Sz: Demand, P: Probe<Sz>> Probe<Sz> for VerifyProbe<'_, P, Sz> {
    const TIMED: bool = P::TIMED;

    fn record(&mut self, event: GProbeEvent<Sz>) {
        self.forwarding = false;
        if self.error.is_some() {
            return;
        }
        if self.pos < self.prefix.len() {
            if self.prefix[self.pos] != event {
                self.error = Some(format!(
                    "journal diverges from re-execution at event {}: journal has {:?}, \
                     re-execution produced {:?} — wrong plan, workload, or dispatcher",
                    self.pos, self.prefix[self.pos], event
                ));
                return;
            }
            self.pos += 1;
        } else {
            self.appended += 1;
            self.forwarding = true;
            self.inner.record(event);
        }
    }

    fn on_decision_ns(&mut self, ns: u64) {
        if self.forwarding {
            self.inner.on_decision_ns(ns);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn noprobe_is_disabled_and_pairs_compose() {
        // Read through runtime bindings so the flags are checked as values
        // (a direct `assert!(!NoProbe::ENABLED)` is a constant assertion).
        let flags = [
            <NoProbe as Probe<Size>>::ENABLED,
            <(NoProbe, NoProbe) as Probe<Size>>::ENABLED,
        ];
        assert_eq!(flags, [false, false]);
        struct Count(u32);
        impl Probe for Count {
            fn record(&mut self, _: ProbeEvent) {
                self.0 += 1;
            }
        }
        let enabled = [<(Count, NoProbe)>::ENABLED, <(NoProbe, Count)>::ENABLED];
        assert_eq!(enabled, [true, true]);
        let mut pair = (Count(0), Count(0));
        pair.record(ProbeEvent::BinClosed {
            at: Tick(3),
            bin: BinId(0),
            open_ticks: 3,
        });
        assert_eq!((pair.0 .0, pair.1 .0), (1, 1));
    }

    #[test]
    fn event_accessors() {
        let ev = ProbeEvent::ItemArrived {
            at: Tick(7),
            item: ItemId(1),
            size: Size(4),
        };
        assert_eq!(ev.at(), Tick(7));
        assert_eq!(ev.kind(), "ItemArrived");
        assert!(!ev.is_fault_event());
    }

    #[test]
    fn fault_event_accessors() {
        let events = [
            ProbeEvent::BinCrashed {
                at: Tick(5),
                bin: BinId(2),
                orphans: 3,
            },
            ProbeEvent::ProvisionFailed {
                at: Tick(6),
                item: ItemId(0),
                attempt: 1,
            },
            ProbeEvent::RetryScheduled {
                at: Tick(6),
                item: ItemId(0),
                attempt: 2,
                next: Tick(8),
            },
            ProbeEvent::DispatchRejected {
                at: Tick(7),
                item: ItemId(1),
                bin: BinId(0),
            },
            ProbeEvent::ItemDropped {
                at: Tick(9),
                item: ItemId(1),
                reason: DropReason::QueueTimeout,
            },
            ProbeEvent::ItemRedispatched {
                at: Tick(9),
                item: ItemId(2),
                from: BinId(2),
                to: BinId(4),
                level: Size(6),
            },
            ProbeEvent::RecoveryEnded {
                at: Tick(9),
                bin: BinId(2),
                redispatched: 2,
                lost: 1,
            },
            ProbeEvent::ShardKilled {
                at: Tick(10),
                shard: 1,
                events_done: 42,
            },
            ProbeEvent::ShardRestarted {
                at: Tick(10),
                shard: 1,
                attempt: 1,
                replayed: 40,
            },
            ProbeEvent::ShardAbandoned {
                at: Tick(11),
                shard: 2,
                lost: 3,
                rerouted: 5,
            },
        ];
        for ev in &events {
            assert!(ev.is_fault_event(), "{}", ev.kind());
            assert!(ev.at() >= Tick(5));
        }
        let kinds: Vec<&str> = events.iter().map(|e| e.kind()).collect();
        assert_eq!(
            kinds,
            [
                "BinCrashed",
                "ProvisionFailed",
                "RetryScheduled",
                "DispatchRejected",
                "ItemDropped",
                "ItemRedispatched",
                "RecoveryEnded",
                "ShardKilled",
                "ShardRestarted",
                "ShardAbandoned",
            ]
        );
        assert_eq!(DropReason::CrashLost.name(), "crash_lost");
    }
}
