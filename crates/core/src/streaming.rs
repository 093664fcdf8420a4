//! Bounded-memory event-time streaming core.
//!
//! The batch entry points ([`simulate_probed`]) replay a pre-materialized,
//! pre-sorted `Vec` of events — fine for experiments, impossible for a live
//! dispatcher that sees arrivals one at a time and must never look ahead.
//! [`StreamingEngine`] drives the exact same struct-of-arrays arena as the
//! batch engine from an *incremental* push stream:
//!
//! * arrivals enter via [`push_arrival`] (departure known up front, as in a
//!   replayed workload) or [`push_open_arrival`] + [`push_departure`] (the
//!   live-daemon shape, where the departure is a separate future message);
//! * pending departures wait in a binary heap keyed `(tick, item id)` — the
//!   batch schedule's order (tick, then departures before arrivals, each in
//!   instance order, which is item-id order), so equal-tick departures
//!   drain in item-id order and *before* equal-tick arrivals;
//! * event time only moves forward: a push behind the engine's horizon is a
//!   typed [`StreamError::TimeTravel`], never silent reordering;
//! * memory is bounded by the *live* state (open bins + in-flight items +
//!   closed-bin records), not by the stream length processed so far per
//!   tick — there is no materialized schedule.
//!
//! Fed the same stream, the streaming engine is **byte-identical** to
//! [`simulate_probed`]: same [`PackingTrace`], same probe event sequence
//! (hence same JSONL export and digest). The equivalence proptests in
//! `proptests.rs` keep this honest across every shipped selector.
//!
//! Wall time is injected, never read ambiently: a [`Clock`] maps whatever
//! the caller's time source is onto monotonic ticks, with [`ManualClock`]
//! for tests/replays and [`WallClock`] for daemons.
//!
//! [`simulate_probed`]: crate::engine::simulate_probed
//! [`push_arrival`]: StreamingEngine::push_arrival
//! [`push_open_arrival`]: StreamingEngine::push_open_arrival
//! [`push_departure`]: StreamingEngine::push_departure

use crate::bin::BinId;
use crate::demand::Demand;
use crate::engine::State;
use crate::item::{GArrivingItem, GItem, ItemId, RegionId, Size};
use crate::packer::BinSelector;
use crate::probe::{GProbeEvent, Probe};
use crate::time::Tick;
use crate::trace::GPackingTrace;
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::fmt;

/// A monotonic tick source injected into streaming drivers. Implementations
/// must never go backwards; the engine still checks and returns
/// [`StreamError::TimeTravel`] if one does.
pub trait Clock {
    /// The current tick.
    fn now(&mut self) -> Tick;
}

/// A hand-advanced clock for tests and event-time replays: [`now`] returns
/// whatever the last [`advance_to`] set, and never moves on its own.
///
/// [`now`]: ManualClock::now
/// [`advance_to`]: ManualClock::advance_to
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ManualClock {
    now: Tick,
}

impl ManualClock {
    /// A clock starting at `start`.
    pub fn new(start: Tick) -> ManualClock {
        ManualClock { now: start }
    }

    /// Move the clock forward to `t`. Saturating: a target behind the
    /// current reading leaves the clock unchanged (clocks never rewind).
    pub fn advance_to(&mut self, t: Tick) {
        if t > self.now {
            self.now = t;
        }
    }
}

impl Clock for ManualClock {
    fn now(&mut self) -> Tick {
        self.now
    }
}

/// Wall-clock ticks for live daemons: tick 0 is the moment of construction,
/// and the reading advances at `ticks_per_sec` against
/// [`std::time::Instant`] (monotonic by construction).
#[derive(Debug, Clone, Copy)]
pub struct WallClock {
    epoch: std::time::Instant,
    ticks_per_sec: u64,
}

impl WallClock {
    /// A clock whose tick 0 is now.
    ///
    /// # Panics
    /// Panics if `ticks_per_sec` is zero.
    pub fn starting_now(ticks_per_sec: u64) -> WallClock {
        assert!(ticks_per_sec > 0, "a clock needs a nonzero rate");
        WallClock {
            epoch: std::time::Instant::now(),
            ticks_per_sec,
        }
    }
}

impl Clock for WallClock {
    fn now(&mut self) -> Tick {
        let elapsed = self.epoch.elapsed();
        let whole = elapsed.as_secs().saturating_mul(self.ticks_per_sec);
        let frac = elapsed.subsec_nanos() as u64 * self.ticks_per_sec / 1_000_000_000;
        Tick(whole.saturating_add(frac))
    }
}

/// Typed rejection from the streaming engine, generic over the demand type
/// (scalar [`Size`] via the [`StreamError`] alias). Every variant is a
/// *caller* error: the engine's own state stays consistent after returning
/// one.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum GStreamError<Sz> {
    /// The push carried a tick behind the engine's event-time horizon.
    TimeTravel {
        /// The offending tick.
        at: Tick,
        /// The horizon it would have to rewind past.
        horizon: Tick,
    },
    /// An arrival stamped after the clock reading it was pushed with — the
    /// item claims to arrive in the caller's future.
    ArrivalInFuture {
        /// The item.
        item: ItemId,
        /// Its claimed arrival tick.
        arrival: Tick,
        /// The clock reading supplied with the push.
        now: Tick,
    },
    /// A departure tick not strictly after the arrival tick.
    DepartureNotAfterArrival {
        /// The item.
        item: ItemId,
        /// Its arrival tick.
        arrival: Tick,
        /// The offending departure tick.
        departure: Tick,
    },
    /// Zero-size items carry no demand and are rejected, matching
    /// `Instance` validation.
    ZeroSize {
        /// The item.
        item: ItemId,
    },
    /// The item does not fit an empty bin (some demand component exceeds
    /// the matching capacity component).
    Oversized {
        /// The item.
        item: ItemId,
        /// Its size.
        size: Sz,
        /// The bin capacity it exceeds.
        capacity: Sz,
    },
    /// An item id was pushed twice.
    DuplicateItem {
        /// The repeated id.
        item: ItemId,
    },
    /// A departure for an id that never arrived.
    UnknownItem {
        /// The unknown id.
        item: ItemId,
    },
    /// A departure for an item that already departed, or whose departure is
    /// already scheduled on the heap.
    AlreadyDeparted {
        /// The item.
        item: ItemId,
    },
    /// [`finish`](StreamingEngine::finish) was called while open-mode items
    /// were still in flight (no departure pushed yet).
    ItemsStillOpen {
        /// How many items have not departed.
        open: usize,
    },
    /// [`finish`](StreamingEngine::finish) requires dense ids `0..n` (the
    /// trace's assignment table is indexed by id); this id was never pushed.
    MissingItem {
        /// The gap.
        item: ItemId,
    },
}

/// The scalar stream error of the source paper's model.
pub type StreamError = GStreamError<Size>;

impl<Sz: fmt::Display> fmt::Display for GStreamError<Sz> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GStreamError::TimeTravel { at, horizon } => {
                write!(f, "time travel: tick {at} is behind the horizon {horizon}")
            }
            GStreamError::ArrivalInFuture { item, arrival, now } => {
                write!(
                    f,
                    "item {item} arrives at {arrival}, after the clock reading {now}"
                )
            }
            GStreamError::DepartureNotAfterArrival {
                item,
                arrival,
                departure,
            } => write!(
                f,
                "item {item} departs at {departure}, not after its arrival {arrival}"
            ),
            GStreamError::ZeroSize { item } => write!(f, "item {item} has size 0"),
            GStreamError::Oversized {
                item,
                size,
                capacity,
            } => write!(f, "item {item} (size {size}) exceeds capacity {capacity}"),
            GStreamError::DuplicateItem { item } => write!(f, "item {item} was pushed twice"),
            GStreamError::UnknownItem { item } => {
                write!(f, "departure for unknown item {item}")
            }
            GStreamError::AlreadyDeparted { item } => {
                write!(f, "item {item} already departed")
            }
            GStreamError::ItemsStillOpen { open } => {
                write!(f, "{open} item(s) still open at finish")
            }
            GStreamError::MissingItem { item } => {
                write!(f, "id space has a gap: item {item} was never pushed")
            }
        }
    }
}

impl<Sz: fmt::Debug + fmt::Display> std::error::Error for GStreamError<Sz> {}

/// Per-item lifecycle in the streaming engine.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum ItemPhase {
    /// Never seen.
    Absent,
    /// Placed; departure scheduled on the heap.
    Scheduled,
    /// Placed via [`StreamingEngine::push_open_arrival`]; departure will
    /// arrive as a future [`StreamingEngine::push_departure`].
    Open,
    /// Departed.
    Departed,
}

/// The bounded-memory event-time engine. See the module docs for the
/// contract; construction takes ownership of the selector and probe because
/// a streaming run has no instance-scoped borrow to hang them on.
pub struct StreamingEngine<S: BinSelector<Sz>, P: Probe<Sz>, Sz: Demand = Size> {
    capacity: Sz,
    selector: S,
    probe: P,
    keep_views: bool,
    st: State<Sz>,
    /// Min-heap of scheduled departures keyed `(tick, item id)` — exactly
    /// the order [`schedule`](crate::events::schedule) gives equal-tick
    /// departures: instance order, which is item-id order.
    departures: BinaryHeap<Reverse<(Tick, ItemId)>>,
    /// Per-item size (needed at departure) and lifecycle phase, indexed by
    /// item id like the arena's per-item columns.
    sizes: Vec<Sz>,
    phase: Vec<ItemPhase>,
    /// Event-time horizon: no processed event may carry a smaller tick.
    horizon: Tick,
    /// Tick of the batch currently accumulating (its open-bin step is
    /// recorded lazily, once a later tick proves the batch ended).
    pending_step: Option<Tick>,
    /// Items currently placed and not yet departed.
    in_flight: usize,
    /// Arrivals accepted so far.
    arrived: u64,
}

impl<Sz: Demand, S: BinSelector<Sz>, P: Probe<Sz>> StreamingEngine<S, P, Sz> {
    /// A fresh engine for bins of the given `capacity`.
    ///
    /// # Panics
    /// Panics if any capacity component is zero.
    pub fn new(capacity: Sz, selector: S, probe: P) -> StreamingEngine<S, P, Sz> {
        assert!(
            !capacity.has_zero_component(),
            "bin capacity must be positive in every dimension"
        );
        let keep_views = P::ENABLED || selector.needs_views();
        StreamingEngine {
            capacity,
            selector,
            probe,
            keep_views,
            st: State::with_items(0),
            departures: BinaryHeap::new(),
            sizes: Vec::new(),
            phase: Vec::new(),
            horizon: Tick(0),
            pending_step: None,
            in_flight: 0,
            arrived: 0,
        }
    }

    /// The event-time horizon: the largest tick of any processed event.
    pub fn horizon(&self) -> Tick {
        self.horizon
    }

    /// Bins currently open.
    pub fn open_bins(&self) -> usize {
        self.st.open_count
    }

    /// Bins ever opened.
    pub fn bins_opened(&self) -> usize {
        self.st.bins()
    }

    /// Items currently placed and not yet departed.
    pub fn in_flight(&self) -> usize {
        self.in_flight
    }

    /// Arrivals accepted so far.
    pub fn arrivals(&self) -> u64 {
        self.arrived
    }

    /// Departures scheduled on the heap but not yet fired.
    pub fn pending_departures(&self) -> usize {
        self.departures.len()
    }

    /// Borrow the probe (for live scraping of metrics-bearing probes).
    pub fn probe(&self) -> &P {
        &self.probe
    }

    /// Mutably borrow the probe (for flushing journal-bearing probes).
    pub fn probe_mut(&mut self) -> &mut P {
        &mut self.probe
    }

    /// Grow the per-item columns to cover `idx` and report its phase.
    fn phase_of(&mut self, idx: usize) -> ItemPhase {
        if idx >= self.phase.len() {
            self.sizes.resize(idx + 1, Sz::ZERO);
            self.phase.resize(idx + 1, ItemPhase::Absent);
            self.st.ensure_item(idx);
        }
        self.phase[idx]
    }

    /// Lazy step recording: called with each event's tick, in order. When
    /// the tick moves past the pending batch, the batch's open-bin count is
    /// recorded — reproducing the batch engine's record-at-batch-end rule.
    fn note_tick(&mut self, t: Tick) {
        match self.pending_step {
            Some(p) if p == t => {}
            Some(p) => {
                self.st.record_step(p);
                self.pending_step = Some(t);
            }
            None => self.pending_step = Some(t),
        }
    }

    /// Fire every scheduled departure with tick ≤ `up_to` (departures run
    /// before arrivals at the same tick, per the engine's event order).
    fn drain_departures(&mut self, up_to: Tick) {
        while let Some(&Reverse((t, id))) = self.departures.peek() {
            if t > up_to {
                break;
            }
            self.departures.pop();
            self.note_tick(t);
            self.st.apply_departure(
                self.sizes[id.index()],
                &mut self.selector,
                &mut self.probe,
                self.keep_views,
                t,
                id,
            );
            self.phase[id.index()] = ItemPhase::Departed;
            self.in_flight -= 1;
            self.horizon = t;
        }
    }

    /// Shared arrival path: mirrors the batch engine's probe emission order
    /// exactly (`ItemArrived` → timed `select` → placement events →
    /// `on_decision_ns`).
    fn process_arrival(&mut self, arriving: GArrivingItem<Sz>) -> BinId {
        let tick = arriving.arrival;
        self.note_tick(tick);
        if P::ENABLED {
            self.probe.record(GProbeEvent::ItemArrived {
                at: tick,
                item: arriving.id,
                size: arriving.size,
            });
        }
        let started = if P::ENABLED {
            Some(std::time::Instant::now())
        } else {
            None
        };
        let decision = self
            .selector
            .select(&self.st.views, &arriving, self.capacity);
        self.st.apply_arrival(
            arriving.size,
            &mut self.selector,
            &mut self.probe,
            self.keep_views,
            self.capacity,
            tick,
            arriving.id,
            decision,
        );
        if let Some(started) = started {
            self.probe
                .on_decision_ns(started.elapsed().as_nanos() as u64);
        }
        self.horizon = tick;
        self.in_flight += 1;
        self.arrived += 1;
        self.st.assignment[arriving.id.index()].expect("apply_arrival always assigns")
    }

    /// Validate the parts of an arrival shared by both push flavors.
    fn check_arrival(
        &mut self,
        id: ItemId,
        arrival: Tick,
        size: Sz,
        now: Tick,
    ) -> Result<(), GStreamError<Sz>> {
        if arrival < self.horizon {
            return Err(GStreamError::TimeTravel {
                at: arrival,
                horizon: self.horizon,
            });
        }
        if arrival > now {
            return Err(GStreamError::ArrivalInFuture {
                item: id,
                arrival,
                now,
            });
        }
        if size.is_zero() {
            return Err(GStreamError::ZeroSize { item: id });
        }
        if !size.fits_within(self.capacity) {
            return Err(GStreamError::Oversized {
                item: id,
                size,
                capacity: self.capacity,
            });
        }
        if self.phase_of(id.index()) != ItemPhase::Absent {
            return Err(GStreamError::DuplicateItem { item: id });
        }
        Ok(())
    }

    /// Push one arrival whose departure is already known (the replayed-
    /// workload shape), processing it at `item.arrival` and scheduling the
    /// departure on the heap. `now` is the caller's clock reading; the
    /// arrival may not lie in its future. Returns the bin the item landed
    /// in.
    ///
    /// # Panics
    /// Panics if the selector returns an invalid decision — same contract
    /// as [`simulate`](crate::engine::simulate).
    pub fn push_arrival(&mut self, item: GItem<Sz>, now: Tick) -> Result<BinId, GStreamError<Sz>> {
        if item.departure <= item.arrival {
            return Err(GStreamError::DepartureNotAfterArrival {
                item: item.id,
                arrival: item.arrival,
                departure: item.departure,
            });
        }
        self.check_arrival(item.id, item.arrival, item.size, now)?;
        self.drain_departures(item.arrival);
        self.sizes[item.id.index()] = item.size;
        self.phase[item.id.index()] = ItemPhase::Scheduled;
        self.departures.push(Reverse((item.departure, item.id)));
        Ok(self.process_arrival(GArrivingItem::of(&item)))
    }

    /// Push one arrival whose departure is *not* known — the live-daemon
    /// shape, where the departure arrives later via [`push_departure`].
    ///
    /// [`push_departure`]: StreamingEngine::push_departure
    ///
    /// # Panics
    /// Same contract as [`push_arrival`](StreamingEngine::push_arrival).
    pub fn push_open_arrival(
        &mut self,
        id: ItemId,
        size: Sz,
        region: RegionId,
        now: Tick,
    ) -> Result<BinId, GStreamError<Sz>> {
        self.check_arrival(id, now, size, now)?;
        self.drain_departures(now);
        self.sizes[id.index()] = size;
        self.phase[id.index()] = ItemPhase::Open;
        Ok(self.process_arrival(GArrivingItem {
            id,
            arrival: now,
            size,
            region,
        }))
    }

    /// Depart an open-mode item at tick `now`. Scheduled departures with
    /// ticks ≤ `now` fire first, preserving heap order.
    pub fn push_departure(&mut self, id: ItemId, now: Tick) -> Result<(), GStreamError<Sz>> {
        if now < self.horizon {
            return Err(GStreamError::TimeTravel {
                at: now,
                horizon: self.horizon,
            });
        }
        match self.phase_of(id.index()) {
            ItemPhase::Absent => return Err(GStreamError::UnknownItem { item: id }),
            ItemPhase::Scheduled | ItemPhase::Departed => {
                return Err(GStreamError::AlreadyDeparted { item: id })
            }
            ItemPhase::Open => {}
        }
        self.drain_departures(now);
        self.note_tick(now);
        self.st.apply_departure(
            self.sizes[id.index()],
            &mut self.selector,
            &mut self.probe,
            self.keep_views,
            now,
            id,
        );
        self.phase[id.index()] = ItemPhase::Departed;
        self.in_flight -= 1;
        self.horizon = now;
        Ok(())
    }

    /// Advance event time to `now` without pushing anything: scheduled
    /// departures up to `now` fire. A reading behind the horizon is a
    /// [`StreamError::TimeTravel`].
    pub fn advance_to(&mut self, now: Tick) -> Result<(), GStreamError<Sz>> {
        if now < self.horizon {
            return Err(GStreamError::TimeTravel {
                at: now,
                horizon: self.horizon,
            });
        }
        self.drain_departures(now);
        self.horizon = now;
        Ok(())
    }

    /// Drain every scheduled departure, seal the step function, and build
    /// the trace — the streaming counterpart of
    /// [`EngineRun::finish`](crate::engine::EngineRun::finish). Requires a
    /// dense id space `0..n` with every item departed.
    pub fn finish(mut self) -> Result<GPackingTrace<Sz>, GStreamError<Sz>> {
        while let Some(&Reverse((t, _))) = self.departures.peek() {
            self.drain_departures(t);
        }
        if self.in_flight > 0 {
            return Err(GStreamError::ItemsStillOpen {
                open: self.in_flight,
            });
        }
        if let Some(p) = self.pending_step.take() {
            self.st.record_step(p);
        }
        debug_assert_eq!(self.st.open_count, 0, "no in-flight items but open bins");
        let mut assignment = Vec::with_capacity(self.st.assignment.len());
        for (i, b) in self.st.assignment.iter().enumerate() {
            match b {
                Some(b) => assignment.push(*b),
                None => {
                    return Err(GStreamError::MissingItem {
                        item: ItemId(i as u32),
                    })
                }
            }
        }
        Ok(GPackingTrace {
            algorithm: self.selector.name().to_string(),
            capacity: self.capacity,
            bins: self.st.materialize_records(),
            assignment,
            open_bins_steps: self.st.steps,
        })
    }

    /// Tear the engine down without requiring a complete stream, returning
    /// the probe (so journals can be sealed) and the final ledger-relevant
    /// counters `(arrivals, in_flight, open_bins)` — the daemon's drain
    /// path, where in-flight sessions are expected.
    pub fn into_probe(self) -> (P, u64, usize, usize) {
        (self.probe, self.arrived, self.in_flight, self.st.open_count)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algorithms::FirstFit;
    use crate::engine::simulate_probed;
    use crate::instance::InstanceBuilder;
    use crate::item::Item;
    use crate::probe::FnProbe;

    fn demo() -> crate::instance::Instance {
        let mut b = InstanceBuilder::new(10);
        b.add(0, 10, 6);
        b.add(0, 4, 6);
        b.add(2, 8, 4);
        b.add(5, 9, 6);
        b.build().unwrap()
    }

    fn stream_order(inst: &crate::instance::Instance) -> Vec<Item> {
        let mut items: Vec<Item> = inst.items().to_vec();
        items.sort_by_key(|it| (it.arrival, it.id));
        items
    }

    #[test]
    fn streaming_matches_batch_trace_and_events() {
        let inst = demo();
        let mut batch_events = Vec::new();
        let batch = simulate_probed(
            &inst,
            &mut FirstFit::new(),
            &mut FnProbe::new(|ev| batch_events.push(ev)),
        );

        let mut stream_events = Vec::new();
        let mut eng = StreamingEngine::new(
            inst.capacity(),
            FirstFit::new(),
            FnProbe::new(|ev| stream_events.push(ev)),
        );
        for it in stream_order(&inst) {
            eng.push_arrival(it, it.arrival).unwrap();
        }
        let trace = eng.finish().unwrap();
        assert_eq!(trace, batch);
        assert_eq!(stream_events, batch_events);
    }

    #[test]
    fn time_travel_and_validation_errors() {
        let mut eng = StreamingEngine::new(Size(10), FirstFit::new(), crate::probe::NoProbe);
        eng.push_arrival(Item::new(0, 5, 9, 4), Tick(5)).unwrap();
        assert_eq!(
            eng.push_arrival(Item::new(1, 3, 7, 2), Tick(6)),
            Err(StreamError::TimeTravel {
                at: Tick(3),
                horizon: Tick(5)
            })
        );
        assert_eq!(
            eng.push_arrival(Item::new(1, 9, 12, 2), Tick(7)),
            Err(StreamError::ArrivalInFuture {
                item: ItemId(1),
                arrival: Tick(9),
                now: Tick(7)
            })
        );
        assert_eq!(
            eng.push_arrival(Item::new(1, 6, 6, 2), Tick(6)),
            Err(StreamError::DepartureNotAfterArrival {
                item: ItemId(1),
                arrival: Tick(6),
                departure: Tick(6)
            })
        );
        assert_eq!(
            eng.push_arrival(Item::new(1, 6, 9, 0), Tick(6)),
            Err(StreamError::ZeroSize { item: ItemId(1) })
        );
        assert_eq!(
            eng.push_arrival(Item::new(1, 6, 9, 11), Tick(6)),
            Err(StreamError::Oversized {
                item: ItemId(1),
                size: Size(11),
                capacity: Size(10)
            })
        );
        assert_eq!(
            eng.push_arrival(Item::new(0, 6, 9, 2), Tick(6)),
            Err(StreamError::DuplicateItem { item: ItemId(0) })
        );
        // The rejected pushes left the engine usable.
        eng.push_arrival(Item::new(1, 6, 9, 2), Tick(6)).unwrap();
        let trace = eng.finish().unwrap();
        assert_eq!(trace.bins_used(), 1);
    }

    #[test]
    fn open_mode_lifecycle_and_ledger_counters() {
        let mut eng = StreamingEngine::new(Size(10), FirstFit::new(), crate::probe::NoProbe);
        eng.push_open_arrival(ItemId(0), Size(6), RegionId::GLOBAL, Tick(0))
            .unwrap();
        eng.push_open_arrival(ItemId(1), Size(6), RegionId::GLOBAL, Tick(1))
            .unwrap();
        assert_eq!(eng.open_bins(), 2);
        assert_eq!(eng.in_flight(), 2);
        assert_eq!(
            eng.push_departure(ItemId(2), Tick(2)),
            Err(StreamError::UnknownItem { item: ItemId(2) })
        );
        eng.push_departure(ItemId(0), Tick(3)).unwrap();
        assert_eq!(
            eng.push_departure(ItemId(0), Tick(3)),
            Err(StreamError::AlreadyDeparted { item: ItemId(0) })
        );
        assert_eq!(eng.finish(), Err(StreamError::ItemsStillOpen { open: 1 }));
    }

    #[test]
    fn open_mode_finish_builds_a_trace() {
        let mut eng = StreamingEngine::new(Size(10), FirstFit::new(), crate::probe::NoProbe);
        eng.push_open_arrival(ItemId(0), Size(6), RegionId::GLOBAL, Tick(0))
            .unwrap();
        eng.push_open_arrival(ItemId(1), Size(4), RegionId::GLOBAL, Tick(1))
            .unwrap();
        eng.push_departure(ItemId(1), Tick(5)).unwrap();
        eng.push_departure(ItemId(0), Tick(8)).unwrap();
        let trace = eng.finish().unwrap();
        assert_eq!(trace.bins_used(), 1);
        assert_eq!(trace.total_cost_ticks(), 8);
    }

    #[test]
    fn advance_to_fires_scheduled_departures() {
        let mut eng = StreamingEngine::new(Size(10), FirstFit::new(), crate::probe::NoProbe);
        eng.push_arrival(Item::new(0, 0, 4, 6), Tick(0)).unwrap();
        assert_eq!(eng.open_bins(), 1);
        eng.advance_to(Tick(4)).unwrap();
        assert_eq!(eng.open_bins(), 0);
        assert_eq!(eng.in_flight(), 0);
        assert_eq!(
            eng.advance_to(Tick(2)),
            Err(StreamError::TimeTravel {
                at: Tick(2),
                horizon: Tick(4)
            })
        );
    }

    #[test]
    fn clocks_are_monotonic() {
        let mut m = ManualClock::new(Tick(3));
        assert_eq!(m.now(), Tick(3));
        m.advance_to(Tick(10));
        m.advance_to(Tick(5)); // saturates, never rewinds
        assert_eq!(m.now(), Tick(10));
        let mut w = WallClock::starting_now(1_000_000);
        let a = w.now();
        let b = w.now();
        assert!(b >= a);
    }

    #[test]
    fn missing_id_is_reported_at_finish() {
        let mut eng = StreamingEngine::new(Size(10), FirstFit::new(), crate::probe::NoProbe);
        eng.push_arrival(Item::new(1, 0, 4, 6), Tick(0)).unwrap();
        assert_eq!(
            eng.finish(),
            Err(StreamError::MissingItem { item: ItemId(0) })
        );
    }
}
