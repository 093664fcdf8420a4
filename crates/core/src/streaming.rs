//! The event core, and the open-mode streaming engine built on it.
//!
//! The crate-private `EventCore` owns the selector, the probe, the bin
//! capacity and the struct-of-arrays arena, and has exactly one arrival
//! body (`EventCore::arrive`) and one departure body (`EventCore::depart`).
//! Two drivers feed it:
//!
//! * [`EngineRun`](crate::engine::EngineRun) walks an instance's presorted
//!   [`schedule`](crate::events::schedule) (tick, then departures before
//!   arrivals, each in item-id order);
//! * [`StreamingEngine`] takes one arrival or departure at a time, as a
//!   live dispatcher sees them: [`push_open_arrival`] places an item whose
//!   departure is not yet known, and [`push_departure`] removes it later.
//!
//! The streaming engine adds per-item validation: event time only moves
//! forward (a push behind the engine's horizon is a typed
//! [`StreamError::TimeTravel`], never silent reordering), and zero-size,
//! oversized, duplicate and unknown items are typed errors too. Memory is
//! bounded by the *live* state (open bins + in-flight items + closed-bin
//! records); there is no materialized schedule.
//!
//! Fed an instance's schedule in order, the streaming engine is
//! **byte-identical** to [`simulate_probed`]: same [`PackingTrace`], same
//! probe event sequence (hence same JSONL export and digest). The
//! equivalence proptests in `proptests.rs` keep this honest across every
//! shipped selector.
//!
//! [`simulate_probed`]: crate::engine::simulate_probed
//! [`PackingTrace`]: crate::trace::PackingTrace
//! [`push_open_arrival`]: StreamingEngine::push_open_arrival
//! [`push_departure`]: StreamingEngine::push_departure

use crate::bin::BinId;
use crate::demand::Demand;
use crate::engine::State;
use crate::item::{GArrivingItem, ItemId, RegionId, Size};
use crate::packer::BinSelector;
use crate::probe::{GProbeEvent, Probe};
use crate::span::{stage, NoSpans, SpanRecorder};
use crate::time::Tick;
use crate::trace::GPackingTrace;
use std::fmt;

/// The one arrival/departure body both drivers share. It owns the
/// selector, the probe, the capacity and the arena; the drivers own the
/// event order and the open-bin step rule.
pub(crate) struct EventCore<S, P, Sz> {
    pub(crate) capacity: Sz,
    pub(crate) selector: S,
    pub(crate) probe: P,
    pub(crate) keep_views: bool,
    pub(crate) st: State<Sz>,
}

impl<Sz: Demand, S: BinSelector<Sz>, P: Probe<Sz>> EventCore<S, P, Sz> {
    /// A core whose per-item columns are pre-sized for `n_items` items
    /// (streaming callers start at 0 and grow via [`State::ensure_item`]).
    pub(crate) fn new(capacity: Sz, selector: S, probe: P, n_items: usize) -> Self {
        let keep_views = P::ENABLED || selector.needs_views();
        EventCore {
            capacity,
            selector,
            probe,
            keep_views,
            st: State::with_items(n_items),
        }
    }

    /// Place one arriving item: `ItemArrived` → `decide` span (the
    /// selector call) → `place` span (the bookkeeping) → `on_decision_ns`,
    /// all inside one `arrival` span. Returns the bin the item landed in.
    ///
    /// # Panics
    /// Panics if the selector returns an invalid decision — same contract
    /// as [`simulate`](crate::engine::simulate).
    #[inline]
    pub(crate) fn arrive<R: SpanRecorder>(
        &mut self,
        spans: &mut R,
        arriving: &GArrivingItem<Sz>,
    ) -> BinId {
        let tick = arriving.arrival;
        if R::ENABLED {
            spans.enter(stage::ARRIVAL);
        }
        if P::ENABLED {
            self.probe.record(GProbeEvent::ItemArrived {
                at: tick,
                item: arriving.id,
                size: arriving.size,
            });
        }
        // Timed span: the *whole* arrival handling — selection plus
        // placement bookkeeping — so `on_decision_ns` reflects the
        // per-arrival cost users actually observe.
        let started = if P::ENABLED {
            Some(std::time::Instant::now())
        } else {
            None
        };
        if R::ENABLED {
            spans.enter(stage::DECIDE);
        }
        let decision = self
            .selector
            .select(&self.st.views, arriving, self.capacity);
        if R::ENABLED {
            spans.exit();
            spans.enter(stage::PLACE);
        }
        let bin = self.st.apply_arrival(
            arriving.size,
            &mut self.selector,
            &mut self.probe,
            self.keep_views,
            self.capacity,
            tick,
            arriving.id,
            decision,
        );
        if R::ENABLED {
            spans.exit();
        }
        if let Some(started) = started {
            self.probe
                .on_decision_ns(started.elapsed().as_nanos() as u64);
        }
        if R::ENABLED {
            spans.exit();
        }
        bin
    }

    /// Remove item `id` (of the given `size`) at `tick` inside one
    /// `departure` span, closing its bin if it empties.
    #[inline]
    pub(crate) fn depart<R: SpanRecorder>(
        &mut self,
        spans: &mut R,
        id: ItemId,
        size: Sz,
        tick: Tick,
    ) {
        if R::ENABLED {
            spans.enter(stage::DEPARTURE);
        }
        self.st.apply_departure(
            size,
            &mut self.selector,
            &mut self.probe,
            self.keep_views,
            tick,
            id,
        );
        if R::ENABLED {
            spans.exit();
        }
    }

    /// Build the trace from a finished run's arena, or name the first item
    /// id that was never placed (the assignment table is indexed by id).
    pub(crate) fn into_trace(self) -> Result<GPackingTrace<Sz>, ItemId> {
        let bins = self.st.materialize_records();
        let assignment = self
            .st
            .assignment
            .into_iter()
            .enumerate()
            .map(|(i, b)| b.ok_or(ItemId(i as u32)))
            .collect::<Result<_, _>>()?;
        Ok(GPackingTrace {
            algorithm: self.selector.name().to_string(),
            capacity: self.capacity,
            bins,
            assignment,
            open_bins_steps: self.st.steps,
        })
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
    /// A departure for an item that already departed.
    AlreadyDeparted {
        /// The item.
        item: ItemId,
    },
    /// [`finish`](StreamingEngine::finish) was called while items were
    /// still in flight (no departure pushed yet).
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
    /// Placed; its departure will arrive as a future
    /// [`StreamingEngine::push_departure`].
    Open,
    /// Departed.
    Departed,
}

/// The bounded-memory open-mode engine. See the module docs for the
/// contract; construction takes ownership of the selector and probe because
/// a streaming run has no instance-scoped borrow to hang them on.
pub struct StreamingEngine<S: BinSelector<Sz>, P: Probe<Sz>, Sz: Demand = Size> {
    core: EventCore<S, P, Sz>,
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
        StreamingEngine {
            core: EventCore::new(capacity, selector, probe, 0),
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
        self.core.st.open_count
    }

    /// Bins ever opened.
    pub fn bins_opened(&self) -> usize {
        self.core.st.bins()
    }

    /// Items currently placed and not yet departed.
    pub fn in_flight(&self) -> usize {
        self.in_flight
    }

    /// Arrivals accepted so far.
    pub fn arrivals(&self) -> u64 {
        self.arrived
    }

    /// Borrow the probe (for live scraping of metrics-bearing probes).
    pub fn probe(&self) -> &P {
        &self.core.probe
    }

    /// Mutably borrow the probe (for flushing journal-bearing probes).
    pub fn probe_mut(&mut self) -> &mut P {
        &mut self.core.probe
    }

    /// Grow the per-item columns to cover `idx` and report its phase.
    fn phase_of(&mut self, idx: usize) -> ItemPhase {
        if idx >= self.phase.len() {
            self.sizes.resize(idx + 1, Sz::ZERO);
            self.phase.resize(idx + 1, ItemPhase::Absent);
            self.core.st.ensure_item(idx);
        }
        self.phase[idx]
    }

    /// Reject a push stamped behind the horizon.
    fn check_horizon(&self, t: Tick) -> Result<(), GStreamError<Sz>> {
        if t < self.horizon {
            return Err(GStreamError::TimeTravel {
                at: t,
                horizon: self.horizon,
            });
        }
        Ok(())
    }

    /// Move the horizon to `t` under the lazy step rule: when `t` moves
    /// past the pending batch, the batch's open-bin count is recorded —
    /// reproducing the batch engine's record-at-batch-end rule.
    fn note_tick(&mut self, t: Tick) {
        match self.pending_step {
            Some(p) if p == t => {}
            Some(p) => {
                self.core.st.record_step(p);
                self.pending_step = Some(t);
            }
            None => self.pending_step = Some(t),
        }
        self.horizon = t;
    }

    /// Place an item at tick `now` whose departure is not yet known; it
    /// leaves later via [`push_departure`]. Returns the bin it landed in.
    ///
    /// [`push_departure`]: StreamingEngine::push_departure
    ///
    /// # Panics
    /// Panics if the selector returns an invalid decision — same contract
    /// as [`simulate`](crate::engine::simulate).
    pub fn push_open_arrival(
        &mut self,
        id: ItemId,
        size: Sz,
        region: RegionId,
        now: Tick,
    ) -> Result<BinId, GStreamError<Sz>> {
        self.check_horizon(now)?;
        if size.is_zero() {
            return Err(GStreamError::ZeroSize { item: id });
        }
        if !size.fits_within(self.core.capacity) {
            return Err(GStreamError::Oversized {
                item: id,
                size,
                capacity: self.core.capacity,
            });
        }
        if self.phase_of(id.index()) != ItemPhase::Absent {
            return Err(GStreamError::DuplicateItem { item: id });
        }
        self.note_tick(now);
        self.sizes[id.index()] = size;
        self.phase[id.index()] = ItemPhase::Open;
        self.in_flight += 1;
        self.arrived += 1;
        Ok(self.core.arrive(
            &mut NoSpans,
            &GArrivingItem {
                id,
                arrival: now,
                size,
                region,
            },
        ))
    }

    /// Depart an open item at tick `now`.
    pub fn push_departure(&mut self, id: ItemId, now: Tick) -> Result<(), GStreamError<Sz>> {
        self.check_horizon(now)?;
        match self.phase_of(id.index()) {
            ItemPhase::Absent => return Err(GStreamError::UnknownItem { item: id }),
            ItemPhase::Departed => return Err(GStreamError::AlreadyDeparted { item: id }),
            ItemPhase::Open => {}
        }
        self.note_tick(now);
        self.core
            .depart(&mut NoSpans, id, self.sizes[id.index()], now);
        self.phase[id.index()] = ItemPhase::Departed;
        self.in_flight -= 1;
        Ok(())
    }

    /// Seal the step function and build the trace — the streaming
    /// counterpart of [`EngineRun::finish`](crate::engine::EngineRun::finish).
    /// Requires a dense id space `0..n` with every item departed.
    pub fn finish(mut self) -> Result<GPackingTrace<Sz>, GStreamError<Sz>> {
        if self.in_flight > 0 {
            return Err(GStreamError::ItemsStillOpen {
                open: self.in_flight,
            });
        }
        if let Some(p) = self.pending_step.take() {
            self.core.st.record_step(p);
        }
        debug_assert_eq!(
            self.core.st.open_count, 0,
            "no in-flight items but open bins"
        );
        self.core
            .into_trace()
            .map_err(|item| GStreamError::MissingItem { item })
    }

    /// Tear the engine down without requiring a complete stream, returning
    /// the probe (so journals can be sealed) and the final ledger-relevant
    /// counters `(arrivals, in_flight, open_bins)` — the daemon's drain
    /// path, where in-flight sessions are expected.
    pub fn into_probe(self) -> (P, u64, usize, usize) {
        (
            self.core.probe,
            self.arrived,
            self.in_flight,
            self.core.st.open_count,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algorithms::FirstFit;
    use crate::engine::simulate_probed;
    use crate::events::{schedule, EventKind};
    use crate::instance::InstanceBuilder;
    use crate::probe::FnProbe;

    fn demo() -> crate::instance::Instance {
        let mut b = InstanceBuilder::new(10);
        b.add(0, 10, 6);
        b.add(0, 4, 6);
        b.add(2, 8, 4);
        b.add(5, 9, 6);
        b.build().unwrap()
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
        for ev in schedule(&inst) {
            let it = inst.item(ev.item);
            match ev.kind {
                EventKind::Arrival => {
                    eng.push_open_arrival(it.id, it.size, it.region, ev.at)
                        .unwrap();
                }
                EventKind::Departure => eng.push_departure(it.id, ev.at).unwrap(),
            }
        }
        let trace = eng.finish().unwrap();
        assert_eq!(trace, batch);
        assert_eq!(stream_events, batch_events);
    }

    #[test]
    fn time_travel_and_validation_errors() {
        let g = RegionId::GLOBAL;
        let mut eng = StreamingEngine::new(Size(10), FirstFit::new(), crate::probe::NoProbe);
        eng.push_open_arrival(ItemId(0), Size(4), g, Tick(5))
            .unwrap();
        assert_eq!(
            eng.push_open_arrival(ItemId(1), Size(2), g, Tick(3)),
            Err(StreamError::TimeTravel {
                at: Tick(3),
                horizon: Tick(5)
            })
        );
        assert_eq!(
            eng.push_open_arrival(ItemId(1), Size(0), g, Tick(6)),
            Err(StreamError::ZeroSize { item: ItemId(1) })
        );
        assert_eq!(
            eng.push_open_arrival(ItemId(1), Size(11), g, Tick(6)),
            Err(StreamError::Oversized {
                item: ItemId(1),
                size: Size(11),
                capacity: Size(10)
            })
        );
        assert_eq!(
            eng.push_open_arrival(ItemId(0), Size(2), g, Tick(6)),
            Err(StreamError::DuplicateItem { item: ItemId(0) })
        );
        // The rejected pushes left the engine usable.
        eng.push_open_arrival(ItemId(1), Size(2), g, Tick(6))
            .unwrap();
        eng.push_departure(ItemId(0), Tick(9)).unwrap();
        eng.push_departure(ItemId(1), Tick(9)).unwrap();
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
    fn missing_id_is_reported_at_finish() {
        let mut eng = StreamingEngine::new(Size(10), FirstFit::new(), crate::probe::NoProbe);
        eng.push_open_arrival(ItemId(1), Size(6), RegionId::GLOBAL, Tick(0))
            .unwrap();
        eng.push_departure(ItemId(1), Tick(4)).unwrap();
        assert_eq!(
            eng.finish(),
            Err(StreamError::MissingItem { item: ItemId(0) })
        );
    }
}
