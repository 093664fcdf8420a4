//! The event core, and the open-mode streaming engine built on it.
//!
//! [`EventCore`] owns the selector, the probe, the bin capacity and the
//! struct-of-arrays arena, and has exactly one arrival body
//! ([`decide`](EventCore::decide) then [`place`](EventCore::place)) and
//! one departure body ([`depart`](EventCore::depart)). Three drivers feed
//! it:
//!
//! * [`EngineRun`](crate::engine::EngineRun) walks an instance's presorted
//!   [`schedule`](crate::events::schedule) (tick, then departures before
//!   arrivals, each in item-id order);
//! * [`StreamingEngine`] takes one arrival or departure at a time, as a
//!   live dispatcher sees them: [`push_open_arrival`] places an item whose
//!   departure is not yet known, and [`push_departure`] removes it later;
//! * `dbp-cloudsim`'s `ResilientSystem` merges fault-plan inputs (crashes,
//!   boot completions, retries) into the same core through its pending-open
//!   and crash primitives.
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

use crate::bin::{BinId, BinTag};
use crate::demand::Demand;
use crate::engine::State;
use crate::item::{GArrivingItem, ItemId, RegionId, Size};
use crate::packer::{BinSelector, Decision};
use crate::probe::{GProbeEvent, Probe};
use crate::span::{stage, NoSpans, SpanRecorder};
use crate::time::Tick;
use crate::trace::GPackingTrace;
use std::fmt;

/// The one arrival/departure body every driver shares. It owns the
/// selector, the probe, the capacity and the arena, and every probe event
/// and selector hook of a bin's life; the drivers own the event order and
/// the open-bin step rule.
///
/// [`EngineRun`](crate::engine::EngineRun) and [`StreamingEngine`] take
/// whole arrivals (the crate's `arrive`: `ItemArrived`, then
/// [`decide`](EventCore::decide) then [`place`](EventCore::place)) and
/// departures ([`depart`](EventCore::depart)). The fault layer
/// (`dbp-cloudsim`'s `ResilientSystem`) calls the two arrival halves
/// itself, so an injected rejection or boot failure falls between them,
/// and adds three lifecycle steps the fault-free drivers never take:
///
/// * a **pending-open** bin: [`reserve`](EventCore::reserve) takes the id
///   of an `Open` decision whose server is still booting (not open, not in
///   the view mirror, not counted by [`open_bins`](EventCore::open_bins)),
///   and [`open_reserved`](EventCore::open_reserved) or
///   [`open_dead`](EventCore::open_dead) ends the boot;
///   [`burn`](EventCore::burn) spends an id whose boot failed outright;
/// * a **crash**: [`force_close`](EventCore::force_close) closes an open
///   bin with its members still inside and hands them back as orphans;
/// * a **re-dispatch**: `place` with `from: Some(bin)` re-places an
///   orphan and reports it as [`GProbeEvent::ItemRedispatched`].
pub struct EventCore<S, P, Sz> {
    pub(crate) capacity: Sz,
    pub(crate) selector: S,
    pub(crate) probe: P,
    pub(crate) keep_views: bool,
    pub(crate) st: State<Sz>,
}

impl<Sz: Demand, S: BinSelector<Sz>, P: Probe<Sz>> EventCore<S, P, Sz> {
    /// A core for bins of `capacity` whose per-item columns are pre-sized
    /// for item ids `0..n_items` (streaming callers start at 0 and grow).
    pub fn new(capacity: Sz, selector: S, probe: P, n_items: usize) -> Self {
        let keep_views = P::ENABLED || selector.needs_views();
        EventCore {
            capacity,
            selector,
            probe,
            keep_views,
            st: State::with_items(n_items),
        }
    }

    /// Place one arriving item: `ItemArrived` → [`decide`](Self::decide)
    /// → [`place`](Self::place) → `on_decision_ns`, all inside one
    /// `arrival` span. Returns the bin the item landed in.
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
        let decision = self.decide(spans, arriving);
        let bin = self.place(spans, arriving, decision, None);
        if let Some(started) = started {
            self.probe
                .on_decision_ns(started.elapsed().as_nanos() as u64);
        }
        if R::ENABLED {
            spans.exit();
        }
        bin
    }

    /// Ask the selector where `arriving` goes, inside a `decide` span.
    /// Changes no state of the core.
    #[inline]
    pub fn decide<R: SpanRecorder>(
        &mut self,
        spans: &mut R,
        arriving: &GArrivingItem<Sz>,
    ) -> Decision {
        if R::ENABLED {
            spans.enter(stage::DECIDE);
        }
        let decision = self
            .selector
            .select(&self.st.views, arriving, self.capacity);
        if R::ENABLED {
            spans.exit();
        }
        decision
    }

    /// Carry out `decision` for `arriving` at its `arrival` tick, inside a
    /// `place` span: validate it, update the arena, emit the probe events
    /// and notify the selector. `from` names the crashed bin when the item
    /// is an orphan being re-dispatched; its placement is then reported as
    /// `ItemRedispatched` rather than `ItemPlaced`. Returns the bin the
    /// item landed in.
    ///
    /// # Panics
    /// Panics if the decision names a bin that is not open or that the
    /// item does not fit — a selector bug.
    #[inline]
    pub fn place<R: SpanRecorder>(
        &mut self,
        spans: &mut R,
        arriving: &GArrivingItem<Sz>,
        decision: Decision,
        from: Option<BinId>,
    ) -> BinId {
        if R::ENABLED {
            spans.enter(stage::PLACE);
        }
        let bin = match decision {
            Decision::Use(id) => {
                self.place_in(arriving, id, from);
                id
            }
            Decision::Open { tag } => {
                let id = self.reserve(arriving, tag);
                self.open_reserved(id, arriving, from);
                id
            }
        };
        if R::ENABLED {
            spans.exit();
        }
        bin
    }

    /// Add `arriving` to open bin `id`.
    #[inline]
    fn place_in(&mut self, arriving: &GArrivingItem<Sz>, id: BinId, from: Option<BinId>) {
        let b = id.index();
        let (tick, item, size) = (arriving.arrival, arriving.id, arriving.size);
        assert!(
            b < self.st.is_open.len() && self.st.is_open[b],
            "{}: selected bin {id} is not open",
            self.selector.name()
        );
        let Some(level) = self.st.levels[b]
            .checked_add(size)
            .filter(|l| l.fits_within(self.capacity))
        else {
            panic!(
                "{}: item {} (size {}) does not fit bin {} (level {})",
                self.selector.name(),
                item,
                size,
                id,
                self.st.levels[b]
            );
        };
        self.st.levels[b] = level;
        self.st.add(b, item);
        if self.keep_views {
            let vpos = self
                .st
                .views
                .binary_search_by_key(&id, |v| v.id)
                .expect("open bin missing from view mirror");
            self.st.views[vpos].level = level;
            self.st.views[vpos].n_items += 1;
            if P::ENABLED {
                // Scan depth of a reuse: the chosen bin's 1-based
                // position in opening order.
                self.probe.record(GProbeEvent::FitAttempt {
                    at: tick,
                    item,
                    bins_scanned: vpos as u32 + 1,
                    open_bins: self.st.open_count as u32,
                });
                self.record_placed(tick, item, from, id, level);
            }
        }
        self.selector.on_item_placed(id, level);
    }

    /// `ItemPlaced`, or `ItemRedispatched` for an orphan from `from`.
    #[inline]
    fn record_placed(&mut self, at: Tick, item: ItemId, from: Option<BinId>, to: BinId, level: Sz) {
        self.probe.record(match from {
            None => GProbeEvent::ItemPlaced {
                at,
                item,
                bin: to,
                level,
            },
            Some(from) => GProbeEvent::ItemRedispatched {
                at,
                item,
                from,
                to,
                level,
            },
        });
    }

    /// Take the id of an `Open { tag }` decision for `arriving` without
    /// opening the bin: it stays pending until
    /// [`open_reserved`](Self::open_reserved) or
    /// [`open_dead`](Self::open_dead). Records the decision's
    /// `FitAttempt` (every open bin scanned and rejected).
    #[inline]
    pub fn reserve(&mut self, arriving: &GArrivingItem<Sz>, tag: BinTag) -> BinId {
        if P::ENABLED {
            self.probe.record(GProbeEvent::FitAttempt {
                at: arriving.arrival,
                item: arriving.id,
                bins_scanned: self.st.open_count as u32,
                open_bins: self.st.open_count as u32,
            });
        }
        self.st.reserve(tag, arriving.arrival)
    }

    /// Open pending bin `bin` at `arriving.arrival` with `arriving` as its
    /// first member (an orphan from `from` when re-dispatched). Returns the
    /// ticks the bin spent pending.
    #[inline]
    pub fn open_reserved(
        &mut self,
        bin: BinId,
        arriving: &GArrivingItem<Sz>,
        from: Option<BinId>,
    ) -> u64 {
        let (tick, item, size) = (arriving.arrival, arriving.id, arriving.size);
        let b = bin.index();
        debug_assert!(!self.st.is_open[b], "bin {bin} is already open");
        let pending = tick.0 - self.st.opened_at[b].0;
        let tag = self.st.tags[b];
        if P::ENABLED {
            self.probe.record(GProbeEvent::BinOpened {
                at: tick,
                bin,
                tag,
                item,
            });
            self.record_placed(tick, item, from, bin, size);
        }
        let capacity = self.keep_views.then_some(self.capacity);
        self.st.open(bin, item, size, tick, capacity);
        self.selector.on_bin_opened(bin, tag, size);
        pending
    }

    /// End pending bin `bin`'s boot at `tick` with nothing to run: the
    /// session of `item`, the one committed to it, ended while it booted.
    /// The bin opens and closes at once, empty. Returns the ticks it spent
    /// pending.
    pub fn open_dead(&mut self, bin: BinId, item: ItemId, tick: Tick) -> u64 {
        let b = bin.index();
        debug_assert!(!self.st.is_open[b], "bin {bin} is already open");
        let pending = tick.0 - self.st.opened_at[b].0;
        self.st.opened_at[b] = tick;
        self.st.closed_at[b] = tick;
        if P::ENABLED {
            self.probe.record(GProbeEvent::BinOpened {
                at: tick,
                bin,
                tag: self.st.tags[b],
                item,
            });
            self.probe.record(GProbeEvent::BinClosed {
                at: tick,
                bin,
                open_ticks: 0,
            });
        }
        self.selector.on_bin_closed(bin);
        pending
    }

    /// Spend the next bin id on a boot that failed before the bin ever
    /// opened. Selectors that predict ids by counting their own `Open`
    /// decisions (Next Fit) stay in step, and hear `on_bin_closed`.
    pub fn burn(&mut self, tick: Tick) {
        let id = self.st.reserve(BinTag::DEFAULT, tick);
        self.selector.on_bin_closed(id);
    }

    /// Crash open bin `bin` at `tick`: it closes with its members still
    /// inside (`BinCrashed`), and they are returned, in placement order,
    /// as orphans for the caller to re-place or drop.
    ///
    /// # Panics
    /// Panics if `bin` is not open.
    pub fn force_close(&mut self, bin: BinId, tick: Tick) -> Vec<ItemId> {
        assert!(
            self.st.is_open[bin.index()],
            "crash of bin {bin}, which is not open"
        );
        let orphans = self.st.evict(bin.index());
        if P::ENABLED {
            self.probe.record(GProbeEvent::BinCrashed {
                at: tick,
                bin,
                orphans: orphans.len() as u32,
            });
        }
        self.st.shut(bin, tick, self.keep_views);
        self.selector.on_bin_closed(bin);
        orphans
    }

    /// Remove item `id` (of the given `size`) at `tick` inside one
    /// `departure` span, closing its bin if it empties.
    #[inline]
    pub fn depart<R: SpanRecorder>(&mut self, spans: &mut R, id: ItemId, size: Sz, tick: Tick) {
        if R::ENABLED {
            spans.enter(stage::DEPARTURE);
        }
        let bin =
            self.st.assignment[id.index()].expect("departure for an item that was never packed");
        let b = bin.index();
        assert!(self.st.is_open[b], "departure from a closed bin");
        let level = self.st.levels[b].sub(size);
        self.st.levels[b] = level;
        debug_assert!(self.st.n_items[b] > 0, "membership list out of sync");
        self.st.unlink(b, id.index());
        let emptied = self.st.n_items[b] == 0;
        if self.keep_views && !emptied {
            let vpos = self
                .st
                .views
                .binary_search_by_key(&bin, |v| v.id)
                .expect("open bin missing from view mirror");
            self.st.views[vpos].level = level;
            self.st.views[vpos].n_items -= 1;
        }
        if P::ENABLED {
            self.probe.record(GProbeEvent::ItemDeparted {
                at: tick,
                item: id,
                bin,
                level,
            });
        }
        self.selector.on_item_departed(bin, level);
        if emptied {
            debug_assert!(level.is_zero(), "empty bin with nonzero level");
            if P::ENABLED {
                self.probe.record(GProbeEvent::BinClosed {
                    at: tick,
                    bin,
                    open_ticks: tick.0 - self.st.opened_at[b].0,
                });
            }
            self.st.shut(bin, tick, self.keep_views);
            self.selector.on_bin_closed(bin);
        }
        if R::ENABLED {
            spans.exit();
        }
    }

    /// Bins currently open (pending bins excluded).
    pub fn open_bins(&self) -> usize {
        self.st.open_count
    }

    /// The `k`-th open bin in id order, if `k < open_bins()`.
    pub fn nth_open_bin(&self, k: usize) -> Option<BinId> {
        self.st
            .is_open
            .iter()
            .enumerate()
            .filter(|(_, &open)| open)
            .nth(k)
            .map(|(b, _)| BinId(b as u32))
    }

    /// Each reserved bin's open span, `closed_at - opened_at`, in id
    /// order: 0 for a bin that never opened, or that opened and closed at
    /// the same tick.
    pub fn bin_spans(&self) -> impl Iterator<Item = u64> + '_ {
        self.st
            .opened_at
            .iter()
            .zip(&self.st.closed_at)
            .map(|(o, c)| c.0 - o.0)
    }

    /// Mutably borrow the probe, for a driver's own events.
    pub fn probe_mut(&mut self) -> &mut P {
        &mut self.probe
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
    fn pending_bins_open_late_and_crashes_hand_back_orphans_in_placement_order() {
        let item = |id, at, size| GArrivingItem {
            id: ItemId(id),
            arrival: Tick(at),
            size: Size(size),
            region: RegionId::GLOBAL,
        };
        let mut events = Vec::new();
        {
            let mut core = EventCore::new(
                Size(10),
                FirstFit::new(),
                FnProbe::new(|ev: GProbeEvent<Size>| events.push(ev)),
                4,
            );
            // Bin 0 boots until tick 3; bin 1's boot fails; bin 2 opens at once.
            let b0 = core.reserve(&item(0, 0, 6), BinTag::DEFAULT);
            core.burn(Tick(0));
            let d = core.decide(&mut NoSpans, &item(1, 1, 6));
            let b2 = core.place(&mut NoSpans, &item(1, 1, 6), d, None);
            assert_eq!((b0, b2, core.open_bins()), (BinId(0), BinId(2), 1));
            assert_eq!(core.open_reserved(b0, &item(0, 3, 6), None), 3);
            let open: Vec<BinId> = core.st.views.iter().map(|v| v.id).collect();
            assert_eq!(open, [BinId(0), BinId(2)], "late open is a sorted insert");
            assert_eq!(core.nth_open_bin(1), Some(BinId(2)));
            for (id, size) in [(2, 3), (3, 1)] {
                let d = core.decide(&mut NoSpans, &item(id, 4, size));
                assert_eq!(core.place(&mut NoSpans, &item(id, 4, size), d, None), b0);
            }
            core.depart(&mut NoSpans, ItemId(2), Size(3), Tick(4));
            assert_eq!(core.force_close(b0, Tick(5)), [ItemId(0), ItemId(3)]);
            assert_eq!(core.open_bins(), 1);
            let d = core.decide(&mut NoSpans, &item(0, 5, 6));
            assert_eq!(
                core.place(&mut NoSpans, &item(0, 5, 6), d, Some(b0)),
                BinId(3)
            );
            let spans: Vec<u64> = core.bin_spans().collect();
            assert_eq!(spans, [2, 0, 0, 0]);
        }
        assert!(events.contains(&GProbeEvent::BinCrashed {
            at: Tick(5),
            bin: BinId(0),
            orphans: 2
        }));
        assert!(events.contains(&GProbeEvent::ItemRedispatched {
            at: Tick(5),
            item: ItemId(0),
            from: BinId(0),
            to: BinId(3),
            level: Size(6)
        }));
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
