//! The event core: the one arrival and departure body every driver feeds.
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
//! * `dbp-cloudsim`'s `ResilientSystem` merges fault-plan inputs (crashes,
//!   boot completions, retries) into the same core through its pending-open
//!   and crash primitives;
//! * `dbp-serve`'s shard pipeline takes one arrival or departure at a time,
//!   as a live dispatcher sees them: it places a session whose departure is
//!   not yet known, grows the per-item columns with
//!   [`ensure_item`](EventCore::ensure_item) as ids are handed out, and
//!   keeps its own session map, horizon and admission checks.
//!
//! Fed an instance's schedule in order, the shard pipeline journals the
//! same bytes as [`simulate_probed`](crate::engine::simulate_probed) with a
//! journal probe; `dbp-serve`'s `pipeline_equivalence` proptest keeps this
//! honest across every shipped selector.

use crate::bin::{BinId, BinTag};
use crate::demand::Demand;
use crate::engine::State;
use crate::item::{GArrivingItem, ItemId};
use crate::packer::{BinSelector, Decision};
use crate::probe::{GProbeEvent, Probe};
use crate::span::{stage, SpanRecorder};
use crate::time::Tick;
use crate::trace::GPackingTrace;

/// The one arrival/departure body every driver shares. It owns the
/// selector, the probe, the capacity and the arena, and every probe event
/// and selector hook of a bin's life; the drivers own the event order and
/// the open-bin step rule.
///
/// [`EngineRun`](crate::engine::EngineRun) and the serve shard take whole
/// arrivals ([`arrive`](EventCore::arrive): `ItemArrived`, then
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
    /// for item ids `0..n_items` (a live driver starts at 0 and grows them
    /// with [`ensure_item`](Self::ensure_item)).
    pub fn new(capacity: Sz, selector: S, probe: P, n_items: usize) -> Self {
        let keep_views = selector.needs_views();
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
    pub fn arrive<R: SpanRecorder>(
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
        // per-arrival cost users actually observe. Only a probe that
        // consumes the reading pays for the clock.
        let started = if P::TIMED {
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
        }
        if P::ENABLED {
            // Scan depth of a reuse: the chosen bin's 1-based position
            // among the open bins in id (opening) order.
            self.probe.record(GProbeEvent::FitAttempt {
                at: tick,
                item,
                bins_scanned: self.st.open_rank.below(b) + 1,
                open_bins: self.st.open_count as u32,
            });
            self.record_placed(tick, item, from, id, level);
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
        if P::ENABLED {
            self.st.open_rank.open(b);
        }
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
        self.shut(bin, tick);
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
            self.shut(bin, tick);
        }
        if R::ENABLED {
            spans.exit();
        }
    }

    /// Close open bin `bin` at `tick` in the arena, the view mirror and the
    /// scan rank, and tell the selector.
    #[inline]
    fn shut(&mut self, bin: BinId, tick: Tick) {
        self.st.shut(bin, tick, self.keep_views);
        if P::ENABLED {
            self.st.open_rank.close(bin.index());
        }
        self.selector.on_bin_closed(bin);
    }

    /// Grow the per-item columns so item `id` can be placed. A no-op when
    /// they already cover it.
    pub fn ensure_item(&mut self, id: ItemId) {
        self.st.ensure_item(id.index());
    }

    /// Bins currently open (pending bins excluded).
    pub fn open_bins(&self) -> usize {
        self.st.open_count
    }

    /// Bin ids ever taken: every bin ever opened, plus any pending or
    /// burnt boot.
    pub fn bins_opened(&self) -> usize {
        self.st.bins()
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

    /// Build the trace from a finished run's arena.
    ///
    /// # Panics
    /// Panics if some item id below the per-item columns' length was never
    /// placed (the trace's assignment table is indexed by id).
    pub(crate) fn into_trace(self) -> GPackingTrace<Sz> {
        let bins = self.st.materialize_records();
        let assignment = self
            .st
            .assignment
            .into_iter()
            .enumerate()
            .map(|(i, b)| {
                b.unwrap_or_else(|| {
                    panic!("unpacked item {} at end of simulation", ItemId(i as u32))
                })
            })
            .collect();
        GPackingTrace {
            algorithm: self.selector.name().to_string(),
            capacity: self.capacity,
            bins,
            assignment,
            open_bins_steps: self.st.steps,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algorithms::FirstFit;
    use crate::item::{RegionId, Size};
    use crate::probe::FnProbe;
    use crate::span::NoSpans;

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
}
