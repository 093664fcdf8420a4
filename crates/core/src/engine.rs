//! The batch packing engine: an instance's event schedule, driven through
//! the shared event core.
//!
//! [`EngineRun`] sorts an instance's events once ([`schedule`]: tick,
//! then departures before arrivals, each in item-id order) and feeds them,
//! one [`step`](EngineRun::step) at a time, to the arrival and departure
//! bodies every driver shares ([`crate::event_core`]). The selector is
//! consulted on every arrival, and
//! the run records a [`PackingTrace`]. All accounting is exact integer
//! arithmetic.
//!
//! A run is a deterministic function of the instance and the selector, so
//! a journaled run is recovered by running it again under a
//! [`VerifyProbe`] that checks every re-emitted event against the journal
//! and forwards only the continuation; [`simulate`] and
//! [`simulate_probed`] are the one-shot `new(..).finish()`.
//!
//! [`VerifyProbe`]: crate::probe::VerifyProbe
//! [`PackingTrace`]: crate::trace::PackingTrace

use crate::bin::{BinId, BinTag, GOpenBinView};
use crate::demand::Demand;
use crate::event_core::EventCore;
use crate::events::{schedule, Event, EventKind};
use crate::instance::GInstance;
use crate::item::{GArrivingItem, ItemId, Size};
use crate::packer::BinSelector;
use crate::probe::{GProbeEvent, NoProbe, Probe};
use crate::span::{NoSpans, SpanRecorder};
use crate::time::Tick;
use crate::trace::{BinRecord, GPackingTrace};

/// Simulate packing `instance` with `selector`, producing the full trace.
///
/// Equivalent to [`simulate_probed`] with [`NoProbe`]; the probe seam
/// compiles away entirely on this path.
///
/// # Panics
/// Panics if the selector returns an invalid decision (unknown bin, or a bin
/// the item does not fit) — that is a bug in the algorithm under test, and
/// continuing would corrupt every measurement derived from the trace.
pub fn simulate<Sz: Demand, S: BinSelector<Sz> + ?Sized>(
    instance: &GInstance<Sz>,
    selector: &mut S,
) -> GPackingTrace<Sz> {
    simulate_probed(instance, selector, &mut NoProbe)
}

/// Simulate packing `instance` with `selector`, reporting every engine
/// event to `probe` (see [`crate::probe`] for the event vocabulary and the
/// zero-cost contract).
///
/// # Panics
/// Same contract as [`simulate`].
pub fn simulate_probed<Sz: Demand, S: BinSelector<Sz> + ?Sized, P: Probe<Sz>>(
    instance: &GInstance<Sz>,
    selector: &mut S,
    probe: &mut P,
) -> GPackingTrace<Sz> {
    EngineRun::new(instance, selector, probe).finish()
}

/// Sentinel for "no item" in the intrusive membership lists.
pub(crate) const NO_ITEM: u32 = u32::MAX;

/// Dense per-bin engine state as a struct-of-arrays flat arena: every
/// per-bin attribute is its own `Vec` indexed directly by bin id (ids are
/// assigned 0, 1, 2, … in reservation order and never reused), and bin
/// membership is an intrusive doubly-linked list threaded through two
/// per-item arrays sized once at construction. The arrival path therefore
/// performs **no per-arrival heap allocation**: placing an item is a
/// handful of array writes (opening a bin appends one element to each bin
/// column, which is amortized O(1) with no per-bin `Vec` to allocate).
///
/// A bin id is [`reserve`](State::reserve)d before the bin
/// [`open`](State::open)s. The batch and serve drivers do both at the
/// same arrival; the fault layer may leave a reserved bin *pending* while
/// it boots (not open, not in the view mirror, not counted in
/// `open_count`), or never open it at all.
///
/// The nested `BinRecord` item lists a [`PackingTrace`] exposes are
/// materialized on demand from this arena — `finish()` is a cold path.
///
/// Owned by the shared [`EventCore`], which wraps these primitives in the
/// probe events and selector hooks. A live driver starts it empty and
/// grows the per-item columns on demand via [`State::ensure_item`].
pub(crate) struct State<Sz> {
    // ---- per-bin columns, indexed by bin id ----
    pub(crate) levels: Vec<Sz>,
    pub(crate) tags: Vec<BinTag>,
    /// The tick the bin opened (its reservation tick while pending).
    pub(crate) opened_at: Vec<Tick>,
    /// Placeholder (== `opened_at`) until the bin closes.
    pub(crate) closed_at: Vec<Tick>,
    pub(crate) is_open: Vec<bool>,
    /// First / last current member of the bin (`NO_ITEM` when empty).
    head: Vec<u32>,
    tail: Vec<u32>,
    /// Current member count of the bin.
    pub(crate) n_items: Vec<u32>,
    pub(crate) open_count: usize,
    // ---- per-item columns, sized `instance.len()` by the batch driver ----
    /// Intrusive membership links: `next_in_bin[i]` / `prev_in_bin[i]`
    /// chain item `i` into its bin's current member list, in placement
    /// order. Stale once the item leaves the bin.
    next_in_bin: Vec<u32>,
    prev_in_bin: Vec<u32>,
    pub(crate) assignment: Vec<Option<BinId>>,
    /// Append-only placement log in decision order; capacity reserved for
    /// the whole instance upfront, so pushes never reallocate.
    placed: Vec<ItemId>,
    /// Selector-facing mirror of the open set, ascending id, updated
    /// incrementally (one entry per state change instead of a full rebuild
    /// per arrival). Kept only for selectors that read it
    /// ([`BinSelector::needs_views`]); empty otherwise.
    pub(crate) views: Vec<GOpenBinView<Sz>>,
    /// Open bins counted over bin ids, for the scan rank a probed run
    /// reports; maintained only when a probe is attached.
    pub(crate) open_rank: OpenRank,
    pub(crate) steps: Vec<(Tick, u32)>,
}

impl<Sz: Demand> State<Sz> {
    /// An empty arena with the per-item columns pre-sized for `n` items.
    /// Streaming callers may start at `n = 0` and grow via
    /// [`State::ensure_item`].
    pub(crate) fn with_items(n: usize) -> State<Sz> {
        State {
            levels: Vec::new(),
            tags: Vec::new(),
            opened_at: Vec::new(),
            closed_at: Vec::new(),
            is_open: Vec::new(),
            head: Vec::new(),
            tail: Vec::new(),
            n_items: Vec::new(),
            open_count: 0,
            next_in_bin: vec![NO_ITEM; n],
            prev_in_bin: vec![NO_ITEM; n],
            assignment: vec![None; n],
            placed: Vec::with_capacity(n),
            views: Vec::new(),
            open_rank: OpenRank::default(),
            steps: Vec::new(),
        }
    }

    /// Grow the per-item columns so index `idx` is addressable. No-op when
    /// the columns already cover it.
    pub(crate) fn ensure_item(&mut self, idx: usize) {
        if idx >= self.assignment.len() {
            self.next_in_bin.resize(idx + 1, NO_ITEM);
            self.prev_in_bin.resize(idx + 1, NO_ITEM);
            self.assignment.resize(idx + 1, None);
        }
    }

    /// Number of bin ids ever reserved (every bin ever opened, plus any
    /// the fault layer reserved and never opened).
    #[inline]
    pub(crate) fn bins(&self) -> usize {
        self.levels.len()
    }

    /// Append item `i` to bin `b`'s member list in O(1).
    #[inline]
    fn link(&mut self, b: usize, i: usize) {
        let t = self.tail[b];
        self.prev_in_bin[i] = t;
        self.next_in_bin[i] = NO_ITEM;
        if t == NO_ITEM {
            self.head[b] = i as u32;
        } else {
            self.next_in_bin[t as usize] = i as u32;
        }
        self.tail[b] = i as u32;
        self.n_items[b] += 1;
    }

    /// Remove item `i` from bin `b`'s member list in O(1).
    #[inline]
    pub(crate) fn unlink(&mut self, b: usize, i: usize) {
        let p = self.prev_in_bin[i];
        let nx = self.next_in_bin[i];
        if p == NO_ITEM {
            self.head[b] = nx;
        } else {
            self.next_in_bin[p as usize] = nx;
        }
        if nx == NO_ITEM {
            self.tail[b] = p;
        } else {
            self.prev_in_bin[nx as usize] = p;
        }
        self.n_items[b] -= 1;
    }

    /// Record `item` as a member of bin `b`: link it, log the placement and
    /// point its assignment at `b`.
    #[inline]
    pub(crate) fn add(&mut self, b: usize, item: ItemId) {
        self.link(b, item.index());
        self.placed.push(item);
        self.assignment[item.index()] = Some(BinId(b as u32));
    }

    /// Reserve the next bin id, carrying `tag`, at `tick`: the bin is
    /// pending until [`open`](State::open)ed.
    #[inline]
    pub(crate) fn reserve(&mut self, tag: BinTag, tick: Tick) -> BinId {
        let id = BinId(self.bins() as u32);
        self.levels.push(Sz::ZERO);
        self.tags.push(tag);
        self.opened_at.push(tick);
        // Placeholder; overwritten when the bin closes.
        self.closed_at.push(tick);
        self.is_open.push(false);
        self.head.push(NO_ITEM);
        self.tail.push(NO_ITEM);
        self.n_items.push(0);
        id
    }

    /// Open the reserved bin `bin` at `tick` holding `item` (of `size`)
    /// as its first member. `capacity` is `Some` when the view mirror is
    /// kept.
    #[inline]
    pub(crate) fn open(
        &mut self,
        bin: BinId,
        item: ItemId,
        size: Sz,
        tick: Tick,
        capacity: Option<Sz>,
    ) {
        let b = bin.index();
        self.levels[b] = size;
        self.opened_at[b] = tick;
        self.closed_at[b] = tick;
        self.is_open[b] = true;
        self.open_count += 1;
        self.add(b, item);
        if let Some(capacity) = capacity {
            let view = GOpenBinView {
                id: bin,
                opened_at: tick,
                level: size,
                capacity,
                n_items: 1,
                tag: self.tags[b],
            };
            // A bin opening at its reservation holds the largest id so
            // far; one that finished a boot may sit below later ids.
            match self.views.last() {
                Some(last) if last.id > bin => {
                    let pos = self.views.partition_point(|v| v.id < bin);
                    self.views.insert(pos, view);
                }
                _ => self.views.push(view),
            }
        }
    }

    /// Mark open bin `b` closed at `tick`, dropping it from the view
    /// mirror when one is kept.
    #[inline]
    pub(crate) fn shut(&mut self, bin: BinId, tick: Tick, keep_views: bool) {
        let b = bin.index();
        self.closed_at[b] = tick;
        self.is_open[b] = false;
        self.open_count -= 1;
        if keep_views {
            let vpos = self
                .views
                .binary_search_by_key(&bin, |v| v.id)
                .expect("open bin missing from view mirror");
            self.views.remove(vpos);
        }
    }

    /// Empty bin `b` at once, returning its current members in placement
    /// order (walking the intrusive member list).
    pub(crate) fn evict(&mut self, b: usize) -> Vec<ItemId> {
        let mut members = Vec::with_capacity(self.n_items[b] as usize);
        let mut i = self.head[b];
        while i != NO_ITEM {
            members.push(ItemId(i));
            i = self.next_in_bin[i as usize];
        }
        self.head[b] = NO_ITEM;
        self.tail[b] = NO_ITEM;
        self.n_items[b] = 0;
        self.levels[b] = Sz::ZERO;
        members
    }

    /// Materialize the full per-bin lifetime records from the columns and
    /// the placement log: `items` holds every item ever placed in the bin,
    /// in placement order.
    pub(crate) fn materialize_records(&self) -> Vec<BinRecord> {
        let mut items: Vec<Vec<ItemId>> = vec![Vec::new(); self.bins()];
        for &it in &self.placed {
            let b = self.assignment[it.index()].expect("placed item lacks an assignment");
            items[b.index()].push(it);
        }
        items
            .into_iter()
            .enumerate()
            .map(|(b, items)| BinRecord {
                id: BinId(b as u32),
                tag: self.tags[b],
                opened_at: self.opened_at[b],
                closed_at: self.closed_at[b],
                items,
            })
            .collect()
    }

    /// Record the open-bin count at the end of `tick`'s batch, deduplicating
    /// consecutive equal counts. [`EngineRun`] calls this after a tick's
    /// last schedule event.
    #[inline]
    pub(crate) fn record_step(&mut self, tick: Tick) {
        let n = self.open_count as u32;
        match self.steps.last() {
            Some(&(_, last_n)) if last_n == n => {}
            _ => self.steps.push((tick, n)),
        }
    }
}

/// Open-bin counts over bin ids as a Fenwick (binary indexed) tree. The
/// scan rank of a placement, the chosen bin's position among the open bins
/// in id order, is a prefix sum: O(log B) for `B` bins ever reserved,
/// against the O(open bins) upkeep of a sorted mirror. Pending bins are not
/// counted until they open.
#[derive(Debug, Default)]
pub(crate) struct OpenRank {
    /// `tree[i - 1]` sums the counts of ids `i - lowbit(i) .. i` (0-based,
    /// half-open), the classic 1-based layout stored from index 0.
    tree: Vec<u32>,
}

impl OpenRank {
    /// Count bin `b` as open, growing the tree to cover it.
    #[inline]
    pub(crate) fn open(&mut self, b: usize) {
        while self.tree.len() <= b {
            // A new zero entry at 1-based `i` covers ids `i - lowbit(i) ..
            // i - 1` already in the tree.
            let i = self.tree.len() + 1;
            let covered = self.below(i - 1) - self.below(i - (i & i.wrapping_neg()));
            self.tree.push(covered);
        }
        let mut i = b + 1;
        while i <= self.tree.len() {
            self.tree[i - 1] += 1;
            i += i & i.wrapping_neg();
        }
    }

    /// Stop counting open bin `b`.
    #[inline]
    pub(crate) fn close(&mut self, b: usize) {
        let mut i = b + 1;
        while i <= self.tree.len() {
            self.tree[i - 1] -= 1;
            i += i & i.wrapping_neg();
        }
    }

    /// Open bins with an id below `b` (`b` at most the tree's length).
    #[inline]
    pub(crate) fn below(&self, b: usize) -> u32 {
        let (mut i, mut sum) = (b, 0);
        while i > 0 {
            sum += self.tree[i - 1];
            i &= i - 1;
        }
        sum
    }
}

/// A stepping handle on one packing run: the batch driver over the shared
/// event core.
///
/// Drive it with [`step`](EngineRun::step) (one schedule event at a time)
/// and [`finish`](EngineRun::finish) to obtain the trace.
pub struct EngineRun<
    'a,
    S: BinSelector<Sz> + ?Sized,
    P: Probe<Sz>,
    R: SpanRecorder = NoSpans,
    Sz: Demand = Size,
> {
    instance: &'a GInstance<Sz>,
    events: Vec<Event>,
    /// Index of the next schedule event to process.
    cursor: usize,
    spans: R,
    core: EventCore<&'a mut S, &'a mut P, Sz>,
}

impl<'a, Sz: Demand, S: BinSelector<Sz> + ?Sized, P: Probe<Sz>> EngineRun<'a, S, P, NoSpans, Sz> {
    /// Start a fresh run at the beginning of the schedule.
    pub fn new(instance: &'a GInstance<Sz>, selector: &'a mut S, probe: &'a mut P) -> Self {
        EngineRun::traced(instance, selector, probe, NoSpans)
    }
}

impl<'a, Sz: Demand, S: BinSelector<Sz> + ?Sized, P: Probe<Sz>, R: SpanRecorder>
    EngineRun<'a, S, P, R, Sz>
{
    /// Start a fresh run with a [`SpanRecorder`] attached: every arrival is
    /// wrapped in an `arrival` span containing `decide` (the selector call)
    /// and `place` (the engine's bookkeeping), and every departure in a
    /// `departure` span. Pass `&mut recorder` to keep ownership of the
    /// recorder across the run; pass [`NoSpans`] to get [`new`] exactly.
    ///
    /// [`new`]: EngineRun::new
    pub fn traced(
        instance: &'a GInstance<Sz>,
        selector: &'a mut S,
        probe: &'a mut P,
        spans: R,
    ) -> Self {
        EngineRun {
            instance,
            events: schedule(instance),
            cursor: 0,
            spans,
            core: EventCore::new(instance.capacity(), selector, probe, instance.len()),
        }
    }

    /// Process the next schedule event. Returns `false` when the schedule
    /// is exhausted (the run is complete).
    ///
    /// # Panics
    /// Same contract as [`simulate`]: an invalid selector decision panics.
    pub fn step(&mut self) -> bool {
        let Some(&ev) = self.events.get(self.cursor) else {
            return false;
        };
        let item = self.instance.item(ev.item);
        match ev.kind {
            EventKind::Departure => self.core.depart(&mut self.spans, ev.item, item.size, ev.at),
            EventKind::Arrival => {
                self.core.arrive(&mut self.spans, &GArrivingItem::of(item));
            }
        }
        self.advance(ev.at);
        true
    }

    /// Move past the event just processed at `tick`, recording the open-bin
    /// count if it was the last event of `tick`'s batch.
    #[inline]
    fn advance(&mut self, tick: Tick) {
        self.cursor += 1;
        if self.cursor == self.events.len() || self.events[self.cursor].at != tick {
            self.core.st.record_step(tick);
        }
    }

    /// Number of schedule events processed so far.
    pub fn events_processed(&self) -> usize {
        self.cursor
    }

    /// Total number of events in the schedule (2× the item count).
    pub fn events_total(&self) -> usize {
        self.events.len()
    }

    /// Whether the whole schedule has been processed.
    pub fn is_done(&self) -> bool {
        self.cursor == self.events.len()
    }

    /// The probe the run reports to.
    pub fn probe(&self) -> &P {
        self.core.probe
    }

    /// Run the schedule to completion and produce the trace.
    ///
    /// # Panics
    /// Same contract as [`simulate`].
    pub fn finish(mut self) -> GPackingTrace<Sz> {
        while self.step() {}
        assert!(
            self.core.st.open_count == 0,
            "engine invariant: all bins must close by the last departure"
        );
        debug_assert!(self.core.st.views.is_empty(), "view mirror leaked entries");
        self.core.into_trace()
    }
}

/// Convenience: simulate and panic (with the violation list) if the trace
/// fails self-validation. Intended for tests and experiments, where a
/// corrupt trace must never be silently measured.
pub fn simulate_validated<Sz: Demand, S: BinSelector<Sz> + ?Sized>(
    instance: &GInstance<Sz>,
    selector: &mut S,
) -> GPackingTrace<Sz> {
    simulate_validated_probed(instance, selector, &mut NoProbe)
}

/// [`simulate_validated`] with a probe attached: the run, then
/// [`validate_probed`].
pub fn simulate_validated_probed<Sz: Demand, S: BinSelector<Sz> + ?Sized, P: Probe<Sz>>(
    instance: &GInstance<Sz>,
    selector: &mut S,
    probe: &mut P,
) -> GPackingTrace<Sz> {
    let trace = simulate_probed(instance, selector, probe);
    if let Err(e) = validate_probed(instance, &trace, probe) {
        panic!("{e}");
    }
    trace
}

/// [`GPackingTrace::validate`], with each violation reported to `probe` as
/// a [`GProbeEvent::Violation`] event (so event logs and journals capture
/// *why* a run died). The `Err` renders the whole list.
pub fn validate_probed<Sz: Demand, P: Probe<Sz>>(
    instance: &GInstance<Sz>,
    trace: &GPackingTrace<Sz>,
    probe: &mut P,
) -> Result<(), String> {
    let errs = trace.validate(instance);
    if errs.is_empty() {
        return Ok(());
    }
    if P::ENABLED {
        for err in &errs {
            probe.record(GProbeEvent::Violation {
                at: Tick(0),
                message: err.clone(),
            });
        }
    }
    Err(format!(
        "trace validation failed for {}:\n{}",
        trace.algorithm,
        errs.join("\n")
    ))
}

/// Check the Any Fit property on a trace: no bin was opened while an already
/// open bin could have accommodated the item. Returns offending item ids.
///
/// This replays the trace against the instance (the
/// [`validate`](GPackingTrace::validate) sweep, at O(open bins) per bin
/// opening), so it is independent of the selector implementation — used
/// by property tests to certify that FF, BF, WF etc. really are Any Fit
/// algorithms. A corrupt trace never panics it.
pub fn any_fit_violations<Sz: Demand>(
    instance: &GInstance<Sz>,
    trace: &GPackingTrace<Sz>,
) -> Vec<ItemId> {
    let capacity = instance.capacity();
    let mut violations = Vec::new();
    trace.sweep(instance, |item, open| {
        let fits = |&(_, level): &(BinId, Sz)| {
            level
                .checked_add(item.size)
                .is_some_and(|x| x.fits_within(capacity))
        };
        if open.iter().any(fits) {
            violations.push(item.id);
        }
    });
    violations
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bin::{BinTag, OpenBinView};
    use crate::instance::InstanceBuilder;
    use crate::item::{ArrivingItem, Size};
    use crate::packer::Decision;

    /// Packs every item into a brand-new bin (the b.3 upper bound).
    struct AlwaysOpen;
    impl BinSelector for AlwaysOpen {
        fn name(&self) -> &'static str {
            "ALWAYS-OPEN"
        }
        fn select(
            &mut self,
            _bins: &[OpenBinView],
            _item: &ArrivingItem,
            _capacity: Size,
        ) -> Decision {
            Decision::OPEN
        }
    }

    /// First Fit written directly against the trait, for engine tests that
    /// must not depend on the algorithms module.
    struct NaiveFirstFit;
    impl BinSelector for NaiveFirstFit {
        fn name(&self) -> &'static str {
            "NAIVE-FF"
        }
        fn select(
            &mut self,
            bins: &[OpenBinView],
            item: &ArrivingItem,
            _capacity: Size,
        ) -> Decision {
            bins.iter()
                .find(|b| b.fits(item.size))
                .map(|b| Decision::Use(b.id))
                .unwrap_or(Decision::OPEN)
        }
        fn is_any_fit(&self) -> bool {
            true
        }
    }

    fn demo_instance() -> crate::instance::Instance {
        let mut b = InstanceBuilder::new(10);
        b.add(0, 10, 6); // r0
        b.add(0, 4, 6); // r1: does not fit with r0 -> second bin
        b.add(2, 8, 4); // r2: fits bin 0 beside r0
        b.add(5, 9, 6); // r3: arrives after r1 left -> bin 1 closed at 4, so new bin under FF? bin1 closed, bin0 has 6+4=10
        b.build().unwrap()
    }

    #[test]
    fn always_open_gives_b3_cost() {
        let inst = demo_instance();
        let trace = simulate_validated(&inst, &mut AlwaysOpen);
        assert_eq!(trace.bins_used(), 4);
        let sum_len: u128 = inst
            .items()
            .iter()
            .map(|r| r.interval_len().0 as u128)
            .sum();
        assert_eq!(trace.total_cost_ticks(), sum_len);
    }

    #[test]
    fn first_fit_packs_and_closes_bins() {
        let inst = demo_instance();
        let trace = simulate_validated(&inst, &mut NaiveFirstFit);
        // r0 -> b0; r1 (6) does not fit (6+6>10) -> b1; r2 (4) fits b0;
        // r1 departs at 4 closing b1; r3 (6) at t=5: b0 level 10 -> b2.
        assert_eq!(trace.bins_used(), 3);
        assert_eq!(trace.bin_of(ItemId(0)), BinId(0));
        assert_eq!(trace.bin_of(ItemId(1)), BinId(1));
        assert_eq!(trace.bin_of(ItemId(2)), BinId(0));
        assert_eq!(trace.bin_of(ItemId(3)), BinId(2));
        // b0: [0,10), b1: [0,4), b2: [5,9) -> 10 + 4 + 4 = 18.
        assert_eq!(trace.total_cost_ticks(), 18);
        assert_eq!(trace.max_open_bins(), 2);
        assert!(any_fit_violations(&inst, &trace).is_empty());
    }

    #[test]
    fn always_open_violates_any_fit() {
        let mut b = InstanceBuilder::new(10);
        b.add(0, 5, 2);
        b.add(1, 5, 2); // would fit in the first bin
        let inst = b.build().unwrap();
        let trace = simulate_validated(&inst, &mut AlwaysOpen);
        assert_eq!(any_fit_violations(&inst, &trace), vec![ItemId(1)]);
    }

    #[test]
    fn departure_before_arrival_at_same_tick_reuses_bin_space() {
        let mut b = InstanceBuilder::new(10);
        b.add(0, 5, 10); // fills bin 0, departs at 5
        b.add(5, 8, 10); // arrives at 5: must fit bin 0? No - bin closed at 5.
        let inst = b.build().unwrap();
        let trace = simulate_validated(&inst, &mut NaiveFirstFit);
        // Bin 0 closes at tick 5 (all items gone), so the second item opens
        // a new bin; the point is the engine does not crash on the same-tick
        // departure/arrival and the step function stays at 1.
        assert_eq!(trace.bins_used(), 2);
        assert_eq!(trace.max_open_bins(), 1);
        assert_eq!(trace.total_cost_ticks(), 8);
    }

    #[test]
    fn same_tick_departure_frees_capacity_in_surviving_bin() {
        let mut b = InstanceBuilder::new(10);
        b.add(0, 5, 6); // departs at 5
        b.add(0, 9, 4); // keeps bin 0 alive
        b.add(5, 9, 6); // arrives at 5; fits bin 0 only if the departure ran first
        let inst = b.build().unwrap();
        let trace = simulate_validated(&inst, &mut NaiveFirstFit);
        assert_eq!(trace.bins_used(), 1);
        assert_eq!(trace.total_cost_ticks(), 9);
    }

    #[test]
    fn empty_instance_yields_empty_trace() {
        let inst = crate::instance::Instance::new(crate::item::Size(5), vec![]).unwrap();
        let trace = simulate_validated(&inst, &mut NaiveFirstFit);
        assert_eq!(trace.bins_used(), 0);
        assert_eq!(trace.total_cost_ticks(), 0);
        assert!(trace.open_bins_steps.is_empty());
    }

    #[test]
    fn step_function_integral_matches_usage_sum() {
        let inst = demo_instance();
        for sel in [&mut NaiveFirstFit as &mut dyn BinSelector, &mut AlwaysOpen] {
            let trace = simulate(&inst, sel);
            assert_eq!(trace.total_cost_ticks(), trace.cost_from_step_function());
        }
    }

    #[test]
    #[should_panic(expected = "does not fit")]
    fn engine_panics_on_selector_overflow_bug() {
        struct Buggy;
        impl BinSelector for Buggy {
            fn name(&self) -> &'static str {
                "BUGGY"
            }
            fn select(
                &mut self,
                bins: &[OpenBinView],
                _item: &ArrivingItem,
                _capacity: Size,
            ) -> Decision {
                match bins.first() {
                    Some(b) => Decision::Use(b.id),
                    None => Decision::Open {
                        tag: BinTag::DEFAULT,
                    },
                }
            }
        }
        let mut b = InstanceBuilder::new(10);
        b.add(0, 5, 8);
        b.add(0, 5, 8);
        let inst = b.build().unwrap();
        let _ = simulate(&inst, &mut Buggy);
    }

    #[test]
    fn open_rank_counts_open_bins_below_every_id() {
        // Opens out of id order (a boot that finishes late), closes, and
        // reopened gaps, checked against a plain count after every step.
        let mut rank = OpenRank::default();
        let mut open = [false; 40];
        let mut state = 7u64;
        for _ in 0..2000 {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let b = (state >> 33) as usize % open.len();
            if open[b] {
                rank.close(b);
            } else {
                rank.open(b);
            }
            open[b] = !open[b];
            for probe in 0..=rank.tree.len() {
                let naive = open[..probe].iter().filter(|&&o| o).count() as u32;
                assert_eq!(rank.below(probe), naive, "below({probe})");
            }
        }
    }

    #[test]
    fn stepping_run_matches_one_shot() {
        let inst = demo_instance();
        let one_shot = simulate(&inst, &mut NaiveFirstFit);
        let mut sel = NaiveFirstFit;
        let mut probe = NoProbe;
        let mut run = EngineRun::new(&inst, &mut sel, &mut probe);
        let mut steps = 0;
        while run.step() {
            steps += 1;
        }
        assert_eq!(steps, run.events_total());
        assert!(run.is_done());
        assert_eq!(run.finish(), one_shot);
    }

    #[test]
    fn verified_reexecution_continues_every_prefix_and_refuses_foreign_journals() {
        use crate::probe::{FnProbe, VerifyProbe};
        let inst = demo_instance();
        let mut full = Vec::new();
        let trace = simulate_probed(
            &inst,
            &mut NaiveFirstFit,
            &mut FnProbe::new(|e| full.push(e)),
        );
        for k in 0..=full.len() {
            let mut tail = Vec::new();
            let mut inner = FnProbe::new(|e| tail.push(e));
            let mut verify = VerifyProbe::new(&full[..k], &mut inner);
            assert_eq!(
                simulate_probed(&inst, &mut NaiveFirstFit, &mut verify),
                trace
            );
            assert_eq!(verify.finish(), Ok((k, (full.len() - k) as u64)));
            let mut combined = full[..k].to_vec();
            combined.extend(tail);
            assert_eq!(combined, full, "prefix {k}");
        }
        // Another selector's run of the same instance diverges (never
        // panics) and forwards nothing past the divergence.
        let mut tail: Vec<crate::probe::ProbeEvent> = Vec::new();
        let mut inner = FnProbe::new(|e| tail.push(e));
        let mut verify = VerifyProbe::new(&full, &mut inner);
        simulate_probed(&inst, &mut AlwaysOpen, &mut verify);
        let err = verify.finish().unwrap_err();
        assert!(err.contains("diverges"), "{err}");
        assert!(tail.is_empty());
    }
}
