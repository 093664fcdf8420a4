//! The complete record of one packing run.
//!
//! A [`PackingTrace`] holds everything needed to (a) compute the MinTotal
//! objective exactly, (b) drive the §4.3 proof machinery, and (c)
//! cross-check the engine: the per-bin usage periods and the open-bin step
//! function are recorded independently and must integrate to the same cost.

use crate::bin::{BinId, BinTag};
use crate::demand::Demand;
use crate::events::{schedule, EventKind};
use crate::instance::GInstance;
use crate::item::{GItem, ItemId, Size};
use crate::ratio::Ratio;
use crate::time::{Dur, Interval, Tick};
use serde::{Deserialize, Serialize};

/// Lifetime record of one bin.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct BinRecord {
    /// Bin id (opening order).
    pub id: BinId,
    /// Tag assigned by the opening algorithm.
    pub tag: BinTag,
    /// When the bin was opened (first item packed).
    pub opened_at: Tick,
    /// When the bin closed (last item departed).
    pub closed_at: Tick,
    /// Items ever assigned to this bin, in assignment order.
    pub items: Vec<ItemId>,
}

impl BinRecord {
    /// The usage period `I_i = [opened_at, closed_at)`.
    #[inline]
    pub fn usage_period(&self) -> Interval {
        Interval::new(self.opened_at, self.closed_at)
    }

    /// `len(I_i)`.
    #[inline]
    pub fn usage_len(&self) -> Dur {
        self.closed_at - self.opened_at
    }
}

/// One bin's state in [`GPackingTrace::sweep`].
#[derive(Debug, Clone, Copy, Default)]
struct BinReplay {
    /// Members present now.
    members: u32,
    /// The bin's index in the open list while it is open.
    slot: u32,
    /// First arrival; `None` until the bin opens.
    opened_at: Option<Tick>,
    /// Last departure that emptied the bin.
    closed_at: Tick,
}

/// [`GPackingTrace::sweep`]'s walk over `open_bins_steps`: each batch end
/// the replay reaches must be the next recorded step, unless its count
/// repeats the last one. Stops at the first mismatch.
#[derive(Debug, Default)]
struct StepCursor {
    /// Index of the next step to match; every step before it matched.
    next: usize,
    /// The first mismatch.
    bad: Option<String>,
}

impl StepCursor {
    /// The replay ended the batch at `at` with `open` bins open.
    fn batch_end(&mut self, steps: &[(Tick, u32)], at: Tick, open: usize) {
        let open = open as u32;
        let repeat = self.next > 0 && steps[self.next - 1].1 == open;
        if self.bad.is_some() || repeat {
            return;
        }
        match steps.get(self.next) {
            Some(&step) if step == (at, open) => self.next += 1,
            got => {
                let got = got.map_or("missing".to_string(), |(t, n)| format!("({t}, {n})"));
                self.bad = Some(format!(
                    "open-bin step {} is {got}, the replay gives ({at}, {open})",
                    self.next
                ));
            }
        }
    }

    /// The first mismatch, or the steps left over past the replay's end.
    fn finish(self, steps: &[(Tick, u32)]) -> Option<String> {
        self.bad.or_else(|| {
            (self.next < steps.len()).then(|| {
                format!(
                    "open-bin steps run on past the replay's last: {} extra",
                    steps.len() - self.next
                )
            })
        })
    }
}

/// The result of simulating one algorithm on one instance, generic over
/// the demand type (scalar via the [`PackingTrace`] alias).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct GPackingTrace<Sz> {
    /// Algorithm name as reported by the selector.
    pub algorithm: String,
    /// Bin capacity `W`.
    pub capacity: Sz,
    /// Bins in opening order (`bins[i].id == BinId(i)`).
    pub bins: Vec<BinRecord>,
    /// `assignment[item.index()]` is the bin the item was packed into.
    pub assignment: Vec<BinId>,
    /// Step function of the number of open bins: `(t, n)` means the count
    /// became `n` at tick `t` and stays until the next entry. Starts at the
    /// first event tick; ends with a final `(t, 0)`.
    pub open_bins_steps: Vec<(Tick, u32)>,
}

/// The scalar packing trace of the source paper.
pub type PackingTrace = GPackingTrace<Size>;

impl<Sz> GPackingTrace<Sz> {
    /// The same trace with its capacity mapped through `f`. Bin records
    /// and step functions carry no demand values, so this is the complete
    /// demand-type conversion — the D=1 equivalence suite uses it to
    /// compare a `VSize<1>` trace byte-for-byte against the scalar trace.
    pub fn map_demand<T>(self, f: impl FnOnce(Sz) -> T) -> GPackingTrace<T> {
        GPackingTrace {
            algorithm: self.algorithm,
            capacity: f(self.capacity),
            bins: self.bins,
            assignment: self.assignment,
            open_bins_steps: self.open_bins_steps,
        }
    }
}

impl<Sz: Demand> GPackingTrace<Sz> {
    /// Number of bins ever used (the classical DBP objective counts the
    /// maximum simultaneously open; this is the total distinct count).
    #[inline]
    pub fn bins_used(&self) -> usize {
        self.bins.len()
    }

    /// `A_total(R)` in bin-ticks: `Σ_i len(I_i)` — exact, no integration
    /// error. Multiply by a cost rate to get money.
    pub fn total_cost_ticks(&self) -> u128 {
        self.bins.iter().map(|b| b.usage_len().0 as u128).sum()
    }

    /// Independent computation of the cost from the open-bin step function:
    /// `∫ n(t) dt`. Must equal [`Self::total_cost_ticks`]; used as an engine
    /// self-check in tests.
    pub fn cost_from_step_function(&self) -> u128 {
        let mut total: u128 = 0;
        for w in self.open_bins_steps.windows(2) {
            let (t0, n) = w[0];
            let (t1, _) = w[1];
            total += (t1 - t0).0 as u128 * n as u128;
        }
        total
    }

    /// Maximum number of simultaneously open bins (the classical DBP
    /// objective, reported for comparison).
    pub fn max_open_bins(&self) -> u32 {
        self.open_bins_steps
            .iter()
            .map(|&(_, n)| n)
            .max()
            .unwrap_or(0)
    }

    /// Number of open bins at time `t` (`A(R, t)` in the paper).
    pub fn open_bins_at(&self, t: Tick) -> u32 {
        match self.open_bins_steps.binary_search_by_key(&t, |&(tt, _)| tt) {
            Ok(i) => self.open_bins_steps[i].1,
            Err(0) => 0,
            Err(i) => self.open_bins_steps[i - 1].1,
        }
    }

    /// The bin an item was assigned to.
    #[inline]
    pub fn bin_of(&self, item: ItemId) -> BinId {
        self.assignment[item.index()]
    }

    /// Bins carrying a given tag.
    pub fn bins_with_tag(&self, tag: BinTag) -> impl Iterator<Item = &BinRecord> {
        self.bins.iter().filter(move |b| b.tag == tag)
    }

    /// Cost restricted to bins with a given tag, in bin-ticks.
    pub fn cost_ticks_for_tag(&self, tag: BinTag) -> u128 {
        self.bins_with_tag(tag)
            .map(|b| b.usage_len().0 as u128)
            .sum()
    }

    /// Exact ratio of this trace's cost to a baseline cost in bin-ticks.
    ///
    /// # Panics
    /// Panics if `baseline_ticks` is zero.
    pub fn cost_ratio_to(&self, baseline_ticks: u128) -> Ratio {
        Ratio::new(self.total_cost_ticks(), baseline_ticks)
    }

    /// Validate the trace against the instance that produced it. Returns a
    /// list of human-readable violations (empty = valid). Checked
    /// invariants:
    ///
    /// 1. Bin ids are dense (`bins[i].id == i`).
    /// 2. Every item is listed exactly once, by the bin it is assigned to;
    ///    unknown item and bin ids are violations, never a panic.
    /// 3. After every arrival the bin's level is within capacity in every
    ///    dimension (a level that overflows counts as over capacity).
    /// 4. A bin never takes an arrival after it has emptied, and its usage
    ///    period runs from its first arrival to its last departure, so
    ///    `I_i = ∪_{r ∈ R_i} I(r)`.
    /// 5. The open-bin step function is the replay's: after each tick's
    ///    last event, the count of open bins, repeats dropped, ending in
    ///    `(t, 0)`. With 4, this makes the two independent cost
    ///    computations agree.
    ///
    /// One replay of the event schedule: O(n·D + B) for `n` items and `B`
    /// bins.
    pub fn validate(&self, instance: &GInstance<Sz>) -> Vec<String> {
        self.sweep(instance, |_, _| {})
    }

    /// The one replay behind [`validate`](Self::validate) and
    /// [`any_fit_violations`](crate::engine::any_fit_violations): walks
    /// [`schedule`] against `assignment`, keeping each bin's member count
    /// and, while it is open, its level. `on_open(item, open)` runs just
    /// before `item` opens its bin, with `open` holding every other open
    /// bin and its level. Reads only the instance and the trace.
    pub(crate) fn sweep(
        &self,
        instance: &GInstance<Sz>,
        mut on_open: impl FnMut(&GItem<Sz>, &[(BinId, Sz)]),
    ) -> Vec<String> {
        let mut errs = Vec::new();
        if self.assignment.len() != instance.len() {
            errs.push(format!(
                "assignment covers {} items, instance has {}",
                self.assignment.len(),
                instance.len()
            ));
            return errs;
        }
        let mut listed = vec![false; instance.len()];
        for (i, bin) in self.bins.iter().enumerate() {
            let b = BinId(i as u32);
            if bin.id != b {
                errs.push(format!("bin at index {i} has id {}", bin.id));
            }
            for &id in &bin.items {
                match listed.get_mut(id.index()) {
                    None => errs.push(format!("bin {b} lists unknown item {id}")),
                    Some(seen @ false) => {
                        *seen = true;
                        let to = self.assignment[id.index()];
                        if to != b {
                            errs.push(format!("item {id} listed by bin {b} but assigned to {to}"));
                        }
                    }
                    Some(_) => errs.push(format!("item {id} listed more than once")),
                }
            }
        }
        for (i, (&to, &seen)) in self.assignment.iter().zip(&listed).enumerate() {
            let id = ItemId(i as u32);
            if to.index() >= self.bins.len() {
                errs.push(format!("item {id} assigned to unknown bin {to}"));
            } else if !seen {
                errs.push(format!("item {id} is assigned but listed by no bin"));
            }
        }

        let cap = self.capacity;
        let mut state = vec![BinReplay::default(); self.bins.len()];
        // The open bins and their levels; `state[b].slot` indexes it.
        let mut open: Vec<(BinId, Sz)> = Vec::new();
        // The tick being replayed, and a cursor into the step function.
        let mut batch: Option<Tick> = None;
        let mut steps = StepCursor::default();
        for ev in schedule(instance) {
            if let Some(at) = batch.filter(|&at| at != ev.at) {
                steps.batch_end(&self.open_bins_steps, at, open.len());
            }
            batch = Some(ev.at);
            let item = instance.item(ev.item);
            let b = self.assignment[ev.item.index()];
            let Some(st) = state.get_mut(b.index()) else {
                continue;
            };
            match ev.kind {
                EventKind::Departure => {
                    // The item's arrival counted it in, so `members > 0`.
                    st.members -= 1;
                    let slot = st.slot as usize;
                    if st.members > 0 {
                        open[slot].1 = open[slot].1.saturating_sub(item.size);
                        continue;
                    }
                    st.closed_at = ev.at;
                    open.swap_remove(slot);
                    if let Some(&(moved, _)) = open.get(slot) {
                        state[moved.index()].slot = slot as u32;
                    }
                }
                EventKind::Arrival => {
                    if st.members == 0 {
                        if st.opened_at.is_some() {
                            errs.push(format!(
                                "bin {b} takes {} at {} after emptying: a gap in its usage period",
                                ev.item, ev.at
                            ));
                        } else {
                            st.opened_at = Some(ev.at);
                        }
                        on_open(item, &open);
                        st.slot = open.len() as u32;
                        open.push((b, Sz::ZERO));
                    }
                    st.members += 1;
                    let level = &mut open[st.slot as usize].1;
                    let Some(sum) = level.checked_add(item.size) else {
                        errs.push(format!(
                            "bin {b} over capacity at {}: level {level} + {} overflows",
                            ev.at, item.size
                        ));
                        continue;
                    };
                    *level = sum;
                    for d in (0..Sz::DIMS).filter(|&d| sum.component(d) > cap.component(d)) {
                        errs.push(format!(
                            "bin {b} over capacity at {} in dim {d}: level {} > {}",
                            ev.at,
                            sum.component(d),
                            cap.component(d)
                        ));
                    }
                }
            }
        }
        if let Some(at) = batch {
            steps.batch_end(&self.open_bins_steps, at, open.len());
        }
        errs.extend(steps.finish(&self.open_bins_steps));
        for (bin, st) in self.bins.iter().zip(&state) {
            match st.opened_at {
                None => errs.push(format!("bin {} has no items", bin.id)),
                Some(first) if (first, st.closed_at) != (bin.opened_at, bin.closed_at) => errs
                    .push(format!(
                        "bin {} usage [{}, {}) does not span its items' activity [{first}, {})",
                        bin.id, bin.opened_at, bin.closed_at, st.closed_at
                    )),
                Some(_) => {}
            }
        }
        errs
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_trace() -> PackingTrace {
        PackingTrace {
            algorithm: "TEST".into(),
            capacity: Size(10),
            bins: vec![
                BinRecord {
                    id: BinId(0),
                    tag: BinTag::DEFAULT,
                    opened_at: Tick(0),
                    closed_at: Tick(10),
                    items: vec![ItemId(0)],
                },
                BinRecord {
                    id: BinId(1),
                    tag: BinTag(1),
                    opened_at: Tick(2),
                    closed_at: Tick(6),
                    items: vec![ItemId(1)],
                },
            ],
            assignment: vec![BinId(0), BinId(1)],
            open_bins_steps: vec![(Tick(0), 1), (Tick(2), 2), (Tick(6), 1), (Tick(10), 0)],
        }
    }

    #[test]
    fn both_cost_computations_agree() {
        let t = tiny_trace();
        assert_eq!(t.total_cost_ticks(), 14);
        assert_eq!(t.cost_from_step_function(), 14);
        assert_eq!(t.max_open_bins(), 2);
    }

    #[test]
    fn open_bins_at_queries_step_function() {
        let t = tiny_trace();
        assert_eq!(t.open_bins_at(Tick(0)), 1);
        assert_eq!(t.open_bins_at(Tick(1)), 1);
        assert_eq!(t.open_bins_at(Tick(2)), 2);
        assert_eq!(t.open_bins_at(Tick(5)), 2);
        assert_eq!(t.open_bins_at(Tick(6)), 1);
        assert_eq!(t.open_bins_at(Tick(10)), 0);
        assert_eq!(t.open_bins_at(Tick(999)), 0);
    }

    #[test]
    fn tag_filtered_cost() {
        let t = tiny_trace();
        assert_eq!(t.cost_ticks_for_tag(BinTag::DEFAULT), 10);
        assert_eq!(t.cost_ticks_for_tag(BinTag(1)), 4);
    }

    #[test]
    fn cost_ratio_is_exact() {
        let t = tiny_trace();
        assert_eq!(t.cost_ratio_to(7), Ratio::from_int(2));
    }

    /// Three items under First Fit: `r0` and `r1` share `b0`, and `r2`
    /// opens `b1` at tick 6 (`b0` still holds `r0`).
    fn ff_three() -> (crate::instance::Instance, PackingTrace) {
        use crate::algorithms::FirstFit;
        use crate::engine::simulate;
        use crate::instance::InstanceBuilder;

        let mut b = InstanceBuilder::new(10);
        b.add(0, 10, 6);
        b.add(0, 5, 4);
        b.add(6, 12, 6);
        let inst = b.build().unwrap();
        let trace = simulate(&inst, &mut FirstFit::new());
        assert!(trace.validate(&inst).is_empty());
        assert_eq!(trace.bins_used(), 2);
        (inst, trace)
    }

    /// `errs` has a line containing `needle`.
    #[track_caller]
    fn assert_reports(errs: &[String], needle: &str) {
        assert!(
            errs.iter().any(|e| e.contains(needle)),
            "no {needle:?} in {errs:?}"
        );
    }

    #[test]
    fn validate_catches_membership_corruption() {
        let (inst, good) = ff_three();

        // Wrong bin: listed by one bin, assigned to another.
        let mut bad = good.clone();
        bad.assignment[2] = BinId(0);
        assert_reports(
            &bad.validate(&inst),
            "r2 listed by bin b1 but assigned to b0",
        );

        // Duplicated membership.
        let mut bad = good.clone();
        let dup = bad.bins[0].items[0];
        bad.bins[0].items.push(dup);
        assert_reports(&bad.validate(&inst), "r0 listed more than once");

        // One item listed by two bins.
        let mut bad = good.clone();
        bad.bins[1].items.push(ItemId(0));
        assert_reports(&bad.validate(&inst), "r0 listed more than once");

        // Dropped membership: assigned but listed nowhere.
        let mut bad = good.clone();
        let lost = bad.bins[0].items.pop().unwrap();
        assert_reports(
            &bad.validate(&inst),
            &format!("{lost} is assigned but listed by no bin"),
        );

        // A bin listing an item the instance does not have.
        let mut bad = good.clone();
        bad.bins[0].items.push(ItemId(99));
        assert_reports(&bad.validate(&inst), "bin b0 lists unknown item r99");

        // An item assigned to a bin the trace does not have.
        let mut bad = good.clone();
        bad.assignment[2] = BinId(7);
        assert_reports(&bad.validate(&inst), "r2 assigned to unknown bin b7");

        // Sparse bin ids.
        let mut bad = good.clone();
        bad.bins[1].id = BinId(5);
        assert_reports(&bad.validate(&inst), "bin at index 1 has id b5");

        // Truncated assignment vector.
        let mut bad = good.clone();
        bad.assignment.pop();
        assert_reports(&bad.validate(&inst), "assignment covers 2 items");
    }

    #[test]
    fn validate_catches_period_and_cost_drift() {
        let (inst, good) = ff_three();

        // Usage period drift.
        let mut bad = good.clone();
        bad.bins[0].closed_at = Tick(999);
        assert_reports(&bad.validate(&inst), "b0 usage");
        assert_reports(
            &bad.validate(&inst),
            "does not span its items' activity [t0, t10)",
        );
        let mut bad = good.clone();
        bad.bins[1].opened_at = Tick(5);
        assert_reports(
            &bad.validate(&inst),
            "does not span its items' activity [t6, t12)",
        );

        // Step-function drift, which also breaks the cost identity.
        let mut bad = good.clone();
        if let Some(last) = bad.open_bins_steps.last_mut() {
            last.0 = Tick(last.0.raw() + 50);
        }
        assert_ne!(bad.cost_from_step_function(), bad.total_cost_ticks());
        assert_reports(
            &bad.validate(&inst),
            "open-bin step 3 is (t62, 0), the replay gives (t12, 0)",
        );

        // An empty bin record.
        let mut bad = good.clone();
        bad.bins.push(BinRecord {
            id: BinId(2),
            tag: BinTag::DEFAULT,
            opened_at: Tick(0),
            closed_at: Tick(0),
            items: Vec::new(),
        });
        assert_reports(&bad.validate(&inst), "bin b2 has no items");
    }

    #[test]
    fn validate_checks_the_step_function_itself() {
        use crate::algorithms::FirstFit;
        use crate::engine::simulate;
        use crate::instance::InstanceBuilder;

        // Each corruption keeps the integral, so the cost cross-check
        // alone passes it.
        let (inst, good) = ff_three();
        assert_eq!(
            good.open_bins_steps,
            [(Tick(0), 1), (Tick(6), 2), (Tick(10), 1), (Tick(12), 0)]
        );
        let mut bad = good.clone();
        bad.open_bins_steps[3].1 = 1;
        assert_eq!(
            bad.validate(&inst),
            ["open-bin step 3 is (t12, 1), the replay gives (t12, 0)"]
        );
        let mut bad = good.clone();
        bad.open_bins_steps.insert(2, (Tick(8), 2));
        assert_eq!(
            bad.validate(&inst),
            ["open-bin step 2 is (t8, 2), the replay gives (t10, 1)"]
        );
        let mut bad = good.clone();
        bad.open_bins_steps.push((Tick(20), 0));
        assert_eq!(
            bad.validate(&inst),
            ["open-bin steps run on past the replay's last: 1 extra"]
        );

        // Counts swapped between two windows of equal length.
        let mut b = InstanceBuilder::new(10);
        b.add(0, 4, 6);
        b.add(4, 8, 6);
        b.add(4, 8, 6);
        let inst = b.build().unwrap();
        let good = simulate(&inst, &mut FirstFit::new());
        assert_eq!(
            good.open_bins_steps,
            [(Tick(0), 1), (Tick(4), 2), (Tick(8), 0)]
        );
        let mut bad = good.clone();
        bad.open_bins_steps = vec![(Tick(0), 2), (Tick(4), 1), (Tick(8), 0)];
        assert_eq!(bad.cost_from_step_function(), good.total_cost_ticks());
        assert_eq!(
            bad.validate(&inst),
            ["open-bin step 0 is (t0, 2), the replay gives (t0, 1)"]
        );
    }

    #[test]
    fn validate_detects_overfull_bin() {
        use crate::algorithms::FirstFit;
        use crate::engine::simulate;
        use crate::instance::InstanceBuilder;

        // Build a valid 2-bin trace, then force both items into one bin.
        let mut b = InstanceBuilder::new(10);
        b.add(0, 10, 6);
        b.add(0, 10, 6);
        let inst = b.build().unwrap();
        let good = simulate(&inst, &mut FirstFit::new());
        assert_eq!(good.bins_used(), 2);
        let mut bad = good.clone();
        let moved = bad.bins[1].items[0];
        bad.bins[0].items.push(moved);
        bad.assignment[moved.index()] = BinId(0);
        assert_reports(
            &bad.validate(&inst),
            "bin b0 over capacity at t0 in dim 0: level 12 > 10",
        );
    }

    #[test]
    fn a_level_that_overflows_is_over_capacity() {
        use crate::algorithms::FirstFit;
        use crate::engine::{any_fit_violations, simulate};
        use crate::instance::InstanceBuilder;

        let half = 1u64 << 63;
        let mut b = InstanceBuilder::new(u64::MAX);
        b.add(0, 10, half);
        b.add(2, 8, half);
        let inst = b.build().unwrap();
        let good = simulate(&inst, &mut FirstFit::new());
        assert_eq!(good.bins_used(), 2);
        let mut bad = good.clone();
        bad.bins[0].items.push(ItemId(1));
        bad.bins[1].items.clear();
        bad.assignment[1] = BinId(0);
        let errs = bad.validate(&inst);
        assert_reports(&errs, "bin b0 over capacity at t2");
        assert_reports(&errs, "overflows");
        assert!(any_fit_violations(&inst, &bad).is_empty());
    }

    #[test]
    fn validate_audits_every_dimension() {
        use crate::algorithms::FirstFit;
        use crate::demand::VSize;
        use crate::engine::simulate;
        use crate::instance::GInstanceBuilder;

        let mut b = GInstanceBuilder::new(VSize([10, 10, 10]));
        b.add(0, 10, VSize([4, 4, 6]));
        b.add(3, 10, VSize([4, 4, 6]));
        let inst = b.build().unwrap();
        let good = simulate(&inst, &mut FirstFit::new());
        assert!(good.validate(&inst).is_empty());
        assert_eq!(good.bins_used(), 2);
        // Both items in one bin fit dimensions 0 and 1 (8 ≤ 10) but not 2.
        let mut bad = good.clone();
        bad.bins[0].items.push(ItemId(1));
        bad.bins.pop();
        bad.assignment[1] = BinId(0);
        bad.open_bins_steps = vec![(Tick(0), 1), (Tick(10), 0)];
        let errs = bad.validate(&inst);
        assert_eq!(
            errs,
            vec!["bin b0 over capacity at t3 in dim 2: level 12 > 10".to_string()]
        );
    }

    #[test]
    fn a_bin_that_empties_and_refills_has_a_gap() {
        use crate::algorithms::FirstFit;
        use crate::engine::simulate;
        use crate::instance::InstanceBuilder;

        let mut b = InstanceBuilder::new(10);
        b.add(0, 5, 6);
        b.add(7, 10, 6);
        let inst = b.build().unwrap();
        let good = simulate(&inst, &mut FirstFit::new());
        assert_eq!(good.bins_used(), 2);
        // Fold `b1` into `b0`, spanning both items, with a step function
        // that bills the gap too: the gap is wrong, and so is the step
        // function, which the replay sees close at t5.
        let mut bad = good.clone();
        bad.bins[0].items.push(ItemId(1));
        bad.bins[0].closed_at = Tick(10);
        bad.bins.pop();
        bad.assignment[1] = BinId(0);
        bad.open_bins_steps = vec![(Tick(0), 1), (Tick(10), 0)];
        let errs = bad.validate(&inst);
        assert_eq!(
            errs,
            vec![
                "bin b0 takes r1 at t7 after emptying: a gap in its usage period".to_string(),
                "open-bin step 1 is (t10, 0), the replay gives (t5, 0)".to_string()
            ]
        );
    }

    /// The level audit by brute force: every member's start tick, every
    /// dimension, re-summed over the bin's members. Quadratic in a bin's
    /// member count; the oracle the sweep is checked against.
    fn overfull_by_brute_force<Sz: Demand>(
        inst: &GInstance<Sz>,
        trace: &GPackingTrace<Sz>,
    ) -> bool {
        trace.bins.iter().any(|bin| {
            bin.items.iter().any(|&starter| {
                let t = inst.item(starter).arrival;
                (0..Sz::DIMS).any(|d| {
                    let level: u128 = bin
                        .items
                        .iter()
                        .map(|&id| inst.item(id))
                        .filter(|r| r.is_active_at(t))
                        .map(|r| r.size.component(d) as u128)
                        .sum();
                    level > trace.capacity.component(d) as u128
                })
            })
        })
    }

    /// A trace putting item `i` in bin `groups[i]`, consistent in every
    /// respect but (possibly) the levels; bins are numbered by first use.
    fn grouped_trace<Sz: Demand>(inst: &GInstance<Sz>, groups: &[usize]) -> GPackingTrace<Sz> {
        let mut bin_of_group = std::collections::HashMap::new();
        let mut bins: Vec<BinRecord> = Vec::new();
        let mut assignment = Vec::new();
        for (r, &g) in inst.items().iter().zip(groups) {
            let b = *bin_of_group.entry(g).or_insert_with(|| {
                bins.push(BinRecord {
                    id: BinId(bins.len() as u32),
                    tag: BinTag::DEFAULT,
                    opened_at: r.arrival,
                    closed_at: r.departure,
                    items: Vec::new(),
                });
                bins.len() - 1
            });
            let bin = &mut bins[b];
            bin.opened_at = bin.opened_at.min(r.arrival);
            bin.closed_at = bin.closed_at.max(r.departure);
            bin.items.push(r.id);
            assignment.push(BinId(b as u32));
        }
        GPackingTrace {
            algorithm: "GROUPED".into(),
            capacity: inst.capacity(),
            bins,
            assignment,
            open_bins_steps: Vec::new(),
        }
    }

    /// One field of a valid trace, overwritten with a drawn value.
    #[derive(Debug, Clone)]
    enum Mutation {
        Assign(usize, u32),
        Member(usize, usize, u32),
        Push(usize, u32),
        Pop(usize),
        Id(usize, u32),
        Opened(usize, u64),
        Closed(usize, u64),
        Step(usize, u64, u32),
        DropBin(usize),
        DropAssignment,
        Capacity(u64),
    }

    impl Mutation {
        /// Apply to `trace`; indices wrap into range.
        fn apply(&self, t: &mut PackingTrace) {
            let nb = t.bins.len();
            match *self {
                Mutation::Assign(i, b) => {
                    let n = t.assignment.len();
                    t.assignment[i % n] = BinId(b);
                }
                Mutation::Member(j, k, id) => {
                    let items = &mut t.bins[j % nb].items;
                    let n = items.len();
                    items[k % n] = ItemId(id);
                }
                Mutation::Push(j, id) => t.bins[j % nb].items.push(ItemId(id)),
                Mutation::Pop(j) => drop(t.bins[j % nb].items.pop()),
                Mutation::Id(j, id) => t.bins[j % nb].id = BinId(id),
                Mutation::Opened(j, at) => t.bins[j % nb].opened_at = Tick(at),
                Mutation::Closed(j, at) => t.bins[j % nb].closed_at = Tick(at),
                Mutation::Step(k, at, n) => {
                    let len = t.open_bins_steps.len();
                    t.open_bins_steps[k % len] = (Tick(at), n);
                }
                Mutation::DropBin(j) => drop(t.bins.remove(j % nb)),
                Mutation::DropAssignment => drop(t.assignment.pop()),
                Mutation::Capacity(w) => t.capacity = Size(w),
            }
        }
    }

    /// A drawn [`Mutation`]: a variant, two indices and a value.
    fn mutations() -> impl proptest::Strategy<Value = Mutation> {
        use proptest::Strategy;
        (0u8..11, 0usize..64, 0usize..64, 0u64..70).prop_map(|(kind, j, k, v)| {
            let id = v as u32 % 40;
            match kind {
                0 => Mutation::Assign(j, id),
                1 => Mutation::Member(j, k, id),
                2 => Mutation::Push(j, id),
                3 => Mutation::Pop(j),
                4 => Mutation::Id(j, id),
                5 => Mutation::Opened(j, v),
                6 => Mutation::Closed(j, v),
                7 => Mutation::Step(k, v, id % 8),
                8 => Mutation::DropBin(j),
                9 => Mutation::DropAssignment,
                _ => Mutation::Capacity(v % 12),
            }
        })
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(256))]

        /// Any single-field corruption of a valid First Fit trace is
        /// reported, never a panic, by both replays; mutations that change
        /// membership, periods, ids or the step function are always caught.
        #[test]
        fn corrupt_traces_never_panic_the_replay(
            raw in proptest::collection::vec((0u64..50, 1u64..20, 1u64..=10), 1..30),
            mutation in mutations(),
        ) {
            use crate::algorithms::FirstFit;
            use crate::engine::{any_fit_violations, simulate};
            use crate::instance::InstanceBuilder;

            let mut b = InstanceBuilder::new(10);
            for &(a, len, size) in &raw {
                b.add(a, a + len, size);
            }
            let inst = b.build().unwrap();
            let good = simulate(&inst, &mut FirstFit::new());
            proptest::prop_assert!(good.validate(&inst).is_empty());
            proptest::prop_assert!(any_fit_violations(&inst, &good).is_empty());
            let mut bad = good.clone();
            mutation.apply(&mut bad);
            let errs = bad.validate(&inst);
            let _ = any_fit_violations(&inst, &bad);
            let structural = !matches!(mutation, Mutation::Capacity(_));
            if structural && bad != good {
                proptest::prop_assert!(!errs.is_empty(), "{:?} slipped through", mutation);
            }
            if let Mutation::Capacity(w) = mutation {
                let over = inst.items().iter().any(|r| r.size.0 > w);
                proptest::prop_assert!(!over || !errs.is_empty());
            }
        }

        /// On arbitrary groupings of a `VSize<2>` instance, the sweep finds
        /// an over-capacity level exactly when the brute-force audit does.
        #[test]
        fn level_audit_matches_brute_force(
            raw in proptest::collection::vec(
                (0u64..40, 1u64..20, 1u64..=10, 1u64..=10, 0usize..6),
                1..40,
            ),
        ) {
            use crate::demand::VSize;
            use crate::instance::GInstanceBuilder;

            let mut b = GInstanceBuilder::new(VSize([12, 12]));
            for &(a, len, x, y, _) in &raw {
                b.add(a, a + len, VSize([x, y]));
            }
            let inst = b.build().unwrap();
            let groups: Vec<usize> = raw.iter().map(|r| r.4).collect();
            let trace = grouped_trace(&inst, &groups);
            let swept = trace
                .validate(&inst)
                .iter()
                .any(|e| e.contains("over capacity"));
            proptest::prop_assert_eq!(swept, overfull_by_brute_force(&inst, &trace));
        }
    }
}
