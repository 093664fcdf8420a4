//! The event schedule driving a simulation.
//!
//! Ordering rules (load-bearing for the paper's constructions):
//!
//! 1. Events are processed in tick order.
//! 2. At equal ticks, **departures precede arrivals** — a bin freed at `t`
//!    can accept an item arriving at `t`, matching the instantaneous
//!    semantics of the proofs.
//! 3. Simultaneous arrivals are presented in instance order; simultaneous
//!    departures likewise. Theorem 2's construction interleaves same-tick
//!    group arrivals this way.
//!
//! Construction: [`schedule`] pushes every departure in instance order,
//! then every arrival in instance order, and stable-sorts that buffer by
//! tick with an LSD radix sort. Keys are `tick − min tick`, cut into
//! 11-bit digits, so an instance spanning `s` ticks takes
//! `⌈bits(s)/11⌉` scatter passes: two for a ~10^5-tick trace, at most
//! six for the full `u64` range, none when every event shares one tick.
//! Rules 2 and 3 are never compared: they are the push order, and every
//! pass is stable, so equal ticks keep it. One read builds every pass's
//! histogram. For `n` items the cost is `O(n + passes·(n + 2^11))` time
//! and one spare `2n`-event buffer.

use crate::demand::Demand;
use crate::instance::GInstance;
use crate::item::ItemId;
use crate::time::Tick;

/// Bits per radix digit of [`schedule`]'s sort.
const DIGIT_BITS: u32 = 11;
/// Buckets per radix pass (`2^DIGIT_BITS`).
const BUCKETS: usize = 1 << DIGIT_BITS;

/// What happens to an item at an event.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum EventKind {
    /// The item leaves the system (processed first at equal ticks).
    Departure,
    /// The item enters the system and must be packed.
    Arrival,
}

/// A single scheduled event.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Event {
    /// When the event happens.
    pub at: Tick,
    /// Arrival or departure.
    pub kind: EventKind,
    /// The affected item.
    pub item: ItemId,
}

/// Build the full, sorted event schedule for an instance. See the module
/// docs for the ordering rules and the radix-sort construction.
pub fn schedule<Sz: Demand>(instance: &GInstance<Sz>) -> Vec<Event> {
    let items = instance.items();
    // The push order is the whole tie-break (rules 2 and 3).
    let mut events = Vec::with_capacity(items.len() * 2);
    events.extend(items.iter().map(|it| Event {
        at: it.departure,
        kind: EventKind::Departure,
        item: it.id,
    }));
    events.extend(items.iter().map(|it| Event {
        at: it.arrival,
        kind: EventKind::Arrival,
        item: it.id,
    }));
    let (Some(lo), Some(hi)) = (instance.first_arrival(), instance.last_departure()) else {
        return events;
    };
    let digit = |at: Tick, pass: usize| {
        ((at.0 - lo.0) >> (pass as u32 * DIGIT_BITS)) as usize & (BUCKETS - 1)
    };
    let passes = (u64::BITS - (hi.0 - lo.0).leading_zeros()).div_ceil(DIGIT_BITS) as usize;
    let mut counts = vec![[0usize; BUCKETS]; passes];
    for e in &events {
        for (pass, count) in counts.iter_mut().enumerate() {
            count[digit(e.at, pass)] += 1;
        }
    }
    let mut spare = events.clone();
    for (pass, count) in counts.iter_mut().enumerate() {
        // Bucket counts become each bucket's first output slot.
        let mut next = 0;
        for slot in count.iter_mut() {
            next += std::mem::replace(slot, next);
        }
        for e in &events {
            let slot = &mut count[digit(e.at, pass)];
            spare[*slot] = *e;
            *slot += 1;
        }
        std::mem::swap(&mut events, &mut spare);
    }
    events
}

/// The ordering rules stated as a comparison sort: the specification
/// [`schedule`] is tested against.
#[cfg(test)]
fn schedule_by_comparison<Sz: Demand>(instance: &GInstance<Sz>) -> Vec<Event> {
    let mut events = Vec::with_capacity(instance.len() * 2);
    for it in instance.items() {
        events.push(Event {
            at: it.arrival,
            kind: EventKind::Arrival,
            item: it.id,
        });
        events.push(Event {
            at: it.departure,
            kind: EventKind::Departure,
            item: it.id,
        });
    }
    // Stable sort on (tick, kind) preserves instance order among equal keys;
    // EventKind::Departure < EventKind::Arrival by derive order.
    events.sort_by_key(|e| (e.at, e.kind));
    events
}

/// All distinct event ticks of an instance, ascending. The active item set is
/// constant on each half-open segment between consecutive event ticks — the
/// basis for exact piecewise-constant cost integration.
pub fn event_ticks<Sz: Demand>(instance: &GInstance<Sz>) -> Vec<Tick> {
    let mut ticks: Vec<Tick> = instance
        .items()
        .iter()
        .flat_map(|r| [r.arrival, r.departure])
        .collect();
    ticks.sort_unstable();
    ticks.dedup();
    ticks
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::demand::VSize;
    use crate::instance::{GInstanceBuilder, InstanceBuilder};
    use proptest::prelude::*;

    #[test]
    fn departures_precede_arrivals_at_equal_ticks() {
        let mut b = InstanceBuilder::new(10);
        b.add(0, 5, 1); // departs at 5
        b.add(5, 9, 1); // arrives at 5
        let inst = b.build().unwrap();
        let evs = schedule(&inst);
        assert_eq!(evs.len(), 4);
        assert_eq!(evs[1].kind, EventKind::Departure);
        assert_eq!(evs[1].item, ItemId(0));
        assert_eq!(evs[2].kind, EventKind::Arrival);
        assert_eq!(evs[2].item, ItemId(1));
    }

    #[test]
    fn simultaneous_arrivals_keep_instance_order() {
        let mut b = InstanceBuilder::new(10);
        for _ in 0..5 {
            b.add(3, 7, 2);
        }
        let inst = b.build().unwrap();
        let evs = schedule(&inst);
        let arrivals: Vec<ItemId> = evs
            .iter()
            .filter(|e| e.kind == EventKind::Arrival)
            .map(|e| e.item)
            .collect();
        assert_eq!(arrivals, (0..5).map(ItemId).collect::<Vec<_>>());
    }

    #[test]
    fn event_ticks_deduplicated_and_sorted() {
        let mut b = InstanceBuilder::new(10);
        b.add(4, 9, 1);
        b.add(0, 4, 1);
        b.add(0, 9, 1);
        let inst = b.build().unwrap();
        let ticks = event_ticks(&inst);
        assert_eq!(ticks, vec![Tick(0), Tick(4), Tick(9)]);
    }

    /// Turn two drawn ticks into a non-empty `[arrival, departure)`.
    fn interval((x, y): (u64, u64)) -> (u64, u64) {
        let (a, d) = (x.min(y), x.max(y));
        match (a < d, d == u64::MAX) {
            (true, _) => (a, d),
            (false, true) => (a - 1, d),
            (false, false) => (a, d + 1),
        }
    }

    /// A scalar and a `VSize<3>` instance over the same drawn intervals.
    fn check_against_comparison_sort(
        base: u64,
        raw: &[(u64, u64, u64)],
    ) -> proptest::TestCaseResult {
        let mut scalar = InstanceBuilder::new(10);
        let mut vector = GInstanceBuilder::new(VSize([10, 10, 10]));
        for &(x, y, size) in raw {
            let (a, d) = interval((base.saturating_add(x), base.saturating_add(y)));
            scalar.add(a, d, size);
            vector.add(a, d, VSize([size, 11 - size, size]));
        }
        let scalar = scalar.build().unwrap();
        let vector = vector.build().unwrap();
        prop_assert_eq!(
            schedule(&scalar),
            schedule_by_comparison(&scalar),
            "{:?}",
            raw
        );
        prop_assert_eq!(
            schedule(&vector),
            schedule_by_comparison(&vector),
            "{:?}",
            raw
        );
        Ok(())
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        #[test]
        fn radix_schedule_matches_comparison_sort_on_narrow_ticks(
            base in narrow_window_base(),
            raw in proptest::collection::vec((0u64..6, 0u64..6, 1u64..=10), 0..300),
        ) {
            check_against_comparison_sort(base, &raw)?;
        }

        #[test]
        fn radix_schedule_matches_comparison_sort_on_wide_ticks(
            raw in proptest::collection::vec(
                (0u64..1 << 40, 0u64..1 << 40, 1u64..=10),
                0..300,
            ),
        ) {
            check_against_comparison_sort(0, &raw)?;
        }

        #[test]
        fn radix_schedule_matches_comparison_sort_on_full_width_ticks(
            raw in proptest::collection::vec(
                (0u64..=u64::MAX, 0u64..=u64::MAX, 1u64..=10),
                0..300,
            ),
            ends in proptest::collection::vec((0u64..3, 0u64..3, 1u64..=10), 0..20),
        ) {
            // Pile extra intervals onto both ends of the range, so ties
            // occur at 0 and at u64::MAX with all six passes running.
            let mut raw = raw;
            raw.extend_from_slice(&ends);
            raw.extend(ends.iter().map(|&(x, y, s)| (u64::MAX - x, u64::MAX - y, s)));
            check_against_comparison_sort(0, &raw)?;
        }
    }

    /// Narrow windows sit at the bottom, the middle and the top of the tick
    /// range, so `tick − min tick` is exercised away from zero too.
    fn narrow_window_base() -> impl Strategy<Value = u64> {
        (0u64..3, 0u64..1 << 50).prop_map(|(which, x)| match which {
            0 => 0,
            1 => x,
            _ => u64::MAX - 6,
        })
    }

    #[test]
    fn radix_schedule_matches_comparison_sort_on_tiny_instances() {
        let empty = InstanceBuilder::new(10).build().unwrap();
        assert!(schedule(&empty).is_empty());
        for (a, d) in [(0, 1), (7, 70_000), (0, u64::MAX), (u64::MAX - 1, u64::MAX)] {
            let mut b = InstanceBuilder::new(10);
            b.add(a, d, 3);
            let one = b.build().unwrap();
            assert_eq!(schedule(&one), schedule_by_comparison(&one));
        }
    }
}
