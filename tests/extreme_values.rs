//! Extreme-magnitude inputs: very large tick values, huge sizes, and long
//! horizons must flow through the exact-arithmetic paths without overflow
//! or precision loss (costs are u128; a u64-tick × u64-size demand is fine,
//! and any genuine overflow must panic rather than wrap).

use dbp::prelude::*;
use dbp_core::algorithms::{IndexedBestFit, IndexedFirstFit, IndexedMff};
use dbp_core::bounds;

/// Ticks near the top of the u64 range: costs and spans stay exact.
#[test]
fn huge_tick_values_stay_exact() {
    let base = u64::MAX - 10_000_000;
    let mut b = InstanceBuilder::new(1_000_000_000);
    b.add(base, base + 5_000_000, 999_999_999);
    b.add(base + 1_000_000, base + 6_000_000, 999_999_999);
    let inst = b.build().unwrap();
    let trace = simulate_validated(&inst, &mut FirstFit::new());
    assert_eq!(trace.bins_used(), 2);
    assert_eq!(trace.total_cost_ticks(), 10_000_000);
    assert_eq!(inst.span().raw(), 6_000_000);
    // Demand: ~1e9 size × 5e6 ticks × 2 items ≈ 1e16 — far inside u128.
    assert_eq!(inst.total_demand(), 2u128 * 999_999_999 * 5_000_000);
    let lb = bounds::combined_lower_bound(&inst);
    assert!(Ratio::from_int(trace.total_cost_ticks()) >= lb);
}

/// Arrivals at tick 0 and departures at u64::MAX: the schedule's radix
/// sort spans the full key width (six 11-bit passes). An equal-tick
/// departure/arrival pair sits at each end, and the bins the arrivals land
/// in show that departures were processed first; an arrival at 2^63, which
/// only the sixth pass orders after tick 1, shows that every pass ran.
/// Indexed FF, BF and MFF(8) bill exactly what their naive specifications
/// bill.
#[test]
fn full_width_ticks_keep_the_equal_tick_order() {
    let top = u64::MAX;
    let mut b = InstanceBuilder::new(10);
    b.add(0, 1, 6); // r0 -> b0
    b.add(1, top, 5); // arrives as r0 departs: fits b0 only if r0 left
    b.add(0, top - 1, 5); // r2 -> b1
    b.add(top - 1, top, 2); // arrives as r2 departs: b1 closed first
    b.add(0, top, 3); // r4 -> b0
    b.add(1 << 63, top, 2); // fills b0 after r1; 2^63 > 1 shows only in pass six
    let inst = b.build().unwrap();

    let ff = simulate_validated(&inst, &mut IndexedFirstFit::new());
    assert_eq!(ff.bin_of(ItemId(1)), BinId(0));
    assert_eq!(ff.bin_of(ItemId(3)), BinId(2));
    assert_eq!(ff.bin_of(ItemId(5)), BinId(0));
    assert_eq!(ff.bins_used(), 3);
    assert_eq!(ff.total_cost_ticks(), 2 * top as u128);
    let pairs: [(PackingTrace, PackingTrace); 3] = [
        (ff, simulate_validated(&inst, &mut FirstFit::new())),
        (
            simulate_validated(&inst, &mut IndexedBestFit::new()),
            simulate_validated(&inst, &mut BestFit::new()),
        ),
        (
            simulate_validated(&inst, &mut IndexedMff::new(8)),
            simulate_validated(&inst, &mut ModifiedFirstFit::new(8)),
        ),
    ];
    for (indexed, naive) in pairs {
        assert_eq!(indexed.total_cost_ticks(), naive.total_cost_ticks());
        assert_eq!(indexed, naive);
    }
}

/// Maximum-size items against a maximum capacity.
#[test]
fn max_capacity_items() {
    let w = u64::MAX;
    let mut b = InstanceBuilder::new(w);
    b.add(0, 10, w); // fills the bin entirely
    b.add(1, 11, 1); // must open a second bin
    let inst = b.build().unwrap();
    let trace = simulate_validated(&inst, &mut FirstFit::new());
    assert_eq!(trace.bins_used(), 2);
    assert_eq!(trace.total_cost_ticks(), 20);
}

/// Demand accounting at the largest representable scale: one item of size
/// u64::MAX living u64-scale ticks exceeds u128? No: 2^64 · 2^64 = 2^128,
/// just over — so the model bounds demand per item below that; verify a
/// near-limit value computes without wrapping.
#[test]
fn demand_near_the_u128_edge() {
    let w = u64::MAX;
    let len = 1u64 << 62;
    let mut b = InstanceBuilder::new(w);
    b.add(0, len, w);
    let inst = b.build().unwrap();
    let expected = (w as u128) * (len as u128);
    assert_eq!(inst.total_demand(), expected);
    assert!(expected < u128::MAX / 2);
    // b.1 in ticks: u(R)/W = len exactly.
    assert_eq!(
        bounds::demand_lower_bound(&inst),
        Ratio::from_int(len as u128)
    );
}

/// One-tick items — the minimum possible interval — through the whole
/// pipeline including µ and the analysis machinery.
#[test]
fn one_tick_items() {
    let mut b = InstanceBuilder::new(10);
    for i in 0..40 {
        b.add(i, i + 1, 3 + (i % 5));
    }
    let inst = b.build().unwrap();
    assert_eq!(inst.mu().unwrap(), Ratio::ONE);
    let trace = simulate_validated(&inst, &mut FirstFit::new());
    let analysis = dbp_core::analysis::analyze_first_fit(&inst, &trace);
    assert!(analysis.is_clean(), "{:#?}", analysis.violations);
    // µ = 1 ⇒ Theorem 5 rhs = 15·LB.
    assert!(analysis.certificates.theorem5_holds);
}

/// Capacity-1 bins degenerate to one item per bin; cost = Σ len exactly
/// (bound b.3 is tight).
#[test]
fn capacity_one_degenerates_to_item_per_bin() {
    let mut b = InstanceBuilder::new(1);
    b.add(0, 7, 1);
    b.add(2, 9, 1);
    b.add(2, 4, 1);
    let inst = b.build().unwrap();
    let trace = simulate_validated(&inst, &mut BestFit::new());
    assert_eq!(trace.bins_used(), 3);
    assert_eq!(
        Ratio::from_int(trace.total_cost_ticks()),
        bounds::naive_upper_bound(&inst)
    );
}

/// Thousands of simultaneous arrivals and departures at a single tick.
#[test]
fn mass_simultaneous_events() {
    let mut b = InstanceBuilder::new(100);
    for _ in 0..2_000 {
        b.add(5, 6, 1);
    }
    let inst = b.build().unwrap();
    let trace = simulate_validated(&inst, &mut FirstFit::new());
    assert_eq!(trace.bins_used(), 20);
    assert_eq!(trace.max_open_bins(), 20);
    assert_eq!(trace.total_cost_ticks(), 20);
    assert_eq!(trace.open_bins_steps.len(), 2);
}

/// Indexed Best Fit at W = u64::MAX (its sparse layout) packs exactly as
/// the naive scan: ties at a full-scale level, an exact fill to u64::MAX,
/// and a bin reused after departures.
#[test]
fn indexed_bf_matches_naive_at_u64_max() {
    let w = u64::MAX;
    let half = w / 2 + 1; // 2^63
    let mut b = InstanceBuilder::new(w);
    b.add(0, 10, half); // b0
    b.add(1, 12, half); // does not fit b0 -> b1
    b.add(2, 9, half - 1); // tie at level 2^63 -> b0, filled to exactly w
    b.add(3, 14, w / 4); // b0 full -> b1
    b.add(10, 20, w / 4); // b0 closed at 10; b1 still fits it (w - 1)
    b.add(11, 20, half); // fits no open bin -> b2
    let inst = b.build().unwrap();
    let naive = simulate_validated(&inst, &mut BestFit::new());
    let indexed = simulate_validated(&inst, &mut IndexedBestFit::new());
    assert_eq!(naive, indexed);
    assert_eq!(indexed.bin_of(ItemId(2)), BinId(0));
    assert_eq!(indexed.bin_of(ItemId(3)), BinId(1));
}

/// Level totals past u64: at D = 3 with components near u64::MAX the L1
/// totals exceed 2^64, so the indexed BF keys use their high bits. In the
/// first instance the fullest bin fails componentwise and the walk must
/// fall through to a tie at the next total; in the second the fullest
/// bin's total is 2^64 + 1, which a key truncated to 64 bits would rank
/// below the other bin's 2^63 + 2. The same inputs audit the other
/// engines the roster ships at D > 1: indexed FF and MFF(8) pack exactly
/// like their naive specifications, and DOM's residual arithmetic stays
/// legal.
#[test]
fn indexed_bf_matches_naive_on_u128_level_totals() {
    use dbp_core::algorithms::indexed::{GIndexedBestFit, GIndexedFirstFit, GIndexedMff};
    use dbp_core::demand::{Demand, VSize};
    use dbp_core::engine::simulate_validated as sim;
    use dbp_core::instance::GInstanceBuilder;
    let m = u64::MAX;
    let h = m / 2 + 1; // 2^63

    let mut b = GInstanceBuilder::new(VSize([m; 3]));
    b.add(0, 10, VSize([m, m - 5, 1])); // b0: total 2^65 - 6
    b.add(1, 10, VSize([h, h, h])); // b1: total 1.5 · 2^64
    b.add(2, 10, VSize([h, h, h])); // fits neither -> b2, tied with b1
    b.add(3, 10, VSize([1, 1, 1])); // b0 full in dim 0; tie -> b1
    b.add(4, 10, VSize([2, 2, 2])); // b0 still full; b1 now fullest
    let walk = b.build().unwrap();

    let mut b = GInstanceBuilder::new(VSize([m; 3]));
    b.add(0, 10, VSize([h, h, 1])); // b0: total 2^64 + 1
    b.add(1, 10, VSize([h, 1, 1])); // does not fit b0 -> b1: total 2^63 + 2
    b.add(2, 10, VSize([1, 1, 1])); // fits both; b0 is fuller
    let high_bits = b.build().unwrap();

    for (inst, item, bin) in [(&walk, 3, 1), (&walk, 4, 1), (&high_bits, 2, 0)] {
        assert!(inst.items()[0].size.total() > u64::MAX as u128);
        let naive = sim(inst, &mut BestFit::new());
        let indexed = sim(inst, &mut GIndexedBestFit::<VSize<3>>::new());
        assert_eq!(naive, indexed);
        assert_eq!(indexed.bin_of(ItemId(item)), BinId(bin));
    }
    for inst in [&walk, &high_bits] {
        let ff = sim(inst, &mut GIndexedFirstFit::<VSize<3>>::new());
        assert_eq!(sim(inst, &mut FirstFit::new()), ff);
        let mff = sim(inst, &mut GIndexedMff::<VSize<3>>::new(8));
        assert_eq!(sim(inst, &mut ModifiedFirstFit::new(8)), mff);
        sim(inst, &mut DominanceFit::new());
    }
}
