//! Cross-crate consistency between the cloud-gaming system simulator and
//! the abstract MinTotal objective.

use dbp::prelude::*;
use dbp_core::algorithms::standard_factories;
use dbp_workloads::ArrivalKind;

fn day_trace(seed: u64) -> Instance {
    generate(&CloudGamingConfig {
        horizon: 3 * 3600,
        arrivals: ArrivalKind::Poisson { rate: 0.04 },
        seed,
        ..CloudGamingConfig::default()
    })
}

/// Billed ticks of `trace` under `granularity`: one server per bin,
/// rented for the bin's usage period.
fn billed_ticks(trace: &PackingTrace, granularity: Granularity) -> u128 {
    let system = GamingSystem {
        granularity,
        ..GamingSystem::paper_model()
    };
    system.bill_trace(trace).billed_ticks
}

/// Under per-tick billing the system's bill is exactly the paper's
/// objective (`A_total · C`), for every dispatcher.
#[test]
fn per_tick_bill_is_the_paper_objective() {
    let inst = day_trace(1);
    let sys = GamingSystem::paper_model();
    for f in standard_factories(2) {
        let mut sel = f.build();
        let (report, trace) = sys.run_or_panic(&inst, &mut *sel);
        assert_eq!(report.bill.busy_ticks, trace.total_cost_ticks());
        assert_eq!(report.bill.billed_ticks, trace.total_cost_ticks());
        // cents = busy_ticks * 65 / 3600, exactly.
        assert_eq!(
            report.bill.cost_cents,
            Ratio::new(report.bill.busy_ticks * 65, 3600)
        );
    }
}

/// Billing granularity is monotone: coarser units never reduce the bill,
/// and the overhead is at most one unit per rented server.
#[test]
fn billing_granularity_monotone_with_bounded_overhead() {
    let inst = day_trace(2);
    for f in standard_factories(3) {
        let mut sel = f.build();
        let trace = dbp_core::simulate(&inst, &mut *sel);
        let tick = billed_ticks(&trace, Granularity::PerTick);
        let minute = billed_ticks(&trace, Granularity::PerMinute);
        let hour = billed_ticks(&trace, Granularity::PerHour);
        assert!(tick <= minute && minute <= hour, "{}", f.name());
        let servers = trace.bins_used() as u128;
        assert!(minute - tick < 60 * servers);
        assert!(hour - tick < 3600 * servers);
    }
}

/// The dispatcher ranking by bill matches the ranking by abstract cost
/// under per-tick billing (they are the same number).
#[test]
fn rankings_agree_under_per_tick_billing() {
    let inst = day_trace(3);
    let sys = GamingSystem::paper_model();
    let mut by_cost: Vec<(String, u128)> = Vec::new();
    let mut by_bill: Vec<(String, Ratio)> = Vec::new();
    for f in standard_factories(4) {
        let mut sel = f.build();
        let (report, trace) = sys.run_or_panic(&inst, &mut *sel);
        by_cost.push((f.name().into(), trace.total_cost_ticks()));
        by_bill.push((f.name().into(), report.bill.cost_cents));
    }
    by_cost.sort_by_key(|(_, c)| *c);
    by_bill.sort_by_key(|(_, bill)| *bill);
    let cost_order: Vec<&str> = by_cost.iter().map(|(n, _)| n.as_str()).collect();
    let bill_order: Vec<&str> = by_bill.iter().map(|(n, _)| n.as_str()).collect();
    assert_eq!(cost_order, bill_order);
}

/// Region constraints never reduce cost, and with one region they change
/// nothing at all.
#[test]
fn region_constraints_only_add_cost() {
    let base = generate(&CloudGamingConfig {
        horizon: 2 * 3600,
        regions: 1,
        seed: 9,
        ..CloudGamingConfig::default()
    });
    let cff = dbp_core::simulate(&base, &mut ConstrainedFirstFit::new());
    let ff = dbp_core::simulate(&base, &mut FirstFit::new());
    assert_eq!(cff.total_cost_ticks(), ff.total_cost_ticks());

    let split = generate(&CloudGamingConfig {
        horizon: 2 * 3600,
        regions: 6,
        seed: 9,
        ..CloudGamingConfig::default()
    });
    let cff6 = dbp_core::simulate(&split, &mut ConstrainedFirstFit::new());
    let ff6 = dbp_core::simulate(&split, &mut FirstFit::new());
    assert!(cff6.total_cost_ticks() >= ff6.total_cost_ticks());
}
