//! **shard_resilience** — what shard failures cost a self-healing cluster.
//!
//! The sharding_overhead sweep prices partitioning; this one prices
//! *dying*. For each scenario × router × shard count, a seeded
//! [`ShardFaultPlan`](dbp_cluster::ShardFaultPlan) kills shards mid-run
//! and the self-healing engine contains each death, resurrects shards
//! from their journals inside the restart budget, and reroutes future
//! arrivals off shards that stay down. Reported per cell: the extended
//! SLA ledger (served / lost / rerouted), restart activity, and the cost
//! overhead versus the same cluster with no faults — exact integer ticks
//! until the final display division. Every row asserts the conservation
//! law `served + dropped + lost + rerouted == total`.

use crate::harness::{cell, f3, Table};
use dbp_cloudsim::GamingSystem;
use dbp_cluster::{ClusterConfig, ClusterEngine, Router, ShardFaultPlan};
use dbp_core::algorithms::standard_factories;
use dbp_core::probe::NoProbe;
use dbp_core::span::NoSpans;
use dbp_workloads::{generate, CloudGamingConfig, Scenario};

/// One (scenario, router, shards) outcome under seeded shard kills.
#[derive(Debug, Clone)]
pub struct ResilienceRow {
    /// Scenario name.
    pub scenario: String,
    /// Router name.
    pub router: String,
    /// Shard count.
    pub shards: usize,
    /// Kills that landed.
    pub kills: u64,
    /// Journal-backed resurrections.
    pub restarts: u64,
    /// Shards that stayed down.
    pub shards_lost: u64,
    /// Sessions served to completion.
    pub served: u64,
    /// Sessions lost in-flight with their shard.
    pub lost: u64,
    /// Future arrivals rerouted off dead shards.
    pub rerouted: u64,
    /// The faulted run's exact busy time, in bin-ticks.
    pub busy_ticks: u128,
    /// The same cluster's zero-fault busy time, in bin-ticks.
    pub baseline_ticks: u128,
    /// `busy_ticks / baseline_ticks` (display only; 1 exactly when every
    /// kill healed, since resurrection re-derives the identical packing).
    pub overhead: f64,
    /// Whether the extended ledger conserved (asserted true).
    pub conserved: bool,
}

/// Run the sweep: scenarios × routers × shard counts under seeded kills.
pub fn run(quick: bool) -> (Table, Vec<ResilienceRow>) {
    let scenarios: &[Scenario] = if quick {
        &[Scenario::Steady, Scenario::LaunchDay]
    } else {
        &Scenario::ALL
    };
    let shard_counts: &[usize] = if quick { &[2, 4] } else { &[2, 4, 8] };

    let factory = standard_factories(17)
        .into_iter()
        .find(|f| f.name() == "FF")
        .expect("FF is in the standard roster");

    let mut rows = Vec::new();
    for scenario in scenarios {
        let cfg = CloudGamingConfig {
            seed: 17,
            ..scenario.config()
        };
        let inst = generate(&cfg);
        for router in Router::ALL {
            for &shards in shard_counts {
                let engine = ClusterEngine::new(
                    GamingSystem::paper_model(),
                    ClusterConfig::new(shards, router).unwrap(),
                );
                let heal = |plan: &ShardFaultPlan| {
                    let (run, _) = engine
                        .run_self_healing(&inst, &factory, plan, &mut NoProbe, |_, _| NoSpans)
                        .expect("paper-capacity workload, in-range kill targets");
                    run
                };
                let baseline = heal(&ShardFaultPlan::none());
                // ~2 events per item spread over the shards keeps kill
                // offsets inside the live part of each stream.
                let events_hint = (2 * inst.len() as u64 / shards as u64).max(4);
                let healed = heal(&ShardFaultPlan::from_seed(17, shards, events_hint));
                let r = &healed.report;
                assert!(
                    r.conserved(),
                    "{}/{}: {r:?}",
                    scenario.name(),
                    router.name()
                );
                rows.push(ResilienceRow {
                    scenario: scenario.name().to_string(),
                    router: router.name().to_string(),
                    shards,
                    kills: r.shard_kills,
                    restarts: r.shard_restarts,
                    shards_lost: r.shards_lost,
                    served: r.sessions_served,
                    lost: r.sessions_lost,
                    rerouted: r.sessions_rerouted,
                    busy_ticks: r.busy_ticks,
                    baseline_ticks: baseline.report.busy_ticks,
                    overhead: r.busy_ticks as f64 / baseline.report.busy_ticks as f64,
                    conserved: r.conserved(),
                });
            }
        }
    }

    let mut table = Table::new(
        "Shard resilience: self-healing cluster under seeded shard kills",
        &[
            "scenario",
            "router",
            "shards",
            "kills",
            "restarts",
            "down",
            "served",
            "lost",
            "rerouted",
            "busy ticks",
            "baseline",
            "overhead",
        ],
    );
    for r in &rows {
        table.push(vec![
            r.scenario.clone(),
            r.router.clone(),
            cell(r.shards),
            cell(r.kills),
            cell(r.restarts),
            cell(r.shards_lost),
            cell(r.served),
            cell(r.lost),
            cell(r.rerouted),
            cell(r.busy_ticks),
            cell(r.baseline_ticks),
            f3(r.overhead),
        ]);
    }
    (table, rows)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_grid_has_the_expected_shape() {
        let (table, rows) = run(true);
        // 2 scenarios × 3 routers × 2 shard counts.
        assert_eq!(rows.len(), 2 * 3 * 2);
        assert_eq!(table.rows.len(), rows.len());
    }

    #[test]
    fn rows_are_internally_consistent() {
        let (_, rows) = run(true);
        for r in &rows {
            assert!(r.conserved, "{}/{}/{}", r.scenario, r.router, r.shards);
            assert!(r.busy_ticks > 0 && r.baseline_ticks > 0);
            assert!(r.kills >= r.restarts);
            // A fully-healed run re-derives the identical packing, so its
            // bill is exactly the baseline; only dead shards change cost.
            if r.shards_lost == 0 {
                assert_eq!(
                    r.busy_ticks, r.baseline_ticks,
                    "healed run must cost the baseline: {}/{}",
                    r.scenario, r.router
                );
            }
        }
    }
}
