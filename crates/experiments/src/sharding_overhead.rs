//! **sharding_overhead** — what fragmenting one dispatcher into K shards
//! costs.
//!
//! Sharding buys throughput (each shard scans only its own open bins) and
//! fault isolation, but loses packing opportunities: an arrival that would
//! have topped up a half-full server in the global view may open a fresh
//! server in its shard's pool. Against OPT the aggregate can only grow;
//! against an Any Fit dispatcher the overhead is typically ≥ 1 too, though
//! packing anomalies can occasionally let a partition beat the global
//! heuristic. This experiment measures the overhead exactly: for each
//! scenario × router × algorithm, the ratio of the K-shard cluster's
//! `busy_ticks` to the single-dispatcher bill, in exact integers until the
//! final display division.

use crate::harness::{cell, f3, Table};
use dbp_cloudsim::GamingSystem;
use dbp_cluster::{ClusterConfig, ClusterEngine, Router};
use dbp_core::algorithms::standard_factories;
use dbp_workloads::{generate, CloudGamingConfig, Scenario};

/// One (scenario, router, algorithm, shards) outcome.
#[derive(Debug, Clone)]
pub struct ShardRow {
    /// Scenario name.
    pub scenario: String,
    /// Router name.
    pub router: String,
    /// Algorithm name.
    pub algorithm: String,
    /// Shard count.
    pub shards: usize,
    /// The cluster's exact aggregate busy time, in bin-ticks.
    pub busy_ticks: u128,
    /// The 1-shard (plain dispatcher) busy time, in bin-ticks.
    pub baseline_ticks: u128,
    /// `busy_ticks / baseline_ticks` (display only; ≥ 1 up to routing
    /// noise, exactly 1 for one shard).
    pub overhead: f64,
}

/// The algorithms the sweep covers: the paper's analysed rules, which the
/// roster runs on the indexed engines (decision-identical to the naive
/// scanners, so the choice moves wall time, not numbers).
const ALGOS: [&str; 3] = ["FF", "BF", "MFF(8)"];

/// Run the sweep: scenarios × routers × {FF, BF, MFF} × shard counts.
pub fn run(quick: bool) -> (Table, Vec<ShardRow>) {
    let scenarios: &[Scenario] = if quick {
        &[Scenario::Steady, Scenario::LaunchDay]
    } else {
        &Scenario::ALL
    };
    let shard_counts: &[usize] = if quick { &[2, 4] } else { &[2, 4, 8] };

    let mut rows = Vec::new();
    for scenario in scenarios {
        let cfg = CloudGamingConfig {
            seed: 17,
            ..scenario.config()
        };
        let inst = generate(&cfg);
        for factory in standard_factories(0)
            .into_iter()
            .filter(|f| ALGOS.contains(&f.name()))
        {
            // K = 1 is the plain dispatcher (proved byte-identical in the
            // conservation suite), so it serves as the exact baseline.
            let one = ClusterEngine::new(
                GamingSystem::paper_model(),
                ClusterConfig::new(1, Router::HashByItem).unwrap(),
            );
            let baseline = one
                .run(&inst, &factory)
                .expect("scenario workloads match the paper system capacity")
                .report
                .busy_ticks;
            for router in Router::ALL {
                for &shards in shard_counts {
                    let engine = ClusterEngine::new(
                        GamingSystem::paper_model(),
                        ClusterConfig::new(shards, router).unwrap(),
                    );
                    let run = engine
                        .run(&inst, &factory)
                        .expect("scenario workloads match the paper system capacity");
                    rows.push(ShardRow {
                        scenario: scenario.name().to_string(),
                        router: router.name().to_string(),
                        algorithm: factory.name().to_string(),
                        shards,
                        busy_ticks: run.report.busy_ticks,
                        baseline_ticks: baseline,
                        overhead: run.report.busy_ticks as f64 / baseline as f64,
                    });
                }
            }
        }
    }

    let mut table = Table::new(
        "Sharding overhead: K-shard cluster cost vs one global dispatcher",
        &[
            "scenario",
            "router",
            "algo",
            "shards",
            "busy ticks",
            "baseline",
            "overhead",
        ],
    );
    for r in &rows {
        table.push(vec![
            r.scenario.clone(),
            r.router.clone(),
            r.algorithm.clone(),
            cell(r.shards),
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
        // 2 scenarios × 3 algorithms × 3 routers × 2 shard counts.
        assert_eq!(rows.len(), 2 * 3 * 3 * 2);
        assert_eq!(table.rows.len(), rows.len());
    }

    #[test]
    fn rows_are_internally_consistent() {
        // The baseline is shared per (scenario, algorithm), every cost is
        // nonzero, and the displayed overhead is exactly the tick ratio.
        let (_, rows) = run(true);
        for r in &rows {
            assert!(r.busy_ticks > 0 && r.baseline_ticks > 0);
            let ratio = r.busy_ticks as f64 / r.baseline_ticks as f64;
            assert_eq!(
                r.overhead, ratio,
                "{}/{}/{}",
                r.scenario, r.router, r.algorithm
            );
        }
    }
}
