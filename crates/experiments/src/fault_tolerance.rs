//! **fault_tolerance** — which Any Fit policy degrades most gracefully
//! when bins die under it?
//!
//! The paper (and the related renting-servers / DVBP lines) evaluates only
//! fault-free traces. This experiment reruns the scenario catalog through
//! `dbp-cloudsim`'s deterministic fault layer: seeded server crashes at
//! three rates crossed with calm vs. flaky provisioning, dispatched by
//! FirstFit / BestFit / ModifiedFirstFit / NextFit with retry, orphan
//! re-dispatch, and bounded admission. Each cell reports the SLA ledger
//! (served / dropped / lost / re-dispatched) and the **cost overhead**:
//! the faulted bill divided by the same algorithm's fault-free bill on the
//! same trace. Rows are ranked by overhead within each (scenario, crash
//! rate, flakiness) block, so the CSV reads as a resilience leaderboard.

use crate::harness::{cell, f3, Table};
use dbp_cloudsim::{FaultConfig, FaultPlan, GamingSystem, ResilientSystem};
use dbp_core::algorithms::{BestFit, FirstFit, ModifiedFirstFit, NextFit};
use dbp_core::packer::SelectorFactory;
use dbp_workloads::{generate, Scenario};
use rayon::prelude::*;

/// One (scenario, crash rate, flakiness, algorithm) outcome.
#[derive(Debug, Clone)]
pub struct FaultRow {
    /// Scenario name.
    pub scenario: &'static str,
    /// Injected crash rate per hour.
    pub crash_rate: f64,
    /// Whether provisioning was flaky (boot failures/delays, rejections).
    pub boot_flaky: bool,
    /// Algorithm name.
    pub algorithm: String,
    /// Total sessions in the workload.
    pub sessions: u64,
    /// Sessions served to completion.
    pub served: u64,
    /// Sessions dropped before any service.
    pub dropped: u64,
    /// Sessions interrupted by crashes and lost.
    pub lost: u64,
    /// Orphans successfully re-placed.
    pub redispatches: u64,
    /// Retries scheduled.
    pub retries: u64,
    /// Crashes that hit an open server.
    pub crashes: u64,
    /// Faulted bill / fault-free bill for the same algorithm (≥ 0).
    pub cost_overhead: f64,
    /// Peak simultaneously-open servers under faults.
    pub peak_servers: u64,
}

/// The fixed plan seed: the fault schedule is part of the experiment's
/// identity, not ambient randomness.
const PLAN_SEED: u64 = 4242;

fn roster() -> Vec<SelectorFactory> {
    vec![
        SelectorFactory::new("FF", || Box::new(FirstFit::new())),
        SelectorFactory::new("BF", || Box::new(BestFit::new())),
        SelectorFactory::new("MFF(8)", || Box::new(ModifiedFirstFit::new(8))),
        SelectorFactory::new("NF", || Box::new(NextFit::new())),
    ]
}

/// Run the sweep. Quick mode shrinks the horizon but keeps the full
/// 2-scenario × 3-crash-rate × 2-flakiness grid, so CI smoke runs validate
/// the same artifact shape as full runs.
pub fn run(quick: bool) -> (Table, Vec<FaultRow>) {
    let scenarios = [Scenario::Steady, Scenario::LaunchDay];
    let crash_rates = [0.0, 2.0, 6.0];
    let flakiness = [false, true];

    let mut cells: Vec<(Scenario, f64, bool)> = Vec::new();
    for &s in &scenarios {
        for &r in &crash_rates {
            for &f in &flakiness {
                cells.push((s, r, f));
            }
        }
    }

    let mut rows: Vec<FaultRow> = cells
        .par_iter()
        .flat_map(|&(scenario, crash_rate, boot_flaky)| {
            let mut cfg = scenario.config();
            if quick {
                cfg.horizon = cfg.horizon.min(4 * 3600);
            }
            let inst = generate(&cfg);
            let profile = scenario.fault_profile();
            let fault_cfg = FaultConfig {
                crash_rate_per_hour: crash_rate,
                boot_fail_prob: if boot_flaky {
                    profile.boot_fail_prob.max(0.2)
                } else {
                    0.0
                },
                boot_delay_max: if boot_flaky {
                    profile.boot_delay_max.max(30)
                } else {
                    0
                },
                reject_prob: if boot_flaky {
                    profile.reject_prob.max(0.05)
                } else {
                    0.0
                },
            };
            let plan = FaultPlan::generate(PLAN_SEED, cfg.horizon, 16, &fault_cfg)
                .expect("the sweep's horizon is within the crash cap");
            let sys = GamingSystem::paper_model();
            roster()
                .iter()
                .map(|f| {
                    let (baseline, _) = sys.run_or_panic(&inst, &mut *f.build());
                    let report = ResilientSystem::new(sys, plan.clone())
                        .run(&inst, &mut *f.build())
                        .expect("capacity-matched workload");
                    assert!(report.conserved(), "SLA ledger must conserve");
                    let base_cost = baseline.cost_cents.to_f64();
                    let cost_overhead = if base_cost == 0.0 {
                        1.0
                    } else {
                        report.cost_cents.to_f64() / base_cost
                    };
                    FaultRow {
                        scenario: scenario.name(),
                        crash_rate,
                        boot_flaky,
                        algorithm: f.name().to_string(),
                        sessions: report.sessions_total,
                        served: report.sessions_served,
                        dropped: report.sessions_dropped,
                        lost: report.sessions_lost,
                        redispatches: report.redispatches,
                        retries: report.retries_scheduled,
                        crashes: report.crashes,
                        cost_overhead,
                        peak_servers: report.peak_servers,
                    }
                })
                .collect::<Vec<_>>()
        })
        .collect();

    // Rank: within each (scenario, rate, flakiness) block, cheapest
    // resilience overhead first; sessions lost breaks ties.
    rows.sort_by(|a, b| {
        (a.scenario, a.boot_flaky)
            .cmp(&(b.scenario, b.boot_flaky))
            .then(a.crash_rate.total_cmp(&b.crash_rate))
            .then(a.cost_overhead.total_cmp(&b.cost_overhead))
            .then((a.dropped + a.lost).cmp(&(b.dropped + b.lost)))
    });

    let mut table = Table::new(
        "Fault tolerance: SLA ledger and cost overhead vs the fault-free bill",
        &[
            "scenario",
            "crash/h",
            "flaky",
            "algo",
            "sessions",
            "served",
            "dropped",
            "lost",
            "redisp",
            "retries",
            "crashes",
            "cost_overhead",
            "peak",
        ],
    );
    for r in &rows {
        table.push(vec![
            r.scenario.to_string(),
            f3(r.crash_rate),
            cell(r.boot_flaky),
            r.algorithm.clone(),
            cell(r.sessions),
            cell(r.served),
            cell(r.dropped),
            cell(r.lost),
            cell(r.redispatches),
            cell(r.retries),
            cell(r.crashes),
            f3(r.cost_overhead),
            cell(r.peak_servers),
        ]);
    }
    (table, rows)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn grid_covers_three_rates_and_two_scenarios() {
        let (table, rows) = run(true);
        let mut rates: Vec<String> = rows.iter().map(|r| f3(r.crash_rate)).collect();
        rates.sort();
        rates.dedup();
        assert!(rates.len() >= 3, "need ≥3 crash rates, got {rates:?}");
        let mut scenarios: Vec<&str> = rows.iter().map(|r| r.scenario).collect();
        scenarios.sort();
        scenarios.dedup();
        assert_eq!(scenarios.len(), 2);
        // 2 scenarios × 3 rates × 2 flakiness × 4 algos.
        assert_eq!(rows.len(), 48);
        assert_eq!(table.rows.len(), 48);
    }

    #[test]
    fn ledger_conserves_in_every_cell() {
        let (_, rows) = run(true);
        for r in &rows {
            assert_eq!(
                r.served + r.dropped + r.lost,
                r.sessions,
                "{} {} {}",
                r.scenario,
                r.crash_rate,
                r.algorithm
            );
        }
    }

    #[test]
    fn fault_free_cells_have_unit_overhead_and_full_service() {
        let (_, rows) = run(true);
        for r in rows.iter().filter(|r| r.crash_rate == 0.0 && !r.boot_flaky) {
            assert_eq!(r.cost_overhead, 1.0, "{} {}", r.scenario, r.algorithm);
            assert_eq!(r.served, r.sessions);
            assert_eq!(r.crashes + r.redispatches + r.retries, 0);
        }
    }

    #[test]
    fn crashes_actually_bite_at_high_rates() {
        let (_, rows) = run(true);
        let hit: u64 = rows
            .iter()
            .filter(|r| r.crash_rate >= 6.0)
            .map(|r| r.crashes)
            .sum();
        assert!(hit > 0, "6/h crash sweep never hit a server");
    }
}
