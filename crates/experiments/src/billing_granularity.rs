//! **billing_granularity** — §1's EC2 hourly billing, tested.
//!
//! The paper's cost model bills per tick; the providers it cites billed per
//! hour. This experiment reruns the cloud-gaming comparison under per-tick,
//! per-minute and per-hour billing and checks whether the algorithm ranking
//! is stable under rounding (it should be: rounding adds at most one unit
//! per server, and better packers rent fewer servers).

use crate::harness::{cell, f3, Table};
use dbp_cloudsim::{GamingSystem, Granularity, ServerType};
use dbp_core::algorithms::standard_factories;
use dbp_workloads::{generate, ArrivalKind, CloudGamingConfig};

/// One (algorithm, granularity) outcome.
#[derive(Debug, Clone)]
pub struct BillingRow {
    /// Algorithm name.
    pub algorithm: String,
    /// Bill under per-tick billing, in dollars.
    pub per_tick: f64,
    /// Bill under per-minute billing, in dollars.
    pub per_minute: f64,
    /// Bill under per-hour billing, in dollars.
    pub per_hour: f64,
    /// Servers rented.
    pub servers: u64,
}

/// Run the comparison.
pub fn run(quick: bool) -> (Table, Vec<BillingRow>) {
    let cfg = CloudGamingConfig {
        horizon: if quick { 2 * 3600 } else { 24 * 3600 },
        arrivals: ArrivalKind::Diurnal {
            base_rate: 0.05,
            amplitude: 0.8,
            period: 86_400.0,
        },
        seed: 11,
        ..CloudGamingConfig::default()
    };
    let inst = generate(&cfg);

    let mut rows = Vec::new();
    for f in standard_factories(3) {
        let mut bills = [0.0f64; 3];
        let mut servers = 0u64;
        for (i, g) in [
            Granularity::PerTick,
            Granularity::PerMinute,
            Granularity::PerHour,
        ]
        .into_iter()
        .enumerate()
        {
            let sys = GamingSystem {
                server: ServerType::default_gpu_vm(),
                granularity: g,
            };
            let mut sel = f.build();
            let (report, _) = sys.run_or_panic(&inst, &mut *sel);
            bills[i] = report.cost_dollars();
            servers = report.bill.servers_rented;
        }
        rows.push(BillingRow {
            algorithm: f.name().to_string(),
            per_tick: bills[0],
            per_minute: bills[1],
            per_hour: bills[2],
            servers,
        });
    }

    let mut table = Table::new(
        "Billing granularity: rental bill (USD) per dispatch algorithm",
        &["algo", "per-tick", "per-minute", "per-hour", "servers"],
    );
    for r in &rows {
        table.push(vec![
            r.algorithm.clone(),
            f3(r.per_tick),
            f3(r.per_minute),
            f3(r.per_hour),
            cell(r.servers),
        ]);
    }
    (table, rows)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn coarser_billing_never_cheaper() {
        let (_, rows) = run(true);
        for r in &rows {
            assert!(r.per_minute >= r.per_tick - 1e-9, "{}", r.algorithm);
            assert!(r.per_hour >= r.per_minute - 1e-9, "{}", r.algorithm);
        }
    }

    #[test]
    fn ranking_roughly_stable_under_rounding() {
        let (_, rows) = run(true);
        // The per-tick cheapest Any Fit algorithm should remain within the
        // two cheapest under hourly billing.
        let mut by_tick = rows.clone();
        by_tick.sort_by(|a, b| a.per_tick.partial_cmp(&b.per_tick).unwrap());
        let best = &by_tick[0].algorithm;
        let mut by_hour = rows.clone();
        by_hour.sort_by(|a, b| a.per_hour.partial_cmp(&b.per_hour).unwrap());
        let top2: Vec<&str> = by_hour
            .iter()
            .take(3)
            .map(|r| r.algorithm.as_str())
            .collect();
        assert!(
            top2.contains(&best.as_str()),
            "per-tick best {best} fell out of hourly top-3 {top2:?}"
        );
    }
}
