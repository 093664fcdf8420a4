//! **server_churn** — provisioning fees punish bin churn.
//!
//! The paper's cost model charges duration only; real VM rentals also pay a
//! provisioning cost per server (boot + game-image pull). This experiment
//! reruns the cloud-gaming day under per-server setup fees and shows the
//! ranking consequence: algorithms that open many short-lived servers
//! (Next Fit most of all) fall off a cliff as the fee grows, while the
//! Any Fit family's ordering barely moves.

use crate::harness::{cell, f3, Table};
use dbp_cloudsim::{GamingSystem, Granularity, ServerType};
use dbp_core::algorithms::standard_factories;
use dbp_workloads::{generate, CloudGamingConfig};

/// One (algorithm, fee) outcome.
#[derive(Debug, Clone)]
pub struct ChurnRow {
    /// Algorithm name.
    pub algorithm: String,
    /// Servers rented (churn).
    pub servers: u64,
    /// Bill with no setup fee, dollars.
    pub fee0: f64,
    /// Bill at $0.50 per server, dollars.
    pub fee50: f64,
    /// Bill at $2.00 per server, dollars.
    pub fee200: f64,
}

/// Run the comparison.
pub fn run(quick: bool) -> (Table, Vec<ChurnRow>) {
    let cfg = CloudGamingConfig {
        horizon: if quick { 2 * 3600 } else { 12 * 3600 },
        seed: 31,
        ..CloudGamingConfig::default()
    };
    let inst = generate(&cfg);

    let mut rows = Vec::new();
    for f in standard_factories(9) {
        let mut bills = [0.0f64; 3];
        let mut servers = 0;
        for (i, fee) in [0u64, 50, 200].into_iter().enumerate() {
            let sys = GamingSystem {
                server: ServerType::with_setup_fee(fee),
                granularity: Granularity::PerTick,
            };
            let mut sel = f.build();
            let (report, _) = sys.run_or_panic(&inst, &mut *sel);
            bills[i] = report.cost_dollars();
            servers = report.bill.servers_rented;
        }
        rows.push(ChurnRow {
            algorithm: f.name().to_string(),
            servers,
            fee0: bills[0],
            fee50: bills[1],
            fee200: bills[2],
        });
    }

    let mut table = Table::new(
        "Server churn: bills (USD) under per-server provisioning fees",
        &["algo", "servers", "fee $0", "fee $0.50", "fee $2.00"],
    );
    for r in &rows {
        table.push(vec![
            r.algorithm.clone(),
            cell(r.servers),
            f3(r.fee0),
            f3(r.fee50),
            f3(r.fee200),
        ]);
    }
    (table, rows)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fees_scale_with_server_count() {
        let (_, rows) = run(true);
        for r in &rows {
            // Bill grows by exactly servers · fee.
            let d50 = r.fee50 - r.fee0;
            assert!(
                (d50 - r.servers as f64 * 0.50).abs() < 1e-6,
                "{}",
                r.algorithm
            );
            let d200 = r.fee200 - r.fee0;
            assert!((d200 - r.servers as f64 * 2.0).abs() < 1e-6);
        }
    }

    #[test]
    fn churny_next_fit_falls_behind_as_fees_grow() {
        let (_, rows) = run(true);
        let nf = rows.iter().find(|r| r.algorithm == "NF").unwrap();
        let ff = rows.iter().find(|r| r.algorithm == "FF").unwrap();
        assert!(nf.servers > ff.servers, "NF should churn more servers");
        let gap0 = nf.fee0 / ff.fee0;
        let gap200 = nf.fee200 / ff.fee200;
        assert!(
            gap200 > gap0,
            "setup fees should widen NF's deficit: {gap0} -> {gap200}"
        );
    }
}
