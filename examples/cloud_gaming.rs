//! The motivating scenario end to end: a cloud-gaming service renting GPU
//! VMs on demand, dispatching a simulated day of play requests with
//! different policies, and paying an EC2-style hourly bill.
//!
//! ```sh
//! cargo run --release --example cloud_gaming
//! ```

use dbp::prelude::*;
use dbp_core::algorithms::standard_factories;
use dbp_workloads::ArrivalKind;

fn main() {
    // A day of diurnal traffic over the default 12-game catalog.
    let cfg = CloudGamingConfig {
        horizon: 24 * 3600,
        arrivals: ArrivalKind::Diurnal {
            base_rate: 0.05,
            amplitude: 0.8,
            period: 86_400.0,
        },
        seed: 2024,
        ..CloudGamingConfig::default()
    };
    let requests = generate(&cfg);
    let stats = requests.stats();
    println!(
        "workload: {} play requests over 24h, sizes {}..{} GPU units, µ = {:.2}",
        stats.n_items,
        stats.min_size.raw(),
        stats.max_size.raw(),
        stats.mu.to_f64()
    );

    // Dispatch with every algorithm under hourly billing (the real-world
    // model the paper's introduction cites) and under the paper's per-tick
    // model for comparison.
    let hourly = GamingSystem::hourly_model();
    let per_tick = GamingSystem::paper_model();

    println!(
        "\n{:>8}  {:>9}  {:>12}  {:>12}  {:>7}  {:>6}",
        "policy", "servers", "bill/tick $", "bill/hour $", "peak", "util"
    );
    let mut best: Option<(String, f64)> = None;
    for factory in standard_factories(1) {
        let mut sel = factory.build();
        let (tick_report, _) = per_tick.run_or_panic(&requests, &mut *sel);
        let mut sel = factory.build();
        let (hour_report, _) = hourly.run_or_panic(&requests, &mut *sel);
        println!(
            "{:>8}  {:>9}  {:>12.2}  {:>12.2}  {:>7}  {:>6.3}",
            factory.name(),
            hour_report.bill.servers_rented,
            tick_report.cost_dollars(),
            hour_report.cost_dollars(),
            hour_report.peak_servers,
            hour_report.utilization.to_f64()
        );
        let bill = hour_report.cost_dollars();
        if best.as_ref().is_none_or(|(_, b)| bill < *b) {
            best = Some((factory.name().to_string(), bill));
        }
    }
    let (name, bill) = best.unwrap();
    println!("\ncheapest under hourly billing: {name} at ${bill:.2}/day");
}
