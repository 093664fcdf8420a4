//! Cluster ingestion throughput: how dispatch scales with shard count.
//!
//! Usage:
//!
//! ```text
//! cargo run --release -p dbp-bench --bin cluster_scaling [--quick] [--out PATH]
//! ```
//!
//! Packs `churn_workload` (10^6 items; `--quick`: 10^5) through
//! [`ClusterEngine`] at 1, 2, 4 and 8 shards under the hash router with the
//! **indexed** First Fit — the O(log m) engine the repo ships — and writes
//! `BENCH_CLUSTER.json`. (Earlier schema versions silently benchmarked the
//! naive scanning selector here, which made the 1-shard row incomparable to
//! BENCH_ENGINE and overstated the sharding speedup: with an O(open bins)
//! scan, splitting the fleet K ways shrinks the scan itself.) Shards run
//! concurrently when the host has cores to offer; the report records the
//! host's `available_parallelism` so a plateau can be attributed to
//! hardware rather than to the dispatch layer. The exact aggregate
//! `busy_ticks` per row makes the cost of any speedup visible in the same
//! report.

use dbp_bench::{
    available_parallelism, churn_workload, ns_to_ms_rounded, write_report, ReportArgs,
};
use dbp_cloudsim::{GamingSystem, Granularity, ServerType};
use dbp_cluster::{ClusterConfig, ClusterEngine, Router};
use dbp_core::algorithms::standard_factories;
use dbp_core::engine::simulate;
use dbp_core::instance::Instance;
use dbp_core::probe::NoProbe;
use dbp_obs::span::{StageAggregator, StageRow};
use serde::{Deserialize, Serialize};
use std::process::ExitCode;
use std::time::Instant;

const SEED: u64 = 42;

/// Report schema; bump when fields change (CI validates this).
/// v3: the bench runs the indexed selector engine (and records which), the
/// report carries the host's `available_parallelism`, and wall fields are
/// nanosecond-rounded instead of truncated.
/// v4: `dimensions` alongside `selector_engine` (this bench drives the
/// scalar cluster, so the value is 1).
const SCHEMA_VERSION: u64 = 4;

/// One measured shard count.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
struct ScalingResult {
    /// Shard count.
    shards: u64,
    /// Wall time of the cluster run, milliseconds.
    wall_ms: u64,
    /// Ingestion throughput over the whole run.
    items_per_sec: u64,
    /// Exact aggregate cost, bin-ticks.
    busy_ticks: u128,
    /// Servers rented across all shards.
    servers_rented: u64,
    /// Sum of per-shard peak fleets.
    peak_servers: u64,
    /// Throughput relative to the 1-shard row, thousandths (2000 = 2×).
    speedup_millis: u64,
    /// This row's wall time relative to the plain single-engine `simulate`
    /// run on the same stream, thousandths (1000 = parity, 2500 = the
    /// cluster path takes 2.5× as long). The 1-shard row quantifies the
    /// dispatch layer's bookkeeping tax — the gap between BENCH_ENGINE's
    /// items/sec and this report's.
    overhead_vs_plain_engine: u64,
    /// Per shard: ns the work unit waited for a pool worker (from the
    /// traced pass).
    queue_wait_ns: Vec<u64>,
    /// Per shard: ns from worker claim to shard completion (traced pass).
    busy_ns: Vec<u64>,
    /// Ranked per-stage self-time table from the traced pass, driver and
    /// shard lanes merged.
    stage_breakdown: Vec<StageRow>,
}

/// The whole report, written as `BENCH_CLUSTER.json`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
struct ClusterBenchReport {
    schema_version: u64,
    quick: bool,
    seed: u64,
    n_items: u64,
    capacity: u64,
    router: String,
    algorithm: String,
    /// Which selector engine produced every row: "indexed" (the shipped
    /// O(log m) engine) — recorded so a report can never again silently
    /// describe the naive scanning selector.
    selector_engine: String,
    /// Demand dimensionality the rows ran at (1 = scalar `Size`).
    dimensions: u64,
    /// The host's `std::thread::available_parallelism()` at run time. Rows
    /// cannot speed up past this however many shards they split into;
    /// compare it against the plateau before blaming the dispatch layer.
    available_parallelism: u64,
    peak_rss_bytes: Option<u64>,
    results: Vec<ScalingResult>,
}

/// Wall time of the plain single-engine run (indexed FF through
/// `simulate`, no cluster layer at all) — the denominator of every row's
/// `overhead_vs_plain_engine`. Must run the same selector engine as the
/// cluster rows or the ratio mixes selector cost into dispatch cost.
fn measure_plain_engine(inst: &Instance) -> u128 {
    let started = Instant::now();
    let trace = simulate(inst, &mut *standard_factories(0).remove(0).build());
    let ns = started.elapsed().as_nanos().max(1);
    assert!(trace.bins_used() > 0);
    ns
}

fn measure(inst: &Instance, shards: usize, plain_ns: u128) -> (u64, ScalingResult) {
    let system = GamingSystem {
        server: ServerType {
            gpu_capacity: inst.capacity().raw(),
            ..ServerType::default_gpu_vm()
        },
        granularity: Granularity::PerTick,
    };
    let engine = ClusterEngine::new(
        system,
        ClusterConfig::new(shards, Router::HashByItem).unwrap(),
    );
    let factory = standard_factories(0).remove(0); // the roster's First Fit
    let started = Instant::now();
    let (run, _) = engine
        .run_probed(inst, &factory, |_| NoProbe)
        .expect("workload and system share one capacity");
    let wall = started.elapsed();
    assert_eq!(run.report.sessions_served, inst.len(), "items lost");
    let wall_ns = wall.as_nanos().max(1);
    let items_per_sec = (inst.len() as u128 * 1_000_000_000 / wall_ns) as u64;

    // Second, traced pass for the stage attribution: streaming per-shard
    // aggregators (constant memory even at 10^6 items) plus the driver
    // lane. The throughput numbers above come from the untraced pass, so
    // the report's headline is never polluted by instrumentation cost.
    let (traced_run, _probes, trace) = engine
        .run_traced(
            inst,
            &factory,
            |_| NoProbe,
            |s, epoch| StageAggregator::with_epoch(epoch, s as u32),
        )
        .expect("capacity already validated by the untraced pass");
    assert_eq!(
        traced_run.report.busy_ticks, run.report.busy_ticks,
        "spans must not change the bill"
    );
    let mut breakdown = trace.driver.stage_breakdown();
    for lane in trace.shards {
        breakdown.merge(&lane.finish());
    }
    (
        items_per_sec,
        ScalingResult {
            shards: shards as u64,
            wall_ms: ns_to_ms_rounded(wall_ns),
            items_per_sec,
            busy_ticks: run.report.busy_ticks,
            servers_rented: run.report.bill.servers_rented,
            peak_servers: run.report.peak_servers as u64,
            speedup_millis: 0, // filled in once the 1-shard row exists
            // Ratio from raw nanoseconds (both clamped ≥ 1 at the source),
            // never from the rounded millisecond fields.
            overhead_vs_plain_engine: ((wall_ns * 1000 + plain_ns / 2) / plain_ns) as u64,
            queue_wait_ns: trace.timing.queue_wait_ns,
            busy_ns: trace.timing.busy_ns,
            stage_breakdown: breakdown.rows(),
        },
    )
}

fn main() -> ExitCode {
    let Some(args) = ReportArgs::from_env("BENCH_CLUSTER.json") else {
        return ExitCode::FAILURE;
    };
    let quick = args.quick;

    let n = if quick { 100_000 } else { 1_000_000 };
    eprintln!("[gen] churn_workload n={n}");
    let inst = churn_workload(n, SEED);

    eprintln!("[bench] plain engine baseline (indexed FF, no cluster layer)");
    let plain_ns = measure_plain_engine(&inst);

    let mut results = Vec::new();
    let mut base_throughput = 0u64;
    for shards in [1usize, 2, 4, 8] {
        let (throughput, mut r) = measure(&inst, shards, plain_ns);
        if shards == 1 {
            base_throughput = throughput;
        }
        let base = base_throughput.max(1) as u128;
        r.speedup_millis = ((throughput as u128 * 1000 + base / 2) / base) as u64;
        eprintln!(
            "[bench] shards={shards} {:>9} items/s  {:>7} ms  {:.2}x  busy {}  {:.2}x plain",
            r.items_per_sec,
            r.wall_ms,
            r.speedup_millis as f64 / 1000.0,
            r.busy_ticks,
            r.overhead_vs_plain_engine as f64 / 1000.0,
        );
        results.push(r);
    }

    let report = ClusterBenchReport {
        schema_version: SCHEMA_VERSION,
        quick,
        seed: SEED,
        n_items: n as u64,
        capacity: inst.capacity().raw(),
        router: Router::HashByItem.name().to_string(),
        algorithm: "FF".to_string(),
        selector_engine: "indexed".to_string(),
        dimensions: 1,
        available_parallelism: available_parallelism(),
        peak_rss_bytes: dbp_obs::manifest::peak_rss_bytes(),
        results,
    };
    write_report(&args.out, &report)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn report_round_trips_and_shard_counts_agree_on_cost_order() {
        let inst = churn_workload(3_000, 7);
        let plain_ns = measure_plain_engine(&inst);
        let (_, one) = measure(&inst, 1, plain_ns);
        let (_, four) = measure(&inst, 4, plain_ns);
        assert!(one.overhead_vs_plain_engine > 0);
        assert_eq!(one.queue_wait_ns.len(), 1);
        assert_eq!(four.busy_ns.len(), 4);
        // The traced pass must attribute the engine's hot stages.
        for row in [&one, &four] {
            let stages: Vec<&str> = row
                .stage_breakdown
                .iter()
                .map(|s| s.stage.as_str())
                .collect();
            for need in ["arrival", "decide", "place", "shard_busy", "dispatch"] {
                assert!(stages.contains(&need), "missing stage {need}: {stages:?}");
            }
        }
        // No ordering assertion between the two bills: First Fit is a
        // heuristic and partitioning occasionally beats the global scan.
        assert!(one.busy_ticks > 0 && four.busy_ticks > 0);
        let report = ClusterBenchReport {
            schema_version: SCHEMA_VERSION,
            quick: true,
            seed: 7,
            n_items: 3_000,
            capacity: inst.capacity().raw(),
            router: "hash".to_string(),
            algorithm: "FF".to_string(),
            selector_engine: "indexed".to_string(),
            dimensions: 1,
            available_parallelism: 1,
            peak_rss_bytes: None,
            results: vec![one, four],
        };
        let body = serde_json::to_string(&report).unwrap();
        let back: ClusterBenchReport = serde_json::from_str(&body).unwrap();
        assert_eq!(report, back);
    }
}
