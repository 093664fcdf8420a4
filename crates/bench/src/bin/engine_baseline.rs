//! Engine throughput baseline: packs churn-heavy synthetic instances
//! through the event engine and writes a machine-readable report to
//! `BENCH_ENGINE.json`.
//!
//! Usage:
//!
//! ```text
//! cargo run --release -p dbp-bench --bin engine_baseline [--quick] [--out PATH]
//! ```
//!
//! The grid is {10^5, 10^6} items (`--quick`: {10^4, 10^5}) for the indexed
//! FF/BF/MFF(8) selectors; the naive scanning implementations run only at
//! the smaller size as comparison rows (their per-arrival scan is O(open
//! bins), which is exactly what this baseline exists to show moving away
//! from).
//!
//! Each cell is measured twice: an uninstrumented `simulate` run for wall
//! time and items/sec, then a probed run for mean per-arrival decision
//! nanoseconds and the peak open-bin count. All JSON fields are integers
//! (or strings/bool), so the report diffs cleanly across runs.

use dbp_bench::{churn_workload, ns_to_ms_rounded, write_report, ReportArgs};
use dbp_cloudsim::{GamingSystem, Granularity, ServerType};
use dbp_cluster::{ClusterConfig, ClusterEngine, Router};
use dbp_core::algorithms::{
    BestFit, FirstFit, IndexedBestFit, IndexedFirstFit, IndexedMff, ModifiedFirstFit,
};
use dbp_core::engine::{simulate, simulate_probed};
use dbp_core::instance::Instance;
use dbp_core::packer::{BinSelector, SelectorFactory};
use dbp_core::probe::{GProbeEvent, NoProbe, Probe};
use serde::{Deserialize, Serialize};
use std::process::ExitCode;
use std::time::Instant;

const SEED: u64 = 42;

/// Report schema; bump when fields change (CI validates this).
/// v3: indexed MFF row, nanosecond-rounded wall fields, and the cluster
/// overhead comparison runs the indexed selector (the shipped engine).
/// v4: `dimensions` on every row and on the overhead block (1 = scalar),
/// plus a D=3 vector row measuring the const-generic engine on the
/// heterogeneous widening of the same churn stream.
const SCHEMA_VERSION: u64 = 4;

/// One measured (algorithm, engine, n) cell.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
struct BenchResult {
    /// Algorithm name as it appears in traces ("FF", "BF", "MFF").
    algorithm: String,
    /// "indexed" (hook-maintained index) or "naive" (view scan).
    engine: String,
    /// Demand dimensionality the row ran at (1 = scalar `Size`).
    dimensions: u64,
    /// Items packed.
    n_items: u64,
    /// Wall time of the uninstrumented run, milliseconds.
    wall_ms: u64,
    /// Throughput of the uninstrumented run.
    items_per_sec: u64,
    /// Mean full-arrival decision time from the probed run, nanoseconds.
    mean_decision_ns: u64,
    /// Bins the trace opened.
    bins_used: u64,
    /// Peak simultaneous open bins.
    max_open_bins: u64,
}

/// Plain `simulate` vs a 1-shard cluster on the same stream and selector
/// (indexed FF — the engine the repo ships — at the smaller grid size).
/// This is the exact answer to "why does BENCH_CLUSTER's 1-shard row sit
/// below BENCH_ENGINE's items/sec": the cluster path pays partition +
/// trace validation + report/manifest construction that the bare
/// engine loop never runs. The two bills are asserted identical, so the
/// ratio is pure bookkeeping tax.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
struct ClusterOverhead {
    /// Selector engine both sides ran ("indexed").
    selector_engine: String,
    /// Demand dimensionality of the comparison stream (1 = scalar).
    dimensions: u64,
    /// Items in the comparison stream.
    n_items: u64,
    /// Plain engine wall, milliseconds.
    plain_wall_ms: u64,
    /// Plain engine throughput.
    plain_items_per_sec: u64,
    /// 1-shard cluster wall, milliseconds.
    cluster_wall_ms: u64,
    /// 1-shard cluster throughput.
    cluster_items_per_sec: u64,
    /// Cluster wall over plain wall, thousandths (1000 = parity).
    overhead_millis: u64,
}

/// The whole report, written as `BENCH_ENGINE.json`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
struct BenchReport {
    schema_version: u64,
    quick: bool,
    seed: u64,
    capacity: u64,
    peak_rss_bytes: Option<u64>,
    /// The dispatch-layer tax: plain engine vs 1-shard cluster.
    overhead_vs_plain_engine: ClusterOverhead,
    results: Vec<BenchResult>,
}

/// Counts arrivals/decision time and tracks the open-bin peak; everything
/// else in the event stream is dropped on the floor.
#[derive(Debug, Default)]
struct EngineStats {
    decisions: u64,
    decision_ns_total: u64,
    open_bins: u64,
    max_open_bins: u64,
}

impl<Sz: dbp_core::demand::Demand> Probe<Sz> for EngineStats {
    const TIMED: bool = true;

    fn record(&mut self, event: GProbeEvent<Sz>) {
        match event {
            GProbeEvent::BinOpened { .. } => {
                self.open_bins += 1;
                self.max_open_bins = self.max_open_bins.max(self.open_bins);
            }
            GProbeEvent::BinClosed { .. } | GProbeEvent::BinCrashed { .. } => {
                self.open_bins -= 1;
            }
            _ => {}
        }
    }

    fn on_decision_ns(&mut self, ns: u64) {
        self.decisions += 1;
        self.decision_ns_total += ns;
    }
}

fn measure(
    inst: &Instance,
    algorithm: &str,
    engine: &str,
    build: &dyn Fn() -> Box<dyn BinSelector>,
) -> BenchResult {
    let n = inst.len() as u64;

    let mut sel = build();
    let started = Instant::now();
    let trace = simulate(inst, &mut *sel);
    let wall = started.elapsed();
    assert_eq!(trace.algorithm, algorithm, "selector mislabeled");

    let mut sel = build();
    let mut stats = EngineStats::default();
    let probed = simulate_probed(inst, &mut *sel, &mut stats);
    assert_eq!(probed, trace, "probed run diverged from plain run");
    assert_eq!(stats.decisions, n, "missing decision timings");

    let wall_ns = wall.as_nanos().max(1);
    BenchResult {
        algorithm: algorithm.to_string(),
        engine: engine.to_string(),
        dimensions: 1,
        n_items: n,
        wall_ms: ns_to_ms_rounded(wall_ns),
        items_per_sec: (n as u128 * 1_000_000_000 / wall_ns) as u64,
        mean_decision_ns: stats.decision_ns_total / n.max(1),
        bins_used: trace.bins_used() as u64,
        max_open_bins: stats.max_open_bins,
    }
}

/// The same double measurement for the const-generic engine at D=3: the
/// heterogeneous `[gpu, cpu, mem]` widening of the scalar stream through
/// the indexed selector. This is the vector engine's cost-of-generality
/// row — compare it against the scalar indexed row at the same `n`.
fn measure_vector(inst: &Instance, algorithm: &str) -> BenchResult {
    use dbp_core::demand::VSize;
    let vinst = dbp_workloads::widen(inst);
    let n = vinst.len() as u64;
    let name = format!("{algorithm}-idx");
    let build = || dbp_core::algorithms::selector_for::<VSize<3>>(&name).expect("vector roster");

    let mut sel = build();
    let started = Instant::now();
    let trace = dbp_core::engine::simulate(&vinst, &mut *sel);
    let wall = started.elapsed();

    let mut sel = build();
    let mut stats = EngineStats::default();
    let probed = simulate_probed(&vinst, &mut *sel, &mut stats);
    assert_eq!(probed, trace, "probed vector run diverged from plain run");
    assert_eq!(stats.decisions, n, "missing decision timings");

    let wall_ns = wall.as_nanos().max(1);
    BenchResult {
        algorithm: algorithm.to_string(),
        engine: "indexed".to_string(),
        dimensions: 3,
        n_items: n,
        wall_ms: ns_to_ms_rounded(wall_ns),
        items_per_sec: (n as u128 * 1_000_000_000 / wall_ns) as u64,
        mean_decision_ns: stats.decision_ns_total / n.max(1),
        bins_used: trace.bins_used() as u64,
        max_open_bins: stats.max_open_bins,
    }
}

/// Measure the dispatch-layer tax: the same stream through bare `simulate`
/// and through a 1-shard cluster, both on indexed First Fit — comparing
/// naive-vs-naive here would understate the tax by hiding it behind the
/// selector's own O(open bins) scan.
fn measure_cluster_overhead(inst: &Instance) -> ClusterOverhead {
    let n = inst.len() as u64;

    let started = Instant::now();
    let trace = simulate(inst, &mut IndexedFirstFit::new());
    let plain_ns = started.elapsed().as_nanos().max(1);

    let system = GamingSystem {
        server: ServerType {
            gpu_capacity: inst.capacity().raw(),
            ..ServerType::default_gpu_vm()
        },
        granularity: Granularity::PerTick,
    };
    let engine = ClusterEngine::new(system, ClusterConfig::new(1, Router::HashByItem).unwrap());
    let factory = SelectorFactory::new("FF", || Box::new(IndexedFirstFit::new()));
    let started = Instant::now();
    let (run, _) = engine
        .run_probed(inst, &factory, |_| NoProbe)
        .expect("workload and system share one capacity");
    let cluster_ns = started.elapsed().as_nanos().max(1);
    assert_eq!(
        run.report.busy_ticks,
        trace.total_cost_ticks(),
        "a 1-shard cluster must reproduce the plain bill exactly"
    );

    ClusterOverhead {
        selector_engine: "indexed".to_string(),
        dimensions: 1,
        n_items: n,
        plain_wall_ms: ns_to_ms_rounded(plain_ns),
        plain_items_per_sec: (n as u128 * 1_000_000_000 / plain_ns) as u64,
        cluster_wall_ms: ns_to_ms_rounded(cluster_ns),
        cluster_items_per_sec: (n as u128 * 1_000_000_000 / cluster_ns) as u64,
        // Ratio from the raw nanosecond readings (already clamped ≥ 1),
        // never from the rounded millisecond fields.
        overhead_millis: ((cluster_ns * 1000 + plain_ns / 2) / plain_ns) as u64,
    }
}

fn main() -> ExitCode {
    let Some(args) = ReportArgs::from_env("BENCH_ENGINE.json") else {
        return ExitCode::FAILURE;
    };
    let quick = args.quick;
    // Undocumented: a 1k-item grid so the schema-validation test can run
    // the real binary end-to-end in seconds, debug build included.
    let tiny = args.has("--tiny");

    let sizes: &[usize] = if tiny {
        &[1_000]
    } else if quick {
        &[10_000, 100_000]
    } else {
        &[100_000, 1_000_000]
    };

    type Row = (&'static str, &'static str, fn() -> Box<dyn BinSelector>);
    let rows: &[Row] = &[
        ("FF", "indexed", || Box::new(IndexedFirstFit::new())),
        ("BF", "indexed", || Box::new(IndexedBestFit::new())),
        ("MFF", "indexed", || Box::new(IndexedMff::new(8))),
        ("FF", "naive", || Box::new(FirstFit::new())),
        ("BF", "naive", || Box::new(BestFit::new())),
        ("MFF", "naive", || Box::new(ModifiedFirstFit::new(8))),
    ];

    let mut results = Vec::new();
    let mut capacity = 0;
    let mut overhead = None;
    for &n in sizes {
        eprintln!("[gen] churn_workload n={n}");
        let inst = churn_workload(n, SEED);
        capacity = inst.capacity().raw();
        for &(algorithm, engine, build) in rows {
            // Naive selectors scan every open bin per arrival; keep them to
            // the smaller size so the full grid finishes in minutes.
            if engine == "naive" && n != sizes[0] {
                continue;
            }
            let r = measure(&inst, algorithm, engine, &build);
            eprintln!(
                "[bench] {algorithm:>6} {engine:>7} n={n:>7} {:>9} items/s mean {:>6} ns/decision",
                r.items_per_sec, r.mean_decision_ns
            );
            results.push(r);
        }
        if n == sizes[0] {
            // The D=3 vector row at the smaller size: the same stream,
            // widened, through the const-generic indexed engine.
            let r = measure_vector(&inst, "FF");
            eprintln!(
                "[bench] {:>6} {:>7} n={:>7} {:>9} items/s mean {:>6} ns/decision (D=3)",
                r.algorithm, r.engine, r.n_items, r.items_per_sec, r.mean_decision_ns
            );
            results.push(r);
            let o = measure_cluster_overhead(&inst);
            eprintln!(
                "[bench] dispatch-layer tax: plain {} items/s vs 1-shard cluster {} items/s \
                 ({:.2}x wall)",
                o.plain_items_per_sec,
                o.cluster_items_per_sec,
                o.overhead_millis as f64 / 1000.0,
            );
            overhead = Some(o);
        }
    }

    let report = BenchReport {
        schema_version: SCHEMA_VERSION,
        quick,
        seed: SEED,
        capacity,
        peak_rss_bytes: dbp_obs::manifest::peak_rss_bytes(),
        overhead_vs_plain_engine: overhead.expect("the first grid size always runs"),
        results,
    };
    write_report(&args.out, &report)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn report_round_trips_and_engines_agree() {
        let inst = churn_workload(2_000, 7);
        let indexed = measure(&inst, "FF", "indexed", &|| Box::new(IndexedFirstFit::new()));
        let naive = measure(&inst, "FF", "naive", &|| Box::new(FirstFit::new()));
        assert_eq!(indexed.bins_used, naive.bins_used);
        assert_eq!(indexed.max_open_bins, naive.max_open_bins);
        assert_eq!((indexed.dimensions, naive.dimensions), (1, 1));
        let vector = measure_vector(&inst, "FF");
        assert_eq!(vector.dimensions, 3);
        assert_eq!(vector.n_items, indexed.n_items);
        assert!(vector.bins_used > 0);
        let overhead = measure_cluster_overhead(&inst);
        assert!(overhead.overhead_millis > 0);
        assert_eq!(overhead.dimensions, 1);
        let report = BenchReport {
            schema_version: SCHEMA_VERSION,
            quick: true,
            seed: 7,
            capacity: inst.capacity().raw(),
            peak_rss_bytes: None,
            overhead_vs_plain_engine: overhead,
            results: vec![indexed, naive, vector],
        };
        assert_eq!(report.schema_version, 4, "v4 adds the dimensions fields");
        let text = serde_json::to_string_pretty(&report).unwrap();
        assert!(text.contains("\"dimensions\""));
        let back: BenchReport = serde_json::from_str(&text).unwrap();
        assert_eq!(back, report);
    }
}
