//! Online packing throughput: items/second through the event engine for
//! each algorithm, at several instance sizes.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use dbp_bench::standard_workload;
use dbp_core::algorithms::standard_factories;
use dbp_core::engine::{simulate, simulate_probed, EngineRun};
use dbp_core::probe::NoProbe;
use dbp_core::span::NoSpans;
use std::hint::black_box;

fn packing_throughput(c: &mut Criterion) {
    let mut group = c.benchmark_group("packing_throughput");
    for &n in &[1_000usize, 10_000] {
        let inst = standard_workload(n, 42);
        group.throughput(Throughput::Elements(n as u64));
        for factory in standard_factories(7) {
            group.bench_with_input(BenchmarkId::new(factory.name(), n), &inst, |b, inst| {
                b.iter(|| {
                    let mut sel = factory.build();
                    black_box(simulate(inst, &mut *sel).total_cost_ticks())
                })
            });
        }
    }
    group.finish();
}

/// The zero-cost contract of the probe seam: `simulate` (implicit
/// `NoProbe`), an explicit `NoProbe` through `simulate_probed`, and a live
/// recording probe, on the same workload. The first two must be within
/// noise of each other — `ENABLED = false` compiles instrumentation out.
fn probe_overhead(c: &mut Criterion) {
    let mut group = c.benchmark_group("probe_overhead");
    let n = 10_000usize;
    let inst = standard_workload(n, 42);
    group.throughput(Throughput::Elements(n as u64));
    group.bench_with_input(BenchmarkId::new("uninstrumented", n), &inst, |b, inst| {
        b.iter(|| {
            let mut ff = dbp_core::algorithms::FirstFit::new();
            black_box(simulate(inst, &mut ff).total_cost_ticks())
        })
    });
    group.bench_with_input(BenchmarkId::new("noop_probe", n), &inst, |b, inst| {
        b.iter(|| {
            let mut ff = dbp_core::algorithms::FirstFit::new();
            black_box(simulate_probed(inst, &mut ff, &mut NoProbe).total_cost_ticks())
        })
    });
    group.bench_with_input(BenchmarkId::new("counting_probe", n), &inst, |b, inst| {
        b.iter(|| {
            let mut ff = dbp_core::algorithms::FirstFit::new();
            let mut probe = dbp_obs::CountingProbe::new();
            black_box(simulate_probed(inst, &mut ff, &mut probe).total_cost_ticks())
        })
    });
    group.bench_with_input(BenchmarkId::new("event_log", n), &inst, |b, inst| {
        b.iter(|| {
            let mut ff = dbp_core::algorithms::FirstFit::new();
            let mut probe = dbp_obs::EventLog::new();
            let trace = simulate_probed(inst, &mut ff, &mut probe);
            // The decision-timing span covers the FULL arrival handling
            // (selection + placement bookkeeping): exactly one nonzero
            // sample per arrival. Run as assertions under
            // `cargo bench -- --test` so CI smoke-checks the span.
            assert_eq!(probe.decision_ns().len(), inst.len());
            assert!(probe.decision_ns().iter().all(|&ns| ns > 0));
            black_box(trace.total_cost_ticks())
        })
    });
    group.finish();
}

/// The zero-cost contract of the span seam, mirroring `probe_overhead`:
/// `simulate` (implicit `NoSpans`), an explicit `NoSpans` through
/// `EngineRun::traced`, and a live `SpanCollector`/`StageAggregator`. The
/// first two must be within noise — `ENABLED = false` compiles every
/// emission site out.
fn span_overhead(c: &mut Criterion) {
    let mut group = c.benchmark_group("span_overhead");
    let n = 10_000usize;
    let inst = standard_workload(n, 42);
    group.throughput(Throughput::Elements(n as u64));
    group.bench_with_input(BenchmarkId::new("uninstrumented", n), &inst, |b, inst| {
        b.iter(|| {
            let mut ff = dbp_core::algorithms::FirstFit::new();
            black_box(simulate(inst, &mut ff).total_cost_ticks())
        })
    });
    group.bench_with_input(BenchmarkId::new("noop_spans", n), &inst, |b, inst| {
        b.iter(|| {
            let mut ff = dbp_core::algorithms::FirstFit::new();
            black_box(
                EngineRun::traced(inst, &mut ff, &mut NoProbe, NoSpans)
                    .finish()
                    .total_cost_ticks(),
            )
        })
    });
    group.bench_with_input(BenchmarkId::new("span_collector", n), &inst, |b, inst| {
        b.iter(|| {
            let mut ff = dbp_core::algorithms::FirstFit::new();
            let mut spans = dbp_obs::SpanCollector::new(0);
            let trace = EngineRun::traced(inst, &mut ff, &mut NoProbe, &mut spans).finish();
            // One arrival span per item, nothing left open. Assertions run
            // under `cargo bench -- --test` so CI smoke-checks the seam.
            assert_eq!(
                spans
                    .spans()
                    .iter()
                    .filter(|s| s.name == dbp_core::span::stage::ARRIVAL)
                    .count(),
                inst.len()
            );
            black_box(trace.total_cost_ticks())
        })
    });
    group.bench_with_input(BenchmarkId::new("stage_aggregator", n), &inst, |b, inst| {
        b.iter(|| {
            let mut ff = dbp_core::algorithms::FirstFit::new();
            let mut spans = dbp_obs::StageAggregator::new(0);
            let trace = EngineRun::traced(inst, &mut ff, &mut NoProbe, &mut spans).finish();
            assert!(!spans.breakdown().is_empty());
            black_box(trace.total_cost_ticks())
        })
    });
    group.finish();
}

fn adversarial_instances(c: &mut Criterion) {
    let mut group = c.benchmark_group("adversarial_build_and_pack");
    group.sample_size(20);
    group.bench_function("theorem1_k32_mu10", |b| {
        b.iter(|| {
            let t1 = dbp_adversary::Theorem1::new(32, 10);
            let inst = t1.instance();
            let mut ff = dbp_core::algorithms::FirstFit::new();
            black_box(simulate(&inst, &mut ff).total_cost_ticks())
        })
    });
    group.bench_function("theorem2_k6_mu2_n12", |b| {
        b.iter(|| {
            let t2 = dbp_adversary::Theorem2::new(6, 2, 12);
            let inst = t2.instance();
            let mut bf = dbp_core::algorithms::BestFit::new();
            black_box(simulate(&inst, &mut bf).total_cost_ticks())
        })
    });
    group.finish();
}

criterion_group!(
    benches,
    packing_throughput,
    probe_overhead,
    span_overhead,
    adversarial_instances
);
criterion_main!(benches);
