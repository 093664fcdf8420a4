//! The D=1 degeneracy theorem, tested: the const-generic vector engine
//! run at one dimension is *byte-identical* to the scalar engine — same
//! trace JSON, same probe-event JSONL, same instance digest, same bill —
//! for every selector the vector roster offers, on arbitrary churn-heavy
//! instances. At D>1 the same sweep checks the invariants that replace
//! byte identity: per-dimension capacity respect (via the validating
//! engine), per-dimension demand conservation, and router conservation
//! across cluster dispatch. The fault layer is held to the same D=1
//! byte identity under crashes, boot delays and retries, and so is the
//! cluster under each of its fault models.
//!
//! Byte identity is the strongest equivalence there is: it subsumes
//! cost equality, assignment equality, and event-order equality in one
//! string comparison, and it pins the serialization format (a `VSize<1>`
//! demand must serialize as a bare integer, not a one-element array).

use dbp::prelude::*;
use dbp_cloudsim::faults::AdmissionPolicy;
use dbp_cloudsim::{
    billed_ticks, rental_cost_cents, FaultConfig, FaultPlan, GamingSystem, Granularity,
    ResilientSystem, ServerType,
};
use dbp_cluster::vector::dim_reports;
use dbp_cluster::{
    ClusterConfig, ClusterEngine, ClusterReport, ClusterRun, KillPoint, RestartPolicy, Router,
    ShardFaultPlan, ShardKill,
};
use dbp_core::bounds::combined_lower_bound;
use dbp_core::demand::{Demand, VSize};
use dbp_core::engine::{simulate_probed, simulate_validated as sim_validated};
use dbp_core::events::EventKind;
use dbp_core::gantt::{render_gantt, sparkline};
use dbp_core::instance::GInstance;
use dbp_core::metrics::fleet_stats;
use dbp_core::packer::{BinSelector, GSelectorFactory};
use dbp_core::span::NoSpans;
use dbp_core::svg::{render_svg, SvgOptions};
use dbp_core::trace::PackingTrace;
use dbp_obs::export::events_to_jsonl;
use dbp_obs::journal::{FsyncPolicy, JournalProbe};
use dbp_obs::manifest::instance_digest;
use dbp_obs::{EventLog, GEventLog};
use dbp_serve::{GShardPipeline, Outcome, Request, ServeProbe, MAX_DIMS};
use dbp_workloads::{lift_uniform, widen};
use proptest::prelude::*;

/// Every selector available on the vector roster, by the names
/// `selector_for` resolves for both `Size` and `VSize<D>`.
const SELECTORS: [&str; 6] = ["FF", "BF", "MFF(8)", "FF-idx", "BF-idx", "MFF-idx"];

const ROUTERS: [Router; 3] = [
    Router::HashByItem,
    Router::GameAffinity,
    Router::LeastLoaded,
];

fn selector<Sz: Demand>(name: &str) -> Box<dyn BinSelector<Sz>> {
    dbp_core::algorithms::selector_for::<Sz>(name)
        .unwrap_or_else(|| panic!("selector {name} missing from the vector roster"))
}

fn factory<Sz: Demand>(name: &'static str) -> GSelectorFactory<Sz> {
    GSelectorFactory::new(name, move || selector::<Sz>(name))
}

/// A cluster of `shards` shards under `router` whose servers' GPU
/// capacity is `inst`'s.
fn cluster<Sz: Demand>(inst: &GInstance<Sz>, router: Router, shards: usize) -> ClusterEngine {
    let system = GamingSystem {
        server: ServerType {
            gpu_capacity: inst.capacity().component(0),
            ..ServerType::default_gpu_vm()
        },
        granularity: Granularity::PerTick,
    };
    ClusterEngine::new(system, ClusterConfig::new(shards, router).unwrap())
}

/// `vinst` packed by selector `name` across `shards` shards under
/// `router`, every shard trace validated (per-dimension capacity,
/// interval exactness) against its own sub-instance.
fn validated_cluster_run<Sz: Demand>(
    vinst: &GInstance<Sz>,
    router: Router,
    shards: usize,
    name: &'static str,
) -> ClusterRun<Sz> {
    let engine = cluster(vinst, router, shards);
    let (run, _) = engine
        .run_probed(vinst, &factory(name), |_| NoProbe)
        .unwrap();
    let (parts, _) = engine.partition(vinst);
    for (shard, (sub, _)) in run.shards.iter().zip(&parts) {
        let errs = shard.trace.validate(sub);
        assert!(
            errs.is_empty(),
            "{name}/{}: shard {}: {errs:?}",
            router.name(),
            shard.shard
        );
    }
    run
}

fn instances() -> impl Strategy<Value = Instance> {
    let item = (0u64..300, 1u64..90, 1u64..=40);
    proptest::collection::vec(item, 1..60).prop_map(|raw| {
        let mut b = InstanceBuilder::new(40);
        for (a, len, s) in raw {
            b.add(a, a + len, s);
        }
        b.build().unwrap()
    })
}

/// Every indexed selector assigns exactly as its naive twin on `vinst`,
/// at the same cost.
fn assert_indexed_match_naive<const D: usize>(vinst: &GInstance<VSize<D>>) {
    for (naive, indexed) in [("BF", "BF-idx"), ("FF", "FF-idx"), ("MFF(8)", "MFF-idx")] {
        let want = sim_validated(vinst, &mut *selector::<VSize<D>>(naive));
        let got = sim_validated(vinst, &mut *selector::<VSize<D>>(indexed));
        let w = vinst.capacity();
        assert_eq!(
            want.assignment, got.assignment,
            "{indexed} diverged from {naive} at W = {w:?}"
        );
        assert_eq!(
            want.total_cost_ticks(),
            got.total_cost_ticks(),
            "{indexed} cost diverged from {naive} at W = {w:?}"
        );
    }
}

/// D=2 instances against W = [10, 10] whose two components are drawn
/// independently.
fn independent_d2() -> impl Strategy<Value = GInstance<VSize<2>>> {
    let item = (0u64..200, 1u64..90, 1u64..=8, 1u64..=8);
    proptest::collection::vec(item, 1..80).prop_map(|raw| {
        let mut b = dbp_core::instance::GInstanceBuilder::new(VSize([10, 10]));
        for (a, len, x, y) in raw {
            b.add(a, a + len, VSize([x, y]));
        }
        b.build().unwrap()
    })
}

/// Exact per-dimension demand volume of an instance: Σ size_d · duration.
fn demand_ticks<Sz: Demand>(inst: &GInstance<Sz>) -> Vec<u128> {
    let mut ticks = vec![0u128; Sz::DIMS];
    for it in inst.items() {
        let span = (it.departure.raw() - it.arrival.raw()) as u128;
        for (d, slot) in ticks.iter_mut().enumerate() {
            *slot += it.size.component(d) as u128 * span;
        }
    }
    ticks
}

/// A fresh journal path in the temp dir, unique within this test binary.
fn fresh_wal_path() -> std::path::PathBuf {
    static NEXT: std::sync::atomic::AtomicUsize = std::sync::atomic::AtomicUsize::new(0);
    let dir = std::env::temp_dir().join(format!("dbp-vector-wal-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let n = NEXT.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
    dir.join(format!("{n}.wal"))
}

/// Read and delete the journal at `path`.
fn take_wal(path: &std::path::Path) -> Vec<u8> {
    let bytes = std::fs::read(path).unwrap();
    std::fs::remove_file(path).unwrap();
    bytes
}

/// The bytes of the journal a `name` run of `inst` writes.
fn wal_bytes<Sz: Demand>(inst: &GInstance<Sz>, name: &str) -> Vec<u8> {
    let path = fresh_wal_path();
    let mut probe = JournalProbe::create_dims(&path, FsyncPolicy::Never, Sz::DIMS).unwrap();
    simulate_probed(inst, &mut *selector::<Sz>(name), &mut probe);
    probe.finish().unwrap();
    take_wal(&path)
}

/// The bytes of the journal a one-shard serve pipeline running `name`
/// writes when fed `inst`'s schedule as requests (external id = item id).
fn pipeline_wal_bytes<Sz: Demand>(inst: &GInstance<Sz>, name: &str) -> Vec<u8> {
    let path = fresh_wal_path();
    let probe = ServeProbe {
        journal: Some(JournalProbe::create_dims(&path, FsyncPolicy::Never, Sz::DIMS).unwrap()),
    };
    let mut pipe = GShardPipeline::with_probe(
        inst.capacity(),
        selector::<Sz>(name),
        AdmissionPolicy::unbounded(),
        probe,
    );
    for ev in dbp_core::events::schedule(inst) {
        let id = u64::from(ev.item.0);
        let req = match ev.kind {
            EventKind::Arrival => {
                let size = inst.item(ev.item).size;
                let mut demand = [0; MAX_DIMS];
                for (d, c) in demand.iter_mut().enumerate().take(Sz::DIMS) {
                    *c = size.component(d);
                }
                Request::Arrive {
                    id,
                    at: ev.at.raw(),
                    demand,
                }
            }
            EventKind::Departure => Request::Depart {
                id,
                at: ev.at.raw(),
            },
        };
        let outcome = pipe.handle(&req);
        assert!(
            matches!(outcome, Outcome::Placed { .. } | Outcome::Departed),
            "{name}: {req:?} got {outcome:?}"
        );
    }
    pipe.seal().unwrap();
    take_wal(&path)
}

/// `inst` with its items renumbered in arrival order (ties keep id order),
/// the order the serve pipeline numbers its sessions in.
fn arrival_ordered(inst: &Instance) -> Instance {
    let mut items = inst.items().to_vec();
    items.sort_by_key(|it| it.arrival);
    let mut b = InstanceBuilder::new(inst.capacity().0);
    for it in items {
        b.add(it.arrival.raw(), it.departure.raw(), it.size.0);
    }
    b.build().unwrap()
}

/// The full D=1 byte-identity check for one selector on one instance.
fn assert_d1_byte_identical(inst: &Instance, name: &str) {
    let vinst = lift_uniform::<1>(inst);

    let mut slog = EventLog::new();
    let strace = simulate_probed(inst, &mut *selector::<Size>(name), &mut slog);
    let mut vlog = GEventLog::<VSize<1>>::new();
    let vtrace = simulate_probed(&vinst, &mut *selector::<VSize<1>>(name), &mut vlog);

    // Trace, event stream, and digest: byte-for-byte.
    let sjson = serde_json::to_string(&strace).unwrap();
    let vjson = serde_json::to_string(&vtrace).unwrap();
    assert_eq!(sjson, vjson, "{name}: D=1 trace JSON diverged");
    assert_eq!(
        events_to_jsonl(slog.events()),
        events_to_jsonl(vlog.events()),
        "{name}: D=1 probe JSONL diverged"
    );
    assert_eq!(
        instance_digest(inst),
        instance_digest(&vinst),
        "D=1 instance digest diverged"
    );
    assert_eq!(
        wal_bytes(inst, name),
        wal_bytes(&vinst, name),
        "{name}: D=1 journal bytes diverged"
    );

    // The report, its bound and the pictures of `dbp run`, as strings.
    let summary = |s: &RunSummary| serde_json::to_string(s).unwrap();
    assert_eq!(
        summary(&summarize(inst, &strace)),
        summary(&summarize(&vinst, &vtrace)),
        "{name}: D=1 summary diverged"
    );
    assert_eq!(
        serde_json::to_string(&fleet_stats(&strace)).unwrap(),
        serde_json::to_string(&fleet_stats(&vtrace)).unwrap(),
        "{name}: D=1 fleet stats diverged"
    );
    assert_eq!(
        render_gantt(inst, &strace, 40),
        render_gantt(&vinst, &vtrace, 40),
        "{name}: D=1 gantt diverged"
    );
    assert_eq!(
        sparkline(&strace),
        sparkline(&vtrace),
        "{name}: D=1 sparkline diverged"
    );
    assert_eq!(
        render_svg(inst, &strace, SvgOptions::default()),
        render_svg(&vinst, &vtrace, SvgOptions::default()),
        "{name}: D=1 svg diverged"
    );
    assert_eq!(
        combined_lower_bound(inst),
        combined_lower_bound(&vinst),
        "D=1 lower bound diverged"
    );

    // The bill: the vector trace *is* a scalar trace (its bytes parse as
    // one), and every billing granularity prices it identically.
    let as_scalar: PackingTrace = serde_json::from_str(&vjson).unwrap();
    let server = ServerType::default_gpu_vm();
    for g in [Granularity::PerTick, Granularity::PerHour] {
        assert_eq!(
            billed_ticks(&strace, g),
            billed_ticks(&as_scalar, g),
            "{name}: billed ticks diverged under {g:?}"
        );
        assert_eq!(
            rental_cost_cents(&strace, server, g),
            rental_cost_cents(&as_scalar, server, g),
            "{name}: bill diverged under {g:?}"
        );
    }
}

/// D>1 invariants for one selector at one dimensionality: the validating
/// engine accepts the packing (per-dimension capacity respect), cost is
/// the scalar engine's cost (a uniform lift changes no decision — every
/// dimension sees the same fit question), and conservation holds under
/// every cluster router.
fn assert_lifted_invariants<const D: usize>(inst: &Instance, name: &'static str) {
    let vinst = lift_uniform::<D>(inst);
    let vtrace = sim_validated(&vinst, &mut *selector::<VSize<D>>(name));
    let strace = sim_validated(inst, &mut *selector::<Size>(name));
    assert_eq!(
        strace.total_cost_ticks(),
        vtrace.total_cost_ticks(),
        "{name}: a uniform lift to D={D} changed the packing cost"
    );
    assert_eq!(
        strace.assignment, vtrace.assignment,
        "{name}: a uniform lift to D={D} changed an assignment"
    );
    // Every u_d/W_d of a uniform lift is u/W: the bound does not move, and
    // the packing still pays at least it.
    let lb = combined_lower_bound(inst);
    assert_eq!(
        combined_lower_bound(&vinst),
        lb,
        "{name}: a uniform lift to D={D} moved the lower bound"
    );
    assert!(
        Ratio::from_int(vtrace.total_cost_ticks()) >= lb,
        "{name}: D={D} cost below the lower bound"
    );

    let expected = demand_ticks(&vinst);
    for router in ROUTERS {
        let run = validated_cluster_run(&vinst, router, 3, name);
        assert_eq!(run.report.sessions_served, inst.len());
        let dims = dim_reports(&vinst, run.report.busy_ticks);
        assert_eq!(dims.len(), D);
        for d in &dims {
            assert_eq!(
                d.demand_ticks,
                expected[d.dim],
                "{name}/{}: dim {} demand not conserved across shards",
                router.name(),
                d.dim
            );
            assert_eq!(
                d.rented_ticks - d.waste_ticks,
                d.demand_ticks,
                "{name}/{}: dim {} ledger does not balance",
                router.name(),
                d.dim
            );
        }
        // The shard traces themselves must re-add to the demand volume:
        // nothing served twice, nothing dropped.
        let shard_sessions: usize = run.shards.iter().map(|s| s.back.len()).sum();
        assert_eq!(shard_sessions, inst.len());
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The headline theorem: every vector selector at D=1 is the scalar
    /// selector, down to the last serialized byte.
    #[test]
    fn d1_is_byte_identical_for_every_selector(inst in instances()) {
        for name in SELECTORS {
            assert_d1_byte_identical(&inst, name);
        }
    }

    /// Uniform lifts to D=2 and D=4 preserve cost and assignments, and
    /// cluster dispatch conserves per-dimension demand under every router.
    #[test]
    fn lifted_instances_conserve_per_dimension(inst in instances()) {
        for name in SELECTORS {
            assert_lifted_invariants::<2>(&inst, name);
            assert_lifted_invariants::<4>(&inst, name);
        }
    }

    /// The serve shard pipeline at D=3 (the heterogeneous [gpu, cpu, mem]
    /// widening — genuinely non-uniform demands), fed the schedule as
    /// requests, journals the bytes the batch engine journals.
    #[test]
    fn serve_pipeline_at_d3_journals_the_batch_wal(inst in instances()) {
        let vinst = widen(&arrival_ordered(&inst));
        for name in SELECTORS {
            prop_assert!(
                pipeline_wal_bytes(&vinst, name) == wal_bytes(&vinst, name),
                "{}: the D=3 pipeline's WAL diverged from the batch run's", name
            );
        }
    }

    /// At D=3 on genuinely non-uniform demands every indexed selector
    /// assigns exactly as its naive twin. The widened capacity totals 2800
    /// (BF's dense layout); the same stream scaled by 2^32 totals past
    /// 4096 (its sparse layout).
    #[test]
    fn indexed_selectors_match_naive_at_d3(inst in instances()) {
        let dense = widen(&inst);
        let sparse = dense.map_demand(|s| VSize(s.0.map(|c| c << 32))).unwrap();
        assert_indexed_match_naive(&dense);
        assert_indexed_match_naive(&sparse);
    }

    /// The same identity where BF's componentwise re-check does the most
    /// work: independent, small components, so level totals tie often and
    /// the lowest-id bin of the fullest feasible total often fails in one
    /// dimension, sending BF on to the rest of the level and below. Dense
    /// at W = [10, 10]; sparse scaled by 2^40.
    #[test]
    fn indexed_selectors_match_naive_on_independent_components(inst in independent_d2()) {
        let sparse = inst.map_demand(|s| VSize(s.0.map(|c| c << 40))).unwrap();
        assert_indexed_match_naive(&inst);
        assert_indexed_match_naive(&sparse);
    }

    /// At D=1 the vector routers make the scalar routers' decisions:
    /// identical shard assignment for the whole stream.
    #[test]
    fn d1_routing_matches_scalar_routers(inst in instances(), shards in 1usize..5) {
        let vinst = lift_uniform::<1>(&inst);
        for router in ROUTERS {
            let scalar = router.assign(&inst, shards);
            let vector = router.assign(&vinst, shards);
            prop_assert_eq!(&scalar, &vector, "router {} diverged at D=1", router.name());
        }
    }
}

/// The dominance selector is vector-only (it orders by max component);
/// it still must satisfy the D>1 invariants, just not scalar equality.
/// The fault layer at D = 1: a `VSize<1>` run under a fault plan is
/// byte-identical to the scalar run — the same report, and the same
/// event stream through crashes, boot delays, rejections, retries and
/// re-dispatches — for seeded and hand-written plans.
#[test]
fn d1_fault_runs_are_byte_identical() {
    let inst = dbp_workloads::generate(&dbp_workloads::CloudGamingConfig {
        horizon: 2400,
        seed: 21,
        ..dbp_workloads::CloudGamingConfig::default()
    });
    let vinst = lift_uniform::<1>(&inst);
    let heavy = FaultConfig {
        crash_rate_per_hour: 30.0,
        boot_fail_prob: 0.3,
        boot_delay_max: 45,
        reject_prob: 0.2,
    };
    let written: FaultPlan = serde_json::from_str(
        r#"{"seed":9,"crashes":[{"at":0,"server":3},{"at":400,"server":1},
            {"at":400,"server":7},{"at":1500,"server":2}],
            "boot_fail_prob":0.2,"boot_delay_max":40,"reject_prob":0.1,
            "retry":{"base":2,"cap":32,"jitter":5,"max_attempts":4},
            "admission":{"queue_capacity":3,"queue_timeout":60}}"#,
    )
    .unwrap();
    let plans = [
        FaultPlan::generate(42, 2400, 8, &FaultConfig::moderate()).unwrap(),
        FaultPlan::generate(7, 2400, 8, &heavy).unwrap(),
        written,
    ];
    for plan in plans {
        let sys = ResilientSystem::new(GamingSystem::paper_model(), plan);
        for name in SELECTORS {
            let mut slog = EventLog::new();
            let scalar = sys
                .run_probed(&inst, &mut *selector::<Size>(name), &mut slog)
                .unwrap();
            let mut vlog = GEventLog::<VSize<1>>::new();
            let vector = sys
                .run_probed(&vinst, &mut *selector::<VSize<1>>(name), &mut vlog)
                .unwrap();
            assert!(
                scalar.crashes > 0 && scalar.redispatches > 0,
                "{name}: {scalar:?}"
            );
            assert_eq!(
                serde_json::to_string(&scalar).unwrap(),
                serde_json::to_string(&vector).unwrap(),
                "{name}: D=1 fault report diverged"
            );
            assert_eq!(
                events_to_jsonl(slog.events()),
                events_to_jsonl(vlog.events()),
                "{name}: D=1 fault event stream diverged"
            );
        }
    }
}

#[test]
fn dominance_selector_conserves_at_high_dims() {
    let inst = dbp_workloads::generate(&dbp_workloads::CloudGamingConfig {
        horizon: 1800,
        seed: 11,
        ..dbp_workloads::CloudGamingConfig::default()
    });
    let vinst = lift_uniform::<4>(&inst);
    let trace = sim_validated(&vinst, &mut *selector::<VSize<4>>("DOM"));
    assert!(trace.bins_used() > 0);
    let expected = demand_ticks(&vinst);
    let run = validated_cluster_run(&vinst, Router::LeastLoaded, 4, "DOM");
    for d in &dim_reports(&vinst, run.report.busy_ticks) {
        assert_eq!(d.demand_ticks, expected[d.dim]);
    }
}

/// A genuinely heterogeneous (non-uniform) D=2 instance where different
/// dimensions bind for different items: conservation and validation must
/// hold when the intersection constraint is doing real work.
#[test]
fn heterogeneous_dims_conserve_under_all_routers() {
    let mut b = dbp_core::instance::GInstanceBuilder::<VSize<2>>::new(VSize([10, 6]));
    // GPU-bound, memory-light …
    for k in 0..40u64 {
        b.add(k, k + 30, VSize([7, 1]));
    }
    // … memory-bound, GPU-light …
    for k in 0..40u64 {
        b.add(2 * k, 2 * k + 17, VSize([1, 5]));
    }
    // … and balanced.
    for k in 0..40u64 {
        b.add(3 * k, 3 * k + 9, VSize([4, 3]));
    }
    let vinst = b.build().unwrap();
    let expected = demand_ticks(&vinst);
    for name in SELECTORS {
        let trace = sim_validated(&vinst, &mut *selector::<VSize<2>>(name));
        assert!(trace.bins_used() > 0, "{name}: nothing packed");
        for router in ROUTERS {
            let run = validated_cluster_run(&vinst, router, 3, name);
            for d in &dim_reports(&vinst, run.report.busy_ticks) {
                assert_eq!(
                    d.demand_ticks,
                    expected[d.dim],
                    "{name}/{}: dim {} demand not conserved",
                    router.name(),
                    d.dim
                );
            }
        }
    }
}

/// A cluster report with its wall-clock provenance blanked, as JSON.
fn steady_json(mut report: ClusterReport) -> String {
    report.manifest.wall_time_ns = 0;
    report.manifest.peak_rss_bytes = None;
    serde_json::to_string(&report).unwrap()
}

/// The three cluster fault models on `inst` and on its `VSize<1>` lift:
/// the same report and the same event streams, byte for byte.
fn assert_d1_cluster_byte_identical(
    inst: &Instance,
    router: Router,
    shards: usize,
    seed: u64,
    name: &'static str,
) {
    let vinst = lift_uniform::<1>(inst);
    let (engine, vengine) = (
        cluster(inst, router, shards),
        cluster(&vinst, router, shards),
    );
    let (sf, vf) = (factory::<Size>(name), factory::<VSize<1>>(name));
    let ctx = format!("{name}/{} × {shards}, seed {seed}", router.name());

    let (run, logs) = engine.run_probed(inst, &sf, |_| EventLog::new()).unwrap();
    let (vrun, vlogs) = vengine
        .run_probed(&vinst, &vf, |_| GEventLog::<VSize<1>>::new())
        .unwrap();
    assert_eq!(
        steady_json(run.report),
        steady_json(vrun.report),
        "{ctx}: run_probed report"
    );
    for (s, (log, vlog)) in logs.iter().zip(&vlogs).enumerate() {
        assert_eq!(
            events_to_jsonl(log.events()),
            events_to_jsonl(vlog.events()),
            "{ctx}: run_probed shard {s} events"
        );
    }

    let horizon = inst.last_departure().map_or(1, |t| t.raw());
    let plans: Vec<FaultPlan> = (0..shards as u64)
        .map(|k| FaultPlan::generate(seed + k, horizon, 4, &FaultConfig::moderate()).unwrap())
        .collect();
    let (rrun, logs) = engine
        .run_resilient(inst, &sf, &plans, |_| EventLog::new())
        .unwrap();
    let (vrrun, vlogs) = vengine
        .run_resilient(&vinst, &vf, &plans, |_| GEventLog::<VSize<1>>::new())
        .unwrap();
    assert_eq!(
        serde_json::to_string(&rrun.report).unwrap(),
        serde_json::to_string(&vrrun.report).unwrap(),
        "{ctx}: run_resilient report"
    );
    for (s, (log, vlog)) in logs.iter().zip(&vlogs).enumerate() {
        assert_eq!(
            events_to_jsonl(log.events()),
            events_to_jsonl(vlog.events()),
            "{ctx}: run_resilient shard {s} events"
        );
    }

    let plan = ShardFaultPlan::from_seed(seed, shards, 2 * inst.len() as u64);
    let mut log = EventLog::new();
    let (hrun, _) = engine
        .run_self_healing(inst, &sf, &plan, &mut log, |_, _| NoSpans)
        .unwrap();
    let mut vlog = GEventLog::<VSize<1>>::new();
    let (vhrun, _) = vengine
        .run_self_healing(&vinst, &vf, &plan, &mut vlog, |_, _| NoSpans)
        .unwrap();
    assert_eq!(
        serde_json::to_string(&hrun.report).unwrap(),
        serde_json::to_string(&vhrun.report).unwrap(),
        "{ctx}: run_self_healing report"
    );
    assert_eq!(
        serde_json::to_string(&hrun.shards).unwrap(),
        serde_json::to_string(&vhrun.shards).unwrap(),
        "{ctx}: run_self_healing shard health"
    );
    assert_eq!(
        hrun.manifest.instance_digest, vhrun.manifest.instance_digest,
        "{ctx}: run_self_healing digest"
    );
    assert_eq!(
        events_to_jsonl(log.events()),
        events_to_jsonl(vlog.events()),
        "{ctx}: run_self_healing events"
    );
}

/// Random shard-kill schedules for a three-shard cluster: event and tick
/// kill points, unsorted, with a random restart budget.
fn kill_plans() -> impl Strategy<Value = ShardFaultPlan> {
    let kill = (0u32..3, 0u8..2, 1u64..240).prop_map(|(shard, by_event, at)| ShardKill {
        shard,
        at: if by_event == 1 {
            KillPoint::Event(at)
        } else {
            KillPoint::Tick(at)
        },
    });
    (proptest::collection::vec(kill, 0..6), 0u32..3).prop_map(|(kills, max_restarts)| {
        ShardFaultPlan {
            seed: 0,
            kills,
            restart: RestartPolicy {
                max_restarts,
                ..RestartPolicy::default()
            },
        }
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Every cluster fault model at D=1 is the scalar one: `run_probed`,
    /// `run_resilient` under the same per-shard fault plans and
    /// `run_self_healing` under the same shard-kill plan report the same
    /// ledger and emit the same event streams, for every selector.
    #[test]
    fn d1_cluster_runs_are_byte_identical(
        inst in instances(),
        router in 0usize..3,
        shards in 1usize..4,
        seed in 0u64..1000,
    ) {
        for name in SELECTORS {
            assert_d1_cluster_byte_identical(&inst, ROUTERS[router], shards, seed, name);
        }
    }

    /// The self-healing cluster at D=3 conserves its extended ledger,
    /// cluster-wide and per shard, whatever the kill schedule: kills that
    /// land, restarts that succeed, and shards abandoned when the budget
    /// runs out.
    #[test]
    fn d3_self_healing_conserves_under_random_kills(
        inst in instances(),
        router in 0usize..3,
        plan in kill_plans(),
    ) {
        let vinst = widen(&inst);
        for name in ["FF-idx", "BF-idx", "MFF-idx"] {
            let (run, _) = cluster(&vinst, ROUTERS[router], 3)
                .run_self_healing(
                    &vinst,
                    &factory::<VSize<3>>(name),
                    &plan,
                    &mut NoProbe,
                    |_, _| NoSpans,
                )
                .unwrap();
            prop_assert!(run.report.conserved(), "{}: {:?}", name, run.report);
            prop_assert_eq!(run.report.sessions_total, inst.len() as u64);
            for h in &run.shards {
                prop_assert!(h.conserved(), "{}: shard {:?}", name, h);
            }
        }
    }
}
