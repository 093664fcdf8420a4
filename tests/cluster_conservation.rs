//! Differential conservation suite for the sharded cluster layer.
//!
//! The contract pinned here: a 1-shard cluster *is* the plain
//! `GamingSystem` run — byte-identical report, JSONL event stream, and
//! manifest digest — and for any shard count the union of shard traces
//! serves every item exactly once while the aggregate `ClusterReport` is
//! the exact (`u128`/`Ratio`, float-free) sum of its shards.

use dbp::prelude::*;
use dbp_cloudsim::{FaultPlan, GamingSystem, Granularity, ServerType};
use dbp_cluster::{ClusterConfig, ClusterEngine, Router, ShardFaultPlan};
use dbp_core::algorithms::{standard_factories, BestFit, FirstFit, ModifiedFirstFit};
use dbp_core::engine::simulate_validated_probed;
use dbp_core::packer::{BinSelector, SelectorFactory};
use dbp_core::span::NoSpans;
use dbp_obs::export::events_to_jsonl;
use dbp_obs::EventLog;
use dbp_workloads::{generate, CloudGamingConfig};
use proptest::prelude::*;

fn workload(seed: u64) -> Instance {
    generate(&CloudGamingConfig {
        horizon: 1800,
        seed,
        ..CloudGamingConfig::default()
    })
}

/// A shard system matching the capacity-100 proptest instances.
fn small_system() -> GamingSystem {
    GamingSystem {
        server: ServerType {
            gpu_capacity: 100,
            ..ServerType::default_gpu_vm()
        },
        granularity: Granularity::PerTick,
    }
}

/// Capacity-100 churn instances (same shape the engine proptests use).
fn instances(max_items: usize) -> impl Strategy<Value = Instance> {
    let item = (0u64..300, 1u64..150, 1u64..=100);
    proptest::collection::vec(item, 1..max_items).prop_map(|raw| {
        let mut b = InstanceBuilder::new(100);
        for (a, len, s) in raw {
            b.add(a, a + len, s);
        }
        b.build().expect("generated instance is valid")
    })
}

/// Every original item must be served by exactly one shard; returns the
/// per-item service counts derived from the shard traces' bin contents.
fn service_counts(run: &dbp_cluster::ClusterRun, n_items: usize) -> Vec<u32> {
    let mut seen = vec![0u32; n_items];
    for shard in &run.shards {
        for bin in &shard.trace.bins {
            for &local in &bin.items {
                seen[shard.back[local.index()].index()] += 1;
            }
        }
    }
    seen
}

#[test]
fn one_shard_cluster_is_byte_identical_to_the_plain_run() {
    let inst = workload(42);
    let system = GamingSystem::paper_model();
    for router in Router::ALL {
        for (name, make) in [
            (
                "FF",
                (|| Box::new(FirstFit::new()) as Box<dyn BinSelector>) as fn() -> _,
            ),
            ("BF", || Box::new(BestFit::new()) as Box<dyn BinSelector>),
            ("MFF", || {
                Box::new(ModifiedFirstFit::new(8)) as Box<dyn BinSelector>
            }),
        ] {
            // Plain run: report + trace via the system, JSONL via the
            // probed engine path (identical trace by determinism).
            let (plain_report, plain_trace) = system.run(&inst, &mut *make()).unwrap();
            let mut plain_log = EventLog::new();
            let plain_trace2 = simulate_validated_probed(&inst, &mut *make(), &mut plain_log);
            assert_eq!(plain_trace, plain_trace2);

            let engine = ClusterEngine::new(system, ClusterConfig::new(1, router).unwrap());
            let factory = SelectorFactory::new(name, make);
            let (run, mut probes) = engine
                .run_probed(&inst, &factory, |_| EventLog::new())
                .unwrap();
            let shard_log = probes.remove(0);

            // Same trace, byte for byte.
            assert_eq!(run.shards[0].trace, plain_trace, "{name}/{}", router.name());
            // Same JSONL event stream.
            assert_eq!(
                events_to_jsonl(shard_log.events()),
                events_to_jsonl(plain_log.events()),
                "{name}/{}",
                router.name()
            );
            // Same report, once the wall-clock-bearing manifest is set
            // aside; digests compare separately and must be equal too.
            let mut shard_report = run.shards[0].report.clone();
            let mut plain_stripped = plain_report.clone();
            let shard_manifest = shard_report.manifest.take().unwrap();
            let plain_manifest = plain_stripped.manifest.take().unwrap();
            assert_eq!(shard_report, plain_stripped, "{name}/{}", router.name());
            assert_eq!(
                shard_manifest.instance_digest,
                plain_manifest.instance_digest
            );
            assert_eq!(
                run.report.manifest.instance_digest,
                plain_manifest.instance_digest
            );

            // The aggregate mirrors the single shard exactly.
            assert_eq!(run.report.busy_ticks, plain_report.bill.busy_ticks);
            assert_eq!(run.report.bill.billed_ticks, plain_report.bill.billed_ticks);
            assert_eq!(run.report.bill.cost_cents, plain_report.bill.cost_cents);
            assert_eq!(run.report.utilization, plain_report.utilization);
            assert_eq!(run.report.peak_servers, plain_report.peak_servers);
            assert_eq!(
                run.report.bill.servers_rented,
                plain_report.bill.servers_rented
            );
            assert_eq!(run.report.sessions_served, plain_report.sessions_served);
        }
    }
}

#[test]
fn every_standard_policy_conserves_items_and_cost_on_the_gaming_workload() {
    let inst = workload(7);
    let system = GamingSystem::paper_model();
    for factory in standard_factories(0) {
        for router in Router::ALL {
            let engine = ClusterEngine::new(system, ClusterConfig::new(4, router).unwrap());
            let run = engine.run_probed(&inst, &factory, |_| NoProbe).unwrap().0;
            let seen = service_counts(&run, inst.len());
            assert!(
                seen.iter().all(|&c| c == 1),
                "{}/{} lost or duplicated items",
                factory.name(),
                router.name()
            );
            let busy: u128 = run.shards.iter().map(|s| s.report.bill.busy_ticks).sum();
            assert_eq!(run.report.busy_ticks, busy);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Shard-count sweep {2, 4, 8} × all routers on arbitrary instances:
    /// items are served exactly once, and busy/billed/cost aggregate as
    /// exact sums.
    #[test]
    fn conservation_holds_for_all_routers_and_shard_counts(inst in instances(50)) {
        for shards in [2usize, 4, 8] {
            for router in Router::ALL {
                let engine = ClusterEngine::new(small_system(), ClusterConfig::new(shards, router).unwrap());
                let factory = SelectorFactory::new("FF", || Box::new(FirstFit::new()));
                let run = engine.run_probed(&inst, &factory, |_| NoProbe).unwrap().0;

                let seen = service_counts(&run, inst.len());
                prop_assert!(
                    seen.iter().all(|&c| c == 1),
                    "{}x{} served counts {:?}", router.name(), shards, seen
                );

                let busy: u128 = run.shards.iter().map(|s| s.report.bill.busy_ticks).sum();
                let billed: u128 = run.shards.iter().map(|s| s.report.bill.billed_ticks).sum();
                let cents = run
                    .shards
                    .iter()
                    .fold(Ratio::ZERO, |acc, s| acc + s.report.bill.cost_cents);
                prop_assert_eq!(run.report.busy_ticks, busy);
                prop_assert_eq!(run.report.bill.billed_ticks, billed);
                prop_assert_eq!(&run.report.bill.cost_cents, &cents);
                prop_assert_eq!(run.report.sessions_served, inst.len());

                // Every driver shares one fan-out, so its zero-fault and
                // span-free forms must bill exactly the plain run.
                let none = ShardFaultPlan::none();
                let (healed, _) = engine
                    .run_self_healing(&inst, &factory, &none, &mut NoProbe, |_, _| NoSpans)
                    .unwrap();
                prop_assert_eq!(healed.report.bill.busy_ticks, run.report.busy_ticks);
                prop_assert_eq!(healed.report.bill.billed_ticks, run.report.bill.billed_ticks);
                prop_assert_eq!(&healed.report.bill.cost_cents, &run.report.bill.cost_cents);
                prop_assert_eq!(healed.report.ledger.served, run.report.sessions_served as u64);

                let resilient = engine
                    .run_resilient(&inst, &factory, &vec![FaultPlan::none(); shards], |_| NoProbe)
                    .unwrap().0;
                prop_assert_eq!(resilient.report.bill.busy_ticks, run.report.busy_ticks);
                prop_assert_eq!(resilient.report.bill.billed_ticks, run.report.bill.billed_ticks);
                prop_assert_eq!(&resilient.report.bill.cost_cents, &run.report.bill.cost_cents);

                let (_, probed) = engine
                    .run_probed(&inst, &factory, |_| EventLog::new())
                    .unwrap();
                let (_, traced, _) = engine
                    .run_traced(&inst, &factory, |_| EventLog::new(), |_, _| NoSpans)
                    .unwrap();
                prop_assert_eq!(probed.len(), shards);
                for (p, t) in probed.iter().zip(&traced) {
                    prop_assert_eq!(events_to_jsonl(p.events()), events_to_jsonl(t.events()));
                }
            }
        }
    }

    /// Per-shard fault plans keep the cluster SLA ledger conserved:
    /// served + dropped + lost == total, across shards and in aggregate.
    #[test]
    fn faulted_clusters_conserve_the_sla_ledger(
        inst in instances(50),
        fault_seed in 0u64..1000,
        shards in 2usize..=4,
    ) {
        for router in Router::ALL {
            let engine = ClusterEngine::new(small_system(), ClusterConfig::new(shards, router).unwrap());
            let factory = SelectorFactory::new("FF", || Box::new(FirstFit::new()));
            let plans: Vec<FaultPlan> = (0..shards as u64)
                .map(|s| FaultPlan::from_seed(fault_seed + s, 600).unwrap())
                .collect();
            let run = engine.run_resilient(&inst, &factory, &plans, |_| NoProbe).unwrap().0;
            prop_assert!(run.report.ledger.conserved(), "{}", router.name());
            prop_assert_eq!(run.report.ledger.total, inst.len() as u64);
            for shard in &run.shards {
                prop_assert!(shard.ledger.conserved());
            }
            let served: u64 = run.shards.iter().map(|r| r.ledger.served).sum();
            prop_assert_eq!(run.report.ledger.served, served);
            let cents = run
                .shards
                .iter()
                .fold(Ratio::ZERO, |acc, r| acc + r.bill.cost_cents);
            prop_assert_eq!(&run.report.bill.cost_cents, &cents);
        }
    }
}
