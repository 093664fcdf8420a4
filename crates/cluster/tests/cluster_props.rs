//! Property tests for the cluster layer: router determinism (same seed ⇒
//! identical shard assignment), partition coverage and cost conservation.

use dbp_cloudsim::{GamingSystem, Granularity, ServerType};
use dbp_cluster::{ClusterConfig, ClusterEngine, Router};
use dbp_core::algorithms::FirstFit;
use dbp_core::instance::{Instance, InstanceBuilder};
use dbp_core::packer::SelectorFactory;
use dbp_core::probe::NoProbe;
use dbp_workloads::{generate, CloudGamingConfig};
use proptest::prelude::*;

/// Arbitrary churn-heavy instances over `W = 100`.
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

/// A per-shard system matching the test instances' capacity.
fn small_system() -> GamingSystem {
    GamingSystem {
        server: ServerType {
            gpu_capacity: 100,
            ..ServerType::default_gpu_vm()
        },
        granularity: Granularity::PerTick,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Same seed ⇒ identical shard assignment, for every router and shard
    /// count: routing is a pure function of the (deterministic) workload.
    #[test]
    fn routers_are_deterministic(seed in 0u64..1000, shards in 1usize..=8) {
        let cfg = CloudGamingConfig { horizon: 900, seed, ..CloudGamingConfig::default() };
        let a = generate(&cfg);
        let b = generate(&cfg);
        prop_assert_eq!(&a, &b);
        for router in Router::ALL {
            prop_assert_eq!(
                router.assign(&a, shards),
                router.assign(&b, shards),
                "{}", router.name()
            );
        }
    }

    /// The partition is a true partition: each original item appears in
    /// exactly one shard's back-map, and shard instances preserve sizes
    /// and intervals.
    #[test]
    fn partition_covers_every_item_exactly_once(
        inst in instances(60),
        shards in 1usize..=8,
    ) {
        for router in Router::ALL {
            let engine = ClusterEngine::new(
                small_system(),
                ClusterConfig::new(shards, router).unwrap(),
            );
            let (parts, assignment) = engine.partition(&inst);
            prop_assert_eq!(assignment.len(), inst.len());
            let mut seen = vec![0u32; inst.len()];
            for (s, (sub, back)) in parts.iter().enumerate() {
                prop_assert_eq!(sub.len(), back.len());
                for (local, &orig) in back.iter().enumerate() {
                    seen[orig.index()] += 1;
                    prop_assert_eq!(assignment[orig.index()], s);
                    let a = sub.item(dbp_core::item::ItemId(local as u32));
                    let b = inst.item(orig);
                    prop_assert_eq!(a.size, b.size);
                    prop_assert_eq!(a.arrival, b.arrival);
                    prop_assert_eq!(a.departure, b.departure);
                }
            }
            prop_assert!(seen.iter().all(|&c| c == 1), "{}", router.name());
        }
    }

    /// Cluster cost conservation on arbitrary instances: the aggregate is
    /// the exact shard sum and every item is served exactly once.
    #[test]
    fn cluster_conserves_cost_and_items(
        inst in instances(50),
        shards in 1usize..=4,
    ) {
        let factory = SelectorFactory::new("FF", || Box::new(FirstFit::new()));
        for router in Router::ALL {
            let engine = ClusterEngine::new(
                small_system(),
                ClusterConfig::new(shards, router).unwrap(),
            );
            let run = engine.run_probed(&inst, &factory, |_| NoProbe).unwrap().0;
            let busy: u128 = run.shards.iter().map(|s| s.trace.total_cost_ticks()).sum();
            prop_assert_eq!(run.report.busy_ticks, busy);
            let served: usize = run.shards.iter().map(|s| s.trace.assignment.len()).sum();
            prop_assert_eq!(served, inst.len());
        }
    }
}
