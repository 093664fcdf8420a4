//! Property tests for the cluster layer: router determinism (same seed ⇒
//! identical shard assignment) and batching transparency (batched
//! ingestion is decision-for-decision identical to event-at-a-time
//! feeding for FF/BF/MFF/IFF/IBF across batch sizes 1, 7, 64 and
//! whole-stream).

use dbp_cloudsim::{GamingSystem, Granularity, ServerType};
use dbp_cluster::{run_shard, BatchPolicy, ClusterConfig, ClusterEngine, Router};
use dbp_core::algorithms::{BestFit, FirstFit, IndexedBestFit, IndexedFirstFit, ModifiedFirstFit};
use dbp_core::bin::{BinId, BinTag, OpenBinView};
use dbp_core::instance::{Instance, InstanceBuilder};
use dbp_core::item::{ArrivingItem, Size};
use dbp_core::packer::{BinSelector, Decision, SelectorFactory};
use dbp_core::probe::NoProbe;
use dbp_core::span::NoSpans;
use dbp_obs::export::events_to_jsonl;
use dbp_obs::EventLog;
use dbp_workloads::{generate, CloudGamingConfig};
use proptest::prelude::*;

/// Forwards everything to the wrapped selector while recording the
/// decision sequence (same shape as `tests/indexed_equivalence.rs`).
struct Recording<S> {
    inner: S,
    decisions: Vec<Decision>,
}

impl<S: BinSelector> Recording<S> {
    fn new(inner: S) -> Recording<S> {
        Recording {
            inner,
            decisions: Vec::new(),
        }
    }
}

impl<S: BinSelector> BinSelector for Recording<S> {
    fn name(&self) -> &'static str {
        self.inner.name()
    }
    fn select(&mut self, bins: &[OpenBinView], item: &ArrivingItem, capacity: Size) -> Decision {
        let d = self.inner.select(bins, item, capacity);
        self.decisions.push(d);
        d
    }
    fn needs_views(&self) -> bool {
        self.inner.needs_views()
    }
    fn on_bin_opened(&mut self, bin: BinId, tag: BinTag, level: Size) {
        self.inner.on_bin_opened(bin, tag, level);
    }
    fn on_item_placed(&mut self, bin: BinId, level: Size) {
        self.inner.on_item_placed(bin, level);
    }
    fn on_item_departed(&mut self, bin: BinId, level: Size) {
        self.inner.on_item_departed(bin, level);
    }
    fn on_bin_closed(&mut self, bin: BinId) {
        self.inner.on_bin_closed(bin);
    }
    fn is_any_fit(&self) -> bool {
        self.inner.is_any_fit()
    }
}

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

/// The batching-transparency check for one selector constructor: every
/// batch policy must reproduce the per-event decision sequence, trace,
/// cost and JSONL event stream exactly.
fn assert_batching_transparent<S, M>(inst: &Instance, make: M) -> proptest::TestCaseResult
where
    S: BinSelector,
    M: Fn() -> S,
{
    let system = small_system();
    let mut baseline = Recording::new(make());
    let mut baseline_log = EventLog::new();
    let (base_report, base_trace) = run_shard(
        &system,
        inst,
        &mut baseline,
        &mut baseline_log,
        &mut NoSpans,
        BatchPolicy::PerEvent,
    );
    for policy in [
        BatchPolicy::Chunks(1),
        BatchPolicy::Chunks(7),
        BatchPolicy::Chunks(64),
        BatchPolicy::WholeStream,
    ] {
        let mut batched = Recording::new(make());
        let mut log = EventLog::new();
        let (report, trace) =
            run_shard(&system, inst, &mut batched, &mut log, &mut NoSpans, policy);
        prop_assert_eq!(&baseline.decisions, &batched.decisions, "{:?}", policy);
        prop_assert_eq!(&base_trace, &trace, "{:?}", policy);
        prop_assert_eq!(base_report.busy_ticks, report.busy_ticks, "{:?}", policy);
        prop_assert_eq!(&base_report.cost_cents, &report.cost_cents, "{:?}", policy);
        prop_assert_eq!(
            events_to_jsonl(baseline_log.events()),
            events_to_jsonl(log.events()),
            "{:?}",
            policy
        );
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn batching_is_transparent_for_ff(inst in instances(60)) {
        assert_batching_transparent(&inst, FirstFit::new)?;
    }

    #[test]
    fn batching_is_transparent_for_bf(inst in instances(60)) {
        assert_batching_transparent(&inst, BestFit::new)?;
    }

    #[test]
    fn batching_is_transparent_for_mff(inst in instances(60)) {
        assert_batching_transparent(&inst, || ModifiedFirstFit::new(8))?;
    }

    #[test]
    fn batching_is_transparent_for_indexed_ff(inst in instances(60)) {
        assert_batching_transparent(&inst, IndexedFirstFit::new)?;
    }

    #[test]
    fn batching_is_transparent_for_indexed_bf(inst in instances(60)) {
        assert_batching_transparent(&inst, IndexedBestFit::new)?;
    }

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
