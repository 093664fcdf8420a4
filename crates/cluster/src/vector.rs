//! Vector (multi-resource) routing and cluster dispatch.
//!
//! [`route_one_dims`] is the cluster's one routing rule: the per-arrival
//! decision of every [`Router`], taking the demand as a runtime-length
//! slice and the live load view as one `u128` per dimension per shard
//! ([`DimLoads`]). The serve daemon's front door calls it directly;
//! [`Router::assign`] folds it over a whole instance. Least-loaded orders
//! shards by `(max-dimension load, total load, index)`, which at `D = 1`
//! is the plain scalar load order; hash looks only at the item id and
//! affinity only at the GPU dimension (`demand[0]`), so every `D = 1`
//! decision is the scalar one by construction.
//!
//! A vector instance runs through the same [`ClusterEngine`](crate::ClusterEngine)
//! entry points as a scalar one; [`dim_reports`] folds a run's busy time
//! into the per-dimension utilization/waste ledger.

use crate::router::Router;
use dbp_core::demand::Demand;
use dbp_core::instance::GInstance;
use dbp_core::ratio::Ratio;
use dbp_workloads::GameCatalog;
use std::collections::HashMap;
use std::sync::OnceLock;

/// SplitMix64 finalizer — the same avalanche the fault layer's hash
/// streams use, applied to item ids.
fn splitmix64(v: u64) -> u64 {
    let mut z = v.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// First catalog index per GPU footprint. Two titles sharing a footprint
/// (the default catalog has two such pairs) collapse onto the first — the
/// router cannot tell them apart from the footprint alone, which is all an
/// arrival carries.
fn title_by_gpu_units() -> HashMap<u64, usize> {
    let mut map = HashMap::new();
    for (i, g) in GameCatalog::default_catalog().games.iter().enumerate() {
        map.entry(g.gpu_units).or_insert(i);
    }
    map
}

/// Per-shard, per-dimension active load: `loads[shard][dim]`.
pub type DimLoads = Vec<Vec<u128>>;

/// Fresh all-zero load view for `shards` shards of `dims` dimensions.
pub fn zero_loads(shards: usize, dims: usize) -> DimLoads {
    vec![vec![0u128; dims]; shards]
}

/// The least-loaded ordering key for one shard's per-dimension loads:
/// `(max over dimensions, sum over dimensions)`. At `D = 1` both entries
/// equal the scalar load, so the induced order (lowest index breaking
/// ties, via `min_by_key` stability) is the scalar load order.
fn load_key(dims: &[u128]) -> (u128, u128) {
    let max = dims.iter().copied().max().unwrap_or(0);
    let total: u128 = dims.iter().sum();
    (max, total)
}

/// Route one arrival online — the shape a live daemon needs, where the
/// next request is unknown until it lands and the dimensionality is a
/// config value, not a type. `demand[0]` is the GPU footprint the
/// affinity router keys on; `loads` is consulted only by
/// [`Router::LeastLoaded`]; hash and affinity routes are stateless.
///
/// Fed a stream in event order with `loads` maintained from its own
/// answers ([`apply_route_dims`] on route, [`unapply_route_dims`] on
/// departure), this returns [`Router::assign`]'s shard for every item.
///
/// # Panics
/// Panics if `loads` or `demand` is empty.
#[inline]
pub fn route_one_dims(router: Router, id: u64, demand: &[u64], loads: &DimLoads) -> usize {
    let shards = loads.len();
    assert!(shards > 0, "a cluster needs at least one shard");
    assert!(!demand.is_empty(), "a demand needs at least one dimension");
    match router {
        Router::HashByItem => (splitmix64(id) % shards as u64) as usize,
        Router::GameAffinity => {
            // Built once: this is the daemon's hot path.
            static BY_SIZE: OnceLock<HashMap<u64, usize>> = OnceLock::new();
            match BY_SIZE.get_or_init(title_by_gpu_units).get(&demand[0]) {
                Some(&title) => title % shards,
                None => (splitmix64(id) % shards as u64) as usize,
            }
        }
        Router::LeastLoaded => (0..shards)
            .min_by_key(|&s| load_key(&loads[s]))
            .expect("shards is nonzero"),
    }
}

/// Add a routed arrival's demand to the load view (call on route).
/// Components past the load view's dimensionality are ignored.
pub fn apply_route_dims(loads: &mut DimLoads, shard: usize, demand: &[u64]) {
    for (slot, &d) in loads[shard].iter_mut().zip(demand) {
        *slot += d as u128;
    }
}

/// Remove a departed (or refused) session's demand from the load view.
/// Removal saturates (a refused route can race a concurrent view rebuild).
pub fn unapply_route_dims(loads: &mut DimLoads, shard: usize, demand: &[u64]) {
    for (slot, &d) in loads[shard].iter_mut().zip(demand) {
        *slot = slot.saturating_sub(d as u128);
    }
}

/// Per-dimension accounting of one cluster run. All sums are exact
/// integers; ratios are exact rationals.
#[derive(Debug, Clone, PartialEq)]
pub struct DimReport {
    /// Dimension index.
    pub dim: usize,
    /// Capacity `W_d` of this dimension.
    pub capacity: u64,
    /// Σ over items of `size_d · duration` — the demand volume.
    pub demand_ticks: u128,
    /// `W_d ·` Σ over bins of their open length — the rented volume.
    pub rented_ticks: u128,
    /// `demand_ticks / rented_ticks`, the utilization of this dimension.
    pub utilization: Ratio,
    /// `rented_ticks − demand_ticks`, idle capacity-ticks.
    pub waste_ticks: u128,
}

/// The per-dimension ledger of a packing of `requests` that kept
/// `busy_ticks` bin-ticks open: demand from
/// [`GInstance::total_demand_per_dim`], rented volume `W_d · busy_ticks`,
/// and the waste between them. Shared by single-engine and cluster runs.
pub fn dim_reports<Sz: Demand>(requests: &GInstance<Sz>, busy_ticks: u128) -> Vec<DimReport> {
    let cap = requests.capacity();
    requests
        .total_demand_per_dim()
        .into_iter()
        .enumerate()
        .map(|(dim, demand_ticks)| {
            let rented_ticks = cap.component(dim) as u128 * busy_ticks;
            let utilization = if rented_ticks == 0 {
                Ratio::from_int(0)
            } else {
                Ratio::new(demand_ticks, rented_ticks)
            };
            DimReport {
                dim,
                capacity: cap.component(dim),
                demand_ticks,
                rented_ticks,
                utilization,
                waste_ticks: rented_ticks - demand_ticks,
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{ClusterConfig, ClusterEngine, ClusterError, ClusterRun};
    use dbp_cloudsim::{GamingSystem, Granularity, ServerType};
    use dbp_core::algorithms::FirstFit;
    use dbp_core::bin::GOpenBinView;
    use dbp_core::demand::VSize;
    use dbp_core::instance::{GInstanceBuilder, Instance, InstanceBuilder};
    use dbp_core::item::{GArrivingItem, ItemId};
    use dbp_core::packer::{BinSelector, Decision, GSelectorFactory};
    use dbp_core::probe::NoProbe;

    /// An independent scalar reference for the routers — the per-item
    /// hash, the catalog-title map and a heap-based least-loaded fold over
    /// scalar loads — sharing no code with the routing under test.
    mod reference {
        use super::Router;
        use dbp_core::instance::Instance;
        use dbp_core::item::Item;
        use dbp_workloads::GameCatalog;
        use std::collections::BinaryHeap;
        use std::collections::HashMap;

        pub fn assign(router: Router, requests: &Instance, shards: usize) -> Vec<usize> {
            assert!(shards > 0, "a cluster needs at least one shard");
            match router {
                Router::HashByItem => requests
                    .items()
                    .iter()
                    .map(|it| (splitmix64(it.id.0 as u64) % shards as u64) as usize)
                    .collect(),
                Router::GameAffinity => {
                    let by_size = title_by_gpu_units();
                    requests
                        .items()
                        .iter()
                        .map(|it| match by_size.get(&it.size.raw()) {
                            Some(&title) => title % shards,
                            None => (splitmix64(it.id.0 as u64) % shards as u64) as usize,
                        })
                        .collect()
                }
                Router::LeastLoaded => least_loaded(requests, shards),
            }
        }

        pub fn route_one(router: Router, id: u64, size: u64, loads: &[u128]) -> usize {
            let shards = loads.len();
            match router {
                Router::HashByItem => (splitmix64(id) % shards as u64) as usize,
                Router::GameAffinity => match title_by_gpu_units().get(&size) {
                    Some(&title) => title % shards,
                    None => (splitmix64(id) % shards as u64) as usize,
                },
                Router::LeastLoaded => (0..shards)
                    .min_by_key(|&s| loads[s])
                    .expect("shards is nonzero"),
            }
        }

        fn title_by_gpu_units() -> HashMap<u64, usize> {
            let mut map = HashMap::new();
            for (i, g) in GameCatalog::default_catalog().games.iter().enumerate() {
                map.entry(g.gpu_units).or_insert(i);
            }
            map
        }

        fn splitmix64(v: u64) -> u64 {
            let mut z = v.wrapping_add(0x9E37_79B9_7F4A_7C15);
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        }

        fn least_loaded(requests: &Instance, shards: usize) -> Vec<usize> {
            let mut order: Vec<&Item> = requests.items().iter().collect();
            order.sort_by_key(|it| (it.arrival.raw(), it.id.0));
            let mut load = vec![0u128; shards];
            // Min-heap of (departure, shard, size) via Reverse ordering.
            let mut active: BinaryHeap<std::cmp::Reverse<(u64, usize, u64)>> = BinaryHeap::new();
            let mut assignment = vec![0usize; requests.len()];
            for it in order {
                while let Some(&std::cmp::Reverse((dep, shard, size))) = active.peek() {
                    if dep > it.arrival.raw() {
                        break;
                    }
                    active.pop();
                    load[shard] -= size as u128;
                }
                let best = (0..shards)
                    .min_by_key(|&s| load[s])
                    .expect("shards is nonzero");
                load[best] += it.size.raw() as u128;
                active.push(std::cmp::Reverse((it.departure.raw(), best, it.size.raw())));
                assignment[it.id.index()] = best;
            }
            assignment
        }
    }

    fn tiny_scalar() -> Instance {
        let mut b = InstanceBuilder::new(1000);
        b.add(0, 10, 5);
        b.add(0, 10, 5);
        b.add(5, 20, 7);
        b.add(12, 30, 9);
        b.add(13, 22, 50);
        b.add(14, 40, 125); // matches a catalog footprint (affinity path)
        b.build().unwrap()
    }

    /// A churn instance long enough for least-loaded to expire sessions
    /// and for affinity to see several catalog titles.
    fn churn_scalar() -> Instance {
        let footprints: Vec<u64> = dbp_workloads::GameCatalog::default_catalog()
            .games
            .iter()
            .map(|g| g.gpu_units)
            .collect();
        let mut b = InstanceBuilder::new(1000);
        for i in 0..120u64 {
            let size = if i % 3 == 0 {
                footprints[(i as usize / 3) % footprints.len()]
            } else {
                1 + (i * 37) % 200
            };
            b.add(i / 2, i / 2 + 1 + (i * 13) % 40, size);
        }
        b.build().unwrap()
    }

    fn lift1(inst: &Instance) -> GInstance<VSize<1>> {
        inst.map_demand(|s| VSize([s.raw()])).unwrap()
    }

    /// A cluster whose servers' GPU capacity is `inst`'s.
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

    fn ff<Sz: Demand>() -> GSelectorFactory<Sz> {
        GSelectorFactory::new("FF", || Box::new(FirstFit::new()))
    }

    /// `engine`'s First Fit run of `inst`, every shard trace validated
    /// (per-dimension capacity, interval exactness) against its own
    /// sub-instance.
    fn validated_run<Sz: Demand>(engine: &ClusterEngine, inst: &GInstance<Sz>) -> ClusterRun<Sz> {
        let (run, _) = engine.run_probed(inst, &ff(), |_| NoProbe).unwrap();
        let (parts, _) = engine.partition(inst);
        for (shard, (sub, back)) in run.shards.iter().zip(&parts) {
            assert_eq!(&shard.back, back);
            let errs = shard.trace.validate(sub);
            assert!(errs.is_empty(), "shard {}: {errs:?}", shard.shard);
        }
        run
    }

    #[test]
    fn assign_matches_the_scalar_reference_at_size_and_d1() {
        for inst in [tiny_scalar(), churn_scalar()] {
            let lifted = lift1(&inst);
            for r in Router::ALL {
                for shards in [1, 2, 3, 8] {
                    let expected = reference::assign(r, &inst, shards);
                    assert_eq!(
                        r.assign(&inst, shards),
                        expected,
                        "{} × {shards} (Size)",
                        r.name()
                    );
                    assert_eq!(
                        r.assign(&lifted, shards),
                        expected,
                        "{} × {shards} (VSize<1>)",
                        r.name()
                    );
                }
            }
        }
    }

    #[test]
    fn d2_hash_and_affinity_match_the_scalar_reference_on_the_gpu_dimension() {
        // Hash reads only the id and affinity only component 0, so a
        // second dimension must not move any decision.
        for inst in [tiny_scalar(), churn_scalar()] {
            let wide: GInstance<VSize<2>> = inst
                .map_demand(|s| VSize([s.raw(), 1 + s.raw() % 7]))
                .unwrap();
            for r in [Router::HashByItem, Router::GameAffinity] {
                for shards in [1, 2, 3, 8] {
                    assert_eq!(
                        r.assign(&wide, shards),
                        reference::assign(r, &inst, shards),
                        "{} × {shards} (VSize<2>)",
                        r.name()
                    );
                }
            }
        }
    }

    #[test]
    fn golden_assignments_are_pinned() {
        // The four-item instance of the router tests and the six-item
        // instance above, as literals: any change here moves sessions
        // between shards.
        let mut b = InstanceBuilder::new(100);
        b.add(0, 10, 5);
        b.add(0, 10, 5);
        b.add(5, 20, 7);
        b.add(12, 30, 9);
        let tiny = b.build().unwrap();
        let golden: [(Router, usize, &[usize], &[usize]); 6] = [
            (Router::HashByItem, 2, &[1, 1, 0, 1], &[1, 1, 0, 1, 0, 0]),
            (Router::HashByItem, 3, &[1, 2, 1, 0], &[1, 2, 1, 0, 1, 2]),
            (Router::GameAffinity, 2, &[1, 1, 0, 1], &[1, 1, 0, 1, 0, 0]),
            (Router::GameAffinity, 3, &[1, 2, 1, 0], &[1, 2, 1, 0, 2, 0]),
            (Router::LeastLoaded, 2, &[0, 1, 0, 1], &[0, 1, 0, 1, 0, 1]),
            (Router::LeastLoaded, 3, &[0, 1, 2, 0], &[0, 1, 2, 0, 1, 2]),
        ];
        for (r, k, four, six) in golden {
            assert_eq!(r.assign(&tiny, k), four, "{} × {k}", r.name());
            assert_eq!(r.assign(&lift1(&tiny), k), four, "{} × {k}", r.name());
            assert_eq!(r.assign(&tiny_scalar(), k), six, "{} × {k}", r.name());
        }
    }

    #[test]
    fn d1_route_one_matches_scalar_under_identical_load_views() {
        let loads_scalar = [7u128, 3, 5, 3];
        let loads_vec: DimLoads = loads_scalar.iter().map(|&l| vec![l]).collect();
        for r in Router::ALL {
            for (id, size) in [(0u64, 125u64), (1, 17), (9, 200), (77, 1)] {
                assert_eq!(
                    route_one_dims(r, id, &[size], &loads_vec),
                    reference::route_one(r, id, size, &loads_scalar),
                    "router {} diverged on id {id}",
                    r.name()
                );
            }
        }
    }

    #[test]
    fn least_loaded_spreads_by_binding_dimension() {
        // Shard 0 is GPU-hot, shard 1 is memory-hot with a higher max:
        // the max-dimension key must prefer shard 0.
        let loads: DimLoads = vec![vec![80, 10], vec![10, 90]];
        let got = route_one_dims(Router::LeastLoaded, 0, &[1, 1], &loads);
        assert_eq!(got, 0);
    }

    #[test]
    fn vector_cluster_run_conserves_and_respects_every_dimension() {
        let mut b = GInstanceBuilder::new(VSize([100u64, 50]));
        b.add(0, 10, VSize([30, 20]));
        b.add(1, 12, VSize([30, 20]));
        b.add(2, 14, VSize([30, 20])); // dim 1 binds: 60 ≤ 100 but 60 > 50
        b.add(3, 20, VSize([5, 5]));
        b.add(15, 25, VSize([99, 1]));
        let inst = b.build().unwrap();
        for r in Router::ALL {
            for shards in [1, 2, 3] {
                let run = validated_run(&cluster(&inst, r, shards), &inst);
                assert_eq!(run.report.sessions_served, inst.len());
                let dims = dim_reports(&inst, run.report.busy_ticks);
                assert_eq!(dims.len(), 2);
                for d in &dims {
                    assert_eq!(
                        d.rented_ticks,
                        d.demand_ticks + d.waste_ticks,
                        "dimension ledger must balance"
                    );
                }
                // The back-maps partition the id space.
                let mut seen: Vec<ItemId> =
                    run.shards.iter().flat_map(|s| s.back.clone()).collect();
                seen.sort();
                seen.dedup();
                assert_eq!(seen.len(), inst.len());
            }
        }
    }

    #[test]
    fn one_shard_vector_trace_is_the_plain_engine_trace() {
        let inst = tiny_scalar();
        let lifted = lift1(&inst);
        let run = validated_run(&cluster(&lifted, Router::LeastLoaded, 1), &lifted);
        let scalar_trace = dbp_core::engine::simulate_validated(&inst, &mut FirstFit::new());
        let a = serde_json::to_string(&run.shards[0].trace).unwrap();
        let b = serde_json::to_string(&scalar_trace).unwrap();
        assert_eq!(a, b, "D=1 single-shard trace must be byte-identical");
    }

    #[test]
    fn zero_shard_vector_run_is_a_typed_error() {
        let inst = lift1(&tiny_scalar());
        let mut engine = cluster(&inst, Router::HashByItem, 1);
        engine.config.shards = 0;
        assert!(matches!(
            engine.run_probed(&inst, &ff(), |_| NoProbe),
            Err(ClusterError::ZeroShards)
        ));
    }

    #[test]
    fn vector_run_is_independent_of_the_worker_pool_size() {
        let inst: GInstance<VSize<2>> = churn_scalar()
            .map_demand(|s| VSize([s.raw(), 1 + s.raw() % 7]))
            .unwrap();
        for r in Router::ALL {
            let runs: Vec<ClusterRun<VSize<2>>> = [1, 4]
                .into_iter()
                .map(|jobs| {
                    let mut engine = cluster(&inst, r, 4);
                    engine.config.jobs = jobs;
                    validated_run(&engine, &inst)
                })
                .collect();
            let (one, four) = (&runs[0], &runs[1]);
            assert_eq!(one.assignment, four.assignment, "{}", r.name());
            assert_eq!(one.shards.len(), four.shards.len());
            for (a, b) in one.shards.iter().zip(&four.shards) {
                assert_eq!(a.back, b.back, "{} shard {}", r.name(), a.shard);
                assert_eq!(a.trace, b.trace, "{} shard {}", r.name(), a.shard);
            }
        }
    }

    /// Always packs into bin 0, fit or not.
    struct FirstBinBlindly;

    impl BinSelector<VSize<2>> for FirstBinBlindly {
        fn name(&self) -> &'static str {
            "FirstBinBlindly"
        }
        fn select(
            &mut self,
            bins: &[GOpenBinView<VSize<2>>],
            _item: &GArrivingItem<VSize<2>>,
            _capacity: VSize<2>,
        ) -> Decision {
            match bins.first() {
                Some(b) => Decision::Use(b.id),
                None => Decision::OPEN,
            }
        }
    }

    #[test]
    fn a_placement_over_capacity_in_any_dimension_is_a_shard_panic() {
        // The two sessions fit together on the GPU (60 ≤ 100) but not in
        // memory (40 > 30): only the engine's per-dimension fit check can
        // catch the selector.
        let mut b = GInstanceBuilder::new(VSize([100u64, 30]));
        b.add(0, 10, VSize([30, 20]));
        b.add(1, 12, VSize([30, 20]));
        let inst = b.build().unwrap();
        let factory = GSelectorFactory::new("FirstBinBlindly", || Box::new(FirstBinBlindly));
        let err = cluster(&inst, Router::HashByItem, 1)
            .run_probed(&inst, &factory, |_| NoProbe)
            .unwrap_err();
        assert!(
            matches!(err, ClusterError::ShardPanicked { shard: 0, .. }),
            "got {err:?}"
        );
        assert!(err.to_string().contains("does not fit"), "{err}");
    }
}
