//! Routing policies: which shard serves which request.
//!
//! A router is a *pure function* of the instance — no RNG, no wall clock —
//! so the same workload always lands on the same shards and every cluster
//! run is exactly reproducible. Routing happens before dispatch and sees
//! only what an online router could see at arrival time: the item's id,
//! arrival tick and demand (never the departure).
//!
//! There is one routing rule, [`route_one_dims`]: the per-arrival decision
//! the serve daemon's front door makes. [`Router::assign`] is that rule
//! folded over a whole instance, for every demand type — scalar [`Size`]
//! and `D`-dimensional vectors alike.
//!
//! [`Size`]: dbp_core::item::Size

use crate::vector::{route_one_dims, zero_loads, DimLoads};
use dbp_core::demand::Demand;
use dbp_core::instance::GInstance;
use dbp_core::item::{GItem, ItemId};
use dbp_core::span::{stage, SpanRecorder};
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// One shard's slice of a partitioned stream: the restricted instance and
/// its back-map (shard-local item index → original [`ItemId`]).
pub type ShardSlice<Sz> = (GInstance<Sz>, Vec<ItemId>);

/// The routing policy catalog.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Router {
    /// SplitMix64 hash of the item id — stateless, uniform in expectation.
    HashByItem,
    /// Game affinity: requests for the same title (recovered from the
    /// session's GPU footprint, `component(0)`, against the default
    /// [`GameCatalog`](dbp_workloads::GameCatalog)) go to the same shard,
    /// so each pool holds few distinct game images. Footprints matching no
    /// catalog title fall back to the hash route.
    GameAffinity,
    /// Exact-integer least-loaded: route each arrival to the shard whose
    /// currently *active* routed load (demand of sessions routed there and
    /// not yet departed) is smallest, ordered by `(max-dimension load,
    /// total load)` with the lowest shard index winning ties. At `D = 1`
    /// both entries are the scalar load. The load view uses the router's
    /// own bookkeeping — integers only, no floats.
    LeastLoaded,
}

impl Router {
    /// Every router, for sweeps.
    pub const ALL: [Router; 3] = [
        Router::HashByItem,
        Router::GameAffinity,
        Router::LeastLoaded,
    ];

    /// Stable CLI name.
    pub fn name(self) -> &'static str {
        match self {
            Router::HashByItem => "hash",
            Router::GameAffinity => "affinity",
            Router::LeastLoaded => "least-loaded",
        }
    }

    /// Parse a CLI name.
    pub fn from_name(name: &str) -> Option<Router> {
        Router::ALL.into_iter().find(|r| r.name() == name)
    }

    /// Assign every item of `requests` to a shard in `0..shards` by folding
    /// [`route_one_dims`] over the stream. Hash and affinity routes are
    /// per-item pure functions; least-loaded visits arrivals in
    /// `(arrival, id)` order, expiring departed sessions first (the
    /// engine's departures-before-arrivals rule), and keeps one exact
    /// `u128` load per shard per dimension. Deterministic: two calls on
    /// equal instances return equal vectors.
    ///
    /// # Panics
    /// Panics if `shards` is zero.
    pub fn assign<Sz: Demand>(self, requests: &GInstance<Sz>, shards: usize) -> Vec<usize> {
        assert!(shards > 0, "a cluster needs at least one shard");
        let mut loads = zero_loads(shards, Sz::DIMS);
        let route = |router, it: &GItem<Sz>, loads: &DimLoads| {
            route_one_dims(router, it.id.0 as u64, &[it.size.component(0)], loads)
        };
        // One loop per stateless policy, naming the policy as a constant so
        // each loop compiles only its own arm of the rule.
        let items = requests.items().iter();
        match self {
            Router::HashByItem => {
                return items
                    .map(|it| route(Router::HashByItem, it, &loads))
                    .collect()
            }
            Router::GameAffinity => {
                return items
                    .map(|it| route(Router::GameAffinity, it, &loads))
                    .collect()
            }
            Router::LeastLoaded => {}
        }
        let mut order: Vec<&GItem<Sz>> = items.collect();
        order.sort_by_key(|it| (it.arrival.raw(), it.id.0));
        // Min-heap of (departure, shard, item index).
        let mut active: BinaryHeap<Reverse<(u64, usize, u32)>> = BinaryHeap::new();
        let mut assignment = vec![0usize; requests.len()];
        for it in order {
            while let Some(&Reverse((dep, shard, idx))) = active.peek() {
                if dep > it.arrival.raw() {
                    break;
                }
                active.pop();
                let gone = &requests.items()[idx as usize].size;
                for (d, slot) in loads[shard].iter_mut().enumerate() {
                    *slot -= gone.component(d) as u128;
                }
            }
            let best = route(Router::LeastLoaded, it, &loads);
            for (d, slot) in loads[best].iter_mut().enumerate() {
                *slot += it.size.component(d) as u128;
            }
            active.push(Reverse((it.departure.raw(), best, it.id.0)));
            assignment[it.id.index()] = best;
        }
        assignment
    }

    /// [`assign`](Self::assign), then restrict `requests` to each shard's
    /// [`ShardSlice`], plus the item → shard assignment. Restriction
    /// preserves arrival order and renumbers densely, so each shard is a
    /// well-formed instance in its own right. The assignment is timed as a
    /// `route` span on `spans`.
    ///
    /// # Panics
    /// Panics if `shards` is zero.
    pub(crate) fn partition<Sz: Demand, R: SpanRecorder>(
        self,
        requests: &GInstance<Sz>,
        shards: usize,
        spans: &mut R,
    ) -> (Vec<ShardSlice<Sz>>, Vec<usize>) {
        spans.enter(stage::ROUTE);
        let assignment = self.assign(requests, shards);
        spans.exit();
        let parts = (0..shards)
            .map(|s| requests.restrict(|it| assignment[it.id.index()] == s))
            .collect();
        (parts, assignment)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::vector::apply_route_dims;
    use dbp_core::instance::{Instance, InstanceBuilder};
    use dbp_core::item::Item;
    use dbp_workloads::GameCatalog;

    fn tiny() -> Instance {
        let mut b = InstanceBuilder::new(100);
        b.add(0, 10, 5);
        b.add(0, 10, 5);
        b.add(5, 20, 7);
        b.add(12, 30, 9);
        b.build().unwrap()
    }

    #[test]
    fn names_round_trip() {
        for r in Router::ALL {
            assert_eq!(Router::from_name(r.name()), Some(r));
        }
        assert_eq!(Router::from_name("bogus"), None);
    }

    #[test]
    fn assignments_cover_every_item_and_stay_in_range() {
        let inst = tiny();
        for r in Router::ALL {
            for shards in [1, 2, 3, 8] {
                let a = r.assign(&inst, shards);
                assert_eq!(a.len(), inst.len(), "{}", r.name());
                assert!(a.iter().all(|&s| s < shards), "{}", r.name());
            }
        }
    }

    #[test]
    fn one_shard_routes_everything_to_zero() {
        let inst = tiny();
        for r in Router::ALL {
            assert!(r.assign(&inst, 1).iter().all(|&s| s == 0));
        }
    }

    #[test]
    fn least_loaded_balances_simultaneous_arrivals() {
        // Two identical items arriving together must go to different shards.
        let mut b = InstanceBuilder::new(100);
        b.add(0, 10, 5);
        b.add(0, 10, 5);
        let inst = b.build().unwrap();
        let a = Router::LeastLoaded.assign(&inst, 2);
        assert_eq!(a, vec![0, 1]);
    }

    #[test]
    fn least_loaded_expires_departed_sessions() {
        // Item 0 departs before item 2 arrives, so shard 0 is free again.
        let mut b = InstanceBuilder::new(100);
        b.add(0, 5, 9);
        b.add(0, 20, 1);
        b.add(5, 10, 9);
        let inst = b.build().unwrap();
        let a = Router::LeastLoaded.assign(&inst, 2);
        assert_eq!(a[0], 0);
        assert_eq!(a[1], 1);
        // At t=5 shard 0's load is 0 (item 0 gone), shard 1 holds size 1.
        assert_eq!(a[2], 0);
    }

    #[test]
    fn affinity_groups_equal_footprints() {
        let catalog = GameCatalog::default_catalog();
        let units = catalog.games[0].gpu_units;
        let mut b = InstanceBuilder::new(1000);
        b.add(0, 10, units);
        b.add(3, 12, units);
        b.add(5, 20, units);
        let inst = b.build().unwrap();
        let a = Router::GameAffinity.assign(&inst, 4);
        assert!(a.windows(2).all(|w| w[0] == w[1]), "{a:?}");
    }

    #[test]
    #[should_panic(expected = "at least one shard")]
    fn zero_shards_panics() {
        let _ = Router::HashByItem.assign(&tiny(), 0);
    }

    #[test]
    fn route_one_folds_to_the_batch_assignment() {
        // Online routing fed the stream in event order, with the live-load
        // view maintained from its own answers, must reproduce `assign`.
        let inst = tiny();
        for r in Router::ALL {
            for shards in [1usize, 2, 3] {
                let batch = r.assign(&inst, shards);
                let mut order: Vec<&Item> = inst.items().iter().collect();
                order.sort_by_key(|it| (it.arrival.raw(), it.id.0));
                let mut loads = zero_loads(shards, 1);
                let mut active: BinaryHeap<std::cmp::Reverse<(u64, usize, u64)>> =
                    BinaryHeap::new();
                for it in order {
                    while let Some(&std::cmp::Reverse((dep, shard, size))) = active.peek() {
                        if dep > it.arrival.raw() {
                            break;
                        }
                        active.pop();
                        loads[shard][0] -= size as u128;
                    }
                    let s = route_one_dims(r, it.id.0 as u64, &[it.size.raw()], &loads);
                    assert_eq!(s, batch[it.id.index()], "{} item {}", r.name(), it.id);
                    apply_route_dims(&mut loads, s, &[it.size.raw()]);
                    active.push(std::cmp::Reverse((it.departure.raw(), s, it.size.raw())));
                }
            }
        }
    }
}
