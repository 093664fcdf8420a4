//! Multi-resource (vector) workloads: the heterogeneous game catalog and
//! the memory-bound launch-day spike scenario.
//!
//! The scalar catalog models each title by its GPU footprint alone; real
//! cloud-gaming VMs are constrained by GPU *and* CPU *and* RAM
//! simultaneously (the DVBP setting of Murhekar et al., arXiv:2304.08648).
//! This module extends every title with a CPU and a memory footprint,
//! producing [`GInstance<VSize<3>>`] traces whose dimension order is
//! `[gpu, cpu, mem]` — see [`DIM_NAMES`].
//!
//! Two invariants tie the vector catalog back to the scalar world:
//!
//! * **dimension 0 is the scalar catalog**: every title's `demand[GPU]`
//!   equals its scalar `gpu_units`, so footprint-keyed logic (the cluster's
//!   game-affinity router, title recovery from a size) behaves identically;
//! * **lifting is exact**: [`lift_uniform`] maps a scalar instance to a
//!   `D`-vector instance by splatting every size, the degenerate embedding
//!   the D=1 equivalence suite inverts with
//!   [`scalar_of`](dbp_core::demand::scalar_of).

use crate::games::{GameCatalog, SessionKind};
use crate::generator::generate;
use crate::scenarios::Scenario;
use dbp_core::demand::{Demand, VSize};
use dbp_core::instance::{GInstance, Instance};

/// Number of resource dimensions in the heterogeneous catalog.
pub const HETERO_DIMS: usize = 3;

/// Names of the heterogeneous catalog's dimensions, in component order.
pub const DIM_NAMES: [&str; HETERO_DIMS] = ["gpu", "cpu", "mem"];

/// Index of the GPU dimension (equal to the scalar catalog's size).
pub const GPU: usize = 0;
/// Index of the CPU dimension.
pub const CPU: usize = 1;
/// Index of the memory dimension.
pub const MEM: usize = 2;

/// One title of the heterogeneous catalog: the scalar GPU footprint plus
/// CPU and memory demands, in server capacity units.
#[derive(Debug, Clone, PartialEq)]
pub struct HeteroProfile {
    /// Display name (same titles as the scalar catalog).
    pub name: &'static str,
    /// `[gpu, cpu, mem]` demand vector; `demand.0[GPU]` equals the scalar
    /// catalog's `gpu_units` for the same title.
    pub demand: VSize<HETERO_DIMS>,
    /// Session-length model, shared with the scalar catalog.
    pub sessions: SessionKind,
}

/// The heterogeneous catalog: the scalar 12-title catalog with CPU and
/// memory footprints attached per title.
#[derive(Debug, Clone, PartialEq)]
pub struct HeteroCatalog {
    /// The titles, in the scalar catalog's popularity-rank order.
    pub games: Vec<HeteroProfile>,
    /// Zipf exponent for popularity (same as the scalar catalog).
    pub zipf_s: f64,
}

impl HeteroCatalog {
    /// Per-dimension server capacity the default catalog is calibrated
    /// against: 1000 GPU units (matching
    /// [`GameCatalog::DEFAULT_CAPACITY`]), 800 CPU units, 1000 memory
    /// units. Memory footprints are deliberately heavy relative to their
    /// capacity share, so memory — not GPU — is the binding dimension in
    /// the launch-day spike scenario.
    pub const DEFAULT_CAPACITY: VSize<HETERO_DIMS> = VSize([1000, 800, 1000]);

    /// The default heterogeneous catalog. CPU/memory footprints are a
    /// fixed deterministic table keyed off each title's workload class:
    /// simulation-heavy titles (racing, flight, sandbox) lean on CPU,
    /// open-world and MMO titles lean on memory (streamed assets), casual
    /// titles are light everywhere.
    pub fn default_catalog() -> HeteroCatalog {
        let scalar = GameCatalog::default_catalog();
        // (cpu, mem) per title, aligned with the scalar catalog's order.
        // mem/1000 intentionally exceeds gpu/1000 for the popular titles:
        // the memory column saturates first under load.
        const CPU_MEM: [(u64, u64); 12] = [
            (90, 220),  // moba-arena
            (160, 340), // battle-royale
            (30, 70),   // casual-puzzle
            (280, 760), // open-world-rpg
            (170, 330), // fps-shooter
            (240, 680), // mmo-raid
            (260, 300), // racing-sim
            (50, 110),  // card-battler
            (110, 200), // fighting
            (380, 720), // flight-sim
            (70, 150),  // platformer
            (300, 520), // sandbox-builder
        ];
        let games = scalar
            .games
            .iter()
            .zip(CPU_MEM)
            .map(|(g, (cpu, mem))| HeteroProfile {
                name: g.name,
                demand: VSize([g.gpu_units, cpu, mem]),
                sessions: g.sessions,
            })
            .collect();
        HeteroCatalog {
            games,
            zipf_s: scalar.zipf_s,
        }
    }

    /// Look a title up by its GPU footprint — the inverse the affinity
    /// router uses. Titles sharing a footprint collapse onto the first,
    /// exactly like the scalar router's recovery.
    pub fn by_gpu_units(&self, gpu_units: u64) -> Option<&HeteroProfile> {
        self.games.iter().find(|g| g.demand.0[GPU] == gpu_units)
    }
}

/// Lift a scalar instance into `D`-vector space by splatting every size
/// across all dimensions (capacity included). The lift always validates:
/// splatting preserves every per-dimension fit.
pub fn lift_uniform<const D: usize>(inst: &Instance) -> GInstance<VSize<D>> {
    inst.map_demand(|s| VSize([s.raw(); D]))
        .expect("uniform lift preserves validity")
}

/// The memory-bound launch-day spike: the scalar launch-day flash crowd
/// (8× burst for one hour) with every request widened to its title's
/// `[gpu, cpu, mem]` footprint from the heterogeneous catalog. Sizes that
/// match no catalog title (none, with the default generator) fall back to
/// a uniform splat scaled into each dimension's capacity.
///
/// Deterministic per seed. The returned instance's capacity is
/// [`HeteroCatalog::DEFAULT_CAPACITY`]; because the catalog's memory
/// column is calibrated heavy, peak memory pressure exceeds peak GPU
/// pressure — the packing constraint that actually binds is `mem`.
pub fn launch_day_spike(seed: u64) -> GInstance<VSize<HETERO_DIMS>> {
    let mut cfg = Scenario::LaunchDay.config();
    cfg.seed = seed;
    let scalar = generate(&cfg);
    widen(&scalar)
}

/// Widen a scalar catalog-generated instance to the heterogeneous
/// catalog's `[gpu, cpu, mem]` footprints (capacity becomes
/// [`HeteroCatalog::DEFAULT_CAPACITY`]).
pub fn widen(scalar: &Instance) -> GInstance<VSize<HETERO_DIMS>> {
    let catalog = HeteroCatalog::default_catalog();
    let cap = HeteroCatalog::DEFAULT_CAPACITY;
    let scalar_cap = scalar.capacity().raw();
    scalar
        .map_demand(|s| {
            if s.raw() == scalar_cap {
                // The capacity itself maps to the vector capacity.
                return cap;
            }
            match catalog.by_gpu_units(s.raw()) {
                Some(p) => p.demand,
                None => {
                    // Unknown footprint: keep dimension 0 and scale the
                    // others proportionally into their capacities.
                    let gpu = s.raw();
                    let mut out = [0u64; HETERO_DIMS];
                    for (d, slot) in out.iter_mut().enumerate() {
                        *slot = (gpu.saturating_mul(cap.0[d]) / cap.0[GPU]).max(1);
                    }
                    out[GPU] = gpu;
                    VSize(out)
                }
            }
        })
        .expect("catalog footprints fit the calibrated capacity")
}

/// Peak concurrent demand per dimension, as `(used, capacity)` pairs —
/// the scenario-calibration check that memory binds first.
///
/// One sweep over the sorted `(tick, ±demand)` events: every event at a
/// tick applies before the sample, which matches the half-open active
/// intervals of [`GItem::is_active_at`](dbp_core::item::GItem::is_active_at).
/// Departures sort before arrivals within a tick, so no partial sum
/// exceeds a sampled one.
pub fn peak_pressure<const D: usize>(inst: &GInstance<VSize<D>>) -> Vec<(u64, u64)> {
    let mut events = Vec::with_capacity(2 * inst.len());
    for it in inst.items() {
        events.push((it.arrival, true, it.size.0));
        events.push((it.departure, false, it.size.0));
    }
    events.sort_unstable_by_key(|&(t, arrives, _)| (t, arrives));
    let mut level = [0u64; D];
    let mut peak = [0u64; D];
    for tick in events.chunk_by(|a, b| a.0 == b.0) {
        for (_, arrives, size) in tick {
            for (l, &s) in level.iter_mut().zip(size) {
                if *arrives {
                    *l += s;
                } else {
                    *l -= s;
                }
            }
        }
        for (p, &l) in peak.iter_mut().zip(&level) {
            *p = (*p).max(l);
        }
    }
    let cap = inst.capacity();
    (0..D).map(|d| (peak[d], cap.component(d))).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The definition `peak_pressure` sweeps: sum the active items at every
    /// event tick (quadratic).
    fn peak_pressure_quadratic<const D: usize>(inst: &GInstance<VSize<D>>) -> Vec<(u64, u64)> {
        let cap = inst.capacity();
        let mut peak = [0u64; D];
        for &t in &dbp_core::events::event_ticks(inst) {
            let mut level = [0u64; D];
            for id in inst.active_at(t) {
                let it = inst.item(id);
                for (l, &s) in level.iter_mut().zip(&it.size.0) {
                    *l += s;
                }
            }
            for (p, &l) in peak.iter_mut().zip(&level) {
                *p = (*p).max(l);
            }
        }
        (0..D).map(|d| (peak[d], cap.component(d))).collect()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn peak_pressure_sweep_matches_the_definition(
            items in proptest::collection::vec(
                (0u64..20, 1u64..12, 1u64..50, 1u64..50, 1u64..50),
                1..40,
            )
        ) {
            let mut b = dbp_core::instance::GInstanceBuilder::new(VSize([200u64, 200, 200]));
            for &(arrival, len, a, c, m) in &items {
                b.add(arrival, arrival + len, VSize([a, c, m]));
            }
            let inst = b.build().unwrap();
            prop_assert_eq!(peak_pressure(&inst), peak_pressure_quadratic(&inst));
        }
    }

    #[test]
    fn hetero_catalog_aligns_with_scalar_catalog() {
        let scalar = GameCatalog::default_catalog();
        let hetero = HeteroCatalog::default_catalog();
        assert_eq!(scalar.len(), hetero.games.len());
        for (s, h) in scalar.games.iter().zip(&hetero.games) {
            assert_eq!(s.name, h.name);
            assert_eq!(s.gpu_units, h.demand.0[GPU], "{}", s.name);
            assert_eq!(s.sessions, h.sessions);
            assert!(
                h.demand.fits_within(HeteroCatalog::DEFAULT_CAPACITY),
                "{} exceeds capacity",
                h.name
            );
            assert!(!h.demand.has_zero_component(), "{}", h.name);
        }
    }

    #[test]
    fn lift_uniform_round_trips_through_scalar() {
        let mut b = dbp_core::instance::InstanceBuilder::new(10);
        b.add(0, 40, 6);
        b.add(5, 25, 6);
        b.add(10, 35, 4);
        let inst = b.build().unwrap();
        let lifted: GInstance<VSize<2>> = lift_uniform(&inst);
        let back = lifted.map_demand(|v| dbp_core::item::Size(v.0[0])).unwrap();
        assert_eq!(back, inst);
    }

    #[test]
    fn launch_day_spike_is_deterministic_and_memory_bound() {
        let a = launch_day_spike(42);
        let b = launch_day_spike(42);
        assert_eq!(a, b);
        assert!(!a.is_empty());
        assert_ne!(a, launch_day_spike(43));

        // Memory is the binding dimension: its peak pressure, as a
        // fraction of capacity, strictly exceeds GPU's and CPU's.
        let pressure = peak_pressure(&a);
        let frac = |d: usize| pressure[d].0 as f64 / pressure[d].1 as f64;
        assert!(
            frac(MEM) > frac(GPU) && frac(MEM) > frac(CPU),
            "memory must bind first: {pressure:?}"
        );
    }

    #[test]
    fn widen_keeps_gpu_dimension_identical() {
        let mut cfg = Scenario::Steady.config();
        cfg.seed = 7;
        let scalar = generate(&cfg);
        let wide = widen(&scalar);
        assert_eq!(scalar.len(), wide.len());
        for (s, w) in scalar.items().iter().zip(wide.items()) {
            assert_eq!(s.size.raw(), w.size.0[GPU], "item {}", s.id);
            assert_eq!(s.arrival, w.arrival);
            assert_eq!(s.departure, w.departure);
        }
    }
}
