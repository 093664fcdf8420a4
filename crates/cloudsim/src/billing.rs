//! Rental billing: how raw server busy-time turns into money.
//!
//! The paper's cost model is the per-tick limit (`cost ∝ usage duration`);
//! real providers the introduction cites (EC2 circa the paper) billed by
//! the *hour*, rounding each server's rental up. The granularity knob lets
//! the `billing_granularity` experiment test whether the algorithm ranking
//! is stable under realistic rounding.

use dbp_core::demand::Demand;
use dbp_core::ratio::Ratio;
use dbp_core::trace::GPackingTrace;
use serde::{Deserialize, Serialize};

/// Ticks are seconds in the cloudsim layer.
pub const TICKS_PER_HOUR: u64 = 3600;

/// Billing granularity: each server's rental duration is rounded up to a
/// multiple of the unit.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Granularity {
    /// Exact per-tick billing (the paper's model).
    PerTick,
    /// Per-minute billing (60-tick units).
    PerMinute,
    /// Per-hour billing (3600-tick units) — classic EC2.
    PerHour,
    /// Custom unit in ticks.
    PerUnit(u64),
}

impl Granularity {
    /// The rounding unit in ticks.
    pub fn unit_ticks(self) -> u64 {
        match self {
            Granularity::PerTick => 1,
            Granularity::PerMinute => 60,
            Granularity::PerHour => TICKS_PER_HOUR,
            Granularity::PerUnit(u) => {
                assert!(u > 0, "billing unit must be positive");
                u
            }
        }
    }

    /// Round one server's busy duration up to the billing unit. Widened
    /// to `u128`: rounding a span near `u64::MAX` up to a whole unit can
    /// pass `u64::MAX`.
    pub fn billed_ticks(self, busy_ticks: u64) -> u128 {
        let unit = self.unit_ticks() as u128;
        (busy_ticks as u128).div_ceil(unit) * unit
    }
}

/// A server (bin) flavor with a rental price.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct ServerType {
    /// GPU capacity in units (`W`).
    pub gpu_capacity: u64,
    /// Rental price in cents per hour.
    pub cents_per_hour: u64,
    /// One-time provisioning cost per server rental, in cents (VM boot,
    /// game-image pull). Penalizes bin churn — Next Fit's hundreds of
    /// short-lived servers suddenly matter.
    pub setup_cents: u64,
}

impl ServerType {
    /// A GPU VM comparable to the paper-era `g2`-class instance against the
    /// default catalog: capacity 1000 GPU units at $0.65/hour, no setup fee
    /// (the paper's pure duration-cost model).
    pub fn default_gpu_vm() -> ServerType {
        ServerType {
            gpu_capacity: 1000,
            cents_per_hour: 65,
            setup_cents: 0,
        }
    }

    /// The same VM with a provisioning fee.
    pub fn with_setup_fee(cents: u64) -> ServerType {
        ServerType {
            setup_cents: cents,
            ..ServerType::default_gpu_vm()
        }
    }

    /// Exact rental cost in cents of `servers` rentals billed `billed`
    /// ticks in total: `billed · cents_per_hour / 3600 + servers ·
    /// setup_cents`.
    pub fn cost_cents(self, billed: u128, servers: u128) -> Ratio {
        Ratio::new(billed * self.cents_per_hour as u128, TICKS_PER_HOUR as u128)
            + Ratio::from_int(servers * self.setup_cents as u128)
    }
}

/// Total billed ticks of a trace under a granularity: each bin's usage
/// period is rounded up independently (servers are rented per-instance).
pub fn billed_ticks<Sz: Demand>(trace: &GPackingTrace<Sz>, granularity: Granularity) -> u128 {
    trace
        .bins
        .iter()
        .map(|b| granularity.billed_ticks(b.usage_len().raw()))
        .sum()
}

/// Exact rental cost in cents:
/// `billed_ticks · cents_per_hour / 3600 + servers · setup_cents`.
pub fn rental_cost_cents<Sz: Demand>(
    trace: &GPackingTrace<Sz>,
    server: ServerType,
    granularity: Granularity,
) -> Ratio {
    server.cost_cents(billed_ticks(trace, granularity), trace.bins_used() as u128)
}

#[cfg(test)]
mod tests {
    use super::*;
    use dbp_core::prelude::*;

    fn one_bin_trace(len: u64) -> PackingTrace {
        let mut b = InstanceBuilder::new(10);
        b.add(0, len, 5);
        let inst = b.build().unwrap();
        simulate_validated(&inst, &mut FirstFit::new())
    }

    #[test]
    fn per_tick_is_exact() {
        let t = one_bin_trace(5000);
        assert_eq!(billed_ticks(&t, Granularity::PerTick), 5000);
    }

    #[test]
    fn hourly_rounding_of_the_longest_span_passes_u64_max() {
        // u64::MAX = 5_124_095_576_030_431 h + 15 s, so it rounds up to
        // 5_124_095_576_030_432 whole hours: past u64::MAX.
        assert_eq!(
            Granularity::PerHour.billed_ticks(u64::MAX),
            18_446_744_073_709_555_200
        );
        assert_eq!(
            Granularity::PerTick.billed_ticks(u64::MAX),
            u64::MAX as u128
        );
    }

    #[test]
    fn per_hour_rounds_up() {
        let t = one_bin_trace(3601);
        assert_eq!(billed_ticks(&t, Granularity::PerHour), 7200);
        assert_eq!(billed_ticks(&t, Granularity::PerMinute), 3660);
        let t = one_bin_trace(3600);
        assert_eq!(billed_ticks(&t, Granularity::PerHour), 3600);
    }

    #[test]
    fn rounding_is_per_server_not_aggregate() {
        // Two bins of 30 min each: per-hour billing charges 2 hours, not 1.
        let mut b = InstanceBuilder::new(10);
        b.add(0, 1800, 9);
        b.add(0, 1800, 9); // does not fit -> second bin
        let inst = b.build().unwrap();
        let t = simulate_validated(&inst, &mut FirstFit::new());
        assert_eq!(t.bins_used(), 2);
        assert_eq!(billed_ticks(&t, Granularity::PerHour), 2 * 3600);
    }

    #[test]
    fn rental_cost_is_exact_rational() {
        let t = one_bin_trace(1800); // half an hour
        let server = ServerType {
            gpu_capacity: 10,
            cents_per_hour: 65,
            setup_cents: 0,
        };
        assert_eq!(
            rental_cost_cents(&t, server, Granularity::PerTick),
            Ratio::new(65, 2)
        );
        assert_eq!(
            rental_cost_cents(&t, server, Granularity::PerHour),
            Ratio::from_int(65)
        );
    }

    #[test]
    fn setup_fee_charges_per_server() {
        let mut b = InstanceBuilder::new(10);
        b.add(0, 3600, 9);
        b.add(0, 3600, 9); // second server
        let inst = b.build().unwrap();
        let t = simulate_validated(&inst, &mut FirstFit::new());
        let server = ServerType {
            gpu_capacity: 10,
            cents_per_hour: 65,
            setup_cents: 30,
        };
        // 2 server-hours + 2 setups.
        assert_eq!(
            rental_cost_cents(&t, server, Granularity::PerHour),
            Ratio::from_int(2 * 65 + 2 * 30)
        );
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_custom_unit_panics() {
        let _ = Granularity::PerUnit(0).unit_ticks();
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        /// Rounding invariants for every granularity over the whole `u64`
        /// range (and within two hours of its top): billed ≥ busy, billed
        /// is a unit multiple, and overhead is strictly under one unit.
        #[test]
        fn billed_ticks_rounding_invariants(busy in 0u64..=u64::MAX, unit in 1u64..=u64::MAX) {
            for busy in [busy, u64::MAX - busy % 7200] {
                for g in [
                    Granularity::PerUnit(unit),
                    Granularity::PerTick,
                    Granularity::PerMinute,
                    Granularity::PerHour,
                ] {
                    let billed = g.billed_ticks(busy);
                    let (busy, unit) = (busy as u128, g.unit_ticks() as u128);
                    prop_assert!(billed >= busy, "{g:?} {busy}");
                    prop_assert_eq!(billed % unit, 0);
                    prop_assert!(billed - busy < unit, "{g:?} {busy}");
                }
            }
        }

        /// Coarser units never bill less.
        #[test]
        fn coarser_units_dominate(busy in 1u64..50_000, unit in 1u64..500, factor in 2u64..10) {
            let fine = Granularity::PerUnit(unit).billed_ticks(busy);
            let coarse = Granularity::PerUnit(unit * factor).billed_ticks(busy);
            prop_assert!(coarse >= fine);
        }
    }
}
