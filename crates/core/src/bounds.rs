//! The cost bounds and competitive-ratio formulas of the paper, as exact
//! rational functions.
//!
//! * Bounds (b.1)–(b.3) of §4 for any algorithm's total cost;
//! * the closed-form competitive-ratio bounds of Theorems 1–5 and §4.4.
//!
//! All costs are in bin-ticks (the cost rate `C` cancels from every ratio).

use crate::demand::Demand;
use crate::instance::{GInstance, Instance};
use crate::ratio::Ratio;

/// Bound (b.1): `A_total(R) ≥ u(R)/W` — no bin capacity is ever wasted.
/// With vector demands, `max_d u_d(R)/W_d`: a bin holds at most `W_d` of
/// dimension d at any instant, so each dimension alone bounds the cost.
pub fn demand_lower_bound<Sz: Demand>(instance: &GInstance<Sz>) -> Ratio {
    let w = instance.capacity();
    let u = instance.total_demand_per_dim();
    let per_dim = (0..Sz::DIMS).map(|d| Ratio::new(u[d], w.component(d) as u128));
    per_dim.max().expect("a demand has at least one dimension")
}

/// Bound (b.2): `A_total(R) ≥ span(R)` — at least one bin is open whenever
/// an item is active.
pub fn span_lower_bound<Sz: Demand>(instance: &GInstance<Sz>) -> Ratio {
    Ratio::from_int(instance.span().raw() as u128)
}

/// The combined lower bound `max{u(R)/W, span(R)}` used throughout §4; it
/// lower-bounds `OPT_total(R)` as well, at every dimensionality.
pub fn combined_lower_bound<Sz: Demand>(instance: &GInstance<Sz>) -> Ratio {
    demand_lower_bound(instance).max(span_lower_bound(instance))
}

/// Bound (b.3): `A_total(R) ≤ Σ len(I(r))` — every item in its own bin.
pub fn naive_upper_bound(instance: &Instance) -> Ratio {
    let total: u128 = instance
        .items()
        .iter()
        .map(|r| r.interval_len().raw() as u128)
        .sum();
    Ratio::from_int(total)
}

/// Theorem 1: the competitive ratio of *any* Any Fit algorithm is at least
/// µ; the witness instance with parameters `(k, µ)` achieves exactly
/// `kµ / (k + µ − 1)`.
pub fn theorem1_ratio(k: u64, mu: u64) -> Ratio {
    assert!(k >= 1 && mu >= 1);
    Ratio::new(k as u128 * mu as u128, k as u128 + mu as u128 - 1)
}

/// Theorem 2: on the Best Fit witness with parameter `k` (and enough
/// iterations), `BF_total / OPT_total ≥ k/2` — unbounded in k.
pub fn theorem2_ratio_floor(k: u64) -> Ratio {
    Ratio::new(k as u128, 2)
}

/// Theorem 3: if every size is ≥ W/k, First Fit (indeed any algorithm) costs
/// at most `k · OPT_total(R)`.
pub fn ff_large_items_bound(k: u64) -> Ratio {
    assert!(k > 1, "Theorem 3 requires k > 1");
    Ratio::from_int(k as u128)
}

/// Theorem 4: if every size is < W/k (k > 1), First Fit's competitive ratio
/// is at most `k/(k−1) · µ + 6k/(k−1) + 1`.
pub fn ff_small_items_bound(k: u64, mu: Ratio) -> Ratio {
    assert!(k > 1, "Theorem 4 requires k > 1");
    let kk = Ratio::new(k as u128, k as u128 - 1);
    kk * mu + kk * Ratio::from_int(6) + Ratio::ONE
}

/// Theorem 5: First Fit's general competitive ratio is at most `2µ + 13`.
///
/// ```
/// use dbp_core::bounds::ff_general_bound;
/// use dbp_core::ratio::Ratio;
/// assert_eq!(ff_general_bound(Ratio::from_int(10)), Ratio::from_int(33));
/// ```
pub fn ff_general_bound(mu: Ratio) -> Ratio {
    Ratio::from_int(2) * mu + Ratio::from_int(13)
}

/// §4.4, µ unknown (k = 8): MFF's competitive ratio is at most
/// `8/7 · µ + 55/7`.
///
/// ```
/// use dbp_core::bounds::mff_unknown_mu_bound;
/// use dbp_core::ratio::Ratio;
/// // At µ = 10 the bound is 135/7 ≈ 19.29 — far below FF's 2µ+13 = 33.
/// assert_eq!(mff_unknown_mu_bound(Ratio::from_int(10)), Ratio::new(135, 7));
/// ```
pub fn mff_unknown_mu_bound(mu: Ratio) -> Ratio {
    Ratio::new(8, 7) * mu + Ratio::new(55, 7)
}

/// §4.4, µ known (k = µ + 7): MFF's competitive ratio is at most `µ + 8`.
pub fn mff_known_mu_bound(mu: Ratio) -> Ratio {
    mu + Ratio::from_int(8)
}

/// The objective MFF's k-parameter trades off (§4.4):
/// `max{ k, (µ+6) / (1 − 1/k) }`, exactly. Minimized at `k = µ + 7`.
pub fn mff_k_objective(k: u64, mu: Ratio) -> Ratio {
    assert!(k > 1, "MFF objective requires k > 1");
    let kr = Ratio::from_int(k as u128);
    // (µ+6) / (1 − 1/k) = (µ+6)·k/(k−1)
    let small_term = (mu + Ratio::from_int(6)) * Ratio::new(k as u128, k as u128 - 1);
    kr.max(small_term)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::instance::InstanceBuilder;

    fn demo() -> Instance {
        let mut b = InstanceBuilder::new(10);
        b.add(0, 4, 5);
        b.add(2, 6, 5);
        b.add(9, 12, 3);
        b.build().unwrap()
    }

    #[test]
    fn b1_b2_b3_ordering() {
        let inst = demo();
        // u(R) = 49, W = 10 -> b.1 = 4.9; span = 9 -> b.2 = 9; b.3 = 11.
        assert_eq!(demand_lower_bound(&inst), Ratio::new(49, 10));
        assert_eq!(span_lower_bound(&inst), Ratio::from_int(9));
        assert_eq!(combined_lower_bound(&inst), Ratio::from_int(9));
        assert_eq!(naive_upper_bound(&inst), Ratio::from_int(11));
        assert!(combined_lower_bound(&inst) <= naive_upper_bound(&inst));
    }

    #[test]
    fn theorem1_formula_values() {
        // kµ/(k+µ−1): k=4, µ=10 -> 40/13.
        assert_eq!(theorem1_ratio(4, 10), Ratio::new(40, 13));
        // As k -> ∞ the ratio approaches µ from below.
        assert!(theorem1_ratio(1000, 10) < Ratio::from_int(10));
        assert!(theorem1_ratio(1000, 10) > Ratio::new(99, 10));
        // µ = 1 gives ratio 1 for any k.
        assert_eq!(theorem1_ratio(17, 1), Ratio::ONE);
    }

    #[test]
    fn theorem4_formula_at_k2() {
        // k=2: 2µ + 13.
        let mu = Ratio::from_int(5);
        assert_eq!(
            ff_small_items_bound(2, mu),
            Ratio::from_int(2) * mu + Ratio::from_int(13)
        );
    }

    #[test]
    fn ff_general_matches_theorem4_k2() {
        for m in 1..20u64 {
            let mu = Ratio::from_int(m as u128);
            assert_eq!(ff_general_bound(mu), ff_small_items_bound(2, mu));
        }
    }

    #[test]
    fn mff_bounds_beat_ff_general() {
        for m in 1..=100u64 {
            let mu = Ratio::from_int(m as u128);
            assert!(mff_unknown_mu_bound(mu) < ff_general_bound(mu));
            // µ+8 ≤ 8µ/7 + 55/7 for µ ≥ 1, with equality exactly at µ = 1.
            assert!(mff_known_mu_bound(mu) <= mff_unknown_mu_bound(mu));
            if m > 1 {
                assert!(mff_known_mu_bound(mu) < mff_unknown_mu_bound(mu));
            }
        }
    }

    #[test]
    fn mff_k_objective_minimized_at_mu_plus_7() {
        for mu_int in [1u64, 3, 10, 25] {
            let mu = Ratio::from_int(mu_int as u128);
            let opt_k = mu_int + 7;
            let at_opt = mff_k_objective(opt_k, mu);
            assert_eq!(at_opt, Ratio::from_int(mu_int as u128 + 7));
            for k in 2..=(opt_k + 20) {
                assert!(
                    mff_k_objective(k, mu) >= at_opt,
                    "k={k} beats µ+7 at µ={mu_int}"
                );
            }
        }
    }

    #[test]
    fn mff_unknown_bound_is_objective_at_k8_plus_one() {
        // max{8, 8/7 µ + 48/7} + 1 = 8/7 µ + 55/7 for µ ≥ 1.
        for m in 1..=50u64 {
            let mu = Ratio::from_int(m as u128);
            assert_eq!(
                mff_k_objective(8, mu) + Ratio::ONE,
                mff_unknown_mu_bound(mu)
            );
        }
    }
}
