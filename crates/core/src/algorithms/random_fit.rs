//! Random Fit (RF): a uniformly random open bin among those that fit. An Any
//! Fit algorithm (it opens only when nothing fits), used to probe how much
//! of FF's behaviour is due to its deterministic ordering. Deterministic per
//! seed, so experiments are reproducible.

use crate::bin::OpenBinView;
use crate::item::{ArrivingItem, Size};
use crate::packer::{BinSelector, Decision};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

/// Random Fit packing with an owned, seeded RNG.
#[derive(Debug)]
pub struct RandomFit {
    rng: StdRng,
}

impl RandomFit {
    /// Create a Random Fit selector with the given RNG seed.
    pub fn seeded(seed: u64) -> RandomFit {
        RandomFit {
            rng: StdRng::seed_from_u64(seed),
        }
    }
}

impl BinSelector for RandomFit {
    fn name(&self) -> &'static str {
        "RF"
    }

    fn select(&mut self, bins: &[OpenBinView], item: &ArrivingItem, _capacity: Size) -> Decision {
        let fitting: Vec<&OpenBinView> = bins.iter().filter(|b| b.fits(item.size)).collect();
        if fitting.is_empty() {
            Decision::OPEN
        } else {
            let idx = self.rng.random_range(0..fitting.len());
            Decision::Use(fitting[idx].id)
        }
    }

    fn is_any_fit(&self) -> bool {
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{any_fit_violations, simulate_validated};
    use crate::instance::InstanceBuilder;

    fn spread_instance() -> crate::instance::Instance {
        // Five long-lived anchors open five bins; then a stream of small
        // items fits several bins at once, giving the RNG real choices.
        let mut b = InstanceBuilder::new(100);
        for i in 0..5 {
            b.add(i, 500, 60);
        }
        for i in 0..20 {
            b.add(10 + i, 200 + i, 10);
        }
        b.build().unwrap()
    }

    #[test]
    fn rf_is_any_fit() {
        let inst = spread_instance();
        let trace = simulate_validated(&inst, &mut RandomFit::seeded(7));
        assert!(any_fit_violations(&inst, &trace).is_empty());
    }

    #[test]
    fn rf_is_deterministic_per_seed() {
        let inst = spread_instance();
        let a = simulate_validated(&inst, &mut RandomFit::seeded(1234));
        let b = simulate_validated(&inst, &mut RandomFit::seeded(1234));
        assert_eq!(a, b);
    }

    #[test]
    fn rf_seeds_differ() {
        let inst = spread_instance();
        let a = simulate_validated(&inst, &mut RandomFit::seeded(1));
        let b = simulate_validated(&inst, &mut RandomFit::seeded(2));
        // Different seeds almost surely produce different assignments on 20
        // items with several candidate bins each.
        assert_ne!(a.assignment, b.assignment);
    }

    #[test]
    fn rf_must_open_when_nothing_fits() {
        let mut b = InstanceBuilder::new(10);
        b.add(0, 10, 9);
        b.add(1, 10, 9);
        let inst = b.build().unwrap();
        let trace = simulate_validated(&inst, &mut RandomFit::seeded(3));
        assert_eq!(trace.bins_used(), 2);
    }
}
