//! The *adaptive* µ-adversary of the paper's footnote 1: "this example and
//! the lower bound µ are applicable to any online packing algorithm."
//!
//! The static [`Theorem1`] instance forces the whole deterministic Any Fit
//! family at once, but an arbitrary online algorithm (randomized, or one
//! that opens bins eagerly) could dodge a fixed departure schedule. The
//! adaptive adversary closes that gap: it releases `k²` items of size `W/k`
//! at time 0, *observes where the algorithm under test places them*, then
//! schedules departures so that exactly one item survives in every bin the
//! algorithm opened — whatever bins those were.
//!
//! Against any algorithm, the resulting ratio is `bins·µ∆ / OPT`, with
//! `OPT = bins·∆ + (µ−1)∆·⌈bins/k⌉`-ish depending on how many bins were
//! opened; for Any Fit algorithms `bins = k` and the ratio matches
//! Theorem 1 exactly. Algorithms that open *more* bins only do worse.
//!
//! [`Theorem1`]: crate::theorem1::Theorem1

use dbp_core::bin::{BinId, OpenBinView};
use dbp_core::instance::{Instance, InstanceBuilder};
use dbp_core::item::{ArrivingItem, ItemId, Size};
use dbp_core::packer::{BinSelector, Decision};
use dbp_core::ratio::Ratio;
use dbp_core::time::Tick;

/// Parameters of the adaptive adversary.
#[derive(Debug, Clone, Copy)]
pub struct AdaptiveMuAdversary {
    /// Items per bin under perfect packing (`k² items of size W/k`).
    pub k: u64,
    /// Target µ (integer ≥ 1).
    pub mu: u64,
    /// Minimum interval length ∆ in ticks.
    pub delta: u64,
}

/// The adversary's output: the instance it committed to *after* observing
/// the algorithm, plus placement facts.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AdaptiveOutcome {
    /// The finalized instance (departures filled in adaptively).
    pub instance: Instance,
    /// Number of bins the observed algorithm opened during the burst.
    pub bins_opened: usize,
    /// Cost the observed algorithm will pay on `instance`, in bin-ticks
    /// (every opened bin is kept alive to `µ∆` by its survivor).
    pub forced_cost_ticks: u128,
}

impl AdaptiveMuAdversary {
    /// Standard parameters (∆ = 1000 ticks).
    pub fn new(k: u64, mu: u64) -> AdaptiveMuAdversary {
        AdaptiveMuAdversary { k, mu, delta: 1000 }
    }

    /// Play the adversary game against `selector`.
    ///
    /// The selector sees exactly what the engine would show it: all `k²`
    /// items arriving at tick 0, one at a time, with the open-bin views
    /// updated after each placement and the state hooks (`on_bin_opened`,
    /// `on_item_placed`) fired as the engine fires them, so indexed
    /// selectors see the same burst as the naive scanners. The adversary
    /// then selects one survivor per opened bin (the first item placed
    /// there) to stay until `µ∆`; everything else departs at ∆.
    ///
    /// # Panics
    /// Panics if the selector makes an illegal placement (bin that does not
    /// fit), on degenerate parameters, and if the selector opens more than
    /// `k²` bins (impossible: there are only `k²` items).
    pub fn play<S: BinSelector + ?Sized>(&self, selector: &mut S) -> AdaptiveOutcome {
        assert!(self.k >= 1 && self.mu >= 1 && self.delta >= 1);
        let capacity = Size(self.k);
        let size = Size(1);
        let n = self.k * self.k;

        // Mini-simulation of the burst at tick 0 only. We track open bins
        // exactly the way the engine does; no departures happen during the
        // burst, so levels only grow.
        struct BurstBin {
            view_id: BinId,
            level: u64,
            n_items: usize,
            first_item: ItemId,
            tag: dbp_core::bin::BinTag,
        }
        let mut bins: Vec<BurstBin> = Vec::new();

        for i in 0..n {
            let item = ArrivingItem {
                id: ItemId(i as u32),
                arrival: Tick::ZERO,
                size,
                region: dbp_core::item::RegionId::GLOBAL,
            };
            let views: Vec<OpenBinView> = bins
                .iter()
                .map(|b| OpenBinView {
                    id: b.view_id,
                    opened_at: Tick::ZERO,
                    level: Size(b.level),
                    capacity,
                    n_items: b.n_items,
                    tag: b.tag,
                })
                .collect();
            match selector.select(&views, &item, capacity) {
                Decision::Use(id) => {
                    let idx = bins
                        .iter()
                        .position(|b| b.view_id == id)
                        .expect("selector picked a bin that is not open");
                    assert!(bins[idx].level < self.k, "selector overfilled a bin");
                    bins[idx].level += 1;
                    bins[idx].n_items += 1;
                    selector.on_item_placed(id, Size(bins[idx].level));
                }
                Decision::Open { tag } => {
                    let id = BinId(bins.len() as u32);
                    bins.push(BurstBin {
                        view_id: id,
                        level: 1,
                        n_items: 1,
                        first_item: ItemId(i as u32),
                        tag,
                    });
                    selector.on_bin_opened(id, tag, size);
                }
            }
        }

        // Commit departures: first item of each bin survives to µ∆.
        let survive: Vec<bool> = {
            let mut v = vec![false; n as usize];
            for b in &bins {
                v[b.first_item.index()] = true;
            }
            v
        };
        let mut builder = InstanceBuilder::new(self.k);
        for &lives_long in survive.iter().take(n as usize) {
            let departure = if lives_long {
                self.mu * self.delta
            } else {
                self.delta
            };
            builder.add(0, departure, 1);
        }
        let instance = builder.build().expect("adaptive instance is valid");

        AdaptiveOutcome {
            instance,
            bins_opened: bins.len(),
            forced_cost_ticks: bins.len() as u128 * (self.mu * self.delta) as u128,
        }
    }

    /// The ratio the observed algorithm is forced into, given exact
    /// `OPT_total` for the committed instance.
    pub fn forced_ratio(&self, outcome: &AdaptiveOutcome, opt_ticks: u128) -> Ratio {
        Ratio::new(outcome.forced_cost_ticks, opt_ticks)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dbp_core::prelude::*;

    #[test]
    fn matches_theorem1_for_any_fit_algorithms() {
        let adv = AdaptiveMuAdversary::new(5, 8);
        for mut sel in [
            Box::new(FirstFit::new()) as Box<dyn BinSelector>,
            Box::new(BestFit::new()),
            Box::new(WorstFit::new()),
            Box::new(RandomFit::seeded(123)),
        ] {
            let out = adv.play(&mut *sel);
            assert_eq!(out.bins_opened, 5);
            // Replaying the committed instance with a *fresh* copy of the
            // same deterministic algorithm reproduces the forced cost.
            let t1 = crate::Theorem1::new(5, 8);
            assert_eq!(out.forced_cost_ticks, t1.expected_anyfit_cost_ticks());
        }
    }

    #[test]
    fn replay_on_committed_instance_pays_forced_cost() {
        let adv = AdaptiveMuAdversary::new(4, 6);
        let mut ff = FirstFit::new();
        let out = adv.play(&mut ff);
        let trace = simulate_validated(&out.instance, &mut FirstFit::new());
        assert_eq!(trace.total_cost_ticks(), out.forced_cost_ticks);
    }

    #[test]
    fn eager_openers_do_even_worse() {
        /// Pathological online algorithm: every item gets a fresh bin.
        struct AlwaysOpen;
        impl BinSelector for AlwaysOpen {
            fn name(&self) -> &'static str {
                "ALWAYS-OPEN"
            }
            fn select(
                &mut self,
                _bins: &[dbp_core::bin::OpenBinView],
                _item: &dbp_core::item::ArrivingItem,
                _capacity: dbp_core::item::Size,
            ) -> dbp_core::packer::Decision {
                dbp_core::packer::Decision::OPEN
            }
        }
        let adv = AdaptiveMuAdversary::new(3, 5);
        let out = adv.play(&mut AlwaysOpen);
        // 9 bins instead of 3: adaptivity punishes every opened bin.
        assert_eq!(out.bins_opened, 9);
        let anyfit = adv.play(&mut FirstFit::new());
        assert!(out.forced_cost_ticks > anyfit.forced_cost_ticks);
    }

    #[test]
    fn tagged_algorithms_see_their_own_bins() {
        // Regression: the burst views must echo the tags the algorithm
        // assigned at opening, or class-based packers (MFF, HFF) never find
        // their bins and open one per item.
        let adv = AdaptiveMuAdversary::new(5, 4);
        let mut mff = dbp_core::algorithms::ModifiedFirstFit::new(8);
        let out = adv.play(&mut mff);
        assert_eq!(out.bins_opened, 5);
        let mut hff = dbp_core::algorithms::HarmonicFit::new(4);
        let out = adv.play(&mut hff);
        assert_eq!(out.bins_opened, 5);
    }

    #[test]
    fn indexed_selectors_face_the_same_game_as_the_naive_ones() {
        // The burst drives the state hooks, so hook-maintained indexes see
        // every bin; without them they would open one bin per item.
        use dbp_core::algorithms::{IndexedBestFit, IndexedFirstFit, IndexedMff};
        for (k, mu) in [(4, 6), (12, 10)] {
            let adv = AdaptiveMuAdversary::new(k, mu);
            let pairs: [(Box<dyn BinSelector>, Box<dyn BinSelector>); 3] = [
                (Box::new(FirstFit::new()), Box::new(IndexedFirstFit::new())),
                (Box::new(BestFit::new()), Box::new(IndexedBestFit::new())),
                (
                    Box::new(ModifiedFirstFit::new(8)),
                    Box::new(IndexedMff::new(8)),
                ),
            ];
            for (mut naive, mut indexed) in pairs {
                let a = adv.play(&mut *naive);
                assert_eq!(a.bins_opened, k as usize, "{} at k={k}", naive.name());
                assert_eq!(a, adv.play(&mut *indexed), "{} at k={k}", naive.name());
            }
        }
    }

    #[test]
    fn randomized_algorithms_cannot_escape() {
        // Whatever RandomFit does, every bin it opens is pinned open.
        let adv = AdaptiveMuAdversary::new(6, 10);
        for seed in 0..10 {
            let mut rf = RandomFit::seeded(seed);
            let out = adv.play(&mut rf);
            // Any Fit forces exactly k bins during an all-at-once burst.
            assert_eq!(out.bins_opened, 6);
            assert_eq!(out.forced_cost_ticks, 6 * (10 * adv.delta) as u128);
        }
    }
}
