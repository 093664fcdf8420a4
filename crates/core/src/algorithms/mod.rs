//! The packing algorithms analyzed in the paper, plus standard foils.
//!
//! * [`FirstFit`], [`BestFit`] and the whole Any Fit family (§3.2);
//! * [`ModifiedFirstFit`] — the paper's contribution (§4.4);
//! * foils: [`WorstFit`], [`NextFit`], [`LastFit`], [`RandomFit`],
//!   [`MostItemsFit`];
//! * [`ConstrainedFirstFit`] — the §5 future-work extension (items restricted
//!   to region-compatible bins);
//! * [`IndexedFirstFit`], [`IndexedBestFit`], [`IndexedMff`] —
//!   decision-identical O(log m) reimplementations of FF/BF/MFF over
//!   hook-maintained indexes (see [`indexed`]). The [`ROSTER`] ships them;
//!   the naive types stay as the specification and test oracle.

mod best_fit;
mod constrained;
mod dominance;
mod first_fit;
mod harmonic;
pub mod indexed;
mod last_fit;
mod modified_first_fit;
mod most_items;
mod next_fit;
mod random_fit;
mod worst_fit;

pub use best_fit::BestFit;
pub use constrained::ConstrainedFirstFit;
pub use dominance::DominanceFit;
pub use first_fit::FirstFit;
pub use harmonic::HarmonicFit;
pub use indexed::{IndexedBestFit, IndexedFirstFit, IndexedMff};
pub use last_fit::LastFit;
pub use modified_first_fit::{ItemClass, ModifiedFirstFit, LARGE_TAG, SMALL_TAG};
pub use most_items::MostItemsFit;
pub use next_fit::NextFit;
pub use random_fit::RandomFit;
pub use worst_fit::WorstFit;

use crate::bin::GOpenBinView;
use crate::demand::Demand;
use crate::item::Size;
use crate::packer::{BinSelector, SelectorFactory};
use indexed::{GIndexedBestFit, GIndexedFirstFit, GIndexedMff};

/// Among the open bins that fit `size` (componentwise, per
/// [`GOpenBinView::fits`]), pick the one minimizing `key` (ties broken
/// toward the earliest-opened bin, because `bins` is in opening order and
/// the comparison is strict). Returns `None` if no open bin fits — the Any
/// Fit trigger for opening a new bin.
pub(crate) fn argmin_fitting<Sz: Demand, K: Ord>(
    bins: &[GOpenBinView<Sz>],
    size: Sz,
    mut key: impl FnMut(&GOpenBinView<Sz>) -> K,
) -> Option<&GOpenBinView<Sz>> {
    let mut best: Option<(&GOpenBinView<Sz>, K)> = None;
    for b in bins.iter().filter(|b| b.fits(size)) {
        let k = key(b);
        match &best {
            Some((_, bk)) if *bk <= k => {}
            _ => best = Some((b, k)),
        }
    }
    best.map(|(b, _)| b)
}

/// How a [`Rule`] builds its selector: an indexed engine or DOM at any
/// dimensionality, or a scalar-only foil from the RF seed.
#[derive(Debug, Clone, Copy)]
enum Engine {
    Ff,
    Bf,
    Mff,
    MffMu,
    Dom,
    Scalar(fn(u64) -> Box<dyn BinSelector>),
}
use Engine::*;

/// A rule's selector, `None` where the rule does not run, `Err` for
/// `mff-mu` without a µ hint.
pub type Built<Sz> = Option<Result<Box<dyn BinSelector<Sz>>, String>>;

/// One row of the [`ROSTER`].
#[derive(Debug, Clone, Copy)]
pub struct Rule {
    /// The `--algo` key (`ff`, `mff-mu`, ...).
    pub key: &'static str,
    /// The display name; built selectors report it up to MFF's `(k)`.
    pub name: &'static str,
    engine: Engine,
}

/// Every packing rule, and the one table that decides which
/// implementation runs it: FF, BF and MFF are the indexed engines at every
/// dimensionality, decision-identical to the naive scanners. The first
/// nine rows are the µ-free scalar rules [`standard_factories`] lists.
#[rustfmt::skip]
pub const ROSTER: [Rule; 12] = [
    Rule { key: "ff", name: "FF", engine: Ff },
    Rule { key: "bf", name: "BF", engine: Bf },
    Rule { key: "wf", name: "WF", engine: Scalar(|_| Box::new(WorstFit::new())) },
    Rule { key: "nf", name: "NF", engine: Scalar(|_| Box::new(NextFit::new())) },
    Rule { key: "lf", name: "LF", engine: Scalar(|_| Box::new(LastFit::new())) },
    Rule { key: "mi", name: "MI", engine: Scalar(|_| Box::new(MostItemsFit::new())) },
    Rule { key: "rf", name: "RF", engine: Scalar(|seed| Box::new(RandomFit::seeded(seed))) },
    Rule { key: "mff", name: "MFF(8)", engine: Mff },
    Rule { key: "hff", name: "HFF(4)", engine: Scalar(|_| Box::new(HarmonicFit::new(4))) },
    Rule { key: "mff-mu", name: "MFF(µ+7)", engine: MffMu },
    Rule { key: "cff", name: "C-FF", engine: Scalar(|_| Box::new(ConstrainedFirstFit::new())) },
    Rule { key: "dom", name: "DOM", engine: Dom },
];

impl Rule {
    /// The rule named by its key or display name. The reference
    /// resolver's other names (`MFF` and the `-idx` names) stay hidden
    /// aliases; the FF, BF and MFF rows build the indexed engines anyway.
    pub fn find(name: &str) -> Option<&'static Rule> {
        let name = match name {
            "FF-idx" => "ff",
            "BF-idx" => "bf",
            "MFF" | "MFF-idx" | "MFF(8)-idx" => "mff",
            name => name,
        };
        ROSTER.iter().find(|r| r.key == name || r.name == name)
    }

    /// The D = 1 selector (`seed` seeds RF); `None` for the vector-only DOM.
    pub fn build(&self, mu_hint: Option<u64>, seed: u64) -> Built<Size> {
        match self.engine {
            Scalar(make) => Some(Ok(make(seed))),
            Dom => None,
            _ => self.build_any(mu_hint),
        }
    }

    /// The selector at any dimensionality; `None` for the scalar-only foils.
    pub fn build_any<Sz: Demand>(&self, mu_hint: Option<u64>) -> Built<Sz> {
        Some(Ok(match (self.engine, mu_hint) {
            (Ff, _) => Box::new(GIndexedFirstFit::<Sz>::new()),
            (Bf, _) => Box::new(GIndexedBestFit::<Sz>::new()),
            (Mff, _) => Box::new(GIndexedMff::<Sz>::new(8)),
            (MffMu, Some(mu)) => Box::new(GIndexedMff::<Sz>::for_known_mu(mu)),
            (MffMu, None) => {
                return Some(Err("mff-mu needs a µ estimate from the instance".into()))
            }
            (Dom, _) => Box::new(DominanceFit::new()),
            (Scalar(_), _) => return None,
        }))
    }
}

/// The standard algorithm roster used by experiments: a view of the
/// [`ROSTER`]'s nine µ-free scalar rules under their display names, with
/// MFF at its µ-oblivious setting `k = 8` (the paper's recommendation when
/// µ is unknown) and Random Fit seeded.
///
/// ```
/// use dbp_core::prelude::*;
/// use dbp_core::algorithms::standard_factories;
/// let mut b = InstanceBuilder::new(10);
/// b.add(0, 50, 6);
/// b.add(5, 40, 6);
/// let inst = b.build().unwrap();
/// for factory in standard_factories(42) {
///     let mut algo = factory.build();
///     let trace = simulate_validated(&inst, &mut *algo);
///     assert_eq!(trace.bins_used(), 2, "{}", factory.name());
/// }
/// ```
pub fn standard_factories(seed: u64) -> Vec<SelectorFactory> {
    let build = move |r: &Rule| {
        r.build(None, seed)
            .and_then(Result::ok)
            .expect("µ-free rule")
    };
    ROSTER[..9]
        .iter()
        .map(|r| SelectorFactory::new(r.name, move || build(r)))
        .collect()
}

/// The reference resolver for the benchmark, `engine_baseline` and the
/// equivalence suites: plain names build the naive scanners and `-idx`
/// names the indexed selectors, at any dimensionality, so a check can put
/// the specification next to the shipped engine. Production code builds
/// from the [`ROSTER`]. Returns `None` for unknown names and for the
/// scalar-only foils.
pub fn selector_for<Sz: Demand>(name: &str) -> Option<Box<dyn BinSelector<Sz>>> {
    Some(match name {
        "FF" | "ff" => Box::new(FirstFit::new()),
        "BF" | "bf" => Box::new(BestFit::new()),
        "MFF(8)" | "MFF" | "mff" => Box::new(ModifiedFirstFit::new(8)),
        "DOM" | "dom" => Box::new(DominanceFit::new()),
        "FF-idx" => Box::new(indexed::GIndexedFirstFit::<Sz>::new()),
        "BF-idx" => Box::new(indexed::GIndexedBestFit::<Sz>::new()),
        "MFF-idx" | "MFF(8)-idx" => Box::new(indexed::GIndexedMff::<Sz>::new(8)),
        _ => return None,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bin::{BinId, BinTag, OpenBinView};
    use crate::time::Tick;

    fn view(id: u32, level: u64) -> OpenBinView {
        OpenBinView {
            id: BinId(id),
            opened_at: Tick(0),
            level: Size(level),
            capacity: Size(10),
            n_items: 1,
            tag: BinTag::DEFAULT,
        }
    }

    #[test]
    fn argmin_prefers_earlier_bin_on_ties() {
        let bins = [view(0, 5), view(1, 5), view(2, 3)];
        let chosen = argmin_fitting(&bins, Size(2), |b| b.level).unwrap();
        assert_eq!(chosen.id, BinId(2));
        let chosen = argmin_fitting(&bins, Size(2), |b| std::cmp::Reverse(b.level)).unwrap();
        assert_eq!(chosen.id, BinId(0)); // tie between 0 and 1 at level 5
    }

    #[test]
    fn argmin_skips_bins_that_do_not_fit() {
        let bins = [view(0, 9), view(1, 10)];
        assert!(argmin_fitting(&bins, Size(2), |b| b.level).is_none());
        let chosen = argmin_fitting(&bins, Size(1), |b| b.level).unwrap();
        assert_eq!(chosen.id, BinId(0));
    }

    #[test]
    fn roster_has_unique_names() {
        let fs = standard_factories(42);
        let mut names: Vec<&str> = fs.iter().map(|f| f.name()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), fs.len());
    }

    #[test]
    fn roster_builds_the_indexed_engines_under_the_naive_names() {
        use crate::demand::VSize;
        fn view_free<Sz: Demand>(rule: &Rule) -> bool {
            !rule
                .build_any::<Sz>(Some(8))
                .unwrap()
                .unwrap()
                .needs_views()
        }
        let mut keys: Vec<&str> = ROSTER.iter().map(|r| r.key).collect();
        keys.sort_unstable();
        keys.dedup();
        assert_eq!(keys.len(), ROSTER.len());
        for rule in &ROSTER {
            let key = rule.key;
            assert_eq!(Rule::find(key).unwrap().key, key);
            assert_eq!(Rule::find(rule.name).unwrap().key, key);
            // Built selectors report the naive display name, so traces and
            // event streams name the rule the same from either family.
            let built = match rule.build(Some(8), 0) {
                Some(sel) => sel.unwrap(),
                None => rule.build_any::<Size>(None).unwrap().unwrap(),
            };
            assert!(rule.name.starts_with(built.name()), "{key}");
            let indexed = ["ff", "bf", "mff", "mff-mu"].contains(&key);
            if indexed {
                assert!(!built.needs_views(), "{key}");
                assert!(view_free::<VSize<2>>(rule), "{key}");
                assert!(view_free::<VSize<3>>(rule), "{key}");
                assert!(view_free::<VSize<4>>(rule), "{key}");
            }
            // Scalar-only foils have no builder at D > 1, DOM none at D = 1.
            let vector = indexed || key == "dom";
            assert_eq!(rule.build_any::<VSize<2>>(None).is_some(), vector, "{key}");
            assert_eq!(rule.build_any::<VSize<3>>(None).is_some(), vector, "{key}");
            assert_eq!(rule.build_any::<VSize<4>>(None).is_some(), vector, "{key}");
            assert_eq!(rule.build(None, 0).is_some(), key != "dom", "{key}");
        }
        let naive: [(&str, Box<dyn BinSelector>); 3] = [
            ("ff", Box::new(FirstFit::new())),
            ("bf", Box::new(BestFit::new())),
            ("mff", Box::new(ModifiedFirstFit::new(8))),
        ];
        for (key, naive) in naive {
            let built = Rule::find(key).unwrap().build(None, 0).unwrap().unwrap();
            assert_eq!(built.name(), naive.name());
        }
        for (alias, key) in [
            ("FF-idx", "ff"),
            ("BF-idx", "bf"),
            ("MFF", "mff"),
            ("MFF-idx", "mff"),
            ("MFF(8)-idx", "mff"),
        ] {
            assert_eq!(Rule::find(alias).unwrap().key, key, "{alias}");
        }
        assert!(Rule::find("quantum").is_none());
        assert!(Rule::find("mff-mu")
            .unwrap()
            .build(None, 0)
            .unwrap()
            .is_err());
        // The reference resolver keeps naming the naive scanners: the
        // benchmark checks the shipped engine's bills against it.
        assert!(selector_for::<VSize<3>>("FF").unwrap().needs_views());
        assert!(!selector_for::<VSize<3>>("FF-idx").unwrap().needs_views());
    }

    #[test]
    fn standard_factories_view_the_roster() {
        let names: Vec<&str> = standard_factories(42).iter().map(|f| f.name()).collect();
        assert_eq!(
            names,
            ["FF", "BF", "WF", "NF", "LF", "MI", "RF", "MFF(8)", "HFF(4)"]
        );
    }
}
