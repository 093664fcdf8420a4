//! The §4.3 proof machinery of the paper, as executable analysis.
//!
//! The competitive-ratio proofs for First Fit (Theorems 4 and 5) construct a
//! sequence of combinatorial objects from an FF packing:
//!
//! 1. per-bin usage periods `I_i`, split into `I_i^L` / `I_i^R` around
//!    `E_i = max_{j<i} I_j^+` (Figure 4) — [`decompose_bins`];
//! 2. sub-periods of each `I_i^L` via the split-and-merge rule with features
//!    (f.1)–(f.3) (Figure 5) — [`split_left_period`];
//! 3. reference points `t_{i,j}`, reference bins `b†(I_{i,j})` and reference
//!    periods `[t−∆, t+∆]` with features (f.4)–(f.5) (Figure 6), the Table 2
//!    case classification, the joint/single pairing (Figure 7, Lemmas 1–4),
//!    and auxiliary periods (Figure 8, Lemma 5) — [`ReferenceStructure`];
//! 4. the closing inequalities (13) and (15) that yield the `2µ + 13` bound
//!    — [`CertificateReport`].
//!
//! Running [`analyze_first_fit`] on a real FF trace *checks every feature
//! and lemma computationally* and produces the counts Table 2 classifies —
//! this is how the reproduction treats the paper's Figures 4–8 and Table 2
//! as executable artifacts rather than prose.

mod certificates;
mod decompose;
mod mff;
mod references;
mod subperiods;

pub use certificates::CertificateReport;
pub use decompose::{decompose_bins, BinPeriods};
pub use mff::{analyze_mff, MffAnalysis};
pub use references::{
    classify_pair, CaseCounts, PairCase, PairingOutcome, ReferenceInfo, ReferenceStructure,
};
pub use subperiods::{split_left_period, SubPeriod};

use crate::instance::Instance;
use crate::time::Dur;
use crate::trace::PackingTrace;

/// The full analysis of one First Fit trace.
#[derive(Debug, Clone)]
pub struct FirstFitAnalysis {
    /// ∆: minimum item interval length.
    pub delta: Dur,
    /// µ∆: maximum item interval length.
    pub max_len: Dur,
    /// Per-bin `I_i`, `E_i`, `I_i^L`, `I_i^R`.
    pub bins: Vec<BinPeriods>,
    /// All sub-periods of all `I_i^L`, in (bin, temporal) order.
    pub subperiods: Vec<SubPeriod>,
    /// Reference structure: points, bins, case table, pairing, lemma checks.
    pub refs: ReferenceStructure,
    /// The inequality certificates of §4.3.
    pub certificates: CertificateReport,
    /// Human-readable violations of any paper claim (must be empty for a
    /// genuine FF trace on a valid instance).
    pub violations: Vec<String>,
}

impl FirstFitAnalysis {
    /// `|I_I^L(J)| + |I_I^L(S)| + |I_U^L|` — the count multiplying
    /// `(µ+6)∆` in inequality (13).
    pub fn key_count(&self) -> u64 {
        self.refs.pairing.joint_pairs as u64
            + self.refs.pairing.single_periods as u64
            + self.refs.pairing.non_intersecting as u64
    }

    /// Whether every feature, lemma and inequality checked out.
    pub fn is_clean(&self) -> bool {
        self.violations.is_empty()
    }
}

/// Whether the §4.3 interval arithmetic fits in `u64` ticks for
/// `instance`: sub-periods are cut in units of `(µ+2)∆`, checked against
/// `(µ+4)∆`, and reference points reach `µ∆` past a sub-period's start,
/// so `(µ+4)∆` past the last departure must be a tick. An empty instance
/// passes (it has no ∆ to scale).
///
/// # Errors
/// A message naming the overflowing sum, for instances whose ticks reach
/// the top of the `u64` range.
pub fn check_tick_range(instance: &Instance) -> Result<(), String> {
    let (Some(delta), Some(max_len)) = (instance.min_interval_len(), instance.max_interval_len())
    else {
        return Ok(());
    };
    let last = instance.last_departure().map_or(0, |t| t.raw());
    delta
        .raw()
        .checked_mul(4)
        .and_then(|d4| d4.checked_add(max_len.raw()))
        .and_then(|span| span.checked_add(last))
        .map(|_| ())
        .ok_or_else(|| {
            format!(
                "the §4.3 analysis needs µ∆ + 4∆ = {} + 4·{} ticks past the last departure \
                 (tick {last}), beyond the u64 tick range",
                max_len.raw(),
                delta.raw()
            )
        })
}

/// Run the complete §4.3 analysis on a First Fit trace.
///
/// ```
/// use dbp_core::prelude::*;
/// use dbp_core::analysis::analyze_first_fit;
/// let mut b = InstanceBuilder::new(10);
/// b.add(0, 40, 8);
/// b.add(5, 60, 8); // forces a second, overlapping bin
/// let inst = b.build().unwrap();
/// let trace = simulate_validated(&inst, &mut FirstFit::new());
/// let analysis = analyze_first_fit(&inst, &trace);
/// assert!(analysis.is_clean()); // every §4.3 claim verified
/// assert!(analysis.certificates.theorem5_holds);
/// ```
///
/// The trace must come from [`FirstFit`] (or an algorithm whose traces
/// satisfy FF's invariants); violations are *reported*, not panicked on, so
/// the same machinery can probe how non-FF algorithms break the analysis.
///
/// # Panics
/// Panics if the instance is empty (∆ and µ∆ are undefined) or if
/// [`check_tick_range`] refuses it.
///
/// [`FirstFit`]: crate::algorithms::FirstFit
pub fn analyze_first_fit(instance: &Instance, trace: &PackingTrace) -> FirstFitAnalysis {
    let delta = instance
        .min_interval_len()
        .expect("analysis requires a nonempty instance");
    let max_len = instance
        .max_interval_len()
        .expect("analysis requires a nonempty instance");

    let mut violations = Vec::new();

    let bins = decompose::decompose_bins(instance, trace, &mut violations);

    let mut subperiods = Vec::new();
    for bp in &bins {
        let subs = subperiods::split_left_period(bp.bin, bp.left, delta, max_len, &mut violations);
        subperiods.extend(subs);
    }

    let refs = references::build_reference_structure(
        instance,
        trace,
        &bins,
        &subperiods,
        delta,
        max_len,
        &mut violations,
    );

    let certificates = certificates::check_certificates(
        instance,
        trace,
        &bins,
        &refs,
        delta,
        max_len,
        &mut violations,
    );

    FirstFitAnalysis {
        delta,
        max_len,
        bins,
        subperiods,
        refs,
        certificates,
        violations,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algorithms::FirstFit;
    use crate::engine::simulate_validated;
    use crate::instance::InstanceBuilder;
    use rand::rngs::StdRng;
    use rand::{RngExt, SeedableRng};

    fn random_instance(seed: u64, n: usize) -> Instance {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut b = InstanceBuilder::new(100);
        let mut t = 0u64;
        for _ in 0..n {
            t += rng.random_range(0..8);
            let len = rng.random_range(20..=60);
            let size = rng.random_range(5..=60);
            b.add(t, t + len, size);
        }
        b.build().unwrap()
    }

    #[test]
    fn analysis_is_clean_on_random_ff_traces() {
        for seed in 0..30 {
            let inst = random_instance(seed, 120);
            let trace = simulate_validated(&inst, &mut FirstFit::new());
            let analysis = analyze_first_fit(&inst, &trace);
            assert!(
                analysis.is_clean(),
                "seed {seed}: violations: {:#?}",
                analysis.violations
            );
        }
    }

    #[test]
    fn single_bin_trace_has_no_left_periods() {
        let mut b = InstanceBuilder::new(100);
        b.add(0, 50, 10);
        b.add(10, 60, 10);
        let inst = b.build().unwrap();
        let trace = simulate_validated(&inst, &mut FirstFit::new());
        let analysis = analyze_first_fit(&inst, &trace);
        assert!(analysis.is_clean());
        assert!(analysis.subperiods.is_empty());
        assert_eq!(analysis.key_count(), 0);
    }

    #[test]
    fn key_count_matches_pairing_arithmetic() {
        let inst = random_instance(99, 200);
        let trace = simulate_validated(&inst, &mut FirstFit::new());
        let a = analyze_first_fit(&inst, &trace);
        // Every intersecting period is in exactly one pair or single:
        // |I_I^L| = 2·|J| + |S|.
        assert_eq!(
            a.refs.pairing.intersecting_periods,
            2 * a.refs.pairing.joint_pairs + a.refs.pairing.single_periods
        );
        // And partitions: |I^L| = |I_I^L| + |I_U^L|.
        assert_eq!(
            a.subperiods.len(),
            a.refs.pairing.intersecting_periods + a.refs.pairing.non_intersecting
        );
    }
}
