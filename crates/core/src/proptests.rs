//! Cross-module property tests of the exact-arithmetic substrate: `Ratio`
//! field laws and `Interval` union against brute force — everything else in
//! the reproduction leans on these being right.

#![cfg(test)]

use crate::ratio::Ratio;
use crate::time::{union_intervals, union_length, Interval, Tick};
use proptest::prelude::*;

fn ratios() -> impl Strategy<Value = Ratio> {
    (0u128..2_000, 1u128..2_000).prop_map(|(n, d)| Ratio::new(n, d))
}

proptest! {
    #[test]
    fn ratio_add_commutes_and_associates(a in ratios(), b in ratios(), c in ratios()) {
        prop_assert_eq!(a + b, b + a);
        prop_assert_eq!((a + b) + c, a + (b + c));
    }

    #[test]
    fn ratio_mul_commutes_distributes(a in ratios(), b in ratios(), c in ratios()) {
        prop_assert_eq!(a * b, b * a);
        prop_assert_eq!(a * (b + c), a * b + a * c);
    }

    #[test]
    fn ratio_sub_then_add_round_trips(a in ratios(), b in ratios()) {
        let (hi, lo) = if a >= b { (a, b) } else { (b, a) };
        prop_assert_eq!(hi - lo + lo, hi);
        prop_assert_eq!(hi.checked_sub(lo), Some(hi - lo));
        if hi != lo {
            prop_assert_eq!(lo.checked_sub(hi), None);
        }
    }

    #[test]
    fn ratio_div_inverts_mul(a in ratios(), b in ratios()) {
        prop_assume!(!b.is_zero());
        prop_assert_eq!(a * b / b, a);
    }

    #[test]
    fn ratio_ordering_is_total_and_consistent_with_f64(a in ratios(), b in ratios()) {
        // Exact ordering must agree with floats whenever floats can tell
        // them apart comfortably.
        let (af, bf) = (a.to_f64(), b.to_f64());
        if (af - bf).abs() > 1e-9 {
            prop_assert_eq!(a < b, af < bf);
        }
        prop_assert_eq!(a.max(b), b.max(a));
        prop_assert_eq!(a.min(b), b.min(a));
        prop_assert!(a.min(b) <= a.max(b));
    }

    #[test]
    fn ratio_floor_ceil_bracket(a in ratios()) {
        prop_assert!(Ratio::from_int(a.floor()) <= a);
        prop_assert!(a <= Ratio::from_int(a.ceil()));
        prop_assert!(a.ceil() - a.floor() <= 1);
        if a.is_integer() {
            prop_assert_eq!(a.floor(), a.ceil());
        }
    }

    #[test]
    fn union_length_matches_brute_force(
        raw in proptest::collection::vec((0u64..200, 1u64..40), 0..20)
    ) {
        let ivs: Vec<Interval> = raw
            .iter()
            .map(|&(a, len)| Interval::new(Tick(a), Tick(a + len)))
            .collect();
        let brute = (0..250u64)
            .filter(|&t| ivs.iter().any(|iv| iv.contains(Tick(t))))
            .count() as u64;
        prop_assert_eq!(union_length(&ivs).raw(), brute);

        // The merged list is sorted, disjoint, and covers the same set.
        let merged = union_intervals(&ivs);
        for w in merged.windows(2) {
            prop_assert!(w[0].end < w[1].start);
        }
        let merged_len: u64 = merged.iter().map(|iv| iv.len().raw()).sum();
        prop_assert_eq!(merged_len, brute);
    }
}
