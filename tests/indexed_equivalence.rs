//! Property tests: the indexed FF/BF/MFF selectors are
//! decision-for-decision equivalent to the naive scanning implementations
//! — same `Decision` sequence, identical `PackingTrace`, and byte-identical
//! probe event streams (JSONL) — on arbitrary churn-heavy instances.

use dbp::prelude::*;
use dbp_core::algorithms::{
    BestFit, FirstFit, IndexedBestFit, IndexedFirstFit, IndexedMff, ModifiedFirstFit,
};
use dbp_core::bin::{BinId, BinTag, OpenBinView};
use dbp_core::engine::{any_fit_violations, simulate_probed, simulate_validated};
use dbp_core::item::ArrivingItem;
use dbp_core::packer::{BinSelector, Decision};
use dbp_obs::export::events_to_jsonl;
use dbp_obs::EventLog;
use proptest::prelude::*;

/// Forwards everything to the wrapped selector — including `needs_views`
/// and every state-change hook, so the engine drives the inner selector
/// exactly as it would undecorated — while recording the decision sequence.
struct Recording<S> {
    inner: S,
    decisions: Vec<Decision>,
}

impl<S: BinSelector> Recording<S> {
    fn new(inner: S) -> Recording<S> {
        Recording {
            inner,
            decisions: Vec::new(),
        }
    }
}

impl<S: BinSelector> BinSelector for Recording<S> {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn select(&mut self, bins: &[OpenBinView], item: &ArrivingItem, capacity: Size) -> Decision {
        let d = self.inner.select(bins, item, capacity);
        self.decisions.push(d);
        d
    }

    fn needs_views(&self) -> bool {
        self.inner.needs_views()
    }

    fn on_bin_opened(&mut self, bin: BinId, tag: BinTag, level: Size) {
        self.inner.on_bin_opened(bin, tag, level);
    }

    fn on_item_placed(&mut self, bin: BinId, level: Size) {
        self.inner.on_item_placed(bin, level);
    }

    fn on_item_departed(&mut self, bin: BinId, level: Size) {
        self.inner.on_item_departed(bin, level);
    }

    fn on_bin_closed(&mut self, bin: BinId) {
        self.inner.on_bin_closed(bin);
    }

    fn is_any_fit(&self) -> bool {
        self.inner.is_any_fit()
    }
}

/// Capacities that put indexed BF on each of its index layouts: W = 100
/// (dense), the last dense capacity total 4095, the first sparse total
/// 4096, W = 2^40 and W = u64::MAX (sparse).
const BF_CAPACITIES: [u64; 5] = [100, 4095, 4096, 1 << 40, u64::MAX];

/// Raw `(arrival, length, size-in-percent)` items with heavy interval
/// overlap (many bins open at once), plus ties in size so tie-breaking
/// paths get hit.
fn raw_items(max_items: usize) -> impl Strategy<Value = Vec<(u64, u64, u64)>> {
    let item = (0u64..300, 1u64..150, 1u64..=100);
    proptest::collection::vec(item, 1..max_items)
}

/// Build the raw items against `capacity`, each size scaled from percent
/// of the capacity (exact at W = 100; a 100% item still fills a bin).
fn build(capacity: u64, raw: &[(u64, u64, u64)]) -> Instance {
    let mut b = InstanceBuilder::new(capacity);
    for &(a, len, s) in raw {
        let size = (s as u128 * capacity as u128 / 100).max(1) as u64;
        b.add(a, a + len, size);
    }
    b.build().expect("generated instance is valid")
}

/// Strategy: arbitrary valid instances at `capacity` (see [`raw_items`]).
fn instances(capacity: u64, max_items: usize) -> impl Strategy<Value = Instance> {
    raw_items(max_items).prop_map(move |raw| build(capacity, &raw))
}

/// Strategy: one raw stream built at every capacity of [`BF_CAPACITIES`].
fn at_every_bf_layout(max_items: usize) -> impl Strategy<Value = Vec<Instance>> {
    raw_items(max_items).prop_map(|raw| BF_CAPACITIES.iter().map(|&w| build(w, &raw)).collect())
}

/// Run `naive` and `indexed` over `inst`, asserting identical decision
/// sequences, traces, event streams (to the byte, via JSONL), and decision
/// counts.
fn assert_equivalent<A: BinSelector, B: BinSelector>(
    inst: &Instance,
    naive: A,
    indexed: B,
) -> proptest::TestCaseResult {
    let trace = assert_same_behavior(inst, naive, indexed)?;
    prop_assert!(any_fit_violations(inst, &trace).is_empty());
    Ok(())
}

/// [`assert_equivalent`] minus the Any Fit audit, returning the trace —
/// for selectors like MFF that legitimately refuse cross-class placements.
fn assert_same_behavior<A: BinSelector, B: BinSelector>(
    inst: &Instance,
    naive: A,
    indexed: B,
) -> Result<PackingTrace, proptest::TestCaseError> {
    let mut naive = Recording::new(naive);
    let mut naive_log = EventLog::new();
    let naive_trace = simulate_probed(inst, &mut naive, &mut naive_log);

    let mut indexed = Recording::new(indexed);
    let mut indexed_log = EventLog::new();
    let indexed_trace = simulate_probed(inst, &mut indexed, &mut indexed_log);

    prop_assert_eq!(&naive.decisions, &indexed.decisions);
    prop_assert_eq!(&naive_trace, &indexed_trace);
    prop_assert_eq!(
        events_to_jsonl(naive_log.events()),
        events_to_jsonl(indexed_log.events())
    );
    prop_assert_eq!(
        naive_log.decision_ns().len(),
        indexed_log.decision_ns().len()
    );
    Ok(indexed_trace)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn indexed_ff_equals_naive_ff(inst in instances(100, 80)) {
        assert_equivalent(&inst, FirstFit::new(), IndexedFirstFit::new())?;
    }

    #[test]
    fn indexed_bf_equals_naive_bf(inst in instances(100, 80)) {
        assert_equivalent(&inst, BestFit::new(), IndexedBestFit::new())?;
    }

    /// The same check on both index layouts and across their boundary:
    /// decisions, traces and JSONL at every capacity of [`BF_CAPACITIES`].
    #[test]
    fn indexed_bf_equals_naive_bf_at_every_layout(insts in at_every_bf_layout(80)) {
        for inst in &insts {
            assert_equivalent(inst, BestFit::new(), IndexedBestFit::new())?;
        }
    }

    /// MFF is not Any Fit (it refuses cross-class placements), so it gets
    /// the behavior check without the Any Fit audit. `k = 8` is the
    /// paper's µ-oblivious setting; the generated capacity is 100, so the
    /// size range straddles the W/k = 12.5 threshold and both classes see
    /// real churn.
    #[test]
    fn indexed_mff_equals_naive_mff(inst in instances(100, 80)) {
        assert_same_behavior(&inst, ModifiedFirstFit::new(8), IndexedMff::new(8))?;
    }

    /// A rational threshold exercises the exact-arithmetic classification
    /// path on both sides.
    #[test]
    fn indexed_mff_equals_naive_mff_rational_k(inst in instances(100, 60)) {
        assert_same_behavior(
            &inst,
            ModifiedFirstFit::with_rational_k(3, 2),
            IndexedMff::with_rational_k(3, 2),
        )?;
    }

    /// The validated entry point (which cross-checks the trace against the
    /// instance) agrees too, without the recording wrapper in the way.
    #[test]
    fn validated_traces_agree(inst in instances(100, 50)) {
        prop_assert_eq!(
            simulate_validated(&inst, &mut FirstFit::new()),
            simulate_validated(&inst, &mut IndexedFirstFit::new())
        );
        prop_assert_eq!(
            simulate_validated(&inst, &mut BestFit::new()),
            simulate_validated(&inst, &mut IndexedBestFit::new())
        );
        prop_assert_eq!(
            simulate_validated(&inst, &mut ModifiedFirstFit::new(8)),
            simulate_validated(&inst, &mut IndexedMff::new(8))
        );
    }

    /// [`validated_traces_agree`] for BF at every capacity of
    /// [`BF_CAPACITIES`].
    #[test]
    fn validated_bf_traces_agree_at_every_layout(insts in at_every_bf_layout(50)) {
        for inst in &insts {
            prop_assert_eq!(
                simulate_validated(inst, &mut BestFit::new()),
                simulate_validated(inst, &mut IndexedBestFit::new())
            );
        }
    }

    /// Every indexed trace passes the one validator the cluster shard
    /// path runs; the Any Fit ones (FF, BF) also pass the Any Fit replay
    /// over the same sweep.
    #[test]
    fn conservation_check_accepts_indexed_traces(inst in instances(100, 60)) {
        let traces = [
            (simulate_validated(&inst, &mut IndexedFirstFit::new()), true),
            (simulate_validated(&inst, &mut IndexedBestFit::new()), true),
            (simulate_validated(&inst, &mut IndexedMff::new(8)), false),
        ];
        for (trace, any_fit) in &traces {
            prop_assert!(trace.validate(&inst).is_empty());
            prop_assert!(!any_fit || any_fit_violations(&inst, trace).is_empty());
        }
    }
}
