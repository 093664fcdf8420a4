//! Property tests for the span seam: whatever the workload, the recorded
//! span tree is well-nested, deterministic in structure for a fixed seed,
//! and invisible to the packing itself (`NoSpans` runs produce the same
//! trace and JSONL event stream byte for byte).

use dbp_core::algorithms::{BestFit, FirstFit, IndexedFirstFit};
use dbp_core::engine::{simulate, simulate_probed, EngineRun};
use dbp_core::instance::{Instance, InstanceBuilder};
use dbp_core::packer::BinSelector;
use dbp_core::probe::NoProbe;
use dbp_core::span::{stage, NoSpans, SpanEvent};
use dbp_obs::export::events_to_jsonl;
use dbp_obs::span::{SpanCollector, StageAggregator};
use dbp_obs::EventLog;
use proptest::prelude::*;

/// Random well-formed instances: 20–150 items, arrivals and durations
/// spread enough to interleave arrivals with departures.
fn instance_strategy() -> impl Strategy<Value = Instance> {
    proptest::collection::vec((0u64..500, 1u64..300, 5u64..60), 20..150).prop_map(|items| {
        let mut b = InstanceBuilder::new(100);
        for (at, dur, size) in items {
            b.add(at, at + dur, size);
        }
        b.build().expect("strategy builds valid instances")
    })
}

fn selector(which: u8) -> Box<dyn BinSelector> {
    match which % 3 {
        0 => Box::new(FirstFit::new()),
        1 => Box::new(BestFit::new()),
        _ => Box::new(IndexedFirstFit::new()),
    }
}

/// Every span's children lie strictly inside the parent's `[start, end]`
/// window, and parent indices always point backwards (a span's parent was
/// entered before it).
fn assert_well_nested(spans: &[SpanEvent]) {
    for (i, s) in spans.iter().enumerate() {
        if s.parent == SpanEvent::ROOT {
            continue;
        }
        let p = s.parent as usize;
        assert!(p < i, "parent {p} of span {i} must come earlier");
        let parent = &spans[p];
        assert!(s.start_ns >= parent.start_ns, "child starts before parent");
        assert!(s.end_ns() <= parent.end_ns(), "child outlives parent");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn span_trees_are_well_nested(
        inst in instance_strategy(),
        which in 0u8..3,
    ) {
        let mut spans = SpanCollector::new(0);
        let mut sel = selector(which);
        EngineRun::traced(&inst, &mut *sel, &mut NoProbe, &mut spans).finish();
        let spans = spans.spans();
        prop_assert!(!spans.is_empty());
        assert_well_nested(spans);
        // The engine emits exactly one arrival (with decide + place
        // nested) and one departure per item.
        let count = |name| spans.iter().filter(|s| s.name == name).count();
        prop_assert_eq!(count(stage::ARRIVAL), inst.len());
        prop_assert_eq!(count(stage::DECIDE), inst.len());
        prop_assert_eq!(count(stage::PLACE), inst.len());
        prop_assert_eq!(count(stage::DEPARTURE), inst.len());
    }

    #[test]
    fn span_shape_is_deterministic_for_a_fixed_seed(
        inst in instance_strategy(),
        which in 0u8..3,
    ) {
        let run = || {
            let mut spans = SpanCollector::new(0);
            let mut sel = selector(which);
            EngineRun::traced(&inst, &mut *sel, &mut NoProbe, &mut spans).finish();
            spans.shape()
        };
        // Timings differ between runs; the tree (names + parents) must not.
        prop_assert_eq!(run(), run());
    }

    #[test]
    fn noop_spans_leave_trace_and_event_stream_byte_identical(
        inst in instance_strategy(),
        which in 0u8..3,
    ) {
        let mut sel = selector(which);
        let plain = simulate(&inst, &mut *sel);

        let mut sel = selector(which);
        let noop = EngineRun::traced(&inst, &mut *sel, &mut NoProbe, NoSpans).finish();
        prop_assert_eq!(&plain, &noop);

        // The live recorder must not perturb the packing either, and the
        // JSONL event stream (the engine's full observable behavior) must
        // come out byte-identical with and without spans.
        let mut log_plain = EventLog::new();
        let mut sel = selector(which);
        simulate_probed(&inst, &mut *sel, &mut log_plain);

        let mut log_traced = EventLog::new();
        let mut spans = SpanCollector::new(0);
        let mut sel = selector(which);
        let traced = EngineRun::traced(&inst, &mut *sel, &mut log_traced, &mut spans).finish();
        prop_assert_eq!(&plain, &traced);
        prop_assert_eq!(
            events_to_jsonl(log_plain.events()),
            events_to_jsonl(log_traced.events())
        );
    }

    #[test]
    fn aggregator_and_collector_agree_on_stage_totals(
        inst in instance_strategy(),
    ) {
        let mut collector = SpanCollector::new(3);
        let mut sel = FirstFit::new();
        EngineRun::traced(&inst, &mut sel, &mut NoProbe, &mut collector).finish();

        let mut agg = StageAggregator::new(3);
        let mut sel = FirstFit::new();
        EngineRun::traced(&inst, &mut sel, &mut NoProbe, &mut agg).finish();

        // Same structure ⇒ same counts per stage (durations differ — they
        // are separate wall-clock runs).
        let from_collector = collector.stage_breakdown();
        let streamed = agg.finish();
        let counts = |b: &dbp_obs::StageBreakdown| -> Vec<(&'static str, u64)> {
            b.stages().map(|(name, s)| (name, s.count)).collect()
        };
        prop_assert_eq!(counts(&from_collector), counts(&streamed));
    }
}
