//! End-to-end crash-recovery properties: a journal cut anywhere — at any
//! event prefix or any *byte* offset — recovers by verified re-execution
//! to a run that reproduces the uninterrupted trace, cost, and JSONL
//! stream byte-for-byte.

use dbp_core::algorithms::indexed::{IndexedBestFit, IndexedFirstFit};
use dbp_core::algorithms::{BestFit, FirstFit, ModifiedFirstFit, NextFit, RandomFit};
use dbp_core::prelude::*;
use dbp_core::probe::VerifyProbe;
use dbp_obs::journal::{parse_journal, FsyncPolicy, JournalProbe};
use dbp_obs::prelude::*;
use proptest::prelude::*;
use proptest::TestCaseError;

fn selectors(seed: u64) -> [SelectorFactory; 7] {
    [
        SelectorFactory::new("FF", || Box::new(FirstFit::new())),
        SelectorFactory::new("BF", || Box::new(BestFit::new())),
        SelectorFactory::new("NF", || Box::new(NextFit::new())),
        SelectorFactory::new("MFF", || Box::new(ModifiedFirstFit::new(4))),
        SelectorFactory::new("IFF", || Box::new(IndexedFirstFit::new())),
        SelectorFactory::new("IBF", || Box::new(IndexedBestFit::new())),
        SelectorFactory::new("RF", move || Box::new(RandomFit::seeded(seed))),
    ]
}

fn build_instance(raw: &[(u64, u64, u64)]) -> Instance {
    let mut b = InstanceBuilder::new(10);
    for &(a, len, size) in raw {
        b.add(a, a + len, size);
    }
    b.build().unwrap()
}

proptest! {
    /// Recovering from the journal cut at *every* event prefix yields an
    /// identical final trace, cost, and JSONL stream (journal prefix +
    /// continuation, byte-wise).
    #[test]
    fn resume_at_every_event_prefix_is_jsonl_byte_identical(
        raw in proptest::collection::vec((0u64..40, 1u64..25, 1u64..10), 1..10),
        seed in 0u64..1_000,
    ) {
        let inst = build_instance(&raw);
        for factory in &selectors(seed) {
            let mut sel = factory.build();
            let mut log = EventLog::new();
            let full_trace = simulate_probed(&inst, &mut *sel, &mut log);
            let events = log.into_events();
            let full_jsonl = events_to_jsonl(&events);
            for cut in 0..=events.len() {
                let rec = recovery_point(&events[..cut])
                    .map_err(|e| TestCaseError::Fail(
                        format!("{} cut {cut}: {e}", factory.name())))?;
                prop_assert!(rec.events_used <= cut);
                let mut sel2 = factory.build();
                let mut log2 = EventLog::new();
                let mut verify = VerifyProbe::new(&events[..rec.events_used], &mut log2);
                let trace = simulate_probed(&inst, &mut *sel2, &mut verify);
                verify.finish().map_err(|e| TestCaseError::Fail(
                    format!("{} cut {cut}: resume: {e}", factory.name())))?;
                prop_assert_eq!(&trace, &full_trace, "{} trace diverged at {}", factory.name(), cut);
                prop_assert_eq!(
                    trace.total_cost_ticks(),
                    full_trace.total_cost_ticks()
                );
                let mut combined = events_to_jsonl(&events[..rec.events_used]);
                combined.push_str(&events_to_jsonl(&log2.into_events()));
                prop_assert_eq!(
                    combined.as_bytes(),
                    full_jsonl.as_bytes(),
                    "{} JSONL stream diverged at {}",
                    factory.name(),
                    cut
                );
            }
        }
    }

    /// The same property through the on-disk WAL: truncate the journal
    /// *file* at arbitrary byte offsets (simulating SIGKILL mid-append),
    /// read it torn-tolerantly, recover, resume, and demand byte-identical
    /// JSONL.
    #[test]
    fn journal_file_cut_at_any_byte_recovers_exactly(
        raw in proptest::collection::vec((0u64..40, 1u64..25, 1u64..10), 1..8),
        stride in 1usize..23,
    ) {
        let inst = build_instance(&raw);
        let dir = std::env::temp_dir().join("dbp_obs_journal_resume");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("cut.wal");
        let mut probe = JournalProbe::create(&path, FsyncPolicy::Never).unwrap();
        let full_trace = simulate_probed(&inst, &mut FirstFit::new(), &mut probe);
        probe.finish().unwrap();
        let bytes = std::fs::read(&path).unwrap();
        let mut log = EventLog::new();
        simulate_probed(&inst, &mut FirstFit::new(), &mut log);
        let full_jsonl = events_to_jsonl(log.events());
        for cut in (0..=bytes.len()).step_by(stride) {
            // Torn tails must decode (never error, never panic)...
            let contents = parse_journal::<Size>(&bytes[..cut])
                .map_err(|e| TestCaseError::Fail(format!("byte cut {cut}: {e}")))?;
            // ...and the decoded prefix must recover and resume exactly.
            let rec = recovery_point(&contents.events)
                .map_err(|e| TestCaseError::Fail(format!("byte cut {cut}: {e}")))?;
            let mut log2 = EventLog::new();
            let mut verify = VerifyProbe::new(&contents.events[..rec.events_used], &mut log2);
            let trace = simulate_probed(&inst, &mut FirstFit::new(), &mut verify);
            verify.finish().map_err(|e| TestCaseError::Fail(format!("byte cut {cut}: resume: {e}")))?;
            prop_assert_eq!(&trace, &full_trace);
            let mut combined =
                events_to_jsonl(&contents.events[..rec.events_used]);
            combined.push_str(&events_to_jsonl(&log2.into_events()));
            prop_assert_eq!(combined, full_jsonl.clone(), "byte cut at {}", cut);
        }
    }
}
