//! End-to-end crash-recovery properties: a journal cut anywhere — at any
//! event prefix or any *byte* offset, mid-operation included — recovers by
//! re-executing the run under a `VerifyProbe` over the whole cut journal,
//! and reproduces the uninterrupted trace, cost, and JSONL stream
//! byte-for-byte, at D = 1 and D = 3.

use dbp_core::algorithms::indexed::{
    GIndexedBestFit, GIndexedFirstFit, GIndexedMff, IndexedBestFit, IndexedFirstFit,
};
use dbp_core::algorithms::{BestFit, DominanceFit, FirstFit, ModifiedFirstFit, NextFit, RandomFit};
use dbp_core::demand::{Demand, VSize};
use dbp_core::instance::{GInstance, GInstanceBuilder};
use dbp_core::packer::GSelectorFactory;
use dbp_core::prelude::*;
use dbp_core::probe::{GProbeEvent, VerifyProbe};
use dbp_core::trace::GPackingTrace;
use dbp_obs::journal::{parse_journal, FsyncPolicy, JournalProbe};
use dbp_obs::prelude::*;
use dbp_obs::GEventLog;
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

/// Every selector that packs vector demands.
fn vector_selectors() -> [GSelectorFactory<VSize<3>>; 7] {
    [
        GSelectorFactory::new("FF", || Box::new(FirstFit::new())),
        GSelectorFactory::new("BF", || Box::new(BestFit::new())),
        GSelectorFactory::new("MFF", || Box::new(ModifiedFirstFit::new(4))),
        GSelectorFactory::new("DOM", || Box::new(DominanceFit::new())),
        GSelectorFactory::new("IFF", || Box::new(GIndexedFirstFit::new())),
        GSelectorFactory::new("IBF", || Box::new(GIndexedBestFit::new())),
        GSelectorFactory::new("IMFF", || Box::new(GIndexedMff::new(4))),
    ]
}

fn build_instance(raw: &[(u64, u64, u64)]) -> Instance {
    let mut b = InstanceBuilder::new(10);
    for &(a, len, size) in raw {
        b.add(a, a + len, size);
    }
    b.build().unwrap()
}

fn build_vector_instance(raw: &[(u64, u64, (u64, u64, u64))]) -> GInstance<VSize<3>> {
    let mut b = GInstanceBuilder::new(VSize([10, 10, 10]));
    for &(a, len, (g, c, m)) in raw {
        b.add(a, a + len, VSize([g, c, m]));
    }
    b.build().unwrap()
}

/// Re-execute `inst` under `factory`, verified against the whole
/// `journal`; returns the trace and the forwarded continuation.
fn resume<Sz: Demand>(
    inst: &GInstance<Sz>,
    factory: &GSelectorFactory<Sz>,
    journal: &[GProbeEvent<Sz>],
) -> Result<(GPackingTrace<Sz>, Vec<GProbeEvent<Sz>>), String> {
    let mut sel = factory.build();
    let mut log = GEventLog::new();
    let mut verify = VerifyProbe::new(journal, &mut log);
    let trace = simulate_probed(inst, &mut *sel, &mut verify);
    let (verified, appended) = verify.finish()?;
    assert_eq!(verified, journal.len());
    assert_eq!(appended as usize, log.len());
    Ok((trace, log.into_events()))
}

/// Recovering from the event stream cut at *every* prefix yields an
/// identical final trace, cost, and JSONL stream (journal + continuation,
/// byte-wise).
fn resume_at_every_cut<Sz: Demand>(
    inst: &GInstance<Sz>,
    factory: &GSelectorFactory<Sz>,
) -> Result<(), TestCaseError> {
    let mut sel = factory.build();
    let mut log = GEventLog::new();
    let full_trace = simulate_probed(inst, &mut *sel, &mut log);
    let events = log.into_events();
    let full_jsonl = events_to_jsonl(&events);
    for cut in 0..=events.len() {
        let (trace, tail) = resume(inst, factory, &events[..cut]).map_err(|e| {
            TestCaseError::Fail(format!("{} cut {cut}: resume: {e}", factory.name()))
        })?;
        prop_assert_eq!(
            &trace,
            &full_trace,
            "{} trace diverged at {}",
            factory.name(),
            cut
        );
        prop_assert_eq!(trace.total_cost_ticks(), full_trace.total_cost_ticks());
        let mut combined = events_to_jsonl(&events[..cut]);
        combined.push_str(&events_to_jsonl(&tail));
        prop_assert_eq!(
            combined.as_bytes(),
            full_jsonl.as_bytes(),
            "{} JSONL stream diverged at {}",
            factory.name(),
            cut
        );
    }
    Ok(())
}

/// The same property through the on-disk WAL: truncate the journal *file*
/// at byte offsets `0, stride, 2·stride, …` (simulating SIGKILL
/// mid-append), read it torn-tolerantly, resume against every decoded
/// event, and demand byte-identical JSONL.
fn resume_at_every_byte_cut<Sz: Demand>(
    inst: &GInstance<Sz>,
    stride: usize,
    tag: &str,
) -> Result<(), TestCaseError> {
    let factory = GSelectorFactory::<Sz>::new("FF", || Box::new(FirstFit::new()));
    let dir = std::env::temp_dir().join("dbp_obs_journal_resume");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join(format!("cut-{tag}-{}.wal", std::process::id()));
    let mut probe = JournalProbe::create_dims(&path, FsyncPolicy::Never, Sz::DIMS).unwrap();
    let full_trace = simulate_probed(inst, &mut FirstFit::new(), &mut probe);
    probe.finish().unwrap();
    let bytes = std::fs::read(&path).unwrap();
    let _ = std::fs::remove_file(&path);
    let mut log = GEventLog::new();
    simulate_probed(inst, &mut FirstFit::new(), &mut log);
    let full_jsonl = events_to_jsonl(log.events());
    for cut in (0..=bytes.len()).step_by(stride) {
        // Torn tails must decode (never error, never panic)...
        let contents = parse_journal::<Sz>(&bytes[..cut])
            .map_err(|e| TestCaseError::Fail(format!("byte cut {cut}: {e}")))?;
        // ...and every decoded event is verified by the resumed run.
        let (trace, tail) = resume(inst, &factory, &contents.events)
            .map_err(|e| TestCaseError::Fail(format!("byte cut {cut}: resume: {e}")))?;
        prop_assert_eq!(&trace, &full_trace);
        let mut combined = events_to_jsonl(&contents.events);
        combined.push_str(&events_to_jsonl(&tail));
        prop_assert_eq!(combined, full_jsonl.clone(), "byte cut at {}", cut);
    }
    Ok(())
}

proptest! {
    #[test]
    fn resume_at_every_event_prefix_is_jsonl_byte_identical(
        raw in proptest::collection::vec((0u64..40, 1u64..25, 1u64..10), 1..10),
        seed in 0u64..1_000,
    ) {
        let inst = build_instance(&raw);
        for factory in &selectors(seed) {
            resume_at_every_cut(&inst, factory)?;
        }
    }

    #[test]
    fn vector_resume_at_every_event_prefix_is_jsonl_byte_identical(
        raw in proptest::collection::vec((0u64..40, 1u64..25, (0u64..10, 0u64..10, 1u64..10)), 1..10),
    ) {
        let inst = build_vector_instance(&raw);
        for factory in &vector_selectors() {
            resume_at_every_cut(&inst, factory)?;
        }
    }

    #[test]
    fn journal_file_cut_at_any_byte_recovers_exactly(
        raw in proptest::collection::vec((0u64..40, 1u64..25, 1u64..10), 1..8),
        stride in 1usize..23,
    ) {
        resume_at_every_byte_cut(&build_instance(&raw), stride, "d1")?;
    }

    #[test]
    fn vector_journal_file_cut_at_any_byte_recovers_exactly(
        raw in proptest::collection::vec((0u64..40, 1u64..25, (0u64..10, 0u64..10, 1u64..10)), 1..8),
        stride in 1usize..23,
    ) {
        resume_at_every_byte_cut(&build_vector_instance(&raw), stride, "d3")?;
    }
}
