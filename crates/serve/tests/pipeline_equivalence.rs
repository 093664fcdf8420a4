//! Serve ≡ batch: the shard pipeline, fed an instance's schedule as
//! requests, journals exactly the bytes a batch run of that instance
//! journals.
//!
//! The pipeline numbers sessions in arrival order, so the instances here
//! give their items ids in arrival order; then the pipeline's internal ids
//! are the instance's item ids. With admission unbounded and the schedule's
//! ticks never decreasing, nothing is shed or clamped, and every event the
//! shared event core emits must match the batch driver's byte for byte.

use dbp_cloudsim::faults::AdmissionPolicy;
use dbp_core::algorithms::indexed::{IndexedBestFit, IndexedFirstFit, IndexedMff};
use dbp_core::algorithms::{BestFit, FirstFit, ModifiedFirstFit, RandomFit};
use dbp_core::engine::simulate_probed;
use dbp_core::events::{schedule, EventKind};
use dbp_core::instance::{Instance, InstanceBuilder};
use dbp_core::packer::SelectorFactory;
use dbp_obs::journal::{FsyncPolicy, JournalProbe};
use dbp_serve::{Outcome, Request, ServeProbe, ShardPipeline, MAX_DIMS};
use proptest::prelude::*;
use proptest::TestCaseError;
use std::path::PathBuf;

/// A fresh WAL path in the temp dir, unique within this test binary.
fn wal_path(tag: &str) -> PathBuf {
    static NEXT: std::sync::atomic::AtomicUsize = std::sync::atomic::AtomicUsize::new(0);
    let n = NEXT.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
    std::env::temp_dir().join(format!(
        "dbp-pipeline-eq-{}-{tag}-{n}.wal",
        std::process::id()
    ))
}

/// Read and delete the file at `path`.
fn take(path: &PathBuf) -> Vec<u8> {
    let bytes = std::fs::read(path).unwrap();
    std::fs::remove_file(path).unwrap();
    bytes
}

/// The journal a batch run of `inst` under `factory` writes.
fn batch_wal(inst: &Instance, factory: &SelectorFactory) -> Vec<u8> {
    let path = wal_path("batch");
    let mut probe = JournalProbe::create(&path, FsyncPolicy::Never).unwrap();
    simulate_probed(inst, &mut *factory.build(), &mut probe);
    probe.finish().unwrap();
    take(&path)
}

/// The journal a one-shard pipeline writes when fed `inst`'s schedule.
fn pipeline_wal(inst: &Instance, factory: &SelectorFactory) -> Result<Vec<u8>, TestCaseError> {
    let path = wal_path("serve");
    let mut pipe = ShardPipeline::with_probe(
        inst.capacity(),
        factory.build(),
        AdmissionPolicy::unbounded(),
        ServeProbe {
            journal: Some(JournalProbe::create(&path, FsyncPolicy::Never).unwrap()),
        },
    );
    for ev in schedule(inst) {
        let id = ev.item.0 as u64;
        let req = match ev.kind {
            EventKind::Arrival => {
                let mut demand = [0; MAX_DIMS];
                demand[0] = inst.item(ev.item).size.0;
                Request::Arrive {
                    id,
                    at: ev.at.0,
                    demand,
                }
            }
            EventKind::Departure => Request::Depart { id, at: ev.at.0 },
        };
        let outcome = pipe.handle(&req);
        prop_assert!(
            matches!(outcome, Outcome::Placed { .. } | Outcome::Departed),
            "{}: {req:?} got {outcome:?}",
            factory.name()
        );
    }
    let (ledger, in_flight, open_bins) = pipe.seal().unwrap();
    prop_assert!(ledger.conserved());
    prop_assert_eq!((in_flight, open_bins), (0, 0));
    Ok(take(&path))
}

proptest! {
    #[test]
    fn pipeline_journals_the_batch_wal(
        mut raw in proptest::collection::vec((0u64..40, 1u64..25, 1u64..10), 1..14),
        seed in 0u64..1_000,
    ) {
        // Ids in arrival order, as the pipeline numbers its sessions.
        raw.sort_by_key(|&(a, ..)| a);
        let mut b = InstanceBuilder::new(10);
        for &(a, len, size) in &raw {
            b.add(a, a + len, size);
        }
        let inst = b.build().unwrap();
        let selectors = [
            SelectorFactory::new("FF", || Box::new(FirstFit::new())),
            SelectorFactory::new("BF", || Box::new(BestFit::new())),
            SelectorFactory::new("MFF", || Box::new(ModifiedFirstFit::new(4))),
            SelectorFactory::new("IFF", || Box::new(IndexedFirstFit::new())),
            SelectorFactory::new("IBF", || Box::new(IndexedBestFit::new())),
            SelectorFactory::new("IMFF", || Box::new(IndexedMff::new(4))),
            SelectorFactory::new("RF", move || Box::new(RandomFit::seeded(seed))),
        ];
        for factory in &selectors {
            let served = pipeline_wal(&inst, factory)?;
            prop_assert!(
                served == batch_wal(&inst, factory),
                "{}: the pipeline's WAL diverged from the batch run's",
                factory.name()
            );
        }
    }
}
