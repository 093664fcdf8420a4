//! Cooperative-cancellation test, in its own binary on purpose: the
//! cancel latch is process-global, so raising it here must not be able
//! to poison unrelated cluster tests running in another test binary.
//!
//! Pins the satellite contract of the streaming-core PR: a raised latch
//! makes `run_probed` surface [`ClusterError::Interrupted`] instead of a
//! fabricated report, the journal probes still seal a readable prefix
//! (the `JournalWriter` drop-path fsync), and lowering the latch restores
//! normal runs byte-for-byte.

use dbp_cloudsim::{GamingSystem, Granularity, ServerType};
use dbp_cluster::{ClusterConfig, ClusterEngine, ClusterError, Router};
use dbp_core::algorithms::FirstFit;
use dbp_core::instance::{Instance, InstanceBuilder};
use dbp_core::packer::SelectorFactory;
use dbp_core::probe::NoProbe;
use dbp_obs::journal::{read_journal, FsyncPolicy, JournalProbe};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};

static LATCH: AtomicBool = AtomicBool::new(false);

fn system() -> GamingSystem {
    GamingSystem {
        server: ServerType {
            gpu_capacity: 100,
            ..ServerType::default_gpu_vm()
        },
        granularity: Granularity::PerTick,
    }
}

fn churny_instance(n: u64) -> Instance {
    let mut b = InstanceBuilder::new(100);
    for i in 0..n {
        b.add(i, i + 7 + (i % 13), 1 + (i * 37) % 60);
    }
    b.build().expect("valid instance")
}

fn temp_journal(tag: &str) -> PathBuf {
    let mut p = std::env::temp_dir();
    p.push(format!("dbp-interrupt-{tag}-{}", std::process::id()));
    p
}

#[test]
fn raised_latch_interrupts_and_seals_journal_prefixes() {
    dbp_cluster::cancel::set_flag(&LATCH);
    let engine = ClusterEngine::new(system(), ClusterConfig::new(2, Router::HashByItem).unwrap());
    let factory = SelectorFactory::new("FF", || Box::new(FirstFit::new()));
    let inst = churny_instance(400);
    let paths: Vec<PathBuf> = (0..2).map(|s| temp_journal(&format!("s{s}"))).collect();

    // Latch already raised before the run starts: every shard stops at its
    // first poll and the run reports Interrupted — never a zeroed report.
    LATCH.store(true, Ordering::SeqCst);
    let journal_paths = paths.clone();
    let err = engine
        .run_probed(&inst, &factory, |s| {
            JournalProbe::create(&journal_paths[s], FsyncPolicy::Never).expect("journal opens")
        })
        .expect_err("a raised latch must interrupt the run");
    assert!(
        matches!(err, ClusterError::Interrupted),
        "unexpected error: {err}"
    );
    assert!(err.to_string().contains("interrupted"), "{err}");

    // The probes were dropped on the error path without `finish`; the
    // writer's drop-path fsync still leaves a readable (possibly empty)
    // journal prefix — exactly what `dbp recover` needs after ^C.
    for p in &paths {
        let contents = read_journal(p).expect("interrupted journal stays readable");
        assert!(contents.torn.is_none(), "drop-path seal must not tear");
        std::fs::remove_file(p).ok();
    }

    // Lowering the latch restores normal service, same engine, same input.
    LATCH.store(false, Ordering::SeqCst);
    let run = engine
        .run_probed(&inst, &factory, |_| NoProbe)
        .expect("run completes")
        .0;
    assert_eq!(run.report.sessions_served, inst.len());
}
