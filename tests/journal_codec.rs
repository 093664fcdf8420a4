//! The write-ahead journal at the root tier: a four-shard journaled
//! cluster run recovers from its WALs to exactly the bill it reported, and
//! the direct event codec writes the serde derive's bytes for every
//! selector at one and three dimensions.

use dbp::prelude::*;
use dbp_cloudsim::GamingSystem;
use dbp_cluster::{ClusterConfig, ClusterEngine, Router};
use dbp_core::algorithms::selector_for;
use dbp_core::demand::{Demand, VSize};
use dbp_core::engine::simulate_probed;
use dbp_core::instance::GInstance;
use dbp_core::packer::SelectorFactory;
use dbp_obs::codec::{decode_event, encode_event};
use dbp_obs::export::events_to_jsonl;
use dbp_obs::journal::{read_journal, FsyncPolicy, JournalProbe};
use dbp_obs::replay::replay_events;
use dbp_obs::{EventLog, GEventLog};
use dbp_workloads::{generate, lift_uniform, widen, ArrivalKind, CloudGamingConfig};
use std::path::PathBuf;

const SHARDS: usize = 4;

fn workload(seed: u64) -> Instance {
    generate(&CloudGamingConfig {
        horizon: 1800,
        seed,
        ..CloudGamingConfig::default()
    })
}

#[test]
fn journaled_cluster_replays_to_its_busy_ticks() {
    let dir = std::env::temp_dir().join(format!("dbp_journal_codec_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let engine = ClusterEngine::new(
        GamingSystem::paper_model(),
        ClusterConfig::new(SHARDS, Router::HashByItem).unwrap(),
    );
    let factory = SelectorFactory::new("FF", || Box::new(FirstFit::new()));
    for seed in [3, 11] {
        let inst = workload(seed);
        let paths: Vec<PathBuf> = (0..SHARDS)
            .map(|s| dir.join(format!("seed{seed}.wal.shard{s}")))
            .collect();
        let (run, probes) = engine
            .run_probed(&inst, &factory, |s| {
                JournalProbe::create(&paths[s], FsyncPolicy::Never).unwrap()
            })
            .unwrap();
        for probe in probes {
            probe.finish().unwrap();
        }
        // The same run into memory: what each WAL must decode to.
        let (_, logs) = engine
            .run_probed(&inst, &factory, |_| EventLog::new())
            .unwrap();

        let mut cost = 0u128;
        for (path, log) in paths.iter().zip(&logs) {
            let wal = read_journal(path).unwrap();
            assert!(wal.is_clean(), "seed {seed}: {}", path.display());
            assert_eq!(wal.events, log.events(), "seed {seed}: {}", path.display());
            let summary = replay_events(&wal.events).unwrap();
            assert!(summary.is_complete(), "seed {seed}: {}", path.display());
            cost += summary.cost_ticks;
        }
        assert!(cost > 0, "seed {seed}: the workload billed nothing");
        assert_eq!(cost, run.report.busy_ticks, "seed {seed}");
    }
    std::fs::remove_dir_all(&dir).unwrap();
}

/// Every event of one run: the codec's bytes equal `serde_json`'s, decode
/// back to the event, and the JSONL exporter writes the same lines.
fn assert_codec_matches_serde<Sz: Demand>(inst: &GInstance<Sz>, name: &str, seed: u64) {
    let mut sel = selector_for::<Sz>(name).unwrap();
    let mut log = GEventLog::<Sz>::new();
    simulate_probed(inst, &mut *sel, &mut log);
    let events = log.into_events();
    assert!(!events.is_empty());
    let mut serde_jsonl = String::new();
    let mut bytes = Vec::new();
    for event in &events {
        bytes.clear();
        encode_event(event, &mut bytes);
        let serde = serde_json::to_string(event).unwrap();
        assert_eq!(
            std::str::from_utf8(&bytes).unwrap(),
            serde,
            "{name} D={} seed {seed}",
            Sz::DIMS
        );
        assert_eq!(decode_event::<Sz>(&bytes).as_ref(), Ok(event));
        serde_jsonl.push_str(&serde);
        serde_jsonl.push('\n');
    }
    assert_eq!(events_to_jsonl(&events), serde_jsonl);
}

#[test]
fn encoder_writes_the_serde_bytes_for_every_selector_and_dimensionality() {
    for seed in 0..4 {
        let inst = workload(seed);
        let widened = widen(&inst);
        let lifted = lift_uniform::<1>(&inst);
        for name in ["FF", "BF", "MFF(8)"] {
            assert_codec_matches_serde(&inst, name, seed);
            assert_codec_matches_serde::<VSize<1>>(&lifted, name, seed);
            assert_codec_matches_serde::<VSize<3>>(&widened, name, seed);
        }
    }
}

/// 64-bit FNV-1a of `bytes`.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ b as u64).wrapping_mul(0x0100_0000_01b3)
    })
}

/// The WAL format is a contract, not an implementation detail: a fixed
/// journaled cluster run (seed 7, four shards, hash router, the indexed
/// engines `dbp cluster --journal` runs) must write exactly the bytes it
/// wrote when these digests were taken. Each digest covers every shard's
/// WAL in shard order; `(records, bytes)` name the scale of the run.
#[test]
fn journaled_cluster_wal_bytes_match_the_pinned_digests() {
    let dir = std::env::temp_dir().join(format!("dbp_wal_digest_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let engine = ClusterEngine::new(
        GamingSystem::paper_model(),
        ClusterConfig::new(SHARDS, Router::HashByItem).unwrap(),
    );
    let inst = generate(&CloudGamingConfig {
        horizon: 7200,
        arrivals: ArrivalKind::Poisson { rate: 0.5 },
        seed: 7,
        ..CloudGamingConfig::default()
    });
    let pinned: [(&str, u64, u64, u64); 3] = [
        ("FF-idx", 0xad5e_9e6a_4cd0_e5e6, 15_332, 1_018_951),
        ("BF-idx", 0xb5f0_305d_2449_e2fc, 15_322, 1_019_974),
        ("MFF-idx", 0xdde8_6c31_ccdd_518f, 15_348, 1_020_123),
    ];
    for (name, digest, records, bytes) in pinned {
        let factory = SelectorFactory::new(name, move || selector_for::<Size>(name).unwrap());
        let paths: Vec<PathBuf> = (0..SHARDS)
            .map(|s| dir.join(format!("{name}.wal.shard{s}")))
            .collect();
        let (_, probes) = engine
            .run_probed(&inst, &factory, |s| {
                JournalProbe::create(&paths[s], FsyncPolicy::Never).unwrap()
            })
            .unwrap();
        let written: u64 = probes.into_iter().map(|p| p.finish().unwrap()).sum();
        let mut wal = Vec::new();
        for path in &paths {
            wal.extend(std::fs::read(path).unwrap());
        }
        assert_eq!(
            (fnv1a(&wal), written, wal.len() as u64),
            (digest, records, bytes),
            "{name}: the WAL bytes moved"
        );
    }
    std::fs::remove_dir_all(&dir).unwrap();
}
