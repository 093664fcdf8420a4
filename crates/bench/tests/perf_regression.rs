//! Wall-clock regression guards for the engine hot path, plus
//! deterministic equivalence sweeps for the indexed selector family.
//!
//! The wall-clock bounds are deliberately generous — they run in debug
//! builds on shared CI machines — but they are impossible to meet if the
//! per-arrival work regresses to scanning (or rebuilding views over) every
//! open bin: the pre-indexed engine spent minutes on these instances in
//! debug mode. The equivalence sweeps are this crate's (proptest-free)
//! counterpart to the root `indexed_equivalence` property suite: many
//! seeds × all indexed algorithms, byte-identical traces and JSONL
//! required.

use dbp_bench::churn_workload;
use dbp_cloudsim::{GamingSystem, Granularity, ServerType};
use dbp_cluster::{ClusterConfig, ClusterEngine, Router};
use dbp_core::algorithms::{
    BestFit, FirstFit, IndexedBestFit, IndexedFirstFit, IndexedMff, ModifiedFirstFit,
};
use dbp_core::engine::simulate;
use dbp_core::packer::{BinSelector, SelectorFactory};
use dbp_core::probe::NoProbe;
use std::time::{Duration, Instant};

/// 10^5 churn-heavy items (thousands of simultaneously open bins) must pack
/// in seconds, even unoptimized.
#[test]
fn churn_100k_packs_quickly() {
    let inst = churn_workload(100_000, 42);
    let bound = Duration::from_secs(60);

    let started = Instant::now();
    let ff = simulate(&inst, &mut IndexedFirstFit::new());
    let bf = simulate(&inst, &mut IndexedBestFit::new());
    let mff = simulate(&inst, &mut IndexedMff::new(8));
    let elapsed = started.elapsed();

    assert!(ff.bins_used() > 0 && bf.bins_used() > 0 && mff.bins_used() > 0);
    assert!(
        elapsed < bound,
        "churn-heavy 100k-item packing took {elapsed:?} (bound {bound:?}); \
         the arrival path has likely regressed to O(open bins) work"
    );
}

/// The cluster path must stay within a small constant factor of the bare
/// engine on the same stream: dispatch is partition + shard loop +
/// linear trace validation + fan-in, all O(n log n)-ish. The bound is
/// loose for debug builds, but a return of quadratic validation (the old
/// 7-second per-tick `validate` audit) blows straight through it.
#[test]
fn cluster_dispatch_stays_near_the_engine() {
    let inst = churn_workload(50_000, 42);

    let started = Instant::now();
    let trace = simulate(&inst, &mut IndexedFirstFit::new());
    let plain = started.elapsed();

    let system = GamingSystem {
        server: ServerType {
            gpu_capacity: inst.capacity().raw(),
            ..ServerType::default_gpu_vm()
        },
        granularity: Granularity::PerTick,
    };
    let factory = SelectorFactory::new("FF", || Box::new(IndexedFirstFit::new()));
    let mut cluster_walls = Vec::new();
    for shards in [1usize, 4] {
        let engine = ClusterEngine::new(
            system,
            ClusterConfig::new(shards, Router::HashByItem).unwrap(),
        );
        let started = Instant::now();
        let run = engine
            .run_probed(&inst, &factory, |_| NoProbe)
            .expect("workload and system share one capacity")
            .0;
        cluster_walls.push((shards, started.elapsed()));
        if shards == 1 {
            assert_eq!(
                run.report.busy_ticks,
                trace.total_cost_ticks(),
                "a 1-shard cluster must reproduce the plain bill exactly"
            );
        }
    }
    // Generous absolute cap (debug builds): the engine packs 50k in well
    // under a second; the pre-fix cluster path took >10s at this size.
    let bound = plain.max(Duration::from_millis(250)) * 40;
    for (shards, wall) in cluster_walls {
        assert!(
            wall < bound,
            "{shards}-shard cluster took {wall:?} vs plain {plain:?} (bound {bound:?}); \
             per-shard validation or dispatch overhead has regressed"
        );
    }
}

/// Bench report schema v4: run the real `engine_baseline` binary end to end
/// (tiny size) and validate the shape CI depends on — `schema_version` is 4,
/// every result row carries `dimensions` next to `selector_engine`, the D=3
/// vector row is present, and the overhead block is labeled the same way.
#[test]
fn engine_baseline_report_is_schema_v4_with_dimensions() {
    let out = std::env::temp_dir().join(format!("dbp-bench-schema-{}.json", std::process::id()));
    let status = std::process::Command::new(env!("CARGO_BIN_EXE_engine_baseline"))
        .args(["--tiny", "--out"])
        .arg(&out)
        .status()
        .expect("engine_baseline should launch");
    assert!(status.success(), "engine_baseline --tiny failed");

    let body = std::fs::read_to_string(&out).unwrap();
    std::fs::remove_file(&out).ok();
    let report: serde_json::Value = serde_json::from_str(&body).unwrap();

    let field = |v: &serde_json::Value, key: &str| -> serde_json::Value {
        v.get(key)
            .unwrap_or_else(|| panic!("report is missing `{key}`"))
            .clone()
    };
    assert_eq!(field(&report, "schema_version").as_u64(), Some(4));
    let results = field(&report, "results");
    let rows = results.as_seq().expect("results array");
    assert!(!rows.is_empty());
    let mut saw_vector = false;
    for row in rows {
        let dims = field(row, "dimensions")
            .as_u64()
            .expect("every row carries `dimensions`");
        assert!(dims >= 1);
        assert!(
            field(row, "engine").as_str().is_some(),
            "every row carries `engine`"
        );
        if dims == 3 {
            saw_vector = true;
        }
    }
    assert!(saw_vector, "the D=3 vector row is missing from the report");
    let overhead = field(&report, "overhead_vs_plain_engine");
    assert_eq!(field(&overhead, "dimensions").as_u64(), Some(1));
    assert!(field(&overhead, "selector_engine").as_str().is_some());
}

/// Byte-identical equivalence of the indexed family against the naive
/// selectors, across many seeds on the bench workload itself: same trace
/// struct, same serialized JSONL bytes.
#[test]
fn indexed_family_is_byte_identical_across_seeds() {
    type Pair = (
        &'static str,
        fn() -> Box<dyn BinSelector>,
        fn() -> Box<dyn BinSelector>,
    );
    let pairs: &[Pair] = &[
        (
            "FF",
            || Box::new(FirstFit::new()),
            || Box::new(IndexedFirstFit::new()),
        ),
        (
            "BF",
            || Box::new(BestFit::new()),
            || Box::new(IndexedBestFit::new()),
        ),
        (
            "MFF",
            || Box::new(ModifiedFirstFit::new(8)),
            || Box::new(IndexedMff::new(8)),
        ),
    ];
    for seed in [0u64, 1, 7, 42, 1337, 0xDEAD_BEEF] {
        let inst = churn_workload(3_000, seed);
        for &(name, naive, indexed) in pairs {
            let a = simulate(&inst, &mut *naive());
            let b = simulate(&inst, &mut *indexed());
            assert_eq!(a, b, "{name} diverged on seed {seed}");
            let ja = serde_json::to_string(&a).unwrap();
            let jb = serde_json::to_string(&b).unwrap();
            assert_eq!(ja, jb, "{name} JSONL diverged on seed {seed}");
        }
    }
}
