//! Chaos suite for the self-healing cluster: shards are killed mid-run at
//! every phase of their stream, and the engine must contain each death,
//! resurrect from the journal where the budget allows, reroute only future
//! arrivals where it does not, and keep the extended SLA ledger conserved
//! — all without ever aborting the process.

use dbp_cloudsim::{FaultPlan, GamingSystem, RetryPolicy};
use dbp_cluster::{
    ClusterConfig, ClusterEngine, ClusterError, KillPoint, RestartPolicy, Router, ShardFaultPlan,
    ShardHealth, ShardKill,
};
use dbp_core::algorithms::FirstFit;
use dbp_core::bin::OpenBinView;
use dbp_core::demand::Demand;
use dbp_core::engine::{simulate, simulate_probed, EngineRun};
use dbp_core::instance::Instance;
use dbp_core::item::{ArrivingItem, Size};
use dbp_core::packer::{BinSelector, Decision, SelectorFactory};
use dbp_core::probe::{NoProbe, ProbeEvent};
use dbp_core::span::NoSpans;
use dbp_obs::export::events_to_jsonl;
use dbp_obs::prelude::instance_digest;
use dbp_obs::EventLog;
use dbp_workloads::{generate, CloudGamingConfig};
use proptest::prelude::*;

fn workload(seed: u64) -> Instance {
    generate(&CloudGamingConfig {
        horizon: 900,
        seed,
        ..CloudGamingConfig::default()
    })
}

fn ff_factory() -> SelectorFactory {
    SelectorFactory::new("FF", || Box::new(FirstFit::new()))
}

fn temp_journal(tag: &str) -> std::path::PathBuf {
    let mut p = std::env::temp_dir();
    p.push(format!("dbp-chaos-{tag}-{}", std::process::id()));
    p
}

fn engine(shards: usize, router: Router) -> ClusterEngine {
    ClusterEngine::new(
        GamingSystem::paper_model(),
        ClusterConfig::new(shards, router).unwrap(),
    )
}

/// Number of engine events the unkilled run of shard `s` emits, so kill
/// offsets can be aimed at exact phases of the stream.
fn shard_event_counts(eng: &ClusterEngine, inst: &Instance, factory: &SelectorFactory) -> Vec<u64> {
    let (run, probes) = eng.run_probed(inst, factory, |_| EventLog::new()).unwrap();
    let _ = run;
    probes.into_iter().map(|log| log.len() as u64).collect()
}

/// Tentpole acceptance: a 4-shard run with a kill landing early, mid, and
/// late in a shard's stream (one shard left untouched) completes without
/// aborting, heals every kill inside the default budget, and conserves
/// the extended ledger.
#[test]
fn shard_death_at_every_phase_is_healed_and_conserved() {
    let inst = workload(11);
    let eng = engine(4, Router::HashByItem);
    let factory = ff_factory();
    let counts = shard_event_counts(&eng, &inst, &factory);
    assert!(
        counts.iter().all(|&c| c > 4),
        "fixture too small: {counts:?}"
    );

    let plan = ShardFaultPlan {
        seed: 0,
        kills: vec![
            ShardKill {
                shard: 0,
                at: KillPoint::Event(1), // earliest possible: one event in
            },
            ShardKill {
                shard: 1,
                at: KillPoint::Event(counts[1] / 2), // mid-stream
            },
            ShardKill {
                shard: 2,
                at: KillPoint::Event(counts[2] - 1), // one event before done
            },
        ],
        restart: RestartPolicy::default(),
    };
    let healed = eng
        .run_self_healing(&inst, &factory, &plan, &mut NoProbe, |_, _| NoSpans)
        .unwrap()
        .0;
    let r = &healed.report;
    assert!(r.ledger.conserved(), "extended ledger must conserve: {r:?}");
    assert_eq!(r.ledger.total, inst.len() as u64);
    assert_eq!(r.ledger.served, inst.len() as u64);
    assert_eq!(
        (r.ledger.lost, r.ledger.dropped, r.ledger.rerouted),
        (0, 0, 0)
    );
    assert_eq!(r.shard_kills, 3);
    assert_eq!(r.shard_restarts, 3);
    assert!(r.shard_replayed_events > 0);
    assert_eq!(r.shards_lost, 0);
    for h in &healed.shards {
        assert!(h.ledger.conserved(), "shard {} ledger: {h:?}", h.shard);
        assert_eq!(h.health, ShardHealth::Up);
    }
    assert_eq!(healed.manifest.shard_restarts, Some(3));
    assert_eq!(healed.manifest.ledger_conserved, Some(true));
}

/// The resurrection invariant at cluster scope: when every kill heals,
/// the delivered event stream minus the fault markers is byte-identical
/// to the zero-fault run's stream, and the bills match exactly.
#[test]
fn healed_run_stream_is_byte_identical_to_the_unkilled_run() {
    let inst = workload(12);
    let eng = engine(4, Router::LeastLoaded);
    let factory = ff_factory();
    let counts = shard_event_counts(&eng, &inst, &factory);
    assert!(
        counts.iter().all(|&c| c > 2),
        "fixture too small: {counts:?}"
    );

    let mut clean_log = EventLog::new();
    let clean = eng
        .run_self_healing(
            &inst,
            &factory,
            &ShardFaultPlan::none(),
            &mut clean_log,
            |_, _| NoSpans,
        )
        .unwrap()
        .0;

    let plan = ShardFaultPlan {
        seed: 0,
        kills: (0..4)
            .map(|s| ShardKill {
                shard: s,
                at: KillPoint::Event((counts[s as usize] / 2).max(1)),
            })
            .collect(),
        restart: RestartPolicy::default(),
    };
    let mut killed_log = EventLog::new();
    let killed = eng
        .run_self_healing(&inst, &factory, &plan, &mut killed_log, |_, _| NoSpans)
        .unwrap()
        .0;

    let survivors: Vec<&ProbeEvent> = killed_log
        .events()
        .iter()
        .filter(|e| !e.is_fault_event())
        .collect();
    let originals: Vec<&ProbeEvent> = clean_log.events().iter().collect();
    assert_eq!(
        survivors, originals,
        "resurrected stream must be byte-identical"
    );
    assert_eq!(killed.report.ledger.served, clean.report.ledger.served);
    assert_eq!(killed.report.bill.busy_ticks, clean.report.bill.busy_ticks);
    assert_eq!(killed.report.bill.cost_cents, clean.report.bill.cost_cents);
    assert_eq!(killed.report.shard_restarts, 4);
    assert!(killed
        .shards
        .iter()
        .all(|h| h.health == ShardHealth::Up && h.restarts == 1));
}

/// A kill that cuts an arrival in half — after its `ItemArrived` is
/// journaled, before its `ItemPlaced` — heals from the whole WAL: the
/// resurrection verifies all `k` journaled events, half an operation
/// included, and appends only the rest of the stream.
#[test]
fn a_kill_inside_an_arrival_heals_from_the_whole_wal() {
    let inst = workload(16);
    let eng = engine(2, Router::HashByItem);
    let factory = ff_factory();
    let (_, probes) = eng
        .run_probed(&inst, &factory, |_| EventLog::new())
        .unwrap();
    let stream = probes[1].events();
    // The WAL holds k events at death and its last one is an arrival
    // whose placement never made it.
    let k = (stream.len() / 2..stream.len())
        .find(|&i| matches!(stream[i], ProbeEvent::ItemArrived { .. }))
        .expect("fixture has a late arrival")
        + 1;
    assert!(matches!(stream[k], ProbeEvent::FitAttempt { .. }));

    let mut clean_log = EventLog::new();
    eng.run_self_healing(
        &inst,
        &factory,
        &ShardFaultPlan::none(),
        &mut clean_log,
        |_, _| NoSpans,
    )
    .unwrap();
    let plan = ShardFaultPlan {
        seed: 0,
        kills: vec![ShardKill {
            shard: 1,
            at: KillPoint::Event(k as u64),
        }],
        restart: RestartPolicy::default(),
    };
    let mut killed_log = EventLog::new();
    let healed = eng
        .run_self_healing(&inst, &factory, &plan, &mut killed_log, |_, _| NoSpans)
        .unwrap()
        .0;

    let survivors: Vec<&ProbeEvent> = killed_log
        .events()
        .iter()
        .filter(|e| !e.is_fault_event())
        .collect();
    let originals: Vec<&ProbeEvent> = clean_log.events().iter().collect();
    assert_eq!(survivors, originals, "healed stream must be byte-identical");
    assert_eq!(healed.report.shard_restarts, 1);
    assert_eq!(healed.shards[1].replayed_events, k as u64);
    assert_eq!(healed.report.shard_replayed_events, k as u64);
    let replayed: Vec<u64> = killed_log
        .events()
        .iter()
        .filter_map(|e| match e {
            ProbeEvent::ShardRestarted { replayed, .. } => Some(*replayed),
            _ => None,
        })
        .collect();
    assert_eq!(replayed, vec![k as u64]);
}

/// A shard whose kills exhaust the restart budget goes Down; sessions
/// that had not arrived yet are rerouted to the healthy shards, in-flight
/// ones are billed lost, and the ledger still conserves.
#[test]
fn budget_exhaustion_reroutes_future_arrivals_and_conserves() {
    let inst = workload(13);
    let eng = engine(4, Router::HashByItem);
    let factory = ff_factory();
    let plan = ShardFaultPlan {
        seed: 0,
        kills: (0..3)
            .map(|_| ShardKill {
                shard: 1,
                at: KillPoint::Event(2),
            })
            .collect(),
        restart: RestartPolicy {
            max_restarts: 2,
            backoff: RetryPolicy::default(),
        },
    };
    let mut log = EventLog::new();
    let healed = eng
        .run_self_healing(&inst, &factory, &plan, &mut log, |_, _| NoSpans)
        .unwrap()
        .0;
    let r = &healed.report;
    assert!(r.ledger.conserved(), "{r:?}");
    assert_eq!(r.shards_lost, 1);
    assert_eq!(r.shard_kills, 3);
    assert_eq!(r.shard_restarts, 2);
    assert!(r.ledger.rerouted > 0, "future arrivals must move: {r:?}");
    let dead = &healed.shards[1];
    assert_eq!(dead.health, ShardHealth::Down);
    assert!(dead.down_reason.is_some());
    assert!(dead.ledger.conserved());
    let hosted: u64 = healed.shards.iter().map(|h| h.sessions_rerouted_in).sum();
    assert_eq!(hosted, r.ledger.rerouted);
    assert!(log
        .events()
        .iter()
        .any(|e| matches!(e, ProbeEvent::ShardAbandoned { shard: 1, .. })));
}

/// With no healthy peer left, displaced sessions cannot move: every shard
/// dies, the remainder is dropped, and the ledger still conserves.
#[test]
fn total_cluster_death_drops_the_remainder_conserved() {
    let inst = workload(14);
    let eng = engine(2, Router::HashByItem);
    let factory = ff_factory();
    let plan = ShardFaultPlan {
        seed: 0,
        kills: (0..2)
            .flat_map(|s| {
                std::iter::repeat_n(
                    ShardKill {
                        shard: s,
                        at: KillPoint::Event(2),
                    },
                    2,
                )
            })
            .collect(),
        restart: RestartPolicy {
            max_restarts: 1,
            backoff: RetryPolicy::default(),
        },
    };
    let healed = eng
        .run_self_healing(&inst, &factory, &plan, &mut NoProbe, |_, _| NoSpans)
        .unwrap()
        .0;
    let r = &healed.report;
    assert!(r.ledger.conserved(), "{r:?}");
    assert_eq!(r.shards_lost, 2);
    assert_eq!(r.ledger.rerouted, 0, "no healthy host remains");
    assert!(r.ledger.dropped > 0);
    assert!(healed
        .shards
        .iter()
        .all(|h| h.health == ShardHealth::Down && h.ledger.conserved()));
    assert_eq!(healed.manifest.ledger_conserved, Some(true));
}

/// Tick-scheduled kills land between events; the triggering event dies
/// with the shard and must be re-emitted by the resurrection.
#[test]
fn tick_kills_are_healed_too() {
    let inst = workload(15);
    let eng = engine(2, Router::HashByItem);
    let factory = ff_factory();
    let plan = ShardFaultPlan {
        seed: 0,
        kills: vec![
            ShardKill {
                shard: 0,
                at: KillPoint::Tick(40),
            },
            ShardKill {
                shard: 1,
                at: KillPoint::Tick(200),
            },
        ],
        restart: RestartPolicy::default(),
    };
    let clean = eng
        .run_self_healing(
            &inst,
            &factory,
            &ShardFaultPlan::none(),
            &mut NoProbe,
            |_, _| NoSpans,
        )
        .unwrap()
        .0;
    let healed = eng
        .run_self_healing(&inst, &factory, &plan, &mut NoProbe, |_, _| NoSpans)
        .unwrap()
        .0;
    assert!(healed.report.ledger.conserved());
    assert_eq!(healed.report.shard_kills, 2);
    assert_eq!(healed.report.shard_restarts, 2);
    assert_eq!(healed.report.ledger.served, clean.report.ledger.served);
    assert_eq!(healed.report.bill.busy_ticks, clean.report.bill.busy_ticks);
}

/// Restart backoff saturates: two kills on one shard under a
/// `u64::MAX` base and cap charge `u64::MAX` ticks, not an overflow.
#[test]
fn restart_backoff_saturates_instead_of_overflowing() {
    let inst = workload(15);
    let eng = engine(2, Router::HashByItem);
    let kill = |k| ShardKill {
        shard: 0,
        at: KillPoint::Event(k),
    };
    let plan = ShardFaultPlan {
        seed: 0,
        kills: vec![kill(10), kill(30)],
        restart: RestartPolicy {
            max_restarts: 3,
            backoff: RetryPolicy {
                base: u64::MAX,
                cap: u64::MAX,
                ..RetryPolicy::default()
            },
        },
    };
    let (healed, _) = eng
        .run_self_healing(&inst, &ff_factory(), &plan, &mut NoProbe, |_, _| NoSpans)
        .unwrap();
    assert!(healed.report.ledger.conserved());
    assert_eq!(healed.shards[0].restarts, 2);
    assert_eq!(healed.shards[0].backoff_ticks, u64::MAX);
}

/// First Fit that panics on its `k`-th `select`: an organic fault (a
/// selector bug, not an injected kill) that recurs at the same point on
/// every re-execution.
struct PanicsAt {
    inner: FirstFit,
    left: u32,
}

impl BinSelector for PanicsAt {
    fn name(&self) -> &'static str {
        "FF"
    }

    fn select(&mut self, bins: &[OpenBinView], item: &ArrivingItem, capacity: Size) -> Decision {
        self.left -= 1;
        if self.left == 0 {
            panic!("selector bug");
        }
        self.inner.select(bins, item, capacity)
    }
}

/// An organic panic is not retried: verified re-execution would only
/// reach it again, so the shard goes Down at once with the panic as its
/// reason, the restart budget untouched, and the ledger conserved.
#[test]
fn organic_panics_end_supervision_without_restarts() {
    let inst = workload(16);
    let eng = engine(2, Router::HashByItem);
    let factory = SelectorFactory::new("FF", || {
        Box::new(PanicsAt {
            inner: FirstFit::new(),
            left: 5,
        })
    });
    let plan = ShardFaultPlan {
        seed: 0,
        kills: Vec::new(),
        restart: RestartPolicy {
            max_restarts: 3,
            backoff: RetryPolicy::default(),
        },
    };
    let mut log = EventLog::new();
    let (healed, _) = eng
        .run_self_healing(&inst, &factory, &plan, &mut log, |_, _| NoSpans)
        .unwrap();
    let r = &healed.report;
    assert!(r.ledger.conserved(), "{r:?}");
    assert_eq!(r.shard_restarts, 0, "{r:?}");
    assert_eq!(r.shards_lost, 2, "{r:?}");
    for h in &healed.shards {
        assert_eq!(h.restarts, 0, "shard {}", h.shard);
        assert_eq!(h.health, ShardHealth::Down, "shard {}", h.shard);
        let reason = h.down_reason.as_deref().unwrap_or_default();
        assert!(
            reason.contains("panic: selector bug"),
            "shard {}: {reason}",
            h.shard
        );
        assert!(h.ledger.conserved(), "shard {}", h.shard);
    }
    let killed = log
        .events()
        .iter()
        .filter(|e| matches!(e, ProbeEvent::ShardKilled { .. }))
        .count();
    assert_eq!(killed, 2, "each shard's death keeps its ShardKilled marker");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Satellite: seeded shard-kill schedules conserve the extended
    /// ledger for every router and 2/4/8 shards, whatever the kills hit.
    #[test]
    fn seeded_shard_kills_conserve_the_extended_ledger(
        seed in 0u64..500,
        shards_ix in 0usize..3,
    ) {
        let shards = [2usize, 4, 8][shards_ix];
        let inst = workload(seed % 7);
        let factory = ff_factory();
        for router in Router::ALL {
            let eng = engine(shards, router);
            let plan = ShardFaultPlan::from_seed(seed, shards, 40);
            let (healed, _) = eng
                .run_self_healing(&inst, &factory, &plan, &mut NoProbe, |_, _| NoSpans)
                .unwrap();
            prop_assert!(healed.report.ledger.conserved(), "{}: {:?}", router.name(), healed.report);
            prop_assert_eq!(healed.report.ledger.total, inst.len() as u64);
            for h in &healed.shards {
                prop_assert!(h.ledger.conserved(), "{} shard {}", router.name(), h.shard);
            }
            let rerouted_in: u64 = healed.shards.iter().map(|h| h.sessions_rerouted_in).sum();
            prop_assert_eq!(rerouted_in, healed.report.ledger.rerouted);
            prop_assert_eq!(
                healed.manifest.ledger_conserved, Some(true)
            );
        }
    }

    /// Satellite (vector demands): killing one shard of a 3-dimensional
    /// cluster mid-stream leaves a clean format-v2 journal whose events
    /// are a byte-identical prefix of the unkilled shard's stream, and a
    /// deterministic resurrection (re-run of the same sub-stream)
    /// converges to the identical final trace with the per-dimension
    /// ledger conserved — for every router.
    #[test]
    fn vector_shard_kill_heals_byte_identically(
        seed in 0u64..200,
        shards_ix in 0usize..2,
        kill_frac in 1u32..100,
    ) {
        use dbp_core::demand::VSize;
        use dbp_core::algorithms::selector_for;
        use dbp_obs::journal::{read_journal_dims, FsyncPolicy, JournalProbe};

        let shards = [2usize, 4][shards_ix];
        let vinst = dbp_workloads::widen(&workload(seed % 7));
        for router in Router::ALL {
            let assignment = router.assign(&vinst, shards);
            let victim = (seed as usize) % shards;
            let (sub, _back) = vinst.restrict(|it| assignment[it.id.index()] == victim);
            if sub.len() < 2 {
                continue; // nothing to kill mid-stream
            }
            let tag = format!("vchaos-{seed}-{shards}-{}", router.name());
            let full_path = temp_journal(&format!("{tag}-full"));
            let killed_path = temp_journal(&format!("{tag}-killed"));
            let ff = || selector_for::<VSize<3>>("FF").unwrap();

            // The unkilled run, journaled.
            let mut probe = JournalProbe::create_dims(&full_path, FsyncPolicy::Never, 3)
                .expect("journal opens");
            let full_trace = simulate_probed(&sub, &mut *ff(), &mut probe);
            probe.finish().expect("journal seals");

            // The killed run: stop after a prefix of the schedule and drop
            // the run — the shard dies with its journal mid-stream.
            let mut probe = JournalProbe::create_dims(&killed_path, FsyncPolicy::Never, 3)
                .expect("journal opens");
            let mut sel = ff();
            let mut run = EngineRun::new(&sub, &mut *sel, &mut probe);
            let kill_after = ((run.events_total() as u32 * kill_frac / 100).max(1) as usize)
                .min(run.events_total() - 1);
            for _ in 0..kill_after {
                run.step();
            }
            drop(run);
            drop(probe); // kill: no finish(), no drain — drop-path seal only

            let full = read_journal_dims::<VSize<3>>(&full_path).expect("full journal readable");
            let killed =
                read_journal_dims::<VSize<3>>(&killed_path).expect("killed journal readable");
            prop_assert!(full.torn.is_none());
            prop_assert!(killed.torn.is_none(), "{}: drop-path seal tore", router.name());
            prop_assert!(!killed.events.is_empty());
            prop_assert_eq!(
                dbp_obs::export::events_to_jsonl(&killed.events),
                dbp_obs::export::events_to_jsonl(&full.events[..killed.events.len()]),
                "{}: killed journal is not a byte prefix of the clean stream", router.name()
            );

            // Resurrection: the engine is deterministic, so a replayed
            // shard converges to the identical final trace …
            let healed_trace = simulate(&sub, &mut *ff());
            prop_assert_eq!(
                serde_json::to_string(&healed_trace).unwrap(),
                serde_json::to_string(&full_trace).unwrap(),
                "{}: resurrected trace diverged", router.name()
            );

            // … and the journal's per-dimension ledger balances exactly:
            // everything placed departs, with demand-ticks matching the
            // sub-instance dimension by dimension.
            let audit = dbp_obs::replay_events_dims(&full.events).expect("audit passes");
            prop_assert_eq!(audit.placements, sub.len() as u64);
            prop_assert_eq!(audit.departures, sub.len() as u64);
            let (dim_ticks, resident) = dbp_obs::per_dim_demand_ticks(&full.events);
            prop_assert_eq!(resident, 0);
            for (d, &got) in dim_ticks.iter().enumerate() {
                let expected: u128 = sub
                    .items()
                    .iter()
                    .map(|it| {
                        it.size.component(d) as u128
                            * (it.departure.raw() - it.arrival.raw()) as u128
                    })
                    .sum();
                prop_assert_eq!(
                    got, expected,
                    "{}: dim {} demand-ticks diverged", router.name(), d
                );
            }

            std::fs::remove_file(&full_path).ok();
            std::fs::remove_file(&killed_path).ok();
        }
    }

    /// Satellite: a zero-kill `ShardFaultPlan` is exactly transparent —
    /// byte-identical report, JSONL stream, and manifest digest against
    /// `run_resilient` with empty per-shard fault plans, for every router.
    #[test]
    fn zero_fault_plans_are_exactly_transparent(
        seed in 0u64..200,
        shards_ix in 0usize..2,
    ) {
        let shards = [2usize, 4][shards_ix];
        let inst = workload(seed % 5);
        let factory = ff_factory();
        for router in Router::ALL {
            let eng = engine(shards, router);

            let mut healed_log = EventLog::new();
            let none = ShardFaultPlan::none();
            let (healed, _) = eng
                .run_self_healing(&inst, &factory, &none, &mut healed_log, |_, _| NoSpans)
                .unwrap();

            let plans = vec![FaultPlan::none(); shards];
            let mut resilient_logs: Vec<EventLog> = Vec::new();
            let (resilient, probes) = eng
                .run_resilient(&inst, &factory, &plans, |_| EventLog::new())
                .unwrap();
            resilient_logs.extend(probes);

            prop_assert_eq!(&healed.report, &resilient.report, "{}", router.name());
            prop_assert_eq!(&healed.assignment, &resilient.assignment);
            let merged: Vec<ProbeEvent> = resilient_logs
                .iter()
                .flat_map(|l| l.events().iter().cloned())
                .collect();
            prop_assert_eq!(
                events_to_jsonl(healed_log.events()),
                events_to_jsonl(&merged),
                "{}", router.name()
            );
            prop_assert_eq!(
                &healed.manifest.instance_digest,
                &instance_digest(&inst)
            );
            prop_assert_eq!(healed.manifest.shard_restarts, Some(0));
        }
    }

    /// Hostile shard-fault plans — kills at event/tick 0 and `u64::MAX`,
    /// kills aimed past the cluster, and extreme restart budgets and
    /// backoffs — are either refused as `BadFaultPlan` or heal with every
    /// ledger conserved. The supervisor itself never dies
    /// (`ShardPanicked`).
    #[test]
    fn hostile_shard_fault_plans_never_panic_the_supervisor(
        kills in proptest::collection::vec((0usize..6, 0usize..2, 0usize..4), 0..6),
        max_restarts_ix in 0usize..3,
        base_ix in 0usize..3,
        cap_ix in 0usize..3,
        seed in 0u64..7,
    ) {
        const SHARDS: usize = 4;
        let shard_of = [0, 1, 2, 3, SHARDS as u32, u32::MAX];
        let points = [0, 1, 40, u64::MAX];
        let extremes = [0, 1, u64::MAX];
        let plan = ShardFaultPlan {
            seed: 0,
            kills: kills
                .iter()
                .map(|&(shard, kind, point)| ShardKill {
                    shard: shard_of[shard],
                    at: if kind == 0 {
                        KillPoint::Event(points[point])
                    } else {
                        KillPoint::Tick(points[point])
                    },
                })
                .collect(),
            restart: RestartPolicy {
                max_restarts: [0, 3, u32::MAX][max_restarts_ix],
                backoff: RetryPolicy {
                    base: extremes[base_ix],
                    cap: extremes[cap_ix],
                    ..RetryPolicy::default()
                },
            },
        };
        let out_of_range = plan.kills.iter().any(|k| k.shard as usize >= SHARDS);
        let inst = workload(seed);
        match engine(SHARDS, Router::HashByItem).run_self_healing(
            &inst,
            &ff_factory(),
            &plan,
            &mut NoProbe,
            |_, _| NoSpans,
        ) {
            Ok((healed, _)) => {
                prop_assert!(!out_of_range, "accepted {:?}", plan);
                prop_assert!(healed.report.ledger.conserved(), "{:?}", healed.report);
                for h in &healed.shards {
                    prop_assert!(h.ledger.conserved(), "shard {}", h.shard);
                }
            }
            Err(ClusterError::BadFaultPlan { .. }) => prop_assert!(out_of_range),
            Err(e) => prop_assert!(false, "{:?}: {}", plan, e),
        }
    }
}
