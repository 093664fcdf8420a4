//! Property-based invariants of the fault-injection layer: the SLA ledger
//! conserves sessions, crashed servers never serve again, fault schedules
//! are deterministic functions of their seed, a fault-free plan is
//! observationally identical to the plain engine, and a hand-written plan
//! with extreme fields either runs conserved or is refused — never a
//! panic, at D = 1 and at D = 3.

use dbp::prelude::*;
use dbp_cloudsim::{
    AdmissionPolicy, CrashEvent, DispatchError, FaultConfig, FaultPlan, GamingSystem, Granularity,
    ResilientSystem, RetryPolicy, ServerType,
};
use dbp_core::algorithms::{BestFit, FirstFit, ModifiedFirstFit, NextFit};
use dbp_core::bin::BinId;
use dbp_core::demand::VSize;
use dbp_core::engine::simulate_probed;
use dbp_core::instance::{GInstance, GInstanceBuilder};
use dbp_core::packer::SelectorFactory;
use dbp_core::probe::ProbeEvent;
use dbp_obs::export::events_to_jsonl;
use dbp_obs::EventLog;
use proptest::prelude::*;
use std::collections::HashSet;

/// Capacity used by generated instances and the matching server flavor.
const CAP: u64 = 100;

fn system() -> GamingSystem {
    GamingSystem {
        server: ServerType {
            gpu_capacity: CAP,
            ..ServerType::default_gpu_vm()
        },
        granularity: Granularity::PerTick,
    }
}

fn roster() -> Vec<SelectorFactory> {
    vec![
        SelectorFactory::new("FF", || Box::new(FirstFit::new())),
        SelectorFactory::new("BF", || Box::new(BestFit::new())),
        SelectorFactory::new("MFF(8)", || Box::new(ModifiedFirstFit::new(8))),
        SelectorFactory::new("NF", || Box::new(NextFit::new())),
    ]
}

/// Strategy: arbitrary valid instances (sizes ≤ W, positive lengths).
fn instances(max_items: usize) -> impl Strategy<Value = Instance> {
    let item = (0u64..500, 1u64..120, 1u64..=CAP);
    proptest::collection::vec(item, 1..max_items).prop_map(|raw| {
        let mut b = InstanceBuilder::new(CAP);
        for (a, len, s) in raw {
            b.add(a, a + len, s);
        }
        b.build().expect("generated instance is valid")
    })
}

fn horizon(inst: &Instance) -> u64 {
    dbp_core::events::event_ticks(inst)
        .last()
        .map(|t| t.raw())
        .unwrap_or(0)
}

/// A hostile plan: frequent crashes, very flaky boots, transient rejects,
/// and a tight admission queue — every fault path exercised at once.
fn hostile_plan(seed: u64, inst: &Instance) -> FaultPlan {
    FaultPlan::generate(
        seed,
        horizon(inst).max(2),
        8,
        &FaultConfig {
            crash_rate_per_hour: 3600.0, // ≈ one crash per tick-hour scale
            boot_fail_prob: 0.35,
            boot_delay_max: 20,
            reject_prob: 0.25,
        },
    )
    .expect("a generated instance's horizon is within the crash cap")
}

/// Strategy: a `u64` plan field, biased to the edges of its range.
fn extreme_u64() -> impl Strategy<Value = u64> {
    (0usize..7, 0u64..=u64::MAX)
        .prop_map(|(pick, any)| [0, 1, u64::MAX, u64::MAX - 1, u64::MAX / 2, any % 1000, any][pick])
}

/// Strategy: a probability field, in range or not (NaN and infinities
/// included).
fn extreme_prob() -> impl Strategy<Value = f64> {
    (0usize..12, 0.0f64..1.0).prop_map(|(pick, p)| {
        [
            0.0,
            1.0,
            -0.0,
            f64::NAN,
            f64::INFINITY,
            f64::NEG_INFINITY,
            -1e-9,
            1.0 + f64::EPSILON,
            p,
            p,
            p,
            p,
        ][pick]
    })
}

/// Strategy: a hand-written plan with extreme fields. The crash list is
/// sorted or left as drawn; `max_attempts` stays small, since a huge
/// retry budget is slow by design rather than unsound.
fn extreme_plans() -> impl Strategy<Value = FaultPlan> {
    let crashes = (
        proptest::collection::vec((extreme_u64(), 0u32..=u32::MAX), 0..4),
        0u8..2,
    )
        .prop_map(|(mut crashes, sort)| {
            if sort == 1 {
                crashes.sort_unstable();
            }
            crashes
        });
    let retry = (extreme_u64(), extreme_u64(), extreme_u64(), 0u32..8);
    let admission = (0u32..=u32::MAX, extreme_u64());
    (
        0u64..=u64::MAX,
        crashes,
        (extreme_prob(), extreme_u64(), extreme_prob()),
        retry,
        admission,
    )
        .prop_map(
            |(seed, crashes, (boot_fail_prob, boot_delay_max, reject_prob), r, a)| FaultPlan {
                seed,
                crashes: crashes
                    .into_iter()
                    .map(|(at, server)| CrashEvent { at, server })
                    .collect(),
                boot_fail_prob,
                boot_delay_max,
                reject_prob,
                retry: RetryPolicy {
                    base: r.0,
                    cap: r.1,
                    jitter: r.2,
                    max_attempts: r.3,
                },
                admission: AdmissionPolicy {
                    queue_capacity: a.0,
                    queue_timeout: a.1,
                },
            },
        )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// A plan from outside the process either runs to a conserved ledger
    /// or is refused with [`DispatchError::BadFaultPlan`] — a refusal the
    /// static check predicts exactly when the plan breaks its contract.
    #[test]
    fn extreme_plans_conserve_or_refuse(inst in instances(20), plan in extreme_plans()) {
        let statically_bad = plan.validate().is_err();
        for f in roster() {
            let mut sel = f.build();
            match ResilientSystem::new(system(), plan.clone()).run(&inst, &mut *sel) {
                Ok(report) => {
                    prop_assert!(!statically_bad, "{}: invalid plan ran: {:?}", f.name(), plan);
                    prop_assert!(report.conserved(), "{}: {:?}", f.name(), report);
                }
                Err(DispatchError::BadFaultPlan { .. }) => {}
                Err(e) => prop_assert!(false, "{}: unexpected error {e}", f.name()),
            }
        }
    }
}

/// Capacity of the generated D = 3 instances: `[gpu, cpu, mem]`, with
/// the GPU component matching the server flavor.
const CAP3: VSize<3> = VSize([CAP, 60, 80]);

/// Strategy: arbitrary valid D = 3 instances, each dimension binding for
/// some items (the memory component is never zero, so no item is empty).
fn instances_d3(max_items: usize) -> impl Strategy<Value = GInstance<VSize<3>>> {
    let item = (0u64..500, 1u64..120, (0u64..=CAP, 0u64..=60, 1u64..=80));
    proptest::collection::vec(item, 1..max_items).prop_map(|raw| {
        let mut b = GInstanceBuilder::new(CAP3);
        for (a, len, (g, c, m)) in raw {
            b.add(a, a + len, VSize([g, c, m]));
        }
        b.build().expect("generated instance is valid")
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The fault layer at D = 3, where each dimension can bind: a hostile
    /// seeded plan runs to a conserved ledger, and a hand-written plan with
    /// extreme fields runs conserved or is refused with
    /// [`DispatchError::BadFaultPlan`] — never a panic.
    #[test]
    fn d3_plans_conserve_or_refuse(
        inst in instances_d3(30),
        seed in 0u64..1000,
        extreme in extreme_plans(),
    ) {
        let last = inst.items().iter().map(|it| it.departure.raw()).max().unwrap_or(0);
        let hostile = FaultPlan::generate(
            seed,
            last.max(2),
            8,
            &FaultConfig {
                crash_rate_per_hour: 3600.0,
                boot_fail_prob: 0.35,
                boot_delay_max: 20,
                reject_prob: 0.25,
            },
        )
        .expect("a generated instance's horizon is within the crash cap");
        for name in ["FF", "BF", "MFF(8)", "FF-idx", "BF-idx", "MFF-idx", "DOM"] {
            let build = || dbp_core::algorithms::selector_for::<VSize<3>>(name).expect("vector roster");
            let report = ResilientSystem::new(system(), hostile.clone())
                .run(&inst, &mut *build())
                .expect("a generated plan is valid");
            prop_assert!(report.conserved(), "{name}: {report:?}");
            match ResilientSystem::new(system(), extreme.clone()).run(&inst, &mut *build()) {
                Ok(report) => prop_assert!(report.conserved(), "{name}: {report:?}"),
                Err(DispatchError::BadFaultPlan { .. }) => {}
                Err(e) => prop_assert!(false, "{name}: unexpected error {e}"),
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// `served + dropped + lost == total` for every dispatcher under a
    /// hostile fault plan — sessions are accounted, never leaked.
    #[test]
    fn sla_ledger_conserves_sessions(inst in instances(40), seed in 0u64..1000) {
        let plan = hostile_plan(seed, &inst);
        for f in roster() {
            let mut sel = f.build();
            let report = ResilientSystem::new(system(), plan.clone())
                .run(&inst, &mut *sel)
                .expect("capacity-matched");
            prop_assert!(
                report.conserved(),
                "{}: {} served + {} dropped + {} lost != {} total",
                f.name(),
                report.sessions_served,
                report.sessions_dropped,
                report.sessions_lost,
                report.sessions_total
            );
        }
    }

    /// Once a server crashes, nothing is ever placed on it again: no
    /// open, placement, re-dispatch target, or departure may reference a
    /// crashed bin id after its `BinCrashed` event.
    #[test]
    fn crashed_servers_never_serve_again(inst in instances(40), seed in 0u64..1000) {
        let plan = hostile_plan(seed, &inst);
        for f in roster() {
            let mut sel = f.build();
            let mut log = EventLog::new();
            ResilientSystem::new(system(), plan.clone())
                .run_probed(&inst, &mut *sel, &mut log)
                .expect("capacity-matched");
            let mut dead: HashSet<BinId> = HashSet::new();
            for ev in log.events() {
                let touched: Option<BinId> = match ev {
                    ProbeEvent::BinOpened { bin, .. }
                    | ProbeEvent::ItemPlaced { bin, .. }
                    | ProbeEvent::ItemDeparted { bin, .. }
                    | ProbeEvent::BinClosed { bin, .. } => Some(*bin),
                    ProbeEvent::ItemRedispatched { to, .. } => Some(*to),
                    _ => None,
                };
                if let Some(bin) = touched {
                    prop_assert!(
                        !dead.contains(&bin),
                        "{}: {} touches crashed bin {bin:?}",
                        f.name(),
                        ev.kind()
                    );
                }
                if let ProbeEvent::BinCrashed { bin, .. } = ev {
                    dead.insert(*bin);
                }
            }
        }
    }

    /// The same seed yields byte-identical JSONL event logs across two
    /// independent runs — fault injection is fully deterministic.
    #[test]
    fn same_seed_gives_byte_identical_event_logs(inst in instances(30), seed in 0u64..1000) {
        let plan = hostile_plan(seed, &inst);
        for f in roster() {
            let run = || {
                let mut sel = f.build();
                let mut log = EventLog::new();
                let report = ResilientSystem::new(system(), plan.clone())
                    .run_probed(&inst, &mut *sel, &mut log)
                    .expect("capacity-matched");
                (report, events_to_jsonl(log.events()))
            };
            let (ra, ja) = run();
            let (rb, jb) = run();
            prop_assert_eq!(ra, rb, "{} reports diverge", f.name());
            prop_assert_eq!(ja, jb, "{} event logs diverge", f.name());
        }
    }

    /// A zero-fault plan is observationally identical to the plain engine:
    /// same bill to the cent, same servers, and the same probe event
    /// stream byte for byte.
    #[test]
    fn zero_fault_plan_is_transparent(inst in instances(40)) {
        let sys = system();
        for f in roster() {
            let mut plain_log = EventLog::new();
            let trace = {
                let mut sel = f.build();
                simulate_probed(&inst, &mut *sel, &mut plain_log)
            };
            let (baseline, _) = sys
                .run(&inst, &mut *f.build())
                .expect("capacity-matched");
            prop_assert_eq!(trace.total_cost_ticks() as u128, baseline.busy_ticks);

            let mut fault_log = EventLog::new();
            let report = ResilientSystem::new(sys, FaultPlan::none())
                .run_probed(&inst, &mut *f.build(), &mut fault_log)
                .expect("capacity-matched");

            prop_assert_eq!(report.sessions_served, inst.len() as u64, "{}", f.name());
            prop_assert_eq!(report.sessions_dropped + report.sessions_lost, 0);
            prop_assert_eq!(report.busy_ticks, baseline.busy_ticks);
            prop_assert_eq!(report.billed_ticks, baseline.billed_ticks);
            prop_assert_eq!(report.cost_cents, baseline.cost_cents);
            prop_assert_eq!(report.servers_rented as usize, baseline.servers_rented);
            prop_assert_eq!(report.peak_servers as u32, baseline.peak_servers);
            prop_assert_eq!(
                events_to_jsonl(fault_log.events()),
                events_to_jsonl(plain_log.events()),
                "{} fault-free event stream deviates from the engine",
                f.name()
            );
        }
    }
}
