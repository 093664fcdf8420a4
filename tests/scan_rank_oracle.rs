//! An engine-free oracle for the scan depth every `FitAttempt` reports.
//!
//! The engine derives `bins_scanned` from one rank structure for every
//! selector, so comparing naive and indexed runs no longer checks it. This
//! suite recomputes it from the event stream alone: replaying `BinOpened`,
//! `BinClosed` and `BinCrashed` gives the open set at each decision, and
//!
//! * `open_bins` is the size of that set;
//! * a reuse (the next event places the item in an open bin) scanned the
//!   chosen bin's 1-based position among the open bins in id order;
//! * an open scanned every open bin.
//!
//! A booting server's bin is pending between its decision and its
//! `BinOpened`: it is in no open set, so it never counts.

use dbp::prelude::*;
use dbp_cloudsim::{FaultConfig, FaultPlan, GamingSystem, ResilientSystem};
use dbp_core::algorithms::selector_for;
use dbp_core::bin::BinId;
use dbp_core::demand::Demand;
use dbp_core::engine::simulate_probed;
use dbp_core::instance::GInstance;
use dbp_core::probe::GProbeEvent;
use dbp_obs::GEventLog;
use dbp_workloads::{generate, widen, ArrivalKind, CloudGamingConfig};
use std::collections::{BTreeSet, HashSet};

/// What the oracle checked in one stream.
#[derive(Debug, Default)]
struct Checked {
    /// Fit attempts that reused an open bin.
    reuses: usize,
    /// Fit attempts that opened a bin.
    opens: usize,
    /// Fit attempts made while some bin was pending.
    with_pending: usize,
}

/// Replay `events` and check every `FitAttempt` against the open set.
fn check_scan_ranks<Sz: Demand>(events: &[GProbeEvent<Sz>]) -> Checked {
    let mut open: BTreeSet<BinId> = BTreeSet::new();
    // Items whose open decision waits for a booting server.
    let mut pending: HashSet<ItemId> = HashSet::new();
    let mut checked = Checked::default();
    for (i, ev) in events.iter().enumerate() {
        match ev {
            GProbeEvent::BinOpened { bin, item, .. } => {
                assert!(open.insert(*bin), "event {i}: bin {bin} opened twice");
                pending.remove(item);
            }
            GProbeEvent::BinClosed { bin, .. } | GProbeEvent::BinCrashed { bin, .. } => {
                assert!(open.remove(bin), "event {i}: bin {bin} was not open");
            }
            GProbeEvent::FitAttempt {
                item,
                bins_scanned,
                open_bins,
                ..
            } => {
                assert_eq!(*open_bins as usize, open.len(), "event {i}: {ev:?}");
                let next = events.get(i + 1);
                let reused = match next {
                    Some(GProbeEvent::ItemPlaced { item: it, bin, .. })
                    | Some(GProbeEvent::ItemRedispatched {
                        item: it, to: bin, ..
                    }) if it == item && open.contains(bin) => Some(*bin),
                    _ => None,
                };
                let expected = match reused {
                    Some(bin) => open.range(..bin).count() + 1,
                    None => open.len(),
                };
                assert_eq!(*bins_scanned as usize, expected, "event {i}: {ev:?}");
                if !pending.is_empty() {
                    checked.with_pending += 1;
                }
                if reused.is_some() {
                    checked.reuses += 1;
                } else {
                    checked.opens += 1;
                    if !matches!(next, Some(GProbeEvent::BinOpened { item: it, .. }) if it == item)
                    {
                        pending.insert(*item);
                    }
                }
            }
            _ => {}
        }
    }
    assert!(open.is_empty(), "bins still open at the end: {open:?}");
    checked
}

fn workload(seed: u64) -> Instance {
    generate(&CloudGamingConfig {
        horizon: 3600,
        arrivals: ArrivalKind::Poisson { rate: 0.4 },
        seed,
        ..CloudGamingConfig::default()
    })
}

/// Naive and indexed FF/BF/MFF on `inst`: every stream passes the oracle
/// and exercises both the reuse and the open path with many bins open.
fn check_roster<Sz: Demand>(inst: &GInstance<Sz>) {
    for name in ["FF", "FF-idx", "BF", "BF-idx", "MFF", "MFF-idx"] {
        let mut selector = selector_for::<Sz>(name).unwrap();
        let mut log = GEventLog::<Sz>::new();
        simulate_probed(inst, &mut *selector, &mut log);
        let checked = check_scan_ranks(log.events());
        assert_eq!(checked.reuses + checked.opens, inst.len(), "{name}");
        assert!(
            checked.reuses > 0 && checked.opens > 10,
            "{name}: {checked:?}"
        );
    }
}

#[test]
fn scan_ranks_match_the_replayed_open_set_at_d1() {
    for seed in [1, 2, 3] {
        check_roster(&workload(seed));
    }
}

#[test]
fn scan_ranks_match_the_replayed_open_set_at_d3() {
    for seed in [1, 2] {
        check_roster(&widen(&workload(seed)));
    }
}

/// Under boot delays a decision can land while other servers still boot:
/// their bins are pending, absent from the open set, and must not count.
/// Crashes take bins out of the set too, and re-dispatched orphans are
/// reuses or opens like any other arrival.
#[test]
fn pending_bins_do_not_count_under_boot_delays() {
    let inst = workload(4);
    let horizon = inst
        .items()
        .iter()
        .map(|r| r.departure.raw())
        .max()
        .unwrap();
    let plan = FaultPlan::generate(
        9,
        horizon,
        8,
        &FaultConfig {
            crash_rate_per_hour: 20.0,
            boot_fail_prob: 0.1,
            boot_delay_max: 40,
            reject_prob: 0.1,
        },
    )
    .expect("a small horizon is within the crash cap");
    let system = ResilientSystem::new(GamingSystem::paper_model(), plan);
    for name in ["FF", "FF-idx", "BF-idx", "MFF-idx"] {
        let mut selector = selector_for(name).unwrap();
        let mut log = GEventLog::new();
        let report = system.run_probed(&inst, &mut *selector, &mut log).unwrap();
        assert!(report.conserved(), "{name}");
        let checked = check_scan_ranks(log.events());
        let crashes = log
            .events()
            .iter()
            .filter(|e| matches!(e, GProbeEvent::BinCrashed { .. }))
            .count();
        assert!(crashes > 0, "{name}: the plan crashes no server");
        assert!(
            checked.with_pending > 100,
            "{name}: too few decisions made while a server booted: {checked:?}"
        );
    }
}
