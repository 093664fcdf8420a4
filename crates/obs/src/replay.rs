//! Journal replay: audit an event stream and find where recovery resumes.
//!
//! Two consumers sit on top of a decoded journal
//! ([`JournalContents`](crate::journal::JournalContents)):
//!
//! * [`replay_events`] — an *audit*: walks the stream checking structural
//!   invariants (placements go to open bins, closes match opens, levels
//!   are consistent) and recomputes the exact integer total cost from the
//!   `BinClosed` events, independently of any recorded manifest;
//! * [`recovery_point`] — the *boundary* of a recovery: the longest prefix
//!   of the stream that corresponds to complete engine operations, and how
//!   many trailing partial events a crash left behind. Recovery re-executes
//!   the run from scratch under a
//!   [`VerifyProbe`](dbp_core::probe::VerifyProbe) over that prefix; the
//!   re-execution re-emits exactly the dropped events first, so
//!   `journal prefix + continuation` is byte-identical to an uninterrupted
//!   run.
//!
//! Both functions return `Err` (never panic) on streams that no fault-free
//! engine run could have produced.

use dbp_core::bin::BinId;
use dbp_core::demand::Demand;
use dbp_core::probe::{GProbeEvent, ProbeEvent};
use dbp_core::time::Tick;

/// Aggregate results of auditing a journal stream. All quantities are
/// exact integers recomputed from the events alone.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ReplaySummary {
    /// `ItemArrived` events seen.
    pub arrivals: u64,
    /// `ItemPlaced` events seen.
    pub placements: u64,
    /// `ItemDeparted` events seen.
    pub departures: u64,
    /// Bins opened.
    pub bins_opened: u64,
    /// Bins closed.
    pub bins_closed: u64,
    /// Bins still open when the stream ended (nonzero ⇒ the run was
    /// interrupted or the journal is a prefix).
    pub open_at_end: u64,
    /// Peak number of simultaneously open bins.
    pub max_open: u64,
    /// Total cost Σ open-ticks over *closed* bins — equals the paper's
    /// objective Σᵢ span(bin i) when `open_at_end == 0`.
    pub cost_ticks: u128,
    /// `Violation` events carried in the stream.
    pub violations: u64,
    /// Fault-injection events carried in the stream (crash/retry/drop).
    pub fault_events: u64,
    /// Tick of the last event, if any.
    pub last_tick: Option<Tick>,
}

impl ReplaySummary {
    /// Whether the stream describes a run that finished (every opened bin
    /// closed again), making [`cost_ticks`](ReplaySummary::cost_ticks) the
    /// complete objective value.
    pub fn is_complete(&self) -> bool {
        self.open_at_end == 0 && self.bins_opened == self.bins_closed
    }
}

/// Audit an event stream: check structural invariants and recompute the
/// exact total cost. Errors describe the first inconsistency found.
pub fn replay_events(events: &[ProbeEvent]) -> Result<ReplaySummary, String> {
    replay_events_dims(events)
}

/// [`replay_events`] for any demand dimensionality — the audit walks only
/// structure (bin ids, opens/closes, ticks), so one body serves every
/// `Sz`; the scalar wrapper keeps the original signature.
pub fn replay_events_dims<Sz: Demand>(events: &[GProbeEvent<Sz>]) -> Result<ReplaySummary, String> {
    let mut summary = ReplaySummary {
        arrivals: 0,
        placements: 0,
        departures: 0,
        bins_opened: 0,
        bins_closed: 0,
        open_at_end: 0,
        max_open: 0,
        cost_ticks: 0,
        violations: 0,
        fault_events: 0,
        last_tick: None,
    };
    // Per opened bin (indexed by BinId): (is_open, member_count, opened_at).
    let mut bins: Vec<(bool, u32, Tick)> = Vec::new();
    let mut open = 0u64;
    let err = |i: usize, msg: String| Err(format!("event {i}: {msg}"));
    for (i, ev) in events.iter().enumerate() {
        if let Some(last) = summary.last_tick {
            if ev.at() < last {
                return err(i, format!("tick went backwards ({} after {last})", ev.at()));
            }
        }
        summary.last_tick = Some(ev.at());
        match ev {
            GProbeEvent::ItemArrived { .. } => summary.arrivals += 1,
            GProbeEvent::FitAttempt { open_bins, .. } => {
                // Emitted before any BinOpened, so it must agree with the
                // running open count exactly.
                if u64::from(*open_bins) != open {
                    return err(
                        i,
                        format!("FitAttempt claims {open_bins} open bins, saw {open}"),
                    );
                }
            }
            GProbeEvent::BinOpened { bin, .. } => {
                if bin.index() != bins.len() {
                    return err(
                        i,
                        format!("bin {bin} opened out of order (expected b{})", bins.len()),
                    );
                }
                bins.push((true, 0, ev.at()));
                summary.bins_opened += 1;
                open += 1;
                summary.max_open = summary.max_open.max(open);
            }
            GProbeEvent::ItemPlaced { bin, .. } => {
                match bins.get_mut(bin.index()) {
                    Some((true, count, _)) => *count += 1,
                    Some((false, ..)) => return err(i, format!("placement into closed bin {bin}")),
                    None => return err(i, format!("placement into never-opened bin {bin}")),
                }
                summary.placements += 1;
            }
            GProbeEvent::ItemDeparted { bin, .. } => {
                match bins.get_mut(bin.index()) {
                    Some((true, count @ 1.., _)) => *count -= 1,
                    Some((true, 0, _)) => return err(i, format!("departure from empty bin {bin}")),
                    Some((false, ..)) => return err(i, format!("departure from closed bin {bin}")),
                    None => return err(i, format!("departure from never-opened bin {bin}")),
                }
                summary.departures += 1;
            }
            GProbeEvent::BinClosed {
                bin, open_ticks, ..
            } => {
                match bins.get_mut(bin.index()) {
                    Some((is_open @ true, 0, opened_at)) => {
                        let span = ev.at().0.saturating_sub(opened_at.0);
                        if span != *open_ticks {
                            return err(
                                i,
                                format!(
                                    "bin {bin} closed with open_ticks {open_ticks}, \
                                     but opened at {opened_at} and closed at {} (span {span})",
                                    ev.at()
                                ),
                            );
                        }
                        *is_open = false;
                    }
                    Some((true, count, _)) => {
                        return err(i, format!("bin {bin} closed while holding {count} items"))
                    }
                    Some((false, ..)) => return err(i, format!("bin {bin} closed twice")),
                    None => return err(i, format!("never-opened bin {bin} closed")),
                }
                summary.bins_closed += 1;
                open -= 1;
                summary.cost_ticks += u128::from(*open_ticks);
            }
            GProbeEvent::Violation { .. } => summary.violations += 1,
            _ => summary.fault_events += 1,
        }
    }
    summary.open_at_end = open;
    Ok(summary)
}

/// Exact per-dimension served demand, recomputed from an event stream
/// alone: for every departed item, `size_d × (departure − placement)`
/// summed into dimension `d`. Returns one `u128` per dimension plus the
/// number of items placed but still resident when the stream ended (their
/// demand-ticks are not yet accountable). This is the vector analogue of
/// the scalar cost audit: at `D = 1` the single entry is the served
/// item-ticks of the run.
pub fn per_dim_demand_ticks<Sz: Demand>(events: &[GProbeEvent<Sz>]) -> (Vec<u128>, u64) {
    use std::collections::HashMap;
    let mut ticks = vec![0u128; Sz::DIMS];
    let mut sizes: HashMap<u32, Sz> = HashMap::new();
    let mut placed_at: HashMap<u32, Tick> = HashMap::new();
    for ev in events {
        match ev {
            GProbeEvent::ItemArrived { item, size, .. } => {
                sizes.insert(item.0, *size);
            }
            GProbeEvent::ItemPlaced { at, item, .. } => {
                placed_at.insert(item.0, *at);
            }
            GProbeEvent::ItemDeparted { at, item, .. } => {
                if let (Some(size), Some(t0)) = (sizes.remove(&item.0), placed_at.remove(&item.0)) {
                    let span = u128::from(at.0.saturating_sub(t0.0));
                    for (d, slot) in ticks.iter_mut().enumerate() {
                        *slot += u128::from(size.component(d)) * span;
                    }
                }
            }
            _ => {}
        }
    }
    (ticks, placed_at.len() as u64)
}

/// Where a journaled run resumes: the end of its last complete engine
/// operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RecoveryPoint {
    /// Number of leading journal events that form complete operations —
    /// the prefix a re-execution is verified against.
    pub events_used: usize,
    /// Trailing events dropped because they belong to an engine operation
    /// the crash cut in half. The re-execution re-emits exactly these
    /// first.
    pub events_dropped: usize,
    /// Schedule events (arrivals and departures) the complete prefix
    /// accounts for.
    pub cursor: usize,
}

/// Find the recovery point of a journaled event stream.
///
/// The journal is a flat event stream, but the engine advances in
/// *operations* — an arrival emits `ItemArrived`, `FitAttempt`,
/// (`BinOpened`,) `ItemPlaced`; a departure emits `ItemDeparted` and, when
/// it empties the bin, `BinClosed`. A crash can leave the final operation
/// half-journaled, so this scans for the last operation boundary and
/// counts the completed operations before it.
///
/// Errors on fault-injection events (crash-recovery journals describe a
/// different state machine) and on streams no engine run could emit.
pub fn recovery_point<Sz: Demand>(events: &[GProbeEvent<Sz>]) -> Result<RecoveryPoint, String> {
    // Find the boundary — the end of the last complete operation — and
    // count completed operations (the engine-event cursor).
    let mut boundary = 0usize;
    let mut cursor = 0usize;
    // Member count per opened bin; a departure that empties its bin is only
    // complete once the matching BinClosed lands.
    let mut members: Vec<u32> = Vec::new();
    let mut pending_close: Option<BinId> = None;
    for (i, ev) in events.iter().enumerate() {
        if ev.is_fault_event() {
            return Err(format!(
                "event {i} is a fault-injection event ({}); the recovery point \
                 covers fault-free engine journals only",
                ev.kind()
            ));
        }
        if let Some(bin) = pending_close {
            match ev {
                GProbeEvent::BinClosed { bin: b, .. } if *b == bin => {
                    pending_close = None;
                    boundary = i + 1;
                    cursor += 1;
                    continue;
                }
                _ => {
                    return Err(format!(
                        "event {i}: expected BinClosed for emptied bin {bin}, found {}",
                        ev.kind()
                    ))
                }
            }
        }
        match ev {
            GProbeEvent::ItemArrived { .. } | GProbeEvent::FitAttempt { .. } => {}
            GProbeEvent::BinOpened { bin, .. } => {
                if bin.index() != members.len() {
                    return Err(format!(
                        "event {i}: bin {bin} opened out of order (expected b{})",
                        members.len()
                    ));
                }
                members.push(0);
            }
            GProbeEvent::ItemPlaced { bin, .. } => {
                match members.get_mut(bin.index()) {
                    Some(count) => *count += 1,
                    None => {
                        return Err(format!("event {i}: placement into never-opened bin {bin}"))
                    }
                }
                boundary = i + 1;
                cursor += 1;
            }
            GProbeEvent::ItemDeparted { bin, .. } => match members.get_mut(bin.index()) {
                Some(count @ 1..) => {
                    *count -= 1;
                    if *count == 0 {
                        pending_close = Some(*bin);
                    } else {
                        boundary = i + 1;
                        cursor += 1;
                    }
                }
                Some(0) => return Err(format!("event {i}: departure from empty bin {bin}")),
                None => return Err(format!("event {i}: departure from never-opened bin {bin}")),
            },
            GProbeEvent::BinClosed { bin, .. } => {
                return Err(format!("event {i}: unexpected BinClosed for bin {bin}"))
            }
            GProbeEvent::Violation { message, .. } => {
                return Err(format!("event {i}: journal records a violation: {message}"))
            }
            _ => unreachable!("fault events rejected above"),
        }
    }

    Ok(RecoveryPoint {
        events_used: boundary,
        events_dropped: events.len() - boundary,
        cursor,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::recorder::EventLog;
    use dbp_core::prelude::*;
    use dbp_core::probe::VerifyProbe;

    fn sample() -> (Instance, Vec<ProbeEvent>) {
        let mut b = InstanceBuilder::new(10);
        b.add(0, 40, 6);
        b.add(5, 25, 6);
        b.add(10, 35, 4);
        b.add(12, 20, 3);
        let inst = b.build().unwrap();
        let mut log = EventLog::new();
        simulate_probed(&inst, &mut FirstFit::new(), &mut log);
        (inst, log.into_events())
    }

    #[test]
    fn audit_of_complete_run_matches_trace_cost() {
        let (inst, events) = sample();
        let trace = simulate(&inst, &mut FirstFit::new());
        let summary = replay_events(&events).unwrap();
        assert!(summary.is_complete());
        assert_eq!(summary.arrivals, inst.len() as u64);
        assert_eq!(summary.placements, inst.len() as u64);
        assert_eq!(summary.departures, inst.len() as u64);
        assert_eq!(summary.bins_opened, trace.bins_used() as u64);
        assert_eq!(summary.cost_ticks, trace.total_cost_ticks());
        assert_eq!(summary.violations, 0);
        assert_eq!(summary.fault_events, 0);
    }

    #[test]
    fn audit_rejects_impossible_streams() {
        use dbp_core::bin::BinId;
        use dbp_core::item::{ItemId, Size};
        use dbp_core::time::Tick;
        // Placement into a bin that never opened.
        let bad = vec![ProbeEvent::ItemPlaced {
            at: Tick(0),
            item: ItemId(0),
            bin: BinId(3),
            level: Size(5),
        }];
        assert!(replay_events(&bad).unwrap_err().contains("never-opened"));
        // A close whose open_ticks disagrees with its open/close ticks.
        let bad = vec![
            ProbeEvent::BinOpened {
                at: Tick(0),
                bin: BinId(0),
                tag: BinTag(0),
                item: ItemId(0),
            },
            ProbeEvent::BinClosed {
                at: Tick(10),
                bin: BinId(0),
                open_ticks: 7,
            },
        ];
        assert!(replay_events(&bad).unwrap_err().contains("span"));
    }

    /// Re-execute `inst` under FF, verified against `prefix`;
    /// returns the forwarded continuation and the final trace.
    fn reexecute(
        inst: &Instance,
        prefix: &[ProbeEvent],
    ) -> Result<(Vec<ProbeEvent>, PackingTrace), String> {
        let mut log = EventLog::new();
        let mut verify = VerifyProbe::new(prefix, &mut log);
        let trace = simulate_probed(inst, &mut FirstFit::new(), &mut verify);
        verify.finish()?;
        Ok((log.into_events(), trace))
    }

    #[test]
    fn recovery_point_of_full_stream_is_the_whole_schedule() {
        let (inst, events) = sample();
        let rec = recovery_point(&events).unwrap();
        assert_eq!(rec.events_used, events.len());
        assert_eq!(rec.events_dropped, 0);
        assert_eq!(rec.cursor, 2 * inst.len());
        let (tail, trace) = reexecute(&inst, &events).unwrap();
        assert!(tail.is_empty());
        assert_eq!(
            trace.total_cost_ticks(),
            replay_events(&events).unwrap().cost_ticks
        );
    }

    #[test]
    fn reexecution_from_every_recovery_point_is_identical_stream() {
        let (inst, events) = sample();
        for cut in 0..=events.len() {
            let rec = recovery_point(&events[..cut]).unwrap_or_else(|e| panic!("cut {cut}: {e}"));
            assert!(rec.events_used <= cut);
            assert_eq!(rec.events_used + rec.events_dropped, cut);
            let (tail, trace) = reexecute(&inst, &events[..rec.events_used])
                .unwrap_or_else(|e| panic!("cut {cut}: {e}"));
            assert_eq!(trace, simulate(&inst, &mut FirstFit::new()));
            // Journal prefix (complete ops only) + continuation == full
            // uninterrupted stream.
            let mut combined = events[..rec.events_used].to_vec();
            combined.extend(tail);
            assert_eq!(combined, events, "cut at {cut}");
        }
    }

    #[test]
    fn recovery_point_rejects_fault_journals() {
        use dbp_core::bin::BinId;
        use dbp_core::time::Tick;
        let (_, mut events) = sample();
        events.push(ProbeEvent::BinCrashed {
            at: Tick(99),
            bin: BinId(0),
            orphans: 1,
        });
        let err = recovery_point(&events).unwrap_err();
        assert!(err.contains("fault"), "{err}");
    }
}
