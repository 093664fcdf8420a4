//! Journal replay: audit an event stream from its events alone.
//!
//! [`replay_events`] walks a decoded journal
//! ([`JournalContents`](crate::journal::JournalContents)) checking
//! structural invariants (placements go to open bins, closes match opens,
//! levels are consistent) and recomputes the exact integer total cost from
//! the `BinClosed` events, independently of any recorded manifest;
//! [`per_dim_demand_ticks`] recomputes the served demand per dimension.
//! It returns `Err` (never panics) on streams that no fault-free engine run
//! could have produced.
//!
//! Resuming a journal is not an audit: the run is re-executed from scratch
//! under a [`VerifyProbe`](dbp_core::probe::VerifyProbe) over the whole
//! sound journal, which re-emits nothing it has already verified, so
//! `journal + continuation` is byte-identical to an uninterrupted run.

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

    /// Re-execute `inst` under FF, verified against `journal`;
    /// returns the forwarded continuation and the final trace.
    fn reexecute(
        inst: &Instance,
        journal: &[ProbeEvent],
    ) -> Result<(Vec<ProbeEvent>, PackingTrace), String> {
        let mut log = EventLog::new();
        let mut verify = VerifyProbe::new(journal, &mut log);
        let trace = simulate_probed(inst, &mut FirstFit::new(), &mut verify);
        verify.finish()?;
        Ok((log.into_events(), trace))
    }

    #[test]
    fn reexecution_against_the_full_stream_appends_nothing() {
        let (inst, events) = sample();
        let (tail, trace) = reexecute(&inst, &events).unwrap();
        assert!(tail.is_empty());
        assert_eq!(
            trace.total_cost_ticks(),
            replay_events(&events).unwrap().cost_ticks
        );
    }

    #[test]
    fn reexecution_from_every_cut_is_identical_stream() {
        let (inst, events) = sample();
        for cut in 0..=events.len() {
            // Cuts inside an operation included: the re-execution verifies
            // the partial operation and forwards only what follows it.
            let (tail, trace) =
                reexecute(&inst, &events[..cut]).unwrap_or_else(|e| panic!("cut {cut}: {e}"));
            assert_eq!(trace, simulate(&inst, &mut FirstFit::new()));
            assert_eq!(tail.len(), events.len() - cut);
            let mut combined = events[..cut].to_vec();
            combined.extend(tail);
            assert_eq!(combined, events, "cut at {cut}");
        }
    }
}
