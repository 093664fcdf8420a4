//! Exact time-series sampling of the packing state.
//!
//! [`TimeSeriesSampler`] is a probe that reconstructs, from the event
//! stream alone, the step functions the paper's objective is built from:
//! `n(t)` (the number of open bins, `A(R,t)` in the paper's notation),
//! the total used capacity, and the waste `n(t)·W − used(t)`. One sample
//! is kept per tick at which the state changed — an exact step-function
//! encoding, not a fixed-interval approximation.

use dbp_core::demand::Demand;
use dbp_core::probe::{GProbeEvent, Probe};
use dbp_core::time::Tick;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// One point of the step function: the state *after* all events at `at`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct Sample {
    /// Tick the state took effect.
    pub at: Tick,
    /// Open bins `n(t)` — the paper's `A(R,t)`.
    pub open_bins: u32,
    /// Total size packed across open bins.
    pub used: u64,
    /// Idle capacity: `open_bins · W − used`.
    pub waste: u64,
}

impl Sample {
    /// Used fraction of rented capacity, in `[0, 1]` (0 when no bin open).
    pub fn utilization(&self) -> f64 {
        let rented = self.used + self.waste;
        if rented == 0 {
            0.0
        } else {
            self.used as f64 / rented as f64
        }
    }
}

/// Probe that accumulates [`Sample`]s. Needs the bin capacity `W` up front
/// (events carry levels, not capacities). A vector run is sampled on its
/// GPU component (demand component 0).
#[derive(Debug, Clone)]
pub struct TimeSeriesSampler {
    capacity: u64,
    levels: BTreeMap<u32, u64>,
    used: u64,
    samples: Vec<Sample>,
}

impl TimeSeriesSampler {
    /// New sampler for bins of capacity `capacity`.
    pub fn new(capacity: u64) -> TimeSeriesSampler {
        TimeSeriesSampler {
            capacity,
            levels: BTreeMap::new(),
            used: 0,
            samples: Vec::new(),
        }
    }

    /// The samples recorded so far, strictly increasing in tick.
    pub fn samples(&self) -> &[Sample] {
        &self.samples
    }

    /// The step-function value of `n(t)` at tick `t` (0 before the first
    /// sample).
    pub fn open_bins_at(&self, t: Tick) -> u32 {
        match self.samples.binary_search_by_key(&t.0, |s| s.at.0) {
            Ok(i) => self.samples[i].open_bins,
            Err(0) => 0,
            Err(i) => self.samples[i - 1].open_bins,
        }
    }

    /// CSV rows in the `experiments::harness` table shape:
    /// `(headers, rows)` of plain strings.
    pub fn to_table(&self) -> (Vec<String>, Vec<Vec<String>>) {
        let headers = ["tick", "open_bins", "used", "waste", "utilization"]
            .map(String::from)
            .to_vec();
        let rows = self
            .samples
            .iter()
            .map(|s| {
                vec![
                    s.at.0.to_string(),
                    s.open_bins.to_string(),
                    s.used.to_string(),
                    s.waste.to_string(),
                    format!("{:.6}", s.utilization()),
                ]
            })
            .collect();
        (headers, rows)
    }

    /// Render the series as a CSV string (same cell contents as
    /// [`to_table`](Self::to_table)).
    pub fn to_csv(&self) -> String {
        let (headers, rows) = self.to_table();
        let mut out = headers.join(",");
        out.push('\n');
        for row in rows {
            out.push_str(&row.join(","));
            out.push('\n');
        }
        out
    }

    fn touch(&mut self, at: Tick) {
        let open_bins = self.levels.len() as u32;
        let used = self.used;
        let waste = (open_bins as u64) * self.capacity - used;
        let sample = Sample {
            at,
            open_bins,
            used,
            waste,
        };
        match self.samples.last_mut() {
            Some(last) if last.at == at => *last = sample,
            Some(last) if (last.open_bins, last.used) == (sample.open_bins, sample.used) => {}
            _ => self.samples.push(sample),
        }
    }
}

impl<Sz: Demand> Probe<Sz> for TimeSeriesSampler {
    fn record(&mut self, event: GProbeEvent<Sz>) {
        match event {
            GProbeEvent::BinOpened { at, bin, .. } => {
                self.levels.insert(bin.0, 0);
                self.touch(at);
            }
            GProbeEvent::ItemPlaced { at, bin, level, .. } => {
                let slot = self.levels.entry(bin.0).or_insert(0);
                self.used = self.used + level.component(0) - *slot;
                *slot = level.component(0);
                self.touch(at);
            }
            GProbeEvent::ItemDeparted { at, bin, level, .. } => {
                let slot = self.levels.entry(bin.0).or_insert(0);
                self.used = self.used + level.component(0) - *slot;
                *slot = level.component(0);
                self.touch(at);
            }
            GProbeEvent::BinClosed { at, bin, .. } => {
                if let Some(level) = self.levels.remove(&bin.0) {
                    self.used -= level;
                }
                self.touch(at);
            }
            GProbeEvent::BinCrashed { at, bin, .. } => {
                if let Some(level) = self.levels.remove(&bin.0) {
                    self.used -= level;
                }
                self.touch(at);
            }
            GProbeEvent::ItemRedispatched { at, to, level, .. } => {
                let slot = self.levels.entry(to.0).or_insert(0);
                self.used = self.used + level.component(0) - *slot;
                *slot = level.component(0);
                self.touch(at);
            }
            GProbeEvent::ItemArrived { .. }
            | GProbeEvent::FitAttempt { .. }
            | GProbeEvent::Violation { .. }
            | GProbeEvent::ProvisionFailed { .. }
            | GProbeEvent::RetryScheduled { .. }
            | GProbeEvent::DispatchRejected { .. }
            | GProbeEvent::ItemDropped { .. }
            | GProbeEvent::RecoveryEnded { .. }
            | GProbeEvent::ShardKilled { .. }
            | GProbeEvent::ShardRestarted { .. }
            | GProbeEvent::ShardAbandoned { .. } => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dbp_core::prelude::*;

    #[test]
    fn sampler_matches_trace_step_function() {
        let mut b = InstanceBuilder::new(10);
        b.add(0, 40, 6);
        b.add(5, 25, 6);
        b.add(10, 35, 4);
        let inst = b.build().unwrap();
        let mut sampler = TimeSeriesSampler::new(inst.capacity().raw());
        let trace = simulate_probed(&inst, &mut FirstFit::new(), &mut sampler);
        // n(t) reconstructed from events must equal the trace's A(R,t)
        // at every event tick and in between.
        for t in 0..45 {
            assert_eq!(
                sampler.open_bins_at(Tick(t)),
                trace.open_bins_at(Tick(t)),
                "n({t})"
            );
        }
        let csv = sampler.to_csv();
        assert!(csv.starts_with("tick,open_bins,used,waste,utilization\n"));
        assert!(csv.lines().count() > 2);
    }

    #[test]
    fn waste_and_utilization_are_consistent() {
        let mut b = InstanceBuilder::new(8);
        b.add(0, 10, 5);
        b.add(0, 10, 5);
        let inst = b.build().unwrap();
        let mut sampler = TimeSeriesSampler::new(8);
        simulate_probed(&inst, &mut FirstFit::new(), &mut sampler);
        let first = sampler.samples()[0];
        assert_eq!(first.open_bins as u64 * 8, first.used + first.waste);
        assert!(first.utilization() > 0.0 && first.utilization() <= 1.0);
        let last = sampler.samples().last().unwrap();
        assert_eq!(last.open_bins, 0);
        assert_eq!(last.used, 0);
    }
}
