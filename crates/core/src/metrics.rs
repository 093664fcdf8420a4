//! Derived metrics for comparing packings in experiments.

use crate::bounds::combined_lower_bound;
use crate::demand::Demand;
use crate::instance::GInstance;
use crate::ratio::Ratio;
use crate::trace::GPackingTrace;
use serde::{Deserialize, Serialize};

/// Summary of one algorithm's run on one instance, ready for tabulation.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RunSummary {
    /// Algorithm name.
    pub algorithm: String,
    /// Number of items in the instance.
    pub n_items: usize,
    /// Total cost in bin-ticks (`A_total`, with C = 1 per tick).
    pub total_cost_ticks: u128,
    /// Number of distinct bins ever opened.
    pub bins_used: usize,
    /// Maximum simultaneously open bins (classical DBP objective).
    pub max_open_bins: u32,
    /// `max{max_d u_d(R)/W_d, span(R)}` — a lower bound on `OPT_total`.
    pub opt_lower_bound: Ratio,
    /// `total_cost / opt_lower_bound`: an *upper* bound estimate of the
    /// achieved competitive ratio (the true ratio vs `OPT_total` is at most
    /// this).
    pub ratio_vs_lower_bound: Ratio,
    /// Mean bin utilization: `u(R) / (W · total_cost_ticks)`, in `[0, 1]`;
    /// of the first (GPU) dimension when demands are vectors.
    pub mean_utilization: Ratio,
}

/// Summarize a trace against its instance.
pub fn summarize<Sz: Demand>(instance: &GInstance<Sz>, trace: &GPackingTrace<Sz>) -> RunSummary {
    let cost = trace.total_cost_ticks();
    let lb = combined_lower_bound(instance);
    let ratio = if lb.is_zero() {
        Ratio::ONE
    } else {
        Ratio::from_int(cost) / lb
    };
    RunSummary {
        algorithm: trace.algorithm.clone(),
        n_items: instance.len(),
        total_cost_ticks: cost,
        bins_used: trace.bins_used(),
        max_open_bins: trace.max_open_bins(),
        opt_lower_bound: lb,
        ratio_vs_lower_bound: ratio,
        mean_utilization: utilization(instance, cost),
    }
}

/// Mean utilization of `busy_ticks` of rented time serving `instance`:
/// its demand over `W · busy_ticks` (of the first, GPU, dimension when
/// demands are vectors), zero when nothing was rented.
pub fn utilization<Sz: Demand>(instance: &GInstance<Sz>, busy_ticks: u128) -> Ratio {
    if busy_ticks == 0 {
        return Ratio::ZERO;
    }
    Ratio::new(
        instance.total_demand_per_dim()[0],
        instance.capacity().component(0) as u128 * busy_ticks,
    )
}

/// Time-weighted distribution statistics of the open-bin count, plus bin
/// lifetime aggregates — the fleet-sizing view of a trace.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FleetStats {
    /// Time-weighted mean number of open bins over the packing period.
    pub mean_open: f64,
    /// Time-weighted median open bins.
    pub p50_open: u32,
    /// Time-weighted 95th percentile open bins.
    pub p95_open: u32,
    /// Maximum open bins.
    pub max_open: u32,
    /// Shortest bin lifetime in ticks.
    pub min_bin_life: u64,
    /// Mean bin lifetime in ticks.
    pub mean_bin_life: f64,
    /// Longest bin lifetime in ticks.
    pub max_bin_life: u64,
}

/// Compute fleet statistics from a trace. Returns `None` for empty traces.
pub fn fleet_stats<Sz: Demand>(trace: &GPackingTrace<Sz>) -> Option<FleetStats> {
    if trace.bins.is_empty() {
        return None;
    }
    // Time-weighted histogram of the step function.
    let mut weighted: Vec<(u32, u128)> = Vec::new();
    let mut total_time: u128 = 0;
    for w in trace.open_bins_steps.windows(2) {
        let dur = (w[1].0 - w[0].0).raw() as u128;
        if dur > 0 {
            weighted.push((w[0].1, dur));
            total_time += dur;
        }
    }
    weighted.sort_unstable_by_key(|&(n, _)| n);
    let percentile = |p: f64| -> u32 {
        let target = (total_time as f64 * p) as u128;
        let mut acc: u128 = 0;
        for &(n, d) in &weighted {
            acc += d;
            if acc > target {
                return n;
            }
        }
        weighted.last().map(|&(n, _)| n).unwrap_or(0)
    };
    let mean_open = trace.total_cost_ticks() as f64 / total_time.max(1) as f64;

    let lives: Vec<u64> = trace.bins.iter().map(|b| b.usage_len().raw()).collect();
    let sum: u128 = lives.iter().map(|&l| l as u128).sum();
    Some(FleetStats {
        mean_open,
        p50_open: percentile(0.50),
        p95_open: percentile(0.95),
        max_open: trace.max_open_bins(),
        min_bin_life: lives.iter().copied().min().unwrap_or(0),
        mean_bin_life: sum as f64 / lives.len() as f64,
        max_bin_life: lives.iter().copied().max().unwrap_or(0),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algorithms::FirstFit;
    use crate::engine::simulate_validated;
    use crate::instance::InstanceBuilder;

    #[test]
    fn summary_quantities() {
        let mut b = InstanceBuilder::new(10);
        b.add(0, 10, 5);
        b.add(0, 10, 5);
        let inst = b.build().unwrap();
        let trace = simulate_validated(&inst, &mut FirstFit::new());
        let s = summarize(&inst, &trace);
        // One bin, perfectly packed for 10 ticks.
        assert_eq!(s.total_cost_ticks, 10);
        assert_eq!(s.bins_used, 1);
        assert_eq!(s.max_open_bins, 1);
        assert_eq!(s.opt_lower_bound, Ratio::from_int(10));
        assert_eq!(s.ratio_vs_lower_bound, Ratio::ONE);
        assert_eq!(s.mean_utilization, Ratio::ONE);
    }

    #[test]
    fn fleet_stats_on_simple_staircase() {
        // Two overlapping bins: counts 1 (10 ticks), 2 (10 ticks), 1 (10).
        let mut b = InstanceBuilder::new(10);
        b.add(0, 20, 8);
        b.add(10, 30, 8);
        let inst = b.build().unwrap();
        let trace = simulate_validated(&inst, &mut FirstFit::new());
        let f = fleet_stats(&trace).unwrap();
        assert_eq!(f.max_open, 2);
        assert!((f.mean_open - 40.0 / 30.0).abs() < 1e-12);
        assert_eq!(f.p50_open, 1);
        assert_eq!(f.p95_open, 2);
        assert_eq!(f.min_bin_life, 20);
        assert_eq!(f.max_bin_life, 20);
        assert!((f.mean_bin_life - 20.0).abs() < 1e-12);
    }

    #[test]
    fn fleet_stats_none_on_empty_trace() {
        let inst = crate::instance::Instance::new(crate::item::Size(5), vec![]).unwrap();
        let trace = simulate_validated(&inst, &mut FirstFit::new());
        assert_eq!(fleet_stats(&trace), None);
    }

    #[test]
    fn utilization_reflects_waste() {
        let mut b = InstanceBuilder::new(10);
        b.add(0, 10, 5); // alone in its bin: 50% utilization
        let inst = b.build().unwrap();
        let trace = simulate_validated(&inst, &mut FirstFit::new());
        let s = summarize(&inst, &trace);
        assert_eq!(s.mean_utilization, Ratio::new(1, 2));
        assert_eq!(s.ratio_vs_lower_bound, Ratio::ONE); // span LB dominates
    }
}
