//! The cloud gaming system: dispatch playing requests onto rented game
//! servers and account for the rental bill.
//!
//! This is the motivating system of the paper's introduction, built on the
//! `dbp-core` engine: requests are items, game servers are bins, the
//! dispatcher is a [`BinSelector`], and the bill is the MinTotal objective
//! under a [`Granularity`].

use crate::billing::{billed_ticks, rental_cost_cents, Granularity, ServerType};
use dbp_core::demand::Demand;
use dbp_core::engine::simulate_validated;
use dbp_core::instance::{GInstance, Instance};
use dbp_core::packer::BinSelector;
use dbp_core::ratio::Ratio;
use dbp_core::trace::{GPackingTrace, PackingTrace};
use dbp_obs::RunManifest;
use serde::{Deserialize, Serialize};

/// Why a workload could not be dispatched on this system.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DispatchError {
    /// The workload was generated against a different server capacity `W`
    /// than the system's flavor provides.
    CapacityMismatch {
        /// Capacity the workload assumes.
        workload: u64,
        /// Capacity the server flavor provides.
        server: u64,
    },
    /// A [`FaultPlan`](crate::FaultPlan) broke its own contract: crashes
    /// out of tick order, a probability that is NaN or outside `[0, 1]`,
    /// or delays that push an event past the last representable tick.
    BadFaultPlan {
        /// What was wrong.
        message: String,
    },
}

impl std::fmt::Display for DispatchError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DispatchError::CapacityMismatch { workload, server } => write!(
                f,
                "workload capacity {workload} != server capacity {server}"
            ),
            DispatchError::BadFaultPlan { message } => write!(f, "bad fault plan: {message}"),
        }
    }
}

impl std::error::Error for DispatchError {}

/// One dispatch run's report.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct SystemReport {
    /// Dispatcher name.
    pub algorithm: String,
    /// Play sessions served (always all of them — capacity is on demand).
    pub sessions_served: usize,
    /// Distinct servers ever rented.
    pub servers_rented: usize,
    /// Peak simultaneously-running servers.
    pub peak_servers: u32,
    /// Raw busy time in server-seconds (the paper's `A_total` with C = 1).
    pub busy_ticks: u128,
    /// Billed time after granularity rounding, in server-seconds.
    pub billed_ticks: u128,
    /// Rental bill in cents, exactly.
    pub cost_cents: Ratio,
    /// Mean GPU utilization of rented (busy) time, in `[0, 1]`.
    pub utilization: Ratio,
    /// Provenance of the run: instance digest, wall time, peak RSS.
    pub manifest: Option<RunManifest>,
}

impl SystemReport {
    /// Bill in dollars (lossy, for display).
    pub fn cost_dollars(&self) -> f64 {
        self.cost_cents.to_f64() / 100.0
    }
}

/// The simulated service: a server flavor, a billing granularity, and a
/// dispatch policy applied to a request trace.
#[derive(Debug, Clone, Copy)]
pub struct GamingSystem {
    /// Server flavor rented for every game server.
    pub server: ServerType,
    /// Billing granularity of the provider.
    pub granularity: Granularity,
}

impl GamingSystem {
    /// System with the default GPU VM and the paper's per-tick billing.
    pub fn paper_model() -> GamingSystem {
        GamingSystem {
            server: ServerType::default_gpu_vm(),
            granularity: Granularity::PerTick,
        }
    }

    /// EC2-style hourly billing on the same VM.
    pub fn hourly_model() -> GamingSystem {
        GamingSystem {
            server: ServerType::default_gpu_vm(),
            granularity: Granularity::PerHour,
        }
    }

    /// Dispatch `requests` with `dispatcher` and account the bill.
    ///
    /// # Errors
    /// Returns [`DispatchError::CapacityMismatch`] if the instance's
    /// capacity does not match the server flavor — the workload must be
    /// generated against the same `W`.
    pub fn run<S: BinSelector + ?Sized>(
        &self,
        requests: &Instance,
        dispatcher: &mut S,
    ) -> Result<(SystemReport, PackingTrace), DispatchError> {
        self.check_capacity(requests)?;
        let started = std::time::Instant::now();
        let trace = simulate_validated(requests, dispatcher);
        let report = self.report(requests, &trace, started.elapsed());
        Ok((report, trace))
    }

    /// The workload must be generated against the server flavor's `W`:
    /// its GPU capacity, component 0 of a vector demand.
    ///
    /// # Errors
    /// [`DispatchError::CapacityMismatch`] when the capacities differ.
    pub fn check_capacity<Sz: Demand>(
        &self,
        requests: &GInstance<Sz>,
    ) -> Result<(), DispatchError> {
        let workload = requests.capacity().component(0);
        if workload != self.server.gpu_capacity {
            return Err(DispatchError::CapacityMismatch {
                workload,
                server: self.server.gpu_capacity,
            });
        }
        Ok(())
    }

    /// The bill of a finished dispatch: `trace` packed `requests` in
    /// `wall` time. Busy and billed ticks, the exact cost and utilization,
    /// and a manifest whose digest covers `requests`.
    pub fn report<Sz: Demand>(
        &self,
        requests: &GInstance<Sz>,
        trace: &GPackingTrace<Sz>,
        wall: std::time::Duration,
    ) -> SystemReport {
        let busy = trace.total_cost_ticks();
        SystemReport {
            algorithm: trace.algorithm.clone(),
            sessions_served: requests.len(),
            servers_rented: trace.bins_used(),
            peak_servers: trace.max_open_bins(),
            busy_ticks: busy,
            billed_ticks: billed_ticks(trace, self.granularity),
            cost_cents: rental_cost_cents(trace, self.server, self.granularity),
            utilization: dbp_core::metrics::utilization(requests, busy),
            manifest: Some(RunManifest::capture(&trace.algorithm, None, requests, wall)),
        }
    }

    /// [`run`](GamingSystem::run), panicking on [`DispatchError`] — for
    /// tests and examples where the capacity is known to match.
    pub fn run_or_panic<S: BinSelector + ?Sized>(
        &self,
        requests: &Instance,
        dispatcher: &mut S,
    ) -> (SystemReport, PackingTrace) {
        self.run(requests, dispatcher)
            .unwrap_or_else(|e| panic!("dispatch failed: {e}"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dbp_core::prelude::*;
    use dbp_workloads::{generate, CloudGamingConfig};

    #[test]
    fn per_tick_bill_equals_busy_time() {
        let cfg = CloudGamingConfig {
            horizon: 1800,
            seed: 5,
            ..CloudGamingConfig::default()
        };
        let inst = generate(&cfg);
        let sys = GamingSystem::paper_model();
        let (report, trace) = sys.run_or_panic(&inst, &mut FirstFit::new());
        assert_eq!(report.busy_ticks, trace.total_cost_ticks());
        assert_eq!(report.billed_ticks, report.busy_ticks);
        assert_eq!(report.sessions_served, inst.len());
        assert!(report.utilization > Ratio::ZERO);
        assert!(report.utilization <= Ratio::ONE);
        let manifest = report.manifest.expect("run attaches a manifest");
        assert_eq!(manifest.algorithm, "FF");
        assert_eq!(manifest.n_items, inst.len() as u64);
        assert_eq!(
            manifest.instance_digest,
            dbp_obs::manifest::instance_digest(&inst)
        );
    }

    #[test]
    fn hourly_bill_dominates_per_tick() {
        let cfg = CloudGamingConfig {
            horizon: 1800,
            seed: 6,
            ..CloudGamingConfig::default()
        };
        let inst = generate(&cfg);
        let (tick_report, _) =
            GamingSystem::paper_model().run_or_panic(&inst, &mut FirstFit::new());
        let (hour_report, _) =
            GamingSystem::hourly_model().run_or_panic(&inst, &mut FirstFit::new());
        assert!(hour_report.billed_ticks >= tick_report.billed_ticks);
        assert!(hour_report.cost_cents >= tick_report.cost_cents);
        // Hourly bill is a whole number of server-hours.
        assert_eq!(hour_report.billed_ticks % 3600, 0);
    }

    #[test]
    fn capacity_mismatch_is_rejected() {
        let mut b = InstanceBuilder::new(10); // != 1000
        b.add(0, 100, 5);
        let inst = b.build().unwrap();
        let err = GamingSystem::paper_model()
            .run(&inst, &mut FirstFit::new())
            .unwrap_err();
        assert_eq!(
            err,
            DispatchError::CapacityMismatch {
                workload: 10,
                server: 1000
            }
        );
        assert!(err.to_string().contains("capacity"));
    }

    #[test]
    #[should_panic(expected = "capacity")]
    fn run_or_panic_still_panics_on_mismatch() {
        let mut b = InstanceBuilder::new(10); // != 1000
        b.add(0, 100, 5);
        let inst = b.build().unwrap();
        let _ = GamingSystem::paper_model().run_or_panic(&inst, &mut FirstFit::new());
    }

    #[test]
    fn dispatcher_choice_changes_the_bill() {
        let cfg = CloudGamingConfig {
            horizon: 3600,
            seed: 7,
            ..CloudGamingConfig::default()
        };
        let inst = generate(&cfg);
        let sys = GamingSystem::paper_model();
        let (ff, _) = sys.run_or_panic(&inst, &mut FirstFit::new());
        let (nf, _) = sys.run_or_panic(&inst, &mut NextFit::new());
        // Next Fit opens servers eagerly; it should never beat FF here and
        // typically loses clearly.
        assert!(nf.cost_cents >= ff.cost_cents);
    }
}
