//! # dbp-cloudsim — the motivating system, simulated
//!
//! The paper's introduction frames MinTotal DBP as *request dispatching in
//! cloud gaming*: playing requests must be dispatched to rented game-server
//! VMs, game instances never migrate, and the provider pays for VM rental
//! time. This crate closes the loop from the abstract problem back to that
//! system:
//!
//! * [`billing`] — EC2-style rental billing with per-tick / per-minute /
//!   per-hour granularity (the paper's cost model is the per-tick limit);
//! * [`system`] — [`GamingSystem`]: dispatch a request trace with any
//!   [`BinSelector`] policy and get the exact rental bill, peak fleet size,
//!   and utilization;
//! * [`faults`] — seeded, fully deterministic fault injection:
//!   [`FaultPlan`] (crashes, flaky provisioning, dispatch rejections) and
//!   [`ResilientSystem`], which retries, re-dispatches orphans, and
//!   accounts every dropped or interrupted session. A run is fully
//!   deterministic, so a crashed dispatcher recovers the way every journal
//!   does: [`ResilientSystem::run_probed`] under a
//!   [`VerifyProbe`](dbp_core::probe::VerifyProbe) over the whole journal,
//!   then `finish()`.
//!
//! [`BinSelector`]: dbp_core::packer::BinSelector

//! ```
//! use dbp_cloudsim::GamingSystem;
//! use dbp_core::prelude::*;
//! use dbp_workloads::{generate, CloudGamingConfig};
//!
//! let requests = generate(&CloudGamingConfig { horizon: 1800, ..Default::default() });
//! let (report, _) = GamingSystem::hourly_model()
//!     .run(&requests, &mut FirstFit::new())
//!     .unwrap();
//! assert_eq!(report.sessions_served, requests.len());
//! assert!(report.billed_ticks % 3600 == 0); // whole server-hours
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod billing;
pub mod faults;
pub mod system;

pub use billing::{billed_ticks, rental_cost_cents, Granularity, ServerType, TICKS_PER_HOUR};
pub use faults::{
    AdmissionPolicy, CrashEvent, FaultConfig, FaultPlan, ResilientReport, ResilientSystem,
    RetryPolicy,
};
pub use system::{DispatchError, GamingSystem, SystemReport};
