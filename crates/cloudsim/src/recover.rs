//! Dispatcher crash recovery for [`ResilientSystem`] runs.
//!
//! A resilient run is *fully deterministic*: given the same workload, fault
//! plan, and dispatcher, it takes byte-identical decisions and emits a
//! byte-identical event stream (see the determinism notes in
//! [`faults`](crate::faults)). That turns crash recovery into replayed
//! re-execution: when the dispatcher process dies mid-run with a journaled
//! event prefix on disk, [`ResilientSystem::recover_probed`] re-executes
//! the run from scratch under the one recovery verifier,
//! [`VerifyProbe`] — the same one fault-free engine journals recover
//! through — which checks each emitted event against the journal (any
//! divergence means the journal belongs to a different plan, workload, or
//! dispatcher and recovery refuses to continue) and forwards only the
//! **post-prefix** events to the caller's probe. The
//! journal prefix plus the forwarded continuation is byte-identical to an
//! uninterrupted run's stream, and orphaned sessions are re-dispatched
//! exactly as the original run would have (the re-execution takes the same
//! decisions, so no orphan's fate can change). Like the run itself,
//! recovery is generic over the demand type: a vector run's journal
//! recovers the same way.

use crate::faults::{ResilientReport, ResilientSystem};
use dbp_core::demand::Demand;
use dbp_core::instance::GInstance;
use dbp_core::packer::BinSelector;
use dbp_core::probe::{GProbeEvent, Probe, VerifyProbe};

/// Result of a successful [`ResilientSystem::recover_probed`] call.
#[derive(Debug)]
pub struct RecoveryOutcome {
    /// The full-run report, identical to an uninterrupted run's.
    pub report: ResilientReport,
    /// Journaled events verified against the re-execution.
    pub events_replayed: usize,
    /// Post-prefix events forwarded to the caller's probe.
    pub events_appended: u64,
}

impl ResilientSystem {
    /// Recover a crashed resilient run from its journaled event prefix.
    ///
    /// Re-executes the run deterministically, verifying every emitted
    /// event against `journaled` and forwarding only the continuation to
    /// `probe` — so appending the forwarded events to the journal yields a
    /// stream byte-identical to an uninterrupted run, and every session
    /// orphaned by in-plan crashes is re-dispatched exactly as the
    /// original run would have.
    ///
    /// # Errors
    /// A capacity mismatch, or any divergence between the journal and the
    /// re-execution (a journal from a different plan, workload, or
    /// dispatcher). Never panics on foreign journals.
    pub fn recover_probed<Sz: Demand, S: BinSelector<Sz> + ?Sized, P: Probe<Sz>>(
        &self,
        requests: &GInstance<Sz>,
        dispatcher: &mut S,
        probe: &mut P,
        journaled: &[GProbeEvent<Sz>],
    ) -> Result<RecoveryOutcome, String> {
        let mut verify = VerifyProbe::new(journaled, probe);
        let report = self
            .run_probed(requests, dispatcher, &mut verify)
            .map_err(|e| e.to_string())?;
        let (events_replayed, events_appended) = verify.finish()?;
        Ok(RecoveryOutcome {
            report,
            events_replayed,
            events_appended,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::faults::{FaultConfig, FaultPlan};
    use crate::system::GamingSystem;
    use dbp_core::prelude::*;
    use dbp_obs::EventLog;
    use dbp_workloads::{generate, CloudGamingConfig};

    fn setup() -> (Instance, ResilientSystem) {
        let inst = generate(&CloudGamingConfig {
            horizon: 2400,
            seed: 21,
            ..CloudGamingConfig::default()
        });
        let plan = FaultPlan::generate(77, 2400, 8, &FaultConfig::moderate());
        (
            inst,
            ResilientSystem::new(GamingSystem::paper_model(), plan),
        )
    }

    #[test]
    fn recovery_from_any_prefix_reproduces_report_and_stream() {
        let (inst, sys) = setup();
        let mut full_log = EventLog::new();
        let full = sys
            .run_probed(&inst, &mut FirstFit::new(), &mut full_log)
            .unwrap();
        let events = full_log.into_events();
        assert!(full.crashes > 0, "fault plan must exercise recovery");
        for cut in [0, 1, events.len() / 3, events.len() / 2, events.len()] {
            let mut cont = EventLog::new();
            let out = sys
                .recover_probed(&inst, &mut FirstFit::new(), &mut cont, &events[..cut])
                .unwrap_or_else(|e| panic!("cut {cut}: {e}"));
            assert_eq!(out.report, full, "cut {cut}");
            assert_eq!(out.events_replayed, cut);
            assert_eq!(out.events_appended as usize, events.len() - cut);
            let mut combined = events[..cut].to_vec();
            combined.extend(cont.into_events());
            assert_eq!(combined, events, "cut {cut}");
        }
    }

    #[test]
    fn recovery_rejects_foreign_journals() {
        let (inst, sys) = setup();
        let mut log = EventLog::new();
        sys.run_probed(&inst, &mut FirstFit::new(), &mut log)
            .unwrap();
        let events = log.into_events();

        // A journal from a different dispatcher diverges, never panics.
        let err = sys
            .recover_probed(&inst, &mut BestFit::new(), &mut EventLog::new(), &events)
            .unwrap_err();
        assert!(err.contains("diverges"), "{err}");

        // A journal from a different fault plan diverges too.
        let other = ResilientSystem::new(
            GamingSystem::paper_model(),
            FaultPlan::generate(78, 2400, 8, &FaultConfig::moderate()),
        );
        let err = other
            .recover_probed(&inst, &mut FirstFit::new(), &mut EventLog::new(), &events)
            .unwrap_err();
        assert!(err.contains("diverges"), "{err}");

        // A journal longer than the run is caught by finish().
        let mut long = events.clone();
        long.extend(events.iter().cloned());
        let err = sys
            .recover_probed(&inst, &mut FirstFit::new(), &mut EventLog::new(), &long)
            .unwrap_err();
        assert!(err.contains("different plan"), "{err}");
    }
}
