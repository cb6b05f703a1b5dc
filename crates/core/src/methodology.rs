//! The binding-time logic-locking design methodology (Sec. V-C).
//!
//! A designer sets a target application-error rate and a minimum acceptable
//! SAT-attack effort. Co-design is used to *incrementally tune* the number
//! of locked inputs per FU: because Eqn. 1 ties SAT resilience inversely to
//! the locked-input count, the methodology looks for the configuration that
//! reaches the error target with the **fewest** locked inputs (maximum
//! resilience). If even that configuration falls short of the resilience
//! target, the design must additionally employ an exponential-SAT-runtime
//! scheme (e.g. [`lockbind_locking::lock_permutation`]) — flagged in the
//! outcome rather than silently accepted, since such schemes carry heavy
//! area/power cost (the paper's Full-Lock-on-b14 anecdote).

use lockbind_hls::{Allocation, Dfg, FuId, Minterm, OccurrenceProfile, Schedule};
use lockbind_locking::{epsilon_for_locked_inputs, expected_sat_iterations};
use lockbind_resil::CancelToken;

use crate::{codesign_heuristic, CoDesignOutcome, CoreError};

/// Designer goals for [`design_lock`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DesignGoals {
    /// Minimum expected application errors over the typical workload.
    pub min_application_errors: u64,
    /// Minimum acceptable expected SAT-attack iterations (per locked FU,
    /// analytic via Eqn. 1).
    pub min_sat_iterations: f64,
    /// Upper bound on locked inputs per FU the designer will consider.
    pub max_inputs_per_fu: usize,
}

/// Outcome of the Sec. V-C methodology.
#[derive(Debug, Clone)]
pub struct MethodologyOutcome {
    /// The co-designed binding/locking configuration that met the error
    /// target with the fewest locked inputs.
    pub design: CoDesignOutcome,
    /// Locked inputs per FU in the chosen configuration.
    pub inputs_per_fu: usize,
    /// Analytic expected SAT iterations (Eqn. 1) of the weakest locked FU.
    pub sat_iterations: f64,
    /// `true` if the error target was met but the resilience target was
    /// not: the designer must add an exponential-SAT-runtime scheme (e.g. a
    /// keyed permutation network) on top of the critical-minterm locking.
    pub needs_exponential_scheme: bool,
}

/// Runs the methodology: sweep `inputs_per_fu` from 1 upward, co-design each
/// configuration, and return the first (fewest-locked-inputs, hence most
/// SAT-resilient) configuration meeting the application-error goal.
///
/// The per-FU SAT resilience is evaluated analytically with Eqn. 1 using
/// the critical-minterm key model (`|k| = inputs_per_fu x input_bits` key
/// bits, one correct key) and `ε` from the locked-input count over the FU's
/// `2^input_bits` minterm space.
///
/// # Errors
///
/// [`CoreError::ErrorTargetUnreachable`] if even `max_inputs_per_fu` locked
/// inputs per FU cannot reach the error target, plus anything
/// [`codesign_heuristic`] can return.
pub fn design_lock(
    dfg: &Dfg,
    schedule: &Schedule,
    alloc: &Allocation,
    profile: &OccurrenceProfile,
    locked_fus: &[FuId],
    candidates: &[Minterm],
    goals: &DesignGoals,
) -> Result<MethodologyOutcome, CoreError> {
    let input_bits = 2 * dfg.width();
    let mut best_errors = 0u64;
    for inputs_per_fu in 1..=goals.max_inputs_per_fu.min(candidates.len()) {
        let design = codesign_heuristic(
            dfg,
            schedule,
            alloc,
            profile,
            locked_fus,
            inputs_per_fu,
            candidates,
            &CancelToken::new(),
        )?;
        best_errors = best_errors.max(design.errors);
        if design.errors >= goals.min_application_errors {
            // Weakest-FU resilience: ε grows with the per-FU locked-input
            // count; with identical counts per FU all FUs tie.
            let key_bits = (inputs_per_fu as u32) * input_bits;
            let eps = epsilon_for_locked_inputs(
                // Wrong keys corrupt the protected minterms plus their own
                // restore patterns: ~2x the locked count.
                2 * inputs_per_fu as u64,
                input_bits,
            );
            let sat_iterations = expected_sat_iterations(key_bits.min(1023), 1, eps);
            return Ok(MethodologyOutcome {
                needs_exponential_scheme: sat_iterations < goals.min_sat_iterations,
                design,
                inputs_per_fu,
                sat_iterations,
            });
        }
    }
    Err(CoreError::ErrorTargetUnreachable {
        best: best_errors,
        target: goals.min_application_errors,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use lockbind_hls::{schedule_list, FuClass};
    use lockbind_mediabench::Kernel;

    fn setup() -> (
        Dfg,
        Schedule,
        Allocation,
        OccurrenceProfile,
        Vec<Minterm>,
        Vec<FuId>,
    ) {
        let b = Kernel::Fir.benchmark(200, 17);
        let alloc = Allocation::new(3, 3);
        let sched = schedule_list(&b.dfg, &alloc).expect("schedulable");
        let profile = OccurrenceProfile::from_trace(&b.dfg, &b.trace).expect("profiled");
        let ops = b.dfg.ops_of_class(FuClass::Adder);
        let candidates = profile.top_candidates_among(&ops, 8);
        let fus = vec![FuId::new(FuClass::Adder, 0)];
        (b.dfg, sched, alloc, profile, candidates, fus)
    }

    #[test]
    fn meets_modest_error_target_with_one_input() {
        let (dfg, sched, alloc, profile, candidates, fus) = setup();
        let goals = DesignGoals {
            min_application_errors: 1,
            min_sat_iterations: 10.0,
            max_inputs_per_fu: 3,
        };
        let out = design_lock(&dfg, &sched, &alloc, &profile, &fus, &candidates, &goals)
            .expect("reachable");
        assert_eq!(out.inputs_per_fu, 1);
        assert!(out.design.errors >= 1);
        assert!(out.sat_iterations > 10.0);
        assert!(!out.needs_exponential_scheme);
    }

    #[test]
    fn higher_targets_need_more_inputs() -> Result<(), CoreError> {
        let (dfg, sched, alloc, profile, candidates, fus) = setup();
        let low = design_lock(
            &dfg,
            &sched,
            &alloc,
            &profile,
            &fus,
            &candidates,
            &DesignGoals {
                min_application_errors: 1,
                min_sat_iterations: 1.0,
                max_inputs_per_fu: 6,
            },
        )?;
        // Find a target the 1-input config cannot reach.
        let one_input_errors = low.design.errors;
        let harder = design_lock(
            &dfg,
            &sched,
            &alloc,
            &profile,
            &fus,
            &candidates,
            &DesignGoals {
                min_application_errors: one_input_errors + 1,
                min_sat_iterations: 1.0,
                max_inputs_per_fu: 6,
            },
        );
        match harder {
            Ok(out) => assert!(out.inputs_per_fu > low.inputs_per_fu),
            Err(CoreError::ErrorTargetUnreachable { best, .. }) => {
                assert!(best >= one_input_errors)
            }
            // Any other error is a genuine failure: propagate it instead of
            // panicking so the harness reports it as a normal test error.
            Err(e) => return Err(e),
        }
        Ok(())
    }

    #[test]
    fn unreachable_target_is_reported() {
        let (dfg, sched, alloc, profile, candidates, fus) = setup();
        let goals = DesignGoals {
            min_application_errors: u64::MAX,
            min_sat_iterations: 1.0,
            max_inputs_per_fu: 2,
        };
        let err =
            design_lock(&dfg, &sched, &alloc, &profile, &fus, &candidates, &goals).unwrap_err();
        assert!(matches!(err, CoreError::ErrorTargetUnreachable { .. }));
    }

    #[test]
    fn impossible_resilience_flags_exponential_scheme() {
        let (dfg, sched, alloc, profile, candidates, fus) = setup();
        let goals = DesignGoals {
            min_application_errors: 1,
            min_sat_iterations: 1e30, // beyond any critical-minterm config
            max_inputs_per_fu: 3,
        };
        let out = design_lock(&dfg, &sched, &alloc, &profile, &fus, &candidates, &goals)
            .expect("error target reachable");
        assert!(out.needs_exponential_scheme);
    }
}
