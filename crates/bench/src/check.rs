//! Check-aware cell support: lint final artifacts with the
//! `lockbind-check` pass suite.
//!
//! Cells cannot afford to lint every candidate assignment inside their hot
//! loops (a sweep evaluates hundreds of thousands of bindings), so when the
//! engine's `--check` mode is on each cell lints one *final* artifact: the
//! representative locked binding of an error cell, the co-designed lock of
//! an impact cell, or the locked netlist of a SAT cell. Failures surface as
//! cell errors carrying [`lockbind_check::CHECK_FAILURE_PREFIX`]. Each one
//! raises the `check.rejected` obs counter once; the pass suite itself
//! counts every diagnostic under `check.code.LBxxxx`.
//!
//! The engine's `--audit` mode works the same way but runs the LB07xx
//! structural-security audit ([`lockbind_check::audit_netlist`]) over the
//! same final locked netlists. Audit *warnings* are a leakage scorecard,
//! not a defect — they feed the `audit.*` obs counters without touching
//! the cell result, so enabling the audit leaves every grid
//! byte-identical. Only error-severity findings (`LB0701`, an unobservable
//! key bit) fail the cell, and count as a rejection.

use lockbind_check::{audit_passed, check_artifact, Artifact, Report};
use lockbind_core::{bind_obfuscation_aware_certified, LockingSpec};
use lockbind_hls::{Binding, Minterm};
use lockbind_netlist::Netlist;

use crate::PreparedKernel;

/// Lints a locked binding end to end: re-derives the certified
/// obfuscation-aware binding for `spec` (exporting fresh dual potentials),
/// then runs the full pass suite over the artifact — DFG, schedule,
/// allocation, binding, occurrence profile, locking spec, candidate list,
/// and the certificate.
///
/// When `binding` is `Some`, the *cell's* binding is linted against the
/// re-derived certificate: the certificate-assignment pass (`LB0406`) then
/// proves the cell's binding *is* the certified Eqn. 3 optimum, not merely
/// that some optimum exists. With `None`, the re-derived binding itself is
/// linted (used where the cell never materializes a single binding, e.g.
/// error cells that sweep many assignments).
///
/// # Errors
/// Returns the check failure message (prefixed with
/// [`lockbind_check::CHECK_FAILURE_PREFIX`]) when any error-severity
/// diagnostic fires, or a rebind error message if the certified solve
/// itself fails.
pub fn lint_locked_binding(
    prepared: &PreparedKernel,
    binding: Option<&Binding>,
    spec: &LockingSpec,
    candidates: &[Minterm],
) -> Result<(), String> {
    let (rebound, certificate) = bind_obfuscation_aware_certified(
        &prepared.dfg,
        &prepared.schedule,
        &prepared.alloc,
        &prepared.profile,
        spec,
    )
    .map_err(|e| format!("check rebind: {e}"))?;
    let binding = binding.unwrap_or(&rebound);
    let artifact = Artifact::new()
        .with_dfg(&prepared.dfg)
        .with_schedule(&prepared.schedule)
        .with_alloc(&prepared.alloc)
        .with_binding(binding)
        .with_profile(&prepared.profile)
        .with_spec(spec)
        .with_candidates(candidates)
        .with_certificate(&certificate);
    finish(check_artifact(&artifact))
}

/// Lints a locked netlist with the netlist-sanity pass (`LB06xx`):
/// acyclicity, output validity, no dead key inputs.
///
/// # Errors
/// Returns the prefixed check failure message when the netlist is rejected.
pub fn lint_netlist(netlist: &Netlist) -> Result<(), String> {
    finish(check_artifact(&Artifact::new().with_netlist(netlist)))
}

/// Runs the LB07xx structural-security audit over a locked netlist.
///
/// Findings are exported as `audit.*` obs counters as a side effect of
/// [`lockbind_check::audit_netlist`]; warning-severity findings are
/// *accepted* (they describe leakage, not brokenness).
///
/// # Errors
/// Returns the prefixed failure message only when an error-severity
/// finding fires (a structurally broken lock, e.g. an unobservable key).
pub fn audit_locked_netlist(netlist: &Netlist) -> Result<(), String> {
    let report = lockbind_check::audit_netlist(netlist);
    if audit_passed(&report) {
        Ok(())
    } else {
        finish(report)
    }
}

/// The one place a check or audit report fails a cell.
fn finish(report: Report) -> Result<(), String> {
    match report.failure_message() {
        Some(message) => {
            lockbind_obs::counter!("check.rejected").inc();
            Err(message)
        }
        None => Ok(()),
    }
}

/// Serialises the unit tests that read `check.rejected` with those that
/// raise it: the obs registry is global to the test process.
#[cfg(test)]
pub(crate) static REJECTIONS: std::sync::Mutex<()> = std::sync::Mutex::new(());

#[cfg(test)]
mod tests {
    use super::*;
    use lockbind_hls::{FuClass, FuId};
    use lockbind_mediabench::Kernel;
    use lockbind_netlist::builders::adder_fu;
    use std::sync::PoisonError;

    fn counter(name: &str) -> u64 {
        lockbind_obs::Registry::global().counter(name).get()
    }

    #[test]
    fn certified_binding_lints_clean() {
        let p = PreparedKernel::new(Kernel::Fir, 40, 5);
        let candidates = p.candidates(FuClass::Adder, 4);
        let spec = LockingSpec::new(
            &p.alloc,
            vec![(FuId::new(FuClass::Adder, 0), candidates[..2].to_vec())],
        )
        .expect("valid spec");
        lint_locked_binding(&p, None, &spec, &candidates).expect("clean");
    }

    #[test]
    fn foreign_binding_is_rejected_with_lb0406() {
        let _serial = REJECTIONS.lock().unwrap_or_else(PoisonError::into_inner);
        let p = PreparedKernel::new(Kernel::Fir, 40, 5);
        let candidates = p.candidates(FuClass::Adder, 4);
        let spec = LockingSpec::new(
            &p.alloc,
            vec![(FuId::new(FuClass::Adder, 0), candidates[..2].to_vec())],
        )
        .expect("valid spec");
        // Swap two same-cycle, same-class ops of the certified optimum:
        // the result is still a legal binding, but its assignment no longer
        // matches the certificate's matching, so LB0406 must fire.
        let (obf, _) =
            bind_obfuscation_aware_certified(&p.dfg, &p.schedule, &p.alloc, &p.profile, &spec)
                .expect("binds");
        let mut fu_of = obf.as_slice().to_vec();
        let (a, b) = p
            .dfg
            .op_ids()
            .flat_map(|a| p.dfg.op_ids().map(move |b| (a, b)))
            .find(|&(a, b)| {
                a != b
                    && p.schedule.cycle(a) == p.schedule.cycle(b)
                    && fu_of[a.index()].class == fu_of[b.index()].class
                    && fu_of[a.index()] != fu_of[b.index()]
            })
            .expect("fir has two concurrent same-class ops on distinct FUs");
        fu_of.swap(a.index(), b.index());
        let swapped = lockbind_hls::Binding::from_assignment(&p.dfg, &p.schedule, &p.alloc, fu_of)
            .expect("swap preserves legality");
        let rejected = counter("check.rejected");
        let err = lint_locked_binding(&p, Some(&swapped), &spec, &candidates)
            .expect_err("swapped binding is not the certified optimum");
        assert_eq!(counter("check.rejected") - rejected, 1, "one rejection");
        assert!(
            err.starts_with(lockbind_check::CHECK_FAILURE_PREFIX),
            "{err}"
        );
        assert!(err.contains("LB0406"), "{err}");
    }

    #[test]
    fn locked_adder_netlist_lints_clean() {
        lint_netlist(&adder_fu(4)).expect("plain adder FU is sane");
    }

    #[test]
    fn a_rejection_counts_once_and_every_code_it_carries() {
        let _serial = REJECTIONS.lock().unwrap_or_else(PoisonError::into_inner);
        let (rejected, inert) = (counter("check.rejected"), counter("check.code.LB0603"));
        // Five inert key inputs are five LB0603 errors, more than the
        // failure message lists.
        let mut netlist = adder_fu(4);
        for _ in 0..5 {
            netlist.add_key();
        }
        let err = lint_netlist(&netlist).expect_err("inert keys are errors");
        assert_eq!(err.matches("[LB0603]").count(), 3, "{err}");
        assert!(err.ends_with("(+2 more)"), "{err}");
        assert_eq!(counter("check.rejected") - rejected, 1, "one rejection");
        assert_eq!(counter("check.code.LB0603") - inert, 5, "every code counts");
    }

    #[test]
    fn audit_accepts_warning_heavy_schemes_and_rejects_orphaned_keys() {
        let _serial = REJECTIONS.lock().unwrap_or_else(PoisonError::into_inner);
        // Every real scheme carries audit warnings (that is the scorecard);
        // none of them should fail a cell.
        let base = adder_fu(4);
        let locked = lockbind_locking::lock_critical_minterms(&base, &[5, 11]).expect("locks");
        audit_locked_netlist(locked.netlist()).expect("warnings never fail cells");

        // An orphaned key input is a genuine structural defect (LB0701).
        let mut broken = base.clone();
        broken.add_key();
        let rejected = counter("check.rejected");
        let err = audit_locked_netlist(&broken).expect_err("orphaned key is an error");
        assert_eq!(counter("check.rejected") - rejected, 1, "one rejection");
        assert!(
            err.starts_with(lockbind_check::CHECK_FAILURE_PREFIX),
            "{err}"
        );
        assert!(err.contains("LB0701"), "{err}");
    }
}
