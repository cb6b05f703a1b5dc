//! Problem 2: binding–obfuscation co-design (Sec. V of the paper).
//!
//! The locked-input identities are now free variables: each locked FU must
//! secure `inputs_per_fu` minterms chosen from a designer-supplied candidate
//! list `C`. [`codesign_optimal`] enumerates every `C(|C|, m)^{|L|}`
//! assignment (exponential but exact); [`codesign_heuristic`] is the paper's
//! P-time sequential heuristic: fix one FU's locked inputs at a time,
//! assuming the not-yet-fixed FUs are unlocked.
//!
//! Both searches score configurations through an incremental
//! [`ErrorSweep`] rather than a cold binding solve per configuration. The
//! optimal search walks the `C(|C|, m)^{|L|}` product in *Gray-code order*
//! (Knuth 7.2.1.1 Algorithm H), so exactly one FU's combination — hence one
//! warm-started matrix column per cycle — changes per step, and prunes
//! configurations whose certified dual upper bound cannot beat the
//! incumbent (`codesign.combos_pruned`; evaluated + pruned always equals
//! the full product, so the counters audit search exhaustiveness). The
//! selected configuration is *identical* to the legacy first-maximum scan:
//! ties are broken by each configuration's rank in the legacy mixed-radix
//! iteration order. A final cold [`bind_obfuscation_aware`] solve on the
//! winner reproduces the byte-exact legacy binding and spec.

use lockbind_hls::{Allocation, Binding, Dfg, FuId, Minterm, OccurrenceProfile, Schedule};
use lockbind_obs as obs;
use lockbind_resil::CancelToken;

use crate::{
    bind_obfuscation_aware, combinations, expected_application_errors, CoreError, ErrorSweep,
    LockingSpec,
};

/// Guard on the exhaustive search size (binding evaluations).
const OPTIMAL_SEARCH_LIMIT: u128 = 3_000_000;

/// Result of a co-design run: the binding, the chosen locking spec, and its
/// expected application errors (Eqn. 2).
#[derive(Debug, Clone)]
pub struct CoDesignOutcome {
    /// The security-optimized binding.
    pub binding: Binding,
    /// The chosen locked-input assignment.
    pub spec: LockingSpec,
    /// Expected application errors of (binding, spec) over the workload.
    pub errors: u64,
}

fn validate(
    dfg: &Dfg,
    alloc: &Allocation,
    locked_fus: &[FuId],
    inputs_per_fu: usize,
    candidates: &[Minterm],
) -> Result<(), CoreError> {
    for (i, fu) in locked_fus.iter().enumerate() {
        if fu.index >= alloc.count(fu.class) {
            return Err(CoreError::UnknownFu { fu: fu.to_string() });
        }
        if locked_fus[..i].contains(fu) {
            return Err(CoreError::DuplicateFu { fu: fu.to_string() });
        }
    }
    if inputs_per_fu == 0 || inputs_per_fu > candidates.len() {
        return Err(CoreError::NotEnoughCandidates {
            candidates: candidates.len(),
            requested: inputs_per_fu,
        });
    }
    // A minterm packs two `width`-bit operands into `2*width` bits. A wider
    // candidate can never occur on the target FU's inputs, so accepting it
    // would silently lock nothing (zero weight everywhere) — reject up
    // front instead of producing a vacuous lock.
    let width = dfg.width();
    for c in candidates {
        if c.raw() >> (2 * width) != 0 {
            return Err(CoreError::MintermWidthMismatch {
                minterm: c.raw(),
                width,
            });
        }
    }
    Ok(())
}

/// Exhaustive optimal co-design: evaluates obfuscation-aware binding for
/// every combination assignment of candidate locked inputs to locked FUs and
/// returns the best (Sec. V-B claims this maximizes Eqn. 2 exactly).
///
/// # Errors
///
/// Everything [`bind_obfuscation_aware`] can return, plus
/// [`CoreError::NotEnoughCandidates`] and, when the search would exceed
/// ~3M binding evaluations, [`CoreError::SearchSpaceTooLarge`] (use
/// [`codesign_heuristic`] instead).
pub fn codesign_optimal(
    dfg: &Dfg,
    schedule: &Schedule,
    alloc: &Allocation,
    profile: &OccurrenceProfile,
    locked_fus: &[FuId],
    inputs_per_fu: usize,
    candidates: &[Minterm],
) -> Result<CoDesignOutcome, CoreError> {
    codesign_optimal_cancellable(
        dfg,
        schedule,
        alloc,
        profile,
        locked_fus,
        inputs_per_fu,
        candidates,
        &CancelToken::new(),
    )
}

/// [`codesign_optimal`] with a cooperative cancel token, polled once per
/// visited combination assignment (evaluated or pruned).
///
/// # Errors
/// Everything [`codesign_optimal`] can return, plus
/// [`CoreError::Interrupted`] when the token fires mid-search.
#[allow(clippy::too_many_arguments)]
pub fn codesign_optimal_cancellable(
    dfg: &Dfg,
    schedule: &Schedule,
    alloc: &Allocation,
    profile: &OccurrenceProfile,
    locked_fus: &[FuId],
    inputs_per_fu: usize,
    candidates: &[Minterm],
    cancel: &CancelToken,
) -> Result<CoDesignOutcome, CoreError> {
    let _span = obs::span!(
        "codesign.optimal",
        locked_fus = locked_fus.len(),
        candidates = candidates.len()
    );
    validate(dfg, alloc, locked_fus, inputs_per_fu, candidates)?;
    let combos = combinations(candidates.len(), inputs_per_fu);
    let evaluations = (combos.len() as u128)
        .checked_pow(locked_fus.len() as u32)
        .unwrap_or(u128::MAX);
    if evaluations > OPTIMAL_SEARCH_LIMIT {
        return Err(CoreError::SearchSpaceTooLarge {
            evaluations,
            limit: OPTIMAL_SEARCH_LIMIT,
        });
    }

    let l = locked_fus.len();
    let r = combos.len();
    let mut sweep = ErrorSweep::new(
        dfg, schedule, alloc, profile, locked_fus, candidates, &combos,
    )?;
    for k in 0..l {
        sweep.set_slot(k, 0);
    }
    // `rank` is the configuration's index in the legacy mixed-radix scan
    // (digit 0 fastest). The legacy loop kept the *first* maximum, i.e. the
    // lowest-rank argmax — tracking rank lets the Gray-order walk select
    // the identical winner. `evaluations <= OPTIMAL_SEARCH_LIMIT`, so rank
    // and the power table fit comfortably in u64.
    let mut pow = vec![1u64; l];
    for i in 1..l {
        pow[i] = pow[i - 1] * r as u64;
    }
    // Knuth 7.2.1.1 Algorithm H: loopless reflected mixed-radix Gray code.
    // Exactly one digit changes per visit, so each step updates one sweep
    // slot (one matrix column per affected cycle).
    let mut a = vec![0usize; l];
    let mut o = vec![1i8; l];
    let mut f: Vec<usize> = (0..=l).collect();
    let mut rank = 0u64;
    // (errors, legacy rank, digits) of the incumbent.
    let mut best: Option<(u64, u64, Vec<usize>)> = None;
    loop {
        if cancel.is_cancelled() {
            return Err(CoreError::Interrupted {
                stage: "codesign.optimal",
            });
        }
        // Prune when the certified bound cannot beat the incumbent — on an
        // exact tie, only when this configuration would also lose the
        // lowest-rank tie-break.
        let prune = best.as_ref().is_some_and(|&(be, br, _)| {
            let ub = sweep.upper_bound();
            ub < be || (ub == be && rank > br)
        });
        if prune {
            obs::counter!("codesign.combos_pruned").inc();
        } else {
            let errors = sweep.solve_errors()?;
            obs::counter!("codesign.combos_evaluated").inc();
            if best
                .as_ref()
                .is_none_or(|&(be, br, _)| errors > be || (errors == be && rank < br))
            {
                best = Some((errors, rank, a.clone()));
            }
        }
        if r == 1 {
            break; // single combination per slot: one configuration total
        }
        let j = f[0];
        f[0] = 0;
        if j == l {
            break;
        }
        if o[j] > 0 {
            a[j] += 1;
            rank += pow[j];
        } else {
            a[j] -= 1;
            rank -= pow[j];
        }
        sweep.set_slot(j, a[j]);
        if a[j] == 0 || a[j] == r - 1 {
            o[j] = -o[j];
            f[j] = f[j + 1];
            f[j + 1] = j + 1;
        }
    }

    // Re-solve the winner cold: reproduces the legacy binding byte-exactly
    // and double-checks the sweep's score against realized Eqn. 2 errors.
    let (sweep_errors, _, digits) = best.expect("at least one combination evaluated");
    let entries: Vec<(FuId, Vec<Minterm>)> = locked_fus
        .iter()
        .zip(&digits)
        .map(|(&fu, &ci)| (fu, combos[ci].iter().map(|&i| candidates[i]).collect()))
        .collect();
    let spec = LockingSpec::new(alloc, entries)?;
    let binding = bind_obfuscation_aware(dfg, schedule, alloc, profile, &spec)?;
    let errors = expected_application_errors(&binding, profile, &spec);
    debug_assert_eq!(
        errors, sweep_errors,
        "incremental sweep score must equal realized Eqn. 2 errors"
    );
    Ok(CoDesignOutcome {
        binding,
        spec,
        errors,
    })
}

/// The paper's P-time co-design heuristic (Sec. V-A): locked FUs are
/// processed one at a time; for the FU under consideration every candidate
/// combination is evaluated with obfuscation-aware binding (earlier FUs'
/// choices fixed, later FUs unlocked), the best combination is frozen, and
/// the process repeats. A final obfuscation-aware binding over the complete
/// spec produces the result.
///
/// Runs in `O(s |L| |N| |R| log |R|)` for bounded `|C|` — polynomial time.
///
/// # Errors
/// Same as [`codesign_optimal`] minus the search-space guard.
pub fn codesign_heuristic(
    dfg: &Dfg,
    schedule: &Schedule,
    alloc: &Allocation,
    profile: &OccurrenceProfile,
    locked_fus: &[FuId],
    inputs_per_fu: usize,
    candidates: &[Minterm],
) -> Result<CoDesignOutcome, CoreError> {
    codesign_heuristic_cancellable(
        dfg,
        schedule,
        alloc,
        profile,
        locked_fus,
        inputs_per_fu,
        candidates,
        &CancelToken::new(),
    )
}

/// [`codesign_heuristic`] with a cooperative cancel token, polled once per
/// visited candidate combination (evaluated or pruned).
///
/// # Errors
/// Everything [`codesign_heuristic`] can return, plus
/// [`CoreError::Interrupted`] when the token fires mid-search.
#[allow(clippy::too_many_arguments)]
pub fn codesign_heuristic_cancellable(
    dfg: &Dfg,
    schedule: &Schedule,
    alloc: &Allocation,
    profile: &OccurrenceProfile,
    locked_fus: &[FuId],
    inputs_per_fu: usize,
    candidates: &[Minterm],
    cancel: &CancelToken,
) -> Result<CoDesignOutcome, CoreError> {
    let _span = obs::span!(
        "codesign.heuristic",
        locked_fus = locked_fus.len(),
        candidates = candidates.len()
    );
    validate(dfg, alloc, locked_fus, inputs_per_fu, candidates)?;
    let combos = combinations(candidates.len(), inputs_per_fu);

    // One sweep serves every stage: slots before `k` hold their frozen
    // winners, slot `k` varies, slots after `k` stay unlocked (all-zero
    // columns — exactly the legacy "not-yet-fixed FUs absent from the
    // spec"). The warm state carries over between combinations *and*
    // between stages.
    let mut sweep = ErrorSweep::new(
        dfg, schedule, alloc, profile, locked_fus, candidates, &combos,
    )?;
    let mut winners: Vec<usize> = Vec::with_capacity(locked_fus.len());
    let mut stage_best = 0u64;
    for k in 0..locked_fus.len() {
        let mut best: Option<(u64, usize)> = None;
        for ci in 0..combos.len() {
            if cancel.is_cancelled() {
                return Err(CoreError::Interrupted {
                    stage: "codesign.heuristic",
                });
            }
            sweep.set_slot(k, ci);
            // Index order + strictly-greater replacement keeps the first
            // maximum, so a bound that cannot *exceed* the incumbent prunes.
            if let Some((be, _)) = best {
                if sweep.upper_bound() <= be {
                    obs::counter!("codesign.combos_pruned").inc();
                    continue;
                }
            }
            let errors = sweep.solve_errors()?;
            obs::counter!("codesign.combos_evaluated").inc();
            if best.is_none_or(|(e, _)| errors > e) {
                best = Some((errors, ci));
            }
        }
        let (e, ci) = best.expect("combos non-empty");
        sweep.set_slot(k, ci);
        winners.push(ci);
        stage_best = e;
    }

    let entries: Vec<(FuId, Vec<Minterm>)> = locked_fus
        .iter()
        .zip(&winners)
        .map(|(&fu, &ci)| (fu, combos[ci].iter().map(|&i| candidates[i]).collect()))
        .collect();
    let spec = LockingSpec::new(alloc, entries)?;
    let binding = bind_obfuscation_aware(dfg, schedule, alloc, profile, &spec)?;
    let errors = expected_application_errors(&binding, profile, &spec);
    debug_assert_eq!(
        errors,
        if locked_fus.is_empty() { 0 } else { stage_best },
        "final-stage sweep score must equal realized Eqn. 2 errors"
    );
    Ok(CoDesignOutcome {
        binding,
        spec,
        errors,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use lockbind_hls::{schedule_list, FuClass};
    use lockbind_mediabench::Kernel;

    fn setup(kernel: Kernel) -> (Dfg, Schedule, Allocation, OccurrenceProfile, Vec<Minterm>) {
        let b = kernel.benchmark(120, 31);
        let alloc = Allocation::new(3, 3);
        let sched = schedule_list(&b.dfg, &alloc).expect("schedulable");
        let profile = OccurrenceProfile::from_trace(&b.dfg, &b.trace).expect("profiled");
        let adder_ops = b.dfg.ops_of_class(FuClass::Adder);
        let candidates = profile.top_candidates_among(&adder_ops, 6);
        (b.dfg, sched, alloc, profile, candidates)
    }

    #[test]
    fn pre_cancelled_token_interrupts_both_searches() {
        let (dfg, sched, alloc, profile, candidates) = setup(Kernel::Fir);
        let fus = [FuId::new(FuClass::Adder, 0)];
        let token = CancelToken::new();
        token.cancel();
        let opt = codesign_optimal_cancellable(
            &dfg,
            &sched,
            &alloc,
            &profile,
            &fus,
            2,
            &candidates,
            &token,
        )
        .unwrap_err();
        assert_eq!(
            opt,
            CoreError::Interrupted {
                stage: "codesign.optimal"
            }
        );
        let heu = codesign_heuristic_cancellable(
            &dfg,
            &sched,
            &alloc,
            &profile,
            &fus,
            2,
            &candidates,
            &token,
        )
        .unwrap_err();
        assert_eq!(
            heu,
            CoreError::Interrupted {
                stage: "codesign.heuristic"
            }
        );
    }

    #[test]
    fn heuristic_close_to_optimal_single_fu() {
        let (dfg, sched, alloc, profile, candidates) = setup(Kernel::Fir);
        let fus = [FuId::new(FuClass::Adder, 0)];
        let opt = codesign_optimal(&dfg, &sched, &alloc, &profile, &fus, 2, &candidates)
            .expect("searchable");
        let heu = codesign_heuristic(&dfg, &sched, &alloc, &profile, &fus, 2, &candidates)
            .expect("feasible");
        // Single FU: the heuristic IS the optimal search.
        assert_eq!(opt.errors, heu.errors);
        assert!(opt.errors > 0);
    }

    #[test]
    fn heuristic_within_tolerance_of_optimal_two_fus() {
        let (dfg, sched, alloc, profile, candidates) = setup(Kernel::Jdmerge1);
        let fus = [FuId::new(FuClass::Adder, 0), FuId::new(FuClass::Adder, 1)];
        let opt = codesign_optimal(&dfg, &sched, &alloc, &profile, &fus, 2, &candidates)
            .expect("searchable");
        let heu = codesign_heuristic(&dfg, &sched, &alloc, &profile, &fus, 2, &candidates)
            .expect("feasible");
        assert!(heu.errors <= opt.errors);
        // Paper reports <0.5% degradation; allow 5% slack on our stand-ins.
        assert!(
            heu.errors as f64 >= 0.95 * opt.errors as f64,
            "heuristic {} vs optimal {}",
            heu.errors,
            opt.errors
        );
    }

    #[test]
    fn codesign_dominates_fixed_random_choice() {
        let (dfg, sched, alloc, profile, candidates) = setup(Kernel::Motion2);
        let fus = [FuId::new(FuClass::Adder, 1)];
        let heu = codesign_heuristic(&dfg, &sched, &alloc, &profile, &fus, 1, &candidates)
            .expect("feasible");
        // Any fixed candidate choice bound with obf-aware binding is <= the
        // co-design result.
        for &c in &candidates {
            let spec = LockingSpec::new(&alloc, vec![(fus[0], vec![c])]).expect("valid");
            let bind =
                bind_obfuscation_aware(&dfg, &sched, &alloc, &profile, &spec).expect("feasible");
            let e = expected_application_errors(&bind, &profile, &spec);
            assert!(e <= heu.errors);
        }
    }

    /// The legacy exhaustive scan, reproduced verbatim: mixed-radix counter
    /// (digit 0 fastest), one cold binding solve per configuration, first
    /// maximum kept. The Gray-order pruned search must select the identical
    /// configuration.
    fn optimal_reference(
        dfg: &Dfg,
        sched: &Schedule,
        alloc: &Allocation,
        profile: &OccurrenceProfile,
        locked_fus: &[FuId],
        inputs_per_fu: usize,
        candidates: &[Minterm],
    ) -> CoDesignOutcome {
        let combos = combinations(candidates.len(), inputs_per_fu);
        let l = locked_fus.len();
        let mut counter = vec![0usize; l];
        let mut best: Option<CoDesignOutcome> = None;
        loop {
            let entries: Vec<(FuId, Vec<Minterm>)> = locked_fus
                .iter()
                .zip(&counter)
                .map(|(&fu, &ci)| (fu, combos[ci].iter().map(|&i| candidates[i]).collect()))
                .collect();
            let spec = LockingSpec::new(alloc, entries).expect("valid");
            let binding =
                bind_obfuscation_aware(dfg, sched, alloc, profile, &spec).expect("feasible");
            let errors = expected_application_errors(&binding, profile, &spec);
            if best.as_ref().is_none_or(|b| errors > b.errors) {
                best = Some(CoDesignOutcome {
                    binding,
                    spec,
                    errors,
                });
            }
            let mut i = 0;
            loop {
                if i == l {
                    return best.expect("at least one combination evaluated");
                }
                counter[i] += 1;
                if counter[i] < combos.len() {
                    break;
                }
                counter[i] = 0;
                i += 1;
            }
        }
    }

    #[test]
    fn pruned_gray_search_matches_legacy_scan_exactly() {
        for kernel in [Kernel::Fir, Kernel::Jdmerge1, Kernel::Motion2] {
            let (dfg, sched, alloc, profile, candidates) = setup(kernel);
            let fus = [FuId::new(FuClass::Adder, 0), FuId::new(FuClass::Adder, 2)];
            let fast = codesign_optimal(&dfg, &sched, &alloc, &profile, &fus, 2, &candidates)
                .expect("searchable");
            let slow = optimal_reference(&dfg, &sched, &alloc, &profile, &fus, 2, &candidates);
            assert_eq!(fast.errors, slow.errors, "{kernel:?}");
            // Same winner, not merely the same score: spec and binding must
            // be identical so headline artifacts stay byte-stable.
            assert_eq!(fast.spec, slow.spec, "{kernel:?}");
            assert_eq!(fast.binding, slow.binding, "{kernel:?}");
        }
    }

    #[test]
    fn rejects_overwide_minterm_candidates() {
        // Regression: the heuristic used to accept candidates wider than the
        // kernel's 2*width-bit FU input space; they can never occur on any
        // FU's inputs, so every weight is zero and the "lock" is vacuous.
        let (dfg, sched, alloc, profile, mut candidates) = setup(Kernel::Fir);
        assert_eq!(dfg.width(), 8);
        candidates.push(Minterm::pack(0x2a0, 0x11, 12)); // raw needs 22 bits > 16
        let fus = [FuId::new(FuClass::Adder, 0)];
        for result in [
            codesign_heuristic(&dfg, &sched, &alloc, &profile, &fus, 1, &candidates),
            codesign_optimal(&dfg, &sched, &alloc, &profile, &fus, 1, &candidates),
        ] {
            assert!(matches!(
                result,
                Err(CoreError::MintermWidthMismatch { width: 8, .. })
            ));
        }
    }

    #[test]
    fn search_space_guard_trips() {
        let (dfg, sched, alloc, profile, _) = setup(Kernel::Dct);
        // 20 candidates choose 3, ^3 FUs = 1140^3 > 1e9 -> guarded.
        let many: Vec<Minterm> = (0..20).map(|i| Minterm::pack(i, i, 8)).collect();
        let fus = [
            FuId::new(FuClass::Adder, 0),
            FuId::new(FuClass::Adder, 1),
            FuId::new(FuClass::Adder, 2),
        ];
        let err = codesign_optimal(&dfg, &sched, &alloc, &profile, &fus, 3, &many).unwrap_err();
        assert!(matches!(err, CoreError::SearchSpaceTooLarge { .. }));
    }

    #[test]
    fn validation_errors() {
        let (dfg, sched, alloc, profile, candidates) = setup(Kernel::Fir);
        let bad_fu = [FuId::new(FuClass::Adder, 9)];
        assert!(matches!(
            codesign_heuristic(&dfg, &sched, &alloc, &profile, &bad_fu, 1, &candidates),
            Err(CoreError::UnknownFu { .. })
        ));
        let dup = [FuId::new(FuClass::Adder, 0), FuId::new(FuClass::Adder, 0)];
        assert!(matches!(
            codesign_heuristic(&dfg, &sched, &alloc, &profile, &dup, 1, &candidates),
            Err(CoreError::DuplicateFu { .. })
        ));
        let fus = [FuId::new(FuClass::Adder, 0)];
        assert!(matches!(
            codesign_heuristic(&dfg, &sched, &alloc, &profile, &fus, 99, &candidates),
            Err(CoreError::NotEnoughCandidates { .. })
        ));
    }
}
