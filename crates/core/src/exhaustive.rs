//! Exhaustive-search binding reference.
//!
//! Because the Eqn.-2 cost is separable per cycle (Thm. 2's separability
//! argument), enumerating all injective op→FU maps cycle by cycle yields
//! the exact optimum. This is exponential in the per-cycle operation count
//! and exists purely as an independent oracle for validating
//! [`crate::bind_obfuscation_aware`] — the two must always agree.

use lockbind_hls::{Allocation, Binding, Dfg, FuClass, FuId, OccurrenceProfile, Schedule};
use lockbind_resil::CancelToken;

use crate::{CoreError, LockingSpec};

/// Maximum per-cycle operation count the exhaustive search will accept.
const MAX_OPS_PER_CYCLE: usize = 8;

/// Finds the error-maximizing binding by brute force (per-cycle injective
/// enumeration). Agrees with [`crate::bind_obfuscation_aware`] by Thm. 2.
/// `cancel` is polled once per (cycle, FU class) enumeration.
///
/// # Errors
///
/// * [`CoreError::SearchSpaceTooLarge`] if some cycle schedules more than 8
///   operations of one class,
/// * [`CoreError::Interrupted`] when the token fires mid-search,
/// * the usual spec/allocation errors.
pub fn bind_exhaustive(
    dfg: &Dfg,
    schedule: &Schedule,
    alloc: &Allocation,
    profile: &OccurrenceProfile,
    spec: &LockingSpec,
    cancel: &CancelToken,
) -> Result<Binding, CoreError> {
    for fu in spec.locked_fus() {
        if fu.index >= alloc.count(fu.class) {
            return Err(CoreError::UnknownFu { fu: fu.to_string() });
        }
    }
    let mut fu_of = vec![FuId::new(FuClass::Adder, 0); dfg.num_ops()];
    for t in 0..schedule.num_cycles() {
        for class in FuClass::ALL {
            let ops = schedule.class_ops_in_cycle(dfg, class, t);
            if ops.is_empty() {
                continue;
            }
            if cancel.is_cancelled() {
                return Err(CoreError::Interrupted {
                    stage: "bind.exhaustive",
                });
            }
            if ops.len() > MAX_OPS_PER_CYCLE {
                return Err(CoreError::SearchSpaceTooLarge {
                    evaluations: (alloc.count(class) as u128).pow(ops.len() as u32),
                    limit: (alloc.count(class) as u128).pow(MAX_OPS_PER_CYCLE as u32),
                });
            }
            let fus = alloc.count(class);
            if ops.len() > fus {
                return Err(CoreError::Matching(
                    lockbind_matching::MatchingError::MoreRowsThanCols {
                        rows: ops.len(),
                        cols: fus,
                    },
                ));
            }
            // Enumerate injective assignments recursively.
            let mut best: Option<(u64, Vec<usize>)> = None;
            let mut current = vec![usize::MAX; ops.len()];
            let mut used = vec![false; fus];
            enumerate(
                &ops,
                0,
                fus,
                &mut current,
                &mut used,
                &mut best,
                &mut |assign: &[usize]| {
                    ops.iter()
                        .zip(assign)
                        .map(|(&op, &f)| {
                            spec.minterms_of(FuId::new(class, f))
                                .map(|ms| profile.count_sum(op, ms))
                                .unwrap_or(0)
                        })
                        .sum()
                },
            );
            let (_, assign) = best.expect("at least one assignment");
            for (i, &op) in ops.iter().enumerate() {
                fu_of[op.index()] = FuId::new(class, assign[i]);
            }
        }
    }
    Ok(Binding::from_assignment(dfg, schedule, alloc, fu_of)?)
}

fn enumerate(
    ops: &[lockbind_hls::OpId],
    depth: usize,
    fus: usize,
    current: &mut Vec<usize>,
    used: &mut Vec<bool>,
    best: &mut Option<(u64, Vec<usize>)>,
    score: &mut impl FnMut(&[usize]) -> u64,
) {
    if depth == ops.len() {
        let s = score(current);
        if best.as_ref().is_none_or(|(b, _)| s > *b) {
            *best = Some((s, current.clone()));
        }
        return;
    }
    for f in 0..fus {
        if used[f] {
            continue;
        }
        used[f] = true;
        current[depth] = f;
        enumerate(ops, depth + 1, fus, current, used, best, score);
        used[f] = false;
    }
    current[depth] = usize::MAX;
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{bind_obfuscation_aware, expected_application_errors};
    use lockbind_hls::schedule_list;
    use lockbind_mediabench::Kernel;

    #[test]
    fn agrees_with_matching_on_every_kernel() {
        for kernel in Kernel::ALL {
            let b = kernel.benchmark(60, 3);
            let (_, muls) = b.dfg.op_mix();
            let alloc = Allocation::new(3, if muls > 0 { 3 } else { 0 });
            let schedule = schedule_list(&b.dfg, &alloc).expect("schedulable");
            let profile = OccurrenceProfile::from_trace(&b.dfg, &b.trace).expect("profiled");
            for class in FuClass::ALL {
                let ops = b.dfg.ops_of_class(class);
                if ops.is_empty() {
                    continue;
                }
                let candidates = profile.top_candidates_among(&ops, 3);
                let spec = LockingSpec::new(
                    &alloc,
                    vec![
                        (FuId::new(class, 0), candidates.clone()),
                        (FuId::new(class, 2), candidates[..1].to_vec()),
                    ],
                )
                .expect("valid");
                let fast = bind_obfuscation_aware(&b.dfg, &schedule, &alloc, &profile, &spec)
                    .expect("feasible");
                let slow = bind_exhaustive(
                    &b.dfg,
                    &schedule,
                    &alloc,
                    &profile,
                    &spec,
                    &CancelToken::new(),
                )
                .expect("feasible");
                assert_eq!(
                    expected_application_errors(&fast, &profile, &spec),
                    expected_application_errors(&slow, &profile, &spec),
                    "{kernel}/{class}: Hungarian and exhaustive optima differ"
                );
            }
        }
    }

    #[test]
    fn pre_cancelled_token_interrupts_the_search() {
        let b = Kernel::Fir.benchmark(60, 3);
        let alloc = Allocation::new(3, 3);
        let schedule = schedule_list(&b.dfg, &alloc).expect("schedulable");
        let profile = OccurrenceProfile::from_trace(&b.dfg, &b.trace).expect("profiled");
        let token = CancelToken::new();
        token.cancel();
        let err = bind_exhaustive(
            &b.dfg,
            &schedule,
            &alloc,
            &profile,
            &LockingSpec::unlocked(),
            &token,
        )
        .unwrap_err();
        assert_eq!(
            err,
            CoreError::Interrupted {
                stage: "bind.exhaustive"
            }
        );
    }

    #[test]
    fn guard_trips_on_wide_cycles() {
        use lockbind_hls::{schedule_asap, Dfg, OpKind};
        let mut d = Dfg::new(4);
        let a = d.input("a");
        let ops: Vec<_> = (0..10).map(|_| d.op(OpKind::Add, a, a)).collect();
        d.mark_output(ops[0]);
        let sched = schedule_asap(&d); // all 10 in cycle 0
        let alloc = Allocation::new(10, 0);
        let trace = lockbind_hls::Trace::from_frames(vec![vec![1]; 2]);
        let profile = OccurrenceProfile::from_trace(&d, &trace).expect("profiled");
        let err = bind_exhaustive(
            &d,
            &sched,
            &alloc,
            &profile,
            &LockingSpec::unlocked(),
            &CancelToken::new(),
        )
        .unwrap_err();
        assert!(matches!(err, CoreError::SearchSpaceTooLarge { .. }));
    }
}
