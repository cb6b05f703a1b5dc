//! Problem 1: obfuscation-aware binding (Sec. IV of the paper).

use lockbind_hls::{Allocation, Binding, Dfg, FuClass, FuId, OccurrenceProfile, OpId, Schedule};
use lockbind_matching::{
    max_weight_matching, max_weight_matching_certified, verify_dual_certificate, DualCertificate,
    Matching, WeightMatrix,
};
use lockbind_obs as obs;

use crate::{CoreError, LockingSpec};

/// The Eqn. 3 weight matrix for one clock cycle: rows are the concurrent
/// operations `ops`, columns the class FUs `fus`, and entry `(i, j)` is
/// `Σ_{m ∈ M_j} K[m, i]` (zero for unlocked FUs).
///
/// Shared between the binding algorithms and `lockbind-check`'s
/// matching-optimality pass, which must rebuild the *identical* matrix to
/// verify a dual certificate against it.
pub fn obf_weight_matrix(
    ops: &[OpId],
    fus: &[FuId],
    profile: &OccurrenceProfile,
    spec: &LockingSpec,
) -> WeightMatrix {
    WeightMatrix::from_fn(ops.len(), fus.len(), |r, c| {
        let w = spec
            .minterms_of(fus[c])
            .map(|ms| profile.count_sum(ops[r], ms))
            .unwrap_or(0);
        Some(i64::try_from(w).unwrap_or(i64::MAX / 8))
    })
}

/// The certified matching of one `(cycle, class)` assignment subproblem:
/// which ops met which FUs, the solver's assignment, and the LP dual
/// potentials proving it optimal for the Eqn. 3 weights.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CycleCert {
    /// The clock cycle this matching covers.
    pub cycle: u32,
    /// The FU class bound in this subproblem.
    pub class: FuClass,
    /// Row order of the weight matrix: concurrent ops of `class` in `cycle`.
    pub ops: Vec<OpId>,
    /// Column order of the weight matrix: the allocated FUs of `class`.
    pub fus: Vec<FuId>,
    /// The solver's assignment (row index → column index) and total weight.
    pub matching: Matching,
    /// Dual potentials certifying the assignment is max-weight (Thm. 2).
    pub certificate: DualCertificate,
}

/// Per-cycle dual certificates for a full obfuscation-aware binding — one
/// [`CycleCert`] per non-empty `(cycle, class)` subproblem, in solve order.
///
/// Because cycles are independent (Thm. 2 separability), verifying every
/// per-cycle certificate proves the whole binding achieves the Eqn. 3
/// global max-weight optimum.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct BindingCertificate {
    /// One entry per non-empty `(cycle, class)` subproblem, in `(cycle,
    /// class)` order.
    pub cycles: Vec<CycleCert>,
}

/// Binds every operation to an FU so that the expected application errors of
/// the given locking configuration (Eqn. 2) are maximized.
///
/// Per clock cycle `t` and FU class, a complete weighted bipartite graph is
/// built between the concurrent operations `N_t` and the allocated FUs, with
/// edge weight `w_{i,j} = Σ_{m ∈ M_i} K[m, j]` (Eqn. 3; zero for unlocked
/// FUs), and solved with a max-weight matching. Cycles are independent
/// (separability), so the per-cycle optima compose into the global optimum
/// (Thm. 2), and every operation ends up on exactly one class-compatible FU
/// (Thm. 1).
///
/// Runs in `O(s · |N| · |R| log |R|)` — polynomial time.
///
/// # Errors
///
/// * [`CoreError::UnknownFu`] if the spec references an unallocated FU,
/// * [`CoreError::Matching`] if some cycle has more concurrent operations of
///   a class than allocated FUs (infeasible allocation),
/// * [`CoreError::Hls`] if the resulting assignment fails validation
///   (unreachable for feasible inputs; kept as a defensive check).
pub fn bind_obfuscation_aware(
    dfg: &Dfg,
    schedule: &Schedule,
    alloc: &Allocation,
    profile: &OccurrenceProfile,
    spec: &LockingSpec,
) -> Result<Binding, CoreError> {
    // Per-combination scoring goes through `ErrorSweep`, so a full bind
    // runs only a few hundred times per headline sweep: one span each.
    obs::counter!("bind.obf_aware.calls").inc();
    let _span = obs::span!("bind.obf_aware");
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
            let fus: Vec<FuId> = (0..alloc.count(class))
                .map(|i| FuId::new(class, i))
                .collect();
            let weights = obf_weight_matrix(&ops, &fus, profile, spec);
            let matching = max_weight_matching(&weights)?;
            for (r, &c) in matching.row_to_col.iter().enumerate() {
                fu_of[ops[r].index()] = fus[c];
            }
        }
    }
    Ok(Binding::from_assignment(dfg, schedule, alloc, fu_of)?)
}

/// [`bind_obfuscation_aware`], additionally returning per-cycle dual
/// certificates that prove each matching achieved the Eqn. 3 max-weight
/// optimum (see [`BindingCertificate`]).
///
/// Produces the *identical* binding to [`bind_obfuscation_aware`] (the
/// certified solver is the same solve; it only also exports its final
/// potentials). In debug builds every certificate is verified on the spot;
/// release builds leave verification to `lockbind-check`.
///
/// # Errors
///
/// Same conditions as [`bind_obfuscation_aware`].
pub fn bind_obfuscation_aware_certified(
    dfg: &Dfg,
    schedule: &Schedule,
    alloc: &Allocation,
    profile: &OccurrenceProfile,
    spec: &LockingSpec,
) -> Result<(Binding, BindingCertificate), CoreError> {
    obs::counter!("bind.obf_aware.certified_calls").inc();
    let _span = obs::span!("bind.obf_aware.certified");
    for fu in spec.locked_fus() {
        if fu.index >= alloc.count(fu.class) {
            return Err(CoreError::UnknownFu { fu: fu.to_string() });
        }
    }

    let mut fu_of = vec![FuId::new(FuClass::Adder, 0); dfg.num_ops()];
    let mut cycles = Vec::new();
    for t in 0..schedule.num_cycles() {
        for class in FuClass::ALL {
            let ops = schedule.class_ops_in_cycle(dfg, class, t);
            if ops.is_empty() {
                continue;
            }
            let fus: Vec<FuId> = (0..alloc.count(class))
                .map(|i| FuId::new(class, i))
                .collect();
            let weights = obf_weight_matrix(&ops, &fus, profile, spec);
            let certified = max_weight_matching_certified(&weights)?;
            debug_assert!(
                verify_dual_certificate(&weights, &certified.matching, &certified.certificate)
                    .is_ok(),
                "solver emitted an unverifiable certificate (cycle {t}, class {class})"
            );
            for (r, &c) in certified.matching.row_to_col.iter().enumerate() {
                fu_of[ops[r].index()] = fus[c];
            }
            cycles.push(CycleCert {
                cycle: t,
                class,
                ops,
                fus,
                matching: certified.matching,
                certificate: certified.certificate,
            });
        }
    }
    let binding = Binding::from_assignment(dfg, schedule, alloc, fu_of)?;
    Ok((binding, BindingCertificate { cycles }))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expected_application_errors;
    use lockbind_hls::binding::bind_naive;
    use lockbind_hls::{schedule_asap, Minterm, OpKind, Trace};

    /// Builds the paper's Fig. 2 scenario: 5 add ops over 2 cycles, 3 FUs,
    /// FU1 locks 'x' = (6,0), FU2 locks 'y' = (9,0); hand-crafted trace
    /// reproduces the occurrence table of the figure.
    fn fig2() -> (Dfg, Schedule, Allocation, OccurrenceProfile, LockingSpec) {
        let mut d = Dfg::new(4);
        // 10 inputs, one per operand, so each op's minterm stream is
        // directly controlled by the trace.
        let ins: Vec<_> = (0..10).map(|i| d.input(format!("i{i}"))).collect();
        let opa = d.op(OpKind::Add, ins[0], ins[1]);
        let opb = d.op(OpKind::Add, ins[2], ins[3]);
        // Make OPC..OPE depend on cycle-0 results to pin them to cycle 1.
        let opc = d.op(OpKind::Add, opa.into(), ins[4]);
        let opd = d.op(OpKind::Add, opb.into(), ins[5]);
        let ope = d.op(OpKind::Add, opa.into(), ins[6]);
        for o in [opc, opd, ope] {
            d.mark_output(o);
        }
        let sched = schedule_asap(&d);
        assert_eq!(sched.num_cycles(), 2);
        let alloc = Allocation::new(3, 0);

        // Occurrence targets from Fig. 2 (x, y per op):
        // OPA: 6,9  OPB: 4,3  OPC: 3,7  OPD: 0,0  OPE: 10,8
        // Encode x as minterm (1,1) and y as (2,2); ops see those pairs only
        // when the trace sets their operands accordingly. Operand values of
        // dependent ops are results; to keep control we only count direct
        // operand pairs: choose input values so that desired (1,1)/(2,2)
        // pairs appear at each op the right number of times. Simpler: build
        // the profile by hand through a synthetic trace on a *flat* DFG is
        // messy — instead we check the algorithm's choices on cycle-0 ops
        // whose operands are trace-controlled, plus totals.
        let x = Minterm::pack(1, 1, 4);
        let y = Minterm::pack(2, 2, 4);
        let mut frames = Vec::new();
        // OPA applies x 6 times: set (i0,i1) = (1,1) in 6 frames.
        // OPA applies y 9 times: (2,2) in 9 frames. OPB x 4 times, y 3 times.
        for f in 0..22 {
            let mut frame = vec![0u64; 10];
            if f < 6 {
                frame[0] = 1;
                frame[1] = 1;
            } else if f < 15 {
                frame[0] = 2;
                frame[1] = 2;
            }
            if f < 4 {
                frame[2] = 1;
                frame[3] = 1;
            } else if f < 7 {
                frame[2] = 2;
                frame[3] = 2;
            }
            frames.push(frame);
        }
        let trace = Trace::from_frames(frames);
        let profile = OccurrenceProfile::from_trace(&d, &trace).expect("profiled");
        assert_eq!(profile.count(opa, x), 6);
        assert_eq!(profile.count(opa, y), 9);
        assert_eq!(profile.count(opb, x), 4);
        assert_eq!(profile.count(opb, y), 3);

        let fu1 = FuId::new(FuClass::Adder, 0);
        let fu2 = FuId::new(FuClass::Adder, 1);
        let spec = LockingSpec::new(&alloc, vec![(fu1, vec![x]), (fu2, vec![y])]).expect("valid");
        (d, sched, alloc, profile, spec)
    }

    #[test]
    fn fig2_cycle0_matching_matches_paper() {
        let (d, sched, alloc, profile, spec) = fig2();
        let bind = bind_obfuscation_aware(&d, &sched, &alloc, &profile, &spec).expect("feasible");
        // Paper: OPA -> FU2 (weight 9), OPB -> FU1 (weight 4), cost 13.
        let mut ids = d.op_ids();
        let opa = ids.next().expect("op 0");
        let opb = ids.next().expect("op 1");
        assert_eq!(bind.fu(opa), FuId::new(FuClass::Adder, 1));
        assert_eq!(bind.fu(opb), FuId::new(FuClass::Adder, 0));
    }

    #[test]
    fn dominates_naive_binding() {
        let (d, sched, alloc, profile, spec) = fig2();
        let obf = bind_obfuscation_aware(&d, &sched, &alloc, &profile, &spec).expect("feasible");
        let naive = bind_naive(&d, &sched, &alloc).expect("feasible");
        let e_obf = expected_application_errors(&obf, &profile, &spec);
        let e_naive = expected_application_errors(&naive, &profile, &spec);
        assert!(e_obf >= e_naive, "obf {e_obf} < naive {e_naive}");
        assert!(e_obf >= 13, "cycle-0 contribution alone is 13");
    }

    #[test]
    fn optimality_vs_exhaustive_on_small_dfg() {
        let (d, sched, alloc, profile, spec) = fig2();
        let obf = bind_obfuscation_aware(&d, &sched, &alloc, &profile, &spec).expect("feasible");
        let best_obf = expected_application_errors(&obf, &profile, &spec);

        // Exhaustive: enumerate all valid bindings (3 FUs, ops per cycle
        // <= 3) by per-cycle permutations.
        let mut best = 0u64;
        let cyc0 = sched.class_ops_in_cycle(&d, FuClass::Adder, 0);
        let cyc1 = sched.class_ops_in_cycle(&d, FuClass::Adder, 1);
        let fus: Vec<FuId> = (0..3).map(|i| FuId::new(FuClass::Adder, i)).collect();
        let perms3 = |k: usize| -> Vec<Vec<usize>> {
            // all injective maps from k ops into 3 fus
            let mut out = Vec::new();
            for a in 0..3 {
                for b in 0..3 {
                    for c in 0..3 {
                        let sel = [a, b, c];
                        let sel = &sel[..k];
                        let mut seen = [false; 3];
                        if sel.iter().all(|&i| {
                            let fresh = !seen[i];
                            seen[i] = true;
                            fresh
                        }) {
                            out.push(sel.to_vec());
                        }
                    }
                }
            }
            out
        };
        for p0 in perms3(cyc0.len()) {
            for p1 in perms3(cyc1.len()) {
                let mut fu_of = vec![FuId::new(FuClass::Adder, 0); d.num_ops()];
                for (i, &op) in cyc0.iter().enumerate() {
                    fu_of[op.index()] = fus[p0[i]];
                }
                for (i, &op) in cyc1.iter().enumerate() {
                    fu_of[op.index()] = fus[p1[i]];
                }
                let bind = Binding::from_assignment(&d, &sched, &alloc, fu_of)
                    .expect("valid by construction");
                best = best.max(expected_application_errors(&bind, &profile, &spec));
            }
        }
        assert_eq!(best_obf, best, "matching must equal exhaustive optimum");
    }

    #[test]
    fn certified_binding_matches_uncertified_and_verifies() {
        let (d, sched, alloc, profile, spec) = fig2();
        let plain = bind_obfuscation_aware(&d, &sched, &alloc, &profile, &spec).expect("feasible");
        let (bind, cert) = bind_obfuscation_aware_certified(&d, &sched, &alloc, &profile, &spec)
            .expect("feasible");
        assert_eq!(plain, bind);
        // One non-empty (cycle, class) subproblem per cycle (adders only).
        assert_eq!(cert.cycles.len(), 2);
        for cc in &cert.cycles {
            let weights = obf_weight_matrix(&cc.ops, &cc.fus, &profile, &spec);
            verify_dual_certificate(&weights, &cc.matching, &cc.certificate)
                .expect("per-cycle certificate verifies");
            // The certificate's assignment is the binding's.
            for (r, &c) in cc.matching.row_to_col.iter().enumerate() {
                assert_eq!(bind.fu(cc.ops[r]), cc.fus[c]);
            }
        }
    }

    #[test]
    fn rejects_unknown_locked_fu() {
        let (d, sched, alloc, profile, _) = fig2();
        let bad = LockingSpec::new(
            &Allocation::new(9, 0),
            vec![(FuId::new(FuClass::Adder, 7), vec![])],
        )
        .expect("valid for bigger alloc");
        let err = bind_obfuscation_aware(&d, &sched, &alloc, &profile, &bad).unwrap_err();
        assert!(matches!(err, CoreError::UnknownFu { .. }));
    }

    #[test]
    fn infeasible_allocation_reports_matching_error() {
        let (d, sched, _, profile, _) = fig2();
        let tight = Allocation::new(1, 0);
        let spec = LockingSpec::unlocked();
        let err = bind_obfuscation_aware(&d, &sched, &tight, &profile, &spec).unwrap_err();
        assert!(matches!(err, CoreError::Matching(_)));
    }
}
