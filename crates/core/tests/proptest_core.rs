//! Property-based validation of the security-aware binding algorithms on
//! random DFGs, traces, and locking configurations.

use lockbind_core::{
    bind_obfuscation_aware, bind_random, expected_application_errors, CoDesignProblem, LockingSpec,
};
use lockbind_hls::{
    bind_naive, schedule_asap, Allocation, Dfg, FuClass, FuId, Minterm, OccurrenceProfile, OpKind,
    Trace, ValueRef,
};
use lockbind_resil::CancelToken;
use proptest::prelude::*;

/// Random layered DFG of adds (single class keeps specs simple) plus a
/// random trace.
fn scenario() -> impl Strategy<Value = (Dfg, Trace)> {
    (2..5usize, 2..5usize, 1..30usize, any::<u64>()).prop_map(
        |(width_ops, layers, frames, seed)| {
            let mut d = Dfg::new(5);
            let inputs: Vec<ValueRef> = (0..width_ops + 1)
                .map(|i| d.input(format!("x{i}")))
                .collect();
            let mut prev: Vec<ValueRef> = (0..width_ops)
                .map(|i| ValueRef::Op(d.op(OpKind::Add, inputs[i], inputs[i + 1])))
                .collect();
            for l in 1..layers {
                prev = (0..width_ops)
                    .map(|i| ValueRef::Op(d.op(OpKind::Add, prev[i], prev[(i + l) % width_ops])))
                    .collect();
            }
            let mut s = seed;
            let trace: Trace = (0..frames)
                .map(|_| {
                    (0..width_ops + 1)
                        .map(|_| {
                            s = s.wrapping_mul(6364136223846793005).wrapping_add(1);
                            (s >> 33) % 32
                        })
                        .collect()
                })
                .collect();
            (d, trace)
        },
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    #[test]
    fn obf_aware_beats_naive_and_random((dfg, trace) in scenario(), seed in any::<u64>()) {
        let alloc = Allocation::new(5, 0);
        let schedule = schedule_asap(&dfg);
        let profile = OccurrenceProfile::from_trace(&dfg, &trace).expect("arity");
        let ops = dfg.ops_of_class(FuClass::Adder);
        let candidates = profile.top_candidates_among(&ops, 3);
        prop_assume!(!candidates.is_empty());
        let spec = LockingSpec::new(
            &alloc,
            vec![(FuId::new(FuClass::Adder, 0), candidates)],
        ).expect("valid");

        let obf = bind_obfuscation_aware(&dfg, &schedule, &alloc, &profile, &spec)
            .expect("feasible");
        let e_obf = expected_application_errors(&obf, &profile, &spec);

        let naive = bind_naive(&dfg, &schedule, &alloc).expect("feasible");
        prop_assert!(e_obf >= expected_application_errors(&naive, &profile, &spec));
        let random = bind_random(&dfg, &schedule, &alloc, seed).expect("feasible");
        prop_assert!(e_obf >= expected_application_errors(&random, &profile, &spec));
    }

    #[test]
    fn single_fu_single_input_codesign_equals_max_over_candidates((dfg, trace) in scenario()) {
        let alloc = Allocation::new(5, 0);
        let schedule = schedule_asap(&dfg);
        let profile = OccurrenceProfile::from_trace(&dfg, &trace).expect("arity");
        let ops = dfg.ops_of_class(FuClass::Adder);
        let candidates = profile.top_candidates_among(&ops, 4);
        prop_assume!(!candidates.is_empty());
        let fu = FuId::new(FuClass::Adder, 0);

        let cd = CoDesignProblem::new(&dfg, &schedule, &alloc, &profile, &[fu], 1, &candidates)
            .and_then(|problem| problem.heuristic(&CancelToken::new()))
            .expect("feasible");
        let best_fixed = candidates
            .iter()
            .map(|&c| {
                let spec = LockingSpec::new(&alloc, vec![(fu, vec![c])]).expect("valid");
                let b = bind_obfuscation_aware(&dfg, &schedule, &alloc, &profile, &spec)
                    .expect("feasible");
                expected_application_errors(&b, &profile, &spec)
            })
            .max()
            .expect("candidates non-empty");
        prop_assert_eq!(cd.errors(), best_fixed);
    }

    #[test]
    fn errors_are_monotone_in_the_minterm_set((dfg, trace) in scenario()) {
        // Locking a superset of minterms can only increase the maximum
        // achievable application errors.
        let alloc = Allocation::new(5, 0);
        let schedule = schedule_asap(&dfg);
        let profile = OccurrenceProfile::from_trace(&dfg, &trace).expect("arity");
        let ops = dfg.ops_of_class(FuClass::Adder);
        let candidates = profile.top_candidates_among(&ops, 3);
        prop_assume!(candidates.len() >= 2);
        let fu = FuId::new(FuClass::Adder, 0);

        let small = LockingSpec::new(&alloc, vec![(fu, candidates[..1].to_vec())]).expect("ok");
        let large = LockingSpec::new(&alloc, vec![(fu, candidates.clone())]).expect("ok");
        let e_small = {
            let b = bind_obfuscation_aware(&dfg, &schedule, &alloc, &profile, &small)
                .expect("feasible");
            expected_application_errors(&b, &profile, &small)
        };
        let e_large = {
            let b = bind_obfuscation_aware(&dfg, &schedule, &alloc, &profile, &large)
                .expect("feasible");
            expected_application_errors(&b, &profile, &large)
        };
        prop_assert!(e_large >= e_small);
    }

    #[test]
    fn locking_unused_fu_gives_zero((dfg, trace) in scenario()) {
        // With more FUs than concurrent ops, the obf-aware binder will pull
        // work onto a locked FU; but a spec locking NO minterms yields 0.
        let alloc = Allocation::new(5, 0);
        let schedule = schedule_asap(&dfg);
        let profile = OccurrenceProfile::from_trace(&dfg, &trace).expect("arity");
        let spec = LockingSpec::new(
            &alloc,
            vec![(FuId::new(FuClass::Adder, 0), vec![])],
        ).expect("valid");
        let b = bind_obfuscation_aware(&dfg, &schedule, &alloc, &profile, &spec)
            .expect("feasible");
        prop_assert_eq!(expected_application_errors(&b, &profile, &spec), 0);
        let _ = Minterm::pack(0, 0, 5);
    }
}
