//! End-to-end pipeline test: kernel -> schedule -> co-design -> locked
//! gate-level modules, with two cross-validations:
//!
//! 1. the Eqn.-2 cost function equals an *independent trace replay* that
//!    counts locked-minterm hits on locked FUs frame by frame, and
//! 2. the realized locked netlists corrupt exactly the chosen minterms for
//!    a wrong key and nothing for the correct key.

use lockbind::locking::corruption::corrupted_inputs;
use lockbind::prelude::*;

fn replay_error_injections(dfg: &Dfg, binding: &Binding, spec: &LockingSpec, trace: &Trace) -> u64 {
    let mut injections = 0u64;
    for frame in trace {
        let acts = lockbind::hls::sim::execute_frame(dfg, frame).expect("arity");
        for (fu, minterms) in spec.iter() {
            for op in binding.ops_on(fu) {
                let m = acts[op.index()].minterm(dfg.width());
                if minterms.contains(&m) {
                    injections += 1;
                }
            }
        }
    }
    injections
}

#[test]
fn cost_function_matches_trace_replay_on_every_kernel() {
    for kernel in Kernel::ALL {
        let bench = kernel.benchmark(60, 9);
        let (_, muls) = bench.dfg.op_mix();
        let alloc = Allocation::new(3, if muls > 0 { 3 } else { 0 });
        let schedule = schedule_list(&bench.dfg, &alloc).expect("schedulable");
        let profile = OccurrenceProfile::from_trace(&bench.dfg, &bench.trace).expect("profiled");

        let class = if muls > 0 {
            FuClass::Multiplier
        } else {
            FuClass::Adder
        };
        let candidates = profile.top_candidates_among(&bench.dfg.ops_of_class(class), 5);
        let design = CoDesignProblem::new(
            &bench.dfg,
            &schedule,
            &alloc,
            &profile,
            &[FuId::new(class, 0)],
            2.min(candidates.len()),
            &candidates,
        )
        .and_then(|problem| problem.realize(&problem.heuristic(&CancelToken::new())?))
        .expect("feasible");

        let replay =
            replay_error_injections(&bench.dfg, &design.binding, &design.spec, &bench.trace);
        assert_eq!(
            design.errors, replay,
            "{kernel}: Eqn. 2 disagrees with trace replay"
        );
    }
}

#[test]
fn realized_modules_corrupt_exactly_the_locked_minterms() {
    let bench = Kernel::Jdmerge1.benchmark(150, 21);
    let alloc = Allocation::new(3, 3);
    let schedule = schedule_list(&bench.dfg, &alloc).expect("schedulable");
    let profile = OccurrenceProfile::from_trace(&bench.dfg, &bench.trace).expect("profiled");
    let candidates = profile.top_candidates_among(&bench.dfg.ops_of_class(FuClass::Multiplier), 6);
    let design = CoDesignProblem::new(
        &bench.dfg,
        &schedule,
        &alloc,
        &profile,
        &[FuId::new(FuClass::Multiplier, 0)],
        2,
        &candidates,
    )
    .and_then(|problem| problem.realize(&problem.heuristic(&CancelToken::new())?))
    .expect("feasible");

    let modules = realize_locked_modules(&design.spec, bench.dfg.width()).expect("lockable");
    assert_eq!(modules.len(), 1);
    let (fu, locked) = &modules[0];

    // Correct key: zero corruption over the whole 2^16 input space.
    assert!(corrupted_inputs(locked, locked.correct_key(), 16).is_empty());

    // A wrong key must corrupt every chosen minterm.
    let mut wrong = locked.correct_key().to_vec();
    wrong[0] = !wrong[0];
    let last = wrong.len() - 1;
    wrong[last] = !wrong[last];
    let errs = corrupted_inputs(locked, &wrong, 16);
    for m in design.spec.minterms_of(*fu).expect("locked fu") {
        assert!(
            errs.contains(&minterm_to_pattern(*m, bench.dfg.width())),
            "chosen minterm {m} must be corrupted by a wrong key"
        );
    }
    // ... and only a handful of extra minterms (the wrong restore patterns).
    assert!(errs.len() <= design.spec.total_locked_inputs() * 2);
}

#[test]
fn locked_module_behaves_like_fu_on_workload_values() {
    // Feed actual workload operand pairs through the locked multiplier and
    // the behavioral OpKind::Mul: with the correct key they must agree.
    let bench = Kernel::Fir.benchmark(40, 33);
    let alloc = Allocation::new(3, 3);
    let schedule = schedule_list(&bench.dfg, &alloc).expect("schedulable");
    let profile = OccurrenceProfile::from_trace(&bench.dfg, &bench.trace).expect("profiled");
    let candidates = profile.top_candidates_among(&bench.dfg.ops_of_class(FuClass::Multiplier), 4);
    let design = CoDesignProblem::new(
        &bench.dfg,
        &schedule,
        &alloc,
        &profile,
        &[FuId::new(FuClass::Multiplier, 0)],
        1,
        &candidates,
    )
    .and_then(|problem| problem.realize(&problem.heuristic(&CancelToken::new())?))
    .expect("feasible");
    let modules = realize_locked_modules(&design.spec, bench.dfg.width()).expect("lockable");
    let (fu, locked) = &modules[0];

    for frame in bench.trace.iter().take(10) {
        let acts = lockbind::hls::sim::execute_frame(&bench.dfg, frame).expect("arity");
        for op in design.binding.ops_on(*fu) {
            let a = acts[op.index()].a;
            let b = acts[op.index()].b;
            let golden = OpKind::Mul.eval(a, b, bench.dfg.width());
            let got = locked.eval_with_key(&[a, b], bench.dfg.width(), locked.correct_key());
            assert_eq!(got, vec![golden], "mul({a},{b})");
        }
    }
}
