//! Failure-injection coverage: every public error path should be reachable,
//! display something human-readable, and chain sources correctly.

use std::error::Error as _;

use lockbind::prelude::*;

#[test]
fn hls_errors_display_and_match() {
    // Frame arity mismatch.
    let mut d = Dfg::new(4);
    let _ = d.input("a");
    let err = lockbind::hls::sim::execute_frame(&d, &vec![1, 2, 3]).unwrap_err();
    assert!(err.to_string().contains("3 values"));

    // Dependency violation in an explicit schedule.
    let mut d2 = Dfg::new(4);
    let a = d2.input("a");
    let s1 = d2.op(OpKind::Add, a, a);
    let s2 = d2.op(OpKind::Add, s1.into(), a);
    d2.mark_output(s2);
    let err = Schedule::from_cycles(&d2, vec![1, 0]).unwrap_err();
    assert!(err.to_string().contains("consumer"));

    // Under-allocation.
    let sched = schedule_asap(&d2);
    let err = schedule_list(&d2, &Allocation::new(0, 1)).unwrap_err();
    assert!(err.to_string().contains("adder"));
    let _ = sched;
}

#[test]
fn binding_errors_are_specific() {
    let mut d = Dfg::new(4);
    let a = d.input("a");
    let b = d.input("b");
    let s1 = d.op(OpKind::Add, a, b);
    let s2 = d.op(OpKind::Add, b, a);
    d.mark_output(s1);
    d.mark_output(s2);
    let sched = schedule_asap(&d);
    let alloc = Allocation::new(2, 0);
    // Same-cycle conflict.
    let fu0 = FuId::new(FuClass::Adder, 0);
    let err = Binding::from_assignment(&d, &sched, &alloc, vec![fu0, fu0]).unwrap_err();
    let msg = err.to_string();
    assert!(msg.contains("both bound"), "got: {msg}");
}

#[test]
fn core_errors_chain_sources() {
    let mut d = Dfg::new(4);
    let a = d.input("a");
    let b = d.input("b");
    let s1 = d.op(OpKind::Add, a, b);
    let s2 = d.op(OpKind::Add, b, a);
    d.mark_output(s1);
    d.mark_output(s2);
    let sched = schedule_asap(&d);
    let trace = Trace::from_frames(vec![vec![1, 2]]);
    let profile = OccurrenceProfile::from_trace(&d, &trace).expect("profiled");
    // One FU for two concurrent ops: matching error wrapped in CoreError.
    let tight = Allocation::new(1, 0);
    let err =
        bind_obfuscation_aware(&d, &sched, &tight, &profile, &LockingSpec::unlocked()).unwrap_err();
    assert!(err.source().is_some(), "CoreError must chain its source");
    assert!(err.to_string().contains("matching"));
}

#[test]
fn locking_errors_cover_all_schemes() {
    let adder = builders::adder_fu(4);
    // Each scheme rejects an already-keyed module.
    let keyed = lock_rll(&adder, 4, 1).expect("lockable");
    assert!(lock_rll(keyed.netlist(), 4, 1).is_err());
    assert!(lock_anti_sat(keyed.netlist()).is_err());
    assert!(lock_permutation(keyed.netlist(), 1).is_err());
    assert!(lock_critical_minterms(keyed.netlist(), &[1]).is_err());
    // Error messages are lowercase, no trailing punctuation (C-GOOD-ERR).
    let e = lock_critical_minterms(keyed.netlist(), &[1]).unwrap_err();
    let msg = e.to_string();
    assert!(!msg.ends_with('.'));
    assert!(msg.chars().next().expect("non-empty").is_lowercase());
}

#[test]
fn netlist_arity_errors() {
    let adder = builders::adder_fu(4);
    let err = adder.eval(&[true; 3], &[]).unwrap_err();
    assert!(err.to_string().contains("8 inputs"));
    let err = adder.eval(&[true; 8], &[false]).unwrap_err();
    assert!(err.to_string().contains("key"));
}

#[test]
fn methodology_unreachable_target_reports_best_effort() {
    let bench = Kernel::Fir.benchmark(30, 1);
    let alloc = Allocation::new(3, 3);
    let sched = schedule_list(&bench.dfg, &alloc).expect("schedulable");
    let profile = OccurrenceProfile::from_trace(&bench.dfg, &bench.trace).expect("profiled");
    let candidates = profile.top_candidates_among(&bench.dfg.ops_of_class(FuClass::Adder), 5);
    let goals = DesignGoals {
        min_application_errors: u64::MAX,
        min_sat_iterations: 1.0,
        max_inputs_per_fu: 2,
    };
    let err = design_lock(
        &bench.dfg,
        &sched,
        &alloc,
        &profile,
        &[FuId::new(FuClass::Adder, 0)],
        &candidates,
        &goals,
    )
    .unwrap_err();
    let msg = err.to_string();
    assert!(msg.contains("unreachable"), "got: {msg}");
    assert!(msg.contains("best achievable"), "got: {msg}");
}

#[test]
fn codesign_guard_message_suggests_heuristic() {
    let never = CancelToken::new();
    let bench = Kernel::Dct.benchmark(30, 1);
    let alloc = Allocation::new(3, 3);
    let sched = schedule_list(&bench.dfg, &alloc).expect("schedulable");
    let profile = OccurrenceProfile::from_trace(&bench.dfg, &bench.trace).expect("profiled");
    let many: Vec<Minterm> = (0..24).map(|i| Minterm::pack(i, i, 8)).collect();
    let fus = [
        FuId::new(FuClass::Adder, 0),
        FuId::new(FuClass::Adder, 1),
        FuId::new(FuClass::Adder, 2),
    ];
    let err =
        codesign_optimal(&bench.dfg, &sched, &alloc, &profile, &fus, 3, &many, &never).unwrap_err();
    assert!(err.to_string().contains("codesign_heuristic"));
}
