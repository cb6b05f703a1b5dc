//! Search-space accounting of the optimal co-design search: the
//! branch-and-bound scores a pinned number of configurations and bounds on
//! its fixture, and still returns the exhaustive scan's winner.
//!
//! This test lives alone in its own test binary: it diffs the
//! process-global `codesign.combos_evaluated` counter, and concurrent tests
//! in the same process would bump it inside the window being measured.

use lockbind_core::{
    bind_obfuscation_aware, combinations, expected_application_errors, CoDesignProblem, LockingSpec,
};
use lockbind_hls::{schedule_list, Allocation, FuClass, FuId, OccurrenceProfile};
use lockbind_mediabench::Kernel;
use lockbind_obs as obs;
use lockbind_resil::CancelToken;

#[test]
fn search_evaluation_count_is_pinned() {
    let never = CancelToken::new();
    let b = Kernel::Jdmerge1.benchmark(120, 31);
    let alloc = Allocation::new(3, 3);
    let sched = schedule_list(&b.dfg, &alloc).expect("schedulable");
    let profile = OccurrenceProfile::from_trace(&b.dfg, &b.trace).expect("profiled");
    let adder_ops = b.dfg.ops_of_class(FuClass::Adder);
    let candidates = profile.top_candidates_among(&adder_ops, 6);

    let fus = [FuId::new(FuClass::Adder, 0), FuId::new(FuClass::Adder, 1)];
    let evaluated = obs::counter!("codesign.combos_evaluated");
    let e0 = evaluated.get();
    let opt = CoDesignProblem::new(&b.dfg, &sched, &alloc, &profile, &fus, 2, &candidates)
        .and_then(|problem| problem.realize(&problem.optimal(&never)?))
        .expect("searchable");
    // 15 root bounds, then per first-slot combination not pruned one
    // unlocked score and the leaves its gains do not prune: 35 scores,
    // where the exhaustive scan scores all 225 configurations.
    assert_eq!(evaluated.get() - e0, 35, "evaluations of the pinned search");

    // The legacy scan: every configuration bound cold in mixed-radix order
    // (the first FU's digit fastest), the first maximum kept.
    let combos = combinations(candidates.len(), 2);
    let mut best: Option<(u64, LockingSpec)> = None;
    for index in 0..combos.len() * combos.len() {
        let digits = [index % combos.len(), index / combos.len()];
        let entries = fus
            .iter()
            .zip(digits)
            .map(|(&fu, c)| (fu, combos[c].iter().map(|&i| candidates[i]).collect()))
            .collect();
        let spec = LockingSpec::new(&alloc, entries).expect("valid");
        let binding =
            bind_obfuscation_aware(&b.dfg, &sched, &alloc, &profile, &spec).expect("feasible");
        let errors = expected_application_errors(&binding, &profile, &spec);
        if best.as_ref().is_none_or(|(e, _)| errors > *e) {
            best = Some((errors, spec));
        }
    }
    let (errors, spec) = best.expect("one configuration at least");
    assert_eq!(opt.errors, errors);
    assert_eq!(opt.spec, spec);
}
