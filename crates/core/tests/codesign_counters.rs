//! Search-space accounting of the optimal co-design search: every
//! configuration is evaluated exactly once, never silently dropped.
//!
//! This test lives alone in its own test binary: it diffs the
//! process-global `codesign.combos_evaluated` counter, and concurrent tests
//! in the same process would bump it inside the window being measured.

use lockbind_core::{codesign_optimal, combinations};
use lockbind_hls::{schedule_list, Allocation, FuClass, FuId, OccurrenceProfile};
use lockbind_mediabench::Kernel;
use lockbind_obs as obs;
use lockbind_resil::CancelToken;

#[test]
fn search_evaluates_every_configuration_once() {
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
    codesign_optimal(
        &b.dfg,
        &sched,
        &alloc,
        &profile,
        &fus,
        2,
        &candidates,
        &never,
    )
    .expect("searchable");
    let combos = combinations(candidates.len(), 2).len() as u64;
    assert_eq!(
        evaluated.get() - e0,
        combos * combos,
        "the search must evaluate the full product exactly once"
    );
}
