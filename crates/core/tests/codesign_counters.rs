//! Search-space accounting of the pruned optimal co-design search: every
//! configuration is either evaluated or pruned, never silently dropped.
//!
//! This test lives alone in its own test binary: it diffs the
//! process-global `codesign.combos_*` counters, and concurrent tests in
//! the same process would bump them inside the window being measured.

use lockbind_core::{codesign_optimal, combinations};
use lockbind_hls::{schedule_list, Allocation, FuClass, FuId, OccurrenceProfile};
use lockbind_mediabench::Kernel;
use lockbind_obs as obs;

#[test]
fn search_prunes_and_accounts_for_every_configuration() {
    let b = Kernel::Jdmerge1.benchmark(120, 31);
    let alloc = Allocation::new(3, 3);
    let sched = schedule_list(&b.dfg, &alloc).expect("schedulable");
    let profile = OccurrenceProfile::from_trace(&b.dfg, &b.trace).expect("profiled");
    let adder_ops = b.dfg.ops_of_class(FuClass::Adder);
    let candidates = profile.top_candidates_among(&adder_ops, 6);

    let fus = [FuId::new(FuClass::Adder, 0), FuId::new(FuClass::Adder, 1)];
    let evaluated = obs::counter!("codesign.combos_evaluated");
    let pruned = obs::counter!("codesign.combos_pruned");
    let (e0, p0) = (evaluated.get(), pruned.get());
    codesign_optimal(&b.dfg, &sched, &alloc, &profile, &fus, 2, &candidates).expect("searchable");
    let combos = combinations(candidates.len(), 2).len() as u64;
    let visited = (evaluated.get() - e0) + (pruned.get() - p0);
    assert_eq!(
        visited,
        combos * combos,
        "evaluated + pruned must cover the full search product"
    );
    assert!(pruned.get() > p0, "dual bounds should prune something");
}
