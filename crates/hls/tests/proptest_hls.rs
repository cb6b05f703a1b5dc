//! Property-based tests over randomly generated DFGs: schedulers always
//! produce valid schedules, bindings are valid and complete, profiles are
//! conservation-consistent, and the register metrics respect their bounds.

use lockbind_hls::{
    bind_naive, metrics, schedule_asap, schedule_list, Allocation, Dfg, FuClass, OccurrenceProfile,
    OpKind, Schedule, Trace, ValueRef,
};
use proptest::prelude::*;

const KINDS: [OpKind; 8] = [
    OpKind::Add,
    OpKind::Sub,
    OpKind::Mul,
    OpKind::AbsDiff,
    OpKind::Min,
    OpKind::Max,
    OpKind::Xor,
    OpKind::Or,
];

/// A recipe for a random DAG: per op, (kind index, lhs selector, rhs
/// selector). Selectors pick among inputs, constants, and earlier ops.
fn dfg_strategy() -> impl Strategy<Value = (Dfg, usize)> {
    let op = (0..KINDS.len(), 0..100usize, 0..100usize);
    (2..6usize, proptest::collection::vec(op, 3..25)).prop_map(|(num_inputs, ops)| {
        let mut d = Dfg::new(6);
        let inputs: Vec<ValueRef> = (0..num_inputs).map(|i| d.input(format!("x{i}"))).collect();
        for (i, (k, ls, rs)) in ops.iter().enumerate() {
            let pick = |sel: usize| -> ValueRef {
                let n_prev = i;
                let total = num_inputs + 2 + n_prev;
                match sel % total {
                    s if s < num_inputs => inputs[s],
                    s if s < num_inputs + 2 => ValueRef::Const((s * 13 % 64) as u64),
                    s => {
                        let prev = s - num_inputs - 2;
                        let ids: Vec<_> = d.op_ids().collect();
                        ids[prev].into()
                    }
                }
            };
            let (l, r) = (pick(*ls), pick(*rs));
            let id = d.op(KINDS[*k], l, r);
            if i + 1 == ops.len() {
                d.mark_output(id);
            }
        }
        (d, num_inputs)
    })
}

fn trace_for(dfg: &Dfg, frames: usize, seed: u64) -> Trace {
    let mut s = seed;
    (0..frames)
        .map(|_| {
            (0..dfg.num_inputs())
                .map(|_| {
                    s = s.wrapping_mul(6364136223846793005).wrapping_add(1);
                    (s >> 33) % 64
                })
                .collect()
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn asap_is_always_valid((dfg, _) in dfg_strategy()) {
        let s = schedule_asap(&dfg);
        let cycles: Vec<u32> = dfg.op_ids().map(|id| s.cycle(id)).collect();
        prop_assert!(Schedule::from_cycles(&dfg, cycles).is_ok());
    }

    #[test]
    fn list_scheduling_respects_allocation((dfg, _) in dfg_strategy(), adders in 1..4usize, muls in 1..4usize) {
        let alloc = Allocation::new(adders, muls);
        let s = schedule_list(&dfg, &alloc).expect("classes have units");
        for t in 0..s.num_cycles() {
            prop_assert!(s.class_ops_in_cycle(&dfg, FuClass::Adder, t).len() <= adders);
            prop_assert!(s.class_ops_in_cycle(&dfg, FuClass::Multiplier, t).len() <= muls);
        }
        let cycles: Vec<u32> = dfg.op_ids().map(|id| s.cycle(id)).collect();
        prop_assert!(Schedule::from_cycles(&dfg, cycles).is_ok());
    }

    #[test]
    fn naive_binding_partitions_all_ops((dfg, _) in dfg_strategy()) {
        let s = schedule_asap(&dfg);
        // Allocation sized to the schedule's peak concurrency.
        let alloc = Allocation::new(
            s.max_concurrency(&dfg, FuClass::Adder).max(1),
            s.max_concurrency(&dfg, FuClass::Multiplier).max(1),
        );
        let b = bind_naive(&dfg, &s, &alloc).expect("feasible");
        let part = b.partition(&alloc);
        let total: usize = part.values().map(Vec::len).sum();
        prop_assert_eq!(total, dfg.num_ops());
        // No same-cycle sharing (already validated, but assert the property
        // independently).
        for (fu, ops) in &part {
            let mut cycles: Vec<u32> = ops.iter().map(|&o| s.cycle(o)).collect();
            cycles.sort_unstable();
            let before = cycles.len();
            cycles.dedup();
            prop_assert_eq!(cycles.len(), before, "fu {} shared a cycle", fu);
        }
    }

    #[test]
    fn profile_totals_equal_frame_count((dfg, _) in dfg_strategy(), frames in 1..40usize, seed in any::<u64>()) {
        let trace = trace_for(&dfg, frames, seed);
        let k = OccurrenceProfile::from_trace(&dfg, &trace).expect("arity ok");
        for id in dfg.op_ids() {
            prop_assert_eq!(k.total(id), frames as u64);
            // Top candidate count can never exceed the frame count.
            if let Some((_, c)) = k.minterms_of(id).first() {
                prop_assert!(*c <= frames as u64);
            }
        }
    }

    #[test]
    fn per_fu_register_model_dominates_global_bound((dfg, _) in dfg_strategy()) {
        let s = schedule_asap(&dfg);
        let alloc = Allocation::new(
            s.max_concurrency(&dfg, FuClass::Adder).max(1),
            s.max_concurrency(&dfg, FuClass::Multiplier).max(1),
        );
        let b = bind_naive(&dfg, &s, &alloc).expect("feasible");
        let per_fu = metrics::register_count(&dfg, &s, &b, &alloc);
        let bound = metrics::register_lower_bound(&dfg, &s);
        prop_assert!(per_fu >= bound, "per-FU {} < bound {}", per_fu, bound);
    }
}
