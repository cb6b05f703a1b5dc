//! Power-aware binding baseline (paper ref \[19\]: register allocation and
//! binding for low power — minimize FU input switching activity).

use std::collections::HashMap;

use lockbind_hls::{Allocation, Binding, Dfg, FuClass, FuId, OpId, Schedule, SwitchingProfile};
use lockbind_matching::{min_cost_matching, WeightMatrix};
use lockbind_obs as obs;

use crate::CoreError;

/// Fixed-point scale for expected-Hamming-distance costs.
const HD_SCALE: f64 = 4096.0;

/// Binds operations to FUs minimizing expected operand switching: cycles are
/// processed in schedule order (switching couples consecutive cycles, so the
/// problem is not separable — the standard greedy forward sweep is used);
/// in each cycle a min-cost matching assigns operations to FUs with cost
/// equal to the expected Hamming distance between the FU's previously-bound
/// operation's operands and the candidate operation's operands.
///
/// # Errors
/// [`CoreError::Matching`] on infeasible allocations, [`CoreError::Hls`] on
/// validation failure (defensive).
pub fn bind_power_aware(
    dfg: &Dfg,
    schedule: &Schedule,
    alloc: &Allocation,
    switching: &SwitchingProfile,
) -> Result<Binding, CoreError> {
    obs::counter!("bind.power.calls").inc();
    let _span = obs::span!("bind.power");
    let mut last_on: HashMap<FuId, OpId> = HashMap::new();
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
            let weights = WeightMatrix::from_fn(ops.len(), fus.len(), |r, c| {
                let cost = match last_on.get(&fus[c]) {
                    Some(&prev) => (switching.within(prev, ops[r]) * HD_SCALE) as i64,
                    // A cold FU has no transition; prefer reusing FUs only
                    // when cheaper, with index tie-break for determinism.
                    None => 0,
                };
                Some(cost * 64 + fus[c].index as i64)
            });
            let matching = min_cost_matching(&weights)?;
            for (r, &c) in matching.row_to_col.iter().enumerate() {
                fu_of[ops[r].index()] = fus[c];
                last_on.insert(fus[c], ops[r]);
            }
        }
    }
    Ok(Binding::from_assignment(dfg, schedule, alloc, fu_of)?)
}

#[cfg(test)]
mod tests {
    use super::*;
    use lockbind_hls::binding::bind_naive;
    use lockbind_hls::metrics::switching as switching_metric;
    use lockbind_hls::{schedule_asap, OpKind, Trace};

    /// Two independent chains with very different operand streams: chain A
    /// works on 0x00-ish values, chain B on 0xFF-ish values. Keeping each
    /// chain on its own FU minimizes switching.
    fn polarized() -> (Dfg, Schedule, Allocation, Trace) {
        let mut d = Dfg::new(8);
        let lo = d.input("lo");
        let hi = d.input("hi");
        let a0 = d.op(OpKind::Add, lo, lo); // cycle 0
        let b0 = d.op(OpKind::Add, hi, hi); // cycle 0
        let a1 = d.op(OpKind::Add, a0.into(), lo); // cycle 1
        let b1 = d.op(OpKind::Add, b0.into(), hi); // cycle 1
        let a2 = d.op(OpKind::Add, a1.into(), lo); // cycle 2
        let b2 = d.op(OpKind::Add, b1.into(), hi); // cycle 2
        d.mark_output(a2);
        d.mark_output(b2);
        let sched = schedule_asap(&d);
        let trace = Trace::from_frames(vec![vec![0x01, 0xFE]; 32]);
        (d, sched, Allocation::new(2, 0), trace)
    }

    #[test]
    fn power_binding_separates_polarized_chains() {
        let (d, s, a, t) = polarized();
        let prof = SwitchingProfile::from_trace(&d, &t).expect("profiled");
        let bind = bind_power_aware(&d, &s, &a, &prof).expect("feasible");
        // All chain-A ops on one FU, all chain-B ops on the other.
        let fu_a0 = bind.fu(d.op_ids().next().expect("op0"));
        let ops: Vec<OpId> = d.op_ids().collect();
        assert_eq!(bind.fu(ops[2]), fu_a0, "a1 follows a0");
        assert_eq!(bind.fu(ops[4]), fu_a0, "a2 follows a0");
        assert_ne!(bind.fu(ops[1]), fu_a0, "b-chain on the other FU");
    }

    #[test]
    fn power_binding_no_worse_than_naive() {
        let (d, s, a, t) = polarized();
        let prof = SwitchingProfile::from_trace(&d, &t).expect("profiled");
        let power = bind_power_aware(&d, &s, &a, &prof).expect("feasible");
        let naive = bind_naive(&d, &s, &a).expect("feasible");
        let sw_p = switching_metric(&s, &power, &a, &prof).rate;
        let sw_n = switching_metric(&s, &naive, &a, &prof).rate;
        assert!(sw_p <= sw_n + 1e-9, "power {sw_p} vs naive {sw_n}");
    }

    #[test]
    fn works_on_all_mediabench_kernels() {
        use lockbind_hls::schedule_list;
        use lockbind_mediabench::Kernel;
        for k in Kernel::ALL {
            let b = k.benchmark(40, 11);
            let (_, muls) = b.dfg.op_mix();
            let alloc = Allocation::new(3, if muls > 0 { 3 } else { 0 });
            let sched = schedule_list(&b.dfg, &alloc).expect("schedulable");
            let prof = SwitchingProfile::from_trace(&b.dfg, &b.trace).expect("profiled");
            let bind = bind_power_aware(&b.dfg, &sched, &alloc, &prof).expect("feasible");
            assert_eq!(bind.as_slice().len(), b.dfg.num_ops());
        }
    }
}
