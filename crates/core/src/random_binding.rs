//! Seeded random (but valid) binding — a security/area/power-oblivious
//! comparator used in ablations.

use lockbind_hls::{Allocation, Binding, Dfg, FuClass, FuId, Schedule};
use lockbind_resil::splitmix64;

use crate::CoreError;

/// Binds each cycle's operations to a uniformly random injective choice of
/// class-compatible FUs, deterministically in `seed`.
///
/// # Errors
/// [`CoreError::Hls`] if the allocation cannot host some cycle's concurrent
/// operations.
pub fn bind_random(
    dfg: &Dfg,
    schedule: &Schedule,
    alloc: &Allocation,
    seed: u64,
) -> Result<Binding, CoreError> {
    let mut state = seed ^ 0xA076_1D64_78BD_642F;
    let mut fu_of = vec![FuId::new(FuClass::Adder, 0); dfg.num_ops()];
    for t in 0..schedule.num_cycles() {
        for class in FuClass::ALL {
            let ops = schedule.class_ops_in_cycle(dfg, class, t);
            if ops.is_empty() {
                continue;
            }
            if ops.len() > alloc.count(class) {
                return Err(CoreError::Hls(
                    lockbind_hls::HlsError::InsufficientResources {
                        cycle: t,
                        class: class.name(),
                        demanded: ops.len(),
                        available: alloc.count(class),
                    },
                ));
            }
            // Fisher-Yates over the FU indices, take the first |ops|.
            let mut fus: Vec<usize> = (0..alloc.count(class)).collect();
            for i in (1..fus.len()).rev() {
                let j = (splitmix64(&mut state) as usize) % (i + 1);
                fus.swap(i, j);
            }
            for (r, &op) in ops.iter().enumerate() {
                fu_of[op.index()] = FuId::new(class, fus[r]);
            }
        }
    }
    Ok(Binding::from_assignment(dfg, schedule, alloc, fu_of)?)
}

#[cfg(test)]
mod tests {
    use super::*;
    use lockbind_hls::{schedule_list, Allocation};
    use lockbind_mediabench::Kernel;

    #[test]
    fn random_bindings_are_valid_for_all_kernels() {
        for k in Kernel::ALL {
            let dfg = k.build_dfg();
            let (_, muls) = dfg.op_mix();
            let alloc = Allocation::new(3, if muls > 0 { 3 } else { 0 });
            let sched = schedule_list(&dfg, &alloc).expect("schedulable");
            for seed in 0..3 {
                let bind = bind_random(&dfg, &sched, &alloc, seed).expect("feasible");
                assert_eq!(bind.as_slice().len(), dfg.num_ops());
            }
        }
    }

    #[test]
    fn deterministic_in_seed() {
        let dfg = Kernel::Dct.build_dfg();
        let alloc = Allocation::new(3, 3);
        let sched = schedule_list(&dfg, &alloc).expect("schedulable");
        let a = bind_random(&dfg, &sched, &alloc, 5).expect("feasible");
        let b = bind_random(&dfg, &sched, &alloc, 5).expect("feasible");
        assert_eq!(a, b);
    }

    #[test]
    fn different_seeds_usually_differ() {
        let dfg = Kernel::Dct.build_dfg();
        let alloc = Allocation::new(3, 3);
        let sched = schedule_list(&dfg, &alloc).expect("schedulable");
        let a = bind_random(&dfg, &sched, &alloc, 1).expect("feasible");
        let b = bind_random(&dfg, &sched, &alloc, 2).expect("feasible");
        assert_ne!(a, b);
    }
}
