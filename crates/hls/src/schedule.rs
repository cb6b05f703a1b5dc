//! Scheduling: assigning each DFG operation to a clock cycle.
//!
//! The paper treats the schedule as a given input produced by a path-based
//! scheduler (\[24\] in the paper). We provide an ASAP schedule plus a
//! resource-constrained list scheduler with longest-path-to-sink priority —
//! a standard stand-in that produces schedules of the same shape (documented
//! substitution in DESIGN.md).

use std::collections::HashMap;

use lockbind_obs as obs;

use crate::dfg::{Dfg, OpId};
use crate::value::FuClass;
use crate::{Allocation, HlsError};

/// A schedule: every operation mapped to a clock cycle such that all data
/// dependencies point strictly forward in time.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Schedule {
    cycle_of: Vec<u32>,
    num_cycles: u32,
}

impl Schedule {
    /// Builds a schedule from an explicit cycle assignment and validates it
    /// against the DFG's dependencies.
    ///
    /// # Errors
    /// [`HlsError::ScheduleViolatesDependency`] if a consumer is scheduled at
    /// or before one of its producers, or if `cycle_of.len()` differs from the
    /// number of operations.
    pub fn from_cycles(dfg: &Dfg, cycle_of: Vec<u32>) -> Result<Self, HlsError> {
        if cycle_of.len() != dfg.num_ops() {
            return Err(HlsError::InvalidBinding {
                reason: format!(
                    "schedule covers {} ops but the DFG has {}",
                    cycle_of.len(),
                    dfg.num_ops()
                ),
            });
        }
        for (id, _) in dfg.iter_ops() {
            for pred in dfg.predecessors(id) {
                if cycle_of[pred.index()] >= cycle_of[id.index()] {
                    return Err(HlsError::ScheduleViolatesDependency {
                        producer: pred.index(),
                        consumer: id.index(),
                    });
                }
            }
        }
        let num_cycles = cycle_of.iter().max().map_or(0, |&m| m + 1);
        Ok(Schedule {
            cycle_of,
            num_cycles,
        })
    }

    /// Builds a schedule from an explicit cycle assignment **without**
    /// validating it against any DFG.
    ///
    /// Intended for round-tripping artifacts from untrusted sources (e.g.
    /// checkpoint files) so that `lockbind-check` can lint them, and for the
    /// checker's own mutation tests. Anything built this way should be run
    /// through the schedule-legality pass before use.
    pub fn from_cycles_unchecked(cycle_of: Vec<u32>) -> Self {
        let num_cycles = cycle_of.iter().max().map_or(0, |&m| m + 1);
        Schedule {
            cycle_of,
            num_cycles,
        }
    }

    /// The cycle operation `op` executes in (0-based).
    pub fn cycle(&self, op: OpId) -> u32 {
        self.cycle_of[op.index()]
    }

    /// Raw cycle assignment, op index → cycle. Lets linters inspect a
    /// schedule without assuming it covers the DFG (a schedule built with
    /// [`Schedule::from_cycles_unchecked`] may not).
    pub fn cycles(&self) -> &[u32] {
        &self.cycle_of
    }

    /// Total number of cycles (`s` in the paper).
    pub fn num_cycles(&self) -> u32 {
        self.num_cycles
    }

    /// The operations scheduled in `cycle`, in id order.
    pub fn ops_in_cycle(&self, cycle: u32) -> Vec<OpId> {
        self.cycle_of
            .iter()
            .enumerate()
            .filter(|&(_, &c)| c == cycle)
            .map(|(i, _)| OpId(i))
            .collect()
    }

    /// The operations of one FU class scheduled in `cycle` (the set `N_t`
    /// restricted to a class, as the paper binds classes separately).
    pub fn class_ops_in_cycle(&self, dfg: &Dfg, class: FuClass, cycle: u32) -> Vec<OpId> {
        self.ops_in_cycle(cycle)
            .into_iter()
            .filter(|&op| dfg.operation(op).kind.fu_class() == class)
            .collect()
    }

    /// Maximum number of concurrent operations of `class` over all cycles —
    /// the minimum feasible allocation for that class.
    pub fn max_concurrency(&self, dfg: &Dfg, class: FuClass) -> usize {
        (0..self.num_cycles)
            .map(|t| self.class_ops_in_cycle(dfg, class, t).len())
            .max()
            .unwrap_or(0)
    }
}

/// As-soon-as-possible schedule: each op at 1 + max cycle of its producers.
///
/// # Example
/// ```
/// use lockbind_hls::{Dfg, OpKind, schedule_asap};
/// let mut d = Dfg::new(8);
/// let a = d.input("a");
/// let b = d.input("b");
/// let s = d.op(OpKind::Add, a, b);
/// let m = d.op(OpKind::Mul, s.into(), b);
/// let sched = schedule_asap(&d);
/// assert_eq!(sched.cycle(s), 0);
/// assert_eq!(sched.cycle(m), 1);
/// ```
pub fn schedule_asap(dfg: &Dfg) -> Schedule {
    let _span = obs::span!("hls.schedule.asap", ops = dfg.num_ops());
    obs::counter!("hls.schedules").inc();
    let mut cycle_of = vec![0u32; dfg.num_ops()];
    for (id, _) in dfg.iter_ops() {
        let c = dfg
            .predecessors(id)
            .into_iter()
            .map(|p| cycle_of[p.index()] + 1)
            .max()
            .unwrap_or(0);
        cycle_of[id.index()] = c;
    }
    let num_cycles = cycle_of.iter().max().map_or(0, |&m| m + 1);
    Schedule {
        cycle_of,
        num_cycles,
    }
}

/// Resource-constrained list scheduling with longest-path-to-sink priority.
///
/// At each cycle, ready operations (all producers finished) are started in
/// priority order until the per-class FU budget from `alloc` is exhausted.
/// This is the standard list-scheduling formulation and our stand-in for the
/// paper's path-based scheduler.
///
/// # Errors
/// [`HlsError::InsufficientResources`] if some class has zero allocated units
/// but the DFG contains operations of that class.
pub fn schedule_list(dfg: &Dfg, alloc: &Allocation) -> Result<Schedule, HlsError> {
    let _span = obs::span!("hls.schedule.list", ops = dfg.num_ops());
    obs::counter!("hls.schedules").inc();
    for class in FuClass::ALL {
        if alloc.count(class) == 0 && !dfg.ops_of_class(class).is_empty() {
            return Err(HlsError::InsufficientResources {
                cycle: 0,
                class: class.name(),
                demanded: dfg.ops_of_class(class).len().min(1),
                available: 0,
            });
        }
    }

    // Longest path to any sink (in ops), used as list priority.
    let mut height = vec![0u32; dfg.num_ops()];
    for (id, _) in dfg.iter_ops().collect::<Vec<_>>().into_iter().rev() {
        let h = dfg
            .consumers(id)
            .into_iter()
            .map(|c| height[c.index()] + 1)
            .max()
            .unwrap_or(0);
        height[id.index()] = h;
    }

    let mut cycle_of = vec![u32::MAX; dfg.num_ops()];
    let mut remaining = dfg.num_ops();
    let mut unscheduled_preds: Vec<usize> =
        dfg.op_ids().map(|id| dfg.predecessors(id).len()).collect();
    let mut t = 0u32;
    while remaining > 0 {
        let mut budget: HashMap<FuClass, usize> = FuClass::ALL
            .into_iter()
            .map(|c| (c, alloc.count(c)))
            .collect();
        // Ready ops: unscheduled, all preds scheduled in earlier cycles.
        let mut ready: Vec<OpId> = dfg
            .op_ids()
            .filter(|id| cycle_of[id.index()] == u32::MAX && unscheduled_preds[id.index()] == 0)
            .collect();
        ready.sort_by_key(|id| std::cmp::Reverse(height[id.index()]));
        let mut started = Vec::new();
        for id in ready {
            let class = dfg.operation(id).kind.fu_class();
            let b = budget.get_mut(&class).expect("all classes in budget map");
            if *b > 0 {
                *b -= 1;
                cycle_of[id.index()] = t;
                started.push(id);
                remaining -= 1;
            }
        }
        for id in started {
            for c in dfg.consumers(id) {
                unscheduled_preds[c.index()] -= 1;
            }
        }
        t += 1;
        debug_assert!(
            t as usize <= dfg.num_ops() + 1,
            "scheduler failed to progress"
        );
    }
    let num_cycles = cycle_of.iter().max().map_or(0, |&m| m + 1);
    Ok(Schedule {
        cycle_of,
        num_cycles,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dfg::OpKind;

    /// Four independent adds feeding two adds feeding one mul.
    fn tree() -> Dfg {
        let mut d = Dfg::new(8);
        let ins: Vec<_> = (0..8).map(|i| d.input(format!("x{i}"))).collect();
        let l1: Vec<_> = (0..4)
            .map(|i| d.op(OpKind::Add, ins[2 * i], ins[2 * i + 1]))
            .collect();
        let l2a = d.op(OpKind::Add, l1[0].into(), l1[1].into());
        let l2b = d.op(OpKind::Add, l1[2].into(), l1[3].into());
        let m = d.op(OpKind::Mul, l2a.into(), l2b.into());
        d.mark_output(m);
        d
    }

    #[test]
    fn asap_depth_equals_critical_path() {
        let d = tree();
        let s = schedule_asap(&d);
        assert_eq!(s.num_cycles(), 3);
        assert_eq!(s.ops_in_cycle(0).len(), 4);
    }

    #[test]
    fn list_scheduling_respects_resource_limits() {
        let d = tree();
        let alloc = Allocation::new(2, 1);
        let s = schedule_list(&d, &alloc).expect("feasible");
        for t in 0..s.num_cycles() {
            assert!(s.class_ops_in_cycle(&d, FuClass::Adder, t).len() <= 2);
            assert!(s.class_ops_in_cycle(&d, FuClass::Multiplier, t).len() <= 1);
        }
        // 6 adds at <=2/cycle need >= 3 cycles; mul adds one more.
        assert!(s.num_cycles() >= 4);
        // Dependencies hold.
        let cycles: Vec<u32> = d.op_ids().map(|id| s.cycle(id)).collect();
        assert!(Schedule::from_cycles(&d, cycles).is_ok());
    }

    #[test]
    fn list_scheduling_errors_without_multiplier() {
        let d = tree();
        let err = schedule_list(&d, &Allocation::new(2, 0)).unwrap_err();
        assert!(matches!(err, HlsError::InsufficientResources { .. }));
    }

    #[test]
    fn from_cycles_rejects_dependency_violation() {
        let d = tree();
        let mut cycles: Vec<u32> = d.op_ids().map(|id| schedule_asap(&d).cycle(id)).collect();
        // Put the final mul in cycle 0 — before its producers.
        let mul = d.ops_of_class(FuClass::Multiplier)[0];
        cycles[mul.index()] = 0;
        assert!(matches!(
            Schedule::from_cycles(&d, cycles),
            Err(HlsError::ScheduleViolatesDependency { .. })
        ));
    }

    #[test]
    fn from_cycles_rejects_wrong_length() {
        let d = tree();
        assert!(Schedule::from_cycles(&d, vec![0; 2]).is_err());
    }

    #[test]
    fn max_concurrency_matches_asap_shape() {
        let d = tree();
        let s = schedule_asap(&d);
        assert_eq!(s.max_concurrency(&d, FuClass::Adder), 4);
        assert_eq!(s.max_concurrency(&d, FuClass::Multiplier), 1);
    }

    #[test]
    fn empty_dfg_schedules_to_zero_cycles() {
        let d = Dfg::new(8);
        let s = schedule_asap(&d);
        assert_eq!(s.num_cycles(), 0);
        let s2 = schedule_list(&d, &Allocation::new(1, 1)).expect("trivially feasible");
        assert_eq!(s2.num_cycles(), 0);
    }
}
