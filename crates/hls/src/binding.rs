use std::collections::HashMap;
use std::fmt;

use lockbind_obs as obs;

use crate::dfg::{Dfg, OpId};
use crate::value::{FuClass, FuId};
use crate::{Allocation, HlsError, Schedule};

/// A resource binding: the operation → functional-unit map produced by the
/// binding phase of HLS, which the paper's algorithms optimize.
///
/// A binding is *valid* for a given DFG/schedule/allocation when every
/// operation is bound to an existing FU of its own class and no two
/// operations scheduled in the same cycle share an FU (Thm. 1 of the paper).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Binding {
    fu_of: Vec<FuId>,
}

impl Binding {
    /// Builds a binding from an explicit per-operation FU assignment and
    /// validates it.
    ///
    /// # Errors
    /// [`HlsError::InvalidBinding`] on length mismatch, class mismatch,
    /// out-of-range FU index, or same-cycle FU sharing.
    pub fn from_assignment(
        dfg: &Dfg,
        schedule: &Schedule,
        alloc: &Allocation,
        fu_of: Vec<FuId>,
    ) -> Result<Self, HlsError> {
        if fu_of.len() != dfg.num_ops() {
            return Err(HlsError::InvalidBinding {
                reason: format!(
                    "binding covers {} ops but the DFG has {}",
                    fu_of.len(),
                    dfg.num_ops()
                ),
            });
        }
        for (id, op) in dfg.iter_ops() {
            let fu = fu_of[id.index()];
            if fu.class != op.kind.fu_class() {
                return Err(HlsError::InvalidBinding {
                    reason: format!("{id} ({}) bound to {} of class {}", op.kind, fu, fu.class),
                });
            }
            if fu.index >= alloc.count(fu.class) {
                return Err(HlsError::InvalidBinding {
                    reason: format!(
                        "{id} bound to {} but only {} {} unit(s) allocated",
                        fu,
                        alloc.count(fu.class),
                        fu.class
                    ),
                });
            }
        }
        let mut seen: HashMap<(u32, FuId), OpId> = HashMap::new();
        for (id, _) in dfg.iter_ops() {
            let key = (schedule.cycle(id), fu_of[id.index()]);
            if let Some(prev) = seen.insert(key, id) {
                return Err(HlsError::InvalidBinding {
                    reason: format!("{prev} and {id} both bound to {} in cycle {}", key.1, key.0),
                });
            }
        }
        Ok(Binding { fu_of })
    }

    /// Builds a binding from a raw per-operation FU assignment **without**
    /// validation.
    ///
    /// Intended for round-tripping artifacts from untrusted sources so that
    /// `lockbind-check` can lint them, and for the checker's own mutation
    /// tests. Anything built this way should be run through the
    /// binding-legality pass before use.
    pub fn from_assignment_unchecked(fu_of: Vec<FuId>) -> Self {
        Binding { fu_of }
    }

    /// The FU that operation `op` is bound to.
    pub fn fu(&self, op: OpId) -> FuId {
        self.fu_of[op.index()]
    }

    /// All operations bound to `fu`, in topological (id) order.
    pub fn ops_on(&self, fu: FuId) -> Vec<OpId> {
        self.fu_of
            .iter()
            .enumerate()
            .filter(|&(_, &f)| f == fu)
            .map(|(i, _)| OpId(i))
            .collect()
    }

    /// All operations bound to `fu`, sorted by schedule cycle — the execution
    /// order seen by the physical unit (used by the switching model).
    pub fn ops_on_in_time(&self, fu: FuId, schedule: &Schedule) -> Vec<OpId> {
        let mut ops = self.ops_on(fu);
        ops.sort_by_key(|&op| schedule.cycle(op));
        ops
    }

    /// Set of operations per FU (the paper's `N_l` sets), keyed by FU id,
    /// including allocated-but-unused FUs with empty sets.
    pub fn partition(&self, alloc: &Allocation) -> HashMap<FuId, Vec<OpId>> {
        let mut map: HashMap<FuId, Vec<OpId>> = alloc.fu_ids().map(|fu| (fu, Vec::new())).collect();
        for (i, &fu) in self.fu_of.iter().enumerate() {
            map.entry(fu).or_default().push(OpId(i));
        }
        map
    }

    /// Raw assignment, op index → FU.
    pub fn as_slice(&self) -> &[FuId] {
        &self.fu_of
    }
}

impl fmt::Display for Binding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "binding [")?;
        for (i, fu) in self.fu_of.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "op{i}→{fu}")?;
        }
        write!(f, "]")
    }
}

/// Binds every operation to the lowest-index free FU of its class, cycle by
/// cycle in id order. A valid but security/area/power-oblivious baseline —
/// useful as a "naive" comparator and for tests.
///
/// # Errors
/// [`HlsError::InsufficientResources`] if some cycle has more concurrent
/// operations of a class than allocated units.
pub fn bind_naive(dfg: &Dfg, schedule: &Schedule, alloc: &Allocation) -> Result<Binding, HlsError> {
    obs::counter!("hls.bind_naive.calls").inc();
    let _span = obs::span!("hls.bind_naive");
    let mut fu_of = vec![FuId::new(FuClass::Adder, 0); dfg.num_ops()];
    for t in 0..schedule.num_cycles() {
        for class in FuClass::ALL {
            let ops = schedule.class_ops_in_cycle(dfg, class, t);
            if ops.len() > alloc.count(class) {
                return Err(HlsError::InsufficientResources {
                    cycle: t,
                    class: class.name(),
                    demanded: ops.len(),
                    available: alloc.count(class),
                });
            }
            for (slot, op) in ops.into_iter().enumerate() {
                fu_of[op.index()] = FuId::new(class, slot);
            }
        }
    }
    Binding::from_assignment(dfg, schedule, alloc, fu_of)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dfg::OpKind;
    use crate::schedule::schedule_asap;

    fn setup() -> (Dfg, Schedule, Allocation) {
        let mut d = Dfg::new(8);
        let a = d.input("a");
        let b = d.input("b");
        let c = d.input("c");
        let s1 = d.op(OpKind::Add, a, b); // cycle 0
        let s2 = d.op(OpKind::Add, b, c); // cycle 0
        let m = d.op(OpKind::Mul, s1.into(), s2.into()); // cycle 1
        d.mark_output(m);
        let sched = schedule_asap(&d);
        (d, sched, Allocation::new(2, 1))
    }

    #[test]
    fn naive_binding_is_valid() {
        let (d, s, a) = setup();
        let b = bind_naive(&d, &s, &a).expect("feasible");
        assert_eq!(b.fu(OpId(0)), FuId::new(FuClass::Adder, 0));
        assert_eq!(b.fu(OpId(1)), FuId::new(FuClass::Adder, 1));
        assert_eq!(b.fu(OpId(2)), FuId::new(FuClass::Multiplier, 0));
    }

    #[test]
    fn naive_binding_fails_when_underallocated() {
        let (d, s, _) = setup();
        let tight = Allocation::new(1, 1);
        assert!(matches!(
            bind_naive(&d, &s, &tight),
            Err(HlsError::InsufficientResources { .. })
        ));
    }

    #[test]
    fn from_assignment_rejects_same_cycle_conflict() {
        let (d, s, a) = setup();
        let fu_of = vec![
            FuId::new(FuClass::Adder, 0),
            FuId::new(FuClass::Adder, 0), // conflict with op0 in cycle 0
            FuId::new(FuClass::Multiplier, 0),
        ];
        let err = Binding::from_assignment(&d, &s, &a, fu_of).unwrap_err();
        assert!(matches!(err, HlsError::InvalidBinding { .. }));
    }

    #[test]
    fn from_assignment_rejects_class_mismatch() {
        let (d, s, a) = setup();
        let fu_of = vec![
            FuId::new(FuClass::Multiplier, 0), // add on multiplier
            FuId::new(FuClass::Adder, 1),
            FuId::new(FuClass::Multiplier, 0),
        ];
        assert!(Binding::from_assignment(&d, &s, &a, fu_of).is_err());
    }

    #[test]
    fn from_assignment_rejects_out_of_range_fu() {
        let (d, s, a) = setup();
        let fu_of = vec![
            FuId::new(FuClass::Adder, 5),
            FuId::new(FuClass::Adder, 1),
            FuId::new(FuClass::Multiplier, 0),
        ];
        assert!(Binding::from_assignment(&d, &s, &a, fu_of).is_err());
    }

    #[test]
    fn from_assignment_rejects_wrong_length() {
        let (d, s, a) = setup();
        assert!(Binding::from_assignment(&d, &s, &a, vec![]).is_err());
    }

    #[test]
    fn ops_on_and_partition_agree() {
        let (d, s, a) = setup();
        let b = bind_naive(&d, &s, &a).expect("feasible");
        let part = b.partition(&a);
        for fu in a.fu_ids() {
            assert_eq!(part[&fu], b.ops_on(fu));
        }
        // Unused FUs appear with empty op lists.
        assert_eq!(part.len(), a.total());
    }

    #[test]
    fn ops_on_in_time_sorted_by_cycle() {
        let mut d = Dfg::new(8);
        let a = d.input("a");
        let b = d.input("b");
        let s1 = d.op(OpKind::Add, a, b);
        let s2 = d.op(OpKind::Add, s1.into(), b);
        let s3 = d.op(OpKind::Add, s2.into(), a);
        d.mark_output(s3);
        let sched = schedule_asap(&d);
        let alloc = Allocation::new(1, 0);
        let bind = bind_naive(&d, &sched, &alloc).expect("feasible");
        let fu = FuId::new(FuClass::Adder, 0);
        let ops = bind.ops_on_in_time(fu, &sched);
        assert_eq!(ops, vec![s1, s2, s3]);
    }
}
