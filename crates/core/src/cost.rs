//! The objective cost function (Eqn. 2 of the paper).

use lockbind_hls::{Binding, OccurrenceProfile};
use lockbind_obs as obs;

use crate::LockingSpec;

/// Expected number of application errors injected by a locking
/// configuration under a given binding (Eqn. 2):
///
/// ```text
/// E = Σ_{l ∈ L} Σ_{m ∈ M_l} Σ_{n ∈ N_l} K[m, n]
/// ```
///
/// where `N_l` are the operations bound to locked FU `l`, `M_l` its locked
/// minterms, and `K` the trace-derived occurrence profile.
///
/// # Example
/// ```
/// use lockbind_hls::{Dfg, OpKind, Allocation, Minterm, FuId, FuClass,
///                    Trace, OccurrenceProfile, schedule_asap};
/// use lockbind_hls::binding::bind_naive;
/// # use lockbind_core::{LockingSpec, expected_application_errors};
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let mut d = Dfg::new(4);
/// let a = d.input("a");
/// let b = d.input("b");
/// let s = d.op(OpKind::Add, a, b);
/// d.mark_output(s);
/// let sched = schedule_asap(&d);
/// let alloc = Allocation::new(1, 0);
/// let bind = bind_naive(&d, &sched, &alloc)?;
/// let trace = Trace::from_frames(vec![vec![1, 2]; 5]);
/// let k = OccurrenceProfile::from_trace(&d, &trace)?;
/// let spec = LockingSpec::new(&alloc, vec![
///     (FuId::new(FuClass::Adder, 0), vec![Minterm::pack(1, 2, 4)]),
/// ])?;
/// assert_eq!(expected_application_errors(&bind, &k, &spec), 5);
/// # Ok(())
/// # }
/// ```
pub fn expected_application_errors(
    binding: &Binding,
    profile: &OccurrenceProfile,
    spec: &LockingSpec,
) -> u64 {
    // Scores finished bindings only; per-combination scoring goes through
    // `ErrorSweep`, so this is one span per call.
    obs::counter!("app_errors.evals").inc();
    let _span = obs::span!("app_errors.eval");
    spec.iter()
        .map(|(fu, minterms)| {
            binding
                .ops_on(fu)
                .into_iter()
                .map(|op| profile.count_sum(op, minterms))
                .sum::<u64>()
        })
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;
    use lockbind_hls::binding::bind_naive;
    use lockbind_hls::{schedule_asap, Allocation, Dfg, FuClass, FuId, Minterm, OpKind, Trace};

    #[test]
    fn errors_sum_over_fus_minterms_and_ops() {
        let mut d = Dfg::new(4);
        let a = d.input("a");
        let b = d.input("b");
        let s1 = d.op(OpKind::Add, a, b); // cycle 0 -> adder0
        let s2 = d.op(OpKind::Add, s1.into(), b); // cycle 1 -> adder0
        d.mark_output(s2);
        let sched = schedule_asap(&d);
        let alloc = Allocation::new(2, 0);
        let bind = bind_naive(&d, &sched, &alloc).expect("feasible");

        // Frames: (a,b) = (1,2) x3, so s1 sees (1,2) x3 and s2 sees (3,2) x3.
        let trace = Trace::from_frames(vec![vec![1, 2]; 3]);
        let k = lockbind_hls::OccurrenceProfile::from_trace(&d, &trace).expect("profiled");

        let fu0 = FuId::new(FuClass::Adder, 0);
        let spec = LockingSpec::new(
            &alloc,
            vec![(fu0, vec![Minterm::pack(1, 2, 4), Minterm::pack(3, 2, 4)])],
        )
        .expect("valid");
        // Both ops are on adder0 (naive binds in-order per cycle): 3 + 3.
        assert_eq!(expected_application_errors(&bind, &k, &spec), 6);

        // Locking the unused adder1 yields zero errors.
        let fu1 = FuId::new(FuClass::Adder, 1);
        let spec1 =
            LockingSpec::new(&alloc, vec![(fu1, vec![Minterm::pack(1, 2, 4)])]).expect("valid");
        assert_eq!(expected_application_errors(&bind, &k, &spec1), 0);
    }

    #[test]
    fn unlocked_spec_has_zero_cost() {
        let mut d = Dfg::new(4);
        let a = d.input("a");
        let s = d.op(OpKind::Add, a, a);
        d.mark_output(s);
        let sched = schedule_asap(&d);
        let alloc = Allocation::new(1, 0);
        let bind = bind_naive(&d, &sched, &alloc).expect("feasible");
        let trace = Trace::from_frames(vec![vec![1]; 4]);
        let k = lockbind_hls::OccurrenceProfile::from_trace(&d, &trace).expect("profiled");
        assert_eq!(
            expected_application_errors(&bind, &k, &LockingSpec::unlocked()),
            0
        );
    }
}
