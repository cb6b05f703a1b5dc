//! Application-level impact of a locking configuration.
//!
//! Eqn. 2 counts error-injection *events*; whether those events derail the
//! application also depends on their temporal quality — the paper's
//! motivating example (Sec. III-B) prizes bindings that inject errors "in
//! both clock cycles" and in consecutive invocations, citing the
//! application-level-correctness literature (\[15\]). This module replays the
//! workload and reports those quality metrics for any binding/spec pair.

use lockbind_hls::sim::execute_frame;
use lockbind_hls::{Binding, Dfg, Schedule, Trace};
use lockbind_obs as obs;

use crate::{CoreError, LockingSpec};

/// Temporal statistics of the error injections a locked, bound design
/// suffers over a workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ApplicationImpact {
    /// Total injection events (equals the Eqn.-2 cost evaluated on this
    /// exact trace).
    pub total_injections: u64,
    /// Frames with at least one injection.
    pub frames_affected: u64,
    /// Total frames replayed.
    pub frames_total: u64,
    /// Largest number of injections within one frame.
    pub max_injections_per_frame: u64,
    /// Longest run of consecutive affected frames.
    pub max_consecutive_frames: u64,
    /// Distinct schedule cycles in which injections occur (the paper's
    /// "errors in both clock cycles" quality criterion).
    pub distinct_cycles_with_errors: u32,
}

impl ApplicationImpact {
    /// Fraction of frames affected — an application-level error rate.
    pub fn frame_error_rate(&self) -> f64 {
        if self.frames_total == 0 {
            0.0
        } else {
            self.frames_affected as f64 / self.frames_total as f64
        }
    }
}

/// Replays `trace` through the bound design and measures when/where the
/// locking configuration injects errors.
///
/// # Errors
/// [`CoreError::Hls`] if a frame mismatches the DFG arity.
pub fn application_impact(
    dfg: &Dfg,
    schedule: &Schedule,
    binding: &Binding,
    spec: &LockingSpec,
    trace: &Trace,
) -> Result<ApplicationImpact, CoreError> {
    let _span = obs::span!("app_impact", frames = trace.len());
    let mut total = 0u64;
    let mut affected = 0u64;
    let mut max_per_frame = 0u64;
    let mut run = 0u64;
    let mut max_run = 0u64;
    let mut cycles_hit = std::collections::BTreeSet::new();

    // Precompute (op, minterms) pairs per locked FU.
    let locked_ops: Vec<(lockbind_hls::OpId, &[lockbind_hls::Minterm])> = spec
        .iter()
        .flat_map(|(fu, ms)| binding.ops_on(fu).into_iter().map(move |op| (op, ms)))
        .collect();

    for frame in trace {
        let acts = execute_frame(dfg, frame)?;
        let mut here = 0u64;
        for &(op, minterms) in &locked_ops {
            let m = acts[op.index()].minterm(dfg.width());
            if minterms.contains(&m) {
                here += 1;
                cycles_hit.insert(schedule.cycle(op));
            }
        }
        total += here;
        max_per_frame = max_per_frame.max(here);
        if here > 0 {
            affected += 1;
            run += 1;
            max_run = max_run.max(run);
        } else {
            run = 0;
        }
    }

    Ok(ApplicationImpact {
        total_injections: total,
        frames_affected: affected,
        frames_total: trace.len() as u64,
        max_injections_per_frame: max_per_frame,
        max_consecutive_frames: max_run,
        distinct_cycles_with_errors: cycles_hit.len() as u32,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{bind_obfuscation_aware, expected_application_errors};
    use lockbind_hls::{
        schedule_asap, Allocation, FuClass, FuId, Minterm, OccurrenceProfile, OpKind,
    };

    fn scenario() -> (
        Dfg,
        Schedule,
        Allocation,
        OccurrenceProfile,
        Trace,
        LockingSpec,
    ) {
        let mut d = Dfg::new(4);
        let a = d.input("a");
        let b = d.input("b");
        let s1 = d.op(OpKind::Add, a, b); // cycle 0
        let s2 = d.op(OpKind::Add, s1.into(), b); // cycle 1
        d.mark_output(s2);
        let sched = schedule_asap(&d);
        let alloc = Allocation::new(1, 0);
        // Frames: (1,2) thrice (hits s1), then (0,0) twice, then (1,2).
        let trace = Trace::from_frames(vec![
            vec![1, 2],
            vec![1, 2],
            vec![1, 2],
            vec![0, 0],
            vec![0, 0],
            vec![1, 2],
        ]);
        let k = OccurrenceProfile::from_trace(&d, &trace).expect("profiled");
        let spec = LockingSpec::new(
            &alloc,
            vec![(FuId::new(FuClass::Adder, 0), vec![Minterm::pack(1, 2, 4)])],
        )
        .expect("valid");
        (d, sched, alloc, k, trace, spec)
    }

    #[test]
    fn impact_matches_hand_computed_timeline() {
        let (d, sched, alloc, k, trace, spec) = scenario();
        let binding = bind_obfuscation_aware(&d, &sched, &alloc, &k, &spec).expect("feasible");
        let impact = application_impact(&d, &sched, &binding, &spec, &trace).expect("replay");
        // (1,2) occurs at s1 in frames 0,1,2,5 -> 4 injections.
        assert_eq!(impact.total_injections, 4);
        assert_eq!(impact.frames_affected, 4);
        assert_eq!(impact.frames_total, 6);
        assert_eq!(impact.max_consecutive_frames, 3);
        assert_eq!(impact.max_injections_per_frame, 1);
        assert!((impact.frame_error_rate() - 4.0 / 6.0).abs() < 1e-12);
        // Only cycle 0 is hit (s2 sees (3,2), not (1,2)).
        assert_eq!(impact.distinct_cycles_with_errors, 1);
    }

    #[test]
    fn total_injections_equal_eqn2_on_profiling_trace() {
        let (d, sched, alloc, k, trace, spec) = scenario();
        let binding = bind_obfuscation_aware(&d, &sched, &alloc, &k, &spec).expect("feasible");
        let impact = application_impact(&d, &sched, &binding, &spec, &trace).expect("replay");
        assert_eq!(
            impact.total_injections,
            expected_application_errors(&binding, &k, &spec)
        );
    }

    #[test]
    fn empty_trace_is_harmless() {
        let (d, sched, alloc, k, _, spec) = scenario();
        let binding = bind_obfuscation_aware(&d, &sched, &alloc, &k, &spec).expect("feasible");
        let impact =
            application_impact(&d, &sched, &binding, &spec, &Trace::new()).expect("replay");
        assert_eq!(impact.total_injections, 0);
        assert_eq!(impact.frame_error_rate(), 0.0);
    }

    #[test]
    fn multi_cycle_errors_are_detected() {
        // Lock a minterm occurring at both s1 and s2: two cycles hit.
        let mut d = Dfg::new(4);
        let a = d.input("a");
        let b = d.input("b");
        let s1 = d.op(OpKind::Add, a, b); // (0,0) -> 0
        let s2 = d.op(OpKind::Add, s1.into(), b); // (0,0) again when a=b=0
        d.mark_output(s2);
        let sched = schedule_asap(&d);
        let alloc = Allocation::new(1, 0);
        let trace = Trace::from_frames(vec![vec![0, 0]; 3]);
        let k = OccurrenceProfile::from_trace(&d, &trace).expect("profiled");
        let spec = LockingSpec::new(
            &alloc,
            vec![(FuId::new(FuClass::Adder, 0), vec![Minterm::pack(0, 0, 4)])],
        )
        .expect("valid");
        let binding = bind_obfuscation_aware(&d, &sched, &alloc, &k, &spec).expect("feasible");
        let impact = application_impact(&d, &sched, &binding, &spec, &trace).expect("replay");
        assert_eq!(impact.distinct_cycles_with_errors, 2);
        assert_eq!(impact.max_injections_per_frame, 2);
    }
}
