//! Datapath simulation with locked gate-level FUs in the loop.
//!
//! [`crate::application_impact`] counts injection *events*; this module
//! closes the loop by executing the DFG with the realized locked netlists
//! standing in for the locked FUs, so corrupted values **propagate** through
//! downstream operations and the measured quantity is the end-to-end
//! primary-output error of the design — including masking effects, which is
//! what application-level correctness ultimately depends on (\[15\] in the
//! paper).

use std::collections::HashMap;

use lockbind_hls::{Binding, Dfg, Frame, FuId, Trace, ValueRef};
use lockbind_locking::LockedNetlist;
use lockbind_obs as obs;

use crate::CoreError;

/// Per-FU key assignment for a locked-datapath simulation.
pub type KeyAssignment = HashMap<FuId, Vec<bool>>;

/// Returns the all-correct key assignment for a set of locked modules.
pub fn correct_keys(modules: &[(FuId, LockedNetlist)]) -> KeyAssignment {
    modules
        .iter()
        .map(|(fu, m)| (*fu, m.correct_key().to_vec()))
        .collect()
}

/// Returns a wrong-key assignment: every module's key with `flips` bits
/// inverted (deterministic, seed-free; flips the lowest `flips` bits).
pub fn wrong_keys(modules: &[(FuId, LockedNetlist)], flips: usize) -> KeyAssignment {
    modules
        .iter()
        .map(|(fu, m)| {
            let mut k = m.correct_key().to_vec();
            for bit in k.iter_mut().take(flips) {
                *bit = !*bit;
            }
            (*fu, k)
        })
        .collect()
}

/// Executes one frame with locked modules standing in for their FUs.
///
/// Each operation's operands are fetched (possibly already corrupted by an
/// upstream locked FU), the behavioural result is computed, and — when the
/// operation is bound to a locked FU — the module's corruption signature at
/// that operand pair (locked output XOR oracle output under the given key)
/// is applied. Returns the primary-output words.
///
/// # Errors
/// [`CoreError::Hls`] on frame arity mismatch.
///
/// # Panics
/// Panics if a key in `keys` has the wrong length for its module.
pub fn execute_with_locked_modules(
    dfg: &Dfg,
    binding: &Binding,
    modules: &[(FuId, LockedNetlist)],
    keys: &KeyAssignment,
    frame: &Frame,
) -> Result<Vec<u64>, CoreError> {
    if frame.len() != dfg.num_inputs() {
        return Err(CoreError::Hls(lockbind_hls::HlsError::FrameArityMismatch {
            expected: dfg.num_inputs(),
            got: frame.len(),
        }));
    }
    let width = dfg.width();
    let mask = (1u64 << width) - 1;
    let module_of: HashMap<FuId, &LockedNetlist> = modules.iter().map(|(fu, m)| (*fu, m)).collect();

    let mut values = vec![0u64; dfg.num_ops()];
    for (id, op) in dfg.iter_ops() {
        let fetch = |v: ValueRef| -> u64 {
            match v {
                ValueRef::Input(i) => frame[i.index()] & mask,
                ValueRef::Const(c) => c & mask,
                ValueRef::Op(p) => values[p.index()],
            }
        };
        let a = fetch(op.lhs);
        let b = fetch(op.rhs);
        let mut out = op.kind.eval(a, b, width);
        let fu = binding.fu(id);
        if let Some(module) = module_of.get(&fu) {
            let key = keys.get(&fu).expect("key provided for every locked FU");
            let locked_out = module.eval_with_key(&[a, b], width, key);
            let golden_out = module.oracle().eval_words(&[a, b], width, &[]);
            // The corruption signature is input-triggered and output-wide
            // (critical-minterm locking inverts the output bus), so it
            // transfers from the module's own function to whatever ALU
            // operation this FU executes in this cycle.
            let signature = locked_out[0] ^ golden_out[0];
            out ^= signature & mask;
        }
        values[id.index()] = out;
    }
    Ok(dfg.outputs().iter().map(|o| values[o.index()]).collect())
}

/// End-to-end corruption statistics over a trace.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OutputCorruption {
    /// Frames whose primary outputs differ from the clean execution.
    pub frames_corrupted: u64,
    /// Total frames.
    pub frames_total: u64,
    /// Total corrupted output words across all frames.
    pub words_corrupted: u64,
}

impl OutputCorruption {
    /// Fraction of frames with at least one wrong primary output.
    pub fn frame_rate(&self) -> f64 {
        if self.frames_total == 0 {
            0.0
        } else {
            self.frames_corrupted as f64 / self.frames_total as f64
        }
    }
}

/// Replays the trace twice — once cleanly, once with the locked modules
/// under `keys` — and reports how often the primary outputs diverge.
///
/// # Errors
/// [`CoreError::Hls`] on malformed frames.
pub fn output_corruption(
    dfg: &Dfg,
    binding: &Binding,
    modules: &[(FuId, LockedNetlist)],
    keys: &KeyAssignment,
    trace: &Trace,
) -> Result<OutputCorruption, CoreError> {
    let _span = obs::span!(
        "locked_sim.output_corruption",
        frames = trace.len(),
        modules = modules.len()
    );
    let _timer = obs::timer!("locked_sim.output_corruption");
    obs::counter!("locked_sim.evals").inc();
    obs::counter!("locked_sim.frames").add(trace.len() as u64);
    let mut frames_corrupted = 0u64;
    let mut words_corrupted = 0u64;
    for frame in trace {
        let clean = lockbind_hls::sim::execute_outputs(dfg, frame).map_err(CoreError::Hls)?;
        let locked = execute_with_locked_modules(dfg, binding, modules, keys, frame)?;
        let diff = clean.iter().zip(&locked).filter(|(c, l)| c != l).count() as u64;
        words_corrupted += diff;
        if diff > 0 {
            frames_corrupted += 1;
        }
    }
    Ok(OutputCorruption {
        frames_corrupted,
        frames_total: trace.len() as u64,
        words_corrupted,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{codesign_heuristic, realize_locked_modules};
    use lockbind_hls::{schedule_list, Allocation, FuClass, OccurrenceProfile};
    use lockbind_mediabench::Kernel;
    use lockbind_resil::CancelToken;

    fn setup() -> (Dfg, Binding, Vec<(FuId, LockedNetlist)>, Trace) {
        let bench = Kernel::Jctrans2.benchmark(120, 9);
        let alloc = Allocation::new(3, 3);
        let schedule = schedule_list(&bench.dfg, &alloc).expect("schedulable");
        let profile = OccurrenceProfile::from_trace(&bench.dfg, &bench.trace).expect("profiled");
        let candidates =
            profile.top_candidates_among(&bench.dfg.ops_of_class(FuClass::Multiplier), 8);
        let design = codesign_heuristic(
            &bench.dfg,
            &schedule,
            &alloc,
            &profile,
            &[FuId::new(FuClass::Multiplier, 0)],
            2,
            &candidates,
            &CancelToken::new(),
        )
        .expect("feasible");
        let modules = realize_locked_modules(&design.spec, bench.dfg.width()).expect("lockable");
        (bench.dfg, design.binding, modules, bench.trace)
    }

    #[test]
    fn correct_keys_leave_outputs_untouched() {
        let (dfg, binding, modules, trace) = setup();
        let keys = correct_keys(&modules);
        let c = output_corruption(&dfg, &binding, &modules, &keys, &trace).expect("replay");
        assert_eq!(c.frames_corrupted, 0);
        assert_eq!(c.words_corrupted, 0);
        assert_eq!(c.frame_rate(), 0.0);
    }

    #[test]
    fn wrong_keys_corrupt_end_to_end_outputs() {
        let (dfg, binding, modules, trace) = setup();
        let keys = wrong_keys(&modules, 1);
        let c = output_corruption(&dfg, &binding, &modules, &keys, &trace).expect("replay");
        // End-to-end corruption is nonzero but far below the injection
        // count: jctrans2's wrap-add-then-shift datapath *numerically
        // masks* most flipped multiplier outputs (e.g. 0 -> 255 followed by
        // "+11 mod 256 then >>3" lands on the same value). This is exactly
        // the application-level error resilience ([15] in the paper) that
        // makes maximizing the injection COUNT necessary in the first
        // place.
        assert!(
            c.frame_rate() > 0.01,
            "end-to-end corruption unexpectedly zero-ish: {}",
            c.frame_rate()
        );
        assert!(c.words_corrupted >= c.frames_corrupted);
    }

    #[test]
    fn low_masking_kernel_shows_heavy_output_corruption() {
        // motion2's SAD outputs consume the interpolation multipliers
        // through abs-diff + adder trees with no truncating shift between
        // the locked FU and the output, so corruption survives.
        let bench = Kernel::Motion2.benchmark(120, 9);
        let alloc = Allocation::new(3, 3);
        let schedule = schedule_list(&bench.dfg, &alloc).expect("schedulable");
        let profile = OccurrenceProfile::from_trace(&bench.dfg, &bench.trace).expect("profiled");
        let candidates =
            profile.top_candidates_among(&bench.dfg.ops_of_class(FuClass::Multiplier), 8);
        let design = codesign_heuristic(
            &bench.dfg,
            &schedule,
            &alloc,
            &profile,
            &[FuId::new(FuClass::Multiplier, 0)],
            2,
            &candidates,
            &CancelToken::new(),
        )
        .expect("feasible");
        let modules = realize_locked_modules(&design.spec, bench.dfg.width()).expect("lockable");
        let keys = wrong_keys(&modules, 1);
        let c = output_corruption(&bench.dfg, &design.binding, &modules, &keys, &bench.trace)
            .expect("replay");
        assert!(
            c.frame_rate() > 0.2,
            "motion2 end-to-end corruption too low: {}",
            c.frame_rate()
        );
    }

    #[test]
    fn corruption_grows_with_injections_not_against_them() {
        // Cross-check: frames where the *union* of the protected minterms
        // and the wrong key's own restore patterns occur are a superset of
        // frames with corrupted outputs (injections can be masked
        // downstream, but corruption never appears from nowhere).
        let (dfg, binding, modules, trace) = setup();
        let keys = wrong_keys(&modules, 1);
        let spec_entries: Vec<_> = modules
            .iter()
            .map(|(fu, m)| {
                // Recover minterms from the key layout: each input-width
                // segment of a key is an input pattern. For segments where
                // the wrong key differs, both the protected pattern and the
                // wrong restore pattern can trigger corruption.
                let width = dfg.width();
                let n_in = 2 * width as usize;
                let unpack = |seg: &[bool]| -> lockbind_hls::Minterm {
                    let packed = seg
                        .iter()
                        .enumerate()
                        .fold(0u64, |acc, (i, &b)| acc | ((b as u64) << i));
                    let a = packed & ((1 << width) - 1);
                    let b = packed >> width;
                    lockbind_hls::Minterm::pack(a, b, width)
                };
                let wrong = keys.get(fu).expect("key assigned");
                let mut ms: Vec<lockbind_hls::Minterm> = Vec::new();
                for (good_seg, wrong_seg) in m.correct_key().chunks(n_in).zip(wrong.chunks(n_in)) {
                    let good = unpack(good_seg);
                    if good_seg != wrong_seg {
                        ms.push(good);
                        let bad = unpack(wrong_seg);
                        if bad != good {
                            ms.push(bad);
                        }
                    }
                }
                (*fu, ms)
            })
            .collect();
        let alloc = Allocation::new(3, 3);
        let spec = crate::LockingSpec::new(&alloc, spec_entries).expect("valid");
        let schedule = schedule_list(&dfg, &alloc).expect("schedulable");
        let impact =
            crate::application_impact(&dfg, &schedule, &binding, &spec, &trace).expect("replay");

        let corr = output_corruption(&dfg, &binding, &modules, &keys, &trace).expect("replay");
        assert!(
            corr.frames_corrupted <= impact.frames_affected,
            "output corruption ({}) cannot exceed injection frames ({})",
            corr.frames_corrupted,
            impact.frames_affected
        );
        assert!(corr.frames_corrupted > 0);
    }

    #[test]
    fn arity_mismatch_is_reported() {
        let (dfg, binding, modules, _) = setup();
        let keys = correct_keys(&modules);
        let err =
            execute_with_locked_modules(&dfg, &binding, &modules, &keys, &vec![1]).unwrap_err();
        assert!(matches!(err, CoreError::Hls(_)));
    }
}
