//! One-time preparation of a kernel: schedule, allocation, profiles,
//! candidate locked inputs.

use std::sync::OnceLock;

use lockbind_core::{bind_area_aware, bind_power_aware, CoDesignProblem, CoreError};
use lockbind_hls::{
    schedule_list, Allocation, Binding, Dfg, FuClass, FuId, Minterm, OccurrenceProfile, Schedule,
    SwitchingProfile, Trace, TraceMinterms,
};
use lockbind_mediabench::{Benchmark, Kernel};

/// A kernel with everything the binding experiments need, built once.
#[derive(Debug, Clone)]
pub struct PreparedKernel {
    /// Benchmark name (the DFG's name for custom benchmarks).
    pub name: String,
    /// The kernel DFG.
    pub dfg: Dfg,
    /// Resource-constrained schedule (up to 3 FUs per class, as in the
    /// paper).
    pub schedule: Schedule,
    /// The FU allocation used for every experiment.
    pub alloc: Allocation,
    /// The K matrix over the generated typical workload.
    pub profile: OccurrenceProfile,
    /// Pairwise switching profile over the same workload.
    pub switching: SwitchingProfile,
    /// The typical workload both profiles were built from; the
    /// locked-datapath replays read it.
    pub trace: Trace,
    /// The area- and power-aware baseline bindings, built on first use by
    /// [`PreparedKernel::baselines`].
    baselines: OnceLock<Result<(Binding, Binding), CoreError>>,
}

impl PreparedKernel {
    /// Prepares a suite kernel with `frames` workload frames from `seed`.
    pub fn new(kernel: Kernel, frames: usize, seed: u64) -> Self {
        Self::from_benchmark(kernel.benchmark(frames, seed))
    }

    /// Prepares an arbitrary benchmark (e.g. the tunable synthetic kernel
    /// or a user-supplied design).
    ///
    /// # Panics
    /// Panics if the DFG cannot be scheduled onto 3 FUs per used class or
    /// the trace arity mismatches the DFG.
    pub fn from_benchmark(bench: Benchmark) -> Self {
        let (_, muls) = bench.dfg.op_mix();
        let alloc = Allocation::new(3, if muls > 0 { 3 } else { 0 });
        let schedule = schedule_list(&bench.dfg, &alloc).expect("kernels fit 3+3 FUs");
        let minterms = TraceMinterms::from_trace(&bench.dfg, &bench.trace).expect("arity matches");
        let profile = OccurrenceProfile::from_minterms(&minterms);
        let switching = SwitchingProfile::from_minterms(minterms);
        PreparedKernel {
            name: bench.dfg.name().to_string(),
            dfg: bench.dfg,
            schedule,
            alloc,
            profile,
            switching,
            trace: bench.trace,
            baselines: OnceLock::new(),
        }
    }

    /// The area-aware and power-aware baseline bindings. They depend on
    /// the kernel only (not on the FU class or the lock), so they are
    /// built once, on first use, and shared by every caller. The cached
    /// pair reflects `dfg`, `schedule`, `alloc` and `switching` as they
    /// were at that first call, so change none of them afterwards.
    ///
    /// # Errors
    /// Propagates baseline binding errors from `lockbind-core`.
    pub fn baselines(&self) -> Result<&(Binding, Binding), CoreError> {
        self.baselines
            .get_or_init(|| {
                let area = bind_area_aware(&self.dfg, &self.schedule, &self.alloc)?;
                let power =
                    bind_power_aware(&self.dfg, &self.schedule, &self.alloc, &self.switching)?;
                Ok((area, power))
            })
            .as_ref()
            .map_err(Clone::clone)
    }

    /// Prepares every kernel of the suite.
    pub fn suite(frames: usize, seed: u64) -> Vec<PreparedKernel> {
        Kernel::ALL
            .into_iter()
            .map(|k| PreparedKernel::new(k, frames, seed))
            .collect()
    }

    /// The paper's candidate locked-input list: the `k` most common input
    /// minterms among this kernel's operations of `class`.
    pub fn candidates(&self, class: FuClass, k: usize) -> Vec<Minterm> {
        let ops = self.dfg.ops_of_class(class);
        self.profile.top_candidates_among(&ops, k)
    }

    /// The co-design problem of locking `locked_fus` on this kernel with
    /// `inputs_per_fu` minterms each out of `candidates`.
    ///
    /// # Errors
    /// As [`CoDesignProblem::new`].
    pub fn codesign_problem<'a>(
        &'a self,
        locked_fus: &'a [FuId],
        inputs_per_fu: usize,
        candidates: &'a [Minterm],
    ) -> Result<CoDesignProblem<'a>, CoreError> {
        CoDesignProblem::new(
            &self.dfg,
            &self.schedule,
            &self.alloc,
            &self.profile,
            locked_fus,
            inputs_per_fu,
            candidates,
        )
    }

    /// FU classes with at least one operation (ecb_enc4 has no multiplies).
    pub fn classes(&self) -> Vec<FuClass> {
        FuClass::ALL
            .into_iter()
            .filter(|&c| !self.dfg.ops_of_class(c).is_empty())
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn preparation_builds_candidates() {
        let p = PreparedKernel::new(Kernel::Fir, 100, 3);
        let c = p.candidates(FuClass::Multiplier, 10);
        assert!(!c.is_empty());
        assert!(c.len() <= 10);
        assert_eq!(p.classes().len(), 2);
    }

    #[test]
    fn suite_prepares_all_kernels() {
        let suite = PreparedKernel::suite(30, 1);
        assert_eq!(suite.len(), 11);
    }
}
