//! # lockbind
//!
//! A Rust implementation of *"A Resource Binding Approach to Logic
//! Obfuscation"* (Zuzak, Liu, Srivastava — DAC 2021): security-aware
//! resource binding that lets SAT-resilient logic locking inject enough
//! application-level error to actually protect an IC.
//!
//! This facade crate re-exports the whole workspace:
//!
//! * [`core`] — the paper's algorithms: obfuscation-aware binding,
//!   binding–obfuscation co-design, the area/power-aware baselines, and the
//!   Sec. V-C design methodology.
//! * [`hls`] — the HLS substrate: DFGs, scheduling, allocation, bindings,
//!   trace-driven profiling (the `K` matrix), and datapath metrics.
//! * [`mediabench`] — the 11 MediaBench-style benchmark kernels with
//!   synthetic typical workloads.
//! * [`netlist`] — gate-level netlists, arithmetic FU builders, simulation,
//!   and CNF export.
//! * [`locking`] — critical-minterm (SFLL-style), RLL, Anti-SAT, and
//!   permutation-network locking, plus the Eqn. 1 resilience model.
//! * [`sat`] — a from-scratch CDCL SAT solver.
//! * [`attacks`] — the oracle-guided SAT attack and a random-query baseline.
//! * [`matching`] — Hungarian max-weight bipartite matching.
//!
//! ## Quickstart
//!
//! ```
//! use lockbind::prelude::*;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! // 1. Pick a benchmark kernel with its typical workload.
//! let bench = Kernel::Fir.benchmark(200, 42);
//!
//! // 2. Schedule it onto 3 adders + 3 multipliers and profile the workload.
//! let alloc = Allocation::new(3, 3);
//! let schedule = schedule_list(&bench.dfg, &alloc)?;
//! let profile = OccurrenceProfile::from_trace(&bench.dfg, &bench.trace)?;
//!
//! // 3. Co-design the binding and the locked inputs for one locked adder:
//! //    one problem, then a search on it. The search takes a cancel token
//! //    (this one never fires) and returns its choice; `realize` binds it.
//! let candidates = profile.top_candidates_among(
//!     &bench.dfg.ops_of_class(FuClass::Adder), 10);
//! let fus = [FuId::new(FuClass::Adder, 0)];
//! let problem = CoDesignProblem::new(
//!     &bench.dfg, &schedule, &alloc, &profile, &fus, 2, &candidates)?;
//! let design = problem.realize(&problem.heuristic(&CancelToken::new())?)?;
//! assert!(design.errors > 0);
//!
//! // 4. Realize the locked adder as a gate-level netlist.
//! let modules = realize_locked_modules(&design.spec, bench.dfg.width())?;
//! assert_eq!(modules.len(), 1);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use lockbind_attacks as attacks;
pub use lockbind_core as core;
pub use lockbind_hls as hls;
pub use lockbind_locking as locking;
pub use lockbind_matching as matching;
pub use lockbind_mediabench as mediabench;
pub use lockbind_netlist as netlist;
pub use lockbind_sat as sat;

/// One-stop imports for the common flow (see the crate-level example).
pub mod prelude {
    pub use lockbind_attacks::{
        approximate_sat_attack, random_query_attack, sat_attack, AttackConfig,
    };
    pub use lockbind_core::{
        application_impact, bind_area_aware, bind_exhaustive, bind_obfuscation_aware,
        bind_power_aware, bind_random, design_lock, expected_application_errors, locked_sim,
        minterm_to_pattern, realize_locked_modules, ApplicationImpact, CoDesignProblem,
        DesignGoals, LockingSpec,
    };
    pub use lockbind_hls::{
        bind_naive, metrics, schedule_asap, schedule_list, Allocation, Binding, Dfg, FuClass, FuId,
        Minterm, OccurrenceProfile, OpId, OpKind, Schedule, SwitchingProfile, Trace, ValueRef,
    };
    pub use lockbind_locking::{
        expected_sat_iterations, lock_anti_sat, lock_compound, lock_critical_minterms,
        lock_permutation, lock_rll, lock_sfll_hd, LockedNetlist,
    };
    pub use lockbind_mediabench::{synthetic_benchmark, Benchmark, Kernel, SkewParams};
    pub use lockbind_netlist::{builders, Netlist};
    pub use lockbind_resil::CancelToken;
    pub use lockbind_sat::{SolveResult, Solver};
}
