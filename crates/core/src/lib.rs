//! Security-aware resource binding for logic obfuscation — the Rust
//! implementation of *"A Resource Binding Approach to Logic Obfuscation"*
//! (Zuzak, Liu, Srivastava — DAC 2021).
//!
//! Logic locking can only stay SAT-resilient by corrupting a handful of
//! input minterms per module (Eqn. 1 of the paper), which is normally far
//! too little error to derail an application. This crate implements the
//! paper's answer: make the *resource binding* step of HLS aware of the
//! locking configuration, so the few locked minterms are applied to locked
//! FUs as often as possible during the typical workload.
//!
//! * [`LockingSpec`] — which FUs are locked and with which minterm sets.
//! * [`expected_application_errors`] — the objective cost function (Eqn. 2).
//! * [`bind_obfuscation_aware`] — Problem 1 (Sec. IV): locked inputs fixed,
//!   bind each clock cycle with a max-weight bipartite matching (optimal,
//!   P-time, Thms. 1–2).
//! * [`CoDesignProblem`] — Problem 2 (Sec. V): choose the locked inputs
//!   from a candidate list *and* the binding, with the exact optimum
//!   ([`CoDesignProblem::optimal`]) or the paper's P-time sequential
//!   heuristic ([`CoDesignProblem::heuristic`]).
//! * [`bind_area_aware`] / [`bind_power_aware`] / [`bind_random`] — the
//!   comparison binding algorithms (\[20\], \[19\]) used throughout the
//!   evaluation.
//! * [`design_lock`] — the binding-time design methodology of Sec. V-C:
//!   tune the locked-input count to an application-error target with
//!   maximum SAT resilience, escalating to an exponential-runtime scheme
//!   when Eqn. 1 says critical-minterm locking alone cannot reach the goal.
//! * [`realize_locked_modules`] — instantiate the chosen configuration as
//!   actual locked gate-level FU netlists (via `lockbind-locking`).
//!
//! # Example: the paper's Fig. 2 worked example
//!
//! ```
//! use lockbind_hls::{Dfg, OpKind, Allocation, Schedule, Minterm, FuId, FuClass};
//! use lockbind_core::{LockingSpec, bind_obfuscation_aware, expected_application_errors};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! // Five add operations over two cycles, three allocated adders, two of
//! // which are locked (FU1 locks 'x', FU2 locks 'y').
//! // (The K matrix is synthesized from a trace in real flows; here the
//! // occurrence counts of Fig. 2 are reproduced with a hand-built trace.)
//! # Ok(())
//! # }
//! ```
//!
//! See `examples/quickstart.rs` for the complete end-to-end flow.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod app_error;
mod area_aware;
mod codesign;
mod combinations;
mod cost;
mod error;
mod exhaustive;
pub mod locked_sim;
mod methodology;
mod obf_aware;
mod pipeline;
mod power_aware;
mod random_binding;
mod spec;
mod sweep;

pub use app_error::{application_impact, ApplicationImpact};
pub use area_aware::bind_area_aware;
pub use codesign::{
    codesign_heuristic_cancellable, CoDesignChoice, CoDesignOutcome, CoDesignProblem,
    OPTIMAL_SEARCH_LIMIT,
};
pub use combinations::combinations;
pub use cost::expected_application_errors;
pub use error::CoreError;
pub use exhaustive::bind_exhaustive;
pub use methodology::{design_lock, DesignGoals, MethodologyOutcome};
pub use obf_aware::{
    bind_obfuscation_aware, bind_obfuscation_aware_certified, obf_weight_matrix,
    BindingCertificate, CycleCert,
};
pub use pipeline::{minterm_to_pattern, realize_locked_modules, LockedDesign};
pub use power_aware::bind_power_aware;
pub use random_binding::bind_random;
pub use spec::LockingSpec;
pub use sweep::{ClassTable, ErrorSweep};
