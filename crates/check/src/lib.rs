//! `lockbind-check` — static IR verifier, matching-optimality certificate
//! checker, and lint framework for HLS/locking artifacts.
//!
//! The binding algorithms, checkpoint codec, and experiment engine all move
//! structured artifacts around: DFGs, schedules, bindings, locking specs,
//! locked netlists. Their constructors validate what they can, but unchecked
//! constructors exist for round-tripping untrusted data, and semantic
//! properties — *is this matching actually the Eqn. 3 optimum?* — are not
//! checkable at construction time at all. This crate closes the gap with a
//! pass manager in the classic compiler mold:
//!
//! * [`Artifact`] — a borrow-bundle of whatever the caller has (every field
//!   optional; passes skip when their inputs are absent),
//! * [`check_artifact`] — runs the [`PASSES`] suite and returns a
//!   [`Report`] of [`Diagnostic`]s with stable `LBxxxx` [`Code`]s,
//!   severities, and artifact [`Span`]s,
//! * [`Report::render_human`] / [`Report::render_json`] — renderers for
//!   terminals and tooling,
//! * [`Report::failure_message`] — the compact summary (prefixed with
//!   [`CHECK_FAILURE_PREFIX`]) a rejected cell fails with.
//!
//! The flagship pass is **matching-optimality certification**: the
//! obfuscation-aware binder exports the LP dual potentials of each per-cycle
//! assignment, and the checker *independently* rebuilds the Eqn. 3 weight
//! matrix and verifies dual feasibility plus a zero duality gap. By LP weak
//! duality that proves the binder hit the Thm. 2 optimum — without trusting
//! or re-running the solver.
//!
//! ```
//! use lockbind_check::{check_artifact, Artifact};
//! use lockbind_hls::{schedule_asap, Allocation, Dfg, OpKind};
//!
//! let mut dfg = Dfg::new(8);
//! let a = dfg.input("a");
//! let b = dfg.input("b");
//! let s = dfg.op(OpKind::Add, a, b);
//! dfg.mark_output(s);
//! let schedule = schedule_asap(&dfg);
//! let alloc = Allocation::new(1, 0);
//!
//! let report = check_artifact(
//!     &Artifact::new()
//!         .with_dfg(&dfg)
//!         .with_schedule(&schedule)
//!         .with_alloc(&alloc),
//! );
//! assert!(report.is_clean());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod artifact;
mod audit;
mod diag;
mod passes;

pub use artifact::Artifact;
pub use audit::{audit_netlist, audit_passed, AuditSummary, AUDIT_PASSES, SKEW_THRESHOLD};
pub use diag::{Code, Diagnostic, Report, Severity, Span};
pub use passes::{check_artifact, Pass, PASSES};

/// Prefix of every check-failure message (see
/// [`Report::failure_message`]), so a rejected cell reads as one in a
/// run's failure list. Nothing parses it: [`check_artifact`] counts each
/// diagnostic code on the obs registry instead.
pub const CHECK_FAILURE_PREFIX: &str = "check failed: ";
