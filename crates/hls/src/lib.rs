//! High-level-synthesis substrate for security-aware resource binding.
//!
//! This crate provides the RT-level design representation the paper's
//! algorithms operate on (Sec. II-B of the paper):
//!
//! * [`Dfg`] — a data-flow graph of single-cycle operations over fixed-width
//!   words, built with a small builder API ([`Dfg::input`], [`Dfg::op`], ...),
//! * [`Schedule`] — a cycle assignment for every operation; produced by
//!   [`schedule_asap`] or the resource-constrained
//!   [`schedule_list`] (our stand-in for the paper's path-based scheduler),
//! * [`Allocation`] — how many functional units of each [`FuClass`]
//!   (adder/ALU vs multiplier) are available,
//! * [`Binding`] — the operation→FU map that the paper's algorithms optimize,
//!   with full validity checking,
//! * [`sim`] — a trace-driven simulator executing the DFG over input
//!   [`Trace`]s,
//! * [`OccurrenceProfile`] — the paper's `K` matrix: how often each FU-input
//!   minterm is applied to each operation during a typical workload,
//! * [`SwitchingProfile`] and [`metrics`] — the register-count and
//!   switching-rate models used to reproduce the paper's Fig. 6 overhead
//!   comparison.
//!
//! # Example: from behaviour to a profiled, schedulable design
//!
//! ```
//! use lockbind_hls::{Dfg, OpKind, schedule_list, Allocation, Trace};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! // y = (a + b) * (a - b), 8-bit operands
//! let mut dfg = Dfg::new(8);
//! let a = dfg.input("a");
//! let b = dfg.input("b");
//! let s = dfg.op(OpKind::Add, a, b);
//! let d = dfg.op(OpKind::Sub, a, b);
//! let y = dfg.op(OpKind::Mul, s.into(), d.into());
//! dfg.mark_output(y);
//!
//! let alloc = Allocation::new(2, 1);
//! let schedule = schedule_list(&dfg, &alloc)?;
//! assert_eq!(schedule.num_cycles(), 2);
//!
//! // Profile a typical workload to obtain the K matrix.
//! let trace = Trace::from_frames(vec![vec![3, 1], vec![3, 1], vec![7, 2]]);
//! let profile = lockbind_hls::OccurrenceProfile::from_trace(&dfg, &trace)?;
//! // The Add op saw operand pair (3, 1) twice.
//! assert_eq!(profile.count(s, lockbind_hls::Minterm::pack(3, 1, 8)), 2);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod alloc;
/// Binding types and the naive baseline binder.
pub mod binding;
mod dfg;
mod error;
pub mod metrics;
mod profile;
mod schedule;
pub mod sim;
mod trace;
mod value;

pub use alloc::Allocation;
pub use binding::{bind_naive, Binding};
pub use dfg::{Dfg, OpId, OpKind, Operation, ValueRef};
pub use error::HlsError;
pub use profile::{OccurrenceProfile, SwitchingProfile};
pub use schedule::{schedule_asap, schedule_list, Schedule};
pub use trace::{Frame, Trace};
pub use value::{FuClass, FuId, InputId, Minterm};
