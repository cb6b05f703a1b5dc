//! Gate-level netlist substrate for logic locking.
//!
//! Logic locking operates on combinational modules at the gate level; this
//! crate provides everything the locking and attack crates need:
//!
//! * [`Netlist`] — an append-only (hence acyclic) gate graph with primary
//!   inputs, key inputs, and outputs,
//! * [`builders`] — structural arithmetic: ripple-carry adders, array
//!   multipliers, constant comparators, and ready-made functional-unit modules
//!   ([`builders::adder_fu`], [`builders::multiplier_fu`], ...),
//! * 64-way bit-parallel simulation ([`Netlist::eval`] /
//!   [`Netlist::eval_u64`]),
//! * [`cnf`] — Tseitin encoding into DIMACS-style CNF for the SAT attack.
//!
//! # Example: build and simulate a 4-bit adder FU
//!
//! ```
//! use lockbind_netlist::builders::adder_fu;
//!
//! let nl = adder_fu(4);
//! assert_eq!(nl.num_inputs(), 8);
//! assert_eq!(nl.num_outputs(), 4);
//! // 9 + 8 = 17 -> 1 (mod 16)
//! let out = nl.eval_words(&[9, 8], 4, &[]);
//! assert_eq!(out, vec![1]);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod analysis;
pub mod builders;
pub mod cnf;
mod error;
mod netlist;

pub use error::NetlistError;
pub use netlist::{Gate, Netlist, Signal};
