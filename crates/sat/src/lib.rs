//! A CDCL SAT solver built from scratch for the oracle-guided SAT attack.
//!
//! Features: two-watched-literal propagation, first-UIP conflict analysis,
//! VSIDS variable ordering with phase saving, Luby restarts, activity-based
//! learnt-clause database reduction, incremental clause addition between
//! solves, and solving under assumptions — everything the SAT attack's
//! DIP loop needs (add distinguishing-input constraints, re-solve).
//!
//! Literals use the DIMACS convention (`i32`, negative = negated, no 0),
//! matching [`lockbind-netlist`]'s Tseitin encoder.
//!
//! # Example
//!
//! ```
//! use lockbind_sat::{Solver, SolveResult};
//!
//! let mut s = Solver::new();
//! let a = s.new_var();
//! let b = s.new_var();
//! s.add_clause(&[a, b]);
//! s.add_clause(&[-a, b]);
//! assert_eq!(s.solve(), SolveResult::Sat);
//! assert!(s.model_value(b));
//!
//! // Incremental: force b false and re-solve.
//! s.add_clause(&[-b]);
//! assert_eq!(s.solve(), SolveResult::Unsat);
//! ```
//!
//! [`lockbind-netlist`]: ../lockbind_netlist/index.html

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod heap;
mod luby;
mod solver;

pub use luby::luby;
pub use solver::{SolveResult, Solver, SolverStats};
