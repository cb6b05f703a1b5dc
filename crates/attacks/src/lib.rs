//! Oracle-guided attacks on locked netlists.
//!
//! * [`sat_attack`] — the SAT attack of Subramanyan et al. (paper ref \[10\]):
//!   build a miter of two keyed copies of the locked netlist, repeatedly
//!   extract a *distinguishing input pattern* (DIP), query the activated-chip
//!   oracle, and constrain both key copies to agree with the oracle on every
//!   DIP; when no DIP remains, any consistent key is functionally correct.
//!   The iteration count is the paper's SAT-resilience measure (Eqn. 1).
//! * [`random_query_attack`] — a baseline that constrains the key with
//!   random oracle queries only; enough to break high-corruption schemes
//!   (RLL) but not point-function locking.
//!
//! # Example: break RLL in a handful of iterations
//!
//! ```
//! use lockbind_netlist::builders::adder_fu;
//! use lockbind_locking::lock_rll;
//! use lockbind_attacks::{sat_attack, AttackConfig};
//!
//! let locked = lock_rll(&adder_fu(4), 8, 42).expect("lockable");
//! let outcome = sat_attack(&locked, &AttackConfig::default());
//! assert!(outcome.success);
//! assert!(outcome.iterations < 64);
//! ```
//!
//! # Example: stop an attack at a deadline
//!
//! The cancel token is one more stop condition in [`AttackConfig`], next to
//! the iteration cap and the conflict budget.
//!
//! ```
//! use std::time::Duration;
//! use lockbind_netlist::builders::adder_fu;
//! use lockbind_locking::lock_anti_sat;
//! use lockbind_attacks::{sat_attack, AttackConfig, AttackStop};
//! use lockbind_resil::CancelToken;
//!
//! let locked = lock_anti_sat(&adder_fu(5)).expect("lockable");
//! let config = AttackConfig {
//!     cancel: CancelToken::with_deadline(Duration::from_millis(1)),
//!     ..AttackConfig::default()
//! };
//! let outcome = sat_attack(&locked, &config);
//! assert_eq!(outcome.stop, AttackStop::Interrupted);
//! assert!(!outcome.success);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod approximate;
mod random_query;
mod sat_attack;
mod verify;

pub use approximate::{approximate_sat_attack, ApproximateOutcome};
pub use random_query::{random_query_attack, RandomQueryOutcome};
pub use sat_attack::{sat_attack, secret_sweep, AttackConfig, AttackStop, SatAttackOutcome};
pub use verify::is_functionally_correct;
