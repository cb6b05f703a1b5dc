//! Logic-locking schemes and the corruption/SAT-resilience trade-off model.
//!
//! The paper (Sec. II-A) divides locking into two families, both provided
//! here, plus the classic high-corruption baseline:
//!
//! * **Critical-minterm locking** ([`lock_critical_minterms`]) — the paper's
//!   main vehicle (SFLL-rem-style): a designer-chosen set of input minterms
//!   is *stripped* from the circuit and restored only by the correct key, so
//!   those minterms produce errant output for (almost) every wrong key while
//!   each SAT-attack iteration eliminates only ~1 wrong key.
//! * **Exponential SAT-iteration-runtime locking** ([`lock_permutation`]) —
//!   a Full-Lock-style keyed permutation network that makes individual SAT
//!   iterations expensive.
//! * **Anti-SAT** ([`lock_anti_sat`]) and **random key-gate locking (RLL)**
//!   ([`lock_rll`]) — the classic comparison points: Anti-SAT is
//!   SAT-resilient with near-zero corruption; RLL corrupts heavily but is
//!   unlocked in a handful of SAT iterations.
//!
//! [`expected_sat_iterations`] implements the paper's Eqn. 1 trade-off
//! (expected SAT iterations as a function of key length and the fraction of
//! locked inputs ε), and [`corruption`] measures actual error rates and
//! locked-input sets of a locked netlist by simulation.
//!
//! # Example: lock an 8-bit adder on two chosen minterms
//!
//! ```
//! use lockbind_netlist::builders::adder_fu;
//! use lockbind_locking::{lock_critical_minterms, corruption::corrupted_inputs};
//!
//! let adder = adder_fu(8);
//! // Protect the operand pairs (3, 4) and (250, 250): pack LSB-first, a then b.
//! let minterms = [3u64 | (4 << 8), 250 | (250 << 8)];
//! let locked = lock_critical_minterms(&adder, &minterms).expect("lockable");
//! assert_eq!(locked.netlist().num_keys(), 32); // 16 input bits per minterm
//!
//! // With the correct key the circuit is functionally intact on a sample.
//! let y = locked.eval_with_key(&[7, 9], 8, locked.correct_key());
//! assert_eq!(y, vec![16]);
//!
//! // A wrong key corrupts exactly the protected minterms (plus the wrong
//! // key's own restore patterns).
//! let mut wrong = locked.correct_key().to_vec();
//! wrong[0] = !wrong[0];
//! let errs = corrupted_inputs(&locked, wrong.as_slice(), 16);
//! assert!(errs.contains(&(3u64 | (4 << 8))));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod antisat;
mod compound;
pub mod corruption;
mod error;
mod locked;
mod model;
mod permnet;
mod point;
mod rll;
mod sfll;

pub use antisat::lock_anti_sat;
pub use compound::lock_compound;
pub use error::LockError;
pub use locked::LockedNetlist;
pub use model::{epsilon_for_locked_inputs, expected_sat_iterations};
pub use permnet::lock_permutation;
pub use point::lock_critical_minterms;
pub use rll::lock_rll;
pub use sfll::lock_sfll_hd;
