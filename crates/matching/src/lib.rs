//! Maximum-weight bipartite matching kernels for resource binding.
//!
//! Every binding algorithm in the companion crates (`lockbind-core`) reduces a
//! single clock cycle of a scheduled data-flow graph to an *assignment
//! problem*: `n` operations (rows) must each be mapped to one of `m >= n`
//! functional units (columns) so that the total edge weight is maximized
//! (obfuscation-aware binding, Eqn. 3 of the paper) or minimized (area-aware /
//! power-aware baselines).
//!
//! The crate provides:
//!
//! * [`WeightMatrix`] — a dense rectangular weight matrix with optional
//!   forbidden edges,
//! * [`max_weight_matching`] / [`min_cost_matching`] — the Hungarian algorithm
//!   with potentials (Jonker–Volgenant style shortest augmenting paths),
//!   `O(n^2 m)`, exact,
//! * [`max_weight_matching_certified`] / [`min_cost_matching_certified`] —
//!   the same solve, additionally returning the solver's final LP dual
//!   potentials as a [`DualCertificate`]; [`verify_dual_certificate`] proves
//!   optimality offline (dual feasibility + zero duality gap) without
//!   re-running the solver,
//! * [`brute_force`] — an exponential reference implementation used by the
//!   test-suite to validate the Hungarian solver on small instances.
//!
//! Every solve here is cold. The co-design sweeps in `lockbind-core`
//! (`ErrorSweep`) score millions of locking configurations without this
//! crate: their Eqn. 3 matrices are zero outside the few locked columns, so
//! a small exact kernel over those columns replaces the full assignment
//! problem, and its differential properties use [`max_weight_matching`] as
//! the reference.
//!
//! # Example
//!
//! Bind two operations to three FUs, maximizing locked-input hits (this is the
//! worked example of Fig. 2 in the paper: `OPA -> FU2`, `OPB -> FU1`, total
//! cost 13):
//!
//! ```
//! use lockbind_matching::{WeightMatrix, max_weight_matching};
//!
//! # fn main() -> Result<(), lockbind_matching::MatchingError> {
//! // rows = operations (OPA, OPB), cols = FUs (FU1, FU2, FU3)
//! let mut w = WeightMatrix::zero(2, 3);
//! w.set(0, 0, 6); // K[x, OPA] on FU1 (locks x)
//! w.set(0, 1, 9); // K[y, OPA] on FU2 (locks y)
//! w.set(1, 0, 4); // K[x, OPB]
//! w.set(1, 1, 3); // K[y, OPB]
//! // FU3 is unlocked: weight 0 edges (already zero).
//! let m = max_weight_matching(&w)?;
//! assert_eq!(m.total, 13);
//! assert_eq!(m.row_to_col, vec![1, 0]);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod brute;
mod certificate;
mod error;
mod hungarian;
mod matrix;

pub use brute::brute_force;
pub use certificate::{
    verify_dual_certificate, CertificateError, CertifiedMatching, DualCertificate,
};
pub use error::MatchingError;
pub use hungarian::{
    max_weight_matching, max_weight_matching_certified, min_cost_matching,
    min_cost_matching_certified,
};
pub use matrix::{Matching, WeightMatrix};
