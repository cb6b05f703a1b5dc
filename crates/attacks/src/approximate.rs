//! AppSAT-style approximate attack.
//!
//! The exact SAT attack needs one DIP per wrong key against point-function
//! locking — infeasible for realistic key sizes. Approximate attacks stop
//! early and settle for a key that is correct on *most* inputs. Against
//! critical-minterm locking this recovers an approximate netlist that is
//! still wrong exactly on the protected minterms — which is why the paper
//! maximizes how often those minterms occur in the workload: the residual
//! error of an approximately-unlocked chip stays application-relevant.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use lockbind_locking::corruption::error_rate;
use lockbind_locking::LockedNetlist;
use lockbind_resil::CancelToken;

use crate::sat_attack::DipDriver;

/// Outcome of [`approximate_sat_attack`].
#[derive(Debug, Clone, PartialEq)]
pub struct ApproximateOutcome {
    /// The recovered (approximate) key.
    pub key: Vec<bool>,
    /// DIP iterations actually spent.
    pub iterations: u64,
    /// Random reinforcement queries spent.
    pub random_queries: u64,
    /// Exact residual error rate of the recovered key (fraction of the
    /// input space still corrupted).
    pub residual_error_rate: f64,
    /// `true` if the key is exactly correct (residual error 0).
    pub exact: bool,
}

/// Runs a budgeted DIP loop (at most `dip_budget` iterations), reinforces
/// with `random_queries` oracle samples, and returns any key consistent
/// with everything observed — the AppSAT recipe. Residual error is then
/// measured exhaustively.
///
/// # Panics
/// Panics if the module has more than 24 inputs (exhaustive residual-error
/// measurement guard).
pub fn approximate_sat_attack(
    locked: &LockedNetlist,
    dip_budget: u64,
    random_queries: u64,
    seed: u64,
) -> ApproximateOutcome {
    let n = locked.netlist().num_inputs();
    // The exact attack's DIP loop, capped at the budget. No conflict
    // budget or interrupt can fire here, and hitting the cap is the
    // point, so every stop just ends refinement.
    let mut driver = DipDriver::new(locked, None, &CancelToken::new());
    let _ = driver.run(dip_budget);
    let iterations = driver.iterations();

    // Random reinforcement (the "App" part).
    let mut rng = StdRng::seed_from_u64(seed);
    for _ in 0..random_queries {
        let bits: Vec<bool> = (0..n).map(|_| rng.gen()).collect();
        let y = locked.oracle().eval(&bits, &[]).expect("oracle arity");
        driver.constrain(&bits, &y);
    }

    let key = driver
        .extract_key()
        .expect("no budget or interrupt is installed");
    let residual = error_rate(locked, &key, n as u32);
    ApproximateOutcome {
        exact: residual == 0.0,
        residual_error_rate: residual,
        key,
        iterations,
        random_queries,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lockbind_locking::{lock_critical_minterms, lock_rll};
    use lockbind_netlist::builders::adder_fu;

    #[test]
    fn unbudgeted_run_recovers_exact_key_on_rll() {
        let locked = lock_rll(&adder_fu(3), 6, 3).expect("lockable");
        let out = approximate_sat_attack(&locked, 10_000, 0, 1);
        assert!(out.exact);
        assert_eq!(out.residual_error_rate, 0.0);
    }

    #[test]
    fn tiny_budget_leaves_residual_error_on_point_lock() {
        // 4-bit adder, 1 protected minterm: with only 2 DIPs + a few random
        // queries the approximate key is almost surely still wrong at the
        // protected minterm.
        let locked = lock_critical_minterms(&adder_fu(4), &[0x5B]).expect("lockable");
        let out = approximate_sat_attack(&locked, 2, 8, 7);
        assert!(out.iterations <= 2);
        assert!(
            !out.exact,
            "a 2-DIP budget should not pin a 256-point key space"
        );
        // Residual error is tiny (a few minterms) — exactly the paper's
        // point: approximate attacks leave the *protected* behaviour wrong.
        assert!(out.residual_error_rate > 0.0);
        assert!(out.residual_error_rate < 0.1);
    }

    #[test]
    fn budget_zero_is_pure_random_query() {
        let locked = lock_rll(&adder_fu(3), 5, 9).expect("lockable");
        let out = approximate_sat_attack(&locked, 0, 64, 11);
        assert_eq!(out.iterations, 0);
        assert!(out.exact, "64 random queries pin down RLL");
    }
}
