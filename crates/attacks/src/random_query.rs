//! Random-query key-recovery baseline.
//!
//! Constrains the key using uniformly random oracle queries instead of
//! SAT-chosen distinguishing inputs. High-corruption schemes (RLL,
//! permutation locking) are pinned down by a few random queries; critical-
//! minterm locking is immune because random inputs almost never hit the
//! protected minterms — the asymmetry that motivates the SAT attack and,
//! in turn, the paper's resilience constraint.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use lockbind_locking::LockedNetlist;
use lockbind_netlist::cnf::{constrain_io, Cnf};
use lockbind_sat::{SolveResult, Solver};

use crate::is_functionally_correct;

/// Outcome of [`random_query_attack`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RandomQueryOutcome {
    /// A key consistent with all sampled queries (if any exists).
    pub key: Vec<bool>,
    /// Queries issued.
    pub queries: u64,
    /// `true` if the consistent key is functionally correct.
    pub success: bool,
}

/// Queries the oracle on `queries` uniform random inputs, then SAT-solves
/// for any key consistent with the observed behaviour and verifies it.
pub fn random_query_attack(locked: &LockedNetlist, queries: u64, seed: u64) -> RandomQueryOutcome {
    let nl = locked.netlist();
    let n = nl.num_inputs();
    let kb = nl.num_keys();
    let mut rng = StdRng::seed_from_u64(seed);

    let mut cnf = Cnf::new();
    let k = cnf.new_vars(kb);
    for _ in 0..queries {
        let bits: Vec<bool> = (0..n).map(|_| rng.gen()).collect();
        let y = locked.oracle().eval(&bits, &[]).expect("oracle arity");
        constrain_io(nl, &mut cnf, &bits, &k, &y);
    }

    let mut solver = Solver::new();
    solver.reserve_vars(cnf.num_vars());
    for cl in cnf.clauses() {
        solver.add_clause(cl);
    }
    match solver.solve() {
        // No budget or interrupt is installed; a non-Sat answer of any
        // flavour means no usable key.
        SolveResult::Unsat | SolveResult::BudgetExhausted | SolveResult::Interrupted => {
            RandomQueryOutcome {
                key: vec![false; kb],
                queries,
                success: false,
            }
        }
        SolveResult::Sat => {
            let key: Vec<bool> = k.iter().map(|&l| solver.model_value(l)).collect();
            let success = is_functionally_correct(locked, &key);
            RandomQueryOutcome {
                key,
                queries,
                success,
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lockbind_locking::{lock_critical_minterms, lock_rll};
    use lockbind_netlist::builders::adder_fu;

    #[test]
    fn random_queries_break_rll() {
        let locked = lock_rll(&adder_fu(4), 6, 21).expect("lockable");
        let out = random_query_attack(&locked, 64, 7);
        assert!(out.success);
    }

    #[test]
    fn random_queries_fail_on_point_function_lock() {
        // Protected minterm is a single point in a 256-point space: 32
        // random queries almost surely miss it, so the recovered key is
        // functionally wrong at the protected minterm.
        let locked = lock_critical_minterms(&adder_fu(4), &[0x9C]).expect("lockable");
        let out = random_query_attack(&locked, 32, 1234);
        assert!(
            !out.success,
            "random queries should not pin the point function"
        );
    }

    #[test]
    fn zero_queries_yield_arbitrary_key() {
        let locked = lock_critical_minterms(&adder_fu(4), &[0x9C]).expect("lockable");
        let out = random_query_attack(&locked, 0, 5);
        assert_eq!(out.queries, 0);
        // An unconstrained key is almost surely wrong.
        assert!(!out.success);
    }
}
