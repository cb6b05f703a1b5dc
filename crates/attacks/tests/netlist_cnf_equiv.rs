//! Cross-substrate property tests: the Tseitin encoder, the CDCL solver,
//! and the netlist simulator must agree with each other on random circuits,
//! and the folded oracle constraint ([`constrain_io`]) must admit exactly
//! the keys the full encoding admits.

use lockbind_netlist::cnf::{constrain_io, encode_netlist, Cnf};
use lockbind_netlist::{Gate, Netlist, Signal};
use lockbind_sat::{SolveResult, Solver};
use proptest::prelude::*;

/// Random netlist recipe: each step adds a gate whose operands are chosen
/// among existing signals.
fn netlist_strategy() -> impl Strategy<Value = Netlist> {
    let gate = (0..4usize, 0..64usize, 0..64usize);
    (2..6usize, proptest::collection::vec(gate, 2..30)).prop_map(|(num_inputs, gates)| {
        let mut nl = Netlist::new("random");
        let mut signals: Vec<Signal> = (0..num_inputs).map(|_| nl.add_input()).collect();
        for (kind, a, b) in gates {
            let sa = signals[a % signals.len()];
            let sb = signals[b % signals.len()];
            let s = match kind {
                0 => nl.and(sa, sb),
                1 => nl.or(sa, sb),
                2 => nl.xor(sa, sb),
                _ => nl.not(sa),
            };
            signals.push(s);
        }
        let out = *signals.last().expect("at least inputs");
        nl.mark_output(out);
        nl
    })
}

/// Keyed variant of [`netlist_strategy`]: 1–4 primary inputs, 0–6 key
/// inputs, gates (including constant 0) over every earlier signal, and
/// two declared outputs (the last gate and one chosen earlier signal).
fn keyed_netlist_strategy() -> impl Strategy<Value = Netlist> {
    let gate = (0..5usize, 0..64usize, 0..64usize);
    (
        1..5usize,
        0..7usize,
        proptest::collection::vec(gate, 2..30),
        0..64usize,
    )
        .prop_map(|(num_inputs, num_keys, gates, pick)| {
            let mut nl = Netlist::new("random-keyed");
            let mut signals: Vec<Signal> = (0..num_inputs).map(|_| nl.add_input()).collect();
            signals.extend((0..num_keys).map(|_| nl.add_key()));
            for (kind, a, b) in gates {
                let sa = signals[a % signals.len()];
                let sb = signals[b % signals.len()];
                let s = match kind {
                    0 => nl.and(sa, sb),
                    1 => nl.or(sa, sb),
                    2 => nl.xor(sa, sb),
                    3 => nl.not(sa),
                    _ => nl.lit_false(),
                };
                signals.push(s);
            }
            nl.mark_output(*signals.last().expect("at least inputs"));
            nl.mark_output(signals[pick % signals.len()]);
            nl
        })
}

/// The low `n` bits of `word`, LSB first.
fn bits(word: u64, n: usize) -> Vec<bool> {
    (0..n).map(|i| (word >> i) & 1 == 1).collect()
}

/// Solves `cnf` with the key literals assumed to `key`.
fn sat_under_key(cnf: &Cnf, key_lits: &[i32], key: &[bool]) -> bool {
    let mut solver = Solver::new();
    solver.reserve_vars(cnf.num_vars());
    for cl in cnf.clauses() {
        solver.add_clause(cl);
    }
    let assumptions: Vec<i32> = key_lits
        .iter()
        .zip(key)
        .map(|(&l, &b)| if b { l } else { -l })
        .collect();
    match solver.solve_with_assumptions(&assumptions) {
        SolveResult::Sat => true,
        SolveResult::Unsat => false,
        other => panic!("unbudgeted solve ended with {other:?}"),
    }
}

/// The variables the full-Tseitin fold allocates for one observation: one
/// per gate both of whose operands still depend on the key once the known
/// inputs are folded through, plus one per output settled to a constant
/// that disagrees with the observation (its unsatisfiable pair).
fn tseitin_fold_vars(nl: &Netlist, in_bits: &[bool], observed: &[bool]) -> u32 {
    // `None`: the net still depends on the key.
    let mut known: Vec<Option<bool>> = Vec::with_capacity(nl.num_nodes());
    let mut vars = 0;
    for (_, gate) in nl.iter_gates() {
        let net = match gate {
            Gate::False => Some(false),
            Gate::Input(i) => Some(in_bits[i]),
            Gate::Key(_) => None,
            Gate::Not(a) => known[a.index()].map(|c| !c),
            Gate::And(a, b) => match (known[a.index()], known[b.index()]) {
                (Some(false), _) | (_, Some(false)) => Some(false),
                (Some(true), n) | (n, Some(true)) => n,
                (None, None) => {
                    vars += 1;
                    None
                }
            },
            Gate::Or(a, b) => match (known[a.index()], known[b.index()]) {
                (Some(true), _) | (_, Some(true)) => Some(true),
                (Some(false), n) | (n, Some(false)) => n,
                (None, None) => {
                    vars += 1;
                    None
                }
            },
            Gate::Xor(a, b) => match (known[a.index()], known[b.index()]) {
                (Some(c), Some(d)) => Some(c != d),
                (None, None) => {
                    vars += 1;
                    None
                }
                _ => None,
            },
        };
        known.push(net);
    }
    let disagreeing = nl
        .outputs()
        .iter()
        .zip(observed)
        .filter(|(s, &y)| known[s.index()] == Some(!y))
        .count();
    vars + disagreeing as u32
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The folded oracle constraint and the full encoding with pinned
    /// inputs and outputs admit exactly the same key assignments — and
    /// exactly the keys under which the netlist simulates to the observed
    /// outputs. The observation is the simulation under a random key with
    /// a random mask of output bits flipped, so both admitted and rejected
    /// keys (and disagreeing constant outputs) occur.
    #[test]
    fn folded_constraint_admits_exactly_the_full_encodings_keys(
        nl in keyed_netlist_strategy(),
        stim in any::<u64>(),
        key0 in any::<u64>(),
        flip in 0..4u64,
    ) {
        let (n, kb) = (nl.num_inputs(), nl.num_keys());
        let in_bits = bits(stim, n);
        let mut observed = nl.eval(&in_bits, &bits(key0, kb)).expect("arity");
        for (i, o) in observed.iter_mut().enumerate() {
            *o ^= (flip >> i) & 1 == 1;
        }

        let mut folded = Cnf::new();
        let folded_keys = folded.new_vars(kb);
        constrain_io(&nl, &mut folded, &in_bits, &folded_keys, &observed);

        let mut full = Cnf::new();
        let x = full.new_vars(n);
        let full_keys = full.new_vars(kb);
        let outs = encode_netlist(&nl, &mut full, &x, &full_keys);
        for (&l, &b) in x.iter().zip(&in_bits) {
            full.add_clause([if b { l } else { -l }]);
        }
        for (&o, &y) in outs.iter().zip(&observed) {
            full.add_clause([if y { o } else { -o }]);
        }

        for word in 0..1u64 << kb {
            let key = bits(word, kb);
            let admitted = sat_under_key(&folded, &folded_keys, &key);
            prop_assert_eq!(admitted, sat_under_key(&full, &full_keys, &key), "key {:#b}", word);
            let sim = nl.eval(&in_bits, &key).expect("arity");
            prop_assert_eq!(admitted, sim == observed, "key {:#b}", word);
        }
    }

    /// The pinned-polarity constraint never allocates more variables than
    /// the fold that Tseitin-encodes every gate with two key-dependent
    /// operands.
    #[test]
    fn constraint_allocates_no_more_variables_than_the_fold(
        nl in keyed_netlist_strategy(),
        stim in any::<u64>(),
        key0 in any::<u64>(),
        flip in 0..4u64,
    ) {
        let in_bits = bits(stim, nl.num_inputs());
        let mut observed = nl.eval(&in_bits, &bits(key0, nl.num_keys())).expect("arity");
        for (i, o) in observed.iter_mut().enumerate() {
            *o ^= (flip >> i) & 1 == 1;
        }
        let mut cnf = Cnf::new();
        let keys = cnf.new_vars(nl.num_keys());
        constrain_io(&nl, &mut cnf, &in_bits, &keys, &observed);
        let fresh = cnf.num_vars() - nl.num_keys() as u32;
        prop_assert!(fresh <= tseitin_fold_vars(&nl, &in_bits, &observed));
    }

    /// An output that the known inputs settle to a constant, observed with
    /// the other value, makes the folded constraint unsatisfiable.
    #[test]
    fn disagreeing_constant_output_is_unsat(nl in netlist_strategy(), stim in any::<u64>()) {
        let in_bits = bits(stim, nl.num_inputs());
        let mut observed = nl.eval(&in_bits, &[]).expect("arity");
        observed[0] = !observed[0];
        let mut cnf = Cnf::new();
        constrain_io(&nl, &mut cnf, &in_bits, &[], &observed);
        prop_assert!(!sat_under_key(&cnf, &[], &[]));
    }

    /// A miter of a netlist against itself (shared inputs) is UNSAT: the
    /// encoder never invents degrees of freedom and the solver proves it.
    #[test]
    fn self_miter_is_unsat(nl in netlist_strategy()) {
        let mut cnf = Cnf::new();
        let inputs = cnf.new_vars(nl.num_inputs());
        let o1 = encode_netlist(&nl, &mut cnf, &inputs, &[]);
        let o2 = encode_netlist(&nl, &mut cnf, &inputs, &[]);
        // Force some output pair to differ.
        let mut diff_lits = Vec::new();
        for (a, b) in o1.iter().zip(&o2) {
            let d = cnf.new_var();
            cnf.add_clause([-d, *a, *b]);
            cnf.add_clause([-d, -*a, -*b]);
            cnf.add_clause([d, -*a, *b]);
            cnf.add_clause([d, *a, -*b]);
            diff_lits.push(d);
        }
        cnf.add_clause(diff_lits);

        let mut solver = Solver::new();
        solver.reserve_vars(cnf.num_vars());
        for cl in cnf.clauses() {
            solver.add_clause(cl);
        }
        prop_assert_eq!(solver.solve(), SolveResult::Unsat);
    }

    /// Constraining the inputs to a concrete vector forces the output
    /// literal to the simulated value.
    #[test]
    fn solver_agrees_with_simulation(nl in netlist_strategy(), stim in any::<u64>()) {
        let in_bits: Vec<bool> = (0..nl.num_inputs()).map(|i| (stim >> i) & 1 == 1).collect();
        let sim = nl.eval(&in_bits, &[]).expect("arity");

        let mut cnf = Cnf::new();
        let inputs = cnf.new_vars(nl.num_inputs());
        let outputs = encode_netlist(&nl, &mut cnf, &inputs, &[]);
        let mut solver = Solver::new();
        solver.reserve_vars(cnf.num_vars());
        for cl in cnf.clauses() {
            solver.add_clause(cl);
        }
        let assumptions: Vec<i32> = inputs
            .iter()
            .zip(&in_bits)
            .map(|(&v, &b)| if b { v } else { -v })
            .collect();
        prop_assert_eq!(solver.solve_with_assumptions(&assumptions), SolveResult::Sat);
        for (lit, &expect) in outputs.iter().zip(&sim) {
            prop_assert_eq!(solver.model_value(*lit), expect);
        }
    }

    /// Forcing the output to the WRONG value under fixed inputs is UNSAT.
    #[test]
    fn wrong_output_is_unsat(nl in netlist_strategy(), stim in any::<u64>()) {
        let in_bits: Vec<bool> = (0..nl.num_inputs()).map(|i| (stim >> i) & 1 == 1).collect();
        let sim = nl.eval(&in_bits, &[]).expect("arity");

        let mut cnf = Cnf::new();
        let inputs = cnf.new_vars(nl.num_inputs());
        let outputs = encode_netlist(&nl, &mut cnf, &inputs, &[]);
        let mut solver = Solver::new();
        solver.reserve_vars(cnf.num_vars());
        for cl in cnf.clauses() {
            solver.add_clause(cl);
        }
        let mut assumptions: Vec<i32> = inputs
            .iter()
            .zip(&in_bits)
            .map(|(&v, &b)| if b { v } else { -v })
            .collect();
        // Demand the negated output.
        assumptions.push(if sim[0] { -outputs[0] } else { outputs[0] });
        prop_assert_eq!(solver.solve_with_assumptions(&assumptions), SolveResult::Unsat);
    }
}
