//! Tseitin encoding of netlists into CNF.
//!
//! Literals follow the DIMACS convention: variables are positive `i32`s,
//! negation is arithmetic negation, variable 0 does not exist. The encoding
//! is *instantiation-based*: the same netlist can be encoded several times
//! into one [`Cnf`] with different input/key literal vectors — exactly what
//! the SAT attack's miter construction needs (two copies sharing inputs but
//! with independent keys).
//!
//! Two encoders share the gate clauses: [`encode_netlist`] encodes every
//! gate over symbolic inputs (the miter), and [`constrain_io`] encodes one
//! oracle observation — known inputs, observed outputs — folding the known
//! inputs through the netlist so only the key-dependent logic is encoded.

use crate::{Gate, Netlist};

/// A CNF formula under construction.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Cnf {
    num_vars: u32,
    clauses: Vec<Vec<i32>>,
}

impl Cnf {
    /// Creates an empty formula.
    pub fn new() -> Self {
        Cnf::default()
    }

    /// Allocates a fresh variable and returns its positive literal.
    pub fn new_var(&mut self) -> i32 {
        self.num_vars += 1;
        self.num_vars as i32
    }

    /// Allocates `n` fresh variables.
    pub fn new_vars(&mut self, n: usize) -> Vec<i32> {
        (0..n).map(|_| self.new_var()).collect()
    }

    /// Adds a clause (a disjunction of literals).
    ///
    /// # Panics
    /// Panics if any literal references an unallocated variable or is 0.
    pub fn add_clause(&mut self, lits: impl Into<Vec<i32>>) {
        let lits = lits.into();
        for &l in &lits {
            assert!(l != 0, "literal 0 is invalid");
            assert!(
                l.unsigned_abs() <= self.num_vars,
                "literal {l} out of range"
            );
        }
        self.clauses.push(lits);
    }

    /// Number of allocated variables.
    pub fn num_vars(&self) -> u32 {
        self.num_vars
    }

    /// The clauses added so far.
    pub fn clauses(&self) -> &[Vec<i32>] {
        &self.clauses
    }

    /// Checks a full assignment (`assignment[v-1]` is the value of variable
    /// `v`) against every clause; returns the index of the first violated
    /// clause, if any. Used by tests to validate encodings without a solver.
    pub fn first_violated(&self, assignment: &[bool]) -> Option<usize> {
        self.clauses.iter().position(|clause| {
            !clause.iter().any(|&l| {
                let v = assignment[(l.unsigned_abs() - 1) as usize];
                if l > 0 {
                    v
                } else {
                    !v
                }
            })
        })
    }
}

/// Encodes one instantiation of `netlist` into `cnf`.
///
/// `input_lits` and `key_lits` supply the literals standing for the primary
/// and key inputs of this instance (they may be shared with other instances).
/// Returns the output literals in output-declaration order.
///
/// # Panics
/// Panics if the literal vectors do not match the netlist's arities.
pub fn encode_netlist(
    netlist: &Netlist,
    cnf: &mut Cnf,
    input_lits: &[i32],
    key_lits: &[i32],
) -> Vec<i32> {
    encode_netlist_with_map(netlist, cnf, input_lits, key_lits).0
}

/// Like [`encode_netlist`], but additionally returns the literal assigned to
/// every netlist node (indexed by [`crate::Signal::index`]). Useful for
/// diagnostics and for tests that validate the encoding against simulation.
///
/// # Panics
/// Same as [`encode_netlist`].
pub fn encode_netlist_with_map(
    netlist: &Netlist,
    cnf: &mut Cnf,
    input_lits: &[i32],
    key_lits: &[i32],
) -> (Vec<i32>, Vec<i32>) {
    assert_eq!(
        input_lits.len(),
        netlist.num_inputs(),
        "input literal count mismatch"
    );
    assert_eq!(
        key_lits.len(),
        netlist.num_keys(),
        "key literal count mismatch"
    );

    let mut lit_of: Vec<i32> = Vec::with_capacity(netlist.num_nodes());
    let mut false_lit: Option<i32> = None;
    for (_, gate) in netlist.iter_gates() {
        let lit = match gate {
            Gate::False => match false_lit {
                Some(l) => l,
                None => {
                    let v = cnf.new_var();
                    cnf.add_clause([-v]);
                    false_lit = Some(v);
                    v
                }
            },
            Gate::Input(i) => input_lits[i],
            Gate::Key(i) => key_lits[i],
            Gate::Not(a) => -lit_of[a.index()],
            Gate::And(a, b) => and_gate(cnf, lit_of[a.index()], lit_of[b.index()]),
            Gate::Or(a, b) => or_gate(cnf, lit_of[a.index()], lit_of[b.index()]),
            Gate::Xor(a, b) => xor_gate(cnf, lit_of[a.index()], lit_of[b.index()]),
        };
        lit_of.push(lit);
    }
    let outputs = netlist
        .outputs()
        .iter()
        .map(|s| lit_of[s.index()])
        .collect();
    (outputs, lit_of)
}

/// A net of a netlist whose primary inputs are known: settled to a
/// constant, or still a function of the key (a literal).
#[derive(Debug, Clone, Copy)]
enum Net {
    Const(bool),
    Lit(i32),
}

/// Forces one instantiation of `netlist`, keyed by `key_lits`, to map the
/// known primary `inputs` to the observed `outputs` — the oracle constraint
/// of the SAT attack.
///
/// One walk over the gate array carries each net as a constant or a
/// literal and folds constants through every gate (`AND(x,1)=x`,
/// `AND(x,0)=0`, `OR(x,0)=x`, `OR(x,1)=1`, `XOR(x,c)=±x`, `NOT`). A
/// variable and its Tseitin clauses are emitted only where both operands
/// still depend on the key. Each output is then pinned: a unit clause on a
/// literal output, nothing on an agreeing constant, and an unsatisfiable
/// pair on a disagreeing constant. The key assignments admitted are
/// exactly those [`encode_netlist`] admits with the inputs and outputs
/// pinned.
///
/// # Panics
/// Panics if `inputs`, `key_lits` or `outputs` do not match the netlist's
/// arities.
pub fn constrain_io(
    netlist: &Netlist,
    cnf: &mut Cnf,
    inputs: &[bool],
    key_lits: &[i32],
    outputs: &[bool],
) {
    assert_eq!(inputs.len(), netlist.num_inputs(), "input count mismatch");
    assert_eq!(
        key_lits.len(),
        netlist.num_keys(),
        "key literal count mismatch"
    );
    assert_eq!(
        outputs.len(),
        netlist.num_outputs(),
        "output count mismatch"
    );

    let mut nets: Vec<Net> = Vec::with_capacity(netlist.num_nodes());
    for (_, gate) in netlist.iter_gates() {
        let net = match gate {
            Gate::False => Net::Const(false),
            Gate::Input(i) => Net::Const(inputs[i]),
            Gate::Key(i) => Net::Lit(key_lits[i]),
            Gate::Not(a) => match nets[a.index()] {
                Net::Const(c) => Net::Const(!c),
                Net::Lit(x) => Net::Lit(-x),
            },
            Gate::And(a, b) => match (nets[a.index()], nets[b.index()]) {
                (Net::Const(false), _) | (_, Net::Const(false)) => Net::Const(false),
                (Net::Const(true), n) | (n, Net::Const(true)) => n,
                (Net::Lit(x), Net::Lit(y)) => Net::Lit(and_gate(cnf, x, y)),
            },
            Gate::Or(a, b) => match (nets[a.index()], nets[b.index()]) {
                (Net::Const(true), _) | (_, Net::Const(true)) => Net::Const(true),
                (Net::Const(false), n) | (n, Net::Const(false)) => n,
                (Net::Lit(x), Net::Lit(y)) => Net::Lit(or_gate(cnf, x, y)),
            },
            Gate::Xor(a, b) => match (nets[a.index()], nets[b.index()]) {
                (Net::Const(c), Net::Const(d)) => Net::Const(c != d),
                (Net::Const(c), Net::Lit(x)) | (Net::Lit(x), Net::Const(c)) => {
                    Net::Lit(if c { -x } else { x })
                }
                (Net::Lit(x), Net::Lit(y)) => Net::Lit(xor_gate(cnf, x, y)),
            },
        };
        nets.push(net);
    }
    for (s, &want) in netlist.outputs().iter().zip(outputs) {
        match nets[s.index()] {
            Net::Lit(l) => cnf.add_clause([if want { l } else { -l }]),
            Net::Const(c) if c == want => {}
            Net::Const(_) => {
                let v = cnf.new_var();
                cnf.add_clause([v]);
                cnf.add_clause([-v]);
            }
        }
    }
}

/// Emits `c <-> x AND y` for a fresh `c` and returns `c`.
fn and_gate(cnf: &mut Cnf, x: i32, y: i32) -> i32 {
    let c = cnf.new_var();
    cnf.add_clause([-c, x]);
    cnf.add_clause([-c, y]);
    cnf.add_clause([c, -x, -y]);
    c
}

/// Emits `c <-> x OR y` for a fresh `c` and returns `c`.
fn or_gate(cnf: &mut Cnf, x: i32, y: i32) -> i32 {
    let c = cnf.new_var();
    cnf.add_clause([c, -x]);
    cnf.add_clause([c, -y]);
    cnf.add_clause([-c, x, y]);
    c
}

/// Emits `c <-> x XOR y` for a fresh `c` and returns `c`.
fn xor_gate(cnf: &mut Cnf, x: i32, y: i32) -> i32 {
    let c = cnf.new_var();
    cnf.add_clause([-c, x, y]);
    cnf.add_clause([-c, -x, -y]);
    cnf.add_clause([c, -x, y]);
    cnf.add_clause([c, x, -y]);
    c
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builders::{adder_fu, multiplier_fu};
    use crate::Signal;

    /// Computes per-node boolean values of a netlist for one stimulus.
    fn node_values(nl: &Netlist, inputs: &[bool], keys: &[bool]) -> Vec<bool> {
        let mut vals = Vec::with_capacity(nl.num_nodes());
        for (_, gate) in nl.iter_gates() {
            let v = match gate {
                Gate::False => false,
                Gate::Input(i) => inputs[i],
                Gate::Key(i) => keys[i],
                Gate::And(a, b) => vals[a.index()] && vals[b.index()],
                Gate::Or(a, b) => vals[a.index()] || vals[b.index()],
                Gate::Xor(a, b) => vals[a.index()] != vals[b.index()],
                Gate::Not(a) => !vals[a.index()],
            };
            vals.push(v);
        }
        vals
    }

    /// Builds the full CNF assignment implied by a netlist stimulus: every
    /// node's literal is set to the simulated node value.
    fn induced_assignment(
        cnf: &Cnf,
        lit_of: &[i32],
        values: &[bool],
        input_lits: &[i32],
        input_bits: &[bool],
    ) -> Vec<bool> {
        let mut assign = vec![false; cnf.num_vars() as usize];
        for (lit, &bit) in input_lits.iter().zip(input_bits) {
            assign[(lit.unsigned_abs() - 1) as usize] = if *lit > 0 { bit } else { !bit };
        }
        for (node, &lit) in lit_of.iter().enumerate() {
            let var = (lit.unsigned_abs() - 1) as usize;
            let val = if lit > 0 { values[node] } else { !values[node] };
            assign[var] = val;
        }
        assign
    }

    #[test]
    fn tseitin_soundness_on_adder_points() {
        let nl = adder_fu(4);
        let mut cnf = Cnf::new();
        let inputs = cnf.new_vars(nl.num_inputs());
        let (outputs, lit_of) = encode_netlist_with_map(&nl, &mut cnf, &inputs, &[]);

        for (a, b) in [(3u64, 5u64), (15, 1), (9, 9), (0, 0), (15, 15)] {
            let in_bits: Vec<bool> = (0..4)
                .map(|i| (a >> i) & 1 == 1)
                .chain((0..4).map(|i| (b >> i) & 1 == 1))
                .collect();
            let values = node_values(&nl, &in_bits, &[]);
            let assign = induced_assignment(&cnf, &lit_of, &values, &inputs, &in_bits);
            assert_eq!(cnf.first_violated(&assign), None, "inputs ({a},{b})");
            // Output literals decode to the simulated sum.
            let sim = nl.eval(&in_bits, &[]).expect("ok");
            for (lit, &expect) in outputs.iter().zip(&sim) {
                let v = assign[(lit.unsigned_abs() - 1) as usize];
                let v = if *lit > 0 { v } else { !v };
                assert_eq!(v, expect);
            }
        }
    }

    #[test]
    fn flipping_an_output_violates_a_clause() {
        let nl = multiplier_fu(3);
        let mut cnf = Cnf::new();
        let inputs = cnf.new_vars(nl.num_inputs());
        let (outputs, lit_of) = encode_netlist_with_map(&nl, &mut cnf, &inputs, &[]);
        let in_bits = vec![true, true, false, true, false, false]; // a=3, b=1
        let values = node_values(&nl, &in_bits, &[]);
        let mut assign = induced_assignment(&cnf, &lit_of, &values, &inputs, &in_bits);
        assert_eq!(cnf.first_violated(&assign), None);
        // Corrupt output bit 0: some gate clause must now be violated.
        let var = (outputs[0].unsigned_abs() - 1) as usize;
        assign[var] = !assign[var];
        assert!(cnf.first_violated(&assign).is_some());
    }

    #[test]
    fn keyed_instances_can_share_inputs() {
        // Two instances of a 1-bit keyed xor sharing the input var but with
        // distinct key vars (miter building block).
        let mut nl = Netlist::new("kx");
        let a = nl.add_input();
        let k = nl.add_key();
        let x = nl.xor(a, k);
        nl.mark_output(x);

        let mut cnf = Cnf::new();
        let shared_in = cnf.new_vars(1);
        let key1 = cnf.new_vars(1);
        let key2 = cnf.new_vars(1);
        let o1 = encode_netlist(&nl, &mut cnf, &shared_in, &key1);
        let o2 = encode_netlist(&nl, &mut cnf, &shared_in, &key2);

        // With keys equal, outputs must agree; check via induced assignments.
        for (in_v, k_v) in [(false, false), (true, false), (true, true)] {
            let values = node_values(&nl, &[in_v], &[k_v]);
            let mut assign = vec![false; cnf.num_vars() as usize];
            assign[(shared_in[0] - 1) as usize] = in_v;
            assign[(key1[0] - 1) as usize] = k_v;
            assign[(key2[0] - 1) as usize] = k_v;
            // Replay both instances (their aux vars are disjoint).
            let out = values[nl.outputs()[0].index()];
            for lits in [&o1, &o2] {
                let var = (lits[0].unsigned_abs() - 1) as usize;
                assign[var] = if lits[0] > 0 { out } else { !out };
            }
            // The xor aux var IS the output var here, so the assignment is
            // complete; both instances' clauses must hold.
            assert_eq!(cnf.first_violated(&assign), None);
        }
    }

    #[test]
    fn cnf_guards_bad_literals() {
        let mut cnf = Cnf::new();
        let v = cnf.new_var();
        cnf.add_clause([v, -v]);
        assert_eq!(cnf.num_vars(), 1);
        assert_eq!(cnf.clauses().len(), 1);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn cnf_rejects_unallocated_var() {
        let mut cnf = Cnf::new();
        cnf.add_clause([3]);
    }

    #[test]
    #[should_panic(expected = "literal 0")]
    fn cnf_rejects_zero_literal() {
        let mut cnf = Cnf::new();
        let _ = cnf.new_var();
        cnf.add_clause([0]);
    }

    #[test]
    fn keyless_observation_emits_no_variables() {
        // With every input known and no key, the whole adder folds to
        // constants: an agreeing observation adds nothing to the formula.
        let nl = adder_fu(3);
        let mut cnf = Cnf::new();
        let in_bits = [true, false, true, true, true, false]; // 5 + 3
        let sum = nl.eval(&in_bits, &[]).expect("ok");
        constrain_io(&nl, &mut cnf, &in_bits, &[], &sum);
        assert_eq!(cnf.num_vars(), 0);
        assert!(cnf.clauses().is_empty());
    }

    #[test]
    fn disagreeing_constant_output_is_an_unsatisfiable_pair() {
        let nl = adder_fu(3);
        let mut cnf = Cnf::new();
        let in_bits = [false; 6];
        constrain_io(&nl, &mut cnf, &in_bits, &[], &[true, false, false]);
        assert_eq!(cnf.num_vars(), 1);
        assert_eq!(cnf.clauses(), &[vec![1], vec![-1]]);
    }

    #[test]
    fn key_dependent_cone_alone_is_encoded() {
        // out = (a AND k0) XOR (b OR k1): with a=1, b=0 it folds to
        // k0 XOR k1 — one XOR variable and a unit clause pinning it.
        let mut nl = Netlist::new("cone");
        let (a, b) = (nl.add_input(), nl.add_input());
        let (k0, k1) = (nl.add_key(), nl.add_key());
        let l = nl.and(a, k0);
        let r = nl.or(b, k1);
        let o = nl.xor(l, r);
        nl.mark_output(o);
        let mut cnf = Cnf::new();
        let keys = cnf.new_vars(2);
        constrain_io(&nl, &mut cnf, &[true, false], &keys, &[true]);
        assert_eq!(cnf.num_vars(), 3);
        assert_eq!(cnf.clauses().len(), 5);
        assert_eq!(cnf.clauses().last(), Some(&vec![3]));
    }

    #[test]
    fn false_gate_shares_one_var() {
        let mut nl = Netlist::new("f");
        let f1 = nl.lit_false();
        let f2 = nl.lit_false();
        let o = nl.or(f1, f2);
        nl.mark_output(o);
        let mut cnf = Cnf::new();
        let before = cnf.num_vars();
        let _ = encode_netlist(&nl, &mut cnf, &[], &[]);
        // One false var + one OR var.
        assert_eq!(cnf.num_vars() - before, 2);
        let _ = Signal(0); // silence unused import paths on some cfgs
    }
}
