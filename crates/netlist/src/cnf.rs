//! Tseitin encoding of netlists into CNF.
//!
//! Literals follow the DIMACS convention: variables are positive `i32`s,
//! negation is arithmetic negation, variable 0 does not exist. The encoding
//! is *instantiation-based*: the same netlist can be encoded several times
//! into one [`Cnf`] with different input/key literal vectors — exactly what
//! the SAT attack's miter construction needs (two copies sharing inputs but
//! with independent keys).
//!
//! Two encoders: [`encode_netlist`] Tseitin-encodes every gate over
//! symbolic inputs (the miter), and [`constrain_io`] encodes one oracle
//! observation — known inputs, observed outputs — by folding the known
//! inputs through the netlist and pushing the observed values down the
//! key-dependent cone, so a pinned chain of ANDs or ORs becomes clauses
//! over key literals (polarity-aware, Plaisted–Greenbaum style).

use crate::{Gate, Netlist, Signal};

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
/// constant, or still a function of the key. A key-dependent net follows
/// one key-dependent node (a key input, or a gate both of whose operands
/// depend on the key), inverted when `inv` is set.
#[derive(Debug, Clone, Copy)]
enum Net {
    Const(bool),
    Dep { node: usize, inv: bool },
}

/// Per-node memo of [`constrain_io`]'s second step.
#[derive(Debug, Clone, Copy, Default)]
struct NodeMemo {
    /// Operand slots of key-dependent gates that read this node.
    readers: u32,
    /// The node's variable; 0 until a clause needs a literal for it.
    var: i32,
    /// `defined[v]`: the clauses by which `var = v` implies node value `v`
    /// are emitted.
    defined: [bool; 2],
    /// `required[v]`: the node is already forced to value `v`.
    required: [bool; 2],
}

/// Pushes required output values down the folded cone of one observation.
struct Pinner<'a> {
    netlist: &'a Netlist,
    cnf: &'a mut Cnf,
    key_lits: &'a [i32],
    nets: Vec<Net>,
    memo: Vec<NodeMemo>,
}

/// `l` if `v`, else `-l`.
fn signed(l: i32, v: bool) -> i32 {
    if v {
        l
    } else {
        -l
    }
}

/// Whether an AND/OR gate at value `v` needs all of its operands at `v`
/// (AND true, OR false) rather than any one of them (AND false, OR true).
fn needs_all(gate: Gate, v: bool) -> bool {
    matches!(gate, Gate::And(..)) == v
}

impl Pinner<'_> {
    fn gate(&self, node: usize) -> Gate {
        self.netlist.gate(Signal(node as u32))
    }

    /// The key-dependent node behind operand `s` of a key-dependent gate,
    /// and the value it needs for the operand to be `v`.
    fn operand(&self, s: Signal, v: bool) -> (usize, bool) {
        match self.nets[s.index()] {
            Net::Dep { node, inv } => (node, v != inv),
            Net::Const(_) => unreachable!("operands of a key-dependent gate depend on the key"),
        }
    }

    /// Forces `node` to `v`, with no variable for `node` itself unless it
    /// is an XOR: a key input becomes a unit clause, an "all operands"
    /// gate requires each operand, and an "any operand" gate becomes one
    /// clause over its leaves.
    fn require(&mut self, node: usize, v: bool) {
        if std::mem::replace(&mut self.memo[node].required[v as usize], true) {
            return;
        }
        match self.gate(node) {
            Gate::Key(i) => self.cnf.add_clause([signed(self.key_lits[i], v)]),
            gate @ (Gate::And(a, b) | Gate::Or(a, b)) if needs_all(gate, v) => {
                for s in [a, b] {
                    let (m, u) = self.operand(s, v);
                    self.require(m, u);
                }
            }
            Gate::And(..) | Gate::Or(..) => {
                let mut clause = Vec::new();
                self.gather(node, v, &mut clause);
                self.cnf.add_clause(clause);
            }
            _ => {
                let l = self.lit(node, v);
                self.cnf.add_clause([l]);
            }
        }
    }

    /// Appends one literal per leaf of the AND/OR `node` at value `v`: an
    /// operand gate of the same kind (both "all" or both "any") whose
    /// only reader is `node` is expanded in place, so its clauses merge
    /// into `node`'s and the clause count cannot grow; any other operand
    /// contributes its [`Pinner::lit`].
    fn gather(&mut self, node: usize, v: bool, out: &mut Vec<i32>) {
        let gate = self.gate(node);
        let (Gate::And(a, b) | Gate::Or(a, b)) = gate else {
            unreachable!("only AND/OR gates have leaves")
        };
        for s in [a, b] {
            let (m, u) = self.operand(s, v);
            let child = self.gate(m);
            if self.memo[m].readers == 1
                && matches!(child, Gate::And(..) | Gate::Or(..))
                && needs_all(child, u) == needs_all(gate, v)
            {
                self.gather(m, u, out);
            } else {
                out.push(self.lit(m, u));
            }
        }
    }

    /// A literal that implies `node = v`: the key literal of a key input,
    /// else the node's variable, whose implication clauses for polarity
    /// `v` (Plaisted–Greenbaum) are emitted on first use, before the
    /// literal is returned. XOR needs both polarities of its operands and
    /// gets the full Tseitin definition.
    fn lit(&mut self, node: usize, v: bool) -> i32 {
        let gate = self.gate(node);
        if let Gate::Key(i) = gate {
            return signed(self.key_lits[i], v);
        }
        if !std::mem::replace(&mut self.memo[node].defined[v as usize], true) {
            if let Gate::Xor(a, b) = gate {
                let (x, y) = (self.both(a), self.both(b));
                self.memo[node].defined = [true; 2];
                self.memo[node].var = xor_gate(self.cnf, x, y);
            } else {
                let mut leaves = Vec::new();
                self.gather(node, v, &mut leaves);
                if self.memo[node].var == 0 {
                    self.memo[node].var = self.cnf.new_var();
                }
                let guard = signed(-self.memo[node].var, v);
                if needs_all(gate, v) {
                    for l in leaves {
                        self.cnf.add_clause([guard, l]);
                    }
                } else {
                    leaves.insert(0, guard);
                    self.cnf.add_clause(leaves);
                }
            }
        }
        signed(self.memo[node].var, v)
    }

    /// A literal equivalent to operand `s` of an XOR: its node defined in
    /// both polarities.
    fn both(&mut self, s: Signal) -> i32 {
        let (m, u) = self.operand(s, true);
        let l = self.lit(m, u);
        self.lit(m, !u);
        l
    }
}

/// Forces one instantiation of `netlist`, keyed by `key_lits`, to map the
/// known primary `inputs` to the observed `outputs` — the oracle constraint
/// of the SAT attack.
///
/// Two steps. First, one walk over the gate array folds the known inputs
/// through every gate (`AND(x,1)=x`, `AND(x,0)=0`, `OR(x,0)=x`,
/// `OR(x,1)=1`, `XOR(x,c)=±x`, `NOT`) and emits nothing: each net becomes
/// a constant or a possibly inverted key-dependent node. Second, each
/// observed value is pushed down its output's cone. A key input gets a
/// unit clause; an AND required true (OR required false) requires each
/// operand; an AND required false (OR required true) becomes one clause
/// over its leaves. A gate inside such a clause gets one variable, and
/// only the implications for the polarity it is reached in are emitted;
/// XOR gets the full Tseitin clauses. An output settled to a constant
/// emits nothing when it agrees and an unsatisfiable pair when it does
/// not. Every clause holds when each variable carries its node's value,
/// and every literal implies its node's value, so the key assignments
/// admitted are exactly those [`encode_netlist`] admits with the inputs
/// and outputs pinned. Variables go only to gates both of whose operands
/// depend on the key, and the clause order is fixed by the netlist and
/// the observation alone.
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
    let mut memo = vec![NodeMemo::default(); netlist.num_nodes()];
    let mut read_both = |x: usize, y: usize| {
        memo[x].readers += 1;
        memo[y].readers += 1;
    };
    for (s, gate) in netlist.iter_gates() {
        let dep = Net::Dep {
            node: s.index(),
            inv: false,
        };
        let net = match gate {
            Gate::False => Net::Const(false),
            Gate::Input(i) => Net::Const(inputs[i]),
            Gate::Key(_) => dep,
            Gate::Not(a) => match nets[a.index()] {
                Net::Const(c) => Net::Const(!c),
                Net::Dep { node, inv } => Net::Dep { node, inv: !inv },
            },
            Gate::And(a, b) => match (nets[a.index()], nets[b.index()]) {
                (Net::Const(false), _) | (_, Net::Const(false)) => Net::Const(false),
                (Net::Const(true), n) | (n, Net::Const(true)) => n,
                (Net::Dep { node: x, .. }, Net::Dep { node: y, .. }) => {
                    read_both(x, y);
                    dep
                }
            },
            Gate::Or(a, b) => match (nets[a.index()], nets[b.index()]) {
                (Net::Const(true), _) | (_, Net::Const(true)) => Net::Const(true),
                (Net::Const(false), n) | (n, Net::Const(false)) => n,
                (Net::Dep { node: x, .. }, Net::Dep { node: y, .. }) => {
                    read_both(x, y);
                    dep
                }
            },
            Gate::Xor(a, b) => match (nets[a.index()], nets[b.index()]) {
                (Net::Const(c), Net::Const(d)) => Net::Const(c != d),
                (Net::Const(c), Net::Dep { node, inv })
                | (Net::Dep { node, inv }, Net::Const(c)) => Net::Dep {
                    node,
                    inv: inv != c,
                },
                (Net::Dep { node: x, .. }, Net::Dep { node: y, .. }) => {
                    read_both(x, y);
                    dep
                }
            },
        };
        nets.push(net);
    }

    let mut pinner = Pinner {
        netlist,
        cnf,
        key_lits,
        nets,
        memo,
    };
    for (s, &want) in netlist.outputs().iter().zip(outputs) {
        match pinner.nets[s.index()] {
            Net::Dep { node, inv } => pinner.require(node, want != inv),
            Net::Const(c) if c == want => {}
            Net::Const(_) => {
                let v = pinner.cnf.new_var();
                pinner.cnf.add_clause([v]);
                pinner.cnf.add_clause([-v]);
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
    fn agreeing_anti_sat_observation_is_one_clause_over_key_literals() {
        // The Anti-SAT shape: outputs `f XOR (g(X^K1) AND NOT g(X^K2))`,
        // `g` an AND chain. An observation agreeing with `f` requires the
        // flip to be 0: one wide clause over K1's literals and one variable
        // standing for `g(X^K2)`, defined by a binary clause per key bit.
        let n = 4;
        let mut nl = Netlist::new("anti-sat");
        let x = nl.add_inputs(n);
        let k1 = nl.add_keys(n);
        let k2 = nl.add_keys(n);
        let f = [nl.and(x[0], x[1]), nl.xor(x[2], x[3])];
        let g = |nl: &mut Netlist, k: &[Signal]| {
            let terms: Vec<Signal> = x.iter().zip(k).map(|(&a, &b)| nl.xor(a, b)).collect();
            terms[1..].iter().fold(terms[0], |acc, &t| nl.and(acc, t))
        };
        let g1 = g(&mut nl, &k1);
        let g2 = g(&mut nl, &k2);
        let not_g2 = nl.not(g2);
        let flip = nl.and(g1, not_g2);
        for o in f {
            let out = nl.xor(o, flip);
            nl.mark_output(out);
        }
        for word in 0..1u32 << n {
            let in_bits: Vec<bool> = (0..n).map(|i| (word >> i) & 1 == 1).collect();
            let y = nl.eval(&in_bits, &[false; 8]).expect("ok");
            // Two key copies in one formula, as the DIP loop adds them.
            let mut cnf = Cnf::new();
            for _copy in 0..2 {
                let keys = cnf.new_vars(2 * n);
                let clauses_before = cnf.clauses().len();
                constrain_io(&nl, &mut cnf, &in_bits, &keys, &y);
                let fresh = cnf.num_vars() as i32;
                assert_eq!(fresh, keys[2 * n - 1] + 1, "one fresh variable");
                let added = &cnf.clauses()[clauses_before..];
                assert_eq!(added.len(), n + 1);
                let wide: Vec<&Vec<i32>> = added.iter().filter(|c| c.len() > 2).collect();
                assert_eq!(wide.len(), 1, "one wide clause");
                let mut k1_lits: Vec<i32> = wide[0]
                    .iter()
                    .copied()
                    .filter(|l| l.abs() != fresh)
                    .collect();
                k1_lits.sort_by_key(|l| l.abs());
                let expected: Vec<i32> = (0..n)
                    .map(|i| if in_bits[i] { keys[i] } else { -keys[i] })
                    .collect();
                assert_eq!(k1_lits, expected, "the clause blocks K1 = NOT X");
                assert!(added.iter().all(|c| c.len() > 2 || c.contains(&-fresh)));
            }
        }
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
