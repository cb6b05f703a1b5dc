//! The LB07xx structural-security audit: static passes that grade a
//! *locked* netlist's resistance to known structural attacks, layered on
//! the same [`Pass`]/[`Report`] machinery as the correctness checks.
//!
//! Where `netlist-sane` (LB06xx) asks *"is this netlist well-formed?"*,
//! the audit asks *"what does this netlist's structure leak about its
//! key?"*. Three passes, in the order they run:
//!
//! 1. **`audit-key-cones`** (`LB070x`) — per-key-bit fan-out cones and
//!    per-output key supports: inert key bits, unprotected or
//!    single-key-dominated outputs, isolated (bypassable) key paths,
//!    pure key-mixing logic, structurally redundant key bits.
//! 2. **`audit-key-xprop`** (`LB071x`) — three-valued (0/1/X)
//!    simulation under single-key-bit hypotheses: unit key gates
//!    reducible to constants, hypothesis-constant outputs, vacuous key
//!    gates, outputs that distinguish a key bit in one oracle query.
//! 3. **`audit-prob-skew`** (`LB072x`) — ProbLock-style topological
//!    signal-probability estimation: extreme-skew key-dependent nets,
//!    point-function comparator + corruption-XOR signatures, hardcoded
//!    comparators, skewed outputs.
//!
//! All findings except `LB0701` (a key bit that cannot reach any
//! output) are warnings: real schemes trip them *by design* — a
//! point-function comparator is skewed, that is the point — so the audit
//! is a scorecard, not a gate. [`AuditSummary`] condenses a report plus
//! the netlist into the per-netlist structural leakage summary.

use std::collections::BTreeMap;

use lockbind_netlist::analysis::{
    eval_tv, fanin_cone, fanout_cone, key_signals, signal_probabilities, KeyDependence, Tv,
};
use lockbind_netlist::{Gate, Netlist, Signal};
use lockbind_obs as obs;
use lockbind_obs::Json;

use crate::artifact::Artifact;
use crate::diag::{Code, Diagnostic, Report, Severity, Span};
use crate::passes::Pass;

/// Skew threshold for the `LB072x` pass: a net is *skewed* when its
/// estimated signal probability is `<= SKEW_THRESHOLD` or
/// `>= 1 - SKEW_THRESHOLD`. Calibrated against the workspace's FU
/// builders: clean ripple adder/multiplier structures floor at ~3/128
/// under the independence estimate, while point-function comparators
/// over >= 6 literals sit at or below 2^-6.
pub const SKEW_THRESHOLD: f64 = 1.0 / 64.0;

/// The audit pass suite, in execution order. Kept separate from
/// [`crate::PASSES`] so `check_artifact` (and its committed goldens)
/// are unchanged: audits run only behind the explicit `--audit` tier.
pub const AUDIT_PASSES: &[Pass] = &[
    Pass {
        name: "audit-key-cones",
        run: key_cones,
    },
    Pass {
        name: "audit-key-xprop",
        run: key_xprop,
    },
    Pass {
        name: "audit-prob-skew",
        run: prob_skew,
    },
];

/// Runs the LB07xx audit passes over a locked netlist.
///
/// Emits `audit.netlists` / `audit.findings` / `audit.errors` /
/// `audit.warnings` plus one dynamic `audit.code.LBxxxx` counter per
/// distinct code, so audit outcomes surface in run metrics.
pub fn audit_netlist(netlist: &Netlist) -> Report {
    let _span = obs::span!("audit.netlist");
    obs::counter!("audit.netlists").inc();
    let artifact = Artifact::new().with_netlist(netlist);
    let mut report = Report::new();
    for pass in AUDIT_PASSES {
        (pass.run)(&artifact, &mut report);
    }
    if !report.diagnostics().is_empty() {
        obs::counter!("audit.findings").add(report.diagnostics().len() as u64);
        obs::counter!("audit.errors").add(report.error_count() as u64);
        obs::counter!("audit.warnings").add(report.warning_count() as u64);
        for (code, count) in report.counts_by_code() {
            obs::Registry::global()
                .counter(&format!("audit.code.{code}"))
                .add(count as u64);
        }
    }
    report
}

/// Shared per-netlist context computed once per pass invocation.
struct Ctx {
    dep: KeyDependence,
    /// Nets in the fan-in cone of at least one declared output.
    live: Vec<bool>,
    /// `(key index, key terminal signal)`, sorted by key index.
    keys: Vec<(usize, Signal)>,
    /// Direct consumers of each net, by net index.
    consumers: Vec<Vec<u32>>,
}

impl Ctx {
    fn new(nl: &Netlist) -> Self {
        let dep = KeyDependence::compute(nl);
        let live = fanin_cone(nl, nl.outputs());
        let keys = key_signals(nl);
        let mut consumers = vec![Vec::new(); nl.num_nodes()];
        for (s, g) in nl.iter_gates() {
            for op in g.operands() {
                consumers[op.index()].push(s.index() as u32);
            }
        }
        Ctx {
            dep,
            live,
            keys,
            consumers,
        }
    }
}

/// Pass 1 — key-dependency cone analysis (`LB070x`).
fn key_cones(artifact: &Artifact, report: &mut Report) {
    let Some(nl) = artifact.netlist else {
        return;
    };
    if nl.num_keys() == 0 {
        return;
    }
    let ctx = Ctx::new(nl);

    // LB0701: key bits whose fan-out cone contains no declared output.
    let mut cones: Vec<(usize, Vec<bool>)> = Vec::with_capacity(ctx.keys.len());
    for &(k, s) in &ctx.keys {
        let cone = fanout_cone(nl, &[s]);
        if !nl.outputs().iter().any(|o| cone[o.index()]) {
            report.push(Diagnostic::new(
                Code::KeyUnobservable,
                Span::KeyInput(k),
                format!("key bit {k} reaches no primary output; any guess for it is correct"),
            ));
        }
        cones.push((k, cone));
    }

    // LB0702 / LB0703: outputs with empty or single-bit key support.
    for (i, &o) in nl.outputs().iter().enumerate() {
        let support = ctx.dep.support_count(o);
        if support == 0 {
            report.push(Diagnostic::new(
                Code::UnprotectedOutput,
                Span::Output(i),
                format!("output {i} has no key in its fan-in; it is entirely unprotected"),
            ));
        } else if support == 1 {
            let k = ctx.dep.sole_key(o).expect("support_count == 1");
            report.push(Diagnostic::new(
                Code::SingleKeyOutput,
                Span::Output(i),
                format!("output {i} depends on key bit {k} alone; the bit is learnable from this output"),
            ));
        }
    }

    // LB0704: a key reaching an output along a sole-key path — every net
    // on the path depends on that key and no other.
    let n = nl.num_nodes();
    let mut iso = vec![false; n];
    for (s, g) in nl.iter_gates() {
        let i = s.index();
        match g {
            Gate::Key(_) => iso[i] = true,
            _ => {
                if let Some(k) = ctx.dep.sole_key(s) {
                    iso[i] = g
                        .operands()
                        .any(|op| iso[op.index()] && ctx.dep.sole_key(op) == Some(k));
                }
            }
        }
    }
    let mut isolated: BTreeMap<usize, usize> = BTreeMap::new();
    for (i, &o) in nl.outputs().iter().enumerate() {
        if iso[o.index()] {
            if let Some(k) = ctx.dep.sole_key(o) {
                isolated.entry(k).or_insert(i);
            }
        }
    }
    for (k, out) in isolated {
        report.push(Diagnostic::new(
            Code::IsolatedKeyPath,
            Span::KeyInput(k),
            format!(
                "key bit {k} reaches output {out} along a path touching no other key; \
                 the key gate chain is bypassable"
            ),
        ));
    }

    // LB0705: live nets computing a pure multi-key function.
    for (s, g) in nl.iter_gates() {
        if matches!(g, Gate::Key(_)) {
            continue;
        }
        if ctx.live[s.index()] && ctx.dep.support_count(s) >= 2 && !ctx.dep.depends_on_input(s) {
            let keys = ctx.dep.support_keys(s);
            report.push(Diagnostic::new(
                Code::KeyMixingLogic,
                Span::Net(s.index()),
                format!(
                    "net n{} mixes key bits {:?} with no primary input; only the mixed value \
                     is observable, collapsing the key space",
                    s.index(),
                    keys
                ),
            ));
        }
    }

    // LB0706: key bits with identical fan-out cones (excluding the key
    // terminals themselves).
    for (ai, &(ka, sa)) in ctx.keys.iter().enumerate() {
        for &(kb, sb) in ctx.keys.iter().skip(ai + 1) {
            let (_, ref ca) = cones[ai];
            let cb = &cones
                .iter()
                .find(|(k, _)| *k == kb)
                .expect("cone computed above")
                .1;
            let same = (0..n).all(|i| i == sa.index() || i == sb.index() || ca[i] == cb[i]);
            if same {
                report.push(Diagnostic::new(
                    Code::RedundantKeyBit,
                    Span::KeyInput(ka),
                    format!(
                        "key bits {ka} and {kb} have identical fan-out cones; they are \
                         structurally interchangeable"
                    ),
                ));
            }
        }
    }
}

/// Pass 2 — constant/X-propagation under key hypotheses (`LB071x`).
fn key_xprop(artifact: &Artifact, report: &mut Report) {
    let Some(nl) = artifact.netlist else {
        return;
    };
    if nl.num_keys() == 0 {
        return;
    }
    let ctx = Ctx::new(nl);
    let all_x_inputs = vec![Tv::X; nl.num_inputs()];
    let all_x_keys = vec![Tv::X; nl.num_keys()];
    let baseline = eval_tv(nl, &all_x_inputs, &all_x_keys);

    // LB0713: a baseline-constant gate discarding a pure key function.
    // Scoped to operands with key support but no input dependence so the
    // ubiquitous `and(x, const0)` carry-in idiom of the ripple builders
    // does not flood the report.
    for (s, g) in nl.iter_gates() {
        let i = s.index();
        if !ctx.live[i] || baseline[i] == Tv::X || ctx.dep.support_count(s) == 0 {
            continue;
        }
        let discards_key = g.operands().any(|op| {
            baseline[op.index()] == Tv::X
                && ctx.dep.support_count(op) > 0
                && !ctx.dep.depends_on_input(op)
        });
        if discards_key {
            report.push(Diagnostic::new(
                Code::VacuousKeyGate,
                Span::Net(i),
                format!(
                    "net n{i} is constant with all inputs and keys unknown yet reads key \
                     logic; the key gate is vacuous and removable"
                ),
            ));
        }
    }

    // Single-key-bit hypotheses: key k := v, everything else X.
    let mut const_nets: BTreeMap<usize, (usize, bool)> = BTreeMap::new();
    let mut const_outs: BTreeMap<usize, (usize, bool)> = BTreeMap::new();
    let mut distinguished: BTreeMap<usize, usize> = BTreeMap::new();
    for &(k, _) in &ctx.keys {
        let mut out_vals: [Vec<Tv>; 2] = [Vec::new(), Vec::new()];
        for v in [false, true] {
            let mut keys = all_x_keys.clone();
            keys[k] = Tv::from_bool(v);
            let vals = eval_tv(nl, &all_x_inputs, &keys);

            for (s, g) in nl.iter_gates() {
                let i = s.index();
                // LB0711 targets AND/OR unit key gates: XOR/NOT can only
                // go constant here if an operand already was.
                if !matches!(g, Gate::And(..) | Gate::Or(..)) {
                    continue;
                }
                if !ctx.live[i]
                    || baseline[i] != Tv::X
                    || vals[i] == Tv::X
                    || ctx.dep.support_count(s) == 0
                {
                    continue;
                }
                // Mux legs pattern-match this (`and(sel, a)` is constant
                // under sel=0) but the mux as a whole stays live: suppress
                // nets all of whose consumers are ORs whose other operand
                // also depends on k (the complementary leg).
                let mux_leg = !ctx.consumers[i].is_empty()
                    && ctx.consumers[i].iter().all(|&c| {
                        let cs = nl.signal(c as usize);
                        match nl.gate(cs) {
                            Gate::Or(a, b) => {
                                let sib = if a.index() == i { b } else { a };
                                ctx.dep.depends_on_key(sib, k)
                            }
                            _ => false,
                        }
                    });
                if !mux_leg {
                    const_nets.entry(i).or_insert((k, v));
                }
            }

            for (oi, &o) in nl.outputs().iter().enumerate() {
                if baseline[o.index()] == Tv::X && vals[o.index()] != Tv::X {
                    const_outs.entry(oi).or_insert((k, v));
                }
            }
            out_vals[v as usize] = vals;
        }
        // LB0714: an output known under both hypotheses, with different
        // values — one oracle query reveals the bit.
        for (oi, &o) in nl.outputs().iter().enumerate() {
            let (a, b) = (out_vals[0][o.index()], out_vals[1][o.index()]);
            if a != Tv::X && b != Tv::X && a != b {
                distinguished.entry(oi).or_insert(k);
            }
        }
    }
    for (i, (k, v)) in const_nets {
        report.push(Diagnostic::new(
            Code::HypothesisConstantNet,
            Span::Net(i),
            format!(
                "net n{i} becomes constant under the hypothesis key{k}={} with all else \
                 unknown; an AND/OR unit key gate is reducible there",
                v as u8
            ),
        ));
    }
    for (oi, (k, v)) in const_outs {
        report.push(Diagnostic::new(
            Code::HypothesisConstantOutput,
            Span::Output(oi),
            format!(
                "output {oi} becomes constant under the hypothesis key{k}={} with all \
                 inputs unknown",
                v as u8
            ),
        ));
    }
    for (oi, k) in distinguished {
        report.push(Diagnostic::new(
            Code::HypothesisDistinguishedKey,
            Span::Output(oi),
            format!(
                "output {oi} takes distinct known values under key{k}=0 and key{k}=1; \
                 a single oracle query reveals the bit"
            ),
        ));
    }
}

/// Pass 3 — signal-probability skew estimation (`LB072x`).
fn prob_skew(artifact: &Artifact, report: &mut Report) {
    let Some(nl) = artifact.netlist else {
        return;
    };
    if nl.num_keys() == 0 {
        return;
    }
    let ctx = Ctx::new(nl);
    let p = signal_probabilities(nl);
    let baseline = eval_tv(
        nl,
        &vec![Tv::X; nl.num_inputs()],
        &vec![Tv::X; nl.num_keys()],
    );
    let skewed =
        |i: usize| baseline[i] == Tv::X && (p[i] <= SKEW_THRESHOLD || p[i] >= 1.0 - SKEW_THRESHOLD);

    for (s, g) in nl.iter_gates() {
        let i = s.index();
        if matches!(g, Gate::False | Gate::Input(_) | Gate::Key(_)) {
            continue;
        }
        if !ctx.live[i] || !skewed(i) {
            continue;
        }
        // LB0721: skew inside key-dependent logic.
        if ctx.dep.support_count(s) > 0 {
            report.push(Diagnostic::new(
                Code::SkewedKeyNet,
                Span::Net(i),
                format!(
                    "key-dependent net n{i} has estimated signal probability {:.6}; \
                     extreme skew marks point-function structure",
                    p[i]
                ),
            ));
        }
        // LB0722: the skewed net feeds a key-dependent XOR — the
        // comparator + corruption-XOR shape of point-function locking.
        let feeds_key_xor = ctx.consumers[i].iter().any(|&c| {
            let cs = nl.signal(c as usize);
            ctx.live[c as usize]
                && matches!(nl.gate(cs), Gate::Xor(..))
                && ctx.dep.support_count(cs) > 0
        });
        if feeds_key_xor {
            report.push(Diagnostic::new(
                Code::PointFunctionSignature,
                Span::Net(i),
                format!(
                    "skewed net n{i} (p={:.6}) drives a key-dependent XOR; this is the \
                     point-function comparator + corruption signature",
                    p[i]
                ),
            ));
        }
        // LB0723: a key-free, input-dependent comparator feeding key
        // logic — the hardcoded (stripped) half of an SFLL pair, which
        // leaks the protected minterm.
        if ctx.dep.support_count(s) == 0 && ctx.dep.depends_on_input(s) {
            let feeds_key_logic = ctx.consumers[i]
                .iter()
                .any(|&c| ctx.live[c as usize] && ctx.dep.support_count(nl.signal(c as usize)) > 0);
            if feeds_key_logic {
                report.push(Diagnostic::new(
                    Code::HardcodedComparator,
                    Span::Net(i),
                    format!(
                        "key-free net n{i} (p={:.6}) is a hardcoded comparator feeding key \
                         logic; it leaks the protected minterm",
                        p[i]
                    ),
                ));
            }
        }
    }

    // LB0724: skewed primary outputs.
    for (oi, &o) in nl.outputs().iter().enumerate() {
        if skewed(o.index()) {
            report.push(Diagnostic::new(
                Code::SkewedOutput,
                Span::Output(oi),
                format!(
                    "output {oi} has estimated signal probability {:.6}; a wrong key is \
                     almost never observable here",
                    p[o.index()]
                ),
            ));
        }
    }
}

/// The per-netlist structural leakage summary: headline numbers condensed
/// from the netlist and its audit [`Report`].
#[derive(Debug, Clone, PartialEq)]
pub struct AuditSummary {
    /// Netlist name.
    pub name: String,
    /// Total nets (gates + terminals).
    pub nets: usize,
    /// Primary inputs / key inputs / declared outputs.
    pub inputs: usize,
    /// Key inputs.
    pub keys: usize,
    /// Declared outputs.
    pub outputs: usize,
    /// `LB0701` findings: structurally inert key bits.
    pub inert_keys: usize,
    /// `LB0702` findings: outputs with no key protection.
    pub unprotected_outputs: usize,
    /// `LB0703` findings: outputs dominated by one key bit.
    pub single_key_outputs: usize,
    /// `LB0711` + `LB0713` findings: removable key gates.
    pub removable_gates: usize,
    /// Live, non-constant nets bucketed by skew `|2p-1|` into 8 equal
    /// bins over `[0, 1]`.
    pub skew_histogram: [usize; 8],
    /// Maximum skew `|2p-1|` over live non-constant nets.
    pub max_skew: f64,
    /// Fraction of key-cone nets (excluding key terminals) with no
    /// primary-input dependence — how separable the key logic is.
    pub cone_isolation: f64,
    /// Findings per code.
    pub counts: BTreeMap<&'static str, usize>,
    /// Error-severity finding count.
    pub errors: usize,
    /// Warning-severity finding count.
    pub warnings: usize,
}

impl AuditSummary {
    /// Condenses `netlist` + its audit `report` into the summary.
    pub fn compute(netlist: &Netlist, report: &Report) -> Self {
        let dep = KeyDependence::compute(netlist);
        let live = fanin_cone(netlist, netlist.outputs());
        let baseline = eval_tv(
            netlist,
            &vec![Tv::X; netlist.num_inputs()],
            &vec![Tv::X; netlist.num_keys()],
        );
        let p = signal_probabilities(netlist);
        let mut hist = [0usize; 8];
        let mut max_skew = 0.0f64;
        for (s, g) in netlist.iter_gates() {
            let i = s.index();
            if matches!(g, Gate::False | Gate::Input(_) | Gate::Key(_)) {
                continue;
            }
            if !live[i] || baseline[i] != Tv::X {
                continue;
            }
            let skew = (2.0 * p[i] - 1.0).abs();
            hist[((skew * 8.0) as usize).min(7)] += 1;
            if skew > max_skew {
                max_skew = skew;
            }
        }
        let key_terms: Vec<Signal> = key_signals(netlist).iter().map(|&(_, s)| s).collect();
        let key_cone = fanout_cone(netlist, &key_terms);
        let mut cone_nets = 0usize;
        let mut cone_pure = 0usize;
        for (s, g) in netlist.iter_gates() {
            if matches!(g, Gate::Key(_)) || !key_cone[s.index()] {
                continue;
            }
            cone_nets += 1;
            if !dep.depends_on_input(s) {
                cone_pure += 1;
            }
        }
        let counts = report.counts_by_code();
        let count = |c: Code| counts.get(c.as_str()).copied().unwrap_or(0);
        AuditSummary {
            name: netlist.name().to_string(),
            nets: netlist.num_nodes(),
            inputs: netlist.num_inputs(),
            keys: netlist.num_keys(),
            outputs: netlist.num_outputs(),
            inert_keys: count(Code::KeyUnobservable),
            unprotected_outputs: count(Code::UnprotectedOutput),
            single_key_outputs: count(Code::SingleKeyOutput),
            removable_gates: count(Code::HypothesisConstantNet) + count(Code::VacuousKeyGate),
            skew_histogram: hist,
            max_skew,
            cone_isolation: if cone_nets == 0 {
                0.0
            } else {
                cone_pure as f64 / cone_nets as f64
            },
            counts,
            errors: report.error_count(),
            warnings: report.warning_count(),
        }
    }

    /// Human rendering: a compact multi-line scorecard.
    pub fn render_human(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "audit {}: {} nets, {} inputs, {} keys, {} outputs\n",
            self.name, self.nets, self.inputs, self.keys, self.outputs
        ));
        out.push_str(&format!(
            "  inert keys: {}  unprotected outputs: {}  single-key outputs: {}  removable gates: {}\n",
            self.inert_keys, self.unprotected_outputs, self.single_key_outputs, self.removable_gates
        ));
        let hist: Vec<String> = self.skew_histogram.iter().map(|c| c.to_string()).collect();
        out.push_str(&format!(
            "  skew histogram [|2p-1| x8]: {}  max skew: {:.4}  cone isolation: {:.4}\n",
            hist.join("/"),
            self.max_skew,
            self.cone_isolation
        ));
        if self.counts.is_empty() {
            out.push_str("  findings: none\n");
        } else {
            let codes: Vec<String> = self
                .counts
                .iter()
                .map(|(c, n)| format!("{c}x{n}"))
                .collect();
            out.push_str(&format!(
                "  findings: {} ({} error(s), {} warning(s))\n",
                codes.join(" "),
                self.errors,
                self.warnings
            ));
        }
        out
    }

    /// Machine-readable JSON rendering.
    pub fn render_json(&self) -> String {
        let counts = self.counts.iter().map(|(c, n)| (*c, Json::from(*n)));
        Json::obj([
            ("name", Json::from(self.name.as_str())),
            ("nets", Json::from(self.nets)),
            ("inputs", Json::from(self.inputs)),
            ("keys", Json::from(self.keys)),
            ("outputs", Json::from(self.outputs)),
            ("inert_keys", Json::from(self.inert_keys)),
            ("unprotected_outputs", Json::from(self.unprotected_outputs)),
            ("single_key_outputs", Json::from(self.single_key_outputs)),
            ("removable_gates", Json::from(self.removable_gates)),
            (
                "skew_histogram",
                Json::arr(self.skew_histogram.iter().map(|&c| Json::from(c))),
            ),
            ("max_skew", Json::from(self.max_skew)),
            ("cone_isolation", Json::from(self.cone_isolation)),
            ("codes", Json::obj(counts)),
            ("errors", Json::from(self.errors)),
            ("warnings", Json::from(self.warnings)),
        ])
        .render()
    }
}

/// Convenience: true when the report holds no error-severity audit
/// finding (warnings are scorecard entries, not failures).
pub fn audit_passed(report: &Report) -> bool {
    report
        .diagnostics()
        .iter()
        .all(|d| d.severity != Severity::Error)
}

#[cfg(test)]
mod tests {
    use super::*;
    use lockbind_netlist::builders::adder_fu;

    /// A 3-bit adder with one key XOR-spliced onto an output and one
    /// orphaned key: deterministic LB0701 + LB0704 material.
    fn weak_lock() -> Netlist {
        let mut nl = adder_fu(3);
        let out = nl.outputs()[0];
        let k = nl.add_key();
        let keyed = nl.xor(out, k);
        nl.mark_output(keyed);
        nl.add_key(); // orphaned
        nl
    }

    #[test]
    fn summary_renders_cover_the_headline_numbers() {
        let nl = weak_lock();
        let report = audit_netlist(&nl);
        let summary = AuditSummary::compute(&nl, &report);
        assert_eq!(summary.keys, 2);
        assert_eq!(summary.inert_keys, 1);
        assert_eq!(summary.errors, 1);
        let human = summary.render_human();
        assert!(human.contains("inert keys: 1"), "{human}");
        assert!(human.contains("LB0701x1"), "{human}");
        let json = summary.render_json();
        assert!(json.contains("\"inert_keys\":1"), "{json}");
        assert!(json.contains("\"LB0704\""), "{json}");
        assert!(json.contains("\"errors\":1"), "{json}");
    }

    #[test]
    fn summary_json_escapes_awkward_names() {
        let nl = weak_lock();
        let mut summary = AuditSummary::compute(&nl, &audit_netlist(&nl));
        let name = "fu \"q\" \\ \r\u{1}";
        summary.name = name.to_string();
        let doc = lockbind_obs::json::parse(summary.render_json().as_bytes()).expect("strict JSON");
        assert_eq!(doc["name"].as_str(), Some(name));
        assert_eq!(doc["codes"]["LB0701"].as_u64(), Some(1));
        assert_eq!(doc["max_skew"].as_f64(), Some(summary.max_skew));
    }
}
