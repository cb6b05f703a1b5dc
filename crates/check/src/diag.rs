//! The structured diagnostics model: stable codes, severities, artifact
//! spans, and the [`Report`] collecting what a check run found.

use std::collections::BTreeMap;
use std::fmt;

use lockbind_hls::{FuId, Minterm};
use lockbind_obs::Json;

/// Stable diagnostic codes. The numeric ranges group by pass:
///
/// * `LB01xx` — DFG well-formedness,
/// * `LB02xx` — schedule legality,
/// * `LB03xx` — binding legality,
/// * `LB04xx` — matching-optimality certificates,
/// * `LB05xx` — locking-config validity,
/// * `LB06xx` — netlist sanity,
/// * `LB07xx` — structural-security audit of locked netlists
///   (`LB070x` key-dependency cones, `LB071x` constant/X-propagation
///   under key hypotheses, `LB072x` signal-probability skew).
///
/// Codes are append-only: a released code never changes meaning, so goldens
/// and CI greps stay valid across versions.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Code {
    /// `LB0101`: an operand references an operation id outside the DFG.
    DanglingOpRef,
    /// `LB0102`: the DFG's dependence relation has a cycle (an operand
    /// references an op at or after its consumer in append order).
    DfgCycle,
    /// `LB0103`: a width inconsistency — operand width outside `1..=31` or
    /// a constant operand that does not fit the operand width.
    WidthMismatch,
    /// `LB0104`: an operand references a primary input outside the DFG.
    DanglingInputRef,
    /// `LB0105`: a declared output references an operation outside the DFG.
    BadOutputRef,
    /// `LB0201`: the schedule does not cover the DFG's operations.
    ScheduleLength,
    /// `LB0202`: a dependence edge does not respect cycle order.
    DependenceViolation,
    /// `LB0203`: a cycle uses more FUs of a class than are allocated.
    ResourceOveruse,
    /// `LB0301`: the binding does not cover the DFG's operations.
    BindingLength,
    /// `LB0302`: an operation is bound to an FU of the wrong class.
    ClassMismatch,
    /// `LB0303`: an operation is bound to an FU outside the allocation.
    FuOutOfRange,
    /// `LB0304`: two same-cycle operations share an FU.
    CycleConflict,
    /// `LB0401`: a non-empty `(cycle, class)` subproblem carries no
    /// matching certificate.
    CertMissing,
    /// `LB0402`: a certificate's shape (ops/FUs/assignment/potentials)
    /// disagrees with the subproblem it claims to certify.
    CertShape,
    /// `LB0403`: certificate potentials violate dual feasibility.
    CertDualInfeasible,
    /// `LB0404`: a column potential violates the `v ≤ 0` sign condition.
    CertSignViolation,
    /// `LB0405`: nonzero duality gap — the matching is not proven optimal.
    CertDualityGap,
    /// `LB0406`: the certified assignment disagrees with the binding.
    CertAssignmentMismatch,
    /// `LB0407`: a certificate's total disagrees with the Eqn. 3 weights.
    CertTotalMismatch,
    /// `LB0501`: the locking spec references an FU outside the allocation.
    LockUnknownFu,
    /// `LB0502`: the locking spec lists an FU more than once.
    LockDuplicateFu,
    /// `LB0503`: a locked minterm does not fit the FU input space
    /// (`raw >= 2^(2*width)`), so it can never occur — a vacuous lock.
    MintermWidthOverflow,
    /// `LB0504`: a locked minterm is not drawn from the candidate list `C`.
    MintermNotInCandidates,
    /// `LB0505`: a locked FU's minterm set is empty or contains duplicates.
    DegenerateMintermSet,
    /// `LB0506`: key size / error rate fall outside the Eqn. 1 budget model.
    BudgetInconsistent,
    /// `LB0601`: a gate's operand references a later gate — a combinational
    /// cycle.
    CombinationalCycle,
    /// `LB0602`: a net drives nothing and is not an output (dead logic).
    FloatingNet,
    /// `LB0603`: a key input reaches no gate, so the key bit is inert.
    DeadKeyInput,
    /// `LB0701`: a key bit's fan-out cone contains no primary output — the
    /// bit is structurally unobservable and any guess for it is correct.
    KeyUnobservable,
    /// `LB0702`: the netlist has key inputs, but this output's transitive
    /// key support is empty — the output is entirely unprotected.
    UnprotectedOutput,
    /// `LB0703`: an output whose key support is exactly one key bit — that
    /// bit is learnable from this output alone.
    SingleKeyOutput,
    /// `LB0704`: a key bit reaches an output along a path on which every
    /// net depends on no other key — a bypassable unit-key-gate chain
    /// (classic XOR/XNOR random-insertion signature).
    IsolatedKeyPath,
    /// `LB0705`: a net computing a pure multi-key function (two or more
    /// key bits, no primary-input dependence) — key-space collapse logic.
    KeyMixingLogic,
    /// `LB0706`: two key bits with identical fan-out cones — the bits are
    /// structurally interchangeable.
    RedundantKeyBit,
    /// `LB0711`: a key-dependent net that becomes constant when a single
    /// key bit is hypothesised (all else unknown) — an AND/OR unit-gate
    /// removal signature.
    HypothesisConstantNet,
    /// `LB0712`: a primary output that becomes constant under a single
    /// key-bit hypothesis with all inputs unknown.
    HypothesisConstantOutput,
    /// `LB0713`: a net with key bits in its fan-in whose value is already
    /// constant with everything unknown — a vacuous key gate, removable
    /// outright.
    VacuousKeyGate,
    /// `LB0714`: an output known under both hypotheses of some key bit
    /// with different values — one oracle query reveals the bit.
    HypothesisDistinguishedKey,
    /// `LB0721`: a key-dependent net with extreme estimated signal
    /// probability (ProbLock-style skew).
    SkewedKeyNet,
    /// `LB0722`: a skewed net feeding a key-dependent XOR on an output
    /// path — the point-function comparator + corruption-XOR signature.
    PointFunctionSignature,
    /// `LB0723`: a skewed key-free input-dependent net feeding key logic —
    /// a hardcoded comparator leaking the protected minterm.
    HardcodedComparator,
    /// `LB0724`: a primary output with extreme estimated signal
    /// probability.
    SkewedOutput,
}

impl Code {
    /// Every code, in `LBxxxx` order (used by renderers and docs).
    pub const ALL: [Code; 42] = [
        Code::DanglingOpRef,
        Code::DfgCycle,
        Code::WidthMismatch,
        Code::DanglingInputRef,
        Code::BadOutputRef,
        Code::ScheduleLength,
        Code::DependenceViolation,
        Code::ResourceOveruse,
        Code::BindingLength,
        Code::ClassMismatch,
        Code::FuOutOfRange,
        Code::CycleConflict,
        Code::CertMissing,
        Code::CertShape,
        Code::CertDualInfeasible,
        Code::CertSignViolation,
        Code::CertDualityGap,
        Code::CertAssignmentMismatch,
        Code::CertTotalMismatch,
        Code::LockUnknownFu,
        Code::LockDuplicateFu,
        Code::MintermWidthOverflow,
        Code::MintermNotInCandidates,
        Code::DegenerateMintermSet,
        Code::BudgetInconsistent,
        Code::CombinationalCycle,
        Code::FloatingNet,
        Code::DeadKeyInput,
        Code::KeyUnobservable,
        Code::UnprotectedOutput,
        Code::SingleKeyOutput,
        Code::IsolatedKeyPath,
        Code::KeyMixingLogic,
        Code::RedundantKeyBit,
        Code::HypothesisConstantNet,
        Code::HypothesisConstantOutput,
        Code::VacuousKeyGate,
        Code::HypothesisDistinguishedKey,
        Code::SkewedKeyNet,
        Code::PointFunctionSignature,
        Code::HardcodedComparator,
        Code::SkewedOutput,
    ];

    /// The stable `LBxxxx` string for this code.
    pub fn as_str(self) -> &'static str {
        match self {
            Code::DanglingOpRef => "LB0101",
            Code::DfgCycle => "LB0102",
            Code::WidthMismatch => "LB0103",
            Code::DanglingInputRef => "LB0104",
            Code::BadOutputRef => "LB0105",
            Code::ScheduleLength => "LB0201",
            Code::DependenceViolation => "LB0202",
            Code::ResourceOveruse => "LB0203",
            Code::BindingLength => "LB0301",
            Code::ClassMismatch => "LB0302",
            Code::FuOutOfRange => "LB0303",
            Code::CycleConflict => "LB0304",
            Code::CertMissing => "LB0401",
            Code::CertShape => "LB0402",
            Code::CertDualInfeasible => "LB0403",
            Code::CertSignViolation => "LB0404",
            Code::CertDualityGap => "LB0405",
            Code::CertAssignmentMismatch => "LB0406",
            Code::CertTotalMismatch => "LB0407",
            Code::LockUnknownFu => "LB0501",
            Code::LockDuplicateFu => "LB0502",
            Code::MintermWidthOverflow => "LB0503",
            Code::MintermNotInCandidates => "LB0504",
            Code::DegenerateMintermSet => "LB0505",
            Code::BudgetInconsistent => "LB0506",
            Code::CombinationalCycle => "LB0601",
            Code::FloatingNet => "LB0602",
            Code::DeadKeyInput => "LB0603",
            Code::KeyUnobservable => "LB0701",
            Code::UnprotectedOutput => "LB0702",
            Code::SingleKeyOutput => "LB0703",
            Code::IsolatedKeyPath => "LB0704",
            Code::KeyMixingLogic => "LB0705",
            Code::RedundantKeyBit => "LB0706",
            Code::HypothesisConstantNet => "LB0711",
            Code::HypothesisConstantOutput => "LB0712",
            Code::VacuousKeyGate => "LB0713",
            Code::HypothesisDistinguishedKey => "LB0714",
            Code::SkewedKeyNet => "LB0721",
            Code::PointFunctionSignature => "LB0722",
            Code::HardcodedComparator => "LB0723",
            Code::SkewedOutput => "LB0724",
        }
    }

    /// The default severity this code is reported at.
    ///
    /// Audit (`LB07xx`) findings are warnings except `LB0701`: a key bit
    /// that cannot reach any output is unconditionally broken, while the
    /// rest grade *weakness* of legal netlists — real schemes trip them by
    /// design (a point-function comparator *is* skewed).
    pub fn severity(self) -> Severity {
        match self {
            Code::DegenerateMintermSet
            | Code::BudgetInconsistent
            | Code::FloatingNet
            | Code::UnprotectedOutput
            | Code::SingleKeyOutput
            | Code::IsolatedKeyPath
            | Code::KeyMixingLogic
            | Code::RedundantKeyBit
            | Code::HypothesisConstantNet
            | Code::HypothesisConstantOutput
            | Code::VacuousKeyGate
            | Code::HypothesisDistinguishedKey
            | Code::SkewedKeyNet
            | Code::PointFunctionSignature
            | Code::HardcodedComparator
            | Code::SkewedOutput => Severity::Warning,
            _ => Severity::Error,
        }
    }
}

impl fmt::Display for Code {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// How bad a diagnostic is. Only `Error` diagnostics fail a check run;
/// warnings flag suspicious-but-legal artifacts.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Severity {
    /// Suspicious but not invalid; does not fail the run.
    Warning,
    /// A broken invariant; fails the run.
    Error,
}

impl Severity {
    /// Lowercase label for rendering.
    pub fn as_str(self) -> &'static str {
        match self {
            Severity::Warning => "warning",
            Severity::Error => "error",
        }
    }
}

impl fmt::Display for Severity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// Which artifact element a diagnostic points at — the checker's analogue of
/// a source span.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Span {
    /// The artifact as a whole.
    Artifact,
    /// A DFG operation, by op index.
    Op(usize),
    /// A dependence edge between two op indices.
    Edge {
        /// Producer op index.
        from: usize,
        /// Consumer op index.
        to: usize,
    },
    /// A primary-input reference, by input index.
    Input(usize),
    /// A clock cycle.
    Cycle(u32),
    /// A `(cycle, class-FU)` assignment subproblem.
    CycleFu(u32, FuId),
    /// A functional unit.
    Fu(FuId),
    /// A locked minterm on an FU.
    MintermOn(FuId, Minterm),
    /// A netlist net, by gate index.
    Net(usize),
    /// A netlist key input, by key index.
    KeyInput(usize),
    /// A netlist primary output, by output index.
    Output(usize),
}

impl fmt::Display for Span {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Span::Artifact => write!(f, "artifact"),
            Span::Op(i) => write!(f, "op{i}"),
            Span::Edge { from, to } => write!(f, "op{from}->op{to}"),
            Span::Input(i) => write!(f, "in{i}"),
            Span::Cycle(t) => write!(f, "cycle{t}"),
            Span::CycleFu(t, fu) => write!(f, "cycle{t}/{fu}"),
            Span::Fu(fu) => write!(f, "{fu}"),
            Span::MintermOn(fu, m) => write!(f, "{fu}/{m}"),
            Span::Net(i) => write!(f, "n{i}"),
            Span::KeyInput(i) => write!(f, "key{i}"),
            Span::Output(i) => write!(f, "out{i}"),
        }
    }
}

/// One finding: a stable code, its severity, the artifact element it names,
/// and a human-readable explanation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Diagnostic {
    /// Stable `LBxxxx` code.
    pub code: Code,
    /// Severity (defaults to [`Code::severity`]).
    pub severity: Severity,
    /// The artifact element at fault.
    pub span: Span,
    /// Explanation of the violated invariant.
    pub message: String,
}

impl Diagnostic {
    /// Builds a diagnostic at the code's default severity.
    pub fn new(code: Code, span: Span, message: impl Into<String>) -> Self {
        Diagnostic {
            code,
            severity: code.severity(),
            span,
            message: message.into(),
        }
    }
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}[{}] {}: {}",
            self.severity, self.code, self.span, self.message
        )
    }
}

/// Everything a check run found, in pass order.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Report {
    diagnostics: Vec<Diagnostic>,
}

impl Report {
    /// An empty report.
    pub fn new() -> Self {
        Report::default()
    }

    /// Records a finding.
    pub fn push(&mut self, diagnostic: Diagnostic) {
        self.diagnostics.push(diagnostic);
    }

    /// All findings, in the order the passes produced them.
    pub fn diagnostics(&self) -> &[Diagnostic] {
        &self.diagnostics
    }

    /// Number of `Error`-severity findings.
    pub fn error_count(&self) -> usize {
        self.diagnostics
            .iter()
            .filter(|d| d.severity == Severity::Error)
            .count()
    }

    /// Number of `Warning`-severity findings.
    pub fn warning_count(&self) -> usize {
        self.diagnostics.len() - self.error_count()
    }

    /// `true` when the run produced no `Error`-severity findings (warnings
    /// are allowed).
    pub fn is_clean(&self) -> bool {
        self.error_count() == 0
    }

    /// Findings per stable code, sorted by code.
    pub fn counts_by_code(&self) -> BTreeMap<&'static str, usize> {
        let mut counts = BTreeMap::new();
        for d in &self.diagnostics {
            *counts.entry(d.code.as_str()).or_insert(0) += 1;
        }
        counts
    }

    /// One-line-per-finding human rendering; `"clean"` when empty.
    pub fn render_human(&self) -> String {
        if self.diagnostics.is_empty() {
            return String::from("clean\n");
        }
        let mut out = String::new();
        for d in &self.diagnostics {
            out.push_str(&d.to_string());
            out.push('\n');
        }
        out.push_str(&format!(
            "{} error(s), {} warning(s)\n",
            self.error_count(),
            self.warning_count()
        ));
        out
    }

    /// Machine-readable JSON rendering (an object with a `diagnostics`
    /// array plus error/warning totals).
    pub fn render_json(&self) -> String {
        let diagnostics = self.diagnostics.iter().map(|d| {
            Json::obj([
                ("code", Json::from(d.code.as_str())),
                ("severity", Json::from(d.severity.as_str())),
                ("span", Json::from(d.span.to_string())),
                ("message", Json::from(d.message.as_str())),
            ])
        });
        Json::obj([
            ("diagnostics", Json::arr(diagnostics)),
            ("errors", Json::from(self.error_count())),
            ("warnings", Json::from(self.warning_count())),
        ])
        .render()
    }

    /// The failure string a rejected cell reports, or `None` if the run is
    /// clean: the [`crate::CHECK_FAILURE_PREFIX`] prefix followed by the
    /// first three `[LBxxxx]`-tagged error messages and a count of the
    /// rest. Per-code totals are the obs counters the pass suites record,
    /// not this text.
    pub fn failure_message(&self) -> Option<String> {
        if self.is_clean() {
            return None;
        }
        let errors: Vec<&Diagnostic> = self
            .diagnostics
            .iter()
            .filter(|d| d.severity == Severity::Error)
            .collect();
        let mut parts: Vec<String> = errors
            .iter()
            .take(3)
            .map(|d| format!("[{}] {}: {}", d.code, d.span, d.message))
            .collect();
        if errors.len() > 3 {
            parts.push(format!("(+{} more)", errors.len() - 3));
        }
        Some(format!(
            "{}{}",
            crate::CHECK_FAILURE_PREFIX,
            parts.join("; ")
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lockbind_hls::FuClass;

    #[test]
    fn codes_are_unique_and_ordered() {
        let strings: Vec<&str> = Code::ALL.iter().map(|c| c.as_str()).collect();
        let mut sorted = strings.clone();
        sorted.sort();
        sorted.dedup();
        assert_eq!(strings, sorted, "codes must be unique and in LB order");
    }

    #[test]
    fn report_counts_and_cleanliness() {
        let mut r = Report::new();
        assert!(r.is_clean());
        r.push(Diagnostic::new(
            Code::BudgetInconsistent,
            Span::Fu(FuId::new(FuClass::Adder, 0)),
            "eps out of range",
        ));
        assert!(r.is_clean(), "warnings alone stay clean");
        r.push(Diagnostic::new(
            Code::CycleConflict,
            Span::Cycle(3),
            "clash",
        ));
        assert!(!r.is_clean());
        assert_eq!(r.error_count(), 1);
        assert_eq!(r.warning_count(), 1);
        assert_eq!(r.counts_by_code()["LB0304"], 1);
    }

    #[test]
    fn failure_message_lists_codes_and_truncates() {
        let mut r = Report::new();
        assert_eq!(r.failure_message(), None);
        for i in 0..5 {
            r.push(Diagnostic::new(
                Code::CycleConflict,
                Span::Cycle(i),
                format!("conflict {i}"),
            ));
        }
        let msg = r.failure_message().expect("errors present");
        assert!(msg.starts_with(crate::CHECK_FAILURE_PREFIX));
        assert!(msg.contains("[LB0304]"));
        assert!(msg.contains("(+2 more)"));
    }

    #[test]
    fn json_rendering_escapes() {
        let mut r = Report::new();
        r.push(Diagnostic::new(
            Code::WidthMismatch,
            Span::Op(0),
            "bad \"quote\"",
        ));
        let json = r.render_json();
        assert!(json.contains("\\\"quote\\\""));
        assert!(json.contains("\"errors\":1"));
    }

    #[test]
    fn json_rendering_round_trips_awkward_messages() {
        let message = "quote \" slash \\ cr \r bell \u{7} tab \t";
        let mut r = Report::new();
        r.push(Diagnostic::new(Code::WidthMismatch, Span::Op(0), message));
        let doc = lockbind_obs::json::parse(r.render_json().as_bytes()).expect("strict JSON");
        let Json::Array(diagnostics) = &doc["diagnostics"] else {
            panic!("diagnostics array in {doc:?}");
        };
        assert_eq!(diagnostics[0]["message"].as_str(), Some(message));
        assert_eq!(diagnostics[0]["code"].as_str(), Some("LB0103"));
        assert_eq!(doc["errors"].as_u64(), Some(1));
    }

    #[test]
    fn human_rendering_is_clean_when_empty() {
        assert_eq!(Report::new().render_human(), "clean\n");
    }
}
