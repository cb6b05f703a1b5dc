//! The pass suite and the pass-manager entry point [`check_artifact`].
//!
//! Each pass is a pure function over an [`Artifact`] appending to a shared
//! [`Report`]. A pass runs only when the artifacts it needs are present and
//! never panics on malformed input — that is the whole point: artifacts may
//! come from untrusted sources (checkpoints, unchecked constructors) that
//! the validating constructors would have rejected.

use lockbind_core::obf_weight_matrix;
use lockbind_hls::{FuClass, FuId, ValueRef};
use lockbind_locking::epsilon_for_locked_inputs;
use lockbind_matching::{verify_dual_certificate, CertificateError};
use lockbind_netlist::Gate;
use lockbind_obs as obs;

use crate::artifact::Artifact;
use crate::diag::{Code, Diagnostic, Report, Span};

/// A named static-analysis pass.
pub struct Pass {
    /// Short stable pass name (used in docs and `--verbose` listings).
    pub name: &'static str,
    /// The pass body.
    pub run: fn(&Artifact, &mut Report),
}

/// The full pass suite, in execution order. Order matters only for report
/// readability (structural passes first, semantic passes after); the passes
/// are independent.
pub const PASSES: &[Pass] = &[
    Pass {
        name: "dfg-well-formed",
        run: dfg_well_formed,
    },
    Pass {
        name: "schedule-legal",
        run: schedule_legal,
    },
    Pass {
        name: "binding-legal",
        run: binding_legal,
    },
    Pass {
        name: "matching-certified",
        run: matching_certified,
    },
    Pass {
        name: "locking-valid",
        run: locking_valid,
    },
    Pass {
        name: "netlist-sane",
        run: netlist_sane,
    },
];

/// Runs every pass over `artifact` and returns the collected report.
///
/// Emits the `check.artifacts` / `check.diagnostics` counters plus one
/// dynamic `check.code.LBxxxx` counter per distinct code found, so check
/// outcomes show up in run metrics and `--profile` output.
pub fn check_artifact(artifact: &Artifact) -> Report {
    let _span = obs::span!("check.artifact");
    obs::counter!("check.artifacts").inc();
    let mut report = Report::new();
    for pass in PASSES {
        (pass.run)(artifact, &mut report);
    }
    if !report.diagnostics().is_empty() {
        obs::counter!("check.diagnostics").add(report.diagnostics().len() as u64);
        for (code, count) in report.counts_by_code() {
            obs::Registry::global()
                .counter(&format!("check.code.{code}"))
                .add(count as u64);
        }
    }
    report
}

/// Pass 1 — DFG well-formedness (`LB01xx`).
///
/// Operand references must point at existing inputs and *earlier* operations
/// (the acyclicity invariant), constants must fit the operand width, and
/// declared outputs must exist. `Dfg`'s builder enforces most of this at
/// construction, but constants are accepted unchecked and artifacts may be
/// decoded rather than built.
fn dfg_well_formed(artifact: &Artifact, report: &mut Report) {
    let Some(dfg) = artifact.dfg else { return };
    let width = dfg.width();
    let mask = (1u64 << width) - 1;
    for (id, op) in dfg.iter_ops() {
        for operand in [op.lhs, op.rhs] {
            match operand {
                ValueRef::Op(p) => {
                    if p.index() >= dfg.num_ops() {
                        report.push(Diagnostic::new(
                            Code::DanglingOpRef,
                            Span::Op(id.index()),
                            format!("operand references nonexistent op{}", p.index()),
                        ));
                    } else if p.index() >= id.index() {
                        report.push(Diagnostic::new(
                            Code::DfgCycle,
                            Span::Edge {
                                from: p.index(),
                                to: id.index(),
                            },
                            format!(
                                "operand references op{} at or after its consumer — \
                                 the dependence relation is cyclic",
                                p.index()
                            ),
                        ));
                    }
                }
                ValueRef::Input(i) => {
                    if i.index() >= dfg.num_inputs() {
                        report.push(Diagnostic::new(
                            Code::DanglingInputRef,
                            Span::Op(id.index()),
                            format!(
                                "operand references nonexistent input {} (DFG has {})",
                                i.index(),
                                dfg.num_inputs()
                            ),
                        ));
                    }
                }
                ValueRef::Const(c) => {
                    if c & !mask != 0 {
                        report.push(Diagnostic::new(
                            Code::WidthMismatch,
                            Span::Op(id.index()),
                            format!("constant operand {c:#x} does not fit {width} bits"),
                        ));
                    }
                }
            }
        }
    }
    for &out in dfg.outputs() {
        if out.index() >= dfg.num_ops() {
            report.push(Diagnostic::new(
                Code::BadOutputRef,
                Span::Op(out.index()),
                format!("declared output references nonexistent op{}", out.index()),
            ));
        }
    }
}

/// Pass 2 — schedule legality (`LB02xx`).
///
/// The schedule must cover exactly the DFG's operations, every data
/// dependence must point strictly forward in time, and (when an allocation
/// is attached) no cycle may demand more FUs of a class than are allocated.
fn schedule_legal(artifact: &Artifact, report: &mut Report) {
    let (Some(dfg), Some(schedule)) = (artifact.dfg, artifact.schedule) else {
        return;
    };
    let cycles = schedule.cycles();
    if cycles.len() != dfg.num_ops() {
        report.push(Diagnostic::new(
            Code::ScheduleLength,
            Span::Artifact,
            format!(
                "schedule covers {} ops but the DFG has {}",
                cycles.len(),
                dfg.num_ops()
            ),
        ));
        return; // further indexing would be meaningless
    }
    for (id, _) in dfg.iter_ops() {
        for pred in dfg.predecessors(id) {
            if cycles[pred.index()] >= cycles[id.index()] {
                report.push(Diagnostic::new(
                    Code::DependenceViolation,
                    Span::Edge {
                        from: pred.index(),
                        to: id.index(),
                    },
                    format!(
                        "op{} (cycle {}) consumes op{} (cycle {}) — producers \
                         must finish in an earlier cycle",
                        id.index(),
                        cycles[id.index()],
                        pred.index(),
                        cycles[pred.index()]
                    ),
                ));
            }
        }
    }
    if let Some(alloc) = artifact.alloc {
        for t in 0..schedule.num_cycles() {
            for class in FuClass::ALL {
                let demanded = schedule.class_ops_in_cycle(dfg, class, t).len();
                let available = alloc.count(class);
                if demanded > available {
                    report.push(Diagnostic::new(
                        Code::ResourceOveruse,
                        Span::Cycle(t),
                        format!(
                            "cycle {t} schedules {demanded} {class} op(s) but only \
                             {available} {class} unit(s) are allocated"
                        ),
                    ));
                }
            }
        }
    }
}

/// Pass 3 — binding legality (`LB03xx`, Thm. 1 of the paper).
///
/// The binding must cover exactly the DFG's operations, bind each op to an
/// allocated FU of its own class, and never share an FU between two ops of
/// the same cycle.
fn binding_legal(artifact: &Artifact, report: &mut Report) {
    let (Some(dfg), Some(binding)) = (artifact.dfg, artifact.binding) else {
        return;
    };
    let fu_of = binding.as_slice();
    if fu_of.len() != dfg.num_ops() {
        report.push(Diagnostic::new(
            Code::BindingLength,
            Span::Artifact,
            format!(
                "binding covers {} ops but the DFG has {}",
                fu_of.len(),
                dfg.num_ops()
            ),
        ));
        return;
    }
    for (id, op) in dfg.iter_ops() {
        let fu = fu_of[id.index()];
        if fu.class != op.kind.fu_class() {
            report.push(Diagnostic::new(
                Code::ClassMismatch,
                Span::Op(id.index()),
                format!(
                    "op{} ({}) needs a {} but is bound to {fu}",
                    id.index(),
                    op.kind,
                    op.kind.fu_class()
                ),
            ));
        }
        if let Some(alloc) = artifact.alloc {
            if fu.index >= alloc.count(fu.class) {
                report.push(Diagnostic::new(
                    Code::FuOutOfRange,
                    Span::Op(id.index()),
                    format!(
                        "op{} bound to {fu} but only {} {} unit(s) are allocated",
                        id.index(),
                        alloc.count(fu.class),
                        fu.class
                    ),
                ));
            }
        }
    }
    if let Some(schedule) = artifact.schedule {
        if schedule.cycles().len() == dfg.num_ops() {
            let mut seen: Vec<(u32, FuId, usize)> = Vec::with_capacity(dfg.num_ops());
            for (id, _) in dfg.iter_ops() {
                let key = (schedule.cycle(id), fu_of[id.index()]);
                if let Some(&(t, fu, prev)) = seen.iter().find(|&&(t, fu, _)| (t, fu) == key) {
                    report.push(Diagnostic::new(
                        Code::CycleConflict,
                        Span::CycleFu(t, fu),
                        format!(
                            "op{prev} and op{} both bound to {fu} in cycle {t}",
                            id.index()
                        ),
                    ));
                } else {
                    seen.push((key.0, key.1, id.index()));
                }
            }
        }
    }
}

/// Pass 4 — matching-optimality certification (`LB04xx`, Thm. 2).
///
/// For every non-empty `(cycle, class)` assignment subproblem, a certificate
/// must be present whose op/FU orders match the subproblem, whose dual
/// potentials independently verify against the *recomputed* Eqn. 3 weight
/// matrix (dual feasibility + zero duality gap — the LP-duality proof of
/// optimality, without re-running the solver), and whose assignment is the
/// one the binding actually uses. Separability of cycles then lifts the
/// per-cycle optima to the global Eqn. 3 optimum.
fn matching_certified(artifact: &Artifact, report: &mut Report) {
    let (Some(dfg), Some(schedule), Some(alloc), Some(profile), Some(spec), Some(cert)) = (
        artifact.dfg,
        artifact.schedule,
        artifact.alloc,
        artifact.profile,
        artifact.spec,
        artifact.certificate,
    ) else {
        return;
    };
    if schedule.cycles().len() != dfg.num_ops() {
        return; // reported by schedule-legal; subproblems are undefined
    }

    let mut used = vec![false; cert.cycles.len()];
    for t in 0..schedule.num_cycles() {
        for class in FuClass::ALL {
            let ops = schedule.class_ops_in_cycle(dfg, class, t);
            if ops.is_empty() {
                continue;
            }
            let Some(pos) = cert
                .cycles
                .iter()
                .position(|cc| cc.cycle == t && cc.class == class)
            else {
                report.push(Diagnostic::new(
                    Code::CertMissing,
                    Span::Cycle(t),
                    format!("no certificate for the (cycle {t}, {class}) matching"),
                ));
                continue;
            };
            used[pos] = true;
            let cc = &cert.cycles[pos];
            let fus: Vec<FuId> = (0..alloc.count(class))
                .map(|i| FuId::new(class, i))
                .collect();
            if cc.ops != ops || cc.fus != fus {
                report.push(Diagnostic::new(
                    Code::CertShape,
                    Span::Cycle(t),
                    format!(
                        "certificate for (cycle {t}, {class}) covers {} op(s) × {} FU(s) \
                         but the subproblem has {} × {}",
                        cc.ops.len(),
                        cc.fus.len(),
                        ops.len(),
                        fus.len()
                    ),
                ));
                continue; // weights would be rebuilt over the wrong rows/cols
            }
            let weights = obf_weight_matrix(&cc.ops, &cc.fus, profile, spec);
            if let Err(e) = verify_dual_certificate(&weights, &cc.matching, &cc.certificate) {
                let code = match e {
                    CertificateError::ShapeMismatch { .. }
                    | CertificateError::ColumnOutOfRange { .. }
                    | CertificateError::ColumnReused { .. }
                    | CertificateError::ForbiddenEdgeMatched { .. } => Code::CertShape,
                    CertificateError::DualInfeasible { .. } => Code::CertDualInfeasible,
                    CertificateError::ColumnSignViolation { .. } => Code::CertSignViolation,
                    CertificateError::DualityGap { .. } => Code::CertDualityGap,
                    CertificateError::TotalMismatch { .. } => Code::CertTotalMismatch,
                };
                report.push(Diagnostic::new(
                    code,
                    Span::Cycle(t),
                    format!("(cycle {t}, {class}) certificate rejected: {e}"),
                ));
                continue;
            }
            // The certificate is sound; now it must describe *this* binding.
            if let Some(binding) = artifact.binding {
                if binding.as_slice().len() == dfg.num_ops() {
                    for (r, &c) in cc.matching.row_to_col.iter().enumerate() {
                        let (op, fu) = (cc.ops[r], cc.fus[c]);
                        if binding.fu(op) != fu {
                            report.push(Diagnostic::new(
                                Code::CertAssignmentMismatch,
                                Span::Op(op.index()),
                                format!(
                                    "certificate proves op{} → {fu} optimal in cycle {t} \
                                     but the binding uses {}",
                                    op.index(),
                                    binding.fu(op)
                                ),
                            ));
                        }
                    }
                }
            }
        }
    }
    for (pos, cc) in cert.cycles.iter().enumerate() {
        if !used[pos] {
            report.push(Diagnostic::new(
                Code::CertShape,
                Span::Cycle(cc.cycle),
                format!(
                    "certificate for (cycle {}, {}) does not correspond to any \
                     non-empty assignment subproblem",
                    cc.cycle, cc.class
                ),
            ));
        }
    }
}

/// Pass 5 — locking-config validity (`LB05xx`).
///
/// Locked FUs must exist (once each) in the allocation; locked minterms must
/// fit the FU input space, be drawn from the candidate list `C` when one is
/// attached, and form non-degenerate sets; and the configuration must sit
/// inside the Eqn. 1 corruption/resilience model's domain.
fn locking_valid(artifact: &Artifact, report: &mut Report) {
    let Some(spec) = artifact.spec else { return };
    let entries: Vec<_> = spec.iter().collect();
    if let Some(alloc) = artifact.alloc {
        for (fu, _) in &entries {
            if fu.index >= alloc.count(fu.class) {
                report.push(Diagnostic::new(
                    Code::LockUnknownFu,
                    Span::Fu(*fu),
                    format!(
                        "locked FU {fu} does not exist — only {} {} unit(s) allocated",
                        alloc.count(fu.class),
                        fu.class
                    ),
                ));
            }
        }
    }
    for (i, (fu, _)) in entries.iter().enumerate() {
        if entries[..i].iter().any(|(f, _)| f == fu) {
            report.push(Diagnostic::new(
                Code::LockDuplicateFu,
                Span::Fu(*fu),
                format!("FU {fu} appears more than once in the locking spec"),
            ));
        }
    }

    let width = artifact.dfg.map(|d| d.width());
    for (fu, minterms) in &entries {
        if minterms.is_empty() {
            report.push(Diagnostic::new(
                Code::DegenerateMintermSet,
                Span::Fu(*fu),
                format!("{fu} is marked locked but locks no minterms"),
            ));
        }
        for (i, m) in minterms.iter().enumerate() {
            if let Some(w) = width {
                // A minterm over two w-bit operands occupies 2w bits; a
                // wider raw value can never occur on the FU's inputs, so
                // the lock would be vacuous (and its ε accounting wrong).
                if m.raw() >> (2 * w) != 0 {
                    report.push(Diagnostic::new(
                        Code::MintermWidthOverflow,
                        Span::MintermOn(*fu, *m),
                        format!(
                            "locked minterm {m} does not fit the {w}-bit FU input \
                             space (needs < 2^{})",
                            2 * w
                        ),
                    ));
                }
            }
            if let Some(candidates) = artifact.candidates {
                if !candidates.contains(m) {
                    report.push(Diagnostic::new(
                        Code::MintermNotInCandidates,
                        Span::MintermOn(*fu, *m),
                        format!(
                            "locked minterm {m} on {fu} is not drawn from the \
                             candidate list C ({} candidates)",
                            candidates.len()
                        ),
                    ));
                }
            }
            if minterms[..i].contains(m) {
                report.push(Diagnostic::new(
                    Code::DegenerateMintermSet,
                    Span::MintermOn(*fu, *m),
                    format!("locked minterm {m} listed more than once on {fu}"),
                ));
            }
        }
    }

    // Eqn. 1 budget: per locked FU, ε must stay strictly below 1 and the
    // key model |k| = |M_l| · 2w must stay inside the model's 1..=1023-bit
    // domain. Checked arithmetically (the model functions assert).
    if let Some(w) = width {
        let input_bits = 2 * w; // operand pair on a two-input FU
        for (fu, minterms) in &entries {
            if minterms.is_empty() {
                continue; // already LB0505
            }
            let eps = epsilon_for_locked_inputs(minterms.len() as u64, input_bits);
            if eps >= 1.0 {
                report.push(Diagnostic::new(
                    Code::BudgetInconsistent,
                    Span::Fu(*fu),
                    format!(
                        "{fu} locks {} minterm(s) — the whole 2^{input_bits} input \
                         space (ε = {eps}); Eqn. 1 requires ε < 1",
                        minterms.len()
                    ),
                ));
            }
            let key_bits = (minterms.len() as u64).saturating_mul(input_bits as u64);
            if key_bits > 1023 {
                report.push(Diagnostic::new(
                    Code::BudgetInconsistent,
                    Span::Fu(*fu),
                    format!(
                        "{fu}'s key model needs {key_bits} bits ({} minterm(s) × \
                         {input_bits} bits) — outside the Eqn. 1 domain of 1..=1023",
                        minterms.len()
                    ),
                ));
            }
        }
    }
}

/// Pass 6 — netlist sanity (`LB06xx`).
///
/// The gate graph must be acyclic (operands reference earlier gates only),
/// outputs must reference existing gates, logic nets should drive something,
/// and every key input must reach at least one gate (a key bit nothing reads
/// is free to the attacker).
fn netlist_sane(artifact: &Artifact, report: &mut Report) {
    let Some(netlist) = artifact.netlist else {
        return;
    };
    let n = netlist.num_nodes();
    let mut drives_something = vec![false; n];
    for (s, gate) in netlist.iter_gates() {
        let operands: &[_] = match &gate {
            Gate::And(a, b) | Gate::Or(a, b) | Gate::Xor(a, b) => &[*a, *b],
            Gate::Not(a) => &[*a],
            Gate::False | Gate::Input(_) | Gate::Key(_) => &[],
        };
        for op in operands {
            if op.index() >= s.index() {
                report.push(Diagnostic::new(
                    Code::CombinationalCycle,
                    Span::Net(s.index()),
                    format!(
                        "net n{} references n{} at or after itself — combinational \
                         loop or dangling reference",
                        s.index(),
                        op.index()
                    ),
                ));
            }
            if op.index() < n {
                drives_something[op.index()] = true;
            }
        }
    }
    for &out in netlist.outputs() {
        if out.index() >= n {
            report.push(Diagnostic::new(
                Code::CombinationalCycle,
                Span::Net(out.index()),
                format!(
                    "declared output references nonexistent net n{}",
                    out.index()
                ),
            ));
        } else {
            drives_something[out.index()] = true;
        }
    }
    for (s, gate) in netlist.iter_gates() {
        if drives_something[s.index()] {
            continue;
        }
        match gate {
            Gate::Key(k) => {
                report.push(Diagnostic::new(
                    Code::DeadKeyInput,
                    Span::KeyInput(k),
                    format!(
                        "key input k{k} reaches no gate — the key bit is inert and \
                         shrinks the effective key space"
                    ),
                ));
            }
            Gate::Input(_) => {} // unused primary inputs are routine
            _ => {
                report.push(Diagnostic::new(
                    Code::FloatingNet,
                    Span::Net(s.index()),
                    format!(
                        "net n{} drives nothing and is not an output (dead logic)",
                        s.index()
                    ),
                ));
            }
        }
    }
}
