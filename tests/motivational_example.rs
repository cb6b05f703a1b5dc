//! Reproduces the paper's motivational example (Sec. III, Figs. 1-2)
//! *exactly*: the same scheduled DFG, the same expected input-occurrence
//! table, and the same conclusions:
//!
//! * security-oblivious binding 1 injects 6 errors when FU1 locks `x`,
//! * obfuscation-aware binding selects binding 2 and injects 16 errors,
//! * binding-obfuscation co-design locks `y` instead and injects 17 errors.

use lockbind::prelude::*;

/// The Fig. 1 scheduled DFG: OPA/OPB in clk 1, OPC/OPD in clk 2 (all adds),
/// with per-op dedicated inputs so a trace can program each op's minterm
/// stream independently. Returns (dfg, schedule, ops).
fn fig1_dfg() -> (Dfg, Schedule, Vec<OpId>) {
    let mut d = Dfg::new(4);
    let ins: Vec<ValueRef> = (0..8).map(|i| d.input(format!("i{i}"))).collect();
    let opa = d.op(OpKind::Add, ins[0], ins[1]);
    let opb = d.op(OpKind::Add, ins[2], ins[3]);
    let opc = d.op(OpKind::Add, ins[4], ins[5]);
    let opd = d.op(OpKind::Add, ins[6], ins[7]);
    for o in [opa, opb, opc, opd] {
        d.mark_output(o);
    }
    // Ops are independent; the paper's schedule pins C/D to clock 2.
    let schedule = Schedule::from_cycles(&d, vec![0, 0, 1, 1]).expect("valid schedule");
    (d, schedule, vec![opa, opb, opc, opd])
}

/// Builds a trace realizing the paper's expected-occurrence table:
/// minterm x=(1,1): OPA=6, OPB=1, OPC=0, OPD=10
/// minterm y=(2,2): OPA=9, OPB=0, OPC=0, OPD=8
fn fig1_trace() -> Trace {
    let mut frames: Vec<Vec<u64>> = Vec::new();
    for f in 0..20u64 {
        // Default operands (0, f%2+4) produce neither x nor y.
        let mut frame = vec![
            0u64,
            (f % 2) + 4,
            0,
            (f % 2) + 4,
            0,
            (f % 2) + 4,
            0,
            (f % 2) + 4,
        ];
        // OPA: x in frames 0..6, y in frames 6..15.
        if f < 6 {
            frame[0] = 1;
            frame[1] = 1;
        } else if f < 15 {
            frame[0] = 2;
            frame[1] = 2;
        }
        // OPB: x in frame 0 only.
        if f < 1 {
            frame[2] = 1;
            frame[3] = 1;
        }
        // OPC: never x or y.
        // OPD: x in frames 0..10, y in frames 10..18.
        if f < 10 {
            frame[6] = 1;
            frame[7] = 1;
        } else if f < 18 {
            frame[6] = 2;
            frame[7] = 2;
        }
        frames.push(frame);
    }
    Trace::from_frames(frames)
}

fn setup() -> (Dfg, Schedule, Allocation, OccurrenceProfile, Vec<OpId>) {
    let (d, s, ops) = fig1_dfg();
    let profile = OccurrenceProfile::from_trace(&d, &fig1_trace()).expect("profiled");
    (d, s, Allocation::new(2, 0), profile, ops)
}

fn x() -> Minterm {
    Minterm::pack(1, 1, 4)
}

fn y() -> Minterm {
    Minterm::pack(2, 2, 4)
}

#[test]
fn occurrence_table_matches_fig1() {
    let (_, _, _, k, ops) = setup();
    let expect_x = [6u64, 1, 0, 10];
    let expect_y = [9u64, 0, 0, 8];
    for (i, &op) in ops.iter().enumerate() {
        assert_eq!(k.count(op, x()), expect_x[i], "x at op {i}");
        assert_eq!(k.count(op, y()), expect_y[i], "y at op {i}");
    }
}

#[test]
fn security_oblivious_binding1_injects_6_errors() {
    let (d, s, alloc, k, ops) = setup();
    let fu1 = FuId::new(FuClass::Adder, 0);
    let fu2 = FuId::new(FuClass::Adder, 1);
    // Binding 1 of Fig. 1B: {OPA, OPC} -> FU1, {OPB, OPD} -> FU2.
    let binding =
        Binding::from_assignment(&d, &s, &alloc, vec![fu1, fu2, fu1, fu2]).expect("valid binding");
    let spec = LockingSpec::new(&alloc, vec![(fu1, vec![x()])]).expect("valid spec");
    assert_eq!(expected_application_errors(&binding, &k, &spec), 6);
    let _ = ops;
}

#[test]
fn obfuscation_aware_selects_binding2_with_16_errors() {
    let (d, s, alloc, k, ops) = setup();
    let fu1 = FuId::new(FuClass::Adder, 0);
    let spec = LockingSpec::new(&alloc, vec![(fu1, vec![x()])]).expect("valid spec");
    let binding = bind_obfuscation_aware(&d, &s, &alloc, &k, &spec).expect("feasible");
    // Binding 2 of Fig. 1B: OPA and OPD on the locked FU.
    assert_eq!(binding.fu(ops[0]), fu1, "OPA on the locked FU");
    assert_eq!(binding.fu(ops[3]), fu1, "OPD on the locked FU");
    assert_eq!(expected_application_errors(&binding, &k, &spec), 16);
}

#[test]
fn codesign_locks_y_for_17_errors() {
    let never = CancelToken::new();
    let (d, s, alloc, k, ops) = setup();
    let fu1 = FuId::new(FuClass::Adder, 0);
    let out =
        codesign_heuristic(&d, &s, &alloc, &k, &[fu1], 1, &[x(), y()], &never).expect("feasible");
    assert_eq!(out.errors, 17, "the paper's co-design result");
    assert_eq!(
        out.spec.minterms_of(fu1),
        Some(&[y()][..]),
        "co-design must lock input y, not x"
    );
    // Errors arrive in both clock cycles (OPA in clk 1, OPD in clk 2).
    assert_eq!(out.binding.fu(ops[0]), fu1);
    assert_eq!(out.binding.fu(ops[3]), fu1);

    // And the optimal search agrees (2 candidates, 1 FU: trivially small).
    let opt =
        codesign_optimal(&d, &s, &alloc, &k, &[fu1], 1, &[x(), y()], &never).expect("searchable");
    assert_eq!(opt.errors, 17);
}

#[test]
fn fig2_bipartite_matching_cost_is_13() {
    // The Fig. 2 variant: 3 FUs, FU1 locks x, FU2 locks y; cycle 1 has OPA
    // (x=6, y=9) and OPB (x=4, y=3). Max-weight matching must map OPA->FU2
    // and OPB->FU1 with total cost 13.
    use lockbind::matching::{max_weight_matching, WeightMatrix};
    let mut w = WeightMatrix::zero(2, 3);
    w.set(0, 0, 6);
    w.set(0, 1, 9);
    w.set(1, 0, 4);
    w.set(1, 1, 3);
    let m = max_weight_matching(&w).expect("feasible");
    assert_eq!(m.total, 13);
    assert_eq!(m.row_to_col, vec![1, 0]);
}
