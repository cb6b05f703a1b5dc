//! Bring your own kernel: the full flow on a hand-built DFG.
//!
//! Shows the builder API end-to-end for users whose design is not one of
//! the bundled MediaBench kernels: build a DFG, supply your own workload
//! trace, schedule/bind/lock it, then *verify at the gate level* that the
//! realized locked module corrupts exactly the chosen minterms.
//!
//! Run: `cargo run --release --example custom_kernel`

use lockbind::locking::corruption::corrupted_inputs;
use lockbind::prelude::*;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // A small complex-magnitude-squared kernel: |a + jb|^2 = a*a + b*b,
    // plus a scaled cross term — 3 multiplies, a few adds.
    let mut dfg = Dfg::new(8);
    let a = dfg.input("re");
    let b = dfg.input("im");
    let aa = dfg.op(OpKind::Mul, a, a);
    let bb = dfg.op(OpKind::Mul, b, b);
    let cross = dfg.op(OpKind::Mul, a, b);
    let mag = dfg.op(OpKind::Add, aa.into(), bb.into());
    let scaled = dfg.op(OpKind::Shr, cross.into(), ValueRef::Const(1));
    let out = dfg.op(OpKind::Add, mag.into(), scaled.into());
    dfg.mark_output(out);
    dfg.set_name("cmag2");

    // Your own workload: narrowband signal, so re/im hover near +-16.
    let trace: Trace = (0..500u64)
        .map(|t| {
            let re = 16 + (t * 7) % 5;
            let im = 240 + (t * 13) % 3; // small negative in 2s compl.
            vec![re, im]
        })
        .collect();

    let alloc = Allocation::new(2, 2);
    let schedule = schedule_list(&dfg, &alloc)?;
    let profile = OccurrenceProfile::from_trace(&dfg, &trace)?;

    // Co-design a single locked multiplier with 2 locked inputs.
    let candidates = profile.top_candidates_among(&dfg.ops_of_class(FuClass::Multiplier), 8);
    let fus = [FuId::new(FuClass::Multiplier, 0)];
    let problem = CoDesignProblem::new(&dfg, &schedule, &alloc, &profile, &fus, 2, &candidates)?;
    let design = problem.realize(&problem.heuristic(&CancelToken::new())?)?;
    println!(
        "co-design chose {} with {} expected error injections over 500 frames",
        design.spec, design.errors
    );

    // Realize and verify at the gate level.
    let modules = realize_locked_modules(&design.spec, dfg.width())?;
    let (fu, locked) = &modules[0];
    println!(
        "{fu}: locked multiplier, {} gates, {} key bits",
        locked.netlist().gate_count(),
        locked.key_bits()
    );

    // Correct key: functionally intact (spot-check a few points).
    for (x, y) in [(3u64, 5u64), (16, 18), (255, 1)] {
        assert_eq!(
            locked.eval_with_key(&[x, y], 8, locked.correct_key()),
            vec![(x * y) & 0xFF]
        );
    }

    // Wrong key: exactly the chosen minterms (plus the wrong key's restore
    // patterns) are corrupted.
    let mut wrong = locked.correct_key().to_vec();
    wrong[0] = !wrong[0];
    wrong[17] = !wrong[17];
    let errs = corrupted_inputs(locked, &wrong, 16);
    println!("wrong key corrupts {} of 65536 input minterms:", errs.len());
    for m in design.spec.minterms_of(*fu).expect("locked") {
        let pattern = minterm_to_pattern(*m, 8);
        let (a, b) = m.unpack(8);
        assert!(
            errs.contains(&pattern),
            "chosen minterm ({a},{b}) must be corrupted"
        );
        println!("  operand pair ({a:3}, {b:3}) -> errant output (as designed)");
    }
    println!("everything checks out: binding maximizes how often those pairs occur.");
    Ok(())
}
