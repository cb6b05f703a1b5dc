//! Quickstart: the paper's core claim in ~60 lines.
//!
//! Takes one MediaBench-style kernel, profiles its typical workload, and
//! shows how much more application-level error the *same* SAT-resilient
//! locking configuration causes when the binding is chosen security-aware
//! (obfuscation-aware binding and binding-obfuscation co-design) instead of
//! area/power-aware.
//!
//! Run: `cargo run --release --example quickstart`

use lockbind::prelude::*;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // A FIR filter kernel with a synthetic "typical workload" trace.
    let bench = Kernel::Fir.benchmark(300, 42);
    let (adds, muls) = bench.dfg.op_mix();
    println!(
        "kernel {}: {adds} adder-class ops, {muls} multiplies",
        bench.dfg.name()
    );

    // HLS front end: schedule onto 3 adders + 3 multipliers, profile the
    // workload to get the K matrix (minterm occurrences per operation).
    let alloc = Allocation::new(3, 3);
    let schedule = schedule_list(&bench.dfg, &alloc)?;
    let profile = OccurrenceProfile::from_trace(&bench.dfg, &bench.trace)?;
    let switching = SwitchingProfile::from_trace(&bench.dfg, &bench.trace)?;
    println!("scheduled into {} cycles", schedule.num_cycles());

    // The SAT-resilience budget: lock ONE multiplier with TWO minterms,
    // chosen from the 10 most common multiplier-input minterms.
    let mul_ops = bench.dfg.ops_of_class(FuClass::Multiplier);
    let candidates = profile.top_candidates_among(&mul_ops, 10);
    let locked_fu = FuId::new(FuClass::Multiplier, 0);

    // Security-oblivious baselines.
    let area = bind_area_aware(&bench.dfg, &schedule, &alloc)?;
    let power = bind_power_aware(&bench.dfg, &schedule, &alloc, &switching)?;

    // Problem 1: locked inputs fixed a priori (take the top-2 candidates).
    let fixed = LockingSpec::new(&alloc, vec![(locked_fu, candidates[..2].to_vec())])?;
    let obf = bind_obfuscation_aware(&bench.dfg, &schedule, &alloc, &profile, &fixed)?;

    // Problem 2: co-design chooses the best 2 of the 10 candidates.
    let codesign = codesign_heuristic(
        &bench.dfg,
        &schedule,
        &alloc,
        &profile,
        &[locked_fu],
        2,
        &candidates,
        &CancelToken::new(),
    )?;

    let e = |binding: &Binding, spec: &LockingSpec| {
        expected_application_errors(binding, &profile, spec)
    };
    println!();
    println!("expected application errors over the 300-frame workload");
    println!("(identical locking configuration, different binding):");
    println!("  area-aware binding  : {:6}", e(&area, &fixed));
    println!("  power-aware binding : {:6}", e(&power, &fixed));
    println!(
        "  obfuscation-aware   : {:6}   <- Problem 1 (Sec. IV)",
        e(&obf, &fixed)
    );
    println!(
        "  co-design (heuristic): {:6}   <- Problem 2 (Sec. V), inputs chosen too",
        codesign.errors
    );

    // Same number of locked inputs => same Eqn.-1 SAT resilience; the
    // security-aware bindings get their corruption "for free".
    let eps = lockbind::locking::epsilon_for_locked_inputs(4, 2 * bench.dfg.width());
    let lambda = expected_sat_iterations(2 * 2 * bench.dfg.width(), 1, eps);
    println!();
    println!("analytic SAT resilience of this configuration (Eqn. 1): ~{lambda:.0} iterations");

    // Realize the locked multiplier as a gate-level netlist.
    let modules = realize_locked_modules(&codesign.spec, bench.dfg.width())?;
    let (_, locked) = &modules[0];
    println!(
        "locked multiplier netlist: {} gates, {} key bits",
        locked.netlist().gate_count(),
        locked.key_bits()
    );
    Ok(())
}
