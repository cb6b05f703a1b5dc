//! Domain example: protecting the JPEG decode/merge path.
//!
//! The `jdmerge*` kernels dominate a JPEG decoder's datapath. This example
//! sweeps locking configurations (locked FU count x locked input count) on
//! `jdmerge4`, co-designs the binding/locking for each, and reports how the
//! error-vs-baseline ratio behaves — a per-kernel slice of the paper's
//! Fig. 5.
//!
//! Run: `cargo run --release --example jpeg_pipeline`

use lockbind::prelude::*;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let bench = Kernel::Jdmerge4.benchmark(400, 77);
    let alloc = Allocation::new(3, 3);
    let schedule = schedule_list(&bench.dfg, &alloc)?;
    let profile = OccurrenceProfile::from_trace(&bench.dfg, &bench.trace)?;
    let switching = SwitchingProfile::from_trace(&bench.dfg, &bench.trace)?;

    let area = bind_area_aware(&bench.dfg, &schedule, &alloc)?;
    let power = bind_power_aware(&bench.dfg, &schedule, &alloc, &switching)?;

    println!("jdmerge4: YCbCr->RGB upsample-merge, 4-pixel variant");
    println!(
        "{} ops over {} cycles on {}",
        bench.dfg.num_ops(),
        schedule.num_cycles(),
        alloc
    );
    println!();
    println!("co-designed multiplier locking (errors over 400 frames):");
    println!(
        "{:>10} {:>10} {:>12} {:>12} {:>12} {:>10} {:>10}",
        "locked FUs", "inputs/FU", "co-design E", "area E", "power E", "vs area", "vs power"
    );

    let candidates = profile.top_candidates_among(&bench.dfg.ops_of_class(FuClass::Multiplier), 10);
    for locked_fus in 1..=3usize {
        let fus: Vec<FuId> = (0..locked_fus)
            .map(|i| FuId::new(FuClass::Multiplier, i))
            .collect();
        for inputs in 1..=3usize {
            let design = codesign_heuristic(
                &bench.dfg,
                &schedule,
                &alloc,
                &profile,
                &fus,
                inputs,
                &candidates,
                &CancelToken::new(),
            )?;
            let e_area = expected_application_errors(&area, &profile, &design.spec);
            let e_power = expected_application_errors(&power, &profile, &design.spec);
            println!(
                "{:>10} {:>10} {:>12} {:>12} {:>12} {:>9.1}x {:>9.1}x",
                locked_fus,
                inputs,
                design.errors,
                e_area,
                e_power,
                (1.0 + design.errors as f64) / (1.0 + e_area as f64),
                (1.0 + design.errors as f64) / (1.0 + e_power as f64),
            );
        }
    }

    // Overhead of the strongest configuration vs the baselines (Fig. 6 view).
    let fus: Vec<FuId> = (0..3).map(|i| FuId::new(FuClass::Multiplier, i)).collect();
    let best = codesign_heuristic(
        &bench.dfg,
        &schedule,
        &alloc,
        &profile,
        &fus,
        3,
        &candidates,
        &CancelToken::new(),
    )?;
    let regs_sec = metrics::register_count(&bench.dfg, &schedule, &best.binding, &alloc);
    let regs_area = metrics::register_count(&bench.dfg, &schedule, &area, &alloc);
    let sw_sec = metrics::switching(&schedule, &best.binding, &alloc, &switching).rate;
    let sw_power = metrics::switching(&schedule, &power, &alloc, &switching).rate;
    println!();
    println!(
        "overhead of the 3-FU/3-input co-design: {:+} registers, {:+.4} switching rate",
        regs_sec as i64 - regs_area as i64,
        sw_sec - sw_power
    );
    Ok(())
}
