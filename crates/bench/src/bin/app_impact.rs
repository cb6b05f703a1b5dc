//! Error *quality* experiment (Sec. III-B of the paper): security-aware
//! binding does not only inject more errors, it injects them in more
//! schedule cycles and in longer consecutive runs — the properties that
//! defeat application-level error resilience (\[15\] in the paper).
//!
//! For each kernel, the same co-designed locking spec is evaluated under
//! the co-design binding and under area-aware binding, replaying the
//! workload and comparing temporal impact statistics.
//!
//! Usage: `cargo run -p lockbind-bench --release --bin app_impact [frames]`

use lockbind_bench::report::render_table;
use lockbind_bench::PreparedKernel;
use lockbind_core::{application_impact, bind_area_aware, codesign_heuristic};
use lockbind_hls::{FuClass, FuId};
use lockbind_mediabench::Kernel;
use lockbind_resil::CancelToken;

fn main() {
    let frames: usize = std::env::args()
        .nth(1)
        .and_then(|a| a.parse().ok())
        .unwrap_or(300);

    println!("Application-level error quality: co-design vs area-aware binding");
    println!("(same locking configuration; replayed over {frames} frames)");
    println!();

    let mut rows = Vec::new();
    for kernel in Kernel::ALL {
        let p = PreparedKernel::new(kernel, frames, 2021);
        let bench = kernel.benchmark(frames, 2021);
        let class = if p.alloc.count(FuClass::Multiplier) > 0 {
            FuClass::Multiplier
        } else {
            FuClass::Adder
        };
        let candidates = p.candidates(class, 10);
        let fus = [FuId::new(class, 0), FuId::new(class, 1)];
        let design = codesign_heuristic(
            &p.dfg,
            &p.schedule,
            &p.alloc,
            &p.profile,
            &fus,
            2,
            &candidates,
            &CancelToken::new(),
        )
        .expect("feasible");
        let area = bind_area_aware(&p.dfg, &p.schedule, &p.alloc).expect("feasible");

        let sec = application_impact(
            &p.dfg,
            &p.schedule,
            &design.binding,
            &design.spec,
            &bench.trace,
        )
        .expect("replay");
        let base = application_impact(&p.dfg, &p.schedule, &area, &design.spec, &bench.trace)
            .expect("replay");

        rows.push(vec![
            kernel.name().to_string(),
            format!("{:.2}", sec.frame_error_rate()),
            format!("{:.2}", base.frame_error_rate()),
            sec.max_consecutive_frames.to_string(),
            base.max_consecutive_frames.to_string(),
            sec.distinct_cycles_with_errors.to_string(),
            base.distinct_cycles_with_errors.to_string(),
        ]);
    }
    println!(
        "{}",
        render_table(
            &[
                "kernel",
                "frame err (sec)",
                "frame err (area)",
                "max run (sec)",
                "max run (area)",
                "cycles hit (sec)",
                "cycles hit (area)",
            ],
            &rows
        )
    );
    println!();
    println!("Security-aware binding should dominate every paired column: more frames");
    println!("affected, longer consecutive error runs, more schedule cycles corrupted.");
}
