//! Regenerates **Fig. 4** of the paper: per-benchmark increase in
//! application errors caused by locking for (top) obfuscation-aware binding
//! and (bottom) binding-obfuscation co-design, vs area-aware and power-aware
//! binding, adders and multipliers separately.
//!
//! Usage: `cargo run -p lockbind-bench --release --bin fig4 --
//! [FRAMES] [SEED] [--threads N] [--json PATH] [--fail-fast]`

use std::process::ExitCode;

use lockbind_bench::errors_experiment::geomean;
use lockbind_bench::report::{fmt_ratio, render_table};
use lockbind_bench::{collect_error_records, error_grid, ExperimentParams, SecurityAlgo};
use lockbind_engine::{Engine, EngineArgs};
use lockbind_hls::FuClass;
use lockbind_mediabench::Kernel;

fn main() -> ExitCode {
    let args = EngineArgs::parse("fig4");
    let params = ExperimentParams::default();
    let obs = args.obs_session();

    println!("Fig. 4 — increase in application errors of locking (x over baseline)");
    println!(
        "workload: {} frames, seed {}; candidates: {}",
        args.frames, args.seed, params.num_candidates
    );
    println!();

    let engine = Engine::new(args.engine_config());
    let cells = error_grid(&Kernel::ALL, args.frames, args.seed, &params);
    let report = engine.run(&cells);
    let (all_records, failures) = collect_error_records(&report.results);

    for (title, algo) in [
        (
            "Obfuscation-Aware Binding over Area/Power-Aware Binding",
            SecurityAlgo::ObfAware,
        ),
        (
            "Binding-Obfuscation Co-Design over Area/Power-Aware Binding",
            SecurityAlgo::CoDesignHeuristic,
        ),
    ] {
        println!("== {title} ==");
        let headers = [
            "benchmark",
            "add vs area",
            "add vs power",
            "mul vs area",
            "mul vs power",
        ];
        let mut rows = Vec::new();
        let mut kernel_means = Vec::new();
        for kernel in Kernel::ALL {
            let name = kernel.name();
            let mut cell = |class: FuClass, vs_area: bool| -> String {
                let vals: Vec<f64> = all_records
                    .iter()
                    .filter(|r| r.kernel == name && r.class == class && r.algo == algo)
                    .map(|r| if vs_area { r.vs_area } else { r.vs_power })
                    .collect();
                if vals.is_empty() {
                    "-".to_string()
                } else {
                    let g = geomean(vals.iter().copied());
                    kernel_means.push(g);
                    fmt_ratio(g)
                }
            };
            rows.push(vec![
                name.to_string(),
                cell(FuClass::Adder, true),
                cell(FuClass::Adder, false),
                cell(FuClass::Multiplier, true),
                cell(FuClass::Multiplier, false),
            ]);
        }
        let avg = geomean(kernel_means.iter().copied());
        rows.push(vec![
            "Avg.".to_string(),
            String::new(),
            String::new(),
            String::new(),
            fmt_ratio(avg),
        ]);
        println!("{}", render_table(&headers, &rows));
    }

    obs.end_run("fig4", Some(&report.metrics), &failures)
}
