//! Regenerates the paper's **headline scalars** (abstract / Sec. VI-A):
//!
//! * obfuscation-aware binding: 22x vs area-aware, 29x vs power-aware
//!   (26x combined),
//! * binding-obfuscation co-design: 82x vs area, 115x vs power (99x),
//! * the P-time heuristic degrades the optimal co-design solution by <0.5%.
//!
//! Runs on the execution engine and always writes its run metrics to
//! `results/BENCH_headline.json` (override the path with `--json`).
//!
//! This is the canonical observability entry point: its combined grid also
//! runs one end-to-end locked-simulation cell per kernel and one SAT-attack
//! cell per scheme, so `headline --profile --trace trace.json` covers every
//! pipeline stage (scheduling, binding, matching, locked-sim, sat-attack).
//!
//! Usage: `cargo run -p lockbind-bench --release --bin headline --
//! [FRAMES] [SEED] [--threads N] [--json PATH] [--fail-fast]
//! [--trace PATH] [--profile]`

use std::path::PathBuf;
use std::process::ExitCode;

use lockbind_bench::errors_experiment::geomean;
use lockbind_bench::{collect_headline_records, headline_grid, ExperimentParams, SecurityAlgo};
use lockbind_engine::{Engine, EngineArgs};
use lockbind_mediabench::Kernel;

fn main() -> ExitCode {
    let mut args = EngineArgs::parse("headline");
    args.json
        .get_or_insert_with(|| PathBuf::from("results/BENCH_headline.json"));
    let params = ExperimentParams::default();
    let obs = args.obs_session();

    let engine = Engine::new(args.engine_config());
    let cells = headline_grid(&Kernel::ALL, args.frames, args.seed, &params);
    let report = engine.run(&cells);
    let (records, impacts, sats, failures) = collect_headline_records(&report.results);

    let collect = |algo: SecurityAlgo, vs_area: bool| -> Vec<f64> {
        records
            .iter()
            .filter(|r| r.algo == algo)
            .map(|r| if vs_area { r.vs_area } else { r.vs_power })
            .collect()
    };
    let amean = |vals: &[f64]| vals.iter().sum::<f64>() / vals.len() as f64;

    let obf_area = collect(SecurityAlgo::ObfAware, true);
    let obf_power = collect(SecurityAlgo::ObfAware, false);
    let cd_area = collect(SecurityAlgo::CoDesignHeuristic, true);
    let cd_power = collect(SecurityAlgo::CoDesignHeuristic, false);

    println!("Headline numbers over all kernels/configs/combination assignments;");
    println!("arithmetic mean of per-config mean ratios (the paper's convention),");
    println!("geometric mean in (parens); paper reference values in [brackets]");
    println!();
    println!("obfuscation-aware binding:");
    println!(
        "  vs area-aware : {:7.1}x ({:.1}x)   [22x]",
        amean(&obf_area),
        geomean(obf_area.iter().copied())
    );
    println!(
        "  vs power-aware: {:7.1}x ({:.1}x)   [29x]",
        amean(&obf_power),
        geomean(obf_power.iter().copied())
    );
    println!(
        "  combined      : {:7.1}x   [26x]",
        (amean(&obf_area) + amean(&obf_power)) / 2.0
    );
    println!();
    println!("binding-obfuscation co-design (P-time heuristic):");
    println!(
        "  vs area-aware : {:7.1}x ({:.1}x)   [82x]",
        amean(&cd_area),
        geomean(cd_area.iter().copied())
    );
    println!(
        "  vs power-aware: {:7.1}x ({:.1}x)   [115x]",
        amean(&cd_power),
        geomean(cd_power.iter().copied())
    );
    println!(
        "  combined      : {:7.1}x   [99x]",
        (amean(&cd_area) + amean(&cd_power)) / 2.0
    );
    println!();

    // Heuristic vs optimal degradation (on configs where optimal ran).
    let mut degradations = Vec::new();
    for opt in records
        .iter()
        .filter(|r| r.algo == SecurityAlgo::CoDesignOptimal)
    {
        if let Some(heur) = records.iter().find(|h| {
            h.algo == SecurityAlgo::CoDesignHeuristic
                && h.kernel == opt.kernel
                && h.class == opt.class
                && h.locked_fus == opt.locked_fus
                && h.locked_inputs == opt.locked_inputs
        }) {
            if opt.mean_errors > 0.0 {
                degradations.push(1.0 - heur.mean_errors / opt.mean_errors);
            }
        }
    }
    if degradations.is_empty() {
        println!("heuristic vs optimal: no tractable optimal configs were run");
    } else {
        let mean = degradations.iter().sum::<f64>() / degradations.len() as f64;
        let max = degradations.iter().cloned().fold(0.0f64, f64::max);
        println!(
            "heuristic vs optimal co-design: mean degradation {:.3}% (max {:.3}%) over {} configs   [<0.5%]",
            mean * 100.0,
            max * 100.0,
            degradations.len()
        );
    }

    println!();
    println!("end-to-end pipeline checks:");
    let corrupted = impacts.iter().filter(|i| i.frames_corrupted > 0).count();
    println!(
        "  locked-sim : {}/{} kernels corrupted under a wrong key",
        corrupted,
        impacts.len()
    );
    for s in &sats {
        println!(
            "  sat-attack : {:<17} {} key bits, {} DIPs, {} conflicts, {} props, {} GCs, key {}",
            s.scheme,
            s.key_bits,
            s.iterations,
            s.conflicts,
            s.propagations,
            s.gc_runs,
            if s.success { "found" } else { "NOT found" }
        );
    }

    obs.end_run("headline", Some(&report.metrics), &failures)
}
