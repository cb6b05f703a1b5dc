//! Matching/co-design stage benchmark: runs the full error-cell grid (the
//! headline benchmark's dominant stage) and records its work profile —
//! cold solves, augmentation steps, combinations evaluated and
//! obfuscation-aware binds — next to the frozen pre-incremental baseline
//! in `results/BENCH_matching.json`, so the matching-stage speedup is
//! pinned by data instead of asserted.
//!
//! Stdout prints only deterministic work counters (identical across thread
//! counts and machines for fixed `FRAMES`/`SEED`); wall-clock goes to the
//! JSON file and stderr.
//!
//! Usage: `cargo run -p lockbind-bench --release --bin matching_bench --
//! [FRAMES] [SEED] [--threads N] [--json PATH]`
//!
//! The defaults (300 frames, seed 2021) reproduce the baseline
//! configuration exactly.

use std::path::PathBuf;
use std::time::Instant;

use lockbind_bench::{collect_error_records, error_grid, ExperimentParams};
use lockbind_engine::{Engine, EngineArgs};
use lockbind_mediabench::Kernel;
use lockbind_obs::json::Json;
use lockbind_obs::Registry;

/// The frozen pre-incremental reference (cold Hungarian solve per
/// combination, commit `848f8e3`, this machine, release build, `headline
/// 300 2021 --threads 2`, error-cell stage). Regenerate only when
/// intentionally re-baselining: these numbers are what "the matching stage
/// got faster" is measured against.
mod baseline {
    pub const COMMIT: &str = "848f8e3";
    pub const WALL_SECONDS: f64 = 17.566052513;
    pub const COLD_SOLVES: u64 = 6_382_590;
    pub const AUGMENT_STEPS: u64 = 27_974_350;
    pub const COMBOS_EVALUATED: u64 = 394_058;
    pub const OBF_AWARE_BINDS: u64 = 547_033;
}

/// Work counters the benchmark snapshots before and after the grid run.
const COUNTERS: &[&str] = &[
    "matching.solves",
    "matching.augment_steps",
    "codesign.combos_evaluated",
    "bind.obf_aware.calls",
];

fn snapshot() -> Vec<u64> {
    COUNTERS
        .iter()
        .map(|name| Registry::global().counter(name).get())
        .collect()
}

fn main() {
    let args = EngineArgs::parse("matching_bench");
    let params = ExperimentParams::default();
    let obs = args.obs_session();

    let engine = Engine::new(args.engine_config());
    let cells = error_grid(&Kernel::ALL, args.frames, args.seed, &params);
    let before = snapshot();
    let started = Instant::now();
    let report = engine.run(&cells);
    let wall_seconds = started.elapsed().as_secs_f64();
    let after = snapshot();
    let delta: Vec<u64> = after
        .iter()
        .zip(&before)
        .map(|(a, b)| a.saturating_sub(*b))
        .collect();
    let get = |name: &str| delta[COUNTERS.iter().position(|c| *c == name).expect("known")];

    let (records, failures) = collect_error_records(&report.results);
    if !failures.is_empty() {
        eprintln!("[matching_bench] {} cells FAILED:", failures.len());
        for (cell, message) in &failures {
            eprintln!("  {cell}: {message}");
        }
        std::process::exit(1);
    }

    let cold = get("matching.solves");
    let evaluated = get("codesign.combos_evaluated");

    // Deterministic work profile — the surface that CI can diff.
    println!(
        "matching/co-design stage work profile ({} cells, {} records):",
        report.results.len(),
        records.len()
    );
    println!("  cold solves            : {cold}");
    println!(
        "  augment steps          : {}",
        get("matching.augment_steps")
    );
    println!("  combos evaluated       : {evaluated}");
    println!("  obf-aware binds        : {}", get("bind.obf_aware.calls"));

    eprintln!(
        "[matching_bench] stage wall {wall_seconds:.3}s vs baseline {:.3}s = {:.2}x ({})",
        baseline::WALL_SECONDS,
        baseline::WALL_SECONDS / wall_seconds,
        report.metrics.summary()
    );

    let doc = Json::obj([
        ("schema_version", Json::UInt(1)),
        ("frames", Json::UInt(args.frames as u64)),
        ("root_seed", Json::UInt(args.seed)),
        (
            "baseline",
            Json::obj([
                ("commit", Json::from(baseline::COMMIT)),
                (
                    "source",
                    Json::from("headline 300 2021 --threads 2, error-cell stage"),
                ),
                ("wall_seconds", Json::Float(baseline::WALL_SECONDS)),
                ("cold_solves", Json::UInt(baseline::COLD_SOLVES)),
                ("augment_steps", Json::UInt(baseline::AUGMENT_STEPS)),
                ("combos_evaluated", Json::UInt(baseline::COMBOS_EVALUATED)),
                ("obf_aware_binds", Json::UInt(baseline::OBF_AWARE_BINDS)),
            ]),
        ),
        (
            "current",
            Json::obj([
                ("wall_seconds", Json::Float(wall_seconds)),
                ("cold_solves", Json::UInt(cold)),
                ("augment_steps", Json::UInt(get("matching.augment_steps"))),
                ("combos_evaluated", Json::UInt(evaluated)),
                ("obf_aware_binds", Json::UInt(get("bind.obf_aware.calls"))),
            ]),
        ),
        (
            "speedup",
            Json::obj([
                (
                    "wall_speedup",
                    Json::Float(baseline::WALL_SECONDS / wall_seconds),
                ),
                (
                    "cold_solve_reduction",
                    Json::Float(1.0 - cold as f64 / baseline::COLD_SOLVES as f64),
                ),
                (
                    "augment_step_reduction",
                    Json::Float(
                        1.0 - get("matching.augment_steps") as f64 / baseline::AUGMENT_STEPS as f64,
                    ),
                ),
            ]),
        ),
    ]);
    let json_path = args
        .json
        .clone()
        .unwrap_or_else(|| PathBuf::from("results/BENCH_matching.json"));
    if let Some(parent) = json_path.parent() {
        let _ = std::fs::create_dir_all(parent);
    }
    if let Err(e) = std::fs::write(&json_path, doc.render() + "\n") {
        eprintln!("matching_bench: cannot write {}: {e}", json_path.display());
        std::process::exit(2);
    }
    eprintln!(
        "[matching_bench] metrics written to {}",
        json_path.display()
    );
    if let Err(e) = obs.finish() {
        eprintln!("matching_bench: cannot write trace: {e}");
        std::process::exit(2);
    }
}
