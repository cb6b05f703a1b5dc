//! The lockbind benchmark: one command, two workloads.
//!
//! ```text
//! perfbench --workload grid|attack --seed N --seconds S --trace 0|1
//! ```
//!
//! `--trace 0` measures the end-to-end metrics with tracing off;
//! `--trace 1` replays the workload's inputs through each crate's public
//! entry points with a span around every call and prints the per-layer
//! metrics. Both check every output. The last line of standard output is
//! one JSON object (`correct`, `attempted`, `failed`, `metrics`); the exit
//! code is 0 only when every check passed and the run is valid.

mod attack;
mod common;
mod grid;
mod serve;
mod trace;

use common::{median, Report, RunConfig, END_TO_END, PER_LAYER};
use trace::Tracer;

/// Sets `trace.overhead_pct` (median traced replay over median untraced
/// replay of the same inputs) and `trace.uncovered_pct`; invalidates the
/// run if the ops spend more time outside every layer span than the glue
/// allowance of their spans.
pub(crate) fn set_trace_metrics(
    report: &mut Report,
    traced: &Tracer,
    traced_walls: &[f64],
    plain_walls: &[f64],
) {
    let overhead = if plain_walls.is_empty() {
        0.0
    } else {
        (median(traced_walls) / median(plain_walls) - 1.0) * 100.0
    };
    report.set("trace.overhead_pct", overhead);
    report.note(format!(
        "tracing overhead {overhead:.2}% ({} traced / {} untraced replays, {} spans)",
        traced_walls.len(),
        plain_walls.len(),
        traced.len()
    ));
    let uncovered = traced.uncovered();
    report.set("trace.uncovered_pct", uncovered.pct());
    if uncovered.exceeds_allowance() {
        report.invalidate(format!(
            "traced ops spend {} ns outside every layer span, above the {} ns allowance (op {} alone {} ns)",
            uncovered.uncovered_ns, uncovered.allowance_ns, uncovered.worst_op.0, uncovered.worst_op.1
        ));
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cfg = match RunConfig::parse(&args) {
        Ok(cfg) => cfg,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!("usage: perfbench --workload grid|attack --seed N --seconds S --trace 0|1");
            std::process::exit(2);
        }
    };
    let mut report = match (cfg.workload.as_str(), cfg.trace) {
        ("grid", false) => grid::run(&cfg),
        ("grid", true) => {
            // The daemon serves the grid's kinds of work; its own layers
            // (serve, durable, telemetry, the load generator) are traced
            // here too, in the second half of the budget.
            let half = RunConfig {
                seconds: cfg.seconds / 2,
                ..cfg.clone()
            };
            let mut report = grid::run_traced(&half);
            report.absorb(
                serve::run_traced(&half),
                &["serve.", "durable.", "telemetry.", "gen."],
            );
            report
        }
        ("attack", false) => attack::run(&cfg),
        ("attack", true) => attack::run_traced(&cfg),
        (other, _) => {
            eprintln!("perfbench: unknown workload {other:?} (grid, attack)");
            std::process::exit(2);
        }
    };
    let wanted: &[(&str, &str)] = if cfg.trace {
        // A layer the workload never reaches reports 0.
        for (name, _) in PER_LAYER {
            if report.get(name).is_none() {
                report.set(name, 0.0);
            }
        }
        &PER_LAYER
    } else {
        &END_TO_END
    };
    let (correct, line) = report.result_line(wanted);
    for note in &report.notes {
        println!("# {note}");
    }
    for reason in &report.invalid {
        println!("# INVALID: {reason}");
    }
    for (name, unit) in wanted {
        println!("# {name} = {} {unit}", report.get(name).unwrap_or(f64::NAN));
    }
    println!("{line}");
    if !correct {
        std::process::exit(1);
    }
}
