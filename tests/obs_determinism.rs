//! Observability determinism: the metrics registry must record *work*, not
//! *scheduling*, so a traced run at 1 worker and at 4 workers reports
//! byte-identical deterministic metric totals. The grid mixes error cells
//! (matching and co-design counters) with SAT-attack cells, so the
//! registry's histograms (`sat.glue`, `sat.conflicts_per_dip`) are
//! rendered and compared too.
//!
//! This test lives alone in its own test binary: it compares deltas of the
//! process-global registry, and concurrent tests in the same process would
//! bleed counters into the windows being compared.

use lockbind_bench::{error_grid, ExperimentParams, HeadlineCell, SatCell, SatScheme};
use lockbind_engine::{Engine, EngineConfig};
use lockbind_mediabench::Kernel;

fn run_grid(threads: usize) -> String {
    let engine = Engine::new(EngineConfig {
        threads,
        root_seed: 2021,
        fail_fast: false,
        progress: false,
        ..EngineConfig::default()
    });
    let params = ExperimentParams {
        num_candidates: 4,
        max_locked_fus: 2,
        max_locked_inputs: 2,
        max_assignments: 30,
        optimal_budget: 50,
        seed: 7,
    };
    let mut cells: Vec<HeadlineCell> = error_grid(&[Kernel::Fir, Kernel::EcbEnc4], 60, 3, &params)
        .into_iter()
        .map(HeadlineCell::Error)
        .collect();
    cells.extend(
        SatScheme::ALL
            .into_iter()
            .map(|scheme| HeadlineCell::Sat(SatCell { scheme, width: 3 })),
    );
    let report = engine.run(&cells);
    assert_eq!(report.metrics.cells_ok, cells.len(), "no cell may fail");
    report.metrics.obs.render_deterministic()
}

#[test]
fn metric_totals_are_identical_across_worker_counts() {
    // Timers on: their *call counts* are part of the deterministic render
    // (durations are not) and must also be scheduling-independent.
    lockbind_obs::set_profiling(true);

    let serial = run_grid(1);
    assert!(
        serial.contains("counter matching.solves"),
        "expected matching counters in:\n{serial}"
    );
    assert!(serial.contains("counter cache.miss"));
    for hist in ["histogram sat.glue ", "histogram sat.conflicts_per_dip "] {
        assert!(serial.contains(hist), "expected {hist:?} in:\n{serial}");
    }

    for threads in [4, 7] {
        let parallel = run_grid(threads);
        assert_eq!(
            serial, parallel,
            "deterministic metric totals diverged at {threads} workers"
        );
    }
}
