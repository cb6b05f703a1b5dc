//! Observability determinism: the metrics registry must record *work*, not
//! *scheduling*, so a traced run at 1 worker and at 4 workers reports
//! byte-identical deterministic metric totals and the same number of spans
//! of each name. The grid mixes error cells (matching and co-design
//! counters), locked-simulation cells (the only obfuscation-aware binds:
//! error cells score on the sweep) and SAT-attack cells, so the registry's
//! histograms (`sat.glue`, `sat.conflicts_per_dip`) are rendered and
//! compared too.
//!
//! This test lives alone in its own test binary: it compares deltas of the
//! process-global registry and drains the process-global span sink, and
//! concurrent tests in the same process would bleed counters and spans into
//! the windows being compared.

use std::collections::BTreeMap;

use lockbind_bench::{error_grid, ExperimentParams, HeadlineCell, ImpactCell, SatCell, SatScheme};
use lockbind_engine::{Engine, EngineConfig};
use lockbind_mediabench::Kernel;
use lockbind_obs as obs;

/// One traced run of the grid: the deterministic metric render, the
/// run's counters, and the number of closed spans of each name.
struct Run {
    render: String,
    counters: BTreeMap<String, u64>,
    spans: BTreeMap<&'static str, u64>,
}

fn run_grid(threads: usize) -> Run {
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
    let kernels = [Kernel::Fir, Kernel::EcbEnc4];
    let mut cells: Vec<HeadlineCell> = error_grid(&kernels, 60, 3, &params)
        .into_iter()
        .map(HeadlineCell::Error)
        .collect();
    cells.extend(kernels.into_iter().map(|kernel| {
        HeadlineCell::Impact(ImpactCell {
            kernel,
            frames: 60,
            seed: 3,
        })
    }));
    cells.extend(
        SatScheme::ALL
            .into_iter()
            .map(|scheme| HeadlineCell::Sat(SatCell { scheme, width: 3 })),
    );
    let collector = obs::install_collector();
    let report = engine.run(&cells);
    obs::trace::set_sink(None);
    assert_eq!(report.metrics.cells_ok, cells.len(), "no cell may fail");
    let mut spans = BTreeMap::new();
    for span in collector.drain_sorted() {
        *spans.entry(span.name).or_insert(0) += 1;
    }
    Run {
        render: report.metrics.obs.render_deterministic(),
        counters: report.metrics.obs.counters,
        spans,
    }
}

#[test]
fn metric_totals_are_identical_across_worker_counts() {
    let serial = run_grid(1);
    let render = &serial.render;
    assert!(
        render.contains("counter matching.solves"),
        "expected matching counters in:\n{render}"
    );
    assert!(render.contains("counter cache.miss"));
    for hist in ["histogram sat.glue ", "histogram sat.conflicts_per_dip "] {
        assert!(render.contains(hist), "expected {hist:?} in:\n{render}");
    }

    // Each hot call site opens exactly one span per call its counter
    // counts, so a lost or doubled span shows up here.
    for (span, counter) in [
        ("matching.solve", "matching.solves"),
        ("bind.obf_aware", "bind.obf_aware.calls"),
        ("app_errors.eval", "app_errors.evals"),
        ("attack.sat", "sat.attacks"),
    ] {
        let calls = serial.counters.get(counter).copied().unwrap_or(0);
        assert!(calls > 0, "the grid never reached {counter}");
        assert_eq!(
            serial.spans.get(span).copied().unwrap_or(0),
            calls,
            "{span} spans vs the {counter} counter"
        );
    }

    for threads in [4, 7] {
        let parallel = run_grid(threads);
        assert_eq!(
            serial.render, parallel.render,
            "deterministic metric totals diverged at {threads} workers"
        );
        assert_eq!(
            serial.spans, parallel.spans,
            "per-name span counts diverged at {threads} workers"
        );
    }
}
