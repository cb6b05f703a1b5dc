//! Observability determinism: the metrics registry must record *work*, not
//! *scheduling*, so a traced run at 1 worker and at 4 workers reports
//! byte-identical deterministic metric totals and the same number of spans
//! of each name. The grid mixes error cells (matching and co-design
//! counters), locked-simulation cells (the only obfuscation-aware binds:
//! error cells score on the sweep) and SAT-attack cells, so the registry's
//! histograms (`sat.glue`, `sat.conflicts_per_dip`) are rendered and
//! compared too. Each run's chrome trace must also load under the strict
//! JSON parser, which rejects duplicate keys.
//!
//! This test lives alone in its own test binary: it compares deltas of the
//! process-global registry and drains the process-global span sink, and
//! concurrent tests in the same process would bleed counters and spans into
//! the windows being compared.

use std::collections::BTreeMap;

use lockbind_bench::{
    error_grid, ExperimentParams, HeadlineCell, ImpactCell, PreparedKernel, SatCell, SatScheme,
};
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

/// The grid's kernels and its error cells' parameters.
const KERNELS: [Kernel; 2] = [Kernel::Fir, Kernel::EcbEnc4];
const PARAMS: ExperimentParams = ExperimentParams {
    num_candidates: 4,
    max_locked_fus: 2,
    max_locked_inputs: 2,
    max_assignments: 30,
    optimal_budget: 50,
    seed: 7,
};

fn run_grid(threads: usize) -> Run {
    let engine = Engine::new(EngineConfig {
        threads,
        root_seed: 2021,
        fail_fast: false,
        progress: false,
        ..EngineConfig::default()
    });
    let (kernels, params) = (KERNELS, PARAMS);
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
    let records = collector.drain_sorted();
    let trace = obs::chrome_trace(&records);
    if let Err(e) = obs::json::parse(trace.as_bytes()) {
        panic!("the {threads}-worker chrome trace does not parse: {e:?}");
    }
    let mut spans = BTreeMap::new();
    for span in records {
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

    // Every (kernel, class) context with candidates builds its class table
    // once, however many workers race for it, and each impact cell builds
    // one for its own problem.
    let contexts = KERNELS
        .iter()
        .map(|&kernel| {
            let prepared = PreparedKernel::new(kernel, 60, 3);
            let classes = prepared.classes();
            classes
                .into_iter()
                .filter(|&class| !prepared.candidates(class, PARAMS.num_candidates).is_empty())
                .count() as u64
        })
        .sum::<u64>();
    assert_eq!(contexts, 3, "fir's two classes and ecb_enc4's adders");
    let tables = contexts + KERNELS.len() as u64;
    assert_eq!(serial.counters.get("sweep.tables"), Some(&tables));

    for threads in [4, 7] {
        let parallel = run_grid(threads);
        assert_eq!(
            parallel.counters.get("sweep.tables"),
            Some(&tables),
            "class tables built at {threads} workers"
        );
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
