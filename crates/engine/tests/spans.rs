//! The engine's stage span is the one timer of a cell: every executed cell
//! closes exactly one span named by its stage, tagged with its index and
//! label. This lives in its own test binary because the span sink is
//! process-global.

use lockbind_engine::{Engine, EngineConfig, Job, JobCtx};
use lockbind_obs as obs;

struct Cell(usize);

impl Job for Cell {
    type Output = usize;

    fn label(&self) -> String {
        format!("cell-{}", self.0)
    }

    fn run(&self, _: &mut JobCtx<'_>) -> Result<usize, String> {
        Ok(self.0)
    }
}

#[test]
fn metrics_track_stage_and_throughput() {
    let jobs: Vec<Cell> = (0..6).map(Cell).collect();
    let engine = Engine::new(EngineConfig {
        threads: 2,
        progress: false,
        ..EngineConfig::default()
    });
    let collector = obs::install_collector();
    let report = engine.run(&jobs);
    obs::trace::set_sink(None);
    let m = &report.metrics;
    assert_eq!(m.cells_total, 6);
    assert_eq!(m.cells_ok, 6);
    assert!(m.cells_per_sec > 0.0);

    let spans = collector.drain_sorted();
    assert_eq!(spans.len(), 6, "one span per cell: {spans:?}");
    for (index, span) in spans.iter().enumerate() {
        assert_eq!(span.name, "run", "the default stage names the span");
        assert_eq!(span.cell, Some(index as u64));
        assert_eq!(
            span.args,
            [("cell", obs::ArgValue::from(format!("cell-{index}")))]
        );
    }
    // JSON export is well-formed enough to contain the headline fields.
    let json = m.to_json().render();
    assert!(json.contains("\"cells_total\":6"));
    assert!(json.contains("\"cache\""));
}
