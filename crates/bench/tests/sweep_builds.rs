//! One class table per class, one sweep per error cell: the nine error
//! cells of a (kernel, class) build the class's Eqn. 3 candidate table
//! once, on the first cell, and each cell derives one `ErrorSweep` from it.
//!
//! This test lives alone in its own test binary: it diffs the
//! process-global `sweep.tables` and `sweep.builds` counters, and
//! concurrent tests in the same process would bump them inside the window
//! being measured.

use lockbind_bench::{
    run_error_cell_cancellable, ClassContext, ExperimentParams, PreparedKernel, SecurityAlgo,
};
use lockbind_hls::FuClass;
use lockbind_mediabench::Kernel;
use lockbind_obs as obs;
use lockbind_resil::CancelToken;

#[test]
fn a_class_builds_one_table_and_each_cell_one_sweep() {
    let prepared = PreparedKernel::new(Kernel::Fir, 60, 5);
    let params = ExperimentParams::default();
    let tables = obs::counter!("sweep.tables");
    let builds = obs::counter!("sweep.builds");
    let (t0, b0) = (tables.get(), builds.get());
    let ctx = ClassContext::build(&prepared, FuClass::Adder, params.num_candidates)
        .expect("builds")
        .expect("fir has adder candidates");
    assert_eq!(tables.get() - t0, 0, "the context builds no table");
    let mut cells = 0;
    for locked_fus in 1..=3 {
        for locked_inputs in 1..=3 {
            let records = run_error_cell_cancellable(
                &prepared,
                &ctx,
                &params,
                locked_fus,
                locked_inputs,
                &CancelToken::new(),
            )
            .expect("runs");
            assert_eq!(records[0].algo, SecurityAlgo::ObfAware);
            assert_eq!(records[1].algo, SecurityAlgo::CoDesignHeuristic);
            cells += 1;
            assert_eq!(tables.get() - t0, 1, "tables after {cells} cells");
            assert_eq!(builds.get() - b0, cells, "sweeps after {cells} cells");
        }
    }
    assert_eq!(cells, 9);
}
