//! One sweep per error cell: a cell that scores the obfuscation-aware
//! assignments and runs both co-design searches builds one `ErrorSweep`.
//!
//! This test lives alone in its own test binary: it diffs the
//! process-global `sweep.builds` counter, and concurrent tests in the same
//! process would bump it inside the window being measured.

use lockbind_bench::{
    run_error_cell_cancellable, ClassContext, ExperimentParams, PreparedKernel, SecurityAlgo,
};
use lockbind_hls::FuClass;
use lockbind_mediabench::Kernel;
use lockbind_obs as obs;
use lockbind_resil::CancelToken;

#[test]
fn an_error_cell_builds_one_sweep() {
    let prepared = PreparedKernel::new(Kernel::Fir, 60, 5);
    let params = ExperimentParams::default();
    let ctx = ClassContext::build(&prepared, FuClass::Adder, params.num_candidates)
        .expect("builds")
        .expect("fir has adder candidates");
    let builds = obs::counter!("sweep.builds");
    let b0 = builds.get();
    // Two locked adders, two inputs each: C(10, 2)^2 = 2025 orderings, in
    // the exact search's budget.
    let records = run_error_cell_cancellable(&prepared, &ctx, &params, 2, 2, &CancelToken::new())
        .expect("runs");
    let algos: Vec<SecurityAlgo> = records.iter().map(|r| r.algo).collect();
    assert_eq!(
        algos,
        [
            SecurityAlgo::ObfAware,
            SecurityAlgo::CoDesignHeuristic,
            SecurityAlgo::CoDesignOptimal
        ]
    );
    assert_eq!(builds.get() - b0, 1, "sweeps built by one error cell");
}
