//! `grid`: the headline smoke grid on the engine pool.
//!
//! One op is one grid cell (198 error-ratio cells, 11 locked-simulation
//! cells, 4 SAT-attack cells at 60 frames). A sweep builds a fresh engine
//! and fills its artifact cache with every kernel's `PreparedKernel` and
//! `ClassContext` — the locking-independent work a user pays on each
//! regeneration — and that fill is the workload's set-up, timed apart from
//! the cells. This is the paper's reproduction path: `core` and
//! `matching` do nearly all of its work.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::Arc;
use std::time::{Duration, Instant};

use lockbind_bench::errors_experiment::geomean;
use lockbind_bench::grid::{cached_class_context, cached_prepared};
use lockbind_bench::{
    collect_headline_records, headline_grid, run_error_cell, ClassContext, ErrorRecord,
    ExperimentParams, HeadlineCell, HeadlineOutput, ImpactRecord, PreparedKernel, SatRecord,
    SatScheme, SecurityAlgo,
};
use lockbind_core::locked_sim::{output_corruption, wrong_keys};
use lockbind_core::{codesign_heuristic_cancellable, realize_locked_modules, CoreError};
use lockbind_engine::{CellResult, Engine, Job, JobCtx};
use lockbind_hls::{FuClass, FuId};
use lockbind_locking::{lock_anti_sat, lock_critical_minterms, lock_permutation, lock_rll};
use lockbind_mediabench::Kernel;
use lockbind_netlist::builders::adder_fu;
use lockbind_obs::{MetricsSnapshot, Registry};
use lockbind_resil::CancelToken;

use crate::attack::{set_attack_layers, traced_attack, AttackCounts};
use crate::common::{engine, keep_going, nproc, Meter, Report, RunConfig, Samples};
use crate::trace::Tracer;

/// Profiling frames of the smoke grid.
const FRAMES: usize = 60;

/// Seed the committed smoke golden was generated at.
const GOLDEN_SEED: u64 = 5;

/// `headline 60 5` output, committed by the repository.
const GOLDEN: &str = include_str!("../../results/HEADLINE_smoke.txt");

/// A grid cell whose output carries its own wall time.
struct Timed(HeadlineCell);

impl Job for Timed {
    type Output = (HeadlineOutput, Duration);

    fn label(&self) -> String {
        self.0.label()
    }

    fn stage(&self) -> &'static str {
        self.0.stage()
    }

    fn run(&self, ctx: &mut JobCtx<'_>) -> Result<Self::Output, String> {
        let start = Instant::now();
        let out = self.0.run(ctx)?;
        Ok((out, start.elapsed()))
    }
}

fn cells(seed: u64) -> Vec<Timed> {
    headline_grid(&Kernel::ALL, FRAMES, seed, &ExperimentParams::default())
        .into_iter()
        .map(Timed)
        .collect()
}

/// Builds every artifact the cells share into the engine's cache.
fn fill_cache(engine: &Engine, seed: u64) {
    let num_candidates = ExperimentParams::default().num_candidates;
    for kernel in Kernel::ALL {
        let prepared = cached_prepared(engine.cache(), kernel, FRAMES, seed);
        for class in FuClass::ALL {
            cached_class_context(
                engine.cache(),
                &prepared,
                kernel,
                FRAMES,
                seed,
                class,
                num_candidates,
            );
        }
    }
}

/// A cell's output in a comparable form (`Debug` prints every float
/// exactly).
fn fingerprint(result: &CellResult<(HeadlineOutput, Duration)>) -> String {
    match result {
        CellResult::Ok { output, .. } => format!("{:?}", output.0),
        CellResult::Failed { message, .. } => format!("failed: {message}"),
        CellResult::TimedOut { message, .. } => format!("timed out: {message}"),
    }
}

fn untimed(results: &[CellResult<(HeadlineOutput, Duration)>]) -> Vec<CellResult<HeadlineOutput>> {
    results
        .iter()
        .map(|r| match r {
            CellResult::Ok { cell, output } => CellResult::Ok {
                cell: cell.clone(),
                output: output.0.clone(),
            },
            CellResult::Failed { cell, message } => CellResult::Failed {
                cell: cell.clone(),
                message: message.clone(),
            },
            CellResult::TimedOut { cell, message } => CellResult::TimedOut {
                cell: cell.clone(),
                message: message.clone(),
            },
        })
        .collect()
}

/// Renders records exactly as the `headline` binary prints them.
fn render_headline(
    records: &[ErrorRecord],
    impacts: &[ImpactRecord],
    sats: &[SatRecord],
) -> String {
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
    let mut s = String::new();
    let w = &mut s;
    let _ = writeln!(
        w,
        "Headline numbers over all kernels/configs/combination assignments;"
    );
    let _ = writeln!(
        w,
        "arithmetic mean of per-config mean ratios (the paper's convention),"
    );
    let _ = writeln!(
        w,
        "geometric mean in (parens); paper reference values in [brackets]"
    );
    let _ = writeln!(w);
    let _ = writeln!(w, "obfuscation-aware binding:");
    let _ = writeln!(
        w,
        "  vs area-aware : {:7.1}x ({:.1}x)   [22x]",
        amean(&obf_area),
        geomean(obf_area.iter().copied())
    );
    let _ = writeln!(
        w,
        "  vs power-aware: {:7.1}x ({:.1}x)   [29x]",
        amean(&obf_power),
        geomean(obf_power.iter().copied())
    );
    let _ = writeln!(
        w,
        "  combined      : {:7.1}x   [26x]",
        (amean(&obf_area) + amean(&obf_power)) / 2.0
    );
    let _ = writeln!(w);
    let _ = writeln!(w, "binding-obfuscation co-design (P-time heuristic):");
    let _ = writeln!(
        w,
        "  vs area-aware : {:7.1}x ({:.1}x)   [82x]",
        amean(&cd_area),
        geomean(cd_area.iter().copied())
    );
    let _ = writeln!(
        w,
        "  vs power-aware: {:7.1}x ({:.1}x)   [115x]",
        amean(&cd_power),
        geomean(cd_power.iter().copied())
    );
    let _ = writeln!(
        w,
        "  combined      : {:7.1}x   [99x]",
        (amean(&cd_area) + amean(&cd_power)) / 2.0
    );
    let _ = writeln!(w);
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
        let _ = writeln!(
            w,
            "heuristic vs optimal: no tractable optimal configs were run"
        );
    } else {
        let mean = degradations.iter().sum::<f64>() / degradations.len() as f64;
        let max = degradations.iter().cloned().fold(0.0f64, f64::max);
        let _ = writeln!(
            w,
            "heuristic vs optimal co-design: mean degradation {:.3}% (max {:.3}%) over {} configs   [<0.5%]",
            mean * 100.0,
            max * 100.0,
            degradations.len()
        );
    }
    let _ = writeln!(w);
    let _ = writeln!(w, "end-to-end pipeline checks:");
    let corrupted = impacts.iter().filter(|i| i.frames_corrupted > 0).count();
    let _ = writeln!(
        w,
        "  locked-sim : {}/{} kernels corrupted under a wrong key",
        corrupted,
        impacts.len()
    );
    for s in sats {
        let _ = writeln!(
            w,
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
    s
}

/// Runs one sweep at the golden seed and compares its rendered records
/// with the committed smoke golden.
fn check_golden(report: &mut Report) {
    let engine = engine(GOLDEN_SEED);
    let results = engine.run(&cells(GOLDEN_SEED));
    let (records, impacts, sats, failures) = collect_headline_records(&untimed(&results.results));
    let rendered = render_headline(&records, &impacts, &sats);
    if !failures.is_empty() || rendered != GOLDEN {
        report.failed += 1;
        report.invalidate(format!(
            "grid at seed {GOLDEN_SEED} does not reproduce results/HEADLINE_smoke.txt ({} failed cells)",
            failures.len()
        ));
    } else {
        report.note(format!(
            "grid: seed-{GOLDEN_SEED} sweep matches the committed smoke golden"
        ));
    }
}

/// The untraced run: sweeps until the budget is spent.
pub fn run(cfg: &RunConfig) -> Report {
    let mut report = Report::default();
    check_golden(&mut report);
    let cells = cells(cfg.seed);
    let mut samples = Samples::default();
    let mut meter = Meter::default();
    let mut setups = Vec::new();
    let mut first: Option<Vec<String>> = None;
    let start = Instant::now();
    while keep_going(start, cfg.seconds, setups.len(), 2) {
        let t0 = Instant::now();
        let engine = engine(cfg.seed);
        fill_cache(&engine, cfg.seed);
        setups.push(t0.elapsed().as_secs_f64());
        let results = meter.measure(cells.len(), || engine.run(&cells));
        let prints: Vec<String> = results.results.iter().map(fingerprint).collect();
        for (i, result) in results.results.iter().enumerate() {
            report.attempted += 1;
            let same = first.as_ref().is_none_or(|f| f[i] == prints[i]);
            match result.output() {
                Some((_, wall)) if same => samples.push(wall.as_secs_f64() * 1e3),
                _ => report.failed += 1,
            }
        }
        first.get_or_insert(prints);
    }
    report.note(format!(
        "grid: {} cells per sweep, {} sweeps, {} workers",
        cells.len(),
        setups.len(),
        nproc()
    ));
    report.set_end_to_end(&mut samples, &meter, &setups);
    report
}

type ClassContextResult = Result<Option<ClassContext>, CoreError>;

/// Serial replay of one sweep with a span around each library call.
struct Replay<'a> {
    t: &'a Tracer,
    seed: u64,
    prepared: BTreeMap<&'static str, Arc<PreparedKernel>>,
    contexts: BTreeMap<(&'static str, String), Arc<ClassContextResult>>,
    sat: AttackCounts,
}

impl Replay<'_> {
    fn prepared(&mut self, kernel: Kernel) -> Arc<PreparedKernel> {
        let (t, seed) = (self.t, self.seed);
        Arc::clone(self.prepared.entry(kernel.name()).or_insert_with(|| {
            t.span("bench.prepare", || {
                Arc::new(PreparedKernel::new(kernel, FRAMES, seed))
            })
        }))
    }

    fn cell(&mut self, cell: &HeadlineCell) -> Result<HeadlineOutput, String> {
        let t = self.t;
        match cell {
            HeadlineCell::Error(c) => {
                let prepared = self.prepared(c.kernel);
                let num_candidates = c.params.num_candidates;
                let ctx = Arc::clone(
                    self.contexts
                        .entry((c.kernel.name(), format!("{:?}", c.class)))
                        .or_insert_with(|| {
                            t.span("bench.class_context", || {
                                Arc::new(ClassContext::build(&prepared, c.class, num_candidates))
                            })
                        }),
                );
                match ctx.as_ref() {
                    Err(e) => Err(format!("class context: {e}")),
                    Ok(None) => Ok(HeadlineOutput::Error(Vec::new())),
                    Ok(Some(cc)) => t
                        .span("core.run_error_cell", || {
                            run_error_cell(&prepared, cc, &c.params, c.locked_fus, c.locked_inputs)
                        })
                        .map(HeadlineOutput::Error)
                        .map_err(|e| e.to_string()),
                }
            }
            HeadlineCell::Impact(c) => {
                let prepared = self.prepared(c.kernel);
                let bench = t.span("mediabench.benchmark", || {
                    c.kernel.benchmark(c.frames, c.seed)
                });
                let class = if prepared.alloc.count(FuClass::Multiplier) > 0 {
                    FuClass::Multiplier
                } else {
                    FuClass::Adder
                };
                let candidates = t.span("bench.candidates", || prepared.candidates(class, 8));
                let design = t
                    .span("core.codesign_heuristic", || {
                        codesign_heuristic_cancellable(
                            &prepared.dfg,
                            &prepared.schedule,
                            &prepared.alloc,
                            &prepared.profile,
                            &[FuId::new(class, 0)],
                            2.min(candidates.len()),
                            &candidates,
                            &CancelToken::new(),
                        )
                    })
                    .map_err(|e| e.to_string())?;
                let modules = t
                    .span("core.realize_locked_modules", || {
                        realize_locked_modules(&design.spec, prepared.dfg.width())
                    })
                    .map_err(|e| e.to_string())?;
                let keys = t.span("core.wrong_keys", || wrong_keys(&modules, 1));
                let corruption = t
                    .span("core.output_corruption", || {
                        output_corruption(
                            &prepared.dfg,
                            &design.binding,
                            &modules,
                            &keys,
                            &bench.trace,
                        )
                    })
                    .map_err(|e| e.to_string())?;
                Ok(HeadlineOutput::Impact(ImpactRecord {
                    kernel: prepared.name.clone(),
                    frame_rate: corruption.frame_rate(),
                    frames_corrupted: corruption.frames_corrupted,
                    frames_total: corruption.frames_total,
                }))
            }
            HeadlineCell::Sat(c) => {
                let lock = || {
                    let adder = adder_fu(c.width);
                    match c.scheme {
                        SatScheme::CriticalMinterm => lock_critical_minterms(&adder, &[5, 11]),
                        SatScheme::Rll => lock_rll(&adder, 6, 11),
                        SatScheme::AntiSat => lock_anti_sat(&adder),
                        SatScheme::Permutation => lock_permutation(&adder, 2),
                    }
                };
                let (locked, out, counts) = traced_attack(t, lock, c.width)?;
                self.sat.add(&counts);
                Ok(HeadlineOutput::Sat(SatRecord {
                    scheme: c.scheme.label(),
                    key_bits: locked.key_bits(),
                    iterations: out.iterations,
                    success: out.success,
                    conflicts: out.solver_stats.conflicts,
                    propagations: out.solver_stats.propagations,
                    gc_runs: out.solver_stats.gc_runs,
                }))
            }
        }
    }
}

/// Exact work counts of one replay, from the obs registry.
#[derive(Debug, Clone, PartialEq, Eq)]
struct GridCounts {
    registry: BTreeMap<&'static str, u64>,
    sat: AttackCounts,
}

/// Work counters the `core` and `matching` layers publish.
const REGISTRY_COUNTERS: [&str; 6] = [
    "codesign.combos_evaluated",
    "codesign.combos_pruned",
    "matching.solves",
    "matching.augment_steps",
    "matching.warm_rows_reaugmented",
    "matching.warm_rows_total",
];

/// The `core` and `matching` work counts a registry delta holds.
pub(crate) fn registry_counts(delta: &MetricsSnapshot) -> BTreeMap<&'static str, u64> {
    REGISTRY_COUNTERS
        .iter()
        .map(|&n| (n, delta.counters.get(n).copied().unwrap_or(0)))
        .collect()
}

/// Sets the `core.combos_*` and `matching.*` layer metrics from one
/// replay's work counts.
pub(crate) fn set_registry_layers(report: &mut Report, counts: &BTreeMap<&'static str, u64>) {
    let get = |n: &str| counts.get(n).copied().unwrap_or(0) as f64;
    let (evaluated, pruned) = (
        get("codesign.combos_evaluated"),
        get("codesign.combos_pruned"),
    );
    report.set("core.combos_evaluated", evaluated);
    report.set("core.combos_pruned", pruned);
    report.set("core.prune_ratio", pruned / (evaluated + pruned).max(1.0));
    report.set("matching.solves", get("matching.solves"));
    report.set("matching.augment_steps", get("matching.augment_steps"));
    let reaugmented = get("matching.warm_rows_reaugmented");
    report.set("matching.warm_rows_reaugmented", reaugmented);
    let rows = get("matching.warm_rows_total");
    report.set(
        "matching.warm_hit_rate",
        if rows > 0.0 {
            1.0 - reaugmented / rows
        } else {
            0.0
        },
    );
}

/// The traced run: one cold-cache engine sweep for the pool metrics, then
/// serial replays of the sweep, alternately traced and untraced, each
/// checked cell by cell against the engine sweep.
pub fn run_traced(cfg: &RunConfig) -> Report {
    let mut report = Report::default();
    let start = Instant::now();
    let cells = cells(cfg.seed);
    let engine = engine(cfg.seed);
    let t0 = Instant::now();
    let results = engine.run(&cells);
    let wall = t0.elapsed().as_secs_f64();
    let busy: f64 = results.outputs().map(|(_, d)| d.as_secs_f64()).sum();
    report.set("engine.busy_frac", busy / (nproc() as f64 * wall));
    report.set("engine.cache_hit_rate", engine.cache().stats().hit_rate());
    let expected: Vec<String> = results.results.iter().map(fingerprint).collect();
    drop(engine);

    let traced = Tracer::new(true);
    let plain = Tracer::new(false);
    let (mut traced_walls, mut plain_walls) = (Vec::new(), Vec::new());
    let mut first: Option<GridCounts> = None;
    let mut traced_sat = AttackCounts::default();
    let mut replays = 0;
    while keep_going(start, cfg.seconds, replays, 2) {
        let on = replays % 2 == 0;
        let t = if on { &traced } else { &plain };
        let mut replay = Replay {
            t,
            seed: cfg.seed,
            prepared: BTreeMap::new(),
            contexts: BTreeMap::new(),
            sat: AttackCounts::default(),
        };
        let before = Registry::global().snapshot();
        let t0 = Instant::now();
        for (i, cell) in cells.iter().enumerate() {
            report.attempted += 1;
            let got = t.op(i as u64, || replay.cell(&cell.0));
            let print = match &got {
                Ok(output) => format!("{output:?}"),
                Err(e) => format!("failed: {e}"),
            };
            if got.is_err() || print != expected[i] {
                report.failed += 1;
                report.note(format!(
                    "replayed cell {} differs from the engine sweep",
                    cell.label()
                ));
            }
        }
        let wall = t0.elapsed().as_secs_f64();
        let delta = Registry::global().snapshot().delta_from(&before);
        let counts = GridCounts {
            registry: registry_counts(&delta),
            sat: replay.sat,
        };
        if on {
            traced_walls.push(wall);
            traced_sat.add(&counts.sat);
        } else {
            plain_walls.push(wall);
        }
        match &first {
            None => first = Some(counts),
            Some(f) if *f != counts => {
                report.failed += 1;
                report.note("grid: work counts differ between replays of one sweep");
            }
            Some(_) => {}
        }
        replays += 1;
    }

    let first = first.expect("at least one replay ran");
    let layers = traced.layers();
    let mean = |name: &str| layers.get(name).map_or(0.0, |l| l.mean(1e6));
    report.set("bench.prepare_ms", mean("bench.prepare"));
    report.set("bench.class_context_ms", mean("bench.class_context"));
    report.set("core.error_cell_ms", mean("core.run_error_cell"));
    report.set("core.locked_sim_ms", mean("core.output_corruption"));
    set_registry_layers(&mut report, &first.registry);
    set_attack_layers(&mut report, &traced, &first.sat, &traced_sat);
    crate::set_trace_metrics(&mut report, &traced, &traced_walls, &plain_walls);
    report.note(format!(
        "grid traced: {replays} replays of {} cells",
        cells.len()
    ));
    report
}
