//! Engine jobs backing each work kind.
//!
//! [`ServeJob`] adapts a validated [`Work`] request to the engine's
//! [`Job`] trait with a JSON output, so a request can run on the shared
//! engine with the same panic isolation, cancellation, and artifact
//! cache as the bench grids. Kernel preparation and class contexts go
//! through the bench crate's cached builders, so a daemon serving many
//! tenants prepares each `(kernel, frames, seed)` exactly once.
//!
//! Every body is a pure function of the work parameters and the
//! content-derived RNG seed — no wall clock, no per-connection state —
//! which is what makes coalesced responses byte-identical.

use lockbind_bench::codec::{error_record_json, impact_record_json, sat_record_json};
use lockbind_bench::errors_experiment::{ClassContext, ExperimentParams};
use lockbind_bench::grid::{cached_class_context, cached_prepared};
use lockbind_bench::headline_cells::{ImpactCell, SatCell};
use lockbind_bench::prepared::PreparedKernel;
use lockbind_core::{
    bind_obfuscation_aware, codesign_heuristic, expected_application_errors, CoreError, LockingSpec,
};
use lockbind_engine::{Job, JobCtx};
use lockbind_hls::{FuClass, FuId, Minterm};
use lockbind_mediabench::Kernel;
use lockbind_obs::Json;

use crate::proto::Work;

/// Wire label for an FU class.
pub fn class_label(class: FuClass) -> &'static str {
    match class {
        FuClass::Adder => "adder",
        FuClass::Multiplier => "multiplier",
    }
}

/// A [`Work`] request as an engine job producing a JSON `result` body.
#[derive(Debug, Clone)]
pub struct ServeJob {
    /// The validated work parameters.
    pub work: Work,
}

impl Job for ServeJob {
    type Output = Json;

    fn label(&self) -> String {
        format!("serve.{}", self.work.kind_name())
    }

    fn stage(&self) -> &'static str {
        self.work.stage()
    }

    fn run(&self, ctx: &mut JobCtx<'_>) -> Result<Json, String> {
        match self.work {
            Work::Bind {
                kernel,
                frames,
                seed,
                class,
                locked_fus,
                locked_inputs,
                num_candidates,
            } => {
                let prepared = cached_prepared(ctx.cache, kernel, frames, seed);
                let class_ctx = lookup_class_context(
                    ctx,
                    &prepared,
                    kernel,
                    frames,
                    seed,
                    class,
                    num_candidates,
                )?;
                let spec = first_candidates_spec(&prepared, &class_ctx, locked_fus, locked_inputs)?;
                let obf = bind_obfuscation_aware(
                    &prepared.dfg,
                    &prepared.schedule,
                    &prepared.alloc,
                    &prepared.profile,
                    &spec,
                )
                .map_err(|e| e.to_string())?;
                Ok(Json::obj([
                    ("kernel", Json::from(kernel.name())),
                    ("class", Json::from(class_label(class))),
                    ("locked_fus", Json::from(locked_fus)),
                    ("locked_inputs", Json::from(locked_inputs)),
                    ("spec", Json::from(spec.to_string())),
                    (
                        "obf_errors",
                        Json::from(expected_application_errors(&obf, &prepared.profile, &spec)),
                    ),
                    (
                        "area_errors",
                        Json::from(expected_application_errors(
                            &class_ctx.area,
                            &prepared.profile,
                            &spec,
                        )),
                    ),
                    (
                        "power_errors",
                        Json::from(expected_application_errors(
                            &class_ctx.power,
                            &prepared.profile,
                            &spec,
                        )),
                    ),
                ]))
            }
            Work::Codesign {
                kernel,
                frames,
                seed,
                class,
                locked_fus,
                inputs_per_fu,
                num_candidates,
            } => {
                let prepared = cached_prepared(ctx.cache, kernel, frames, seed);
                let available = prepared.alloc.count(class);
                if locked_fus > available {
                    return Err(format!(
                        "kernel '{}' allocates only {available} {} FU(s); \
                         cannot lock {locked_fus}",
                        kernel.name(),
                        class_label(class)
                    ));
                }
                let candidates = prepared.candidates(class, num_candidates);
                if candidates.len() < inputs_per_fu {
                    return Err(format!(
                        "kernel '{}' yields only {} locked-input candidate(s) for class \
                         {}; cannot pick {inputs_per_fu} per FU",
                        kernel.name(),
                        candidates.len(),
                        class_label(class)
                    ));
                }
                let fus: Vec<FuId> = (0..locked_fus).map(|i| FuId::new(class, i)).collect();
                let outcome = codesign_heuristic(
                    &prepared.dfg,
                    &prepared.schedule,
                    &prepared.alloc,
                    &prepared.profile,
                    &fus,
                    inputs_per_fu,
                    &candidates,
                    &ctx.cancel,
                )
                .map_err(|e| e.to_string())?;
                let locked: Vec<Json> = outcome
                    .spec
                    .iter()
                    .map(|(fu, minterms)| {
                        Json::obj([
                            ("fu", Json::from(fu.to_string())),
                            (
                                "minterms",
                                Json::Array(minterms.iter().map(|m| Json::from(m.raw())).collect()),
                            ),
                        ])
                    })
                    .collect();
                Ok(Json::obj([
                    ("kernel", Json::from(kernel.name())),
                    ("class", Json::from(class_label(class))),
                    ("locked_fus", Json::from(locked_fus)),
                    ("inputs_per_fu", Json::from(inputs_per_fu)),
                    ("errors", Json::from(outcome.errors)),
                    ("locked", Json::Array(locked)),
                ]))
            }
            Work::ErrorRate {
                kernel,
                frames,
                seed,
                class,
                locked_fus,
                locked_inputs,
                num_candidates,
                max_assignments,
                optimal_budget,
            } => {
                let prepared = cached_prepared(ctx.cache, kernel, frames, seed);
                let class_ctx = lookup_class_context(
                    ctx,
                    &prepared,
                    kernel,
                    frames,
                    seed,
                    class,
                    num_candidates,
                )?;
                let params = ExperimentParams {
                    num_candidates,
                    max_locked_fus: locked_fus,
                    max_locked_inputs: locked_inputs,
                    max_assignments,
                    optimal_budget: u128::from(optimal_budget),
                    seed,
                };
                let records = lockbind_bench::errors_experiment::run_error_cell_cancellable(
                    &prepared,
                    &class_ctx,
                    &params,
                    locked_fus,
                    locked_inputs,
                    &ctx.cancel,
                )
                .map_err(|e| e.to_string())?;
                Ok(Json::obj([
                    ("kernel", Json::from(kernel.name())),
                    ("class", Json::from(class_label(class))),
                    (
                        "records",
                        Json::Array(records.iter().map(error_record_json).collect()),
                    ),
                ]))
            }
            Work::LockedSim {
                kernel,
                frames,
                seed,
            } => {
                let cell = ImpactCell {
                    kernel,
                    frames,
                    seed,
                };
                let record = cell.run(ctx)?;
                Ok(impact_record_json(&record))
            }
            Work::SatAttack { scheme, width } => {
                let cell = SatCell { scheme, width };
                let record = cell.run(ctx)?;
                Ok(sat_record_json(&record))
            }
            Work::Sleep { ms } => {
                // Debug kind: consume wall time in cancel-polled 1 ms
                // slices so deadline and cancel paths are exercised with
                // controlled durations.
                for elapsed in 0..ms {
                    if ctx.cancel.is_cancelled() {
                        return Err(format!("sleep interrupted after {elapsed} ms"));
                    }
                    std::thread::sleep(std::time::Duration::from_millis(1));
                }
                Ok(Json::obj([("slept_ms", Json::from(ms))]))
            }
        }
    }
}

/// Fetches the cached class context, mapping "no candidates" and core
/// errors to job failures with actionable messages.
fn lookup_class_context(
    ctx: &JobCtx<'_>,
    prepared: &PreparedKernel,
    kernel: Kernel,
    frames: usize,
    seed: u64,
    class: FuClass,
    num_candidates: usize,
) -> Result<ClassContext, String> {
    let cached = cached_class_context(
        ctx.cache,
        prepared,
        kernel,
        frames,
        seed,
        class,
        num_candidates,
    );
    match cached.as_ref() {
        Ok(Some(class_ctx)) => Ok(class_ctx.clone()),
        Ok(None) => Err(format!(
            "kernel '{}' has no locked-input candidates for class {} \
             (e.g. ecb_enc4 has no multiplies)",
            kernel.name(),
            class_label(class)
        )),
        Err(e) => Err(e.to_string()),
    }
}

/// Builds the fixed locking spec used by `bind`: the first
/// `locked_inputs` candidates on the first `locked_fus` FUs of the
/// class — the same deterministic choice the error-rate grids make for
/// their obfuscation-aware cells.
fn first_candidates_spec(
    prepared: &PreparedKernel,
    class_ctx: &ClassContext,
    locked_fus: usize,
    locked_inputs: usize,
) -> Result<LockingSpec, String> {
    let available = prepared.alloc.count(class_ctx.class);
    if locked_fus > available {
        return Err(format!(
            "kernel '{}' allocates only {available} {} FU(s); cannot lock {locked_fus}",
            prepared.name,
            class_label(class_ctx.class)
        ));
    }
    if locked_inputs > class_ctx.candidates.len() {
        return Err(format!(
            "kernel '{}' yields only {} locked-input candidate(s) for class {}; \
             cannot lock {locked_inputs} per FU",
            prepared.name,
            class_ctx.candidates.len(),
            class_label(class_ctx.class)
        ));
    }
    let minterms: Vec<Minterm> = class_ctx.candidates[..locked_inputs].to_vec();
    let entries: Vec<(FuId, Vec<Minterm>)> = (0..locked_fus)
        .map(|i| (FuId::new(class_ctx.class, i), minterms.clone()))
        .collect();
    LockingSpec::new(&prepared.alloc, entries).map_err(|e: CoreError| e.to_string())
}
