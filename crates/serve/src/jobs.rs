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
use lockbind_bench::grid::{cached_class_context, cached_prepared, ErrorCell};
use lockbind_bench::headline_cells::{ImpactCell, SatCell};
use lockbind_core::{bind_obfuscation_aware, expected_application_errors, CoreError};
use lockbind_engine::{Job, JobCtx};
use lockbind_hls::{FuClass, FuId};
use lockbind_mediabench::Kernel;
use lockbind_obs::Json;

use crate::proto::Work;

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
                let cached = cached_class_context(
                    ctx.cache,
                    &prepared,
                    kernel,
                    frames,
                    seed,
                    class,
                    num_candidates,
                );
                let class_ctx = usable_class_context(&cached, kernel, class)?;
                let spec = class_ctx.first_candidates_spec(&prepared, locked_fus, locked_inputs)?;
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
                    ("class", Json::from(class.name())),
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
                        class.name()
                    ));
                }
                let candidates = prepared.candidates(class, num_candidates);
                if candidates.len() < inputs_per_fu {
                    return Err(format!(
                        "kernel '{}' yields only {} locked-input candidate(s) for class \
                         {}; cannot pick {inputs_per_fu} per FU",
                        kernel.name(),
                        candidates.len(),
                        class.name()
                    ));
                }
                let fus: Vec<FuId> = (0..locked_fus).map(|i| FuId::new(class, i)).collect();
                let outcome = prepared
                    .codesign_problem(&fus, inputs_per_fu, &candidates)
                    .and_then(|problem| problem.realize(&problem.heuristic(&ctx.cancel)?))
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
                    ("class", Json::from(class.name())),
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
                // A class without candidates is an error here, where the
                // grid's cell returns no records.
                let prepared = cached_prepared(ctx.cache, kernel, frames, seed);
                let cached = cached_class_context(
                    ctx.cache,
                    &prepared,
                    kernel,
                    frames,
                    seed,
                    class,
                    num_candidates,
                );
                usable_class_context(&cached, kernel, class)?;
                let cell = ErrorCell {
                    kernel,
                    frames,
                    seed,
                    class,
                    locked_fus,
                    locked_inputs,
                    params: ExperimentParams {
                        num_candidates,
                        max_locked_fus: locked_fus,
                        max_locked_inputs: locked_inputs,
                        max_assignments,
                        optimal_budget: u128::from(optimal_budget),
                        seed,
                    },
                };
                let records = cell.run(ctx)?;
                Ok(Json::obj([
                    ("kernel", Json::from(kernel.name())),
                    ("class", Json::from(class.name())),
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

/// Reads a cached class context in place, mapping "no candidates" and
/// core errors to job failures with actionable messages.
fn usable_class_context(
    cached: &Result<Option<ClassContext>, CoreError>,
    kernel: Kernel,
    class: FuClass,
) -> Result<&ClassContext, String> {
    match cached {
        Ok(Some(class_ctx)) => Ok(class_ctx),
        Ok(None) => Err(format!(
            "kernel '{}' has no locked-input candidates for class {} \
             (e.g. ecb_enc4 has no multiplies)",
            kernel.name(),
            class.name()
        )),
        Err(e) => Err(e.to_string()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lockbind_engine::{CellResult, Engine, EngineConfig};
    use lockbind_resil::CancelToken;
    use std::sync::Arc;

    #[test]
    fn class_context_lookups_share_one_allocation() {
        let engine = Engine::new(EngineConfig {
            progress: false,
            ..EngineConfig::default()
        });
        let prepared = cached_prepared(engine.cache(), Kernel::Fir, 40, 5);
        let lookup = || {
            cached_class_context(
                engine.cache(),
                &prepared,
                Kernel::Fir,
                40,
                5,
                FuClass::Adder,
                8,
            )
        };
        let (first, second) = (lookup(), lookup());
        assert!(Arc::ptr_eq(&first, &second), "one key, one allocation");
        let read = |cached: &Arc<_>| {
            let class_ctx = usable_class_context(cached, Kernel::Fir, FuClass::Adder);
            std::ptr::from_ref(class_ctx.expect("fir has adder candidates"))
        };
        assert_eq!(read(&first), read(&second), "read in place, not copied");
    }

    #[test]
    fn error_rate_without_candidates_is_an_error_where_the_grid_returns_nothing() {
        let engine = Engine::new(EngineConfig {
            progress: false,
            ..EngineConfig::default()
        });
        let params = ExperimentParams {
            num_candidates: 8,
            max_locked_fus: 1,
            max_locked_inputs: 1,
            max_assignments: 20,
            optimal_budget: 0,
            seed: 5,
        };
        let cell = ErrorCell {
            kernel: Kernel::EcbEnc4,
            frames: 40,
            seed: 5,
            class: FuClass::Multiplier,
            locked_fus: 1,
            locked_inputs: 1,
            params,
        };
        let grid = engine.run_one(&cell, 0, 0, 1, CancelToken::new());
        assert_eq!(grid.output().map(Vec::len), Some(0));

        let job = ServeJob {
            work: Work::ErrorRate {
                kernel: Kernel::EcbEnc4,
                frames: 40,
                seed: 5,
                class: FuClass::Multiplier,
                locked_fus: 1,
                locked_inputs: 1,
                num_candidates: 8,
                max_assignments: 20,
                optimal_budget: 0,
            },
        };
        let CellResult::Failed { message, .. } = engine.run_one(&job, 0, 0, 1, CancelToken::new())
        else {
            panic!("a class without candidates fails the request");
        };
        assert_eq!(
            message,
            "kernel 'ecb_enc4' has no locked-input candidates for class multiplier \
             (e.g. ecb_enc4 has no multiplies)"
        );
    }
}
