//! Cross-algorithm invariants over the whole benchmark suite:
//!
//! * obfuscation-aware binding never injects fewer errors than naive,
//!   random, area-aware, or power-aware binding for the same locking spec
//!   (it is provably optimal, Thm. 2);
//! * co-design never does worse than obfuscation-aware binding with any
//!   fixed candidate subset of the same size;
//! * all bindings produced are valid (constructor-checked).

use lockbind::prelude::*;

fn prepared(
    kernel: Kernel,
) -> (
    Dfg,
    Schedule,
    Allocation,
    OccurrenceProfile,
    SwitchingProfile,
) {
    let bench = kernel.benchmark(80, 13);
    let (_, muls) = bench.dfg.op_mix();
    let alloc = Allocation::new(3, if muls > 0 { 3 } else { 0 });
    let schedule = schedule_list(&bench.dfg, &alloc).expect("schedulable");
    let profile = OccurrenceProfile::from_trace(&bench.dfg, &bench.trace).expect("profiled");
    let switching = SwitchingProfile::from_trace(&bench.dfg, &bench.trace).expect("profiled");
    (bench.dfg, schedule, alloc, profile, switching)
}

#[test]
fn obf_aware_dominates_every_other_binding_for_fixed_specs() {
    for kernel in Kernel::ALL {
        let (dfg, schedule, alloc, profile, switching) = prepared(kernel);
        for class in FuClass::ALL {
            let ops = dfg.ops_of_class(class);
            if ops.is_empty() {
                continue;
            }
            let candidates = profile.top_candidates_among(&ops, 4);
            if candidates.is_empty() {
                continue;
            }
            let spec = LockingSpec::new(
                &alloc,
                vec![
                    (
                        FuId::new(class, 0),
                        candidates[..2.min(candidates.len())].to_vec(),
                    ),
                    (FuId::new(class, 1), candidates[..1].to_vec()),
                ],
            )
            .expect("valid");

            let obf =
                bind_obfuscation_aware(&dfg, &schedule, &alloc, &profile, &spec).expect("feasible");
            let e_obf = expected_application_errors(&obf, &profile, &spec);

            let others: Vec<(&str, Binding)> = vec![
                (
                    "naive",
                    bind_naive(&dfg, &schedule, &alloc).expect("feasible"),
                ),
                (
                    "random",
                    bind_random(&dfg, &schedule, &alloc, 99).expect("feasible"),
                ),
                (
                    "area",
                    bind_area_aware(&dfg, &schedule, &alloc).expect("feasible"),
                ),
                (
                    "power",
                    bind_power_aware(&dfg, &schedule, &alloc, &switching).expect("feasible"),
                ),
            ];
            for (name, binding) in others {
                let e = expected_application_errors(&binding, &profile, &spec);
                assert!(
                    e_obf >= e,
                    "{kernel}/{class}: obf-aware ({e_obf}) lost to {name} ({e})"
                );
            }
        }
    }
}

#[test]
fn codesign_dominates_obf_aware_with_any_fixed_choice() {
    let never = CancelToken::new();
    for kernel in [
        Kernel::Dct,
        Kernel::Jctrans2,
        Kernel::Motion3,
        Kernel::EcbEnc4,
    ] {
        let (dfg, schedule, alloc, profile, _) = prepared(kernel);
        let class = if kernel == Kernel::EcbEnc4 {
            FuClass::Adder
        } else {
            FuClass::Multiplier
        };
        let candidates = profile.top_candidates_among(&dfg.ops_of_class(class), 5);
        let fus = [FuId::new(class, 0), FuId::new(class, 1)];
        let cd = codesign_heuristic(
            &dfg,
            &schedule,
            &alloc,
            &profile,
            &fus,
            1,
            &candidates,
            &never,
        )
        .expect("feasible");
        for &c0 in &candidates {
            for &c1 in &candidates {
                let spec = LockingSpec::new(&alloc, vec![(fus[0], vec![c0]), (fus[1], vec![c1])])
                    .expect("valid");
                let obf = bind_obfuscation_aware(&dfg, &schedule, &alloc, &profile, &spec)
                    .expect("feasible");
                let e = expected_application_errors(&obf, &profile, &spec);
                assert!(
                    cd.errors >= e,
                    "{kernel}: co-design ({}) lost to fixed ({c0}, {c1}) = {e}",
                    cd.errors
                );
            }
        }
    }
}

#[test]
fn optimal_codesign_beats_heuristic_nowhere_by_much() {
    let never = CancelToken::new();
    // Where the optimal search is tractable, the heuristic must be within a
    // few percent (the paper reports <0.5% average degradation).
    let mut total_opt = 0.0;
    let mut total_heur = 0.0;
    for kernel in [Kernel::Fir, Kernel::Jdmerge1, Kernel::Noisest2] {
        let (dfg, schedule, alloc, profile, _) = prepared(kernel);
        let candidates = profile.top_candidates_among(&dfg.ops_of_class(FuClass::Multiplier), 5);
        let fus = [
            FuId::new(FuClass::Multiplier, 0),
            FuId::new(FuClass::Multiplier, 1),
        ];
        let opt = codesign_optimal(
            &dfg,
            &schedule,
            &alloc,
            &profile,
            &fus,
            2,
            &candidates,
            &never,
        )
        .expect("tractable");
        let heur = codesign_heuristic(
            &dfg,
            &schedule,
            &alloc,
            &profile,
            &fus,
            2,
            &candidates,
            &never,
        )
        .expect("feasible");
        assert!(heur.errors <= opt.errors);
        total_opt += opt.errors as f64;
        total_heur += heur.errors as f64;
    }
    assert!(
        total_heur >= 0.93 * total_opt,
        "aggregate heuristic degradation too large: {total_heur} vs {total_opt}"
    );
}
