//! The optimal co-design search against an exhaustive mixed-radix scan:
//! same errors, spec and binding on every configuration the headline smoke
//! grid runs it on, on locks that mix adders and multipliers, and on
//! candidate lists with duplicated minterms, where most maxima tie and
//! only the legacy tie-break (the lowest-rank ordering) picks the winner.
//! Both searches' reported scores are also held to their winners' cold
//! re-bind on every smoke configuration.

use lockbind_core::{
    bind_obfuscation_aware, combinations, expected_application_errors, CoDesignOutcome,
    CoDesignProblem, LockingSpec,
};
use lockbind_hls::{
    schedule_list, Allocation, Dfg, FuClass, FuId, Minterm, OccurrenceProfile, Schedule,
};
use lockbind_mediabench::Kernel;
use lockbind_resil::CancelToken;

/// The smoke grid's exact-search budget (`ExperimentParams::optimal_budget`).
const BUDGET: usize = 20_000;

/// A suite kernel as the smoke grid prepares it: 60 frames of seed 5,
/// scheduled on 3 adders and 3 multipliers (none for a multiply-free
/// kernel).
struct Prepared {
    dfg: Dfg,
    schedule: Schedule,
    alloc: Allocation,
    profile: OccurrenceProfile,
}

impl Prepared {
    fn new(kernel: Kernel) -> Self {
        let b = kernel.benchmark(60, 5);
        let (_, muls) = b.dfg.op_mix();
        let alloc = Allocation::new(3, if muls > 0 { 3 } else { 0 });
        let schedule = schedule_list(&b.dfg, &alloc).expect("schedulable");
        let profile = OccurrenceProfile::from_trace(&b.dfg, &b.trace).expect("profiled");
        Prepared {
            dfg: b.dfg,
            schedule,
            alloc,
            profile,
        }
    }

    fn candidates(&self, class: FuClass, k: usize) -> Vec<Minterm> {
        self.profile
            .top_candidates_among(&self.dfg.ops_of_class(class), k)
    }

    /// The legacy exhaustive scan: every assignment in mixed-radix order
    /// (digit 0, the first locked FU, fastest), scored by the problem's
    /// sweep, the first maximum kept, and the winner bound cold.
    fn scan(&self, problem: &CoDesignProblem, candidates: &[Minterm]) -> CoDesignOutcome {
        let (fus, combos, sweep) = (
            problem.locked_fus(),
            problem.combinations(),
            problem.sweep(),
        );
        let mut digits = vec![0; fus.len()];
        let mut best: Option<(u64, Vec<usize>)> = None;
        loop {
            let errors = sweep.score(&digits);
            if best.as_ref().is_none_or(|(e, _)| errors > *e) {
                best = Some((errors, digits.clone()));
            }
            let Some(k) = digits.iter().position(|&d| d + 1 < combos.len()) else {
                break;
            };
            digits[k] += 1;
            digits[..k].fill(0);
        }
        let (errors, digits) = best.expect("one assignment at least");
        let entries = fus
            .iter()
            .zip(&digits)
            .map(|(&fu, &c)| (fu, combos[c].iter().map(|&i| candidates[i]).collect()))
            .collect();
        let spec = LockingSpec::new(&self.alloc, entries).expect("valid");
        let binding =
            bind_obfuscation_aware(&self.dfg, &self.schedule, &self.alloc, &self.profile, &spec)
                .expect("feasible");
        assert_eq!(
            expected_application_errors(&binding, &self.profile, &spec),
            errors
        );
        CoDesignOutcome {
            binding,
            spec,
            errors,
        }
    }

    /// Runs the search and the scan, and requires the same outcome.
    fn check(&self, what: &str, fus: &[FuId], per_fu: usize, candidates: &[Minterm]) {
        let (dfg, schedule, alloc, profile) =
            (&self.dfg, &self.schedule, &self.alloc, &self.profile);
        let problem = CoDesignProblem::new(dfg, schedule, alloc, profile, fus, per_fu, candidates)
            .expect("builds");
        let fast = problem
            .realize(&problem.optimal(&CancelToken::new()).expect("searchable"))
            .expect("realizable");
        let slow = self.scan(&problem, candidates);
        assert_eq!(fast.errors, slow.errors, "{what}");
        assert_eq!(fast.spec, slow.spec, "{what}");
        assert_eq!(fast.binding, slow.binding, "{what}");
    }
}

fn in_budget(candidates: usize, per_fu: usize, locked: usize) -> bool {
    (combinations(candidates, per_fu).len() as u128).pow(locked as u32) <= BUDGET as u128
}

#[test]
fn matches_the_scan_on_every_in_budget_smoke_cell() {
    let mut cells = 0;
    for kernel in Kernel::ALL {
        let p = Prepared::new(kernel);
        for class in FuClass::ALL {
            let candidates = p.candidates(class, 10);
            if candidates.is_empty() {
                continue;
            }
            for locked in 1..=p.alloc.count(class).min(3) {
                for per_fu in 1..=candidates.len().min(3) {
                    if !in_budget(candidates.len(), per_fu, locked) {
                        continue;
                    }
                    let fus: Vec<FuId> = (0..locked).map(|i| FuId::new(class, i)).collect();
                    let what = format!("{kernel:?} {class:?} L{locked} m{per_fu}");
                    p.check(&what, &fus, per_fu, &candidates);
                    cells += 1;
                }
            }
        }
    }
    // 21 kernel classes (ecb_enc4 has no multipliers) × 7 in-budget shapes.
    assert_eq!(cells, 147);
}

/// The error cell reads a search's errors without binding its choice, so
/// each search's score must equal Eqn. 2 of the cold re-bind: the
/// heuristic on every smoke configuration, the optimal search where the
/// grid runs it.
#[test]
fn search_scores_equal_a_cold_rebind_on_every_smoke_cell() {
    let never = CancelToken::new();
    let (mut heuristics, mut optimals) = (0, 0);
    for kernel in Kernel::ALL {
        let p = Prepared::new(kernel);
        for class in FuClass::ALL {
            let candidates = p.candidates(class, 10);
            if candidates.is_empty() {
                continue;
            }
            for locked in 1..=p.alloc.count(class).min(3) {
                for per_fu in 1..=candidates.len().min(3) {
                    let fus: Vec<FuId> = (0..locked).map(|i| FuId::new(class, i)).collect();
                    let what = format!("{kernel:?} {class:?} L{locked} m{per_fu}");
                    let problem = CoDesignProblem::new(
                        &p.dfg,
                        &p.schedule,
                        &p.alloc,
                        &p.profile,
                        &fus,
                        per_fu,
                        &candidates,
                    )
                    .expect("builds");
                    let mut searches = vec![problem.heuristic(&never).expect("runs")];
                    heuristics += 1;
                    if in_budget(candidates.len(), per_fu, locked) {
                        searches.push(problem.optimal(&never).expect("searchable"));
                        optimals += 1;
                    }
                    for choice in searches {
                        let realized = problem.realize(&choice).expect("realizable");
                        assert_eq!(choice.errors(), realized.errors, "{what}");
                    }
                }
            }
        }
    }
    // 21 kernel classes × 9 shapes, 7 of them in the exact search's budget.
    assert_eq!((heuristics, optimals), (189, 147));
}

#[test]
fn matches_the_scan_when_classes_mix() {
    let adder = |i| FuId::new(FuClass::Adder, i);
    let multiplier = |i| FuId::new(FuClass::Multiplier, i);
    let locks = [
        vec![adder(0), multiplier(0)],
        vec![multiplier(1), adder(2), multiplier(0)],
        vec![adder(1), multiplier(2), adder(0)],
    ];
    for kernel in [Kernel::Dct, Kernel::Fir, Kernel::Motion2, Kernel::Jdmerge1] {
        let p = Prepared::new(kernel);
        let mut candidates = p.candidates(FuClass::Adder, 4);
        candidates.extend(p.candidates(FuClass::Multiplier, 4));
        for fus in &locks {
            for per_fu in 1..=2 {
                if in_budget(candidates.len(), per_fu, fus.len()) {
                    p.check(
                        &format!("{kernel:?} {fus:?} m{per_fu}"),
                        fus,
                        per_fu,
                        &candidates,
                    );
                }
            }
        }
    }
}

#[test]
fn matches_the_scan_when_duplicated_candidates_tie() {
    for kernel in [Kernel::Fir, Kernel::Motion3, Kernel::Fft, Kernel::Noisest2] {
        let p = Prepared::new(kernel);
        for class in FuClass::ALL {
            let top = p.candidates(class, 3);
            if top.len() < 3 {
                continue;
            }
            // Each minterm twice, in two layouts: its copy adjacent, and
            // the whole list repeated.
            let adjacent: Vec<Minterm> = top.iter().flat_map(|&m| [m, m]).collect();
            let repeated: Vec<Minterm> = top.iter().chain(&top).copied().collect();
            for candidates in [adjacent, repeated] {
                for locked in 2..=3 {
                    let fus: Vec<FuId> = (0..locked).map(|i| FuId::new(class, i)).collect();
                    for per_fu in 1..=2 {
                        let what =
                            format!("{kernel:?} {class:?} {candidates:?} L{locked} m{per_fu}");
                        p.check(&what, &fus, per_fu, &candidates);
                    }
                }
            }
        }
    }
}
