//! Mutation-based property tests for the pass suite: build a *valid*
//! artifact from a real MediaBench kernel, apply exactly one mutation from
//! a known class, and assert the checker reports the expected `LBxxxx`
//! diagnostic. The dual direction — unmutated artifacts lint clean — is the
//! first property.
//!
//! CI runs this file with `PROPTEST_CASES=256`; the local default is 64.

use lockbind_check::{check_artifact, Artifact, Report};
use lockbind_core::{
    bind_obfuscation_aware, bind_obfuscation_aware_certified, codesign_optimal, combinations,
    expected_application_errors, BindingCertificate, ErrorSweep, LockingSpec,
};
use lockbind_hls::{
    schedule_list, Allocation, Binding, Dfg, FuClass, FuId, Minterm, OccurrenceProfile, OpId,
    Schedule,
};
use lockbind_mediabench::Kernel;
use lockbind_resil::CancelToken;
use proptest::prelude::*;

const FRAMES: usize = 16;

/// A fully valid artifact bundle for one suite kernel: the certified
/// obfuscation-aware binding of a standard locking configuration.
struct Fixture {
    dfg: Dfg,
    schedule: Schedule,
    alloc: Allocation,
    profile: OccurrenceProfile,
    candidates: Vec<Minterm>,
    spec: LockingSpec,
    binding: Binding,
    certificate: BindingCertificate,
}

impl Fixture {
    fn new(kernel_index: usize, seed: u64) -> Fixture {
        let kernel = Kernel::ALL[kernel_index % Kernel::ALL.len()];
        let bench = kernel.benchmark(FRAMES, seed);
        let (_, muls) = bench.dfg.op_mix();
        let alloc = Allocation::new(3, if muls > 0 { 3 } else { 0 });
        let schedule = schedule_list(&bench.dfg, &alloc).expect("suite kernels fit 3+3 FUs");
        let profile =
            OccurrenceProfile::from_trace(&bench.dfg, &bench.trace).expect("arity matches");
        let candidates = profile.top_candidates_among(&bench.dfg.ops_of_class(FuClass::Adder), 6);
        let spec = LockingSpec::new(
            &alloc,
            vec![(
                FuId::new(FuClass::Adder, 0),
                candidates[..2.min(candidates.len())].to_vec(),
            )],
        )
        .expect("valid spec");
        let (binding, certificate) =
            bind_obfuscation_aware_certified(&bench.dfg, &schedule, &alloc, &profile, &spec)
                .expect("suite kernels bind");
        Fixture {
            dfg: bench.dfg,
            schedule,
            alloc,
            profile,
            candidates,
            spec,
            binding,
            certificate,
        }
    }

    /// The complete artifact (certificate included) over this fixture's
    /// fields, with optional overrides applied by the caller.
    fn artifact(&self) -> Artifact<'_> {
        Artifact::new()
            .with_dfg(&self.dfg)
            .with_schedule(&self.schedule)
            .with_alloc(&self.alloc)
            .with_binding(&self.binding)
            .with_profile(&self.profile)
            .with_spec(&self.spec)
            .with_candidates(&self.candidates)
            .with_certificate(&self.certificate)
    }

    /// All `(a, b)` op pairs whose swap preserves binding legality but
    /// deviates from the certified matching: same cycle, same class,
    /// distinct FUs.
    fn swappable_pairs(&self) -> Vec<(OpId, OpId)> {
        let ids: Vec<OpId> = self.dfg.op_ids().collect();
        let mut pairs = Vec::new();
        for (i, &a) in ids.iter().enumerate() {
            for &b in &ids[i + 1..] {
                if self.schedule.cycle(a) == self.schedule.cycle(b)
                    && self.binding.fu(a).class == self.binding.fu(b).class
                    && self.binding.fu(a) != self.binding.fu(b)
                {
                    pairs.push((a, b));
                }
            }
        }
        pairs
    }
}

fn has_code(report: &Report, code: &str) -> bool {
    report.counts_by_code().contains_key(code)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Baseline: valid certified artifacts produce an empty report.
    #[test]
    fn valid_artifacts_lint_clean(k in 0usize..11, seed in 0u64..32) {
        let f = Fixture::new(k, seed);
        let report = check_artifact(&f.artifact());
        prop_assert!(
            report.diagnostics().is_empty(),
            "expected clean, got:\n{}",
            report.render_human()
        );
    }

    /// Mutation: swap two same-cycle bindings. The binding stays legal but
    /// no longer matches the certificate's proven-optimal assignment.
    #[test]
    fn swapped_cycle_bindings_trip_lb0406(k in 0usize..11, seed in 0u64..32, pick in any::<u64>()) {
        let f = Fixture::new(k, seed);
        let pairs = f.swappable_pairs();
        prop_assume!(!pairs.is_empty());
        let (a, b) = pairs[(pick % pairs.len() as u64) as usize];
        let mut fu_of = f.binding.as_slice().to_vec();
        fu_of.swap(a.index(), b.index());
        let swapped = Binding::from_assignment_unchecked(fu_of);
        let report = check_artifact(&f.artifact().with_binding(&swapped));
        prop_assert!(has_code(&report, "LB0406"), "{}", report.render_human());
        prop_assert!(!report.is_clean());
    }

    /// Mutation: re-schedule a consumer into its producer's cycle. The
    /// dependence edge now points sideways in time.
    #[test]
    fn violated_dependence_trips_lb0202(k in 0usize..11, seed in 0u64..32, pick in any::<u64>()) {
        let f = Fixture::new(k, seed);
        let victims: Vec<OpId> = f
            .dfg
            .op_ids()
            .filter(|&id| !f.dfg.predecessors(id).is_empty())
            .collect();
        prop_assume!(!victims.is_empty());
        let victim = victims[(pick % victims.len() as u64) as usize];
        let pred = f.dfg.predecessors(victim)[0];
        let mut cycles = f.schedule.cycles().to_vec();
        cycles[victim.index()] = cycles[pred.index()];
        let broken = Schedule::from_cycles_unchecked(cycles);
        let report = check_artifact(
            &Artifact::new()
                .with_dfg(&f.dfg)
                .with_schedule(&broken)
                .with_alloc(&f.alloc),
        );
        prop_assert!(has_code(&report, "LB0202"), "{}", report.render_human());
    }

    /// Mutation: re-point a locked minterm at a value outside the candidate
    /// list `C` (still width-valid, so only the provenance check fires).
    #[test]
    fn foreign_minterm_trips_lb0504(k in 0usize..11, seed in 0u64..32) {
        let f = Fixture::new(k, seed);
        let foreign = (0u64..)
            .map(Minterm::from_raw)
            .find(|m| !f.candidates.contains(m))
            .expect("some small raw value is not a candidate");
        let spec = LockingSpec::new(
            &f.alloc,
            vec![(FuId::new(FuClass::Adder, 0), vec![foreign])],
        )
        .expect("width-valid minterm is accepted by the spec constructor");
        let report = check_artifact(
            &Artifact::new()
                .with_dfg(&f.dfg)
                .with_alloc(&f.alloc)
                .with_spec(&spec)
                .with_candidates(&f.candidates),
        );
        prop_assert!(has_code(&report, "LB0504"), "{}", report.render_human());
    }

    /// Mutation: lock a minterm wider than the FU's input space.
    #[test]
    fn overwide_minterm_trips_lb0503(k in 0usize..11, seed in 0u64..32, extra in 0u64..4) {
        let f = Fixture::new(k, seed);
        let bits = 2 * f.dfg.width();
        prop_assume!(bits < 63);
        let overwide = Minterm::from_raw((1u64 << bits) + extra);
        let spec = LockingSpec::new(
            &f.alloc,
            vec![(FuId::new(FuClass::Adder, 0), vec![overwide])],
        )
        .expect("spec constructor does not know the DFG width");
        let report = check_artifact(
            &Artifact::new()
                .with_dfg(&f.dfg)
                .with_alloc(&f.alloc)
                .with_spec(&spec),
        );
        prop_assert!(has_code(&report, "LB0503"), "{}", report.render_human());
    }

    /// Mutation: raise one row potential. The matched edge of that row was
    /// tight (complementary slackness), so the duals go infeasible.
    #[test]
    fn raised_dual_potential_trips_lb0403(k in 0usize..11, seed in 0u64..32, pick in any::<u64>()) {
        let f = Fixture::new(k, seed);
        prop_assume!(!f.certificate.cycles.is_empty());
        let mut cert = f.certificate.clone();
        let ci = (pick % cert.cycles.len() as u64) as usize;
        let rows = cert.cycles[ci].certificate.u.len();
        prop_assume!(rows > 0);
        let r = ((pick >> 32) % rows as u64) as usize;
        cert.cycles[ci].certificate.u[r] += 1;
        let report = check_artifact(&f.artifact().with_certificate(&cert));
        prop_assert!(has_code(&report, "LB0403"), "{}", report.render_human());
    }

    /// Mutation: lower one row potential. The duals stay feasible but the
    /// dual objective no longer meets the primal cost — a duality gap.
    #[test]
    fn lowered_dual_potential_trips_lb0405(k in 0usize..11, seed in 0u64..32, pick in any::<u64>()) {
        let f = Fixture::new(k, seed);
        prop_assume!(!f.certificate.cycles.is_empty());
        let mut cert = f.certificate.clone();
        let ci = (pick % cert.cycles.len() as u64) as usize;
        let rows = cert.cycles[ci].certificate.u.len();
        prop_assume!(rows > 0);
        let r = ((pick >> 32) % rows as u64) as usize;
        cert.cycles[ci].certificate.u[r] -= 1;
        let report = check_artifact(&f.artifact().with_certificate(&cert));
        prop_assert!(has_code(&report, "LB0405"), "{}", report.render_human());
    }

    /// Sweep exactness: the co-design searches score every combination
    /// through the sweep alone. Each combination's sweep score must equal
    /// the realized Eqn. 2 errors of a cold obfuscation-aware binding of
    /// the same spec, and [`codesign_optimal`] must return the maximum.
    #[test]
    fn sweep_scores_every_combination_exactly(k in 0usize..11, seed in 0u64..32) {
        let f = Fixture::new(k, seed);
        prop_assume!(f.candidates.len() >= 2);
        let fu = FuId::new(FuClass::Adder, 0);
        let combos = combinations(f.candidates.len(), 2);
        let mut sweep = ErrorSweep::new(
            &f.dfg, &f.schedule, &f.alloc, &f.profile, &[fu], &f.candidates, &combos,
        ).expect("builds");
        let mut true_max = 0u64;
        for (ci, combo) in combos.iter().enumerate() {
            sweep.set_slot(0, ci);
            let fast = sweep.solve_errors();
            let spec = LockingSpec::new(
                &f.alloc,
                vec![(fu, combo.iter().map(|&i| f.candidates[i]).collect())],
            ).expect("valid spec");
            let binding = bind_obfuscation_aware(
                &f.dfg, &f.schedule, &f.alloc, &f.profile, &spec,
            ).expect("feasible");
            let exact = expected_application_errors(&binding, &f.profile, &spec);
            prop_assert_eq!(fast, exact, "combo {}: sweep vs cold bind", ci);
            true_max = true_max.max(exact);
        }
        let opt = codesign_optimal(
            &f.dfg, &f.schedule, &f.alloc, &f.profile, &[fu], 2, &f.candidates,
            &CancelToken::new(),
        ).expect("searchable");
        prop_assert_eq!(opt.errors, true_max, "codesign_optimal missed the optimum");
    }

    /// Mutation: inflate one column potential of a cycle certificate. An
    /// inflated column potential is a forged optimality claim for the
    /// cycle's binding, and the `LB04xx` family must reject it (sign
    /// violation, dual infeasibility, or a duality gap, depending on where
    /// the slack runs out).
    #[test]
    fn inflated_column_potential_trips_lb04xx(k in 0usize..11, seed in 0u64..32, pick in any::<u64>()) {
        let f = Fixture::new(k, seed);
        prop_assume!(!f.certificate.cycles.is_empty());
        let mut cert = f.certificate.clone();
        let ci = (pick % cert.cycles.len() as u64) as usize;
        let cols = cert.cycles[ci].certificate.v.len();
        prop_assume!(cols > 0);
        let c = ((pick >> 32) % cols as u64) as usize;
        cert.cycles[ci].certificate.v[c] += 1 + (pick % 7) as i64;
        let report = check_artifact(&f.artifact().with_certificate(&cert));
        prop_assert!(
            report.counts_by_code().keys().any(|code| code.starts_with("LB04")),
            "inflated v[{c}] went undetected:\n{}",
            report.render_human()
        );
        prop_assert!(!report.is_clean());
    }
}

// ---------------------------------------------------------------------------
// LB07xx structural-audit mutations: start from a *sound* locked (or
// unlocked) FU netlist, seed exactly one known structural weakness, and
// assert the audit reports the expected stable code. The dual direction —
// clean artifacts audit silent, real schemes audit warning-only — anchors
// the false-positive side.
// ---------------------------------------------------------------------------

use lockbind_check::{audit_netlist, audit_passed};
use lockbind_locking::{
    lock_anti_sat, lock_critical_minterms, lock_permutation, lock_rll, lock_sfll_hd,
};
use lockbind_netlist::builders::{adder_fu, multiplier_fu};
use lockbind_netlist::Netlist;

fn audit_codes(netlist: &Netlist) -> Vec<&'static str> {
    audit_netlist(netlist)
        .counts_by_code()
        .into_keys()
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Baseline: unlocked FU modules carry no keys, so the audit is
    /// trivially silent — zero findings at any width.
    #[test]
    fn unlocked_fus_audit_silent(width in 3u32..8) {
        for base in [adder_fu(width), multiplier_fu(width)] {
            let report = audit_netlist(&base);
            prop_assert!(
                report.diagnostics().is_empty(),
                "{}:\n{}",
                base.name(),
                report.render_human()
            );
        }
    }

    /// Mutation: a key input that drives nothing. Structurally inert key
    /// bits are free for the attacker — the one error-severity finding.
    #[test]
    fn orphaned_key_trips_lb0701(width in 3u32..8, seed in 0u64..16) {
        let locked = lock_rll(&adder_fu(width), 4, seed).expect("lockable");
        prop_assert!(audit_passed(&audit_netlist(locked.netlist())));
        let mut broken = locked.netlist().clone();
        broken.add_key();
        let report = audit_netlist(&broken);
        prop_assert!(has_code(&report, "LB0701"), "{}", report.render_human());
        prop_assert!(!audit_passed(&report), "an inert key must fail the audit");
    }

    /// Mutation: a lone XOR key gate spliced right onto an output — the
    /// bypassable unit key gate (remove it, recover the function).
    #[test]
    fn output_key_xor_trips_lb0704(width in 3u32..8) {
        let mut nl = adder_fu(width);
        let out = nl.outputs()[0];
        let k = nl.add_key();
        let keyed = nl.xor(out, k);
        nl.mark_output(keyed);
        let report = audit_netlist(&nl);
        prop_assert!(has_code(&report, "LB0704"), "{}", report.render_human());
        prop_assert!(audit_passed(&report), "isolation is a warning, not an error");
    }

    /// Mutation: AND an output with a key bit. Under the `k = 0` hypothesis
    /// the gate (and the output) collapse to a constant — a removable key
    /// gate (LB0711) and a hypothesis-constant output (LB0712).
    #[test]
    fn hypothesis_constant_and_trips_lb0711_lb0712(width in 3u32..8) {
        let mut nl = adder_fu(width);
        let out = nl.outputs()[0];
        let k = nl.add_key();
        let gated = nl.and(out, k);
        nl.mark_output(gated);
        let report = audit_netlist(&nl);
        prop_assert!(has_code(&report, "LB0711"), "{}", report.render_human());
        prop_assert!(has_code(&report, "LB0712"), "{}", report.render_human());
    }

    /// Mutation: route a key bit straight to an output. Any input vector
    /// distinguishes the two key hypotheses by inspection.
    #[test]
    fn key_as_output_trips_lb0714(width in 3u32..8) {
        let mut nl = adder_fu(width);
        let k = nl.add_key();
        nl.mark_output(k);
        let report = audit_netlist(&nl);
        prop_assert!(has_code(&report, "LB0714"), "{}", report.render_human());
    }

    /// Mutation: AND a key with constant false, then OR the result into an
    /// output. The key gate reads a key-dependent, input-independent,
    /// already-constant operand — vacuous by constant propagation alone.
    #[test]
    fn constant_key_operand_trips_lb0713(width in 3u32..8) {
        let mut nl = adder_fu(width);
        let out = nl.outputs()[0];
        let k = nl.add_key();
        let f = nl.lit_false();
        let vacuous = nl.and(k, f);
        let merged = nl.or(out, vacuous);
        nl.mark_output(merged);
        let report = audit_netlist(&nl);
        prop_assert!(has_code(&report, "LB0713"), "{}", report.render_human());
    }

    /// Mutation: XOR two key bits together before they touch the logic.
    /// Only the parity reaches the function — key-mixing logic (LB0705)
    /// whose two bits are mutually redundant (LB0706).
    #[test]
    fn paired_keys_trip_lb0705_lb0706(width in 3u32..8) {
        let mut nl = adder_fu(width);
        let out = nl.outputs()[0];
        let k0 = nl.add_key();
        let k1 = nl.add_key();
        let parity = nl.xor(k0, k1);
        let keyed = nl.xor(out, parity);
        nl.mark_output(keyed);
        let report = audit_netlist(&nl);
        prop_assert!(has_code(&report, "LB0705"), "{}", report.render_human());
        prop_assert!(has_code(&report, "LB0706"), "{}", report.render_human());
    }

    /// Scheme character: the point-function comparator of critical-minterm
    /// locking shows the ProbLock skew signature — a skewed key-dependent
    /// net (LB0721) feeding a restore XOR (LB0722), plus the hard-coded
    /// input-side comparators (LB0723) — and still passes (warnings only).
    #[test]
    fn critical_minterm_shows_skew_signature(width in 3u32..8) {
        let locked = lock_critical_minterms(&adder_fu(width), &[5, 11]).expect("lockable");
        let report = audit_netlist(locked.netlist());
        for code in ["LB0721", "LB0722", "LB0723"] {
            prop_assert!(has_code(&report, code), "missing {code}:\n{}", report.render_human());
        }
        prop_assert!(audit_passed(&report));
    }

    /// Scheme character: every shipped scheme family audits error-free —
    /// the audit is a leakage scorecard over sound locks, not a gate that
    /// real schemes trip.
    #[test]
    fn shipped_schemes_audit_error_free(width in 3u32..8, seed in 0u64..16) {
        let base = adder_fu(width);
        let locked = [
            lock_critical_minterms(&base, &[5, 11]).expect("cml locks"),
            lock_rll(&base, 6, seed).expect("rll locks"),
            lock_anti_sat(&base).expect("anti-sat locks"),
            lock_permutation(&base, 2).expect("permutation locks"),
            lock_sfll_hd(&base, 5, 1).expect("sfll-hd locks"),
        ];
        for lock in &locked {
            let report = audit_netlist(lock.netlist());
            prop_assert!(
                audit_passed(&report),
                "{}:\n{}",
                lock.netlist().name(),
                report.render_human()
            );
        }
        // Permutation networks are the quiet end of the scorecard: balanced
        // mux trees carry no skew and no isolated paths.
        let perm = audit_codes(locked[3].netlist());
        prop_assert!(perm.is_empty(), "permutation flagged: {perm:?}");
    }
}
