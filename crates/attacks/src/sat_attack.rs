//! The oracle-guided SAT attack (DIP loop).

use lockbind_locking::LockedNetlist;
use lockbind_netlist::cnf::{encode_netlist, Cnf};
use lockbind_obs as obs;
use lockbind_resil::CancelToken;
use lockbind_sat::{SolveResult, Solver, SolverStats};

use crate::is_functionally_correct;

/// Configuration for [`sat_attack`]: the verification switch and the three
/// stop conditions (iteration cap, conflict budget, cancel token).
#[derive(Debug, Clone)]
pub struct AttackConfig {
    /// Abort after this many DIP iterations (the outcome reports
    /// `success = false`). SAT-resilient locks are *expected* to hit this.
    pub max_iterations: u64,
    /// Verify the extracted key exhaustively against the oracle.
    pub verify: bool,
    /// Per-solve conflict budget forwarded to the CDCL solver; `None` is
    /// unlimited. A query that exhausts it ends the attack with
    /// [`AttackStop::BudgetExhausted`] — distinguishable from a genuine
    /// UNSAT "no DIP remains" answer.
    pub conflict_budget: Option<u64>,
    /// Cooperative cancel token: installed into the CDCL solver
    /// (interrupting even a single pathological DIP search) and checked
    /// between DIP iterations. A fired token ends the attack with
    /// [`AttackStop::Interrupted`]. The default token never fires.
    pub cancel: CancelToken,
}

impl Default for AttackConfig {
    fn default() -> Self {
        AttackConfig {
            max_iterations: 200_000,
            verify: true,
            conflict_budget: None,
            cancel: CancelToken::new(),
        }
    }
}

/// Why a [`sat_attack`] run ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AttackStop {
    /// The DIP loop ran dry and a key was extracted (check
    /// [`SatAttackOutcome::success`] for whether it verified).
    Completed,
    /// [`AttackConfig::max_iterations`] was reached.
    IterationCap,
    /// A solver query ran out of its [`AttackConfig::conflict_budget`].
    BudgetExhausted,
    /// [`AttackConfig::cancel`] fired.
    Interrupted,
}

/// Outcome of a [`sat_attack`] run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SatAttackOutcome {
    /// The extracted key (meaningful only if `success`).
    pub key: Vec<bool>,
    /// DIP iterations performed.
    pub iterations: u64,
    /// The distinguishing input patterns found, packed LSB-first.
    pub dips: Vec<u64>,
    /// `true` if the attack terminated with a (verified, if configured)
    /// functionally-correct key; `false` if the iteration cap was hit,
    /// the attack was stopped early, or verification failed.
    pub success: bool,
    /// Why the attack ended (completion, iteration cap, conflict budget,
    /// or cooperative interrupt).
    pub stop: AttackStop,
    /// Cumulative statistics of the underlying CDCL solver.
    pub solver_stats: SolverStats,
    /// Solver conflicts spent in each DIP search — the per-iteration
    /// *runtime* proxy that distinguishes the exponential-iteration-runtime
    /// locking family (Full-Lock-style) from merely iteration-count-hard
    /// schemes (Sec. II-A / V-C of the paper).
    pub conflicts_per_iteration: Vec<u64>,
}

impl SatAttackOutcome {
    /// Mean solver conflicts per DIP iteration (0 if no iterations ran).
    pub fn mean_conflicts_per_iteration(&self) -> f64 {
        if self.conflicts_per_iteration.is_empty() {
            0.0
        } else {
            self.conflicts_per_iteration.iter().sum::<u64>() as f64
                / self.conflicts_per_iteration.len() as f64
        }
    }
}

/// Publishes a finished attack's cumulative solver statistics into the
/// global metrics registry: hot-path counters (propagations, watcher
/// visits, blocker hits), clause-database maintenance (reduces, GC runs),
/// and the learnt-clause glue histogram (exact per LBD value; the solver
/// reports glue ≥ 8 as 8). Called once per attack — each attack owns a
/// fresh solver, so the cumulative stats are exactly this attack's work.
fn record_solver_metrics(stats: &SolverStats) {
    obs::counter!("sat.solver.conflicts").add(stats.conflicts);
    obs::counter!("sat.solver.propagations").add(stats.propagations);
    obs::counter!("sat.solver.watcher_visits").add(stats.watcher_visits);
    obs::counter!("sat.solver.blocker_hits").add(stats.blocker_hits);
    obs::counter!("sat.solver.reduces").add(stats.reduces);
    obs::counter!("sat.solver.gc_runs").add(stats.gc_runs);
    let glue_hist = obs::histogram!("sat.glue");
    for (i, &count) in stats.glue_hist.iter().enumerate() {
        if count > 0 {
            glue_hist.record_n(i as u64 + 1, count);
        }
    }
}

/// The one DIP loop behind both [`sat_attack`] and the approximate
/// attack: a miter of two keyed copies of the locked netlist sharing the
/// inputs `x`, incrementally fed to one CDCL solver. Each DIP adds two
/// oracle-agreement copies; the clause order is part of the contract,
/// because it fixes the solver's search path and thus every DIP sequence
/// and work count.
pub(crate) struct DipDriver<'a> {
    locked: &'a LockedNetlist,
    cnf: Cnf,
    solver: Solver,
    /// Checked between DIP iterations (and polled inside the solver).
    cancel: CancelToken,
    /// Clauses of `cnf` already handed to `solver`.
    pushed: usize,
    x: Vec<i32>,
    k1: Vec<i32>,
    k2: Vec<i32>,
    /// Activation literal: assumed true, the miter forces the copies'
    /// outputs to differ.
    act: i32,
    /// Constant-true literal for binding DIP inputs in agreement copies.
    ct: i32,
    /// The DIPs found so far, packed LSB-first.
    dips: Vec<u64>,
    /// Solver conflicts spent in each DIP search.
    conflicts_per_iteration: Vec<u64>,
}

impl<'a> DipDriver<'a> {
    /// Builds the miter; the config's conflict budget and cancel token are
    /// installed into the solver and bound every query.
    pub(crate) fn new(locked: &'a LockedNetlist, config: &AttackConfig) -> Self {
        let nl = locked.netlist();
        let mut cnf = Cnf::new();
        let mut solver = Solver::new();
        solver.set_conflict_budget(config.conflict_budget);
        solver.set_interrupt(Some(config.cancel.clone()));

        let x = cnf.new_vars(nl.num_inputs());
        let k1 = cnf.new_vars(nl.num_keys());
        let k2 = cnf.new_vars(nl.num_keys());
        let act = cnf.new_var();
        let ct = cnf.new_var();
        cnf.add_clause([ct]);

        // Miter: two keyed copies sharing X, with outputs forced to differ
        // when `act` is assumed.
        let o1 = encode_netlist(nl, &mut cnf, &x, &k1);
        let o2 = encode_netlist(nl, &mut cnf, &x, &k2);
        let mut miter_clause = vec![-act];
        for (a, b) in o1.iter().zip(&o2) {
            let d = cnf.new_var();
            // d <-> a xor b
            cnf.add_clause([-d, *a, *b]);
            cnf.add_clause([-d, -*a, -*b]);
            cnf.add_clause([d, -*a, *b]);
            cnf.add_clause([d, *a, -*b]);
            miter_clause.push(d);
        }
        cnf.add_clause(miter_clause);
        DipDriver {
            locked,
            cnf,
            solver,
            cancel: config.cancel.clone(),
            pushed: 0,
            x,
            k1,
            k2,
            act,
            ct,
            dips: Vec::new(),
            conflicts_per_iteration: Vec::new(),
        }
    }

    /// DIPs found so far.
    pub(crate) fn iterations(&self) -> u64 {
        self.dips.len() as u64
    }

    /// Hands the clauses added since the last query to the solver and
    /// solves under `assumption`.
    fn solve(&mut self, assumption: i32) -> Result<bool, AttackStop> {
        self.solver.reserve_vars(self.cnf.num_vars());
        for cl in &self.cnf.clauses()[self.pushed..] {
            self.solver.add_clause(cl);
        }
        self.pushed = self.cnf.clauses().len();
        obs::counter!("sat.queries").inc();
        match self.solver.solve_with_assumptions(&[assumption]) {
            SolveResult::Sat => Ok(true),
            SolveResult::Unsat => Ok(false),
            SolveResult::BudgetExhausted => Err(AttackStop::BudgetExhausted),
            SolveResult::Interrupted => Err(AttackStop::Interrupted),
        }
    }

    /// Searches for the next DIP: its input bits, or `None` when no DIP
    /// remains (every consistent key is then functionally correct).
    fn next_dip(&mut self) -> Result<Option<Vec<bool>>, AttackStop> {
        let before = self.solver.stats().conflicts;
        if !self.solve(self.act)? {
            return Ok(None);
        }
        let spent = self.solver.stats().conflicts - before;
        obs::counter!("sat.dips").inc();
        obs::histogram!("sat.conflicts_per_dip").record(spent);
        self.conflicts_per_iteration.push(spent);
        let bits: Vec<bool> = self.x.iter().map(|&l| self.solver.model_value(l)).collect();
        self.dips.push(
            bits.iter()
                .enumerate()
                .fold(0u64, |acc, (i, &b)| acc | ((b as u64) << i)),
        );
        Ok(Some(bits))
    }

    /// Constrains both key copies to reproduce the oracle output `y` on
    /// input `bits`.
    pub(crate) fn constrain(&mut self, bits: &[bool], y: &[bool]) {
        let ct = self.ct;
        let in_lits: Vec<i32> = bits.iter().map(|&b| if b { ct } else { -ct }).collect();
        for keys in [&self.k1, &self.k2] {
            let outs = encode_netlist(self.locked.netlist(), &mut self.cnf, &in_lits, keys);
            for (o, &yv) in outs.iter().zip(y) {
                self.cnf.add_clause([if yv { *o } else { -*o }]);
            }
        }
    }

    /// Runs the DIP loop: find a DIP, query the oracle on it, constrain.
    /// `Ok` when no DIP remains; [`AttackStop::IterationCap`] once `cap`
    /// DIPs have been found; otherwise the solver's early stop.
    pub(crate) fn run(&mut self, cap: u64) -> Result<(), AttackStop> {
        while self.iterations() < cap {
            if self.cancel.is_cancelled() {
                return Err(AttackStop::Interrupted);
            }
            let Some(bits) = self.next_dip()? else {
                return Ok(());
            };
            // Oracle query on the activated chip.
            let y = self
                .locked
                .oracle()
                .eval(&bits, &[])
                .expect("oracle arity matches");
            self.constrain(&bits, &y);
        }
        Err(AttackStop::IterationCap)
    }

    /// Deactivates the miter and extracts a key consistent with every
    /// constraint so far.
    pub(crate) fn extract_key(&mut self) -> Result<Vec<bool>, AttackStop> {
        if !self.solve(-self.act)? {
            unreachable!("the correct key always satisfies the agreement constraints")
        }
        Ok(self
            .k1
            .iter()
            .map(|&l| self.solver.model_value(l))
            .collect())
    }
}

/// Runs the SAT attack against a locked module, using its retained original
/// netlist as the activated-chip oracle (the standard threat model: the
/// attacker owns one unlocked chip plus the locked GDSII). An early stop
/// (iteration cap, conflict budget, fired [`AttackConfig::cancel`]) ends
/// the attack with `success = false` and the reason in
/// [`SatAttackOutcome::stop`].
///
/// # Panics
/// Panics if the module has more than 63 inputs (DIP packing limit).
pub fn sat_attack(locked: &LockedNetlist, config: &AttackConfig) -> SatAttackOutcome {
    let nl = locked.netlist();
    let n = nl.num_inputs();
    let kb = nl.num_keys();
    let _span = obs::span!("attack.sat", inputs = n, key_bits = kb);
    let _timer = obs::timer!("attack.sat");
    obs::counter!("sat.attacks").inc();
    assert!(n <= 63, "sat attack DIP packing supports at most 63 inputs");

    let mut driver = DipDriver::new(locked, config);
    let (key, success, stop) = match driver
        .run(config.max_iterations)
        .and_then(|()| driver.extract_key())
    {
        Ok(key) => {
            let success = !config.verify || is_functionally_correct(locked, &key);
            (key, success, AttackStop::Completed)
        }
        // Early stop: no key was extracted, so report the zero key and the
        // reason the attack could not finish.
        Err(stop) => {
            match stop {
                AttackStop::BudgetExhausted => obs::counter!("sat.budget_exhausted").inc(),
                AttackStop::Interrupted => obs::counter!("sat.interrupted").inc(),
                _ => obs::counter!("sat.iteration_capped").inc(),
            }
            (vec![false; kb], false, stop)
        }
    };
    let solver_stats = driver.solver.stats();
    record_solver_metrics(&solver_stats);
    SatAttackOutcome {
        key,
        iterations: driver.iterations(),
        dips: driver.dips,
        success,
        stop,
        solver_stats,
        conflicts_per_iteration: driver.conflicts_per_iteration,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lockbind_locking::{lock_anti_sat, lock_critical_minterms, lock_permutation, lock_rll};
    use lockbind_netlist::builders::{adder_fu, multiplier_fu, xor_fu};

    #[test]
    fn breaks_rll_on_adder_quickly() {
        let locked = lock_rll(&adder_fu(4), 6, 11).expect("lockable");
        let out = sat_attack(&locked, &AttackConfig::default());
        assert!(out.success);
        assert!(out.iterations <= 40, "iterations = {}", out.iterations);
    }

    #[test]
    fn breaks_rll_on_multiplier() {
        let locked = lock_rll(&multiplier_fu(4), 8, 5).expect("lockable");
        let out = sat_attack(&locked, &AttackConfig::default());
        assert!(out.success);
    }

    #[test]
    fn extracted_key_may_differ_from_designers_but_is_functional() {
        let locked = lock_rll(&xor_fu(3), 4, 9).expect("lockable");
        let out = sat_attack(&locked, &AttackConfig::default());
        assert!(out.success);
        assert!(is_functionally_correct(&locked, &out.key));
    }

    #[test]
    fn point_function_lock_needs_many_iterations_on_average() {
        // 3-bit operands -> 6 input bits, 6-bit key, 64 key values. Each DIP
        // eliminates ~1 wrong key, so the attack ends only when its DIP
        // sequence stumbles on the secret — ~32 iterations in expectation.
        // A single run can get lucky, so average over several secrets.
        let secrets = [
            0b101010u64,
            0b000001,
            0b111111,
            0b010011,
            0b100100,
            0b011110,
        ];
        let mut total = 0u64;
        for &s in &secrets {
            let locked = lock_critical_minterms(&xor_fu(3), &[s]).expect("lockable");
            let out = sat_attack(&locked, &AttackConfig::default());
            assert!(out.success, "secret {s:#b}");
            total += out.iterations;
        }
        let mean = total as f64 / secrets.len() as f64;
        assert!(
            mean >= 12.0,
            "point-function locks broke in only {mean} mean iterations"
        );
    }

    #[test]
    fn anti_sat_needs_many_iterations() {
        let locked = lock_anti_sat(&xor_fu(2)).expect("lockable");
        let out = sat_attack(&locked, &AttackConfig::default());
        assert!(out.success);
        // 4 input bits -> g fires on single minterms; expect >= ~2^4/2 DIPs.
        assert!(out.iterations >= 4, "iterations = {}", out.iterations);
    }

    #[test]
    fn permutation_lock_is_breakable_but_not_instant() {
        let locked = lock_permutation(&adder_fu(3), 2).expect("lockable");
        let out = sat_attack(&locked, &AttackConfig::default());
        assert!(out.success);
        assert!(out.iterations >= 1);
    }

    #[test]
    fn iteration_cap_reports_failure() {
        let locked = lock_critical_minterms(&adder_fu(4), &[0x11]).expect("lockable");
        let out = sat_attack(
            &locked,
            &AttackConfig {
                max_iterations: 3,
                ..AttackConfig::default()
            },
        );
        assert!(!out.success);
        assert_eq!(out.stop, AttackStop::IterationCap);
        assert_eq!(out.iterations, 3);
        assert_eq!(out.dips.len(), 3);
    }

    #[test]
    fn conflict_budget_stops_the_attack_without_claiming_proof() {
        // Anti-SAT on a wider adder needs plenty of conflicts; a 1-conflict
        // budget must end the attack as BudgetExhausted, never as a
        // "completed" run with a bogus key.
        let locked = lock_anti_sat(&adder_fu(4)).expect("lockable");
        let out = sat_attack(
            &locked,
            &AttackConfig {
                conflict_budget: Some(1),
                ..AttackConfig::default()
            },
        );
        assert!(!out.success);
        assert_eq!(out.stop, AttackStop::BudgetExhausted);
    }

    #[test]
    fn successful_attack_reports_completed() {
        let locked = lock_rll(&adder_fu(4), 6, 11).expect("lockable");
        let out = sat_attack(&locked, &AttackConfig::default());
        assert!(out.success);
        assert_eq!(out.stop, AttackStop::Completed);
    }

    #[test]
    fn cancelled_token_interrupts_the_attack() {
        let locked = lock_anti_sat(&adder_fu(4)).expect("lockable");
        let config = AttackConfig::default();
        config.cancel.cancel();
        let out = sat_attack(&locked, &config);
        assert!(!out.success);
        assert_eq!(out.stop, AttackStop::Interrupted);
        assert_eq!(out.iterations, 0);
    }

    #[test]
    fn deadline_token_interrupts_a_hard_attack() {
        use std::time::{Duration, Instant};
        // A 5-bit anti-SAT attack needs ~2^10 DIPs — effectively unbounded
        // at test scale; a 50ms deadline must cut it short promptly.
        let locked = lock_anti_sat(&adder_fu(5)).expect("lockable");
        let config = AttackConfig {
            cancel: CancelToken::with_deadline(Duration::from_millis(50)),
            ..AttackConfig::default()
        };
        let started = Instant::now();
        let out = sat_attack(&locked, &config);
        assert_eq!(out.stop, AttackStop::Interrupted);
        assert!(
            started.elapsed() < Duration::from_secs(10),
            "interrupt took {:?}",
            started.elapsed()
        );
    }

    #[test]
    fn per_iteration_profile_matches_iteration_count() {
        let locked = lock_rll(&adder_fu(4), 6, 11).expect("lockable");
        let out = sat_attack(&locked, &AttackConfig::default());
        assert_eq!(out.conflicts_per_iteration.len() as u64, out.iterations);
        assert!(out.mean_conflicts_per_iteration() >= 0.0);
    }

    #[test]
    fn permutation_stages_increase_per_iteration_hardness() {
        // The Full-Lock-family claim: more routing stages make each DIP
        // search harder. Compare mean conflicts/iteration at 1 vs 4 stages.
        let adder = adder_fu(3);
        let shallow = lock_permutation(&adder, 1).expect("lockable");
        let deep = lock_permutation(&adder, 4).expect("lockable");
        let a = sat_attack(&shallow, &AttackConfig::default());
        let b = sat_attack(&deep, &AttackConfig::default());
        assert!(a.success && b.success);
        let total_a: u64 = a.solver_stats.conflicts;
        let total_b: u64 = b.solver_stats.conflicts;
        assert!(
            total_b >= total_a,
            "4-stage network should cost at least as many conflicts ({total_b} vs {total_a})"
        );
    }

    #[test]
    fn attack_publishes_solver_metrics_to_the_registry() {
        // The registry is process-global and other tests in this binary
        // also run attacks concurrently, so assert deltas are *at least*
        // this attack's contribution rather than exactly it.
        let before = obs::Registry::global().snapshot();
        let locked = lock_rll(&adder_fu(4), 6, 11).expect("lockable");
        let out = sat_attack(&locked, &AttackConfig::default());
        assert!(out.success);
        let after = obs::Registry::global().snapshot();

        let delta = |name: &str| {
            after.counters.get(name).copied().unwrap_or(0)
                - before.counters.get(name).copied().unwrap_or(0)
        };
        let st = out.solver_stats;
        assert!(delta("sat.solver.conflicts") >= st.conflicts);
        assert!(delta("sat.solver.propagations") >= st.propagations);
        assert!(delta("sat.solver.watcher_visits") >= st.watcher_visits);
        assert!(delta("sat.solver.blocker_hits") >= st.blocker_hits);
        assert!(st.propagations > 0, "attack should have propagated");

        let glue_total = |snap: &obs::MetricsSnapshot| {
            snap.histograms
                .get("sat.glue")
                .map(|h| h.count())
                .unwrap_or(0)
        };
        let learnt_total: u64 = st.glue_hist.iter().sum();
        assert!(learnt_total > 0, "attack should have learnt clauses");
        assert!(glue_total(&after) - glue_total(&before) >= learnt_total);
    }

    #[test]
    fn dips_are_within_input_space() {
        let locked = lock_rll(&adder_fu(4), 5, 3).expect("lockable");
        let out = sat_attack(&locked, &AttackConfig::default());
        for d in out.dips {
            assert!(d < (1 << 8));
        }
    }
}
