//! `attack`: a seeded population of oracle-guided SAT attacks.
//!
//! One op is one `sat_attack` run (locking excluded, the library's own key
//! verification included). A round attacks the whole population once; the
//! population is rebuilt (locked) before every round, which is the
//! workload's set-up. Most attacks are short and bound by per-attack
//! set-up (encoding, verification); the four width-4 Anti-SAT locks need
//! 256 DIPs each, so they hold the tail. Anti-SAT's DIP count does not
//! depend on the key, which keeps the work of a round the same across
//! seeds; point-function locks are attacked at width 3 only, because at
//! width 4 their DIP count (and cost) swings several-fold with the secret
//! minterm.

use std::sync::Arc;
use std::time::{Duration, Instant};

use lockbind_attacks::{is_functionally_correct, sat_attack, AttackConfig, SatAttackOutcome};
use lockbind_engine::{Job, JobCtx};
use lockbind_locking::{
    lock_anti_sat, lock_critical_minterms, lock_permutation, lock_rll, lock_sfll_hd, LockError,
    LockedNetlist,
};
use lockbind_netlist::builders::{adder_fu, multiplier_fu};
use lockbind_netlist::cnf::{encode_netlist, Cnf};

use crate::common::{engine, keep_going, nproc, Meter, Report, Rng, RunConfig, Samples};
use crate::trace::Tracer;

/// Locking scheme of one attack.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scheme {
    /// Critical-minterm (point-function) locking of one seeded minterm.
    CriticalMinterm,
    /// SFLL-HD with Hamming distance 2 around a seeded secret.
    SfllHd,
    /// Anti-SAT: 2^(inputs) DIPs whatever the key.
    AntiSat,
    /// Random logic locking, 6 key gates placed by a seeded RNG.
    Rll,
    /// Two-stage permutation network.
    Permutation,
}

/// One attack of the population.
#[derive(Debug, Clone, Copy)]
pub struct AttackSpec {
    /// Locking scheme.
    pub scheme: Scheme,
    /// `true` for a multiplier FU, `false` for an adder.
    pub multiplier: bool,
    /// Operand width.
    pub width: u32,
    /// Minterm, secret or RLL seed, depending on the scheme.
    pub param: u64,
}

impl AttackSpec {
    /// Builds the locked FU.
    pub fn lock(&self) -> Result<LockedNetlist, LockError> {
        let fu = if self.multiplier {
            multiplier_fu(self.width)
        } else {
            adder_fu(self.width)
        };
        match self.scheme {
            Scheme::CriticalMinterm => lock_critical_minterms(&fu, &[self.param]),
            Scheme::SfllHd => lock_sfll_hd(&fu, self.param, 2),
            Scheme::AntiSat => lock_anti_sat(&fu),
            Scheme::Rll => lock_rll(&fu, 6, self.param),
            Scheme::Permutation => lock_permutation(&fu, 2),
        }
    }

    fn label(&self) -> String {
        format!(
            "{:?}/{}{}/{:#x}",
            self.scheme,
            if self.multiplier { "mul" } else { "add" },
            self.width,
            self.param
        )
    }
}

/// The seeded population, longest expected attacks first so a round
/// packs onto the worker pool without a long straggler at its end.
pub fn population(seed: u64) -> Vec<AttackSpec> {
    /// An FU as `(multiplier, width)`.
    type Fu = (bool, u32);
    let mut rng = Rng::new(seed, 0x00A7_7AC4);
    // (scheme, FUs, copies per FU). Four DIP-bound attacks hold the tail.
    // The median falls among 32 permutation locks of the 4-bit adder:
    // keyless to generate, so their cost does not depend on the seed, and
    // with about 26 cheaper and 34 dearer attacks around them,
    // key-dependent attacks cannot move the median out.
    let all_fus: &[Fu] = &[(false, 3), (true, 3), (false, 4), (true, 4)];
    let groups: [(Scheme, &[Fu], usize); 8] = [
        (Scheme::AntiSat, &[(false, 4), (true, 4)], 2),
        (Scheme::AntiSat, &[(false, 3), (true, 3)], 4),
        (Scheme::SfllHd, &[(false, 3), (true, 3)], 4),
        (Scheme::CriticalMinterm, &[(false, 3), (true, 3)], 6),
        (Scheme::Permutation, &[(true, 4)], 4),
        (Scheme::Permutation, &[(false, 4)], 32),
        (Scheme::Permutation, &[(false, 3), (true, 3)], 4),
        (Scheme::Rll, all_fus, 4),
    ];
    let mut out = Vec::new();
    for (scheme, fus, copies) in groups {
        let mut group = Vec::new();
        for &(multiplier, width) in fus {
            for _ in 0..copies {
                let space = 1u64 << (2 * width);
                let param = match scheme {
                    Scheme::CriticalMinterm | Scheme::SfllHd => rng.below(space),
                    Scheme::Rll => rng.next_u64() >> 1,
                    Scheme::AntiSat | Scheme::Permutation => 0,
                };
                group.push(AttackSpec {
                    scheme,
                    multiplier,
                    width,
                    param,
                });
            }
        }
        rng.shuffle(&mut group);
        out.extend(group);
    }
    out
}

/// One attack as an engine job: the timed op plus the benchmark's own
/// check of the recovered key.
struct AttackJob {
    spec: AttackSpec,
    locked: Arc<LockedNetlist>,
}

/// What one attack job reports back.
struct AttackDone {
    dips: u64,
    key_ok: bool,
    wall: Duration,
}

impl Job for AttackJob {
    type Output = AttackDone;

    fn label(&self) -> String {
        self.spec.label()
    }

    fn stage(&self) -> &'static str {
        "sat-attack"
    }

    fn run(&self, _ctx: &mut JobCtx<'_>) -> Result<AttackDone, String> {
        let start = Instant::now();
        let out = sat_attack(&self.locked, &AttackConfig::default());
        let wall = start.elapsed();
        let key_ok = out.success && is_functionally_correct(&self.locked, &out.key);
        Ok(AttackDone {
            dips: out.iterations,
            key_ok,
            wall,
        })
    }
}

fn lock_round(pop: &[AttackSpec]) -> Result<Vec<AttackJob>, String> {
    pop.iter()
        .map(|&spec| {
            let locked = spec.lock().map_err(|e| format!("{}: {e}", spec.label()))?;
            Ok(AttackJob {
                spec,
                locked: Arc::new(locked),
            })
        })
        .collect()
}

/// Per-attack work counts of one traced attack.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct AttackCounts {
    /// DIP iterations.
    pub dips: u64,
    /// CDCL conflicts.
    pub conflicts: u64,
    /// CDCL propagations.
    pub propagations: u64,
    /// Watch-list visits.
    pub watcher_visits: u64,
    /// Visits short-circuited by the blocker literal.
    pub blocker_hits: u64,
    /// Clauses of one encoding of the locked FU.
    pub clauses: u64,
    /// Input patterns simulated by the evaluation probe.
    pub patterns: u64,
}

impl AttackCounts {
    /// Adds another attack's counts.
    pub fn add(&mut self, o: &AttackCounts) {
        self.dips += o.dips;
        self.conflicts += o.conflicts;
        self.propagations += o.propagations;
        self.watcher_visits += o.watcher_visits;
        self.blocker_hits += o.blocker_hits;
        self.clauses += o.clauses;
        self.patterns += o.patterns;
    }
}

/// One attack with a span around each library call: lock, one CNF
/// encoding of the locked FU, the attack, the key check, and word-level
/// evaluation of every input pattern under the recovered key against the
/// oracle. Returns the lock, the attack outcome and its work counts;
/// `Err` when a step fails or the recovered key is wrong.
pub fn traced_attack(
    t: &Tracer,
    lock: impl FnOnce() -> Result<LockedNetlist, LockError>,
    width: u32,
) -> Result<(LockedNetlist, SatAttackOutcome, AttackCounts), String> {
    let locked = t.span("locking.lock", lock).map_err(|e| e.to_string())?;
    let clauses = t.span("netlist.encode_netlist", || {
        let nl = locked.netlist();
        let mut cnf = Cnf::new();
        let inputs = cnf.new_vars(nl.num_inputs());
        let keys = cnf.new_vars(nl.num_keys());
        encode_netlist(nl, &mut cnf, &inputs, &keys);
        cnf.clauses().len() as u64
    });
    let out = t.span("attacks.sat_attack", || {
        sat_attack(&locked, &AttackConfig::default())
    });
    let verified = t.span("attacks.is_functionally_correct", || {
        is_functionally_correct(&locked, &out.key)
    });
    let (patterns, agrees) = t.span("netlist.eval_words", || {
        let side = 1u64 << width;
        let mut agrees = true;
        for a in 0..side {
            for b in 0..side {
                let got = locked.eval_with_key(&[a, b], width, &out.key);
                let want = locked.oracle().eval_words(&[a, b], width, &[]);
                agrees &= got == want;
            }
        }
        (2 * side * side, agrees)
    });
    if !(out.success && verified && agrees) {
        return Err(format!(
            "{} lock: key not recovered (success {}, verified {verified}, agrees {agrees})",
            locked.scheme(),
            out.success
        ));
    }
    let s = out.solver_stats;
    let counts = AttackCounts {
        dips: out.iterations,
        conflicts: s.conflicts,
        propagations: s.propagations,
        watcher_visits: s.watcher_visits,
        blocker_hits: s.blocker_hits,
        clauses,
        patterns,
    };
    Ok((locked, out, counts))
}

/// Sets the locking / netlist / attack / SAT layer metrics from a tracer
/// and the work counts of one replay (`per_replay`) and of every traced
/// replay together (`traced_total`).
pub fn set_attack_layers(
    report: &mut Report,
    t: &Tracer,
    per_replay: &AttackCounts,
    traced_total: &AttackCounts,
) {
    let layers = t.layers();
    let mean = |name: &str, unit_ns: f64| layers.get(name).map_or(0.0, |l| l.mean(unit_ns));
    let self_ns = |name: &str| layers.get(name).map_or(0, |l| l.self_ns) as f64;
    let per_dip = |n: u64| n as f64 / per_replay.dips.max(1) as f64;
    report.set("locking.lock_us", mean("locking.lock", 1e3));
    report.set(
        "attacks.verify_ms",
        mean("attacks.is_functionally_correct", 1e6),
    );
    report.set(
        "netlist.eval_ns_per_pattern",
        self_ns("netlist.eval_words") / traced_total.patterns.max(1) as f64,
    );
    report.set("netlist.encode_us", mean("netlist.encode_netlist", 1e3));
    report.set("netlist.clauses", per_replay.clauses as f64);
    report.set("attacks.dips", per_replay.dips as f64);
    let attack_ns = self_ns("attacks.sat_attack");
    report.set(
        "attacks.ms_per_dip",
        attack_ns / 1e6 / traced_total.dips.max(1) as f64,
    );
    report.set("sat.propagations_per_dip", per_dip(per_replay.propagations));
    report.set("sat.conflicts_per_dip", per_dip(per_replay.conflicts));
    report.set(
        "sat.watcher_visits_per_dip",
        per_dip(per_replay.watcher_visits),
    );
    report.set(
        "sat.blocker_hit_rate",
        per_replay.blocker_hits as f64 / per_replay.watcher_visits.max(1) as f64,
    );
    report.set(
        "sat.props_per_s",
        if attack_ns > 0.0 {
            traced_total.propagations as f64 / (attack_ns / 1e9)
        } else {
            0.0
        },
    );
}

/// The untraced run: rounds until the budget is spent.
pub fn run(cfg: &RunConfig) -> Report {
    let mut report = Report::default();
    let pop = population(cfg.seed);
    let mut samples = Samples::default();
    let mut meter = Meter::default();
    let mut setups = Vec::new();
    let mut first_dips: Option<Vec<u64>> = None;
    let engine = engine(cfg.seed);
    let start = Instant::now();
    while keep_going(start, cfg.seconds, setups.len(), 2) {
        let t0 = Instant::now();
        let jobs = match lock_round(&pop) {
            Ok(jobs) => jobs,
            Err(e) => {
                report.failed += pop.len() as u64;
                report.attempted += pop.len() as u64;
                report.invalidate(format!("locking failed: {e}"));
                break;
            }
        };
        setups.push(t0.elapsed().as_secs_f64());
        let results = meter.measure(jobs.len(), || engine.run(&jobs));
        let mut dips = Vec::with_capacity(jobs.len());
        for (i, result) in results.results.iter().enumerate() {
            report.attempted += 1;
            match result.output() {
                Some(done) => {
                    samples.push(done.wall.as_secs_f64() * 1e3);
                    let same = first_dips.as_ref().is_none_or(|d| d[i] == done.dips);
                    if !(done.key_ok && same) {
                        report.failed += 1;
                    }
                    dips.push(done.dips);
                }
                None => {
                    report.failed += 1;
                    dips.push(u64::MAX);
                }
            }
        }
        first_dips.get_or_insert(dips);
    }
    report.note(format!(
        "attack: {} attacks per round, {} rounds, {} workers",
        pop.len(),
        setups.len(),
        nproc()
    ));
    report.set_end_to_end(&mut samples, &meter, &setups);
    report
}

/// The traced run: one untraced engine round for the pool metrics, then
/// serial replays of the population, alternately traced and untraced.
pub fn run_traced(cfg: &RunConfig) -> Report {
    let mut report = Report::default();
    let pop = population(cfg.seed);
    let engine = engine(cfg.seed);
    let start = Instant::now();
    match lock_round(&pop) {
        Ok(jobs) => {
            let t0 = Instant::now();
            let results = engine.run(&jobs);
            let wall = t0.elapsed().as_secs_f64();
            let busy: f64 = results.outputs().map(|d| d.wall.as_secs_f64()).sum();
            report.set("engine.busy_frac", busy / (nproc() as f64 * wall));
            report.set("engine.cache_hit_rate", engine.cache().stats().hit_rate());
        }
        Err(e) => report.invalidate(format!("locking failed: {e}")),
    }

    let traced = Tracer::new(true);
    let plain = Tracer::new(false);
    let (mut traced_walls, mut plain_walls) = (Vec::new(), Vec::new());
    let mut first: Option<(AttackCounts, Vec<u64>)> = None;
    let mut traced_total = AttackCounts::default();
    let mut replays = 0;
    while keep_going(start, cfg.seconds, replays, 2) {
        let on = replays % 2 == 0;
        let t = if on { &traced } else { &plain };
        let t0 = Instant::now();
        let mut counts = AttackCounts::default();
        let mut dips = Vec::new();
        for (i, spec) in pop.iter().enumerate() {
            report.attempted += 1;
            match t.op(i as u64, || traced_attack(t, || spec.lock(), spec.width)) {
                Ok((_, _, c)) => {
                    counts.add(&c);
                    dips.push(c.dips);
                }
                Err(e) => {
                    report.failed += 1;
                    report.note(format!("attack {}: {e}", spec.label()));
                    dips.push(u64::MAX);
                }
            }
        }
        let wall = t0.elapsed().as_secs_f64();
        if on {
            traced_walls.push(wall);
            traced_total.add(&counts);
        } else {
            plain_walls.push(wall);
        }
        match &first {
            None => first = Some((counts, dips)),
            Some((c, d)) => {
                if *c != counts || *d != dips {
                    report.failed += 1;
                    report.note("attack: work counts differ between replays of one population");
                }
            }
        }
        replays += 1;
    }
    let per_replay = first.map(|(c, _)| c).unwrap_or_default();
    set_attack_layers(&mut report, &traced, &per_replay, &traced_total);
    crate::set_trace_metrics(&mut report, &traced, &traced_walls, &plain_walls);
    report.note(format!(
        "attack traced: {replays} replays of {} attacks",
        pop.len()
    ));
    report
}
