//! The CDCL solver core.
//!
//! Modern (Glucose/splr-class) hot path on top of the classic MiniSat
//! skeleton:
//!
//! * **Blocker literals** in the watch lists: each watcher caches one
//!   literal of its clause, and a satisfied blocker skips the clause
//!   without dereferencing it. On the incremental SAT-attack formulas
//!   (hundreds of stacked netlist copies, most clauses satisfied at any
//!   moment) this removes the bulk of propagation's memory traffic.
//! * **LBD (glue) clause management**: every learnt clause carries its
//!   literal-block-distance; glue ≤ [`Solver::CORE_GLUE`] clauses are kept
//!   forever, mid-tier clauses survive while they keep participating in
//!   conflicts, and the local tier is halved on a conflict-count schedule.
//! * **Clause-arena garbage collection**: deleted clauses are physically
//!   compacted out of the arena and every cref in the watch lists and
//!   reason array is remapped ([`SolverStats::gc_runs`]), so long
//!   incremental runs no longer accumulate husks.
//! * **Glue-aware restarts** layered on the Luby sequence: a short-window
//!   LBD average that degrades past the long-run average forces an early
//!   restart, and an unusually deep trail postpones one (both purely
//!   work-count driven, so solving stays bit-deterministic).
//!
//! Phase saving across restarts lives in [`Solver::cancel_until`]: every
//! unassigned variable remembers its last polarity.

use std::fmt;

use lockbind_resil::CancelToken;

use crate::heap::VarHeap;
use crate::luby::luby;

/// Internal literal: `var * 2 + sign` (sign 1 = negated).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
struct Lit(u32);

impl Lit {
    fn new(var: u32, neg: bool) -> Lit {
        Lit(var * 2 + u32::from(neg))
    }
    fn from_dimacs(l: i32) -> Lit {
        debug_assert!(l != 0);
        Lit::new(l.unsigned_abs() - 1, l < 0)
    }
    fn var(self) -> u32 {
        self.0 >> 1
    }
    fn is_neg(self) -> bool {
        self.0 & 1 == 1
    }
    fn negated(self) -> Lit {
        Lit(self.0 ^ 1)
    }
    fn index(self) -> usize {
        self.0 as usize
    }
}

/// Tag bit in [`Watcher::cref`] marking an *implicit binary clause*: the
/// blocker is the clause's only other literal, so propagation resolves the
/// watcher (satisfied, unit, or conflicting) without ever dereferencing the
/// clause. Binary clauses are never deleted, so the tag also skips the
/// husk check. Caps the arena at 2^31 clauses, far above reachable sizes.
const BINARY_TAG: u32 = 1 << 31;

/// A watch-list entry: the clause plus a cached *blocker* literal from it.
/// If the blocker is already true the clause is satisfied and propagation
/// skips it without touching the clause memory at all.
#[derive(Debug, Clone, Copy)]
struct Watcher {
    /// Clause index, with [`BINARY_TAG`] set for two-literal clauses.
    cref: u32,
    blocker: Lit,
}

#[derive(Debug, Clone)]
struct Clause {
    lits: Vec<Lit>,
    learnt: bool,
    /// Literal-block distance at learn time, only ever lowered afterwards.
    glue: u32,
    /// Participated in a conflict since the last database reduction
    /// (mid-tier retention bit).
    used: bool,
    activity: f64,
    deleted: bool,
}

/// Literal-indexed assignment values: the array holds one byte per
/// *literal* (both polarities), so the propagation hot path reads a
/// literal's truth value with a single indexed byte compare — no sign
/// fold, no `Option` discriminant.
const VAL_FALSE: u8 = 0;
const VAL_TRUE: u8 = 1;
const VAL_UNDEF: u8 = 2;

/// Reads a literal's value from the literal-indexed assignment array (free
/// function so the hot loops can hold disjoint borrows of other fields).
#[inline]
fn lit_val(assign: &[u8], l: Lit) -> Option<bool> {
    match assign[l.index()] {
        VAL_TRUE => Some(true),
        VAL_FALSE => Some(false),
        _ => None,
    }
}

/// Result of a [`Solver::solve`] call.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SolveResult {
    /// A satisfying assignment was found; read it with
    /// [`Solver::model_value`].
    Sat,
    /// The formula is unsatisfiable (under the given assumptions, if any).
    Unsat,
    /// The conflict budget ([`Solver::set_conflict_budget`]) ran out before
    /// the solve reached an answer. **Not** a proof of unsatisfiability:
    /// the formula's status is unknown. The solver state stays valid; the
    /// learnt clauses are kept and a re-solve resumes from them.
    BudgetExhausted,
    /// The interrupt token ([`Solver::set_interrupt`]) fired mid-solve —
    /// either an explicit cancel or a deadline expiry. The formula's status
    /// is unknown; the solver state stays valid for a later re-solve.
    Interrupted,
}

/// Number of buckets in [`SolverStats::glue_hist`]: glue values 1–7 land in
/// buckets 0–6, glue ≥ 8 in the last bucket.
pub const GLUE_HIST_BUCKETS: usize = 8;

/// Aggregate solver statistics, reset never (cumulative per solver).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SolverStats {
    /// Branching decisions made.
    pub decisions: u64,
    /// Conflicts analyzed.
    pub conflicts: u64,
    /// Literals propagated.
    pub propagations: u64,
    /// Restarts performed.
    pub restarts: u64,
    /// Learnt clauses currently in the database.
    pub learnt_clauses: u64,
    /// `solve`/`solve_with_assumptions` calls completed.
    pub solves: u64,
    /// Learnt-database reductions performed.
    pub reduces: u64,
    /// Clause-arena garbage collections (compaction + cref remap).
    pub gc_runs: u64,
    /// Watcher visits resolved by the blocker literal alone (no clause
    /// dereference).
    pub blocker_hits: u64,
    /// Total watcher visits during propagation.
    pub watcher_visits: u64,
    /// Histogram of learnt-clause glue (LBD) at learn time: bucket `i`
    /// counts clauses with glue `i + 1`; the last bucket collects glue ≥
    /// `glue_hist.len()`.
    pub glue_hist: [u64; GLUE_HIST_BUCKETS],
}

impl SolverStats {
    /// Fraction of watcher visits short-circuited by the blocker literal
    /// (0 when nothing was propagated yet).
    pub fn blocker_hit_rate(&self) -> f64 {
        if self.watcher_visits == 0 {
            0.0
        } else {
            self.blocker_hits as f64 / self.watcher_visits as f64
        }
    }
}

/// A CDCL SAT solver. See the [crate docs](crate) for an example.
pub struct Solver {
    clauses: Vec<Clause>,
    /// Physically deleted-but-not-yet-compacted clauses in `clauses`.
    deleted_count: usize,
    /// `watches[lit.index()]`: watchers of clauses in which `lit` is watched.
    watches: Vec<Vec<Watcher>>,
    /// `assign[lit.index()]`: the literal's [`VAL_TRUE`]/[`VAL_FALSE`]/
    /// [`VAL_UNDEF`] value (two entries per variable, kept in sync).
    assign: Vec<u8>,
    level: Vec<u32>,
    reason: Vec<Option<u32>>,
    trail: Vec<Lit>,
    trail_lim: Vec<usize>,
    qhead: usize,
    activity: Vec<f64>,
    var_inc: f64,
    cla_inc: f64,
    order: VarHeap,
    phase: Vec<bool>,
    seen: Vec<bool>,
    /// Stamp array indexed by decision level, for O(clause) LBD computation.
    level_stamp: Vec<u64>,
    stamp: u64,
    /// Formula already proven unsatisfiable at level 0.
    unsat: bool,
    stats: SolverStats,
    /// Cumulative-conflict threshold for the next database reduction.
    next_reduce: u64,
    /// Learnt-DB reduction + garbage collection enabled (disable only to
    /// build a reference solver for differential tests).
    reduce_enabled: bool,
    /// Ring buffer of the most recent learnt-clause glues (restart pacing).
    lbd_ring: Vec<u32>,
    lbd_ring_next: usize,
    lbd_ring_sum: u64,
    lbd_global_sum: u64,
    lbd_global_count: u64,
    trail_size_sum: u64,
    trail_size_count: u64,
    conflict_budget: Option<u64>,
    interrupt: Option<CancelToken>,
}

impl Default for Solver {
    fn default() -> Self {
        Solver::new()
    }
}

impl Solver {
    /// How many conflicts/decisions pass between interrupt-token polls.
    /// Small enough that a deadline stops a pathological solve within
    /// milliseconds, large enough that the clock read never shows up in a
    /// profile.
    pub const INTERRUPT_POLL_OPS: u32 = 128;

    /// Learnt clauses with glue at or below this are *core*: kept forever.
    pub const CORE_GLUE: u32 = 2;

    /// Learnt clauses with glue in `CORE_GLUE+1..=MID_GLUE` are *mid-tier*:
    /// they survive each reduction round they participated in a conflict
    /// during, and drop to the local tier otherwise.
    pub const MID_GLUE: u32 = 6;

    /// Conflicts before the first learnt-database reduction.
    const REDUCE_BASE: u64 = 2000;
    /// Extra conflicts granted per completed reduction.
    const REDUCE_INC: u64 = 300;
    /// Compact the arena when this many clauses are deleted (husks between
    /// GC runs are skipped lazily by propagation, so tiny compactions are
    /// not worth their cref-remap cost).
    const GC_MIN_DELETED: usize = 64;

    /// Window size of the recent-glue ring buffer (restart pacing).
    const LBD_RING: usize = 50;
    /// Force a restart when the windowed glue average exceeds the long-run
    /// average by this factor (learning is degrading).
    const GLUE_RESTART_FACTOR: f64 = 1.25;
    /// Postpone a restart (clear the window) when the trail is this much
    /// deeper than its long-run average (the search is making progress).
    const TRAIL_BLOCK_FACTOR: f64 = 1.4;
    /// Minimum conflicts between two glue-forced restarts.
    const GLUE_RESTART_SPACING: u64 = 50;

    /// Creates an empty solver.
    pub fn new() -> Self {
        Solver {
            clauses: Vec::new(),
            deleted_count: 0,
            watches: Vec::new(),
            assign: Vec::new(),
            level: Vec::new(),
            reason: Vec::new(),
            trail: Vec::new(),
            trail_lim: Vec::new(),
            qhead: 0,
            activity: Vec::new(),
            var_inc: 1.0,
            cla_inc: 1.0,
            order: VarHeap::new(),
            phase: Vec::new(),
            seen: Vec::new(),
            level_stamp: vec![0],
            stamp: 0,
            unsat: false,
            stats: SolverStats::default(),
            next_reduce: Self::REDUCE_BASE,
            reduce_enabled: true,
            lbd_ring: Vec::new(),
            lbd_ring_next: 0,
            lbd_ring_sum: 0,
            lbd_global_sum: 0,
            lbd_global_count: 0,
            trail_size_sum: 0,
            trail_size_count: 0,
            conflict_budget: None,
            interrupt: None,
        }
    }

    /// Allocates a fresh variable and returns its positive DIMACS literal.
    pub fn new_var(&mut self) -> i32 {
        self.assign.push(VAL_UNDEF);
        self.assign.push(VAL_UNDEF);
        self.level.push(0);
        self.reason.push(None);
        self.activity.push(0.0);
        self.phase.push(false);
        self.seen.push(false);
        self.level_stamp.push(0);
        self.watches.push(Vec::new());
        self.watches.push(Vec::new());
        let v = self.level.len() as u32 - 1;
        self.order.grow_to(self.level.len());
        self.order.push(v, &self.activity);
        v as i32 + 1
    }

    /// Number of allocated variables.
    pub fn num_vars(&self) -> u32 {
        self.level.len() as u32
    }

    /// Ensures variables up to `var` (DIMACS, 1-based) exist.
    pub fn reserve_vars(&mut self, var: u32) {
        while self.num_vars() < var {
            let _ = self.new_var();
        }
    }

    /// Cumulative statistics.
    pub fn stats(&self) -> SolverStats {
        self.stats
    }

    /// Live (non-deleted) clauses in the database, problem and learnt.
    pub fn num_clauses(&self) -> usize {
        self.clauses.len() - self.deleted_count
    }

    /// Physical clause-arena slots, including deleted husks not yet
    /// compacted away. Bounded by garbage collection: stays within
    /// `GC_MIN_DELETED` (64) slots of [`Solver::num_clauses`].
    pub fn arena_len(&self) -> usize {
        self.clauses.len()
    }

    /// Enables or disables learnt-database reduction and arena garbage
    /// collection (default: enabled). Disabling turns the solver into the
    /// keep-everything reference used by the differential test suite; it
    /// does not undo reductions that already happened.
    pub fn set_db_reduction(&mut self, enabled: bool) {
        self.reduce_enabled = enabled;
    }

    /// Limits each subsequent solve call to approximately `conflicts`
    /// conflicts; `None` removes the limit. When the budget runs out the
    /// solve returns [`SolveResult::BudgetExhausted`] — explicitly *not*
    /// `Unsat`, so callers can tell a proven-secure instance from one the
    /// solver merely gave up on.
    pub fn set_conflict_budget(&mut self, conflicts: Option<u64>) {
        self.conflict_budget = conflicts;
    }

    /// Installs (or clears) a cooperative-interrupt token. The solve loop
    /// polls it every [`Solver::INTERRUPT_POLL_OPS`] conflicts/decisions
    /// and returns [`SolveResult::Interrupted`] once it fires. The token is
    /// shared: cancelling any clone interrupts the solver.
    pub fn set_interrupt(&mut self, token: Option<CancelToken>) {
        self.interrupt = token;
    }

    fn interrupt_fired(&self) -> bool {
        self.interrupt
            .as_ref()
            .is_some_and(CancelToken::is_cancelled)
    }

    /// Adds a clause of DIMACS literals, growing the variable space if
    /// needed. May be called between solves (incremental interface).
    ///
    /// # Panics
    /// Panics if any literal is 0.
    pub fn add_clause(&mut self, lits: &[i32]) {
        assert!(lits.iter().all(|&l| l != 0), "literal 0 is invalid");
        if let Some(max) = lits.iter().map(|l| l.unsigned_abs()).max() {
            self.reserve_vars(max);
        }
        // Adding clauses is only legal at decision level 0.
        self.cancel_until(0);
        if self.unsat {
            return;
        }
        // Simplify: drop duplicate/false-at-0 literals, detect tautology.
        let mut ls: Vec<Lit> = Vec::with_capacity(lits.len());
        for &dl in lits {
            let l = Lit::from_dimacs(dl);
            match self.lit_value(l) {
                Some(true) => return, // satisfied at level 0
                Some(false) => continue,
                None => {}
            }
            if ls.contains(&l) {
                continue;
            }
            if ls.contains(&l.negated()) {
                return; // tautology
            }
            ls.push(l);
        }
        match ls.len() {
            0 => self.unsat = true,
            1 => {
                self.enqueue(ls[0], None);
                if self.propagate().is_some() {
                    self.unsat = true;
                }
            }
            _ => {
                self.attach_clause(ls, false, 0);
            }
        }
    }

    fn attach_clause(&mut self, lits: Vec<Lit>, learnt: bool, glue: u32) -> u32 {
        debug_assert!(lits.len() >= 2);
        let cref = self.clauses.len() as u32;
        debug_assert!(cref & BINARY_TAG == 0, "clause arena overflow");
        let tagged = if lits.len() == 2 {
            cref | BINARY_TAG
        } else {
            cref
        };
        self.watches[lits[0].index()].push(Watcher {
            cref: tagged,
            blocker: lits[1],
        });
        self.watches[lits[1].index()].push(Watcher {
            cref: tagged,
            blocker: lits[0],
        });
        self.clauses.push(Clause {
            lits,
            learnt,
            glue,
            used: learnt,
            activity: 0.0,
            deleted: false,
        });
        if learnt {
            self.stats.learnt_clauses += 1;
            let bucket = (glue.clamp(1, GLUE_HIST_BUCKETS as u32) - 1) as usize;
            self.stats.glue_hist[bucket] += 1;
        }
        cref
    }

    fn lit_value(&self, l: Lit) -> Option<bool> {
        lit_val(&self.assign, l)
    }

    fn decision_level(&self) -> u32 {
        self.trail_lim.len() as u32
    }

    fn enqueue(&mut self, l: Lit, reason: Option<u32>) {
        debug_assert_eq!(self.lit_value(l), None);
        let v = l.var() as usize;
        self.assign[l.index()] = VAL_TRUE;
        self.assign[l.negated().index()] = VAL_FALSE;
        self.level[v] = self.decision_level();
        self.reason[v] = reason;
        self.trail.push(l);
    }

    /// Two-watched-literal Boolean constraint propagation with blocker
    /// literals and an implicit-binary-clause fast path (neither touches
    /// the clause arena). Returns the conflicting clause ref, if any.
    fn propagate(&mut self) -> Option<u32> {
        // Stats accumulate in locals: these are the two hottest counts in
        // the workspace and per-visit field increments are measurable.
        let mut propagations = 0u64;
        let mut visits = 0u64;
        let mut hits = 0u64;
        let mut confl: Option<u32> = None;

        'queue: while self.qhead < self.trail.len() {
            let p = self.trail[self.qhead];
            self.qhead += 1;
            propagations += 1;
            let not_p = p.negated();
            let mut ws = std::mem::take(&mut self.watches[not_p.index()]);
            let mut i = 0;
            'watchers: while i < ws.len() {
                visits += 1;
                let w = ws[i];
                // Fast path: the cached blocker satisfies the clause.
                let bval = lit_val(&self.assign, w.blocker);
                if bval == Some(true) {
                    hits += 1;
                    i += 1;
                    continue;
                }
                if w.cref & BINARY_TAG != 0 {
                    // Binary clause: the blocker is the only other literal,
                    // so it is unit (blocker unassigned) or conflicting
                    // (blocker false) — no clause dereference either way.
                    let cref = w.cref & !BINARY_TAG;
                    if bval == Some(false) {
                        self.watches[not_p.index()] = ws;
                        self.qhead = self.trail.len();
                        confl = Some(cref);
                        break 'queue;
                    }
                    self.enqueue(w.blocker, Some(cref));
                    i += 1;
                    continue;
                }
                let cref = w.cref as usize;
                if self.clauses[cref].deleted {
                    ws.swap_remove(i);
                    continue;
                }
                // Make sure the false literal is at position 1.
                {
                    let c = &mut self.clauses[cref];
                    if c.lits[0] == not_p {
                        c.lits.swap(0, 1);
                    }
                    debug_assert_eq!(c.lits[1], not_p);
                }
                let first = self.clauses[cref].lits[0];
                if first != w.blocker && lit_val(&self.assign, first) == Some(true) {
                    ws[i].blocker = first;
                    i += 1;
                    continue;
                }
                // Look for a new literal to watch.
                {
                    let c = &mut self.clauses[cref];
                    for k in 2..c.lits.len() {
                        if lit_val(&self.assign, c.lits[k]) != Some(false) {
                            c.lits.swap(1, k);
                            let new_watch = c.lits[1];
                            self.watches[new_watch.index()].push(Watcher {
                                cref: w.cref,
                                blocker: first,
                            });
                            ws.swap_remove(i);
                            continue 'watchers;
                        }
                    }
                }
                // Clause is unit or conflicting.
                if lit_val(&self.assign, first) == Some(false) {
                    // Conflict: restore remaining watches and bail out.
                    self.watches[not_p.index()] = ws;
                    self.qhead = self.trail.len();
                    confl = Some(w.cref);
                    break 'queue;
                }
                self.enqueue(first, Some(w.cref));
                ws[i].blocker = first;
                i += 1;
            }
            self.watches[not_p.index()] = ws;
        }
        self.stats.propagations += propagations;
        self.stats.watcher_visits += visits;
        self.stats.blocker_hits += hits;
        confl
    }

    fn bump_var(&mut self, v: u32) {
        self.activity[v as usize] += self.var_inc;
        if self.activity[v as usize] > 1e100 {
            for a in &mut self.activity {
                *a *= 1e-100;
            }
            self.var_inc *= 1e-100;
        }
        self.order.decrease_key(v, &self.activity);
    }

    fn bump_clause(&mut self, cref: u32) {
        let c = &mut self.clauses[cref as usize];
        c.activity += self.cla_inc;
        if c.activity > 1e20 {
            for cl in &mut self.clauses {
                cl.activity *= 1e-20;
            }
            self.cla_inc *= 1e-20;
        }
    }

    /// Literal-block distance of a clause under the current assignment:
    /// the number of distinct decision levels among its literals.
    fn clause_lbd(&mut self, cref: u32) -> u32 {
        self.stamp += 1;
        let stamp = self.stamp;
        let mut lbd = 0u32;
        let lits = &self.clauses[cref as usize].lits;
        for &l in lits {
            let lvl = self.level[l.var() as usize] as usize;
            if self.level_stamp[lvl] != stamp {
                self.level_stamp[lvl] = stamp;
                lbd += 1;
            }
        }
        lbd
    }

    /// LBD of the freshly minimized learnt clause (same stamp trick, but
    /// over a literal slice instead of a stored clause).
    fn lits_lbd(&mut self, lits: &[Lit]) -> u32 {
        self.stamp += 1;
        let stamp = self.stamp;
        let mut lbd = 0u32;
        for &l in lits {
            let lvl = self.level[l.var() as usize] as usize;
            if self.level_stamp[lvl] != stamp {
                self.level_stamp[lvl] = stamp;
                lbd += 1;
            }
        }
        lbd
    }

    /// First-UIP conflict analysis. Returns the learnt clause (asserting
    /// literal first), the backtrack level, and the clause's glue (LBD).
    fn analyze(&mut self, mut confl: u32) -> (Vec<Lit>, u32, u32) {
        let mut learnt: Vec<Lit> = vec![Lit(0)]; // placeholder for the UIP
        let mut counter = 0u32;
        let mut p: Option<Lit> = None;
        let mut index = self.trail.len();
        let current = self.decision_level();

        loop {
            self.bump_clause(confl);
            // Glue maintenance: a learnt clause participating in a conflict
            // is "used" this reduction round, and its LBD can only improve.
            if self.clauses[confl as usize].learnt {
                let lbd = self.clause_lbd(confl);
                let c = &mut self.clauses[confl as usize];
                c.used = true;
                if lbd < c.glue {
                    c.glue = lbd;
                }
            }
            // Skip the literal this clause propagated (if any) by identity,
            // not position: binary clauses enqueue their blocker literal
            // without normalizing it to position 0.
            let len = self.clauses[confl as usize].lits.len();
            for idx in 0..len {
                let q = self.clauses[confl as usize].lits[idx];
                if p == Some(q) {
                    continue;
                }
                let v = q.var();
                if !self.seen[v as usize] && self.level[v as usize] > 0 {
                    self.seen[v as usize] = true;
                    self.bump_var(v);
                    if self.level[v as usize] >= current {
                        counter += 1;
                    } else {
                        learnt.push(q);
                    }
                }
            }
            // Select the next literal to expand (walk the trail backwards).
            loop {
                index -= 1;
                if self.seen[self.trail[index].var() as usize] {
                    break;
                }
            }
            let pl = self.trail[index];
            self.seen[pl.var() as usize] = false;
            counter -= 1;
            if counter == 0 {
                learnt[0] = pl.negated();
                break;
            }
            confl = self.reason[pl.var() as usize]
                .expect("non-decision literal at conflict level must have a reason");
            p = Some(pl);
        }

        // Cheap clause minimization: drop literals whose reason clause is
        // entirely covered by the remaining seen literals.
        let keep: Vec<Lit> = learnt[1..]
            .iter()
            .copied()
            .filter(|&l| !self.literal_redundant(l))
            .collect();
        let mut minimized = vec![learnt[0]];
        minimized.extend(keep);

        // Clear seen flags.
        for l in &learnt {
            self.seen[l.var() as usize] = false;
        }

        let glue = self.lits_lbd(&minimized);

        // Compute backtrack level = max level among non-asserting literals,
        // and move such a literal to position 1 so it gets watched.
        let bt = if minimized.len() == 1 {
            0
        } else {
            let mut max_i = 1;
            for i in 2..minimized.len() {
                if self.level[minimized[i].var() as usize]
                    > self.level[minimized[max_i].var() as usize]
                {
                    max_i = i;
                }
            }
            minimized.swap(1, max_i);
            self.level[minimized[1].var() as usize]
        };
        (minimized, bt, glue)
    }

    /// A literal is redundant in the learnt clause if it was propagated and
    /// every literal of its reason clause is already seen (self-subsumption).
    /// The reason clause's own propagated literal (`¬l`) is skipped by
    /// identity — binary reasons do not keep it at position 0.
    fn literal_redundant(&self, l: Lit) -> bool {
        let not_l = l.negated();
        match self.reason[l.var() as usize] {
            None => false,
            Some(cref) => self.clauses[cref as usize].lits.iter().all(|&q| {
                q == not_l || self.seen[q.var() as usize] || self.level[q.var() as usize] == 0
            }),
        }
    }

    /// Backtracks to `level`, unassigning trail literals and saving each
    /// variable's polarity (phase saving: the next decision on the variable
    /// repeats this polarity, so restarts do not lose the partial model).
    fn cancel_until(&mut self, level: u32) {
        while self.decision_level() > level {
            let lim = self.trail_lim.pop().expect("level > 0");
            while self.trail.len() > lim {
                let l = self.trail.pop().expect("trail non-empty");
                let v = l.var();
                self.phase[v as usize] = !l.is_neg();
                self.assign[l.index()] = VAL_UNDEF;
                self.assign[l.negated().index()] = VAL_UNDEF;
                self.reason[v as usize] = None;
                self.order.push(v, &self.activity);
            }
        }
        self.qhead = self.qhead.min(self.trail.len());
    }

    fn pick_branch_var(&mut self) -> Option<u32> {
        while let Some(v) = self.order.pop(&self.activity) {
            if self.assign[(v * 2) as usize] == VAL_UNDEF {
                return Some(v);
            }
        }
        None
    }

    /// A clause is locked while it is the reason for an assigned literal;
    /// locked clauses must never be deleted (conflict analysis walks
    /// `reason` crefs).
    fn is_locked(&self, cref: u32) -> bool {
        let c = &self.clauses[cref as usize];
        !c.deleted
            && !c.lits.is_empty()
            && self.reason[c.lits[0].var() as usize] == Some(cref)
            && self.lit_value(c.lits[0]) == Some(true)
    }

    /// Three-tier learnt-database reduction:
    ///
    /// * **core** (glue ≤ [`Solver::CORE_GLUE`]): kept forever,
    /// * **mid** (glue ≤ [`Solver::MID_GLUE`]): kept if it participated in
    ///   a conflict since the previous reduction, demoted otherwise,
    /// * **local**: sorted by (glue, activity) and the worse half deleted.
    ///
    /// Binary and locked (reason) clauses are never deleted. Deleted
    /// clauses become arena husks until [`Solver::collect_garbage_now`]
    /// (triggered automatically) compacts them away.
    fn reduce_db(&mut self) {
        self.stats.reduces += 1;
        let mut victims: Vec<u32> = Vec::new();
        for cref in 0..self.clauses.len() as u32 {
            let c = &self.clauses[cref as usize];
            if !c.learnt || c.deleted || c.lits.len() <= 2 || c.glue <= Self::CORE_GLUE {
                continue;
            }
            if self.is_locked(cref) {
                continue;
            }
            if c.glue <= Self::MID_GLUE && c.used {
                // Mid-tier clause that earned its keep: clear the bit and
                // give it another round.
                self.clauses[cref as usize].used = false;
                continue;
            }
            victims.push(cref);
        }
        // Worst first: highest glue, then lowest activity. f64 activities
        // are non-negative, so the bit pattern orders them totally and the
        // sort stays deterministic; cref breaks exact ties.
        victims.sort_by_key(|&cref| {
            let c = &self.clauses[cref as usize];
            (std::cmp::Reverse(c.glue), c.activity.to_bits(), cref)
        });
        for &cref in &victims[..victims.len() / 2] {
            let c = &mut self.clauses[cref as usize];
            c.deleted = true;
            c.lits = Vec::new();
            self.deleted_count += 1;
            self.stats.learnt_clauses = self.stats.learnt_clauses.saturating_sub(1);
        }
        if self.deleted_count >= Self::GC_MIN_DELETED {
            self.collect_garbage();
        }
    }

    /// Forces a learnt-database reduction (plus the follow-up garbage
    /// collection if enough husks accumulated). Normally reductions run on
    /// a conflict-count schedule; this hook exists for tests and tools.
    pub fn reduce_learnts_now(&mut self) {
        self.reduce_db();
    }

    /// Compacts the clause arena: physically removes deleted clauses and
    /// remaps every clause reference in the watch lists and the reason
    /// array. A no-op when nothing is deleted. Normally triggered by
    /// [`Solver::reduce_learnts_now`]/the solve loop; public for tests.
    pub fn collect_garbage_now(&mut self) {
        self.collect_garbage();
    }

    fn collect_garbage(&mut self) {
        if self.deleted_count == 0 {
            return;
        }
        let mut remap: Vec<u32> = vec![u32::MAX; self.clauses.len()];
        let mut next = 0u32;
        for (i, c) in self.clauses.iter().enumerate() {
            if !c.deleted {
                remap[i] = next;
                next += 1;
            }
        }
        self.clauses.retain(|c| !c.deleted);
        for ws in &mut self.watches {
            ws.retain_mut(|w| {
                let tag = w.cref & BINARY_TAG;
                let mapped = remap[(w.cref & !BINARY_TAG) as usize];
                if mapped == u32::MAX {
                    false
                } else {
                    w.cref = mapped | tag;
                    true
                }
            });
        }
        for r in &mut self.reason {
            if let Some(cref) = r.as_mut() {
                let mapped = remap[*cref as usize];
                debug_assert_ne!(mapped, u32::MAX, "reason clause was garbage collected");
                *cref = mapped;
            }
        }
        self.deleted_count = 0;
        self.stats.gc_runs += 1;
    }

    /// Panics if any internal invariant is broken: a trail literal whose
    /// reason cref is out of range, deleted, or does not start with that
    /// literal; a watcher whose cref is out of range or (for live clauses)
    /// whose watched literal is not in the clause's first two positions; or
    /// stat counters out of sync with the database. Used by the invariant
    /// test suite after forced reductions/GC; cheap enough for debugging
    /// sessions, not meant for production hot paths.
    pub fn check_integrity(&self) {
        let deleted = self.clauses.iter().filter(|c| c.deleted).count();
        assert_eq!(deleted, self.deleted_count, "deleted_count out of sync");
        let learnt = self
            .clauses
            .iter()
            .filter(|c| c.learnt && !c.deleted)
            .count();
        assert_eq!(
            learnt as u64, self.stats.learnt_clauses,
            "learnt_clauses stat out of sync"
        );
        for &l in &self.trail {
            assert_eq!(self.lit_value(l), Some(true), "trail literal not true");
            if let Some(cref) = self.reason[l.var() as usize] {
                let c = self
                    .clauses
                    .get(cref as usize)
                    .expect("reason cref out of range");
                assert!(!c.deleted, "reason clause deleted");
                // Binary clauses propagate either literal; longer clauses
                // keep the propagated literal in watch position 0.
                if c.lits.len() == 2 {
                    assert!(
                        c.lits.contains(&l),
                        "binary reason clause does not contain its literal"
                    );
                } else {
                    assert_eq!(c.lits[0], l, "reason clause does not assert its literal");
                }
            }
        }
        for (idx, ws) in self.watches.iter().enumerate() {
            for w in ws {
                let c = self
                    .clauses
                    .get((w.cref & !BINARY_TAG) as usize)
                    .expect("watcher cref out of range");
                assert_eq!(
                    w.cref & BINARY_TAG != 0,
                    !c.deleted && c.lits.len() == 2,
                    "binary tag out of sync with clause length"
                );
                if !c.deleted {
                    assert!(
                        c.lits[0].index() == idx || c.lits[1].index() == idx,
                        "watched literal not in the clause's watch positions"
                    );
                }
            }
        }
    }

    /// Records a conflict's glue in the restart-pacing windows and returns
    /// `true` if the glue trend demands an early restart.
    fn note_conflict_glue(&mut self, glue: u32, trail_len: usize) -> bool {
        self.lbd_global_sum += glue as u64;
        self.lbd_global_count += 1;
        self.trail_size_sum += trail_len as u64;
        self.trail_size_count += 1;
        // Blocking restarts: an unusually deep trail means the search is
        // closing in on a model; postpone by clearing the window.
        if self.lbd_ring.len() == Self::LBD_RING
            && (trail_len as f64) * (self.trail_size_count as f64)
                > Self::TRAIL_BLOCK_FACTOR * self.trail_size_sum as f64
        {
            self.lbd_ring.clear();
            self.lbd_ring_next = 0;
            self.lbd_ring_sum = 0;
        }
        if self.lbd_ring.len() < Self::LBD_RING {
            self.lbd_ring.push(glue);
            self.lbd_ring_sum += glue as u64;
        } else {
            self.lbd_ring_sum -= self.lbd_ring[self.lbd_ring_next] as u64;
            self.lbd_ring[self.lbd_ring_next] = glue;
            self.lbd_ring_sum += glue as u64;
            self.lbd_ring_next = (self.lbd_ring_next + 1) % Self::LBD_RING;
        }
        self.lbd_ring.len() == Self::LBD_RING
            && (self.lbd_ring_sum as f64) * (self.lbd_global_count as f64)
                > Self::GLUE_RESTART_FACTOR * (self.lbd_global_sum as f64) * (Self::LBD_RING as f64)
    }

    fn clear_lbd_ring(&mut self) {
        self.lbd_ring.clear();
        self.lbd_ring_next = 0;
        self.lbd_ring_sum = 0;
    }

    /// Solves the current formula.
    pub fn solve(&mut self) -> SolveResult {
        self.solve_with_assumptions(&[])
    }

    /// Solves under the given DIMACS-literal assumptions. The assumptions act
    /// as forced first decisions: `Unsat` means unsatisfiable *under these
    /// assumptions* (the formula itself may remain satisfiable).
    ///
    /// # Panics
    /// Panics if any assumption literal is 0 or references an unallocated
    /// variable.
    pub fn solve_with_assumptions(&mut self, assumptions: &[i32]) -> SolveResult {
        for &a in assumptions {
            assert!(a != 0, "literal 0 is invalid");
            assert!(
                a.unsigned_abs() <= self.num_vars(),
                "assumption {a} references unallocated variable"
            );
        }
        self.stats.solves += 1;
        if self.unsat {
            return SolveResult::Unsat;
        }
        if self.interrupt_fired() {
            return SolveResult::Interrupted;
        }
        self.cancel_until(0);
        if self.propagate().is_some() {
            self.unsat = true;
            return SolveResult::Unsat;
        }

        let assumps: Vec<Lit> = assumptions.iter().map(|&l| Lit::from_dimacs(l)).collect();
        let mut restart_count = 0u64;
        let mut conflicts_until_restart = luby(1) * 100;
        let mut conflicts_this_solve = 0u64;
        let mut conflicts_at_last_restart = 0u64;
        let mut ops_since_poll = 0u32;
        self.clear_lbd_ring();

        loop {
            ops_since_poll += 1;
            if ops_since_poll >= Self::INTERRUPT_POLL_OPS {
                ops_since_poll = 0;
                if self.interrupt_fired() {
                    self.cancel_until(0);
                    return SolveResult::Interrupted;
                }
            }
            if let Some(confl) = self.propagate() {
                self.stats.conflicts += 1;
                conflicts_this_solve += 1;
                if self.decision_level() == 0 {
                    self.unsat = true;
                    return SolveResult::Unsat;
                }
                // A conflict while only assumption decisions are on the trail
                // means the assumptions are contradictory with the formula.
                if self.decision_level() <= assumps.len() as u32 {
                    // Learn what we can, then report Unsat-under-assumptions.
                    let (learnt, bt, glue) = self.analyze(confl);
                    self.cancel_until(bt.min(self.decision_level().saturating_sub(1)));
                    self.learn(learnt, glue);
                    // Re-establish from scratch on next call.
                    self.cancel_until(0);
                    return SolveResult::Unsat;
                }
                let (learnt, bt, glue) = self.analyze(confl);
                let glue_restart = self.note_conflict_glue(glue, self.trail.len());
                self.cancel_until(bt.max(assumps.len() as u32).min(self.decision_level() - 1));
                self.learn(learnt, glue);
                self.var_inc /= 0.95;
                self.cla_inc /= 0.999;
                let luby_restart = conflicts_this_solve >= conflicts_until_restart;
                if luby_restart
                    || (glue_restart
                        && conflicts_this_solve - conflicts_at_last_restart
                            >= Self::GLUE_RESTART_SPACING)
                {
                    restart_count += 1;
                    self.stats.restarts += 1;
                    conflicts_at_last_restart = conflicts_this_solve;
                    if luby_restart {
                        conflicts_until_restart =
                            conflicts_this_solve + luby(restart_count + 1) * 100;
                    }
                    self.clear_lbd_ring();
                    self.cancel_until(0);
                }
                if self.reduce_enabled && self.stats.conflicts >= self.next_reduce {
                    self.reduce_db();
                    self.next_reduce = self.stats.conflicts
                        + Self::REDUCE_BASE
                        + Self::REDUCE_INC * self.stats.reduces;
                }
                if let Some(budget) = self.conflict_budget {
                    if conflicts_this_solve > budget {
                        self.cancel_until(0);
                        return SolveResult::BudgetExhausted;
                    }
                }
            } else {
                // Assert pending assumptions, one decision level each.
                let dl = self.decision_level() as usize;
                if dl < assumps.len() {
                    let a = assumps[dl];
                    match self.lit_value(a) {
                        Some(true) => {
                            // Already implied: open an empty level to keep the
                            // level<->assumption correspondence.
                            self.trail_lim.push(self.trail.len());
                        }
                        Some(false) => {
                            self.cancel_until(0);
                            return SolveResult::Unsat;
                        }
                        None => {
                            self.trail_lim.push(self.trail.len());
                            self.enqueue(a, None);
                        }
                    }
                    continue;
                }
                match self.pick_branch_var() {
                    None => return SolveResult::Sat,
                    Some(v) => {
                        self.stats.decisions += 1;
                        self.trail_lim.push(self.trail.len());
                        let phase = self.phase[v as usize];
                        self.enqueue(Lit::new(v, !phase), None);
                    }
                }
            }
        }
    }

    fn learn(&mut self, learnt: Vec<Lit>, glue: u32) {
        match learnt.len() {
            0 => self.unsat = true,
            1 => {
                // A unit consequence holds at level 0; enqueue it there so it
                // never appears as a reasonless non-decision literal at a
                // higher level (which would break conflict analysis).
                self.cancel_until(0);
                if self.lit_value(learnt[0]) == Some(false) {
                    self.unsat = true;
                } else if self.lit_value(learnt[0]).is_none() {
                    self.enqueue(learnt[0], None);
                }
            }
            _ => {
                let asserting = learnt[0];
                let cref = self.attach_clause(learnt, true, glue);
                self.bump_clause(cref);
                if self.lit_value(asserting).is_none() {
                    self.enqueue(asserting, Some(cref));
                }
            }
        }
    }

    /// Reads the value of a DIMACS literal from the last `Sat` model.
    ///
    /// # Panics
    /// Panics if the last solve was not `Sat` for this variable (unassigned)
    /// or the literal is invalid.
    pub fn model_value(&self, lit: i32) -> bool {
        assert!(lit != 0, "literal 0 is invalid");
        let l = Lit::from_dimacs(lit);
        self.lit_value(l)
            .expect("variable unassigned: call solve() and check Sat first")
    }
}

impl fmt::Debug for Solver {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "Solver({} vars, {} clauses, {:?})",
            self.num_vars(),
            self.num_clauses(),
            self.stats
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn trivial_sat_and_model() {
        let mut s = Solver::new();
        let a = s.new_var();
        let b = s.new_var();
        s.add_clause(&[a]);
        s.add_clause(&[-a, b]);
        assert_eq!(s.solve(), SolveResult::Sat);
        assert!(s.model_value(a));
        assert!(s.model_value(b));
    }

    #[test]
    fn trivial_unsat() {
        let mut s = Solver::new();
        let a = s.new_var();
        s.add_clause(&[a]);
        s.add_clause(&[-a]);
        assert_eq!(s.solve(), SolveResult::Unsat);
        // Stays unsat.
        assert_eq!(s.solve(), SolveResult::Unsat);
    }

    #[test]
    fn empty_clause_is_unsat() {
        let mut s = Solver::new();
        s.add_clause(&[]);
        assert_eq!(s.solve(), SolveResult::Unsat);
    }

    #[test]
    fn empty_formula_is_sat() {
        let mut s = Solver::new();
        assert_eq!(s.solve(), SolveResult::Sat);
    }

    #[test]
    fn tautological_clause_ignored() {
        let mut s = Solver::new();
        let a = s.new_var();
        s.add_clause(&[a, -a]);
        assert_eq!(s.solve(), SolveResult::Sat);
    }

    #[test]
    fn xor_chain_parity() {
        // x1 ^ x2 = 1, x2 ^ x3 = 1, x1 ^ x3 = 1 is unsatisfiable (parity).
        let mut s = Solver::new();
        let x: Vec<i32> = (0..3).map(|_| s.new_var()).collect();
        let xor_true = |s: &mut Solver, a: i32, b: i32| {
            s.add_clause(&[a, b]);
            s.add_clause(&[-a, -b]);
        };
        xor_true(&mut s, x[0], x[1]);
        xor_true(&mut s, x[1], x[2]);
        xor_true(&mut s, x[0], x[2]);
        assert_eq!(s.solve(), SolveResult::Unsat);
    }

    /// Pigeonhole principle PHP(n+1, n) is a classic hard UNSAT family.
    fn pigeonhole(pigeons: usize, holes: usize) -> Solver {
        let mut s = Solver::new();
        let var: Vec<Vec<i32>> = (0..pigeons)
            .map(|_| (0..holes).map(|_| s.new_var()).collect())
            .collect();
        for row in &var {
            s.add_clause(row);
        }
        for p1 in 0..pigeons {
            for p2 in (p1 + 1)..pigeons {
                for (a, b) in var[p1].iter().zip(&var[p2]) {
                    s.add_clause(&[-a, -b]);
                }
            }
        }
        s
    }

    #[test]
    fn pigeonhole_unsat() {
        for n in 2..=5 {
            let mut s = pigeonhole(n + 1, n);
            assert_eq!(s.solve(), SolveResult::Unsat, "PHP({}, {})", n + 1, n);
        }
    }

    #[test]
    fn pigeonhole_exact_fit_sat() {
        let mut s = pigeonhole(4, 4);
        assert_eq!(s.solve(), SolveResult::Sat);
    }

    #[test]
    fn assumptions_restrict_then_release() {
        let mut s = Solver::new();
        let a = s.new_var();
        let b = s.new_var();
        s.add_clause(&[a, b]);
        assert_eq!(s.solve_with_assumptions(&[-a, -b]), SolveResult::Unsat);
        // Without assumptions the formula is still satisfiable.
        assert_eq!(s.solve(), SolveResult::Sat);
        // Single assumption forces the other literal.
        assert_eq!(s.solve_with_assumptions(&[-a]), SolveResult::Sat);
        assert!(s.model_value(b));
    }

    #[test]
    fn assumptions_conflicting_with_unit() {
        let mut s = Solver::new();
        let a = s.new_var();
        s.add_clause(&[a]);
        assert_eq!(s.solve_with_assumptions(&[-a]), SolveResult::Unsat);
        assert_eq!(s.solve(), SolveResult::Sat);
        assert!(s.model_value(a));
    }

    #[test]
    fn incremental_clause_addition() {
        let mut s = Solver::new();
        let v: Vec<i32> = (0..4).map(|_| s.new_var()).collect();
        s.add_clause(&[v[0], v[1]]);
        assert_eq!(s.solve(), SolveResult::Sat);
        s.add_clause(&[-v[0]]);
        assert_eq!(s.solve(), SolveResult::Sat);
        assert!(s.model_value(v[1]));
        s.add_clause(&[-v[1], v[2]]);
        s.add_clause(&[-v[2], v[3]]);
        s.add_clause(&[-v[3]]);
        assert_eq!(s.solve(), SolveResult::Unsat);
    }

    #[test]
    fn add_clause_grows_variable_space() {
        let mut s = Solver::new();
        s.add_clause(&[5]);
        assert_eq!(s.num_vars(), 5);
        assert_eq!(s.solve(), SolveResult::Sat);
        assert!(s.model_value(5));
    }

    #[test]
    fn stats_accumulate() {
        let mut s = pigeonhole(5, 4);
        let _ = s.solve();
        let st = s.stats();
        assert!(st.conflicts > 0);
        assert!(st.propagations > 0);
        assert_eq!(st.solves, 1);
    }

    #[test]
    fn blocker_hits_are_recorded() {
        let mut s = pigeonhole(6, 5);
        let _ = s.solve();
        let st = s.stats();
        assert!(st.watcher_visits > 0);
        assert!(st.blocker_hits > 0, "no blocker short-circuits at all");
        assert!(st.blocker_hits <= st.watcher_visits);
        assert!(st.blocker_hit_rate() > 0.0 && st.blocker_hit_rate() <= 1.0);
    }

    #[test]
    fn glue_histogram_fills_on_learning() {
        let mut s = pigeonhole(6, 5);
        let _ = s.solve();
        let st = s.stats();
        let total: u64 = st.glue_hist.iter().sum();
        assert!(total > 0, "no learnt clause recorded a glue");
    }

    #[test]
    fn random_3sat_small_instances() {
        // Deterministic LCG-generated instances cross-checked by brute force.
        let mut seed = 0x2026_0705u64;
        let mut rand = move || {
            seed = seed
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (seed >> 33) as u32
        };
        for inst in 0..40 {
            let nvars = 6 + (rand() % 4) as usize; // 6..9
            let nclauses = 20 + (rand() % 20) as usize;
            let mut clauses = Vec::new();
            for _ in 0..nclauses {
                let mut cl = Vec::new();
                for _ in 0..3 {
                    let v = (rand() as usize % nvars) as i32 + 1;
                    let l = if rand() % 2 == 0 { v } else { -v };
                    cl.push(l);
                }
                clauses.push(cl);
            }
            // Brute force.
            let mut brute_sat = false;
            'outer: for m in 0..(1u32 << nvars) {
                for cl in &clauses {
                    let ok = cl.iter().any(|&l| {
                        let bit = (m >> (l.unsigned_abs() - 1)) & 1 == 1;
                        if l > 0 {
                            bit
                        } else {
                            !bit
                        }
                    });
                    if !ok {
                        continue 'outer;
                    }
                }
                brute_sat = true;
                break;
            }
            // CDCL.
            let mut s = Solver::new();
            for cl in &clauses {
                s.add_clause(cl);
            }
            let res = s.solve();
            assert_eq!(
                res == SolveResult::Sat,
                brute_sat,
                "instance {inst} disagreement"
            );
            if res == SolveResult::Sat {
                // Model must satisfy every clause (model_value is the value
                // of the *literal*, true literal = satisfied).
                for cl in &clauses {
                    assert!(cl.iter().any(|&l| s.model_value(l)));
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "literal 0")]
    fn zero_literal_rejected() {
        let mut s = Solver::new();
        s.add_clause(&[0]);
    }

    #[test]
    fn budget_exhaustion_is_not_unsat() {
        // PHP(7, 6) needs far more than 10 conflicts; the budgeted solve
        // must report BudgetExhausted, and lifting the budget must still
        // reach the true Unsat answer from the kept learnt clauses.
        let mut s = pigeonhole(7, 6);
        s.set_conflict_budget(Some(10));
        assert_eq!(s.solve(), SolveResult::BudgetExhausted);
        s.set_conflict_budget(None);
        assert_eq!(s.solve(), SolveResult::Unsat);
    }

    #[test]
    fn budget_large_enough_does_not_trigger() {
        let mut s = pigeonhole(4, 4);
        s.set_conflict_budget(Some(1_000_000));
        assert_eq!(s.solve(), SolveResult::Sat);
    }

    #[test]
    fn pre_cancelled_token_interrupts_immediately() {
        let mut s = pigeonhole(7, 6);
        let token = CancelToken::new();
        token.cancel();
        s.set_interrupt(Some(token));
        assert_eq!(s.solve(), SolveResult::Interrupted);
        // Clearing the token resumes normal solving on intact state.
        s.set_interrupt(None);
        assert_eq!(s.solve(), SolveResult::Unsat);
    }

    #[test]
    fn deadline_token_interrupts_a_long_solve() {
        // PHP(9, 8) takes well over 50ms; the deadline must cut it short.
        let mut s = pigeonhole(9, 8);
        s.set_interrupt(Some(CancelToken::with_deadline(
            std::time::Duration::from_millis(50),
        )));
        let started = std::time::Instant::now();
        assert_eq!(s.solve(), SolveResult::Interrupted);
        assert!(
            started.elapsed() < std::time::Duration::from_secs(10),
            "interrupt took {:?}",
            started.elapsed()
        );
    }

    #[test]
    fn cancel_from_another_thread_interrupts() {
        let mut s = pigeonhole(9, 8);
        let token = CancelToken::new();
        s.set_interrupt(Some(token.clone()));
        let canceller = std::thread::spawn(move || {
            std::thread::sleep(std::time::Duration::from_millis(30));
            token.cancel();
        });
        assert_eq!(s.solve(), SolveResult::Interrupted);
        canceller.join().unwrap();
    }

    #[test]
    fn cancel_until_saves_phases() {
        // White-box: backtracking must record each popped variable's
        // polarity so later decisions (and restarts) replay it.
        let mut s = Solver::new();
        let a = s.new_var();
        let b = s.new_var();
        s.add_clause(&[a, b]);
        s.trail_lim.push(s.trail.len());
        s.enqueue(Lit::new(0, false), None); // decide a = true
        s.trail_lim.push(s.trail.len());
        s.enqueue(Lit::new(1, true), None); // decide b = false
        s.cancel_until(0);
        assert!(s.phase[0], "positive assignment must save phase true");
        assert!(!s.phase[1], "negative assignment must save phase false");
    }

    #[test]
    fn phase_saving_makes_resolves_reproduce_the_model() {
        // Phase saving means a second solve re-decides every variable with
        // its saved polarity, reproducing the first model exactly — across
        // the restarts the first solve performed.
        let mut s = pigeonhole(5, 5);
        assert_eq!(s.solve(), SolveResult::Sat);
        let model1: Vec<bool> = (1..=s.num_vars() as i32)
            .map(|v| s.model_value(v))
            .collect();
        assert_eq!(s.solve(), SolveResult::Sat);
        let model2: Vec<bool> = (1..=s.num_vars() as i32)
            .map(|v| s.model_value(v))
            .collect();
        assert_eq!(model1, model2);
    }

    #[test]
    fn reduce_never_deletes_reason_clauses() {
        // Drive a hard instance until learnt reasons sit on the trail, then
        // force a reduction mid-flight and check every reason survived.
        let mut s = pigeonhole(7, 6);
        s.set_conflict_budget(Some(500));
        let _ = s.solve(); // BudgetExhausted, state intact
        s.reduce_learnts_now();
        s.check_integrity();
        for &l in &s.trail {
            if let Some(cref) = s.reason[l.var() as usize] {
                assert!(!s.clauses[cref as usize].deleted, "reason deleted");
            }
        }
    }

    #[test]
    fn gc_remaps_and_preserves_solving() {
        let mut s = pigeonhole(7, 6);
        s.set_conflict_budget(Some(800));
        let _ = s.solve();
        let live_before = s.num_clauses();
        s.reduce_learnts_now();
        s.collect_garbage_now();
        s.check_integrity();
        assert_eq!(s.arena_len(), s.num_clauses(), "husks after explicit GC");
        assert!(s.num_clauses() <= live_before);
        // The compacted solver still reaches the right answer.
        s.set_conflict_budget(None);
        assert_eq!(s.solve(), SolveResult::Unsat);
    }

    #[test]
    fn arena_stays_bounded_on_restart_heavy_solves() {
        // Regression test for the reduce_db leak: deleted clause husks used
        // to linger in the arena (and watch lists) forever. With arena GC
        // the physical arena must track the live clause count.
        let mut s = pigeonhole(8, 7);
        s.set_conflict_budget(Some(12_000));
        let _ = s.solve();
        let st = s.stats();
        assert!(st.reduces >= 1, "workload too small to trigger a reduction");
        assert!(st.gc_runs >= 1, "reductions never compacted the arena");
        assert!(
            s.arena_len() <= s.num_clauses() + Solver::GC_MIN_DELETED,
            "arena ({}) grew past live clauses ({}) + GC slack",
            s.arena_len(),
            s.num_clauses()
        );
        s.check_integrity();
    }

    #[test]
    fn db_reduction_can_be_disabled() {
        let mut s = pigeonhole(8, 7);
        s.set_db_reduction(false);
        s.set_conflict_budget(Some(6_000));
        let _ = s.solve();
        let st = s.stats();
        assert_eq!(st.reduces, 0);
        assert_eq!(st.gc_runs, 0);
        // Every learnt clause is still in the database.
        assert_eq!(s.arena_len(), s.num_clauses());
    }

    #[test]
    fn core_glue_clauses_survive_reduction() {
        let mut s = pigeonhole(8, 7);
        s.set_conflict_budget(Some(12_000));
        let _ = s.solve();
        assert!(s.stats().reduces >= 1);
        let cores = s
            .clauses
            .iter()
            .filter(|c| c.learnt && !c.deleted && c.glue <= Solver::CORE_GLUE)
            .count();
        // The instance is hard enough to have produced core-glue clauses,
        // and reductions must have kept all of them.
        assert!(cores > 0, "no core-glue clauses learnt");
    }
}
