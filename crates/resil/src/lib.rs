//! Resilience primitives shared by the solver, the binding algorithms, and
//! the execution engine.
//!
//! Three independent pieces, all `std`-only so every crate in the workspace
//! can depend on this one without cycles:
//!
//! * [`CancelToken`] — a cloneable cooperative-cancellation handle: an
//!   atomic flag plus an optional wall-clock deadline fixed at construction.
//!   Long-running loops (the CDCL conflict loop, the DIP loop, the
//!   co-design enumerations) poll [`CancelToken::is_cancelled`] and unwind
//!   cleanly; the poller can distinguish an explicit [`CancelToken::cancel`]
//!   from a deadline expiry via [`CancelToken::reason`].
//! * [`RetryPolicy`] — how many times a transiently failing cell is re-run
//!   and how long to back off between attempts (exponential, capped).
//! * [`FaultPlan`] — a deterministic, seed-driven fault-injection plan:
//!   given `(cell, attempt)` it decides — via a splitmix64 hash, never a
//!   live RNG — whether to inject a panic, an `Err`, a delay, a hang, or a
//!   cache-build failure. The same plan produces the same faults at any
//!   worker count, which is what makes the resilience integration tests
//!   reproducible. Plans parse from a compact spec string (see
//!   [`FaultPlan::parse`]) so they can be passed through the
//!   `LOCKBIND_FAULTS` environment variable.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::sync::atomic::{AtomicU8, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Why a [`CancelToken`] fired.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CancelReason {
    /// [`CancelToken::cancel`] was called explicitly.
    Cancelled,
    /// The construction-time deadline passed.
    DeadlineExceeded,
}

const LIVE: u8 = 0;
const CANCELLED: u8 = 1;
const DEADLINE: u8 = 2;

#[derive(Debug)]
struct TokenInner {
    /// `LIVE`, `CANCELLED`, or `DEADLINE`; monotonic (never returns to
    /// `LIVE`), and an explicit cancel wins over a later deadline check.
    state: AtomicU8,
    deadline: Option<Instant>,
}

/// A cloneable cooperative-cancellation handle.
///
/// All clones share one flag: cancelling any clone cancels them all. The
/// deadline (if any) is fixed at construction; [`is_cancelled`] latches the
/// deadline expiry the first time it is observed so [`reason`] stays stable
/// afterwards.
///
/// [`is_cancelled`]: CancelToken::is_cancelled
/// [`reason`]: CancelToken::reason
#[derive(Debug, Clone)]
pub struct CancelToken {
    inner: Arc<TokenInner>,
}

impl Default for CancelToken {
    fn default() -> Self {
        CancelToken::new()
    }
}

impl CancelToken {
    /// A token with no deadline; fires only on explicit [`cancel`].
    ///
    /// [`cancel`]: CancelToken::cancel
    pub fn new() -> Self {
        CancelToken {
            inner: Arc::new(TokenInner {
                state: AtomicU8::new(LIVE),
                deadline: None,
            }),
        }
    }

    /// A token that fires `timeout` from now (or earlier, on explicit
    /// [`cancel`](CancelToken::cancel)).
    pub fn with_deadline(timeout: Duration) -> Self {
        CancelToken {
            inner: Arc::new(TokenInner {
                state: AtomicU8::new(LIVE),
                deadline: Some(Instant::now() + timeout),
            }),
        }
    }

    /// Cancels the token (and every clone of it). Idempotent; a token
    /// whose deadline already latched stays `DeadlineExceeded`.
    pub fn cancel(&self) {
        let _ = self.inner.state.compare_exchange(
            LIVE,
            CANCELLED,
            Ordering::Relaxed,
            Ordering::Relaxed,
        );
    }

    /// `true` once the token has been cancelled or its deadline passed.
    /// This is the polling point for cooperative loops; it is cheap (one
    /// relaxed atomic load, plus a clock read only while a deadline is
    /// still pending).
    pub fn is_cancelled(&self) -> bool {
        match self.inner.state.load(Ordering::Relaxed) {
            LIVE => match self.inner.deadline {
                Some(deadline) if Instant::now() >= deadline => {
                    let _ = self.inner.state.compare_exchange(
                        LIVE,
                        DEADLINE,
                        Ordering::Relaxed,
                        Ordering::Relaxed,
                    );
                    // An explicit cancel may have won the race; either way
                    // the token is no longer live.
                    true
                }
                _ => false,
            },
            _ => true,
        }
    }

    /// Why the token fired, or `None` while it is still live. Polls the
    /// deadline like [`is_cancelled`](CancelToken::is_cancelled).
    pub fn reason(&self) -> Option<CancelReason> {
        if !self.is_cancelled() {
            return None;
        }
        match self.inner.state.load(Ordering::Relaxed) {
            CANCELLED => Some(CancelReason::Cancelled),
            DEADLINE => Some(CancelReason::DeadlineExceeded),
            _ => None,
        }
    }

    /// `true` if the token fired *because its deadline passed* (as opposed
    /// to an explicit cancel).
    pub fn deadline_exceeded(&self) -> bool {
        self.reason() == Some(CancelReason::DeadlineExceeded)
    }

    /// `true` when both handles are clones of one token (so cancelling
    /// either cancels both), as opposed to two tokens in equal states.
    pub fn same_token(&self, other: &CancelToken) -> bool {
        Arc::ptr_eq(&self.inner, &other.inner)
    }

    /// `true` when the token was constructed with a deadline.
    pub fn has_deadline(&self) -> bool {
        self.inner.deadline.is_some()
    }

    /// Time left until the deadline: `None` for deadline-free tokens,
    /// `Some(ZERO)` once the deadline has passed (or the token fired).
    /// Queue schedulers use this to skip work whose budget expired while
    /// it waited, without consuming the token.
    pub fn remaining(&self) -> Option<Duration> {
        let deadline = self.inner.deadline?;
        if self.inner.state.load(Ordering::Relaxed) != LIVE {
            return Some(Duration::ZERO);
        }
        Some(deadline.saturating_duration_since(Instant::now()))
    }
}

/// How a transiently failing cell is retried: up to `max_retries` re-runs
/// with exponential backoff (`base_backoff * 2^attempt`, capped at
/// `max_backoff`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Re-runs after the first failed attempt (0 = fail immediately).
    pub max_retries: u32,
    /// Backoff before the first retry.
    pub base_backoff: Duration,
    /// Upper bound on any single backoff sleep.
    pub max_backoff: Duration,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy::none()
    }
}

impl RetryPolicy {
    /// No retries: every failure is final.
    pub fn none() -> Self {
        RetryPolicy {
            max_retries: 0,
            base_backoff: Duration::ZERO,
            max_backoff: Duration::ZERO,
        }
    }

    /// `max_retries` re-runs starting from `base_backoff`, capped at 5s.
    pub fn new(max_retries: u32, base_backoff: Duration) -> Self {
        RetryPolicy {
            max_retries,
            base_backoff,
            max_backoff: Duration::from_secs(5),
        }
    }

    /// The backoff to sleep *after* failed attempt number `attempt`
    /// (0-based): `base * 2^attempt`, capped at `max_backoff`.
    pub fn backoff_for(&self, attempt: u32) -> Duration {
        let factor = 1u32.checked_shl(attempt).unwrap_or(u32::MAX);
        self.base_backoff
            .checked_mul(factor)
            .unwrap_or(self.max_backoff)
            .min(self.max_backoff)
    }
}

/// What a [`FaultRule`] injects when it fires.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FaultKind {
    /// Panic before the job body runs (exercises panic isolation).
    Panic,
    /// Return `Err` before the job body runs.
    Error,
    /// Sleep this long, then run the job body normally.
    Delay(Duration),
    /// Spin (polling the cell's cancel token) until cancelled — models a
    /// wedged cell; only a `--cell-timeout` gets it unstuck.
    Hang,
    /// Not applied by the engine itself: jobs that build shared artifacts
    /// observe it via `JobCtx` and fail their cache build with it
    /// (exercises the cache's failed-build path).
    CacheBuild,
    /// Disk fault: persist only half of the record being written, then
    /// report success — models a torn page the durability layer must catch
    /// on the next recovery scan. Ignored by the execution engine; applied
    /// by `lockbind-durable` writers.
    ShortWrite,
    /// Disk fault: persist only the first `N` bytes of the record being
    /// written, then report success — a torn write at an exact byte offset
    /// (`torn(N)` in the spec grammar). Ignored by the execution engine.
    TornWrite(u64),
    /// Disk fault: perform the write but fail the subsequent fsync with an
    /// I/O error, leaving durability of the record undefined. Ignored by
    /// the execution engine.
    FsyncError,
    /// Disk fault: flip one bit of the record before it reaches disk —
    /// models silent media corruption that only a read-time checksum can
    /// catch. Ignored by the execution engine.
    BitFlip,
}

/// One fault-injection rule: a kind, a probability, an optional explicit
/// cell list, and an attempt ceiling (for modelling *transient* faults that
/// succeed on retry).
#[derive(Debug, Clone, PartialEq)]
pub struct FaultRule {
    /// What to inject.
    pub kind: FaultKind,
    /// Injection probability per `(cell, attempt)`, in `[0, 1]`.
    pub rate: f64,
    /// Restrict the rule to these cell indices (`None` = all cells).
    pub cells: Option<Vec<usize>>,
    /// Inject only while `attempt < max_attempt`; `u32::MAX` means always.
    /// `max_attempt = 1` models a transient fault cured by one retry.
    pub max_attempt: u32,
}

impl FaultRule {
    /// A rule firing on every attempt of every cell with probability
    /// `rate`.
    pub fn random(kind: FaultKind, rate: f64) -> Self {
        FaultRule {
            kind,
            rate,
            cells: None,
            max_attempt: u32::MAX,
        }
    }

    /// A rule always firing on exactly these cells.
    pub fn at_cells(kind: FaultKind, cells: Vec<usize>) -> Self {
        FaultRule {
            kind,
            rate: 1.0,
            cells: Some(cells),
            max_attempt: u32::MAX,
        }
    }

    /// Limits the rule to attempts `< max_attempt` (builder style).
    pub fn transient(mut self, max_attempt: u32) -> Self {
        self.max_attempt = max_attempt;
        self
    }

    fn applies_to(&self, cell: usize, attempt: u32) -> bool {
        if attempt >= self.max_attempt {
            return false;
        }
        match &self.cells {
            Some(cells) => cells.contains(&cell),
            None => true,
        }
    }
}

/// A deterministic, seed-driven fault-injection plan.
///
/// The decision for `(cell, attempt, rule)` is a pure function of the plan
/// seed — no RNG state is consumed — so the same plan injects the same
/// faults regardless of worker count or scheduling order. The first rule
/// (in order) that fires wins.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct FaultPlan {
    /// Hash seed for the per-(cell, attempt, rule) injection decision.
    pub seed: u64,
    /// Rules, checked in order; the first that fires wins.
    pub rules: Vec<FaultRule>,
}

impl FaultPlan {
    /// The environment variable [`FaultPlan::from_env`] reads.
    pub const ENV_VAR: &'static str = "LOCKBIND_FAULTS";

    /// An empty plan with the given hash seed.
    pub fn new(seed: u64) -> Self {
        FaultPlan {
            seed,
            rules: Vec::new(),
        }
    }

    /// Appends a rule (builder style).
    pub fn rule(mut self, rule: FaultRule) -> Self {
        self.rules.push(rule);
        self
    }

    /// `true` when the plan has no rules.
    pub fn is_empty(&self) -> bool {
        self.rules.is_empty()
    }

    /// The fault to inject into `(cell, attempt)`, if any: the first rule
    /// that applies and whose hash draw lands under its rate.
    pub fn action_for(&self, cell: usize, attempt: u32) -> Option<FaultKind> {
        for (i, rule) in self.rules.iter().enumerate() {
            if !rule.applies_to(cell, attempt) {
                continue;
            }
            if rule.rate >= 1.0 {
                return Some(rule.kind.clone());
            }
            if rule.rate <= 0.0 {
                continue;
            }
            let mut state = self
                .seed
                .wrapping_add((cell as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15))
                .wrapping_add((attempt as u64) << 40)
                .wrapping_add((i as u64) << 52);
            let draw = splitmix64(&mut state) as f64 / u64::MAX as f64;
            if draw < rule.rate {
                return Some(rule.kind.clone());
            }
        }
        None
    }

    /// Parses a fault-spec string into a plan.
    ///
    /// Grammar — rules separated by `;`, each rule:
    ///
    /// ```text
    /// KIND[@CELL[,CELL...]][:RATE[:MAX_ATTEMPT]]
    /// ```
    ///
    /// where `KIND` is `panic`, `err`, `hang`, `cache`, or `delay(MS)`.
    /// `RATE` defaults to 1, `MAX_ATTEMPT` to unlimited. Examples:
    ///
    /// * `err:0.3:1` — 30% of cells fail transiently on their first attempt
    ///   only (a retry always cures them),
    /// * `hang@3` — cell 3 always hangs,
    /// * `delay(50):0.5;panic:0.01` — half the cells sleep 50ms, 1% panic.
    ///
    /// # Errors
    /// Returns a human-readable message on any malformed rule.
    pub fn parse(spec: &str, seed: u64) -> Result<Self, String> {
        let mut plan = FaultPlan::new(seed);
        for part in spec.split(';') {
            let part = part.trim();
            if part.is_empty() {
                continue;
            }
            plan.rules.push(parse_rule(part)?);
        }
        Ok(plan)
    }

    /// Reads [`ENV_VAR`](FaultPlan::ENV_VAR) and parses it; `Ok(None)` when
    /// unset or empty.
    ///
    /// # Errors
    /// Propagates [`FaultPlan::parse`] errors, prefixed with the variable
    /// name.
    pub fn from_env(seed: u64) -> Result<Option<Self>, String> {
        match std::env::var(Self::ENV_VAR) {
            Ok(spec) if !spec.trim().is_empty() => FaultPlan::parse(&spec, seed)
                .map(Some)
                .map_err(|e| format!("{}: {e}", Self::ENV_VAR)),
            _ => Ok(None),
        }
    }
}

/// The environment variable [`crash_point`] reads: the name of the one
/// synchronisation point at which the process should die.
pub const CRASH_ENV_VAR: &str = "LOCKBIND_CRASH_AT";

/// Kills the process — `std::process::abort`, the in-process equivalent of
/// `kill -9` — when [`CRASH_ENV_VAR`] names this sync point.
///
/// Durability code calls this at the instants that matter for crash safety
/// (before a record write, between write and fsync, before a compaction
/// rename, ...) so the crash harness can prove recovery works from *every*
/// such state, not just from whatever timing a signal happens to hit. With
/// the variable unset (the normal case) the call is a cheap no-op.
pub fn crash_point(name: &str) {
    if std::env::var(CRASH_ENV_VAR).is_ok_and(|at| at == name) {
        eprintln!("[resil] crash point {name:?} reached; aborting");
        std::process::abort();
    }
}

fn parse_rule(text: &str) -> Result<FaultRule, String> {
    // KIND[@CELLS][:RATE[:MAX_ATTEMPT]]
    let (head, tail) = match text.find(':') {
        Some(i) => (&text[..i], Some(&text[i + 1..])),
        None => (text, None),
    };
    let (kind_text, cells) = match head.find('@') {
        Some(i) => {
            let cells: Result<Vec<usize>, _> = head[i + 1..]
                .split(',')
                .map(|c| {
                    c.trim()
                        .parse::<usize>()
                        .map_err(|_| format!("bad cell index {:?} in rule {text:?}", c.trim()))
                })
                .collect();
            (&head[..i], Some(cells?))
        }
        None => (head, None),
    };
    let kind = parse_kind(kind_text.trim())?;
    let (mut rate, mut max_attempt) = (1.0f64, u32::MAX);
    if let Some(tail) = tail {
        let mut parts = tail.split(':');
        if let Some(r) = parts.next().filter(|r| !r.trim().is_empty()) {
            rate = r
                .trim()
                .parse::<f64>()
                .map_err(|_| format!("bad rate {:?} in rule {text:?}", r.trim()))?;
            if !(0.0..=1.0).contains(&rate) {
                return Err(format!("rate {rate} out of [0, 1] in rule {text:?}"));
            }
        }
        if let Some(m) = parts.next() {
            max_attempt = m
                .trim()
                .parse::<u32>()
                .map_err(|_| format!("bad max-attempt {:?} in rule {text:?}", m.trim()))?;
        }
        if parts.next().is_some() {
            return Err(format!("too many ':' fields in rule {text:?}"));
        }
    }
    Ok(FaultRule {
        kind,
        rate,
        cells,
        max_attempt,
    })
}

fn parse_kind(text: &str) -> Result<FaultKind, String> {
    match text {
        "panic" => Ok(FaultKind::Panic),
        "err" | "error" => Ok(FaultKind::Error),
        "hang" => Ok(FaultKind::Hang),
        "cache" => Ok(FaultKind::CacheBuild),
        "shortwrite" => Ok(FaultKind::ShortWrite),
        "fsyncerr" => Ok(FaultKind::FsyncError),
        "bitflip" => Ok(FaultKind::BitFlip),
        _ => {
            if let Some(ms) = text
                .strip_prefix("delay(")
                .and_then(|t| t.strip_suffix(')'))
            {
                let ms: u64 = ms
                    .trim()
                    .parse()
                    .map_err(|_| format!("bad delay milliseconds {:?}", ms.trim()))?;
                Ok(FaultKind::Delay(Duration::from_millis(ms)))
            } else if let Some(off) = text.strip_prefix("torn(").and_then(|t| t.strip_suffix(')')) {
                let off: u64 = off
                    .trim()
                    .parse()
                    .map_err(|_| format!("bad torn-write byte offset {:?}", off.trim()))?;
                Ok(FaultKind::TornWrite(off))
            } else {
                Err(format!(
                    "unknown fault kind {text:?} (expected panic, err, hang, cache, shortwrite, \
                     fsyncerr, bitflip, torn(OFFSET), or delay(MS))"
                ))
            }
        }
    }
}

/// Deterministic 64-bit mixer (splitmix64): advances `state` and returns
/// the next draw. Every seed-driven choice in the workspace that needs no
/// RNG crate uses it: fault plans, random bindings, lock construction and
/// the error experiment's combination subsample.
#[inline]
pub fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fresh_token_is_live() {
        let t = CancelToken::new();
        assert!(!t.is_cancelled());
        assert_eq!(t.reason(), None);
        assert!(!t.deadline_exceeded());
    }

    #[test]
    fn cancel_propagates_to_clones() {
        let t = CancelToken::new();
        let c = t.clone();
        t.cancel();
        assert!(c.is_cancelled());
        assert_eq!(c.reason(), Some(CancelReason::Cancelled));
        assert!(!c.deadline_exceeded());
    }

    #[test]
    fn deadline_fires_and_latches() {
        let t = CancelToken::with_deadline(Duration::from_millis(5));
        assert!(!t.is_cancelled());
        std::thread::sleep(Duration::from_millis(10));
        assert!(t.is_cancelled());
        assert_eq!(t.reason(), Some(CancelReason::DeadlineExceeded));
        // An explicit cancel after the deadline latched does not rewrite
        // the reason.
        t.cancel();
        assert!(t.deadline_exceeded());
    }

    #[test]
    fn explicit_cancel_beats_pending_deadline() {
        let t = CancelToken::with_deadline(Duration::from_secs(3600));
        t.cancel();
        assert_eq!(t.reason(), Some(CancelReason::Cancelled));
    }

    #[test]
    fn remaining_is_none_without_deadline() {
        let t = CancelToken::new();
        assert!(!t.has_deadline());
        assert_eq!(t.remaining(), None);
        t.cancel();
        assert_eq!(t.remaining(), None, "cancel does not invent a deadline");
    }

    #[test]
    fn remaining_counts_down_and_floors_at_zero() {
        let t = CancelToken::with_deadline(Duration::from_secs(3600));
        assert!(t.has_deadline());
        let left = t.remaining().expect("deadline token has a budget");
        assert!(left > Duration::from_secs(3500), "fresh budget: {left:?}");
        let expired = CancelToken::with_deadline(Duration::from_millis(1));
        std::thread::sleep(Duration::from_millis(5));
        assert_eq!(expired.remaining(), Some(Duration::ZERO));
        // Reading `remaining` must not consume the token: the reason is
        // still observable as a deadline expiry afterwards.
        assert!(expired.deadline_exceeded());
    }

    #[test]
    fn remaining_is_zero_once_fired() {
        let t = CancelToken::with_deadline(Duration::from_secs(3600));
        t.cancel();
        assert_eq!(t.remaining(), Some(Duration::ZERO));
    }

    #[test]
    fn backoff_grows_and_caps() {
        let p = RetryPolicy {
            max_retries: 5,
            base_backoff: Duration::from_millis(10),
            max_backoff: Duration::from_millis(35),
        };
        assert_eq!(p.backoff_for(0), Duration::from_millis(10));
        assert_eq!(p.backoff_for(1), Duration::from_millis(20));
        assert_eq!(p.backoff_for(2), Duration::from_millis(35));
        assert_eq!(p.backoff_for(31), Duration::from_millis(35));
        assert_eq!(
            p.backoff_for(40),
            Duration::from_millis(35),
            "shift overflow caps"
        );
        assert_eq!(RetryPolicy::none().backoff_for(0), Duration::ZERO);
    }

    #[test]
    fn plan_decisions_are_deterministic_and_rate_shaped() {
        let plan = FaultPlan::new(42).rule(FaultRule::random(FaultKind::Error, 0.3));
        let first: Vec<Option<FaultKind>> = (0..200).map(|c| plan.action_for(c, 0)).collect();
        let second: Vec<Option<FaultKind>> = (0..200).map(|c| plan.action_for(c, 0)).collect();
        assert_eq!(first, second, "same plan, same decisions");
        let hits = first.iter().filter(|a| a.is_some()).count();
        assert!(
            (30..=90).contains(&hits),
            "rate 0.3 over 200 cells hit {hits} times"
        );
    }

    #[test]
    fn transient_rules_stop_at_max_attempt() {
        let plan =
            FaultPlan::new(1).rule(FaultRule::at_cells(FaultKind::Panic, vec![2]).transient(1));
        assert_eq!(plan.action_for(2, 0), Some(FaultKind::Panic));
        assert_eq!(plan.action_for(2, 1), None, "cured on the first retry");
        assert_eq!(plan.action_for(3, 0), None, "other cells untouched");
    }

    #[test]
    fn spec_parsing_round_trips() {
        let plan = FaultPlan::parse("err:0.3:1; hang@3 ; delay(50):0.5", 7).unwrap();
        assert_eq!(plan.rules.len(), 3);
        assert_eq!(plan.rules[0].kind, FaultKind::Error);
        assert_eq!(plan.rules[0].rate, 0.3);
        assert_eq!(plan.rules[0].max_attempt, 1);
        assert_eq!(plan.rules[1].kind, FaultKind::Hang);
        assert_eq!(plan.rules[1].cells, Some(vec![3]));
        assert_eq!(
            plan.rules[2].kind,
            FaultKind::Delay(Duration::from_millis(50))
        );
        assert_eq!(plan.rules[2].rate, 0.5);
    }

    #[test]
    fn spec_parsing_rejects_garbage() {
        assert!(FaultPlan::parse("explode", 0).is_err());
        assert!(FaultPlan::parse("err:2.0", 0).is_err());
        assert!(FaultPlan::parse("panic@x", 0).is_err());
        assert!(FaultPlan::parse("delay(abc)", 0).is_err());
        assert!(FaultPlan::parse("torn(abc)", 0).is_err());
        assert!(FaultPlan::parse("err:0.5:1:9", 0).is_err());
        assert!(FaultPlan::parse("", 0).unwrap().is_empty());
    }

    #[test]
    fn disk_fault_kinds_parse() {
        let plan =
            FaultPlan::parse("shortwrite:0.5; torn(17)@2; fsyncerr:0.1:1; bitflip", 3).unwrap();
        assert_eq!(plan.rules.len(), 4);
        assert_eq!(plan.rules[0].kind, FaultKind::ShortWrite);
        assert_eq!(plan.rules[0].rate, 0.5);
        assert_eq!(plan.rules[1].kind, FaultKind::TornWrite(17));
        assert_eq!(plan.rules[1].cells, Some(vec![2]));
        assert_eq!(plan.rules[2].kind, FaultKind::FsyncError);
        assert_eq!(plan.rules[2].max_attempt, 1);
        assert_eq!(plan.rules[3].kind, FaultKind::BitFlip);
    }

    #[test]
    fn crash_point_is_a_noop_when_armed_elsewhere() {
        // With the variable unset or naming a different point the call
        // must return; the firing path can only be exercised from a child
        // process (the serve crash harness covers it).
        crash_point("resil.test.point");
        std::env::set_var(CRASH_ENV_VAR, "some.other.point");
        crash_point("resil.test.point");
        std::env::remove_var(CRASH_ENV_VAR);
    }

    #[test]
    fn first_matching_rule_wins() {
        let plan = FaultPlan::new(0)
            .rule(FaultRule::at_cells(FaultKind::Hang, vec![1]))
            .rule(FaultRule::random(FaultKind::Error, 1.0));
        assert_eq!(plan.action_for(1, 0), Some(FaultKind::Hang));
        assert_eq!(plan.action_for(0, 0), Some(FaultKind::Error));
    }
}
