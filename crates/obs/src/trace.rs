//! Span-based tracer: RAII guards, thread-local span stacks, monotonic
//! timestamps, and pluggable sinks.
//!
//! A span is opened with the [`span!`](crate::span) macro and closed when
//! the guard drops; nesting depth and a per-context sequence number are
//! tracked in a thread-local stack. The engine worker pool brackets each
//! experiment cell in a [`CellScope`], which tags every span opened inside
//! the cell with the cell index and worker id and restarts the sequence
//! counter — so a trace can be merged *deterministically by cell order*
//! even though workers interleave freely.
//!
//! Tracing is **off by default**: with no sink installed, opening a span is
//! a single relaxed atomic load and no arguments are materialized. Install
//! a sink ([`install_collector`] or [`set_sink`]) to start recording.

use std::cell::RefCell;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;

use crate::json::{write_escaped, write_f64};

static TRACING: AtomicBool = AtomicBool::new(false);

/// Whether a sink is installed and spans are being recorded.
pub fn tracing_enabled() -> bool {
    TRACING.load(Ordering::Relaxed)
}

/// The process-wide monotonic epoch all span timestamps are relative to
/// (pinned on first use, normally when the sink is installed).
fn epoch() -> Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

fn now_ns() -> u64 {
    epoch().elapsed().as_nanos() as u64
}

/// One span argument value.
#[derive(Debug, Clone, PartialEq)]
pub enum ArgValue {
    /// Unsigned integer.
    UInt(u64),
    /// Signed integer.
    Int(i64),
    /// Floating point.
    Float(f64),
    /// String.
    Str(String),
    /// Boolean.
    Bool(bool),
}

impl ArgValue {
    /// Writes the value as a JSON leaf. A signed integer renders as a
    /// number like a float.
    pub(crate) fn write_json(&self, out: &mut String) {
        match self {
            ArgValue::UInt(v) => {
                let _ = write!(out, "{v}");
            }
            ArgValue::Int(v) => write_f64(out, *v as f64),
            ArgValue::Float(v) => write_f64(out, *v),
            ArgValue::Str(s) => write_escaped(out, s),
            ArgValue::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
        }
    }
}

impl From<u64> for ArgValue {
    fn from(v: u64) -> Self {
        ArgValue::UInt(v)
    }
}
impl From<usize> for ArgValue {
    fn from(v: usize) -> Self {
        ArgValue::UInt(v as u64)
    }
}
impl From<u32> for ArgValue {
    fn from(v: u32) -> Self {
        ArgValue::UInt(v as u64)
    }
}
impl From<i64> for ArgValue {
    fn from(v: i64) -> Self {
        ArgValue::Int(v)
    }
}
impl From<i32> for ArgValue {
    fn from(v: i32) -> Self {
        ArgValue::Int(v as i64)
    }
}
impl From<f64> for ArgValue {
    fn from(v: f64) -> Self {
        ArgValue::Float(v)
    }
}
impl From<bool> for ArgValue {
    fn from(v: bool) -> Self {
        ArgValue::Bool(v)
    }
}
impl From<&str> for ArgValue {
    fn from(v: &str) -> Self {
        ArgValue::Str(v.to_string())
    }
}
impl From<String> for ArgValue {
    fn from(v: String) -> Self {
        ArgValue::Str(v)
    }
}

/// One closed span (or instant event) as handed to the sink.
#[derive(Debug, Clone, PartialEq)]
pub struct SpanRecord {
    /// Span name (static, e.g. `"codesign.heuristic"`).
    pub name: &'static str,
    /// Structured arguments captured at open.
    pub args: Vec<(&'static str, ArgValue)>,
    /// Experiment-cell index, when opened inside a [`CellScope`].
    pub cell: Option<u64>,
    /// Worker-thread id, when opened inside a [`CellScope`].
    pub worker: Option<u64>,
    /// Open order within the enclosing cell scope (or thread).
    pub seq: u64,
    /// Nesting depth at open (0 = top level).
    pub depth: u32,
    /// Open timestamp, nanoseconds since the trace epoch.
    pub start_ns: u64,
    /// Duration in nanoseconds (0 for instant events).
    pub dur_ns: u64,
    /// `true` for zero-duration instant events.
    pub instant: bool,
}

impl SpanRecord {
    /// Sort key giving a scheduling-independent structural order: spans
    /// group by cell (non-cell spans first) and order by open sequence
    /// within the cell.
    pub fn structural_key(&self) -> (u64, u64, u64) {
        (self.cell.map_or(0, |c| c + 1), self.seq, self.start_ns)
    }
}

struct ThreadCtx {
    cell: Option<u64>,
    worker: Option<u64>,
    seq: u64,
    depth: u32,
}

thread_local! {
    static CTX: RefCell<ThreadCtx> = const {
        RefCell::new(ThreadCtx { cell: None, worker: None, seq: 0, depth: 0 })
    };
}

/// RAII marker bracketing one experiment cell: spans opened while the scope
/// is alive are tagged with `cell`/`worker` and sequence-numbered from 0.
/// Restores the previous context on drop (scopes nest).
pub struct CellScope {
    prev: Option<(Option<u64>, Option<u64>, u64, u32)>,
}

impl CellScope {
    /// Enters a cell context on the current thread.
    pub fn enter(cell: u64, worker: u64) -> CellScope {
        let prev = CTX.with(|ctx| {
            let mut ctx = ctx.borrow_mut();
            let prev = (ctx.cell, ctx.worker, ctx.seq, ctx.depth);
            ctx.cell = Some(cell);
            ctx.worker = Some(worker);
            ctx.seq = 0;
            ctx.depth = 0;
            prev
        });
        CellScope { prev: Some(prev) }
    }
}

impl Drop for CellScope {
    fn drop(&mut self) {
        if let Some((cell, worker, seq, depth)) = self.prev.take() {
            CTX.with(|ctx| {
                let mut ctx = ctx.borrow_mut();
                ctx.cell = cell;
                ctx.worker = worker;
                ctx.seq = seq;
                ctx.depth = depth;
            });
        }
    }
}

struct OpenSpan {
    name: &'static str,
    args: Vec<(&'static str, ArgValue)>,
    cell: Option<u64>,
    worker: Option<u64>,
    seq: u64,
    depth: u32,
    start_ns: u64,
}

/// RAII guard for one open span; records to the sink on drop. Created via
/// the [`span!`](crate::span) macro.
#[must_use = "the span closes when the guard drops"]
pub struct SpanGuard {
    open: Option<OpenSpan>,
}

impl SpanGuard {
    /// Opens a span; `args` is only invoked when tracing is enabled.
    pub fn enter(
        name: &'static str,
        args: impl FnOnce() -> Vec<(&'static str, ArgValue)>,
    ) -> SpanGuard {
        if !tracing_enabled() {
            return SpanGuard { open: None };
        }
        let (cell, worker, seq, depth) = CTX.with(|ctx| {
            let mut ctx = ctx.borrow_mut();
            let seq = ctx.seq;
            let depth = ctx.depth;
            ctx.seq += 1;
            ctx.depth += 1;
            (ctx.cell, ctx.worker, seq, depth)
        });
        SpanGuard {
            open: Some(OpenSpan {
                name,
                args: args(),
                cell,
                worker,
                seq,
                depth,
                start_ns: now_ns(),
            }),
        }
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        if let Some(open) = self.open.take() {
            let dur_ns = now_ns().saturating_sub(open.start_ns);
            CTX.with(|ctx| {
                let mut ctx = ctx.borrow_mut();
                ctx.depth = ctx.depth.saturating_sub(1);
            });
            record(SpanRecord {
                name: open.name,
                args: open.args,
                cell: open.cell,
                worker: open.worker,
                seq: open.seq,
                depth: open.depth,
                start_ns: open.start_ns,
                dur_ns,
                instant: false,
            });
        }
    }
}

/// Emits a zero-duration instant event (e.g. `engine.fail_fast_abort`).
/// A no-op when tracing is disabled.
pub fn instant(name: &'static str, args: impl FnOnce() -> Vec<(&'static str, ArgValue)>) {
    if !tracing_enabled() {
        return;
    }
    let (cell, worker, seq, depth) = CTX.with(|ctx| {
        let mut ctx = ctx.borrow_mut();
        let seq = ctx.seq;
        ctx.seq += 1;
        (ctx.cell, ctx.worker, seq, ctx.depth)
    });
    record(SpanRecord {
        name,
        args: args(),
        cell,
        worker,
        seq,
        depth,
        start_ns: now_ns(),
        dur_ns: 0,
        instant: true,
    });
}

/// A destination for closed spans.
pub trait SpanSink: Send + Sync {
    /// Receives one closed span.
    fn record(&self, span: SpanRecord);
}

static SINK: Mutex<Option<Arc<dyn SpanSink>>> = Mutex::new(None);

/// Installs (or, with `None`, removes) the global span sink. Installing a
/// sink enables tracing and pins the trace epoch.
pub fn set_sink(sink: Option<Arc<dyn SpanSink>>) {
    let mut slot = SINK.lock().expect("span sink poisoned");
    if sink.is_some() {
        let _ = epoch();
    }
    TRACING.store(sink.is_some(), Ordering::SeqCst);
    *slot = sink;
}

fn record(span: SpanRecord) {
    let sink = SINK.lock().expect("span sink poisoned").clone();
    if let Some(sink) = sink {
        sink.record(span);
    }
}

/// An in-memory sink collecting spans for export.
#[derive(Default)]
pub struct CollectingSink {
    spans: Mutex<Vec<SpanRecord>>,
}

impl CollectingSink {
    /// Takes every collected span, sorted by
    /// [`SpanRecord::structural_key`] so the order is stable across worker
    /// counts.
    pub fn drain_sorted(&self) -> Vec<SpanRecord> {
        let mut spans = std::mem::take(&mut *self.spans.lock().expect("collector poisoned"));
        spans.sort_by_key(SpanRecord::structural_key);
        spans
    }

    /// Number of spans currently held.
    pub fn len(&self) -> usize {
        self.spans.lock().expect("collector poisoned").len()
    }

    /// Whether no spans have been collected.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl SpanSink for CollectingSink {
    fn record(&self, span: SpanRecord) {
        self.spans.lock().expect("collector poisoned").push(span);
    }
}

/// Installs a fresh [`CollectingSink`] as the global sink and returns it.
pub fn install_collector() -> Arc<CollectingSink> {
    let collector = Arc::new(CollectingSink::default());
    set_sink(Some(Arc::clone(&collector) as Arc<dyn SpanSink>));
    collector
}

#[cfg(test)]
mod tests {
    use super::*;

    /// One test owns the global sink end-to-end: the sink is process-wide,
    /// so nesting, cell tagging, and cross-thread behavior are exercised in
    /// a single body rather than racing across parallel #[test]s.
    #[test]
    fn spans_nest_tag_cells_and_merge_across_threads() {
        let collector = install_collector();

        // Nesting on one thread: depths 0/1/1, sequence in open order.
        {
            let _outer = crate::span!("outer", kind = "unit");
            {
                let _inner = crate::span!("inner", step = 1u64);
            }
            {
                let _inner2 = crate::span!("inner2");
            }
        }
        let spans = collector.drain_sorted();
        assert_eq!(
            spans.iter().map(|s| s.name).collect::<Vec<_>>(),
            vec!["outer", "inner", "inner2"],
            "structural order is open order"
        );
        let outer = spans.iter().find(|s| s.name == "outer").unwrap();
        let inner = spans.iter().find(|s| s.name == "inner").unwrap();
        assert_eq!((outer.depth, inner.depth), (0, 1));
        assert!(outer.dur_ns >= inner.dur_ns, "parent covers child");
        assert_eq!(outer.args, vec![("kind", ArgValue::from("unit"))]);
        assert!(outer.cell.is_none());

        // Cell scopes on worker threads: spans carry cell/worker tags and
        // per-cell sequence numbers; drain order is cell order regardless
        // of which thread finished first.
        std::thread::scope(|scope| {
            for (cell, worker) in [(7u64, 1u64), (3, 0)] {
                scope.spawn(move || {
                    let _scope = CellScope::enter(cell, worker);
                    let _span = crate::span!("cell_body", cell = cell);
                    let _nested = crate::span!("cell_step");
                });
            }
        });
        let spans = collector.drain_sorted();
        assert_eq!(spans.len(), 4);
        assert_eq!(
            spans
                .iter()
                .map(|s| (s.cell.unwrap(), s.name, s.seq))
                .collect::<Vec<_>>(),
            vec![
                (3, "cell_body", 0),
                (3, "cell_step", 1),
                (7, "cell_body", 0),
                (7, "cell_step", 1),
            ],
            "merged deterministically by cell order"
        );
        assert_eq!(spans[0].worker, Some(0));
        assert_eq!(spans[2].worker, Some(1));

        // Instant events record with zero duration.
        instant("marker", Vec::new);
        let spans = collector.drain_sorted();
        assert_eq!(spans.len(), 1);
        assert!(spans[0].instant);
        assert_eq!(spans[0].dur_ns, 0);

        // Removing the sink disables tracing entirely.
        set_sink(None);
        assert!(!tracing_enabled());
        {
            let _ignored = crate::span!("after_shutdown");
        }
        assert!(collector.is_empty());
    }
}
