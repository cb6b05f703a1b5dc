//! In-memory span recorder for the traced run.
//!
//! The benchmark wraps each call it makes into a library crate in a span
//! (name, start, end, parent, op id). Spans stay in memory; the per-layer
//! summary is computed when the run ends. A span's self time is its
//! duration minus the time its direct children cover. Spans are recorded
//! on one thread, so children never overlap. An op's root span has self
//! time only where no layer span covers the op: the benchmark's own glue
//! between calls. [`Tracer::uncovered`] measures it, so work that escapes
//! every layer span shows instead of being charged to no layer.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::time::Instant;

/// One recorded span.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer entry point, e.g. `core.run_error_cell`.
    pub name: &'static str,
    /// Start, ns since the tracer was created.
    pub start_ns: u64,
    /// End, ns since the tracer was created.
    pub end_ns: u64,
    /// Index of the enclosing span.
    pub parent: Option<usize>,
    /// The op this span belongs to.
    pub op: u64,
}

#[derive(Debug, Default)]
struct Inner {
    spans: Vec<Span>,
    stack: Vec<usize>,
    op: u64,
}

/// Records spans when enabled; a disabled tracer just runs the closure.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    inner: RefCell<Inner>,
}

/// Self time and call count of one span name.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct LayerTime {
    /// Summed self time, ns.
    pub self_ns: u64,
    /// Number of spans.
    pub calls: u64,
}

impl LayerTime {
    /// Mean self time per call, in `unit_ns` units (`NaN` when never
    /// called).
    pub fn mean(&self, unit_ns: f64) -> f64 {
        if self.calls == 0 {
            f64::NAN
        } else {
            self.self_ns as f64 / self.calls as f64 / unit_ns
        }
    }
}

/// Untraced time an op may spend per recorded span: two clock reads and
/// the benchmark's glue between calls (a map lookup, a small allocation).
pub const SPAN_ALLOWANCE_NS: u64 = 5_000;

/// Time inside traced ops that no layer span covers.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Uncovered {
    /// Summed self time of the ops' root spans, ns.
    pub uncovered_ns: u64,
    /// Summed duration of the ops, ns.
    pub op_ns: u64,
    /// [`SPAN_ALLOWANCE_NS`] per recorded span, ns.
    pub allowance_ns: u64,
    /// The op with the most uncovered time, and that time, ns.
    pub worst_op: (u64, u64),
}

impl Uncovered {
    /// Uncovered share of the ops' time, percent.
    pub fn pct(&self) -> f64 {
        self.uncovered_ns as f64 * 100.0 / self.op_ns.max(1) as f64
    }

    /// `true` when the uncovered time exceeds the glue allowance: some op
    /// does work that no layer span records.
    pub fn exceeds_allowance(&self) -> bool {
        self.uncovered_ns > self.allowance_ns
    }
}

impl Tracer {
    /// A tracer that records iff `enabled`.
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            enabled,
            origin: Instant::now(),
            inner: RefCell::new(Inner::default()),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Runs `f` as op `op`: a root span named `op` that the op's layer
    /// spans nest under.
    pub fn op<T>(&self, op: u64, f: impl FnOnce() -> T) -> T {
        self.inner.borrow_mut().op = op;
        self.span("op", f)
    }

    /// Runs `f` inside a span named `name`.
    pub fn span<T>(&self, name: &'static str, f: impl FnOnce() -> T) -> T {
        if !self.enabled {
            return f();
        }
        let index = {
            let mut inner = self.inner.borrow_mut();
            let parent = inner.stack.last().copied();
            let op = inner.op;
            let index = inner.spans.len();
            inner.spans.push(Span {
                name,
                start_ns: 0,
                end_ns: 0,
                parent,
                op,
            });
            inner.stack.push(index);
            index
        };
        let start = self.now_ns();
        let out = f();
        let end = self.now_ns();
        let mut inner = self.inner.borrow_mut();
        inner.stack.pop();
        let span = &mut inner.spans[index];
        span.start_ns = start;
        span.end_ns = end;
        out
    }

    /// The recorded spans.
    #[cfg(test)]
    pub fn spans(&self) -> Vec<Span> {
        self.inner.borrow().spans.clone()
    }

    /// Self time of every span, by index.
    fn self_times(spans: &[Span]) -> Vec<u64> {
        let mut child_ns = vec![0u64; spans.len()];
        for span in spans {
            if let Some(parent) = span.parent {
                child_ns[parent] += span.end_ns - span.start_ns;
            }
        }
        spans
            .iter()
            .zip(&child_ns)
            .map(|(s, &c)| (s.end_ns - s.start_ns).saturating_sub(c))
            .collect()
    }

    /// Self time and calls per span name.
    pub fn layers(&self) -> BTreeMap<&'static str, LayerTime> {
        let spans = self.inner.borrow();
        let self_ns = Self::self_times(&spans.spans);
        let mut out: BTreeMap<&'static str, LayerTime> = BTreeMap::new();
        for (span, ns) in spans.spans.iter().zip(self_ns) {
            let entry = out.entry(span.name).or_default();
            entry.self_ns += ns;
            entry.calls += 1;
        }
        out
    }

    /// Time inside ops that no layer span covers (the root spans' own
    /// self time), against the glue allowance of the spans recorded.
    pub fn uncovered(&self) -> Uncovered {
        let inner = self.inner.borrow();
        let spans = &inner.spans;
        let self_ns = Self::self_times(spans);
        let mut out = Uncovered::default();
        for (span, ns) in spans.iter().zip(self_ns) {
            out.allowance_ns += SPAN_ALLOWANCE_NS;
            if span.parent.is_none() {
                out.uncovered_ns += ns;
                out.op_ns += span.end_ns - span.start_ns;
                if ns > out.worst_op.1 {
                    out.worst_op = (span.op, ns);
                }
            }
        }
        out
    }

    /// Number of recorded spans.
    pub fn len(&self) -> usize {
        self.inner.borrow().spans.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spin(n: u64) -> u64 {
        (0..n).fold(0u64, |a, i| std::hint::black_box(a.wrapping_add(i)))
    }

    #[test]
    fn self_times_sum_to_each_op() {
        let t = Tracer::new(true);
        for op in 0..5 {
            t.op(op, || {
                t.span("a", || {
                    spin(20_000);
                    t.span("b", || spin(50_000));
                    t.span("c", || t.span("d", || spin(10_000)));
                });
                t.span("e", || spin(5_000));
            });
        }
        assert!(!t.uncovered().exceeds_allowance(), "{:?}", t.uncovered());
        let layers = t.layers();
        assert_eq!(layers["op"].calls, 5);
        assert_eq!(layers["d"].calls, 5);
        let total: u64 = layers.values().map(|l| l.self_ns).sum();
        let roots: u64 = t
            .spans()
            .iter()
            .filter(|s| s.parent.is_none())
            .map(|s| s.end_ns - s.start_ns)
            .sum();
        assert_eq!(total, roots);
    }

    #[test]
    fn untraced_work_in_an_op_is_flagged() {
        let t = Tracer::new(true);
        for op in 0..3 {
            t.op(op, || {
                t.span("a", || spin(1_000));
                // Work outside every layer span: lands in the root's self
                // time.
                let started = Instant::now();
                while started.elapsed().as_micros() < 500 {
                    spin(100);
                }
            });
        }
        let uncovered = t.uncovered();
        assert!(uncovered.exceeds_allowance(), "{uncovered:?}");
        assert!(uncovered.pct() > 50.0, "{uncovered:?}");
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let t = Tracer::new(false);
        assert_eq!(t.op(1, || t.span("x", || 41) + 1), 42);
        assert_eq!(t.len(), 0);
    }
}
