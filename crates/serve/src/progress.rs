//! Streaming progress: routing engine spans to interested requests.
//!
//! The engine already narrates its work as `obs` spans
//! (`prepare.kernel`, `codesign.heuristic`, ...), each tagged with the
//! cell id of the enclosing [`CellScope`]. The server runs every
//! request under a unique cell id, so progress streaming is pure
//! routing: a process-global [`ProgressRouter`] forwards each closed span
//! to the subscriber registered for its cell id, if any.
//!
//! The router is the global span sink only while it has a subscriber.
//! With no `progress: true` request in flight, opening a span in the
//! daemon is one relaxed load, as in any untraced run; while one is in
//! flight, concurrent requests record their spans too and each costs one
//! map lookup that finds no subscriber.
//!
//! Progress frames carry the span *name* and a per-request ordinal, not
//! durations — a deterministic job therefore emits a deterministic
//! progress stream, matching the response-body determinism guarantee.
//!
//! [`CellScope`]: lockbind_obs::CellScope

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

use lockbind_obs::trace::{set_sink, SpanRecord, SpanSink};

/// A progress callback: receives the per-request ordinal and the span.
pub type ProgressFn = Box<dyn Fn(u64, &SpanRecord) + Send + Sync>;

struct Subscriber {
    ordinal: AtomicU64,
    callback: ProgressFn,
}

/// Routes closed spans to per-request subscribers by cell id.
#[derive(Default)]
pub struct ProgressRouter {
    subscribers: Mutex<HashMap<u64, Arc<Subscriber>>>,
    /// Whether the router installs itself as the global span sink while
    /// it has a subscriber (only [`ProgressRouter::global`] does).
    owns_sink: bool,
}

/// Monotonic request-sequence source: unique cell ids across every
/// server instance in the process (integration tests start several).
static NEXT_REQUEST_SEQ: AtomicU64 = AtomicU64::new(1);

/// Allocates a fresh request sequence number (cell id).
pub fn next_request_seq() -> u64 {
    NEXT_REQUEST_SEQ.fetch_add(1, Ordering::Relaxed)
}

static ROUTER: OnceLock<Arc<ProgressRouter>> = OnceLock::new();

impl ProgressRouter {
    /// The process-global router, the global span sink while it has a
    /// subscriber.
    pub fn global() -> &'static Arc<ProgressRouter> {
        ROUTER.get_or_init(|| {
            Arc::new(ProgressRouter {
                owns_sink: true,
                ..ProgressRouter::default()
            })
        })
    }

    /// Registers `callback` for spans of request `seq`. Returns a guard
    /// that unregisters on drop (also covering panic unwinds).
    pub fn subscribe(self: &Arc<Self>, seq: u64, callback: ProgressFn) -> ProgressGuard<'_> {
        let subscriber = Arc::new(Subscriber {
            ordinal: AtomicU64::new(0),
            callback,
        });
        let mut map = self.subscribers.lock().expect("progress router poisoned");
        map.insert(seq, subscriber);
        // The sink changes under the map lock, so it is installed exactly
        // while the map is non-empty. `record` never holds the sink lock
        // while it takes the map lock, so the order cannot deadlock.
        if self.owns_sink && map.len() == 1 {
            set_sink(Some(Arc::clone(self) as Arc<dyn SpanSink>));
        }
        ProgressGuard { router: self, seq }
    }
}

impl SpanSink for ProgressRouter {
    fn record(&self, span: SpanRecord) {
        let Some(cell) = span.cell else { return };
        let subscriber = {
            let map = self.subscribers.lock().expect("progress router poisoned");
            map.get(&cell).cloned()
        };
        if let Some(subscriber) = subscriber {
            // Ordinal assignment and callback run outside the map lock so
            // a slow writer never stalls other requests' span delivery.
            let ordinal = subscriber.ordinal.fetch_add(1, Ordering::Relaxed);
            (subscriber.callback)(ordinal, &span);
        }
    }
}

/// Unsubscribes its request on drop.
pub struct ProgressGuard<'a> {
    router: &'a ProgressRouter,
    seq: u64,
}

impl Drop for ProgressGuard<'_> {
    fn drop(&mut self) {
        let mut map = self
            .router
            .subscribers
            .lock()
            .expect("progress router poisoned");
        map.remove(&self.seq);
        if self.router.owns_sink && map.is_empty() {
            set_sink(None);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span_for_cell(cell: Option<u64>) -> SpanRecord {
        SpanRecord {
            name: "prepare.kernel",
            args: Vec::new(),
            cell,
            worker: Some(0),
            seq: 0,
            depth: 0,
            start_ns: 0,
            dur_ns: 0,
            instant: false,
        }
    }

    #[test]
    fn routes_by_cell_and_unsubscribes_on_drop() {
        // A private router instance: the global one would install itself
        // as the process-wide span sink, which other tests don't expect.
        let router = Arc::new(ProgressRouter::default());
        let seen = Arc::new(Mutex::new(Vec::new()));
        {
            let sink = Arc::clone(&seen);
            let _guard = router.subscribe(
                42,
                Box::new(move |ordinal, span| {
                    sink.lock().expect("lock").push((ordinal, span.name));
                }),
            );
            router.record(span_for_cell(Some(42)));
            router.record(span_for_cell(Some(7))); // not subscribed
            router.record(span_for_cell(None)); // no cell scope
            router.record(span_for_cell(Some(42)));
        }
        router.record(span_for_cell(Some(42))); // after unsubscribe
        assert_eq!(
            *seen.lock().expect("lock"),
            vec![(0, "prepare.kernel"), (1, "prepare.kernel")]
        );
    }

    #[test]
    fn request_seqs_are_unique() {
        let a = next_request_seq();
        let b = next_request_seq();
        assert_ne!(a, b);
    }
}
