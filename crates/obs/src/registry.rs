//! Global metrics registry: counters, gauges, and log-linear histograms
//! ([`crate::hist`]).
//!
//! Every metric is **always on**: recording is a relaxed atomic add on a
//! pre-resolved handle (see the [`counter!`], [`gauge!`], and
//! [`histogram!`] macros, which cache the registry lookup in a
//! `OnceLock`), cheap enough to leave enabled in release builds. Wall time
//! is the span tracer's business ([`crate::trace`]), never the registry's.
//!
//! Determinism contract: every counter/gauge/histogram in the workspace
//! records *work counts* (matchings solved, SAT queries issued, combos
//! enumerated), never scheduling- or time-dependent quantities. Together
//! with the engine's single-flight artifact cache this makes
//! [`MetricsSnapshot::render_deterministic`] byte-identical across worker
//! counts.
//!
//! [`counter!`]: crate::counter
//! [`gauge!`]: crate::gauge
//! [`histogram!`]: crate::histogram

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

use crate::hist::{Histogram, HistogramSnapshot};
use crate::json::Json;

/// A monotonically increasing counter (relaxed atomic).
#[derive(Clone, Debug, Default)]
pub struct Counter {
    value: Arc<AtomicU64>,
}

impl Counter {
    /// Adds one.
    pub fn inc(&self) {
        self.add(1);
    }

    /// Adds `n`.
    pub fn add(&self, n: u64) {
        self.value.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.value.load(Ordering::Relaxed)
    }
}

/// A last-write-wins gauge (relaxed atomic).
#[derive(Clone, Debug, Default)]
pub struct Gauge {
    value: Arc<AtomicU64>,
}

impl Gauge {
    /// Sets the gauge.
    pub fn set(&self, v: u64) {
        self.value.store(v, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.value.load(Ordering::Relaxed)
    }
}

/// A named collection of metrics. Most code uses [`Registry::global`] via
/// the [`counter!`]/[`gauge!`]/[`histogram!`] macros; tests can build
/// private registries.
///
/// [`counter!`]: crate::counter
/// [`gauge!`]: crate::gauge
/// [`histogram!`]: crate::histogram
#[derive(Debug, Default)]
pub struct Registry {
    counters: Mutex<BTreeMap<String, Counter>>,
    gauges: Mutex<BTreeMap<String, Gauge>>,
    histograms: Mutex<BTreeMap<String, Histogram>>,
}

impl Registry {
    /// An empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// The process-wide registry.
    pub fn global() -> &'static Registry {
        static GLOBAL: OnceLock<Registry> = OnceLock::new();
        GLOBAL.get_or_init(Registry::new)
    }

    /// Returns (registering on first use) the counter `name`.
    pub fn counter(&self, name: &str) -> Counter {
        self.counters
            .lock()
            .expect("registry poisoned")
            .entry(name.to_string())
            .or_default()
            .clone()
    }

    /// Returns (registering on first use) the gauge `name`.
    pub fn gauge(&self, name: &str) -> Gauge {
        self.gauges
            .lock()
            .expect("registry poisoned")
            .entry(name.to_string())
            .or_default()
            .clone()
    }

    /// Returns (registering on first use) the histogram `name`.
    pub fn histogram(&self, name: &str) -> Histogram {
        self.histograms
            .lock()
            .expect("registry poisoned")
            .entry(name.to_string())
            .or_default()
            .clone()
    }

    /// A point-in-time copy of every registered metric.
    pub fn snapshot(&self) -> MetricsSnapshot {
        MetricsSnapshot {
            counters: self
                .counters
                .lock()
                .expect("registry poisoned")
                .iter()
                .map(|(name, c)| (name.clone(), c.get()))
                .collect(),
            gauges: self
                .gauges
                .lock()
                .expect("registry poisoned")
                .iter()
                .map(|(name, g)| (name.clone(), g.get()))
                .collect(),
            histograms: self
                .histograms
                .lock()
                .expect("registry poisoned")
                .iter()
                .map(|(name, h)| (name.clone(), h.snapshot()))
                .collect(),
        }
    }
}

/// A point-in-time copy of a [`Registry`], or (via [`delta_from`]) the
/// activity between two snapshots.
///
/// [`delta_from`]: MetricsSnapshot::delta_from
#[derive(Debug, Clone, Default, PartialEq)]
pub struct MetricsSnapshot {
    /// Counter values by name.
    pub counters: BTreeMap<String, u64>,
    /// Gauge values by name.
    pub gauges: BTreeMap<String, u64>,
    /// Histogram buckets by name.
    pub histograms: BTreeMap<String, HistogramSnapshot>,
}

impl MetricsSnapshot {
    /// The activity accumulated *since* `earlier` (the registry is
    /// process-global, so per-run metrics subtract the pre-run snapshot).
    /// Metrics with no activity in the window are dropped; gauges keep
    /// their latest value.
    pub fn delta_from(&self, earlier: &MetricsSnapshot) -> MetricsSnapshot {
        let counters = self
            .counters
            .iter()
            .filter_map(|(name, &v)| {
                let d = v.saturating_sub(earlier.counters.get(name).copied().unwrap_or(0));
                (d > 0).then(|| (name.clone(), d))
            })
            .collect();
        let histograms = self
            .histograms
            .iter()
            .filter_map(|(name, h)| {
                let d = match earlier.histograms.get(name) {
                    Some(prev) => h.delta_from(prev),
                    None => h.clone(),
                };
                (d.count() > 0).then(|| (name.clone(), d))
            })
            .collect();
        MetricsSnapshot {
            counters,
            gauges: self.gauges.clone(),
            histograms,
        }
    }

    /// Counter values whose name starts with `prefix`, in sorted (BTree)
    /// order. Subsystem exporters use this to pull out one dotted
    /// namespace — e.g. the serve daemon's `serve.*` request aggregates —
    /// without copying the whole snapshot.
    pub fn counters_with_prefix<'a>(
        &'a self,
        prefix: &'a str,
    ) -> impl Iterator<Item = (&'a str, u64)> + 'a {
        self.counters
            .range(prefix.to_string()..)
            .take_while(move |(name, _)| name.starts_with(prefix))
            .map(|(name, &v)| (name.as_str(), v))
    }

    /// `true` when the snapshot records no activity at all.
    pub fn is_empty(&self) -> bool {
        self.counters.is_empty() && self.gauges.is_empty() && self.histograms.is_empty()
    }

    /// A canonical text rendering of every **work count** in the snapshot:
    /// counters, gauges, and histogram buckets (the non-empty ones, as
    /// `upper:count`). Byte-identical across worker counts for a
    /// deterministic workload; this is what the determinism tests compare.
    pub fn render_deterministic(&self) -> String {
        let mut out = String::new();
        for (name, v) in &self.counters {
            out.push_str(&format!("counter {name} {v}\n"));
        }
        for (name, v) in &self.gauges {
            out.push_str(&format!("gauge {name} {v}\n"));
        }
        for (name, h) in &self.histograms {
            let buckets: Vec<String> = h.buckets().map(|(u, c)| format!("{u}:{c}")).collect();
            out.push_str(&format!("histogram {name} [{}]\n", buckets.join(",")));
        }
        out
    }

    /// The snapshot as a JSON tree. Histograms render as objects of their
    /// non-empty buckets, `{"upper": count}`.
    pub fn to_json(&self) -> Json {
        Json::obj([
            (
                "counters",
                Json::obj(
                    self.counters
                        .iter()
                        .map(|(k, &v)| (k.clone(), Json::from(v))),
                ),
            ),
            (
                "gauges",
                Json::obj(self.gauges.iter().map(|(k, &v)| (k.clone(), Json::from(v)))),
            ),
            (
                "histograms",
                Json::obj(self.histograms.iter().map(|(k, h)| {
                    let buckets = h.buckets().map(|(u, c)| (u.to_string(), Json::from(c)));
                    (k.clone(), Json::obj(buckets))
                })),
            ),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_and_gauges_roundtrip() {
        let reg = Registry::new();
        let c = reg.counter("x.count");
        c.inc();
        c.add(4);
        assert_eq!(reg.counter("x.count").get(), 5, "same name, same counter");
        reg.gauge("x.level").set(42);
        assert_eq!(reg.gauge("x.level").get(), 42);
    }

    #[test]
    fn histogram_handles_share_one_registration() {
        let reg = Registry::new();
        reg.histogram("h").record(15);
        reg.histogram("h").record_n(3, 2);
        let buckets: Vec<(u64, u64)> = reg.snapshot().histograms["h"].buckets().collect();
        assert_eq!(buckets, vec![(3, 2), (15, 1)]);
    }

    #[test]
    fn snapshot_delta_drops_idle_metrics() {
        let reg = Registry::new();
        reg.counter("a").add(10);
        reg.counter("idle").add(3);
        reg.histogram("h").record(2);
        let before = reg.snapshot();
        reg.counter("a").add(7);
        reg.counter("new").inc();
        reg.histogram("h").record(100);
        reg.gauge("g").set(5);
        let delta = reg.snapshot().delta_from(&before);
        assert_eq!(delta.counters.get("a"), Some(&7));
        assert_eq!(delta.counters.get("new"), Some(&1));
        assert!(!delta.counters.contains_key("idle"));
        let h = &delta.histograms["h"];
        assert_eq!(h.buckets().collect::<Vec<_>>(), vec![(101, 1)]);
        assert_eq!(h.sum, 100);
        assert_eq!(delta.gauges.get("g"), Some(&5));
    }

    #[test]
    fn deterministic_render_is_sorted_and_time_free() {
        let reg = Registry::new();
        reg.counter("z.last").inc();
        reg.counter("a.first").add(2);
        reg.histogram("h").record(9);
        reg.histogram("h").record(40);
        let text = reg.snapshot().render_deterministic();
        assert_eq!(
            text,
            "counter a.first 2\ncounter z.last 1\nhistogram h [9:1,40:1]\n"
        );
        assert!(!text.contains("ns"), "no wall-time data in canonical form");
    }

    #[test]
    fn counters_with_prefix_selects_one_namespace() {
        let reg = Registry::new();
        reg.counter("serve.ok").add(4);
        reg.counter("serve.shed").add(1);
        reg.counter("served_elsewhere").add(9); // prefix, not namespace
        reg.counter("cache.hit").add(2);
        let snap = reg.snapshot();
        let serve: Vec<(&str, u64)> = snap.counters_with_prefix("serve.").collect();
        assert_eq!(serve, vec![("serve.ok", 4), ("serve.shed", 1)]);
        assert_eq!(snap.counters_with_prefix("attack.").count(), 0);
    }

    #[test]
    fn snapshot_json_is_well_formed() {
        let reg = Registry::new();
        reg.counter("c").add(3);
        reg.gauge("g").set(1);
        reg.histogram("h").record(1);
        let json = reg.snapshot().to_json().render();
        assert!(json.contains("\"c\":3"), "{json}");
        assert!(json.contains("\"h\":{\"1\":1}"), "{json}");
    }
}
