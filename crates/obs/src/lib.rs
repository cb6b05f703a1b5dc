//! Observability for the lockbind workspace: structured tracing, a global
//! metrics registry, and exporters — hand-rolled, zero dependencies (the
//! build environment has no registry access, like `compat/`).
//!
//! Two tiers, by cost:
//!
//! * **Counters / gauges / histograms** ([`registry`], [`hist`]) — always
//!   on. A relaxed atomic add on a handle cached in a `OnceLock`, cheap
//!   enough for release builds and innermost loops (`matching.augment_paths`,
//!   `sat.queries`, `codesign.combos_evaluated`, `cache.{hit,miss}`).
//! * **Spans** ([`trace`]) — the one way to time a scope: RAII guards with
//!   thread-local nesting, cell tagging, and monotonic timestamps,
//!   delivered to a pluggable sink. Enabled by installing a sink; a no-op
//!   load when off.
//!
//! Exporters: [`chrome::write_chrome_trace`] writes a
//! chrome://tracing-compatible `trace.json`, [`profile::render_profile`]
//! prints a per-stage text table. The engine's `--trace` / `--profile`
//! flags wire both into every figure binary.
//!
//! # Naming conventions
//!
//! Dotted lowercase paths, `subsystem.quantity`: `matching.solves`,
//! `sat.queries`, `bind.obf`, `codesign.combos_evaluated`, `cache.hit`.
//! Spans use the same scheme (`codesign.heuristic`, `attack.sat`); engine
//! cell spans are named by their [`Job::stage`] string.
//!
//! Metrics must record **deterministic work counts** — quantities that are
//! identical at any worker count — never durations or scheduling facts.
//! Wall time belongs in spans, which never reach the registry or
//! [`MetricsSnapshot::render_deterministic`].
//!
//! [`Job::stage`]: https://docs.rs/lockbind-engine
//!
//! # Example
//!
//! ```
//! use lockbind_obs as obs;
//!
//! let collector = obs::trace::install_collector();
//!
//! {
//!     let _span = obs::span!("bind_cycle", cycle = 3u64);
//!     obs::counter!("matching.solves").inc();
//! }
//!
//! let spans = collector.drain_sorted();
//! assert_eq!(spans[0].name, "bind_cycle");
//! assert!(obs::Registry::global().snapshot().counters["matching.solves"] >= 1);
//! obs::trace::set_sink(None);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod chrome;
pub mod hist;
pub mod json;
pub mod profile;
pub mod registry;
pub mod trace;

pub use chrome::{chrome_trace, write_chrome_trace};
pub use hist::{Histogram, HistogramSnapshot};
pub use json::Json;
pub use profile::render_profile;
pub use registry::{Counter, Gauge, MetricsSnapshot, Registry};
pub use trace::{
    install_collector, tracing_enabled, ArgValue, CellScope, CollectingSink, SpanGuard, SpanRecord,
    SpanSink,
};

/// Resolves (once) and returns a `&'static` [`Counter`] from the global
/// registry: `obs::counter!("sat.queries").inc()`.
#[macro_export]
macro_rules! counter {
    ($name:expr) => {{
        static HANDLE: ::std::sync::OnceLock<$crate::Counter> = ::std::sync::OnceLock::new();
        HANDLE.get_or_init(|| $crate::Registry::global().counter($name))
    }};
}

/// Resolves (once) and returns a `&'static` [`Gauge`] from the global
/// registry: `obs::gauge!("cache.entries").set(n)`.
#[macro_export]
macro_rules! gauge {
    ($name:expr) => {{
        static HANDLE: ::std::sync::OnceLock<$crate::Gauge> = ::std::sync::OnceLock::new();
        HANDLE.get_or_init(|| $crate::Registry::global().gauge($name))
    }};
}

/// Resolves (once) and returns a `&'static` [`Histogram`] from the global
/// registry: `obs::histogram!("sat.conflicts_per_dip").record(v)`.
#[macro_export]
macro_rules! histogram {
    ($name:expr) => {{
        static HANDLE: ::std::sync::OnceLock<$crate::Histogram> = ::std::sync::OnceLock::new();
        HANDLE.get_or_init(|| $crate::Registry::global().histogram($name))
    }};
}

/// Opens a span, returning the RAII guard:
/// `let _s = obs::span!("bind_cycle", cycle = c);`. Argument expressions
/// are evaluated only when tracing is enabled.
#[macro_export]
macro_rules! span {
    ($name:expr $(, $key:ident = $val:expr)* $(,)?) => {
        $crate::trace::SpanGuard::enter($name, || {
            ::std::vec![$((stringify!($key), $crate::trace::ArgValue::from($val))),*]
        })
    };
}
