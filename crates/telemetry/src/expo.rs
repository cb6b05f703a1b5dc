//! Prometheus-style text exposition.
//!
//! [`render_prometheus`] merges the two metric layers into one scrape
//! document:
//!
//! - **obs counters** (deterministic work counts) become
//!   `lockbind_<name>_total` counter series, names sanitized by mapping
//!   every non-`[a-zA-Z0-9_]` byte to `_` (so `serve.requests` scrapes
//!   as `lockbind_serve_requests_total`);
//! - **telemetry state** (wall-clock flavored) becomes gauges
//!   (`lockbind_inflight`, `lockbind_slo_burn_short`, …) labelled by
//!   tenant, plus one cumulative histogram `lockbind_latency_us` with a
//!   fixed `le` ladder, `_sum`, and `_count`.
//!
//! Format contract (validated by the CI `telemetry` job):
//!
//! - every metric family is preceded by exactly one `# HELP` and one
//!   `# TYPE` line;
//! - no family name appears twice;
//! - counter families (including histogram `_bucket`/`_sum`/`_count`
//!   series) are monotone across successive scrapes — which is why the
//!   histogram renders from the **cumulative** latency histogram, never
//!   the windowed one.

use std::fmt::Write as _;

use lockbind_obs::{HistogramSnapshot, MetricsSnapshot};

use crate::TelemetrySnapshot;

/// `le` ladder (µs) for the exposed latency histogram. Bounds are
/// cumulative counts of telemetry buckets whose upper bound fits, so
/// each series can overstate a bound by at most one sub-bucket (~3%)
/// and is exactly monotone across scrapes.
pub const LATENCY_LE_US: [u64; 14] = [
    50, 100, 250, 500, 1_000, 2_500, 5_000, 10_000, 25_000, 50_000, 100_000, 250_000, 1_000_000,
    5_000_000,
];

/// Maps a dotted obs name onto the Prometheus grammar.
pub fn sanitize(name: &str) -> String {
    let mut out: String = name
        .chars()
        .map(|c| {
            if c.is_ascii_alphanumeric() || c == '_' {
                c
            } else {
                '_'
            }
        })
        .collect();
    if out.chars().next().is_some_and(|c| c.is_ascii_digit()) {
        out.insert(0, '_');
    }
    out
}

fn escape_label(value: &str) -> String {
    value
        .replace('\\', "\\\\")
        .replace('"', "\\\"")
        .replace('\n', "\\n")
}

fn family(out: &mut String, name: &str, help: &str, kind: &str) {
    let _ = writeln!(out, "# HELP {name} {help}");
    let _ = writeln!(out, "# TYPE {name} {kind}");
}

fn write_latency_histogram(out: &mut String, name: &str, labels: &str, snap: &HistogramSnapshot) {
    let count = snap.count();
    for le in LATENCY_LE_US {
        let sep = if labels.is_empty() { "" } else { "," };
        let _ = writeln!(
            out,
            "{name}_bucket{{{labels}{sep}le=\"{le}\"}} {}",
            snap.cumulative_le(le)
        );
    }
    let sep = if labels.is_empty() { "" } else { "," };
    let _ = writeln!(out, "{name}_bucket{{{labels}{sep}le=\"+Inf\"}} {count}");
    if labels.is_empty() {
        let _ = writeln!(out, "{name}_sum {}", snap.sum);
        let _ = writeln!(out, "{name}_count {count}");
    } else {
        let _ = writeln!(out, "{name}_sum{{{labels}}} {}", snap.sum);
        let _ = writeln!(out, "{name}_count{{{labels}}} {count}");
    }
}

/// Renders the full scrape document: obs counters first (sorted by
/// name, as the registry snapshot iterates), then telemetry gauges and
/// the latency histogram.
pub fn render_prometheus(obs: &MetricsSnapshot, telem: &TelemetrySnapshot) -> String {
    let mut out = String::new();

    for (name, value) in &obs.counters {
        let fam = format!("lockbind_{}_total", sanitize(name));
        family(&mut out, &fam, &format!("obs counter {name}"), "counter");
        let _ = writeln!(out, "{fam} {value}");
    }

    family(
        &mut out,
        "lockbind_uptime_us",
        "microseconds since the telemetry hub started",
        "gauge",
    );
    let _ = writeln!(out, "lockbind_uptime_us {}", telem.uptime_us);

    family(
        &mut out,
        "lockbind_inflight",
        "admitted-but-unanswered requests per tenant",
        "gauge",
    );
    for t in &telem.tenants {
        let _ = writeln!(
            out,
            "lockbind_inflight{{tenant=\"{}\"}} {}",
            escape_label(&t.tenant),
            t.inflight
        );
    }

    family(
        &mut out,
        "lockbind_tenant_requests_total",
        "requests seen per tenant (admitted + shed)",
        "counter",
    );
    for t in &telem.tenants {
        let _ = writeln!(
            out,
            "lockbind_tenant_requests_total{{tenant=\"{}\"}} {}",
            escape_label(&t.tenant),
            t.requests
        );
    }

    family(
        &mut out,
        "lockbind_tenant_shed_total",
        "requests shed per tenant",
        "counter",
    );
    for t in &telem.tenants {
        let _ = writeln!(
            out,
            "lockbind_tenant_shed_total{{tenant=\"{}\"}} {}",
            escape_label(&t.tenant),
            t.shed
        );
    }

    family(
        &mut out,
        "lockbind_slo_burn_short",
        "SLO burn rate over the short window, per tenant",
        "gauge",
    );
    for t in &telem.tenants {
        let _ = writeln!(
            out,
            "lockbind_slo_burn_short{{tenant=\"{}\"}} {}",
            escape_label(&t.tenant),
            t.slo.burn_short
        );
    }

    family(
        &mut out,
        "lockbind_slo_burn_long",
        "SLO burn rate over the long window, per tenant",
        "gauge",
    );
    for t in &telem.tenants {
        let _ = writeln!(
            out,
            "lockbind_slo_burn_long{{tenant=\"{}\"}} {}",
            escape_label(&t.tenant),
            t.slo.burn_long
        );
    }

    family(
        &mut out,
        "lockbind_flight_events_total",
        "flight-recorder events recorded since start",
        "counter",
    );
    let _ = writeln!(
        out,
        "lockbind_flight_events_total {}",
        telem.flight_recorded
    );

    family(
        &mut out,
        "lockbind_flight_dumps_total",
        "flight-recorder dumps written since start",
        "counter",
    );
    let _ = writeln!(out, "lockbind_flight_dumps_total {}", telem.flight_dumps);

    family(
        &mut out,
        "lockbind_flight_dump_failures_total",
        "flight-recorder dumps that failed to write since start",
        "counter",
    );
    let _ = writeln!(
        out,
        "lockbind_flight_dump_failures_total {}",
        telem.flight_dump_failed
    );

    family(
        &mut out,
        "lockbind_latency_us",
        "service latency in microseconds (cumulative since start)",
        "histogram",
    );
    write_latency_histogram(&mut out, "lockbind_latency_us", "", &telem.latency_total);
    for t in &telem.tenants {
        let labels = format!("tenant=\"{}\"", escape_label(&t.tenant));
        write_latency_histogram(&mut out, "lockbind_latency_us", &labels, &t.latency_total);
    }

    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Telemetry, TelemetryConfig};
    use lockbind_obs::MetricsSnapshot;

    fn sample() -> (MetricsSnapshot, TelemetrySnapshot) {
        let mut obs = MetricsSnapshot::default();
        obs.counters.insert("serve.requests".to_string(), 42);
        obs.counters.insert("serve.shed".to_string(), 3);
        let t = Telemetry::new(TelemetryConfig::default());
        t.on_admit(1, "alpha");
        t.on_response(1, "alpha", true, 700);
        t.on_shed(2, "beta", "queue_full");
        (obs, t.snapshot())
    }

    /// Parses family names (from `# TYPE`) and bare series names.
    fn type_lines(doc: &str) -> Vec<&str> {
        doc.lines()
            .filter_map(|l| l.strip_prefix("# TYPE "))
            .map(|l| l.split_whitespace().next().unwrap())
            .collect()
    }

    #[test]
    fn sanitize_maps_dots_and_leading_digits() {
        assert_eq!(sanitize("serve.requests"), "serve_requests");
        assert_eq!(sanitize("a-b c"), "a_b_c");
        assert_eq!(sanitize("9lives"), "_9lives");
    }

    #[test]
    fn every_series_has_exactly_one_type_and_help() {
        let (obs, telem) = sample();
        let doc = render_prometheus(&obs, &telem);
        let families = type_lines(&doc);
        assert!(!families.is_empty());
        // No duplicate family names.
        let mut sorted = families.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), families.len(), "duplicate family in:\n{doc}");
        // HELP and TYPE counts match.
        let helps = doc.lines().filter(|l| l.starts_with("# HELP ")).count();
        assert_eq!(helps, families.len());
        // Every sample line belongs to a declared family.
        for line in doc.lines().filter(|l| !l.starts_with('#') && !l.is_empty()) {
            let name = line
                .split(['{', ' '])
                .next()
                .unwrap()
                .trim_end_matches("_bucket")
                .trim_end_matches("_sum")
                .trim_end_matches("_count");
            assert!(
                families.contains(&name),
                "series {name} has no # TYPE in:\n{doc}"
            );
        }
    }

    #[test]
    fn obs_counters_become_total_series() {
        let (obs, telem) = sample();
        let doc = render_prometheus(&obs, &telem);
        assert!(doc.contains("lockbind_serve_requests_total 42"));
        assert!(doc.contains("lockbind_serve_shed_total 3"));
        assert!(doc.contains("# TYPE lockbind_serve_requests_total counter"));
    }

    #[test]
    fn histogram_is_cumulative_and_inf_equals_count() {
        let (obs, telem) = sample();
        let doc = render_prometheus(&obs, &telem);
        assert!(doc.contains("# TYPE lockbind_latency_us histogram"));
        assert!(doc.contains("lockbind_latency_us_bucket{le=\"+Inf\"} 1"));
        assert!(doc.contains("lockbind_latency_us_count 1"));
        // 700µs observation: below the 1000 bound, above the 500 bound.
        assert!(doc.contains("lockbind_latency_us_bucket{le=\"1000\"} 1"));
        assert!(doc.contains("lockbind_latency_us_bucket{le=\"500\"} 0"));
        // Per-tenant series carry the label.
        assert!(doc.contains("lockbind_latency_us_bucket{tenant=\"alpha\",le=\"+Inf\"} 1"));
    }

    #[test]
    fn counters_are_monotone_across_scrapes() {
        let mut obs = MetricsSnapshot::default();
        obs.counters.insert("serve.requests".to_string(), 1);
        let t = Telemetry::new(TelemetryConfig::default());
        t.on_admit(1, "alpha");
        t.on_response(1, "alpha", true, 700);
        let first = render_prometheus(&obs, &t.snapshot());
        t.on_admit(2, "alpha");
        t.on_response(2, "alpha", false, 90_000);
        t.rotate(); // decays windows but must not decay exposed counters
        obs.counters.insert("serve.requests".to_string(), 2);
        let second = render_prometheus(&obs, &t.snapshot());

        let value = |doc: &str, prefix: &str| -> f64 {
            doc.lines()
                .find(|l| l.starts_with(prefix) && !l.starts_with('#'))
                .and_then(|l| l.rsplit(' ').next())
                .and_then(|v| v.parse().ok())
                .unwrap_or_else(|| panic!("series {prefix} missing"))
        };
        for series in [
            "lockbind_serve_requests_total ",
            "lockbind_tenant_requests_total{tenant=\"alpha\"}",
            "lockbind_latency_us_count",
            "lockbind_latency_us_bucket{le=\"+Inf\"}",
            "lockbind_flight_events_total",
        ] {
            assert!(
                value(&second, series) >= value(&first, series),
                "{series} went backwards"
            );
        }
    }
}
