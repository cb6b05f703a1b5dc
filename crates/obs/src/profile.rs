//! Plain-text per-stage profile table.
//!
//! Aggregates closed spans by name and renders a "where does the time go"
//! table plus the counter / gauge / histogram sections of a metrics
//! snapshot. Totals are summed across
//! workers, so a stage's `%wall` can exceed 100% on a parallel run —
//! that's the parallel speedup, not an accounting error.

use std::collections::BTreeMap;
use std::time::Duration;

use crate::registry::MetricsSnapshot;
use crate::trace::SpanRecord;

/// Formats nanoseconds as a compact human duration.
fn fmt_ns(ns: u64) -> String {
    let ns_f = ns as f64;
    if ns >= 1_000_000_000 {
        format!("{:.2}s", ns_f / 1e9)
    } else if ns >= 1_000_000 {
        format!("{:.1}ms", ns_f / 1e6)
    } else if ns >= 1_000 {
        format!("{:.1}us", ns_f / 1e3)
    } else {
        format!("{ns}ns")
    }
}

/// Renders the profile: a per-stage table over `spans` (aggregated by span
/// name), followed by the counters, gauges, and histograms of `snapshot`.
/// `wall` is the end-to-end wall time the `%wall` column is relative to.
pub fn render_profile(spans: &[SpanRecord], snapshot: &MetricsSnapshot, wall: Duration) -> String {
    // (calls, total ns) per span name.
    let mut by_name: BTreeMap<&str, (u64, u64)> = BTreeMap::new();
    for span in spans.iter().filter(|s| !s.instant) {
        let (calls, total_ns) = by_name.entry(span.name).or_default();
        *calls += 1;
        *total_ns += span.dur_ns;
    }
    // Slowest first; the stable sort keeps ties in name order.
    let mut rows: Vec<(&str, (u64, u64))> = by_name.into_iter().collect();
    rows.sort_by_key(|&(_, (_, total_ns))| std::cmp::Reverse(total_ns));

    let wall_ns = wall.as_nanos().max(1) as f64;
    let mut out = String::new();
    out.push_str(&format!(
        "── per-stage profile ── wall {:.2}s ──\n",
        wall.as_secs_f64()
    ));
    out.push_str(&format!(
        "{:<28} {:>10} {:>12} {:>12} {:>8}\n",
        "stage", "calls", "total", "mean", "%wall"
    ));
    for &(name, (calls, total_ns)) in &rows {
        let mean = total_ns.checked_div(calls).unwrap_or(0);
        out.push_str(&format!(
            "{:<28} {:>10} {:>12} {:>12} {:>7.1}%\n",
            name,
            calls,
            fmt_ns(total_ns),
            fmt_ns(mean),
            total_ns as f64 / wall_ns * 100.0,
        ));
    }
    if rows.is_empty() {
        out.push_str("(no spans recorded)\n");
    }
    out.push_str("(totals sum across workers)\n");

    if !snapshot.counters.is_empty() {
        out.push_str("\n── counters ──\n");
        for (name, value) in &snapshot.counters {
            out.push_str(&format!("{name:<40} {value:>14}\n"));
        }
    }
    if !snapshot.gauges.is_empty() {
        out.push_str("\n── gauges ──\n");
        for (name, value) in &snapshot.gauges {
            out.push_str(&format!("{name:<40} {value:>14}\n"));
        }
    }
    if !snapshot.histograms.is_empty() {
        out.push_str("\n── histograms ──\n");
        for (name, hist) in &snapshot.histograms {
            let buckets: Vec<String> = hist.buckets().map(|(u, c)| format!("{u}:{c}")).collect();
            out.push_str(&format!(
                "{name:<40} n={} {}\n",
                hist.count(),
                buckets.join(" ")
            ));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::Registry;
    use crate::trace::SpanRecord;

    fn span(name: &'static str, dur_ns: u64) -> SpanRecord {
        SpanRecord {
            name,
            args: Vec::new(),
            cell: None,
            worker: None,
            seq: 0,
            depth: 0,
            start_ns: 0,
            dur_ns,
            instant: false,
        }
    }

    #[test]
    fn table_aggregates_spans_sorted_by_total() {
        let reg = Registry::new();
        reg.counter("sat.queries").add(12);
        reg.histogram("conflicts").record(3);
        let snapshot = reg.snapshot();
        let spans = vec![
            span("slow.stage", 3_000_000_000),
            span("slow.stage", 1_000_000_000),
            span("fast.stage", 500_000),
        ];
        let table = render_profile(&spans, &snapshot, Duration::from_secs(2));
        let slow_at = table.find("slow.stage").unwrap();
        let fast_at = table.find("fast.stage").unwrap();
        assert!(slow_at < fast_at, "rows sorted by total time:\n{table}");
        assert!(table.contains("4.00s"), "{table}");
        assert!(table.contains("200.0%"), "summed across workers:\n{table}");
        assert!(table.contains("sat.queries"), "{table}");
        assert!(table.contains("n=1 3:1"), "{table}");
    }

    #[test]
    fn empty_profile_says_so() {
        let table = render_profile(&[], &MetricsSnapshot::default(), Duration::from_secs(1));
        assert!(table.contains("no spans recorded"), "{table}");
    }

    #[test]
    fn duration_formatting_scales_units() {
        assert_eq!(fmt_ns(950), "950ns");
        assert_eq!(fmt_ns(1_500), "1.5us");
        assert_eq!(fmt_ns(2_500_000), "2.5ms");
        assert_eq!(fmt_ns(3_210_000_000), "3.21s");
    }
}
