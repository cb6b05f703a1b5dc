//! Edge-case pins for the registry's histogram bucketing and the
//! prefix-scan used by subsystem exporters (`counters_with_prefix`).
//!
//! These behaviours feed the serve daemon's Prometheus exposition and
//! the deterministic render compared by the determinism tests, so each
//! is pinned exactly rather than assumed.

use lockbind_obs::{MetricsSnapshot, Registry};

#[test]
fn zero_observation_histogram_snapshots_as_empty() {
    let reg = Registry::new();
    let h = reg.histogram("latency");
    assert_eq!(h.snapshot().count(), 0);

    let snap = reg.snapshot();
    let hist = snap.histograms.get("latency").expect("registered");
    assert_eq!(hist.count(), 0);
    assert_eq!(hist.sum, 0);
    assert_eq!(hist.buckets().count(), 0);
    // The deterministic render still lists it (registration is work).
    assert!(snap
        .render_deterministic()
        .contains("histogram latency []\n"));
}

#[test]
fn bucket_bounds_are_inclusive_and_u64_max_lands_in_the_top_bucket() {
    let reg = Registry::new();
    let h = reg.histogram("h");
    h.record(31); // last exact bucket
    h.record(32); // first log-linear bucket: exact too
    h.record(100); // shares the [100, 101] bucket ...
    h.record(101); // ... with 101
    h.record(u64::MAX);
    h.record_n(u64::MAX, 2); // bulk import: v * n must not overflow
    let snap = h.snapshot();
    let buckets: Vec<(u64, u64)> = snap.buckets().collect();
    assert_eq!(buckets, vec![(31, 1), (32, 1), (101, 2), (u64::MAX, 3)]);
    assert_eq!(snap.count(), 7);
    assert_eq!(snap.max(), u64::MAX);
}

#[test]
fn top_bucket_survives_snapshot_and_delta() {
    let reg = Registry::new();
    let h = reg.histogram("h");
    h.record(u64::MAX);
    let before = reg.snapshot();
    h.record(u64::MAX);
    h.record(1);
    let after = reg.snapshot();
    let delta = after.delta_from(&before);
    let hist = delta.histograms.get("h").expect("active in the window");
    assert_eq!(
        hist.buckets().collect::<Vec<_>>(),
        vec![(1, 1), (u64::MAX, 1)],
        "delta, not cumulative"
    );
    // The running sum wraps and the delta subtracts modulo 2^64, so the
    // window's sum is exact modulo 2^64.
    assert_eq!(hist.sum, u64::MAX.wrapping_add(1));
}

#[test]
fn counters_with_prefix_scans_exactly_the_namespace() {
    let reg = Registry::new();
    for (name, v) in [
        ("serve.ok", 3u64),
        ("serve.ok.sub", 4),
        ("serve.requests", 10),
        ("serves.other", 7), // shares a byte prefix, not the namespace
        ("serv", 1),
        ("zz", 2),
    ] {
        reg.counter(name).add(v);
    }
    let snap = reg.snapshot();

    let serve: Vec<(&str, u64)> = snap.counters_with_prefix("serve.").collect();
    assert_eq!(
        serve,
        vec![("serve.ok", 3), ("serve.ok.sub", 4), ("serve.requests", 10)],
        "sorted, namespace-exact, including nested dotted names"
    );

    // A prefix that is itself a full counter name includes the exact
    // match and its descendants.
    let ok: Vec<(&str, u64)> = snap.counters_with_prefix("serve.ok").collect();
    assert_eq!(ok, vec![("serve.ok", 3), ("serve.ok.sub", 4)]);

    // No matches: empty iterator, not a panic.
    assert_eq!(snap.counters_with_prefix("nothing.").count(), 0);

    // The empty prefix is a full scan in sorted order.
    let all: Vec<(&str, u64)> = snap.counters_with_prefix("").collect();
    assert_eq!(all.len(), 6);
    assert_eq!(all.first(), Some(&("serv", 1)));
    assert_eq!(all.last(), Some(&("zz", 2)));
}

#[test]
fn empty_snapshot_reports_empty_and_renders_nothing() {
    let snap = MetricsSnapshot::default();
    assert!(snap.is_empty());
    assert_eq!(snap.render_deterministic(), "");
    assert_eq!(snap.counters_with_prefix("serve.").count(), 0);
}
