//! Determinism boundary: telemetry never leaks into the obs registry.
//!
//! One test, alone in this file on purpose — it asserts on the
//! process-global `Registry` and the obs counters it accumulates, so it
//! cannot share a test binary with anything else that serves requests
//! (see the note in `single_flight.rs`).

use lockbind_obs::Registry;
use lockbind_serve::loadgen::run_fixed;
use lockbind_serve::server::{start, ServerConfig};

fn instrumented_server() -> lockbind_serve::ServerHandle {
    start(ServerConfig {
        addr: "127.0.0.1:0".to_string(),
        workers: 2,
        telemetry_addr: Some("127.0.0.1:0".to_string()),
        epoch_ms: 50, // rotate aggressively: rotation must stay invisible to obs
        ..ServerConfig::default()
    })
    .expect("server starts")
}

#[test]
fn deterministic_render_is_free_of_telemetry_series() {
    let before = Registry::global().snapshot();

    let first = instrumented_server();
    let first_lines = run_fixed(&first.addr()).expect("first replay");
    assert_eq!(first.drain_and_join().dropped, 0);
    let mid = Registry::global().snapshot();

    let second = instrumented_server();
    let second_lines = run_fixed(&second.addr()).expect("second replay");
    assert_eq!(second.drain_and_join().dropped, 0);
    let after = Registry::global().snapshot();

    assert_eq!(first_lines, second_lines, "fixed replay is deterministic");

    // The same workload must move the obs registry by exactly the same
    // amount both times: if any wall-clock flavored series (latency,
    // uptime, epoch rotation, SLO burn) leaked into obs, the two deltas
    // would differ and so would `render_deterministic` — the render the
    // batch goldens diff against.
    let delta_first = mid.delta_from(&before).render_deterministic();
    let delta_second = after.delta_from(&mid).render_deterministic();
    assert!(!delta_first.is_empty(), "the replay produced obs activity");
    assert_eq!(
        delta_first, delta_second,
        "obs delta must be a pure function of the served work"
    );

    // And no registered metric name smells of the telemetry layer: all
    // wall-clock state lives in the telemetry crate, behind introspect
    // and the scrape endpoint, never in the registry.
    let names: Vec<&String> = after
        .counters
        .keys()
        .chain(after.gauges.keys())
        .chain(after.histograms.keys())
        .collect();
    for banned in [
        "telemetry",
        "uptime",
        "latency",
        "slo",
        "burn",
        "flight",
        "p50",
        "p99",
    ] {
        assert!(
            names.iter().all(|n| !n.contains(banned)),
            "obs registry contains a '{banned}' series: {names:?}"
        );
    }
}
