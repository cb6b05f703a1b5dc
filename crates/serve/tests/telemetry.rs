//! End-to-end telemetry coverage: the `stats` queue/tenant accounting,
//! the `introspect` snapshot, the Prometheus scrape endpoint, and the
//! flight recorder's JSONL dumps.
//!
//! None of these tests assert exact values of the process-global obs
//! registry (tests in this binary run in parallel and share it); the
//! determinism assertions live alone in `telemetry_determinism.rs`.

use std::time::Duration;

use lockbind_obs::Json;
use lockbind_serve::client::{response_status, result_field, ServeClient};
use lockbind_serve::loadgen::{run_fixed, scrape};
use lockbind_serve::server::{start, ServerConfig, ServerHandle};
use lockbind_serve::status;
use lockbind_telemetry::recorder::DumpTrigger;

fn client_for(handle: &ServerHandle) -> ServeClient {
    let client = ServeClient::connect(&handle.addr()).expect("connects");
    client
        .set_read_timeout(Some(Duration::from_secs(120)))
        .expect("sets timeout");
    client
}

fn request(id: u64, kind: &str, extra: &str) -> Json {
    let text = if extra.is_empty() {
        format!(r#"{{"id":{id},"kind":"{kind}"}}"#)
    } else {
        format!(r#"{{"id":{id},"kind":"{kind}",{extra}}}"#)
    };
    lockbind_obs::json::parse(text.as_bytes()).expect("valid request JSON")
}

fn temp_dir(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("lockbind-telem-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Satellite pin: `stats` reports live queue depth, per-tenant
/// in-flight, and the configured limits — and keeps reporting tenants
/// after their queue entries retire.
#[test]
fn stats_reports_queue_depth_and_per_tenant_inflight() {
    let handle = start(ServerConfig {
        addr: "127.0.0.1:0".to_string(),
        workers: 1,
        max_depth: 8,
        max_per_tenant: 8,
        debug_kinds: true,
        ..ServerConfig::default()
    })
    .expect("server starts");
    let mut occupant = client_for(&handle);
    occupant
        .send(&request(1, "sleep", r#""tenant":"a","params":{"ms":500}"#))
        .expect("sends");
    std::thread::sleep(Duration::from_millis(150)); // worker now busy on tenant a
    let mut filler = client_for(&handle);
    filler
        .send(&request(2, "sleep", r#""tenant":"a","params":{"ms":1}"#))
        .expect("sends");
    filler
        .send(&request(3, "sleep", r#""tenant":"b","params":{"ms":1}"#))
        .expect("sends");
    std::thread::sleep(Duration::from_millis(100)); // both queued behind the occupant

    let mut observer = client_for(&handle);
    let outcome = observer.call(&request(10, "stats", "")).expect("calls");
    assert_eq!(response_status(&outcome.response), status::OK);
    let queue = result_field(&outcome.response, "queue").expect("queue object");
    assert_eq!(queue["queued"].as_u64(), Some(2), "two requests waiting");
    assert_eq!(queue["in_flight"].as_u64(), Some(1), "one on the worker");
    assert_eq!(
        queue["max_depth"].as_u64(),
        Some(8),
        "configured limit is reported"
    );
    assert_eq!(queue["max_per_tenant"].as_u64(), Some(8));
    let tenants = result_field(&outcome.response, "tenants").expect("tenants object");
    assert_eq!(tenants["a"]["in_flight"].as_u64(), Some(1));
    assert_eq!(tenants["a"]["queued"].as_u64(), Some(1));
    assert_eq!(tenants["a"]["admitted"].as_u64(), Some(2));
    assert_eq!(tenants["a"]["completed"].as_u64(), Some(0));
    assert_eq!(tenants["b"]["queued"].as_u64(), Some(1));
    assert_eq!(tenants["b"]["admitted"].as_u64(), Some(1));
    // The serve aggregate embeds the live telemetry snapshot.
    let serve = result_field(&outcome.response, "serve").expect("serve object");
    assert_eq!(serve["telemetry"]["schema_version"].as_u64(), Some(1));

    // Drain the queue, then the same counters must survive retirement.
    for _ in 0..1 {
        occupant.read_event().expect("occupant completes");
    }
    for _ in 0..2 {
        filler.read_event().expect("queued request completes");
    }
    let outcome = observer.call(&request(11, "stats", "")).expect("calls");
    let queue = result_field(&outcome.response, "queue").expect("queue object");
    assert_eq!(queue["queued"].as_u64(), Some(0));
    assert_eq!(queue["in_flight"].as_u64(), Some(0));
    assert_eq!(queue["completed"].as_u64(), Some(3));
    let tenants = result_field(&outcome.response, "tenants").expect("tenants object");
    assert_eq!(tenants["a"]["completed"].as_u64(), Some(2));
    assert_eq!(tenants["a"]["in_flight"].as_u64(), Some(0));
    assert_eq!(tenants["b"]["completed"].as_u64(), Some(1));
    assert_eq!(handle.drain_and_join().dropped, 0);
}

/// `introspect` returns the documented snapshot: schema version,
/// windowed latency quantiles that are non-zero under load, per-tenant
/// SLO state, and flight-recorder totals.
#[test]
fn introspect_returns_a_live_snapshot() {
    let handle = start(ServerConfig {
        addr: "127.0.0.1:0".to_string(),
        workers: 2,
        debug_kinds: true,
        epoch_ms: 10_000, // keep the window from rotating mid-test
        ..ServerConfig::default()
    })
    .expect("server starts");
    let mut client = client_for(&handle);
    let outcome = client
        .call(&request(1, "sleep", r#""tenant":"ta","params":{"ms":5}"#))
        .expect("calls");
    assert_eq!(response_status(&outcome.response), status::OK);
    let outcome = client
        .call(&request(2, "sleep", r#""tenant":"tb","params":{"ms":5}"#))
        .expect("calls");
    assert_eq!(response_status(&outcome.response), status::OK);

    let outcome = client.call(&request(3, "introspect", "")).expect("calls");
    assert_eq!(response_status(&outcome.response), status::OK);
    let snap = &outcome.response["result"];
    assert_eq!(snap["schema_version"].as_u64(), Some(1));
    assert!(snap["window_ms"].as_u64().expect("window_ms") > 0);
    assert_eq!(
        snap["latency_us"]["count"].as_u64(),
        Some(2),
        "both sleeps recorded"
    );
    // A 5ms sleep can never report a sub-5ms p50 (quantiles round up).
    assert!(snap["latency_us"]["p50"].as_u64().expect("p50") >= 5_000);
    assert!(
        snap["latency_us"]["p999"].as_u64().expect("p999")
            >= snap["latency_us"]["p50"].as_u64().expect("p50")
    );
    assert!(snap["latency_us"]["max"].as_u64().expect("max") >= 5_000);
    assert_eq!(snap["latency_total_us"]["count"].as_u64(), Some(2));
    let tenants = match &snap["tenants"] {
        Json::Array(items) => items,
        other => panic!("tenants must be an array, got {}", other.render()),
    };
    assert_eq!(tenants.len(), 2);
    for t in tenants {
        assert_eq!(t["requests"].as_u64(), Some(1));
        assert_eq!(t["ok"].as_u64(), Some(1));
        assert_eq!(t["inflight"].as_u64(), Some(0));
        assert_eq!(t["shed"].as_u64(), Some(0));
        // SLO state is present with the default objective.
        assert!(t["slo"].get("burn_short").is_some(), "burn_short");
        assert!(t["slo"].get("burn_long").is_some(), "burn_long");
        assert_eq!(t["slo"]["latency_objective_us"].as_u64(), Some(250_000));
    }
    assert_eq!(
        snap["flight"]["recorded"].as_u64(),
        Some(2),
        "one admit event each"
    );
    assert_eq!(handle.drain_and_join().dropped, 0);
}

/// Splits a sample line into (series-with-labels, value).
fn parse_sample(line: &str) -> (&str, f64) {
    let (series, value) = line.rsplit_once(' ').expect("sample has a value");
    (series, value.parse().expect("numeric sample value"))
}

/// Family name for a sample: the metric name with histogram suffixes
/// stripped, as the CI validator does.
fn family_of(series: &str) -> &str {
    let name = series.split(['{', ' ']).next().unwrap();
    name.trim_end_matches("_bucket")
        .trim_end_matches("_sum")
        .trim_end_matches("_count")
}

/// The `--telemetry-addr` endpoint serves a well-formed exposition
/// document: every series is declared by exactly one `# TYPE`, no
/// family appears twice, and counter families are monotone across
/// scrapes.
#[test]
fn scrape_endpoint_is_wellformed_and_monotone() {
    let handle = start(ServerConfig {
        addr: "127.0.0.1:0".to_string(),
        workers: 2,
        debug_kinds: true,
        telemetry_addr: Some("127.0.0.1:0".to_string()),
        ..ServerConfig::default()
    })
    .expect("server starts");
    let scrape_addr = handle.telemetry_addr().expect("telemetry endpoint bound");
    let mut client = client_for(&handle);
    for id in 1..=3u64 {
        let outcome = client
            .call(&request(id, "sleep", r#""tenant":"s1","params":{"ms":1}"#))
            .expect("calls");
        assert_eq!(response_status(&outcome.response), status::OK);
    }

    let first = scrape(&scrape_addr).expect("first scrape");
    for doc in [&first] {
        let mut families: Vec<&str> = Vec::new();
        let mut kinds: std::collections::BTreeMap<&str, &str> = Default::default();
        for line in doc.lines().filter_map(|l| l.strip_prefix("# TYPE ")) {
            let mut parts = line.split_whitespace();
            let (fam, kind) = (parts.next().unwrap(), parts.next().unwrap());
            families.push(fam);
            kinds.insert(fam, kind);
        }
        assert!(!families.is_empty(), "scrape produced no families:\n{doc}");
        let mut deduped = families.clone();
        deduped.sort_unstable();
        deduped.dedup();
        assert_eq!(deduped.len(), families.len(), "duplicate family in:\n{doc}");
        for line in doc.lines().filter(|l| !l.starts_with('#') && !l.is_empty()) {
            let (series, _) = parse_sample(line);
            assert!(
                kinds.contains_key(family_of(series)),
                "series '{series}' has no # TYPE declaration"
            );
        }
        assert!(doc.contains("lockbind_uptime_us"), "uptime gauge present");
        assert!(
            doc.contains("lockbind_latency_us_bucket{tenant=\"s1\",le=\"+Inf\"} 3"),
            "per-tenant cumulative histogram counts all three requests:\n{doc}"
        );
    }

    // More load, then a second scrape: every counter-family sample from
    // the first document must still exist and must not go backwards.
    for id in 4..=6u64 {
        client
            .call(&request(id, "sleep", r#""tenant":"s1","params":{"ms":1}"#))
            .expect("calls");
    }
    let second = scrape(&scrape_addr).expect("second scrape");
    let counter_kinds: std::collections::BTreeMap<&str, &str> = first
        .lines()
        .filter_map(|l| l.strip_prefix("# TYPE "))
        .map(|l| {
            let mut parts = l.split_whitespace();
            (parts.next().unwrap(), parts.next().unwrap())
        })
        .collect();
    let second_samples: std::collections::BTreeMap<&str, f64> = second
        .lines()
        .filter(|l| !l.starts_with('#') && !l.is_empty())
        .map(parse_sample)
        .collect();
    let mut monotone_checked = 0;
    for line in first
        .lines()
        .filter(|l| !l.starts_with('#') && !l.is_empty())
    {
        let (series, value) = parse_sample(line);
        match counter_kinds.get(family_of(series)) {
            Some(&"counter") | Some(&"histogram") => {
                let after = second_samples
                    .get(series)
                    .unwrap_or_else(|| panic!("series '{series}' vanished between scrapes"));
                assert!(
                    *after >= value,
                    "'{series}' went backwards: {value} -> {after}"
                );
                monotone_checked += 1;
            }
            _ => {}
        }
    }
    assert!(monotone_checked > 10, "monotone check covered real series");
    assert_eq!(handle.drain_and_join().dropped, 0);
}

/// Flight dumps are the documented JSONL: a `flight_dump` header line
/// followed by gapless `event` lines, and `begin_drain` writes a dump
/// of its own when a flight directory is configured.
#[test]
fn flight_dump_is_documented_jsonl() {
    let dir = temp_dir("dump");
    let handle = start(ServerConfig {
        addr: "127.0.0.1:0".to_string(),
        workers: 1,
        max_depth: 4,
        max_per_tenant: 1,
        debug_kinds: true,
        flight_dir: Some(dir.clone()),
        ..ServerConfig::default()
    })
    .expect("server starts");
    let mut occupant = client_for(&handle);
    occupant
        .send(&request(
            1,
            "sleep",
            r#""tenant":"occ","params":{"ms":400}"#,
        ))
        .expect("sends");
    std::thread::sleep(Duration::from_millis(150)); // worker busy
    let mut client = client_for(&handle);
    client
        .send(&request(2, "sleep", r#""tenant":"a","params":{"ms":1}"#))
        .expect("sends");
    // Tenant a's slot is full: this one sheds and records a Shed event.
    let outcome = client
        .call(&request(3, "sleep", r#""tenant":"a","params":{"ms":1}"#))
        .expect("calls");
    assert_eq!(response_status(&outcome.response), status::SHED);

    let path = handle
        .telemetry()
        .dump(&dir, DumpTrigger::Signal)
        .expect("dump writes")
        .expect("events exist, so a file is written");
    assert!(path
        .file_name()
        .unwrap()
        .to_str()
        .unwrap()
        .ends_with("-signal.jsonl"));
    let text = std::fs::read_to_string(&path).expect("dump readable");
    let lines: Vec<&str> = text.lines().collect();
    assert!(
        lines.len() >= 4,
        "header + admit/admit/shed events:\n{text}"
    );
    let header = lockbind_obs::json::parse(lines[0].as_bytes()).expect("header is JSON");
    assert_eq!(&header["line"], &Json::Str("flight_dump".to_string()));
    assert_eq!(header["schema_version"].as_u64(), Some(1));
    assert_eq!(&header["trigger"], &Json::Str("signal".to_string()));
    assert_eq!(
        header["events"].as_u64().expect("events"),
        (lines.len() - 1) as u64
    );
    let mut kinds = Vec::new();
    let mut prev_seq = None;
    for line in &lines[1..] {
        let event = lockbind_obs::json::parse(line.as_bytes()).expect("event is JSON");
        assert_eq!(&event["line"], &Json::Str("event".to_string()));
        let seq = event["seq"].as_u64().expect("seq");
        if let Some(prev) = prev_seq {
            assert_eq!(seq, prev + 1, "seq numbers are gapless");
        }
        prev_seq = Some(seq);
        if let Json::Str(kind) = &event["kind"] {
            kinds.push(kind.clone());
        }
        assert!(event.get("t_us").is_some(), "t_us");
        assert!(event.get("tenant").is_some(), "tenant");
        assert!(event.get("detail").is_some(), "detail");
    }
    assert!(
        kinds.iter().any(|k| k == "admit"),
        "admit events in {kinds:?}"
    );
    assert!(kinds.iter().any(|k| k == "shed"), "shed event in {kinds:?}");

    // Let the queue drain, then `begin_drain` must write its own dump.
    occupant.read_event().expect("occupant completes");
    client.read_event().expect("queued request completes");
    let summary = handle.drain_and_join();
    assert_eq!(summary.dropped, 0);
    let drain_dumps: Vec<_> = std::fs::read_dir(&dir)
        .expect("flight dir exists")
        .filter_map(Result::ok)
        .filter(|e| e.file_name().to_string_lossy().ends_with("-drain.jsonl"))
        .collect();
    assert_eq!(drain_dumps.len(), 1, "exactly one drain-triggered dump");
    let _ = std::fs::remove_dir_all(&dir);
}

/// The 14-line fixed replay is byte-identical whether or not telemetry
/// endpoints and the flight recorder are enabled — the wire responses
/// carry no wall-clock state.
#[test]
fn fixed_replay_is_byte_identical_with_telemetry_enabled() {
    let plain = start(ServerConfig {
        addr: "127.0.0.1:0".to_string(),
        workers: 2,
        ..ServerConfig::default()
    })
    .expect("plain server starts");
    let dir = temp_dir("fixed");
    let instrumented = start(ServerConfig {
        addr: "127.0.0.1:0".to_string(),
        workers: 2,
        telemetry_addr: Some("127.0.0.1:0".to_string()),
        flight_dir: Some(dir.clone()),
        epoch_ms: 50, // force epoch rotations during the replay
        ..ServerConfig::default()
    })
    .expect("instrumented server starts");

    let baseline = run_fixed(&plain.addr()).expect("plain replay");
    let instrumented_lines = run_fixed(&instrumented.addr()).expect("instrumented replay");
    assert_eq!(baseline.len(), 14, "13 probes + the oversize declaration");
    assert_eq!(
        baseline, instrumented_lines,
        "telemetry must not leak into wire responses"
    );
    assert_eq!(plain.drain_and_join().dropped, 0);
    assert_eq!(instrumented.drain_and_join().dropped, 0);
    let _ = std::fs::remove_dir_all(&dir);
}
