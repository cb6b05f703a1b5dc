//! Every response is counted once, under `serve.<status>`, and progress
//! frames are never counted.
//!
//! This file holds a single test on purpose: it asserts on the
//! process-global `serve.*` observability counters, which parallel tests
//! in the same binary would pollute.

use std::time::Duration;

use lockbind_obs::{Json, Registry};
use lockbind_serve::client::{response_status, ServeClient};
use lockbind_serve::server::{start, ServerConfig};
use lockbind_serve::status;

fn request(id: u64, kind: &str, extra: &str) -> Json {
    let text = format!(r#"{{"id":{id},"kind":"{kind}"{extra}}}"#);
    lockbind_obs::json::parse(text.as_bytes()).expect("valid request JSON")
}

#[test]
fn each_response_counts_once_under_its_status() {
    let before = Registry::global().snapshot();
    let handle = start(ServerConfig {
        addr: "127.0.0.1:0".to_string(),
        workers: 1,
        debug_kinds: true,
        ..ServerConfig::default()
    })
    .expect("server starts");
    let mut client = ServeClient::connect(&handle.addr()).expect("connects");
    client
        .set_read_timeout(Some(Duration::from_secs(120)))
        .expect("sets timeout");
    let mut statuses = Vec::new();
    let mut call = |doc: &Json| {
        let outcome = client.call(doc).expect("calls");
        statuses.push(response_status(&outcome.response).to_string());
        outcome.progress.len()
    };

    call(&request(1, "ping", ""));
    call(&request(2, "teleport", ""));
    let progress = call(&request(
        3,
        "bind",
        r#","progress":true,"params":{"kernel":"fir","frames":30}"#,
    ));
    assert!(progress > 0, "the bind streamed no progress frames");
    call(&request(
        4,
        "sleep",
        r#","deadline_ms":40,"params":{"ms":5000}"#,
    ));
    client
        .send(&request(5, "sleep", r#","params":{"ms":10000}"#))
        .expect("sends");
    std::thread::sleep(Duration::from_millis(100)); // let it start
    client
        .send(&request(6, "cancel", r#","params":{"target_id":5}"#))
        .expect("sends");
    for _ in 0..2 {
        let (doc, _) = client.read_event().expect("reads");
        statuses.push(response_status(&doc).to_string());
    }
    handle.begin_drain();
    let outcome = client
        .call(&request(7, "sleep", r#","params":{"ms":1}"#))
        .expect("calls");
    statuses.push(response_status(&outcome.response).to_string());
    assert_eq!(handle.drain_and_join().dropped, 0);

    let delta = Registry::global().snapshot().delta_from(&before);
    let count = |name: &str| delta.counters.get(name).copied().unwrap_or(0);
    for status in [
        status::OK,
        status::ERROR,
        status::SHED,
        status::DEADLINE_EXCEEDED,
        status::INTERRUPTED,
    ] {
        let sent = statuses.iter().filter(|s| *s == status).count() as u64;
        assert!(sent > 0, "the sequence answered no {status}");
        assert_eq!(count(&format!("serve.{status}")), sent, "{status}");
    }
    assert_eq!(count("serve.requests"), statuses.len() as u64);
    let counted: u64 = delta
        .counters_with_prefix("serve.")
        .filter(|(name, _)| !["serve.requests", "serve.coalesced"].contains(name))
        .map(|(_, n)| n)
        .sum();
    assert_eq!(counted, statuses.len() as u64, "{:?}", delta.counters);
}
