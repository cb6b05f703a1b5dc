//! Request coalescing: N concurrent identical binding requests perform
//! exactly one artifact build and receive byte-identical responses.
//!
//! This file holds a single test on purpose: it asserts on the
//! process-global `cache.*` / `serve.*` observability counters, which
//! parallel tests in the same binary would pollute.

use std::sync::{Arc, Barrier};
use std::time::Duration;

use lockbind_serve::client::{response_status, ServeClient};
use lockbind_serve::server::{start, ServerConfig};
use lockbind_serve::status;

const N: usize = 6;

#[test]
fn concurrent_identical_requests_build_once_and_match_bytes() {
    let before = lockbind_obs::Registry::global().snapshot();
    let handle = start(ServerConfig {
        addr: "127.0.0.1:0".to_string(),
        workers: 4,
        ..ServerConfig::default()
    })
    .expect("server starts");
    let addr = handle.addr();

    // N connections fire the *same* bind request (same id, params, and
    // tenant-independent work identity) as simultaneously as a barrier
    // can make them.
    let request = r#"{"id":6,"kind":"bind","params":{"kernel":"fir","frames":60,"locked_fus":1,"locked_inputs":2,"num_candidates":8}}"#;
    let barrier = Arc::new(Barrier::new(N));
    let mut threads = Vec::new();
    for i in 0..N {
        let addr = addr.clone();
        let barrier = Arc::clone(&barrier);
        threads.push(std::thread::spawn(move || -> (usize, Vec<u8>, String) {
            let mut client = ServeClient::connect(&addr).expect("connects");
            client
                .set_read_timeout(Some(Duration::from_secs(120)))
                .expect("sets timeout");
            client.send_raw(request.as_bytes()).expect("sends");
            barrier.wait(); // connected and sent; now everyone waits together
            let (doc, raw) = client.read_event().expect("reads");
            (i, raw, response_status(&doc).to_string())
        }));
    }
    let mut responses = Vec::new();
    for thread in threads {
        responses.push(thread.join().expect("thread joins"));
    }

    for (i, raw, status_str) in &responses {
        assert_eq!(
            status_str,
            status::OK,
            "request {i} failed: {:?}",
            String::from_utf8_lossy(raw)
        );
    }
    let first = &responses[0].1;
    for (i, raw, _) in &responses {
        assert_eq!(
            raw, first,
            "response {i} differs byte-for-byte from response 0"
        );
    }

    // Counter deltas: this workload misses exactly three artifacts
    // (prepared kernel, class context, serve response) and every other
    // lookup — all on the serve-response key — is a hit.
    let mut stats_client = ServeClient::connect(&addr).expect("connects");
    let stats = stats_client
        .call(&lockbind_obs::json::parse(br#"{"id":99,"kind":"stats"}"#).expect("valid"))
        .expect("stats call")
        .response;
    assert_eq!(stats["result"]["cache"]["misses"].as_u64(), Some(3));
    assert_eq!(
        stats["result"]["cache"]["hits"].as_u64().expect("hits"),
        N as u64 - 1
    );

    let after = lockbind_obs::Registry::global().snapshot();
    let delta = |name: &str| -> u64 {
        let get = |snap: &lockbind_obs::MetricsSnapshot| {
            snap.counters_with_prefix(name)
                .filter(|(n, _)| *n == name)
                .map(|(_, v)| v)
                .next()
                .unwrap_or(0)
        };
        get(&after) - get(&before)
    };
    assert_eq!(delta("cache.miss"), 3, "exactly one build per artifact");
    assert_eq!(delta("cache.hit"), N as u64 - 1);
    assert_eq!(
        delta("serve.ok"),
        N as u64 + 1,
        "N binds plus the stats call"
    );
    assert_eq!(delta("serve.coalesced"), N as u64 - 1);
    assert_eq!(delta("serve.requests"), N as u64 + 1);

    assert_eq!(handle.drain_and_join().dropped, 0);
}
