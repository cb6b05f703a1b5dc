//! End-to-end status coverage: every response status (`ok`, `error`,
//! `shed`, `deadline_exceeded`, `interrupted`) is observable on the
//! wire with its distinct machine-readable code, exercising the
//! `resil::CancelToken` plumbing from admission to response.

use std::time::Duration;

use lockbind_obs::Json;
use lockbind_serve::client::{response_error_code, response_status, result_field, ServeClient};
use lockbind_serve::server::{start, ServerConfig};
use lockbind_serve::{code, status};

fn debug_server(
    workers: usize,
    max_depth: usize,
    max_per_tenant: usize,
) -> lockbind_serve::ServerHandle {
    start(ServerConfig {
        addr: "127.0.0.1:0".to_string(),
        workers,
        max_depth,
        max_per_tenant,
        debug_kinds: true,
        ..ServerConfig::default()
    })
    .expect("server starts")
}

fn client_for(handle: &lockbind_serve::ServerHandle) -> ServeClient {
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

#[test]
fn ok_status_round_trips() {
    let handle = debug_server(1, 8, 8);
    let mut client = client_for(&handle);
    let outcome = client.call(&request(1, "ping", "")).expect("calls");
    assert_eq!(response_status(&outcome.response), status::OK);
    assert_eq!(
        result_field(&outcome.response, "pong"),
        Some(&Json::Bool(true))
    );
    let outcome = client
        .call(&request(2, "sleep", r#""params":{"ms":1}"#))
        .expect("calls");
    assert_eq!(response_status(&outcome.response), status::OK);
    assert_eq!(handle.drain_and_join().dropped, 0);
}

#[test]
fn error_status_distinguishes_validation_and_execution() {
    let handle = debug_server(1, 8, 8);
    let mut client = client_for(&handle);
    // Validation failure: unknown kind.
    let outcome = client.call(&request(1, "teleport", "")).expect("calls");
    assert_eq!(response_status(&outcome.response), status::ERROR);
    assert_eq!(response_error_code(&outcome.response), code::UNKNOWN_KIND);
    // Execution failure: ecb_enc4 has no multipliers to lock.
    let outcome = client
        .call(&request(
            2,
            "bind",
            r#""params":{"kernel":"ecb_enc4","class":"multiplier","frames":40}"#,
        ))
        .expect("calls");
    assert_eq!(response_status(&outcome.response), status::ERROR);
    assert_eq!(response_error_code(&outcome.response), code::EXEC_FAILED);
    assert_eq!(handle.drain_and_join().dropped, 0);
}

#[test]
fn deadline_exceeded_is_distinct_from_error() {
    let handle = debug_server(1, 8, 8);
    let mut client = client_for(&handle);
    let outcome = client
        .call(&request(
            1,
            "sleep",
            r#""deadline_ms":40,"params":{"ms":5000}"#,
        ))
        .expect("calls");
    assert_eq!(
        response_status(&outcome.response),
        status::DEADLINE_EXCEEDED
    );
    assert_eq!(
        response_error_code(&outcome.response),
        code::DEADLINE_EXCEEDED
    );
    assert_eq!(handle.drain_and_join().dropped, 0);
}

#[test]
fn deadline_can_expire_while_queued() {
    let handle = debug_server(1, 8, 8);
    let mut client = client_for(&handle);
    // Occupy the single worker, then queue a request whose deadline is
    // shorter than the occupancy: it must report deadline_exceeded
    // without ever executing.
    client
        .send(&request(1, "sleep", r#""params":{"ms":400}"#))
        .expect("sends");
    client
        .send(&request(
            2,
            "sleep",
            r#""deadline_ms":50,"params":{"ms":1}"#,
        ))
        .expect("sends");
    let mut statuses = Vec::new();
    for _ in 0..2 {
        let (doc, _) = client.read_event().expect("reads");
        statuses.push((doc["id"].clone(), response_status(&doc).to_string()));
    }
    statuses.sort_by_key(|(id, _)| format!("{id:?}"));
    assert_eq!(
        statuses,
        vec![
            (Json::UInt(1), status::OK.to_string()),
            (Json::UInt(2), status::DEADLINE_EXCEEDED.to_string()),
        ]
    );
    assert_eq!(handle.drain_and_join().dropped, 0);
}

#[test]
fn interrupted_is_distinct_from_deadline_exceeded() {
    let handle = debug_server(1, 8, 8);
    let mut client = client_for(&handle);
    // Start a long sleep, then cancel it from the same tenant; the
    // sleep's response must be `interrupted`, not `error` or
    // `deadline_exceeded`.
    client
        .send(&request(7, "sleep", r#""params":{"ms":10000}"#))
        .expect("sends");
    std::thread::sleep(Duration::from_millis(100)); // let it start
    client
        .send(&request(8, "cancel", r#""params":{"target_id":7}"#))
        .expect("sends");
    let mut seen = std::collections::BTreeMap::new();
    for _ in 0..2 {
        let (doc, _) = client.read_event().expect("reads");
        let id = doc["id"].as_u64().unwrap_or(0);
        seen.insert(id, doc);
    }
    let cancel_resp = seen.get(&8).expect("cancel response");
    assert_eq!(response_status(cancel_resp), status::OK);
    assert_eq!(
        result_field(cancel_resp, "found"),
        Some(&Json::Bool(true)),
        "cancel must find the in-flight request"
    );
    let sleep_resp = seen.get(&7).expect("sleep response");
    assert_eq!(response_status(sleep_resp), status::INTERRUPTED);
    assert_eq!(response_error_code(sleep_resp), code::INTERRUPTED);
    assert_eq!(handle.drain_and_join().dropped, 0);
}

#[test]
fn shed_statuses_carry_distinct_codes() {
    // One worker, queue depth 2, one queued request per tenant.
    let handle = debug_server(1, 2, 1);
    let mut occupant = client_for(&handle);
    occupant
        .send(&request(
            1,
            "sleep",
            r#""tenant":"occ","params":{"ms":600}"#,
        ))
        .expect("sends");
    std::thread::sleep(Duration::from_millis(150)); // worker now busy
    let mut client = client_for(&handle);
    // Tenant a fills its per-tenant slot...
    client
        .send(&request(2, "sleep", r#""tenant":"a","params":{"ms":1}"#))
        .expect("sends");
    // ...so its next request sheds with tenant_limit.
    let outcome = client
        .call(&request(3, "sleep", r#""tenant":"a","params":{"ms":1}"#))
        .expect("calls");
    assert_eq!(response_status(&outcome.response), status::SHED);
    assert_eq!(response_error_code(&outcome.response), code::TENANT_LIMIT);
    // Tenant b fills the global queue (depth 2)...
    client
        .send(&request(4, "sleep", r#""tenant":"b","params":{"ms":1}"#))
        .expect("sends");
    // ...so tenant c sheds with queue_full.
    let outcome = client
        .call(&request(5, "sleep", r#""tenant":"c","params":{"ms":1}"#))
        .expect("calls");
    assert_eq!(response_status(&outcome.response), status::SHED);
    assert_eq!(response_error_code(&outcome.response), code::QUEUE_FULL);
    // After drain begins, everything sheds with draining.
    handle.begin_drain();
    let outcome = client
        .call(&request(6, "sleep", r#""tenant":"d","params":{"ms":1}"#))
        .expect("calls");
    assert_eq!(response_status(&outcome.response), status::SHED);
    assert_eq!(response_error_code(&outcome.response), code::DRAINING);
    // The occupant and both queued requests still complete.
    let summary = handle.drain_and_join();
    assert_eq!(summary.admitted, 3);
    assert_eq!(summary.dropped, 0);
}

#[test]
fn oversize_frames_are_rejected_from_the_prefix_alone() {
    let handle = debug_server(1, 8, 8);
    let mut client = client_for(&handle);
    client
        .send_oversize_declaration(u32::MAX)
        .expect("writes header");
    let (doc, _) = client.read_event().expect("reads error response");
    assert_eq!(response_status(&doc), status::ERROR);
    assert_eq!(response_error_code(&doc), code::FRAME_TOO_LARGE);
    // The server closes the desynchronized stream afterwards.
    assert!(client.read_event().is_err());
    assert_eq!(handle.drain_and_join().dropped, 0);
}

#[test]
fn progress_frames_stream_span_names() {
    let handle = debug_server(1, 8, 8);
    let mut client = client_for(&handle);
    let outcome = client
        .call(&request(
            1,
            "bind",
            r#""progress":true,"params":{"kernel":"fir","frames":30}"#,
        ))
        .expect("calls");
    assert_eq!(response_status(&outcome.response), status::OK);
    let spans: Vec<String> = outcome
        .progress
        .iter()
        .filter_map(|doc| doc["span"].as_str().map(str::to_string))
        .collect();
    assert!(
        spans.iter().any(|s| s == "prepare.kernel"),
        "expected a prepare.kernel progress frame, got {spans:?}"
    );
    assert_eq!(handle.drain_and_join().dropped, 0);
}

#[test]
fn slow_frames_are_cut_off_but_idle_connections_survive() {
    use std::io::{Read as _, Write as _};

    let handle = start(ServerConfig {
        addr: "127.0.0.1:0".to_string(),
        workers: 1,
        debug_kinds: true,
        frame_timeout_ms: Some(200),
        ..ServerConfig::default()
    })
    .expect("server starts");
    // An idle keepalive connection outlives the frame timeout: the
    // clock only arms once a frame's first byte arrives.
    let mut idle = client_for(&handle);
    std::thread::sleep(Duration::from_millis(500));
    let outcome = idle
        .call(&request(1, "ping", ""))
        .expect("idle conn serves");
    assert_eq!(response_status(&outcome.response), status::OK);
    // A slowloris sends half a header and stalls: the server must close
    // the connection at the deadline instead of holding the reader
    // hostage forever.
    let mut slow = std::net::TcpStream::connect(handle.addr()).expect("connects");
    slow.write_all(&[0u8, 0]).expect("writes partial header");
    slow.set_read_timeout(Some(Duration::from_secs(30)))
        .expect("sets timeout");
    let mut buf = [0u8; 16];
    let n = slow.read(&mut buf).expect("reads until server close");
    assert_eq!(n, 0, "server closed the stalled connection");
    // The cutoff frees the reader; the daemon keeps serving others.
    let outcome = idle.call(&request(2, "ping", "")).expect("still serving");
    assert_eq!(response_status(&outcome.response), status::OK);
    assert_eq!(handle.drain_and_join().dropped, 0);
}

#[test]
fn connections_over_the_cap_are_shed_with_a_distinct_code() {
    let handle = start(ServerConfig {
        addr: "127.0.0.1:0".to_string(),
        workers: 1,
        debug_kinds: true,
        connection_limit: 1,
        ..ServerConfig::default()
    })
    .expect("server starts");
    let mut first = client_for(&handle);
    let outcome = first.call(&request(1, "ping", "")).expect("calls");
    assert_eq!(response_status(&outcome.response), status::OK);
    // A second concurrent connection is over the cap: it gets exactly
    // one shed response with the connection_limit code, then EOF.
    let mut second = ServeClient::connect(&handle.addr()).expect("connects");
    second
        .set_read_timeout(Some(Duration::from_secs(30)))
        .expect("sets timeout");
    let (doc, _) = second.read_event().expect("shed frame");
    assert_eq!(response_status(&doc), status::SHED);
    assert_eq!(response_error_code(&doc), code::CONNECTION_LIMIT);
    assert!(second.read_event().is_err(), "shed connection is closed");
    // Once the first connection goes away, a slot frees up (the reader
    // notices the EOF within its poll period).
    drop(first);
    let deadline = std::time::Instant::now() + Duration::from_secs(30);
    loop {
        let mut retry = client_for(&handle);
        match retry.call(&request(3, "ping", "")) {
            Ok(outcome) if response_status(&outcome.response) == status::OK => break,
            _ if std::time::Instant::now() < deadline => {
                std::thread::sleep(Duration::from_millis(50));
            }
            other => panic!("slot never freed: {other:?}"),
        }
    }
    assert_eq!(handle.drain_and_join().dropped, 0);
}

#[test]
fn deadline_during_a_cacheable_build_is_neither_shared_nor_persisted() {
    // About 0.2 s of polled work in a release build and 2.5 s in a debug
    // build: long enough that a 60 ms deadline always fires mid-build.
    const WORK: &str = r#""kind":"error_rate","params":{"kernel":"fir","frames":60,"locked_fus":3,"locked_inputs":3,"max_assignments":20000,"optimal_budget":200000}"#;
    let work = |id: u64, extra: &str| {
        lockbind_obs::json::parse(format!(r#"{{"id":{id},{extra}{WORK}}}"#).as_bytes())
            .expect("valid request JSON")
    };
    // The reference answer from a fresh daemon, computed concurrently.
    let fresh = debug_server(1, 8, 8);
    let mut fresh_client = client_for(&fresh);
    let reference = std::thread::spawn(move || {
        let raw = fresh_client.call(&work(3, "")).expect("calls").raw;
        assert_eq!(fresh.drain_and_join().dropped, 0);
        raw
    });

    let dir = std::env::temp_dir().join(format!("lockbind-deadline-build-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let handle = start(ServerConfig {
        addr: "127.0.0.1:0".to_string(),
        workers: 2,
        cache_dir: Some(dir.clone()),
        ..ServerConfig::default()
    })
    .expect("server starts");
    // The leader starts the build under a deadline; the follower, sent
    // while that build runs, coalesces onto it without a deadline.
    let mut leader = client_for(&handle);
    leader
        .send(&work(1, r#""deadline_ms":60,"#))
        .expect("sends");
    std::thread::sleep(Duration::from_millis(10));
    let mut follower = client_for(&handle);
    follower.send(&work(2, "")).expect("sends");

    let (doc, _) = leader.read_event().expect("reads");
    assert_eq!(response_status(&doc), status::DEADLINE_EXCEEDED);
    assert_eq!(response_error_code(&doc), code::DEADLINE_EXCEEDED);
    let message = doc["error"]["message"].as_str().unwrap_or_default();
    assert!(
        message.starts_with("deadline exceeded: "),
        "the deadline fired inside the leader's own build: {message}"
    );
    // The timed-out build stored nothing: the follower retries under its
    // own token and gets the real answer.
    let (doc, _) = follower.read_event().expect("reads");
    assert_eq!(response_status(&doc), status::OK, "{doc:?}");

    let later = client_for(&handle).call(&work(3, "")).expect("calls");
    assert_eq!(response_status(&later.response), status::OK);
    assert_eq!(
        later.raw,
        reference.join().expect("reference thread"),
        "same bytes as a fresh daemon"
    );
    assert_eq!(
        handle.durable_counts(),
        Some((0, 1)),
        "only the follower's build is persisted"
    );
    assert_eq!(handle.drain_and_join().dropped, 0);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn a_reused_id_never_makes_another_request_uncancellable() {
    let handle = debug_server(2, 8, 8);
    let mut long = client_for(&handle);
    let mut other = client_for(&handle);
    let mut admin = client_for(&handle);
    let cancel = |admin: &mut ServeClient, target: u64| {
        let outcome = admin
            .call(&request(
                100 + target,
                "cancel",
                &format!(r#""params":{{"target_id":{target}}}"#),
            ))
            .expect("calls");
        result_field(&outcome.response, "found").cloned()
    };
    let assert_interrupted_promptly = |long: &mut ServeClient, started: std::time::Instant| {
        let (doc, _) = long.read_event().expect("reads");
        assert_eq!(response_status(&doc), status::INTERRUPTED);
        assert!(
            started.elapsed() < Duration::from_secs(4),
            "the cancel did not reach the long request"
        );
    };

    // Finish: a short request with the same id completes first.
    let started = std::time::Instant::now();
    long.send(&request(7, "sleep", r#""params":{"ms":5000}"#))
        .expect("sends");
    std::thread::sleep(Duration::from_millis(50)); // let it start
    let outcome = other
        .call(&request(7, "sleep", r#""params":{"ms":1}"#))
        .expect("calls");
    assert_eq!(response_status(&outcome.response), status::OK);
    assert_eq!(cancel(&mut admin, 7), Some(Json::Bool(true)));
    assert_interrupted_promptly(&mut long, started);

    // Shed: a request with the same id is refused at admission.
    let started = std::time::Instant::now();
    long.send(&request(9, "sleep", r#""params":{"ms":5000}"#))
        .expect("sends");
    std::thread::sleep(Duration::from_millis(50)); // let it start
    handle.begin_drain();
    let outcome = other
        .call(&request(9, "sleep", r#""params":{"ms":1}"#))
        .expect("calls");
    assert_eq!(response_status(&outcome.response), status::SHED);
    assert_eq!(cancel(&mut admin, 9), Some(Json::Bool(true)));
    assert_interrupted_promptly(&mut long, started);
    assert_eq!(handle.drain_and_join().dropped, 0);
}
