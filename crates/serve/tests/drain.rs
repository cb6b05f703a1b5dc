//! Graceful drain: once drain begins, no new work is admitted, but
//! every request admitted before the drain — queued or executing —
//! completes and its response reaches the client. `dropped` is zero.

use std::time::Duration;

use lockbind_serve::client::{response_status, ServeClient};
use lockbind_serve::server::{start, ServerConfig};
use lockbind_serve::status;

#[test]
fn drain_completes_all_admitted_work() {
    let handle = start(ServerConfig {
        addr: "127.0.0.1:0".to_string(),
        workers: 2,
        debug_kinds: true,
        ..ServerConfig::default()
    })
    .expect("server starts");
    let mut client = ServeClient::connect(&handle.addr()).expect("connects");
    client
        .set_read_timeout(Some(Duration::from_secs(120)))
        .expect("sets timeout");

    // Four sleeps on two workers: two run immediately, two queue.
    for id in 1..=4u64 {
        let text = format!(r#"{{"id":{id},"kind":"sleep","params":{{"ms":300}}}}"#);
        client.send_raw(text.as_bytes()).expect("sends");
    }
    std::thread::sleep(Duration::from_millis(100)); // admissions land
    handle.begin_drain();

    // Post-drain work is shed, not admitted; the admitted sleeps still
    // complete. Responses interleave freely, so collect all five.
    client
        .send_raw(br#"{"id":5,"kind":"sleep","params":{"ms":1}}"#)
        .expect("sends post-drain request");
    let mut by_id = std::collections::BTreeMap::new();
    for _ in 0..5 {
        let (doc, _) = client.read_event().expect("reads response");
        let id = doc["id"]
            .as_u64()
            .unwrap_or_else(|| panic!("response without integer id: {doc:?}"));
        by_id.insert(id, response_status(&doc).to_string());
    }
    assert_eq!(
        by_id.into_iter().collect::<Vec<_>>(),
        vec![
            (1, status::OK.to_string()),
            (2, status::OK.to_string()),
            (3, status::OK.to_string()),
            (4, status::OK.to_string()),
            (5, status::SHED.to_string()),
        ]
    );

    let summary = handle.drain_and_join();
    assert_eq!(summary.admitted, 4);
    assert_eq!(summary.completed, 4);
    assert_eq!(
        summary.dropped, 0,
        "graceful drain must not drop admitted work"
    );
}
