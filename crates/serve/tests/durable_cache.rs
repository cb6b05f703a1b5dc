//! End-to-end durable response cache: warm restarts replay previous
//! answers byte-identically from disk, corrupt segments read as misses
//! (recomputed, never served), and the `stats` body reports the store.

use std::path::Path;
use std::time::Duration;

use lockbind_durable::{SegmentStore, StoreConfig};
use lockbind_obs::Json;
use lockbind_serve::client::{response_status, ServeClient};
use lockbind_serve::proto::decode_request;
use lockbind_serve::server::{start, ServerConfig};
use lockbind_serve::{status, RequestKind};

fn cache_server(dir: &Path) -> lockbind_serve::ServerHandle {
    start(ServerConfig {
        addr: "127.0.0.1:0".to_string(),
        workers: 2,
        cache_dir: Some(dir.to_path_buf()),
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

fn req(text: &str) -> Json {
    lockbind_obs::json::parse(text.as_bytes()).expect("valid request JSON")
}

const BIND: &str = r#"{"id":1,"kind":"bind","params":{"kernel":"fir","frames":30}}"#;

#[test]
fn warm_restart_replays_byte_identical_responses() {
    let dir = std::env::temp_dir().join(format!("lockbind-durable-e2e-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);

    // Cold run: computes, persists.
    let cold_bytes;
    {
        let handle = cache_server(&dir);
        let mut client = client_for(&handle);
        let outcome = client.call(&req(BIND)).expect("cold call");
        assert_eq!(response_status(&outcome.response), status::OK);
        cold_bytes = outcome.raw.clone();
        let stats = client
            .call(&req(r#"{"id":2,"kind":"stats"}"#))
            .expect("stats");
        assert_eq!(
            stats.response["result"]["durable"]["appends"].as_u64(),
            Some(1)
        );
        assert_eq!(
            stats.response["result"]["durable"]["persisted_hits"].as_u64(),
            Some(0)
        );
        assert_eq!(handle.drain_and_join().dropped, 0);
    }

    // Warm run: same request must be served from disk, byte-identical.
    {
        let handle = cache_server(&dir);
        assert!(
            handle
                .durable_recovery()
                .expect("durable enabled")
                .contains("recovery clean"),
            "clean shutdown recovers clean: {:?}",
            handle.durable_recovery()
        );
        let mut client = client_for(&handle);
        let outcome = client.call(&req(BIND)).expect("warm call");
        assert_eq!(outcome.raw, cold_bytes, "warm response is byte-identical");
        let stats = client
            .call(&req(r#"{"id":2,"kind":"stats"}"#))
            .expect("stats");
        assert_eq!(
            stats.response["result"]["durable"]["persisted_hits"].as_u64(),
            Some(1),
            "the warm answer came from disk"
        );
        assert_eq!(
            stats.response["result"]["durable"]["appends"].as_u64(),
            Some(0),
            "nothing new was computed"
        );
        assert_eq!(handle.drain_and_join().dropped, 0);
    }

    // Corruption: flip a byte in the stored record's value region. The
    // store must treat it as a miss (CRC fails on read), recompute, and
    // still answer byte-identically — corrupt bytes are never served.
    {
        let seg = dir.join("cache.seg");
        let mut bytes = std::fs::read(&seg).expect("segment exists");
        let target = bytes.len() - 8; // inside the last record's value
        bytes[target] ^= 0x40;
        std::fs::write(&seg, &bytes).expect("corrupts segment");

        let handle = cache_server(&dir);
        let mut client = client_for(&handle);
        let outcome = client.call(&req(BIND)).expect("post-corruption call");
        assert_eq!(
            outcome.raw, cold_bytes,
            "corruption is recomputed, not served"
        );
        let stats = client
            .call(&req(r#"{"id":2,"kind":"stats"}"#))
            .expect("stats");
        assert_eq!(
            stats.response["result"]["durable"]["persisted_hits"].as_u64(),
            Some(0),
            "the corrupt record was not a hit"
        );
        assert_eq!(handle.drain_and_join().dropped, 0);
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// The fingerprint of an earlier response format (tag `v1`, `v2`, ...):
/// FNV-1a over the tag and the crate version, as the daemon computes it.
fn fingerprint_of(version: &str) -> u64 {
    let tag = format!(
        "lockbind-serve response-cache {version} {}",
        env!("CARGO_PKG_VERSION")
    );
    tag.bytes().fold(0xCBF2_9CE4_8422_2325u64, |hash, byte| {
        (hash ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01B3)
    })
}

#[test]
fn a_segment_written_under_the_previous_format_is_set_aside() {
    // The body the `v1` format returned for the request.
    stale_segment_is_set_aside(
        "v1",
        r#"{"id":12,"kind":"sat_attack","params":{"scheme":"rll","width":3}}"#,
        r#"O{"scheme":"rll","key_bits":6,"iterations":3,"success":true,"conflicts":67,"propagations":1716,"gc_runs":0}"#,
    );
}

#[test]
fn a_segment_written_under_the_v2_format_is_set_aside() {
    // The body the `v2` format (Tseitin chains in every oracle
    // constraint) returned for the request.
    stale_segment_is_set_aside(
        "v2",
        r#"{"id":12,"kind":"sat_attack","params":{"scheme":"anti-sat","width":3}}"#,
        r#"O{"scheme":"anti-sat","key_bits":12,"iterations":64,"success":true,"conflicts":200,"propagations":90872,"gc_runs":0}"#,
    );
}

/// A store holding `old_body` for the SAT request `sat` under format
/// `version` is set aside on open, and the request is recomputed exactly
/// as a fresh daemon answers it.
fn stale_segment_is_set_aside(version: &str, sat: &str, old_body: &str) {
    let dir =
        std::env::temp_dir().join(format!("lockbind-durable-{version}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    {
        let (mut store, _) = SegmentStore::open(
            &dir,
            StoreConfig {
                fingerprint: fingerprint_of(version),
                ..StoreConfig::default()
            },
        )
        .expect("opens under the old format");
        let RequestKind::Work(work) = decode_request(&req(sat), false).expect("decodes").kind
        else {
            panic!("sat_attack is engine work");
        };
        store
            .append(work.cache_key().as_bytes(), old_body.as_bytes())
            .expect("appends");
    }

    let fresh = start(ServerConfig {
        addr: "127.0.0.1:0".to_string(),
        workers: 2,
        ..ServerConfig::default()
    })
    .expect("server starts");
    let fresh_bytes = client_for(&fresh).call(&req(sat)).expect("fresh call").raw;
    assert_eq!(fresh.drain_and_join().dropped, 0);

    let handle = cache_server(&dir);
    let recovery = handle.durable_recovery().expect("durable enabled");
    assert!(
        recovery.contains("stale segment set aside") && recovery.contains("fingerprint"),
        "{recovery}"
    );
    assert!(
        dir.join("cache.seg.stale").exists(),
        "old segment kept aside"
    );
    let mut client = client_for(&handle);
    let outcome = client.call(&req(sat)).expect("upgraded call");
    assert_eq!(response_status(&outcome.response), status::OK);
    assert_eq!(outcome.raw, fresh_bytes, "answers like a fresh daemon");
    assert_eq!(
        handle.durable_counts(),
        Some((0, 1)),
        "recomputed, not replayed"
    );
    assert_eq!(handle.drain_and_join().dropped, 0);
    let _ = std::fs::remove_dir_all(&dir);
}
