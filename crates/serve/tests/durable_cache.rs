//! End-to-end durable response cache: warm restarts replay previous
//! answers byte-identically from disk, corrupt segments read as misses
//! (recomputed, never served), and the `stats` body reports the store.

use std::path::Path;
use std::time::Duration;

use lockbind_obs::Json;
use lockbind_serve::client::{response_status, ServeClient};
use lockbind_serve::server::{start, ServerConfig};
use lockbind_serve::status;

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
