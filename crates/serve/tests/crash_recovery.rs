//! Crash harness: kill the real daemon binary (in-process abort at
//! injected sync points, and SIGKILL under live load), restart it on
//! the same `--cache-dir`, and assert the durable-store invariants:
//!
//! 1. no corrupt bytes are ever served — every response after recovery
//!    is byte-identical to a cold rebuild;
//! 2. recovery itself never fails — whatever the crash tore is
//!    truncated and quarantined, and the daemon comes back serving;
//! 3. a warm restart's persisted-hit count is strictly above a cold
//!    start's (which is zero).

use std::collections::BTreeMap;
use std::io::{BufRead as _, BufReader};
use std::path::{Path, PathBuf};
use std::process::{Child, ChildStdout, Command, Stdio};
use std::time::Duration;

use lockbind_obs::Json;
use lockbind_serve::client::{response_status, ServeClient};
use lockbind_serve::status;

const DAEMON: &str = env!("CARGO_BIN_EXE_lockbind-serve");

/// Distinct, small, deterministic work requests.
fn probes() -> Vec<String> {
    [30u64, 35, 40, 45, 50]
        .iter()
        .enumerate()
        .map(|(i, frames)| {
            format!(
                r#"{{"id":{},"kind":"bind","params":{{"kernel":"fir","frames":{frames}}}}}"#,
                i + 1
            )
        })
        .collect()
}

struct Daemon {
    child: Child,
    addr: String,
    stdout: BufReader<ChildStdout>,
}

impl Daemon {
    fn spawn(cache_dir: &Path, crash_at: Option<&str>) -> Daemon {
        let mut cmd = Command::new(DAEMON);
        cmd.args(["--addr", "127.0.0.1:0", "--workers", "2"])
            .arg("--cache-dir")
            .arg(cache_dir)
            .stdout(Stdio::piped())
            .stderr(Stdio::null());
        match crash_at {
            Some(point) => cmd.env("LOCKBIND_CRASH_AT", point),
            None => cmd.env_remove("LOCKBIND_CRASH_AT"),
        };
        let mut child = cmd.spawn().expect("daemon spawns");
        let mut stdout = BufReader::new(child.stdout.take().expect("stdout piped"));
        let mut line = String::new();
        let addr = loop {
            line.clear();
            if stdout.read_line(&mut line).expect("reads startup line") == 0 {
                panic!("daemon exited before announcing its address");
            }
            if let Some(rest) = line.trim().strip_prefix("[serve] listening on ") {
                break rest.to_string();
            }
        };
        Daemon {
            child,
            addr,
            stdout,
        }
    }

    fn client(&self) -> ServeClient {
        let client = ServeClient::connect(&self.addr).expect("connects");
        client
            .set_read_timeout(Some(Duration::from_secs(120)))
            .expect("sets timeout");
        client
    }

    /// SIGKILLs the daemon and reaps it.
    fn kill(mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }

    /// Waits for the daemon to die on its own (crash-point abort).
    fn wait_dead(mut self) {
        let status = self.child.wait().expect("daemon reaped");
        assert!(!status.success(), "a crash-point run must not exit 0");
        // Drain whatever stdout is left so the pipe closes cleanly.
        let mut rest = String::new();
        let _ = std::io::Read::read_to_string(&mut self.stdout, &mut rest);
    }
}

fn parse(text: &str) -> Json {
    lockbind_obs::json::parse(text.as_bytes()).expect("valid JSON")
}

/// Runs every probe against a live daemon, returning probe → raw
/// response bytes. Probes whose call dies (daemon crashed mid-request)
/// are skipped; `must_complete` makes that a failure instead.
fn replay(daemon: &Daemon, must_complete: bool) -> BTreeMap<String, Vec<u8>> {
    let mut out = BTreeMap::new();
    for probe in probes() {
        let mut client = daemon.client();
        match client.call(&parse(&probe)) {
            Ok(outcome) => {
                assert_eq!(response_status(&outcome.response), status::OK);
                out.insert(probe, outcome.raw);
            }
            Err(e) if must_complete => panic!("probe failed on a healthy daemon: {e}"),
            Err(_) => break,
        }
    }
    out
}

fn persisted_hits(daemon: &Daemon) -> u64 {
    let mut client = daemon.client();
    let stats = client
        .call(&parse(r#"{"id":900,"kind":"stats"}"#))
        .expect("stats");
    stats.response["result"]["durable"]["persisted_hits"]
        .as_u64()
        .expect("persisted_hits")
}

fn fresh_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("lockbind-crash-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

#[test]
fn crash_points_and_sigkill_never_corrupt_recovery() {
    // Reference: a cold daemon on a fresh store computes every probe.
    let ref_dir = fresh_dir("ref");
    let reference = {
        let daemon = Daemon::spawn(&ref_dir, None);
        let bytes = replay(&daemon, true);
        assert_eq!(bytes.len(), probes().len());
        assert_eq!(persisted_hits(&daemon), 0, "a cold start has no hits");
        daemon.kill();
        bytes
    };

    // Invariant 3: a warm restart on the reference store serves every
    // probe from disk — strictly more persisted hits than cold (zero).
    {
        let daemon = Daemon::spawn(&ref_dir, None);
        let warm = replay(&daemon, true);
        assert_eq!(warm, reference, "warm responses are byte-identical");
        let hits = persisted_hits(&daemon);
        assert!(
            hits >= probes().len() as u64,
            "warm hit count {hits} must beat a cold start's 0"
        );
        daemon.kill();
    }

    // Invariants 1 + 2 at every injected crash point: the daemon aborts
    // mid-append, and the restart must recover and serve correct bytes.
    for point in [
        "durable.append.pre_write",
        "durable.append.pre_sync",
        "durable.append.post_sync",
    ] {
        let dir = fresh_dir(&point.replace('.', "-"));
        let crashing = Daemon::spawn(&dir, Some(point));
        let partial = replay(&crashing, false);
        assert!(
            partial.len() < probes().len(),
            "{point}: the daemon must die at its first append"
        );
        crashing.wait_dead();

        let recovered = Daemon::spawn(&dir, None);
        let warm = replay(&recovered, true);
        assert_eq!(
            warm, reference,
            "{point}: every response after recovery matches the cold rebuild"
        );
        recovered.kill();
        let _ = std::fs::remove_dir_all(&dir);
    }

    // SIGKILL under live load: no cooperation from the daemon at all.
    {
        let dir = fresh_dir("sigkill");
        let daemon = Daemon::spawn(&dir, None);
        let addr = daemon.addr.clone();
        let hammer = std::thread::spawn(move || {
            // Loop the probes until the daemon disappears under us.
            for _ in 0..50 {
                let Ok(client) = ServeClient::connect(&addr) else {
                    return;
                };
                let _ = client.set_read_timeout(Some(Duration::from_secs(5)));
                let mut client = client;
                for probe in probes() {
                    if client.call(&parse(&probe)).is_err() {
                        return;
                    }
                }
            }
        });
        std::thread::sleep(Duration::from_millis(300));
        daemon.kill();
        hammer.join().expect("load thread exits");

        let recovered = Daemon::spawn(&dir, None);
        let warm = replay(&recovered, true);
        assert_eq!(
            warm, reference,
            "SIGKILL under load: recovered responses match the cold rebuild"
        );
        recovered.kill();
        let _ = std::fs::remove_dir_all(&dir);
    }
    let _ = std::fs::remove_dir_all(&ref_dir);
}
