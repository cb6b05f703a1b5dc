//! Sweep checkpoints: completed cells in a `lockbind_durable` segment store.
//!
//! A checkpoint is a store directory whose header fingerprint binds it to
//! one grid: [`fingerprint`] over the root seed and every cell's
//! [`crate::Job::checkpoint_identity`] (its parameters, not just its
//! label), mixed with [`CHECKPOINT_SCHEMA`]. Each record maps a cell's index (8
//! little-endian bytes) to its job-encoded output, rendered as JSON. The store's own recovery makes the
//! checkpoint crash-safe: a torn tail left by a kill is truncated and
//! quarantined, a CRC-corrupt record ends the scan (it and every later
//! record re-run rather than splice wrong bytes into the result), and a
//! store written for another grid or schema is set aside as `.stale`, so
//! the sweep runs fresh.
//!
//! Only cells whose job implements [`crate::Job::encode_output`] are
//! written; everything else simply re-runs on resume — correct (the engine
//! is deterministic) if not maximally fast.

use std::io;
use std::path::Path;

use lockbind_durable::{RecoveryReport, SegmentStore, StoreConfig};

/// The read-only view of a checkpoint store: [`Segment::read`] runs the
/// store's own recovery scan without repairing anything.
pub use lockbind_durable::Segment;

/// Checkpoint record schema, mixed into the store fingerprint. Schema 1
/// stored payloads as delimited strings; later schemas embed JSON records.
/// Bump it whenever a job's output for an unchanged cell changes (schemas 3
/// and 4: SAT-attack records), so a resume never splices records of two
/// builds into one result.
pub const CHECKPOINT_SCHEMA: u64 = 4;

/// Content fingerprint of a grid: FNV-1a over the root seed, the cell
/// count, and every length-prefixed cell identity. Two grids are
/// resume-compatible iff their fingerprints match.
pub fn fingerprint(root_seed: u64, identities: &[String]) -> u64 {
    let mut bytes = Vec::new();
    bytes.extend_from_slice(&root_seed.to_le_bytes());
    bytes.extend_from_slice(&(identities.len() as u64).to_le_bytes());
    for identity in identities {
        bytes.extend_from_slice(&(identity.len() as u64).to_le_bytes());
        bytes.extend_from_slice(identity.as_bytes());
    }
    crate::cache::fnv1a(&bytes)
}

/// The store key of cell `index`: the index as 8 little-endian bytes.
pub(crate) fn key(index: usize) -> [u8; 8] {
    (index as u64).to_le_bytes()
}

/// Opens (creating if needed) the checkpoint store in `dir` for the grid
/// with fingerprint `grid`, running the store's recovery scan.
pub(crate) fn open(dir: &Path, grid: u64) -> io::Result<(SegmentStore, RecoveryReport)> {
    SegmentStore::open(dir, store_config(CHECKPOINT_SCHEMA, grid))
}

fn store_config(schema: u64, grid: u64) -> StoreConfig {
    let mut identity = schema.to_le_bytes().to_vec();
    identity.extend_from_slice(&grid.to_le_bytes());
    StoreConfig {
        fingerprint: crate::cache::fnv1a(&identity),
        // No fsync per record: each append still reaches the OS in one
        // write, so a killed process loses nothing; only a machine crash
        // can lose the latest records, and recovery then finds a shorter
        // prefix whose cells re-run.
        sync_appends: false,
        ..StoreConfig::default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lockbind_obs::json::{self, Json};

    fn temp_dir(name: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("lockbind-ckpt-{}-{name}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn labels(n: usize) -> Vec<String> {
        (0..n).map(|i| format!("cell/{i}")).collect()
    }

    fn payload(store: &mut SegmentStore, cell: usize) -> Option<Json> {
        json::parse(&store.get(&key(cell))?).ok()
    }

    #[test]
    fn fingerprint_is_sensitive_to_seed_count_and_labels() {
        let base = fingerprint(1, &labels(3));
        assert_eq!(base, fingerprint(1, &labels(3)), "deterministic");
        assert_ne!(base, fingerprint(2, &labels(3)), "seed");
        assert_ne!(base, fingerprint(1, &labels(4)), "count");
        let mut renamed = labels(3);
        renamed[1] = "cell/renamed".to_string();
        assert_ne!(base, fingerprint(1, &renamed), "labels");
        // Length prefixes keep label boundaries unambiguous.
        assert_ne!(
            fingerprint(0, &["ab".to_string(), "c".to_string()]),
            fingerprint(0, &["a".to_string(), "bc".to_string()]),
        );
    }

    #[test]
    fn round_trips_entries_with_awkward_payloads() {
        let dir = temp_dir("roundtrip");
        let fp = fingerprint(7, &labels(4));
        let awkward = Json::obj([
            (
                "name",
                Json::from("a\x1fb\x1ec \"quoted\" \\slash\nnewline\tté"),
            ),
            ("ratio", Json::from(-0.1f64)),
            ("list", Json::arr([Json::UInt(u64::MAX), Json::Null])),
        ]);
        let (mut store, _) = open(&dir, fp).expect("open");
        store
            .append(&key(0), Json::from("plain").render().as_bytes())
            .expect("append");
        store
            .append(&key(2), awkward.render().as_bytes())
            .expect("append");
        drop(store);
        let (mut store, report) = open(&dir, fp).expect("reopen");
        assert_eq!(report.live_records, 2);
        assert_eq!(payload(&mut store, 0), Some(Json::from("plain")));
        assert_eq!(payload(&mut store, 1), None);
        assert_eq!(payload(&mut store, 2), Some(awkward));
    }

    #[test]
    fn reopened_checkpoint_cuts_a_torn_tail_before_appending() {
        // A kill mid-append leaves a partial record; the next run must cut
        // it before appending, or the new record would follow the fragment
        // and be lost to the next recovery scan with it.
        let dir = temp_dir("append-repair");
        let fp = fingerprint(2, &labels(4));
        let (mut store, _) = open(&dir, fp).expect("open");
        store
            .append(&key(0), Json::from("first").render().as_bytes())
            .expect("append");
        let path = store.path().to_path_buf();
        drop(store);
        let mut bytes = std::fs::read(&path).expect("read");
        bytes.extend_from_slice(&[8, 0, 0, 0, 40, 0, 0, 0, 1, 2]);
        std::fs::write(&path, &bytes).expect("write");

        let (mut store, report) = open(&dir, fp).expect("reopen");
        assert_eq!(report.truncated_bytes, 10, "{report:?}");
        assert!(
            report.stale.is_none(),
            "matching store kept despite the tear"
        );
        store
            .append(&key(2), Json::from("second").render().as_bytes())
            .expect("append");
        drop(store);
        let (mut store, report) = open(&dir, fp).expect("reopen");
        assert!(report.summary().starts_with("recovery clean"), "{report:?}");
        assert_eq!(report.live_records, 2);
        assert_eq!(payload(&mut store, 0), Some(Json::from("first")));
        assert_eq!(payload(&mut store, 2), Some(Json::from("second")));
    }

    #[test]
    fn store_written_under_another_schema_is_set_aside() {
        // Stores of earlier schemas hold records of the same grid that this
        // build no longer produces: delimited-text payloads (schema 1) and
        // SAT-attack counts of older solvers (schemas 2 and 3). None may be
        // spliced in.
        let fp = fingerprint(5, &labels(2));
        let old_payloads = [
            (1, Json::from("impact\x1efir\x1f0.5\x1f1\x1f2")),
            (
                2,
                Json::obj([("sat", Json::obj([("iterations", Json::from(23u64))]))]),
            ),
            (
                3,
                Json::obj([("sat", Json::obj([("iterations", Json::from(19u64))]))]),
            ),
        ];
        for (schema, old) in old_payloads {
            let dir = temp_dir(&format!("schema-{schema}"));
            let (mut store, _) =
                SegmentStore::open(&dir, store_config(schema, fp)).expect("open old");
            store
                .append(&key(0), old.render().as_bytes())
                .expect("append");
            drop(store);

            let (mut store, report) = open(&dir, fp).expect("open current");
            let stale = report.stale.clone().expect("old store set aside");
            assert!(
                std::fs::metadata(&stale).is_ok(),
                "evidence kept: {stale:?}"
            );
            assert!(
                report
                    .stale_reason
                    .as_deref()
                    .unwrap_or("")
                    .contains("fingerprint"),
                "{report:?}"
            );
            assert_eq!(
                payload(&mut store, 0),
                None,
                "schema-{schema} record survived"
            );
            assert_eq!(report.live_records, 0);
        }
    }
}
