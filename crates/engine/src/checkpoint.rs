//! Sweep checkpoint/resume: a JSON-lines file of completed cells.
//!
//! The file starts with a header line binding the checkpoint to a specific
//! grid — a [`fingerprint`] over the root seed, the cell count, and every
//! cell label — followed by one line per completed cell carrying the
//! job-encoded output as an embedded JSON value. Appends are flushed per
//! cell, so a run killed mid-sweep leaves a loadable prefix; resuming with
//! a file whose schema or fingerprint does not match the submitted grid is
//! rejected (the caller falls back to a full run).
//!
//! Only cells whose job implements [`crate::Job::encode_output`] are
//! written; everything else simply re-runs on resume — correct (the engine
//! is deterministic) if not maximally fast.

use std::fs::{File, OpenOptions};
use std::io::{BufWriter, Write as _};
use std::path::Path;
use std::sync::Mutex;

use lockbind_obs as obs;
use lockbind_obs::json::{self, Json};

/// Checkpoint file schema version (the `"schema"` header field). Schema 1
/// stored payloads as delimited strings; later schemas embed JSON records.
/// Bump it whenever a job's output for an unchanged cell changes (schemas 3
/// and 4: SAT-attack records), so a resume never splices records of two
/// builds into one result.
pub const CHECKPOINT_SCHEMA: u64 = 4;

/// Content fingerprint of a grid: FNV-1a over the root seed, the cell
/// count, and every length-prefixed cell label. Two grids resume-compatible
/// iff their fingerprints match.
pub fn fingerprint(root_seed: u64, labels: &[String]) -> u64 {
    let mut bytes = Vec::new();
    bytes.extend_from_slice(&root_seed.to_le_bytes());
    bytes.extend_from_slice(&(labels.len() as u64).to_le_bytes());
    for label in labels {
        bytes.extend_from_slice(&(label.len() as u64).to_le_bytes());
        bytes.extend_from_slice(label.as_bytes());
    }
    crate::cache::fnv1a(&bytes)
}

/// One completed-cell record loaded from a checkpoint file.
#[derive(Debug, Clone, PartialEq)]
pub struct CheckpointEntry {
    /// Cell index in the submitted job slice.
    pub cell: usize,
    /// Job-encoded output payload.
    pub payload: Json,
}

/// Parses a checkpoint header line and returns its fingerprint.
///
/// # Errors
/// A message when the line is not JSON, carries another
/// [`CHECKPOINT_SCHEMA`], or has no fingerprint.
fn header_fingerprint(line: &str) -> Result<u64, String> {
    let header =
        json::parse(line.as_bytes()).map_err(|e| format!("checkpoint header is not JSON: {e}"))?;
    match header["schema"].as_u64() {
        Some(CHECKPOINT_SCHEMA) => {}
        found => {
            return Err(format!(
                "checkpoint schema {found:?} is not {CHECKPOINT_SCHEMA}; \
                 was it written by an older build?"
            ))
        }
    }
    header["fingerprint"]
        .as_u64()
        .ok_or_else(|| "checkpoint header has no fingerprint".to_string())
}

/// Loads the completed-cell records of a checkpoint file.
///
/// # Errors
/// Returns a human-readable message when the file cannot be read, the
/// header is malformed, or its fingerprint does not match `expected` —
/// callers are expected to warn and fall back to a full run.
pub fn load(path: &Path, expected: u64) -> Result<Vec<CheckpointEntry>, String> {
    // A byte-level torn-tail-tolerant scan: a writer killed mid-record can
    // tear the file inside a multi-byte UTF-8 sequence, which a plain
    // line-by-line text read would report as a hard I/O error. The torn
    // fragment just means its cell re-runs; it must never fail the resume.
    let tail = lockbind_durable::tail::read_jsonl(path)
        .map_err(|e| format!("cannot read checkpoint {}: {e}", path.display()))?;
    if tail.torn_bytes > 0 {
        obs::counter!("checkpoint.torn_tail").inc();
        eprintln!(
            "[engine] checkpoint {} has a torn trailing record ({} bytes); ignoring it \
             (the interrupted cell will re-run)",
            path.display(),
            tail.torn_bytes
        );
    }
    let mut lines = tail.lines.into_iter();
    let header = lines
        .next()
        .ok_or_else(|| "checkpoint file is empty".to_string())?;
    let found = header_fingerprint(&header)?;
    if found != expected {
        return Err(format!(
            "checkpoint fingerprint {found:#018x} does not match this grid ({expected:#018x}); \
             was it written by a different sweep?"
        ));
    }
    let mut entries = Vec::new();
    for line in lines {
        // A torn or partial line is ignored: its cell just re-runs.
        let Ok(doc) = json::parse(line.as_bytes()) else {
            continue;
        };
        if let (Some(cell), Some(payload)) = (doc["cell"].as_u64(), doc.get("payload")) {
            entries.push(CheckpointEntry {
                cell: cell as usize,
                payload: payload.clone(),
            });
        }
    }
    Ok(entries)
}

/// Append-mode checkpoint writer shared across worker threads; every
/// [`append`](Self::append) is flushed so a kill loses at most the line
/// being written.
#[derive(Debug)]
pub(crate) struct CheckpointWriter {
    out: Mutex<BufWriter<File>>,
    appended: bool,
}

impl CheckpointWriter {
    /// Opens `path` for checkpointing a grid with the given identity.
    /// When `resuming` and the file already holds a header of this schema
    /// and fingerprint, new cells are appended after the existing ones;
    /// otherwise the file is recreated with a fresh header.
    pub(crate) fn open(
        path: &Path,
        fingerprint: u64,
        root_seed: u64,
        cells: usize,
        resuming: bool,
    ) -> std::io::Result<Self> {
        // The header probe is torn-tail tolerant for the same reason
        // `load` is: a kill can tear the file mid-UTF-8-sequence, and a
        // whole-file text read would then fail, silently demoting a
        // resumable checkpoint to a truncating rewrite (losing every
        // completed cell).
        let append = resuming
            && lockbind_durable::tail::read_jsonl(path)
                .ok()
                .and_then(|tail| header_fingerprint(tail.lines.first()?).ok())
                .is_some_and(|found| found == fingerprint);
        if append {
            // Continuing after a kill: drop any torn trailing fragment so
            // the next record does not concatenate with it (which would
            // corrupt both records, not just lose the torn one).
            match lockbind_durable::tail::truncate_torn_tail(path) {
                Ok(0) => {}
                Ok(removed) => {
                    obs::counter!("checkpoint.torn_tail").inc();
                    eprintln!(
                        "[engine] checkpoint {} had a torn trailing record ({removed} bytes); \
                         truncated before appending",
                        path.display()
                    );
                }
                Err(e) => {
                    eprintln!(
                        "[engine] cannot repair checkpoint tail {}: {e}",
                        path.display()
                    );
                }
            }
        }
        if let Some(parent) = path.parent() {
            if !parent.as_os_str().is_empty() {
                std::fs::create_dir_all(parent)?;
            }
        }
        let file = OpenOptions::new()
            .create(true)
            .append(append)
            .write(true)
            .truncate(!append)
            .open(path)?;
        let mut out = BufWriter::new(file);
        if !append {
            writeln!(
                out,
                "{}",
                Json::obj([
                    ("schema", Json::from(CHECKPOINT_SCHEMA)),
                    ("fingerprint", Json::from(fingerprint)),
                    ("root_seed", Json::from(root_seed)),
                    ("cells", Json::from(cells)),
                ])
                .render()
            )?;
            out.flush()?;
        }
        Ok(CheckpointWriter {
            out: Mutex::new(out),
            appended: append,
        })
    }

    /// `true` when the writer continued an existing matching file rather
    /// than starting a fresh one.
    pub(crate) fn appended(&self) -> bool {
        self.appended
    }

    /// Appends one completed cell and flushes.
    pub(crate) fn append(&self, cell: usize, label: &str, payload: Json) -> std::io::Result<()> {
        let line = Json::obj([
            ("cell", Json::from(cell)),
            ("label", Json::from(label)),
            ("payload", payload),
        ])
        .render();
        let mut out = self.out.lock().expect("checkpoint writer poisoned");
        writeln!(out, "{line}")?;
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temp_path(name: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("lockbind-ckpt-{}-{name}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("temp dir");
        dir.join("checkpoint.jsonl")
    }

    fn labels(n: usize) -> Vec<String> {
        (0..n).map(|i| format!("cell/{i}")).collect()
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
        let path = temp_path("roundtrip");
        let fp = fingerprint(7, &labels(4));
        let awkward = Json::obj([
            (
                "name",
                Json::from("a\x1fb\x1ec \"quoted\" \\slash\nnewline\tté"),
            ),
            ("ratio", Json::from(-0.1f64)),
            ("list", Json::arr([Json::UInt(u64::MAX), Json::Null])),
        ]);
        let writer = CheckpointWriter::open(&path, fp, 7, 4, false).expect("open");
        writer
            .append(0, "cell/0", Json::from("plain"))
            .expect("append");
        writer.append(2, "cell/2", awkward.clone()).expect("append");
        drop(writer);
        let entries = load(&path, fp).expect("load");
        assert_eq!(entries.len(), 2);
        assert_eq!(
            entries[0],
            CheckpointEntry {
                cell: 0,
                payload: Json::from("plain")
            }
        );
        assert_eq!(entries[1].cell, 2);
        assert_eq!(entries[1].payload, awkward);
    }

    #[test]
    fn fingerprint_mismatch_is_rejected() {
        let path = temp_path("mismatch");
        let fp = fingerprint(7, &labels(4));
        let writer = CheckpointWriter::open(&path, fp, 7, 4, false).expect("open");
        writer.append(0, "cell/0", Json::from("x")).expect("append");
        drop(writer);
        let err = load(&path, fp ^ 1).unwrap_err();
        assert!(err.contains("does not match"), "{err}");
    }

    #[test]
    fn torn_final_line_is_ignored() {
        let path = temp_path("torn");
        let fp = fingerprint(1, &labels(3));
        let writer = CheckpointWriter::open(&path, fp, 1, 3, false).expect("open");
        writer
            .append(0, "cell/0", Json::from("ok"))
            .expect("append");
        drop(writer);
        // Simulate a kill mid-write: truncated trailing record.
        let mut text = std::fs::read_to_string(&path).expect("read");
        text.push_str("{\"cell\":1,\"label\":\"cell/1\",\"payl");
        std::fs::write(&path, text).expect("write");
        let entries = load(&path, fp).expect("load");
        assert_eq!(entries.len(), 1);
        assert_eq!(entries[0].cell, 0);
    }

    #[test]
    fn torn_multibyte_tail_is_truncated_not_fatal() {
        // Regression: a kill mid-write can tear the file *inside* a
        // multi-byte UTF-8 sequence. `BufRead::lines()` reports that as an
        // I/O error, which used to fail the whole resume hard.
        let path = temp_path("torn-utf8");
        let fp = fingerprint(1, &labels(3));
        let writer = CheckpointWriter::open(&path, fp, 1, 3, false).expect("open");
        writer
            .append(0, "cell/0", Json::from("ok"))
            .expect("append");
        drop(writer);
        let mut bytes = std::fs::read(&path).expect("read");
        let torn = "{\"cell\":1,\"label\":\"cell/1\",\"payload\":\"té";
        bytes.extend_from_slice(&torn.as_bytes()[..torn.len() - 1]);
        std::fs::write(&path, &bytes).expect("write");
        let entries = load(&path, fp).expect("torn tail must not fail the load");
        assert_eq!(entries.len(), 1);
        assert_eq!(entries[0].cell, 0);
    }

    #[test]
    fn resume_append_repairs_a_torn_tail_first() {
        // Regression: reopening in append mode used to write the next
        // record directly after a torn fragment, corrupting both.
        let path = temp_path("append-repair");
        let fp = fingerprint(2, &labels(4));
        let writer = CheckpointWriter::open(&path, fp, 2, 4, false).expect("open");
        writer
            .append(0, "cell/0", Json::from("first"))
            .expect("append");
        drop(writer);
        let mut bytes = std::fs::read(&path).expect("read");
        bytes.extend_from_slice(b"{\"cell\":1,\"label\":\"cell/1\",\"payl");
        std::fs::write(&path, &bytes).expect("write");
        let writer = CheckpointWriter::open(&path, fp, 2, 4, true).expect("reopen");
        assert!(writer.appended(), "matching header despite the torn tail");
        writer
            .append(2, "cell/2", Json::from("second"))
            .expect("append");
        drop(writer);
        let entries = load(&path, fp).expect("load");
        assert_eq!(entries.len(), 2, "{entries:?}");
        assert_eq!((entries[0].cell, entries[1].cell), (0, 2));
        assert_eq!(entries[1].payload, Json::from("second"));
    }

    #[test]
    fn resume_append_survives_a_torn_multibyte_tail() {
        // Regression: the append-mode header probe used read_to_string,
        // so an invalid-UTF-8 tear silently demoted the resume to a
        // truncating rewrite — losing every completed cell.
        let path = temp_path("append-utf8");
        let fp = fingerprint(5, &labels(3));
        let writer = CheckpointWriter::open(&path, fp, 5, 3, false).expect("open");
        writer
            .append(0, "cell/0", Json::from("kept"))
            .expect("append");
        drop(writer);
        let mut bytes = std::fs::read(&path).expect("read");
        let torn = "{\"payload\":\"é";
        bytes.extend_from_slice(&torn.as_bytes()[..torn.len() - 1]);
        std::fs::write(&path, &bytes).expect("write");
        let writer = CheckpointWriter::open(&path, fp, 5, 3, true).expect("reopen");
        assert!(writer.appended(), "completed cells must survive the tear");
        drop(writer);
        let entries = load(&path, fp).expect("load");
        assert_eq!(entries.len(), 1);
        assert_eq!(entries[0].payload, Json::from("kept"));
    }

    #[test]
    fn resuming_appends_after_a_matching_header() {
        let path = temp_path("resume-append");
        let fp = fingerprint(3, &labels(5));
        let writer = CheckpointWriter::open(&path, fp, 3, 5, false).expect("open");
        writer
            .append(0, "cell/0", Json::from("first"))
            .expect("append");
        drop(writer);
        let writer = CheckpointWriter::open(&path, fp, 3, 5, true).expect("reopen");
        writer
            .append(1, "cell/1", Json::from("second"))
            .expect("append");
        drop(writer);
        let entries = load(&path, fp).expect("load");
        assert_eq!(entries.len(), 2);
        // A non-resuming reopen starts the file over.
        let writer = CheckpointWriter::open(&path, fp, 3, 5, false).expect("truncate");
        drop(writer);
        assert!(load(&path, fp).expect("load").is_empty());
    }

    #[test]
    fn schema_one_checkpoint_is_ignored_and_rewritten() {
        // A file from the delimited-payload era: right fingerprint, old
        // schema. Loading must reject it, and a resuming writer must start
        // the file over rather than append JSON records after it.
        let path = temp_path("schema-1");
        let fp = fingerprint(7, &labels(4));
        let old = format!(
            "{{\"schema\":1,\"fingerprint\":{fp},\"root_seed\":7,\"cells\":4}}\n\
             {{\"cell\":0,\"label\":\"cell/0\",\"payload\":\"impact\x1efir\x1f0.5\x1f1\x1f2\"}}\n"
        );
        std::fs::write(&path, old).expect("write");
        let err = load(&path, fp).unwrap_err();
        assert!(err.contains("schema"), "{err}");
        let writer = CheckpointWriter::open(&path, fp, 7, 4, true).expect("reopen");
        assert!(!writer.appended(), "a schema-1 file must be rewritten");
        writer
            .append(1, "cell/1", Json::from("new"))
            .expect("append");
        drop(writer);
        let text = std::fs::read_to_string(&path).expect("read");
        let header = format!("{{\"schema\":{CHECKPOINT_SCHEMA},");
        assert!(text.starts_with(&header), "{text}");
        assert!(!text.contains('\x1e'), "old records survived: {text}");
        let entries = load(&path, fp).expect("load");
        assert_eq!(entries.len(), 1);
        assert_eq!(
            (entries[0].cell, &entries[0].payload),
            (1, &Json::from("new"))
        );
    }

    #[test]
    fn checkpoint_with_other_sat_results_is_ignored_and_rewritten() {
        old_sat_checkpoint_is_ignored_and_rewritten(2, 23, 192);
    }

    #[test]
    fn schema_three_sat_checkpoint_is_ignored_and_rewritten() {
        old_sat_checkpoint_is_ignored_and_rewritten(3, 19, 188);
    }

    /// A file of an older `schema` with the right fingerprint holds a
    /// SAT-attack record whose counts this build no longer produces.
    /// Resuming must not splice it in: loading rejects it and the writer
    /// starts over.
    fn old_sat_checkpoint_is_ignored_and_rewritten(schema: u64, iterations: u64, conflicts: u64) {
        let path = temp_path(&format!("schema-{schema}"));
        let fp = fingerprint(5, &labels(2));
        let old = format!(
            "{{\"schema\":{schema},\"fingerprint\":{fp},\"root_seed\":5,\"cells\":2}}\n\
             {{\"cell\":0,\"label\":\"cell/0\",\"payload\":{{\"sat\":{{\"iterations\":{iterations},\"conflicts\":{conflicts}}}}}}}\n"
        );
        std::fs::write(&path, old).expect("write");
        let err = load(&path, fp).unwrap_err();
        assert!(err.contains("schema"), "{err}");
        let writer = CheckpointWriter::open(&path, fp, 5, 2, true).expect("reopen");
        assert!(
            !writer.appended(),
            "a schema-{schema} file must be rewritten"
        );
        drop(writer);
        let text = std::fs::read_to_string(&path).expect("read");
        assert!(!text.contains("\"sat\""), "old records survived: {text}");
        assert!(load(&path, fp).expect("load").is_empty());
    }
}
