//! The append-only CRC-framed segment store.
//!
//! # On-disk format
//!
//! One segment file (`cache.seg`) per store directory:
//!
//! ```text
//! header (24 bytes):
//!   magic        8  b"LBDSEG01"
//!   schema       4  u32 LE   — SEGMENT_SCHEMA
//!   fingerprint  8  u64 LE   — build/config identity of the writer
//!   header_crc   4  u32 LE   — CRC32C of the previous 20 bytes
//! record (repeated to EOF):
//!   key_len      4  u32 LE
//!   val_len      4  u32 LE
//!   record_crc   4  u32 LE   — CRC32C of key_len ‖ val_len ‖ key ‖ value
//!   key          key_len
//!   value        val_len
//! ```
//!
//! Appends go to the end of the segment (fsynced by default); whole-file
//! writes (fresh segment creation, compaction) go through temp file →
//! fsync → rename → directory fsync, so a crash never leaves a half-built
//! segment under the live name.
//!
//! # Recovery
//!
//! [`SegmentStore::open`] validates the header (wrong magic, schema,
//! fingerprint, or header CRC sets the whole file aside as `.stale` —
//! stale stores self-invalidate, and evidence is never deleted), then
//! scans records forward. The first torn, short, or CRC-corrupt record
//! ends the scan: the damaged tail is appended to a `.corrupt` sidecar
//! and the segment truncated back to its last good record. Reads verify
//! the record CRC again on every [`SegmentStore::get`], so corrupt bytes
//! are never returned even if the media rots after the scan.
//! [`Segment::read`] is the read-only half of that scan (header check and
//! record walk, no repair), shared by `open` and offline readers.

use std::collections::HashMap;
use std::fs::{self, File, OpenOptions};
use std::io::{self, Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};

use lockbind_resil::{crash_point, FaultKind, FaultPlan};

use crate::crc::{crc32c, extend};

/// On-disk format version; bumping it invalidates every existing store.
pub const SEGMENT_SCHEMA: u32 = 1;

/// Magic prefix of a segment file.
pub const SEGMENT_MAGIC: [u8; 8] = *b"LBDSEG01";

/// Name of the segment file inside a store directory.
pub const SEGMENT_FILE: &str = "cache.seg";

const HEADER_LEN: u64 = 24;
const FRAME_HEADER_LEN: u64 = 12;

/// Sanity cap on either part of a record, so a garbage length field in a
/// damaged file can never drive a multi-gigabyte allocation.
pub const MAX_PART_LEN: u32 = 1 << 30;

/// How a [`SegmentStore`] behaves.
#[derive(Debug, Clone)]
pub struct StoreConfig {
    /// Build/config identity written into the header. A store whose
    /// fingerprint does not match is set aside on open — responses cached
    /// by a different build or schema must not survive into this one.
    pub fingerprint: u64,
    /// `fsync` the segment after every append (default). Turning this off
    /// trades the durability of the most recent records for throughput;
    /// recovery still works, it just finds a shorter prefix.
    pub sync_appends: bool,
    /// Once the segment exceeds this many bytes *and* at least half of
    /// them are dead (superseded duplicates or torn fragments), the next
    /// append triggers compaction.
    pub compact_threshold_bytes: u64,
    /// Deterministic fault plan; only the disk kinds (`shortwrite`,
    /// `torn(N)`, `fsyncerr`, `bitflip`) fire here, indexed by append
    /// ordinal. Empty by default.
    pub faults: FaultPlan,
}

impl Default for StoreConfig {
    fn default() -> Self {
        StoreConfig {
            fingerprint: 0,
            sync_appends: true,
            compact_threshold_bytes: 8 << 20,
            faults: FaultPlan::default(),
        }
    }
}

/// What [`SegmentStore::open`] found on disk.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RecoveryReport {
    /// Records scanned from the existing segment, including superseded
    /// duplicates.
    pub records_scanned: u64,
    /// Distinct keys indexed (later appends win).
    pub live_records: u64,
    /// Bytes truncated off a torn/corrupt tail (0 for a clean file).
    pub truncated_bytes: u64,
    /// Sidecar the damaged tail bytes were appended to, when any were
    /// found.
    pub quarantined: Option<PathBuf>,
    /// A pre-existing segment was set aside under this path because its
    /// header did not match (magic, schema, fingerprint, or header CRC).
    pub stale: Option<PathBuf>,
    /// Why the segment was set aside, when [`stale`](Self::stale) is set.
    pub stale_reason: Option<String>,
    /// No segment existed; a fresh one was created.
    pub created: bool,
}

impl RecoveryReport {
    /// One-line human summary; the serve daemon prints it at startup and
    /// the CI `durable` job greps it.
    pub fn summary(&self) -> String {
        let mut parts = Vec::new();
        if let (Some(stale), Some(reason)) = (&self.stale, &self.stale_reason) {
            parts.push(format!(
                "stale segment set aside to {} ({reason})",
                stale.display()
            ));
        }
        if self.created && self.stale.is_none() {
            parts.push("fresh store".to_string());
        } else if self.truncated_bytes > 0 {
            let side = self
                .quarantined
                .as_ref()
                .map(|p| format!(", quarantined to {}", p.display()))
                .unwrap_or_default();
            parts.push(format!(
                "recovery truncated {} torn bytes{side}: {} records scanned, {} live",
                self.truncated_bytes, self.records_scanned, self.live_records
            ));
        } else if self.stale.is_some() {
            parts.push("fresh store".to_string());
        } else {
            parts.push(format!(
                "recovery clean: {} records scanned, {} live",
                self.records_scanned, self.live_records
            ));
        }
        parts.join("; ")
    }
}

/// Counters describing a store's activity since open.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StoreStats {
    /// Distinct keys currently indexed.
    pub live_records: u64,
    /// Current segment file length in bytes.
    pub file_bytes: u64,
    /// Bytes owned by superseded or torn records (reclaimed by
    /// compaction).
    pub dead_bytes: u64,
    /// Appends attempted since open (including faulted ones).
    pub appends: u64,
    /// [`SegmentStore::get`] calls that returned a CRC-verified value.
    pub persisted_hits: u64,
    /// [`SegmentStore::get`] calls for keys not in the index.
    pub misses: u64,
    /// Reads that found a record damaged on disk (CRC/length/key
    /// mismatch, or an I/O error); the value was withheld.
    pub corrupt_reads: u64,
    /// Compactions performed since open.
    pub compactions: u64,
}

#[derive(Debug, Clone, Copy)]
struct IndexEntry {
    offset: u64,
    key_len: u32,
    val_len: u32,
}

impl IndexEntry {
    fn total_len(&self) -> u64 {
        FRAME_HEADER_LEN + u64::from(self.key_len) + u64::from(self.val_len)
    }
}

/// A segment file as it stands on disk, read without changing it: the
/// header's fingerprint and the records of its CRC-verified prefix.
/// [`SegmentStore::open`] recovers from exactly this view, so an offline
/// reader sees the records the next open will keep.
#[derive(Debug)]
pub struct Segment {
    /// Fingerprint the segment header was written under.
    pub fingerprint: u64,
    bytes: Vec<u8>,
    frames: Vec<IndexEntry>,
    valid_len: u64,
}

impl Segment {
    /// Reads the segment file in `dir`, checks its header, and scans its
    /// records up to the first torn, short, or CRC-corrupt one.
    ///
    /// # Errors
    /// Propagates read errors (`NotFound` when there is no segment); a
    /// header with the wrong magic, schema, or checksum is an
    /// `InvalidData` error naming the fault.
    pub fn read(dir: &Path) -> io::Result<Segment> {
        let bytes = fs::read(dir.join(SEGMENT_FILE))?;
        let fingerprint = header_fingerprint(&bytes)
            .map_err(|reason| io::Error::new(io::ErrorKind::InvalidData, reason))?;
        let (frames, valid_len) = scan_records(&bytes);
        Ok(Segment {
            fingerprint,
            bytes,
            frames,
            valid_len,
        })
    }

    /// The verified `(key, value)` records in file order, superseded
    /// duplicates included.
    pub fn records(&self) -> impl Iterator<Item = (&[u8], &[u8])> + '_ {
        self.keyed_frames().map(|(key, entry)| {
            let start = entry.offset as usize + FRAME_HEADER_LEN as usize + key.len();
            (key, &self.bytes[start..start + entry.val_len as usize])
        })
    }

    /// Bytes past the verified prefix: a torn or corrupt tail, which the
    /// next [`SegmentStore::open`] quarantines and truncates.
    pub fn torn_bytes(&self) -> u64 {
        self.bytes.len() as u64 - self.valid_len
    }

    fn keyed_frames(&self) -> impl Iterator<Item = (&[u8], IndexEntry)> + '_ {
        self.frames.iter().map(|entry| {
            let start = entry.offset as usize + FRAME_HEADER_LEN as usize;
            (&self.bytes[start..start + entry.key_len as usize], *entry)
        })
    }
}

/// A crash-safe `(key, value)` store backed by one append-only segment.
///
/// Not internally synchronised: callers that share a store across threads
/// wrap it in a `Mutex` (the serve daemon does).
#[derive(Debug)]
pub struct SegmentStore {
    dir: PathBuf,
    path: PathBuf,
    cfg: StoreConfig,
    file: File,
    len: u64,
    index: HashMap<Vec<u8>, IndexEntry>,
    dead_bytes: u64,
    appends: u64,
    persisted_hits: u64,
    misses: u64,
    corrupt_reads: u64,
    compactions: u64,
    recovery: RecoveryReport,
}

impl SegmentStore {
    /// Opens (creating if needed) the store in `dir`, running the
    /// recovery scan described in the module docs.
    ///
    /// # Errors
    /// Propagates filesystem errors; a torn tail, corrupt record, or
    /// stale header is *recovered from*, not an error.
    pub fn open(dir: &Path, cfg: StoreConfig) -> io::Result<(Self, RecoveryReport)> {
        fs::create_dir_all(dir)?;
        let path = dir.join(SEGMENT_FILE);
        let mut report = RecoveryReport::default();
        let mut index = HashMap::new();
        let mut dead_bytes = 0;
        let mut len = 0;

        let stale_reason = match Segment::read(dir) {
            Ok(segment) if segment.fingerprint == cfg.fingerprint => {
                report.records_scanned = segment.frames.len() as u64;
                if segment.torn_bytes() > 0 {
                    let sidecar = sibling(&path, "corrupt");
                    quarantine(&sidecar, &segment.bytes[segment.valid_len as usize..])?;
                    report.truncated_bytes = segment.torn_bytes();
                    report.quarantined = Some(sidecar);
                    let file = OpenOptions::new().write(true).open(&path)?;
                    file.set_len(segment.valid_len)?;
                    file.sync_all()?;
                }
                for (key, entry) in segment.keyed_frames() {
                    if let Some(old) = index.insert(key.to_vec(), entry) {
                        dead_bytes += old.total_len();
                    }
                }
                len = segment.valid_len;
                None
            }
            Ok(segment) => Some(format!(
                "segment fingerprint {:#018x} != expected {:#018x}",
                segment.fingerprint, cfg.fingerprint
            )),
            Err(e) if e.kind() == io::ErrorKind::NotFound => {
                report.created = true;
                None
            }
            Err(e) if e.kind() == io::ErrorKind::InvalidData => Some(e.to_string()),
            Err(e) => return Err(e),
        };
        if let Some(reason) = stale_reason {
            let stale = sibling(&path, "stale");
            // Overwrite any earlier stale sidecar: each generation of
            // evidence replaces the last rather than accumulating forever.
            let _ = fs::remove_file(&stale);
            fs::rename(&path, &stale)?;
            report.stale = Some(stale);
            report.stale_reason = Some(reason);
        }

        if report.created || report.stale.is_some() {
            write_fresh_segment(dir, &path, cfg.fingerprint)?;
            len = HEADER_LEN;
        }
        report.live_records = index.len() as u64;

        let file = OpenOptions::new().read(true).append(true).open(&path)?;
        let store = SegmentStore {
            dir: dir.to_path_buf(),
            path,
            cfg,
            file,
            len,
            index,
            dead_bytes,
            appends: 0,
            persisted_hits: 0,
            misses: 0,
            corrupt_reads: 0,
            compactions: 0,
            recovery: report.clone(),
        };
        Ok((store, report))
    }

    /// The CRC-verified value stored for `key`, or `None` when the key is
    /// unknown *or* its record is damaged on disk (damage is counted in
    /// [`StoreStats::corrupt_reads`] and the bytes are withheld — corrupt
    /// data is never served).
    pub fn get(&mut self, key: &[u8]) -> Option<Vec<u8>> {
        let entry = match self.index.get(key) {
            Some(entry) => *entry,
            None => {
                self.misses += 1;
                return None;
            }
        };
        match self.read_verified(&entry, key) {
            Ok(Some(value)) => {
                self.persisted_hits += 1;
                Some(value)
            }
            Ok(None) | Err(_) => {
                self.corrupt_reads += 1;
                None
            }
        }
    }

    /// Appends one record and (by default) fsyncs it, then compacts if
    /// the dead-byte threshold is crossed. A re-appended key supersedes
    /// its old record.
    ///
    /// # Errors
    /// Propagates write/sync failures (including an injected `fsyncerr`);
    /// the in-memory index is only updated for fully-written records, so
    /// a failed append degrades durability but never correctness.
    pub fn append(&mut self, key: &[u8], value: &[u8]) -> io::Result<()> {
        if key.len() as u64 > u64::from(MAX_PART_LEN)
            || value.len() as u64 > u64::from(MAX_PART_LEN)
        {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                "record part exceeds MAX_PART_LEN",
            ));
        }
        let append_ordinal = self.appends as usize;
        self.appends += 1;
        let mut frame = encode_frame(key, value);
        let mut write_len = frame.len();
        let mut fail_sync = false;
        match self.cfg.faults.action_for(append_ordinal, 0) {
            Some(FaultKind::ShortWrite) => write_len = frame.len() / 2,
            Some(FaultKind::TornWrite(off)) => write_len = (off as usize).min(frame.len()),
            Some(FaultKind::FsyncError) => fail_sync = true,
            Some(FaultKind::BitFlip) => {
                let bit = crc32c(&frame) as usize % (frame.len() * 8);
                frame[bit / 8] ^= 1 << (bit % 8);
            }
            _ => {}
        }

        crash_point("durable.append.pre_write");
        self.file.write_all(&frame[..write_len])?;
        crash_point("durable.append.pre_sync");
        let offset = self.len;
        self.len += write_len as u64;
        if self.cfg.sync_appends {
            if fail_sync {
                // The bytes may or may not reach the platter; treat the
                // record as dead weight and surface the error.
                self.dead_bytes += write_len as u64;
                return Err(io::Error::other("injected fault: fsync error"));
            }
            self.file.sync_data()?;
        }
        crash_point("durable.append.post_sync");

        if write_len == frame.len() {
            // A bit-flipped record is indexed too: its read-time CRC
            // check is exactly what keeps it from ever being served.
            let entry = IndexEntry {
                offset,
                key_len: key.len() as u32,
                val_len: value.len() as u32,
            };
            if let Some(old) = self.index.insert(key.to_vec(), entry) {
                self.dead_bytes += old.total_len();
            }
        } else {
            // Short/torn writes leave a tear the next recovery scan will
            // quarantine; until then those bytes are dead weight.
            self.dead_bytes += write_len as u64;
        }
        self.maybe_compact()
    }

    /// Rewrites the live records into a fresh segment (temp file → fsync
    /// → rename → directory fsync), dropping superseded and torn bytes.
    ///
    /// # Errors
    /// Propagates filesystem errors; on error the original segment is
    /// untouched (the rename never happened).
    pub fn compact(&mut self) -> io::Result<()> {
        let mut entries: Vec<(Vec<u8>, IndexEntry)> = self
            .index
            .iter()
            .map(|(key, entry)| (key.clone(), *entry))
            .collect();
        entries.sort_by_key(|(_, entry)| entry.offset);

        let tmp = sibling(&self.path, "tmp");
        let mut out = File::create(&tmp)?;
        out.write_all(&header_bytes(self.cfg.fingerprint))?;
        let mut new_index = HashMap::new();
        let mut len = HEADER_LEN;
        for (key, entry) in entries {
            // A record that went corrupt on disk was never servable;
            // compaction is where it silently ages out.
            let Ok(Some(value)) = self.read_verified(&entry, &key) else {
                continue;
            };
            let frame = encode_frame(&key, &value);
            out.write_all(&frame)?;
            let rewritten = IndexEntry {
                offset: len,
                key_len: entry.key_len,
                val_len: entry.val_len,
            };
            len += frame.len() as u64;
            new_index.insert(key, rewritten);
        }
        out.sync_all()?;
        drop(out);
        crash_point("durable.compact.pre_rename");
        fs::rename(&tmp, &self.path)?;
        sync_dir(&self.dir);
        crash_point("durable.compact.post_rename");

        self.file = OpenOptions::new()
            .read(true)
            .append(true)
            .open(&self.path)?;
        self.index = new_index;
        self.len = len;
        self.dead_bytes = 0;
        self.compactions += 1;
        Ok(())
    }

    /// Activity counters since open.
    pub fn stats(&self) -> StoreStats {
        StoreStats {
            live_records: self.index.len() as u64,
            file_bytes: self.len,
            dead_bytes: self.dead_bytes,
            appends: self.appends,
            persisted_hits: self.persisted_hits,
            misses: self.misses,
            corrupt_reads: self.corrupt_reads,
            compactions: self.compactions,
        }
    }

    /// What the opening recovery scan found.
    pub fn recovery(&self) -> &RecoveryReport {
        &self.recovery
    }

    /// The segment file backing this store.
    pub fn path(&self) -> &Path {
        &self.path
    }

    fn maybe_compact(&mut self) -> io::Result<()> {
        if self.len > self.cfg.compact_threshold_bytes && self.dead_bytes * 2 >= self.len {
            self.compact()?;
        }
        Ok(())
    }

    /// Reads the record back from disk and verifies frame lengths, CRC,
    /// and key; `Ok(None)` means the on-disk bytes no longer match what
    /// was appended.
    fn read_verified(&mut self, entry: &IndexEntry, key: &[u8]) -> io::Result<Option<Vec<u8>>> {
        let mut frame = vec![0u8; entry.total_len() as usize];
        self.file.seek(SeekFrom::Start(entry.offset))?;
        self.file.read_exact(&mut frame)?;
        let key_len = u32::from_le_bytes(frame[0..4].try_into().expect("slice len"));
        let val_len = u32::from_le_bytes(frame[4..8].try_into().expect("slice len"));
        let stored_crc = u32::from_le_bytes(frame[8..12].try_into().expect("slice len"));
        if key_len != entry.key_len || val_len != entry.val_len {
            return Ok(None);
        }
        if extend(crc32c(&frame[0..8]), &frame[12..]) != stored_crc {
            return Ok(None);
        }
        let key_end = 12 + key_len as usize;
        if &frame[12..key_end] != key {
            return Ok(None);
        }
        Ok(Some(frame[key_end..].to_vec()))
    }
}

fn header_bytes(fingerprint: u64) -> [u8; HEADER_LEN as usize] {
    let mut header = [0u8; HEADER_LEN as usize];
    header[0..8].copy_from_slice(&SEGMENT_MAGIC);
    header[8..12].copy_from_slice(&SEGMENT_SCHEMA.to_le_bytes());
    header[12..20].copy_from_slice(&fingerprint.to_le_bytes());
    let crc = crc32c(&header[0..20]);
    header[20..24].copy_from_slice(&crc.to_le_bytes());
    header
}

/// Checks the header fields every segment shares and returns the
/// fingerprint it was written under.
fn header_fingerprint(bytes: &[u8]) -> Result<u64, String> {
    if bytes.len() < HEADER_LEN as usize {
        return Err(format!("segment header short: {} bytes", bytes.len()));
    }
    if bytes[0..8] != SEGMENT_MAGIC {
        return Err("segment magic mismatch".to_string());
    }
    let schema = u32::from_le_bytes(bytes[8..12].try_into().expect("slice len"));
    if schema != SEGMENT_SCHEMA {
        return Err(format!(
            "segment schema {schema} != supported {SEGMENT_SCHEMA}"
        ));
    }
    let stored_crc = u32::from_le_bytes(bytes[20..24].try_into().expect("slice len"));
    if crc32c(&bytes[0..20]) != stored_crc {
        return Err("segment header checksum mismatch".to_string());
    }
    Ok(u64::from_le_bytes(
        bytes[12..20].try_into().expect("slice len"),
    ))
}

/// The frames of the longest CRC-verified record prefix, in file order,
/// and the length of that prefix.
fn scan_records(bytes: &[u8]) -> (Vec<IndexEntry>, u64) {
    let mut frames = Vec::new();
    let mut off = HEADER_LEN as usize;
    while bytes.len() - off >= FRAME_HEADER_LEN as usize {
        let key_len = u32::from_le_bytes(bytes[off..off + 4].try_into().expect("slice len"));
        let val_len = u32::from_le_bytes(bytes[off + 4..off + 8].try_into().expect("slice len"));
        let stored_crc =
            u32::from_le_bytes(bytes[off + 8..off + 12].try_into().expect("slice len"));
        if key_len > MAX_PART_LEN || val_len > MAX_PART_LEN {
            break;
        }
        let total = FRAME_HEADER_LEN as usize + key_len as usize + val_len as usize;
        if bytes.len() - off < total {
            break;
        }
        if extend(crc32c(&bytes[off..off + 8]), &bytes[off + 12..off + total]) != stored_crc {
            break;
        }
        frames.push(IndexEntry {
            offset: off as u64,
            key_len,
            val_len,
        });
        off += total;
    }
    (frames, off as u64)
}

/// `cache.seg` → `cache.seg.<ext>` (plain `with_extension` would replace
/// `.seg`).
fn sibling(path: &Path, ext: &str) -> PathBuf {
    let mut name = path
        .file_name()
        .map(|n| n.to_os_string())
        .unwrap_or_default();
    name.push(".");
    name.push(ext);
    path.with_file_name(name)
}

fn quarantine(sidecar: &Path, damaged: &[u8]) -> io::Result<()> {
    let mut out = OpenOptions::new().create(true).append(true).open(sidecar)?;
    out.write_all(damaged)?;
    out.sync_all()
}

fn write_fresh_segment(dir: &Path, path: &Path, fingerprint: u64) -> io::Result<()> {
    let tmp = sibling(path, "tmp");
    let mut out = File::create(&tmp)?;
    out.write_all(&header_bytes(fingerprint))?;
    out.sync_all()?;
    drop(out);
    crash_point("durable.create.pre_rename");
    fs::rename(&tmp, path)?;
    sync_dir(dir);
    crash_point("durable.create.post_rename");
    Ok(())
}

/// Best-effort directory fsync, so the rename itself is durable. Opening
/// a directory read-only works on the Unix targets we run on; anywhere it
/// does not, the rename is still atomic, just not yet journalled.
fn sync_dir(dir: &Path) {
    if let Ok(handle) = File::open(dir) {
        let _ = handle.sync_all();
    }
}

fn encode_frame(key: &[u8], value: &[u8]) -> Vec<u8> {
    let mut frame = Vec::with_capacity(FRAME_HEADER_LEN as usize + key.len() + value.len());
    frame.extend_from_slice(&(key.len() as u32).to_le_bytes());
    frame.extend_from_slice(&(value.len() as u32).to_le_bytes());
    let crc = extend(extend(crc32c(&frame[0..8]), key), value);
    frame.extend_from_slice(&crc.to_le_bytes());
    frame.extend_from_slice(key);
    frame.extend_from_slice(value);
    frame
}

#[cfg(test)]
mod tests {
    use super::*;
    use lockbind_resil::FaultRule;

    fn temp_dir(name: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("lockbind-durable-{}-{name}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    fn open(dir: &Path) -> (SegmentStore, RecoveryReport) {
        SegmentStore::open(dir, StoreConfig::default()).expect("open")
    }

    #[test]
    fn fresh_store_round_trips_and_reopens_clean() {
        let dir = temp_dir("roundtrip");
        let (mut store, report) = open(&dir);
        assert!(report.created);
        assert_eq!(report.summary(), "fresh store");
        assert_eq!(store.get(b"missing"), None);
        store.append(b"key-a", b"value-a").expect("append");
        store
            .append(b"key-b", &[0u8, 255, 10, 13, 34])
            .expect("append");
        assert_eq!(store.get(b"key-a").as_deref(), Some(&b"value-a"[..]));
        drop(store);

        let (mut store, report) = open(&dir);
        assert!(!report.created);
        assert_eq!(report.records_scanned, 2);
        assert_eq!(report.live_records, 2);
        assert_eq!(report.truncated_bytes, 0);
        assert!(report.summary().starts_with("recovery clean"), "{report:?}");
        assert_eq!(store.get(b"key-a").as_deref(), Some(&b"value-a"[..]));
        assert_eq!(
            store.get(b"key-b").as_deref(),
            Some(&[0u8, 255, 10, 13, 34][..])
        );
        let stats = store.stats();
        assert_eq!(stats.persisted_hits, 2);
        assert_eq!(stats.corrupt_reads, 0);
    }

    #[test]
    fn later_appends_supersede_and_count_dead_bytes() {
        let dir = temp_dir("supersede");
        let (mut store, _) = open(&dir);
        store.append(b"k", b"old-value").expect("append");
        store.append(b"k", b"new-value").expect("append");
        assert_eq!(store.get(b"k").as_deref(), Some(&b"new-value"[..]));
        assert!(store.stats().dead_bytes > 0);
        drop(store);
        let (mut store, report) = open(&dir);
        assert_eq!(report.records_scanned, 2);
        assert_eq!(report.live_records, 1, "later record wins after reopen");
        assert_eq!(store.get(b"k").as_deref(), Some(&b"new-value"[..]));
    }

    #[test]
    fn torn_tail_is_truncated_and_quarantined() {
        let dir = temp_dir("torn");
        let (mut store, _) = open(&dir);
        store.append(b"good", b"kept").expect("append");
        let path = store.path().to_path_buf();
        drop(store);
        let clean_len = fs::metadata(&path).expect("meta").len();
        // Simulate a kill mid-append: a partial frame at the tail.
        let mut bytes = fs::read(&path).expect("read");
        bytes.extend_from_slice(&[7, 0, 0, 0, 9, 9]);
        fs::write(&path, &bytes).expect("write");

        let (mut store, report) = open(&dir);
        assert_eq!(report.truncated_bytes, 6);
        assert_eq!(report.live_records, 1);
        let sidecar = report.quarantined.clone().expect("sidecar");
        assert_eq!(fs::read(&sidecar).expect("sidecar"), vec![7, 0, 0, 0, 9, 9]);
        assert!(
            report.summary().contains("truncated 6 torn bytes"),
            "{}",
            report.summary()
        );
        assert_eq!(fs::metadata(&path).expect("meta").len(), clean_len);
        assert_eq!(store.get(b"good").as_deref(), Some(&b"kept"[..]));
        drop(store);
        // The repaired file reopens clean.
        let (_, report) = open(&dir);
        assert_eq!(report.truncated_bytes, 0);
    }

    #[test]
    fn segment_read_changes_nothing_and_sees_what_open_keeps() {
        let dir = temp_dir("read-only");
        let (mut store, _) = open(&dir);
        store.append(b"a", b"first").expect("append");
        store.append(b"b", b"second").expect("append");
        store.append(b"a", b"third").expect("append");
        let path = store.path().to_path_buf();
        drop(store);
        let mut bytes = fs::read(&path).expect("read");
        bytes.extend_from_slice(&[3, 0, 0]);
        fs::write(&path, &bytes).expect("write");

        let segment = Segment::read(&dir).expect("read");
        assert_eq!(segment.fingerprint, StoreConfig::default().fingerprint);
        let records: Vec<_> = segment.records().collect();
        assert_eq!(
            records,
            [
                (&b"a"[..], &b"first"[..]),
                (&b"b"[..], &b"second"[..]),
                (&b"a"[..], &b"third"[..])
            ]
        );
        assert_eq!(segment.torn_bytes(), 3);
        assert_eq!(
            fs::read(&path).expect("reread"),
            bytes,
            "read repairs nothing"
        );
        let (_, report) = open(&dir);
        assert_eq!(report.records_scanned, 3);
        assert_eq!(report.truncated_bytes, 3);

        let missing = temp_dir("read-missing");
        let err = Segment::read(&missing).expect_err("no segment");
        assert_eq!(err.kind(), io::ErrorKind::NotFound);
        fs::create_dir_all(&missing).expect("dir");
        fs::write(missing.join("cache.seg"), b"not a segment header at all").expect("write");
        let err = Segment::read(&missing).expect_err("bad header");
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert!(err.to_string().contains("magic"), "{err}");
    }

    #[test]
    fn corrupt_record_ends_the_scan_and_is_never_served() {
        let dir = temp_dir("bitrot");
        let (mut store, _) = open(&dir);
        store.append(b"first", b"intact").expect("append");
        store.append(b"second", b"to-be-damaged").expect("append");
        store.append(b"third", b"after-the-damage").expect("append");
        let path = store.path().to_path_buf();
        drop(store);
        // Flip one bit inside the *second* record's value.
        let mut bytes = fs::read(&path).expect("read");
        let second_value_off = bytes.len() - b"after-the-damage".len() - 12 - b"third".len() - 4;
        bytes[second_value_off] ^= 0x10;
        fs::write(&path, &bytes).expect("write");

        let (mut store, report) = open(&dir);
        // The scan stops at the damaged record: everything from there on
        // (including the still-intact third record) is quarantined — a
        // prefix either verifies or is evidence.
        assert_eq!(report.live_records, 1);
        assert!(report.truncated_bytes > 0);
        assert_eq!(store.get(b"first").as_deref(), Some(&b"intact"[..]));
        assert_eq!(store.get(b"second"), None);
        assert_eq!(store.get(b"third"), None);
        assert_eq!(store.stats().corrupt_reads, 0, "unknown keys are misses");
    }

    #[test]
    fn post_scan_bit_rot_is_caught_on_read() {
        let dir = temp_dir("read-verify");
        let (mut store, _) = open(&dir);
        store.append(b"k", b"pristine-value").expect("append");
        let path = store.path().to_path_buf();
        // Damage the file *behind the open store's back* — models media
        // rot after the recovery scan.
        let mut bytes = fs::read(&path).expect("read");
        let last = bytes.len() - 1;
        bytes[last] ^= 0x01;
        fs::write(&path, &bytes).expect("write");
        assert_eq!(store.get(b"k"), None, "corrupt bytes are withheld");
        assert_eq!(store.stats().corrupt_reads, 1);
    }

    #[test]
    fn fingerprint_mismatch_sets_the_segment_aside() {
        let dir = temp_dir("stale");
        let (mut store, _) = SegmentStore::open(
            &dir,
            StoreConfig {
                fingerprint: 1,
                ..Default::default()
            },
        )
        .expect("open v1");
        store.append(b"k", b"old-build-bytes").expect("append");
        drop(store);
        let (mut store, report) = SegmentStore::open(
            &dir,
            StoreConfig {
                fingerprint: 2,
                ..Default::default()
            },
        )
        .expect("open v2");
        let stale = report.stale.clone().expect("stale sidecar");
        assert!(stale.ends_with("cache.seg.stale"), "{stale:?}");
        assert!(fs::metadata(&stale).expect("evidence kept").len() > HEADER_LEN);
        assert!(report
            .stale_reason
            .as_deref()
            .unwrap_or("")
            .contains("fingerprint"));
        assert_eq!(store.get(b"k"), None, "stale records do not survive");
        drop(store);
        let (_, report) = SegmentStore::open(
            &dir,
            StoreConfig {
                fingerprint: 2,
                ..Default::default()
            },
        )
        .expect("reopen v2");
        assert!(report.summary().starts_with("recovery clean"), "{report:?}");
    }

    #[test]
    fn garbage_header_sets_the_segment_aside() {
        let dir = temp_dir("garbage-header");
        fs::create_dir_all(&dir).expect("dir");
        fs::write(
            dir.join("cache.seg"),
            b"definitely not a segment file at all",
        )
        .expect("write");
        let (_, report) = open(&dir);
        assert!(report.stale.is_some());
        assert!(report
            .stale_reason
            .as_deref()
            .unwrap_or("")
            .contains("magic"));
        // A sub-header-sized fragment is set aside too.
        let short = temp_dir("short-header");
        fs::create_dir_all(&short).expect("dir");
        fs::write(short.join("cache.seg"), b"torn").expect("write");
        let (_, report) = open(&short);
        assert!(report
            .stale_reason
            .as_deref()
            .unwrap_or("")
            .contains("short"));
    }

    #[test]
    fn compaction_drops_dead_bytes_and_survives_reopen() {
        let dir = temp_dir("compact");
        let (mut store, _) = open(&dir);
        for round in 0..10 {
            for key in 0..5u8 {
                let value = vec![round as u8 ^ key; 64];
                store.append(&[key], &value).expect("append");
            }
        }
        let before = store.stats();
        assert!(before.dead_bytes > 0);
        store.compact().expect("compact");
        let after = store.stats();
        assert_eq!(after.live_records, 5);
        assert_eq!(after.dead_bytes, 0);
        assert!(after.file_bytes < before.file_bytes);
        assert_eq!(after.compactions, 1);
        for key in 0..5u8 {
            assert_eq!(store.get(&[key]).expect("live"), vec![9 ^ key; 64]);
        }
        drop(store);
        let (mut store, report) = open(&dir);
        assert_eq!(report.records_scanned, 5);
        for key in 0..5u8 {
            assert_eq!(store.get(&[key]).expect("live"), vec![9 ^ key; 64]);
        }
    }

    #[test]
    fn size_triggered_compaction_fires_on_append() {
        let dir = temp_dir("auto-compact");
        let cfg = StoreConfig {
            compact_threshold_bytes: 2048,
            ..Default::default()
        };
        let (mut store, _) = SegmentStore::open(&dir, cfg).expect("open");
        for _ in 0..64 {
            store.append(b"hot-key", &[42u8; 128]).expect("append");
        }
        let stats = store.stats();
        assert!(stats.compactions >= 1, "{stats:?}");
        assert!(stats.file_bytes < 2048, "{stats:?}");
        assert_eq!(store.get(b"hot-key").as_deref(), Some(&[42u8; 128][..]));
    }

    #[test]
    fn injected_short_write_is_caught_by_recovery() {
        let dir = temp_dir("fault-short");
        let cfg = StoreConfig {
            faults: FaultPlan::new(0).rule(FaultRule::at_cells(FaultKind::ShortWrite, vec![1])),
            ..Default::default()
        };
        let (mut store, _) = SegmentStore::open(&dir, cfg).expect("open");
        store.append(b"a", b"whole").expect("append");
        store.append(b"b", b"torn-in-half").expect("append");
        drop(store);
        let (mut store, report) = open(&dir);
        assert!(report.truncated_bytes > 0, "{report:?}");
        assert!(report.quarantined.is_some());
        assert_eq!(store.get(b"a").as_deref(), Some(&b"whole"[..]));
        assert_eq!(store.get(b"b"), None);
    }

    #[test]
    fn injected_torn_write_at_offset_is_caught_by_recovery() {
        let dir = temp_dir("fault-torn");
        let cfg = StoreConfig {
            faults: FaultPlan::new(0).rule(FaultRule::at_cells(FaultKind::TornWrite(3), vec![0])),
            ..Default::default()
        };
        let (mut store, _) = SegmentStore::open(&dir, cfg).expect("open");
        store.append(b"k", b"three-bytes-land").expect("append");
        drop(store);
        let (mut store, report) = open(&dir);
        assert_eq!(report.truncated_bytes, 3);
        assert_eq!(store.get(b"k"), None);
    }

    #[test]
    fn injected_fsync_error_surfaces_but_store_stays_usable() {
        let dir = temp_dir("fault-fsync");
        let cfg = StoreConfig {
            faults: FaultPlan::new(0)
                .rule(FaultRule::at_cells(FaultKind::FsyncError, vec![0]).transient(1)),
            ..Default::default()
        };
        let (mut store, _) = SegmentStore::open(&dir, cfg).expect("open");
        let err = store.append(b"k", b"v").expect_err("fsync fault");
        assert!(err.to_string().contains("fsync"), "{err}");
        assert_eq!(store.get(b"k"), None, "failed append is not indexed");
        store.append(b"k2", b"v2").expect("later appends succeed");
        assert_eq!(store.get(b"k2").as_deref(), Some(&b"v2"[..]));
    }

    #[test]
    fn injected_bit_flip_is_never_served() {
        let dir = temp_dir("fault-bitflip");
        let cfg = StoreConfig {
            faults: FaultPlan::new(0).rule(FaultRule::at_cells(FaultKind::BitFlip, vec![0])),
            ..Default::default()
        };
        let (mut store, _) = SegmentStore::open(&dir, cfg).expect("open");
        store.append(b"k", b"about-to-rot").expect("append");
        assert_eq!(store.get(b"k"), None, "flipped record fails read CRC");
        assert_eq!(store.stats().corrupt_reads, 1);
        drop(store);
        let (mut store, _) = open(&dir);
        assert_eq!(store.get(b"k"), None, "and never comes back after recovery");
    }
}
