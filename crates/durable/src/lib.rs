//! Crash-safe persistence for deterministic artifacts.
//!
//! The serve daemon's responses are pure functions of a request's
//! canonical content rendering, which makes durability a *correctness
//! amplifier*: a persisted record either reproduces the exact bytes a
//! cold rebuild would produce, or it is corrupt — and this crate is built
//! to prove which, in the same verify-don't-trust spirit `lockbind-check`
//! applies to matchings.
//!
//! One layer, `std`-only, with two writers: the serve daemon's response
//! cache and the engine's sweep checkpoint.
//!
//! * [`SegmentStore`] — an append-only segment log of `(key, value)`
//!   records with per-record length framing + CRC32C, a fingerprinted
//!   header so stale stores self-invalidate, atomic whole-file writes
//!   (temp file → fsync → rename → directory fsync), a recovery scan that
//!   truncates at the first torn/short/corrupt record and quarantines the
//!   damaged tail to a `.corrupt` sidecar (evidence is never deleted),
//!   and size-triggered compaction. Every read re-verifies the record
//!   CRC, so corrupt bytes are never returned.
//! * [`Segment::read`] — the read-only half of that recovery scan, for
//!   offline inspection (`lockbind_check checkpoint DIR`): the header's
//!   fingerprint and the verified records, with nothing repaired.
//!
//! Crash-safety is tested, not assumed: writers call
//! [`lockbind_resil::crash_point`] at each durability-relevant instant
//! (`durable.append.pre_write` / `.pre_sync` / `.post_sync`,
//! `durable.create.*` and `durable.compact.*` around the renames), and
//! the deterministic disk-fault kinds of [`lockbind_resil::FaultPlan`]
//! (`shortwrite`, `torn(N)`, `fsyncerr`, `bitflip`) inject media failures
//! into [`SegmentStore::append`] by append ordinal.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod crc;
mod store;

pub use store::{
    RecoveryReport, Segment, SegmentStore, StoreConfig, StoreStats, MAX_PART_LEN, SEGMENT_FILE,
    SEGMENT_MAGIC, SEGMENT_SCHEMA,
};
