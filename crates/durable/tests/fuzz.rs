//! Fuzzing the segment-log reader against truncated, garbage, and
//! bit-flipped inputs.
//!
//! The property under test is the store's core safety claim: whatever is
//! done to the bytes on disk, `open` must recover without panicking and
//! `get` must return either nothing or bytes that were genuinely appended
//! for that key — never an invented or corrupted value.

use std::collections::HashMap;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};

use lockbind_durable::{Segment, SegmentStore, StoreConfig};
use proptest::collection::vec;
use proptest::prelude::*;

static CASE: AtomicU64 = AtomicU64::new(0);

fn unique_dir(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!(
        "lockbind-durable-fuzz-{}-{tag}-{}",
        std::process::id(),
        CASE.fetch_add(1, Ordering::Relaxed)
    ))
}

fn config() -> StoreConfig {
    StoreConfig {
        fingerprint: 0x5EED_F00D,
        ..Default::default()
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]
    #[test]
    fn mutated_segments_recover_and_never_serve_invented_bytes(
        records in vec((vec(any::<u8>(), 0..8), vec(any::<u8>(), 0..48)), 1..8),
        mutation in 0..3usize,
        seed in any::<u64>(),
    ) {
        let dir = unique_dir("segment");
        {
            let (mut store, _) = SegmentStore::open(&dir, config()).expect("open");
            for (key, value) in &records {
                store.append(key, value).expect("append");
            }
        }
        let path = dir.join("cache.seg");
        let mut bytes = std::fs::read(&path).expect("read segment");
        let pos = (seed as usize) % bytes.len().max(1);
        match mutation {
            0 => bytes.truncate(pos),
            1 => bytes[pos] ^= 1 << ((seed >> 32) % 8),
            _ => bytes.extend((0..(seed % 40)).map(|i| (seed >> (i % 56)) as u8)),
        }
        std::fs::write(&path, &bytes).expect("write mutated segment");

        // The read-only scan sees exactly the records recovery keeps.
        let readable = Segment::read(&dir)
            .ok()
            .filter(|segment| segment.fingerprint == config().fingerprint)
            .map(|segment| segment.records().count() as u64);
        // Recovery must succeed on any mutation, without panicking.
        let (mut store, report) = SegmentStore::open(&dir, config()).expect("recover");
        prop_assert_eq!(readable.unwrap_or(0), report.records_scanned);
        let mut appended: HashMap<&[u8], Vec<&[u8]>> = HashMap::new();
        for (key, value) in &records {
            appended.entry(key).or_default().push(value);
        }
        for (key, values) in appended {
            if let Some(got) = store.get(key) {
                prop_assert!(
                    values.iter().any(|v| **v == got),
                    "store served bytes never appended for key {key:?}"
                );
            }
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
}
