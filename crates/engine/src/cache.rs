//! Content-keyed in-memory artifact cache with single-flight builds.
//!
//! Experiment cells repeatedly need the same expensive, locking-independent
//! artifacts: an HLS-scheduled kernel, its candidate minterm list, the
//! area-/power-aware baseline bindings. The cache memoizes them across cells
//! (and across worker threads) under a content key built from the inputs
//! that determine the artifact — e.g. `(kernel, frames, seed)`.
//!
//! Keys hash with FNV-1a (hand-rolled; the environment has no external
//! hashing crates), but lookup always compares the **exact key bytes**, so
//! hash collisions can never alias two artifacts. Values are type-erased
//! `Arc<dyn Any>`; [`ArtifactCache::get_or_insert_with`] downcasts back to
//! the concrete type and panics on a type mismatch (a programming error:
//! one namespace must always store one type).
//!
//! Builds are **single-flight**: the first thread to miss a key builds it
//! (without holding the cache lock) while concurrent requesters block on
//! the pending slot and then share the result. Each key is therefore built
//! *exactly once* — no duplicated work, and every counter incremented
//! inside a build fires a deterministic number of times regardless of
//! worker count, which is what keeps the metrics registry byte-identical
//! across `--threads` values. A build may fail, by returning `Err` from
//! [`ArtifactCache::get_or_try_insert_with`] or by panicking: the error or
//! panic goes to the builder, waiters retry (typically re-building and
//! failing again in their own cell, preserving per-cell isolation), the
//! failed slot is removed, and nothing is stored.
//!
//! Hit/miss counters are kept both per-cache (for [`CacheStats`] deltas)
//! and on the global `lockbind-obs` registry (`cache.hit` / `cache.miss`),
//! so run metrics and profile output report the same numbers from one
//! source of truth.

use std::any::Any;
use std::collections::HashMap;
use std::convert::Infallible;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};

use lockbind_obs as obs;

/// An unambiguous byte key identifying one cached artifact.
///
/// Built from a namespace plus a sequence of typed fields; variable-length
/// fields are length-prefixed so distinct field sequences can never encode
/// to the same bytes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CacheKey {
    bytes: Vec<u8>,
}

impl CacheKey {
    /// Starts a key in `namespace` (e.g. `"prepared-kernel"`).
    pub fn new(namespace: &str) -> Self {
        CacheKey { bytes: Vec::new() }.push_str(namespace)
    }

    /// Appends a `u64` field.
    pub fn push_u64(mut self, v: u64) -> Self {
        self.bytes.extend_from_slice(&v.to_le_bytes());
        self
    }

    /// Appends a `usize` field.
    pub fn push_usize(self, v: usize) -> Self {
        self.push_u64(v as u64)
    }

    /// Appends a length-prefixed string field.
    pub fn push_str(self, s: &str) -> Self {
        self.push_bytes(s.as_bytes())
    }

    /// Appends a length-prefixed raw byte field.
    pub fn push_bytes(mut self, b: &[u8]) -> Self {
        self.bytes
            .extend_from_slice(&(b.len() as u64).to_le_bytes());
        self.bytes.extend_from_slice(b);
        self
    }

    /// The key's canonical byte rendering — stable across processes, so
    /// persistent stores can index by it directly.
    pub fn as_bytes(&self) -> &[u8] {
        &self.bytes
    }

    /// FNV-1a over the key bytes; used only to pick the bucket.
    fn fnv1a(&self) -> u64 {
        let mut hash = 0xCBF2_9CE4_8422_2325u64;
        for &byte in &self.bytes {
            hash ^= byte as u64;
            hash = hash.wrapping_mul(0x0000_0100_0000_01B3);
        }
        hash
    }
}

type Erased = Arc<dyn Any + Send + Sync>;

/// Cache hit/miss counters and the current entry count.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups satisfied from the cache (including waits on an in-flight
    /// build started by another thread).
    pub hits: u64,
    /// Lookups that had to build the artifact.
    pub misses: u64,
    /// Artifacts currently stored (completed builds).
    pub entries: usize,
}

impl CacheStats {
    /// Fraction of lookups served from the cache (0 when none occurred).
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

/// One cache slot: pending while its builder runs, then ready (or failed,
/// transiently, when the build returned `Err` or panicked).
#[derive(Debug)]
enum SlotState {
    Pending,
    Ready(Erased),
    Failed,
}

#[derive(Debug)]
struct Slot {
    state: Mutex<SlotState>,
    ready: Condvar,
}

impl Slot {
    fn new() -> Self {
        Slot {
            state: Mutex::new(SlotState::Pending),
            ready: Condvar::new(),
        }
    }

    fn finish(&self, state: SlotState) {
        *self.state.lock().expect("cache slot poisoned") = state;
        self.ready.notify_all();
    }
}

/// One hash bucket: slots whose keys share an FNV-1a hash, resolved by
/// exact key-byte comparison.
type Bucket = Vec<(Vec<u8>, Arc<Slot>)>;

/// Thread-safe, type-erased artifact cache.
#[derive(Debug, Default)]
pub struct ArtifactCache {
    buckets: Mutex<HashMap<u64, Bucket>>,
    hits: AtomicU64,
    misses: AtomicU64,
}

impl ArtifactCache {
    /// An empty cache.
    pub fn new() -> Self {
        Self::default()
    }

    /// Returns the artifact under `key`, building (and inserting) it with
    /// `build` on a miss.
    ///
    /// The lock is **not** held while `build` runs; concurrent requesters
    /// of the same key block until the build completes and then share the
    /// one artifact (single-flight — see the module docs). Builds must be
    /// deterministic functions of the key, which is exactly what makes
    /// them cacheable in the first place.
    ///
    /// # Panics
    /// If an artifact was previously stored under the same key with a
    /// different type, or if `build` panics (the panic is propagated).
    pub fn get_or_insert_with<T, F>(&self, key: CacheKey, build: F) -> Arc<T>
    where
        T: Send + Sync + 'static,
        F: FnOnce() -> T,
    {
        self.get_or_try_insert_with(key, || Ok::<T, Infallible>(build()))
            .unwrap_or_else(|never| match never {})
    }

    /// [`get_or_insert_with`](Self::get_or_insert_with) for a build that
    /// can fail. An `Err` is returned to the builder only: the slot is
    /// removed without storing anything, the build counts as a miss, and
    /// concurrent waiters wake up and retry (one of them becomes the next
    /// builder) — exactly what a panicking build does.
    ///
    /// # Errors
    /// The builder's own `Err`; a waiter never sees another thread's error.
    ///
    /// # Panics
    /// As [`get_or_insert_with`](Self::get_or_insert_with).
    pub fn get_or_try_insert_with<T, E, F>(&self, key: CacheKey, build: F) -> Result<Arc<T>, E>
    where
        T: Send + Sync + 'static,
        F: FnOnce() -> Result<T, E>,
    {
        let hash = key.fnv1a();
        let mut build = Some(build);
        loop {
            let (slot, is_builder) = {
                let mut buckets = self.buckets.lock().expect("cache poisoned");
                let bucket = buckets.entry(hash).or_default();
                match bucket.iter().find(|(k, _)| *k == key.bytes) {
                    Some((_, slot)) => (Arc::clone(slot), false),
                    None => {
                        let slot = Arc::new(Slot::new());
                        bucket.push((key.bytes.clone(), Arc::clone(&slot)));
                        (slot, true)
                    }
                }
            };
            if is_builder {
                self.misses.fetch_add(1, Ordering::Relaxed);
                obs::counter!("cache.miss").inc();
                let build = build.take().expect("a thread builds at most once");
                match catch_unwind(AssertUnwindSafe(build)) {
                    Ok(Ok(value)) => {
                        let erased: Erased = Arc::new(value);
                        slot.finish(SlotState::Ready(Arc::clone(&erased)));
                        return Ok(downcast::<T>(erased));
                    }
                    Ok(Err(e)) => {
                        self.discard(hash, &slot);
                        return Err(e);
                    }
                    Err(payload) => {
                        // Let the panic take down this cell.
                        self.discard(hash, &slot);
                        resume_unwind(payload);
                    }
                }
            } else {
                let mut state = slot.state.lock().expect("cache slot poisoned");
                loop {
                    match &*state {
                        SlotState::Ready(value) => {
                            let value = Arc::clone(value);
                            drop(state);
                            self.hits.fetch_add(1, Ordering::Relaxed);
                            obs::counter!("cache.hit").inc();
                            return Ok(downcast::<T>(value));
                        }
                        SlotState::Failed => break,
                        SlotState::Pending => {
                            state = slot.ready.wait(state).expect("cache slot poisoned");
                        }
                    }
                }
                // The build failed; retry from the top (this thread may
                // become the new builder).
            }
        }
    }

    /// Fails a slot whose build did not produce a value: unblocks its
    /// waiters and drops it so later lookups rebuild.
    fn discard(&self, hash: u64, slot: &Arc<Slot>) {
        slot.finish(SlotState::Failed);
        let mut buckets = self.buckets.lock().expect("cache poisoned");
        if let Some(bucket) = buckets.get_mut(&hash) {
            bucket.retain(|(_, s)| !Arc::ptr_eq(s, slot));
        }
    }

    /// Current hit/miss counters and entry count.
    pub fn stats(&self) -> CacheStats {
        let entries = self
            .buckets
            .lock()
            .expect("cache poisoned")
            .values()
            .map(Vec::len)
            .sum();
        CacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            entries,
        }
    }
}

fn downcast<T: Send + Sync + 'static>(erased: Erased) -> Arc<T> {
    erased
        .downcast::<T>()
        .unwrap_or_else(|_| panic!("artifact cache type mismatch: one key stored two types"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn miss_then_hit_counts() {
        let cache = ArtifactCache::new();
        let key = || {
            CacheKey::new("t")
                .push_str("fir")
                .push_usize(300)
                .push_u64(2021)
        };
        let mut builds = 0;
        let a = cache.get_or_insert_with::<u64, _>(key(), || {
            builds += 1;
            42
        });
        let b = cache.get_or_insert_with::<u64, _>(key(), || {
            builds += 1;
            99
        });
        assert_eq!(*a, 42);
        assert_eq!(*b, 42, "second lookup must reuse the first artifact");
        assert_eq!(builds, 1);
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.misses, stats.entries), (1, 1, 1));
        assert!((stats.hit_rate() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn distinct_triples_never_collide() {
        // Every distinct (kernel, frames, seed) triple must map to its own
        // artifact, including pairs crafted to stress field boundaries.
        let cache = ArtifactCache::new();
        let triples: Vec<(&str, usize, u64)> = vec![
            ("fir", 300, 2021),
            ("fir", 300, 2022),
            ("fir", 301, 2021),
            ("fir2", 300, 2021),
            // Same concatenated text, different field split.
            ("ab", 1, 0),
            ("a", 1, 0),
            ("", 1, 0),
        ];
        for (i, (kernel, frames, seed)) in triples.iter().enumerate() {
            let key = CacheKey::new("prepared")
                .push_str(kernel)
                .push_usize(*frames)
                .push_u64(*seed);
            let value = cache.get_or_insert_with::<usize, _>(key, || i);
            assert_eq!(*value, i, "triple {i} aliased an earlier artifact");
        }
        let stats = cache.stats();
        assert_eq!(stats.misses, triples.len() as u64);
        assert_eq!(stats.hits, 0);
        assert_eq!(stats.entries, triples.len());
    }

    #[test]
    fn namespaces_separate_artifacts() {
        let cache = ArtifactCache::new();
        let a = cache.get_or_insert_with::<u32, _>(CacheKey::new("ns-a").push_u64(7), || 1);
        let b = cache.get_or_insert_with::<u32, _>(CacheKey::new("ns-b").push_u64(7), || 2);
        assert_eq!((*a, *b), (1, 2));
        assert_eq!(cache.stats().entries, 2);
    }

    #[test]
    #[should_panic(expected = "type mismatch")]
    fn type_mismatch_panics() {
        let cache = ArtifactCache::new();
        let key = || CacheKey::new("ns").push_u64(1);
        let _ = cache.get_or_insert_with::<u32, _>(key(), || 1);
        let _ = cache.get_or_insert_with::<u64, _>(key(), || 1);
    }

    #[test]
    fn concurrent_lookups_build_each_key_exactly_once() {
        let cache = ArtifactCache::new();
        let builds = AtomicU64::new(0);
        std::thread::scope(|scope| {
            for _ in 0..8 {
                scope.spawn(|| {
                    for round in 0..64u64 {
                        let key = CacheKey::new("shared").push_u64(round % 4);
                        let v = cache.get_or_insert_with::<u64, _>(key, || {
                            builds.fetch_add(1, Ordering::Relaxed);
                            round % 4
                        });
                        assert_eq!(*v, round % 4);
                    }
                });
            }
        });
        let stats = cache.stats();
        assert_eq!(stats.entries, 4);
        assert_eq!(stats.hits + stats.misses, 8 * 64);
        assert_eq!(
            builds.load(Ordering::Relaxed),
            4,
            "single-flight: each key builds exactly once"
        );
        assert_eq!(stats.misses, 4, "misses equal builds");
    }

    #[test]
    fn permanently_failing_build_is_attempted_at_most_once_per_requester() {
        // A build that always fails must not be spin-retried: each
        // requesting thread attempts it at most once (the `Option`-taken
        // builder enforces this structurally) and sees the panic itself.
        let cache = ArtifactCache::new();
        let builds = AtomicU64::new(0);
        std::thread::scope(|scope| {
            for _ in 0..7 {
                scope.spawn(|| {
                    let result = catch_unwind(AssertUnwindSafe(|| {
                        let _ = cache.get_or_insert_with::<u64, _>(
                            CacheKey::new("doomed").push_u64(1),
                            || {
                                builds.fetch_add(1, Ordering::Relaxed);
                                panic!("permanent build failure");
                            },
                        );
                    }));
                    assert!(result.is_err(), "every requester observes the failure");
                });
            }
        });
        let builds = builds.load(Ordering::Relaxed);
        assert!(
            (1..=7).contains(&builds),
            "at most one build per requester, got {builds}"
        );
        let stats = cache.stats();
        assert_eq!(stats.misses, builds, "each failed build counts one miss");
        assert_eq!(stats.entries, 0, "failed slots are not retained");
    }

    #[test]
    fn panicking_build_unblocks_waiters_and_allows_retry() {
        // A build that returns `Err` must behave exactly like one that
        // panics: the waiter unblocks and retries, the slot is gone, a
        // retry builds, and hits/misses match.
        for returns_err in [false, true] {
            let cache = ArtifactCache::new();
            let key = || CacheKey::new("flaky").push_u64(1);
            let (started_tx, started_rx) = std::sync::mpsc::channel();
            let (release_tx, release_rx) = std::sync::mpsc::channel::<()>();
            std::thread::scope(|scope| {
                let shared = &cache;
                let builder = scope.spawn(move || {
                    catch_unwind(AssertUnwindSafe(|| {
                        shared.get_or_try_insert_with::<u64, &str, _>(key(), || {
                            started_tx.send(()).expect("test alive");
                            release_rx.recv().expect("test alive");
                            if returns_err {
                                Err("build failed")
                            } else {
                                panic!("build exploded")
                            }
                        })
                    }))
                });
                started_rx.recv().expect("builder started");
                let waiter = scope.spawn(|| cache.get_or_insert_with::<u64, _>(key(), || 7));
                // Give the waiter time to find the pending slot and block
                // on it; it must not return while the build is pending.
                std::thread::sleep(std::time::Duration::from_millis(50));
                assert!(!waiter.is_finished(), "waiter blocks on the pending slot");
                release_tx.send(()).expect("builder alive");
                match builder.join().expect("builder thread") {
                    Ok(Err(e)) => assert!(returns_err && e == "build failed"),
                    Err(_) => assert!(!returns_err, "builder sees the panic"),
                    Ok(Ok(v)) => panic!("failed build stored {v}"),
                }
                assert_eq!(*waiter.join().expect("waiter thread"), 7);
            });
            // The failed slot was removed and the waiter's retry stored the
            // value: a later lookup hits it.
            let v = cache.get_or_insert_with::<u64, _>(key(), || 9);
            assert_eq!(*v, 7);
            let stats = cache.stats();
            assert_eq!(
                (stats.hits, stats.misses, stats.entries),
                (1, 2, 1),
                "returns_err = {returns_err}"
            );
        }
    }
}
