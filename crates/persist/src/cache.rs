//! [`ContentCache`]: the one bounded, exactly-once, content-addressed
//! in-memory cache under every layer that memoizes a pure function — the
//! translation service, the run memo and the program store — with an
//! optional [`PersistStore`] tier beneath it.
//!
//! * **Exactly-once fill.** [`ContentCache::get_or_fill`] hands each key
//!   one shared slot; the first asker runs the fill and late askers block
//!   on it, so hit/miss counters are deterministic for a given job list
//!   regardless of thread count (while the working set fits the bound).
//! * **Bounded LRU.** Beyond `capacity` entries, the unpinned entry with
//!   the smallest `(last use, key)` pair — other than the one just touched
//!   — is evicted. The order lives in a `BTreeSet`, so picking the victim
//!   is `O(log n)`. Pinned entries never count as victims.
//! * **Tier.** With a [`Tier`] attached, a fill first reads through to the
//!   store and writes fresh values behind; each layer brings its own
//!   [`Codec`]. A payload that frames correctly but does not decode is
//!   quarantined with the codec's reason and recomputed, never an error.

use crate::PersistStore;
use std::collections::{BTreeSet, HashMap};
use std::hash::Hash;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

/// How one layer's values travel to and from a [`PersistStore`].
#[derive(Debug)]
pub struct Codec<K, V> {
    /// The store's entry kind (a short lowercase word).
    pub kind: &'static str,
    /// The store key of `K`, as lowercase hex.
    pub key_hex: fn(&K) -> String,
    /// The payload of a value; `None` keeps it in memory only (errors are
    /// never written).
    pub encode: fn(&V) -> Option<Vec<u8>>,
    /// Total decode of a payload stored under `K`; `Err` carries the
    /// quarantine reason.
    pub decode: fn(&K, &[u8]) -> Result<V, String>,
}

/// A [`PersistStore`] seen through one layer's [`Codec`].
#[derive(Debug)]
pub struct Tier<K, V> {
    store: Arc<PersistStore>,
    codec: Codec<K, V>,
}

impl<K, V> Tier<K, V> {
    /// `store` read and written through `codec`.
    pub fn new(store: Arc<PersistStore>, codec: Codec<K, V>) -> Tier<K, V> {
        Tier { store, codec }
    }

    /// The value published under `key`, if any. A payload that fails to
    /// decode is quarantined (the store's own checks already passed) and
    /// reads as a miss.
    pub fn read(&self, key: &K) -> Option<V> {
        let hex = (self.codec.key_hex)(key);
        let bytes = self.store.get(self.codec.kind, &hex)?;
        (self.codec.decode)(key, &bytes)
            .map_err(|reason| self.store.quarantine(self.codec.kind, &hex, &reason))
            .ok()
    }

    /// Publishes `value` under `key`, unless the codec keeps it in memory.
    pub fn write(&self, key: &K, value: &V) {
        if let Some(payload) = (self.codec.encode)(value) {
            self.store.put(self.codec.kind, &(self.codec.key_hex)(key), &payload);
        }
    }

    /// Quarantines the entry under `key` for a reason only the layer can
    /// see (a payload that decodes but contradicts its context).
    pub fn quarantine(&self, key: &K, reason: &str) {
        self.store.quarantine(self.codec.kind, &(self.codec.key_hex)(key), reason);
    }

    /// Every key (as hex) published under this codec's kind, sorted.
    pub fn keys(&self) -> Vec<String> {
        self.store.keys(self.codec.kind)
    }
}

/// Hit and miss counters of [`ContentCache::get_or_fill`]. Several caches
/// may count into one (see [`ContentCache::with_counters`]).
#[derive(Debug, Default)]
pub struct CacheCounters {
    hits: AtomicU64,
    misses: AtomicU64,
}

impl CacheCounters {
    /// `(hits, misses)` counted so far.
    pub fn hits_and_misses(&self) -> (u64, u64) {
        (self.hits.load(Ordering::SeqCst), self.misses.load(Ordering::SeqCst))
    }
}

/// Snapshot of one cache.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// [`ContentCache::get_or_fill`] asks answered by a resident slot.
    pub hits: u64,
    /// Asks that ran the fill (or read the value through from the tier).
    pub misses: u64,
    /// Entries currently resident.
    pub entries: usize,
    /// Entries evicted to honour the capacity bound.
    pub evictions: u64,
}

#[derive(Debug)]
struct Entry<V> {
    slot: Arc<OnceLock<V>>,
    last_use: u64,
    pinned: bool,
}

/// The lock-guarded part of a cache.
#[derive(Debug)]
struct Resident<K, V> {
    entries: HashMap<K, Entry<V>>,
    /// Unpinned entries, least recently used `(last use, key)` first.
    lru: BTreeSet<(u64, K)>,
    uses: u64,
}

impl<K: Clone + Ord + Hash, V> Resident<K, V> {
    /// Marks `key` used now (and pinned, if `pin`), returning its entry.
    fn touch(&mut self, key: &K, pin: bool) -> Option<&Entry<V>> {
        self.uses += 1;
        let entry = self.entries.get_mut(key)?;
        if !entry.pinned {
            self.lru.remove(&(entry.last_use, key.clone()));
        }
        entry.last_use = self.uses;
        entry.pinned |= pin;
        if !entry.pinned {
            self.lru.insert((entry.last_use, key.clone()));
        }
        Some(entry)
    }
}

/// A bounded, thread-safe, content-addressed cache of `V` by `K`.
///
/// ```
/// use dbt_persist::ContentCache;
///
/// let cache = ContentCache::new(2);
/// assert_eq!(cache.get_or_fill(1u64, || "one"), ("one", false));
/// assert_eq!(cache.get_or_fill(1, || unreachable!("filled once")), ("one", true));
/// cache.get_or_fill(2, || "two");
/// cache.get_or_fill(3, || "three"); // evicts 1, the least recently used
/// assert_eq!(cache.get(&1), None);
/// let stats = cache.stats();
/// assert_eq!((stats.hits, stats.misses, stats.entries, stats.evictions), (1, 3, 2, 1));
/// ```
#[derive(Debug)]
pub struct ContentCache<K, V> {
    capacity: usize,
    resident: Mutex<Resident<K, V>>,
    counters: Arc<CacheCounters>,
    evictions: AtomicU64,
    tier: Option<Tier<K, V>>,
}

impl<K: Clone + Ord + Hash, V: Clone> ContentCache<K, V> {
    /// An empty cache bounded to `capacity` resident entries.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn new(capacity: usize) -> ContentCache<K, V> {
        assert!(capacity >= 1, "a content cache needs room for at least one entry");
        ContentCache {
            capacity,
            resident: Mutex::new(Resident {
                entries: HashMap::new(),
                lru: BTreeSet::new(),
                uses: 0,
            }),
            counters: Arc::default(),
            evictions: AtomicU64::new(0),
            tier: None,
        }
    }

    /// This cache over a durable tier: fills read through `store` and
    /// write fresh values behind, through `codec`.
    pub fn with_tier(self, store: Arc<PersistStore>, codec: Codec<K, V>) -> ContentCache<K, V> {
        ContentCache { tier: Some(Tier::new(store, codec)), ..self }
    }

    /// This cache counting its hits and misses into `counters`.
    pub fn with_counters(self, counters: Arc<CacheCounters>) -> ContentCache<K, V> {
        ContentCache { counters, ..self }
    }

    /// The durable tier, if one is attached.
    pub fn tier(&self) -> Option<&Tier<K, V>> {
        self.tier.as_ref()
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Resident<K, V>> {
        self.resident.lock().expect("content cache poisoned")
    }

    /// Snapshot of the counters.
    pub fn stats(&self) -> CacheStats {
        let (hits, misses) = self.counters.hits_and_misses();
        let entries = self.lock().entries.len();
        CacheStats { hits, misses, entries, evictions: self.evictions.load(Ordering::SeqCst) }
    }

    /// Whether `key` is resident (without counting as a use).
    pub fn contains(&self, key: &K) -> bool {
        self.lock().entries.contains_key(key)
    }

    /// The slot for `key` (touched, or created) and whether it was already
    /// resident. Past the capacity bound, the least recently used unpinned
    /// *other* entry is evicted.
    fn slot(&self, key: &K, pin: bool) -> (Arc<OnceLock<V>>, bool) {
        let mut resident = self.lock();
        let (slot, was_resident) = match resident.touch(key, pin) {
            Some(entry) => (Arc::clone(&entry.slot), true),
            None => {
                let slot = Arc::new(OnceLock::new());
                let entry = Entry { slot: Arc::clone(&slot), last_use: 0, pinned: pin };
                resident.entries.insert(key.clone(), entry);
                resident.touch(key, pin);
                (slot, false)
            }
        };
        if resident.entries.len() > self.capacity {
            let victim = resident.lru.iter().find(|(_, k)| k != key).cloned();
            if let Some((last_use, victim)) = victim {
                resident.lru.remove(&(last_use, victim.clone()));
                resident.entries.remove(&victim);
                self.evictions.fetch_add(1, Ordering::SeqCst);
            }
        }
        (slot, was_resident)
    }

    /// The value under `key`, computing it exactly once process-wide if it
    /// is not resident: the tier is consulted first, then `fill` runs and
    /// its value is written behind. Returns the value and whether it was a
    /// hit. A tier read still counts as a miss (the slot had to be filled),
    /// so the counters do not depend on disk warmth.
    pub fn get_or_fill(&self, key: K, fill: impl FnOnce() -> V) -> (V, bool) {
        let (slot, _) = self.slot(&key, false);
        let mut filled = false;
        let value = slot
            .get_or_init(|| {
                filled = true;
                if let Some(value) = self.tier.as_ref().and_then(|tier| tier.read(&key)) {
                    return value;
                }
                let value = fill();
                if let Some(tier) = &self.tier {
                    tier.write(&key, &value);
                }
                value
            })
            .clone();
        let counter = if filled { &self.counters.misses } else { &self.counters.hits };
        counter.fetch_add(1, Ordering::SeqCst);
        (value, !filled)
    }

    /// Makes `value` resident under `key` unless a value already is, and
    /// returns the resident value and whether one was already there. A
    /// fresh unpinned value is written behind to the tier. `pin` marks the
    /// entry never-evictable for the cache's lifetime (a later unpinned
    /// insert does not unpin it); pinned values are never written, since
    /// their owner can always rebuild them.
    pub fn insert(&self, key: K, value: V, pin: bool) -> (V, bool) {
        self.insert_entry(key, value, pin, true)
    }

    fn insert_entry(&self, key: K, value: V, pin: bool, publish: bool) -> (V, bool) {
        let (slot, resident) = self.slot(&key, pin);
        let mut fresh = false;
        let value = slot
            .get_or_init(|| {
                fresh = true;
                value
            })
            .clone();
        if let Some(tier) = self.tier.as_ref().filter(|_| fresh && publish && !pin) {
            tier.write(&key, &value);
        }
        (value, resident)
    }

    /// The value under `key`, counting as a use: a resident one, or — with
    /// a tier attached — the one published on disk, made resident without
    /// being written back. Never fills.
    pub fn get(&self, key: &K) -> Option<V> {
        let resident = self.lock().touch(key, false).and_then(|entry| entry.slot.get().cloned());
        if resident.is_some() {
            return resident;
        }
        let value = self.tier.as_ref()?.read(key)?;
        Some(self.insert_entry(key.clone(), value, false, false).0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;

    /// A codec over `u64` values with `Err` kept in memory and the payload
    /// `b"bad"` undecodable.
    const CODEC: Codec<u64, Result<u64, String>> = Codec {
        kind: "test",
        key_hex: |key| format!("{key:016x}"),
        encode: |value| value.as_ref().ok().map(|v| v.to_le_bytes().to_vec()),
        decode: |_, bytes| match <[u8; 8]>::try_from(bytes) {
            Ok(raw) => Ok(Ok(u64::from_le_bytes(raw))),
            Err(_) => Err("test payload decode failed".to_string()),
        },
    };

    #[test]
    fn concurrent_askers_fill_exactly_once() {
        let cache = ContentCache::new(4);
        let fills = AtomicUsize::new(0);
        std::thread::scope(|scope| {
            for _ in 0..8 {
                scope.spawn(|| {
                    let (value, _) = cache.get_or_fill(7u64, || {
                        fills.fetch_add(1, Ordering::SeqCst);
                        std::thread::sleep(std::time::Duration::from_millis(5));
                        42
                    });
                    assert_eq!(value, 42);
                });
            }
        });
        assert_eq!(fills.load(Ordering::SeqCst), 1, "late askers block on the winner");
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.misses, stats.entries), (7, 1, 1));
    }

    #[test]
    fn err_fills_are_memoized_and_never_rerun() {
        let cache = ContentCache::new(4);
        let (first, hit) = cache.get_or_fill(1u64, || Err::<u64, _>("boom".to_string()));
        assert_eq!((first, hit), (Err("boom".to_string()), false));
        let (again, hit) = cache.get_or_fill(1, || panic!("an Err fill must not re-run"));
        assert_eq!((again, hit), (Err("boom".to_string()), true));
        assert_eq!((cache.stats().hits, cache.stats().misses), (1, 1));
    }

    #[test]
    fn eviction_takes_the_least_recently_used_other_entry_at_the_boundary() {
        let cache = ContentCache::new(2);
        cache.insert(1u64, "a", false);
        cache.insert(2, "b", false);
        assert_eq!(cache.stats().evictions, 0, "exactly at capacity nothing is evicted");
        assert_eq!(cache.get(&1), Some("a"), "a get counts as a use");
        cache.insert(3, "c", false);
        assert_eq!(cache.stats().evictions, 1);
        assert!(cache.contains(&1) && !cache.contains(&2) && cache.contains(&3));
        // A hit counts as a use too, so 3 becomes the next victim.
        cache.get_or_fill(1, || unreachable!());
        cache.insert(4, "d", false);
        assert!(cache.contains(&1) && !cache.contains(&3) && cache.contains(&4));
        assert_eq!(cache.get_or_fill(3, || "c2"), ("c2", false), "an evicted key fills afresh");
        assert_eq!(cache.stats().entries, 2);
    }

    #[test]
    fn pinned_entries_are_never_evicted() {
        let cache = ContentCache::new(1);
        assert_eq!(cache.insert(1u64, "seed", true), ("seed", false));
        for key in 10..20 {
            cache.insert(key, "upload", false);
            assert!(cache.contains(&1), "pinned entries never count as victims");
        }
        // The resident count may exceed a capacity smaller than the pins;
        // each new unpinned entry displaces the previous one.
        assert_eq!(cache.stats().entries, 2);
        assert_eq!(cache.stats().evictions, 9);
        // Pinning an unpinned entry holds for good.
        cache.insert(19, "upload", true);
        cache.insert(20, "late", false);
        assert!(cache.contains(&19) && cache.contains(&20));
        assert_eq!(cache.insert(19, "other", false), ("upload", true), "the resident value wins");
    }

    #[test]
    #[should_panic(expected = "at least one entry")]
    fn zero_capacity_is_rejected() {
        let _ = ContentCache::<u64, u64>::new(0);
    }

    #[test]
    fn tier_reads_through_writes_behind_and_quarantines() {
        let root = std::env::temp_dir().join(format!("dbt-cache-tier-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&root);
        let store = PersistStore::open(&root).unwrap();
        let cache = ContentCache::new(8).with_tier(Arc::clone(&store), CODEC);
        assert_eq!(cache.get_or_fill(1, || Ok(10)), (Ok(10), false));
        assert_eq!(cache.get_or_fill(2, || Err("boom".to_string())).0, Err("boom".to_string()));
        let _ = cache.insert(3, Ok(30), false);
        let _ = cache.insert(4, Ok(40), true);
        assert_eq!(store.stats().writes, 2, "Ok fills and unpinned inserts only");
        // A fresh cache over the same store: fills and gets read through,
        // without re-publishing.
        assert!(store.put("test", &format!("{:016x}", 5), b"bad"));
        let cache = ContentCache::new(8).with_tier(Arc::clone(&store), CODEC);
        assert_eq!(cache.get_or_fill(1, || unreachable!("on disk")), (Ok(10), false));
        assert_eq!(cache.get(&3), Some(Ok(30)));
        assert_eq!(cache.get(&4), None, "pinned values were never written");
        assert_eq!(cache.get(&5), None, "an undecodable payload reads as a miss");
        assert_eq!(store.stats().corrupt_quarantined, 1);
        assert_eq!(cache.get_or_fill(5, || Ok(50)).0, Ok(50), "and is recomputed");
        assert_eq!(store.stats().writes, 4, "the planted entry and the recompute");
        assert_eq!(cache.tier().unwrap().keys().len(), 3);
        std::fs::remove_dir_all(&root).unwrap();
    }
}
