//! The one cache primitive behind the estimator's workload-level memos.
//!
//! Both shared caches of an engine or serving generation — the
//! skeleton-keyed [`JoinCache`](crate::JoinCache) and the full-query
//! [`EstimateCache`](crate::EstimateCache) — are a [`SharedMemo`] read
//! through per-estimator [`MemoFront`]s:
//!
//! * **[`SharedMemo`]** is eight mutex-guarded shards, the shard chosen
//!   from the key's precomputed hash. An insert takes one shard lock and
//!   mutates the map in place; racing inserts of one key keep the first
//!   value (*first publication wins*, which is safe because every value
//!   is a pure function of its key and the summary). Memory is bounded by
//!   two-segment rotation per shard: inserts fill `current`, and a full
//!   `current` becomes `previous`, dropping the old `previous` entries
//!   (counted as evictions). A key that ages out of both segments pays
//!   one recompute and re-enters. Capacity 0 disables the memo: nothing
//!   is stored and no counter moves.
//! * **[`MemoFront`]** is one estimator's private, unsynchronized map in
//!   front of the shared one. A lookup probes it without any lock; a
//!   local miss probes the shared memo once and keeps what it finds, and
//!   a publish writes through to the shared memo and keeps the value
//!   locally. Warm lookups therefore take zero locks and touch no shared
//!   cache line; hit/miss tallies stay local and fold into the shared
//!   counters at [`flush`](MemoFront::flush) and on drop.
//!
//! # Memory ordering
//!
//! There is nothing to argue beyond the mutexes: every access to shared
//! entries happens under its shard's lock, so a publish happens-before
//! every later probe of that shard. A front has a single owner and no
//! internal synchronization. The counters are relaxed statistics that
//! order nothing.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hash, Hasher};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

/// A cache key that carries its own 64-bit hash, computed once at
/// construction. Its `Hash` impl must write exactly that value through
/// one `write_u64` call, so the memo's maps probe without re-hashing and
/// shard selection reuses the same value.
pub trait MemoKey: Clone + Eq + Hash {
    /// The precomputed hash.
    fn hash64(&self) -> u64;
}

/// Pass-through hasher for [`MemoKey`]s: `write_u64` stores the key's
/// precomputed hash and `finish` returns it unchanged.
#[derive(Default)]
pub(crate) struct PrehashedHasher(u64);

impl Hasher for PrehashedHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, _bytes: &[u8]) {
        unreachable!("prehashed keys hash via write_u64 only")
    }

    fn write_u64(&mut self, h: u64) {
        self.0 = h;
    }
}

type Map<K, V> = HashMap<K, V, BuildHasherDefault<PrehashedHasher>>;

const SHARDS: usize = 8;

/// One shard: the two rotation segments. They are disjoint, because an
/// insert of a key present in either is refused.
struct Shard<K, V> {
    current: Map<K, V>,
    previous: Map<K, V>,
}

impl<K: MemoKey, V> Shard<K, V> {
    fn get(&self, key: &K) -> Option<&V> {
        self.current.get(key).or_else(|| self.previous.get(key))
    }
}

/// A sharded, capacity-bounded memo shared by every estimator of an
/// engine or serving generation (see the module docs).
pub struct SharedMemo<K, V> {
    shards: Box<[Mutex<Shard<K, V>>]>,
    /// Entries a shard's `current` segment takes before it rotates; 0
    /// disables the memo.
    segment_capacity: usize,
    hits: AtomicU64,
    misses: AtomicU64,
    inserts: AtomicU64,
    evictions: AtomicU64,
    locks: AtomicU64,
}

impl<K, V> SharedMemo<K, V> {
    /// A memo holding at most `capacity` entries, rounded up to a
    /// multiple of 16 (two segments per shard); 0 disables it.
    pub fn with_capacity(capacity: usize) -> Self {
        SharedMemo {
            shards: (0..SHARDS)
                .map(|_| {
                    Mutex::new(Shard {
                        current: Map::default(),
                        previous: Map::default(),
                    })
                })
                .collect(),
            segment_capacity: capacity.div_ceil(2 * SHARDS),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            inserts: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
            locks: AtomicU64::new(0),
        }
    }

    /// The entry bound (0 when disabled). A shard's `current` rotates as
    /// it fills, so the memo holds fewer than this many entries.
    pub fn capacity(&self) -> usize {
        self.segment_capacity * 2 * SHARDS
    }

    fn lock_shard<'a>(&self, shard: &'a Mutex<Shard<K, V>>) -> MutexGuard<'a, Shard<K, V>> {
        self.locks.fetch_add(1, Ordering::Relaxed);
        shard.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Number of stored entries (locks every shard).
    pub fn len(&self) -> usize {
        self.shards
            .iter()
            .map(|s| {
                let shard = self.lock_shard(s);
                shard.current.len() + shard.previous.len()
            })
            .sum()
    }

    /// Whether nothing is stored.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Front lookups served from a stored value, folded in at flush.
    pub fn hits(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }

    /// Front lookups that found nothing, folded in at flush.
    pub fn misses(&self) -> u64 {
        self.misses.load(Ordering::Relaxed)
    }

    /// `hits / (hits + misses)`, or 0 before any lookup.
    pub fn hit_rate(&self) -> f64 {
        let h = self.hits() as f64;
        let m = self.misses() as f64;
        if h + m == 0.0 {
            0.0
        } else {
            h / (h + m)
        }
    }

    /// Values stored; an insert that lost to an earlier publication of
    /// its key is not counted.
    pub fn inserts(&self) -> u64 {
        self.inserts.load(Ordering::Relaxed)
    }

    /// Entries dropped by segment rotation, the memo's only eviction.
    pub fn evictions(&self) -> u64 {
        self.evictions.load(Ordering::Relaxed)
    }

    /// Shard-lock acquisitions so far: front misses, publishes and
    /// [`len`](Self::len) (one per shard) all count. Warm lookups served
    /// by a front must not move it.
    pub fn lock_count(&self) -> u64 {
        self.locks.load(Ordering::Relaxed)
    }
}

impl<K: MemoKey, V: Clone> SharedMemo<K, V> {
    /// Locks `key`'s shard, counting the acquisition. The shard comes
    /// from the hash's high half: the in-shard map derives its bucket
    /// index from the low bits, and reusing them would crowd each
    /// shard's keys into one bucket neighborhood.
    fn lock(&self, key: &K) -> MutexGuard<'_, Shard<K, V>> {
        self.lock_shard(&self.shards[(key.hash64() >> 32) as usize % SHARDS])
    }

    /// The stored value for `key`: one shard lock, no hit/miss counting
    /// (fronts tally their own).
    fn get(&self, key: &K) -> Option<V> {
        self.lock(key).get(key).cloned()
    }

    /// Stores `value` under `key` unless the key is already present, and
    /// returns the value now stored. Only a stored value counts as an
    /// insert.
    fn insert(&self, key: K, value: V) -> V {
        let mut shard = self.lock(&key);
        if let Some(first) = shard.get(&key) {
            return first.clone();
        }
        shard.current.insert(key, value.clone());
        self.inserts.fetch_add(1, Ordering::Relaxed);
        if shard.current.len() >= self.segment_capacity {
            // Rotate: the filled `current` becomes `previous`, and the
            // old `previous` is emptied and reused as the new `current`.
            let shard = &mut *shard;
            std::mem::swap(&mut shard.current, &mut shard.previous);
            self.evictions
                .fetch_add(shard.current.len() as u64, Ordering::Relaxed);
            shard.current.clear();
        }
        value
    }
}

impl<K, V> std::fmt::Debug for SharedMemo<K, V> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SharedMemo")
            .field("capacity", &self.capacity())
            .field("hits", &self.hits())
            .field("misses", &self.misses())
            .field("inserts", &self.inserts())
            .field("evictions", &self.evictions())
            .finish()
    }
}

/// One estimator's private front for a [`SharedMemo`] (see the module
/// docs). The local map is cleared when it outgrows the shared capacity,
/// so a long-lived estimator cannot hoard entries without bound.
pub struct MemoFront<K, V> {
    shared: Arc<SharedMemo<K, V>>,
    local: Map<K, V>,
    hits: u64,
    misses: u64,
}

impl<K: MemoKey, V: Clone> MemoFront<K, V> {
    /// A front with an empty local map over `shared`.
    pub fn new(shared: Arc<SharedMemo<K, V>>) -> Self {
        MemoFront {
            shared,
            local: Map::default(),
            hits: 0,
            misses: 0,
        }
    }

    /// The value for `key`: the local map first (no lock), then one
    /// shared probe, whose find is kept locally. A disabled memo returns
    /// nothing and counts nothing.
    pub fn lookup(&mut self, key: &K) -> Option<V> {
        if self.shared.segment_capacity == 0 {
            return None;
        }
        if let Some(v) = self.local.get(key) {
            self.hits += 1;
            return Some(v.clone());
        }
        let found = self.shared.get(key);
        match &found {
            Some(v) => {
                self.hits += 1;
                self.keep(key.clone(), v.clone());
            }
            None => self.misses += 1,
        }
        found
    }

    /// Publishes a computed value: written through to the shared memo,
    /// where the first publication of a key wins, and the winning value
    /// kept locally.
    pub fn publish(&mut self, key: K, value: V) {
        if self.shared.segment_capacity == 0 {
            return;
        }
        let stored = self.shared.insert(key.clone(), value);
        self.keep(key, stored);
    }

    fn keep(&mut self, key: K, value: V) {
        if self.local.len() >= self.shared.capacity() {
            self.local.clear();
        }
        self.local.insert(key, value);
    }
}

impl<K, V> MemoFront<K, V> {
    /// Folds the local hit/miss tallies into the shared counters (atomic
    /// adds, no lock).
    pub fn flush(&mut self) {
        if self.hits > 0 {
            self.shared.hits.fetch_add(self.hits, Ordering::Relaxed);
        }
        if self.misses > 0 {
            self.shared.misses.fetch_add(self.misses, Ordering::Relaxed);
        }
        self.hits = 0;
        self.misses = 0;
    }
}

impl<K, V> Drop for MemoFront<K, V> {
    fn drop(&mut self) {
        self.flush();
    }
}

impl<K, V> std::fmt::Debug for MemoFront<K, V> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MemoFront")
            .field("local_len", &self.local.len())
            .field("hits", &self.hits)
            .field("misses", &self.misses)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A test key whose hash is its own value, so tests can place keys
    /// in chosen shards (the shard comes from the high half).
    #[derive(Clone, Debug, PartialEq, Eq)]
    struct Key(u64);

    impl Hash for Key {
        fn hash<H: Hasher>(&self, state: &mut H) {
            state.write_u64(self.0);
        }
    }

    impl MemoKey for Key {
        fn hash64(&self) -> u64 {
            self.0
        }
    }

    /// Key `i` of shard `shard`.
    fn key(shard: u64, i: u64) -> Key {
        Key((shard << 32) | i)
    }

    fn memo(capacity: usize) -> Arc<SharedMemo<Key, u64>> {
        Arc::new(SharedMemo::with_capacity(capacity))
    }

    #[test]
    fn rotation_bounds_capacity_and_counts_evictions() {
        // 64 entries: 4 per segment, two segments per shard.
        let shared = memo(64);
        assert_eq!(shared.capacity(), 64);
        let mut front = MemoFront::new(Arc::clone(&shared));
        for i in 0..20 {
            front.publish(key(3, i), i);
            assert!(shared.len() <= shared.capacity());
        }
        assert_eq!(shared.inserts(), 20);
        // Shard 3 rotated at its 4th, 8th, 12th, 16th and 20th insert;
        // each rotation after the first retired a full segment of 4.
        assert_eq!(shared.evictions(), 16);
        assert_eq!(shared.len(), 4, "only the last full segment is left");
        // Keys in the retained segment still serve; evicted ones do not.
        let mut other = MemoFront::new(Arc::clone(&shared));
        assert_eq!(other.lookup(&key(3, 19)), Some(19));
        assert_eq!(other.lookup(&key(3, 0)), None);
    }

    #[test]
    fn first_publication_wins_and_the_losing_insert_is_not_counted() {
        let shared = memo(64);
        let mut a = MemoFront::new(Arc::clone(&shared));
        let mut b = MemoFront::new(Arc::clone(&shared));
        a.publish(key(0, 1), 1);
        b.publish(key(0, 1), 9);
        assert_eq!(shared.inserts(), 1);
        // The loser adopts the stored value, like every other front.
        assert_eq!(b.lookup(&key(0, 1)), Some(1));
        assert_eq!(
            MemoFront::new(Arc::clone(&shared)).lookup(&key(0, 1)),
            Some(1)
        );
    }

    #[test]
    fn racing_publishes_of_one_key_store_one_value() {
        let shared = memo(64);
        let start = std::sync::Barrier::new(8);
        let seen: Vec<Option<u64>> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..8u64)
                .map(|t| {
                    let (shared, start) = (&shared, &start);
                    s.spawn(move || {
                        let mut front = MemoFront::new(Arc::clone(shared));
                        start.wait();
                        front.publish(key(2, 0), t);
                        front.lookup(&key(2, 0))
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        assert_eq!(shared.inserts(), 1);
        // Every front, winner or loser, serves the one stored value.
        assert!(seen[0].is_some());
        assert!(seen.iter().all(|v| *v == seen[0]), "{seen:?}");
    }

    #[test]
    fn zero_capacity_moves_no_counter() {
        let shared = memo(0);
        assert_eq!(shared.capacity(), 0);
        let mut front = MemoFront::new(Arc::clone(&shared));
        front.publish(key(0, 1), 1);
        assert_eq!(front.lookup(&key(0, 1)), None);
        front.flush();
        drop(front);
        assert_eq!(shared.len(), 0);
        assert_eq!(
            (
                shared.hits(),
                shared.misses(),
                shared.inserts(),
                shared.evictions()
            ),
            (0, 0, 0, 0)
        );
        assert_eq!(shared.hit_rate(), 0.0);
        // `len` above is the only shard access.
        assert_eq!(shared.lock_count(), SHARDS as u64);
    }

    #[test]
    fn a_value_published_through_one_front_is_served_by_another() {
        let shared = memo(64);
        let mut writer = MemoFront::new(Arc::clone(&shared));
        let mut reader = MemoFront::new(Arc::clone(&shared));
        assert_eq!(reader.lookup(&key(5, 7)), None);
        writer.publish(key(5, 7), 70);
        assert_eq!(reader.lookup(&key(5, 7)), Some(70));
        reader.flush();
        assert_eq!((shared.hits(), shared.misses()), (1, 1));
        // Tallies fold in on drop as well.
        assert_eq!(writer.lookup(&key(5, 7)), Some(70));
        drop(writer);
        assert_eq!(shared.hits(), 2);
        assert!((shared.hit_rate() - 2.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn warm_front_hits_take_zero_shared_locks() {
        let shared = memo(64);
        let mut front = MemoFront::new(Arc::clone(&shared));
        let mut other = MemoFront::new(Arc::clone(&shared));
        front.publish(key(1, 1), 10);
        // `other` keeps what its one shared probe found.
        assert_eq!(other.lookup(&key(1, 1)), Some(10));
        let locks = shared.lock_count();
        for _ in 0..100 {
            assert_eq!(front.lookup(&key(1, 1)), Some(10));
            assert_eq!(other.lookup(&key(1, 1)), Some(10));
        }
        front.flush();
        other.flush();
        assert_eq!(shared.lock_count(), locks, "warm hits must not lock");
        assert_eq!(shared.hits(), 201);
    }
}
