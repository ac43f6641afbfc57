//! Precomputed containment adjacency — the bitmap join kernel's lookup
//! structure.
//!
//! The path join's inner loop asks, per query edge, "which surviving
//! `(pid_u, pid_v)` pairs pass the §2 containment + tag-relationship
//! test?". With a [`relation_mask`] that is still an `O(|list_u| ·
//! |list_v|)` scan of multi-word bit operations, repeated on every
//! fixpoint pass of every query. But the answer per pair depends only on
//! `(pid_u, pid_v, tag_u, tag_v, axis-class)` and the summary — not on
//! the query — so a whole workload keeps re-deriving the same relation.
//!
//! A [`ContainmentAdjacency`] materializes that relation once per
//! `(tag_u, tag_v, child_axis)` key: for every interned pid it stores the
//! bitmap of compatible partner pids, in both directions. The join's
//! pruning step then becomes a word-parallel semi-join — "does this pid's
//! adjacency row intersect the surviving set on the other side?" —
//! instead of scanning all candidate pairs with 344-bit containment
//! tests.
//!
//! [`JoinIndexCache`] memoizes adjacencies per summary and counts builds
//! and build wall-time so the bench harness can report amortization
//! (`adjacency_build_ms` in the perf snapshot).

use std::collections::{HashMap, HashSet};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, OnceLock, PoisonError};
use std::time::{Duration, Instant};

use xpe_xml::TagId;

use crate::encoding::EncodingTable;
use crate::interner::{Pid, PidInterner};
use crate::rel::relation_mask;
use crate::slab::PidBitmapSlab;
use crate::words;

/// The full pid-containment relation of one interner, as bitmap rows.
///
/// Path ids are per-node-instance unions of root-to-leaf path encodings,
/// so the family is *not* laminar in general — two ids can overlap
/// without nesting (Figure 1's interner already does). What every
/// `(tag_u, tag_v, axis)` adjacency shares is the underlying subset
/// relation `pv ⊆ pu`, which depends only on the interner. Computing it
/// once per summary turns each per-key build from a quadratic pair scan
/// into a row copy plus a word-AND with that key's mask candidates.
///
/// Rows use the dense pid-index bitmap layout (LSB-first, like
/// [`ContainmentAdjacency::candidates`]): `set_words` words per pid, bit
/// `v` of forward row `u` set iff `pv ⊆ pu` (non-strict, so every
/// nonempty pid relates at least to itself). Empty ids get empty rows —
/// they fail every mask screen and contain nothing nonempty.
#[derive(Debug)]
pub struct PidContainmentRelation {
    /// Words per row (`pid_count.div_ceil(64)`).
    set_words: usize,
    /// Forward rows: bit `v` of row `u` set iff `pv ⊆ pu`.
    fwd_bits: Vec<u64>,
    /// Reverse rows: bit `u` of row `v` set iff `pv ⊆ pu`.
    rev_bits: Vec<u64>,
    /// Number of `(u, v)` pairs in the relation.
    pairs: usize,
}

impl PidContainmentRelation {
    /// Builds the relation over every row of `slab`: a screened quadratic
    /// loop — ascending-popcount prefix bound, word-support signature
    /// refutation, support-truncated subset walks — run once over the
    /// nonempty pids, so no per-key build ever tests containment.
    pub fn build(slab: &PidBitmapSlab) -> Self {
        let n = slab.rows();
        let set_words = n.div_ceil(64);
        let mut fwd_bits = vec![0u64; n * set_words];
        let mut rev_bits = vec![0u64; n * set_words];

        let ne: Vec<u32> = (0..n as u32)
            .filter(|&i| !words::is_empty(slab.row_words(i as usize)))
            .collect();
        let m = ne.len();
        let pc: Vec<u32> = ne
            .iter()
            .map(|&i| words::count_ones(slab.row_words(i as usize)))
            .collect();
        let sig: Vec<u64> = ne
            .iter()
            .map(|&i| words::support_signature(slab.row_words(i as usize)))
            .collect();

        // Candidates in ascending-popcount order with popcounts,
        // signatures, and dense indices permuted alongside: `pv ⊆ pu`
        // forces `pc(v) ≤ pc(u)`, so each u examines only the sorted
        // prefix and the popcount screen degenerates into the loop bound.
        let mut order: Vec<u32> = (0..m as u32).collect();
        order.sort_unstable_by_key(|&r| pc[r as usize]);
        let spc: Vec<u32> = order.iter().map(|&r| pc[r as usize]).collect();
        let ssig: Vec<u64> = order.iter().map(|&r| sig[r as usize]).collect();
        let sidx: Vec<u32> = order.iter().map(|&r| ne[r as usize]).collect();

        // The signature aliases word `j` to bit `j % 64`, so its top bit
        // only bounds a row's true support when rows fit in 64 words;
        // wider rows must walk their full width or any word at index
        // ≥ 64 would be silently ignored, admitting false pairs.
        let full = slab.words_per_row();
        let sig_exact = full <= 64;

        let mut pairs = 0usize;
        for (r, &u32_) in ne.iter().enumerate() {
            let u = u32_ as usize;
            let wu = slab.row_words(u);
            let (pc_u, sig_u) = (pc[r], sig[r]);
            for k in 0..m {
                if spc[k] > pc_u {
                    break;
                }
                if ssig[k] & !sig_u != 0 {
                    continue;
                }
                // Words past v's highest nonzero word are zero and subset
                // anything, so the multi-word walk stops at v's support —
                // when the signature is exact about where that support ends.
                let lv = if sig_exact {
                    64 - ssig[k].leading_zeros() as usize
                } else {
                    full
                };
                let v = sidx[k] as usize;
                if words::is_subset(&slab.row_words(v)[..lv], &wu[..lv]) {
                    words::set_bit(&mut fwd_bits[u * set_words..(u + 1) * set_words], v);
                    words::set_bit(&mut rev_bits[v * set_words..(v + 1) * set_words], u);
                    pairs += 1;
                }
            }
        }
        Self {
            set_words,
            fwd_bits,
            rev_bits,
            pairs,
        }
    }

    /// Words per row (`pid_count.div_ceil(64)`).
    #[inline]
    pub fn set_words(&self) -> usize {
        self.set_words
    }

    /// Bitmap of pids contained in pid index `u` (its descendants-or-self).
    #[inline]
    pub fn forward_row(&self, u: usize) -> &[u64] {
        &self.fwd_bits[u * self.set_words..(u + 1) * self.set_words]
    }

    /// Bitmap of pids containing pid index `v` (its ancestors-or-self).
    #[inline]
    pub fn reverse_row(&self, v: usize) -> &[u64] {
        &self.rev_bits[v * self.set_words..(v + 1) * self.set_words]
    }

    /// Number of `(pu, pv)` pairs with `pv ⊆ pu`, both nonempty.
    #[inline]
    pub fn pair_count(&self) -> usize {
        self.pairs
    }
}

/// The compatible-pair relation of one `(tag_u, tag_v, child_axis)` key,
/// stored as forward (`pid_u → pid_v`) and reverse (`pid_v → pid_u`)
/// bitmap rows over the interner's dense pid indices.
///
/// `(pu, pv)` is in the relation iff
/// [`axis_compatible_masked`](crate::axis_compatible_masked) holds for the
/// key's relation mask — the index never changes which pairs pass, only
/// how fast the question is answered.
#[derive(Debug)]
pub struct ContainmentAdjacency {
    /// Candidate bitmap over dense pid indices (LSB-first index layout):
    /// bit `i` set iff pid `i` survives the relation-mask screen.
    /// Containment-or-equality is reflexive, so every screened-in pid
    /// pairs at least with itself — the candidates are *exactly* the pids
    /// with nonempty rows, on both sides.
    cand: Vec<u64>,
    /// Words per pid-index bitmap (`pid_count.div_ceil(64)`).
    set_words: usize,
    /// Dense pid index → row in `fwd_bits`/`rev_bits`; `u32::MAX` when
    /// the pid was screened out (its row is empty).
    row_of: Vec<u32>,
    /// Forward rows: `set_words` words per candidate, bit `v` of the row
    /// of `u` set iff `(u, v)` is in the relation.
    fwd_bits: Vec<u64>,
    /// Reverse rows: bit `u` of the row of `v` set iff `(u, v)` is in
    /// the relation.
    rev_bits: Vec<u64>,
    /// Number of `(u, v)` pairs in the relation.
    pairs: usize,
}

impl ContainmentAdjacency {
    /// Materializes the relation for `(tag_u, tag_v, child_axis)` over
    /// every interned pid. `O(#pids² × id words)` once, versus the same
    /// cost *per query edge* for the scan it replaces.
    pub fn build(
        encoding: &EncodingTable,
        pids: &PidInterner,
        tag_u: TagId,
        tag_v: TagId,
        child_axis: bool,
    ) -> Self {
        let slab = PidBitmapSlab::from_interner(pids);
        let relation = PidContainmentRelation::build(&slab);
        Self::build_with_layout(encoding, pids, &slab, &relation, tag_u, tag_v, child_axis)
    }

    /// [`build`](Self::build) against a prebuilt slab *and* containment
    /// relation, so a cache amortizes both across every `(tag_u, tag_v,
    /// axis)` key of a summary. With the subset relation precomputed the
    /// fill is a row copy and a word-AND per mask survivor: `(pu, pv)` is
    /// compatible iff `pv ⊆ pu` **and** `pv ∩ mask ≠ ∅`, so each
    /// adjacency row is the relation row masked by the key's candidate
    /// bitmap. No containment test runs at all.
    pub fn build_with_layout(
        encoding: &EncodingTable,
        pids: &PidInterner,
        slab: &PidBitmapSlab,
        relation: &PidContainmentRelation,
        tag_u: TagId,
        tag_v: TagId,
        child_axis: bool,
    ) -> Self {
        debug_assert_eq!(slab.rows(), pids.len(), "slab/interner mismatch");
        debug_assert_eq!(relation.set_words(), pids.len().div_ceil(64));
        let mask = relation_mask(encoding, tag_u, tag_v, child_axis);
        let mask_words = mask.words();
        let n = pids.len();
        let set_words = n.div_ceil(64);

        // A compatible pair needs `pv ∩ mask ≠ ∅`, and `pu ⊇ pv` then
        // forces `pu ∩ mask ≠ ∅` as well — so only pids intersecting the
        // mask can appear on *either* side.
        let ok: Vec<usize> = (0..n)
            .filter(|&i| words::intersects(slab.row_words(i), mask_words))
            .collect();
        let m = ok.len();
        let mut cand = vec![0u64; set_words];
        let mut row_of = vec![u32::MAX; n];
        for (r, &i) in ok.iter().enumerate() {
            words::set_bit(&mut cand, i);
            row_of[i] = r as u32;
        }

        // Forward row of a survivor `u` is `relation.forward_row(u) ∩
        // cand`: the AND removes descendants that fail the mask. The
        // reverse AND is a no-op by the screen argument (every superset
        // of a survivor intersects the mask too) but keeps the two fills
        // uniform.
        let mut fwd_bits = vec![0u64; m * set_words];
        let mut rev_bits = vec![0u64; m * set_words];
        let mut pairs = 0;
        for (r, &i) in ok.iter().enumerate() {
            let frow = &mut fwd_bits[r * set_words..(r + 1) * set_words];
            frow.copy_from_slice(relation.forward_row(i));
            words::and_assign(frow, &cand);
            pairs += words::count_ones(frow) as usize;

            let rrow = &mut rev_bits[r * set_words..(r + 1) * set_words];
            rrow.copy_from_slice(relation.reverse_row(i));
            words::and_assign(rrow, &cand);
        }

        ContainmentAdjacency {
            cand,
            set_words,
            row_of,
            fwd_bits,
            rev_bits,
            pairs,
        }
    }

    /// Candidate bitmap over dense pid indices (LSB-first index layout,
    /// [`set_words`](Self::set_words) words): bit `i` set iff pid `i`
    /// has a nonempty row — on either side, the sets coincide by
    /// reflexivity. The bitmap kernel ANDs this into its surviving sets
    /// so "which pids can pass this edge" is word-parallel.
    #[inline]
    pub fn candidates(&self) -> &[u64] {
        &self.cand
    }

    /// Words per pid-index bitmap row (`pid_count.div_ceil(64)`).
    #[inline]
    pub fn set_words(&self) -> usize {
        self.set_words
    }

    /// Bitmap of pids compatible as the descendant side of `pid_u`, or
    /// `None` when `pid_u` was screened out (its row is empty).
    #[inline]
    pub fn forward_bits(&self, pid_u: Pid) -> Option<&[u64]> {
        let r = self.row_of[pid_u.index()] as usize;
        (r != u32::MAX as usize)
            .then(|| &self.fwd_bits[r * self.set_words..(r + 1) * self.set_words])
    }

    /// Bitmap of pids compatible as the ancestor side of `pid_v`, or
    /// `None` when `pid_v` was screened out.
    #[inline]
    pub fn reverse_bits(&self, pid_v: Pid) -> Option<&[u64]> {
        let r = self.row_of[pid_v.index()] as usize;
        (r != u32::MAX as usize)
            .then(|| &self.rev_bits[r * self.set_words..(r + 1) * self.set_words])
    }

    /// Number of compatible pairs in the relation.
    pub fn pair_count(&self) -> usize {
        self.pairs
    }

    /// Number of pids the index covers (the interner size at build time).
    pub fn pid_count(&self) -> usize {
        self.row_of.len()
    }
}

/// Pass-through hasher for packed-`u64` cache keys: one odd-constant
/// multiply (Fibonacci hashing) spreads the packed low bits across the
/// word, replacing SipHash's per-byte rounds on every cache probe. The
/// keys are injective per map (see the packing at each call site), so
/// equality still compares full keys — the hash only has to scatter,
/// never to disambiguate.
#[derive(Debug, Default)]
struct PackedKeyHasher(u64);

impl std::hash::Hasher for PackedKeyHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, _bytes: &[u8]) {
        unreachable!("packed cache keys hash through write_u64 only")
    }

    fn write_u64(&mut self, key: u64) {
        self.0 = key.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    }
}

/// A map keyed by pre-packed `u64`s through [`PackedKeyHasher`].
type PackedMap<V> = HashMap<u64, V, std::hash::BuildHasherDefault<PackedKeyHasher>>;

/// Every adjacency and seed bitmap published so far.
#[derive(Debug, Default)]
struct IndexMaps {
    /// Adjacencies keyed by `(tag_u << 32) | tag_v`, one map per axis
    /// (index 1 = child) — splitting on the axis keeps the packed key
    /// injective for every representable tag index.
    adjacencies: [PackedMap<Arc<ContainmentAdjacency>>; 2],
    /// Seed bitmaps keyed by `(tag << 1) | rooted`.
    seeds: PackedMap<Arc<Vec<u64>>>,
}

fn adjacency_key(tag_u: TagId, tag_v: TagId) -> u64 {
    ((tag_u.index() as u64) << 32) | tag_v.index() as u64
}

fn seed_key(tag: TagId, rooted: bool) -> u64 {
    ((tag.index() as u64) << 1) | u64::from(rooted)
}

/// Memo table over [`ContainmentAdjacency::build`] keyed by `(tag_u,
/// tag_v, child_axis)`, plus the join's seed bitmaps keyed by `(tag,
/// rooted)`.
///
/// One mutex guards the maps, which are updated in place; estimators
/// mirror what they read into their own flat tables, so warm joins never
/// come back here. A miss builds *outside* that mutex. A per-key
/// in-flight claim keeps same-key cold misses from duplicating work: the
/// first worker claims the key and builds, racers wait on a condvar and
/// then read the published entry, and misses on *different* keys still
/// build fully in parallel. Publication never replaces an entry, so
/// every caller of one key gets the same `Arc`. A build that panics
/// releases its claim, and a waiter then builds the key itself.
/// Builds are pure functions of the key and the (immutable) summary
/// structures, so every reader observes the same rows. Build count,
/// build attempts, cumulative build time, pair totals, and mutex
/// acquisitions are tracked for the perf snapshot.
#[derive(Debug, Default)]
pub struct JoinIndexCache {
    maps: Mutex<IndexMaps>,
    /// Arena layout of the summary's interner, built on first use and
    /// shared by every adjacency build (the cache is per-summary, like
    /// the adjacencies themselves).
    slab: OnceLock<Arc<PidBitmapSlab>>,
    /// Containment relation over the slab rows, built on first use and
    /// shared by every adjacency build.
    relation: OnceLock<Arc<PidContainmentRelation>>,
    builds: AtomicU64,
    build_nanos: AtomicU64,
    pairs: AtomicU64,
    locks: AtomicU64,
    /// Keys (adjacency or seed) whose build is currently running. A cold
    /// miss claims its key here before building; racing workers on the
    /// *same* key wait on [`inflight_cv`](Self::inflight_cv) and then
    /// re-probe instead of duplicating the build. Different keys still
    /// build fully in parallel.
    inflight: Mutex<HashSet<(u8, u64)>>,
    /// Wakes same-key waiters when a claim is released (publish or
    /// panic — the claim is a drop guard).
    inflight_cv: Condvar,
    /// Adjacency builds *started* (claimed and run), published or not.
    /// With the in-flight guard this equals [`builds`](Self::builds)
    /// in the absence of builder panics; the serving regression tests
    /// assert exactly that.
    build_attempts: AtomicU64,
}

/// Ownership of one in-flight build key. Dropping it — on publish *or*
/// on a panicking build unwinding through the claim scope — removes the
/// key and wakes every same-key waiter, so a dead builder can never
/// strand them.
struct InflightClaim<'a> {
    cache: &'a JoinIndexCache,
    key: (u8, u64),
}

impl Drop for InflightClaim<'_> {
    fn drop(&mut self) {
        let mut set = self
            .cache
            .inflight
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        set.remove(&self.key);
        drop(set);
        self.cache.inflight_cv.notify_all();
    }
}

impl JoinIndexCache {
    /// Creates an empty cache.
    pub fn new() -> Self {
        Self::default()
    }

    fn lock_maps(&self) -> MutexGuard<'_, IndexMaps> {
        self.locks.fetch_add(1, Ordering::Relaxed);
        self.maps.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Tries to claim an in-flight key; `None` means another worker is
    /// already building it.
    fn try_claim(&self, key: (u8, u64)) -> Option<InflightClaim<'_>> {
        let mut set = self.inflight.lock().unwrap_or_else(PoisonError::into_inner);
        // `then`, not `then_some`: the guard's constructor must stay
        // lazy. An eagerly built claim would be dropped right here on
        // the `false` path — deadlocking on the lock this function
        // already holds and erasing the real builder's claim.
        set.insert(key).then(|| InflightClaim { cache: self, key })
    }

    /// Blocks until `key`'s current builder releases its claim (or a
    /// short timeout elapses, bounding any missed-wakeup window). The
    /// caller re-probes the maps afterwards.
    fn wait_inflight(&self, key: (u8, u64)) {
        let set = self.inflight.lock().unwrap_or_else(PoisonError::into_inner);
        if set.contains(&key) {
            let _ = self
                .inflight_cv
                .wait_timeout(set, Duration::from_millis(50))
                .unwrap_or_else(PoisonError::into_inner);
        }
    }

    /// The entry `probe` finds, or — once this caller holds the in-flight
    /// claim on `claim_key` and a re-probe still misses — the entry
    /// `build_and_publish` stores. Same-key callers wait for the claim
    /// holder instead of duplicating its build; other keys proceed in
    /// parallel.
    fn memoize<T>(
        &self,
        claim_key: (u8, u64),
        probe: impl Fn() -> Option<Arc<T>>,
        build_and_publish: impl FnOnce() -> Arc<T>,
    ) -> Arc<T> {
        loop {
            if let Some(v) = probe() {
                return v;
            }
            let Some(_claim) = self.try_claim(claim_key) else {
                // Another worker is building this key right now: wait
                // for its publication instead of duplicating the work,
                // then re-probe.
                self.wait_inflight(claim_key);
                continue;
            };
            // Claimed. Re-probe once — the previous holder may have
            // published between our probe and our claim.
            if let Some(v) = probe() {
                return v;
            }
            return build_and_publish();
        }
    }

    /// The adjacency for `(tag_u, tag_v, child_axis)`, building and
    /// publishing it on first use. Concurrent cold calls on the same key
    /// coalesce into one build; other keys build in parallel.
    pub fn get(
        &self,
        encoding: &EncodingTable,
        pids: &PidInterner,
        tag_u: TagId,
        tag_v: TagId,
        child_axis: bool,
    ) -> Arc<ContainmentAdjacency> {
        let (axis, key) = (usize::from(child_axis), adjacency_key(tag_u, tag_v));
        self.memoize(
            (axis as u8, key),
            || self.lock_maps().adjacencies[axis].get(&key).cloned(),
            || {
                // Resolve the shared layout first: the OnceLocks
                // serialize their own (expensive, once-per-summary)
                // builds.
                let slab = self.slab(pids);
                let relation = self.relation(pids);
                // Build outside the maps mutex, so a long adjacency
                // build never convoys other workers' probes.
                self.build_attempts.fetch_add(1, Ordering::Relaxed);
                let t0 = Instant::now();
                let built = Arc::new(ContainmentAdjacency::build_with_layout(
                    encoding, pids, &slab, &relation, tag_u, tag_v, child_axis,
                ));
                let build_nanos = t0.elapsed().as_nanos() as u64;
                let mut maps = self.lock_maps();
                let stored = maps.adjacencies[axis].entry(key).or_insert_with(|| {
                    self.builds.fetch_add(1, Ordering::Relaxed);
                    self.build_nanos.fetch_add(build_nanos, Ordering::Relaxed);
                    self.pairs
                        .fetch_add(built.pair_count() as u64, Ordering::Relaxed);
                    built
                });
                Arc::clone(stored)
            },
        )
    }

    /// The memoized arena layout of `pids`, building it on first use.
    /// Callers must always pass the same interner (the cache is
    /// per-summary); the first call fixes the layout.
    pub fn slab(&self, pids: &PidInterner) -> Arc<PidBitmapSlab> {
        Arc::clone(
            self.slab
                .get_or_init(|| Arc::new(PidBitmapSlab::from_interner(pids))),
        )
    }

    /// The memoized containment relation of `pids`, building it (and the
    /// slab, if cold) on first use.
    pub fn relation(&self, pids: &PidInterner) -> Arc<PidContainmentRelation> {
        if let Some(r) = self.relation.get() {
            return Arc::clone(r);
        }
        let slab = self.slab(pids);
        Arc::clone(
            self.relation
                .get_or_init(|| Arc::new(PidContainmentRelation::build(&slab))),
        )
    }

    /// The memoized seed bitmap for `(tag, rooted)`, running `build` on
    /// first use. The build runs outside the maps mutex; the per-key
    /// in-flight guard coalesces concurrent cold calls (a waiter whose
    /// builder panicked re-runs `build`, so the closure may run more
    /// than once across failures — never concurrently for one key).
    pub fn seed_bitmap(
        &self,
        tag: TagId,
        rooted: bool,
        build: impl Fn() -> Vec<u64>,
    ) -> Arc<Vec<u64>> {
        // Namespace 2 keeps seed claims disjoint from adjacency claims
        // (which use the axis bit, 0/1).
        let key = seed_key(tag, rooted);
        self.memoize(
            (2, key),
            || self.lock_maps().seeds.get(&key).cloned(),
            || {
                // Built outside the maps mutex, as in [`get`](Self::get).
                let built = Arc::new(build());
                Arc::clone(self.lock_maps().seeds.entry(key).or_insert(built))
            },
        )
    }

    /// Number of published adjacencies.
    pub fn len(&self) -> usize {
        self.lock_maps().adjacencies.iter().map(HashMap::len).sum()
    }

    /// Whether no adjacency has been built yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Total *published* builds. A build that loses a same-key publish
    /// race is discarded without counting, so this equals
    /// [`len`](Self::len).
    pub fn builds(&self) -> u64 {
        self.builds.load(Ordering::Relaxed)
    }

    /// Total adjacency builds *started*. The per-key in-flight guard
    /// coalesces same-key cold misses, so this equals
    /// [`builds`](Self::builds) unless a builder panicked mid-build (its
    /// claim is released and a waiter retries) — the regression tests
    /// for duplicate cold builds assert the equality.
    pub fn build_attempts(&self) -> u64 {
        self.build_attempts.load(Ordering::Relaxed)
    }

    /// Cumulative wall-clock milliseconds spent building adjacencies.
    pub fn build_ms(&self) -> f64 {
        self.build_nanos.load(Ordering::Relaxed) as f64 / 1e6
    }

    /// Total compatible pairs across every build.
    pub fn pair_total(&self) -> u64 {
        self.pairs.load(Ordering::Relaxed)
    }

    /// Number of maps-mutex acquisitions so far: probes, cold builds, and
    /// introspection ([`len`](Self::len)) all count. Warm joins served
    /// from per-estimator memos must not move this — `kernel_stats()`
    /// surfaces the sum so tests can assert exactly that.
    pub fn lock_count(&self) -> u64 {
        self.locks.load(Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::label::Labeling;
    use crate::rel::axis_compatible_masked;

    /// Whether `(pu, pv)` is in the adjacency, read from both row sides
    /// (which must agree).
    fn related(adj: &ContainmentAdjacency, pu: Pid, pv: Pid) -> bool {
        let fwd = adj
            .forward_bits(pu)
            .is_some_and(|r| words::test_bit(r, pv.index()));
        let rev = adj
            .reverse_bits(pv)
            .is_some_and(|r| words::test_bit(r, pu.index()));
        assert_eq!(
            fwd, rev,
            "forward and reverse rows disagree on {pu:?}->{pv:?}"
        );
        fwd
    }

    #[test]
    fn adjacency_rows_match_masked_test() {
        let doc = xpe_xml::fixtures::paper_figure1();
        let lab = Labeling::compute(&doc);
        let tags: Vec<TagId> = doc.tags().iter().map(|(t, _)| t).collect();
        for &tu in &tags {
            for &tv in &tags {
                for child in [true, false] {
                    let adj =
                        ContainmentAdjacency::build(&lab.encoding, &lab.interner, tu, tv, child);
                    let mask = relation_mask(&lab.encoding, tu, tv, child);
                    let mut pairs = 0;
                    for (pu, _) in lab.interner.iter() {
                        for (pv, _) in lab.interner.iter() {
                            let expected = axis_compatible_masked(&lab.interner, pu, pv, &mask);
                            assert_eq!(
                                related(&adj, pu, pv),
                                expected,
                                "{tu:?}/{tv:?} child={child} {pu:?}->{pv:?}"
                            );
                            pairs += usize::from(expected);
                        }
                    }
                    assert_eq!(adj.pair_count(), pairs);
                    assert_eq!(adj.pid_count(), lab.interner.len());
                }
            }
        }
    }

    #[test]
    fn candidates_are_exactly_the_nonempty_rows() {
        let doc = xpe_xml::fixtures::paper_figure1();
        let lab = Labeling::compute(&doc);
        let tags: Vec<TagId> = doc.tags().iter().map(|(t, _)| t).collect();
        for &tu in &tags {
            for &tv in &tags {
                for child in [true, false] {
                    let adj =
                        ContainmentAdjacency::build(&lab.encoding, &lab.interner, tu, tv, child);
                    assert_eq!(adj.set_words(), lab.interner.len().div_ceil(64));
                    for (p, _) in lab.interner.iter() {
                        // Reflexivity makes the candidates exactly the
                        // pids with nonempty rows, on both sides.
                        let is_cand = words::test_bit(adj.candidates(), p.index());
                        for row in [adj.forward_bits(p), adj.reverse_bits(p)] {
                            assert_eq!(row.is_some(), is_cand);
                            assert!(row.map_or(true, |r| !words::is_empty(r)));
                        }
                    }
                }
            }
        }
    }

    /// Real documents' path ids overlap without nesting (each id is a
    /// per-instance union of leaf-path encodings), so the relation must
    /// handle arbitrary bit-set families exactly — no laminarity
    /// assumption anywhere. Hand-build an overlapping family and check
    /// the fill against the §2 predicate directly.
    #[test]
    fn overlapping_unnested_ids_are_exact() {
        use crate::bits::PathIdBits;
        use crate::interner::PidInterner;

        // Overlap without containment: {1,2} and {2,3} over three paths.
        let mut tags = xpe_xml::TagInterner::new();
        let a = tags.intern("a");
        let b = tags.intern("b");
        let mut encoding = EncodingTable::new();
        encoding.intern(&[a, b]);
        encoding.intern(&[a, b, b]);
        encoding.intern(&[a]);
        let width = encoding.len() as u32;
        let mut pids = PidInterner::new(width);
        for bits in [&[1u32, 2][..], &[2, 3], &[1, 2, 3]] {
            let mut id = PathIdBits::zero(width);
            for &p in bits {
                id.set(p);
            }
            pids.intern(id);
        }
        let slab = PidBitmapSlab::from_interner(&pids);
        let relation = PidContainmentRelation::build(&slab);
        // {1,2} ⊆ {1,2,3}, {2,3} ⊆ {1,2,3}, plus the three reflexive
        // pairs; the overlapping pair {1,2} vs {2,3} nests neither way.
        assert_eq!(relation.pair_count(), 5);

        for child in [true, false] {
            let adj = ContainmentAdjacency::build_with_layout(
                &encoding, &pids, &slab, &relation, a, b, child,
            );
            let mask = relation_mask(&encoding, a, b, child);
            for (pu, _) in pids.iter() {
                for (pv, _) in pids.iter() {
                    assert_eq!(
                        related(&adj, pu, pv),
                        axis_compatible_masked(&pids, pu, pv, &mask),
                        "{pu:?}->{pv:?} child={child}"
                    );
                }
            }
        }
    }

    /// Interners wider than 64 words alias the support signature (word
    /// `j` → bit `j % 64`), so the subset walk must not truncate rows to
    /// the aliased support. Regression: a 65-word interner with ids
    /// {1,2} and {1,4099} used to report a bogus {1,2} ⊇ {1,4099} pair
    /// (pair_count 3 instead of 2) in every builder that took the
    /// truncated fast path.
    #[test]
    fn wide_interner_relation_is_exact() {
        use crate::bits::PathIdBits;
        use crate::interner::PidInterner;

        let width = 4160u32; // 65 words — one past the signature's reach
        let mut pids = PidInterner::new(width);
        for bits in [
            &[1u32, 2][..],
            &[1, 4099],
            &[4099],
            &[2, 4099, 4100],
            &[1, 2, 4099, 4100],
            &[65, 4160],
        ] {
            let mut id = PathIdBits::zero(width);
            for &p in bits {
                id.set(p);
            }
            pids.intern(id);
        }
        let slab = PidBitmapSlab::from_interner(&pids);
        let relation = PidContainmentRelation::build(&slab);
        let mut pairs = 0;
        for (pu, bu) in pids.iter() {
            for (pv, bv) in pids.iter() {
                let expected = bu.contains_or_equal(bv);
                assert_eq!(
                    words::test_bit(relation.forward_row(pu.index()), pv.index()),
                    expected,
                    "fwd {pu:?} ⊇ {pv:?}"
                );
                assert_eq!(
                    words::test_bit(relation.reverse_row(pv.index()), pu.index()),
                    expected,
                    "rev {pu:?} ⊇ {pv:?}"
                );
                pairs += usize::from(expected);
            }
        }
        assert_eq!(relation.pair_count(), pairs);

        // The reviewer's minimal counterexample, verbatim.
        let mut two = PidInterner::new(width);
        for bits in [&[1u32, 2][..], &[1, 4099]] {
            let mut id = PathIdBits::zero(width);
            for &p in bits {
                id.set(p);
            }
            two.intern(id);
        }
        let rel = PidContainmentRelation::build(&PidBitmapSlab::from_interner(&two));
        assert_eq!(rel.pair_count(), 2, "only the two reflexive pairs");
    }

    /// The masked adjacency fill stays exact past 64 words of interner
    /// width — the same regression as `wide_interner_relation_is_exact`,
    /// checked through the per-key rows.
    #[test]
    fn wide_interner_adjacency_matches_masked_test() {
        use crate::bits::PathIdBits;
        use crate::interner::PidInterner;

        // 4160 distinct paths via binary strings over two tags: enough
        // encodings that high pid words are real, cheap to intern.
        let mut tags = xpe_xml::TagInterner::new();
        let r = tags.intern("r");
        let a = tags.intern("a");
        let b = tags.intern("b");
        let mut encoding = EncodingTable::new();
        for i in 0..4160u32 {
            let mut path = vec![r];
            for bit in 0..13 {
                path.push(if i >> bit & 1 == 1 { a } else { b });
            }
            encoding.intern(&path);
        }
        let width = encoding.len() as u32;
        assert!(width > 4096);

        let mut pids = PidInterner::new(width);
        for bits in [
            &[1u32, 2][..],
            &[1, 4099],
            &[4099],
            &[2, 4099, 4100],
            &[1, 2, 4099, 4100],
            &[65, 126, 4160],
        ] {
            let mut id = PathIdBits::zero(width);
            for &p in bits {
                id.set(p);
            }
            pids.intern(id);
        }
        let slab = PidBitmapSlab::from_interner(&pids);
        let relation = PidContainmentRelation::build(&slab);
        for child in [true, false] {
            let adj = ContainmentAdjacency::build_with_layout(
                &encoding, &pids, &slab, &relation, r, a, child,
            );
            let mask = relation_mask(&encoding, r, a, child);
            let mut pairs = 0;
            for (pu, _) in pids.iter() {
                for (pv, _) in pids.iter() {
                    let expected = axis_compatible_masked(&pids, pu, pv, &mask);
                    assert_eq!(
                        related(&adj, pu, pv),
                        expected,
                        "{pu:?}->{pv:?} child={child}"
                    );
                    pairs += usize::from(expected);
                }
            }
            assert_eq!(adj.pair_count(), pairs);
        }
    }

    #[test]
    fn seed_bitmaps_memoize() {
        let doc = xpe_xml::fixtures::paper_figure1();
        let lab = Labeling::compute(&doc);
        let tags: Vec<TagId> = doc.tags().iter().map(|(t, _)| t).collect();
        let cache = JoinIndexCache::new();
        let s1 = cache.seed_bitmap(tags[0], true, || vec![0b101]);
        let s2 = cache.seed_bitmap(tags[0], true, || panic!("memo must hit"));
        assert!(Arc::ptr_eq(&s1, &s2));
        assert_eq!(*s1, vec![0b101]);
        let s3 = cache.seed_bitmap(tags[0], false, || vec![0b11]);
        assert_eq!(*s3, vec![0b11]);
        let slab1 = cache.slab(&lab.interner);
        let slab2 = cache.slab(&lab.interner);
        assert!(Arc::ptr_eq(&slab1, &slab2));
        assert_eq!(slab1.rows(), lab.interner.len());
    }

    #[test]
    fn cache_memoizes_and_counts() {
        let doc = xpe_xml::fixtures::paper_figure1();
        let lab = Labeling::compute(&doc);
        let cache = JoinIndexCache::new();
        assert!(cache.is_empty());
        let tags: Vec<TagId> = doc.tags().iter().map(|(t, _)| t).collect();
        let a1 = cache.get(&lab.encoding, &lab.interner, tags[0], tags[1], true);
        let a2 = cache.get(&lab.encoding, &lab.interner, tags[0], tags[1], true);
        assert!(Arc::ptr_eq(&a1, &a2), "second lookup hits the memo");
        assert_eq!(cache.len(), 1);
        assert_eq!(cache.builds(), 1);
        assert_eq!(cache.pair_total(), a1.pair_count() as u64);
        cache.get(&lab.encoding, &lab.interner, tags[1], tags[0], false);
        assert_eq!(cache.len(), 2);
        assert_eq!(cache.builds(), 2);
    }

    #[test]
    fn cache_is_shareable_across_threads() {
        let doc = xpe_xml::fixtures::paper_figure1();
        let lab = Labeling::compute(&doc);
        let cache = Arc::new(JoinIndexCache::new());
        let tags: Vec<TagId> = doc.tags().iter().map(|(t, _)| t).collect();
        std::thread::scope(|s| {
            for _ in 0..4 {
                s.spawn(|| {
                    for &tu in &tags {
                        for &tv in &tags {
                            let a = cache.get(&lab.encoding, &lab.interner, tu, tv, true);
                            assert_eq!(a.pid_count(), lab.interner.len());
                        }
                    }
                });
            }
        });
        assert_eq!(cache.len(), tags.len() * tags.len());
        // Every cold miss either built or waited for the builder; the
        // in-flight guard means no key was ever built twice.
        assert_eq!(cache.build_attempts(), cache.builds());
    }

    #[test]
    fn same_key_cold_race_coalesces_into_one_build() {
        let doc = xpe_xml::fixtures::paper_figure1();
        let lab = Labeling::compute(&doc);
        let tags: Vec<TagId> = doc.tags().iter().map(|(t, _)| t).collect();
        // Many rounds: each uses a fresh cache and races 8 threads on a
        // single cold key, the historically racy shape.
        for round in 0..20 {
            let cache = JoinIndexCache::new();
            let built: Vec<Arc<ContainmentAdjacency>> = std::thread::scope(|s| {
                let handles: Vec<_> = (0..8)
                    .map(|_| {
                        s.spawn(|| cache.get(&lab.encoding, &lab.interner, tags[0], tags[1], true))
                    })
                    .collect();
                handles.into_iter().map(|h| h.join().unwrap()).collect()
            });
            // Exactly one build ran; every thread got the published Arc.
            assert_eq!(cache.build_attempts(), 1, "round {round}");
            assert_eq!(cache.builds(), 1, "round {round}");
            for a in &built {
                assert!(Arc::ptr_eq(a, &built[0]), "round {round}");
            }
        }
    }

    #[test]
    fn same_key_seed_race_runs_the_closure_once() {
        use std::sync::atomic::AtomicU64;
        let doc = xpe_xml::fixtures::paper_figure1();
        let tags: Vec<TagId> = doc.tags().iter().map(|(t, _)| t).collect();
        for round in 0..20 {
            let cache = JoinIndexCache::new();
            let calls = AtomicU64::new(0);
            let seeds: Vec<Arc<Vec<u64>>> = std::thread::scope(|s| {
                let handles: Vec<_> = (0..8)
                    .map(|_| {
                        s.spawn(|| {
                            cache.seed_bitmap(tags[0], true, || {
                                calls.fetch_add(1, Ordering::Relaxed);
                                // Widen the race window a little.
                                std::thread::yield_now();
                                vec![0b1011]
                            })
                        })
                    })
                    .collect();
                handles.into_iter().map(|h| h.join().unwrap()).collect()
            });
            assert_eq!(calls.load(Ordering::Relaxed), 1, "round {round}");
            for sdw in &seeds {
                assert!(Arc::ptr_eq(sdw, &seeds[0]), "round {round}");
            }
        }
    }

    #[test]
    fn panicking_builder_releases_the_claim_for_waiters() {
        let doc = xpe_xml::fixtures::paper_figure1();
        let tags: Vec<TagId> = doc.tags().iter().map(|(t, _)| t).collect();
        let cache = JoinIndexCache::new();
        // First builder panics inside the seed closure; its claim must
        // drop so a later caller can build the key instead of hanging.
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(|_| {}));
        let died = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            cache.seed_bitmap(tags[0], true, || panic!("builder dies"))
        }));
        std::panic::set_hook(prev);
        assert!(died.is_err());
        let s = cache.seed_bitmap(tags[0], true, || vec![0b1]);
        assert_eq!(*s, vec![0b1]);
    }
}
