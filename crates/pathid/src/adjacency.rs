//! Containment adjacency — the bitmap join kernel's lookup structure.
//!
//! The path join's inner loop asks, per query edge, "which surviving
//! `(pid_u, pid_v)` pairs pass the §2 containment + tag-relationship
//! test?" — `pv ⊆ pu` and `pv ∩ mask ≠ ∅` for the edge's
//! [`relation_mask`]. The answer depends only on the summary and the key
//! `(tag_u, tag_v, child_axis)`, never on the query, and it splits in two:
//!
//! * the subset relation `pv ⊆ pu` depends only on the interner, so one
//!   [`PidContainmentRelation`] per summary answers it for every key. It
//!   keeps one pid bitmap per path (an inverted list: the pids whose id
//!   holds that path) and builds each pid's row of ancestors-or-self as
//!   the AND of its paths' lists;
//! * the mask test reads only `pv`, and every superset of a pid that
//!   passes it passes too, so a key adds just a candidate bitmap: the OR
//!   of the relation's per-path lists over the mask's paths.
//!
//! A [`ContainmentAdjacency`] is that candidate bitmap plus a shared
//! handle on the relation: `(pu, pv)` is compatible iff both pids are
//! candidates and the relation's row holds the pair. The join's pruning
//! step is then a word-parallel semi-join — "does this pid's row
//! intersect the surviving candidates on the other side?" — instead of a
//! scan of all candidate pairs with multi-word containment tests.
//!
//! [`JoinIndexCache`] memoizes the relation, the adjacencies and the
//! join's seed bitmaps per summary, one write-once cell per key, and
//! counts builds and build wall-time so the bench harness can report
//! amortization (`adjacency_build_ms` in the perf snapshot).

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::Instant;

use xpe_xml::TagId;

use crate::bits::PathIdBits;
use crate::encoding::EncodingTable;
use crate::interner::PidInterner;
use crate::rel::relation_mask;
use crate::words;

/// The full pid-containment relation of one interner, as bitmap rows.
///
/// Path ids are per-node-instance unions of root-to-leaf path encodings,
/// so the family is *not* laminar in general — two ids can overlap
/// without nesting (Figure 1's interner already does). What every
/// `(tag_u, tag_v, axis)` adjacency shares is the underlying subset
/// relation `pv ⊆ pu`, which depends only on the interner.
///
/// It is built by column intersection, in `O(Σ |pv| · n / 64)` word
/// operations for `n` pids plus one bit per pair: column `c` is the
/// bitmap of pids whose id sets physical bit `c`, the reverse row of `v`
/// is the AND of the columns of `v`'s paths (exactly the pids holding
/// every path of `v`), and the forward rows are the reverse rows'
/// transpose. Columns are indexed by *physical* bit position — bit
/// `c % 64` of storage word `c / 64`, LSB = 0 — so a mask's storage
/// words address them directly, whatever the id layout's path order.
///
/// Rows use the dense pid-index bitmap layout (LSB-first, like
/// [`ContainmentAdjacency::candidates`]): `set_words` words per pid, bit
/// `v` of forward row `u` set iff `pv ⊆ pu` (non-strict, so every
/// nonempty pid relates at least to itself). Empty ids get empty rows —
/// they fail every mask screen and contain nothing nonempty.
#[derive(Debug)]
pub struct PidContainmentRelation {
    /// Number of pids (the interner size at build time).
    pids: usize,
    /// Words per pid-index bitmap (`pids.div_ceil(64)`).
    set_words: usize,
    /// Column `c` at `c * set_words`: the pids whose id sets physical
    /// bit `c`. One column per storage bit, padding bits included.
    cols: Vec<u64>,
    /// Forward rows: bit `v` of row `u` set iff `pv ⊆ pu`.
    fwd_bits: Vec<u64>,
    /// Reverse rows: bit `u` of row `v` set iff `pv ⊆ pu`.
    rev_bits: Vec<u64>,
    /// Population of each reverse row — how many pids contain each pid,
    /// itself included — so a key counts its pairs per candidate.
    rev_counts: Vec<u32>,
    /// Number of `(u, v)` pairs in the relation.
    pairs: usize,
}

impl PidContainmentRelation {
    /// Builds the relation of every pid in `pids` by column intersection.
    pub fn build(pids: &PidInterner) -> Self {
        let n = pids.len();
        let set_words = n.div_ceil(64);
        let col_count = pids.width().div_ceil(64) as usize * 64;
        let mut cols = vec![0u64; col_count * set_words];
        for (p, bits) in pids.iter() {
            for c in words::ones(bits.words()) {
                words::set_bit(&mut cols[c * set_words..(c + 1) * set_words], p.index());
            }
        }

        let mut fwd_bits = vec![0u64; n * set_words];
        let mut rev_bits = vec![0u64; n * set_words];
        let mut rev_counts = vec![0u32; n];
        let mut pairs = 0usize;
        for (v, bits) in pids.iter() {
            let v = v.index();
            let row = &mut rev_bits[v * set_words..(v + 1) * set_words];
            let mut paths = words::ones(bits.words());
            let Some(first) = paths.next() else {
                continue; // an empty id: empty rows
            };
            row.copy_from_slice(&cols[first * set_words..(first + 1) * set_words]);
            for c in paths {
                words::and_assign(row, &cols[c * set_words..(c + 1) * set_words]);
            }
            for u in words::ones(row) {
                words::set_bit(&mut fwd_bits[u * set_words..(u + 1) * set_words], v);
                rev_counts[v] += 1;
            }
            pairs += rev_counts[v] as usize;
        }
        Self {
            pids: n,
            set_words,
            cols,
            fwd_bits,
            rev_bits,
            rev_counts,
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

    /// Bitmap of pids whose id intersects `mask`: the OR of the columns
    /// of `mask`'s paths.
    fn intersecting(&self, mask: &PathIdBits) -> Vec<u64> {
        debug_assert!(mask.words().len() * 64 * self.set_words <= self.cols.len());
        let mut out = vec![0u64; self.set_words];
        for c in words::ones(mask.words()) {
            words::or_assign(
                &mut out,
                &self.cols[c * self.set_words..(c + 1) * self.set_words],
            );
        }
        out
    }
}

/// The compatible-pair relation of one `(tag_u, tag_v, child_axis)` key:
/// its candidate pids over the shared [`PidContainmentRelation`].
///
/// `(pu, pv)` is in the relation iff both pids are
/// [`candidates`](Self::candidates) and `pv ⊆ pu` (bit `v` of the
/// relation's forward row `u`, equivalently bit `u` of its reverse row
/// `v`) — exactly when
/// [`axis_compatible_masked`](crate::axis_compatible_masked) holds for the
/// key's relation mask. The index never changes which pairs pass, only
/// how fast the question is answered.
#[derive(Debug)]
pub struct ContainmentAdjacency {
    /// Candidate bitmap over dense pid indices (LSB-first index layout):
    /// bit `i` set iff pid `i` intersects the key's relation mask.
    /// Containment-or-equality is reflexive and every superset of a
    /// candidate is one, so the candidates are *exactly* the pids in
    /// some compatible pair, on both sides.
    cand: Vec<u64>,
    /// Number of `(u, v)` pairs in the relation.
    pairs: usize,
    /// The summary's containment relation, shared by every key.
    relation: Arc<PidContainmentRelation>,
}

impl ContainmentAdjacency {
    /// Builds the adjacency of `(tag_u, tag_v, child_axis)` over the
    /// summary's containment relation: a relation mask plus an OR of the
    /// relation's columns over the mask's paths. `(pu, pv)` is compatible
    /// iff `pv ⊆ pu` **and** `pv ∩ mask ≠ ∅`, and the candidates are
    /// upward closed, so the pair count is the summed reverse-row
    /// population of the candidates. No containment test runs and no row
    /// is copied.
    pub fn build(
        encoding: &EncodingTable,
        relation: Arc<PidContainmentRelation>,
        tag_u: TagId,
        tag_v: TagId,
        child_axis: bool,
    ) -> Self {
        let mask = relation_mask(encoding, tag_u, tag_v, child_axis);
        let cand = relation.intersecting(&mask);
        let pairs = words::ones(&cand)
            .map(|v| relation.rev_counts[v] as usize)
            .sum();
        ContainmentAdjacency {
            cand,
            pairs,
            relation,
        }
    }

    /// Candidate bitmap over dense pid indices (LSB-first index layout,
    /// [`set_words`](Self::set_words) words): bit `i` set iff pid `i`
    /// passes the key's relation-mask screen — on either side, the sets
    /// coincide. The bitmap kernel ANDs this into both sides of every
    /// semi-join before it reads a [`relation`](Self::relation) row.
    #[inline]
    pub fn candidates(&self) -> &[u64] {
        &self.cand
    }

    /// The shared containment relation whose rows, restricted to the
    /// candidates, are this key's pairs.
    #[inline]
    pub fn relation(&self) -> &PidContainmentRelation {
        &self.relation
    }

    /// Words per pid-index bitmap row (`pid_count.div_ceil(64)`).
    #[inline]
    pub fn set_words(&self) -> usize {
        self.relation.set_words
    }

    /// Number of compatible pairs in the relation.
    pub fn pair_count(&self) -> usize {
        self.pairs
    }

    /// Number of pids the index covers (the interner size at build time).
    pub fn pid_count(&self) -> usize {
        self.relation.pids
    }
}

/// One summary's write-once cells, sized from its tag count: one per
/// `(tag_u, tag_v, axis)` adjacency, in rows allocated on first touch,
/// and one per `(tag, rooted)` seed bitmap.
#[derive(Debug)]
struct Cells {
    /// Adjacency rows indexed `tag_u * 2 + child_axis`, each a row of
    /// `tag_v`-indexed cells. A row is allocated when a key in it is
    /// first asked for, so only the rows a workload touches hold cells.
    adjacencies: Box<[OnceLock<AdjacencyRow>]>,
    /// Seed bitmaps indexed `tag * 2 + rooted`.
    seeds: Box<[OnceLock<Vec<u64>>]>,
}

/// One row of adjacency cells, indexed by `tag_v`.
type AdjacencyRow = Box<[OnceLock<Arc<ContainmentAdjacency>>]>;

/// `n` empty cells.
fn empty_cells<T>(n: usize) -> Box<[OnceLock<T>]> {
    (0..n).map(|_| OnceLock::new()).collect()
}

/// Memo table over [`ContainmentAdjacency::build`] keyed by
/// `(tag_u, tag_v, child_axis)`, plus the join's seed bitmaps keyed by
/// `(tag, rooted)`, for one summary. Every adjacency shares the one
/// [`PidContainmentRelation`] built on first use.
///
/// Each key has its own write-once cell ([`OnceLock`]), in a table sized
/// from the summary's tag count on first use. A cell gives every
/// guarantee the join needs with no lock on the read path:
///
/// * a key is built exactly once — callers racing on a cold key wait
///   for the one build and then read its value;
/// * different keys build in parallel;
/// * a build that panics leaves its cell empty, and the next caller
///   builds the key again;
/// * a filled cell is read with an acquire load, so warm joins take no
///   lock.
///
/// Builds are pure functions of the key and the (immutable) summary
/// structures, so every reader observes the same candidates. Build
/// count, cumulative build time and pair totals are tracked for the perf
/// snapshot; the build time counts the per-key builds, not the shared
/// relation's.
#[derive(Debug, Default)]
pub struct JoinIndexCache {
    /// The cell table, sized from the first caller's tag count.
    cells: OnceLock<Cells>,
    /// Containment relation of the summary's interner, built on first
    /// use and shared by every adjacency (the cache is per-summary, like
    /// the adjacencies themselves).
    relation: OnceLock<Arc<PidContainmentRelation>>,
    builds: AtomicU64,
    build_nanos: AtomicU64,
    pairs: AtomicU64,
}

impl JoinIndexCache {
    /// Creates an empty cache.
    pub fn new() -> Self {
        Self::default()
    }

    /// The cell table, sized for `tags` tags on first use. Callers must
    /// always pass the same summary's tag count (the cache is
    /// per-summary); a tag index past the first count panics.
    fn cells(&self, tags: usize) -> &Cells {
        let cells = self.cells.get_or_init(|| Cells {
            adjacencies: empty_cells(tags * 2),
            seeds: empty_cells(tags * 2),
        });
        debug_assert_eq!(cells.seeds.len(), tags * 2, "one cache per summary");
        cells
    }

    /// The adjacency for `(tag_u, tag_v, child_axis)` over a summary of
    /// `tags` tags, building it on first use. Concurrent cold calls on
    /// the same key wait for one build; other keys build in parallel.
    pub fn get(
        &self,
        encoding: &EncodingTable,
        pids: &PidInterner,
        tags: usize,
        tag_u: TagId,
        tag_v: TagId,
        child_axis: bool,
    ) -> &Arc<ContainmentAdjacency> {
        let row = self.cells(tags).adjacencies[tag_u.index() * 2 + usize::from(child_axis)]
            .get_or_init(|| empty_cells(tags));
        row[tag_v.index()].get_or_init(|| {
            // Resolve the shared relation first, outside the timed
            // build: its own cell serializes the once-per-summary build.
            let relation = Arc::clone(self.relation(pids));
            let t0 = Instant::now();
            let built = ContainmentAdjacency::build(encoding, relation, tag_u, tag_v, child_axis);
            self.build_nanos
                .fetch_add(t0.elapsed().as_nanos() as u64, Ordering::Relaxed);
            self.builds.fetch_add(1, Ordering::Relaxed);
            self.pairs
                .fetch_add(built.pair_count() as u64, Ordering::Relaxed);
            Arc::new(built)
        })
    }

    /// The memoized containment relation of `pids`, building it on first
    /// use. Callers must always pass the same interner (the cache is
    /// per-summary); the first call fixes the relation.
    pub fn relation(&self, pids: &PidInterner) -> &Arc<PidContainmentRelation> {
        self.relation
            .get_or_init(|| Arc::new(PidContainmentRelation::build(pids)))
    }

    /// The memoized seed bitmap for `(tag, rooted)` over a summary of
    /// `tags` tags, running `build` on first use. Concurrent cold calls
    /// wait for one run of `build`; if it panics, the cell stays empty
    /// and a later call runs its own `build`.
    pub fn seed_bitmap(
        &self,
        tags: usize,
        tag: TagId,
        rooted: bool,
        build: impl FnOnce() -> Vec<u64>,
    ) -> &[u64] {
        self.cells(tags).seeds[tag.index() * 2 + usize::from(rooted)].get_or_init(build)
    }

    /// Total adjacency builds: one per key asked for, since a key's cell
    /// is filled once.
    pub fn builds(&self) -> u64 {
        self.builds.load(Ordering::Relaxed)
    }

    /// Cumulative wall-clock milliseconds spent building adjacencies.
    pub fn build_ms(&self) -> f64 {
        self.build_nanos.load(Ordering::Relaxed) as f64 / 1e6
    }

    /// Total compatible pairs across every build.
    pub fn pair_total(&self) -> u64 {
        self.pairs.load(Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::interner::Pid;
    use crate::label::Labeling;
    use crate::rel::axis_compatible_masked;
    use proptest::prelude::*;

    /// Whether `(pu, pv)` is in the adjacency by its contract — both pids
    /// candidates and the shared relation holding the pair — with the
    /// relation read from both row sides (which must agree).
    fn related(adj: &ContainmentAdjacency, pu: Pid, pv: Pid) -> bool {
        let (u, v) = (pu.index(), pv.index());
        let fwd = words::test_bit(adj.relation().forward_row(u), v);
        let rev = words::test_bit(adj.relation().reverse_row(v), u);
        assert_eq!(
            fwd, rev,
            "forward and reverse rows disagree on {pu:?}->{pv:?}"
        );
        let cand = adj.candidates();
        words::test_bit(cand, u) && words::test_bit(cand, v) && fwd
    }

    /// Checks every pair of `adj` and its pair count against the masked
    /// §2 test.
    fn assert_matches_masked(
        adj: &ContainmentAdjacency,
        pids: &PidInterner,
        mask: &PathIdBits,
        ctx: &str,
    ) {
        let mut pairs = 0;
        for (pu, _) in pids.iter() {
            for (pv, _) in pids.iter() {
                let expected = axis_compatible_masked(pids, pu, pv, mask);
                assert_eq!(related(adj, pu, pv), expected, "{ctx} {pu:?}->{pv:?}");
                pairs += usize::from(expected);
            }
        }
        assert_eq!(adj.pair_count(), pairs, "{ctx}");
        assert_eq!(adj.pid_count(), pids.len(), "{ctx}");
    }

    /// Checks every forward and reverse row of `relation` against
    /// brute-force containment. Empty ids relate to nothing.
    fn assert_relation_exact(relation: &PidContainmentRelation, pids: &PidInterner, ctx: &str) {
        let mut pairs = 0;
        for (pu, bu) in pids.iter() {
            for (pv, bv) in pids.iter() {
                let expected = bv.count_ones() > 0 && bu.contains_or_equal(bv);
                assert_eq!(
                    words::test_bit(relation.forward_row(pu.index()), pv.index()),
                    expected,
                    "{ctx} fwd {pu:?} ⊇ {pv:?}"
                );
                assert_eq!(
                    words::test_bit(relation.reverse_row(pv.index()), pu.index()),
                    expected,
                    "{ctx} rev {pu:?} ⊇ {pv:?}"
                );
                pairs += usize::from(expected);
            }
        }
        assert_eq!(relation.pair_count(), pairs, "{ctx}");
        assert_eq!(relation.pids, pids.len(), "{ctx}");
    }

    /// An interner of `width`-bit ids, one per list of 1-based paths.
    fn interner_of(width: u32, ids: &[&[u32]]) -> PidInterner {
        let mut pids = PidInterner::new(width);
        for bits in ids {
            let mut id = PathIdBits::zero(width);
            for &p in *bits {
                id.set(p);
            }
            pids.push(id);
        }
        pids
    }

    #[test]
    fn adjacency_rows_match_masked_test() {
        let doc = xpe_xml::fixtures::paper_figure1();
        let lab = Labeling::compute(&doc);
        let tags: Vec<TagId> = doc.tags().iter().map(|(t, _)| t).collect();
        let relation = Arc::new(PidContainmentRelation::build(&lab.interner));
        for &tu in &tags {
            for &tv in &tags {
                for child in [true, false] {
                    let adj = ContainmentAdjacency::build(
                        &lab.encoding,
                        Arc::clone(&relation),
                        tu,
                        tv,
                        child,
                    );
                    let mask = relation_mask(&lab.encoding, tu, tv, child);
                    let ctx = format!("{tu:?}/{tv:?} child={child}");
                    assert_matches_masked(&adj, &lab.interner, &mask, &ctx);
                }
            }
        }
    }

    #[test]
    fn candidates_are_exactly_the_paired_pids() {
        let doc = xpe_xml::fixtures::paper_figure1();
        let lab = Labeling::compute(&doc);
        let tags: Vec<TagId> = doc.tags().iter().map(|(t, _)| t).collect();
        let relation = Arc::new(PidContainmentRelation::build(&lab.interner));
        for &tu in &tags {
            for &tv in &tags {
                for child in [true, false] {
                    let adj = ContainmentAdjacency::build(
                        &lab.encoding,
                        Arc::clone(&relation),
                        tu,
                        tv,
                        child,
                    );
                    let mask = relation_mask(&lab.encoding, tu, tv, child);
                    assert_eq!(adj.set_words(), lab.interner.len().div_ceil(64));
                    assert_eq!(adj.candidates().len(), adj.set_words());
                    for (p, bits) in lab.interner.iter() {
                        // A candidate passes the mask screen and pairs with
                        // itself; a non-candidate pairs with nothing, on
                        // either side.
                        let is_cand = words::test_bit(adj.candidates(), p.index());
                        assert_eq!(is_cand, bits.intersects(&mask), "{p:?}");
                        assert_eq!(related(&adj, p, p), is_cand, "{p:?}");
                        for (q, _) in lab.interner.iter() {
                            if !is_cand {
                                assert!(!related(&adj, p, q) && !related(&adj, q, p));
                            }
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
    /// the relation and the adjacency against the §2 predicate directly.
    #[test]
    fn overlapping_unnested_ids_are_exact() {
        // Overlap without containment: {1,2} and {2,3} over three paths.
        let mut tags = xpe_xml::TagInterner::new();
        let a = tags.intern("a");
        let b = tags.intern("b");
        let mut encoding = EncodingTable::new();
        encoding.push(vec![a, b]);
        encoding.push(vec![a, b, b]);
        encoding.push(vec![a]);
        let width = encoding.len() as u32;
        let pids = interner_of(width, &[&[1, 2], &[2, 3], &[1, 2, 3]]);
        let relation = Arc::new(PidContainmentRelation::build(&pids));
        // {1,2} ⊆ {1,2,3}, {2,3} ⊆ {1,2,3}, plus the three reflexive
        // pairs; the overlapping pair {1,2} vs {2,3} nests neither way.
        assert_eq!(relation.pair_count(), 5);
        assert_relation_exact(&relation, &pids, "overlap");

        for child in [true, false] {
            let adj = ContainmentAdjacency::build(&encoding, Arc::clone(&relation), a, b, child);
            let mask = relation_mask(&encoding, a, b, child);
            assert_matches_masked(&adj, &pids, &mask, &format!("child={child}"));
        }
    }

    /// A 65-word interner: past the reach of a 64-bit word signature
    /// (word `j` → bit `j % 64`), the shape where an earlier screened
    /// build admitted a bogus {1,2} ⊇ {1,4099} pair (pair_count 3
    /// instead of 2). The column build reads every word of every id, and
    /// this keeps it honest.
    #[test]
    fn wide_interner_relation_is_exact() {
        let width = 4160u32; // 65 words
        let pids = interner_of(
            width,
            &[
                &[1, 2],
                &[1, 4099],
                &[4099],
                &[2, 4099, 4100],
                &[1, 2, 4099, 4100],
                &[65, 4160],
            ],
        );
        let relation = PidContainmentRelation::build(&pids);
        assert_relation_exact(&relation, &pids, "wide");

        // The minimal counterexample of the signature bug.
        let two = interner_of(width, &[&[1, 2], &[1, 4099]]);
        let rel = PidContainmentRelation::build(&two);
        assert_eq!(rel.pair_count(), 2, "only the two reflexive pairs");
    }

    /// The adjacency stays exact past 64 words of interner width — the
    /// same regression as `wide_interner_relation_is_exact`, checked
    /// through a key's candidates and the shared rows.
    #[test]
    fn wide_interner_adjacency_matches_masked_test() {
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
            encoding.push(path);
        }
        let width = encoding.len() as u32;
        assert!(width > 4096);

        let pids = interner_of(
            width,
            &[
                &[1, 2],
                &[1, 4099],
                &[4099],
                &[2, 4099, 4100],
                &[1, 2, 4099, 4100],
                &[65, 126, 4160],
            ],
        );
        let relation = Arc::new(PidContainmentRelation::build(&pids));
        for child in [true, false] {
            let adj = ContainmentAdjacency::build(&encoding, Arc::clone(&relation), r, a, child);
            let mask = relation_mask(&encoding, r, a, child);
            assert_matches_masked(&adj, &pids, &mask, &format!("child={child}"));
        }
    }

    /// Tiny xorshift stream for the property test's id families.
    fn xorshift(seed: u64) -> impl FnMut() -> u64 {
        let mut x = seed | 1;
        move || {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x
        }
    }

    /// An encoding table of exactly `width` paths over the tags `r, a, b,
    /// c`: `r`, up to three random tags, then the path's index in binary
    /// over `a`/`b` at a fixed digit count. Equal paths would need equal
    /// lengths, hence equal prefixes and equal indices, so every path is
    /// distinct; the random prefixes vary which tag pairs relate where.
    fn random_encoding(width: u32, t: [TagId; 4], next: &mut impl FnMut() -> u64) -> EncodingTable {
        let digits = 32 - (width.max(2) - 1).leading_zeros();
        let mut encoding = EncodingTable::new();
        for i in 0..width {
            let mut path = vec![t[0]];
            for _ in 0..next() % 4 {
                path.push(t[1 + (next() % 3) as usize]);
            }
            for d in 0..digits {
                path.push(if i >> d & 1 == 1 { t[1] } else { t[2] });
            }
            encoding.push(path);
        }
        assert_eq!(encoding.len(), width as usize);
        encoding
    }

    /// `count` random ids of `width` bits, each fresh bit set with
    /// probability `per_mille / 1000`. Three in eight ids are a random
    /// subset of an earlier id and two in eight an earlier id plus fresh
    /// bits, so the family nests as well as overlapping without nesting;
    /// one in eight is the empty id. An id drawn twice is pushed once.
    fn random_family(
        width: u32,
        per_mille: u64,
        count: usize,
        next: &mut impl FnMut() -> u64,
    ) -> PidInterner {
        let mut ids: Vec<PathIdBits> = Vec::new();
        for _ in 0..count {
            let mut id = PathIdBits::zero(width);
            let kind = next() % 8;
            if kind == 0 {
                ids.push(id);
                continue;
            }
            let base = (!ids.is_empty()).then(|| ids[(next() % ids.len() as u64) as usize].clone());
            match (kind % 3, base) {
                (1, Some(base)) => {
                    for p in base.ones() {
                        if next() % 2 == 0 {
                            id.set(p);
                        }
                    }
                }
                (2, Some(base)) => {
                    id = base;
                    for p in 1..=width {
                        if next() % 1000 < per_mille {
                            id.set(p);
                        }
                    }
                }
                _ => {
                    for p in 1..=width {
                        if next() % 1000 < per_mille {
                            id.set(p);
                        }
                    }
                }
            }
            ids.push(id);
        }
        let mut pids = PidInterner::new(width);
        for (i, id) in ids.iter().enumerate() {
            if !ids[..i].contains(id) {
                pids.push(id.clone());
            }
        }
        pids
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(60))]

        /// The column-built relation and every key's candidates agree
        /// with brute force on random id families — widths of one word
        /// and its edges up to 65 words, densities from a bit or two per
        /// id to three quarters of the paths.
        #[test]
        fn relation_and_adjacency_match_brute_force(
            width_ix in 0usize..6,
            density_ix in 0usize..4,
            count in 1usize..36,
            seed in any::<u64>(),
        ) {
            let width = [1u32, 63, 64, 65, 200, 4160][width_ix];
            // Expected set bits per independent id: ~1.5, ~8, a quarter
            // and three quarters of the width.
            let per_mille = [
                (1500 / width as u64).max(1),
                (8000 / width as u64).max(1),
                250,
                750,
            ][density_ix];
            let mut next = xorshift(seed);
            let mut tags = xpe_xml::TagInterner::new();
            let t = ["r", "a", "b", "c"].map(|name| tags.intern(name));
            let encoding = random_encoding(width, t, &mut next);
            let pids = random_family(width, per_mille, count, &mut next);
            let relation = Arc::new(PidContainmentRelation::build(&pids));
            let ctx = format!("width={width} per_mille={per_mille} seed={seed:#x}");
            assert_relation_exact(&relation, &pids, &ctx);
            for tu in t {
                for tv in t {
                    for child in [true, false] {
                        let adj = ContainmentAdjacency::build(
                            &encoding,
                            Arc::clone(&relation),
                            tu,
                            tv,
                            child,
                        );
                        let mask = relation_mask(&encoding, tu, tv, child);
                        for (p, bits) in pids.iter() {
                            prop_assert_eq!(
                                words::test_bit(adj.candidates(), p.index()),
                                bits.intersects(&mask),
                                "{} {:?}", ctx, p
                            );
                        }
                        let key = format!("{ctx} {tu:?}/{tv:?} child={child}");
                        assert_matches_masked(&adj, &pids, &mask, &key);
                    }
                }
            }
        }
    }

    #[test]
    fn seed_bitmaps_memoize() {
        let doc = xpe_xml::fixtures::paper_figure1();
        let lab = Labeling::compute(&doc);
        let tags: Vec<TagId> = doc.tags().iter().map(|(t, _)| t).collect();
        let cache = JoinIndexCache::new();
        let s1 = cache.seed_bitmap(tags.len(), tags[0], true, || vec![0b101]);
        let s2 = cache.seed_bitmap(tags.len(), tags[0], true, || panic!("memo must hit"));
        assert!(std::ptr::eq(s1, s2));
        assert_eq!(s1, [0b101]);
        let s3 = cache.seed_bitmap(tags.len(), tags[0], false, || vec![0b11]);
        assert_eq!(s3, [0b11]);
        let rel1 = cache.relation(&lab.interner);
        let rel2 = cache.relation(&lab.interner);
        assert!(Arc::ptr_eq(rel1, rel2));
        assert_eq!(rel1.pids, lab.interner.len());
    }

    #[test]
    fn cache_memoizes_and_counts() {
        let doc = xpe_xml::fixtures::paper_figure1();
        let lab = Labeling::compute(&doc);
        let cache = JoinIndexCache::new();
        assert_eq!(cache.builds(), 0);
        let tags: Vec<TagId> = doc.tags().iter().map(|(t, _)| t).collect();
        let n = tags.len();
        let a1 = cache.get(&lab.encoding, &lab.interner, n, tags[0], tags[1], true);
        let a2 = cache.get(&lab.encoding, &lab.interner, n, tags[0], tags[1], true);
        assert!(Arc::ptr_eq(a1, a2), "second lookup hits the memo");
        assert_eq!(cache.builds(), 1);
        assert_eq!(cache.pair_total(), a1.pair_count() as u64);
        let a3 = cache.get(&lab.encoding, &lab.interner, n, tags[1], tags[0], false);
        assert_eq!(cache.builds(), 2);
        // Every key shares the cache's one relation.
        let relation = cache.relation(&lab.interner);
        for a in [a1, a3] {
            assert!(std::ptr::eq(a.relation(), &**relation));
        }
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
                            let a =
                                cache.get(&lab.encoding, &lab.interner, tags.len(), tu, tv, true);
                            assert_eq!(a.pid_count(), lab.interner.len());
                        }
                    }
                });
            }
        });
        // Every cold miss either built or waited for the builder: each
        // key was built exactly once.
        assert_eq!(cache.builds(), (tags.len() * tags.len()) as u64);
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
            let built: Vec<&Arc<ContainmentAdjacency>> = std::thread::scope(|s| {
                let handles: Vec<_> = (0..8)
                    .map(|_| {
                        s.spawn(|| {
                            cache.get(
                                &lab.encoding,
                                &lab.interner,
                                tags.len(),
                                tags[0],
                                tags[1],
                                true,
                            )
                        })
                    })
                    .collect();
                handles.into_iter().map(|h| h.join().unwrap()).collect()
            });
            // Exactly one build ran; every thread got the published Arc.
            assert_eq!(cache.builds(), 1, "round {round}");
            for a in &built {
                assert!(Arc::ptr_eq(a, built[0]), "round {round}");
            }
        }
    }

    #[test]
    fn same_key_seed_race_runs_the_closure_once() {
        let doc = xpe_xml::fixtures::paper_figure1();
        let tags: Vec<TagId> = doc.tags().iter().map(|(t, _)| t).collect();
        for round in 0..20 {
            let cache = JoinIndexCache::new();
            let calls = AtomicU64::new(0);
            let seeds: Vec<&[u64]> = std::thread::scope(|s| {
                let handles: Vec<_> = (0..8)
                    .map(|_| {
                        s.spawn(|| {
                            cache.seed_bitmap(tags.len(), tags[0], true, || {
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
                assert!(std::ptr::eq(*sdw, seeds[0]), "round {round}");
            }
        }
    }

    #[test]
    fn panicking_build_leaves_the_cell_empty() {
        let doc = xpe_xml::fixtures::paper_figure1();
        let tags: Vec<TagId> = doc.tags().iter().map(|(t, _)| t).collect();
        let cache = JoinIndexCache::new();
        // The first build panics inside the seed closure; its cell must
        // stay empty so a later caller builds the key instead of hanging
        // or reading a half-built value.
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(|_| {}));
        let died = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            cache.seed_bitmap(tags.len(), tags[0], true, || panic!("builder dies"));
        }));
        std::panic::set_hook(prev);
        assert!(died.is_err());
        let s = cache.seed_bitmap(tags.len(), tags[0], true, || vec![0b1]);
        assert_eq!(s, [0b1]);
    }
}
