//! Full-query estimate memoization — the skew-aware fast path.
//!
//! Production estimation traffic is heavily skewed: a handful of query
//! templates dominate arrivals. The [`JoinCache`](crate::JoinCache) is
//! *skeleton*-keyed (order constraints and the target node deliberately
//! excluded), so a repeated query still pays plan lookup, join-cache
//! probe, and the full finalize/order-ratio phases on every arrival.
//! [`EstimateCache`] memoizes the **finished estimate** above all of
//! that, keyed by the *complete* canonical query — tags, structural
//! edges, order constraints, and target — so the second arrival of a hot
//! template is one hash probe.
//!
//! # Key construction
//!
//! The key is the query's canonical text ([`Query`]'s `Display`
//! rendering — the same normalizer the workload generator uses for
//! deduplication), with its 64-bit hash computed once at construction;
//! shard selection and map probes reuse it. An estimator renders every
//! query into one reused key buffer and clones it only to publish.
//! Canonicalization means surface variants of one query (`pres::` vs the
//! `folls::` orientation, redundant `$` markers) collapse into one entry,
//! while order-constraint variants that share a *skeleton* — and
//! therefore share a join-cache entry — still get distinct estimate
//! entries, because the canonical text renders their constraints and
//! targets.
//!
//! # Publication
//!
//! The cache is a [`SharedMemo`] read through one [`EstimateCacheReader`]
//! front per estimator (see [`crate::memo`]): warm hits probe the
//! front's private map and take zero locks, and a miss computes its
//! estimate outside any lock and then inserts it into one shard in
//! place.
//!
//! # What is never cached
//!
//! Only `EstimateStatus::Ok` values are published. Degraded answers
//! (budget-truncated joins, deadline expiry, isolated panics) and
//! rejected queries report the `f(tag)` clamp bound, not the estimate —
//! caching one would serve a policy artifact as a fact to a later,
//! healthier request. The callers in [`Estimator`](crate::Estimator)
//! enforce this; the cache itself stores whatever it is handed.

use std::hash::Hasher;

use xpe_xpath::Query;

use crate::memo::{MemoFront, MemoKey, SharedMemo};

/// Canonical full-query cache key: the query's canonical text with its
/// hash computed once at construction. Unlike
/// [`SkeletonKey`](crate::SkeletonKey), order constraints and the target
/// node are **included** — two queries get equal keys iff their whole
/// estimates are interchangeable.
#[derive(Clone, Debug, Default)]
pub struct EstimateKey {
    text: String,
    hash: u64,
}

impl PartialEq for EstimateKey {
    fn eq(&self, other: &Self) -> bool {
        self.text == other.text
    }
}

impl Eq for EstimateKey {}

impl std::hash::Hash for EstimateKey {
    fn hash<H: Hasher>(&self, state: &mut H) {
        state.write_u64(self.hash);
    }
}

impl EstimateKey {
    /// Re-renders this key as `query`'s canonical text, reusing its
    /// buffer.
    pub(crate) fn set(&mut self, query: &Query) {
        use std::fmt::Write;
        self.text.clear();
        write!(self.text, "{query}").expect("writing to a String cannot fail");
        self.hash = hash_text(&self.text);
    }

    /// The canonical query text this key normalizes to.
    pub fn text(&self) -> &str {
        &self.text
    }
}

impl MemoKey for EstimateKey {
    /// The precomputed 64-bit hash of the text.
    #[inline]
    fn hash64(&self) -> u64 {
        self.hash
    }
}

fn hash_text(text: &str) -> u64 {
    let mut h = std::collections::hash_map::DefaultHasher::new();
    h.write(text.as_bytes());
    h.finish()
}

/// Builds the [`EstimateKey`] of `query` by rendering its canonical
/// text.
pub fn estimate_key(query: &Query) -> EstimateKey {
    let mut key = EstimateKey::default();
    key.set(query);
    key
}

/// The shared full-query estimate cache of an engine or serving
/// generation. Capacity 0 disables it: lookups return nothing, publishes
/// store nothing, and no counter moves — matching an engine built
/// without one. Its evictions are the `invalidations` the engine and the
/// `stats` verb report; a serving generation swap invalidates by
/// replacing the whole cache, which that counter cannot see.
pub type EstimateCache = SharedMemo<EstimateKey, f64>;

/// One estimator's private front for a shared [`EstimateCache`].
pub type EstimateCacheReader = MemoFront<EstimateKey, f64>;

#[cfg(test)]
mod tests {
    use super::*;
    use xpe_xpath::parse_query;

    fn key(text: &str) -> EstimateKey {
        estimate_key(&parse_query(text).unwrap())
    }

    #[test]
    fn canonical_text_is_the_normalizer() {
        // Surface variants of one query collapse into one key: the
        // `pres::` orientation canonicalizes to `folls::`, and both
        // renderings parse back to the same canonical text. This pins
        // the normalization the cache keys on.
        let a = key("//A[/C/pres::B]");
        let b = key("//A[/B/folls::C]");
        assert_eq!(a.text(), b.text(), "{} vs {}", a.text(), b.text());
        assert_eq!(a, b);
        assert_eq!(a.hash64(), b.hash64());
        assert!(a.text().contains("folls::"), "{}", a.text());
        assert!(!a.text().contains("pres::"), "{}", a.text());
    }

    #[test]
    fn order_and_target_variants_sharing_a_skeleton_get_distinct_keys() {
        // These four share one join-cache *skeleton* (structure only);
        // the estimate cache must keep them apart.
        let plain = key("//A[/C]/B");
        let ordered = key("//A[/C/folls::B]");
        let reversed = key("//A[/C/pres::B]");
        let retargeted = key("//A[/$C]/B");
        assert_ne!(plain, ordered);
        assert_ne!(ordered, reversed);
        assert_ne!(plain, retargeted);
        let summary = xpe_synopsis::Summary::build(
            &xpe_xml::fixtures::paper_figure1(),
            xpe_synopsis::SummaryConfig::default(),
        );
        let skeleton = |q: &str| {
            crate::skeleton_key(&crate::QueryPlan::build(&summary, &parse_query(q).unwrap()))
        };
        let skel = skeleton("//A[/C]/B");
        for q in ["//A[/C/folls::B]", "//A[/C/pres::B]", "//A[/$C]/B"] {
            assert_eq!(skel, skeleton(q), "{q} was expected to share the skeleton");
        }
    }

    /// Refilling a key in place yields the key built from scratch.
    #[test]
    fn a_reused_key_buffer_matches_a_fresh_key() {
        let mut reused = key("//A[/C/F]/B/D[/E]/G");
        for q in ["//A", "//A[/C/folls::$B/D]", "/Root//E"] {
            reused.set(&parse_query(q).unwrap());
            assert_eq!(reused, key(q), "{q}");
            assert_eq!(reused.hash64(), key(q).hash64(), "{q}");
            assert_eq!(reused.text(), parse_query(q).unwrap().to_string());
        }
    }
}
