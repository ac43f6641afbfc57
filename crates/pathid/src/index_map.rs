//! Hash maps keyed by ids the program assigned.
//!
//! The labeler and the statistics collectors update an entry per element
//! and per sibling pair. Their keys are dense handles ([`TagId`],
//! [`Pid`](crate::Pid), trie nodes, cell numbers) that the program hands
//! out, never bytes of the document, so they hash with one folded
//! multiply per word instead of SipHash. Names and rows, which a document
//! chooses, stay in maps with std's keyed hasher.
//!
//! [`TagId`]: xpe_xml::TagId

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

/// A map keyed by program-assigned ids: one `u64` word (two handles
/// packed) or a tuple of `u32` handles.
pub type IndexMap<K, V> = HashMap<K, V, BuildHasherDefault<IndexHasher>>;

/// The unkeyed hasher of [`IndexMap`]: each word is xored into the state
/// and mixed by a 64 × 64 → 128-bit multiply whose halves are folded, so
/// both halves of a packed key reach the low bits the table indexes by.
#[derive(Default)]
pub struct IndexHasher(u64);

const K: u64 = 0x517c_c1b7_2722_0a95;

impl Hasher for IndexHasher {
    #[inline]
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_u64(u64::from(b));
        }
    }

    #[inline]
    fn write_u32(&mut self, n: u32) {
        self.write_u64(u64::from(n));
    }

    #[inline]
    fn write_u64(&mut self, n: u64) {
        let p = u128::from(self.0 ^ n) * u128::from(K);
        self.0 = (p as u64) ^ ((p >> 64) as u64);
    }
}

/// Packs two `u32` handles into one [`IndexMap`] key word.
#[inline]
pub fn pack(hi: u32, lo: u32) -> u64 {
    u64::from(hi) << 32 | u64::from(lo)
}

/// The two handles of a key word built by [`pack`].
#[inline]
pub fn unpack(key: u64) -> (u32, u32) {
    ((key >> 32) as u32, key as u32)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::hash::BuildHasher;

    #[test]
    fn pack_round_trips() {
        assert_eq!(unpack(pack(7, u32::MAX)), (7, u32::MAX));
        assert_eq!(unpack(pack(u32::MAX, 0)), (u32::MAX, 0));
    }

    /// Keys that differ only in their high handle still spread over the
    /// low bits a table indexes by.
    #[test]
    fn high_handles_reach_the_low_bits() {
        let build = BuildHasherDefault::<IndexHasher>::default();
        let mut low: Vec<u64> = (0..1024u32)
            .map(|hi| build.hash_one(pack(hi, 3)) & 1023)
            .collect();
        low.sort_unstable();
        low.dedup();
        assert!(low.len() > 512, "{} distinct low words", low.len());
    }
}
