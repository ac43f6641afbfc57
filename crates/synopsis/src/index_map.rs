//! Hash maps keyed by tuples of tag and pid handles.
//!
//! The statistics collectors update an entry per element and per sibling
//! pair. Their keys are dense indices, not chosen strings, so they hash
//! with FxHash's multiply-rotate step instead of SipHash.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

/// A map keyed by tuples of `u32` handles ([`xpe_xml::TagId`],
/// [`xpe_pathid::Pid`]).
pub(crate) type IndexMap<K, V> = HashMap<K, V, BuildHasherDefault<IndexHasher>>;

#[derive(Default)]
pub(crate) struct IndexHasher(u64);

impl Hasher for IndexHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_u32(u32::from(b));
        }
    }

    #[inline]
    fn write_u32(&mut self, n: u32) {
        self.0 = (self.0.rotate_left(5) ^ u64::from(n)).wrapping_mul(0x517c_c1b7_2722_0a95);
    }
}
