//! Variable-width path-id bitsets.
//!
//! A path id is "a sequence of bits" whose width equals the number of
//! distinct root-to-leaf paths in the document (paper §2). Bit *i* counted
//! from the **left** (1-based, matching the paper's figures) corresponds to
//! the root-to-leaf path with encoding *i*.

use std::fmt;

/// A fixed-width bitset representing one path id value.
///
/// All path ids of one document share the same width; arithmetic between
/// differently sized ids is a logic error and panics in debug builds.
#[derive(Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct PathIdBits {
    /// Number of meaningful bits.
    nbits: u32,
    /// Storage, most significant (leftmost) path first: bit `i` (1-based,
    /// from the left) lives in `words[(i-1)/64]` at offset `63-((i-1)%64)`.
    /// This layout makes the derived lexicographic `Ord` coincide with the
    /// numeric order of the bit string, which the path-id binary tree
    /// relies on.
    words: Box<[u64]>,
}

impl PathIdBits {
    /// The all-zero id of the given width. A zero-width id stores no
    /// words at all (empty documents produce width-0 encoding tables;
    /// allocating a word for them would make every such id carry a
    /// 8-byte slab it can never set a bit in).
    pub fn zero(nbits: u32) -> Self {
        let n = nbits.div_ceil(64) as usize;
        PathIdBits {
            nbits,
            words: vec![0u64; n].into_boxed_slice(),
        }
    }

    /// An id with exactly bit `pos` set (1-based from the left).
    ///
    /// # Panics
    ///
    /// Panics if `pos` is 0 or exceeds the width.
    pub fn single(nbits: u32, pos: u32) -> Self {
        let mut b = Self::zero(nbits);
        b.set(pos);
        b
    }

    /// The id of width `nbits` whose leading storage words are `words`
    /// (a trimmed row: the missing trailing words are zero).
    pub(crate) fn from_words(nbits: u32, words: &[u64]) -> Self {
        let mut b = Self::zero(nbits);
        b.words[..words.len()].copy_from_slice(words);
        b
    }

    /// Width in bits.
    #[inline]
    pub fn nbits(&self) -> u32 {
        self.nbits
    }

    /// Sets bit `pos` (1-based from the left).
    pub fn set(&mut self, pos: u32) {
        assert!(pos >= 1 && pos <= self.nbits, "bit {pos} out of range");
        let idx = (pos - 1) as usize;
        self.words[idx / 64] |= 1u64 << (63 - (idx % 64));
    }

    /// Reads bit `pos` (1-based from the left).
    pub fn get(&self, pos: u32) -> bool {
        assert!(pos >= 1 && pos <= self.nbits, "bit {pos} out of range");
        let idx = (pos - 1) as usize;
        self.words[idx / 64] & (1u64 << (63 - (idx % 64))) != 0
    }

    /// Bitwise OR (the non-leaf labeling rule: a node's id is the OR of its
    /// children's ids).
    pub fn or_assign(&mut self, other: &PathIdBits) {
        debug_assert_eq!(self.nbits, other.nbits);
        crate::words::or_assign(&mut self.words, &other.words);
    }

    /// Bitwise AND — restricts this id to the paths of `other` (masking
    /// an id by a relation mask, for instance). Shares the chunked word
    /// loop of the join kernel helpers.
    pub fn and_assign(&mut self, other: &PathIdBits) {
        debug_assert_eq!(self.nbits, other.nbits);
        crate::words::and_assign(&mut self.words, &other.words);
    }

    /// The paper's *path id containment*: `self` ≠ `other` and
    /// `self & other == other`.
    pub fn contains(&self, other: &PathIdBits) -> bool {
        self != other && self.contains_or_equal(other)
    }

    /// `self & other == other` (containment or equality).
    pub fn contains_or_equal(&self, other: &PathIdBits) -> bool {
        debug_assert_eq!(self.nbits, other.nbits);
        crate::words::is_subset(&other.words, &self.words)
    }

    /// Whether any bit is set in both ids (`self & other ≠ 0`).
    pub fn intersects(&self, other: &PathIdBits) -> bool {
        debug_assert_eq!(self.nbits, other.nbits);
        crate::words::intersects(&self.words, &other.words)
    }

    /// Number of set bits (how many distinct root-to-leaf paths pass
    /// through nodes carrying this id).
    pub fn count_ones(&self) -> u32 {
        crate::words::count_ones(&self.words)
    }

    /// The raw storage words (leftmost path in the most significant bit
    /// of word 0) — how the containment relation reads interned ids.
    #[inline]
    pub(crate) fn words(&self) -> &[u64] {
        &self.words
    }

    /// Iterates over set bit positions, 1-based from the left, ascending.
    ///
    /// Allocation-free: the iterator walks the words in place, clearing
    /// one set bit per step. (This sits on the persistence hot path —
    /// [`crate::PidInterner`] serializes every id as its position list.)
    pub fn ones(&self) -> Ones<'_> {
        Ones {
            words: &self.words,
            nbits: self.nbits,
            word_index: 0,
            current: self.words.first().copied().unwrap_or(0),
        }
    }

    /// The first (leftmost) set bit position, if any.
    pub fn first_one(&self) -> Option<u32> {
        for (wi, &w) in self.words.iter().enumerate() {
            if w != 0 {
                let pos = wi as u32 * 64 + w.leading_zeros() + 1;
                if pos <= self.nbits {
                    return Some(pos);
                }
            }
        }
        None
    }

    /// True if no bit is set.
    pub fn is_zero(&self) -> bool {
        self.words.iter().all(|&w| w == 0)
    }

    /// Size of this id in bytes as the paper accounts for it
    /// (`⌈width / 8⌉`; e.g. XMark's 344-bit ids take 43 bytes).
    pub fn size_bytes(&self) -> usize {
        (self.nbits as usize).div_ceil(8)
    }
}

/// Iterator over the set bit positions of a [`PathIdBits`], 1-based from
/// the left, ascending. Returned by [`PathIdBits::ones`].
#[derive(Clone, Debug)]
pub struct Ones<'a> {
    words: &'a [u64],
    nbits: u32,
    word_index: usize,
    /// Remaining (not yet yielded) set bits of `words[word_index]`.
    current: u64,
}

impl Iterator for Ones<'_> {
    type Item = u32;

    fn next(&mut self) -> Option<u32> {
        loop {
            if self.current != 0 {
                let lz = self.current.leading_zeros();
                self.current &= !(1u64 << (63 - lz));
                let pos = self.word_index as u32 * 64 + lz + 1;
                if pos <= self.nbits {
                    return Some(pos);
                }
                // Bits past `nbits` are padding in the final word; skip.
            } else {
                self.word_index += 1;
                if self.word_index >= self.words.len() {
                    return None;
                }
                self.current = self.words[self.word_index];
            }
        }
    }
}

impl fmt::Debug for PathIdBits {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "PathIdBits(")?;
        for i in 1..=self.nbits {
            write!(f, "{}", if self.get(i) { '1' } else { '0' })?;
        }
        write!(f, ")")
    }
}

impl fmt::Display for PathIdBits {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for i in 1..=self.nbits {
            write!(f, "{}", if self.get(i) { '1' } else { '0' })?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn from_str(s: &str) -> PathIdBits {
        let mut b = PathIdBits::zero(s.len() as u32);
        for (i, c) in s.chars().enumerate() {
            if c == '1' {
                b.set(i as u32 + 1);
            }
        }
        b
    }

    #[test]
    fn paper_figure1_pids() {
        // p5 = 1000 (D on path 1), p3 = 0011 = or(p2=0010, p1=0001).
        let p1 = from_str("0001");
        let p2 = from_str("0010");
        let mut p3 = p1.clone();
        p3.or_assign(&p2);
        assert_eq!(p3.to_string(), "0011");
        let p5 = PathIdBits::single(4, 1);
        assert_eq!(p5.to_string(), "1000");
    }

    #[test]
    fn containment_matches_paper_example_2_3() {
        let p3 = from_str("0011");
        let p2 = from_str("0010");
        assert!(p3.contains(&p2));
        assert!(!p2.contains(&p3));
        assert!(!p3.contains(&p3), "containment is strict");
        assert!(p3.contains_or_equal(&p3));
    }

    #[test]
    fn ones_iterates_left_to_right() {
        let b = from_str("1010");
        assert_eq!(b.ones().collect::<Vec<_>>(), vec![1, 3]);
        assert_eq!(b.first_one(), Some(1));
        assert_eq!(b.count_ones(), 2);
    }

    #[test]
    fn wide_ids_cross_word_boundaries() {
        let mut b = PathIdBits::zero(130);
        b.set(1);
        b.set(64);
        b.set(65);
        b.set(130);
        assert_eq!(b.ones().collect::<Vec<_>>(), vec![1, 64, 65, 130]);
        assert_eq!(b.count_ones(), 4);
        assert_eq!(b.size_bytes(), 17);
        let mut c = PathIdBits::zero(130);
        c.set(65);
        assert!(b.contains(&c));
    }

    #[test]
    fn ord_is_numeric_on_bitstrings() {
        // Matches the binary-tree leaf order of the paper's Figure 6.
        let ids = [
            "0001", "0010", "0011", "0100", "1000", "1010", "1011", "1100", "1111",
        ];
        let mut parsed: Vec<PathIdBits> = ids.iter().map(|s| from_str(s)).collect();
        parsed.sort();
        let sorted: Vec<String> = parsed.iter().map(|b| b.to_string()).collect();
        assert_eq!(sorted, ids);
    }

    #[test]
    fn zero_and_empty() {
        let z = PathIdBits::zero(7);
        assert!(z.is_zero());
        assert_eq!(z.first_one(), None);
        assert_eq!(z.count_ones(), 0);
        assert_eq!(z.size_bytes(), 1);
    }

    #[test]
    fn zero_width_allocates_no_words() {
        let z = PathIdBits::zero(0);
        assert!(z.is_zero());
        assert_eq!(z.words().len(), 0, "no storage for zero-width ids");
        assert_eq!(z.count_ones(), 0);
        assert_eq!(z.first_one(), None);
        assert_eq!(z.ones().count(), 0);
        assert_eq!(z.size_bytes(), 0);
        assert_eq!(z, PathIdBits::zero(0));
        // Width-respecting ops are no-ops, not panics.
        let mut a = PathIdBits::zero(0);
        a.or_assign(&z);
        a.and_assign(&z);
        assert!(a.contains_or_equal(&z) && !a.contains(&z));
        assert!(!a.intersects(&z));
    }

    #[test]
    fn and_assign_masks_across_words() {
        let mut b = PathIdBits::zero(130);
        for pos in [1, 64, 65, 100, 130] {
            b.set(pos);
        }
        let mut mask = PathIdBits::zero(130);
        for pos in [1, 65, 130] {
            mask.set(pos);
        }
        b.and_assign(&mask);
        assert_eq!(b.ones().collect::<Vec<_>>(), vec![1, 65, 130]);
        b.and_assign(&PathIdBits::zero(130));
        assert!(b.is_zero());
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn set_out_of_range_panics() {
        let mut b = PathIdBits::zero(4);
        b.set(5);
    }

    /// Positional spec of `ones()` (what the old per-word `flat_map`
    /// implementation computed): every `i` with bit `i` set, ascending.
    fn ones_reference(b: &PathIdBits) -> Vec<u32> {
        (1..=b.nbits()).filter(|&i| b.get(i)).collect()
    }

    #[test]
    fn ones_matches_reference_across_widths() {
        for width in [1u32, 64, 65, 200] {
            // Empty, full, and a family of stride patterns that exercise
            // word boundaries (positions 1, 64, 65, 128, 129, …).
            let mut patterns: Vec<PathIdBits> = vec![PathIdBits::zero(width)];
            let mut full = PathIdBits::zero(width);
            for i in 1..=width {
                full.set(i);
            }
            patterns.push(full);
            for stride in [1u32, 2, 3, 7, 63, 64, 65] {
                let mut b = PathIdBits::zero(width);
                let mut i = 1;
                while i <= width {
                    b.set(i);
                    i += stride;
                }
                patterns.push(b);
            }
            for (offset, b) in patterns.iter().enumerate() {
                let got: Vec<u32> = b.ones().collect();
                assert_eq!(got, ones_reference(b), "width {width}, pattern {offset}");
                assert_eq!(got.len() as u32, b.count_ones());
            }
        }
    }
}
