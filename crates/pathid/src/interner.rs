//! Interning of path-id bit sequences.
//!
//! Documents have few distinct path ids relative to their element count
//! (paper Table 3: SSPlays has 115 for 179,690 elements), so every
//! per-element and per-table reference is a 4-byte [`Pid`] handle into a
//! [`PidInterner`].

use std::fmt;

use crate::bits::PathIdBits;

/// Handle to an interned path id.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Pid(pub(crate) u32);

impl Pid {
    /// Dense index into the interner.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }

    /// Builds a handle from a dense index.
    ///
    /// # Panics
    ///
    /// Panics if `index` does not fit in `u32`.
    #[inline]
    pub fn from_index(index: usize) -> Self {
        Pid(u32::try_from(index).expect("pid index overflows u32"))
    }
}

impl fmt::Debug for Pid {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Pid({})", self.0)
    }
}

/// Append-only table of distinct path-id bit sequences, indexed by
/// [`Pid`]. The table itself never looks for an equal id: the
/// [`StreamLabeler`](crate::StreamLabeler) pushes each distinct id once
/// (its own row map dedupes them), and [`decode`](Self::decode) keeps
/// every stored id under its stored handle.
#[derive(Clone, Debug)]
pub struct PidInterner {
    width: u32,
    pids: Vec<PathIdBits>,
}

impl PidInterner {
    /// Creates an interner for ids of `width` bits (the number of distinct
    /// root-to-leaf paths).
    pub fn new(width: u32) -> Self {
        PidInterner {
            width,
            pids: Vec::new(),
        }
    }

    /// Width in bits of every id in this interner.
    #[inline]
    pub fn width(&self) -> u32 {
        self.width
    }

    /// Appends `bits` under the next handle and returns it.
    ///
    /// # Panics
    ///
    /// Panics if `bits` has the wrong width.
    pub fn push(&mut self, bits: PathIdBits) -> Pid {
        assert_eq!(bits.nbits(), self.width, "path id width mismatch");
        let p = Pid(u32::try_from(self.pids.len()).expect("too many distinct pids"));
        self.pids.push(bits);
        p
    }

    /// The bit sequence of `pid`.
    #[inline]
    pub fn bits(&self, pid: Pid) -> &PathIdBits {
        &self.pids[pid.index()]
    }

    /// Number of distinct path ids.
    pub fn len(&self) -> usize {
        self.pids.len()
    }

    /// True when nothing has been interned.
    pub fn is_empty(&self) -> bool {
        self.pids.is_empty()
    }

    /// Iterates over `(pid, bits)` in handle order.
    pub fn iter(&self) -> impl Iterator<Item = (Pid, &PathIdBits)> {
        self.pids
            .iter()
            .enumerate()
            .map(|(i, b)| (Pid(i as u32), b))
    }

    /// Strict containment between two interned ids (paper §2 Case 2).
    pub fn contains(&self, a: Pid, b: Pid) -> bool {
        self.bits(a).contains(self.bits(b))
    }

    /// Containment or equality between two interned ids.
    pub fn contains_or_equal(&self, a: Pid, b: Pid) -> bool {
        self.bits(a).contains_or_equal(self.bits(b))
    }

    /// Serializes the interner (summary persistence). Ids are stored as
    /// set-bit position lists, which is compact for the sparse ids real
    /// documents produce.
    pub fn encode(&self, buf: &mut Vec<u8>) {
        xpe_xml::wire::put_u32(buf, self.width);
        xpe_xml::wire::put_u32(buf, self.pids.len() as u32);
        for bits in &self.pids {
            xpe_xml::wire::put_u32(buf, bits.count_ones());
            for pos in bits.ones() {
                xpe_xml::wire::put_u32(buf, pos);
            }
        }
    }

    /// Deserializes an interner encoded by [`encode`](Self::encode),
    /// keeping every stored id under its stored handle.
    ///
    /// The stored width must equal `width`, and it is checked **before
    /// any bit sequence is allocated**. The width sizes every decoded
    /// [`PathIdBits`], so in a corrupt or hostile image it is an
    /// allocation amplifier — `u32::MAX` means half a gigabyte of zeroed
    /// words *per pid*. Summary decode knows the true width independently
    /// (the encoding table's path count, decoded just before) and passes
    /// it here.
    pub fn decode(
        r: &mut xpe_xml::wire::Reader<'_>,
        width: u32,
    ) -> Result<Self, xpe_xml::wire::WireError> {
        if r.u32()? != width {
            return Err(xpe_xml::wire::WireError::BadHeader(
                "pid width disagrees with encoding table",
            ));
        }
        let n = r.u32()? as usize;
        let mut pids = Vec::with_capacity(xpe_xml::wire::cap_alloc(n));
        for _ in 0..n {
            let ones = r.u32()? as usize;
            let mut bits = PathIdBits::zero(width);
            for _ in 0..ones {
                let pos = r.u32()?;
                if pos == 0 || pos > width {
                    return Err(xpe_xml::wire::WireError::BadHeader(
                        "pid bit position out of range",
                    ));
                }
                bits.set(pos);
            }
            pids.push(bits);
        }
        Ok(PidInterner { width, pids })
    }

    /// Size of the flat path-id table under the paper's accounting:
    /// `#distinct ids × ⌈width / 8⌉` (Table 3's "PidTab").
    pub fn table_size_bytes(&self) -> usize {
        self.pids.len() * (self.width as usize).div_ceil(8)
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
    fn push_appends_in_handle_order() {
        let mut i = PidInterner::new(4);
        let a = i.push(from_str("0011"));
        let b = i.push(from_str("0010"));
        assert_eq!((a.index(), b.index()), (0, 1));
        assert_eq!(i.len(), 2);
        assert_eq!(i.bits(b), &from_str("0010"));
    }

    #[test]
    fn decode_keeps_handles_and_checks_the_width() {
        let mut i = PidInterner::new(4);
        i.push(from_str("0011"));
        i.push(from_str("0011"));
        i.push(from_str("0100"));
        let mut buf = Vec::new();
        i.encode(&mut buf);
        let back = PidInterner::decode(&mut xpe_xml::wire::Reader::new(&buf), 4).unwrap();
        assert_eq!(back.len(), 3, "an equal stored id keeps its own handle");
        for (pid, bits) in i.iter() {
            assert_eq!(back.bits(pid), bits);
        }
        assert!(matches!(
            PidInterner::decode(&mut xpe_xml::wire::Reader::new(&buf), 5),
            Err(xpe_xml::wire::WireError::BadHeader(_))
        ));
    }

    #[test]
    fn containment_via_handles() {
        let mut i = PidInterner::new(4);
        let p3 = i.push(from_str("0011"));
        let p2 = i.push(from_str("0010"));
        assert!(i.contains(p3, p2));
        assert!(!i.contains(p2, p3));
        assert!(!i.contains(p3, p3));
        assert!(i.contains_or_equal(p3, p3));
    }

    #[test]
    fn table_size_matches_paper_model() {
        // XMark-style: 344-bit ids → 43 bytes each.
        let mut i = PidInterner::new(344);
        i.push(PathIdBits::single(344, 1));
        i.push(PathIdBits::single(344, 2));
        assert_eq!(i.table_size_bytes(), 2 * 43);
    }

    #[test]
    #[should_panic(expected = "width mismatch")]
    fn width_mismatch_panics() {
        let mut i = PidInterner::new(4);
        i.push(PathIdBits::zero(5));
    }
}
