//! Word-level bit-kernel primitives shared by every bitset in the system.
//!
//! [`PathIdBits`](crate::PathIdBits), the rows and columns of
//! [`PidContainmentRelation`](crate::PidContainmentRelation), and the
//! pid-index bitmaps of the bit-parallel join kernel all reduce their set
//! operations to the same handful of loops over `&[u64]` slices. Centralizing them here
//! keeps one tuned implementation: each loop processes **4 words per
//! iteration into independent accumulators** — plain Rust the compiler
//! autovectorizes (the workspace is registry-free, so no SIMD crates) —
//! with a chunk-granular early exit for the predicates.
//!
//! Slices of different lengths are fine everywhere: the missing tail of
//! the shorter slice is treated as zero words.

/// Width of one accumulator chunk. Four `u64` lanes match a 256-bit
/// vector register and leave the predicates' early exit coarse enough
/// not to defeat vectorization.
const CHUNK: usize = 4;

/// `a ∩ b ≠ ∅` — any bit set in both slices. Missing tails are zero.
#[inline]
pub fn intersects(a: &[u64], b: &[u64]) -> bool {
    let n = a.len().min(b.len());
    let (ac, at) = a[..n].split_at(n - n % CHUNK);
    let (bc, bt) = b[..n].split_at(n - n % CHUNK);
    for (aw, bw) in ac.chunks_exact(CHUNK).zip(bc.chunks_exact(CHUNK)) {
        let or = (aw[0] & bw[0]) | (aw[1] & bw[1]) | (aw[2] & bw[2]) | (aw[3] & bw[3]);
        if or != 0 {
            return true;
        }
    }
    at.iter().zip(bt).any(|(x, y)| x & y != 0)
}

/// `sub ⊆ sup` — no bit of `sub` outside `sup`. Missing tails are zero,
/// so any nonzero word of `sub` past `sup`'s length refutes the subset.
#[inline]
pub fn is_subset(sub: &[u64], sup: &[u64]) -> bool {
    let n = sub.len().min(sup.len());
    let (sc, st) = sub[..n].split_at(n - n % CHUNK);
    let (pc, _) = sup[..n].split_at(n - n % CHUNK);
    for (sw, pw) in sc.chunks_exact(CHUNK).zip(pc.chunks_exact(CHUNK)) {
        let stray = (sw[0] & !pw[0]) | (sw[1] & !pw[1]) | (sw[2] & !pw[2]) | (sw[3] & !pw[3]);
        if stray != 0 {
            return false;
        }
    }
    if !st
        .iter()
        .zip(&sup[n - st.len()..n])
        .all(|(s, p)| s & !p == 0)
    {
        return false;
    }
    sub[n..].iter().all(|&w| w == 0)
}

/// Total set bits, 4-wide accumulation.
#[inline]
pub fn count_ones(a: &[u64]) -> u32 {
    let (chunks, tail) = a.split_at(a.len() - a.len() % CHUNK);
    let mut acc = [0u32; CHUNK];
    for c in chunks.chunks_exact(CHUNK) {
        acc[0] += c[0].count_ones();
        acc[1] += c[1].count_ones();
        acc[2] += c[2].count_ones();
        acc[3] += c[3].count_ones();
    }
    acc.iter().sum::<u32>() + tail.iter().map(|w| w.count_ones()).sum::<u32>()
}

/// `dst |= src` over the common prefix (`src` may be shorter; its missing
/// tail is zero and contributes nothing).
#[inline]
pub fn or_assign(dst: &mut [u64], src: &[u64]) {
    let n = dst.len().min(src.len());
    for (d, s) in dst[..n].iter_mut().zip(&src[..n]) {
        *d |= s;
    }
}

/// `dst &= src`; words of `dst` past `src`'s length are cleared (the
/// missing tail of `src` is zero).
#[inline]
pub fn and_assign(dst: &mut [u64], src: &[u64]) {
    let n = dst.len().min(src.len());
    for (d, s) in dst[..n].iter_mut().zip(&src[..n]) {
        *d &= s;
    }
    for d in &mut dst[n..] {
        *d = 0;
    }
}

/// Sets bit `i` of an LSB-first *index bitmap* (bit `i` lives at word
/// `i / 64`, offset `i % 64` — the layout used for sets of dense pid
/// indices, distinct from the MSB-first 1-based layout of
/// [`PathIdBits`](crate::PathIdBits)).
#[inline]
pub fn set_bit(a: &mut [u64], i: usize) {
    a[i / 64] |= 1u64 << (i % 64);
}

/// Tests bit `i` of an LSB-first index bitmap.
#[inline]
pub fn test_bit(a: &[u64], i: usize) -> bool {
    a[i / 64] & (1u64 << (i % 64)) != 0
}

/// Whether every word is zero.
#[inline]
pub fn is_empty(a: &[u64]) -> bool {
    let (chunks, tail) = a.split_at(a.len() - a.len() % CHUNK);
    for c in chunks.chunks_exact(CHUNK) {
        if c[0] | c[1] | c[2] | c[3] != 0 {
            return false;
        }
    }
    tail.iter().all(|&w| w == 0)
}

/// Iterates the set-bit indices of an LSB-first index bitmap, ascending.
#[inline]
pub fn ones(a: &[u64]) -> IndexOnes<'_> {
    IndexOnes {
        words: a,
        wi: 0,
        cur: a.first().copied().unwrap_or(0),
    }
}

/// Iterator over set-bit indices of an LSB-first index bitmap (see
/// [`ones`]).
#[derive(Clone, Debug)]
pub struct IndexOnes<'a> {
    words: &'a [u64],
    wi: usize,
    cur: u64,
}

impl Iterator for IndexOnes<'_> {
    type Item = usize;

    #[inline]
    fn next(&mut self) -> Option<usize> {
        while self.cur == 0 {
            self.wi += 1;
            self.cur = *self.words.get(self.wi)?;
        }
        let bit = self.cur.trailing_zeros() as usize;
        self.cur &= self.cur - 1;
        Some(self.wi * 64 + bit)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Reference implementations padded to a common length.
    fn padded(a: &[u64], b: &[u64]) -> (Vec<u64>, Vec<u64>) {
        let n = a.len().max(b.len());
        let mut pa = a.to_vec();
        let mut pb = b.to_vec();
        pa.resize(n, 0);
        pb.resize(n, 0);
        (pa, pb)
    }

    fn cases() -> Vec<(Vec<u64>, Vec<u64>)> {
        let mut out = vec![
            (vec![], vec![]),
            (vec![0], vec![]),
            (vec![1, 2, 3], vec![3, 2]),
            (vec![u64::MAX; 9], vec![u64::MAX; 9]),
            (vec![0; 9], vec![u64::MAX; 8]),
        ];
        // Deterministic pseudo-random rows across chunk boundaries.
        let mut x = 0x9E3779B97F4A7C15u64;
        let mut next = move || {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x
        };
        for la in [1usize, 3, 4, 5, 8, 11] {
            for lb in [1usize, 4, 7, 12] {
                let a: Vec<u64> = (0..la).map(|_| next() & next()).collect();
                let mut b: Vec<u64> = (0..lb).map(|_| next() & next()).collect();
                // Bias towards actual subsets now and then.
                if la <= lb && next() % 2 == 0 {
                    for (i, w) in a.iter().enumerate() {
                        b[i] |= w;
                    }
                }
                out.push((a, b));
            }
        }
        out
    }

    #[test]
    fn predicates_match_padded_reference() {
        for (a, b) in cases() {
            let (pa, pb) = padded(&a, &b);
            let ref_inter = pa.iter().zip(&pb).any(|(x, y)| x & y != 0);
            let ref_subset = pa.iter().zip(&pb).all(|(x, y)| x & !y == 0);
            assert_eq!(intersects(&a, &b), ref_inter, "{a:?} {b:?}");
            assert_eq!(intersects(&b, &a), ref_inter);
            assert_eq!(is_subset(&a, &b), ref_subset, "{a:?} {b:?}");
            assert_eq!(
                count_ones(&a),
                a.iter().map(|w| w.count_ones()).sum::<u32>()
            );
        }
    }

    #[test]
    fn assign_ops_match_padded_reference() {
        for (a, b) in cases() {
            let (pa, pb) = padded(&a, &b);
            let mut or = a.clone();
            or_assign(&mut or, &b);
            let mut and = a.clone();
            and_assign(&mut and, &b);
            for i in 0..a.len() {
                assert_eq!(or[i], pa[i] | pb[i], "or word {i}");
                assert_eq!(and[i], pa[i] & pb[i], "and word {i}");
            }
        }
    }

    #[test]
    fn index_bitmap_ops_round_trip() {
        let mut bm = vec![0u64; 3];
        assert!(is_empty(&bm));
        assert_eq!(ones(&bm).count(), 0);
        assert_eq!(ones(&[]).count(), 0);
        for i in [0usize, 1, 63, 64, 65, 127, 128, 191] {
            set_bit(&mut bm, i);
        }
        assert!(!is_empty(&bm));
        for i in 0..192 {
            assert_eq!(
                test_bit(&bm, i),
                [0usize, 1, 63, 64, 65, 127, 128, 191].contains(&i),
                "bit {i}"
            );
        }
        assert_eq!(
            ones(&bm).collect::<Vec<_>>(),
            vec![0, 1, 63, 64, 65, 127, 128, 191]
        );
        // Longer bitmaps exercise the chunked is_empty path.
        let mut long = vec![0u64; 11];
        assert!(is_empty(&long));
        set_bit(&mut long, 64 * 10 + 3);
        assert!(!is_empty(&long));
        assert_eq!(ones(&long).collect::<Vec<_>>(), vec![643]);
    }
}
