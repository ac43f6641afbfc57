//! The p-histogram (paper §6, Figure 7, Algorithm 1).
//!
//! One histogram per distinct element tag summarizes the tag's
//! pathId-frequency row. Buckets hold a set of path ids and their average
//! frequency; the intra-bucket frequency *variance* (the paper's formula is
//! a standard deviation) is bounded by the construction threshold `v`, so
//! `v = 0` stores exact frequencies (equal-frequency ids can still share a
//! bucket, which is what makes the structure compact even when lossless).

use std::collections::HashMap;

use xpe_pathid::Pid;
use xpe_xml::TagId;

use crate::freq::PathIdFrequencyTable;

/// One bucket of a [`PHistogram`].
#[derive(Clone, Debug)]
pub struct PBucket {
    /// Path ids grouped into this bucket, in frequency-sorted order.
    pub pids: Vec<Pid>,
    /// Average frequency of the bucket's ids.
    pub avg: f64,
}

/// The p-histogram of one element tag.
#[derive(Clone, Debug, Default)]
pub struct PHistogram {
    buckets: Vec<PBucket>,
    bucket_of: HashMap<Pid, u32>,
    // Flattened (pid, bucket-average) pairs in histogram order. Derived
    // from `buckets` at construction so the estimator's join loop can
    // borrow a contiguous slice instead of re-materializing the iterator
    // per node per query. Not persisted; rebuilt on decode.
    entry_list: Vec<(Pid, f64)>,
}

impl PHistogram {
    /// Builds the histogram from a `(pid, frequency)` row (paper
    /// Algorithm 1): sort by frequency, then greedily grow buckets while
    /// the intra-bucket deviation stays within `variance`.
    pub fn build(row: &[(Pid, u64)], variance: f64) -> Self {
        let mut sorted: Vec<(Pid, u64)> = row.to_vec();
        sorted.sort_by_key(|&(_, f)| f);

        let mut buckets: Vec<PBucket> = Vec::new();
        let mut i = 0;
        while i < sorted.len() {
            // Grow [i, j) while the deviation of the frequencies stays ≤ v.
            let mut sum = 0.0f64;
            let mut sumsq = 0.0f64;
            let mut j = i;
            while j < sorted.len() {
                let f = sorted[j].1 as f64;
                let k = (j - i + 1) as f64;
                let nsum = sum + f;
                let nsumsq = sumsq + f * f;
                let dev = (nsumsq / k - (nsum / k) * (nsum / k)).max(0.0).sqrt();
                if dev > variance && j > i {
                    break;
                }
                // A single element always fits (deviation 0).
                sum = nsum;
                sumsq = nsumsq;
                j += 1;
            }
            let pids: Vec<Pid> = sorted[i..j].iter().map(|&(p, _)| p).collect();
            let avg = sum / (j - i) as f64;
            buckets.push(PBucket { pids, avg });
            i = j;
        }

        PHistogram::from_buckets(buckets)
    }

    /// Ablation variant: equi-width bucketing — the frequency-sorted row is
    /// cut into `bucket_count` equal-population buckets regardless of
    /// intra-bucket skew. Used by the `ablation` harness to quantify what
    /// the paper's variance threshold buys at matched bucket counts.
    pub fn build_equi_width(row: &[(Pid, u64)], bucket_count: usize) -> Self {
        let mut sorted: Vec<(Pid, u64)> = row.to_vec();
        sorted.sort_by_key(|&(_, f)| f);
        let k = bucket_count.max(1).min(sorted.len().max(1));
        let mut buckets = Vec::with_capacity(k);
        if !sorted.is_empty() {
            let per = sorted.len().div_ceil(k);
            for chunk in sorted.chunks(per) {
                let avg = chunk.iter().map(|&(_, f)| f as f64).sum::<f64>() / chunk.len() as f64;
                buckets.push(PBucket {
                    pids: chunk.iter().map(|&(p, _)| p).collect(),
                    avg,
                });
            }
        }
        PHistogram::from_buckets(buckets)
    }

    /// Rebuilds a histogram from its buckets (persistence, ablations).
    pub fn from_buckets(buckets: Vec<PBucket>) -> Self {
        let mut bucket_of = HashMap::new();
        let mut entry_list = Vec::new();
        for (bi, b) in buckets.iter().enumerate() {
            for &p in &b.pids {
                bucket_of.insert(p, bi as u32);
                entry_list.push((p, b.avg));
            }
        }
        PHistogram {
            buckets,
            bucket_of,
            entry_list,
        }
    }

    /// Serializes the histogram (summary persistence).
    pub fn encode(&self, buf: &mut Vec<u8>) {
        xpe_xml::wire::put_u32(buf, self.buckets.len() as u32);
        for b in &self.buckets {
            xpe_xml::wire::put_f64(buf, b.avg);
            xpe_xml::wire::put_u32(buf, b.pids.len() as u32);
            for p in &b.pids {
                xpe_xml::wire::put_u32(buf, p.index() as u32);
            }
        }
    }

    /// Deserializes a histogram encoded by [`encode`](Self::encode).
    pub fn decode(r: &mut xpe_xml::wire::Reader<'_>) -> Result<Self, xpe_xml::wire::WireError> {
        let nb = r.u32()? as usize;
        let mut buckets = Vec::with_capacity(xpe_xml::wire::cap_alloc(nb));
        for _ in 0..nb {
            let avg = r.f64()?;
            let np = r.u32()? as usize;
            let mut pids = Vec::with_capacity(xpe_xml::wire::cap_alloc(np));
            for _ in 0..np {
                pids.push(Pid::from_index(r.u32()? as usize));
            }
            buckets.push(PBucket { pids, avg });
        }
        Ok(PHistogram::from_buckets(buckets))
    }

    /// Estimated frequency of `pid`: the average of its bucket, or `None`
    /// if the tag never occurs with `pid`.
    pub fn frequency(&self, pid: Pid) -> Option<f64> {
        self.bucket_of
            .get(&pid)
            .map(|&bi| self.buckets[bi as usize].avg)
    }

    /// All path ids of this tag with their estimated frequencies, in
    /// histogram order (ascending bucket average). This is the pid order
    /// the o-histogram's columns use (paper Algorithm 2, step 1).
    pub fn entries(&self) -> impl Iterator<Item = (Pid, f64)> + '_ {
        self.entry_list.iter().copied()
    }

    /// [`entries`](Self::entries) as a borrowed contiguous slice — the
    /// zero-copy form the estimator's join loop seeds its lists from.
    pub fn entries_slice(&self) -> &[(Pid, f64)] {
        &self.entry_list
    }

    /// The buckets, ascending by average frequency.
    pub fn buckets(&self) -> &[PBucket] {
        &self.buckets
    }

    /// Number of path ids summarized.
    pub fn pid_count(&self) -> usize {
        self.bucket_of.len()
    }

    /// Byte size under the paper-calibrated model: 4 bytes per bucket (the
    /// average) plus 4 bytes per pid reference. See DESIGN.md.
    pub fn size_bytes(&self) -> usize {
        self.buckets
            .iter()
            .map(|b| 4 + 4 * b.pids.len())
            .sum::<usize>()
    }
}

/// The p-histograms of every tag in a document, built at one variance
/// threshold.
#[derive(Clone, Debug)]
pub struct PHistogramSet {
    per_tag: Vec<PHistogram>,
    variance: f64,
}

impl PHistogramSet {
    /// Builds one histogram per tag from the exact table.
    pub fn build(table: &PathIdFrequencyTable, variance: f64) -> Self {
        let per_tag = (0..table.tag_count())
            .map(|t| PHistogram::build(table.row(TagId::from_index(t)), variance))
            .collect();
        PHistogramSet { per_tag, variance }
    }

    /// Ablation variant: equi-width buckets per tag, using the same bucket
    /// counts the variance-threshold construction produced at `variance`
    /// (so sizes match and only the partitioning strategy differs).
    pub fn build_equi_width_like(table: &PathIdFrequencyTable, variance: f64) -> Self {
        let per_tag = (0..table.tag_count())
            .map(|t| {
                let row = table.row(TagId::from_index(t));
                let reference = PHistogram::build(row, variance);
                PHistogram::build_equi_width(row, reference.buckets().len())
            })
            .collect();
        PHistogramSet { per_tag, variance }
    }

    /// Rebuilds a set from parts (persistence).
    pub fn from_parts(per_tag: Vec<PHistogram>, variance: f64) -> Self {
        PHistogramSet { per_tag, variance }
    }

    /// Serializes the set (summary persistence).
    pub fn encode(&self, buf: &mut Vec<u8>) {
        xpe_xml::wire::put_f64(buf, self.variance);
        xpe_xml::wire::put_u32(buf, self.per_tag.len() as u32);
        for h in &self.per_tag {
            h.encode(buf);
        }
    }

    /// Deserializes a set encoded by [`encode`](Self::encode).
    pub fn decode(r: &mut xpe_xml::wire::Reader<'_>) -> Result<Self, xpe_xml::wire::WireError> {
        let variance = r.f64()?;
        let n = r.u32()? as usize;
        let mut per_tag = Vec::with_capacity(xpe_xml::wire::cap_alloc(n));
        for _ in 0..n {
            per_tag.push(PHistogram::decode(r)?);
        }
        Ok(PHistogramSet { per_tag, variance })
    }

    /// The histogram of `tag`.
    pub fn histogram(&self, tag: TagId) -> &PHistogram {
        &self.per_tag[tag.index()]
    }

    /// The construction threshold.
    pub fn variance(&self) -> f64 {
        self.variance
    }

    /// Number of per-tag histograms.
    pub fn tag_count(&self) -> usize {
        self.per_tag.len()
    }

    /// Total byte size across tags.
    pub fn size_bytes(&self) -> usize {
        self.per_tag.iter().map(PHistogram::size_bytes).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pid(i: usize) -> Pid {
        Pid::from_index(i)
    }

    #[test]
    fn paper_figure7_variance_0_and_1() {
        // Figure 7's list: (p2,2) (p3,2) (p1,5) (p5,7).
        let row = vec![(pid(2), 2), (pid(3), 2), (pid(1), 5), (pid(5), 7)];

        // v = 0: three buckets — {p2,p3}@2, {p1}@5, {p5}@7.
        let h0 = PHistogram::build(&row, 0.0);
        assert_eq!(h0.buckets().len(), 3);
        assert_eq!(h0.buckets()[0].pids.len(), 2);
        assert_eq!(h0.buckets()[0].avg, 2.0);
        assert_eq!(h0.frequency(pid(1)), Some(5.0));
        assert_eq!(h0.frequency(pid(5)), Some(7.0));

        // v = 1: two buckets — {p2,p3}@2 and {p1,p5}@6 (dev({2,2,5}) ≈ 1.41
        // exceeds 1, so p1 starts a new bucket; dev({5,7}) = 1 fits).
        let h1 = PHistogram::build(&row, 1.0);
        assert_eq!(h1.buckets().len(), 2);
        assert_eq!(h1.frequency(pid(2)), Some(2.0));
        assert_eq!(h1.frequency(pid(1)), Some(6.0));
        assert_eq!(h1.frequency(pid(5)), Some(6.0));
    }

    #[test]
    fn variance_zero_is_exact() {
        let row = vec![(pid(0), 3), (pid(1), 3), (pid(2), 9), (pid(3), 1)];
        let h = PHistogram::build(&row, 0.0);
        for &(p, f) in &row {
            assert_eq!(h.frequency(p), Some(f as f64));
        }
        assert_eq!(h.frequency(pid(9)), None);
    }

    #[test]
    fn huge_variance_collapses_to_one_bucket() {
        let row = vec![(pid(0), 1), (pid(1), 100), (pid(2), 10_000)];
        let h = PHistogram::build(&row, 1e9);
        assert_eq!(h.buckets().len(), 1);
        let avg = (1.0 + 100.0 + 10_000.0) / 3.0;
        assert_eq!(h.frequency(pid(2)), Some(avg));
    }

    #[test]
    fn entries_are_frequency_sorted() {
        let row = vec![(pid(0), 9), (pid(1), 1), (pid(2), 5)];
        let h = PHistogram::build(&row, 0.0);
        let freqs: Vec<f64> = h.entries().map(|(_, f)| f).collect();
        assert_eq!(freqs, vec![1.0, 5.0, 9.0]);
    }

    #[test]
    fn size_shrinks_with_variance() {
        let row: Vec<(Pid, u64)> = (0..32).map(|i| (pid(i), (i as u64) * 3 + 1)).collect();
        let tight = PHistogram::build(&row, 0.0);
        let loose = PHistogram::build(&row, 100.0);
        assert!(loose.buckets().len() < tight.buckets().len());
        assert!(loose.size_bytes() < tight.size_bytes());
    }

    #[test]
    fn empty_row_builds_empty_histogram() {
        let h = PHistogram::build(&[], 0.0);
        assert_eq!(h.buckets().len(), 0);
        assert_eq!(h.pid_count(), 0);
        assert_eq!(h.size_bytes(), 0);
        assert_eq!(h.frequency(pid(0)), None);
    }

    #[test]
    fn set_builds_per_tag() {
        let doc = xpe_xml::fixtures::paper_figure1();
        let lab = xpe_pathid::Labeling::compute(&doc);
        let table = PathIdFrequencyTable::build(&doc, &lab);
        let set = PHistogramSet::build(&table, 0.0);
        assert_eq!(set.tag_count(), 7);
        // At v=0 every (tag, pid) frequency is exact.
        for (tag, _) in doc.tags().iter() {
            for &(p, f) in table.row(tag) {
                assert_eq!(set.histogram(tag).frequency(p), Some(f as f64));
            }
        }
        assert!(set.size_bytes() > 0);
    }
}
