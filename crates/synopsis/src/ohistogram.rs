//! The o-histogram (paper §6, Figure 8, Algorithm 2).
//!
//! Summarizes each tag's path-order table as a set of rectangular buckets
//! `(x.start, y.start, x.end, y.end, frequency)` over a grid whose columns
//! are the tag's path ids *in p-histogram order* and whose rows are the
//! `+element` region (one row per tag, alphabetically) followed by the
//! `element+` region. Buckets grow from each uncovered non-empty cell —
//! first along the row, then across subsequent rows — while the box's
//! frequency deviation stays within the threshold.
//!
//! The grid is sparse (paper §6): most rows of a tag are empty, and an
//! empty row stops every box, so each tag's grid holds only its non-empty
//! rows, with their numbers in the full layout.

use std::collections::HashMap;

use xpe_pathid::Pid;
use xpe_xml::{TagId, TagInterner};

use crate::order::PathOrderTable;
use crate::phistogram::PHistogramSet;

/// Which region of the path-order table a lookup addresses.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Region {
    /// `+element`: X occurs before the sibling tag.
    Before,
    /// `element+`: X occurs after the sibling tag.
    After,
}

/// One rectangular bucket (coordinates are 0-based, inclusive).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct OBucket {
    /// First column.
    pub x_start: u32,
    /// First row.
    pub y_start: u32,
    /// Last column (inclusive).
    pub x_end: u32,
    /// Last row (inclusive).
    pub y_end: u32,
    /// Average frequency over every cell in the box (zeros included).
    pub avg: f64,
}

impl OBucket {
    fn contains(&self, x: u32, y: u32) -> bool {
        x >= self.x_start && x <= self.x_end && y >= self.y_start && y <= self.y_end
    }
}

/// The o-histogram of one element tag.
#[derive(Clone, Debug, Default)]
pub struct OHistogram {
    buckets: Vec<OBucket>,
    /// Column of each path id (p-histogram order).
    col_of: HashMap<Pid, u32>,
}

impl OHistogram {
    /// Estimated `g(pid, y_tag)` for the given region; 0 when the cell is
    /// outside every bucket.
    pub fn count(&self, pid: Pid, y_row: u32) -> f64 {
        let Some(&x) = self.col_of.get(&pid) else {
            return 0.0;
        };
        self.buckets
            .iter()
            .find(|b| b.contains(x, y_row))
            .map(|b| b.avg)
            .unwrap_or(0.0)
    }

    /// The buckets of this histogram.
    pub fn buckets(&self) -> &[OBucket] {
        &self.buckets
    }

    /// Serializes the histogram (summary persistence).
    pub fn encode(&self, buf: &mut Vec<u8>) {
        xpe_xml::wire::put_u32(buf, self.buckets.len() as u32);
        for b in &self.buckets {
            xpe_xml::wire::put_u32(buf, b.x_start);
            xpe_xml::wire::put_u32(buf, b.y_start);
            xpe_xml::wire::put_u32(buf, b.x_end);
            xpe_xml::wire::put_u32(buf, b.y_end);
            xpe_xml::wire::put_f64(buf, b.avg);
        }
        xpe_xml::wire::put_u32(buf, self.col_of.len() as u32);
        let mut cols: Vec<(Pid, u32)> = self.col_of.iter().map(|(&p, &c)| (p, c)).collect();
        cols.sort_unstable_by_key(|&(p, _)| p);
        for (p, c) in cols {
            xpe_xml::wire::put_u32(buf, p.index() as u32);
            xpe_xml::wire::put_u32(buf, c);
        }
    }

    /// Deserializes a histogram encoded by [`encode`](Self::encode).
    pub fn decode(r: &mut xpe_xml::wire::Reader<'_>) -> Result<Self, xpe_xml::wire::WireError> {
        let nb = r.u32()? as usize;
        let mut buckets = Vec::with_capacity(xpe_xml::wire::cap_alloc(nb));
        for _ in 0..nb {
            buckets.push(OBucket {
                x_start: r.u32()?,
                y_start: r.u32()?,
                x_end: r.u32()?,
                y_end: r.u32()?,
                avg: r.f64()?,
            });
        }
        let nc = r.u32()? as usize;
        let mut col_of = HashMap::with_capacity(xpe_xml::wire::cap_alloc(nc));
        for _ in 0..nc {
            let p = Pid::from_index(r.u32()? as usize);
            let c = r.u32()?;
            col_of.insert(p, c);
        }
        Ok(OHistogram { buckets, col_of })
    }

    /// Byte size: five fields of the paper's bucket format — four 2-byte
    /// coordinates plus a 4-byte frequency.
    pub fn size_bytes(&self) -> usize {
        self.buckets.len() * 12
    }
}

/// O-histograms for every tag, plus the shared row layout.
#[derive(Clone, Debug)]
pub struct OHistogramSet {
    per_tag: Vec<OHistogram>,
    /// Alphabetical rank of every tag (row order within a region).
    rank_of: Vec<u32>,
    tag_count: usize,
    variance: f64,
}

impl OHistogramSet {
    /// Builds one histogram per tag (paper Algorithm 2). Columns follow
    /// each tag's p-histogram pid order; rows are the `+element` region
    /// rows (tags alphabetically) followed by the `element+` region rows.
    pub fn build(
        order: &PathOrderTable,
        phist: &PHistogramSet,
        tags: &TagInterner,
        variance: f64,
    ) -> Self {
        Self::build_impl(order, phist, tags, variance, true)
    }

    /// Ablation variant: one bucket per non-empty cell — no box growth.
    /// Lossless like variance 0, but without the space savings of merged
    /// rectangles; the `ablation` harness uses it to quantify what
    /// Algorithm 2's box growth buys.
    pub fn build_single_cell(
        order: &PathOrderTable,
        phist: &PHistogramSet,
        tags: &TagInterner,
    ) -> Self {
        Self::build_impl(order, phist, tags, 0.0, false)
    }

    fn build_impl(
        order: &PathOrderTable,
        phist: &PHistogramSet,
        tags: &TagInterner,
        variance: f64,
        grow: bool,
    ) -> Self {
        let tag_count = tags.len();
        let mut by_name: Vec<TagId> = tags.iter().map(|(t, _)| t).collect();
        by_name.sort_by_key(|&t| tags.name(t));
        let mut rank_of = vec![0u32; tag_count];
        for (rank, &t) in by_name.iter().enumerate() {
            rank_of[t.index()] = rank as u32;
        }

        let per_tag = (0..tag_count)
            .map(|x| {
                let x_tag = TagId::from_index(x);
                let col_of: HashMap<Pid, u32> = phist
                    .histogram(x_tag)
                    .entries()
                    .enumerate()
                    .map(|(i, (p, _))| (p, i as u32))
                    .collect();
                let cols = col_of.len();
                // (full-layout row, column, count) of every non-empty cell.
                let mut cells = Vec::new();
                for (pid, y_tag, cell) in order.cells_of(x_tag) {
                    let Some(&col) = col_of.get(&pid) else {
                        continue;
                    };
                    let before_row = rank_of[y_tag.index()];
                    let after_row = tag_count as u32 + before_row;
                    if cell.before > 0 {
                        cells.push((before_row, col, cell.before));
                    }
                    if cell.after > 0 {
                        cells.push((after_row, col, cell.after));
                    }
                }
                let mut rows: Vec<u32> = cells.iter().map(|&(row, _, _)| row).collect();
                rows.sort_unstable();
                rows.dedup();
                let mut grid = vec![0.0f64; rows.len() * cols];
                for &(row, col, count) in &cells {
                    let y = rows.binary_search(&row).expect("every cell's row is kept");
                    grid[y * cols + col as usize] = count as f64;
                }
                let buckets = if grow {
                    build_buckets(&grid, &rows, cols, variance)
                } else {
                    single_cell_buckets(&grid, &rows, cols)
                };
                OHistogram { buckets, col_of }
            })
            .collect();

        OHistogramSet {
            per_tag,
            rank_of,
            tag_count,
            variance,
        }
    }

    /// Estimated number of `x_tag` elements with `pid` occurring
    /// before/after a `y_tag` sibling.
    pub fn count(&self, x_tag: TagId, pid: Pid, y_tag: TagId, region: Region) -> f64 {
        let rank = self.rank_of[y_tag.index()];
        let row = match region {
            Region::Before => rank,
            Region::After => self.tag_count as u32 + rank,
        };
        self.per_tag[x_tag.index()].count(pid, row)
    }

    /// The histogram of one tag.
    pub fn histogram(&self, tag: TagId) -> &OHistogram {
        &self.per_tag[tag.index()]
    }

    /// Serializes the set (summary persistence).
    pub fn encode(&self, buf: &mut Vec<u8>) {
        xpe_xml::wire::put_f64(buf, self.variance);
        xpe_xml::wire::put_u32(buf, self.tag_count as u32);
        for &rank in &self.rank_of {
            xpe_xml::wire::put_u32(buf, rank);
        }
        for h in &self.per_tag {
            h.encode(buf);
        }
    }

    /// Deserializes a set encoded by [`encode`](Self::encode).
    pub fn decode(r: &mut xpe_xml::wire::Reader<'_>) -> Result<Self, xpe_xml::wire::WireError> {
        let variance = r.f64()?;
        let tag_count = r.u32()? as usize;
        let mut rank_of = Vec::with_capacity(xpe_xml::wire::cap_alloc(tag_count));
        for _ in 0..tag_count {
            rank_of.push(r.u32()?);
        }
        let mut per_tag = Vec::with_capacity(xpe_xml::wire::cap_alloc(tag_count));
        for _ in 0..tag_count {
            per_tag.push(OHistogram::decode(r)?);
        }
        Ok(OHistogramSet {
            per_tag,
            rank_of,
            tag_count,
            variance,
        })
    }

    /// Checks a decoded set against the tables it indexes: one histogram
    /// per tag, every row rank below the tag count, every column pid below
    /// `pid_count`.
    pub(crate) fn check_handles(
        &self,
        tag_count: usize,
        pid_count: usize,
    ) -> Result<(), xpe_xml::wire::WireError> {
        xpe_xml::wire::check_len("o-histogram set", self.tag_count, tag_count)?;
        for &rank in &self.rank_of {
            xpe_xml::wire::check_index("o-histogram row rank", rank as usize, tag_count)?;
        }
        for pid in self.per_tag.iter().flat_map(|h| h.col_of.keys()) {
            xpe_xml::wire::check_index("o-histogram column pid", pid.index(), pid_count)?;
        }
        Ok(())
    }

    /// The construction threshold.
    pub fn variance(&self) -> f64 {
        self.variance
    }

    /// Total byte size across tags.
    pub fn size_bytes(&self) -> usize {
        self.per_tag.iter().map(OHistogram::size_bytes).sum()
    }

    /// Total bucket count across tags.
    pub fn bucket_count(&self) -> usize {
        self.per_tag.iter().map(|h| h.buckets.len()).sum()
    }
}

/// The bucket-growing pass of Algorithm 2 on a row-major grid of some
/// rows of the full layout: grid row `i` is full-layout row `rows[i]`,
/// ascending, and every row left out is empty. A box grows only into the
/// next full-layout row, so a left-out row stops it, as an empty row
/// does.
///
/// Exposed within the crate for direct unit testing and for the ablation
/// benchmark that compares box growth against single-cell buckets.
pub(crate) fn build_buckets(
    grid: &[f64],
    rows: &[u32],
    cols: usize,
    variance: f64,
) -> Vec<OBucket> {
    let mut covered = vec![false; rows.len() * cols];
    let mut buckets = Vec::new();
    if cols == 0 {
        return buckets;
    }
    let at = |y: usize, x: usize| grid[y * cols + x];

    for y in 0..rows.len() {
        for x in 0..cols {
            if at(y, x) == 0.0 || covered[y * cols + x] {
                continue;
            }
            // Step 1: extend along the row while cells are non-empty,
            // uncovered, and the deviation stays within the threshold.
            let mut sum = at(y, x);
            let mut sumsq = sum * sum;
            let mut n = 1usize;
            let mut x_end = x;
            while x_end + 1 < cols {
                let v = at(y, x_end + 1);
                if v == 0.0 || covered[y * cols + x_end + 1] {
                    break;
                }
                let (ns, nsq, nn) = (sum + v, sumsq + v * v, n + 1);
                if deviation(ns, nsq, nn) > variance {
                    break;
                }
                sum = ns;
                sumsq = nsq;
                n = nn;
                x_end += 1;
            }
            // Step 2: extend the box to subsequent rows until a fully
            // empty row segment, a covered cell, or a deviation overflow.
            let mut y_end = y;
            'rows: while y_end + 1 < rows.len() && rows[y_end + 1] == rows[y_end] + 1 {
                let ny = y_end + 1;
                let mut rsum = 0.0;
                let mut rsumsq = 0.0;
                let mut any = false;
                for cx in x..=x_end {
                    if covered[ny * cols + cx] {
                        break 'rows;
                    }
                    let v = at(ny, cx);
                    if v != 0.0 {
                        any = true;
                    }
                    rsum += v;
                    rsumsq += v * v;
                }
                if !any {
                    break;
                }
                let (ns, nsq, nn) = (sum + rsum, sumsq + rsumsq, n + (x_end - x + 1));
                if deviation(ns, nsq, nn) > variance {
                    break;
                }
                sum = ns;
                sumsq = nsq;
                n = nn;
                y_end = ny;
            }
            for cy in y..=y_end {
                for cx in x..=x_end {
                    covered[cy * cols + cx] = true;
                }
            }
            buckets.push(OBucket {
                x_start: x as u32,
                y_start: rows[y],
                x_end: x_end as u32,
                y_end: rows[y_end],
                avg: sum / n as f64,
            });
        }
    }
    buckets
}

/// One bucket per non-empty cell (the no-box-growth ablation), on the
/// grid [`build_buckets`] takes.
fn single_cell_buckets(grid: &[f64], rows: &[u32], cols: usize) -> Vec<OBucket> {
    let mut buckets = Vec::new();
    if cols == 0 {
        return buckets;
    }
    for (y, &row) in rows.iter().enumerate() {
        for x in 0..cols {
            let v = grid[y * cols + x];
            if v != 0.0 {
                buckets.push(OBucket {
                    x_start: x as u32,
                    y_start: row,
                    x_end: x as u32,
                    y_end: row,
                    avg: v,
                });
            }
        }
    }
    buckets
}

fn deviation(sum: f64, sumsq: f64, n: usize) -> f64 {
    let k = n as f64;
    (sumsq / k - (sum / k) * (sum / k)).max(0.0).sqrt()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::freq::PathIdFrequencyTable;
    use xpe_pathid::Labeling;

    /// The row numbers of a dense grid of `n` rows.
    fn all_rows(n: usize) -> Vec<u32> {
        (0..n as u32).collect()
    }

    fn grid(rows: usize, cols: usize, cells: &[(usize, usize, f64)]) -> Vec<f64> {
        let mut g = vec![0.0; rows * cols];
        for &(y, x, v) in cells {
            g[y * cols + x] = v;
        }
        g
    }

    #[test]
    fn single_cells_become_single_buckets_at_variance_0() {
        let g = grid(3, 3, &[(0, 0, 1.0), (2, 2, 5.0)]);
        let b = build_buckets(&g, &all_rows(3), 3, 0.0);
        assert_eq!(b.len(), 2);
        assert_eq!(b[0].avg, 1.0);
        assert_eq!(b[1].avg, 5.0);
    }

    #[test]
    fn row_extension_merges_equal_neighbours() {
        let g = grid(2, 4, &[(0, 0, 3.0), (0, 1, 3.0), (0, 2, 3.0)]);
        let b = build_buckets(&g, &all_rows(2), 4, 0.0);
        assert_eq!(b.len(), 1);
        assert_eq!((b[0].x_start, b[0].x_end), (0, 2));
        assert_eq!(b[0].avg, 3.0);
    }

    #[test]
    fn row_extension_stops_at_empty_cell() {
        let g = grid(1, 5, &[(0, 0, 2.0), (0, 1, 2.0), (0, 3, 2.0)]);
        let b = build_buckets(&g, &all_rows(1), 5, 10.0);
        assert_eq!(b.len(), 2, "gap splits buckets");
    }

    #[test]
    fn box_extension_spans_rows() {
        let g = grid(3, 2, &[(0, 0, 4.0), (0, 1, 4.0), (1, 0, 4.0), (1, 1, 4.0)]);
        let b = build_buckets(&g, &all_rows(3), 2, 0.0);
        assert_eq!(b.len(), 1);
        assert_eq!((b[0].y_start, b[0].y_end), (0, 1));
    }

    #[test]
    fn box_extension_respects_variance() {
        let g = grid(
            2,
            2,
            &[(0, 0, 1.0), (0, 1, 1.0), (1, 0, 100.0), (1, 1, 100.0)],
        );
        let b = build_buckets(&g, &all_rows(2), 2, 0.5);
        assert_eq!(b.len(), 2, "second row deviates too much");
    }

    #[test]
    fn box_average_includes_zero_cells() {
        // Row 1 has one filled and one empty cell; merging makes avg 3.
        let g = grid(2, 2, &[(0, 0, 4.0), (0, 1, 4.0), (1, 0, 4.0)]);
        let b = build_buckets(&g, &all_rows(2), 2, 2.0);
        assert_eq!(b.len(), 1);
        assert!((b[0].avg - 3.0).abs() < 1e-9);
    }

    #[test]
    fn coverage_is_complete_and_disjoint() {
        let g = grid(
            4,
            4,
            &[
                (0, 0, 1.0),
                (0, 1, 2.0),
                (1, 1, 3.0),
                (2, 3, 9.0),
                (3, 0, 4.0),
            ],
        );
        for v in [0.0, 1.0, 5.0, 100.0] {
            let buckets = build_buckets(&g, &all_rows(4), 4, v);
            // Every non-empty cell is in exactly one bucket.
            for y in 0..4u32 {
                for x in 0..4u32 {
                    let covering = buckets.iter().filter(|b| b.contains(x, y)).count();
                    if g[(y * 4 + x) as usize] != 0.0 {
                        assert_eq!(covering, 1, "cell ({x},{y}) at v={v}");
                    } else {
                        assert!(covering <= 1);
                    }
                }
            }
        }
    }

    /// Random sparse grids, with runs of equal values so boxes span rows:
    /// the compact grid of the non-empty rows yields the dense grid's
    /// buckets, including boxes that an empty row stops.
    #[test]
    fn compact_grid_matches_the_dense_grid() {
        let mut state = 0x9E37_79B9_7F4A_7C15u64;
        let mut next = |n: u64| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state % n
        };
        let mut stopped_by_empty_row = 0;
        for case in 0..400 {
            let (rows, cols) = (1 + next(12) as usize, 1 + next(6) as usize);
            let mut dense = vec![0.0; rows * cols];
            for y in 0..rows {
                // About half the rows stay empty.
                if next(2) == 0 {
                    continue;
                }
                for x in 0..cols {
                    if next(3) != 0 {
                        dense[y * cols + x] = (1 + next(3)) as f64;
                    }
                }
            }
            let kept: Vec<u32> = (0..rows as u32)
                .filter(|&y| dense[y as usize * cols..][..cols].iter().any(|&v| v != 0.0))
                .collect();
            let compact: Vec<f64> = kept
                .iter()
                .flat_map(|&y| dense[y as usize * cols..][..cols].iter().copied())
                .collect();
            for variance in [0.0, 0.5, 1.0, 100.0] {
                let want = build_buckets(&dense, &all_rows(rows), cols, variance);
                let got = build_buckets(&compact, &kept, cols, variance);
                assert_eq!(got, want, "case {case} variance {variance}");
                let cells = single_cell_buckets(&compact, &kept, cols);
                assert_eq!(cells, single_cell_buckets(&dense, &all_rows(rows), cols));
                stopped_by_empty_row += want
                    .iter()
                    .filter(|b| {
                        let below = b.y_end as usize + 1;
                        below < rows
                            && !kept.contains(&(below as u32))
                            && kept.contains(&(below as u32 + 1))
                    })
                    .count();
            }
        }
        assert!(stopped_by_empty_row > 0, "no box met an empty row");
    }

    #[test]
    fn set_reproduces_figure_2b_at_variance_0() {
        let doc = xpe_xml::fixtures::paper_figure1();
        let lab = Labeling::compute(&doc);
        let freq = PathIdFrequencyTable::build(&doc, &lab);
        let order = PathOrderTable::build(&doc, &lab);
        let phist = PHistogramSet::build(&freq, 0.0);
        let ohist = OHistogramSet::build(&order, &phist, doc.tags(), 0.0);

        let tags = doc.tags();
        let (b, c) = (tags.get("B").unwrap(), tags.get("C").unwrap());
        let p5 = lab
            .interner
            .iter()
            .find(|(_, bits)| bits.to_string() == "1000")
            .map(|(p, _)| p)
            .unwrap();
        // Example 3.2 / 5.1: one B(p5) before C, two B(p5) after C.
        assert_eq!(ohist.count(b, p5, c, Region::Before), 1.0);
        assert_eq!(ohist.count(b, p5, c, Region::After), 2.0);
        // Unrelated cells read as zero.
        let f = tags.get("F").unwrap();
        assert_eq!(ohist.count(b, p5, f, Region::Before), 0.0);
    }

    #[test]
    fn size_shrinks_with_variance() {
        let doc = xpe_xml::fixtures::paper_figure1();
        let lab = Labeling::compute(&doc);
        let freq = PathIdFrequencyTable::build(&doc, &lab);
        let order = PathOrderTable::build(&doc, &lab);
        let phist = PHistogramSet::build(&freq, 0.0);
        let tight = OHistogramSet::build(&order, &phist, doc.tags(), 0.0);
        let loose = OHistogramSet::build(&order, &phist, doc.tags(), 100.0);
        assert!(loose.bucket_count() <= tight.bucket_count());
        assert!(loose.size_bytes() <= tight.size_bytes());
        assert!(tight.size_bytes() > 0);
    }
}
