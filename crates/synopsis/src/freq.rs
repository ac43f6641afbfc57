//! The pathId-frequency table (paper §3, Figure 2(a)).
//!
//! One row per distinct element tag, aggregating every path id the tag
//! occurs with and its frequency. This is the exact statistic the
//! p-histogram summarizes and the path join consumes.

use xpe_pathid::{pack, IndexMap, Labeling, Pid};
use xpe_xml::{Document, TagId};

/// Exact per-tag `(path id, frequency)` lists.
#[derive(Clone, Debug)]
pub struct PathIdFrequencyTable {
    /// `rows[tag.index()]`: pids in first-encounter order with counts.
    rows: Vec<Vec<(Pid, u64)>>,
}

/// Counts `(tag, pid)` pairs as elements are retired, in any order,
/// with each pair's minimal pre-order index: the key that puts a row in
/// first-encounter order, whose ties the p-histogram's stable frequency
/// sort exposes. Each distinct pair is a *cell*, numbered from 0 in the
/// order pairs first arrive; [`add`](Self::add) returns it so the sibling
/// scan keys on one number instead of the pair.
#[derive(Default)]
pub(crate) struct FreqCounts {
    /// The cell of each pair, keyed by [`pack`]`(tag, pid)`.
    index: IndexMap<u64, u32>,
    cells: Vec<FreqCell>,
}

struct FreqCell {
    tag: TagId,
    pid: Pid,
    count: u64,
    /// Minimal pre-order index over the pair's elements.
    first: u64,
}

impl FreqCounts {
    /// Counts one element with `tag` and `pid`, the `pre`-th to open, and
    /// returns the pair's cell.
    pub(crate) fn add(&mut self, tag: TagId, pid: Pid, pre: u64) -> u32 {
        let next = u32::try_from(self.cells.len()).expect("too many (tag, pid) cells");
        let key = pack(tag.index() as u32, pid.index() as u32);
        let cell = *self.index.entry(key).or_insert(next);
        if cell == next {
            self.cells.push(FreqCell {
                tag,
                pid,
                count: 0,
                first: pre,
            });
        }
        let c = &mut self.cells[cell as usize];
        c.count += 1;
        c.first = c.first.min(pre);
        cell
    }

    /// The `(tag, pid)` pair of a cell [`add`](Self::add) returned.
    pub(crate) fn pair(&self, cell: u32) -> (TagId, Pid) {
        let c = &self.cells[cell as usize];
        (c.tag, c.pid)
    }

    /// The table over `tag_count` tags, every pid mapped through
    /// `resolve`.
    pub(crate) fn into_table(
        self,
        tag_count: usize,
        resolve: impl Fn(Pid) -> Pid,
    ) -> PathIdFrequencyTable {
        let mut cells = self.cells;
        // The minima are unique: an element has one tag and one pid.
        cells.sort_unstable_by_key(|c| c.first);
        let mut rows = vec![Vec::new(); tag_count];
        for c in cells {
            rows[c.tag.index()].push((resolve(c.pid), c.count));
        }
        PathIdFrequencyTable { rows }
    }
}

impl PathIdFrequencyTable {
    /// Aggregates the labeling of `doc` into per-tag rows.
    pub fn build(doc: &Document, labeling: &Labeling) -> Self {
        let mut counts = FreqCounts::default();
        for n in doc.node_ids() {
            counts.add(doc.tag(n), labeling.pid(n), n.index() as u64);
        }
        counts.into_table(doc.tags().len(), |pid| pid)
    }

    /// The `(pid, frequency)` row of `tag`.
    pub fn row(&self, tag: TagId) -> &[(Pid, u64)] {
        self.rows.get(tag.index()).map(Vec::as_slice).unwrap_or(&[])
    }

    /// Number of tags (row count).
    pub fn tag_count(&self) -> usize {
        self.rows.len()
    }

    /// Total number of elements carrying `tag`.
    pub fn total_frequency(&self, tag: TagId) -> u64 {
        self.row(tag).iter().map(|&(_, f)| f).sum()
    }

    /// The exact frequency of `(tag, pid)`, 0 when the pair never occurs.
    pub fn frequency(&self, tag: TagId, pid: Pid) -> u64 {
        self.row(tag)
            .iter()
            .find(|&&(p, _)| p == pid)
            .map(|&(_, f)| f)
            .unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn figure2a_rows() {
        let doc = xpe_xml::fixtures::paper_figure1();
        let lab = Labeling::compute(&doc);
        let table = PathIdFrequencyTable::build(&doc, &lab);
        let tags = doc.tags();

        // D: {(p5, 4)} — one pid, frequency 4.
        let d_row = table.row(tags.get("D").unwrap());
        assert_eq!(d_row.len(), 1);
        assert_eq!(d_row[0].1, 4);
        assert_eq!(lab.interner.bits(d_row[0].0).to_string(), "1000");

        // B: {(p8, 1), (p5, 3)}.
        let b_row: Vec<(String, u64)> = table
            .row(tags.get("B").unwrap())
            .iter()
            .map(|&(p, f)| (lab.interner.bits(p).to_string(), f))
            .collect();
        assert_eq!(b_row.len(), 2);
        assert!(b_row.contains(&("1100".to_owned(), 1)));
        assert!(b_row.contains(&("1000".to_owned(), 3)));

        // A: three pids, frequency 1 each.
        let a_row = table.row(tags.get("A").unwrap());
        assert_eq!(a_row.len(), 3);
        assert!(a_row.iter().all(|&(_, f)| f == 1));

        // E: {(p4, 1), (p2, 2)}.
        let e_row: Vec<(String, u64)> = table
            .row(tags.get("E").unwrap())
            .iter()
            .map(|&(p, f)| (lab.interner.bits(p).to_string(), f))
            .collect();
        assert!(e_row.contains(&("0100".to_owned(), 1)));
        assert!(e_row.contains(&("0010".to_owned(), 2)));

        // Root: {(p9, 1)}.
        assert_eq!(table.total_frequency(tags.get("Root").unwrap()), 1);
    }

    #[test]
    fn totals_cover_every_element() {
        let doc = xpe_xml::fixtures::paper_figure1();
        let lab = Labeling::compute(&doc);
        let table = PathIdFrequencyTable::build(&doc, &lab);
        let total: u64 = doc
            .tags()
            .iter()
            .map(|(t, _)| table.total_frequency(t))
            .sum();
        assert_eq!(total, doc.len() as u64);
    }

    #[test]
    fn frequency_lookup() {
        let doc = xpe_xml::fixtures::paper_figure1();
        let lab = Labeling::compute(&doc);
        let table = PathIdFrequencyTable::build(&doc, &lab);
        let tags = doc.tags();
        let d = tags.get("D").unwrap();
        let (pid, f) = table.row(d)[0];
        assert_eq!(table.frequency(d, pid), f);
        // A pid D never carries reports zero.
        let root_pid = lab.pid(doc.root());
        assert_eq!(table.frequency(d, root_pid), 0);
    }
}
