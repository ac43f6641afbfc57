//! The path-order table (paper §3, Figure 2(b)).
//!
//! For each element tag `X`, the table records — per path id of `X` and per
//! sibling tag `Y` — how many `X` elements occur *before* some `Y` sibling
//! (the paper's `+element` region) and how many occur *after* some `Y`
//! sibling (the `element+` region). An `X` element with `Y` siblings on
//! both sides is counted in both regions (paper §3, final remark).

use std::collections::HashMap;

use xpe_pathid::{pack, unpack, IndexMap, Labeling, Pid};
use xpe_xml::{Document, TagId};

use crate::freq::FreqCounts;

/// Before/after counts of one `(pid, sibling tag)` cell.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct OrderCell {
    /// Number of `X` elements with this pid occurring before a `Y` sibling
    /// (`+element` region).
    pub before: u64,
    /// Number occurring after a `Y` sibling (`element+` region).
    pub after: u64,
}

/// Sibling-order statistics for every tag.
#[derive(Clone, Debug)]
pub struct PathOrderTable {
    /// `rows[x_tag.index()]`: sparse cells keyed by `(pid of X, sibling tag)`.
    rows: Vec<HashMap<(Pid, TagId), OrderCell>>,
}

/// The paper's sibling scan: fed each parent's children in document
/// order, it accumulates every `(X, pid, Y)` cell. A child comes as its
/// tag and its [`FreqCounts`] cell, which stands for its `(X, pid)` pair.
#[derive(Default)]
pub(crate) struct SiblingScan {
    /// Counts keyed by [`pack`]`(cell of (X, pid), Y)`.
    cells: IndexMap<u64, OrderCell>,
    /// Scratch: per tag, the index of its span in `spans`, `usize::MAX`
    /// when the current parent has no child with it; grown as tags
    /// appear.
    slot: Vec<usize>,
    /// Scratch: `(Y, first, last)` sibling positions of every tag among
    /// one parent's children, in first-seen order.
    spans: Vec<(u32, usize, usize)>,
}

impl SiblingScan {
    /// Counts the order facts of one parent's `(tag, cell)` children, in
    /// document order: a child is before some `Y` sibling when the last
    /// `Y` comes after it, and after some `Y` sibling when the first `Y`
    /// comes before it.
    pub(crate) fn scan(&mut self, children: &[(TagId, u32)]) {
        if children.len() < 2 {
            return;
        }
        for (k, &(tag, _)) in children.iter().enumerate() {
            let t = tag.index();
            if t >= self.slot.len() {
                self.slot.resize(t + 1, usize::MAX);
            }
            match self.slot[t] {
                usize::MAX => {
                    self.slot[t] = self.spans.len();
                    self.spans.push((t as u32, k, k));
                }
                span => self.spans[span].2 = k,
            }
        }
        for (k, &(_, cell)) in children.iter().enumerate() {
            for &(y, first, last) in &self.spans {
                let before = last > k;
                let after = first < k;
                if before || after {
                    let c = self.cells.entry(pack(cell, y)).or_default();
                    c.before += u64::from(before);
                    c.after += u64::from(after);
                }
            }
        }
        for &(y, _, _) in &self.spans {
            self.slot[y as usize] = usize::MAX;
        }
        self.spans.clear();
    }

    /// The table over `tag_count` tags, with each cell's `(X, pid)` pair
    /// read from `freq` and every pid mapped through `resolve`.
    pub(crate) fn into_table(
        self,
        tag_count: usize,
        freq: &FreqCounts,
        resolve: impl Fn(Pid) -> Pid,
    ) -> PathOrderTable {
        let mut rows: Vec<HashMap<(Pid, TagId), OrderCell>> = vec![HashMap::new(); tag_count];
        for (key, cell) in self.cells {
            let (xp, y) = unpack(key);
            let (x, pid) = freq.pair(xp);
            rows[x.index()].insert((resolve(pid), TagId::from_index(y as usize)), cell);
        }
        PathOrderTable { rows }
    }
}

impl PathOrderTable {
    /// Collects sibling order information in one pass over all parents.
    pub fn build(doc: &Document, labeling: &Labeling) -> Self {
        let mut freq = FreqCounts::default();
        let cells: Vec<u32> = doc
            .node_ids()
            .map(|n| freq.add(doc.tag(n), labeling.pid(n), n.index() as u64))
            .collect();
        let mut scan = SiblingScan::default();
        let mut children = Vec::new();
        for parent in doc.node_ids() {
            children.clear();
            children.extend(
                doc.children(parent)
                    .iter()
                    .map(|&c| (doc.tag(c), cells[c.index()])),
            );
            scan.scan(&children);
        }
        scan.into_table(doc.tags().len(), &freq, |pid| pid)
    }

    /// The cell for `X` elements with `pid` relative to sibling tag `y`.
    pub fn cell(&self, x: TagId, pid: Pid, y: TagId) -> OrderCell {
        self.rows
            .get(x.index())
            .and_then(|r| r.get(&(pid, y)))
            .copied()
            .unwrap_or_default()
    }

    /// Number of `X` elements with `pid` occurring before a `y` sibling.
    pub fn before_count(&self, x: TagId, pid: Pid, y: TagId) -> u64 {
        self.cell(x, pid, y).before
    }

    /// Number of `X` elements with `pid` occurring after a `y` sibling.
    pub fn after_count(&self, x: TagId, pid: Pid, y: TagId) -> u64 {
        self.cell(x, pid, y).after
    }

    /// All non-empty cells of tag `x`, unordered.
    pub fn cells_of(&self, x: TagId) -> impl Iterator<Item = (Pid, TagId, OrderCell)> + '_ {
        self.rows
            .get(x.index())
            .into_iter()
            .flat_map(|r| r.iter().map(|(&(p, y), &c)| (p, y, c)))
    }

    /// Number of tags (row groups).
    pub fn tag_count(&self) -> usize {
        self.rows.len()
    }

    /// Total number of non-empty `(tag, pid, sibling-tag)` cells, counting
    /// the two regions separately as the paper's grid does.
    pub fn nonzero_cells(&self) -> usize {
        self.rows
            .iter()
            .flat_map(|r| r.values())
            .map(|c| usize::from(c.before > 0) + usize::from(c.after > 0))
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn figure2b_path_order_for_b() {
        let doc = xpe_xml::fixtures::paper_figure1();
        let lab = Labeling::compute(&doc);
        let table = PathOrderTable::build(&doc, &lab);
        let tags = doc.tags();
        let (b, c) = (tags.get("B").unwrap(), tags.get("C").unwrap());

        // p5 = 1000: the pid of the three plain B elements.
        let p5 = lab
            .interner
            .iter()
            .find(|(_, bits)| bits.to_string() == "1000")
            .map(|(p, _)| p)
            .unwrap();

        // Paper Example 3.2: one B(p5) before C, two B(p5) after C.
        assert_eq!(table.before_count(b, p5, c), 1);
        assert_eq!(table.after_count(b, p5, c), 2);

        // Symmetric view from C: one C before a B, two C after B? The
        // middle A has B,C,B (C both before and after a B); the last A has
        // C,B (C before B). So: C before B = 2, C after B = 1.
        let c_pids: Vec<Pid> = lab
            .interner
            .iter()
            .filter(|(_, bits)| {
                let s = bits.to_string();
                s == "0010" || s == "0011"
            })
            .map(|(p, _)| p)
            .collect();
        let before: u64 = c_pids.iter().map(|&p| table.before_count(c, p, b)).sum();
        let after: u64 = c_pids.iter().map(|&p| table.after_count(c, p, b)).sum();
        assert_eq!(before, 2);
        assert_eq!(after, 1);
    }

    #[test]
    fn both_sides_counted_twice() {
        // x between two ys: counted in both regions relative to y.
        let doc = xpe_xml::parse_document("<r><y/><x/><y/></r>").unwrap();
        let lab = Labeling::compute(&doc);
        let table = PathOrderTable::build(&doc, &lab);
        let tags = doc.tags();
        let (x, y) = (tags.get("x").unwrap(), tags.get("y").unwrap());
        let pid = lab.pid(doc.children(doc.root())[1]);
        assert_eq!(table.before_count(x, pid, y), 1);
        assert_eq!(table.after_count(x, pid, y), 1);
    }

    #[test]
    fn same_tag_siblings_count() {
        let doc = xpe_xml::parse_document("<r><x/><x/><x/></r>").unwrap();
        let lab = Labeling::compute(&doc);
        let table = PathOrderTable::build(&doc, &lab);
        let x = doc.tags().get("x").unwrap();
        let pid = lab.pid(doc.children(doc.root())[0]);
        // Two x's have an x after them; two have an x before them.
        assert_eq!(table.before_count(x, pid, x), 2);
        assert_eq!(table.after_count(x, pid, x), 2);
    }

    #[test]
    fn only_children_contribute_nothing() {
        let doc = xpe_xml::parse_document("<r><a><b/></a></r>").unwrap();
        let lab = Labeling::compute(&doc);
        let table = PathOrderTable::build(&doc, &lab);
        assert_eq!(table.nonzero_cells(), 0);
    }

    #[test]
    fn cells_of_enumerates_sparse_entries() {
        let doc = xpe_xml::fixtures::paper_figure1();
        let lab = Labeling::compute(&doc);
        let table = PathOrderTable::build(&doc, &lab);
        let b = doc.tags().get("B").unwrap();
        let cells: Vec<_> = table.cells_of(b).collect();
        assert!(!cells.is_empty());
        for (_, _, c) in cells {
            assert!(c.before > 0 || c.after > 0);
        }
    }
}
