//! The encoding table: one integer per distinct root-to-leaf label path.
//!
//! Paper §2: "The path encoding scheme uses an integer to encode each
//! distinct root-to-leaf path in an XML document and stores them in an
//! encoding table." Encodings are 1-based, assigned in first-encounter
//! document order.

use xpe_xml::TagId;

/// A 1-based root-to-leaf path encoding.
pub type PathEncoding = u32;

/// The list of distinct root-to-leaf label paths, numbered from 1, which
/// answers tag-relationship questions along a given path (paper Example
/// 2.2: "we can check the relationship between the tags from the encoding
/// table"). The table itself never looks for an equal path: the
/// [`StreamLabeler`](crate::StreamLabeler) pushes each node of its
/// label-path trie once, at the node's first leaf close, and
/// [`decode`](Self::decode) keeps the stored paths as stored.
#[derive(Clone, Debug, Default)]
pub struct EncodingTable {
    paths: Vec<Vec<TagId>>,
}

impl EncodingTable {
    /// Creates an empty table.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends `path` under the next encoding and returns it.
    pub fn push(&mut self, path: Vec<TagId>) -> PathEncoding {
        self.paths.push(path);
        self.paths.len() as PathEncoding
    }

    /// The label path for `encoding`.
    ///
    /// # Panics
    ///
    /// Panics if `encoding` is 0 or out of range.
    pub fn path(&self, encoding: PathEncoding) -> &[TagId] {
        &self.paths[(encoding - 1) as usize]
    }

    /// Number of distinct root-to-leaf paths.
    pub fn len(&self) -> usize {
        self.paths.len()
    }

    /// True when the table holds no path.
    pub fn is_empty(&self) -> bool {
        self.paths.is_empty()
    }

    /// Iterates `(encoding, path)` pairs in encoding order.
    pub fn iter(&self) -> impl Iterator<Item = (PathEncoding, &[TagId])> {
        self.paths
            .iter()
            .enumerate()
            .map(|(i, p)| ((i + 1) as PathEncoding, p.as_slice()))
    }

    /// Positions (0-based depths) at which `tag` occurs on the path
    /// `encoding`. Recursive schemas (XMark's `parlist`) make repeats real.
    pub fn positions(
        &self,
        encoding: PathEncoding,
        tag: TagId,
    ) -> impl Iterator<Item = usize> + '_ {
        self.path(encoding)
            .iter()
            .enumerate()
            .filter(move |(_, &t)| t == tag)
            .map(|(i, _)| i)
    }

    /// Whether, on the path `encoding`, some occurrence of `anc` is an
    /// ancestor (or, with `child_axis`, the parent) of some occurrence of
    /// `desc`.
    pub fn axis_holds(
        &self,
        encoding: PathEncoding,
        anc: TagId,
        desc: TagId,
        child_axis: bool,
    ) -> bool {
        let path = self.path(encoding);
        for (i, &t) in path.iter().enumerate() {
            if t != anc {
                continue;
            }
            if child_axis {
                if path.get(i + 1) == Some(&desc) {
                    return true;
                }
            } else if path[i + 1..].contains(&desc) {
                return true;
            }
        }
        false
    }

    /// Serializes the table (summary persistence).
    pub fn encode(&self, buf: &mut Vec<u8>) {
        xpe_xml::wire::put_u32(buf, self.paths.len() as u32);
        for path in &self.paths {
            xpe_xml::wire::put_u32(buf, path.len() as u32);
            for &t in path {
                xpe_xml::wire::put_u32(buf, t.index() as u32);
            }
        }
    }

    /// Deserializes a table encoded by [`encode`](Self::encode), keeping
    /// every stored path under its stored encoding.
    pub fn decode(r: &mut xpe_xml::wire::Reader<'_>) -> Result<Self, xpe_xml::wire::WireError> {
        let n = r.u32()? as usize;
        let mut paths = Vec::with_capacity(xpe_xml::wire::cap_alloc(n));
        for _ in 0..n {
            let len = r.u32()? as usize;
            let mut path = Vec::with_capacity(xpe_xml::wire::cap_alloc(len));
            for _ in 0..len {
                path.push(TagId::from_index(r.u32()? as usize));
            }
            paths.push(path);
        }
        Ok(EncodingTable { paths })
    }

    /// Byte size of the table under the paper's accounting: each path is
    /// stored as one byte per tag (a tag-dictionary reference) plus a
    /// two-byte encoding integer. The paper reports 0.24 KB for SSPlays'
    /// 40 paths — about six bytes per path — consistent with this model.
    pub fn size_bytes(&self) -> usize {
        self.paths.iter().map(|p| p.len() + 2).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use xpe_xml::TagInterner;

    /// Builds the paper's Figure 1(b) encoding table:
    /// 1: Root/A/B/D, 2: Root/A/B/E, 3: Root/A/C/E, 4: Root/A/C/F.
    fn figure1() -> (EncodingTable, TagInterner) {
        let mut tags = TagInterner::new();
        let (root, a, b, c, d, e, f) = (
            tags.intern("Root"),
            tags.intern("A"),
            tags.intern("B"),
            tags.intern("C"),
            tags.intern("D"),
            tags.intern("E"),
            tags.intern("F"),
        );
        let mut t = EncodingTable::new();
        assert_eq!(t.push(vec![root, a, b, d]), 1);
        assert_eq!(t.push(vec![root, a, b, e]), 2);
        assert_eq!(t.push(vec![root, a, c, e]), 3);
        assert_eq!(t.push(vec![root, a, c, f]), 4);
        (t, tags)
    }

    #[test]
    fn push_numbers_from_one() {
        let (t, tags) = figure1();
        let root = tags.get("Root").unwrap();
        let a = tags.get("A").unwrap();
        let b = tags.get("B").unwrap();
        let d = tags.get("D").unwrap();
        assert_eq!(t.len(), 4);
        assert_eq!(t.path(1), [root, a, b, d]);
    }

    #[test]
    fn decode_keeps_every_stored_path() {
        let (mut t, tags) = figure1();
        let root = tags.get("Root").unwrap();
        t.push(vec![root]);
        t.push(vec![root]);
        let mut buf = Vec::new();
        t.encode(&mut buf);
        let back = EncodingTable::decode(&mut xpe_xml::wire::Reader::new(&buf)).unwrap();
        assert_eq!(back.len(), 6, "an equal stored path keeps its own encoding");
        assert!(back.iter().eq(t.iter()));
    }

    #[test]
    fn axis_checks_match_paper_example_2_2() {
        let (t, tags) = figure1();
        let a = tags.get("A").unwrap();
        let b = tags.get("B").unwrap();
        let d = tags.get("D").unwrap();
        // On path 1 (Root/A/B/D): A parent of B, A ancestor of D, not parent.
        assert!(t.axis_holds(1, a, b, true));
        assert!(t.axis_holds(1, a, d, false));
        assert!(!t.axis_holds(1, a, d, true));
        assert!(!t.axis_holds(1, d, a, false), "no upward relation");
    }

    #[test]
    fn recursive_paths_report_repeat_positions() {
        let mut tags = TagInterner::new();
        let l = tags.intern("list");
        let i = tags.intern("item");
        let mut t = EncodingTable::new();
        let enc = t.push(vec![l, i, l, i]);
        assert_eq!(t.positions(enc, l).collect::<Vec<_>>(), vec![0, 2]);
        // list is both parent and ancestor of item at multiple depths.
        assert!(t.axis_holds(enc, l, i, true));
        assert!(
            t.axis_holds(enc, i, l, true),
            "item/list nesting exists too"
        );
    }

    #[test]
    fn size_model_is_roughly_six_bytes_per_short_path() {
        let (t, _) = figure1();
        assert_eq!(t.size_bytes(), 4 * (4 + 2));
    }

    #[test]
    fn iter_in_encoding_order() {
        let (t, _) = figure1();
        let encs: Vec<u32> = t.iter().map(|(e, _)| e).collect();
        assert_eq!(encs, vec![1, 2, 3, 4]);
    }
}
