//! Oracle test: the one-pass path-id labeler and the statistics
//! collectors against independent references — the two-pass bottom-up
//! OR over one `PathIdBits` per node, and the per-parent first/last
//! sibling scan over each parent's child list.
//!
//! Every table a summary is built from must match the references: the
//! encoding table, the pid interner handle for handle, every node's pid,
//! every frequency row in order, and every order cell. The streaming
//! build must persist the bytes of the summary assembled from the
//! reference labeling.
//!
//! Few random documents pass one 64-bit word (about 2 in 100 with these
//! ranges), so deterministic documents cover ids past 64, 128 and 4,096
//! paths, where a path numbered into a new word arrives under ancestors
//! whose rows already hold bits in the previous word; depth-cap chains
//! cover the deepest accepted nesting.

use std::collections::HashMap;

use proptest::prelude::*;

use xpe_datagen::{random_document, RandomDocConfig};
use xpe_pathid::{EncodingTable, Labeling, PathIdBits, Pid, PidInterner};
use xpe_synopsis::{OrderCell, PathIdFrequencyTable, PathOrderTable, Summary, SummaryConfig};
use xpe_xml::{parse_document, Document, NodeId, TagId, TreeBuilder, MAX_DEPTH};

/// The bottom-up labeling: encodings in first-encounter pre-order of the
/// leaves, then one `PathIdBits` per node, ORed from the leaves up and
/// interned in node (pre-)order. The tables append whatever they are
/// given, so two maps here keep each path and each id once.
fn reference_labeling(doc: &Document) -> Labeling {
    let mut encoding = EncodingTable::new();
    let mut encodings: HashMap<Vec<TagId>, u32> = HashMap::new();
    let mut leaf_encoding = vec![0u32; doc.len()];
    let mut stack = vec![(doc.root(), 0usize)];
    let mut path = Vec::new();
    while let Some((id, depth)) = stack.pop() {
        path.truncate(depth);
        path.push(doc.tag(id));
        let children = doc.children(id);
        if children.is_empty() {
            leaf_encoding[id.index()] = *encodings
                .entry(path.clone())
                .or_insert_with(|| encoding.push(path.clone()));
        } else {
            stack.extend(children.iter().rev().map(|&c| (c, depth + 1)));
        }
    }
    let width = encoding.len() as u32;
    let mut bits = vec![PathIdBits::zero(width); doc.len()];
    // Node ids are pre-order: a reverse scan sees children first.
    for i in (0..doc.len()).rev() {
        let id = NodeId::from_index(i);
        if doc.children(id).is_empty() {
            bits[i] = PathIdBits::single(width, leaf_encoding[i]);
        }
        if let Some(parent) = doc.parent(id) {
            let child = bits[i].clone();
            bits[parent.index()].or_assign(&child);
        }
    }
    let mut interner = PidInterner::new(width);
    let mut pids: HashMap<PathIdBits, Pid> = HashMap::new();
    let node_pids = bits
        .into_iter()
        .map(|b| *pids.entry(b.clone()).or_insert_with(|| interner.push(b)))
        .collect();
    Labeling {
        encoding,
        interner,
        node_pids,
    }
}

/// Per tag, its pids in first-encounter document order with counts.
fn reference_freq_rows(doc: &Document, labeling: &Labeling) -> Vec<Vec<(Pid, u64)>> {
    let mut rows = vec![Vec::new(); doc.tags().len()];
    for n in doc.node_ids() {
        let row: &mut Vec<(Pid, u64)> = &mut rows[doc.tag(n).index()];
        let pid = labeling.pid(n);
        match row.iter_mut().find(|(p, _)| *p == pid) {
            Some((_, count)) => *count += 1,
            None => row.push((pid, 1)),
        }
    }
    rows
}

/// The first/last sibling scan over every parent's child list.
fn reference_order_cells(
    doc: &Document,
    labeling: &Labeling,
) -> HashMap<(TagId, Pid, TagId), OrderCell> {
    let mut cells: HashMap<(TagId, Pid, TagId), OrderCell> = HashMap::new();
    for parent in doc.node_ids() {
        let children = doc.children(parent);
        let mut first: HashMap<TagId, usize> = HashMap::new();
        let mut last: HashMap<TagId, usize> = HashMap::new();
        for (k, &c) in children.iter().enumerate() {
            first.entry(doc.tag(c)).or_insert(k);
            last.insert(doc.tag(c), k);
        }
        for (k, &c) in children.iter().enumerate() {
            for (&y, &first_y) in &first {
                let key = (doc.tag(c), labeling.pid(c), y);
                if last[&y] > k {
                    cells.entry(key).or_default().before += 1;
                }
                if first_y < k {
                    cells.entry(key).or_default().after += 1;
                }
            }
        }
    }
    cells
}

/// Every cell of `table`, keyed like the reference's.
fn cells_of(table: &PathOrderTable) -> HashMap<(TagId, Pid, TagId), OrderCell> {
    (0..table.tag_count())
        .map(TagId::from_index)
        .flat_map(|x| table.cells_of(x).map(move |(pid, y, c)| ((x, pid, y), c)))
        .collect()
}

/// The labeling and both statistics tables of `doc` equal the references.
fn check_tables(doc: &Document) {
    let expected = reference_labeling(doc);
    let labeling = Labeling::compute(doc);
    assert_eq!(labeling.encoding.len(), expected.encoding.len());
    for (enc, path) in expected.encoding.iter() {
        assert_eq!(labeling.encoding.path(enc), path, "encoding {enc}");
    }
    assert_eq!(labeling.interner.len(), expected.interner.len());
    for (pid, bits) in expected.interner.iter() {
        assert_eq!(labeling.interner.bits(pid), bits, "{pid:?}");
    }
    assert_eq!(labeling.node_pids, expected.node_pids);

    let freq = PathIdFrequencyTable::build(doc, &labeling);
    let rows = reference_freq_rows(doc, &expected);
    assert_eq!(freq.tag_count(), rows.len());
    for (t, row) in rows.iter().enumerate() {
        assert_eq!(freq.row(TagId::from_index(t)), row.as_slice(), "row {t}");
    }

    let order = PathOrderTable::build(doc, &labeling);
    assert_eq!(order.tag_count(), doc.tags().len());
    assert_eq!(cells_of(&order), reference_order_cells(doc, &expected));
}

/// [`check_tables`] on the parsed text, and the streaming build's bytes
/// equal the summary assembled from the reference labeling.
fn check_text(xml: &str) {
    let doc = parse_document(xml).expect("test document parses");
    check_tables(&doc);
    let reference = reference_labeling(&doc);
    let freq = PathIdFrequencyTable::build(&doc, &reference);
    let order = PathOrderTable::build(&doc, &reference);
    for (p_variance, o_variance) in [(0.0, 0.0), (1.0, 2.0)] {
        let config = SummaryConfig {
            p_variance,
            o_variance,
        };
        let expected =
            Summary::from_statistics(doc.tags(), &reference, &freq, &order, config).to_bytes();
        let streamed = Summary::build_streaming(xml, config)
            .expect("test document parses")
            .to_bytes();
        assert_eq!(streamed, expected, "streaming build diverged");
    }
}

/// A copy of `doc` whose tag ids come from a vocabulary interned up front
/// in reverse order of first use, plus a tag no element carries — the
/// way the dataset generators number their tags.
fn with_foreign_tag_ids(doc: &Document) -> Document {
    fn copy(doc: &Document, node: NodeId, b: &mut TreeBuilder) {
        b.begin_element(doc.tag_name(node));
        for &c in doc.children(node) {
            copy(doc, c, b);
        }
        b.end_element().unwrap();
    }
    let mut b = TreeBuilder::new();
    b.tags_mut().intern("unused");
    let names: Vec<&str> = doc.tags().iter().map(|(_, name)| name).collect();
    for name in names.into_iter().rev() {
        b.tags_mut().intern(name);
    }
    copy(doc, doc.root(), &mut b);
    b.finish().unwrap()
}

/// `<r>` over `blocks` x→p→q blocks of 60 distinct leaves each (so block
/// `i` holds paths `60i + 1 ..= 60i + 60`), then an x-less p→q block
/// whose paths all sit in the top words, then a leaf on path 1 again.
fn wide_document(blocks: usize) -> String {
    let mut xml = String::from("<r>");
    let mut leaf = 0;
    for b in 0..=blocks {
        if b < blocks {
            xml.push_str("<x>");
        }
        xml.push_str("<p><q>");
        for _ in 0..60 {
            xml.push_str(&format!("<l{leaf}/>"));
            leaf += 1;
        }
        xml.push_str("</q></p>");
        if b < blocks {
            xml.push_str("</x>");
        }
    }
    xml.push_str("<x><p><q><l0/></q></p></x></r>");
    xml
}

/// A recursive single-tag chain of `depth` elements over one leaf.
fn nested_chain(depth: usize) -> String {
    format!("{}<leaf/>{}", "<a>".repeat(depth), "</a>".repeat(depth))
}

#[test]
fn ids_wider_than_one_two_and_sixty_four_words_match_the_references() {
    for (blocks, past) in [(2, 64), (3, 128), (69, 4096)] {
        let xml = wide_document(blocks);
        check_text(&xml);
        let labeling = Labeling::compute(&parse_document(&xml).unwrap());
        let width = labeling.interner.width();
        assert!(width > past as u32, "{width} paths");
        // Path `past + 1` opens a new word under a q whose row already
        // holds path `past` from the word before.
        let boundary = past as u32 + 1;
        assert!(labeling.interner.iter().any(|(_, bits)| {
            bits.get(boundary - 1) && bits.get(boundary) && bits.count_ones() < width
        }));
    }
}

#[test]
fn depth_cap_chains_match_the_references() {
    // The <leaf/> sits one level below the chain, so the deepest accepted
    // chain is MAX_DEPTH - 1 elements of <a>.
    for depth in [MAX_DEPTH - 2, MAX_DEPTH - 1] {
        check_text(&nested_chain(depth));
    }
}

#[test]
fn figure1_matches_the_references() {
    let doc = xpe_xml::fixtures::paper_figure1();
    check_tables(&doc);
    check_text(&xpe_xml::to_string(&doc));
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn random_documents_match_the_references(
        seed in 0u64..1_000_000,
        max_depth in 1usize..7,
        max_children in 1usize..7,
        tag_count in 1usize..5,
        layered in any::<bool>(),
    ) {
        let doc = random_document(&RandomDocConfig {
            seed,
            max_depth,
            max_children,
            tag_count,
            layered,
        });
        check_tables(&doc);
        check_tables(&with_foreign_tag_ids(&doc));
        check_text(&xpe_xml::to_string_pretty(&doc));
    }
}
