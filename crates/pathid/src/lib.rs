//! The path encoding scheme of the ICDE'06 XPath estimation system.
//!
//! Paper §2 (following the authors' XSym'05 labeling): every distinct
//! root-to-leaf label path of a document gets an integer *encoding*
//! ([`EncodingTable`]); every element gets a *path id* — a bit sequence
//! with one bit per distinct path ([`PathIdBits`]) — where a leaf sets the
//! bit of its path and an internal node ORs its children's ids
//! ([`Labeling`]). Bitwise containment between path ids witnesses
//! ancestor/descendant relationships (`PidX & PidY = PidY`), and the
//! encoding table resolves whether the relation is parent-child or deeper.
//!
//! Paper §6: ids are indexed by a compressed binary tree ([`PathIdTree`])
//! whose ordinal numbering also serves as the canonical pid order for the
//! histograms, and which reconstructs any bit sequence from its ordinal.
//!
//! # Example
//!
//! ```
//! use xpe_pathid::{Labeling, PathIdTree};
//!
//! let doc = xpe_xml::parse_document(
//!     "<Root><A><B><D/></B><C><E/><F/></C></A></Root>").unwrap();
//! let lab = Labeling::compute(&doc);
//! assert_eq!(lab.encoding.len(), 3); // B/D, C/E, C/F
//!
//! // The root covers every path.
//! let root_pid = lab.pid(doc.root());
//! assert_eq!(lab.interner.bits(root_pid).count_ones(), 3);
//!
//! let tree = PathIdTree::new(&lab.interner);
//! let ord = tree.ord(root_pid);
//! assert_eq!(tree.bits_of_ord(ord).unwrap(), *lab.interner.bits(root_pid));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod adjacency;
mod bits;
mod encoding;
mod interner;
mod label;
mod rel;
mod stream;
mod tree;
pub mod words;

pub use adjacency::{ContainmentAdjacency, JoinIndexCache, PidContainmentRelation};
pub use bits::{Ones, PathIdBits};
pub use encoding::{EncodingTable, PathEncoding};
pub use interner::{Pid, PidInterner};
pub use label::Labeling;
pub use rel::{axis_compatible, axis_compatible_masked, relation_mask, RelationMaskCache};
pub use stream::{Closed, StreamLabeler, StreamLabeling};
pub use tree::PathIdTree;
