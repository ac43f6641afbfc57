//! XPath twig-query subset with order-based axes: parser, AST and an exact
//! evaluator.
//!
//! The ICDE'06 estimation system targets XPath expressions of the form
//! `q1[/q2]/q3` and `q1[/q2/folls::q3]` (and their `pres`/`foll`/`prec`
//! variants). This crate models those queries as twig patterns
//! ([`Query`]) whose branching nodes may carry [`OrderConstraint`]s, parses
//! the paper's textual syntax ([`parse_query`]), and evaluates queries
//! *exactly* ([`selectivity`], [`evaluate`], [`Evaluator`]) — the oracle
//! against which every estimate in the experiments is scored.
//!
//! # Example
//!
//! ```
//! use xpe_xml::{parse_document, nav::DocOrder};
//! use xpe_xpath::{parse_query, selectivity};
//!
//! let doc = parse_document(
//!     "<Root><A><B/><C/></A><A><C/><B/></A></Root>").unwrap();
//! let order = DocOrder::new(&doc);
//!
//! // How many A elements have a B child followed by a C sibling?
//! let q = parse_query("//$A[/B/folls::C]").unwrap();
//! assert_eq!(selectivity(&doc, &order, &q), 1);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod ast;
mod display;
mod eval;
mod parse;

pub use ast::{
    Axis, OrderChain, OrderConstraint, OrderKind, Query, QueryEdge, QueryError, QueryNode,
    QueryNodeId,
};
pub use eval::{evaluate, selectivity, EvalResult, Evaluator};
pub use parse::{parse_query, QueryParseError, QueryParseErrorKind};
