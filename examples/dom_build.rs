//! Builds a summary through the DOM route — `parse_document`, then
//! `Summary::build` — and writes its bytes: the reference the streaming
//! `xpe build` must match byte for byte.
//!
//! ```text
//! cargo run --release --example dom_build -- corpus.xml dom.xps
//! xpe build corpus.xml -o stream.xps
//! cmp dom.xps stream.xps
//! ```

use xpe::prelude::*;

fn main() -> Result<(), String> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let [input, output] = args.as_slice() else {
        return Err("usage: dom_build <file.xml> <summary.xps>".into());
    };
    let text = std::fs::read_to_string(input).map_err(|e| format!("reading {input}: {e}"))?;
    let doc = parse_document(&text).map_err(|e| format!("parsing {input}: {e}"))?;
    let bytes = Summary::build(&doc, SummaryConfig::default()).to_bytes();
    std::fs::write(output, bytes).map_err(|e| format!("writing {output}: {e}"))
}
