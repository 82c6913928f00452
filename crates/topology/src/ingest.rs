//! Internet-scale graph ingestion: edge lists and GraphML.
//!
//! The named/zoo corpus tops out at tens of PoPs; real measurement data
//! (CAIDA AS-REL2 is 78k nodes / 723k edges) arrives as flat edge lists
//! with no geography and no guarantee of connectivity. [`IngestedGraph`]
//! is the container for that shape: interned string node names over a
//! duplex [`Graph`], connected or not, built by
//!
//! * [`from_edge_list`] — whitespace- and/or `|`-separated
//!   `A B [capacity_mbps] [delay_ms]` lines, `#` comments, malformed lines
//!   rejected with their 1-based line number;
//! * [`from_graphml`] — a minimal GraphML reader (`<node id=…>`,
//!   `<edge source=… target=…>`, with `<data>` values resolved through
//!   `<key>` declarations for capacity/delay);
//! * [`crate::synth::generate`] — seeded synthetic models
//!   (Barabási–Albert, Watts–Strogatz, grid, random), so CI exercises
//!   this scale without a network fetch.
//!
//! Node interning is deterministic: ids are assigned in first-seen order,
//! so the same file always produces the same [`NodeId`] mapping, and
//! [`to_edge_list`] round-trips through [`from_edge_list`] bit-for-bit at
//! the graph level: every link between the same names, with the same
//! capacity and delay to the bit (both are written in Rust's shortest
//! round-trip form).

use std::collections::HashMap;
use std::fmt;

use lowlat_netgraph::{Graph, GraphBuilder, LinkId, NodeId};

/// Capacity (Mbps) of an edge whose line or element names none.
const DEFAULT_CAPACITY_MBPS: f64 = 1_000.0;

/// Delay (ms) of an edge whose line or element names none.
const DEFAULT_DELAY_MS: f64 = 1.0;

/// A parsed (or generated) graph with interned node names.
///
/// Unlike [`crate::Topology`], an ingested graph has no geography and is
/// **not required to be connected** — real AS-level edge lists are not,
/// and the experiment shape (Snippet 1) measures that as success rate
/// rather than treating it as fatal. Every undirected input edge appears
/// as two directed links with identical attributes.
#[derive(Clone, Debug)]
pub struct IngestedGraph {
    name: String,
    node_names: Vec<String>,
    graph: Graph,
    cable_count: usize,
}

impl IngestedGraph {
    /// Builds an ingested graph from interned names and undirected edges
    /// `(a, b, capacity_mbps, delay_ms)` (each added duplex).
    ///
    /// # Panics
    /// Panics on out-of-range endpoints or invalid attributes (construction
    /// bugs — the parsers validate first and report line numbers).
    pub fn new(
        name: impl Into<String>,
        node_names: Vec<String>,
        edges: &[(u32, u32, f64, f64)],
    ) -> Self {
        let mut b = GraphBuilder::new(node_names.len());
        for &(a, z, cap, delay) in edges {
            b.add_duplex(NodeId(a), NodeId(z), delay, cap);
        }
        IngestedGraph { name: name.into(), node_names, graph: b.build(), cable_count: edges.len() }
    }

    /// The graph's name (file stem or synthetic model label).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Number of nodes (including any isolated ones).
    pub fn node_count(&self) -> usize {
        self.node_names.len()
    }

    /// Number of undirected input edges (half the directed link count).
    pub fn cable_count(&self) -> usize {
        self.cable_count
    }

    /// The underlying directed graph (duplex links).
    pub fn graph(&self) -> &Graph {
        &self.graph
    }

    /// The interned name of a node.
    pub fn node_name(&self, n: NodeId) -> &str {
        &self.node_names[n.idx()]
    }

    /// Looks a node up by its interned name.
    pub fn node_by_name(&self, name: &str) -> Option<NodeId> {
        self.node_names.iter().position(|n| n == name).map(|i| NodeId(i as u32))
    }

    /// The reverse direction of a directed link (every ingested edge is
    /// duplex, so this always exists).
    pub fn reverse_link(&self, l: LinkId) -> LinkId {
        // Duplex pairs are adjacent: forward at even index, reverse at odd.
        LinkId(l.0 ^ 1)
    }
}

/// A parse failure with its 1-based line number (0 for whole-file errors).
#[derive(Clone, Debug, PartialEq)]
pub struct IngestError {
    /// 1-based line the error was found on; 0 for end-of-input errors.
    pub line: usize,
    /// What went wrong.
    pub kind: IngestErrorKind,
}

/// The kinds of ingestion failure.
#[derive(Clone, Debug, PartialEq)]
pub enum IngestErrorKind {
    /// Wrong number of fields on an edge-list line (expects 2–4).
    FieldCount {
        /// Fields actually present on the line.
        got: usize,
    },
    /// A numeric field failed to parse or was out of range.
    BadNumber(String),
    /// Both endpoints of an edge are the same node.
    SelfLoop(String),
    /// The input contained no edges at all.
    NoEdges,
    /// A malformed GraphML element (unterminated tag, missing attribute).
    BadElement(String),
    /// A GraphML edge references an undeclared node.
    UnknownNode(String),
    /// The links' delays, summed up to this edge, leave `f64`'s finite
    /// range (each delay is finite, but `1e308 + 1e308` is not), so a
    /// shortest-path distance could too; `GraphBuilder::build` rejects such
    /// a graph.
    DelaySum,
}

impl fmt::Display for IngestError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "line {}: ", self.line)?;
        match &self.kind {
            IngestErrorKind::FieldCount { got } => {
                write!(f, "expected 'A B [capacity_mbps] [delay_ms]' (2-4 fields), got {got}")
            }
            IngestErrorKind::BadNumber(s) => write!(f, "bad number '{s}'"),
            IngestErrorKind::SelfLoop(n) => write!(f, "self-loop on node '{n}'"),
            IngestErrorKind::NoEdges => write!(f, "input contains no edges"),
            IngestErrorKind::BadElement(what) => write!(f, "malformed element: {what}"),
            IngestErrorKind::UnknownNode(n) => write!(f, "edge references undeclared node '{n}'"),
            IngestErrorKind::DelaySum => write!(f, "link delays sum past the largest finite f64"),
        }
    }
}

impl std::error::Error for IngestError {}

/// Adds an edge's delay to `total_ms` once a direction, as
/// [`IngestedGraph::new`] adds its two links, and fails on `line` when the
/// sum stops being finite (`IngestErrorKind::DelaySum`).
fn add_delay(total_ms: &mut f64, delay_ms: f64, line: usize) -> Result<(), IngestError> {
    *total_ms += delay_ms;
    *total_ms += delay_ms;
    if total_ms.is_finite() {
        Ok(())
    } else {
        Err(IngestError { line, kind: IngestErrorKind::DelaySum })
    }
}

/// Parses a whitespace- and/or `|`-separated edge list.
///
/// Line grammar (after stripping `#` comments and blank lines):
///
/// ```text
/// A B                    # default capacity + delay
/// A B 10000              # explicit capacity (Mbps)
/// A B 10000 2.5          # explicit capacity + delay (ms)
/// A|B|10000|2.5          # '|' works anywhere whitespace does
/// ```
///
/// Node names are arbitrary non-separator tokens, interned in first-seen
/// order. Duplicate undirected edges (including the reverse orientation a
/// CAIDA-style listing repeats) are ignored after the first occurrence.
/// Malformed lines — wrong field count, non-positive capacity, negative
/// delay, self-loops — are rejected with their line number, and so is the
/// line whose delay takes the links' delay sum past `f64`'s finite range.
pub fn from_edge_list(name: impl Into<String>, text: &str) -> Result<IngestedGraph, IngestError> {
    let mut names: Vec<String> = Vec::new();
    let mut ids: HashMap<String, u32> = HashMap::new();
    let mut edges: Vec<(u32, u32, f64, f64)> = Vec::new();
    let mut seen: std::collections::HashSet<(u32, u32)> = Default::default();
    let mut total_ms = 0.0;

    let mut intern = |token: &str| -> u32 {
        if let Some(&id) = ids.get(token) {
            return id;
        }
        let id = names.len() as u32;
        names.push(token.to_string());
        ids.insert(token.to_string(), id);
        id
    };

    for (i, raw) in text.lines().enumerate() {
        let line_no = i + 1;
        let line = raw.split('#').next().unwrap_or("").trim();
        if line.is_empty() {
            continue;
        }
        let fields: Vec<&str> =
            line.split(|c: char| c.is_whitespace() || c == '|').filter(|f| !f.is_empty()).collect();
        if !(2..=4).contains(&fields.len()) {
            return Err(IngestError {
                line: line_no,
                kind: IngestErrorKind::FieldCount { got: fields.len() },
            });
        }
        if fields[0] == fields[1] {
            return Err(IngestError {
                line: line_no,
                kind: IngestErrorKind::SelfLoop(fields[0].to_string()),
            });
        }
        let num = |s: &str| -> Result<f64, IngestError> {
            s.parse::<f64>().ok().filter(|v| v.is_finite()).ok_or(IngestError {
                line: line_no,
                kind: IngestErrorKind::BadNumber(s.to_string()),
            })
        };
        let cap = match fields.get(2) {
            Some(s) => {
                let v = num(s)?;
                if v <= 0.0 {
                    return Err(IngestError {
                        line: line_no,
                        kind: IngestErrorKind::BadNumber((*s).to_string()),
                    });
                }
                v
            }
            None => DEFAULT_CAPACITY_MBPS,
        };
        let delay = match fields.get(3) {
            Some(s) => {
                let v = num(s)?;
                if v < 0.0 {
                    return Err(IngestError {
                        line: line_no,
                        kind: IngestErrorKind::BadNumber((*s).to_string()),
                    });
                }
                v.max(0.05)
            }
            None => DEFAULT_DELAY_MS,
        };
        let a = intern(fields[0]);
        let z = intern(fields[1]);
        if seen.insert((a.min(z), a.max(z))) {
            add_delay(&mut total_ms, delay, line_no)?;
            edges.push((a, z, cap, delay));
        }
    }

    if edges.is_empty() {
        return Err(IngestError { line: 0, kind: IngestErrorKind::NoEdges });
    }
    Ok(IngestedGraph::new(name, names, &edges))
}

/// Serializes an ingested graph back to the edge-list format (one
/// `A B capacity delay` line per cable; round-trips through
/// [`from_edge_list`]).
pub fn to_edge_list(g: &IngestedGraph) -> String {
    let mut out = String::with_capacity(g.cable_count() * 24);
    out.push_str(&format!(
        "# {} : {} nodes, {} edges\n",
        g.name(),
        g.node_count(),
        g.cable_count()
    ));
    let graph = g.graph();
    for l in graph.link_ids() {
        // One line per duplex pair: emit the even (forward) direction only.
        if l.idx() % 2 != 0 {
            continue;
        }
        let link = graph.link(l);
        out.push_str(&format!(
            "{} {} {} {}\n",
            g.node_name(link.src),
            g.node_name(link.dst),
            link.capacity_mbps,
            link.delay_ms
        ));
    }
    out
}

/// One scanned `<...>` element: its tag name, attributes, inner text (for
/// `<data>` values) and the line it starts on.
struct XmlElement<'a> {
    tag: &'a str,
    attrs: Vec<(&'a str, &'a str)>,
    text: &'a str,
    line: usize,
}

impl XmlElement<'_> {
    fn attr(&self, name: &str) -> Option<&str> {
        self.attrs.iter().find(|(k, _)| *k == name).map(|&(_, v)| v)
    }
}

/// Scans the opening tags of a (well-formed-enough) XML document. This is
/// not a general XML parser: it handles the GraphML subset — elements,
/// double- or single-quoted attributes, comments — and reports malformed
/// tags with line numbers, which is all the reader needs.
fn scan_elements(text: &str) -> Result<Vec<XmlElement<'_>>, IngestError> {
    let bytes = text.as_bytes();
    let mut line = 1usize;
    let mut i = 0usize;
    let mut out = Vec::new();
    while i < bytes.len() {
        if bytes[i] == b'\n' {
            line += 1;
            i += 1;
            continue;
        }
        if bytes[i] != b'<' {
            i += 1;
            continue;
        }
        let start_line = line;
        // Comments and declarations: skip to their terminator.
        if text[i..].starts_with("<!--") {
            match text[i..].find("-->") {
                Some(off) => {
                    line += text[i..i + off].matches('\n').count();
                    i += off + 3;
                    continue;
                }
                None => {
                    return Err(IngestError {
                        line: start_line,
                        kind: IngestErrorKind::BadElement("unterminated comment".into()),
                    })
                }
            }
        }
        let Some(close) = text[i..].find('>') else {
            return Err(IngestError {
                line: start_line,
                kind: IngestErrorKind::BadElement("unterminated tag".into()),
            });
        };
        let inner = &text[i + 1..i + close];
        line += inner.matches('\n').count();
        let after_tag = i + close + 1;
        i = after_tag;
        if inner.starts_with('/') || inner.starts_with('?') || inner.starts_with('!') {
            continue; // closing tag or declaration
        }
        let self_closing = inner.ends_with('/');
        let inner = inner.strip_suffix('/').unwrap_or(inner);
        let tag_end = inner.find(|c: char| c.is_whitespace()).unwrap_or(inner.len());
        let tag = &inner[..tag_end];
        if tag.is_empty() {
            return Err(IngestError {
                line: start_line,
                kind: IngestErrorKind::BadElement("empty tag".into()),
            });
        }
        // Attribute scan: name="value" or name='value'.
        let mut attrs = Vec::new();
        let mut rest = inner[tag_end..].trim_start();
        while !rest.is_empty() {
            let Some(eq) = rest.find('=') else {
                return Err(IngestError {
                    line: start_line,
                    kind: IngestErrorKind::BadElement(format!("attribute without '=' in <{tag}>")),
                });
            };
            let key = rest[..eq].trim();
            let after = rest[eq + 1..].trim_start();
            let Some(quote) = after.chars().next().filter(|&q| q == '"' || q == '\'') else {
                return Err(IngestError {
                    line: start_line,
                    kind: IngestErrorKind::BadElement(format!("unquoted attribute in <{tag}>")),
                });
            };
            let Some(end) = after[1..].find(quote) else {
                return Err(IngestError {
                    line: start_line,
                    kind: IngestErrorKind::BadElement(format!("unterminated attribute in <{tag}>")),
                });
            };
            attrs.push((key, &after[1..1 + end]));
            rest = after[1 + end + 1..].trim_start();
        }
        // Inner text up to the next '<' (the `<data key=…>value</data>` case).
        let elem_text = if self_closing {
            ""
        } else {
            let next = text[after_tag..].find('<').map(|o| after_tag + o).unwrap_or(text.len());
            text[after_tag..next].trim()
        };
        out.push(XmlElement { tag, attrs, text: elem_text, line: start_line });
    }
    Ok(out)
}

/// Parses the GraphML subset topologies are distributed in (Topology Zoo,
/// yEd exports): `<node id=…>` declarations, `<edge source=… target=…>`
/// with optional capacity/delay carried either as edge attributes or as
/// `<data key=…>` children resolved through `<key … attr.name=…>`
/// declarations (key names matched case-insensitively against
/// capacity/bandwidth/linkspeed and delay/latency). Errors carry the line
/// number of the offending element.
pub fn from_graphml(name: impl Into<String>, text: &str) -> Result<IngestedGraph, IngestError> {
    let elements = scan_elements(text)?;
    // <key id="d3" attr.name="capacity"> declarations: id -> semantic.
    #[derive(Clone, Copy, PartialEq)]
    enum Semantic {
        Capacity,
        Delay,
    }
    let classify = |attr_name: &str| -> Option<Semantic> {
        let n = attr_name.to_ascii_lowercase();
        if n.contains("capacity") || n.contains("bandwidth") || n.contains("linkspeed") {
            Some(Semantic::Capacity)
        } else if n.contains("delay") || n.contains("latency") {
            Some(Semantic::Delay)
        } else {
            None
        }
    };
    let mut key_map: HashMap<String, Semantic> = HashMap::new();
    for e in elements.iter().filter(|e| e.tag == "key") {
        if let (Some(id), Some(attr_name)) = (e.attr("id"), e.attr("attr.name")) {
            if let Some(sem) = classify(attr_name) {
                key_map.insert(id.to_string(), sem);
            }
        }
    }

    let mut names: Vec<String> = Vec::new();
    let mut ids: HashMap<String, u32> = HashMap::new();
    // Each edge with the line of its element.
    let mut edges: Vec<(u32, u32, f64, f64, usize)> = Vec::new();
    let mut seen: std::collections::HashSet<(u32, u32)> = Default::default();
    // The edge whose <data> children are currently being collected.
    let mut pending: Option<(u32, u32, f64, f64, usize)> = None;

    let flush = |pending: &mut Option<(u32, u32, f64, f64, usize)>,
                 edges: &mut Vec<(u32, u32, f64, f64, usize)>,
                 seen: &mut std::collections::HashSet<(u32, u32)>| {
        if let Some(edge @ (a, z, ..)) = pending.take() {
            if seen.insert((a.min(z), a.max(z))) {
                edges.push(edge);
            }
        }
    };

    for e in &elements {
        match e.tag {
            "node" => {
                flush(&mut pending, &mut edges, &mut seen);
                let Some(id) = e.attr("id") else {
                    return Err(IngestError {
                        line: e.line,
                        kind: IngestErrorKind::BadElement("<node> without id".into()),
                    });
                };
                if !ids.contains_key(id) {
                    ids.insert(id.to_string(), names.len() as u32);
                    names.push(id.to_string());
                }
            }
            "edge" => {
                flush(&mut pending, &mut edges, &mut seen);
                let (Some(src), Some(dst)) = (e.attr("source"), e.attr("target")) else {
                    return Err(IngestError {
                        line: e.line,
                        kind: IngestErrorKind::BadElement("<edge> without source/target".into()),
                    });
                };
                let lookup = |n: &str| -> Result<u32, IngestError> {
                    ids.get(n).copied().ok_or(IngestError {
                        line: e.line,
                        kind: IngestErrorKind::UnknownNode(n.to_string()),
                    })
                };
                let (a, z) = (lookup(src)?, lookup(dst)?);
                if a == z {
                    return Err(IngestError {
                        line: e.line,
                        kind: IngestErrorKind::SelfLoop(src.to_string()),
                    });
                }
                let mut cap = DEFAULT_CAPACITY_MBPS;
                let mut delay = DEFAULT_DELAY_MS;
                let num = |s: &str| -> Result<f64, IngestError> {
                    s.parse::<f64>().ok().filter(|v| v.is_finite()).ok_or(IngestError {
                        line: e.line,
                        kind: IngestErrorKind::BadNumber(s.to_string()),
                    })
                };
                if let Some(v) = e.attr("capacity") {
                    cap = num(v)?;
                }
                if let Some(v) = e.attr("delay") {
                    delay = num(v)?;
                }
                pending = Some((a, z, cap, delay, e.line));
            }
            "data" => {
                if let Some((_, _, cap, delay, _)) = pending.as_mut() {
                    let sem =
                        e.attr("key").and_then(|k| key_map.get(k).copied().or_else(|| classify(k)));
                    if let Some(sem) = sem {
                        let v: f64 = e.text.parse().ok().filter(|v: &f64| v.is_finite()).ok_or(
                            IngestError {
                                line: e.line,
                                kind: IngestErrorKind::BadNumber(e.text.to_string()),
                            },
                        )?;
                        match sem {
                            Semantic::Capacity => *cap = v,
                            Semantic::Delay => *delay = v,
                        }
                    }
                }
            }
            _ => {}
        }
    }
    flush(&mut pending, &mut edges, &mut seen);

    // Validate the collected attributes once, each at its edge's element
    // line (a `<data>` child may set them after the tag), defaults never
    // re-checked.
    let mut total_ms = 0.0;
    let mut checked = Vec::with_capacity(edges.len());
    for (a, z, cap, delay, line) in edges {
        if cap <= 0.0 || delay < 0.0 {
            return Err(IngestError {
                line,
                kind: IngestErrorKind::BadNumber(format!(
                    "capacity {cap} / delay {delay} on edge at node '{}'",
                    names[a as usize]
                )),
            });
        }
        let delay = delay.max(0.05);
        add_delay(&mut total_ms, delay, line)?;
        checked.push((a, z, cap, delay));
    }
    if checked.is_empty() {
        return Err(IngestError { line: 0, kind: IngestErrorKind::NoEdges });
    }
    Ok(IngestedGraph::new(name, names, &checked))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn interning_is_first_seen_order() {
        let g = from_edge_list("t", "b a\nc a\n").unwrap();
        assert_eq!(g.node_name(NodeId(0)), "b");
        assert_eq!(g.node_name(NodeId(1)), "a");
        assert_eq!(g.node_name(NodeId(2)), "c");
        assert_eq!(g.node_by_name("c"), Some(NodeId(2)));
        assert_eq!(g.node_count(), 3);
        assert_eq!(g.cable_count(), 2);
        assert_eq!(g.graph().link_count(), 4);
    }

    #[test]
    fn pipe_and_whitespace_separators_mix() {
        let g = from_edge_list("t", "a|b|500|2.5\nb c 700\n").unwrap();
        assert_eq!(g.cable_count(), 2);
        let l = g.graph().find_link(NodeId(0), NodeId(1)).unwrap();
        assert_eq!(g.graph().link(l).capacity_mbps, 500.0);
        assert_eq!(g.graph().link(l).delay_ms, 2.5);
        let l = g.graph().find_link(NodeId(1), NodeId(2)).unwrap();
        assert_eq!(g.graph().link(l).capacity_mbps, 700.0);
        assert_eq!(g.graph().link(l).delay_ms, 1.0, "default delay");
    }

    #[test]
    fn duplicate_and_reverse_edges_deduped() {
        let g = from_edge_list("t", "a b\nb a\na b 99\n").unwrap();
        assert_eq!(g.cable_count(), 1);
        // First occurrence wins.
        let l = g.graph().find_link(NodeId(0), NodeId(1)).unwrap();
        assert_eq!(g.graph().link(l).capacity_mbps, 1000.0);
    }

    #[test]
    fn comments_and_blanks_ignored() {
        let text = "# CAIDA-style header\n\na b # trailing\n";
        let g = from_edge_list("t", text).unwrap();
        assert_eq!(g.cable_count(), 1);
    }

    #[test]
    fn malformed_lines_carry_line_numbers() {
        let cases: Vec<(&str, usize)> = vec![
            ("a b\nc\n", 2),         // one field
            ("a b\nc d e f g\n", 2), // five fields
            ("a b\nc d ten\n", 2),   // bad capacity
            ("a b\nc d 5 -1\n", 2),  // negative delay
            ("a b\nc d 0\n", 2),     // zero capacity
            ("a b\nc c\n", 2),       // self-loop
            ("a b\nc d nan\n", 2),   // non-finite
            ("x x\n", 1),            // self-loop on line 1
        ];
        for (text, line) in cases {
            let e = from_edge_list("t", text).unwrap_err();
            assert_eq!(e.line, line, "wrong line for {text:?}: {e}");
            assert!(format!("{e}").contains(&format!("line {line}")));
        }
    }

    /// Each delay is finite, but the two links of each edge sum to infinity:
    /// the graph would be strongly connected, and a tree from `a` would
    /// report `c` unreachable.
    #[test]
    fn delays_that_sum_past_f64_are_an_error_on_their_line() {
        let e = from_edge_list("t", "a b 1 1e308\nb c 1 1e308\n").unwrap_err();
        assert_eq!(e, IngestError { line: 1, kind: IngestErrorKind::DelaySum });
        assert!(format!("{e}").contains("line 1"));
        let e = from_edge_list("t", "a b 1 8e307\nb c 1 8e307\n").unwrap_err();
        assert_eq!(e, IngestError { line: 2, kind: IngestErrorKind::DelaySum });
        let g = from_edge_list("t", "a b 1 4e307\nb c 1 4e307\n").unwrap();
        let tree = lowlat_netgraph::shortest_path_tree(g.graph(), NodeId(0), None, None);
        assert_eq!(tree.dist_ms(NodeId(2)), 8e307);
    }

    #[test]
    fn graphml_delays_that_sum_past_f64_are_an_error_on_their_element() {
        let doc = "<graphml>\n<node id=\"a\"/>\n<node id=\"b\"/>\n<node id=\"c\"/>\n\
                   <edge source=\"a\" target=\"b\" delay=\"8e307\"/>\n\
                   <edge source=\"b\" target=\"c\" delay=\"8e307\"/>\n</graphml>\n";
        let e = from_graphml("t", doc).unwrap_err();
        assert_eq!(e, IngestError { line: 6, kind: IngestErrorKind::DelaySum });
    }

    #[test]
    fn empty_input_is_no_edges() {
        let e = from_edge_list("t", "# nothing\n").unwrap_err();
        assert_eq!(e.kind, IngestErrorKind::NoEdges);
    }

    /// The graph `zoo_export` writes for `topo`: its PoP names, one edge
    /// per cable.
    fn of_topology(topo: &crate::Topology) -> IngestedGraph {
        let names = (0..topo.pop_count()).map(|p| topo.pop_name(NodeId(p as u32)).to_string());
        let edges: Vec<(u32, u32, f64, f64)> = topo
            .cables()
            .iter()
            .map(|&l| {
                let link = topo.graph().link(l);
                (link.src.0, link.dst.0, link.capacity_mbps, link.delay_ms)
            })
            .collect();
        IngestedGraph::new(topo.name(), names.collect(), &edges)
    }

    /// `g` written and read back: link for link between the same names,
    /// with the same capacity and delay to the bit.
    fn assert_round_trips(g: &IngestedGraph) {
        let again = from_edge_list(g.name(), &to_edge_list(g)).unwrap();
        assert_eq!(again.cable_count(), g.cable_count(), "{}", g.name());
        for l in g.graph().link_ids() {
            let (a, b) = (g.graph().link(l), again.graph().link(l));
            let at = format!("{} link {}", g.name(), l.idx());
            assert_eq!(g.node_name(a.src), again.node_name(b.src), "{at}");
            assert_eq!(g.node_name(a.dst), again.node_name(b.dst), "{at}");
            assert_eq!(a.capacity_mbps.to_bits(), b.capacity_mbps.to_bits(), "{at}");
            assert_eq!(a.delay_ms.to_bits(), b.delay_ms.to_bits(), "{at}: {}", a.delay_ms);
        }
    }

    #[test]
    fn round_trips_through_edge_list() {
        let text = "a b 500 2.5\nb c 700 1\nc a 900 3.25\nd a 100 0.5\n";
        assert_round_trips(&from_edge_list("t", text).unwrap());
        for model in crate::SynthModel::ALL {
            for seed in [1, 2] {
                assert_round_trips(&crate::generate(
                    model,
                    &crate::SynthConfig { nodes: 300, seed },
                ));
            }
        }
        for topo in crate::zoo::named::all().iter().chain(&crate::zoo::synthetic_zoo()) {
            assert_round_trips(&of_topology(topo));
        }
    }

    #[test]
    fn reverse_link_pairs_up() {
        let g = from_edge_list("t", "a b\nb c\n").unwrap();
        for l in g.graph().link_ids() {
            let r = g.reverse_link(l);
            assert_eq!(g.graph().link(l).src, g.graph().link(r).dst);
            assert_eq!(g.reverse_link(r), l);
        }
    }

    #[test]
    fn disconnected_graphs_are_accepted() {
        let g = from_edge_list("t", "a b\nc d\n").unwrap();
        assert_eq!(g.node_count(), 4);
        assert!(!g.graph().is_strongly_connected());
    }

    const GRAPHML: &str = r#"<?xml version="1.0" encoding="UTF-8"?>
<graphml xmlns="http://graphml.graphdrawing.org/xmlns">
  <key id="d7" for="edge" attr.name="LinkSpeedRaw" attr.type="double"/>
  <key id="d8" for="edge" attr.name="latency" attr.type="double"/>
  <graph edgedefault="undirected">
    <node id="Vienna"/>
    <node id="Prague"/>
    <node id="Graz"/>
    <edge source="Vienna" target="Prague">
      <data key="d7">2000</data>
      <data key="d8">3.5</data>
    </edge>
    <edge source="Prague" target="Graz"/>
  </graph>
</graphml>
"#;

    #[test]
    fn graphml_basics() {
        let g = from_graphml("t", GRAPHML).unwrap();
        assert_eq!(g.node_count(), 3);
        assert_eq!(g.cable_count(), 2);
        let vp = g
            .graph()
            .find_link(g.node_by_name("Vienna").unwrap(), g.node_by_name("Prague").unwrap())
            .unwrap();
        assert_eq!(g.graph().link(vp).capacity_mbps, 2000.0);
        assert_eq!(g.graph().link(vp).delay_ms, 3.5);
        let pg = g
            .graph()
            .find_link(g.node_by_name("Prague").unwrap(), g.node_by_name("Graz").unwrap())
            .unwrap();
        assert_eq!(g.graph().link(pg).capacity_mbps, 1000.0, "default capacity");
    }

    #[test]
    fn graphml_errors_carry_line_numbers() {
        let missing_id = "<graphml>\n<node/>\n</graphml>\n";
        let e = from_graphml("t", missing_id).unwrap_err();
        assert_eq!(e.line, 2);
        let unknown =
            "<graphml>\n<node id=\"a\"/>\n<edge source=\"a\" target=\"zz\"/>\n</graphml>\n";
        let e = from_graphml("t", unknown).unwrap_err();
        assert_eq!(e.line, 3);
        assert!(format!("{e}").contains("zz"));
        let unterminated = "<graphml>\n<node id=\"a\"\n";
        let e = from_graphml("t", unterminated).unwrap_err();
        assert_eq!(e.line, 2);
    }

    #[test]
    fn graphml_edge_attributes_inline() {
        let doc = "<graphml>\n<node id=\"a\"/>\n<node id=\"b\"/>\n\
                   <edge source=\"a\" target=\"b\" capacity=\"123\" delay=\"4.5\"/>\n</graphml>\n";
        let g = from_graphml("t", doc).unwrap();
        let l = g.graph().find_link(NodeId(0), NodeId(1)).unwrap();
        assert_eq!(g.graph().link(l).capacity_mbps, 123.0);
        assert_eq!(g.graph().link(l).delay_ms, 4.5);
    }
}
