//! # lowlat-netgraph
//!
//! Graph substrate for the lowlat workspace. This is a deliberately small,
//! domain-specific graph library: directed multigraphs whose links carry a
//! propagation **delay** (milliseconds) and a **capacity** (Mbps) — exactly
//! the attributes the paper's algorithms need — plus the three algorithms the
//! paper leans on:
//!
//! * [`dijkstra`] — single-source shortest paths by delay, with link masking
//!   (needed both for routing and for the APA "route around this link" probe).
//! * [`yen`] — loopless k-shortest paths ([Yen 1970], the paper's reference
//!   \[49\]), exposed as an incremental generator so callers can grow path
//!   sets lazily (Figure 13 of the paper) and cache them.
//! * [`maxflow`] — Dinic max-flow / min-cut, used to decide when a set of
//!   alternate paths has enough capacity to stand in for a congested shortest
//!   path (APA, §2 of the paper).
//! * [`failure`] — [`FailureMask`] overlays (link/node down, capacity
//!   degradation) that turn a failed topology into a *view* of the intact
//!   graph, plus masked variants of the three algorithms above.
//!
//! Everything is index-based ([`NodeId`], [`LinkId`]) and allocation-light;
//! no unsafe code.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod bitset;
pub mod dijkstra;
pub mod failure;
pub mod graph;
pub mod hierarchy;
pub mod maxflow;
pub mod path;
mod range;
pub mod yen;

pub use bitset::BitSet;
pub use dijkstra::{
    all_pairs_delays, reverse_shortest_path_tree, shortest_path, shortest_path_tree,
    ReverseShortestPathTree, ShortestPathTree,
};
pub use failure::{max_flow_masked, FailureMask};
pub use graph::{Graph, GraphBuilder, Link, LinkId, NodeId};
pub use hierarchy::{Cluster, Hierarchy, HierarchyConfig};
pub use maxflow::{max_flow, min_cut_of_links};
pub use path::Path;
pub use range::RangeError;
pub use yen::KspGenerator;
