//! # lowlat — low-latency-capable topologies and intra-domain routing
//!
//! Umbrella crate for a from-scratch Rust reproduction of
//! *"On low-latency-capable topologies, and their impact on the design of
//! intra-domain routing"* (Gvozdiev, Vissicchio, Karp, Handley — SIGCOMM 2018).
//!
//! The paper asks two questions and this workspace implements everything
//! needed to answer both:
//!
//! 1. **Which topologies are fundamentally capable of low-latency,
//!    congestion-free delivery?** Answered by the *Alternate Path
//!    Availability* (APA) and *Low-Latency Path Diversity* (LLPD) metrics in
//!    [`lowlat_core::llpd`].
//! 2. **Can a practical routing system unlock that capability?** Answered by
//!    *Low Delay Routing* (LDR) in [`lowlat_core::schemes::ldr`],
//!    compared against shortest-path, B4, MinMax and MinMax-K10 baselines.
//!
//! ## Quick start
//!
//! ```
//! use lowlat::prelude::*;
//!
//! // A GTS-like central-European grid: high LLPD, hard to route greedily.
//! let topo = named::gts_like();
//! let llpd = LlpdAnalysis::compute(&topo, &LlpdConfig::default()).llpd();
//! assert!(llpd > 0.4, "grids have high low-latency path diversity");
//!
//! // Generate a moderate-load traffic matrix and route it two ways through
//! // the network's one path cache.
//! let tm = GravityTmGen::new(TmGenConfig::default())
//!     .generate(&topo, 1)
//!     .scaled_to_load(&topo, 0.7);
//! let cache = PathCache::new(topo.graph());
//! let sp = ShortestPathRouting.place(&cache, &tm).unwrap();
//! let ldr = Ldr::default().place(&cache, &tm).unwrap();
//! let ev_sp = PlacementEval::evaluate(&topo, &tm, &sp);
//! let ev_ldr = PlacementEval::evaluate(&topo, &tm, &ldr);
//! assert!(ev_ldr.congested_pair_fraction() <= ev_sp.congested_pair_fraction());
//! ```
//!
//! ## Crate map
//!
//! | crate | contents |
//! |---|---|
//! | [`netgraph`] | directed graph, Dijkstra, Yen k-shortest paths, Dinic max-flow |
//! | [`linprog`] | two-phase revised-simplex LP solver with variable bounds |
//! | [`topology`] | PoP-level topology model + synthetic Topology-Zoo substitute |
//! | [`tmgen`] | gravity-model traffic matrices with locality and load scaling |
//! | [`traffic`] | time-varying traffic, Algorithm-1 predictor, FFT multiplexing checks |
//! | [`core`] | APA/LLPD metrics, routing schemes (SP, B4, MinMax, MinMaxK, LatOpt, LDR) |
//! | [`sim`] | experiment harness and per-figure drivers |

#![forbid(unsafe_code)]

pub use lowlat_core as core;
pub use lowlat_linprog as linprog;
pub use lowlat_netgraph as netgraph;
pub use lowlat_sim as sim;
pub use lowlat_tmgen as tmgen;
pub use lowlat_topology as topology;
pub use lowlat_traffic as traffic;

/// One-stop imports for examples and downstream users.
pub mod prelude {
    pub use lowlat_core::eval::PlacementEval;
    pub use lowlat_core::growth::{grow_by_llpd, GrowthPlanConfig};
    pub use lowlat_core::llpd::{LlpdAnalysis, LlpdConfig};
    pub use lowlat_core::pathset::PathCache;
    pub use lowlat_core::scale::ScaleToLoad;
    pub use lowlat_core::schemes::b4::{B4Config, B4Routing};
    pub use lowlat_core::schemes::ecmp::EcmpRouting;
    pub use lowlat_core::schemes::latopt::LatencyOptimal;
    pub use lowlat_core::schemes::ldr::{Ldr, LdrConfig};
    pub use lowlat_core::schemes::linkbased::LinkBasedOptimal;
    pub use lowlat_core::schemes::minmax::MinMaxRouting;
    pub use lowlat_core::schemes::mpls::{MplsAutoBandwidth, MplsConfig, SignalOrder};
    pub use lowlat_core::schemes::sp::ShortestPathRouting;
    pub use lowlat_core::schemes::{RoutingScheme, SolveContext};
    pub use lowlat_core::source::PathSource;
    pub use lowlat_tmgen::{Aggregate, GravityTmGen, TmGenConfig, TrafficMatrix};
    pub use lowlat_topology::format::{from_text, to_text};
    pub use lowlat_topology::zoo::{self, named, synthetic_zoo, ZooClass};
    pub use lowlat_topology::{GeoPoint, PopId, Topology, TopologyBuilder};
    pub use lowlat_traffic::{synthesize, AggregateTrace, Predictor, TraceGenConfig};
}
