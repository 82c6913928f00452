//! # lowlat-topology
//!
//! PoP-level backbone topology model plus a **synthetic substitute for the
//! Internet Topology Zoo** corpus the paper evaluates on.
//!
//! A [`Topology`] is a set of named PoPs with geographic coordinates and a
//! set of duplex links; propagation delays default to great-circle distance
//! at 2/3 the speed of light (200 km/ms), matching how REPETITA augments the
//! Zoo with computed latencies (paper reference \[16\]).
//!
//! ## The zoo substitute
//!
//! The real Topology Zoo files are not redistributable here, so
//! [`zoo::synthetic_zoo`] deterministically generates 116 networks spanning
//! the structural classes the paper identifies — trees (LLPD ≈ 0), wide
//! rings (mid LLPD), grids and meshes (high LLPD, GTS-like), multi-continent
//! networks (Cogent-like), and cliques (overlay networks) — with diameters
//! above 10 ms like the paper's filtered corpus. [`zoo::named`] additionally
//! provides hand-built Abilene, GTS-like, Cogent-like and Google-B4-like
//! networks used by the figure reproductions.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod format;
pub mod geo;
pub mod ingest;
pub mod model;
pub mod synth;
pub mod zoo;

pub use format::{from_text, to_text, ParseError};
pub use geo::{corridor_distance_km, GeoPoint};
pub use ingest::{IngestError, IngestErrorKind, IngestedGraph};
pub use model::{PopId, Topology, TopologyBuilder};
pub use synth::{generate, SynthConfig, SynthModel};
