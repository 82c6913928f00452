//! Name-string registry over the routing schemes.
//!
//! Experiment drivers, sweep binaries and figure modules request schemes by
//! the names the paper's legends use; the registry turns a spec like
//! `"LatOpt-h23"` into a boxed [`RoutingScheme`]. This is the single point
//! where scheme names are interpreted — adding a scheme here makes it
//! available to every sweep binary and to the cross-scheme invariant tests
//! at once.
//!
//! # Spec grammar
//!
//! | spec | scheme |
//! |---|---|
//! | `SP` | [`ShortestPathRouting`] |
//! | `ECMP` | [`EcmpRouting`] |
//! | `B4`, `B4-hNN` | [`B4Routing`], NN% reserved headroom (default 0) |
//! | `MPLS` / `MPLS-TE` | [`MplsAutoBandwidth`] |
//! | `MinMax` | [`MinMaxRouting`] over all paths |
//! | `MinMaxK<k>` | [`MinMaxRouting`] over the k shortest paths |
//! | `LatOpt`, `LatOpt-hNN` | [`LatencyOptimal`], NN% headroom (default 0) |
//! | `LDR`, `LDR-hNN` | [`Ldr`], NN% static headroom (default 10) |
//! | `LinkBased` | [`LinkBasedOptimal`] |
//!
//! Every built scheme's [`RoutingScheme::name`] round-trips: building that
//! name again yields an identically configured scheme.

use std::sync::Arc;

use super::b4::{B4Config, B4Routing};
use super::ecmp::EcmpRouting;
use super::latopt::LatencyOptimal;
use super::ldr::{Ldr, LdrConfig};
use super::linkbased::LinkBasedOptimal;
use super::minmax::MinMaxRouting;
use super::mpls::MplsAutoBandwidth;
use super::sp::ShortestPathRouting;
use super::RoutingScheme;

/// A scheme spec the registry could not interpret.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct UnknownScheme {
    spec: String,
}

impl UnknownScheme {
    /// The offending spec string.
    pub fn spec(&self) -> &str {
        &self.spec
    }
}

impl std::fmt::Display for UnknownScheme {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "unknown scheme '{}' (expected one of SP, ECMP, B4[-hNN], MPLS, MinMax, \
             MinMaxK<k>, LatOpt[-hNN], LDR[-hNN], LinkBased)",
            self.spec
        )
    }
}

impl std::error::Error for UnknownScheme {}

/// The spec strings of the paper's six headline schemes (Figure 4 plus the
/// SP baseline and LDR) — the default set for sweep binaries.
pub const DEFAULT_SPECS: &[&str] = &["SP", "B4", "MinMax", "MinMaxK10", "LatOpt", "LDR"];

/// Every scheme family the registry knows, one canonical spec each — what
/// the cross-scheme invariant suite iterates.
pub const ALL_SPECS: &[&str] =
    &["SP", "ECMP", "B4", "MPLS", "MinMax", "MinMaxK10", "LatOpt", "LDR", "LinkBased"];

/// Parses the headroom fraction out of `"<base>-hNN"`.
fn headroom_suffix(spec: &str, base: &str) -> Option<f64> {
    let rest = spec.strip_prefix(base)?.strip_prefix("-h")?;
    let percent: u32 = rest.parse().ok()?;
    if percent >= 100 {
        return None;
    }
    Some(percent as f64 / 100.0)
}

/// Builds the scheme a spec names.
pub fn build(spec: &str) -> Result<Arc<dyn RoutingScheme>, UnknownScheme> {
    let spec = spec.trim();
    match spec {
        "SP" => return Ok(Arc::new(ShortestPathRouting)),
        "ECMP" => return Ok(Arc::new(EcmpRouting)),
        "B4" => return Ok(Arc::new(B4Routing::default())),
        "MPLS" | "MPLS-TE" => return Ok(Arc::new(MplsAutoBandwidth::default())),
        "MinMax" => return Ok(Arc::new(MinMaxRouting::unrestricted())),
        "LatOpt" => return Ok(Arc::new(LatencyOptimal::default())),
        "LDR" => return Ok(Arc::new(Ldr::default())),
        "LinkBased" => return Ok(Arc::new(LinkBasedOptimal::default())),
        _ => {}
    }
    if let Some(k) = spec.strip_prefix("MinMaxK") {
        if let Ok(k) = k.parse::<usize>() {
            if k >= 1 {
                return Ok(Arc::new(MinMaxRouting::with_k(k)));
            }
        }
    }
    if let Some(h) = headroom_suffix(spec, "B4") {
        return Ok(Arc::new(B4Routing::new(B4Config { headroom: h, ..Default::default() })));
    }
    if let Some(h) = headroom_suffix(spec, "LatOpt") {
        return Ok(Arc::new(LatencyOptimal::with_headroom(h)));
    }
    if let Some(h) = headroom_suffix(spec, "LDR") {
        return Ok(Arc::new(Ldr::new(LdrConfig { static_headroom: h, ..Default::default() })));
    }
    Err(UnknownScheme { spec: spec.to_string() })
}

/// Builds a known-good spec list, panicking on typos — for the static
/// scheme sets inside figure modules.
///
/// # Panics
/// Panics when a spec is unknown.
pub fn schemes(specs: &[&str]) -> Vec<Arc<dyn RoutingScheme>> {
    specs.iter().map(|s| build(s).unwrap_or_else(|e| panic!("{e}"))).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn canonical_specs_build_and_roundtrip() {
        for &spec in ALL_SPECS {
            let scheme = build(spec).unwrap_or_else(|e| panic!("{e}"));
            let name = scheme.name();
            let again = build(&name).unwrap_or_else(|e| panic!("{name}: {e}"));
            assert_eq!(again.name(), name, "{spec} does not round-trip");
        }
    }

    #[test]
    fn parameterized_specs() {
        assert_eq!(build("B4-h10").unwrap().name(), "B4-h10");
        assert_eq!(build("LatOpt-h23").unwrap().name(), "LatOpt-h23");
        assert_eq!(build("LatOpt-h00").unwrap().name(), "LatOpt");
        assert_eq!(build("MinMaxK5").unwrap().name(), "MinMaxK5");
        assert_eq!(build("LDR-h05").unwrap().name(), "LDR-h05");
        assert_eq!(build("LDR-h10").unwrap().name(), "LDR", "default headroom canonicalizes");
        assert_eq!(build("MPLS").unwrap().name(), "MPLS-TE");
        assert_eq!(build(" SP ").unwrap().name(), "SP");
    }

    #[test]
    fn unknown_specs_error() {
        for bad in ["", "sp", "B5", "MinMaxK0", "MinMaxK-3", "B4-h120", "LatOpt-hx", "LDR+h10"] {
            assert!(build(bad).is_err(), "spec '{bad}' should be rejected");
        }
    }

    #[test]
    fn default_specs_are_known() {
        for spec in DEFAULT_SPECS {
            assert!(build(spec).is_ok(), "{spec}");
        }
    }
}
