//! Seeded synthetic graph models at Internet scale.
//!
//! The Snippet-1 experiment shape compares a real edge list against
//! per-seed synthetic topologies: Barabási–Albert, Watts–Strogatz, grid
//! and random (Erdős–Rényi). These generators reproduce that corpus
//! deterministically — same model, node count and seed always yield the
//! same [`IngestedGraph`] — so CI can exercise ingestion and the
//! hierarchical path engine at tens of thousands of nodes without a
//! network fetch.
//!
//! Every node gets a planar position (km), and link delays follow from
//! euclidean distance at 200 km/ms with the usual 0.05 ms floor, so
//! delay-weighted hierarchical clustering has real structure to find.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use lowlat_netgraph::RangeError;

use crate::ingest::IngestedGraph;

/// The synthetic models of the Snippet-1 corpus.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SynthModel {
    /// Preferential attachment (scale-free degree distribution). Connected
    /// by construction.
    BarabasiAlbert,
    /// Ring lattice with rewired chords (small world). The underlying ring
    /// is never rewired here, so the graph stays connected by construction.
    WattsStrogatz,
    /// Two-dimensional 4-neighbour lattice. Connected by construction.
    Grid,
    /// Erdős–Rényi `G(n, p)` at a target mean degree. **Not** guaranteed
    /// connected — isolated nodes and small components occur, which is
    /// exactly what the success-rate metric measures.
    Random,
}

impl SynthModel {
    /// Parses a model spec (`ba`, `ws`, `grid`, `random` and the long
    /// names used in the Snippet-1 summaries).
    pub fn parse(s: &str) -> Option<SynthModel> {
        match s.to_ascii_lowercase().as_str() {
            "ba" | "barabasialbert" | "barabasi-albert" => Some(SynthModel::BarabasiAlbert),
            "ws" | "wattsstrogatz" | "watts-strogatz" => Some(SynthModel::WattsStrogatz),
            "grid" => Some(SynthModel::Grid),
            "random" | "er" => Some(SynthModel::Random),
            _ => None,
        }
    }

    /// The Snippet-1 summary label.
    pub fn label(&self) -> &'static str {
        match self {
            SynthModel::BarabasiAlbert => "BarabasiAlbert",
            SynthModel::WattsStrogatz => "WattsStrogatz",
            SynthModel::Grid => "Grid",
            SynthModel::Random => "Random",
        }
    }

    /// True when the generator guarantees a connected graph (the models CI
    /// gates success-rate on).
    pub fn connected_by_construction(&self) -> bool {
        !matches!(self, SynthModel::Random)
    }

    /// All four models, in summary order.
    pub const ALL: [SynthModel; 4] = [
        SynthModel::BarabasiAlbert,
        SynthModel::WattsStrogatz,
        SynthModel::Grid,
        SynthModel::Random,
    ];
}

/// Generator parameters: the size and the seed. The models' shapes are the
/// constants below.
#[derive(Clone, Copy, Debug)]
pub struct SynthConfig {
    /// Number of nodes.
    pub nodes: usize,
    /// Seed; every draw derives from it deterministically.
    pub seed: u64,
}

impl Default for SynthConfig {
    fn default() -> Self {
        SynthConfig { nodes: 1000, seed: 42 }
    }
}

impl SynthConfig {
    /// Checks the fields [`generate`] reads, which panics with the error's
    /// message; a caller holding outside input calls this first.
    pub fn validate(&self) -> Result<(), RangeError> {
        RangeError::check(self.nodes >= 4, "nodes", self.nodes, "at least 4")
    }
}

/// Barabási–Albert: edges attached per new node.
const BA_ATTACH: usize = 3;

/// Watts–Strogatz: ring-lattice neighbours per node (even, >= 2).
const WS_NEIGHBORS: usize = 4;

/// Watts–Strogatz: chord rewiring probability.
const WS_REWIRE: f64 = 0.1;

/// Random: target mean degree (`p = degree / (n - 1)`).
const RANDOM_MEAN_DEGREE: f64 = 6.0;

/// Uniform link capacity (Mbps).
const CAPACITY_MBPS: f64 = 10_000.0;

/// Side of the placement square (km); delays follow from distance.
const AREA_KM: f64 = 4_000.0;

/// Delay (ms) between two planar positions: distance at 200 km/ms, floored
/// like geographic topologies.
fn delay_between(a: (f64, f64), b: (f64, f64)) -> f64 {
    let (dx, dy) = (a.0 - b.0, a.1 - b.1);
    ((dx * dx + dy * dy).sqrt() / 200.0).max(0.05)
}

/// Generates one synthetic graph. Deterministic in `(model, config)`.
///
/// # Panics
/// Panics when [`SynthConfig::validate`] rejects `config`.
pub fn generate(model: SynthModel, config: &SynthConfig) -> IngestedGraph {
    config.validate().unwrap_or_else(|e| panic!("{e}"));
    let n = config.nodes;
    let mut rng = StdRng::seed_from_u64(config.seed ^ (model.label().len() as u64) << 32);
    let name = format!("{}-n{}-s{}", model.label(), n, config.seed);
    let node_names: Vec<String> = (0..n).map(|i| format!("n{i}")).collect();

    // Placement: positions drive delays.
    let positions: Vec<(f64, f64)> = match model {
        SynthModel::Grid => {
            let cols = (n as f64).sqrt().ceil() as usize;
            let spacing = AREA_KM / cols as f64;
            (0..n).map(|i| ((i % cols) as f64 * spacing, (i / cols) as f64 * spacing)).collect()
        }
        SynthModel::WattsStrogatz => {
            let r = AREA_KM / 2.0;
            (0..n)
                .map(|i| {
                    let theta = i as f64 / n as f64 * std::f64::consts::TAU;
                    (r + r * theta.cos(), r + r * theta.sin())
                })
                .collect()
        }
        _ => (0..n).map(|_| (rng.gen_range(0.0..AREA_KM), rng.gen_range(0.0..AREA_KM))).collect(),
    };

    let mut edges: Vec<(u32, u32)> = Vec::new();
    let mut seen: std::collections::HashSet<(u32, u32)> = Default::default();
    let push = |edges: &mut Vec<(u32, u32)>,
                seen: &mut std::collections::HashSet<(u32, u32)>,
                a: u32,
                b: u32|
     -> bool {
        debug_assert!(a != b);
        if seen.insert((a.min(b), a.max(b))) {
            edges.push((a, b));
            true
        } else {
            false
        }
    };

    match model {
        SynthModel::BarabasiAlbert => {
            let m = BA_ATTACH;
            let m0 = (m + 1).min(n);
            // Seed clique, then preferential attachment: sample an endpoint
            // of a uniformly random existing edge (endpoint frequency is
            // proportional to degree).
            for a in 0..m0 as u32 {
                for b in a + 1..m0 as u32 {
                    push(&mut edges, &mut seen, a, b);
                }
            }
            let mut endpoints: Vec<u32> = edges.iter().flat_map(|&(a, b)| [a, b]).collect();
            for v in m0 as u32..n as u32 {
                let mut added = 0usize;
                let mut tries = 0usize;
                while added < m && tries < 64 * m {
                    tries += 1;
                    let t = endpoints[rng.gen_range(0..endpoints.len())];
                    if t != v && push(&mut edges, &mut seen, v, t) {
                        endpoints.push(v);
                        endpoints.push(t);
                        added += 1;
                    }
                }
                if added == 0 {
                    // Degenerate fallback (tiny graphs): attach to v-1.
                    push(&mut edges, &mut seen, v, v - 1);
                    endpoints.push(v);
                    endpoints.push(v - 1);
                }
            }
        }
        SynthModel::WattsStrogatz => {
            let k = WS_NEIGHBORS;
            for i in 0..n as u32 {
                for j in 1..=(k / 2) as u32 {
                    let t = (i + j) % n as u32;
                    if i == t {
                        continue;
                    }
                    // The j == 1 ring is the connectivity backbone: never
                    // rewired. Longer chords rewire with probability beta.
                    if j > 1 && rng.gen_bool(WS_REWIRE) {
                        let mut placed = false;
                        for _ in 0..32 {
                            let r = rng.gen_range(0..n as u32);
                            if r != i && push(&mut edges, &mut seen, i, r) {
                                placed = true;
                                break;
                            }
                        }
                        if !placed {
                            push(&mut edges, &mut seen, i, t);
                        }
                    } else {
                        push(&mut edges, &mut seen, i, t);
                    }
                }
            }
        }
        SynthModel::Grid => {
            let cols = (n as f64).sqrt().ceil() as usize;
            for i in 0..n {
                if (i + 1) % cols != 0 && i + 1 < n {
                    push(&mut edges, &mut seen, i as u32, (i + 1) as u32);
                }
                if i + cols < n {
                    push(&mut edges, &mut seen, i as u32, (i + cols) as u32);
                }
            }
        }
        SynthModel::Random => {
            let p = (RANDOM_MEAN_DEGREE / (n as f64 - 1.0)).clamp(1e-12, 1.0);
            // Geometric skip sampling over the n*(n-1)/2 pair indices:
            // O(edges), which is what makes 100k-node draws instant.
            let total: u64 = (n as u64) * (n as u64 - 1) / 2;
            let ln_q = (1.0 - p).ln();
            let mut t: u64 = 0;
            loop {
                let u = rng.next_f64().max(1e-18);
                let skip = if ln_q == 0.0 { 0 } else { (u.ln() / ln_q).floor() as u64 };
                t = t.saturating_add(skip);
                if t >= total {
                    break;
                }
                // Pair index -> (i, j), row-major over i < j.
                let i = {
                    // Solve i: first index whose row still contains t.
                    let tf = t as f64;
                    let nf = n as f64;
                    let mut i = ((2.0 * nf
                        - 1.0
                        - ((2.0 * nf - 1.0) * (2.0 * nf - 1.0) - 8.0 * tf).max(0.0).sqrt())
                        / 2.0)
                        .floor() as u64;
                    // Guard float error.
                    while (i + 1) * (2 * n as u64 - i - 2) / 2 <= t {
                        i += 1;
                    }
                    while i > 0 && i * (2 * n as u64 - i - 1) / 2 > t {
                        i -= 1;
                    }
                    i
                };
                let row_start = i * (2 * n as u64 - i - 1) / 2;
                let j = i + 1 + (t - row_start);
                push(&mut edges, &mut seen, i as u32, j as u32);
                t = t.saturating_add(1);
                if t >= total {
                    break;
                }
            }
        }
    }

    let attributed: Vec<(u32, u32, f64, f64)> = edges
        .iter()
        .map(|&(a, b)| {
            (a, b, CAPACITY_MBPS, delay_between(positions[a as usize], positions[b as usize]))
        })
        .collect();
    IngestedGraph::new(name, node_names, &attributed)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg(nodes: usize, seed: u64) -> SynthConfig {
        SynthConfig { nodes, seed }
    }

    #[test]
    fn deterministic_per_seed() {
        for model in SynthModel::ALL {
            let a = generate(model, &cfg(200, 7));
            let b = generate(model, &cfg(200, 7));
            assert_eq!(a.cable_count(), b.cable_count(), "{model:?}");
            for l in a.graph().link_ids() {
                assert_eq!(a.graph().link(l), b.graph().link(l), "{model:?}");
            }
            let c = generate(model, &cfg(200, 8));
            if model != SynthModel::Grid {
                // Grid ignores the seed (lattice is deterministic anyway).
                let sum = |g: &IngestedGraph| -> f64 {
                    g.graph().link_ids().map(|l| g.graph().link(l).delay_ms).sum()
                };
                assert_ne!(
                    (a.cable_count(), sum(&a).to_bits()),
                    (c.cable_count(), sum(&c).to_bits()),
                    "{model:?} seed must matter"
                );
            }
        }
    }

    #[test]
    fn connected_models_are_connected() {
        for model in SynthModel::ALL {
            if !model.connected_by_construction() {
                continue;
            }
            for seed in [1, 42] {
                let g = generate(model, &cfg(300, seed));
                assert!(
                    g.graph().is_strongly_connected(),
                    "{model:?} seed {seed} must be connected"
                );
            }
        }
    }

    #[test]
    fn node_counts_exact() {
        for model in SynthModel::ALL {
            let g = generate(model, &cfg(137, 3));
            assert_eq!(g.node_count(), 137, "{model:?}");
            assert!(g.cable_count() > 0);
        }
    }

    #[test]
    fn ba_mean_degree_near_2m() {
        let g = generate(SynthModel::BarabasiAlbert, &cfg(2000, 5));
        let mean = 2.0 * g.cable_count() as f64 / g.node_count() as f64;
        assert!((mean - 6.0).abs() < 0.5, "mean degree {mean} (expected ~2m = 6)");
    }

    #[test]
    fn er_mean_degree_near_target() {
        let g = generate(SynthModel::Random, &cfg(5000, 11));
        let mean = 2.0 * g.cable_count() as f64 / g.node_count() as f64;
        assert!((mean - 6.0).abs() < 0.6, "mean degree {mean} (target 6)");
    }

    #[test]
    fn grid_is_a_lattice() {
        let g = generate(SynthModel::Grid, &cfg(25, 0));
        // 5x5 lattice: 2 * 5 * 4 = 40 edges.
        assert_eq!(g.cable_count(), 40);
    }

    #[test]
    fn delays_are_positive_and_finite() {
        for model in SynthModel::ALL {
            let g = generate(model, &cfg(150, 2));
            for l in g.graph().link_ids() {
                let d = g.graph().link(l).delay_ms;
                assert!(d.is_finite() && d >= 0.05, "{model:?}: delay {d}");
            }
        }
    }

    #[test]
    fn model_parse_round_trip() {
        assert_eq!(SynthModel::parse("ba"), Some(SynthModel::BarabasiAlbert));
        assert_eq!(SynthModel::parse("BarabasiAlbert"), Some(SynthModel::BarabasiAlbert));
        assert_eq!(SynthModel::parse("ws"), Some(SynthModel::WattsStrogatz));
        assert_eq!(SynthModel::parse("grid"), Some(SynthModel::Grid));
        assert_eq!(SynthModel::parse("er"), Some(SynthModel::Random));
        assert_eq!(SynthModel::parse("frob"), None);
    }
}
