//! The gravity traffic-matrix generator (§3 of the paper).

use rand::rngs::StdRng;
use rand::SeedableRng;

use lowlat_netgraph::RangeError;
use lowlat_topology::Topology;

use crate::locality::apply_locality;
use crate::tm::{Aggregate, TrafficMatrix};
use crate::zipf::zipf_masses;

/// Configuration for [`GravityTmGen`].
#[derive(Clone, Debug)]
pub struct TmGenConfig {
    /// The paper's locality parameter ℓ: short-distance aggregates may grow
    /// by up to ℓ× their gravity demand. The paper's default is 1.0.
    pub locality: f64,
    /// Nominal total offered load before scaling (Mbps). Figures rescale to
    /// a target network load anyway, so this only sets the numeric range.
    pub total_volume_mbps: f64,
    /// Mbps carried per flow, used to derive `flow_count` from volume
    /// (tm-gen keeps flow counts proportional to volume; so do we).
    pub mbps_per_flow: f64,
    /// Base RNG seed; combined with the matrix index so a batch of matrices
    /// differs while remaining reproducible.
    pub seed: u64,
}

impl Default for TmGenConfig {
    fn default() -> Self {
        TmGenConfig { locality: 1.0, total_volume_mbps: 100_000.0, mbps_per_flow: 5.0, seed: 42 }
    }
}

impl TmGenConfig {
    /// Checks `locality`, the field callers take from outside input, for
    /// [`GravityTmGen::new`], which panics with the error's message.
    pub fn validate(&self) -> Result<(), RangeError> {
        let l = self.locality;
        RangeError::check(l >= 0.0 && l.is_finite(), "locality", l, "a finite value >= 0")
    }
}

/// Zipf exponent for PoP masses. 1.0 reproduces the classic heavy-tailed
/// aggregate-size distribution the paper cites.
const ZIPF_ALPHA: f64 = 1.0;

/// Gravity-model generator with Zipf masses and the locality LP.
#[derive(Clone, Debug)]
pub struct GravityTmGen {
    config: TmGenConfig,
}

impl GravityTmGen {
    /// Creates a generator.
    ///
    /// # Panics
    /// Panics on non-positive volume/flow parameters or when
    /// [`TmGenConfig::validate`] rejects the locality.
    pub fn new(config: TmGenConfig) -> Self {
        config.validate().unwrap_or_else(|e| panic!("{e}"));
        assert!(config.total_volume_mbps > 0.0);
        assert!(config.mbps_per_flow > 0.0);
        GravityTmGen { config }
    }

    /// The configuration in use.
    pub fn config(&self) -> &TmGenConfig {
        &self.config
    }

    /// Generates the `index`-th matrix for `topology` (deterministic in
    /// `(config.seed, index)`).
    pub fn generate(&self, topology: &Topology, index: u64) -> TrafficMatrix {
        let n = topology.pop_count();
        let mut rng = StdRng::seed_from_u64(
            self.config.seed.wrapping_mul(0x9E37_79B9_7F4A_7C15).wrapping_add(index),
        );
        let masses = zipf_masses(n, ZIPF_ALPHA, &mut rng);

        // Gravity: volume(s,d) ∝ mass_s * mass_d, diagonal excluded, then
        // normalized to the nominal total.
        let mut volumes = vec![vec![0.0; n]; n];
        let mut total = 0.0;
        for s in 0..n {
            for d in 0..n {
                if s != d {
                    volumes[s][d] = masses[s] * masses[d];
                    total += volumes[s][d];
                }
            }
        }
        let norm = self.config.total_volume_mbps / total;
        volumes.iter_mut().flatten().for_each(|v| *v *= norm);

        let volumes = apply_locality(topology, &volumes, self.config.locality);

        let mut aggregates = Vec::with_capacity(n * (n - 1));
        for (s, d) in topology.ordered_pairs() {
            let v = volumes[s.idx()][d.idx()];
            if v > 1e-9 {
                aggregates.push(Aggregate {
                    src: s,
                    dst: d,
                    volume_mbps: v,
                    flow_count: ((v / self.config.mbps_per_flow).round() as u64).max(1),
                });
            }
        }
        TrafficMatrix::new(aggregates)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lowlat_topology::zoo::named;

    #[test]
    fn deterministic_and_distinct() {
        let topo = named::abilene();
        let g = GravityTmGen::new(TmGenConfig::default());
        let a = g.generate(&topo, 0);
        let b = g.generate(&topo, 0);
        let c = g.generate(&topo, 1);
        assert_eq!(a.total_volume_mbps(), b.total_volume_mbps());
        assert_eq!(a.len(), b.len());
        // Different indices shuffle masses differently.
        let differs = a
            .aggregates()
            .iter()
            .zip(c.aggregates())
            .any(|(x, y)| (x.volume_mbps - y.volume_mbps).abs() > 1e-9);
        assert!(differs, "index must vary the matrix");
    }

    #[test]
    fn nominal_total_preserved() {
        // The locality LP preserves marginals, hence the grand total.
        let topo = named::abilene();
        let g = GravityTmGen::new(TmGenConfig { total_volume_mbps: 5000.0, ..Default::default() });
        let tm = g.generate(&topo, 3);
        assert!((tm.total_volume_mbps() - 5000.0).abs() < 1.0, "got {}", tm.total_volume_mbps());
    }

    #[test]
    fn covers_all_pairs_without_locality_starvation() {
        let topo = named::abilene();
        let g = GravityTmGen::new(TmGenConfig::default());
        let tm = g.generate(&topo, 0);
        // Locality shifts load but the matrix should stay dense-ish:
        // at least half of all ordered pairs keep non-zero demand.
        assert!(tm.len() * 2 >= topo.ordered_pairs().len());
    }

    #[test]
    fn flow_counts_proportional() {
        let topo = named::abilene();
        let g = GravityTmGen::new(TmGenConfig { mbps_per_flow: 2.0, ..Default::default() });
        let tm = g.generate(&topo, 0);
        for a in tm.aggregates() {
            let expect = (a.volume_mbps / 2.0).round().max(1.0) as u64;
            assert_eq!(a.flow_count, expect);
        }
    }

    #[test]
    fn zero_locality_pure_gravity_rank_one() {
        let topo = named::abilene();
        let g = GravityTmGen::new(TmGenConfig { locality: 0.0, ..Default::default() });
        let tm = g.generate(&topo, 0);
        // Pure gravity is rank-one off-diagonal: v(s,a)*v(d,b) =
        // v(s,b)*v(d,a) for distinct s,d,a,b.
        let v = |s: u32, d: u32| {
            tm.volume_between(lowlat_netgraph::NodeId(s), lowlat_netgraph::NodeId(d))
        };
        let lhs = v(0, 2) * v(1, 3);
        let rhs = v(0, 3) * v(1, 2);
        assert!((lhs - rhs).abs() < 1e-6 * lhs.max(rhs), "{lhs} vs {rhs}");
    }
}
