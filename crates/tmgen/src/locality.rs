//! The locality-redistribution LP (§3 of the paper, detailed in tm-gen
//! \[20\]).
//!
//! Given base gravity volumes `v` and a locality parameter `ℓ`, find new
//! volumes `v'` that
//!
//! * preserve every PoP's total ingress and egress (the gravity marginals),
//! * never exceed `(1 + ℓ) · v_a` per aggregate, and
//! * minimize total *distance-weighted* volume `Σ_a S_a · v'_a`, where `S_a`
//!   is the shortest-path delay of the pair —
//!
//! i.e. shift as much load as the cap allows from long-haul aggregates onto
//! short ones, exactly the "content moves closer to users" effect the paper
//! models. With `ℓ = 0` the caps pin `v' = v` (the pristine gravity model).

use lowlat_linprog::{Problem, Relation};
use lowlat_topology::Topology;

/// Applies the locality LP to per-pair volumes.
///
/// `volumes[s][d]` is the base gravity demand (0 on the diagonal). Returns
/// the redistributed matrix in the same layout.
///
/// # Panics
/// Panics if `locality < 0` or the matrix shape disagrees with the topology.
pub fn apply_locality(topology: &Topology, volumes: &[Vec<f64>], locality: f64) -> Vec<Vec<f64>> {
    assert!(locality >= 0.0, "negative locality {locality}");
    let n = topology.pop_count();
    assert_eq!(volumes.len(), n, "volume matrix shape");
    if locality == 0.0 {
        // Caps force v' = v; skip the solve.
        return volumes.to_vec();
    }

    let delays = topology.intact_delays();
    // Variable layout: one per ordered pair (s != d), in row-major order.
    let mut var_of = vec![vec![usize::MAX; n]; n];
    let mut pairs = Vec::new();
    for s in 0..n {
        for d in 0..n {
            if s != d && volumes[s][d] > 0.0 {
                var_of[s][d] = pairs.len();
                pairs.push((s, d));
            }
        }
    }

    let mut p = Problem::minimize(pairs.len());
    for (j, &(s, d)) in pairs.iter().enumerate() {
        p.set_objective(j, delays[s][d]);
        p.set_upper_bound(j, (1.0 + locality) * volumes[s][d]);
    }
    // Marginals. One of the 2n rows is linearly dependent; the solver's
    // artificial handling tolerates that.
    for s in 0..n {
        let coeffs: Vec<(usize, f64)> =
            (0..n).filter(|&d| var_of[s][d] != usize::MAX).map(|d| (var_of[s][d], 1.0)).collect();
        if !coeffs.is_empty() {
            let egress: f64 = (0..n).map(|d| volumes[s][d]).sum();
            p.add_row(Relation::Eq, egress, &coeffs);
        }
    }
    for d in 0..n {
        let coeffs: Vec<(usize, f64)> =
            (0..n).filter(|&s| var_of[s][d] != usize::MAX).map(|s| (var_of[s][d], 1.0)).collect();
        if !coeffs.is_empty() {
            let ingress: f64 = (0..n).map(|s| volumes[s][d]).sum();
            p.add_row(Relation::Eq, ingress, &coeffs);
        }
    }

    let sol = p.solve().expect("locality LP is always feasible: the base volumes satisfy it");
    let mut out = vec![vec![0.0; n]; n];
    for (j, &(s, d)) in pairs.iter().enumerate() {
        out[s][d] = sol.value(j);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use lowlat_topology::zoo::named;

    fn base_volumes(topo: &Topology) -> Vec<Vec<f64>> {
        // Uniform gravity for the test: every pair 10 Mbps.
        let n = topo.pop_count();
        let mut v = vec![vec![0.0; n]; n];
        for s in 0..n {
            for d in 0..n {
                if s != d {
                    v[s][d] = 10.0;
                }
            }
        }
        v
    }

    #[test]
    fn zero_locality_is_identity() {
        let topo = named::abilene();
        let v = base_volumes(&topo);
        assert_eq!(apply_locality(&topo, &v, 0.0), v);
    }

    #[test]
    fn marginals_preserved() {
        let topo = named::abilene();
        let n = topo.pop_count();
        let v = base_volumes(&topo);
        let out = apply_locality(&topo, &v, 1.0);
        for i in 0..n {
            let (eg_in, eg_out): (f64, f64) =
                ((0..n).map(|d| v[i][d]).sum(), (0..n).map(|d| out[i][d]).sum());
            assert!((eg_in - eg_out).abs() < 1e-5, "egress of {i}: {eg_in} vs {eg_out}");
            let (ig_in, ig_out): (f64, f64) =
                ((0..n).map(|s| v[s][i]).sum(), (0..n).map(|s| out[s][i]).sum());
            assert!((ig_in - ig_out).abs() < 1e-5, "ingress of {i}: {ig_in} vs {ig_out}");
        }
    }

    #[test]
    fn caps_respected_and_distance_reduced() {
        let topo = named::abilene();
        let n = topo.pop_count();
        let v = base_volumes(&topo);
        let out = apply_locality(&topo, &v, 1.0);
        let delays = lowlat_netgraph::all_pairs_delays(topo.graph());
        let mut before = 0.0;
        let mut after = 0.0;
        for s in 0..n {
            for d in 0..n {
                if s != d {
                    assert!(out[s][d] <= 2.0 * v[s][d] + 1e-7, "cap violated at ({s},{d})");
                    assert!(out[s][d] >= -1e-9);
                    before += delays[s][d] * v[s][d];
                    after += delays[s][d] * out[s][d];
                }
            }
        }
        assert!(after < before - 1e-6, "locality should shorten mean distance");
    }

    #[test]
    fn higher_locality_shortens_more() {
        let topo = named::abilene();
        let n = topo.pop_count();
        let v = base_volumes(&topo);
        let delays = lowlat_netgraph::all_pairs_delays(topo.graph());
        let weighted = |m: &Vec<Vec<f64>>| -> f64 {
            let mut t = 0.0;
            for s in 0..n {
                for d in 0..n {
                    t += delays[s][d] * m[s][d];
                }
            }
            t
        };
        let l05 = weighted(&apply_locality(&topo, &v, 0.5));
        let l20 = weighted(&apply_locality(&topo, &v, 2.0));
        assert!(l20 <= l05 + 1e-6);
    }
}
