//! Synthetic substitute for the Internet Topology Zoo corpus.
//!
//! The paper evaluates on 116 real backbone topologies with diameter above
//! 10 ms. Those files are not redistributable here, so this module
//! deterministically generates a corpus spanning the same structural classes
//! the paper identifies (§2):
//!
//! * **trees / stars** — no alternate paths, LLPD ≈ 0;
//! * **chains** — degenerate trees, common for early national backbones;
//! * **wide rings** — path diversity exists but the "wrong way around the
//!   ring" costs a lot of delay, mid-range LLPD;
//! * **grids** — GTS-Central-Europe-like two-dimensional meshes, high LLPD;
//! * **meshes** — random geometric graphs, LLPD rising with density;
//! * **continental** — Cogent-like multi-continent networks whose long
//!   latency baseline makes stretch limits easier to meet;
//! * **cliques** — overlay networks; the paper's horizontal CDF lines.
//!
//! Every generator takes a seed and is fully deterministic, so experiments
//! are reproducible bit-for-bit.

pub mod named;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::geo::GeoPoint;
use crate::model::{PopId, Topology, TopologyBuilder};

/// Structural class of a zoo network (recorded in its name).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum ZooClass {
    /// Random tree (includes stars and chains).
    Tree,
    /// Ring with optional chords.
    Ring,
    /// Two-dimensional lattice with shortcuts.
    Grid,
    /// Random geometric mesh.
    Mesh,
    /// Multi-continent network.
    Continental,
    /// Full mesh (overlay).
    Clique,
    /// Hand-built named network.
    Named,
}

impl ZooClass {
    /// Recovers the class from a network name produced by this module.
    pub fn of(topology: &Topology) -> ZooClass {
        let n = topology.name();
        if n.starts_with("tree") || n.starts_with("chain") || n.starts_with("star") {
            ZooClass::Tree
        } else if n.starts_with("ring") {
            ZooClass::Ring
        } else if n.starts_with("grid") {
            ZooClass::Grid
        } else if n.starts_with("mesh") {
            ZooClass::Mesh
        } else if n.starts_with("cont") {
            ZooClass::Continental
        } else if n.starts_with("clique") {
            ZooClass::Clique
        } else {
            ZooClass::Named
        }
    }
}

/// A rectangular geographic footprint to scatter PoPs over.
#[derive(Clone, Copy, Debug)]
pub struct Region {
    /// Minimum/maximum latitude.
    pub lat: (f64, f64),
    /// Minimum/maximum longitude.
    pub lon: (f64, f64),
}

/// Wide-Europe footprint (Lisbon to Helsinki), ~3400 km across.
pub const EUROPE: Region = Region { lat: (37.0, 60.5), lon: (-9.0, 26.0) };
/// Continental-US footprint, ~4200 km across.
pub const USA: Region = Region { lat: (30.0, 47.5), lon: (-122.0, -72.0) };
/// East-Asia footprint.
pub const ASIA: Region = Region { lat: (1.0, 38.0), lon: (100.0, 140.0) };

impl Region {
    fn sample(&self, rng: &mut StdRng) -> GeoPoint {
        GeoPoint::new(rng.gen_range(self.lat.0..self.lat.1), rng.gen_range(self.lon.0..self.lon.1))
    }
}

/// Capacity tiers in Mbps: 1G, 2.5G, 10G, 40G, 100G.
pub const CAPACITY_TIERS: [f64; 5] = [1_000.0, 2_500.0, 10_000.0, 40_000.0, 100_000.0];

/// Draws a plausible capacity for a cable of the given length: longer
/// cables are backbone trunks and trend fatter, short cables are regional
/// spurs.
fn capacity_for(dist_km: f64, rng: &mut StdRng) -> f64 {
    let choices: &[f64] = if dist_km > 2500.0 {
        &[40_000.0, 100_000.0]
    } else if dist_km > 800.0 {
        &[10_000.0, 40_000.0]
    } else {
        &[2_500.0, 10_000.0, 10_000.0]
    };
    choices[rng.gen_range(0..choices.len())]
}

/// Random tree over `n` PoPs. `chain_bias` in `[0, 1]`: 0 attaches uniformly
/// (bushy trees), 1 always extends the most recent node (a chain).
pub fn tree(n: usize, chain_bias: f64, region: Region, seed: u64) -> Topology {
    assert!(n >= 3);
    let mut rng = StdRng::seed_from_u64(seed ^ 0x7265_6531);
    let mut b =
        TopologyBuilder::new(format!("tree-{n}-b{:02}-s{seed}", (chain_bias * 10.0) as u32));
    let pops: Vec<PopId> =
        (0..n).map(|i| b.add_pop(format!("p{i}"), region.sample(&mut rng))).collect();
    for i in 1..n {
        let parent = if rng.gen_bool(chain_bias) { i - 1 } else { rng.gen_range(0..i) };
        let d = dist(&b, pops[parent], pops[i]);
        let cap = capacity_for(d, &mut rng);
        b.connect(pops[parent], pops[i], cap);
    }
    b.build()
}

/// Ring of `n` PoPs laid around the region's perimeter, plus `chords`
/// random cross-ring cables.
pub fn ring(n: usize, chords: usize, region: Region, seed: u64) -> Topology {
    assert!(n >= 4);
    let mut rng = StdRng::seed_from_u64(seed ^ 0x7269_6e67);
    let mut b = TopologyBuilder::new(format!("ring-{n}-c{chords}-s{seed}"));
    let (clat, clon) = ((region.lat.0 + region.lat.1) / 2.0, (region.lon.0 + region.lon.1) / 2.0);
    let (rlat, rlon) = ((region.lat.1 - region.lat.0) / 2.0, (region.lon.1 - region.lon.0) / 2.0);
    let pops: Vec<PopId> = (0..n)
        .map(|i| {
            let ang = 2.0 * std::f64::consts::PI * (i as f64) / (n as f64);
            let jitter = rng.gen_range(0.85..1.0);
            b.add_pop(
                format!("p{i}"),
                GeoPoint::new(clat + rlat * jitter * ang.sin(), clon + rlon * jitter * ang.cos()),
            )
        })
        .collect();
    for i in 0..n {
        let j = (i + 1) % n;
        let d = dist(&b, pops[i], pops[j]);
        let cap = capacity_for(d, &mut rng);
        b.connect(pops[i], pops[j], cap);
    }
    let mut added = 0;
    let mut guard = 0;
    while added < chords && guard < 100 {
        guard += 1;
        let i = rng.gen_range(0..n);
        let j = rng.gen_range(0..n);
        if i != j && !b.connected(pops[i], pops[j]) {
            let d = dist(&b, pops[i], pops[j]);
            let cap = capacity_for(d, &mut rng);
            b.connect(pops[i], pops[j], cap);
            added += 1;
        }
    }
    b.build()
}

/// `w x h` lattice over the region with jittered positions; every lattice
/// edge is a cable and each diagonal is added with probability
/// `shortcut_prob` — the GTS-like "two-dimensional grid" class.
pub fn grid(w: usize, h: usize, shortcut_prob: f64, region: Region, seed: u64) -> Topology {
    assert!(w >= 2 && h >= 2);
    let mut rng = StdRng::seed_from_u64(seed ^ 0x6772_6964);
    let mut b = TopologyBuilder::new(format!(
        "grid-{w}x{h}-p{:02}-s{seed}",
        (shortcut_prob * 100.0) as u32
    ));
    let mut pops = Vec::with_capacity(w * h);
    for y in 0..h {
        for x in 0..w {
            let lat = region.lat.0
                + (region.lat.1 - region.lat.0) * (y as f64 + rng.gen_range(-0.2..0.2))
                    / (h - 1).max(1) as f64;
            let lon = region.lon.0
                + (region.lon.1 - region.lon.0) * (x as f64 + rng.gen_range(-0.2..0.2))
                    / (w - 1).max(1) as f64;
            pops.push(b.add_pop(format!("g{x}-{y}"), GeoPoint::new(lat.clamp(-89.0, 89.0), lon)));
        }
    }
    let at = |x: usize, y: usize| pops[y * w + x];
    for y in 0..h {
        for x in 0..w {
            if x + 1 < w {
                let d = dist(&b, at(x, y), at(x + 1, y));
                let cap = capacity_for(d, &mut rng);
                b.connect(at(x, y), at(x + 1, y), cap);
            }
            if y + 1 < h {
                let d = dist(&b, at(x, y), at(x, y + 1));
                let cap = capacity_for(d, &mut rng);
                b.connect(at(x, y), at(x, y + 1), cap);
            }
            if x + 1 < w && y + 1 < h && rng.gen_bool(shortcut_prob) {
                let d = dist(&b, at(x, y), at(x + 1, y + 1));
                let cap = capacity_for(d, &mut rng);
                b.connect(at(x, y), at(x + 1, y + 1), cap);
            }
        }
    }
    b.build()
}

/// Random geometric mesh: `n` PoPs scattered over the region, cables between
/// all pairs closer than `radius_km`, then stitched to connectivity by
/// joining nearest components.
pub fn mesh(n: usize, radius_km: f64, region: Region, seed: u64) -> Topology {
    assert!(n >= 4);
    let mut rng = StdRng::seed_from_u64(seed ^ 0x6d65_7368);
    let mut b = TopologyBuilder::new(format!("mesh-{n}-r{}-s{seed}", radius_km as u32));
    let pops: Vec<PopId> =
        (0..n).map(|i| b.add_pop(format!("p{i}"), region.sample(&mut rng))).collect();
    for i in 0..n {
        for j in i + 1..n {
            let d = dist(&b, pops[i], pops[j]);
            if d <= radius_km {
                let cap = capacity_for(d, &mut rng);
                b.connect(pops[i], pops[j], cap);
            }
        }
    }
    stitch_components(&mut b, &pops, &mut rng);
    b.build()
}

/// Multi-continent network: a mesh per continent plus `inter_links` cables
/// between consecutive continents — the Cogent-like class.
pub fn continental(
    per_continent: usize,
    continents: &[Region],
    radius_km: f64,
    inter_links: usize,
    seed: u64,
) -> Topology {
    assert!(continents.len() >= 2 && per_continent >= 3 && inter_links >= 1);
    let mut rng = StdRng::seed_from_u64(seed ^ 0x636f_6e74);
    let mut b = TopologyBuilder::new(format!(
        "cont-{}x{per_continent}-i{inter_links}-s{seed}",
        continents.len()
    ));
    let mut clusters: Vec<Vec<PopId>> = Vec::new();
    for (ci, region) in continents.iter().enumerate() {
        let pops: Vec<PopId> = (0..per_continent)
            .map(|i| b.add_pop(format!("c{ci}p{i}"), region.sample(&mut rng)))
            .collect();
        for i in 0..pops.len() {
            for j in i + 1..pops.len() {
                let d = dist(&b, pops[i], pops[j]);
                if d <= radius_km {
                    let cap = capacity_for(d, &mut rng);
                    b.connect(pops[i], pops[j], cap);
                }
            }
        }
        let cluster = pops.clone();
        stitch_components(&mut b, &cluster, &mut rng);
        clusters.push(pops);
    }
    // Submarine cables between consecutive continents (and wrap-around when
    // more than two), fat pipes.
    for w in 0..clusters.len() {
        let next = (w + 1) % clusters.len();
        if clusters.len() == 2 && w == 1 {
            break;
        }
        for k in 0..inter_links {
            let a = clusters[w][k * 7 % clusters[w].len()];
            let c = clusters[next][k * 5 % clusters[next].len()];
            if !b.connected(a, c) {
                b.connect(a, c, 100_000.0);
            }
        }
    }
    b.build()
}

/// Full mesh over `n` PoPs — the overlay/clique class.
pub fn clique(n: usize, region: Region, seed: u64) -> Topology {
    assert!(n >= 3);
    let mut rng = StdRng::seed_from_u64(seed ^ 0x636c_6971);
    let mut b = TopologyBuilder::new(format!("clique-{n}-s{seed}"));
    let pops: Vec<PopId> =
        (0..n).map(|i| b.add_pop(format!("p{i}"), region.sample(&mut rng))).collect();
    for i in 0..n {
        for j in i + 1..n {
            let d = dist(&b, pops[i], pops[j]);
            let cap = capacity_for(d, &mut rng);
            b.connect(pops[i], pops[j], cap);
        }
    }
    b.build()
}

fn dist(b: &TopologyBuilder, x: PopId, y: PopId) -> f64 {
    // TopologyBuilder doesn't expose locations; recompute through a tiny
    // accessor instead of duplicating state.
    b.location_of(x).distance_km(&b.location_of(y))
}

/// Connects the connected components of a partially built topology by
/// repeatedly cabling the geographically closest cross-component pair.
fn stitch_components(b: &mut TopologyBuilder, pops: &[PopId], rng: &mut StdRng) {
    loop {
        let comps = components(b, pops);
        if comps.len() <= 1 {
            return;
        }
        // Closest pair between component 0 and any other.
        let mut best: Option<(PopId, PopId, f64)> = None;
        for &a in &comps[0] {
            for comp in &comps[1..] {
                for &c in comp {
                    let d = dist(b, a, c);
                    if best.is_none_or(|(_, _, bd)| d < bd) {
                        best = Some((a, c, d));
                    }
                }
            }
        }
        let (a, c, d) = best.expect("at least two components");
        let cap = capacity_for(d, rng);
        b.connect(a, c, cap);
    }
}

/// Union-find components over the builder's cables restricted to `pops`.
fn components(b: &TopologyBuilder, pops: &[PopId]) -> Vec<Vec<PopId>> {
    let mut parent: std::collections::HashMap<PopId, PopId> =
        pops.iter().map(|&p| (p, p)).collect();
    fn find(parent: &mut std::collections::HashMap<PopId, PopId>, x: PopId) -> PopId {
        let p = parent[&x];
        if p == x {
            x
        } else {
            let r = find(parent, p);
            parent.insert(x, r);
            r
        }
    }
    for &(a, c) in b.cable_endpoints().iter() {
        if parent.contains_key(&a) && parent.contains_key(&c) {
            let (ra, rc) = (find(&mut parent, a), find(&mut parent, c));
            if ra != rc {
                parent.insert(ra, rc);
            }
        }
    }
    let mut groups: std::collections::HashMap<PopId, Vec<PopId>> = std::collections::HashMap::new();
    for &p in pops {
        let r = find(&mut parent, p);
        groups.entry(r).or_default().push(p);
    }
    let mut out: Vec<Vec<PopId>> = groups.into_values().collect();
    out.sort_by_key(|g| g[0]);
    out
}

/// The paper keeps only networks with diameter above 10 ms; random PoP
/// placement occasionally lands a small network below that bar, so retry
/// with a deterministically bumped seed until the filter passes.
fn wide(make: impl Fn(u64) -> Topology, seed: u64) -> Topology {
    let mut seed = seed;
    loop {
        let t = make(seed);
        if t.diameter_ms() > 10.0 {
            return t;
        }
        seed += 100_000;
    }
}

/// The full 116-network synthetic corpus (deterministic).
///
/// Sizes and class mix chosen to mirror the paper's corpus: most networks
/// have 10–60 PoPs (90th percentile of the paper's hard subset is 74 nodes)
/// and all have diameter above 10 ms.
pub fn synthetic_zoo() -> Vec<Topology> {
    let mut nets = Vec::with_capacity(116);
    // 20 trees: bushy to chain-like.
    for i in 0..20u64 {
        let n = 8 + (i as usize % 7) * 4; // 8..32
        let bias = (i % 5) as f64 / 5.0;
        let region = if i % 2 == 0 { EUROPE } else { USA };
        nets.push(wide(|s| tree(n, bias, region, s), 1000 + i));
    }
    // 22 rings: plain and chorded.
    for i in 0..22u64 {
        let n = 6 + (i as usize % 8) * 4; // 6..34
        let chords = (i % 4) as usize;
        let region = if i % 2 == 0 { EUROPE } else { USA };
        nets.push(wide(|s| ring(n, chords, region, s), 2000 + i));
    }
    // 26 grids: the GTS-like class.
    for i in 0..26u64 {
        let w = 3 + (i as usize % 5); // 3..7
        let h = 3 + (i as usize / 5 % 4); // 3..6
        let p = [0.0, 0.1, 0.25][i as usize % 3];
        let region = if i % 2 == 0 { EUROPE } else { USA };
        nets.push(wide(|s| grid(w, h, p, region, s), 3000 + i));
    }
    // 22 meshes with rising density.
    for i in 0..22u64 {
        let n = 10 + (i as usize % 6) * 6; // 10..40
        let radius = 500.0 + 250.0 * (i % 5) as f64;
        let region = if i % 2 == 0 { EUROPE } else { USA };
        nets.push(wide(|s| mesh(n, radius, region, s), 4000 + i));
    }
    // 14 continental networks.
    for i in 0..14u64 {
        let per = 6 + (i as usize % 4) * 3; // 6..15
        let regions: &[Region] = if i % 3 == 0 { &[USA, EUROPE, ASIA] } else { &[USA, EUROPE] };
        let inter = 2 + (i % 3) as usize;
        nets.push(wide(
            |s| continental(per, regions, 900.0 + 200.0 * (i % 3) as f64, inter, s),
            5000 + i,
        ));
    }
    // 8 cliques (overlays).
    for i in 0..8u64 {
        let n = 5 + (i as usize % 4) * 3; // 5..14
        let region = if i % 2 == 0 { EUROPE } else { USA };
        nets.push(wide(|s| clique(n, region, s), 6000 + i));
    }
    // 4 named, hand-built networks.
    nets.push(named::abilene());
    nets.push(named::gts_like());
    nets.push(named::cogent_like());
    nets.push(named::google_like());
    assert_eq!(nets.len(), 116, "corpus size drifted");
    nets
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn corpus_has_116_networks() {
        let zoo = synthetic_zoo();
        assert_eq!(zoo.len(), 116);
    }

    #[test]
    fn corpus_names_unique() {
        let zoo = synthetic_zoo();
        let mut names: Vec<&str> = zoo.iter().map(|t| t.name()).collect();
        names.sort();
        names.dedup();
        assert_eq!(names.len(), 116, "duplicate network names");
    }

    #[test]
    fn corpus_is_deterministic() {
        let a = synthetic_zoo();
        let b = synthetic_zoo();
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.name(), y.name());
            assert_eq!(x.link_count(), y.link_count());
            assert_eq!(x.diameter_ms(), y.diameter_ms());
        }
    }

    #[test]
    fn all_networks_connected_and_wide() {
        for t in synthetic_zoo() {
            assert!(t.graph().is_strongly_connected(), "{} disconnected", t.name());
            assert!(
                t.diameter_ms() > 10.0,
                "{} diameter {:.1} ms below the paper's 10 ms filter",
                t.name(),
                t.diameter_ms()
            );
        }
    }

    #[test]
    fn classes_present() {
        use std::collections::HashSet;
        let classes: HashSet<ZooClass> = synthetic_zoo().iter().map(ZooClass::of).collect();
        for c in [
            ZooClass::Tree,
            ZooClass::Ring,
            ZooClass::Grid,
            ZooClass::Mesh,
            ZooClass::Continental,
            ZooClass::Clique,
            ZooClass::Named,
        ] {
            assert!(classes.contains(&c), "missing class {c:?}");
        }
    }

    #[test]
    fn tree_has_no_cycles() {
        let t = tree(15, 0.3, EUROPE, 7);
        assert_eq!(t.cables().len(), 14, "a tree has n-1 cables");
    }

    #[test]
    fn clique_is_complete() {
        let t = clique(6, EUROPE, 7);
        assert_eq!(t.cables().len(), 15);
    }

    #[test]
    fn grid_cable_count() {
        let t = grid(4, 3, 0.0, EUROPE, 7);
        // 4x3 lattice: 3*3 horizontal + 4*2 vertical = 17.
        assert_eq!(t.cables().len(), 17);
    }
}
