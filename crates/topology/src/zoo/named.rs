//! Hand-built named networks used throughout the figure reproductions.
//!
//! * [`abilene`] — the real Abilene/Internet2 research backbone (11 PoPs),
//!   a staple sanity-check topology.
//! * [`gts_like`] — a central-European grid in the spirit of GTS CE, the
//!   paper's running example of a high-LLPD network that greedy routing
//!   congests (Figures 2, 5, 6, 7).
//! * [`cogent_like`] — a two-continent network in the spirit of Cogent, the
//!   paper's example of intercontinental path diversity.
//! * [`google_like`] — a global mesh standing in for Google's WAN
//!   (Figure 19), tuned for the highest LLPD in the corpus.
//!
//! "Like" is doing honest work in these names: PoP cities are real and link
//! delays geographic, but adjacency is our reconstruction, designed to
//! reproduce each network's *structural role* in the paper rather than its
//! exact link list.

use crate::geo::GeoPoint;
use crate::model::{PopId, Topology, TopologyBuilder};

/// The six named backbones: Abilene, NSFNET, GÉANT-like, GTS-like,
/// Cogent-like and Google-like, in the order the failure sweep reports
/// them.
pub fn all() -> Vec<Topology> {
    vec![abilene(), nsfnet(), geant_like(), gts_like(), cogent_like(), google_like()]
}

fn pop(b: &mut TopologyBuilder, name: &str, lat: f64, lon: f64) -> PopId {
    b.add_pop(name, GeoPoint::new(lat, lon))
}

/// The Abilene research backbone (11 PoPs, 14 cables), 10 Gb/s throughout.
pub fn abilene() -> Topology {
    let mut b = TopologyBuilder::new("Abilene");
    let sea = pop(&mut b, "Seattle", 47.61, -122.33);
    let sun = pop(&mut b, "Sunnyvale", 37.37, -122.04);
    let lax = pop(&mut b, "LosAngeles", 34.05, -118.24);
    let den = pop(&mut b, "Denver", 39.74, -104.99);
    let kan = pop(&mut b, "KansasCity", 39.10, -94.58);
    let hou = pop(&mut b, "Houston", 29.76, -95.37);
    let chi = pop(&mut b, "Chicago", 41.88, -87.63);
    let ind = pop(&mut b, "Indianapolis", 39.77, -86.16);
    let atl = pop(&mut b, "Atlanta", 33.75, -84.39);
    let was = pop(&mut b, "WashingtonDC", 38.91, -77.04);
    let nyc = pop(&mut b, "NewYork", 40.71, -74.01);
    const C: f64 = 10_000.0;
    for (a, z) in [
        (sea, sun),
        (sea, den),
        (sun, lax),
        (sun, den),
        (lax, hou),
        (den, kan),
        (kan, hou),
        (kan, ind),
        (hou, atl),
        (chi, ind),
        (chi, nyc),
        (ind, atl),
        (atl, was),
        (was, nyc),
    ] {
        b.connect(a, z, C);
    }
    b.build()
}

/// GTS-like central-European grid: 22 PoPs with the Vienna–Bratislava–
/// Győr–Veszprém–Budapest core of the paper's Figure 5.
pub fn gts_like() -> Topology {
    let mut b = TopologyBuilder::new("GtsCe-like");
    let prague = pop(&mut b, "Prague", 50.08, 14.44);
    let brno = pop(&mut b, "Brno", 49.20, 16.61);
    let ostrava = pop(&mut b, "Ostrava", 49.82, 18.26);
    let plzen = pop(&mut b, "Plzen", 49.75, 13.38);
    let berlin = pop(&mut b, "Berlin", 52.52, 13.40);
    let dresden = pop(&mut b, "Dresden", 51.05, 13.74);
    let munich = pop(&mut b, "Munich", 48.14, 11.58);
    let nuremberg = pop(&mut b, "Nuremberg", 49.45, 11.08);
    let vienna = pop(&mut b, "Vienna", 48.21, 16.37);
    let linz = pop(&mut b, "Linz", 48.31, 14.29);
    let graz = pop(&mut b, "Graz", 47.07, 15.44);
    let bratislava = pop(&mut b, "Bratislava", 48.15, 17.11);
    let gyor = pop(&mut b, "Gyor", 47.69, 17.63);
    let veszprem = pop(&mut b, "Veszprem", 47.09, 17.91);
    let budapest = pop(&mut b, "Budapest", 47.50, 19.04);
    let szeged = pop(&mut b, "Szeged", 46.25, 20.15);
    let krakow = pop(&mut b, "Krakow", 50.06, 19.94);
    let katowice = pop(&mut b, "Katowice", 50.26, 19.02);
    let wroclaw = pop(&mut b, "Wroclaw", 51.11, 17.04);
    let warsaw = pop(&mut b, "Warsaw", 52.23, 21.01);
    let zagreb = pop(&mut b, "Zagreb", 45.82, 15.98);
    let ljubljana = pop(&mut b, "Ljubljana", 46.06, 14.51);
    // Western and south-eastern extensions push the diameter past the
    // paper's 10 ms corpus filter while keeping the grid character.
    let frankfurt = pop(&mut b, "Frankfurt", 50.11, 8.68);
    let amsterdam = pop(&mut b, "Amsterdam", 52.37, 4.90);
    let bucharest = pop(&mut b, "Bucharest", 44.43, 26.10);
    let sofia = pop(&mut b, "Sofia", 42.70, 23.32);
    const TRUNK: f64 = 10_000.0;
    const SPUR: f64 = 2_500.0;
    for (a, z, c) in [
        // Czech core
        (prague, brno, TRUNK),
        (prague, plzen, SPUR),
        (plzen, nuremberg, SPUR),
        (prague, dresden, TRUNK),
        (brno, ostrava, TRUNK),
        (brno, vienna, TRUNK),
        (ostrava, katowice, TRUNK),
        // German flank
        (berlin, dresden, TRUNK),
        (berlin, warsaw, TRUNK),
        (dresden, wroclaw, TRUNK),
        (munich, nuremberg, SPUR),
        (nuremberg, prague, TRUNK),
        (munich, linz, TRUNK),
        (munich, vienna, TRUNK),
        // Austrian core
        (linz, vienna, TRUNK),
        (linz, graz, SPUR),
        (graz, vienna, TRUNK),
        (graz, zagreb, TRUNK),
        (graz, ljubljana, SPUR),
        // The Figure-5 neighbourhood: Vienna-Bratislava-Gyor-Veszprem-Budapest
        (vienna, bratislava, TRUNK),
        (bratislava, gyor, TRUNK),
        (gyor, budapest, TRUNK),
        (gyor, veszprem, SPUR),
        (veszprem, budapest, SPUR),
        (vienna, gyor, TRUNK),
        // Hungarian + southern ring
        (budapest, szeged, SPUR),
        (szeged, zagreb, TRUNK),
        (zagreb, ljubljana, TRUNK),
        (ljubljana, vienna, TRUNK),
        (budapest, krakow, TRUNK),
        // Polish mesh
        (krakow, katowice, SPUR),
        (katowice, wroclaw, TRUNK),
        (wroclaw, warsaw, TRUNK),
        (krakow, warsaw, TRUNK),
        (bratislava, budapest, TRUNK),
        // Western extension
        (frankfurt, nuremberg, SPUR),
        (frankfurt, munich, TRUNK),
        (amsterdam, frankfurt, TRUNK),
        (amsterdam, berlin, TRUNK),
        // South-eastern extension
        (bucharest, budapest, TRUNK),
        (bucharest, szeged, SPUR),
        (sofia, bucharest, TRUNK),
        (sofia, szeged, TRUNK),
    ] {
        // Terrestrial fibre in central Europe detours well above the great
        // circle (REPETITA's computed latencies show the same); 1.35 is a
        // typical route factor and keeps the diameter above the paper's
        // 10 ms corpus filter.
        let delay = b.location_of(a).delay_ms_to(&b.location_of(z)) * 1.35;
        b.connect_with_delay(a, z, delay.max(0.05), c);
    }
    b.build()
}

/// Cogent-like two-continent backbone: 26 PoPs, dense meshes on both sides
/// of the Atlantic plus four 100 Gb/s submarine cables.
pub fn cogent_like() -> Topology {
    let mut b = TopologyBuilder::new("Cogent-like");
    // US side.
    let sea = pop(&mut b, "Seattle", 47.61, -122.33);
    let sfo = pop(&mut b, "SanFrancisco", 37.77, -122.42);
    let lax = pop(&mut b, "LosAngeles", 34.05, -118.24);
    let phx = pop(&mut b, "Phoenix", 33.45, -112.07);
    let den = pop(&mut b, "Denver", 39.74, -104.99);
    let dal = pop(&mut b, "Dallas", 32.78, -96.80);
    let hou = pop(&mut b, "Houston", 29.76, -95.37);
    let chi = pop(&mut b, "Chicago", 41.88, -87.63);
    let atl = pop(&mut b, "Atlanta", 33.75, -84.39);
    let mia = pop(&mut b, "Miami", 25.76, -80.19);
    let was = pop(&mut b, "WashingtonDC", 38.91, -77.04);
    let nyc = pop(&mut b, "NewYork", 40.71, -74.01);
    let bos = pop(&mut b, "Boston", 42.36, -71.06);
    // EU side.
    let lon = pop(&mut b, "London", 51.51, -0.13);
    let par = pop(&mut b, "Paris", 48.86, 2.35);
    let ams = pop(&mut b, "Amsterdam", 52.37, 4.90);
    let bru = pop(&mut b, "Brussels", 50.85, 4.35);
    let fra = pop(&mut b, "Frankfurt", 50.11, 8.68);
    let zur = pop(&mut b, "Zurich", 47.38, 8.54);
    let mil = pop(&mut b, "Milan", 45.46, 9.19);
    let mad = pop(&mut b, "Madrid", 40.42, -3.70);
    let bar = pop(&mut b, "Barcelona", 41.39, 2.17);
    let mun = pop(&mut b, "Munich", 48.14, 11.58);
    let vie = pop(&mut b, "Vienna", 48.21, 16.37);
    let pra = pop(&mut b, "Prague", 50.08, 14.44);
    let ham = pop(&mut b, "Hamburg", 53.55, 9.99);
    const T: f64 = 40_000.0; // continental trunk
    const S: f64 = 10_000.0; // regional
    for (a, z, c) in [
        // US mesh
        (sea, sfo, T),
        (sea, den, T),
        (sea, chi, T),
        (sfo, lax, T),
        (sfo, den, T),
        (lax, phx, S),
        (phx, dal, S),
        (lax, dal, T),
        (den, dal, S),
        (den, chi, T),
        (dal, hou, S),
        (hou, atl, S),
        (dal, atl, T),
        (chi, nyc, T),
        (chi, was, T),
        (atl, was, T),
        (atl, mia, S),
        (mia, was, S),
        (was, nyc, T),
        (nyc, bos, S),
        (chi, bos, S),
        // EU mesh
        (lon, par, T),
        (lon, ams, T),
        (lon, bru, S),
        (par, bru, S),
        (bru, ams, S),
        (ams, fra, T),
        (ams, ham, S),
        (ham, fra, S),
        (par, fra, T),
        (par, mad, T),
        (mad, bar, S),
        (bar, mil, S),
        (par, zur, S),
        (zur, fra, S),
        (zur, mil, S),
        (mil, mun, S),
        (fra, mun, S),
        (mun, vie, S),
        (vie, pra, S),
        (pra, fra, S),
        (ham, pra, S),
        // Transatlantic
        (nyc, lon, 100_000.0),
        (bos, ams, 100_000.0),
        (was, par, 100_000.0),
        (mia, mad, 100_000.0),
    ] {
        b.connect(a, z, c);
    }
    b.build()
}

/// Google-B4-like global WAN: 18 PoPs on five continents, every PoP with
/// degree >= 3 and rich shortcut structure. This is the Figure-19 datapoint
/// (the paper measures LLPD = 0.875 on Google's real topology).
pub fn google_like() -> Topology {
    let mut b = TopologyBuilder::new("GoogleB4-like");
    let sea = pop(&mut b, "Seattle", 47.61, -122.33);
    let sfo = pop(&mut b, "SanFrancisco", 37.77, -122.42);
    let lax = pop(&mut b, "LosAngeles", 34.05, -118.24);
    let dal = pop(&mut b, "Dallas", 32.78, -96.80);
    let chi = pop(&mut b, "Chicago", 41.88, -87.63);
    let nyc = pop(&mut b, "NewYork", 40.71, -74.01);
    let sao = pop(&mut b, "SaoPaulo", -23.55, -46.63);
    let lon = pop(&mut b, "London", 51.51, -0.13);
    let par = pop(&mut b, "Paris", 48.86, 2.35);
    let fra = pop(&mut b, "Frankfurt", 50.11, 8.68);
    let sto = pop(&mut b, "Stockholm", 59.33, 18.07);
    let mum = pop(&mut b, "Mumbai", 19.08, 72.88);
    let sin = pop(&mut b, "Singapore", 1.35, 103.82);
    let hkg = pop(&mut b, "HongKong", 22.32, 114.17);
    let tpe = pop(&mut b, "Taipei", 25.03, 121.57);
    let tok = pop(&mut b, "Tokyo", 35.68, 139.65);
    let syd = pop(&mut b, "Sydney", -33.87, 151.21);
    let jnb = pop(&mut b, "Johannesburg", -26.20, 28.05);
    const C: f64 = 100_000.0;
    for (a, z) in [
        // North America ring + chords
        (sea, sfo),
        (sfo, lax),
        (lax, dal),
        (dal, chi),
        (chi, nyc),
        (sea, chi),
        (sfo, dal),
        (lax, chi),
        (dal, nyc),
        // South America
        (sao, nyc),
        (sao, lax),
        (sao, jnb),
        // Atlantic
        (nyc, lon),
        (nyc, par),
        (chi, lon),
        // Europe mesh
        (lon, par),
        (par, fra),
        (lon, fra),
        (fra, sto),
        (lon, sto),
        (par, sto),
        // Europe - Asia / Africa
        (fra, mum),
        (par, jnb),
        (lon, mum),
        // Asia mesh
        (mum, sin),
        (sin, hkg),
        (hkg, tpe),
        (tpe, tok),
        (sin, tpe),
        (hkg, tok),
        (mum, hkg),
        // Pacific
        (tok, sea),
        (tok, sfo),
        (tpe, lax),
        (sin, syd),
        (syd, lax),
        (syd, tok),
        (jnb, mum),
    ] {
        b.connect(a, z, C);
    }
    b.build()
}

/// GÉANT-like European research backbone: 24 PoPs, the ring-with-chords
/// shape typical of NREN networks — mid-range LLPD, between the rings and
/// the grids of the corpus.
pub fn geant_like() -> Topology {
    let mut b = TopologyBuilder::new("Geant-like");
    let lis = pop(&mut b, "Lisbon", 38.72, -9.14);
    let mad = pop(&mut b, "Madrid", 40.42, -3.70);
    let par = pop(&mut b, "Paris", 48.86, 2.35);
    let lon = pop(&mut b, "London", 51.51, -0.13);
    let bru = pop(&mut b, "Brussels", 50.85, 4.35);
    let ams = pop(&mut b, "Amsterdam", 52.37, 4.90);
    let ham = pop(&mut b, "Hamburg", 53.55, 9.99);
    let cop = pop(&mut b, "Copenhagen", 55.68, 12.57);
    let sto = pop(&mut b, "Stockholm", 59.33, 18.07);
    let hel = pop(&mut b, "Helsinki", 60.17, 24.94);
    let tal = pop(&mut b, "Tallinn", 59.44, 24.75);
    let rig = pop(&mut b, "Riga", 56.95, 24.11);
    let war = pop(&mut b, "Warsaw", 52.23, 21.01);
    let pra = pop(&mut b, "Prague", 50.08, 14.44);
    let vie = pop(&mut b, "Vienna", 48.21, 16.37);
    let bud = pop(&mut b, "Budapest", 47.50, 19.04);
    let buc = pop(&mut b, "Bucharest", 44.43, 26.10);
    let sof = pop(&mut b, "Sofia", 42.70, 23.32);
    let ath = pop(&mut b, "Athens", 37.98, 23.73);
    let mil = pop(&mut b, "Milan", 45.46, 9.19);
    let mar = pop(&mut b, "Marseille", 43.30, 5.37);
    let gen = pop(&mut b, "Geneva", 46.20, 6.14);
    let fra = pop(&mut b, "Frankfurt", 50.11, 8.68);
    let dub = pop(&mut b, "Dublin", 53.35, -6.26);
    const T: f64 = 100_000.0;
    const S: f64 = 10_000.0;
    for (a, z, c) in [
        // Western ring
        (lis, mad, S),
        (mad, mar, T),
        (mar, mil, T),
        (mad, par, T),
        (par, lon, T),
        (lon, dub, S),
        (dub, ams, S),
        (par, bru, S),
        (bru, ams, S),
        (ams, ham, T),
        (ams, fra, T),
        (par, gen, T),
        (gen, mil, T),
        (gen, fra, T),
        // Northern arc
        (ham, cop, S),
        (cop, sto, T),
        (sto, hel, T),
        (hel, tal, S),
        (tal, rig, S),
        (rig, war, S),
        // Central / eastern
        (fra, pra, T),
        (ham, war, T),
        (war, pra, S),
        (pra, vie, S),
        (fra, vie, T),
        (vie, bud, S),
        (bud, buc, S),
        (buc, sof, S),
        (sof, ath, S),
        (mil, vie, S),
        (ath, mil, T), // submarine
        (lis, lon, T), // Atlantic coastal
    ] {
        b.connect(a, z, c);
    }
    b.build()
}

/// NSFNET T3 backbone (1992): 14 PoPs, the canonical research topology —
/// sparse, almost tree-like with a few cross-country loops (low LLPD).
pub fn nsfnet() -> Topology {
    let mut b = TopologyBuilder::new("NSFNET");
    let sea = pop(&mut b, "Seattle", 47.61, -122.33);
    let pal = pop(&mut b, "PaloAlto", 37.44, -122.14);
    let sd = pop(&mut b, "SanDiego", 32.72, -117.16);
    let slc = pop(&mut b, "SaltLake", 40.76, -111.89);
    let bou = pop(&mut b, "Boulder", 40.01, -105.27);
    let hou = pop(&mut b, "Houston", 29.76, -95.37);
    let lin = pop(&mut b, "Lincoln", 40.81, -96.68);
    let cha = pop(&mut b, "Champaign", 40.12, -88.24);
    let ann = pop(&mut b, "AnnArbor", 42.28, -83.74);
    let pit = pop(&mut b, "Pittsburgh", 40.44, -79.996);
    let atl = pop(&mut b, "Atlanta", 33.75, -84.39);
    let cp = pop(&mut b, "CollegePark", 38.99, -76.94);
    let pri = pop(&mut b, "Princeton", 40.36, -74.66);
    let ith = pop(&mut b, "Ithaca", 42.44, -76.50);
    const C: f64 = 2_500.0; // T3-era scaled up to stay meaningful
    for (a, z) in [
        (sea, pal),
        (sea, slc),
        (pal, sd),
        (pal, slc),
        (sd, hou),
        (slc, bou),
        (bou, lin),
        (bou, hou),
        (lin, cha),
        (hou, atl),
        (cha, ann),
        (cha, atl),
        (ann, ith),
        (ann, pit),
        (pit, cp),
        (pit, ith),
        (atl, cp),
        (cp, pri),
        (pri, ith),
    ] {
        b.connect(a, z, C);
    }
    b.build()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::zoo::ZooClass;

    #[test]
    fn all_named_build_and_connect() {
        for t in [abilene(), gts_like(), cogent_like(), google_like(), geant_like(), nsfnet()] {
            assert!(t.graph().is_strongly_connected(), "{}", t.name());
            assert_eq!(ZooClass::of(&t), ZooClass::Named);
        }
    }

    #[test]
    fn geant_like_shape() {
        let t = geant_like();
        assert_eq!(t.pop_count(), 24);
        assert!(t.diameter_ms() > 10.0, "Lisbon-Helsinki spans Europe");
        // Ring-with-chords: mean cable-degree between tree (2(n-1)/n) and grid.
        let mean_degree = t.link_count() as f64 / t.pop_count() as f64;
        assert!(mean_degree > 2.2 && mean_degree < 3.5, "got {mean_degree}");
    }

    #[test]
    fn nsfnet_shape() {
        let t = nsfnet();
        assert_eq!(t.pop_count(), 14);
        assert_eq!(t.cables().len(), 19);
        assert!(t.diameter_ms() > 10.0, "coast to coast");
    }

    #[test]
    fn abilene_shape() {
        let t = abilene();
        assert_eq!(t.pop_count(), 11);
        assert_eq!(t.cables().len(), 14);
        // Coast-to-coast delay is continental scale.
        assert!(t.diameter_ms() > 10.0);
    }

    #[test]
    fn gts_contains_figure5_neighbourhood() {
        let t = gts_like();
        for name in ["Vienna", "Bratislava", "Gyor", "Veszprem", "Budapest"] {
            assert!(t.pop_by_name(name).is_some(), "missing {name}");
        }
        let v = t.pop_by_name("Veszprem").unwrap();
        let g = t.pop_by_name("Gyor").unwrap();
        assert!(t.graph().find_link(v, g).is_some(), "Figure-5 V-G link missing");
    }

    #[test]
    fn cogent_has_transatlantic_cables() {
        let t = cogent_like();
        let nyc = t.pop_by_name("NewYork").unwrap();
        let lon = t.pop_by_name("London").unwrap();
        let l = t.graph().find_link(nyc, lon).unwrap();
        assert_eq!(t.graph().link(l).capacity_mbps, 100_000.0);
        assert!(t.graph().link(l).delay_ms > 25.0, "transatlantic delay");
    }

    #[test]
    fn google_like_is_dense_and_global() {
        let t = google_like();
        assert!(t.diameter_ms() > 80.0, "global reach");
        // Every PoP should have degree >= 3 (cable-level).
        for p in t.graph().nodes() {
            assert!(t.graph().out_links(p).len() >= 3, "{} has degree < 3", t.pop_name(p));
        }
    }
}
