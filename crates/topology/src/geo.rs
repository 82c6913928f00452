//! Geographic coordinates and propagation-delay modelling.

/// Speed of light in fibre, expressed in km per millisecond (~2/3 c).
pub const FIBRE_KM_PER_MS: f64 = 200.0;

/// Mean Earth radius in km.
pub const EARTH_RADIUS_KM: f64 = 6371.0;

/// A point on the Earth's surface.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct GeoPoint {
    /// Latitude in degrees, positive north.
    pub lat_deg: f64,
    /// Longitude in degrees, positive east.
    pub lon_deg: f64,
}

impl GeoPoint {
    /// Creates a point, validating ranges.
    ///
    /// # Panics
    /// Panics if latitude is outside [-90, 90] or longitude outside
    /// [-180, 360] (the slack above 180 tolerates unnormalized inputs).
    pub fn new(lat_deg: f64, lon_deg: f64) -> Self {
        assert!((-90.0..=90.0).contains(&lat_deg), "bad latitude {lat_deg}");
        assert!((-180.0..=360.0).contains(&lon_deg), "bad longitude {lon_deg}");
        GeoPoint { lat_deg, lon_deg }
    }

    /// Great-circle distance to `other` in km (haversine formula).
    pub fn distance_km(&self, other: &GeoPoint) -> f64 {
        let (lat1, lon1) = (self.lat_deg.to_radians(), self.lon_deg.to_radians());
        let (lat2, lon2) = (other.lat_deg.to_radians(), other.lon_deg.to_radians());
        let dlat = lat2 - lat1;
        let dlon = lon2 - lon1;
        let a = (dlat / 2.0).sin().powi(2) + lat1.cos() * lat2.cos() * (dlon / 2.0).sin().powi(2);
        2.0 * EARTH_RADIUS_KM * a.sqrt().atan2((1.0 - a).sqrt())
    }

    /// Propagation delay to `other` in ms along a great-circle fibre run.
    pub fn delay_ms_to(&self, other: &GeoPoint) -> f64 {
        self.distance_km(other) / FIBRE_KM_PER_MS
    }

    /// Unit vector on the sphere (x toward lat 0/lon 0, z toward the pole).
    fn to_unit(self) -> [f64; 3] {
        let (lat, lon) = (self.lat_deg.to_radians(), self.lon_deg.to_radians());
        [lat.cos() * lon.cos(), lat.cos() * lon.sin(), lat.sin()]
    }

    /// The point a fraction `f` (in `[0, 1]`) of the way along the great
    /// circle from `self` to `other` — spherical linear interpolation, the
    /// path a fibre run between the two endpoints is modelled to follow.
    /// Degenerate inputs (coincident or antipodal endpoints) return `self`.
    pub fn interpolate(&self, other: &GeoPoint, f: f64) -> GeoPoint {
        let a = self.to_unit();
        let b = other.to_unit();
        let dot = (a[0] * b[0] + a[1] * b[1] + a[2] * b[2]).clamp(-1.0, 1.0);
        let omega = dot.acos();
        if omega.sin() < 1e-9 {
            return *self;
        }
        let (wa, wb) = (((1.0 - f) * omega).sin() / omega.sin(), (f * omega).sin() / omega.sin());
        let p = [wa * a[0] + wb * b[0], wa * a[1] + wb * b[1], wa * a[2] + wb * b[2]];
        let norm = (p[0] * p[0] + p[1] * p[1] + p[2] * p[2]).sqrt();
        GeoPoint {
            lat_deg: (p[2] / norm).asin().to_degrees(),
            lon_deg: p[1].atan2(p[0]).to_degrees(),
        }
    }
}

/// Sample points per segment when approximating corridor distance.
const CORRIDOR_SAMPLES: usize = 17;

/// Minimum distance (km) between the great-circle corridors `a0—a1` and
/// `b0—b1`, approximated by sampling each segment at `CORRIDOR_SAMPLES`
/// (17) points. Good to a few km at continental scale — plenty for deciding
/// whether two fibre runs plausibly share a conduit corridor.
pub fn corridor_distance_km(a0: &GeoPoint, a1: &GeoPoint, b0: &GeoPoint, b1: &GeoPoint) -> f64 {
    let sample = |p: &GeoPoint, q: &GeoPoint, i: usize| {
        p.interpolate(q, i as f64 / (CORRIDOR_SAMPLES - 1) as f64)
    };
    let mut min = f64::INFINITY;
    for i in 0..CORRIDOR_SAMPLES {
        let pa = sample(a0, a1, i);
        for j in 0..CORRIDOR_SAMPLES {
            min = min.min(pa.distance_km(&sample(b0, b1, j)));
        }
    }
    min
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_distance_to_self() {
        let p = GeoPoint::new(48.2, 16.37); // Vienna
        assert!(p.distance_km(&p) < 1e-9);
    }

    #[test]
    fn london_new_york_roughly_5570_km() {
        let lon = GeoPoint::new(51.5074, -0.1278);
        let nyc = GeoPoint::new(40.7128, -74.0060);
        let d = lon.distance_km(&nyc);
        assert!((d - 5570.0).abs() < 60.0, "got {d}");
        // ~28 ms one-way in fibre.
        let delay = lon.delay_ms_to(&nyc);
        assert!((delay - 27.85).abs() < 0.5, "got {delay}");
    }

    #[test]
    fn symmetric() {
        let a = GeoPoint::new(52.52, 13.405); // Berlin
        let b = GeoPoint::new(47.4979, 19.0402); // Budapest
        assert!((a.distance_km(&b) - b.distance_km(&a)).abs() < 1e-9);
    }

    #[test]
    fn antipodal_is_half_circumference() {
        let a = GeoPoint::new(0.0, 0.0);
        let b = GeoPoint::new(0.0, 180.0);
        let d = a.distance_km(&b);
        assert!((d - std::f64::consts::PI * EARTH_RADIUS_KM).abs() < 1.0);
    }

    #[test]
    #[should_panic]
    fn bad_latitude_rejected() {
        GeoPoint::new(91.0, 0.0);
    }

    #[test]
    fn interpolation_endpoints_and_midpoint() {
        let lon = GeoPoint::new(51.5074, -0.1278);
        let nyc = GeoPoint::new(40.7128, -74.0060);
        assert!(lon.interpolate(&nyc, 0.0).distance_km(&lon) < 1e-6);
        assert!(lon.interpolate(&nyc, 1.0).distance_km(&nyc) < 1e-6);
        let mid = lon.interpolate(&nyc, 0.5);
        let (d0, d1) = (mid.distance_km(&lon), mid.distance_km(&nyc));
        assert!((d0 - d1).abs() < 1.0, "midpoint equidistant: {d0} vs {d1}");
        assert!((d0 + d1 - lon.distance_km(&nyc)).abs() < 1.0, "midpoint on the great circle");
        // Great-circle LON-NYC arcs north of the rhumb line.
        assert!(mid.lat_deg > 51.5, "arc peaks above both endpoints, got {}", mid.lat_deg);
    }

    #[test]
    fn interpolation_degenerate_pairs_return_start() {
        let p = GeoPoint::new(10.0, 20.0);
        assert_eq!(p.interpolate(&p, 0.5), p);
        let anti = GeoPoint::new(-10.0, 200.0);
        assert_eq!(p.interpolate(&anti, 0.5), p);
    }

    #[test]
    fn corridor_distance_of_crossing_and_parallel_segments() {
        // Two segments crossing near (45, 10): distance ~0.
        let x = corridor_distance_km(
            &GeoPoint::new(44.0, 10.0),
            &GeoPoint::new(46.0, 10.0),
            &GeoPoint::new(45.0, 9.0),
            &GeoPoint::new(45.0, 11.0),
        );
        assert!(x < 20.0, "crossing segments nearly touch, got {x}");
        // Parallel east-west segments one degree of latitude apart:
        // ~111 km everywhere.
        let p = corridor_distance_km(
            &GeoPoint::new(45.0, 5.0),
            &GeoPoint::new(45.0, 8.0),
            &GeoPoint::new(46.0, 5.0),
            &GeoPoint::new(46.0, 8.0),
        );
        assert!((p - 111.0).abs() < 10.0, "parallel corridors ~111 km apart, got {p}");
        // Distance is symmetric in the segments.
        let q = corridor_distance_km(
            &GeoPoint::new(46.0, 5.0),
            &GeoPoint::new(46.0, 8.0),
            &GeoPoint::new(45.0, 5.0),
            &GeoPoint::new(45.0, 8.0),
        );
        assert!((p - q).abs() < 1e-9);
    }
}
