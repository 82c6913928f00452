//! Per-aggregate traffic traces and the synthetic CAIDA-like generator.
//!
//! The paper measures two properties on CAIDA's Tier-1 backbone traces
//! (four 10 Gb/s links, 40 one-hour traces each, 1-3 Gb/s mean):
//!
//! 1. minute-to-minute mean rates are predictable (Algorithm 1 overshoots
//!    only ~0.5% of the time — Figure 9);
//! 2. the within-minute standard deviation of 1 ms bitrates barely changes
//!    from one minute to the next (Figure 10).
//!
//! The traces themselves are not redistributable, so [`synthesize`] builds
//! series with exactly these properties by construction: a slow
//! mean-reverting random walk for minute means, lognormal burst noise with
//! AR(1) temporal correlation inside each minute, and a slowly drifting
//! burst variance. The violation rates are controllable, so tests can probe
//! both the passing and failing regimes of the multiplexing checks.
//!
//! An [`AggregateTrace`] summarizes each minute once, when it is built: the
//! mean and the peak of its samples. A controller reads them every decision
//! (Algorithm 1 runs over all the minute means of the history, LDR's
//! appraisal needs the last minute's peak), so a decision costs O(minutes)
//! per aggregate for them instead of O(minutes × bins).

use std::fmt;
use std::sync::Arc;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Configuration for [`synthesize`].
#[derive(Clone, Debug)]
pub struct TraceGenConfig {
    /// Long-run mean rate (Mbps). CAIDA's links run 1000-3000.
    pub mean_mbps: f64,
    /// Coefficient of variation of the 100 ms samples around the minute
    /// mean (burstiness). Default 0.25.
    pub cv: f64,
    /// Number of minutes to generate. The paper uses one-hour traces.
    pub minutes: usize,
    /// 100 ms bins per minute (600 for real time).
    pub bins_per_minute: usize,
    /// RNG seed.
    pub seed: u64,
    /// Relative amplitude of the diurnal swing multiplying every minute's
    /// samples: minute `m` is scaled by
    /// `1 + amplitude * sin(2π m / period)`. 0 (the default)
    /// disables the cycle and reproduces the stationary generator
    /// bit-for-bit. Must stay in `[0, 1)` so rates remain positive.
    pub diurnal_amplitude: f64,
    /// Diurnal period in minutes (1440 = one day). Ignored when the
    /// amplitude is 0.
    pub diurnal_period_minutes: usize,
}

impl Default for TraceGenConfig {
    fn default() -> Self {
        TraceGenConfig {
            mean_mbps: 2000.0,
            cv: 0.25,
            minutes: 60,
            bins_per_minute: 600,
            seed: 1,
            diurnal_amplitude: 0.0,
            diurnal_period_minutes: 1440,
        }
    }
}

/// Maximum relative drift of the minute mean per minute (Google's WAN paper
/// reports < 10%).
const MINUTE_DRIFT: f64 = 0.05;

/// AR(1) coefficient of the burst noise inside a minute, creating the
/// short-range dependence real traffic shows.
const AR1: f64 = 0.5;

/// Relative drift of the burst σ per minute; small, so σ(t) ≈ σ(t+1) as in
/// Figure 10.
const SIGMA_DRIFT: f64 = 0.05;

/// A traffic time series: consecutive minutes of 100 ms rate samples, and
/// each minute's mean and peak, computed once from them.
/// The samples and the summaries live in shared buffers of which a trace
/// sees a prefix, so [`AggregateTrace::truncated`] and `clone` are O(1)
/// whatever the history, and [`AggregateTrace::minute_mean`],
/// [`AggregateTrace::minute_means`] and [`AggregateTrace::peak`] read a
/// stored value instead of scanning the minute's samples.
#[derive(Clone)]
pub struct AggregateTrace {
    bins_per_minute: usize,
    /// Whole minutes visible through this trace.
    minutes: usize,
    /// All samples, minute-major: `samples[m * bins_per_minute + i]`, Mbps;
    /// possibly longer than this trace's view.
    samples_mbps: Arc<[f64]>,
    /// Mean of every minute of `samples_mbps` (Mbps).
    means: Arc<[f64]>,
    /// Peak of every minute of `samples_mbps` (Mbps).
    peaks: Arc<[f64]>,
}

impl fmt::Debug for AggregateTrace {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("AggregateTrace")
            .field("bins_per_minute", &self.bins_per_minute)
            .field("samples_mbps", &self.visible())
            .finish()
    }
}

impl AggregateTrace {
    /// Wraps raw samples and summarizes each minute (mean and peak).
    ///
    /// # Panics
    /// Panics if the sample count is not a whole number of minutes or any
    /// sample is negative/non-finite.
    pub fn from_samples(samples_mbps: Vec<f64>, bins_per_minute: usize) -> Self {
        assert!(bins_per_minute > 0);
        assert_eq!(samples_mbps.len() % bins_per_minute, 0, "ragged trace");
        assert!(samples_mbps.iter().all(|s| s.is_finite() && *s >= 0.0));
        let minutes = samples_mbps.len() / bins_per_minute;
        let (means, peaks): (Vec<f64>, Vec<f64>) = samples_mbps
            .chunks_exact(bins_per_minute)
            .map(|s| {
                (s.iter().sum::<f64>() / s.len() as f64, s.iter().cloned().fold(0.0, f64::max))
            })
            .unzip();
        AggregateTrace {
            bins_per_minute,
            minutes,
            samples_mbps: samples_mbps.into(),
            means: means.into(),
            peaks: peaks.into(),
        }
    }

    /// The samples this trace sees.
    fn visible(&self) -> &[f64] {
        &self.samples_mbps[..self.minutes * self.bins_per_minute]
    }

    /// Number of whole minutes.
    pub fn minutes(&self) -> usize {
        self.minutes
    }

    /// 100 ms bins per minute.
    pub fn bins_per_minute(&self) -> usize {
        self.bins_per_minute
    }

    /// The 100 ms samples of minute `m`.
    pub fn samples(&self, m: usize) -> &[f64] {
        let start = m * self.bins_per_minute;
        &self.visible()[start..start + self.bins_per_minute]
    }

    /// Mean rate over minute `m` (Mbps).
    pub fn minute_mean(&self, m: usize) -> f64 {
        self.minute_means()[m]
    }

    /// All per-minute means of the minutes this trace sees.
    pub fn minute_means(&self) -> &[f64] {
        &self.means[..self.minutes]
    }

    /// Peak 100 ms rate within minute `m`.
    pub fn peak(&self, m: usize) -> f64 {
        self.peaks[..self.minutes][m]
    }

    /// Standard deviation of the 100 ms rates within minute `m` — the σ of
    /// Figure 10.
    pub fn sigma(&self, m: usize) -> f64 {
        let s = self.samples(m);
        let mean = self.minute_mean(m);
        let var = s.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / s.len() as f64;
        var.sqrt()
    }

    /// The first `minutes` of the trace — what a controller has *seen* at
    /// decision time (used by the timeline simulator to avoid peeking). A
    /// view of the same samples and summaries, not a copy.
    ///
    /// # Panics
    /// Panics if `minutes` is 0 or exceeds the trace length.
    pub fn truncated(&self, minutes: usize) -> AggregateTrace {
        assert!(minutes >= 1 && minutes <= self.minutes(), "bad prefix {minutes}");
        AggregateTrace { minutes, ..self.clone() }
    }
}

/// Draws one standard normal via Box-Muller.
fn std_normal(rng: &mut StdRng) -> f64 {
    let u1: f64 = rng.gen_range(f64::EPSILON..1.0);
    let u2: f64 = rng.gen_range(0.0..1.0);
    (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos()
}

/// Generates a synthetic trace per [`TraceGenConfig`] (deterministic).
pub fn synthesize(config: &TraceGenConfig) -> AggregateTrace {
    assert!(config.mean_mbps > 0.0 && config.cv >= 0.0);
    assert!(
        (0.0..1.0).contains(&config.diurnal_amplitude),
        "diurnal amplitude {} out of [0,1)",
        config.diurnal_amplitude
    );
    assert!(
        config.diurnal_amplitude == 0.0 || config.diurnal_period_minutes >= 2,
        "diurnal period must span at least 2 minutes"
    );
    let mut rng = StdRng::seed_from_u64(config.seed ^ 0x7472_6163);
    let mut samples = Vec::with_capacity(config.minutes * config.bins_per_minute);

    let mut minute_mean = config.mean_mbps;
    let mut sigma_rel = config.cv;
    // AR(1) state carries across minute boundaries: bursts don't reset on
    // the minute, only our bookkeeping does.
    let mut z = 0.0f64;
    let innov = (1.0 - AR1 * AR1).sqrt();
    for minute in 0..config.minutes {
        // The long-horizon load shape: a deterministic multiplicative swing
        // on top of the stationary walk, so hundreds-of-minutes runs see
        // the peak/trough asymmetry real WANs replan around. Amplitude 0
        // skips the factor entirely (bit-identical to the old generator).
        let diurnal = if config.diurnal_amplitude > 0.0 {
            1.0 + config.diurnal_amplitude
                * (2.0 * std::f64::consts::PI * minute as f64
                    / config.diurnal_period_minutes as f64)
                    .sin()
        } else {
            1.0
        };
        // Mean-reverting random walk for the minute mean.
        let drift = rng.gen_range(-MINUTE_DRIFT..=MINUTE_DRIFT);
        let reversion = 0.05 * (config.mean_mbps - minute_mean) / config.mean_mbps;
        minute_mean = (minute_mean * (1.0 + drift + reversion))
            .clamp(0.2 * config.mean_mbps, 3.0 * config.mean_mbps);
        // σ drifts slowly (Figure 10's x≈y clustering).
        let sdrift = rng.gen_range(-SIGMA_DRIFT..=SIGMA_DRIFT);
        sigma_rel = (sigma_rel * (1.0 + sdrift)).clamp(0.25 * config.cv, 4.0 * config.cv);

        for _ in 0..config.bins_per_minute {
            z = AR1 * z + innov * std_normal(&mut rng);
            // Lognormal-style positive noise with unit mean.
            let s = sigma_rel;
            let factor = (s * z - s * s / 2.0).exp();
            samples.push(minute_mean * diurnal * factor);
        }
    }
    AggregateTrace::from_samples(samples, config.bins_per_minute)
}

/// Decorrelates indexed streams sharing one base seed (golden-ratio
/// spread): stream `idx`'s RNG seed. The single definition behind the
/// CAIDA-like corpus here and the timeline controller's per-aggregate
/// traces — one formula, so a corpus and a timeline run with the same base
/// seed stay reproducible against each other.
pub fn spread_seed(seed: u64, idx: u64) -> u64 {
    seed.wrapping_add(idx).wrapping_mul(0x9E37_79B9)
}

/// A CAIDA-like trace set: `links x traces_per_link` one-hour traces with
/// means spread over 1-3 Gb/s, deterministic in `seed` — the corpus behind
/// Figures 9 and 10.
pub fn caida_like_traces(links: usize, traces_per_link: usize, seed: u64) -> Vec<AggregateTrace> {
    let mut out = Vec::with_capacity(links * traces_per_link);
    for l in 0..links {
        for t in 0..traces_per_link {
            let idx = (l * traces_per_link + t) as u64;
            let mut rng = StdRng::seed_from_u64(spread_seed(seed, idx));
            let mean = rng.gen_range(1000.0..3000.0);
            let cv = rng.gen_range(0.15..0.4);
            out.push(synthesize(&TraceGenConfig {
                mean_mbps: mean,
                cv,
                seed: seed ^ (idx << 8),
                ..Default::default()
            }));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shape_and_determinism() {
        let cfg = TraceGenConfig { minutes: 5, bins_per_minute: 100, ..Default::default() };
        let a = synthesize(&cfg);
        let b = synthesize(&cfg);
        assert_eq!(a.minutes(), 5);
        assert_eq!(a.samples(0).len(), 100);
        assert_eq!(a.samples_mbps, b.samples_mbps);
    }

    #[test]
    fn means_hover_near_configured_level() {
        let cfg = TraceGenConfig { minutes: 30, ..Default::default() };
        let tr = synthesize(&cfg);
        let grand_mean: f64 = tr.minute_means().iter().sum::<f64>() / 30.0;
        assert!(
            (grand_mean - cfg.mean_mbps).abs() < 0.35 * cfg.mean_mbps,
            "grand mean {grand_mean} strays from {}",
            cfg.mean_mbps
        );
    }

    #[test]
    fn minute_drift_bounded() {
        let cfg = TraceGenConfig { minutes: 40, cv: 0.1, ..Default::default() };
        let tr = synthesize(&cfg);
        let means = tr.minute_means();
        for w in means.windows(2) {
            let rel = (w[1] - w[0]).abs() / w[0];
            // drift + reversion + sampling noise; must stay well under 25%.
            assert!(rel < 0.25, "minute mean jumped by {rel}");
        }
    }

    #[test]
    fn sigma_stable_across_minutes() {
        // The Figure-10 property: σ(t+1) within a factor ~2 of σ(t).
        let cfg = TraceGenConfig { minutes: 30, ..Default::default() };
        let tr = synthesize(&cfg);
        for m in 0..29 {
            let (a, b) = (tr.sigma(m), tr.sigma(m + 1));
            assert!(b / a < 2.5 && a / b < 2.5, "σ jumped {a} -> {b}");
        }
    }

    #[test]
    fn diurnal_cycle_shapes_minute_means() {
        // One full 40-minute cycle at 40% amplitude: the peak quarter of
        // the cycle must run well above the trough quarter, and amplitude
        // 0 must reproduce the stationary generator bit-for-bit.
        let base = TraceGenConfig { minutes: 40, cv: 0.05, ..Default::default() };
        let flat = synthesize(&base);
        let cycled = synthesize(&TraceGenConfig {
            diurnal_amplitude: 0.4,
            diurnal_period_minutes: 40,
            ..base.clone()
        });
        let means = cycled.minute_means();
        // sin peaks at minute 10 (2π·10/40 = π/2), troughs at minute 30.
        let peak: f64 = means[8..13].iter().sum::<f64>() / 5.0;
        let trough: f64 = means[28..33].iter().sum::<f64>() / 5.0;
        assert!(peak > 1.5 * trough, "diurnal swing too weak: {peak} vs {trough}");
        let again = synthesize(&TraceGenConfig { diurnal_amplitude: 0.0, ..base });
        assert_eq!(flat.samples_mbps, again.samples_mbps, "amplitude 0 is the old generator");
    }

    #[test]
    #[should_panic]
    fn diurnal_amplitude_must_stay_below_one() {
        synthesize(&TraceGenConfig { diurnal_amplitude: 1.0, ..Default::default() });
    }

    #[test]
    fn peak_at_least_mean() {
        let tr = synthesize(&TraceGenConfig { minutes: 3, ..Default::default() });
        for m in 0..3 {
            assert!(tr.peak(m) >= tr.minute_mean(m));
        }
    }

    #[test]
    fn caida_like_corpus_shape() {
        let set = caida_like_traces(2, 3, 9);
        assert_eq!(set.len(), 6);
        for tr in &set {
            assert_eq!(tr.minutes(), 60);
            let mean = tr.minute_mean(0);
            assert!(mean > 300.0 && mean < 9000.0);
        }
    }

    #[test]
    fn truncation_is_a_view_that_agrees_with_a_deep_copy() {
        let tr =
            synthesize(&TraceGenConfig { minutes: 6, bins_per_minute: 50, ..Default::default() });
        let view = tr.truncated(4);
        assert!(Arc::ptr_eq(&view.samples_mbps, &tr.samples_mbps), "no allocation");
        assert!(Arc::ptr_eq(&view.means, &tr.means), "the summaries are shared too");
        assert!(Arc::ptr_eq(&view.peaks, &tr.peaks));
        let copy = AggregateTrace::from_samples(tr.samples_mbps[..4 * 50].to_vec(), 50);
        assert_eq!(view.minutes(), 4);
        assert_eq!(view.minute_means(), copy.minute_means());
        for m in 0..4 {
            assert_eq!(view.samples(m), copy.samples(m));
        }
        assert_eq!(format!("{view:?}"), format!("{copy:?}"));
        // The hidden minutes stay hidden, also through a second truncation.
        assert!(std::panic::catch_unwind(|| view.samples(4)).is_err());
        assert!(std::panic::catch_unwind(|| view.minute_mean(4)).is_err());
        assert!(std::panic::catch_unwind(|| view.peak(4)).is_err());
        assert!(std::panic::catch_unwind(|| view.truncated(5)).is_err());
    }

    #[test]
    #[should_panic]
    fn ragged_trace_rejected() {
        AggregateTrace::from_samples(vec![1.0; 7], 3);
    }
}
