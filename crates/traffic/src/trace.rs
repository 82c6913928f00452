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
//!
//! ## Streaming
//!
//! The generator is resumable: a [`TraceGenerator`] carries one trace's RNG,
//! walk, σ and AR(1) state from minute to minute and yields one
//! [`TraceMinute`] per call, and [`AggregateTrace::push_minute`] appends it.
//! [`synthesize`] is that loop run to the end, so a trace grown a minute at
//! a time is the same bits as one synthesized whole; it keeps every minute's
//! samples, which the figures read (Figure 10's σ among them).
//!
//! A controller that grows its traces as it runs keeps only a window of
//! samples: [`SAMPLE_WINDOW`] minutes, the last one written. A decision
//! reads every minute's mean (Algorithm 1) but the samples of only the last
//! minute before it (the Figure-14 appraisal), and the replay of a minute
//! reads that minute's samples, which become the last minute the next
//! decision reads. [`AggregateTrace::retire_samples`] drops the samples of
//! the minutes before the window, keeping their means and peaks, and hands
//! their buffers back to the generator, which writes later minutes into
//! them. [`TraceGenerator::start`] allocates [`SAMPLE_WINDOW`] + 1 buffers
//! on the calling thread — the window the trace holds and the minute being
//! written beside it — and nothing for the minutes after them, so a minute
//! can be generated on another thread (the timeline synthesizes minute `t`
//! while its controller decides minute `t`) and handed back without that
//! thread allocating, and a trace's memory does not grow with its run
//! beyond a mean and a peak a minute. [`TraceGenerator::write`] writes
//! several minutes in one call (a timeline's warm-up) into one buffer,
//! since only the last of them keeps its samples.

use std::collections::VecDeque;
use std::fmt;
use std::sync::Arc;

use lowlat_netgraph::RangeError;
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

/// Largest `mean_mbps` [`TraceGenConfig::validate`] accepts (an exabit per
/// second). A sample is at most the mean × 3 (the walk's clamp) × 2 (the
/// diurnal swing) × `exp(z²/2)` (the burst factor's largest value; the
/// AR(1) state stays under 15 in magnitude), about 1e48 × the mean, so every
/// sample of an accepted mean is finite.
const MAX_MEAN_MBPS: f64 = 1e12;

/// Largest `cv` [`TraceGenConfig::validate`] accepts. The burst σ reaches
/// 4 × `cv` and multiplies the AR(1) state (under 15 in magnitude): from
/// about 3e306 that product overflows and a sample turns NaN. Any `cv`
/// beyond a few already makes most samples exactly 0.
const MAX_CV: f64 = 1e300;

impl TraceGenConfig {
    /// Checks every field the generator reads against the range it needs,
    /// and returns the first one outside it. [`synthesize`] and
    /// [`TraceGenerator::start`] call this and panic with the error's
    /// message; `minutes` and `seed` take any value.
    pub fn validate(&self) -> Result<(), RangeError> {
        let mean = self.mean_mbps;
        let mean_in_range = mean.is_finite() && mean > 0.0 && mean <= MAX_MEAN_MBPS;
        RangeError::check(mean_in_range, "mean_mbps", mean, "a finite value in (0, 1e12]")?;
        let cv_in_range = self.cv.is_finite() && self.cv >= 0.0 && self.cv <= MAX_CV;
        RangeError::check(cv_in_range, "cv", self.cv, "a finite value in [0, 1e300]")?;
        let bins = self.bins_per_minute;
        RangeError::check(bins >= 1, "bins_per_minute", bins, "at least 1")?;
        let amplitude = self.diurnal_amplitude;
        let in_range = (0.0..1.0).contains(&amplitude);
        RangeError::check(in_range, "diurnal_amplitude", amplitude, "a value in [0, 1)")?;
        RangeError::check(
            amplitude == 0.0 || self.diurnal_period_minutes >= 2,
            "diurnal_period_minutes",
            self.diurnal_period_minutes,
            "at least 2 minutes while the amplitude is not 0",
        )
    }
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

/// Minutes of samples a trace keeps once [`AggregateTrace::retire_samples`]
/// runs: the last minute written. The next decision reads it (LDR's
/// appraisal of the last minute) and the replay of that minute has just
/// read it; every earlier minute is read only through its mean and peak.
pub const SAMPLE_WINDOW: usize = 1;

/// A traffic time series: consecutive minutes of 100 ms rate samples, and
/// each minute's mean and peak, computed once from them.
/// The minutes live in a shared store of which a trace sees a prefix, so
/// [`AggregateTrace::truncated`] and `clone` are O(1) whatever the history,
/// and [`AggregateTrace::minute_mean`], [`AggregateTrace::minute_means`] and
/// [`AggregateTrace::peak`] read a stored value instead of scanning the
/// minute's samples. [`AggregateTrace::push_minute`] grows a trace in place
/// while no other trace shares its store.
///
/// A trace keeps every minute's samples until
/// [`AggregateTrace::retire_samples`] drops those before its
/// [`SAMPLE_WINDOW`]: a retired minute keeps its mean and peak, and
/// [`AggregateTrace::samples`] and [`AggregateTrace::sigma`] of it panic.
#[derive(Clone)]
pub struct AggregateTrace {
    bins_per_minute: usize,
    /// Whole minutes visible through this trace.
    minutes: usize,
    /// Every minute written, possibly more than this trace sees.
    store: Arc<Store>,
}

/// The minutes of a trace: the mean and peak of every one, the samples of
/// those not retired.
#[derive(Clone, Debug, PartialEq)]
struct Store {
    /// The 100 ms samples (Mbps) of minutes `first_sampled..`, oldest first,
    /// `bins_per_minute` each.
    samples: VecDeque<Vec<f64>>,
    /// The first minute whose samples are kept; the minutes before it are
    /// retired.
    first_sampled: usize,
    /// Mean of every minute written (Mbps).
    means: Vec<f64>,
    /// Peak of every minute written (Mbps).
    peaks: Vec<f64>,
}

impl Store {
    fn with_capacity(minutes: usize) -> Self {
        Store {
            samples: VecDeque::with_capacity(minutes),
            first_sampled: 0,
            means: Vec::with_capacity(minutes),
            peaks: Vec::with_capacity(minutes),
        }
    }

    /// Drops every minute from `minutes` on.
    fn truncate(&mut self, minutes: usize) {
        self.samples.truncate(minutes.saturating_sub(self.first_sampled));
        self.first_sampled = self.first_sampled.min(minutes);
        self.means.truncate(minutes);
        self.peaks.truncate(minutes);
    }
}

/// One minute of a trace, ready to append with
/// [`AggregateTrace::push_minute`]: its samples and their mean and peak,
/// summarized where the minute was made. Of the minutes one
/// [`TraceGenerator::write`] call writes, all but the last come without
/// their samples (retired), with their mean and peak.
#[derive(Debug)]
pub struct TraceMinute {
    /// `None` once retired.
    samples: Option<Vec<f64>>,
    mean: f64,
    peak: f64,
}

impl TraceMinute {
    /// Summarizes one minute's samples (at least one).
    fn summarize(samples: Vec<f64>) -> Self {
        let mean = samples.iter().sum::<f64>() / samples.len() as f64;
        let peak = samples.iter().cloned().fold(0.0, f64::max);
        TraceMinute { samples: Some(samples), mean, peak }
    }
}

/// Prints the samples of the minutes the trace sees and keeps, after the
/// count of those it sees retired (only their means and peaks are kept).
impl fmt::Debug for AggregateTrace {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let retired = self.store.first_sampled.min(self.minutes);
        let kept = self.store.samples.iter().take(self.minutes - retired);
        f.debug_struct("AggregateTrace")
            .field("bins_per_minute", &self.bins_per_minute)
            .field("retired_minutes", &retired)
            .field("samples_mbps", &kept.flatten().collect::<Vec<_>>())
            .finish()
    }
}

impl AggregateTrace {
    /// A trace of no minutes with room for `minutes` of them.
    fn empty(bins_per_minute: usize, minutes: usize) -> Self {
        AggregateTrace {
            bins_per_minute,
            minutes: 0,
            store: Arc::new(Store::with_capacity(minutes)),
        }
    }

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
        let mut trace = AggregateTrace::empty(bins_per_minute, minutes);
        for minute in samples_mbps.chunks_exact(bins_per_minute) {
            trace.push_minute(TraceMinute::summarize(minute.to_vec()));
        }
        trace
    }

    /// Appends `minute` after the minutes this trace sees. In place while
    /// no other trace shares the store (a [`Self::truncated`] view or a
    /// clone still alive); otherwise the store is copied first, and the
    /// other traces keep what they saw. A minute whose samples
    /// [`TraceGenerator::write`] retired retires every minute before it.
    ///
    /// # Panics
    /// Panics if the minute does not hold [`Self::bins_per_minute`] samples.
    pub fn push_minute(&mut self, minute: TraceMinute) {
        let store = Arc::make_mut(&mut self.store);
        store.truncate(self.minutes);
        match minute.samples {
            Some(samples) => {
                assert_eq!(samples.len(), self.bins_per_minute, "minute of another bin count");
                store.samples.push_back(samples);
            }
            None => {
                store.samples.clear();
                store.first_sampled = self.minutes + 1;
            }
        }
        store.means.push(minute.mean);
        store.peaks.push(minute.peak);
        self.minutes += 1;
    }

    /// Retires the samples of every minute before the last
    /// [`SAMPLE_WINDOW`] this trace sees and hands their buffers to
    /// `generator`, which writes its next minutes into them: the trace
    /// keeps those minutes' means and peaks, and [`Self::samples`] of them
    /// panics from now on. A trace grown a minute at a time this way holds
    /// [`SAMPLE_WINDOW`] minutes of samples however long it runs, and its
    /// generator needs no buffer beyond those [`TraceGenerator::start`]
    /// allocated. In place while no other trace shares the store; otherwise
    /// the store is copied first, as [`Self::push_minute`] copies it.
    ///
    /// # Panics
    /// Panics if `generator` writes minutes of another bin count.
    pub fn retire_samples(&mut self, generator: &mut TraceGenerator) {
        assert_eq!(
            generator.config.bins_per_minute, self.bins_per_minute,
            "a generator of another bin count"
        );
        let keep_from = self.minutes.saturating_sub(SAMPLE_WINDOW);
        if self.store.first_sampled >= keep_from {
            return;
        }
        let store = Arc::make_mut(&mut self.store);
        store.truncate(self.minutes);
        let retired = keep_from - store.first_sampled;
        generator.spare.extend(store.samples.drain(..retired));
        store.first_sampled = keep_from;
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
    ///
    /// # Panics
    /// Panics if the trace does not see minute `m`, or if
    /// [`Self::retire_samples`] retired it: the message names the minutes
    /// whose samples the trace keeps.
    pub fn samples(&self, m: usize) -> &[f64] {
        assert!(m < self.minutes, "minute {m} of a trace of {} minutes", self.minutes);
        let first = self.store.first_sampled;
        assert!(
            m >= first,
            "the samples of minute {m} are retired: this trace keeps those of minutes \
             {}..{}, a window of the last {SAMPLE_WINDOW} minute(s) once retired",
            first.min(self.minutes),
            self.minutes
        );
        &self.store.samples[m - first]
    }

    /// Mean rate over minute `m` (Mbps).
    pub fn minute_mean(&self, m: usize) -> f64 {
        self.minute_means()[m]
    }

    /// All per-minute means of the minutes this trace sees.
    pub fn minute_means(&self) -> &[f64] {
        &self.store.means[..self.minutes]
    }

    /// Peak 100 ms rate within minute `m`.
    pub fn peak(&self, m: usize) -> f64 {
        self.store.peaks[..self.minutes][m]
    }

    /// Standard deviation of the 100 ms rates within minute `m` — the σ of
    /// Figure 10. Panics as [`Self::samples`] does on a retired minute.
    pub fn sigma(&self, m: usize) -> f64 {
        let s = self.samples(m);
        let mean = self.minute_mean(m);
        let var = s.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / s.len() as f64;
        var.sqrt()
    }

    /// The first `minutes` of the trace — what a controller has *seen* at
    /// decision time (used by the timeline simulator to avoid peeking). A
    /// view of the same samples and summaries, not a copy: it sees the
    /// samples of the minutes the trace kept, and every mean and peak.
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

/// The generator of one trace, resumable between minutes: the RNG, the
/// minute-mean walk, the burst σ and the AR(1) state, plus the buffers it
/// writes minutes into. Each [`Iterator::next`] writes the next minute,
/// until `config.minutes` of them are out.
#[derive(Debug)]
pub struct TraceGenerator {
    config: TraceGenConfig,
    rng: StdRng,
    /// The minute the next call writes.
    minute: usize,
    minute_mean: f64,
    sigma_rel: f64,
    /// AR(1) state. It carries across minute boundaries: bursts don't reset
    /// on the minute, only our bookkeeping does.
    z: f64,
    /// Buffers to write minutes into: those allocated up front and those
    /// [`AggregateTrace::retire_samples`] and [`Self::write`] handed back.
    spare: Vec<Vec<f64>>,
}

impl TraceGenerator {
    /// Starts `config`'s run: the generator at minute 0 and the empty trace
    /// its minutes are appended to. The buffers of [`SAMPLE_WINDOW`] + 1
    /// minutes are allocated here, on the calling thread: the window the
    /// trace keeps and the minute written beside it. A trace that
    /// [`AggregateTrace::retire_samples`] after each minute it appends hands
    /// the generator back a buffer for each minute it writes, so generating
    /// a minute allocates nothing; one that keeps every minute's samples
    /// costs the generator a new buffer a minute past those.
    ///
    /// # Panics
    /// Panics with [`TraceGenConfig::validate`]'s message on a field outside
    /// its range.
    pub fn start(config: &TraceGenConfig) -> (TraceGenerator, AggregateTrace) {
        let generator = TraceGenerator::new(config, SAMPLE_WINDOW + 1);
        (generator, AggregateTrace::empty(config.bins_per_minute, 0))
    }

    /// The generator of `config`'s run at minute 0, with the buffers of
    /// `buffers` minutes (at most the run's).
    fn new(config: &TraceGenConfig, buffers: usize) -> TraceGenerator {
        if let Err(e) = config.validate() {
            panic!("invalid trace config: {e}");
        }
        let bins = config.bins_per_minute;
        TraceGenerator {
            config: config.clone(),
            rng: StdRng::seed_from_u64(config.seed ^ 0x7472_6163),
            minute: 0,
            minute_mean: config.mean_mbps,
            sigma_rel: config.cv,
            z: 0.0,
            spare: (0..buffers.min(config.minutes)).map(|_| vec![0.0; bins]).collect(),
        }
    }

    /// Writes the next `minutes` minutes onto `out` (fewer once the run is
    /// out), retiring the samples of every one but the last as the next is
    /// written: its buffer is written again, and the minute keeps its mean
    /// and peak. So a call needs one buffer however many minutes it writes,
    /// and appending what it wrote leaves a trace holding the last minute's
    /// samples — what a run's first minutes before its decisions need.
    pub fn write(&mut self, minutes: usize, out: &mut Vec<TraceMinute>) {
        for k in 0..minutes.min(self.config.minutes - self.minute) {
            if k > 0 {
                let last = out.last_mut().expect("the minute this call wrote before");
                self.spare.extend(last.samples.take());
            }
            out.extend(self.next());
        }
    }
}

impl Iterator for TraceGenerator {
    type Item = TraceMinute;

    /// Writes the next minute into a spare buffer, or a new one when none
    /// is left; `None` once `config.minutes` are out.
    fn next(&mut self) -> Option<TraceMinute> {
        let config = &self.config;
        if self.minute == config.minutes {
            return None;
        }
        let bins = config.bins_per_minute;
        let mut samples = self.spare.pop().unwrap_or_else(|| vec![0.0; bins]);
        // The long-horizon load shape: a deterministic multiplicative swing
        // on top of the stationary walk, so hundreds-of-minutes runs see
        // the peak/trough asymmetry real WANs replan around. Amplitude 0
        // skips the factor entirely (bit-identical to the old generator).
        let diurnal = if config.diurnal_amplitude > 0.0 {
            1.0 + config.diurnal_amplitude
                * (2.0 * std::f64::consts::PI * self.minute as f64
                    / config.diurnal_period_minutes as f64)
                    .sin()
        } else {
            1.0
        };
        // Mean-reverting random walk for the minute mean.
        let drift = self.rng.gen_range(-MINUTE_DRIFT..=MINUTE_DRIFT);
        let reversion = 0.05 * (config.mean_mbps - self.minute_mean) / config.mean_mbps;
        self.minute_mean = (self.minute_mean * (1.0 + drift + reversion))
            .clamp(0.2 * config.mean_mbps, 3.0 * config.mean_mbps);
        // σ drifts slowly (Figure 10's x≈y clustering).
        let sdrift = self.rng.gen_range(-SIGMA_DRIFT..=SIGMA_DRIFT);
        self.sigma_rel = (self.sigma_rel * (1.0 + sdrift)).clamp(0.25 * config.cv, 4.0 * config.cv);

        let innov = (1.0 - AR1 * AR1).sqrt();
        for sample in &mut samples {
            self.z = AR1 * self.z + innov * std_normal(&mut self.rng);
            // Lognormal-style positive noise with unit mean.
            let s = self.sigma_rel;
            let factor = (s * self.z - s * s / 2.0).exp();
            *sample = self.minute_mean * diurnal * factor;
        }
        self.minute += 1;
        Some(TraceMinute::summarize(samples))
    }
}

/// Generates a synthetic trace per [`TraceGenConfig`] (deterministic): a
/// [`TraceGenerator`] run to the end, every minute's samples kept, their
/// storage allocated up front.
///
/// # Panics
/// Panics with [`TraceGenConfig::validate`]'s message on a field outside
/// its range.
pub fn synthesize(config: &TraceGenConfig) -> AggregateTrace {
    let generator = TraceGenerator::new(config, config.minutes);
    let mut trace = AggregateTrace::empty(config.bins_per_minute, config.minutes);
    for minute in generator {
        trace.push_minute(minute);
    }
    trace
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

    /// The generator as it was before it could resume: one loop over the
    /// whole run, every sample pushed onto one buffer. Kept as the
    /// reference the streamed generator is held to.
    fn whole_run(config: &TraceGenConfig) -> Vec<f64> {
        let mut rng = StdRng::seed_from_u64(config.seed ^ 0x7472_6163);
        let mut samples = Vec::with_capacity(config.minutes * config.bins_per_minute);
        let mut minute_mean = config.mean_mbps;
        let mut sigma_rel = config.cv;
        let mut z = 0.0f64;
        let innov = (1.0 - AR1 * AR1).sqrt();
        for minute in 0..config.minutes {
            let diurnal = if config.diurnal_amplitude > 0.0 {
                1.0 + config.diurnal_amplitude
                    * (2.0 * std::f64::consts::PI * minute as f64
                        / config.diurnal_period_minutes as f64)
                        .sin()
            } else {
                1.0
            };
            let drift = rng.gen_range(-MINUTE_DRIFT..=MINUTE_DRIFT);
            let reversion = 0.05 * (config.mean_mbps - minute_mean) / config.mean_mbps;
            minute_mean = (minute_mean * (1.0 + drift + reversion))
                .clamp(0.2 * config.mean_mbps, 3.0 * config.mean_mbps);
            let sdrift = rng.gen_range(-SIGMA_DRIFT..=SIGMA_DRIFT);
            sigma_rel = (sigma_rel * (1.0 + sdrift)).clamp(0.25 * config.cv, 4.0 * config.cv);
            for _ in 0..config.bins_per_minute {
                z = AR1 * z + innov * std_normal(&mut rng);
                let s = sigma_rel;
                let factor = (s * z - s * s / 2.0).exp();
                samples.push(minute_mean * diurnal * factor);
            }
        }
        samples
    }

    #[test]
    fn the_streamed_generator_is_the_whole_run_loop_to_the_bit() {
        for (seed, minutes, bins, cv, amplitude) in [
            (1, 8, 600, 0.3, 0.0),
            (7, 5, 7, 0.0, 0.0),
            (99, 6, 1, 1.2, 0.4),
            (u64::MAX, 3, 64, 0.05, 0.9),
        ] {
            let cfg = TraceGenConfig {
                mean_mbps: 1234.5,
                cv,
                minutes,
                bins_per_minute: bins,
                seed,
                diurnal_amplitude: amplitude,
                diurnal_period_minutes: 4,
            };
            let want: Vec<u64> = whole_run(&cfg).into_iter().map(f64::to_bits).collect();
            let got = synthesize(&cfg);
            let got: Vec<u64> =
                (0..minutes).flat_map(|m| got.samples(m).to_vec()).map(f64::to_bits).collect();
            assert!(got == want, "seed {seed}");
        }
    }

    #[test]
    fn shape_and_determinism() {
        let cfg = TraceGenConfig { minutes: 5, bins_per_minute: 100, ..Default::default() };
        let a = synthesize(&cfg);
        let b = synthesize(&cfg);
        assert_eq!(a.minutes(), 5);
        assert_eq!(a.samples(0).len(), 100);
        assert_eq!(a.store, b.store);
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
        assert_eq!(flat.store, again.store, "amplitude 0 is the old generator");
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
        assert!(Arc::ptr_eq(&view.store, &tr.store), "no allocation, summaries shared too");
        let copy =
            AggregateTrace::from_samples((0..4).flat_map(|m| tr.samples(m)).copied().collect(), 50);
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
    fn validate_names_the_field_outside_its_range() {
        let ok = TraceGenConfig::default();
        assert_eq!(ok.validate(), Ok(()));
        let mean = |mean_mbps| TraceGenConfig { mean_mbps, ..ok.clone() };
        let cv = |cv| TraceGenConfig { cv, ..ok.clone() };
        let cases = [
            (mean(f64::INFINITY), "mean_mbps = inf, expected a finite value in (0, 1e12]"),
            (mean(2e12), "mean_mbps = 2000000000000, expected a finite value in (0, 1e12]"),
            (mean(0.0), "mean_mbps = 0, expected a finite value in (0, 1e12]"),
            (cv(f64::INFINITY), "cv = inf, expected a finite value in [0, 1e300]"),
            (cv(-0.1), "cv = -0.1, expected a finite value in [0, 1e300]"),
            (
                TraceGenConfig { bins_per_minute: 0, ..ok.clone() },
                "bins_per_minute = 0, expected at least 1",
            ),
            (
                TraceGenConfig { diurnal_amplitude: 1.0, ..ok.clone() },
                "diurnal_amplitude = 1, expected a value in [0, 1)",
            ),
            (
                TraceGenConfig { diurnal_amplitude: 0.3, diurnal_period_minutes: 1, ..ok.clone() },
                "diurnal_period_minutes = 1, expected at least 2 minutes while the amplitude is not 0",
            ),
        ];
        for (cfg, want) in cases {
            assert_eq!(cfg.validate().unwrap_err().to_string(), want);
            // The generator panics with the same message, before it writes.
            let panic = std::panic::catch_unwind(|| synthesize(&cfg)).expect_err(want);
            let message = panic.downcast_ref::<String>().expect("a formatted message");
            assert_eq!(*message, format!("invalid trace config: {want}"));
        }
        // What used to get past the door and fail later, naming no field.
        let escaped = [
            (mean(1e308), "mean_mbps"),
            (mean(f64::NAN), "mean_mbps"),
            (cv(f64::NAN), "cv"),
            (cv(1e308), "cv"),
        ];
        for (cfg, field) in escaped {
            assert_eq!(cfg.validate().unwrap_err().param, field);
        }
        // The largest accepted values synthesize finite samples.
        let edge = TraceGenConfig { mean_mbps: 1e12, minutes: 3, ..ok.clone() };
        assert!(synthesize(&edge).minute_means().iter().all(|m| m.is_finite()));
        assert!(synthesize(&TraceGenConfig { cv: 1e300, ..edge }).minutes() == 3);
        // A period nothing reads is not an error.
        assert_eq!(TraceGenConfig { diurnal_period_minutes: 0, ..ok }.validate(), Ok(()));
    }

    #[test]
    fn a_grown_view_copies_and_leaves_the_trace_it_shared_with_as_it_was() {
        let cfg = TraceGenConfig { minutes: 4, bins_per_minute: 20, ..Default::default() };
        let whole = synthesize(&cfg);
        let (generator, mut grown) = TraceGenerator::start(&cfg);
        let mut minutes = generator;
        grown.push_minute(minutes.next().expect("minute 0"));
        grown.push_minute(minutes.next().expect("minute 1"));
        let view = grown.truncated(2);
        // The store is shared: growing copies it, and the view keeps its two.
        grown.push_minute(minutes.next().expect("minute 2"));
        assert!(!Arc::ptr_eq(&view.store, &grown.store));
        assert_eq!(view.minutes(), 2);
        assert_eq!(format!("{view:?}"), format!("{:?}", whole.truncated(2)));
        // Alone again, the trace grows in place.
        drop(view);
        let store = Arc::as_ptr(&grown.store);
        grown.push_minute(minutes.next().expect("minute 3"));
        assert_eq!(Arc::as_ptr(&grown.store), store);
        assert!(minutes.next().is_none(), "four minutes configured");
        assert_eq!(grown.store, whole.store);
        // A view that grows drops what it did not see.
        let mut short = whole.truncated(1);
        let (mut again, _) = TraceGenerator::start(&cfg);
        short.push_minute(again.next().expect("minute 0"));
        assert_eq!(short.minutes(), 2);
        assert_eq!(short.samples(1), whole.samples(0));
        assert_eq!(whole.minutes(), 4, "the trace it shared with is as it was");
    }

    #[test]
    fn a_windowed_trace_keeps_every_summary_and_the_samples_of_its_window() {
        let cfg = TraceGenConfig {
            minutes: 9,
            bins_per_minute: 30,
            diurnal_amplitude: 0.3,
            diurnal_period_minutes: 5,
            ..Default::default()
        };
        let whole = synthesize(&cfg);
        let bits = |samples: &[f64]| samples.iter().map(|s| s.to_bits()).collect::<Vec<_>>();
        let (mut generator, mut trace) = TraceGenerator::start(&cfg);
        let mut ready = Vec::new();
        // Three minutes in one call, as a timeline writes its warm-up: only
        // the last keeps its samples.
        generator.write(3, &mut ready);
        assert!(ready[..2].iter().all(|minute| minute.samples.is_none()));
        for _ in 0..7 {
            for written in ready.drain(..) {
                trace.push_minute(written);
            }
            trace.retire_samples(&mut generator);
            let last = trace.minutes() - 1;
            assert_eq!(trace.store.first_sampled, last, "{SAMPLE_WINDOW} minute kept");
            assert_eq!(bits(trace.samples(last)), bits(whole.samples(last)));
            // The window and the minute written beside it: no more buffers.
            assert_eq!(trace.store.samples.len() + generator.spare.len(), SAMPLE_WINDOW + 1);
            generator.write(1, &mut ready);
        }
        assert!(ready.is_empty() && generator.next().is_none(), "nine minutes configured");
        assert_eq!(bits(trace.minute_means()), bits(whole.minute_means()));
        let peaks = |tr: &AggregateTrace| (0..tr.minutes()).map(|m| tr.peak(m)).collect::<Vec<_>>();
        assert_eq!(bits(&peaks(&trace)), bits(&peaks(&whole)));
        // A retired minute's samples are gone, and the panic names the window.
        for retired in [0, 7] {
            let panic = std::panic::catch_unwind(|| trace.samples(retired)).expect_err("retired");
            let message = panic.downcast_ref::<String>().expect("a formatted message");
            assert!(message.contains("keeps those of minutes 8..9"), "{message}");
            assert!(message.contains("a window of the last 1 minute(s)"), "{message}");
        }
        assert!(format!("{trace:?}").contains("retired_minutes: 8"));
        // A view keeps what it saw when the trace retires again.
        let view = trace.truncated(9);
        trace.retire_samples(&mut generator);
        assert_eq!(bits(view.samples(8)), bits(whole.samples(8)));
    }

    #[test]
    #[should_panic]
    fn ragged_trace_rejected() {
        AggregateTrace::from_samples(vec![1.0; 7], 3);
    }
}
