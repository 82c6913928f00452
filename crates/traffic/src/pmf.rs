//! Probability mass functions over bitrate, quantized for FFT convolution.
//!
//! The paper treats each aggregate's 100 ms bandwidth measurements as a PMF
//! and, per link, convolves the PMFs of the aggregates sharing that link to
//! get the distribution of their *sum* (they are assumed independent once
//! temporal correlation has been tested separately). 1024 quantization
//! levels "yields good performance" (§5); that is our default too.
//!
//! # One fixed-size spectral product per link
//!
//! [`convolve_group`] sizes the common grid so the *sum of the members'
//! peaks* lands in bin `levels − 1`. Member `i` then occupies bins
//! `0..=⌊peak_i / w⌋`, and `Σ ⌊peak_i / w⌋ ≤ ⌊Σ peak_i / w⌋ = levels − 1`
//! (float rounding perturbs the right-hand side by ~`m·ε·levels`, far from
//! the next integer), so the *linear* convolution of all members is
//! supported on `[0, levels)`. A circular convolution of length
//! `n = levels.next_power_of_two() ≥ levels` therefore wraps nothing
//! around: every member is transformed at that one size, the spectra are
//! multiplied, and a single inverse transform yields the group PMF —
//! `⌈m/2⌉ + 1` transforms of `n` points (two real members share a complex
//! transform) where a pairwise chain would pay `3(m − 1)` transforms of
//! ever-growing size for output bins that hold no mass.

use std::collections::HashMap;

use crate::fft::{convolve, packed_product, Complex, Plan};

/// Default quantization levels, per the paper.
pub const DEFAULT_LEVELS: usize = 1024;

/// The most bins a [`GroupConvolver`]'s tail memo holds (4 MiB of `u32`)
/// before it is cleared. A Figure-14 decision stores one entry per distinct
/// test-C group — well under this on the benchmark's networks — so the cap
/// only bounds a convolver that outlives many decisions.
const MEMO_BINS: usize = 1 << 20;

/// A PMF over bitrate on a uniform grid: `probs[i]` is the probability of
/// the rate falling in bin `i`, bins are `bin_width` Mbps wide starting
/// at 0.
#[derive(Clone, Debug)]
pub struct Pmf {
    bin_width: f64,
    probs: Vec<f64>,
}

/// The grid: the bin a rate falls in, rates above the grid clamped into
/// the last bin. The cast saturates, so NaN and negative quotients land in
/// bin 0. [`Pmf::from_samples`] takes any `levels` and keeps this `usize`
/// clamp; [`GroupConvolver`], whose grids fit `u32`, uses [`bin_of_u32`].
fn bin_of(rate_mbps: f64, bin_width: f64, levels: usize) -> usize {
    ((rate_mbps / bin_width) as usize).min(levels - 1)
}

/// [`bin_of`] for a grid whose last bin `top = levels − 1` fits in `u32`:
/// the same index for every rate, NaN and infinities included. Both casts
/// saturate, NaN and negatives to 0, and a quotient at or above 2³² casts
/// to `u32::MAX ≥ top` here and to at least 2³² there, so either clamp
/// picks `top`. The `u32` cast is the cheaper one: x86-64 has no unsigned
/// 64-bit conversion, while a `u32` is a clamp and a signed one.
fn bin_of_u32(rate_mbps: f64, bin_width: f64, top: u32) -> u32 {
    ((rate_mbps / bin_width) as u32).min(top)
}

impl Pmf {
    /// Quantizes samples onto `levels` bins of width `bin_width`.
    /// Samples above the grid are clamped into the last bin.
    ///
    /// # Panics
    /// Panics on an empty sample set, non-positive width, or zero levels.
    pub fn from_samples(samples: &[f64], bin_width: f64, levels: usize) -> Self {
        assert!(!samples.is_empty(), "empty sample set");
        assert!(bin_width > 0.0 && levels > 0);
        let mut probs = vec![0.0; levels];
        let w = 1.0 / samples.len() as f64;
        for &s in samples {
            probs[bin_of(s, bin_width, levels)] += w;
        }
        Pmf { bin_width, probs }
    }

    /// Builds a PMF with explicit probabilities (testing / composition).
    ///
    /// # Panics
    /// Panics if probabilities are negative or don't sum to ~1.
    pub fn from_probs(probs: Vec<f64>, bin_width: f64) -> Self {
        assert!(bin_width > 0.0);
        assert!(probs.iter().all(|&p| p >= -1e-12));
        let total: f64 = probs.iter().sum();
        assert!((total - 1.0).abs() < 1e-6, "probabilities sum to {total}");
        Pmf { bin_width, probs }
    }

    /// Bin width in Mbps.
    pub fn bin_width(&self) -> f64 {
        self.bin_width
    }

    /// The probability vector.
    pub fn probs(&self) -> &[f64] {
        &self.probs
    }

    /// Mean of the distribution (Mbps), using the lower-edge convention
    /// (`bin i` represents rate `i * bin_width`). Lower edges make means
    /// *exactly* additive under convolution, since convolution adds bin
    /// indices.
    pub fn mean(&self) -> f64 {
        self.probs.iter().enumerate().map(|(i, &p)| i as f64 * self.bin_width * p).sum()
    }

    /// P(rate > threshold). Bins are attributed by their upper edge, which
    /// over-counts by at most one bin — conservative in the direction the
    /// admission test cares about.
    pub fn prob_exceeds(&self, threshold_mbps: f64) -> f64 {
        let mut acc = 0.0;
        for (i, &p) in self.probs.iter().enumerate() {
            let upper = (i as f64 + 1.0) * self.bin_width;
            if upper > threshold_mbps {
                acc += p;
            }
        }
        acc.min(1.0)
    }

    /// Distribution of the sum of two independent rates (same grid).
    ///
    /// # Panics
    /// Panics when grids differ.
    pub fn convolve_with(&self, other: &Pmf) -> Pmf {
        assert!(
            (self.bin_width - other.bin_width).abs() < 1e-9 * self.bin_width.max(other.bin_width),
            "convolving PMFs on different grids"
        );
        let probs = convolve(&self.probs, &other.probs);
        Pmf { bin_width: self.bin_width, probs }
    }
}

/// One aggregate on a link: its samples at unit fraction, their peak, and
/// the fraction `x ≥ 0` of the aggregate placed on the link. The link sees
/// the series `samples · x`, which is never materialized.
pub type Member<'a> = (&'a [f64], f64, f64);

/// Members for series that are already scaled: own peak, fraction 1.
pub(crate) fn unit_members<'a>(series: &[&'a [f64]]) -> Vec<Member<'a>> {
    series.iter().map(|s| (*s, peak_of(s), 1.0)).collect()
}

/// `samples.iter().fold(0.0, f64::max)` in eight independent lanes, each a
/// compare-and-select the compiler turns into packed `max` instructions:
/// 97 ns against the fold's 410 ns on 600 samples (x86-64 Xeon, default
/// release build; four lanes of `f64::max` gained nothing there). The same
/// bits: over non-negative samples the maximum is exact in any order, and
/// a NaN is skipped by both (`NaN > lane` is false; `f64::max` returns its
/// other operand).
fn peak_of(samples: &[f64]) -> f64 {
    let mut lanes = [0.0f64; 8];
    let mut chunks = samples.chunks_exact(8);
    for chunk in &mut chunks {
        for (lane, &s) in lanes.iter_mut().zip(chunk) {
            if s > *lane {
                *lane = s;
            }
        }
    }
    let rest = chunks.remainder().iter().copied().fold(0.0, f64::max);
    lanes.into_iter().fold(rest, f64::max)
}

/// The Figure-14 test C workhorse: the PMF of the sum of the aggregates
/// sharing a link, by one spectral product at a fixed transform size (see
/// the module docs). Owns the twiddles and buffers, so one convolver
/// serves every link of a decision without allocating per member.
///
/// It also remembers the tails it computed ([`GroupConvolver::tail`]): a
/// Figure-14 loop re-appraises most links unchanged from one tweak
/// iteration to the next, and a group it has already convolved at the same
/// capacity is answered from the memo, to the bit (see `multiplex`'s module
/// docs, "Members judged once a decision"). The memo holds at most
/// [`MEMO_BINS`] bins and is cleared when full.
#[derive(Clone, Debug)]
pub(crate) struct GroupConvolver {
    levels: usize,
    plan: Plan,
    /// Running product of the members' spectra.
    spectrum: Vec<Complex>,
    /// Two members' quantized PMFs, one in each of re/im.
    pair: Vec<Complex>,
    /// The group at hand, quantized: every member's bin indices, member
    /// after member, samples in order.
    bins: Vec<u32>,
    /// Tails already computed, under the cheap key `tail` builds.
    memo: HashMap<Box<[u64]>, Tail>,
    /// Bins held by `memo`, against [`MEMO_BINS`].
    memo_bins: usize,
    /// The key of the group at hand.
    key: Vec<u64>,
    /// Tails `tail` computed by convolution.
    convolved: u64,
    /// Tails `tail` read back from `memo`.
    reused: u64,
}

/// One memoized test-C answer: the quantized group it was computed from,
/// and `P(sum > capacity)`.
#[derive(Clone, Debug)]
struct Tail {
    bins: Box<[u32]>,
    prob: f64,
}

impl GroupConvolver {
    /// A convolver producing `levels`-bin PMFs.
    ///
    /// # Panics
    /// Panics unless `1 < levels ≤ 2³²` (bin indices are stored as `u32`).
    pub fn new(levels: usize) -> Self {
        assert!(levels > 1 && u32::try_from(levels - 1).is_ok(), "{levels} quantization levels");
        let n = levels.next_power_of_two();
        GroupConvolver {
            levels,
            plan: Plan::new(n),
            spectrum: vec![Complex::ZERO; n],
            pair: vec![Complex::ZERO; n],
            bins: Vec::new(),
            memo: HashMap::new(),
            memo_bins: 0,
            key: Vec::new(),
            convolved: 0,
            reused: 0,
        }
    }

    /// Distribution of `Σ samples_i · x_i` over independent members, on a
    /// grid sized so the sum of peaks fits; `None` when there are no
    /// members or no traffic.
    ///
    /// # Panics
    /// Panics on an empty sample set.
    pub fn convolve(&mut self, members: &[Member<'_>]) -> Option<Pmf> {
        let bin_width = self.quantize(members)?;
        Some(self.pmf_of_bins(members, bin_width))
    }

    /// `P(Σ samples_i · x_i > capacity_mbps)`: the `prob_exceeds` of
    /// [`GroupConvolver::convolve`]'s PMF, bit for bit. A group this
    /// convolver has already convolved at the same capacity — same key,
    /// same bins — is read back instead of convolved again.
    ///
    /// # Panics
    /// Panics on an empty sample set.
    pub fn tail(&mut self, members: &[Member<'_>], capacity_mbps: f64) -> Option<f64> {
        let bin_width = self.quantize(members)?;
        // The key only finds a candidate; the bins decide.
        self.key.clear();
        self.key.extend([capacity_mbps.to_bits(), bin_width.to_bits()]);
        for &(samples, peak, x) in members {
            self.key.extend([peak.to_bits(), x.to_bits(), samples.len() as u64]);
        }
        if let Some(hit) = self.memo.get(self.key.as_slice()) {
            if *hit.bins == *self.bins {
                self.reused += 1;
                return Some(hit.prob);
            }
        }
        let prob = self.pmf_of_bins(members, bin_width).prob_exceeds(capacity_mbps);
        self.convolved += 1;
        if self.memo_bins + self.bins.len() > MEMO_BINS {
            self.memo.clear();
            self.memo_bins = 0;
        }
        self.memo_bins += self.bins.len();
        let tail = Tail { bins: self.bins.as_slice().into(), prob };
        if let Some(replaced) = self.memo.insert(self.key.as_slice().into(), tail) {
            self.memo_bins -= replaced.bins.len();
        }
        Some(prob)
    }

    /// How many tails [`GroupConvolver::tail`] has convolved, and how many
    /// it has read back from the memo.
    pub fn tail_counts(&self) -> (u64, u64) {
        (self.convolved, self.reused)
    }

    /// Quantizes every member into `self.bins` on the grid that puts the
    /// sum of peaks in the last bin, and returns the bin width; `None`
    /// without traffic.
    fn quantize(&mut self, members: &[Member<'_>]) -> Option<f64> {
        let sum_of_peaks: f64 = members.iter().map(|&(_, peak, x)| peak * x).sum();
        if sum_of_peaks <= 0.0 {
            return None;
        }
        let bin_width = sum_of_peaks / (self.levels as f64 - 1.0);
        // `new` keeps the last bin within `u32`, where `bin_of_u32` is
        // `bin_of` to the index.
        let top = (self.levels - 1) as u32;
        self.bins.clear();
        for &(samples, _, x) in members {
            assert!(!samples.is_empty(), "empty sample set");
            self.bins.extend(samples.iter().map(|&s| bin_of_u32(s * x, bin_width, top)));
        }
        Some(bin_width)
    }

    /// The PMF of the group `quantize` left in `self.bins`: each member's
    /// mass accumulated in sample order, two members per complex
    /// transform, the spectra multiplied and transformed back once.
    fn pmf_of_bins(&mut self, members: &[Member<'_>], bin_width: f64) -> Pmf {
        let levels = self.levels;
        let mut bins = self.bins.as_slice();
        self.spectrum.fill(Complex { re: 1.0, im: 0.0 });
        for two in members.chunks(2) {
            self.pair.fill(Complex::ZERO);
            for (slot, &(samples, ..)) in two.iter().enumerate() {
                let (mine, rest) = bins.split_at(samples.len());
                bins = rest;
                let w = 1.0 / samples.len() as f64;
                for &b in mine {
                    let c = &mut self.pair[b as usize];
                    *(if slot == 0 { &mut c.re } else { &mut c.im }) += w;
                }
            }
            self.plan.transform(&mut self.pair, false);
            for (k, acc) in self.spectrum.iter_mut().enumerate() {
                // An odd member out rides alone: im = 0, its spectrum as is.
                let member =
                    if two.len() == 2 { packed_product(&self.pair, k) } else { self.pair[k] };
                *acc = acc.mul(member);
            }
        }
        self.plan.transform(&mut self.spectrum, true);
        let scale = 1.0 / self.spectrum.len() as f64;
        // Convolving probability masses can produce tiny negative round-off.
        let probs = self.spectrum[..levels].iter().map(|c| (c.re * scale).max(0.0)).collect();
        Pmf { bin_width, probs }
    }
}

/// Convolves the PMFs of many aggregates sharing a link, on a common grid
/// sized so the sum of peaks fits: test C for one link, one-off (a
/// `MultiplexCheck` keeps a `GroupConvolver` across links).
///
/// `sample_sets` holds per-aggregate 100 ms samples *already scaled* by the
/// fraction of that aggregate placed on the link.
pub fn convolve_group(sample_sets: &[&[f64]], levels: usize) -> Option<Pmf> {
    GroupConvolver::new(levels).convolve(&unit_members(sample_sets))
}

#[cfg(test)]
mod tests {
    use proptest::prelude::*;

    use super::*;

    #[test]
    fn quantization_and_mean() {
        let samples = vec![0.5, 1.5, 2.5, 3.5];
        let pmf = Pmf::from_samples(&samples, 1.0, 8);
        assert!((pmf.probs()[0] - 0.25).abs() < 1e-12);
        // Lower-edge convention: bins 0..=3 each with mass 1/4.
        assert!((pmf.mean() - 1.5).abs() < 1e-9);
    }

    #[test]
    fn the_u32_clamp_is_the_usize_clamp() {
        let rates = [
            f64::NAN,
            0.0,
            -0.0,
            -1.0,
            f64::MIN_POSITIVE / 2.0,
            1023.9999,
            4294967296.0,
            1e300,
            f64::INFINITY,
        ];
        let grids = [1024usize, 2, 1 << 16];
        #[cfg(target_pointer_width = "64")]
        let grids = [grids[0], grids[1], grids[2], 1 << 32];
        for levels in grids {
            let top = u32::try_from(levels - 1).unwrap();
            for rate in rates {
                let (narrow, wide) = (bin_of_u32(rate, 1.0, top), bin_of(rate, 1.0, levels));
                assert_eq!(narrow as usize, wide, "rate {rate:e}, {levels} levels");
            }
        }
    }

    #[test]
    fn clamping_into_last_bin() {
        let pmf = Pmf::from_samples(&[100.0], 1.0, 4);
        assert!((pmf.probs()[3] - 1.0).abs() < 1e-12);
    }

    #[test]
    fn prob_exceeds_basics() {
        let pmf = Pmf::from_probs(vec![0.5, 0.3, 0.2], 10.0);
        // Bins cover (0,10], (10,20], (20,30].
        assert!((pmf.prob_exceeds(10.0) - 0.5).abs() < 1e-12);
        assert!((pmf.prob_exceeds(25.0) - 0.2).abs() < 1e-12);
        assert_eq!(pmf.prob_exceeds(30.0), 0.0);
        assert_eq!(pmf.prob_exceeds(0.0), 1.0);
    }

    #[test]
    fn convolution_adds_means() {
        let a = Pmf::from_probs(vec![0.5, 0.5], 1.0);
        let b = Pmf::from_probs(vec![0.25, 0.75], 1.0);
        let c = a.convolve_with(&b);
        assert!((c.mean() - (a.mean() + b.mean())).abs() < 1e-9);
        let total: f64 = c.probs().iter().sum();
        assert!((total - 1.0).abs() < 1e-9);
    }

    #[test]
    fn group_convolution_two_constant_flows() {
        // Two constant 5 Mbps flows: their sum is constant 10 Mbps.
        let s1 = vec![5.0; 100];
        let s2 = vec![5.0; 100];
        let pmf = convolve_group(&[&s1, &s2], 1024).unwrap();
        assert!(pmf.prob_exceeds(11.0) < 1e-9, "sum never exceeds 10");
        assert!(pmf.prob_exceeds(9.0) > 0.99, "sum is always ~10");
    }

    #[test]
    fn group_convolution_detects_tail() {
        // A bursty flow: 10% of the time it doubles; pair of them exceeds
        // 2.2x base more than ~1% - (independent) - of the time.
        let mut s = vec![10.0; 90];
        s.extend(vec![20.0; 10]);
        let pmf = convolve_group(&[&s, &s], 1024).unwrap();
        let p = pmf.prob_exceeds(30.0);
        assert!((p - 0.01).abs() < 0.005, "P(both burst) ~ 0.01, got {p}");
    }

    #[test]
    fn empty_group_is_none() {
        assert!(convolve_group(&[], 1024).is_none());
    }

    /// `convolve`'s tail, as `tail` must reproduce it.
    fn convolved_tail(members: &[Member<'_>], capacity: f64) -> f64 {
        GroupConvolver::new(DEFAULT_LEVELS).convolve(members).unwrap().prob_exceeds(capacity)
    }

    #[test]
    fn a_repeated_group_is_read_back_with_the_same_bits() {
        let mut s = vec![10.0; 600];
        s[..30].fill(25.0);
        let members: [Member<'_>; 3] = [(&s, 25.0, 0.5), (&s, 25.0, 1.0), (&s, 25.0, 0.25)];
        let expected = convolved_tail(&members, 30.0);
        let mut conv = GroupConvolver::new(DEFAULT_LEVELS);
        for round in 1..=3 {
            let prob = conv.tail(&members, 30.0).unwrap();
            assert_eq!(prob.to_bits(), expected.to_bits());
            assert_eq!(conv.tail_counts(), (1, round - 1));
        }
        // Another capacity is another question.
        let other = conv.tail(&members, 35.0).unwrap();
        assert_eq!(other.to_bits(), convolved_tail(&members, 35.0).to_bits());
        assert_eq!(conv.tail_counts(), (2, 2));
        assert_eq!(conv.tail(&[], 30.0), None);
    }

    #[test]
    fn a_group_that_shares_the_key_but_not_the_bins_gets_its_own_tail() {
        // Same capacity, peaks, fractions and lengths — so the same key and
        // grid — but one sample of `b` moved from the 10 bin to the 20 bin,
        // which doubles P(both at 20).
        let a: Vec<f64> = (0..600).map(|i| if i == 0 { 20.0 } else { 10.0 }).collect();
        let mut b = a.clone();
        b[1] = 20.0;
        let (first, second): ([Member<'_>; 2], [Member<'_>; 2]) =
            ([(&a, 20.0, 1.0), (&a, 20.0, 1.0)], [(&a, 20.0, 1.0), (&b, 20.0, 1.0)]);
        let (p_first, p_second) = (convolved_tail(&first, 35.0), convolved_tail(&second, 35.0));
        assert_ne!(p_first.to_bits(), p_second.to_bits());

        let mut conv = GroupConvolver::new(DEFAULT_LEVELS);
        assert_eq!(conv.tail(&first, 35.0).unwrap().to_bits(), p_first.to_bits());
        assert_eq!(conv.tail(&second, 35.0).unwrap().to_bits(), p_second.to_bits());
        assert_eq!(conv.tail(&second, 35.0).unwrap().to_bits(), p_second.to_bits());
        assert_eq!(conv.tail_counts(), (2, 1));
        assert_eq!(conv.memo.len(), 1, "the newer group holds the key");
    }

    #[test]
    fn the_memo_clears_when_full() {
        // Four one-member groups of a quarter of the cap each fill it.
        let s: Vec<f64> = (0..MEMO_BINS / 4).map(|i| (i % 7) as f64).collect();
        let member: [Member<'_>; 1] = [(&s, 6.0, 1.0)];
        let mut conv = GroupConvolver::new(DEFAULT_LEVELS);
        for capacity in 1..=4 {
            conv.tail(&member, capacity as f64).unwrap();
        }
        assert_eq!((conv.memo.len(), conv.memo_bins), (4, MEMO_BINS));
        conv.tail(&member, 5.0).unwrap();
        assert_eq!((conv.memo.len(), conv.memo_bins), (1, MEMO_BINS / 4));
        // What the clear dropped is convolved again.
        conv.tail(&member, 1.0).unwrap();
        assert_eq!(conv.tail_counts(), (6, 0));
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// The eight-lane peak is the serial fold to the bit, at every
        /// length modulo the lane count, zeros and NaNs included.
        #[test]
        fn the_laned_peak_is_the_fold(
            samples in proptest::collection::vec(
                (0usize..6, 0.0f64..1e4).prop_map(|(kind, x)| match kind {
                    0 => 0.0,
                    1 => f64::NAN,
                    _ => x,
                }),
                0..40,
            ),
        ) {
            let fold = samples.iter().cloned().fold(0.0, f64::max);
            prop_assert_eq!(peak_of(&samples).to_bits(), fold.to_bits());
        }
    }
}
