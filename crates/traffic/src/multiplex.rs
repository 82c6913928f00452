//! The statistical-multiplexing admission tests of Figure 14.
//!
//! Given the set of aggregates the optimizer proposes to place on a link
//! (each represented by its last-minute 100 ms samples, scaled by the
//! fraction routed over this link), decide whether they will multiplex
//! without building queues beyond the allowance:
//!
//! * **Fast path** — if the *sum of peaks* fits in the capacity, nothing to
//!   test: both tests are guaranteed to pass (paper §5).
//! * **Test B (temporal correlation)** — sum the series bin-by-bin and run
//!   the carried-over queue; reject if the backlog ever implies more than
//!   `max_queue_ms` of queueing delay. Catches synchronized bursts.
//! * **Test C (uncorrelated tails)** — convolve the per-aggregate PMFs and
//!   reject if P(sum > capacity) exceeds `max_queue_ms / window`; with the
//!   paper's 10 ms over 60 s that threshold is 10/60000 ≈ 0.00016.
//!
//! # Members, not scaled copies
//!
//! A controller appraises the same aggregates on many links and over many
//! iterations, each time at a different fraction `x`. The check therefore
//! takes [`Member`]s — an aggregate's samples and peak *at unit fraction*
//! plus `x` — and scales on the fly: test B sums `s[i]·x`, test C bins
//! `(s·x)/w`, and the fast path needs only the cached peak, because for
//! `x ≥ 0` rounding is monotone and so `max_i fl(s_i·x) == fl(max_i s_i · x)`
//! bit for bit. Every verdict is thus identical to the one computed on
//! materialized `s·x` copies, which is exactly what [`MultiplexCheck::check_link`]
//! does: it wraps its series as members at `x = 1` and runs the same kernel.
//!
//! Test B sums member-major: the link's load is a vector the check keeps,
//! one entry per sample, starting at `−0.0` (where a float `sum` starts),
//! and each member in turn adds its `s[i]·x` to every entry. For every
//! sample that is the same additions in the same member order as summing
//! across the members sample by sample, so each load, and the backlog
//! recurrence that then reads them in order, has the same bits; the
//! member's pass is a contiguous loop the compiler vectorises, where the
//! per-sample sum gathered one value from each member.
//!
//! # Members judged once a decision
//!
//! A Figure-14 loop re-appraises every link in every tweak iteration, and
//! most links come back unchanged: on the benchmark's Abilene cell 25.6 of
//! the 39.4 links a decision that reach test C repeat a group appraised
//! earlier in the same decision (GTS-like at load 0.55: 3.4 of 42.2).
//! A check therefore remembers each test-C answer, `P(sum > capacity)`,
//! for as long as it lives (one decision, in `Ldr` and in the harness that
//! shadows it).
//!
//! * **Key.** The capacity's bits, the grid's bin width's bits and every
//!   member's `(peak bits, x bits, len)`, in order: cheap to build, and it
//!   already tells apart nearly every pair of different groups.
//! * **Exactness.** The tail is a function of the quantized group (every
//!   member's bin indices, in sample order), the member lengths (each
//!   sample weighs `1/len`), the bin width and the capacity — nothing
//!   else enters the transforms or `prob_exceeds`. An entry stores the
//!   bins it was computed from, and answers only when the group at hand
//!   quantizes to exactly those bins under the same key. A hit is thus the
//!   value a convolution would compute, to the bit, and a group that shares
//!   a key but not its bins is convolved (and takes the key over). Every
//!   call still quantizes; a miss then accumulates the PMF from those same
//!   bins in the same order, so the convolution path is the one
//!   [`crate::pmf::convolve_group`] runs.
//! * **Bound.** The memo holds at most `pmf::MEMO_BINS` = 2²⁰ bins (4 MiB
//!   of `u32`) and is cleared when the next entry would not fit; a group
//!   larger than that is stored alone. [`MultiplexCheck::tails_convolved`]
//!   and [`MultiplexCheck::tails_reused`] count the two outcomes.
//!
//! Reuse sits in the kernel, not in the loop, so every caller that keeps
//! one check per decision — `Ldr`, the benchmark's shadow of it on public
//! `check_link`, `ldr_differential`'s reference — skips the same work.

use std::cell::RefCell;
use std::fmt;

use lowlat_netgraph::RangeError;

use crate::pmf::{unit_members, GroupConvolver, Member, DEFAULT_LEVELS};

/// Tuning for [`MultiplexCheck`].
#[derive(Clone, Debug)]
pub struct MultiplexConfig {
    /// Maximum transient queueing delay we are willing to admit (ms).
    pub max_queue_ms: f64,
    /// Duration of one 100 ms sample bin, in ms (100 for real traces).
    pub bin_ms: f64,
    /// PMF quantization levels for test C.
    pub levels: usize,
}

impl Default for MultiplexConfig {
    fn default() -> Self {
        MultiplexConfig { max_queue_ms: 10.0, bin_ms: 100.0, levels: DEFAULT_LEVELS }
    }
}

impl MultiplexConfig {
    /// Checks the fields [`MultiplexCheck::new`] takes, which panics with
    /// the error's message: `max_queue_ms` and `bin_ms` finite and `> 0`,
    /// `levels` from 2 to 2³² (test C stores bin indices as `u32`). A
    /// caller holding outside input calls this first.
    pub fn validate(&self) -> Result<(), RangeError> {
        let q = self.max_queue_ms;
        RangeError::check(q.is_finite() && q > 0.0, "max_queue_ms", q, "a finite value > 0")?;
        let bin = self.bin_ms;
        RangeError::check(bin.is_finite() && bin > 0.0, "bin_ms", bin, "a finite value > 0")?;
        let levels = self.levels;
        RangeError::check(levels >= 2, "levels", levels, "at least 2")?;
        let in_u32 = u32::try_from(levels - 1).is_ok();
        RangeError::check(in_u32, "levels", levels, "at most 4294967296")
    }
}

/// `value` of member `i`, as a [`RangeError`] prints it. It is formatted
/// only when a check fails, so an appraisal that passes formats nothing.
struct OfMember<V>(usize, V);

impl<V: fmt::Display> fmt::Display for OfMember<V> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let OfMember(i, value) = self;
        write!(f, "{value} (member {i})")
    }
}

/// Outcome of the admission tests for one link.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Verdict {
    /// The aggregates multiplex acceptably.
    Pass,
    /// Test B failed: correlated bursts build a queue of this many ms.
    FailTemporal {
        /// Worst queueing delay implied by the summed series.
        max_queue_ms: f64,
    },
    /// Test C failed: the convolved tail exceeds the allowance.
    FailTail {
        /// P(sum of rates > capacity).
        prob: f64,
        /// The admission threshold it was compared against.
        threshold: f64,
    },
}

impl Verdict {
    /// True for [`Verdict::Pass`].
    pub fn passed(&self) -> bool {
        matches!(self, Verdict::Pass)
    }
}

/// The link-level admission check. Owns the test-C transform state and the
/// tails computed so far, reused from link to link (hence not `Sync`: give
/// each thread its own check; see the module docs for the reuse).
#[derive(Clone, Debug)]
pub struct MultiplexCheck {
    config: MultiplexConfig,
    convolver: RefCell<GroupConvolver>,
    /// Test B's working buffer: the link's load, one entry per sample.
    load: RefCell<Vec<f64>>,
}

impl Default for MultiplexCheck {
    fn default() -> Self {
        MultiplexCheck::new(MultiplexConfig::default())
    }
}

impl MultiplexCheck {
    /// Creates a check with the given configuration.
    ///
    /// # Panics
    /// Panics with [`MultiplexConfig::validate`]'s error.
    pub fn new(config: MultiplexConfig) -> Self {
        config.validate().unwrap_or_else(|e| panic!("{e}"));
        let convolver = RefCell::new(GroupConvolver::new(config.levels));
        MultiplexCheck { config, convolver, load: RefCell::default() }
    }

    /// The configuration in use.
    pub fn config(&self) -> &MultiplexConfig {
        &self.config
    }

    /// Links whose test-C tail this check has computed by convolution.
    pub fn tails_convolved(&self) -> u64 {
        self.convolver.borrow().tail_counts().0
    }

    /// Links whose test-C tail this check has read back from an earlier
    /// appraisal of the same group (module docs).
    pub fn tails_reused(&self) -> u64 {
        self.convolver.borrow().tail_counts().1
    }

    /// Checks the arguments of [`MultiplexCheck::check_members`], which
    /// panics with the error's message: `capacity_mbps > 0` (NaN is not),
    /// and members whose series have one length, not 0, and whose
    /// fractions are `>= 0` (NaN is not). The error names the first member
    /// that fails, with its value.
    pub fn validate_members(capacity_mbps: f64, members: &[Member<'_>]) -> Result<(), RangeError> {
        RangeError::check(capacity_mbps > 0.0, "capacity_mbps", capacity_mbps, "a value > 0")?;
        let len = members.first().map_or(0, |&(s, ..)| s.len());
        for (i, &(s, _, x)) in members.iter().enumerate() {
            let n = s.len();
            RangeError::check(n == len, "samples", OfMember(i, n), "as many as member 0")?;
            RangeError::check(x >= 0.0, "fraction", OfMember(i, x), "a value >= 0")?;
        }
        let in_range = members.is_empty() || len > 0;
        RangeError::check(in_range, "samples", OfMember(0, len), "at least 1")
    }

    /// Tests whether the given aggregates fit on a link of
    /// `capacity_mbps`. `series` holds one slice of 100 ms samples (Mbps)
    /// per aggregate, already scaled by the fraction placed on this link;
    /// all slices must have equal length.
    ///
    /// # Panics
    /// Panics on ragged series or a capacity that is not positive, with
    /// [`MultiplexCheck::validate_members`]' error.
    pub fn check_link(&self, capacity_mbps: f64, series: &[&[f64]]) -> Verdict {
        self.check_members(capacity_mbps, &unit_members(series))
    }

    /// [`MultiplexCheck::check_link`] on the series `samples · x` of each
    /// member `(samples, peak, x)`, without materializing them; `peak` must
    /// be the maximum of `samples` (see the module docs).
    ///
    /// # Panics
    /// Panics on ragged or empty series, a negative or NaN fraction, or a
    /// capacity that is not positive (NaN included), with
    /// [`MultiplexCheck::validate_members`]' error: it names the member or
    /// the capacity, with its value.
    pub fn check_members(&self, capacity_mbps: f64, members: &[Member<'_>]) -> Verdict {
        Self::validate_members(capacity_mbps, members).unwrap_or_else(|e| panic!("{e}"));
        // No members: the fast path below passes them.
        let len = members.first().map_or(0, |&(s, ..)| s.len());
        // An understated peak would shrink test C's grid until the product
        // aliases, silently. Debug builds only: this scan is the work a
        // cached peak exists to skip.
        debug_assert!(
            members.iter().all(|&(s, peak, _)| peak == s.iter().cloned().fold(0.0, f64::max)),
            "a member's peak is not the maximum of its samples"
        );

        // Fast path: sum of peaks fits.
        let sum_of_peaks: f64 = members.iter().map(|&(_, peak, x)| peak * x).sum();
        if sum_of_peaks <= capacity_mbps {
            return Verdict::Pass;
        }

        // Test B: temporal correlation via carried-over queue, on the
        // link's load summed member after member (module docs).
        let mut loads = self.load.borrow_mut();
        loads.clear();
        // `-0.0` is where `Iterator::sum` starts a float sum.
        loads.resize(len, -0.0);
        for &(samples, _, x) in members {
            for (load, &s) in loads.iter_mut().zip(samples) {
                *load += s * x;
            }
        }
        let worst_queue_ms = worst_queue_ms(&loads, capacity_mbps, self.config.bin_ms / 1000.0);
        if worst_queue_ms > self.config.max_queue_ms {
            return Verdict::FailTemporal { max_queue_ms: worst_queue_ms };
        }

        // Test C: independent-tail probability via convolution, or the
        // same group's tail from earlier in this check's life.
        let threshold = self.config.max_queue_ms / (len as f64 * self.config.bin_ms);
        let prob = self
            .convolver
            .borrow_mut()
            .tail(members, capacity_mbps)
            .expect("positive sum of peaks");
        if prob > threshold {
            return Verdict::FailTail { prob, threshold };
        }
        Verdict::Pass
    }
}

/// The fluid queue test B runs, and the timeline's replay of a minute: a
/// link of `capacity_mbps` fed `loads` (Mbps, one per bin of `bin_s`
/// seconds) carries its backlog from bin to bin. Returns the worst
/// queueing delay the backlog implies, in ms.
#[inline]
pub fn worst_queue_ms(loads: &[f64], capacity_mbps: f64, bin_s: f64) -> f64 {
    let mut backlog_mb = 0.0f64;
    let mut worst_ms = 0.0f64;
    for &load in loads {
        backlog_mb = (backlog_mb + (load - capacity_mbps) * bin_s).max(0.0);
        worst_ms = worst_ms.max(backlog_mb / capacity_mbps * 1000.0);
    }
    worst_ms
}

#[cfg(test)]
mod tests {
    use super::*;

    fn check() -> MultiplexCheck {
        MultiplexCheck::new(MultiplexConfig::default())
    }

    #[test]
    fn test_b_and_the_replay_queue_at_one_bin_length() {
        // A minute over a trace's 600 bins, test B's 100 ms: both 0.1 s.
        let bins = crate::trace::TraceGenConfig::default().bins_per_minute as f64;
        assert_eq!((60.0 / bins).to_bits(), 0.1f64.to_bits());
        assert_eq!((MultiplexConfig::default().bin_ms / 1000.0).to_bits(), 0.1f64.to_bits());
    }

    #[test]
    fn fast_path_constant_flows() {
        let s1 = vec![30.0; 600];
        let s2 = vec![40.0; 600];
        assert_eq!(check().check_link(100.0, &[&s1, &s2]), Verdict::Pass);
    }

    #[test]
    fn correlated_bursts_fail_temporal() {
        // Two flows bursting in the same bins, well over capacity for 2 s.
        let mut s = vec![30.0; 600];
        for i in 100..120 {
            s[i] = 120.0;
        }
        let v = check().check_link(100.0, &[&s.clone(), &s]);
        match v {
            Verdict::FailTemporal { max_queue_ms } => assert!(max_queue_ms > 10.0),
            other => panic!("expected temporal failure, got {other:?}"),
        }
    }

    #[test]
    fn anticorrelated_bursts_pass_temporal_but_may_fail_tail() {
        // Same marginal distributions as above but bursts never overlap:
        // the temporal test passes; the convolution test (which assumes
        // independence) is the one that must catch residual tail risk.
        let mut s1 = vec![30.0; 600];
        let mut s2 = vec![30.0; 600];
        for i in 0..60 {
            s1[i] = 90.0; // first 6 s
            s2[599 - i] = 90.0; // last 6 s
        }
        let v = check().check_link(125.0, &[&s1, &s2]);
        // Peaks sum to 180 > 125, so the fast path doesn't apply; the
        // summed series never exceeds 120 < 125 so test B passes; test C
        // sees P(both "bursting") = 0.01 >> 0.0016 allowance and fails.
        match v {
            Verdict::FailTail { prob, threshold } => {
                assert!(prob > threshold);
                assert!((prob - 0.01).abs() < 0.01, "prob {prob}");
            }
            other => panic!("expected tail failure, got {other:?}"),
        }
    }

    #[test]
    fn independent_small_tails_pass() {
        // Bursts are rare (0.5%) and the capacity absorbs one burst, so
        // only simultaneous bursts exceed it: P ≈ 2.5e-5 < 1.6e-4.
        let mut s1 = vec![30.0; 600];
        let mut s2 = vec![30.0; 600];
        for i in 0..3 {
            s1[i * 200] = 60.0;
            s2[i * 200 + 100] = 60.0;
        }
        let v = check().check_link(95.0, &[&s1, &s2]);
        assert_eq!(v, Verdict::Pass, "got {v:?}");
    }

    #[test]
    fn single_flow_over_capacity_fails() {
        let s = vec![120.0; 600];
        let v = check().check_link(100.0, &[&s]);
        assert!(!v.passed());
    }

    #[test]
    fn empty_link_passes() {
        assert_eq!(check().check_link(10.0, &[]), Verdict::Pass);
    }

    #[test]
    #[should_panic(expected = "capacity_mbps = NaN, expected a value > 0")]
    fn a_nan_capacity_is_named() {
        let s = vec![60.0; 600];
        check().check_members(f64::NAN, &[(&s, 60.0, 1.0)]);
    }

    #[test]
    #[should_panic(expected = "capacity_mbps = -5, expected a value > 0")]
    fn a_negative_capacity_is_named() {
        check().check_link(-5.0, &[]);
    }

    #[test]
    #[should_panic(expected = "fraction = -0.5 (member 1), expected a value >= 0")]
    fn a_negative_fraction_is_named_by_its_member() {
        let s = vec![60.0; 600];
        check().check_members(100.0, &[(&s, 60.0, 1.0), (&s, 60.0, -0.5)]);
    }

    #[test]
    #[should_panic(expected = "fraction = NaN (member 2), expected a value >= 0")]
    fn a_nan_fraction_is_named_by_its_member() {
        let s = vec![60.0; 600];
        check().check_members(100.0, &[(&s, 60.0, 1.0), (&s, 60.0, 0.5), (&s, 60.0, f64::NAN)]);
    }

    #[test]
    #[should_panic(expected = "samples = 599 (member 1), expected as many as member 0")]
    fn ragged_series_are_named_by_member() {
        let (s, t) = (vec![60.0; 600], vec![60.0; 599]);
        check().check_link(100.0, &[&s, &t]);
    }

    /// `validate_members`' error text for `capacity` and `members`.
    fn member_error(capacity: f64, members: &[Member<'_>]) -> String {
        MultiplexCheck::validate_members(capacity, members).unwrap_err().to_string()
    }

    #[test]
    fn a_capacity_not_above_zero_is_an_error_naming_it() {
        for (capacity, value) in [(0.0, "0"), (-5.0, "-5"), (f64::NAN, "NaN")] {
            let e = member_error(capacity, &[]);
            assert_eq!(e, format!("capacity_mbps = {value}, expected a value > 0"));
        }
        assert_eq!(MultiplexCheck::validate_members(f64::INFINITY, &[]), Ok(()));
    }

    #[test]
    fn a_ragged_member_is_an_error_naming_it_and_its_length() {
        let (s, t) = (vec![60.0; 600], vec![60.0; 599]);
        let e = member_error(100.0, &[(&s, 60.0, 1.0), (&s, 60.0, 1.0), (&t, 60.0, 1.0)]);
        assert_eq!(e, "samples = 599 (member 2), expected as many as member 0");
    }

    #[test]
    fn a_negative_or_nan_fraction_is_an_error_naming_its_member() {
        let s = vec![60.0; 600];
        for (x, value) in [(-0.5, "-0.5"), (f64::NAN, "NaN")] {
            let e = member_error(100.0, &[(&s, 60.0, 0.5), (&s, 60.0, x)]);
            assert_eq!(e, format!("fraction = {value} (member 1), expected a value >= 0"));
        }
        let fine = [(&s[..], 60.0, 0.0), (&s[..], 60.0, 1.0)];
        assert_eq!(MultiplexCheck::validate_members(100.0, &fine), Ok(()));
    }

    #[test]
    fn empty_series_are_an_error() {
        let e = member_error(100.0, &[(&[], 0.0, 1.0), (&[], 0.0, 1.0)]);
        assert_eq!(e, "samples = 0 (member 0), expected at least 1");
    }

    /// `MultiplexConfig::validate`'s error for the default config with one
    /// field changed, and the panic `MultiplexCheck::new` raises with it.
    fn rejected(config: MultiplexConfig) -> String {
        let e = config.validate().unwrap_err().to_string();
        let panicked = std::panic::catch_unwind(|| MultiplexCheck::new(config)).unwrap_err();
        assert_eq!(panicked.downcast_ref::<String>(), Some(&e));
        e
    }

    #[test]
    fn a_queue_allowance_not_finite_and_positive_is_an_error_naming_it() {
        for (q, value) in [(0.0, "0"), (-1.0, "-1"), (f64::INFINITY, "inf"), (f64::NAN, "NaN")] {
            let e = rejected(MultiplexConfig { max_queue_ms: q, ..Default::default() });
            assert_eq!(e, format!("max_queue_ms = {value}, expected a finite value > 0"));
        }
    }

    #[test]
    fn a_bin_width_not_finite_and_positive_is_an_error_naming_it() {
        for (bin, value) in [(0.0, "0"), (f64::INFINITY, "inf"), (f64::NAN, "NaN")] {
            let e = rejected(MultiplexConfig { bin_ms: bin, ..Default::default() });
            assert_eq!(e, format!("bin_ms = {value}, expected a finite value > 0"));
        }
    }

    #[test]
    fn fewer_than_two_levels_is_an_error_naming_them() {
        let e = rejected(MultiplexConfig { levels: 1, ..Default::default() });
        assert_eq!(e, "levels = 1, expected at least 2");
        assert_eq!(MultiplexConfig { levels: 2, ..Default::default() }.validate(), Ok(()));
        assert_eq!(MultiplexConfig::default().validate(), Ok(()));
    }

    #[test]
    #[cfg(target_pointer_width = "64")]
    fn more_levels_than_u32_bins_is_an_error_naming_them() {
        // `validate` fails before the convolver would allocate a bin.
        let e = rejected(MultiplexConfig { levels: (1 << 32) + 1, ..Default::default() });
        assert_eq!(e, "levels = 4294967297, expected at most 4294967296");
        let e = rejected(MultiplexConfig { levels: usize::MAX, ..Default::default() });
        assert_eq!(e, format!("levels = {}, expected at most 4294967296", usize::MAX));
        assert_eq!(MultiplexConfig { levels: 1 << 32, ..Default::default() }.validate(), Ok(()));
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "not the maximum")]
    fn a_wrong_peak_is_rejected() {
        let s = vec![60.0; 600];
        check().check_members(100.0, &[(&s, 60.0, 1.0), (&s, 30.0, 1.0)]);
    }

    #[test]
    fn queue_drains_between_small_bursts() {
        // A burst of exactly one bin at 2x capacity implies 100 ms of
        // excess = 100ms * (load-cap)/cap = 50 ms queue -> fail; but a tiny
        // overage of 5% for one bin is only 5 ms -> test B passes.
        let mut s = vec![50.0; 600];
        s[300] = 105.0;
        let v = check().check_link(100.0, &[&s]);
        // Fast path: peak 105 > 100, so tests run. Test B: backlog
        // (105-100)*0.1 = 0.5 Mb -> 5 ms <= 10 ms. Test C: P(>100) =
        // 1/600 = 0.0017 > 0.00016 -> tail failure.
        match v {
            Verdict::FailTail { .. } => {}
            other => panic!("expected tail failure, got {other:?}"),
        }
    }
}
