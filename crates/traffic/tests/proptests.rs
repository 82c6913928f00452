//! Property tests for the traffic machinery.

use proptest::prelude::*;

use lowlat_traffic::fft::convolve;
use lowlat_traffic::multiplex::{MultiplexCheck, MultiplexConfig, Verdict};
use lowlat_traffic::pmf::{convolve_group, Member, Pmf};
use lowlat_traffic::predictor::{prediction_ratios, Predictor};
use lowlat_traffic::trace::{synthesize, AggregateTrace, TraceGenConfig, TraceGenerator};

/// Every sample, then every minute's mean and peak, as bit patterns.
fn trace_bits(tr: &AggregateTrace) -> Vec<u64> {
    let summaries = (0..tr.minutes()).flat_map(|m| [tr.minute_mean(m), tr.peak(m)]);
    (0..tr.minutes())
        .flat_map(|m| tr.samples(m).iter().copied())
        .chain(summaries)
        .map(f64::to_bits)
        .collect()
}

/// The pairwise chain `convolve_group` used to be: every member quantized
/// onto the common grid, folded in one linear convolution at a time over
/// an ever-growing support. Kept here as the reference implementation.
fn reference_chain(sample_sets: &[&[f64]], levels: usize) -> Option<Pmf> {
    let sum_of_peaks: f64 = sample_sets.iter().map(|s| s.iter().cloned().fold(0.0, f64::max)).sum();
    if sum_of_peaks <= 0.0 {
        return None;
    }
    let bin_width = sum_of_peaks / (levels as f64 - 1.0);
    sample_sets
        .iter()
        .map(|s| Pmf::from_samples(s, bin_width, levels))
        .reduce(|acc, pmf| acc.convolve_with(&pmf))
}

/// Unit series scaled by per-member factors spanning orders of magnitude
/// (ragged peaks), an exact 0 (all-zero member) or an exact 1.
fn scaled_members(max: usize) -> impl Strategy<Value = Vec<(f64, Vec<f64>)>> {
    let scale = (0usize..4, 0.001f64..1.0).prop_map(|(kind, u)| match kind {
        0 => 0.0,
        1 => 1.0,
        2 => u,
        _ => 5000.0 * u,
    });
    proptest::collection::vec((scale, proptest::collection::vec(0.0f64..1.0, 30)), 1..=max)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// The one-product kernel agrees with the pairwise chain bin for bin,
    /// also at grid sizes that are not a power of two and with members
    /// that carry no traffic. (The chain's transforms grow with the member
    /// count, so the big grids get the short member lists.)
    #[test]
    fn convolve_group_matches_the_pairwise_chain(
        (levels, cap) in prop_oneof![
            Just((64usize, 40usize)), Just((100, 40)), Just((1000, 9)), Just((1024, 9)),
        ],
        members in scaled_members(40),
    ) {
        let sets: Vec<Vec<f64>> = members
            .iter()
            .take(cap)
            .map(|(x, unit)| unit.iter().map(|s| s * x).collect())
            .collect();
        let refs: Vec<&[f64]> = sets.iter().map(|v| v.as_slice()).collect();
        let (Some(fast), Some(slow)) = (convolve_group(&refs, levels), reference_chain(&refs, levels))
        else {
            prop_assert!(sets.iter().flatten().all(|&s| s == 0.0), "None only without traffic");
            prop_assert!(convolve_group(&refs, levels).is_none());
            prop_assert!(reference_chain(&refs, levels).is_none());
            return Ok(());
        };
        prop_assert_eq!(fast.probs().len(), levels);
        prop_assert_eq!(fast.bin_width().to_bits(), slow.bin_width().to_bits());
        for (i, &p) in slow.probs().iter().enumerate() {
            // Beyond `levels` the chain holds round-off only: no mass.
            let q = fast.probs().get(i).copied().unwrap_or(0.0);
            prop_assert!((p - q).abs() < 1e-12, "bin {i}: {q} vs {p}");
        }
        let mass: f64 = fast.probs().iter().sum();
        prop_assert!((mass - 1.0).abs() < 1e-9, "mass {mass}");
        let top = fast.bin_width() * levels as f64;
        for i in 0..=20 {
            let t = top * i as f64 / 20.0;
            prop_assert!((fast.prob_exceeds(t) - slow.prob_exceeds(t)).abs() < 1e-12);
        }
    }

    /// Appraising members at a fraction is appraising their scaled copies:
    /// the same verdict down to the payload bits, whichever test decides.
    #[test]
    fn check_members_matches_check_link_on_scaled_copies(
        members in scaled_members(12),
        squeeze in 0.2f64..1.1,
    ) {
        let peaks: Vec<f64> =
            members.iter().map(|(_, unit)| unit.iter().cloned().fold(0.0, f64::max)).collect();
        let by_member: Vec<Member<'_>> = members
            .iter()
            .zip(&peaks)
            .map(|((x, unit), &peak)| (unit.as_slice(), peak, *x))
            .collect();
        let copies: Vec<Vec<f64>> =
            members.iter().map(|(x, unit)| unit.iter().map(|s| s * x).collect()).collect();
        let refs: Vec<&[f64]> = copies.iter().map(|v| v.as_slice()).collect();
        // From "everything fits" down to "the mean itself overloads".
        let capacity = squeeze * peaks.iter().zip(&members).map(|(p, (x, _))| p * x).sum::<f64>();
        prop_assume!(capacity > 0.0);
        let check = MultiplexCheck::new(MultiplexConfig { levels: 1000, ..Default::default() });
        let (a, b) = (check.check_members(capacity, &by_member), check.check_link(capacity, &refs));
        prop_assert_eq!(format!("{a:?}"), format!("{b:?}"));
        prop_assert_eq!(a, b);
    }

    /// Test B decides as the per-sample loop it was written as: each
    /// sample's load summed across the members in order, then the carried
    /// queue. Whatever the verdict, its payload has the same bits, and a
    /// `FailTemporal`'s `max_queue_ms` is the loop's worst queue.
    #[test]
    fn test_b_is_the_per_sample_loop_to_the_bit(
        members in scaled_members(12),
        squeeze in 0.2f64..1.1,
        allowance in 0.5f64..200.0,
    ) {
        let peaks: Vec<f64> =
            members.iter().map(|(_, unit)| unit.iter().cloned().fold(0.0, f64::max)).collect();
        let by_member: Vec<Member<'_>> = members
            .iter()
            .zip(&peaks)
            .map(|((x, unit), &peak)| (unit.as_slice(), peak, *x))
            .collect();
        let sum_of_peaks: f64 = peaks.iter().zip(&members).map(|(p, (x, _))| p * x).sum();
        let capacity = squeeze * sum_of_peaks;
        prop_assume!(capacity > 0.0);
        let config = MultiplexConfig { max_queue_ms: allowance, ..Default::default() };
        let check = MultiplexCheck::new(config.clone());
        let verdict = check.check_members(capacity, &by_member);

        let bin_s = config.bin_ms / 1000.0;
        let (mut backlog_mb, mut worst_queue_ms) = (0.0f64, 0.0f64);
        for i in 0..by_member[0].0.len() {
            let load: f64 = by_member.iter().map(|&(s, _, x)| s[i] * x).sum();
            backlog_mb = (backlog_mb + (load - capacity) * bin_s).max(0.0);
            worst_queue_ms = worst_queue_ms.max(backlog_mb / capacity * 1000.0);
        }
        if sum_of_peaks > capacity && worst_queue_ms > config.max_queue_ms {
            prop_assert_eq!(bits(verdict), bits(Verdict::FailTemporal { max_queue_ms: worst_queue_ms }));
        } else {
            prop_assert!(!matches!(verdict, Verdict::FailTemporal { .. }), "{verdict:?}");
        }
    }

    /// A check answers test C from its memo on a repeat, and both answers
    /// are the tail of a fresh convolution of the scaled copies, to the bit.
    #[test]
    fn a_repeated_appraisal_is_the_convolved_tail(
        members in scaled_members(12),
        squeeze in 0.2f64..1.1,
    ) {
        let peaks: Vec<f64> =
            members.iter().map(|(_, unit)| unit.iter().cloned().fold(0.0, f64::max)).collect();
        let by_member: Vec<Member<'_>> = members
            .iter()
            .zip(&peaks)
            .map(|((x, unit), &peak)| (unit.as_slice(), peak, *x))
            .collect();
        let sum_of_peaks: f64 = peaks.iter().zip(&members).map(|(p, (x, _))| p * x).sum();
        let capacity = squeeze * sum_of_peaks;
        prop_assume!(capacity > 0.0);
        let check = MultiplexCheck::default();
        let (first, again) =
            (check.check_members(capacity, &by_member), check.check_members(capacity, &by_member));

        let copies: Vec<Vec<f64>> =
            members.iter().map(|(x, unit)| unit.iter().map(|s| s * x).collect()).collect();
        let refs: Vec<&[f64]> = copies.iter().map(|v| v.as_slice()).collect();
        let tail = convolve_group(&refs, check.config().levels)
            .expect("positive sum of peaks")
            .prob_exceeds(capacity);
        let config = check.config();
        let threshold = config.max_queue_ms / (refs[0].len() as f64 * config.bin_ms);
        let reached_c = sum_of_peaks > capacity && !matches!(first, Verdict::FailTemporal { .. });
        let expected = if !reached_c {
            // Decided before test C: nothing to compare, nothing memoized.
            first
        } else if tail > threshold {
            Verdict::FailTail { prob: tail, threshold }
        } else {
            Verdict::Pass
        };
        prop_assert_eq!(bits(first), bits(expected));
        prop_assert_eq!(bits(again), bits(expected));
        let asked = u64::from(reached_c);
        prop_assert_eq!((check.tails_convolved(), check.tails_reused()), (asked, asked));
    }
}

/// A verdict by the bits of its payload.
fn bits(verdict: Verdict) -> (u8, u64, u64) {
    match verdict {
        Verdict::Pass => (0, 0, 0),
        Verdict::FailTemporal { max_queue_ms } => (1, max_queue_ms.to_bits(), 0),
        Verdict::FailTail { prob, threshold } => (2, prob.to_bits(), threshold.to_bits()),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// The design goal of Algorithm 1: traffic growing at most 10% per
    /// minute never exceeds its prediction.
    #[test]
    fn predictor_covers_bounded_growth(
        start in 10.0f64..10_000.0,
        growths in proptest::collection::vec(0.0f64..0.10, 1..40),
    ) {
        let mut level = start;
        let mut p = Predictor::new(level);
        for g in growths {
            let predicted = p.prediction();
            level *= 1.0 + g;
            prop_assert!(level <= predicted * (1.0 + 1e-12),
                "level {level} exceeded prediction {predicted}");
            p.observe(level);
        }
    }

    /// Predictions never undershoot the hedge over the last observation and
    /// decay by at most 2% per minute.
    #[test]
    fn predictor_bounds(values in proptest::collection::vec(0.1f64..1e5, 2..50)) {
        let mut p = Predictor::new(values[0]);
        let mut prev = p.prediction();
        for &v in &values[1..] {
            let next = p.observe(v);
            prop_assert!(next >= v * 1.1 - 1e-9, "hedge floor violated");
            prop_assert!(next >= prev * 0.98 - 1e-9 || next >= v * 1.1 - 1e-9,
                "decayed too fast: {prev} -> {next}");
            prev = next;
        }
    }

    /// Ratios are finite and positive for positive traffic.
    #[test]
    fn prediction_ratios_sane(values in proptest::collection::vec(1.0f64..1e4, 2..60)) {
        for r in prediction_ratios(&values) {
            prop_assert!(r.is_finite() && r > 0.0);
            // Can never exceed 1/1.1 by more than the level jump allows:
            // measured/predicted <= measured/(1.1 * prev_measured * 0.98...).
        }
    }

    /// FFT convolution agrees with the naive quadratic convolution.
    #[test]
    fn fft_convolve_matches_naive(
        a in proptest::collection::vec(0.0f64..10.0, 1..40),
        b in proptest::collection::vec(0.0f64..10.0, 1..40),
    ) {
        let fast = convolve(&a, &b);
        let mut slow = vec![0.0; a.len() + b.len() - 1];
        for (i, &x) in a.iter().enumerate() {
            for (j, &y) in b.iter().enumerate() {
                slow[i + j] += x * y;
            }
        }
        prop_assert_eq!(fast.len(), slow.len());
        for (f, s) in fast.iter().zip(&slow) {
            prop_assert!((f - s).abs() < 1e-6 * (1.0 + s.abs()), "{f} vs {s}");
        }
    }

    /// P(X > t) is non-increasing in t, hits 0 beyond the support, and the
    /// group convolution's mean is the sum of the parts' means.
    #[test]
    fn pmf_tail_monotone_and_means_add(
        s1 in proptest::collection::vec(0.5f64..100.0, 5..50),
        s2 in proptest::collection::vec(0.5f64..100.0, 5..50),
    ) {
        let pmf = convolve_group(&[&s1, &s2], 256).expect("non-empty");
        let mut last = 1.0;
        for i in 0..20 {
            let t = i as f64 * 15.0;
            let p = pmf.prob_exceeds(t);
            prop_assert!(p <= last + 1e-12, "tail must fall");
            last = p;
        }
        prop_assert!(pmf.prob_exceeds(205.0) < 1e-9, "beyond max sum");
        let grid = pmf.bin_width();
        let m1 = Pmf::from_samples(&s1, grid, 256).mean();
        let m2 = Pmf::from_samples(&s2, grid, 256).mean();
        prop_assert!((pmf.mean() - (m1 + m2)).abs() < 1e-6 * (1.0 + m1 + m2));
    }

    /// The per-minute summaries a trace stores are the scans of its samples
    /// to the bit, through every prefix view.
    #[test]
    fn summaries_are_the_scans_at_every_prefix(
        (bins, samples) in (1usize..9, 1usize..7).prop_flat_map(|(bins, minutes)| {
            // Exact zeros, ordinary rates and subnormal-scale ones.
            let sample = (0usize..3, 0.0f64..1e4).prop_map(|(kind, x)| match kind {
                0 => 0.0,
                1 => x,
                _ => x * 1e-310,
            });
            (Just(bins), proptest::collection::vec(sample, bins * minutes))
        }),
    ) {
        let tr = AggregateTrace::from_samples(samples, bins);
        for k in 1..=tr.minutes() {
            let view = tr.truncated(k);
            prop_assert_eq!(view.minute_means().len(), k);
            for m in 0..k {
                let s = view.samples(m);
                let mean = s.iter().sum::<f64>() / s.len() as f64;
                let peak = s.iter().cloned().fold(0.0, f64::max);
                prop_assert_eq!(view.minute_mean(m).to_bits(), mean.to_bits());
                prop_assert_eq!(view.minute_means()[m].to_bits(), mean.to_bits());
                prop_assert_eq!(view.peak(m).to_bits(), peak.to_bits());
            }
        }
    }

    /// A trace grown a minute at a time, as the timeline grows its ground
    /// truth — each minute written on another thread while a view of the
    /// minutes before it is alive — is `synthesize`'s, bit for bit, at
    /// every prefix, with the diurnal cycle on and off.
    #[test]
    fn a_trace_grown_minute_by_minute_is_the_synthesized_one(
        mean_mbps in 1.0f64..1e5,
        cv in 0.0f64..1.5,
        minutes in 1usize..=8,
        bins_per_minute in 1usize..64,
        diurnal_amplitude in (any::<bool>(), 0.01f64..0.99).prop_map(|(on, a)| if on { a } else { 0.0 }),
        diurnal_period_minutes in 2usize..50,
        seed in any::<u64>(),
    ) {
        let cfg = TraceGenConfig {
            mean_mbps,
            cv,
            minutes,
            bins_per_minute,
            seed,
            diurnal_amplitude,
            diurnal_period_minutes,
        };
        let whole = synthesize(&cfg);
        let (mut generator, mut grown) = TraceGenerator::start(&cfg);
        for m in 0..minutes {
            let seen = (m > 0).then(|| grown.truncated(m));
            let minute = std::thread::scope(|scope| {
                scope.spawn(|| generator.next()).join().expect("the generator does not panic")
            });
            grown.push_minute(minute.expect("a configured minute"));
            if let Some(seen) = seen {
                prop_assert_eq!(trace_bits(&seen), trace_bits(&whole.truncated(m)));
            }
        }
        prop_assert!(generator.next().is_none(), "{} minutes configured", minutes);
        prop_assert_eq!(trace_bits(&grown), trace_bits(&whole));
    }

    /// Synthetic traces are shaped as configured and non-negative.
    #[test]
    fn trace_generator_shape(seed in any::<u64>(), minutes in 1usize..6) {
        let cfg = TraceGenConfig { minutes, bins_per_minute: 60, seed, ..Default::default() };
        let tr = synthesize(&cfg);
        prop_assert_eq!(tr.minutes(), minutes);
        for m in 0..minutes {
            prop_assert!(tr.minute_mean(m) > 0.0);
            prop_assert!(tr.peak(m) >= tr.minute_mean(m) - 1e-9);
            prop_assert!(tr.sigma(m) >= 0.0);
            for &s in tr.samples(m) {
                prop_assert!(s.is_finite() && s >= 0.0);
            }
        }
    }
}
