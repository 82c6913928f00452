//! Host-speed normalisation: the benchmark's defence against a noisy box.
//!
//! The container this benchmark was sized on executes the *same*
//! instructions at a speed that wanders ±15% within seconds and shifts by
//! 30% between minutes (a fixed kernel timed for 40 s read 203–344 ms; CPU
//! time moves with wall time, so it is execution speed, not preemption).
//! Medians, fastest-of-N and longer runs do not remove that: ten runs of
//! identical work disagreed by 8–16% (quartile distance over median).
//!
//! So every timed section is followed at once by a *probe* — a fixed
//! amount of harness-owned arithmetic, run for about 5% as long as the
//! section — and every time the run reports is scaled by
//! [`REFERENCE_ROUND_US`]` / (the run's mean probe µs per round)`: the time
//! it would have read on a host running the probe at the reference speed.
//! That brought the same ten runs within 3–5%, and it is what keeps a
//! baseline and a candidate measured minutes apart comparable. The scale is
//! one factor per run, from about a second of probing spread evenly through
//! it: a single probe is as noisy as the section it follows (scaling each
//! section by its own probe made identical placements read 357–590 ms).
//!
//! The probe shares no code with the program under test (a faster simplex
//! must not slow the yardstick). One round is three harness-owned kernels
//! in equal parts, because the host slows different instruction mixes by
//! different amounts and the workloads mix all three: a dense elimination
//! (raw arithmetic), a sparse elimination that allocates, merges index
//! lists and branches the way the LP and path code does, and a radix-2 FFT
//! (the appraisal layer's butterflies). Normalising identical Abilene passes
//! by any one kernel left 3.5–7% between runs; by all three, 2.7%.

use std::hint::black_box;
use std::time::Instant;

/// What one probe round costs on the reference host, µs. Fixes the scale
/// of every normalised time; a host running the probe in exactly this time
/// reports raw wall-clock.
pub const REFERENCE_ROUND_US: f64 = 1600.0;

/// Kernel repeats per round, chosen so each kernel is about a third of it.
const DENSE_PER_ROUND: usize = 5;
const FFT_PER_ROUND: usize = 13;

/// Share of a timed section's duration spent probing after it.
const PROBE_SHARE: f64 = 0.05;

/// Dense Gaussian elimination on a fixed 96x96 matrix.
fn dense_round() -> f64 {
    const N: usize = 96;
    let mut a = vec![0.0f64; N * N];
    for i in 0..N {
        for j in 0..N {
            a[i * N + j] = (((i * 31 + j * 17) % 23) as f64 - 11.0) / 7.0;
        }
        a[i * N + i] += 40.0;
    }
    for k in 0..N {
        let pivot = a[k * N + k];
        for i in k + 1..N {
            let f = a[i * N + k] / pivot;
            if f != 0.0 {
                for j in k..N {
                    a[i * N + j] -= f * a[k * N + j];
                }
            }
        }
    }
    (0..N).map(|i| a[i * N + i]).sum()
}

/// Sparse elimination on a fixed 120-row system: every update merges two
/// sorted `(column, value)` lists into a freshly allocated row.
fn sparse_round() -> f64 {
    const N: usize = 120;
    let mut rows: Vec<Vec<(usize, f64)>> = (0..N)
        .map(|i| {
            let mut r: Vec<(usize, f64)> = (0..6)
                .map(|k| ((i * 37 + k * 53 + k * k * 11) % N, ((i + 3 * k) % 7) as f64 - 3.0))
                .filter(|&(c, v)| c != i && v != 0.0)
                .collect();
            r.push((i, 25.0));
            r.sort_by_key(|e| e.0);
            r.dedup_by_key(|e| e.0);
            r
        })
        .collect();
    let mut trace = 0.0;
    for k in 0..N {
        let pivot_row = rows[k].clone();
        let pivot = pivot_row.iter().find(|e| e.0 == k).map_or(1.0, |e| e.1);
        for i in k + 1..N {
            let Some(f) = rows[i].iter().find(|e| e.0 == k).map(|e| e.1 / pivot) else {
                continue;
            };
            let row = &rows[i];
            let mut merged = Vec::with_capacity(row.len() + pivot_row.len());
            let (mut a, mut b) = (0, 0);
            while a < row.len() || b < pivot_row.len() {
                let ca = row.get(a).map_or(usize::MAX, |e| e.0);
                let cb = pivot_row.get(b).map_or(usize::MAX, |e| e.0);
                if ca == cb {
                    let v = row[a].1 - f * pivot_row[b].1;
                    if v.abs() > 1e-12 && ca != k {
                        merged.push((ca, v));
                    }
                    a += 1;
                    b += 1;
                } else if ca < cb {
                    merged.push(row[a]);
                    a += 1;
                } else {
                    if cb > k {
                        merged.push((cb, -f * pivot_row[b].1));
                    }
                    b += 1;
                }
            }
            rows[i] = merged;
        }
        trace += pivot;
    }
    trace
}

/// Textbook in-place radix-2 FFT of a fixed 2048-point real signal.
fn fft_round() -> f64 {
    const N: usize = 2048;
    let mut re: Vec<f64> = (0..N).map(|i| ((i * 37) % 101) as f64 / 101.0).collect();
    let mut im = vec![0.0f64; N];
    let mut j = 0;
    for i in 1..N {
        let mut bit = N >> 1;
        while j & bit != 0 {
            j ^= bit;
            bit >>= 1;
        }
        j |= bit;
        if i < j {
            re.swap(i, j);
            im.swap(i, j);
        }
    }
    let mut len = 2;
    while len <= N {
        let angle = -std::f64::consts::TAU / len as f64;
        let (wr, wi) = (angle.cos(), angle.sin());
        for start in (0..N).step_by(len) {
            let (mut cr, mut ci) = (1.0, 0.0);
            for k in 0..len / 2 {
                let (a, b) = (start + k, start + k + len / 2);
                let (tr, ti) = (re[b] * cr - im[b] * ci, re[b] * ci + im[b] * cr);
                re[b] = re[a] - tr;
                im[b] = im[a] - ti;
                re[a] += tr;
                im[a] += ti;
                (cr, ci) = (cr * wr - ci * wi, cr * wi + ci * wr);
            }
        }
        len <<= 1;
    }
    re[1] + im[2]
}

/// Times sections, probing the host after each.
#[derive(Debug, Default)]
pub struct HostSpeed {
    rounds: u64,
    probe_s: f64,
}

impl HostSpeed {
    /// A fresh recorder.
    pub fn new() -> Self {
        HostSpeed::default()
    }

    /// Runs `f` under the clock and returns its result with the raw
    /// wall-clock seconds it took; then probes the host for about 5% as
    /// long (at least one round).
    pub fn timed<R>(&mut self, f: impl FnOnce() -> R) -> (R, f64) {
        let t0 = Instant::now();
        let out = f();
        let raw_s = t0.elapsed().as_secs_f64();
        let t0 = Instant::now();
        loop {
            for _ in 0..DENSE_PER_ROUND {
                black_box(dense_round());
            }
            black_box(sparse_round());
            for _ in 0..FFT_PER_ROUND {
                black_box(fft_round());
            }
            self.rounds += 1;
            if t0.elapsed().as_secs_f64() >= raw_s * PROBE_SHARE {
                break;
            }
        }
        self.probe_s += t0.elapsed().as_secs_f64();
        (out, raw_s)
    }

    /// The factor that scales this run's raw times to reference host
    /// speed: below 1 when the host ran the probe slower than the reference
    /// (its times are shortened), above 1 when faster. 1 before anything
    /// was timed.
    pub fn scale(&self) -> f64 {
        if self.rounds == 0 {
            return 1.0;
        }
        REFERENCE_ROUND_US * self.rounds as f64 / (self.probe_s * 1e6)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn probe_kernels_are_deterministic_and_do_real_work() {
        assert_eq!(dense_round().to_bits(), dense_round().to_bits());
        assert_eq!(sparse_round().to_bits(), sparse_round().to_bits());
        assert_eq!(fft_round().to_bits(), fft_round().to_bits());
        assert!(dense_round().is_finite() && sparse_round().is_finite() && fft_round().is_finite());
        // Elimination keeps the dominant diagonal positive.
        assert!(dense_round() > 96.0 * 30.0 && sparse_round() > 120.0 * 20.0);
    }

    #[test]
    fn the_scale_is_reference_over_measured_probe_time() {
        let mut host = HostSpeed::new();
        assert_eq!(host.scale(), 1.0);
        let (v, raw_s) = host.timed(|| 42);
        assert_eq!(v, 42);
        assert!(raw_s >= 0.0 && host.rounds >= 1 && host.probe_s > 0.0);
        assert!(host.scale() > 0.0 && host.scale().is_finite());
        // Two rounds in 6.4 ms is half the reference speed: times halve.
        let slow = HostSpeed { rounds: 2, probe_s: 6.4e-3 };
        assert!((slow.scale() - 0.5).abs() < 1e-12);
    }
}
