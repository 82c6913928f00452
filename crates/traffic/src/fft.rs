//! Iterative radix-2 complex FFT, sized for PMF convolution.
//!
//! The paper convolves per-aggregate bandwidth distributions per link and
//! notes the FFT route runs "in milliseconds" for tens of thousands of
//! aggregates at 1024 quantization levels — small transforms, so a simple
//! in-place Cooley-Tukey is the right amount of machinery. What makes it
//! cheap in the controller is reuse: a `Plan` holds the twiddle factors
//! of one transform size (read from a table, not re-derived by repeated
//! multiplication, which is both faster and more accurate), and two real
//! sequences ride through one complex transform (`packed_product`).

/// A complex number; deliberately minimal.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Complex {
    /// Real part.
    pub re: f64,
    /// Imaginary part.
    pub im: f64,
}

impl Complex {
    /// 0 + 0i.
    pub const ZERO: Complex = Complex { re: 0.0, im: 0.0 };

    pub(crate) fn mul(self, o: Complex) -> Complex {
        Complex { re: self.re * o.re - self.im * o.im, im: self.re * o.im + self.im * o.re }
    }

    fn add(self, o: Complex) -> Complex {
        Complex { re: self.re + o.re, im: self.im + o.im }
    }

    fn sub(self, o: Complex) -> Complex {
        Complex { re: self.re - o.re, im: self.im - o.im }
    }

    fn conj(self) -> Complex {
        Complex { re: self.re, im: -self.im }
    }
}

/// The twiddle factors of one transform size, computed once.
#[derive(Clone, Debug)]
pub(crate) struct Plan {
    /// `e^{-2πik/n}` for `k < n/2`.
    twiddles: Vec<Complex>,
}

impl Plan {
    /// Plans transforms of `n` points.
    ///
    /// # Panics
    /// Panics unless `n` is a power of two.
    pub fn new(n: usize) -> Self {
        assert!(n.is_power_of_two(), "FFT length {n} not a power of two");
        let step = -2.0 * std::f64::consts::PI / n as f64;
        let twiddles = (0..n / 2)
            .map(|k| {
                let (im, re) = (step * k as f64).sin_cos();
                Complex { re, im }
            })
            .collect();
        Plan { twiddles }
    }

    /// In-place FFT (`inverse = false`) or unnormalized inverse FFT.
    ///
    /// # Panics
    /// Panics unless `data.len()` is the planned size.
    pub fn transform(&self, data: &mut [Complex], inverse: bool) {
        let n = data.len();
        assert!(n.is_power_of_two() && n / 2 == self.twiddles.len(), "{n} points, other plan");
        // Bit-reversal permutation.
        let mut j = 0usize;
        for i in 1..n {
            let mut bit = n >> 1;
            while j & bit != 0 {
                j ^= bit;
                bit >>= 1;
            }
            j |= bit;
            if i < j {
                data.swap(i, j);
            }
        }
        // Butterflies; stage `len` reads every `n/len`-th twiddle.
        let mut len = 2;
        while len <= n {
            let (half, stride) = (len / 2, n / len);
            for block in data.chunks_exact_mut(len) {
                let (lo, hi) = block.split_at_mut(half);
                for (k, (u, v)) in lo.iter_mut().zip(hi).enumerate() {
                    let w = self.twiddles[k * stride];
                    let t = v.mul(if inverse { w.conj() } else { w });
                    (*u, *v) = (u.add(t), u.sub(t));
                }
            }
            len <<= 1;
        }
    }
}

/// In-place FFT (`inverse = false`) or unnormalized inverse FFT, planning
/// on the spot (inside the crate, a `Plan` transforms one size repeatedly).
///
/// # Panics
/// Panics unless `data.len()` is a power of two.
pub fn fft_in_place(data: &mut [Complex], inverse: bool) {
    Plan::new(data.len()).transform(data, inverse);
}

/// `A[k]·B[k]`, the product of the spectra of two *real* sequences `a` and
/// `b`, read off the one transform `z` of the packed sequence `a + ib`.
/// Realness gives `A[k] = (Z[k] + conj Z[n−k])/2` and
/// `B[k] = (Z[k] − conj Z[n−k])/2i`, hence `A·B = (Z[k]² − conj Z[n−k]²)/4i`.
/// `n` is a power of two, so the mirror index `(n − k) mod n` is a mask.
pub(crate) fn packed_product(z: &[Complex], k: usize) -> Complex {
    let (zk, zm) = (z[k], z[(z.len() - k) & (z.len() - 1)].conj());
    let d = zk.mul(zk).sub(zm.mul(zm));
    Complex { re: 0.25 * d.im, im: -0.25 * d.re }
}

/// Linear convolution of two non-negative real sequences via FFT.
/// Output length is `a.len() + b.len() - 1`.
pub fn convolve(a: &[f64], b: &[f64]) -> Vec<f64> {
    if a.is_empty() || b.is_empty() {
        return Vec::new();
    }
    let out_len = a.len() + b.len() - 1;
    let n = out_len.next_power_of_two();
    let plan = Plan::new(n);
    let mut fa: Vec<Complex> = a.iter().map(|&x| Complex { re: x, im: 0.0 }).collect();
    let mut fb: Vec<Complex> = b.iter().map(|&x| Complex { re: x, im: 0.0 }).collect();
    fa.resize(n, Complex::ZERO);
    fb.resize(n, Complex::ZERO);
    plan.transform(&mut fa, false);
    plan.transform(&mut fb, false);
    for (x, y) in fa.iter_mut().zip(&fb) {
        *x = x.mul(*y);
    }
    plan.transform(&mut fa, true);
    let scale = 1.0 / n as f64;
    // Convolving probability masses can produce tiny negative round-off.
    fa[..out_len].iter().map(|c| (c.re * scale).max(0.0)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn naive_convolve(a: &[f64], b: &[f64]) -> Vec<f64> {
        let mut out = vec![0.0; a.len() + b.len() - 1];
        for (i, &x) in a.iter().enumerate() {
            for (j, &y) in b.iter().enumerate() {
                out[i + j] += x * y;
            }
        }
        out
    }

    #[test]
    fn convolve_matches_naive() {
        let a = [0.25, 0.5, 0.25];
        let b = [0.1, 0.2, 0.3, 0.4];
        let fast = convolve(&a, &b);
        let slow = naive_convolve(&a, &b);
        assert_eq!(fast.len(), slow.len());
        for (x, y) in fast.iter().zip(&slow) {
            assert!((x - y).abs() < 1e-12, "{x} vs {y}");
        }
    }

    #[test]
    fn convolution_of_pmfs_sums_to_one() {
        let a = [0.5, 0.5];
        let b = [0.2, 0.3, 0.5];
        let c = convolve(&a, &b);
        let total: f64 = c.iter().sum();
        assert!((total - 1.0).abs() < 1e-12);
    }

    #[test]
    fn identity_impulse() {
        let a = [1.0];
        let b = [0.3, 0.7];
        assert_eq!(convolve(&a, &b).len(), 2);
        let c = convolve(&a, &b);
        assert!((c[0] - 0.3).abs() < 1e-12 && (c[1] - 0.7).abs() < 1e-12);
    }

    #[test]
    fn fft_roundtrip() {
        let orig: Vec<Complex> =
            (0..16).map(|i| Complex { re: (i as f64).sin(), im: (i as f64 * 0.5).cos() }).collect();
        let mut data = orig.clone();
        fft_in_place(&mut data, false);
        fft_in_place(&mut data, true);
        for (a, b) in data.iter().zip(&orig) {
            assert!((a.re / 16.0 - b.re).abs() < 1e-12);
            assert!((a.im / 16.0 - b.im).abs() < 1e-12);
        }
    }

    #[test]
    fn fft_matches_naive_dft() {
        let input: Vec<f64> = vec![1.0, 2.0, 0.5, -1.0, 0.0, 3.0, -0.5, 0.25];
        let mut data: Vec<Complex> = input.iter().map(|&x| Complex { re: x, im: 0.0 }).collect();
        fft_in_place(&mut data, false);
        let n = input.len();
        for k in 0..n {
            let mut acc = Complex::ZERO;
            for (t, &x) in input.iter().enumerate() {
                let ang = -2.0 * std::f64::consts::PI * (k * t) as f64 / n as f64;
                acc = acc.add(Complex { re: x * ang.cos(), im: x * ang.sin() });
            }
            assert!((acc.re - data[k].re).abs() < 1e-9);
            assert!((acc.im - data[k].im).abs() < 1e-9);
        }
    }

    #[test]
    #[should_panic]
    fn non_power_of_two_rejected() {
        let mut d = vec![Complex::ZERO; 12];
        fft_in_place(&mut d, false);
    }
}
