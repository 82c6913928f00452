//! Iterative radix-2 complex FFT, sized for PMF convolution.
//!
//! The paper convolves per-aggregate bandwidth distributions per link and
//! notes the FFT route runs "in milliseconds" for tens of thousands of
//! aggregates at 1024 quantization levels — small transforms, so a simple
//! in-place Cooley-Tukey is the right amount of machinery. What makes it
//! cheap in the controller is reuse: a `Plan` holds what every transform
//! of one size would re-derive, and two real sequences ride through one
//! complex transform (`packed_product`).
//!
//! # The plan
//!
//! * **Twiddles by stage.** One `n`-point table `e^{-2πik/n}`, `k < n/2`,
//!   is computed once (read from `sin_cos`, not re-derived by repeated
//!   multiplication, which is both faster and more accurate). Stage `len`
//!   reads every `n/len`-th entry of it, so the plan stores those entries
//!   back to back in stage order, `n − 1` in all, and a stage reads its
//!   factors contiguously. The inverse conjugates each factor as it reads
//!   it, in a copy of the loop compiled for the inverse (negation is
//!   exact), so no butterfly asks which direction it runs.
//! * **The bit reversal as swaps.** The permutation is the list of
//!   `(i, j)` swaps, `i < j`, that the incremental reversed counter would
//!   perform, kept in that order.
//! * **Stages 1 and 2 fused.** Both run one 4-point block at a time: the
//!   block's two stage-1 butterflies, then its two stage-2 ones. Blocks
//!   share no element, so this is each block's four butterflies in the
//!   order the two stages would run them.
//!
//! Same butterflies, same bits: every butterfly is still `t = v·w;
//! (u, v) = (u + t, u − t)` on the same operands with the same `w`,
//! stage after stage, so every output has the bits of the textbook loop
//! that derived the permutation and gathered `twiddles[k·n/len]` per
//! butterfly (kept as the tests' reference). A factor of `1 + 0i` is
//! still multiplied in: it can turn a `−0` into `+0`.

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

/// What every transform of one size would otherwise re-derive: its
/// twiddles in the order the stages read them, and its bit-reversal swaps.
#[derive(Clone, Debug)]
pub(crate) struct Plan {
    /// Stage `len = 2, 4, …, n` holds `e^{-2πik/len}` for `k < len/2`,
    /// back to back from offset `len/2 − 1`: `n − 1` entries. Each is the
    /// `k·n/len`-th entry of one `n`-point table, so a stage reads the
    /// factor a strided read of that table would.
    twiddles: Vec<Complex>,
    /// The bit-reversal permutation as the swaps `(i, j)`, `i < j`, that
    /// perform it in order.
    swaps: Vec<(usize, usize)>,
}

impl Plan {
    /// Plans transforms of `n` points.
    ///
    /// # Panics
    /// Panics unless `n` is a power of two.
    pub fn new(n: usize) -> Self {
        assert!(n.is_power_of_two(), "FFT length {n} not a power of two");
        let step = -2.0 * std::f64::consts::PI / n as f64;
        let base: Vec<Complex> = (0..n / 2)
            .map(|k| {
                let (im, re) = (step * k as f64).sin_cos();
                Complex { re, im }
            })
            .collect();
        let mut twiddles = Vec::with_capacity(n - 1);
        let mut len = 2;
        while len <= n {
            twiddles.extend(base.iter().step_by(n / len));
            len <<= 1;
        }
        // Each swap moves two of the `n` points.
        let mut swaps = Vec::with_capacity(n / 2);
        let mut j = 0usize;
        for i in 1..n {
            let mut bit = n >> 1;
            while j & bit != 0 {
                j ^= bit;
                bit >>= 1;
            }
            j |= bit;
            if i < j {
                swaps.push((i, j));
            }
        }
        Plan { twiddles, swaps }
    }

    /// In-place FFT (`inverse = false`) or unnormalized inverse FFT.
    ///
    /// # Panics
    /// Panics unless `data.len()` is the planned size.
    pub fn transform(&self, data: &mut [Complex], inverse: bool) {
        let n = data.len();
        assert!(n == self.twiddles.len() + 1, "{n} points, other plan");
        for &(i, j) in &self.swaps {
            data.swap(i, j);
        }
        if inverse {
            self.butterflies::<true>(data);
        } else {
            self.butterflies::<false>(data);
        }
    }

    /// Every stage's butterflies over bit-reversed `data`, each twiddle
    /// conjugated for the inverse; stages 1 and 2 fused (module docs).
    fn butterflies<const INVERSE: bool>(&self, data: &mut [Complex]) {
        let turn = |w: Complex| if INVERSE { w.conj() } else { w };
        let n = data.len();
        let mut len = 2;
        if n >= 4 {
            // Stage 1's one twiddle, then stage 2's two.
            let [w1, w2, w3] = [0, 1, 2].map(|k| turn(self.twiddles[k]));
            for block in data.chunks_exact_mut(4) {
                let [a, b, c, d] = block else { unreachable!("4-point blocks") };
                butterfly(a, b, w1);
                butterfly(c, d, w1);
                butterfly(a, c, w2);
                butterfly(b, d, w3);
            }
            len = 8;
        }
        while len <= n {
            let half = len / 2;
            let stage = &self.twiddles[half - 1..len - 1];
            for block in data.chunks_exact_mut(len) {
                let (lo, hi) = block.split_at_mut(half);
                for ((u, v), &w) in lo.iter_mut().zip(hi).zip(stage) {
                    butterfly(u, v, turn(w));
                }
            }
            len <<= 1;
        }
    }
}

/// One radix-2 butterfly: `t = v·w; (u, v) = (u + t, u − t)`.
#[inline(always)]
fn butterfly(u: &mut Complex, v: &mut Complex, w: Complex) {
    let t = v.mul(w);
    (*u, *v) = (u.add(t), u.sub(t));
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

    /// The transform as it was before the plan: the bit reversal derived
    /// on the spot, stage `len` reading every `n/len`-th twiddle of the
    /// `n`-point table, the inverse conjugating in every butterfly.
    fn textbook(data: &mut [Complex], inverse: bool) {
        let n = data.len();
        let step = -2.0 * std::f64::consts::PI / n as f64;
        let twiddles: Vec<Complex> = (0..n / 2)
            .map(|k| {
                let (im, re) = (step * k as f64).sin_cos();
                Complex { re, im }
            })
            .collect();
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
        let mut len = 2;
        while len <= n {
            let (half, stride) = (len / 2, n / len);
            for block in data.chunks_exact_mut(len) {
                let (lo, hi) = block.split_at_mut(half);
                for (k, (u, v)) in lo.iter_mut().zip(hi).enumerate() {
                    let w = twiddles[k * stride];
                    let t = v.mul(if inverse { w.conj() } else { w });
                    (*u, *v) = (u.add(t), u.sub(t));
                }
            }
            len <<= 1;
        }
    }

    #[test]
    fn the_planned_transform_is_the_textbook_one_to_the_bit() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};

        let mut rng = StdRng::seed_from_u64(42);
        // Dense draws mix signed zeros, negatives and magnitudes far apart.
        // Sparse and all-zero ones keep a zero's sign alive through the
        // stages, where a product by `w = 1 + 0i` can turn −0 into +0.
        let mut value = |nonzero: f64| {
            if !rng.gen_bool(nonzero) {
                return if rng.gen_bool(0.5) { 0.0 } else { -0.0 };
            }
            match rng.gen_range(0..3) {
                0 => rng.gen_range(-1.0..1.0),
                1 => rng.gen_range(0.0..1.0) * 1e-300,
                _ => rng.gen_range(-1.0..1.0) * 1e6,
            }
        };
        for log in 0..=12 {
            let n = 1usize << log;
            let plan = Plan::new(n);
            for (nonzero, inverse) in [0.6, 0.05, 0.0].map(|p| [(p, false), (p, true)]).concat() {
                let input: Vec<Complex> =
                    (0..n).map(|_| Complex { re: value(nonzero), im: value(nonzero) }).collect();
                let (mut planned, mut expected) = (input.clone(), input);
                plan.transform(&mut planned, inverse);
                textbook(&mut expected, inverse);
                let bits = |c: &Complex| (c.re.to_bits(), c.im.to_bits());
                for (k, (p, e)) in planned.iter().zip(&expected).enumerate() {
                    let case = format!("n = {n}, {nonzero} nonzero, inverse = {inverse}, bin {k}");
                    assert_eq!(bits(p), bits(e), "{case}");
                }
            }
        }
    }

    #[test]
    #[should_panic]
    fn non_power_of_two_rejected() {
        let mut d = vec![Complex::ZERO; 12];
        fft_in_place(&mut d, false);
    }
}
