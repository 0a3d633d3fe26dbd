//! The 64-bit LCG core and its O(log n) jump-ahead.

/// Multiplier of the MMIX linear congruential generator (Knuth).
pub const LCG_A: u64 = 6364136223846793005;
/// Increment of the MMIX linear congruential generator.
pub const LCG_C: u64 = 1442695040888963407;

/// A 64-bit linear congruential generator `x ← a·x + c (mod 2⁶⁴)`.
///
/// ```
/// use mxp_lcg::Lcg;
/// let mut seq = Lcg::new(42);
/// let (x0, x1, x2) = (seq.next_u64(), seq.next_u64(), seq.next_u64());
/// // Jumping two steps from the start lands on the third output's state.
/// let mut jumped = Lcg::new(42);
/// jumped.skip(2);
/// assert_eq!(jumped.next_u64(), x2);
/// let _ = (x0, x1);
/// ```
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Lcg {
    state: u64,
}

impl Lcg {
    /// Creates a generator whose *next* output is `step(seed)`.
    ///
    /// The raw seed itself is never emitted, so low-entropy seeds (0, 1, …)
    /// do not leak into the matrix.
    #[inline]
    pub const fn new(seed: u64) -> Self {
        Lcg { state: seed }
    }

    /// Advances one step and returns the new state.
    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_mul(LCG_A).wrapping_add(LCG_C);
        self.state
    }

    /// Advances one step and maps the state to a uniform value in
    /// `[-0.5, 0.5)` with 53 significant bits — the HPL-AI off-diagonal
    /// entry distribution.
    #[inline]
    pub fn next_unit(&mut self) -> f64 {
        u64_to_unit(self.next_u64())
    }

    /// Jumps forward `n` steps in O(log n) multiplications.
    pub fn skip(&mut self, n: u128) {
        let (a, c) = affine_pow(n);
        self.state = self.state.wrapping_mul(a).wrapping_add(c);
    }

    /// Returns the generator positioned `n` steps after `seed`
    /// (equivalent to `Lcg::new(seed)` followed by `skip(n)`).
    #[inline]
    pub fn at(seed: u64, n: u128) -> Self {
        let mut g = Lcg::new(seed);
        g.skip(n);
        g
    }

    /// Current internal state (useful for tests and checkpointing).
    #[inline]
    pub const fn state(&self) -> u64 {
        self.state
    }
}

/// Maps a u64 to a uniform f64 in `[-0.5, 0.5)` using the top 53 bits.
///
/// Every step is exact: `x >> 11 < 2⁵³` converts to f64 without rounding
/// (through `i64`, so the conversion vectorizes as a signed one), the
/// scale by 2⁻⁵³ is a power of two, and subtracting 0.5 from a multiple of
/// 2⁻⁵³ in `[0, 1)` stays representable.
#[inline]
pub(crate) fn u64_to_unit(x: u64) -> f64 {
    (x >> 11) as i64 as f64 * (1.0 / 9007199254740992.0) - 0.5
}

/// Computes the affine map of `n` composed LCG steps.
///
/// One step is `x ↦ a·x + c`. Composing `n` steps yields `x ↦ aₙ·x + cₙ`
/// with `aₙ = aⁿ` and `cₙ = c·(aⁿ⁻¹ + … + a + 1)`, all modulo 2⁶⁴. The
/// result is obtained by binary exponentiation over affine-map composition:
/// `(a₁,c₁) ∘ (a₂,c₂) = (a₁·a₂, a₂·c₁ + c₂)` (apply map 1 first).
///
/// A `const fn`, so the lane tables of the matrix fills are built at
/// compile time.
pub const fn affine_pow(mut n: u128) -> (u64, u64) {
    // Identity map.
    let mut acc_a: u64 = 1;
    let mut acc_c: u64 = 0;
    // Current squared base map: initially one LCG step.
    let mut base_a = LCG_A;
    let mut base_c = LCG_C;
    while n > 0 {
        if n & 1 == 1 {
            // acc = acc then base.
            acc_a = acc_a.wrapping_mul(base_a);
            acc_c = acc_c.wrapping_mul(base_a).wrapping_add(base_c);
        }
        // base = base then base.
        base_c = base_c.wrapping_mul(base_a).wrapping_add(base_c);
        base_a = base_a.wrapping_mul(base_a);
        n >>= 1;
    }
    (acc_a, acc_c)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn skip_zero_is_identity() {
        let g = Lcg::new(123);
        let mut h = g;
        h.skip(0);
        assert_eq!(g, h);
    }

    #[test]
    fn skip_matches_sequential() {
        for &n in &[1u128, 2, 3, 7, 64, 1000, 65537] {
            let mut seq = Lcg::new(0xdead_beef);
            for _ in 0..n {
                seq.next_u64();
            }
            let jumped = Lcg::at(0xdead_beef, n);
            assert_eq!(seq.state(), jumped.state(), "mismatch at n={n}");
        }
    }

    #[test]
    fn skip_composes() {
        let mut a = Lcg::new(7);
        a.skip(12345);
        a.skip(67890);
        let mut b = Lcg::new(7);
        b.skip(12345 + 67890);
        assert_eq!(a, b);
    }

    #[test]
    fn huge_jumps_dont_overflow() {
        // N² + N for N = 20,606,976 (the Frontier headline run), ~4.2·10¹⁴:
        // the right-hand side's stream offset at full Frontier extent.
        let n = 20_606_976u128;
        let mut g = Lcg::new(1);
        g.skip(n * n + n);
        // Just exercising it: must terminate and produce some state.
        assert_ne!(g.state(), 1);
        // Offsets past 2⁶⁴ (N > 2³²) wrap: the generator has full period
        // 2⁶⁴, so that many steps are the identity map.
        assert_eq!(affine_pow(1 << 64), (1, 0));
    }

    #[test]
    fn unit_range_and_mean() {
        let mut g = Lcg::new(2022);
        let mut sum = 0.0;
        let mut min = f64::INFINITY;
        let mut max = f64::NEG_INFINITY;
        const N: usize = 100_000;
        for _ in 0..N {
            let v = g.next_unit();
            assert!((-0.5..0.5).contains(&v));
            sum += v;
            min = min.min(v);
            max = max.max(v);
        }
        let mean = sum / N as f64;
        assert!(mean.abs() < 0.01, "mean {mean} too far from 0");
        assert!(
            min < -0.49 && max > 0.49,
            "range not covered: [{min},{max}]"
        );
    }

    #[test]
    fn unit_variance() {
        // Var of U(-0.5, 0.5) is 1/12.
        let mut g = Lcg::new(5);
        const N: usize = 100_000;
        let mut sq = 0.0;
        for _ in 0..N {
            let v = g.next_unit();
            sq += v * v;
        }
        let var = sq / N as f64;
        assert!((var - 1.0 / 12.0).abs() < 0.005, "variance {var}");
    }

    #[test]
    fn different_seeds_diverge() {
        let mut a = Lcg::new(1);
        let mut b = Lcg::new(2);
        assert_ne!(a.next_u64(), b.next_u64());
    }

    #[test]
    fn affine_pow_one_is_single_step() {
        assert_eq!(affine_pow(1), (LCG_A, LCG_C));
    }

    #[test]
    fn affine_pow_linear_in_exponent() {
        // (a,c)^(m+n) == (a,c)^m ∘ (a,c)^n
        let (am, cm) = affine_pow(37);
        let (an, cn) = affine_pow(101);
        let (asum, csum) = affine_pow(138);
        assert_eq!(asum, am.wrapping_mul(an));
        assert_eq!(csum, cm.wrapping_mul(an).wrapping_add(cn));
    }
}
