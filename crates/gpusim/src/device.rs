//! Per-GCD device models: kernel-time surfaces calibrated to the paper.
//!
//! ## Calibration notes
//!
//! Peaks come from Table I (per-node FP16: 750 TF Summit / 1192 TF Frontier,
//! divided by 6 V100s / 8 GCDs). The *shapes* of the efficiency surfaces are
//! fit to the qualitative structure of Figs. 3, 5, 6 and 7:
//!
//! * saturation in `k` (= block size `B`): `k/(k + k_half)` — `k_half` is
//!   4× larger for rocBLAS, which is why the optimal block size moves from
//!   B = 768/1024 on V100 to B = 3072 on MI250X (§V-C);
//! * saturation in output size: `mn/(mn + s_half²)` — rates climb with the
//!   trailing-matrix size along the x-axes of Figs. 5/6;
//! * rocBLAS tile-quantization stripes (Fig. 3): off-multiple `m`/`k` sizes
//!   lose a fixed fraction (Finding 2/3: "rocBLAS will require additional
//!   tuning of GEMM kernel parameters to achieve more uniform performance");
//! * the LDA cliff (Fig. 7): leading dimensions divisible by a large power
//!   of two alias HBM channels; `LDA = 122880 = 2048·60` falls off the
//!   cliff while `119808` does not, reproducing the paper's `N_L` choice;
//! * `rocsolver_sgetrf` under-performs its cuSOLVER counterpart
//!   (Finding 3), putting extra pressure on the critical path.

/// GPU software stack vendor — selects library-specific behaviour in both
/// the timing surfaces and the shim layer.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Vendor {
    /// NVIDIA CUDA stack (cuBLAS / cuSOLVER).
    Nvidia,
    /// AMD ROCm stack (rocBLAS / rocSOLVER).
    Amd,
}

/// Analytic performance model of one GCD (a V100 GPU or half an MI250X).
#[derive(Clone, Copy, Debug)]
pub struct GcdModel {
    /// Human-readable device name.
    pub name: &'static str,
    /// Library stack.
    pub vendor: Vendor,
    /// Peak FP16-input/FP32-accumulate GEMM rate (tensor/matrix cores), FLOP/s.
    pub fp16_peak: f64,
    /// Peak FP32 vector rate, FLOP/s.
    pub fp32_peak: f64,
    /// Peak FP64 rate, FLOP/s.
    pub fp64_peak: f64,
    /// Device memory capacity in bytes.
    pub mem_bytes: u64,
    /// Device memory bandwidth in bytes/s (drives cast kernels).
    pub mem_bw: f64,
    /// Kernel launch overhead per call, seconds.
    pub launch_overhead: f64,
    /// GEMM k-direction half-saturation constant.
    pub gemm_k_half: f64,
    /// GEMM output-size half-saturation constant (elements per side).
    pub gemm_s_half: f64,
    /// Base GEMM efficiency at full saturation (library quality).
    pub gemm_base_eff: f64,
    /// GETRF efficiency factor relative to fp32 peak at saturation.
    pub getrf_eff: f64,
    /// GETRF half-saturation block size.
    pub getrf_b_half: f64,
    /// TRSM efficiency factor relative to fp32 peak at saturation.
    pub trsm_eff: f64,
}

impl GcdModel {
    /// Summit's NVIDIA V100 (one GPU = one GCD in the paper's accounting).
    pub fn v100() -> Self {
        GcdModel {
            name: "NVIDIA V100",
            vendor: Vendor::Nvidia,
            fp16_peak: 125.0e12,
            fp32_peak: 15.7e12,
            fp64_peak: 7.8e12,
            mem_bytes: 16 * (1 << 30),
            mem_bw: 900.0e9,
            launch_overhead: 8.0e-6,
            gemm_k_half: 256.0,
            gemm_s_half: 1536.0,
            gemm_base_eff: 0.88,
            getrf_eff: 0.50,
            getrf_b_half: 256.0,
            trsm_eff: 0.75,
        }
    }

    /// Frontier's AMD MI250X GCD (half an MI250X package; Table I node
    /// FP16 1192 TF / 8 GCDs).
    pub fn mi250x_gcd() -> Self {
        GcdModel {
            name: "AMD MI250X GCD",
            vendor: Vendor::Amd,
            fp16_peak: 149.0e12,
            fp32_peak: 23.9e12,
            fp64_peak: 27.25e12,
            mem_bytes: 64 * (1 << 30),
            mem_bw: 1.6e12,
            launch_overhead: 12.0e-6,
            gemm_k_half: 1500.0,
            gemm_s_half: 2560.0,
            gemm_base_eff: 0.92,
            getrf_eff: 0.22, // Finding 3: rocsolver_getrf under-performs
            getrf_b_half: 512.0,
            trsm_eff: 0.75,
        }
    }

    /// Mixed-precision GEMM flop rate for `C(m×n) += A(m×k)·B(k×n)` with the
    /// local matrix stored at leading dimension `lda` (FLOP/s).
    pub fn gemm_mixed_rate(&self, m: usize, n: usize, k: usize, lda: usize) -> f64 {
        if m == 0 || n == 0 || k == 0 {
            return self.fp16_peak;
        }
        let k_eff = k as f64 / (k as f64 + self.gemm_k_half);
        let mn = m as f64 * n as f64;
        let s_eff = mn / (mn + self.gemm_s_half * self.gemm_s_half);
        self.fp16_peak
            * self.gemm_base_eff
            * k_eff
            * s_eff
            * self.quantization(m, k)
            * self.lda_penalty(lda)
    }

    /// Tile-quantization stripes of the vendor GEMM (Fig. 3 heat map).
    fn quantization(&self, m: usize, k: usize) -> f64 {
        match self.vendor {
            Vendor::Nvidia => {
                let mut f = 1.0;
                if !m.is_multiple_of(64) {
                    f *= 0.93;
                }
                if !k.is_multiple_of(64) {
                    f *= 0.95;
                }
                f
            }
            Vendor::Amd => {
                // Fig. 3: "highest performance is not uniformly achievable";
                // off-multiple sizes fall off visible stripes.
                let mut f = 1.0;
                if !k.is_multiple_of(512) {
                    f *= 0.78;
                }
                if !m.is_multiple_of(256) {
                    f *= 0.85;
                }
                f
            }
        }
    }

    /// Leading-dimension penalty (Fig. 7): power-of-two-ish strides alias
    /// memory channels on the MI250X. `122880 = 2048·60` hits the cliff;
    /// `119808` does not.
    pub fn lda_penalty(&self, lda: usize) -> f64 {
        match self.vendor {
            Vendor::Nvidia => 1.0,
            Vendor::Amd => {
                if lda > 0 && lda.is_multiple_of(2048) {
                    0.60
                } else {
                    1.0
                }
            }
        }
    }

    /// Time for the mixed GEMM of the trailing update (seconds).
    pub fn gemm_mixed_time(&self, m: usize, n: usize, k: usize, lda: usize) -> f64 {
        if m == 0 || n == 0 || k == 0 {
            return self.launch_overhead;
        }
        let flops = 2.0 * m as f64 * n as f64 * k as f64;
        self.launch_overhead + flops / self.gemm_mixed_rate(m, n, k, lda)
    }

    /// FP32 GETRF rate on a `b × b` diagonal block (FLOP/s).
    pub fn getrf_rate(&self, b: usize) -> f64 {
        let b = b as f64;
        self.fp32_peak * self.getrf_eff * b / (b + self.getrf_b_half)
    }

    /// Time for the diagonal-block factorization (`(2/3)·b³` flops).
    pub fn getrf_time(&self, b: usize) -> f64 {
        if b == 0 {
            return 0.0;
        }
        let flops = 2.0 / 3.0 * (b as f64).powi(3);
        self.launch_overhead + flops / self.getrf_rate(b)
    }

    /// FP32 TRSM rate for a `b × b` triangle against `n` right-hand sides.
    pub fn trsm_rate(&self, b: usize, n: usize) -> f64 {
        let bb = b as f64;
        let nn = n as f64;
        let b_eff = bb / (bb + 64.0);
        let n_eff = nn / (nn + 512.0);
        self.fp32_peak * self.trsm_eff * b_eff * n_eff
    }

    /// Time for the panel triangular solve (`b² · n` flops).
    pub fn trsm_time(&self, b: usize, n: usize) -> f64 {
        if b == 0 || n == 0 {
            return 0.0;
        }
        let flops = (b as f64) * (b as f64) * n as f64;
        self.launch_overhead + flops / self.trsm_rate(b, n)
    }

    /// Time for CAST / TRANS_CAST of `elems` f32 elements to f16: memory
    /// bound (read 4 B, write 2 B per element).
    pub fn cast_time(&self, elems: usize) -> f64 {
        self.launch_overhead + 6.0 * elems as f64 / self.mem_bw
    }

    /// Time to copy `bytes` between host and device (used once at setup and
    /// once before IR; §III-C runs the whole factorization device-resident).
    pub fn h2d_time(&self, bytes: u64) -> f64 {
        // PCIe gen4-ish / Infinity Fabric host link, both ≈ 50 GB/s per GCD
        // at the fidelity this needs.
        20.0e-6 + bytes as f64 / 50.0e9
    }

    /// Whether a single-precision local matrix of side `n_l` (stored at
    /// `lda = n_l`) plus factorization buffers fits in device memory.
    ///
    /// Budget mirrors §V-A: the FP32 matrix dominates; diagonal block, FP16
    /// panels and look-ahead buffers add `~3·B·n_l·2` bytes plus the `B²`
    /// diagonal tile.
    pub fn fits_local_matrix(&self, n_l: usize, b: usize) -> bool {
        let matrix = 4 * n_l as u64 * n_l as u64;
        let panels = 2 * (3 * b as u64 * n_l as u64) + 4 * (b as u64 * b as u64);
        matrix + panels <= self.mem_bytes
    }
}

/// Samples the mixed-GEMM rate surface over a grid of output sizes and
/// reduction depths — the data behind the Fig. 3 heat map. Returns
/// `rates[mi][ki]` in FLOP/s for `C(m×m) += A(m×k)·B(k×m)` at fixed `lda`.
pub fn gemm_heatmap(dev: &GcdModel, mns: &[usize], ks: &[usize], lda: usize) -> Vec<Vec<f64>> {
    mns.iter()
        .map(|&mn| {
            ks.iter()
                .map(|&k| dev.gemm_mixed_rate(mn, mn, k, lda))
                .collect()
        })
        .collect()
}

/// One point of the Fig. 5/6 per-iteration kernel-rate curves: rates of the
/// three factorization kernels at a given trailing size and block size.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct KernelRates {
    /// Trailing matrix dimension the rates were sampled at.
    pub trailing: usize,
    /// Mixed-precision GEMM rate, FLOP/s.
    pub gemm: f64,
    /// GETRF rate, FLOP/s.
    pub getrf: f64,
    /// TRSM rate, FLOP/s.
    pub trsm: f64,
}

/// Samples the per-iteration kernel rates along a factorization of local
/// size `n_l` with block size `b` (Figs. 5/6), at `samples` evenly spaced
/// iterations.
pub fn kernel_curves(dev: &GcdModel, n_l: usize, b: usize, samples: usize) -> Vec<KernelRates> {
    let n_b = n_l / b;
    (0..samples)
        .filter_map(|s| {
            let k = s * n_b / samples.max(1);
            let trailing = n_l.checked_sub((k + 1) * b)?;
            if trailing == 0 {
                return None;
            }
            Some(KernelRates {
                trailing,
                gemm: dev.gemm_mixed_rate(trailing, trailing, b, n_l),
                getrf: dev.getrf_rate(b),
                trsm: dev.trsm_rate(b, trailing),
            })
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table1_peaks() {
        let v = GcdModel::v100();
        let m = GcdModel::mi250x_gcd();
        // Node-level FP16: 6 × 125 = 750 TF (Summit), 8 × 149 = 1192 TF
        // (Frontier) per Table I.
        assert!((6.0 * v.fp16_peak - 750e12).abs() < 1e9);
        assert!((8.0 * m.fp16_peak - 1192e12).abs() < 1e9);
        // Frontier node is 1.58x Summit node in FP16 (§III-A).
        assert!(((8.0 * m.fp16_peak) / (6.0 * v.fp16_peak) - 1.589) < 0.01);
        assert_eq!(v.vendor, Vendor::Nvidia);
        assert_eq!(m.vendor, Vendor::Amd);
    }

    #[test]
    fn gemm_rate_increases_with_k() {
        let m = GcdModel::mi250x_gcd();
        let r1 = m.gemm_mixed_rate(8192, 8192, 1024, 119808);
        let r2 = m.gemm_mixed_rate(8192, 8192, 3072, 119808);
        assert!(r2 > r1, "B=3072 must beat B=1024 at kernel level");
    }

    #[test]
    fn gemm_rate_increases_with_trailing_size() {
        let v = GcdModel::v100();
        let small = v.gemm_mixed_rate(1024, 1024, 768, 61440);
        let large = v.gemm_mixed_rate(32768, 32768, 768, 61440);
        assert!(large > 2.0 * small);
    }

    #[test]
    fn rates_never_exceed_peak() {
        let v = GcdModel::v100();
        let m = GcdModel::mi250x_gcd();
        for &dev in &[v, m] {
            for &k in &[256usize, 768, 1024, 3072] {
                for &s in &[1024usize, 8192, 61440] {
                    assert!(dev.gemm_mixed_rate(s, s, k, s) <= dev.fp16_peak);
                    assert!(dev.getrf_rate(k) <= dev.fp32_peak);
                    assert!(dev.trsm_rate(k, s) <= dev.fp32_peak);
                }
            }
        }
    }

    #[test]
    fn lda_cliff_matches_fig7() {
        let m = GcdModel::mi250x_gcd();
        // The paper's exact comparison: N_L = 119808 outperforms 122880.
        let good = m.gemm_mixed_rate(16384, 16384, 3072, 119808);
        let bad = m.gemm_mixed_rate(16384, 16384, 3072, 122880);
        assert!(good > 1.3 * bad, "good {good} vs bad {bad}");
        // No such cliff on the NVIDIA stack.
        let v = GcdModel::v100();
        assert_eq!(
            v.gemm_mixed_rate(16384, 16384, 768, 122880),
            v.gemm_mixed_rate(16384, 16384, 768, 122881)
        );
    }

    #[test]
    fn rocblas_quantization_stripes() {
        let m = GcdModel::mi250x_gcd();
        let aligned = m.gemm_mixed_rate(8192, 8192, 3072, 119808);
        let misaligned_k = m.gemm_mixed_rate(8192, 8192, 3072 - 64, 119808);
        // The penalty overwhelms the tiny k decrease.
        assert!(aligned > 1.1 * misaligned_k);
    }

    #[test]
    fn rocsolver_getrf_is_slow_finding3() {
        let v = GcdModel::v100();
        let m = GcdModel::mi250x_gcd();
        // Despite higher fp32 peak, the MI250X GETRF rate at its own optimal
        // B=3072 is below the V100's at B=768 relative to peak.
        let v_rel = v.getrf_rate(768) / v.fp32_peak;
        let m_rel = m.getrf_rate(3072) / m.fp32_peak;
        assert!(m_rel < v_rel);
    }

    #[test]
    fn getrf_below_5pct_of_gemm_at_chosen_b() {
        // §V-C tuning rule: "limit the runtime of GETRF to less than 5% of
        // the GEMM" at the paper's chosen B values, full local matrix.
        let v = GcdModel::v100();
        let nl = 61440;
        let ratio = v.getrf_time(768) / v.gemm_mixed_time(nl, nl, 768, nl);
        assert!(ratio < 0.05, "V100 ratio {ratio}");
        let m = GcdModel::mi250x_gcd();
        let nl = 119808;
        let ratio = m.getrf_time(3072) / m.gemm_mixed_time(nl, nl, 3072, nl);
        assert!(ratio < 0.05, "MI250X ratio {ratio}");
    }

    #[test]
    fn memory_capacity_matches_section5a() {
        let v = GcdModel::v100();
        // N_L = 61440 is ~14 GB of fp32 and fits on the 16 GB V100 with
        // panel buffers at B = 768.
        assert!(v.fits_local_matrix(61440, 768));
        assert!(!v.fits_local_matrix(65536, 768));
        let m = GcdModel::mi250x_gcd();
        // N_L = 119808 (~53 GB) fits the 64 GB GCD at B = 3072.
        assert!(m.fits_local_matrix(119808, 3072));
        assert!(m.fits_local_matrix(122880, 3072));
        assert!(!m.fits_local_matrix(131072, 3072));
    }

    #[test]
    fn cast_time_is_memory_bound() {
        let v = GcdModel::v100();
        let t = v.cast_time(61440 * 768);
        // 6 bytes/element over 900 GB/s.
        let expect = 8e-6 + 6.0 * (61440.0 * 768.0) / 900e9;
        assert!((t - expect).abs() < 1e-12);
    }

    #[test]
    fn heatmap_shape_and_saturation() {
        let dev = GcdModel::mi250x_gcd();
        let mns = [2048usize, 8192, 32768];
        let ks = [512usize, 1024, 3072];
        let hm = gemm_heatmap(&dev, &mns, &ks, 119808);
        assert_eq!(hm.len(), 3);
        assert!(hm.iter().all(|row| row.len() == 3));
        // Rates rise along both axes (Fig. 3's overall gradient).
        for row in &hm {
            assert!(row[2] > row[0]);
        }
        for (hi, lo) in hm[2].iter().zip(&hm[0]) {
            assert!(hi > lo);
        }
    }

    #[test]
    fn kernel_curves_match_fig5_shape() {
        let dev = GcdModel::v100();
        let curves = kernel_curves(&dev, 61440, 768, 10);
        assert!(!curves.is_empty());
        // Trailing sizes decrease along the run; GEMM rate decreases with
        // them; GETRF is constant in the trailing size.
        for w in curves.windows(2) {
            assert!(w[0].trailing > w[1].trailing);
            assert!(w[0].gemm >= w[1].gemm);
            assert_eq!(w[0].getrf, w[1].getrf);
        }
    }

    #[test]
    fn degenerate_sizes() {
        let v = GcdModel::v100();
        assert_eq!(v.getrf_time(0), 0.0);
        assert_eq!(v.trsm_time(0, 100), 0.0);
        assert_eq!(v.trsm_time(100, 0), 0.0);
        assert!(v.gemm_mixed_time(0, 5, 5, 10) == v.launch_overhead);
    }
}
