//! Runtime-dispatched SIMD bulk conversions between reduced formats and f32.
//!
//! The mixed-precision GEMM widens FP16/BF16 panels to f32 while packing and
//! the CAST phases narrow f32 factors back down; both used to be scalar
//! per-element loops. This module provides bulk `widen`/`narrow` slice
//! operations that dispatch once (cached in a [`OnceLock`]) to the best
//! instruction set the host offers:
//!
//! * **AVX2 + F16C** — 8-lane `VCVTPH2PS`/`VCVTPS2PH` for FP16, 8-lane
//!   integer shift/round for BF16.
//! * **AVX-512F** — 16-lane variants of the same.
//! * **scalar** — the existing software converters, also the portable
//!   fallback and the `HPLAI_KERNEL=portable` forced path.
//!
//! Every SIMD path is **bitwise identical** to the scalar software
//! conversion, including NaN quieting/payload propagation, RNE ties,
//! subnormal flushes and signed zeros; the test suite pins this exhaustively
//! over all 65536 binary16 patterns and structured f32 classes. That makes
//! the dispatch invisible to the rest of the system: forcing a path with
//! `HPLAI_KERNEL` changes speed, never bits.
//!
//! The [`Isa`] enum is also the single source of truth for the GEMM
//! micro-kernel dispatch in `mxp-blas` — one detected/forced level drives
//! both the converters here and the register-tile kernels there.

use crate::{B16, F16};
use std::sync::OnceLock;

/// An instruction-set level the runtime can dispatch kernels to.
///
/// `Portable` is always available; the others are offered only when the host
/// supports every feature the corresponding kernels use. The active level is
/// detected once per process (or forced via `HPLAI_KERNEL`).
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Isa {
    /// Architecture-independent Rust (autovectorized scalar loops).
    Portable,
    /// x86-64 AVX2 + FMA (+ F16C for the FP16 converters when present).
    Avx2,
    /// x86-64 AVX-512F.
    Avx512,
    /// AArch64 Advanced SIMD.
    Neon,
}

impl Isa {
    /// Stable lower-case name, also the accepted `HPLAI_KERNEL` spelling.
    pub fn name(self) -> &'static str {
        match self {
            Isa::Portable => "portable",
            Isa::Avx2 => "avx2",
            Isa::Avx512 => "avx512",
            Isa::Neon => "neon",
        }
    }

    /// Parses an `HPLAI_KERNEL` spelling. Case-insensitive; `None` for
    /// anything that is not a known level.
    pub fn parse(s: &str) -> Option<Self> {
        match s.to_ascii_lowercase().as_str() {
            "portable" | "scalar" => Some(Isa::Portable),
            "avx2" => Some(Isa::Avx2),
            "avx512" => Some(Isa::Avx512),
            "neon" => Some(Isa::Neon),
            _ => None,
        }
    }
}

impl std::fmt::Display for Isa {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

#[cfg(target_arch = "x86_64")]
fn detect() -> Isa {
    if std::arch::is_x86_feature_detected!("avx512f") {
        Isa::Avx512
    } else if std::arch::is_x86_feature_detected!("avx2")
        && std::arch::is_x86_feature_detected!("fma")
    {
        Isa::Avx2
    } else {
        Isa::Portable
    }
}

#[cfg(target_arch = "aarch64")]
fn detect() -> Isa {
    if std::arch::is_aarch64_feature_detected!("neon") {
        Isa::Neon
    } else {
        Isa::Portable
    }
}

#[cfg(not(any(target_arch = "x86_64", target_arch = "aarch64")))]
fn detect() -> Isa {
    Isa::Portable
}

/// The best ISA level this host supports, detected once per process.
pub fn detected_isa() -> Isa {
    static DETECTED: OnceLock<Isa> = OnceLock::new();
    *DETECTED.get_or_init(detect)
}

/// `true` if kernels compiled for `isa` may run on this host.
pub fn isa_supported(isa: Isa) -> bool {
    match isa {
        Isa::Portable => true,
        Isa::Avx2 => matches!(detected_isa(), Isa::Avx2 | Isa::Avx512),
        Isa::Avx512 => detected_isa() == Isa::Avx512,
        Isa::Neon => detected_isa() == Isa::Neon,
    }
}

/// Every ISA level usable on this host, `Portable` first.
pub fn supported_isas() -> Vec<Isa> {
    [Isa::Portable, Isa::Avx2, Isa::Avx512, Isa::Neon]
        .into_iter()
        .filter(|&i| isa_supported(i))
        .collect()
}

/// The `HPLAI_KERNEL` override, read and validated once per process.
///
/// `None` when the variable is unset or empty. Panics (once, at first
/// dispatch) on an unknown spelling or a level the host cannot run — a
/// forced kernel that silently fell back would defeat the CI matrix legs
/// that exist to pin each path.
pub fn forced_isa() -> Option<Isa> {
    static FORCED: OnceLock<Option<Isa>> = OnceLock::new();
    *FORCED.get_or_init(|| {
        let raw = std::env::var("HPLAI_KERNEL").ok()?;
        let spelling = raw.trim();
        if spelling.is_empty() {
            return None;
        }
        let isa = Isa::parse(spelling).unwrap_or_else(|| {
            panic!("HPLAI_KERNEL={spelling:?}: expected portable|avx2|avx512|neon")
        });
        assert!(
            isa_supported(isa),
            "HPLAI_KERNEL={} requested but this host only supports {}",
            isa.name(),
            detected_isa().name(),
        );
        Some(isa)
    })
}

/// The ISA level conversions and micro-kernels dispatch to: the
/// `HPLAI_KERNEL` override if set, otherwise the detected best.
pub fn active_isa() -> Isa {
    forced_isa().unwrap_or_else(detected_isa)
}

/// `true` when the 8-lane F16C converters may be used (they need AVX +
/// F16C, which AVX2 does not formally imply).
#[cfg(target_arch = "x86_64")]
fn f16c_available() -> bool {
    static F16C: OnceLock<bool> = OnceLock::new();
    *F16C.get_or_init(|| {
        std::arch::is_x86_feature_detected!("f16c") && std::arch::is_x86_feature_detected!("avx")
    })
}

// ---------------------------------------------------------------------------
// FP16 <-> f32
// ---------------------------------------------------------------------------

/// Widens `src[i]` into `dst[i]` (exact for every binary16 value), using the
/// active ISA level. Panics if the lengths differ.
pub fn widen_f16_slice(src: &[F16], dst: &mut [f32]) {
    widen_f16_slice_with(active_isa(), src, dst);
}

/// [`widen_f16_slice`] with an explicit ISA level — the entry point the
/// differential tests use to exercise every path in one process. Falls back
/// to scalar when the requested level has no FP16 converter (e.g. `Avx2`
/// without F16C, or `Neon`), which is bitwise indistinguishable.
pub fn widen_f16_slice_with(isa: Isa, src: &[F16], dst: &mut [f32]) {
    assert_eq!(src.len(), dst.len(), "widen_f16: length mismatch");
    match isa {
        #[cfg(target_arch = "x86_64")]
        Isa::Avx2 if f16c_available() => unsafe { x86::widen_f16_f16c(src, dst) },
        #[cfg(target_arch = "x86_64")]
        Isa::Avx512 => unsafe { x86::widen_f16_avx512(src, dst) },
        _ => {
            for (d, s) in dst.iter_mut().zip(src) {
                *d = s.to_f32();
            }
        }
    }
}

/// Narrows `src[i]` into `dst[i]` with round-to-nearest-even, bitwise equal
/// to `F16::from_f32`, using the active ISA level.
pub fn narrow_f16_slice(src: &[f32], dst: &mut [F16]) {
    narrow_f16_slice_with(active_isa(), src, dst);
}

/// [`narrow_f16_slice`] with an explicit ISA level (see
/// [`widen_f16_slice_with`]).
pub fn narrow_f16_slice_with(isa: Isa, src: &[f32], dst: &mut [F16]) {
    assert_eq!(src.len(), dst.len(), "narrow_f16: length mismatch");
    match isa {
        #[cfg(target_arch = "x86_64")]
        Isa::Avx2 if f16c_available() => unsafe { x86::narrow_f16_f16c(src, dst) },
        #[cfg(target_arch = "x86_64")]
        Isa::Avx512 => unsafe { x86::narrow_f16_avx512(src, dst) },
        _ => {
            for (d, &s) in dst.iter_mut().zip(src) {
                *d = F16::from_f32(s);
            }
        }
    }
}

// ---------------------------------------------------------------------------
// BF16 <-> f32
// ---------------------------------------------------------------------------

/// Widens `src[i]` into `dst[i]` (a 16-bit left shift of the bit pattern),
/// using the active ISA level.
pub fn widen_b16_slice(src: &[B16], dst: &mut [f32]) {
    widen_b16_slice_with(active_isa(), src, dst);
}

/// [`widen_b16_slice`] with an explicit ISA level (see
/// [`widen_f16_slice_with`]).
pub fn widen_b16_slice_with(isa: Isa, src: &[B16], dst: &mut [f32]) {
    assert_eq!(src.len(), dst.len(), "widen_b16: length mismatch");
    match isa {
        #[cfg(target_arch = "x86_64")]
        Isa::Avx2 => unsafe { x86::widen_b16_avx2(src, dst) },
        #[cfg(target_arch = "x86_64")]
        Isa::Avx512 => unsafe { x86::widen_b16_avx512(src, dst) },
        _ => {
            for (d, s) in dst.iter_mut().zip(src) {
                *d = s.to_f32();
            }
        }
    }
}

/// Narrows `src[i]` into `dst[i]` with round-to-nearest-even, bitwise equal
/// to `B16::from_f32`, using the active ISA level.
pub fn narrow_b16_slice(src: &[f32], dst: &mut [B16]) {
    narrow_b16_slice_with(active_isa(), src, dst);
}

/// [`narrow_b16_slice`] with an explicit ISA level (see
/// [`widen_f16_slice_with`]).
pub fn narrow_b16_slice_with(isa: Isa, src: &[f32], dst: &mut [B16]) {
    assert_eq!(src.len(), dst.len(), "narrow_b16: length mismatch");
    match isa {
        #[cfg(target_arch = "x86_64")]
        Isa::Avx2 | Isa::Avx512 => unsafe { x86::narrow_b16_avx2(src, dst) },
        _ => {
            for (d, &s) in dst.iter_mut().zip(src) {
                *d = B16::from_f32(s);
            }
        }
    }
}

#[cfg(target_arch = "x86_64")]
mod x86 {
    //! x86-64 conversion bodies. Each function is compiled with the features
    //! it needs via `#[target_feature]` and is only reachable through the
    //! dispatch above, which has verified those features at runtime — that
    //! runtime check is the safety argument for every call site here.
    //!
    //! All loads and stores are unaligned (`loadu`/`storeu`): callers hand
    //! in arbitrary slices. The AVX-512 bodies convert a tail shorter than
    //! one vector in one more vector step: the f32 side is read or written
    //! under a lane mask, the 16-bit side goes through a zero-padded
    //! 16-lane stack buffer (masked 16-bit moves would need AVX-512BW).
    //! The GEMM's B-pack widens 8-wide rows, all tail. The 8-lane bodies
    //! finish their tails with the scalar converter, which every SIMD body
    //! matches bit for bit.

    use crate::{B16, F16};
    use core::arch::x86_64::*;

    /// Rounding immediate for `VCVTPS2PH`: static round-to-nearest-even
    /// (MXCSR ignored), matching the software converter exactly.
    const RNE: i32 = _MM_FROUND_TO_NEAREST_INT;

    /// # Safety
    /// Caller must have verified AVX and F16C support.
    #[target_feature(enable = "avx,f16c")]
    pub(super) unsafe fn widen_f16_f16c(src: &[F16], dst: &mut [f32]) {
        let n = src.len();
        // SAFETY: F16 is repr(transparent) over u16.
        let sp = src.as_ptr() as *const u16;
        let dp = dst.as_mut_ptr();
        let mut i = 0;
        while i + 8 <= n {
            // SAFETY: i+8 <= n keeps both the 8-lane load and store in
            // bounds of the equal-length slices.
            let h = _mm_loadu_si128(sp.add(i) as *const __m128i);
            _mm256_storeu_ps(dp.add(i), _mm256_cvtph_ps(h));
            i += 8;
        }
        for j in i..n {
            dst[j] = src[j].to_f32();
        }
    }

    /// Lane mask selecting the first `rest` (< 16) lanes.
    fn tail_mask(rest: usize) -> __mmask16 {
        debug_assert!(rest < 16);
        (1u16 << rest) - 1
    }

    /// The `rest` (< 16) 16-bit values at `p`, zero-padded to 16 lanes.
    ///
    /// # Safety
    /// `p` must be valid for reading `rest` values.
    #[target_feature(enable = "avx512f")]
    unsafe fn load_u16_tail(p: *const u16, rest: usize) -> __m256i {
        let mut buf = [0u16; 16];
        // SAFETY: the caller's bound on `p`; `rest` < 16 fits the buffer.
        core::ptr::copy_nonoverlapping(p, buf.as_mut_ptr(), rest);
        _mm256_loadu_si256(buf.as_ptr() as *const __m256i)
    }

    /// # Safety
    /// Caller must have verified AVX-512F support.
    #[target_feature(enable = "avx512f")]
    pub(super) unsafe fn widen_f16_avx512(src: &[F16], dst: &mut [f32]) {
        let n = src.len();
        let sp = src.as_ptr() as *const u16;
        let dp = dst.as_mut_ptr();
        let mut i = 0;
        while i + 16 <= n {
            // SAFETY: 16-lane load/store guarded by i+16 <= n.
            let h = _mm256_loadu_si256(sp.add(i) as *const __m256i);
            _mm512_storeu_ps(dp.add(i), _mm512_cvtph_ps(h));
            i += 16;
        }
        if i < n {
            // SAFETY: n - i < 16 values remain in both slices; the masked
            // store writes only those lanes.
            let h = load_u16_tail(sp.add(i), n - i);
            _mm512_mask_storeu_ps(dp.add(i), tail_mask(n - i), _mm512_cvtph_ps(h));
        }
    }

    /// # Safety
    /// Caller must have verified AVX and F16C support.
    #[target_feature(enable = "avx,f16c")]
    pub(super) unsafe fn narrow_f16_f16c(src: &[f32], dst: &mut [F16]) {
        let n = src.len();
        let sp = src.as_ptr();
        let dp = dst.as_mut_ptr() as *mut u16;
        let mut i = 0;
        while i + 8 <= n {
            // SAFETY: 8-lane load/store guarded by i+8 <= n.
            let v = _mm256_loadu_ps(sp.add(i));
            _mm_storeu_si128(dp.add(i) as *mut __m128i, _mm256_cvtps_ph::<RNE>(v));
            i += 8;
        }
        for j in i..n {
            dst[j] = F16::from_f32(src[j]);
        }
    }

    /// # Safety
    /// Caller must have verified AVX-512F support.
    #[target_feature(enable = "avx512f")]
    pub(super) unsafe fn narrow_f16_avx512(src: &[f32], dst: &mut [F16]) {
        let n = src.len();
        let sp = src.as_ptr();
        let dp = dst.as_mut_ptr() as *mut u16;
        let mut i = 0;
        while i + 16 <= n {
            // SAFETY: 16-lane load/store guarded by i+16 <= n.
            let v = _mm512_loadu_ps(sp.add(i));
            _mm256_storeu_si256(dp.add(i) as *mut __m256i, _mm512_cvtps_ph::<RNE>(v));
            i += 16;
        }
        if i < n {
            // SAFETY: n - i < 16 values remain in both slices; the masked
            // load reads only those lanes and the copy writes only them.
            let v = _mm512_maskz_loadu_ps(tail_mask(n - i), sp.add(i));
            let mut buf = [0u16; 16];
            _mm256_storeu_si256(buf.as_mut_ptr() as *mut __m256i, _mm512_cvtps_ph::<RNE>(v));
            core::ptr::copy_nonoverlapping(buf.as_ptr(), dp.add(i), n - i);
        }
    }

    /// # Safety
    /// Caller must have verified AVX2 support.
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn widen_b16_avx2(src: &[B16], dst: &mut [f32]) {
        let n = src.len();
        let sp = src.as_ptr() as *const u16;
        let dp = dst.as_mut_ptr();
        let mut i = 0;
        while i + 8 <= n {
            // SAFETY: 8-lane load/store guarded by i+8 <= n. Widening is a
            // pure bit shift: bf16 bits become the high half of the f32.
            let h = _mm_loadu_si128(sp.add(i) as *const __m128i);
            let w = _mm256_slli_epi32::<16>(_mm256_cvtepu16_epi32(h));
            _mm256_storeu_ps(dp.add(i), _mm256_castsi256_ps(w));
            i += 8;
        }
        for j in i..n {
            dst[j] = src[j].to_f32();
        }
    }

    /// # Safety
    /// Caller must have verified AVX-512F support.
    #[target_feature(enable = "avx512f")]
    pub(super) unsafe fn widen_b16_avx512(src: &[B16], dst: &mut [f32]) {
        let n = src.len();
        let sp = src.as_ptr() as *const u16;
        let dp = dst.as_mut_ptr();
        let mut i = 0;
        while i + 16 <= n {
            // SAFETY: 16-lane load/store guarded by i+16 <= n.
            let h = _mm256_loadu_si256(sp.add(i) as *const __m256i);
            let w = _mm512_slli_epi32::<16>(_mm512_cvtepu16_epi32(h));
            _mm512_storeu_ps(dp.add(i), _mm512_castsi512_ps(w));
            i += 16;
        }
        if i < n {
            // SAFETY: as in `widen_f16_avx512`'s tail.
            let h = load_u16_tail(sp.add(i), n - i);
            let w = _mm512_slli_epi32::<16>(_mm512_cvtepu16_epi32(h));
            _mm512_mask_storeu_ps(dp.add(i), tail_mask(n - i), _mm512_castsi512_ps(w));
        }
    }

    /// # Safety
    /// Caller must have verified AVX2 support (used for the AVX-512 level
    /// too — AVX-512F implies AVX2).
    #[target_feature(enable = "avx2,sse4.1")]
    pub(super) unsafe fn narrow_b16_avx2(src: &[f32], dst: &mut [B16]) {
        let n = src.len();
        let sp = src.as_ptr();
        let dp = dst.as_mut_ptr() as *mut u16;
        let abs_mask = _mm256_set1_epi32(0x7fff_ffff);
        let exp_all = _mm256_set1_epi32(0x7f80_0000);
        let bias = _mm256_set1_epi32(0x7fff);
        let one = _mm256_set1_epi32(1);
        let quiet = _mm256_set1_epi32(0x0040);
        let mut i = 0;
        while i + 8 <= n {
            // SAFETY: 8-lane load and 8×u16 store guarded by i+8 <= n.
            let bits = _mm256_castps_si256(_mm256_loadu_ps(sp.add(i)));
            // NaN iff the absolute bits exceed the all-ones exponent; both
            // sides are positive as i32, so a signed compare is exact.
            let is_nan = _mm256_cmpgt_epi32(_mm256_and_si256(bits, abs_mask), exp_all);
            // Round-to-nearest-even on the low 16 bits: add 0x7fff plus the
            // LSB of the kept half, then truncate — the same integer
            // identity `B16::from_f32` applies (no i32 overflow: non-NaN
            // bits are at most 0xff80_0000 + 0x8000).
            let lsb = _mm256_and_si256(_mm256_srli_epi32::<16>(bits), one);
            let rounded = _mm256_add_epi32(_mm256_add_epi32(bits, bias), lsb);
            let kept = _mm256_srli_epi32::<16>(rounded);
            // NaN keeps its truncated payload with the quiet bit forced,
            // exactly like the scalar converter.
            let nan_kept = _mm256_or_si256(_mm256_srli_epi32::<16>(bits), quiet);
            let sel = _mm256_blendv_epi8(kept, nan_kept, is_nan);
            // Every lane fits in 16 bits, so the signed-saturating pack to
            // u16 is value-preserving.
            let lo = _mm256_castsi256_si128(sel);
            let hi = _mm256_extracti128_si256::<1>(sel);
            _mm_storeu_si128(dp.add(i) as *mut __m128i, _mm_packus_epi32(lo, hi));
            i += 8;
        }
        for j in i..n {
            dst[j] = B16::from_f32(src[j]);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Deterministic xorshift for structured-random f32 bit patterns.
    fn xorshift(state: &mut u64) -> u64 {
        let mut x = *state;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        *state = x;
        x
    }

    #[test]
    fn isa_parse_and_name_roundtrip() {
        for isa in [Isa::Portable, Isa::Avx2, Isa::Avx512, Isa::Neon] {
            assert_eq!(Isa::parse(isa.name()), Some(isa));
            assert_eq!(Isa::parse(&isa.name().to_uppercase()), Some(isa));
        }
        assert_eq!(Isa::parse("sse9"), None);
        assert_eq!(Isa::parse(""), None);
    }

    #[test]
    fn supported_isas_starts_portable_and_contains_detected() {
        let isas = supported_isas();
        assert_eq!(isas[0], Isa::Portable);
        assert!(isas.contains(&detected_isa()));
    }

    #[test]
    fn widen_f16_exhaustive_all_isas() {
        // Every one of the 65536 binary16 patterns, on every ISA level the
        // host has, must widen to the identical f32 bit pattern the
        // software converter produces.
        let src: Vec<F16> = (0..=u16::MAX).map(F16).collect();
        let reference: Vec<u32> = src.iter().map(|h| h.to_f32().to_bits()).collect();
        for isa in supported_isas() {
            let mut dst = vec![0.0f32; src.len()];
            widen_f16_slice_with(isa, &src, &mut dst);
            for (i, (d, r)) in dst.iter().zip(&reference).enumerate() {
                assert_eq!(
                    d.to_bits(),
                    *r,
                    "isa {} widen_f16 mismatch at pattern {i:#06x}",
                    isa.name()
                );
            }
        }
    }

    #[test]
    fn widen_b16_exhaustive_all_isas() {
        let src: Vec<B16> = (0..=u16::MAX).map(B16).collect();
        let reference: Vec<u32> = src.iter().map(|h| h.to_f32().to_bits()).collect();
        for isa in supported_isas() {
            let mut dst = vec![0.0f32; src.len()];
            widen_b16_slice_with(isa, &src, &mut dst);
            for (i, (d, r)) in dst.iter().zip(&reference).enumerate() {
                assert_eq!(
                    d.to_bits(),
                    *r,
                    "isa {} widen_b16 mismatch at pattern {i:#06x}",
                    isa.name()
                );
            }
        }
    }

    /// f32 inputs covering every conversion class: all binary16 values (the
    /// exact cases), halfway ties in both directions, subnormal flushes,
    /// overflow, infinities, NaNs with payloads, signed zeros, and a dense
    /// band of structured-random patterns.
    fn narrow_inputs() -> Vec<f32> {
        let mut v: Vec<f32> = (0..=u16::MAX).map(|b| F16(b).to_f32()).collect();
        v.extend([
            0.0,
            -0.0,
            f32::INFINITY,
            f32::NEG_INFINITY,
            f32::NAN,
            -f32::NAN,
            f32::from_bits(0x7f80_0001), // signalling NaN, tiny payload
            f32::from_bits(0xffc5_4321), // quiet NaN, payload
            f32::from_bits(0x0000_0001), // smallest f32 subnormal
            f32::from_bits(0x8000_0001),
            f32::from_bits(0x007f_ffff), // largest f32 subnormal
            f32::MAX,
            f32::MIN,
            65504.0,  // f16 max
            65520.0,  // rounds to f16 inf
            65519.99, // rounds to f16 max
            1.0 + 2.0f32.powi(-11),
            1.0 + 2.0f32.powi(-12), // tie, rounds to even
            1.0 + 3.0 * 2.0f32.powi(-12),
        ]);
        let mut s = 0x9e3779b97f4a7c15u64;
        for _ in 0..100_000 {
            v.push(f32::from_bits(xorshift(&mut s) as u32));
        }
        v
    }

    #[test]
    fn narrow_f16_structured_all_isas() {
        let src = narrow_inputs();
        let reference: Vec<u16> = src.iter().map(|&x| F16::from_f32(x).0).collect();
        for isa in supported_isas() {
            let mut dst = vec![F16(0); src.len()];
            narrow_f16_slice_with(isa, &src, &mut dst);
            for (i, (d, r)) in dst.iter().zip(&reference).enumerate() {
                assert_eq!(
                    d.0,
                    *r,
                    "isa {} narrow_f16 mismatch for input {:#010x}",
                    isa.name(),
                    src[i].to_bits()
                );
            }
        }
    }

    #[test]
    fn narrow_b16_structured_all_isas() {
        let src = narrow_inputs();
        let reference: Vec<u16> = src.iter().map(|&x| B16::from_f32(x).0).collect();
        for isa in supported_isas() {
            let mut dst = vec![B16(0); src.len()];
            narrow_b16_slice_with(isa, &src, &mut dst);
            for (i, (d, r)) in dst.iter().zip(&reference).enumerate() {
                assert_eq!(
                    d.0,
                    *r,
                    "isa {} narrow_b16 mismatch for input {:#010x}",
                    isa.name(),
                    src[i].to_bits()
                );
            }
        }
    }

    #[test]
    fn odd_lengths_and_offsets_hit_tails() {
        // Slices that are not a multiple of the vector width, at offsets
        // that misalign the base pointer, must still match scalar — the
        // tail loop and the unaligned loads both get exercised.
        let mut s = 0x0123_4567_89ab_cdefu64;
        let vals: Vec<f32> = (0..97)
            .map(|_| (xorshift(&mut s) as i32 as f32) * 1.5e-5)
            .collect();
        for isa in supported_isas() {
            for off in 0..4 {
                for len in [0, 1, 7, 8, 9, 15, 16, 17, 31] {
                    if off + len > vals.len() {
                        continue;
                    }
                    let src = &vals[off..off + len];
                    let mut n16 = vec![F16(0); len];
                    narrow_f16_slice_with(isa, src, &mut n16);
                    for (i, h) in n16.iter().enumerate() {
                        assert_eq!(h.0, F16::from_f32(src[i]).0);
                    }
                    let mut back = vec![0.0f32; len];
                    widen_f16_slice_with(isa, &n16, &mut back);
                    for (i, w) in back.iter().enumerate() {
                        assert_eq!(w.to_bits(), n16[i].to_f32().to_bits());
                    }
                }
            }
        }
    }

    #[test]
    fn tails_match_scalar_with_special_values() {
        // Every tail length after zero or one full vector, over ±0,
        // subnormals, ±Inf, NaNs with payloads and rounding ties; lanes
        // past the slice end must stay untouched.
        let f16_bits = [
            0x0000u16, 0x8000, 0x0001, 0x8001, 0x03ff, 0x83ff, 0x0400, 0x3c00, 0xbc01, 0x7bff,
            0x7c00, 0xfc00, 0x7e00, 0x7c01, 0xfe01, 0x7fff,
        ];
        let b16_bits = [
            0x0000u16, 0x8000, 0x0001, 0x8001, 0x007f, 0x0080, 0x3f80, 0xbf81, 0x7f7f, 0x7f80,
            0xff80, 0x7fc0, 0x7f81, 0xffc1, 0x7fff, 0x1234,
        ];
        let f32_vals = [
            0.0f32,
            -0.0,
            f32::from_bits(0x0000_0001),
            f32::from_bits(0x8000_0001),
            2.0f32.powi(-24), // smallest f16 subnormal
            -3.0 * 2.0f32.powi(-26),
            2.0f32.powi(-14) * (1.0 - 2.0f32.powi(-11)), // f16 subnormal tie
            1.0 + 2.0f32.powi(-12),                      // f16 tie, to even
            f32::from_bits(0x3f80_8000),                 // b16 tie, to even
            65520.0,
            f32::INFINITY,
            f32::NEG_INFINITY,
            f32::NAN,
            f32::from_bits(0x7f80_0001),
            f32::from_bits(0xffc5_4321),
            f32::MAX,
        ];
        const SENTINEL: u16 = 0xa5a5;
        for isa in supported_isas() {
            for len in 1..=31usize {
                let pick = |i: usize| (i * 7 + len) % 16;
                let h16: Vec<F16> = (0..len).map(|i| F16(f16_bits[pick(i)])).collect();
                let b16: Vec<B16> = (0..len).map(|i| B16(b16_bits[pick(i)])).collect();
                let x32: Vec<f32> = (0..len).map(|i| f32_vals[pick(i)]).collect();

                let mut w = vec![f32::from_bits(0xdead_beef); len + 16];
                widen_f16_slice_with(isa, &h16, &mut w[..len]);
                for (i, h) in h16.iter().enumerate() {
                    assert_eq!(w[i].to_bits(), h.to_f32().to_bits(), "isa {isa} len {len}");
                }
                assert!(w[len..].iter().all(|x| x.to_bits() == 0xdead_beef));

                widen_b16_slice_with(isa, &b16, &mut w[..len]);
                for (i, h) in b16.iter().enumerate() {
                    assert_eq!(w[i].to_bits(), h.to_f32().to_bits(), "isa {isa} len {len}");
                }
                assert!(w[len..].iter().all(|x| x.to_bits() == 0xdead_beef));

                let mut n16 = vec![F16(SENTINEL); len + 16];
                narrow_f16_slice_with(isa, &x32, &mut n16[..len]);
                for (i, &x) in x32.iter().enumerate() {
                    assert_eq!(n16[i].0, F16::from_f32(x).0, "isa {isa} len {len}");
                }
                assert!(n16[len..].iter().all(|h| h.0 == SENTINEL));

                let mut nb = vec![B16(SENTINEL); len + 16];
                narrow_b16_slice_with(isa, &x32, &mut nb[..len]);
                for (i, &x) in x32.iter().enumerate() {
                    assert_eq!(nb[i].0, B16::from_f32(x).0, "isa {isa} len {len}");
                }
                assert!(nb[len..].iter().all(|h| h.0 == SENTINEL));
            }
        }
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn length_mismatch_panics() {
        let src = [F16(0); 3];
        let mut dst = [0.0f32; 2];
        widen_f16_slice(&src, &mut dst);
    }
}
