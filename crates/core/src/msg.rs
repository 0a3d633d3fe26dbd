//! The message vocabulary of the distributed benchmark, and the
//! reduced-precision panel container.
//!
//! The paper's runs store panels in IEEE binary16, but HPL-MxP submission
//! rules permit any reduced format — and the paper's conclusion calls for
//! exploring how the mixed-precision recipe generalizes. [`TrailingPrecision`]
//! selects the storage format of the `L`/`U` panels (and therefore of the
//! trailing GEMM inputs); everything else in the pipeline is unchanged.

use mxp_blas::{cast_f32_to_low, gemm_mixed, trans_cast_f32_to_low, LowPrec, Trans};
use mxp_precision::{B16, F16};

/// Storage format of the broadcast panels / trailing GEMM inputs.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TrailingPrecision {
    /// IEEE binary16 — the paper's configuration.
    Fp16,
    /// bfloat16 — same byte cost, 3 fewer significand bits, f32 range.
    Bf16,
    /// FP32 — the "no precision loss" control (no tensor-core speedup,
    /// double the panel traffic).
    Fp32,
}

impl TrailingPrecision {
    /// Bytes per stored panel element.
    pub fn bytes_per_elem(&self) -> u64 {
        match self {
            TrailingPrecision::Fp16 | TrailingPrecision::Bf16 => 2,
            TrailingPrecision::Fp32 => 4,
        }
    }

    /// Short tag for reports.
    pub fn tag(&self) -> &'static str {
        match self {
            TrailingPrecision::Fp16 => "fp16",
            TrailingPrecision::Bf16 => "bf16",
            TrailingPrecision::Fp32 => "fp32",
        }
    }

    /// Unit roundoff of the format (drives expected IR sweep counts).
    pub fn unit_roundoff(&self) -> f64 {
        match self {
            TrailingPrecision::Fp16 => mxp_precision::F16_EPS,
            TrailingPrecision::Bf16 => mxp_precision::B16_EPS,
            TrailingPrecision::Fp32 => f32::EPSILON as f64 / 2.0,
        }
    }
}

/// A tightly packed broadcast panel: HPL-MxP's reduced-precision CAST /
/// TRANS_CAST output, or HPL's FP64 panel. All variants hold column-major data with an implicit
/// tight leading dimension supplied at the GEMM call.
#[derive(Clone, Debug, PartialEq)]
pub enum PanelData {
    /// binary16 payload.
    F16(Vec<F16>),
    /// bfloat16 payload.
    B16(Vec<B16>),
    /// FP32 payload.
    F32(Vec<f32>),
    /// FP64 payload: HPL's `L21` and `U12` panels (`U12` untransposed).
    F64(Vec<f64>),
}

impl PanelData {
    /// CAST: packs an `m × n` f32 tile (stride `lda`) into this format.
    pub fn cast(prec: TrailingPrecision, m: usize, n: usize, src: &[f32], lda: usize) -> Self {
        Self::pack(prec, false, m, n, src, lda)
    }

    /// TRANS_CAST: packs the transpose of an `m × n` f32 tile into this
    /// format (`n × m` output).
    pub fn trans_cast(
        prec: TrailingPrecision,
        m: usize,
        n: usize,
        src: &[f32],
        lda: usize,
    ) -> Self {
        Self::pack(prec, true, m, n, src, lda)
    }

    /// CAST (or TRANS_CAST when `trans`) into a fresh panel in `prec`.
    fn pack(
        prec: TrailingPrecision,
        trans: bool,
        m: usize,
        n: usize,
        src: &[f32],
        lda: usize,
    ) -> Self {
        fn packed<L: LowPrec>(
            zero: L,
            trans: bool,
            m: usize,
            n: usize,
            src: &[f32],
            lda: usize,
        ) -> Vec<L> {
            let mut d = vec![zero; m * n];
            if trans {
                trans_cast_f32_to_low(m, n, src, lda, &mut d);
            } else {
                cast_f32_to_low(m, n, src, lda, &mut d);
            }
            d
        }
        match prec {
            TrailingPrecision::Fp16 => PanelData::F16(packed(F16::ZERO, trans, m, n, src, lda)),
            TrailingPrecision::Bf16 => PanelData::B16(packed(B16::ZERO, trans, m, n, src, lda)),
            TrailingPrecision::Fp32 => PanelData::F32(packed(0.0, trans, m, n, src, lda)),
        }
    }

    /// Number of stored elements.
    pub fn len(&self) -> usize {
        match self {
            PanelData::F16(v) => v.len(),
            PanelData::B16(v) => v.len(),
            PanelData::F32(v) => v.len(),
            PanelData::F64(v) => v.len(),
        }
    }

    /// `true` if no elements are stored.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The trailing update `C ← C − op(L)·op(Uᵀ)ᵀ` with this panel pair:
    /// `l` is `m × k` (stride `l_lda`, offset `l_off` rows), `ut` holds
    /// `Uᵀ` as `n × k` (stride `u_lda`, offset `u_off` rows), `C` is
    /// `m × n` at stride `ldc`. Both panels must share a variant.
    #[allow(clippy::too_many_arguments)]
    pub fn apply_gemm(
        l: &PanelData,
        ut: &PanelData,
        m: usize,
        n: usize,
        k: usize,
        l_off: usize,
        l_lda: usize,
        u_off: usize,
        u_lda: usize,
        c: &mut [f32],
        ldc: usize,
    ) {
        macro_rules! mixed {
            ($lv:expr, $uv:expr) => {
                gemm_mixed(
                    Trans::No,
                    Trans::Yes,
                    m,
                    n,
                    k,
                    -1.0,
                    &$lv[l_off..],
                    l_lda,
                    &$uv[u_off..],
                    u_lda,
                    1.0,
                    c,
                    ldc,
                )
            };
        }
        match (l, ut) {
            (PanelData::F16(lv), PanelData::F16(uv)) => mixed!(lv, uv),
            (PanelData::B16(lv), PanelData::B16(uv)) => mixed!(lv, uv),
            (PanelData::F32(lv), PanelData::F32(uv)) => mixed!(lv, uv),
            _ => panic!("panel precision mismatch"),
        }
    }
}

/// Everything a rank ever puts on the wire.
///
/// In [`crate::Fidelity::Timing`] mode only [`PanelMsg::Empty`] travels
/// (bytes are declared on the send); in functional mode the variants carry
/// live data. `Default` (= `Empty`) doubles as the filler payload for the
/// non-leading chunks of pipelined ring broadcasts.
#[derive(Clone, Debug, Default, PartialEq)]
pub enum PanelMsg {
    /// No payload (timing mode, barrier/filler chunks).
    #[default]
    Empty,
    /// A reduced-precision `L` or transposed `U` panel.
    Panel(PanelData),
    /// An FP64 vector segment (iterative refinement traffic).
    VecF64(Vec<f64>),
}

impl PanelMsg {
    /// Wire size of the *payload data* this variant represents, used for
    /// declared byte counts in functional mode.
    pub fn payload_bytes(&self) -> u64 {
        match self {
            PanelMsg::Empty => 0,
            PanelMsg::Panel(PanelData::F16(v)) => 2 * v.len() as u64,
            PanelMsg::Panel(PanelData::B16(v)) => 2 * v.len() as u64,
            PanelMsg::Panel(PanelData::F32(v)) => 4 * v.len() as u64,
            PanelMsg::Panel(PanelData::F64(v)) => 8 * v.len() as u64,
            PanelMsg::VecF64(v) => 8 * v.len() as u64,
        }
    }

    /// Unwraps a reduced-precision panel.
    pub fn into_panel(self) -> PanelData {
        match self {
            PanelMsg::Panel(v) => v,
            other => panic!("expected Panel, got {other:?}"),
        }
    }

    /// Unwraps an FP64 vector.
    pub fn into_vec64(self) -> Vec<f64> {
        match self {
            PanelMsg::VecF64(v) => v,
            other => panic!("expected VecF64, got {other:?}"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn payload_bytes() {
        assert_eq!(PanelMsg::Empty.payload_bytes(), 0);
        assert_eq!(
            PanelMsg::Panel(PanelData::F16(vec![F16::ZERO; 10])).payload_bytes(),
            20
        );
        assert_eq!(
            PanelMsg::Panel(PanelData::F32(vec![0.0; 10])).payload_bytes(),
            40
        );
        assert_eq!(PanelMsg::VecF64(vec![0.0; 10]).payload_bytes(), 80);
    }

    #[test]
    fn unwrap_helpers() {
        assert_eq!(PanelMsg::VecF64(vec![2.0]).into_vec64(), vec![2.0]);
        let p = PanelData::F16(vec![F16::ONE]);
        assert_eq!(PanelMsg::Panel(p.clone()).into_panel(), p);
    }

    #[test]
    #[should_panic(expected = "expected Panel")]
    fn wrong_unwrap_panics() {
        PanelMsg::Empty.into_panel();
    }

    #[test]
    fn default_is_empty() {
        assert_eq!(PanelMsg::default(), PanelMsg::Empty);
    }

    #[test]
    fn precision_properties() {
        assert_eq!(TrailingPrecision::Fp16.bytes_per_elem(), 2);
        assert_eq!(TrailingPrecision::Bf16.bytes_per_elem(), 2);
        assert_eq!(TrailingPrecision::Fp32.bytes_per_elem(), 4);
        assert!(TrailingPrecision::Fp16.unit_roundoff() < TrailingPrecision::Bf16.unit_roundoff());
        assert!(TrailingPrecision::Fp32.unit_roundoff() < TrailingPrecision::Fp16.unit_roundoff());
        assert_eq!(TrailingPrecision::Fp16.tag(), "fp16");
    }

    #[test]
    fn cast_roundtrip_all_precisions() {
        let src = [1.5f32, -2.25, 0.125, 7.0];
        for prec in [
            TrailingPrecision::Fp16,
            TrailingPrecision::Bf16,
            TrailingPrecision::Fp32,
        ] {
            let p = PanelData::cast(prec, 2, 2, &src, 2);
            assert_eq!(p.len(), 4);
            let t = PanelData::trans_cast(prec, 2, 2, &src, 2);
            assert_eq!(t.len(), 4);
        }
    }

    #[test]
    fn apply_gemm_small() {
        // L = I (2x2), U^T = I: C -= I*I = C - I.
        for prec in [
            TrailingPrecision::Fp16,
            TrailingPrecision::Bf16,
            TrailingPrecision::Fp32,
        ] {
            let id = [1.0f32, 0.0, 0.0, 1.0];
            let l = PanelData::cast(prec, 2, 2, &id, 2);
            let ut = PanelData::cast(prec, 2, 2, &id, 2);
            let mut c = [5.0f32, 1.0, 1.0, 5.0];
            PanelData::apply_gemm(&l, &ut, 2, 2, 2, 0, 2, 0, 2, &mut c, 2);
            assert_eq!(c, [4.0, 1.0, 1.0, 4.0], "{prec:?}");
        }
    }

    #[test]
    #[should_panic(expected = "precision mismatch")]
    fn mixed_variant_gemm_panics() {
        let l = PanelData::F16(vec![F16::ONE]);
        let ut = PanelData::F32(vec![1.0]);
        let mut c = [0.0f32];
        PanelData::apply_gemm(&l, &ut, 1, 1, 1, 0, 1, 0, 1, &mut c, 1);
    }
}
