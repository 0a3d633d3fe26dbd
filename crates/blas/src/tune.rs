//! Kernel-parameter resolution: env override → persisted tuning file →
//! sweep (DESIGN.md §14).
//!
//! The packed GEMM engine used to hard-code `MR/NR/MC/KC`; those now live
//! in a [`KernelParams`] struct resolved once per element type and cached
//! for the process. Resolution order:
//!
//! 1. **ISA selection** — `HPLAI_KERNEL=portable|avx2|avx512|neon` forces
//!    a level (validated against the host), otherwise the best detected
//!    level is used. This narrows the candidate micro-kernels to that
//!    level's entries in the dispatch table (`kernel.rs`).
//! 2. **Tuning file** — if `HPLAI_TUNE_FILE` names a file (or the default
//!    `$XDG_CACHE_HOME/hplai/tune-v1.json` exists), and its schema and
//!    host key match, the stored winner for `<isa>/<type>` is used with
//!    **zero sweep work** (à la nvidia-hpl-mxp's tuning-parameter files).
//!    The host key is the *detected* ISA plus the cpu0 cache geometry from
//!    sysfs, so a file copied to a different machine re-tunes instead of
//!    mis-tuning.
//! 3. **Sweep** — otherwise each candidate variant × `MC` block size is
//!    timed on a small in-cache GEMM (serial, best-of-3) and the winner is
//!    persisted back to the tuning file (best-effort, atomic rename;
//!    entries for other ISA levels and the other element type are
//!    preserved).
//!
//! Each resolution reports the work it did in [`KernelInfo::work`], so a
//! test can assert that a second run with a persisted file performs no
//! sweep work without reading process-wide state other resolutions also
//! touch; [`tune_stats`] keeps the process totals for reporting.
//!
//! # What may be tuned, and what must not be
//!
//! The engine's bitwise-determinism posture (cross-thread, cross-backend,
//! cross-worker-count — see DESIGN.md §14) survives autotuning because the
//! sweep only searches **bit-neutral** knobs: the register-tile shape
//! (`mr × nr`, i.e. the kernel variant) and the L2 block `mc` change how C
//! is cut into tiles, never the k-ascending FMA chain any element
//! accumulates through. The k-slab depth `kc` *does* group the
//! accumulation (a different `kc` is a different — equally valid, but not
//! identical — result), and the GETRF/TRSM blocking `nb`/`tb` reorder the
//! factorization, so all three are **pinned** to the engine's historical
//! constants. A hand-edited tuning file may override them; results then
//! differ from the pinned-constant bits, which the golden/differential
//! suites would flag.

use crate::kernel::{self, KernelVariant, MicroFn};
use mxp_precision::{Isa, Real};
use serde_json::Value;
use std::any::TypeId;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::OnceLock;

/// Tuning-file schema identifier (bump on incompatible format changes).
pub const TUNE_SCHEMA: &str = "hplai-tune-v1";

/// Upper bound on `kc` the engine supports (sizes the stack buffer the
/// B-pack widens columns through).
pub const MAX_KC: usize = 512;

/// Pinned k-slab depth: the one bit-affecting blocking parameter (see the
/// module docs), kept at the seed engine's constant.
pub const KC_PINNED: usize = 256;

/// Pinned GETRF block size (PR 4's swept winner; bit-affecting).
pub const NB_PINNED: usize = 32;

/// Pinned TRSM recursion cutoff (bit-affecting through the blocked
/// substitution order).
pub const TB_PINNED: usize = 64;

/// Nominal per-task column-block width used in the task-grain derivation.
pub const NC_NOMINAL: usize = 128;

/// The blocking/tile parameters the packed kernels consume — the former
/// `MR/NR/MC/KC/NB` constants as one resolvable struct.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct KernelParams {
    /// Micro-kernel register-tile height (rows of C).
    pub mr: usize,
    /// Micro-kernel register-tile width (columns of C).
    pub nr: usize,
    /// L2 block: rows of packed A kept hot per macro-kernel pass.
    pub mc: usize,
    /// Nominal task column width (parallel-grain derivation only).
    pub nc: usize,
    /// k-dimension slab depth. **Bit-affecting**; pinned to [`KC_PINNED`].
    pub kc: usize,
    /// GETRF block size. **Bit-affecting**; pinned to [`NB_PINNED`].
    pub nb: usize,
    /// TRSM recursion cutoff. **Bit-affecting**; pinned to [`TB_PINNED`].
    pub tb: usize,
}

impl KernelParams {
    /// The nominal parameter set for a tile shape: `mc = 8·mr` (the seed
    /// engine's 128 for the 16-row tile) and every pinned constant.
    pub fn nominal(mr: usize, nr: usize) -> Self {
        KernelParams {
            mr,
            nr,
            mc: 8 * mr,
            nc: NC_NOMINAL,
            kc: KC_PINNED,
            nb: NB_PINNED,
            tb: TB_PINNED,
        }
    }

    /// Minimum flops a parallel task must amortize with these blockings:
    /// `PACK_AMORTIZE` flops per element of the `mc·kc + kc·nc + mc·nc`
    /// working set a nominal task touches per slab.
    pub fn min_flops_per_task(&self) -> f64 {
        (crate::gemm::PACK_AMORTIZE * (self.mc * self.kc + self.kc * self.nc + self.mc * self.nc))
            as f64
    }

    fn valid_for<R>(&self, v: &KernelVariant<R>) -> bool {
        self.mr == v.mr
            && self.nr == v.nr
            && self.mc >= self.mr
            && self.mc.is_multiple_of(self.mr)
            && self.kc >= 1
            && self.kc <= MAX_KC
            && self.nc >= self.nr
            && self.nb >= 1
            && self.tb >= 8
    }
}

/// Where a resolution came from.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TuneSource {
    /// Timed sweep ran in this process.
    Swept,
    /// Loaded from a matching tuning file (zero sweep work).
    File,
    /// Built-in nominal parameters (no sweep, no file — e.g. the generic
    /// fallback path).
    Default,
}

impl TuneSource {
    /// Stable lower-case name for reports.
    pub fn name(self) -> &'static str {
        match self {
            TuneSource::Swept => "swept",
            TuneSource::File => "file",
            TuneSource::Default => "default",
        }
    }
}

/// A fully resolved kernel for one element type: the dispatched variant,
/// its blocking parameters, and the provenance of the choice.
pub(crate) struct ResolvedKernel<R> {
    pub(crate) name: &'static str,
    pub(crate) isa: Isa,
    pub(crate) params: KernelParams,
    pub(crate) micro: MicroFn<R>,
    pub(crate) source: TuneSource,
    pub(crate) gflops: f64,
    pub(crate) tune_file: Option<PathBuf>,
    pub(crate) work: TuneStats,
}

impl<R> ResolvedKernel<R> {
    fn info(&self) -> KernelInfo {
        KernelInfo {
            kernel: self.name,
            isa: self.isa,
            params: self.params,
            source: self.source,
            gflops_at_tune: self.gflops,
            tune_file: self.tune_file.clone(),
            work: self.work,
        }
    }
}

/// Public provenance snapshot of a resolved kernel (what `kernel_bench`
/// and `PerfReport` record).
#[derive(Clone, Debug)]
pub struct KernelInfo {
    /// Dispatched micro-kernel variant name (e.g. `"avx512_f32_32x8"`).
    pub kernel: &'static str,
    /// ISA level the variant runs at.
    pub isa: Isa,
    /// Resolved blocking parameters.
    pub params: KernelParams,
    /// Whether the choice was swept, loaded, or defaulted.
    pub source: TuneSource,
    /// GFLOP/s the winner measured when it was tuned (0 when unknown).
    pub gflops_at_tune: f64,
    /// The tuning file consulted/updated, if any.
    pub tune_file: Option<PathBuf>,
    /// The tuning work the resolution that produced this kernel performed.
    pub work: TuneStats,
}

/// Tuning work done by one resolution: exactly one of the two counts is 1
/// for a resolution that consulted the tuner, both are 0 for the generic
/// fallback.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct TuneStats {
    /// Tuning-file entries loaded (zero sweep work).
    pub file_hits: u64,
    /// Timed sweeps run.
    pub sweeps: u64,
}

impl TuneStats {
    /// The work of a resolution that ran a sweep.
    pub(crate) const SWEPT: TuneStats = TuneStats {
        file_hits: 0,
        sweeps: 1,
    };
    /// The work of a resolution that loaded a tuning-file entry.
    pub(crate) const LOADED: TuneStats = TuneStats {
        file_hits: 1,
        sweeps: 0,
    };
}

static FILE_HITS: AtomicU64 = AtomicU64::new(0);
static SWEEPS: AtomicU64 = AtomicU64::new(0);

/// `(file_hits, sweeps)` since process start, across both element types
/// and any `resolve_fresh_with_file` calls. A run that loads every kernel
/// from a persisted tuning file shows `sweeps == 0`. Concurrent
/// resolutions all add to these totals; to attribute work to one
/// resolution, read its [`KernelInfo::work`].
pub fn tune_stats() -> (u64, u64) {
    (
        FILE_HITS.load(Ordering::Relaxed),
        SWEEPS.load(Ordering::Relaxed),
    )
}

static RES_F32: OnceLock<ResolvedKernel<f32>> = OnceLock::new();
static RES_F64: OnceLock<ResolvedKernel<f64>> = OnceLock::new();

fn resolved_f32() -> &'static ResolvedKernel<f32> {
    RES_F32.get_or_init(|| {
        resolve(
            kernel::variants_f32(),
            "f32",
            default_tune_file().as_deref(),
        )
    })
}

fn resolved_f64() -> &'static ResolvedKernel<f64> {
    RES_F64.get_or_init(|| {
        resolve(
            kernel::variants_f64(),
            "f64",
            default_tune_file().as_deref(),
        )
    })
}

/// Runs `f` with the process-wide resolved kernel for `R`, resolving it
/// (sweep or file load) on first use. `f32`/`f64` hit the cached statics;
/// any other `Real` implementor gets the generic portable tile.
pub(crate) fn with_resolved<R: Real, T>(f: impl FnOnce(&ResolvedKernel<R>) -> T) -> T {
    let tid = TypeId::of::<R>();
    if tid == TypeId::of::<f32>() {
        let rk = resolved_f32();
        // SAFETY: TypeId equality proves R == f32, so the pointer cast is
        // an identity; the reference stays 'static.
        f(unsafe { &*(rk as *const ResolvedKernel<f32> as *const ResolvedKernel<R>) })
    } else if tid == TypeId::of::<f64>() {
        let rk = resolved_f64();
        // SAFETY: as above with R == f64.
        f(unsafe { &*(rk as *const ResolvedKernel<f64> as *const ResolvedKernel<R>) })
    } else {
        f(&ResolvedKernel {
            name: "portable_16x4",
            isa: Isa::Portable,
            params: KernelParams::nominal(16, 4),
            micro: kernel::portable_micro::<R, 16, 4>,
            source: TuneSource::Default,
            gflops: 0.0,
            tune_file: None,
            work: TuneStats::default(),
        })
    }
}

/// Provenance of the resolved f32 kernel (resolving it on first call).
pub fn kernel_info_f32() -> KernelInfo {
    resolved_f32().info()
}

/// Provenance of the resolved f64 kernel (resolving it on first call).
pub fn kernel_info_f64() -> KernelInfo {
    resolved_f64().info()
}

/// Resolves a kernel for one element type *without* touching the cached
/// statics — the persistence tests use this to exercise the
/// sweep/persist/load cycle repeatedly in one process. The returned
/// [`KernelInfo::work`] counts this call's work alone; the totals in
/// [`tune_stats`] are updated exactly as a cached resolution would.
#[doc(hidden)]
pub fn resolve_fresh_with_file(tag: &str, path: Option<&Path>) -> KernelInfo {
    match tag {
        "f32" => resolve(kernel::variants_f32(), "f32", path).info(),
        "f64" => resolve(kernel::variants_f64(), "f64", path).info(),
        other => panic!("resolve_fresh_with_file: unknown tag {other:?}"),
    }
}

/// The tuning file to use: `HPLAI_TUNE_FILE` if set (empty or `none`
/// disables persistence entirely), else `hplai/tune-v1.json` under the
/// XDG cache directory, `$HOME/.cache`, or the system temp dir.
fn default_tune_file() -> Option<PathBuf> {
    if let Ok(p) = std::env::var("HPLAI_TUNE_FILE") {
        let p = p.trim();
        if p.is_empty() || p == "none" {
            return None;
        }
        return Some(PathBuf::from(p));
    }
    let base = std::env::var_os("XDG_CACHE_HOME")
        .map(PathBuf::from)
        .or_else(|| std::env::var_os("HOME").map(|h| PathBuf::from(h).join(".cache")))
        .unwrap_or_else(std::env::temp_dir);
    Some(base.join("hplai").join("tune-v1.json"))
}

/// The host identity a tuning file is keyed by: detected ISA level plus
/// the cpu0 cache geometry. Files from a different machine (or after a
/// microcode/kernel change that alters either) re-tune instead of
/// mis-tuning.
pub fn host_key() -> String {
    static KEY: OnceLock<String> = OnceLock::new();
    KEY.get_or_init(|| {
        let mut caches = Vec::new();
        for idx in 0..8 {
            let base = format!("/sys/devices/system/cpu/cpu0/cache/index{idx}");
            let read = |leaf: &str| -> Option<String> {
                std::fs::read_to_string(format!("{base}/{leaf}"))
                    .ok()
                    .map(|s| s.trim().to_string())
            };
            let (Some(level), Some(typ), Some(size)) = (read("level"), read("type"), read("size"))
            else {
                continue;
            };
            let t = match typ.as_str() {
                "Data" => "d",
                "Instruction" => "i",
                _ => "u",
            };
            caches.push(format!("l{level}{t}:{size}"));
        }
        let caches = if caches.is_empty() {
            "nocache".to_string()
        } else {
            caches.join(",")
        };
        format!("{};{}", kernel::detected_isa().name(), caches)
    })
    .clone()
}

fn resolve<R: Real>(
    all: &'static [KernelVariant<R>],
    tag: &str,
    path: Option<&Path>,
) -> ResolvedKernel<R> {
    let isa = kernel::active_isa();
    let avail = kernel::variants_for(all, isa);
    // The dispatched level is the forced/detected one unless the table had
    // no native kernels for it and fell back to portable.
    let isa = avail.first().map_or(Isa::Portable, |v| v.isa);
    if let Some(p) = path {
        if let Some(rk) = load_entry(p, isa, tag, &avail) {
            FILE_HITS.fetch_add(rk.work.file_hits, Ordering::Relaxed);
            return rk;
        }
    }
    let mut rk = sweep(&avail);
    SWEEPS.fetch_add(rk.work.sweeps, Ordering::Relaxed);
    rk.tune_file = path.map(Path::to_path_buf);
    if let Some(p) = path {
        let _ = persist_entry(p, isa, tag, &rk);
    }
    rk
}

fn entry_key(isa: Isa, tag: &str) -> String {
    format!("{}/{}", isa.name(), tag)
}

fn load_entry<R: Real>(
    path: &Path,
    isa: Isa,
    tag: &str,
    avail: &[&'static KernelVariant<R>],
) -> Option<ResolvedKernel<R>> {
    let text = std::fs::read_to_string(path).ok()?;
    let doc = serde_json::from_str(&text).ok()?;
    if doc.get("schema")?.as_str()? != TUNE_SCHEMA || doc.get("host")?.as_str()? != host_key() {
        return None;
    }
    let entry = doc.get("entries")?.get(&entry_key(isa, tag))?;
    let name = entry.get("kernel")?.as_str()?;
    let variant = avail.iter().find(|v| v.name == name)?;
    let num = |k: &str| -> Option<usize> {
        let x = entry.get(k)?.as_f64()?;
        (x.fract() == 0.0 && x >= 0.0).then_some(x as usize)
    };
    let params = KernelParams {
        mr: variant.mr,
        nr: variant.nr,
        mc: num("mc")?,
        nc: num("nc")?,
        kc: num("kc")?,
        nb: num("nb")?,
        tb: num("tb")?,
    };
    if !params.valid_for(variant) {
        return None;
    }
    Some(ResolvedKernel {
        name: variant.name,
        isa: variant.isa,
        params,
        micro: variant.micro(),
        source: TuneSource::File,
        gflops: entry.get("gflops").and_then(Value::as_f64).unwrap_or(0.0),
        tune_file: Some(path.to_path_buf()),
        work: TuneStats::LOADED,
    })
}

/// Times every candidate (variant × `mc` multiple) on a small serial GEMM
/// and returns the fastest. Only bit-neutral knobs vary (module docs);
/// `kc`/`nb`/`tb` stay pinned in every candidate.
fn sweep<R: Real>(avail: &[&'static KernelVariant<R>]) -> ResolvedKernel<R> {
    let (m, n, k) = (256usize, 256, 2 * KC_PINNED);
    let fill = |seed: u64, buf: &mut [R]| {
        let mut s = seed;
        for x in buf.iter_mut() {
            s = s
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            *x = R::from_f64(((s >> 11) as f64 / 9.007199254740992e15) - 0.5);
        }
    };
    let mut a = vec![R::ZERO; m * k];
    let mut b = vec![R::ZERO; k * n];
    let mut c = vec![R::ZERO; m * n];
    fill(1, &mut a);
    fill(2, &mut b);
    let flops = 2.0 * (m * n * k) as f64;
    let mut best: Option<ResolvedKernel<R>> = None;
    for &v in avail {
        for mult in [4usize, 8, 16] {
            let params = KernelParams {
                mc: mult * v.mr,
                ..KernelParams::nominal(v.mr, v.nr)
            };
            let mut run = || {
                crate::gemm::gemm_with_variant(
                    v,
                    &params,
                    true,
                    crate::Trans::No,
                    crate::Trans::No,
                    m,
                    n,
                    k,
                    R::ONE,
                    &a,
                    m,
                    &b,
                    k,
                    R::ZERO,
                    &mut c,
                    m,
                );
            };
            run(); // warm the caches and the scratch arena
            let mut secs = f64::INFINITY;
            for _ in 0..3 {
                let t0 = std::time::Instant::now();
                run();
                secs = secs.min(t0.elapsed().as_secs_f64());
            }
            let gflops = flops / secs / 1e9;
            if best.as_ref().is_none_or(|b| gflops > b.gflops) {
                best = Some(ResolvedKernel {
                    name: v.name,
                    isa: v.isa,
                    params,
                    micro: v.micro(),
                    source: TuneSource::Swept,
                    gflops,
                    tune_file: None,
                    work: TuneStats::SWEPT,
                });
            }
        }
    }
    best.expect("candidate list is never empty")
}

/// Merges the winner into the tuning file: entries for other keys are kept
/// when the host matches, dropped (with the stale host key) otherwise.
/// Written atomically via a temp file + rename.
fn persist_entry<R>(
    path: &Path,
    isa: Isa,
    tag: &str,
    rk: &ResolvedKernel<R>,
) -> std::io::Result<()> {
    let key = entry_key(isa, tag);
    let mut entries: Vec<(String, String)> = Vec::new();
    if let Ok(text) = std::fs::read_to_string(path) {
        if let Ok(doc) = serde_json::from_str(&text) {
            let host_matches = doc.get("schema").and_then(Value::as_str) == Some(TUNE_SCHEMA)
                && doc.get("host").and_then(Value::as_str) == Some(host_key()).as_deref();
            if host_matches {
                if let Some(Value::Object(members)) = doc.get("entries") {
                    for (k, v) in members {
                        if *k != key {
                            entries.push((k.clone(), emit_value(v)));
                        }
                    }
                }
            }
        }
    }
    let p = &rk.params;
    entries.push((
        key,
        format!(
            "{{\"kernel\": \"{}\", \"mr\": {}, \"nr\": {}, \"mc\": {}, \"nc\": {}, \
             \"kc\": {}, \"nb\": {}, \"tb\": {}, \"gflops\": {:.1}}}",
            rk.name, p.mr, p.nr, p.mc, p.nc, p.kc, p.nb, p.tb, rk.gflops
        ),
    ));
    entries.sort_by(|a, b| a.0.cmp(&b.0));
    let body = entries
        .iter()
        .map(|(k, v)| format!("    \"{k}\": {v}"))
        .collect::<Vec<_>>()
        .join(",\n");
    let doc = format!(
        "{{\n  \"schema\": \"{TUNE_SCHEMA}\",\n  \"host\": \"{}\",\n  \"entries\": {{\n{body}\n  }}\n}}\n",
        host_key()
    );
    if let Some(dir) = path.parent() {
        if !dir.as_os_str().is_empty() {
            std::fs::create_dir_all(dir)?;
        }
    }
    let tmp = path.with_extension(format!("tmp.{}", std::process::id()));
    std::fs::write(&tmp, doc)?;
    std::fs::rename(&tmp, path)
}

/// Compact JSON emitter for preserved [`Value`] entries (the vendored
/// serde_json stub parses into `Value` but has no `Value` serializer).
fn emit_value(v: &Value) -> String {
    match v {
        Value::Null => "null".to_string(),
        Value::Bool(b) => b.to_string(),
        Value::Number(n) => {
            if n.fract() == 0.0 && n.abs() < 9.0e15 {
                format!("{}", *n as i64)
            } else {
                format!("{n}")
            }
        }
        Value::String(s) => format!("\"{}\"", s.replace('\\', "\\\\").replace('"', "\\\"")),
        Value::Array(items) => {
            let inner: Vec<String> = items.iter().map(emit_value).collect();
            format!("[{}]", inner.join(", "))
        }
        Value::Object(members) => {
            let inner: Vec<String> = members
                .iter()
                .map(|(k, v)| format!("\"{k}\": {}", emit_value(v)))
                .collect();
            format!("{{{}}}", inner.join(", "))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp_file(tag: &str) -> PathBuf {
        std::env::temp_dir().join(format!("hplai-tune-test-{}-{tag}.json", std::process::id()))
    }

    #[test]
    fn sweep_then_file_hit_performs_zero_sweep_work() {
        let path = tmp_file("roundtrip");
        let _ = std::fs::remove_file(&path);

        let first = resolve_fresh_with_file("f32", Some(&path));
        assert_eq!(
            (first.work.sweeps, first.work.file_hits),
            (1, 0),
            "first resolution must sweep exactly once"
        );
        assert_eq!(first.source, TuneSource::Swept);
        assert!(path.exists(), "sweep must persist its winner");

        let second = resolve_fresh_with_file("f32", Some(&path));
        assert_eq!(
            (second.work.sweeps, second.work.file_hits),
            (0, 1),
            "second resolution must hit the file and not sweep"
        );
        assert_eq!(second.source, TuneSource::File);
        assert_eq!(second.kernel, first.kernel);
        assert_eq!(second.params, first.params);

        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn file_keeps_entries_for_both_types() {
        let path = tmp_file("merge");
        let _ = std::fs::remove_file(&path);
        let f32_info = resolve_fresh_with_file("f32", Some(&path));
        let f64_info = resolve_fresh_with_file("f64", Some(&path));
        // Both entries must now load without sweeps.
        let f32_again = resolve_fresh_with_file("f32", Some(&path));
        let f64_again = resolve_fresh_with_file("f64", Some(&path));
        assert_eq!((f32_again.work.sweeps, f32_again.work.file_hits), (0, 1));
        assert_eq!((f64_again.work.sweeps, f64_again.work.file_hits), (0, 1));
        assert_eq!(f32_again.kernel, f32_info.kernel);
        assert_eq!(f64_again.kernel, f64_info.kernel);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn foreign_host_key_forces_resweep() {
        let path = tmp_file("foreign");
        std::fs::write(
            &path,
            format!(
                "{{\"schema\": \"{TUNE_SCHEMA}\", \"host\": \"some-other-machine\", \
                 \"entries\": {{\"portable/f32\": {{\"kernel\": \"portable_16x4\", \"mr\": 16, \
                 \"nr\": 4, \"mc\": 128, \"nc\": 128, \"kc\": 256, \"nb\": 32, \"tb\": 64}}}}}}"
            ),
        )
        .unwrap();
        let info = resolve_fresh_with_file("f32", Some(&path));
        assert_eq!(
            (info.work.sweeps, info.work.file_hits),
            (1, 0),
            "mismatched host must re-sweep"
        );
        assert_eq!(info.source, TuneSource::Swept);
        // The rewritten file carries the real host key and loads cleanly.
        let text = std::fs::read_to_string(&path).unwrap();
        assert!(text.contains(&host_key()));
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn process_totals_cover_each_resolution() {
        // Other tests resolve concurrently, so the totals can only be
        // checked as a lower bound: they include this resolution's sweep.
        let path = tmp_file("totals");
        let _ = std::fs::remove_file(&path);
        let info = resolve_fresh_with_file("f64", Some(&path));
        assert_eq!(info.work.sweeps, 1);
        assert!(tune_stats().1 >= 1, "process totals missed a sweep");
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn corrupt_entry_is_ignored() {
        let path = tmp_file("corrupt");
        std::fs::write(
            &path,
            format!(
                "{{\"schema\": \"{TUNE_SCHEMA}\", \"host\": \"{}\", \"entries\": \
                 {{\"bogus\": {{\"kernel\": \"no_such_kernel\"}}}}}}",
                host_key()
            ),
        )
        .unwrap();
        let info = resolve_fresh_with_file("f32", Some(&path));
        assert_eq!(info.source, TuneSource::Swept);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn swept_candidates_pin_bit_affecting_knobs() {
        let info = kernel_info_f32();
        assert_eq!(info.params.kc, KC_PINNED);
        assert_eq!(info.params.nb, NB_PINNED);
        assert_eq!(info.params.tb, TB_PINNED);
        assert_eq!(info.params.mr % 8, 0);
        assert_eq!(info.params.mc % info.params.mr, 0);
        let info64 = kernel_info_f64();
        assert_eq!(info64.params.kc, KC_PINNED);
        assert_eq!(info64.params.nb, NB_PINNED);
    }

    #[test]
    fn nominal_params_match_seed_engine_for_portable_tile() {
        let p = KernelParams::nominal(16, 4);
        assert_eq!((p.mr, p.nr, p.mc, p.nc, p.kc), (16, 4, 128, 128, 256));
    }
}
