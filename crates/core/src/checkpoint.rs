//! Panel-boundary checkpoint/restart: versioned snapshots of distributed
//! factorization state.
//!
//! The one factorization stepper ([`crate::factor::Factorization`], under
//! either policy: [`crate::factor::FactorState`] for HPL-MxP,
//! [`crate::hpl_dist::HplDistState`] for HPL) drains its in-flight
//! look-ahead posture at a panel boundary and encodes one byte section per
//! rank, in a layout both policies share; the [`RunCheckpointer`] collects
//! the sections (plus each rank's simulated clock) and writes one
//! [`Snapshot`] file per boundary with an atomic tmp+rename. A restart
//! checks the header with [`header_mismatch`].
//!
//! # On-disk format (`hplai-ckpt-v1`)
//!
//! All integers little-endian, floats as IEEE-754 bit patterns:
//!
//! ```text
//! magic    8  b"HPLAICKP"
//! version  4  u32 = 1
//! driver   1  u8  (1 = mixed-precision factor, 2 = FP64 HPL)
//! fidelity 1  u8  (0 = functional, 1 = timing)
//! k        8  next panel cursor (first unfactored panel)
//! n,b      8+8  global problem and block size
//! p_r,p_c  8+8  process grid
//! ranks    8  world size
//! seed     8  matrix-generator seed
//! cfg_tag  8  FNV-1a of the run knobs that must match on restart
//! clocks   ranks × 8   per-rank simulated clock at the boundary
//! waits    ranks × 8   per-rank accumulated receive-wait at the boundary
//! sections ranks × (8-byte length + bytes)   driver-encoded local state
//! checksum 8  FNV-1a over every preceding byte
//! ```
//!
//! A section is the rank's start clock (8), the pivot record (HPL: `n` ×
//! 8; none for HPL-MxP), a tiles flag (1), and when set the tile count
//! (8) and the tiles' bits (4 each for HPL-MxP's FP32, 8 for HPL's FP64).
//!
//! Everything a reader must validate before trusting a byte is validated:
//! magic, version, structural completeness, and the trailing checksum.
//! A failed load is a typed [`SnapshotError`], and the supervisor's
//! restart path falls back to a full rerun on any of them.

use crate::runtime::RankCtx;
use std::collections::HashMap;
use std::fmt;
use std::fs;
use std::path::{Path, PathBuf};
use std::sync::Mutex;

/// Magic bytes opening every snapshot file.
pub const MAGIC: &[u8; 8] = b"HPLAICKP";
/// Current snapshot format version.
pub const VERSION: u32 = 1;
/// [`SnapshotHeader::driver`] tag of the mixed-precision factorization.
pub const DRIVER_FACTOR: u8 = 1;
/// [`SnapshotHeader::driver`] tag of the distributed FP64 HPL driver.
pub const DRIVER_HPL: u8 = 2;

/// Where, how often, and how fast checkpoints are taken during a run.
#[derive(Clone, Debug)]
pub struct CheckpointSpec {
    /// Directory receiving `ckpt_<k>.bin` files (created if absent).
    pub dir: PathBuf,
    /// Panel interval: a snapshot is drained whenever the cursor reaches a
    /// multiple of this (and the run is not already done). 0 disables.
    pub interval: usize,
    /// Modeled per-rank drain bandwidth, bytes/second — the burst-buffer
    /// rate the simulated clock is charged at.
    pub io_bw: f64,
}

impl CheckpointSpec {
    /// Spec with the default drained-to-burst-buffer bandwidth
    /// (2 GB/s per rank, the order of Summit's per-node NVMe).
    pub fn new(dir: impl Into<PathBuf>, interval: usize) -> Self {
        CheckpointSpec {
            dir: dir.into(),
            interval,
            io_bw: 2.0e9,
        }
    }
}

/// Typed reasons a snapshot file is rejected.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum SnapshotError {
    /// Filesystem error (message carries the OS detail).
    Io(String),
    /// File does not begin with [`MAGIC`].
    BadMagic,
    /// Format version this build does not understand.
    BadVersion(u32),
    /// File ends before the structure it promises.
    Truncated,
    /// Trailing FNV-1a checksum does not match the content.
    ChecksumMismatch,
    /// Snapshot is internally valid but belongs to a different run
    /// configuration; the named field disagrees.
    ConfigMismatch(&'static str),
}

impl fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SnapshotError::Io(e) => write!(f, "checkpoint io error: {e}"),
            SnapshotError::BadMagic => write!(f, "not a checkpoint file (bad magic)"),
            SnapshotError::BadVersion(v) => write!(f, "unsupported checkpoint version {v}"),
            SnapshotError::Truncated => write!(f, "truncated checkpoint file"),
            SnapshotError::ChecksumMismatch => write!(f, "checkpoint checksum mismatch"),
            SnapshotError::ConfigMismatch(field) => {
                write!(f, "checkpoint does not match run config: {field}")
            }
        }
    }
}

impl std::error::Error for SnapshotError {}

/// The fixed-size identity block of a snapshot: which driver, which
/// problem, which grid, and the panel cursor the matrix state is at.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SnapshotHeader {
    /// Driver tag ([`DRIVER_FACTOR`] or [`DRIVER_HPL`]).
    pub driver: u8,
    /// Fidelity tag (0 functional, 1 timing).
    pub fidelity: u8,
    /// Next panel cursor: panels `< k` are factored and fully applied.
    pub k: u64,
    /// Global problem size.
    pub n: u64,
    /// Panel/block size.
    pub b: u64,
    /// Process-grid rows.
    pub p_r: u64,
    /// Process-grid columns.
    pub p_c: u64,
    /// World size (number of per-rank sections).
    pub ranks: u64,
    /// Matrix-generator seed.
    pub seed: u64,
    /// FNV-1a tag over the restart-relevant run knobs (broadcast
    /// algorithm, look-ahead, trailing precision); must match on resume.
    pub config_tag: u64,
}

/// The first field on which a snapshot's header `got` disagrees with the
/// header `expect` of the run about to resume from it, or `None` when the
/// run may resume. Every field must be equal except the cursor, which
/// must name a panel the run has not yet factored.
pub fn header_mismatch(got: &SnapshotHeader, expect: &SnapshotHeader) -> Option<&'static str> {
    let n_b = expect.n.checked_div(expect.b).unwrap_or(0);
    [
        ("driver", got.driver == expect.driver),
        ("fidelity", got.fidelity == expect.fidelity),
        ("problem size", (got.n, got.b) == (expect.n, expect.b)),
        (
            "process grid",
            (got.p_r, got.p_c) == (expect.p_r, expect.p_c),
        ),
        ("rank count", got.ranks == expect.ranks),
        ("seed", got.seed == expect.seed),
        ("run knobs", got.config_tag == expect.config_tag),
        ("panel cursor", got.k < n_b),
    ]
    .into_iter()
    .find_map(|(field, ok)| (!ok).then_some(field))
}

/// One panel-boundary snapshot: header, per-rank clocks, per-rank opaque
/// driver sections.
#[derive(Clone, PartialEq)]
pub struct Snapshot {
    /// Identity and cursor.
    pub header: SnapshotHeader,
    /// Per-rank simulated clock at the boundary, seconds.
    pub clocks: Vec<f64>,
    /// Per-rank accumulated receive-wait time at the boundary, seconds.
    /// Restored alongside the clock so that per-op waits — extracted as
    /// `wait_total()` deltas — subtract the same bit pattern the
    /// uninterrupted run would, keeping restarts bitwise deterministic.
    pub waits: Vec<f64>,
    /// Per-rank driver-encoded local state.
    pub sections: Vec<Vec<u8>>,
}

impl fmt::Debug for Snapshot {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Snapshot")
            .field("header", &self.header)
            .field("ranks", &self.sections.len())
            .field(
                "section_bytes",
                &self.sections.iter().map(Vec::len).sum::<usize>(),
            )
            .finish()
    }
}

/// 64-bit FNV-1a over a byte slice (the same hash the tag allocator and
/// matrix cache keys use — dependency-free and stable across platforms).
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &byte in bytes {
        h ^= byte as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

pub(crate) fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

pub(crate) fn put_f64(out: &mut Vec<u8>, v: f64) {
    out.extend_from_slice(&v.to_bits().to_le_bytes());
}

/// Bounds-checked little-endian reader over a snapshot (or section) body.
pub(crate) struct ByteReader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> ByteReader<'a> {
    pub(crate) fn new(buf: &'a [u8]) -> Self {
        ByteReader { buf, pos: 0 }
    }

    pub(crate) fn bytes(&mut self, len: usize) -> Result<&'a [u8], SnapshotError> {
        let end = self.pos.checked_add(len).ok_or(SnapshotError::Truncated)?;
        if end > self.buf.len() {
            return Err(SnapshotError::Truncated);
        }
        let s = &self.buf[self.pos..end];
        self.pos = end;
        Ok(s)
    }

    pub(crate) fn u64(&mut self) -> Result<u64, SnapshotError> {
        let b = self.bytes(8)?;
        Ok(u64::from_le_bytes(b.try_into().expect("8-byte slice")))
    }

    pub(crate) fn u32(&mut self) -> Result<u32, SnapshotError> {
        let b = self.bytes(4)?;
        Ok(u32::from_le_bytes(b.try_into().expect("4-byte slice")))
    }

    pub(crate) fn u8(&mut self) -> Result<u8, SnapshotError> {
        Ok(self.bytes(1)?[0])
    }

    pub(crate) fn f64(&mut self) -> Result<f64, SnapshotError> {
        Ok(f64::from_bits(self.u64()?))
    }

    pub(crate) fn is_done(&self) -> bool {
        self.pos == self.buf.len()
    }
}

/// The resume preamble every stepper shares: this rank's section of
/// `snap`, with the rank's simulated clock and accumulated receive-wait
/// restored on the fresh context `ctx`. A snapshot without a section, clock
/// or wait for this rank is a [`SnapshotError::ConfigMismatch`] on the rank
/// count.
pub(crate) fn resume_rank<'s>(
    ctx: &mut RankCtx,
    snap: &'s Snapshot,
) -> Result<&'s [u8], SnapshotError> {
    let rank = ctx.rank();
    let (Some(section), Some(&clock), Some(&wait)) = (
        snap.sections.get(rank),
        snap.clocks.get(rank),
        snap.waits.get(rank),
    ) else {
        return Err(SnapshotError::ConfigMismatch("rank count"));
    };
    // A fresh context sits at t = 0, so one charge lands the clock on the
    // snapshot value bit-exactly; restoring the wait total too makes later
    // `wait_total()` deltas subtract the uninterrupted run's bit pattern.
    debug_assert_eq!(ctx.now(), 0.0, "resume requires a fresh rank context");
    ctx.charge(clock - ctx.now());
    ctx.restore_wait_total(wait);
    Ok(section)
}

impl Snapshot {
    /// Serializes to the `hplai-ckpt-v1` byte layout, checksum included.
    pub fn to_bytes(&self) -> Vec<u8> {
        let body: usize = 8 + 4 + 2 + 8 * 8 + 16 * self.clocks.len();
        let sect: usize = self.sections.iter().map(|s| 8 + s.len()).sum();
        let mut out = Vec::with_capacity(body + sect + 8);
        out.extend_from_slice(MAGIC);
        out.extend_from_slice(&VERSION.to_le_bytes());
        out.push(self.header.driver);
        out.push(self.header.fidelity);
        put_u64(&mut out, self.header.k);
        put_u64(&mut out, self.header.n);
        put_u64(&mut out, self.header.b);
        put_u64(&mut out, self.header.p_r);
        put_u64(&mut out, self.header.p_c);
        put_u64(&mut out, self.header.ranks);
        put_u64(&mut out, self.header.seed);
        put_u64(&mut out, self.header.config_tag);
        for &c in &self.clocks {
            put_f64(&mut out, c);
        }
        for &w in &self.waits {
            put_f64(&mut out, w);
        }
        for s in &self.sections {
            put_u64(&mut out, s.len() as u64);
            out.extend_from_slice(s);
        }
        let sum = fnv1a(&out);
        put_u64(&mut out, sum);
        out
    }

    /// Parses and fully validates a snapshot: magic, version, structure,
    /// and the trailing checksum.
    pub fn from_bytes(buf: &[u8]) -> Result<Snapshot, SnapshotError> {
        if buf.len() < MAGIC.len() + 4 + 8 {
            return Err(SnapshotError::Truncated);
        }
        if &buf[..8] != MAGIC {
            return Err(SnapshotError::BadMagic);
        }
        let (body, tail) = buf.split_at(buf.len() - 8);
        let stored = u64::from_le_bytes(tail.try_into().expect("8-byte trailer"));
        if fnv1a(body) != stored {
            return Err(SnapshotError::ChecksumMismatch);
        }
        let mut r = ByteReader::new(&body[8..]);
        let version = r.u32()?;
        if version != VERSION {
            return Err(SnapshotError::BadVersion(version));
        }
        let header = SnapshotHeader {
            driver: r.u8()?,
            fidelity: r.u8()?,
            k: r.u64()?,
            n: r.u64()?,
            b: r.u64()?,
            p_r: r.u64()?,
            p_c: r.u64()?,
            ranks: r.u64()?,
            seed: r.u64()?,
            config_tag: r.u64()?,
        };
        if header.ranks > (1 << 24) {
            // An absurd rank count means a corrupted length field that the
            // checksum could not catch (it did; belt and suspenders against
            // over-allocation before erroring out).
            return Err(SnapshotError::Truncated);
        }
        let ranks = header.ranks as usize;
        let clocks = (0..ranks).map(|_| r.f64()).collect::<Result<_, _>>()?;
        let waits = (0..ranks).map(|_| r.f64()).collect::<Result<_, _>>()?;
        let sections = (0..ranks)
            .map(|_| r.u64().and_then(|len| Ok(r.bytes(len as usize)?.to_vec())))
            .collect::<Result<_, _>>()?;
        if !r.is_done() {
            return Err(SnapshotError::Truncated);
        }
        Ok(Snapshot {
            header,
            clocks,
            waits,
            sections,
        })
    }

    /// Writes the snapshot to `path` atomically: serialize to a
    /// process-unique sibling temp file, then rename over the target, so a
    /// reader never observes a half-written checkpoint.
    pub fn write_atomic(&self, path: &Path) -> Result<(), SnapshotError> {
        let tmp = path.with_extension(format!("tmp.{}", std::process::id()));
        fs::write(&tmp, self.to_bytes()).map_err(|e| SnapshotError::Io(e.to_string()))?;
        fs::rename(&tmp, path).map_err(|e| {
            let _ = fs::remove_file(&tmp);
            SnapshotError::Io(e.to_string())
        })
    }

    /// Loads and validates a snapshot file.
    pub fn load(path: &Path) -> Result<Snapshot, SnapshotError> {
        let bytes = fs::read(path).map_err(|e| SnapshotError::Io(e.to_string()))?;
        Snapshot::from_bytes(&bytes)
    }

    /// The latest per-rank clock in the snapshot — the simulated time the
    /// restarted run resumes from (restart cost accounting subtracts it).
    pub fn max_clock(&self) -> f64 {
        self.clocks.iter().cloned().fold(0.0, f64::max)
    }
}

/// File name of the snapshot drained at panel cursor `k`.
pub fn ckpt_filename(k: usize) -> String {
    format!("ckpt_{k:06}.bin")
}

/// Scans `dir` for `ckpt_<k>.bin` files and returns the path with the
/// largest cursor `k <= max_k`, if any. Faults are virtual speed warps —
/// the simulated run completes and keeps draining snapshots after the
/// fault fires — so recovery must ignore checkpoints taken past the
/// supervisor's abort point.
pub fn latest_in(dir: &Path, max_k: usize) -> Option<PathBuf> {
    let entries = fs::read_dir(dir).ok()?;
    let mut best: Option<(usize, PathBuf)> = None;
    for entry in entries.flatten() {
        let name = entry.file_name();
        let name = name.to_string_lossy();
        let k = name
            .strip_prefix("ckpt_")
            .and_then(|s| s.strip_suffix(".bin"))
            .and_then(|s| s.parse::<usize>().ok());
        if let Some(k) = k {
            if k <= max_k && best.as_ref().is_none_or(|(bk, _)| k > *bk) {
                best = Some((k, entry.path()));
            }
        }
    }
    best.map(|(_, p)| p)
}

struct Pending {
    clocks: Vec<f64>,
    waits: Vec<f64>,
    sections: Vec<Option<Vec<u8>>>,
    left: usize,
}

/// Collects per-rank checkpoint deposits during a run and writes one
/// snapshot file per panel boundary once every rank has contributed.
///
/// Shared across rank threads/fibers behind an `Arc`; deposits are cheap
/// (one mutex lock + a vector move) and happen on host time, never on the
/// simulated clock — the *modeled* drain cost is charged separately via
/// [`crate::RankCtx::charge_checkpoint`].
pub struct RunCheckpointer {
    spec: CheckpointSpec,
    header: SnapshotHeader,
    pending: Mutex<HashMap<u64, Pending>>,
}

impl RunCheckpointer {
    /// Builds the collector for one run and creates the target directory.
    pub fn new(spec: CheckpointSpec, header: SnapshotHeader) -> Result<Self, SnapshotError> {
        fs::create_dir_all(&spec.dir).map_err(|e| SnapshotError::Io(e.to_string()))?;
        Ok(RunCheckpointer {
            spec,
            header,
            pending: Mutex::new(HashMap::new()),
        })
    }

    /// The configured panel interval.
    pub fn interval(&self) -> usize {
        self.spec.interval
    }

    /// The modeled per-rank drain bandwidth, bytes/second.
    pub fn io_bw(&self) -> f64 {
        self.spec.io_bw
    }

    /// `true` when a snapshot is due at panel cursor `cursor`.
    pub fn due(&self, cursor: usize) -> bool {
        self.spec.interval > 0 && cursor > 0 && cursor.is_multiple_of(self.spec.interval)
    }

    /// One rank's contribution to the boundary-`k` snapshot. The last
    /// depositing rank assembles and atomically writes `ckpt_<k>.bin`.
    /// `wait` is the rank's accumulated receive-wait counter, restored on
    /// resume so later wait deltas stay bitwise identical to the
    /// uninterrupted run's.
    pub fn deposit(&self, k: usize, rank: usize, clock: f64, wait: f64, section: Vec<u8>) {
        let ranks = self.header.ranks as usize;
        let done = {
            let mut pending = self.pending.lock().expect("checkpointer lock");
            let slot = pending.entry(k as u64).or_insert_with(|| Pending {
                clocks: vec![0.0; ranks],
                waits: vec![0.0; ranks],
                sections: vec![None; ranks],
                left: ranks,
            });
            assert!(slot.sections[rank].is_none(), "double deposit at k={k}");
            slot.clocks[rank] = clock;
            slot.waits[rank] = wait;
            slot.sections[rank] = Some(section);
            slot.left -= 1;
            if slot.left == 0 {
                pending.remove(&(k as u64))
            } else {
                None
            }
        };
        if let Some(done) = done {
            let mut header = self.header;
            header.k = k as u64;
            let snap = Snapshot {
                header,
                clocks: done.clocks,
                waits: done.waits,
                sections: done
                    .sections
                    .into_iter()
                    .map(|s| s.expect("all sections deposited"))
                    .collect(),
            };
            let path = self.spec.dir.join(ckpt_filename(k));
            snap.write_atomic(&path)
                .unwrap_or_else(|e| panic!("writing checkpoint {}: {e}", path.display()));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Snapshot {
        Snapshot {
            header: SnapshotHeader {
                driver: DRIVER_FACTOR,
                fidelity: 1,
                k: 8,
                n: 2048,
                b: 128,
                p_r: 2,
                p_c: 2,
                ranks: 4,
                seed: 42,
                config_tag: 0xdead_beef,
            },
            clocks: vec![1.5, 1.5, 1.25, 1.5],
            waits: vec![0.5, 0.0, 0.25, 0.125],
            sections: vec![vec![1, 2, 3], vec![], vec![255; 17], vec![0]],
        }
    }

    #[test]
    fn roundtrips_bytes() {
        let s = sample();
        let t = Snapshot::from_bytes(&s.to_bytes()).unwrap();
        assert_eq!(t.header, s.header);
        assert_eq!(t.clocks, s.clocks);
        assert_eq!(t.waits, s.waits);
        assert_eq!(t.sections, s.sections);
    }

    #[test]
    fn rejects_bad_magic() {
        let mut b = sample().to_bytes();
        b[0] ^= 0xff;
        assert_eq!(Snapshot::from_bytes(&b), Err(SnapshotError::BadMagic));
    }

    #[test]
    fn rejects_bad_version() {
        let s = sample();
        let mut b = s.to_bytes();
        // Bump the version field, then re-seal the checksum so the version
        // check (not the checksum) is what rejects it.
        b[8] = 9;
        let body = b.len() - 8;
        let sum = fnv1a(&b[..body]);
        b[body..].copy_from_slice(&sum.to_le_bytes());
        assert_eq!(Snapshot::from_bytes(&b), Err(SnapshotError::BadVersion(9)));
    }

    #[test]
    fn rejects_truncation_at_every_cut() {
        let b = sample().to_bytes();
        for cut in [9, 40, b.len() / 2, b.len() - 1] {
            let err = Snapshot::from_bytes(&b[..cut]).unwrap_err();
            assert!(
                matches!(
                    err,
                    SnapshotError::Truncated | SnapshotError::ChecksumMismatch
                ),
                "cut at {cut} gave {err:?}"
            );
        }
    }

    #[test]
    fn rejects_flipped_byte_anywhere() {
        let clean = sample().to_bytes();
        for pos in [10, 20, clean.len() - 20, clean.len() - 9] {
            let mut b = clean.clone();
            b[pos] ^= 0x40;
            assert_eq!(
                Snapshot::from_bytes(&b),
                Err(SnapshotError::ChecksumMismatch),
                "flip at {pos}"
            );
        }
    }

    #[test]
    fn atomic_write_then_load() {
        let dir = std::env::temp_dir().join(format!("hplai-ckpt-unit-{}", std::process::id()));
        fs::create_dir_all(&dir).unwrap();
        let path = dir.join(ckpt_filename(8));
        let s = sample();
        s.write_atomic(&path).unwrap();
        let t = Snapshot::load(&path).unwrap();
        assert_eq!(t.header, s.header);
        // No temp litter left behind.
        assert_eq!(fs::read_dir(&dir).unwrap().count(), 1);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn latest_in_respects_abort_cursor() {
        let dir = std::env::temp_dir().join(format!("hplai-ckpt-latest-{}", std::process::id()));
        fs::create_dir_all(&dir).unwrap();
        for k in [4usize, 8, 12] {
            let mut s = sample();
            s.header.k = k as u64;
            s.write_atomic(&dir.join(ckpt_filename(k))).unwrap();
        }
        let pick = |max_k| {
            latest_in(&dir, max_k).map(|p| p.file_name().unwrap().to_string_lossy().into_owned())
        };
        assert_eq!(pick(20), Some(ckpt_filename(12)));
        // Post-fault snapshots (k > abort point) must be skipped.
        assert_eq!(pick(9), Some(ckpt_filename(8)));
        assert_eq!(pick(3), None);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn checkpointer_writes_once_all_ranks_deposit() {
        let dir = std::env::temp_dir().join(format!("hplai-ckpt-collect-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        let spec = CheckpointSpec::new(&dir, 4);
        let mut header = sample().header;
        header.ranks = 3;
        let ck = RunCheckpointer::new(spec, header).unwrap();
        assert!(!ck.due(0) && !ck.due(3) && ck.due(4) && ck.due(8));
        for rank in 0..3 {
            assert!(latest_in(&dir, usize::MAX).is_none() || rank == 3);
            ck.deposit(
                4,
                rank,
                1.0 + rank as f64,
                0.25 * rank as f64,
                vec![rank as u8],
            );
        }
        let snap = Snapshot::load(&latest_in(&dir, usize::MAX).unwrap()).unwrap();
        assert_eq!(snap.header.k, 4);
        assert_eq!(snap.clocks, vec![1.0, 2.0, 3.0]);
        assert_eq!(snap.waits, vec![0.0, 0.25, 0.5]);
        assert_eq!(snap.sections, vec![vec![0u8], vec![1], vec![2]]);
        fs::remove_dir_all(&dir).unwrap();
    }
}
