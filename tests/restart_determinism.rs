//! Checkpoint → restart bitwise-determinism suite.
//!
//! The resilience contract: an interrupted-and-restarted run is
//! *indistinguishable* from an uninterrupted one — byte-identical
//! solution, bit-identical simulated clocks, and an event signature that
//! is exactly the uninterrupted run's tail from the resumed boundary on.
//! The proptest matrix exercises the contract across both runtime
//! backends, event-scheduler shard counts {1, 4}, both broadcast
//! algorithms, and non-square grids; the corruption tests pin the typed
//! rejection path (a damaged snapshot must fail loudly with a
//! [`SnapshotError`], never resume wrong).

use hplai_core::checkpoint::{latest_in, RunCheckpointer};
use hplai_core::factor::FactorState;
use hplai_core::trace::PhaseTotals;
use hplai_core::{
    adjust_n, run, run_observed, run_sequence, snapshot_header, step_until_done, testbed, Backend,
    CheckpointSpec, CommScope, ConfigError, ProcessGrid, RunConfig, RunOutcome, Snapshot,
    SnapshotError,
};
use mxp_msgsim::BcastAlgo;
use proptest::prelude::*;
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

static DIR_SEQ: AtomicUsize = AtomicUsize::new(0);

/// A unique scratch checkpoint directory (tests run concurrently).
fn scratch_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "hplai-restart-det-{}-{}-{tag}",
        std::process::id(),
        DIR_SEQ.fetch_add(1, Ordering::Relaxed)
    ));
    std::fs::remove_dir_all(&dir).ok();
    dir
}

/// [`run`], with every rank's series taken from a `Vec` observer on the
/// same run.
fn run_every_series(cfg: &RunConfig) -> RunOutcome {
    let (mut out, series) = run_observed(cfg, |_| Some(Vec::new()));
    out.records = series.into_iter().map(Option::unwrap_or_default).collect();
    out
}

/// Runs the checkpointed functional solve to completion, resumes a second
/// run from a mid-run snapshot, and asserts the restarted run reproduces
/// the uninterrupted one bitwise: solution, residual, clocks, and the
/// tail of the per-rank record stream.
fn assert_restart_bitwise(grid: ProcessGrid, algo: BcastAlgo, backend: Backend, shards: usize) {
    let label = format!(
        "{}x{} {algo:?} {backend:?} @ {shards} shards",
        grid.p_r, grid.p_c
    );
    let dir = scratch_dir(&format!("{}x{}", grid.p_r, grid.p_c));
    let b = 16;
    let n = adjust_n(256, &grid, b);
    let n_b = n / b;
    let gpn = grid.gcds_per_node();
    let sys = testbed(grid.size() / gpn, gpn);
    let base = RunConfig::functional(sys, grid, n, b)
        .algo(algo)
        .backend(backend)
        .event_shards(shards)
        .checkpoint(CheckpointSpec::new(&dir, 3));
    let full = run_every_series(&base.clone().build().unwrap());

    // Resume from a mid-run boundary, not the newest snapshot: the
    // restarted run must redo a real tail, not a final sliver.
    let path = latest_in(&dir, n_b / 2).expect("mid-run snapshot exists");
    let snap = Snapshot::load(&path).expect("snapshot loads");
    let from_k = snap.header.k as usize;
    assert!(0 < from_k && from_k < n_b, "{label}: mid-run cursor");
    let resumed = run_every_series(&base.restart_from(Arc::new(snap)).build().unwrap());

    let (xa, xb) = (
        full.solution.as_ref().expect("functional solution"),
        resumed.solution.as_ref().expect("functional solution"),
    );
    assert_eq!(xa.len(), xb.len(), "{label}: solution length");
    assert!(
        xa.iter().zip(xb).all(|(a, b)| a.to_bits() == b.to_bits()),
        "{label}: solution bits diverged after restart"
    );
    assert_eq!(
        full.scaled_residual.unwrap().to_bits(),
        resumed.scaled_residual.unwrap().to_bits(),
        "{label}: residual"
    );
    assert_eq!(full.ir_iters, resumed.ir_iters, "{label}: IR sweeps");
    assert_eq!(
        full.perf.runtime.to_bits(),
        resumed.perf.runtime.to_bits(),
        "{label}: final clock"
    );
    assert_eq!(
        full.perf.factor_time.to_bits(),
        resumed.perf.factor_time.to_bits(),
        "{label}: factorization clock"
    );
    // A resumed run reports the tail it actually executed — exactly the
    // uninterrupted run's records from the boundary on.
    for (rank, (fa, fb)) in full.records.iter().zip(&resumed.records).enumerate() {
        let tail: Vec<_> = fa.iter().filter(|r| r.k >= from_k).cloned().collect();
        assert_eq!(&tail, fb, "{label} rank {rank}: record tail");
    }
    assert_eq!(
        resumed.provenance.restart_count, 1,
        "{label}: restart provenance"
    );
    std::fs::remove_dir_all(&dir).ok();
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// The full matrix: backend × shard count × broadcast algorithm ×
    /// non-square grid orientation. Shard counts only steer the event
    /// scheduler's host-work partition, so they must never show up in
    /// anything this suite compares.
    #[test]
    fn restart_is_bitwise_identical_across_the_matrix(
        event in any::<bool>(),
        four_shards in any::<bool>(),
        ring in any::<bool>(),
        tall in any::<bool>(),
    ) {
        let grid = if tall {
            ProcessGrid::col_major(3, 2, 6)
        } else {
            ProcessGrid::col_major(2, 3, 6)
        };
        let algo = if ring { BcastAlgo::Ring2M } else { BcastAlgo::Lib };
        let backend = if event { Backend::EventTimed } else { Backend::Functional };
        let shards = if four_shards { 4 } else { 1 };
        assert_restart_bitwise(grid, algo, backend, shards);
    }
}

/// Every field's bit pattern, so `0.0` vs `-0.0` cannot hide behind `==`.
fn totals_bits(t: &PhaseTotals) -> [u64; 7] {
    [t.getrf, t.trsm, t.cast, t.gemm, t.bcast, t.wait, t.hidden].map(f64::to_bits)
}

/// Runs `cfg` keeping rank 0's series and keeping every rank's, and
/// asserts the folded totals are bitwise the sums of the full series.
fn assert_totals_fold_the_series(cfg: &RunConfig, label: &str) -> RunOutcome {
    let folded = run(cfg);
    let all = run_every_series(cfg);
    assert_eq!(folded.records[0], all.records[0], "{label}: rank 0 series");
    assert!(
        folded.records[1..].iter().all(Vec::is_empty),
        "{label}: only rank 0 keeps its series"
    );
    for (rank, series) in all.records.iter().enumerate() {
        assert!(!series.is_empty(), "{label} rank {rank}: empty series");
        let want = totals_bits(&PhaseTotals::from_records(series));
        assert_eq!(
            totals_bits(&folded.totals[rank]),
            want,
            "{label} rank {rank}"
        );
        assert_eq!(totals_bits(&all.totals[rank]), want, "{label} rank {rank}");
    }
    // The overlap column as it was computed from the full series.
    let hidden = all
        .records
        .iter()
        .map(|s| s.iter().map(|r| r.hidden).sum::<f64>())
        .sum::<f64>()
        / all.records.len() as f64;
    assert!(hidden > 0.0, "{label}: look-ahead hid nothing");
    assert_eq!(
        folded.perf.overlap_hidden.to_bits(),
        hidden.to_bits(),
        "{label}"
    );
    assert_eq!(
        all.perf.overlap_hidden.to_bits(),
        hidden.to_bits(),
        "{label}"
    );
    all
}

/// `run()` folds every rank but 0 into per-phase totals. The fold must be
/// bitwise the sum of the series it no longer keeps — including the last
/// record, which a checkpoint drain and `finish` amend after it is pushed
/// — on both hosts, at 1 and 4 shards, and on a resumed run.
#[test]
fn run_totals_fold_every_rank_series_bitwise() {
    let grid = ProcessGrid::col_major(2, 3, 6);
    let b = 16;
    let n = adjust_n(256, &grid, b);
    let sys = testbed(1, 6);
    for (backend, shards) in [
        (Backend::Functional, 1),
        (Backend::EventTimed, 1),
        (Backend::EventTimed, 4),
    ] {
        let label = format!("{backend:?} @ {shards} shards");
        let dir = scratch_dir("fold");
        let base = RunConfig::functional(sys.clone(), grid, n, b)
            .backend(backend)
            .event_shards(shards)
            .checkpoint(CheckpointSpec::new(&dir, 3));
        let cfg = base.clone().build().unwrap();
        assert!(cfg.lookahead);
        let full = assert_totals_fold_the_series(&cfg, &label);
        assert!(
            full.provenance.checkpoint_bytes > 0,
            "{label}: no drain ran"
        );

        let snap = Snapshot::load(&latest_in(&dir, n / b / 2).unwrap()).unwrap();
        let resumed = base.restart_from(Arc::new(snap)).build().unwrap();
        assert_totals_fold_the_series(&resumed, &format!("{label}, resumed"));
        std::fs::remove_dir_all(&dir).ok();
    }
}

/// One traced comm event, reduced to the comparable fields (op label,
/// scope, payload bytes, clock columns as bits) — the same signature shape
/// as the cross-backend differential suite.
type EventSig = (&'static str, Option<CommScope>, u64, u64, u64);

/// Drives the factorization stepper directly (timing fidelity) with the
/// comm trace on, optionally checkpointing / resuming, and returns every
/// rank's (final clock bits, event signature).
fn traced_factor(cfg: &RunConfig, ck: Option<&RunCheckpointer>) -> Vec<(u64, Vec<EventSig>)> {
    hplai_core::run_with_backend(cfg, |ctx| {
        let speed = cfg.faults.speed_for(ctx.rank(), 1.0);
        let state = FactorState::new(ctx, cfg, speed);
        let (out, _) = step_until_done(ctx, state, ck);
        let events = ctx
            .take_trace()
            .events()
            .iter()
            .map(|e| {
                (
                    e.op.label(),
                    e.scope,
                    e.bytes,
                    e.ts.to_bits(),
                    e.waited.to_bits(),
                )
            })
            .collect::<Vec<_>>();
        (out.elapsed.to_bits(), events)
    })
    .expect("both backends host the grid")
}

/// The event-signature half of the contract: from the resumed boundary
/// on, a restarted run emits the *identical* traced event sequence —
/// operation, scope, bytes, and timestamps to the bit — as the suffix of
/// the uninterrupted run, on both backends.
#[test]
fn restarted_event_signatures_match_the_uninterrupted_tail() {
    for (backend, shards) in [
        (Backend::Functional, 0),
        (Backend::EventTimed, 1),
        (Backend::EventTimed, 4),
    ] {
        let grid = ProcessGrid::col_major(2, 3, 6);
        let b = 128;
        let n = adjust_n(1536, &grid, b);
        let dir = scratch_dir("trace");
        let base = RunConfig::timing(testbed(1, 6), grid, n, b)
            .backend(backend)
            .event_shards(shards)
            .checkpoint(CheckpointSpec::new(&dir, 4));
        let cfg = base.clone().build().unwrap();
        let spec = cfg.checkpoint.clone().unwrap();
        let ck = RunCheckpointer::new(spec.clone(), snapshot_header(&cfg)).unwrap();
        let full = traced_factor(&cfg, Some(&ck));

        let path = latest_in(&dir, n / b / 2).expect("mid-run snapshot");
        let snap = Snapshot::load(&path).expect("snapshot loads");
        let cfg2 = base.restart_from(Arc::new(snap)).build().unwrap();
        let ck2 = RunCheckpointer::new(spec, snapshot_header(&cfg2)).unwrap();
        let resumed = traced_factor(&cfg2, Some(&ck2));

        for (rank, ((fc, fe), (rc, re))) in full.iter().zip(&resumed).enumerate() {
            assert_eq!(
                fc, rc,
                "{backend:?} @ {shards} shards rank {rank}: final clocks diverged"
            );
            assert!(
                re.len() < fe.len(),
                "{backend:?} rank {rank}: a resumed run must trace a strict tail"
            );
            let tail = &fe[fe.len() - re.len()..];
            assert_eq!(
                tail,
                &re[..],
                "{backend:?} @ {shards} shards rank {rank}: restarted event \
                 signature is not the uninterrupted run's tail"
            );
        }
        std::fs::remove_dir_all(&dir).ok();
    }
}

/// Damaged snapshots are rejected with typed errors — never a wrong
/// resume. Covers a bit flip (checksum), a truncation (structure), a
/// foreign file (magic), and a configuration mismatch (builder-level
/// validation against the run the snapshot claims to belong to).
#[test]
fn corrupt_and_truncated_snapshots_are_rejected() {
    let grid = ProcessGrid::col_major(2, 2, 4);
    let b = 128;
    let n = 1024;
    let dir = scratch_dir("corrupt");
    let base =
        RunConfig::timing(testbed(1, 4), grid, n, b).checkpoint(CheckpointSpec::new(&dir, 2));
    run(&base.clone().build().unwrap());
    let path = latest_in(&dir, usize::MAX).expect("snapshot written");
    let good = std::fs::read(&path).unwrap();

    // Bit flip in the payload: the FNV-1a trailer catches it.
    let mut flipped = good.clone();
    let mid = flipped.len() / 2;
    flipped[mid] ^= 0x01;
    std::fs::write(&path, &flipped).unwrap();
    assert_eq!(
        Snapshot::load(&path).unwrap_err(),
        SnapshotError::ChecksumMismatch
    );

    // Truncation: the file ends before the structure it promises.
    std::fs::write(&path, &good[..good.len() / 2]).unwrap();
    assert!(matches!(
        Snapshot::load(&path).unwrap_err(),
        SnapshotError::Truncated | SnapshotError::ChecksumMismatch
    ));

    // A foreign file fails on magic before anything else.
    std::fs::write(&path, b"definitely not a checkpoint").unwrap();
    assert_eq!(Snapshot::load(&path).unwrap_err(), SnapshotError::BadMagic);

    // A valid snapshot of a *different* run is refused at build time.
    std::fs::write(&path, &good).unwrap();
    let snap = Snapshot::load(&path).expect("restored snapshot loads");
    let other = RunConfig::timing(testbed(1, 4), grid, 2 * n, b)
        .restart_from(Arc::new(snap))
        .build();
    assert!(
        matches!(other, Err(ConfigError::SnapshotMismatch { .. })),
        "a snapshot from another problem size must not build: {other:?}"
    );
    std::fs::remove_dir_all(&dir).ok();
}

/// `run_sequence` stretches each outcome's simulated clock, but every
/// outcome keeps the nominal run's provenance unchanged: the same shards,
/// checkpoint drains and host cost, not a report rebuilt from zeros.
#[test]
fn run_sequence_keeps_the_nominal_provenance() {
    let grid = ProcessGrid::col_major(2, 2, 4);
    let b = 16;
    let n = adjust_n(128, &grid, b);
    let mut sys = testbed(1, 4);
    // A cold Summit sequence: the first run's clock is stretched.
    sys.warmup = mxp_gpusim::thermal::WarmupProfile::Summit;
    let dir = scratch_dir("sequence");
    let cfg = RunConfig::functional(sys, grid, n, b)
        .backend(Backend::EventTimed)
        .event_shards(4)
        .checkpoint(CheckpointSpec::new(&dir, 3))
        .build()
        .unwrap();
    let single = run(&cfg).provenance;
    assert!(single.checkpoint_bytes > 0, "no drain ran");
    let seq = run_sequence(&cfg, 3, false);
    assert_eq!(seq.len(), 3);
    assert!(
        seq[0].perf.runtime > seq[1].perf.runtime,
        "no warm-up stretch"
    );
    let nominal = seq[0].provenance;
    assert!(nominal.wall_vs_virtual_time > 0.0);
    for (r, out) in seq.iter().enumerate() {
        let p = out.provenance;
        // Simulated drains and host layout match a single run's...
        assert_eq!(p.simd_isa, single.simd_isa, "run {r}");
        assert_eq!(p.event_shards, single.event_shards, "run {r}");
        assert_eq!(p.checkpoint_bytes, single.checkpoint_bytes, "run {r}");
        assert_eq!(
            p.checkpoint_time.to_bits(),
            single.checkpoint_time.to_bits(),
            "run {r}"
        );
        assert_eq!(p.restart_count, single.restart_count, "run {r}");
        // ...and the host timings are the nominal run's, copied unscaled.
        assert_eq!(
            p.wall_vs_virtual_time.to_bits(),
            nominal.wall_vs_virtual_time.to_bits(),
            "run {r}"
        );
        assert_eq!(
            p.sched_overhead.to_bits(),
            nominal.sched_overhead.to_bits(),
            "run {r}"
        );
    }
    assert_eq!(single.event_shards, 4);
    std::fs::remove_dir_all(&dir).ok();
}
