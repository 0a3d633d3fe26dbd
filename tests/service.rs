//! Multi-solve service: the determinism-first test posture.
//!
//! Four pillars, one per ISSUE satellite:
//!
//! 1. **Cache key properties** (proptest): the same `(seed, N, generator)`
//!    key returns the bitwise-identical generated buffer; a key differing
//!    in *any* field misses.
//! 2. **Concurrency determinism**: a mixed batch (seeds × algorithms ×
//!    precisions × both backends) drained with `workers = 4` produces
//!    bitwise the same per-job solutions, simulated clocks and event
//!    signatures as `workers = 1`. Wall-clock provenance (latency, the
//!    run's `RunProvenance`) is outside every signature by construction.
//! 3. **Event-log collision regression**: supervised jobs sharing one
//!    output directory get uniquely-named per-job files whose every line
//!    carries the right job id.
//! 4. **Warm scratch arenas**: a repeated-shape batch on the event
//!    backend stops allocating after the first job — per-job arena miss
//!    counters are zero across the warm tail.

use hplai_core::{
    job_log_filename, parse_batch, testbed, Backend, LocalMatrix, MatrixCache, MatrixKey,
    ProcessGrid, RunConfig, ServiceConfig, SolveService, TrailingPrecision,
};
use mxp_lcg::{MatrixGen, MatrixKind};
use mxp_msgsim::BcastAlgo;
use proptest::prelude::*;

/// Generates the local share for a cache key exactly the way the factor
/// path does: pure function of the key, nothing else.
fn generate(key: &MatrixKey) -> Vec<f32> {
    let grid = ProcessGrid::col_major(key.p_r, key.p_c, key.p_r * key.p_c);
    let gen = MatrixGen::new(key.seed, key.n, key.kind);
    let mut m = LocalMatrix::new(&grid, key.coord, key.n, key.b);
    m.fill_from(&gen);
    m.data
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Same `(seed, N, generator params)` → the cache returns the
    /// bitwise-identical buffer (in fact the same allocation), and an
    /// independent regeneration matches it bit for bit — generation is a
    /// pure function of the key.
    #[test]
    fn same_key_hits_bitwise_identical_buffer(
        seed in 0u64..1000,
        n_i in 1usize..5,
        coord_r in 0usize..2,
        coord_c in 0usize..2,
    ) {
        let key = MatrixKey {
            seed,
            n: n_i * 32,
            b: 8,
            p_r: 2,
            p_c: 2,
            coord: (coord_r, coord_c),
            kind: MatrixKind::DiagDominant,
        };
        let cache = MatrixCache::new(64 << 20);
        let first = cache.get_or_fill(key, || generate(&key));
        let second = cache.get_or_fill(key, || panic!("second lookup must hit"));
        prop_assert!(std::sync::Arc::ptr_eq(&first, &second));
        let fresh = generate(&key);
        prop_assert_eq!(first.len(), fresh.len());
        for (a, b) in first.iter().zip(&fresh) {
            prop_assert_eq!(a.to_bits(), b.to_bits());
        }
        let s = cache.stats();
        prop_assert_eq!((s.hits, s.misses), (1, 1));
    }

    /// A key differing in any single field misses: the differing copy
    /// fills independently and the hit counter stays untouched.
    #[test]
    fn any_differing_key_field_misses(seed in 0u64..1000, field in 0usize..7) {
        let base = MatrixKey {
            seed,
            n: 64,
            b: 8,
            p_r: 2,
            p_c: 2,
            coord: (0, 0),
            kind: MatrixKind::DiagDominant,
        };
        let mut other = base;
        match field {
            0 => other.seed = seed + 1,
            1 => other.n = 128,
            2 => other.b = 16,
            3 => other.p_r = 4,
            4 => other.p_c = 1,
            5 => other.coord = (0, 1),
            // Uniform is the only other generator kind today; the match
            // arm count tracks the key's field count by construction.
            _ => other.kind = MatrixKind::Uniform,
        }
        prop_assert!(base != other, "field {} did not change the key", field);
        let cache = MatrixCache::new(64 << 20);
        cache.get_or_fill(base, || generate(&base));
        cache.get_or_fill(other, || generate(&other));
        let s = cache.stats();
        prop_assert_eq!((s.hits, s.misses, s.entries), (0, 2, 2));
    }
}

/// The mixed determinism batch: seeds × broadcast algorithms ×
/// precisions, half on each runtime backend — every axis the cache key
/// must ignore plus the axes it must include.
fn mixed_batch() -> Vec<RunConfig> {
    let grid = ProcessGrid::col_major(2, 2, 4);
    let mut jobs = Vec::new();
    for seed in [11u64, 12] {
        for algo in [BcastAlgo::Lib, BcastAlgo::Ring2M] {
            for prec in [TrailingPrecision::Fp16, TrailingPrecision::Bf16] {
                for backend in [Backend::Functional, Backend::EventTimed] {
                    jobs.push(
                        RunConfig::functional(testbed(1, 4), grid, 64, 8)
                            .seed(seed)
                            .algo(algo)
                            .prec(prec)
                            .backend(backend)
                            .build()
                            .unwrap(),
                    );
                }
            }
        }
    }
    jobs
}

/// Satellite 2: draining the same mixed batch with 4 workers and with 1
/// worker yields bitwise-identical simulated results per job — solutions,
/// clocks, event logs — on both runtime backends at once.
#[test]
fn concurrent_drain_matches_sequential_bitwise() {
    let drain_with = |workers: usize| {
        let mut svc = SolveService::new(ServiceConfig {
            workers,
            ..Default::default()
        });
        svc.submit_all(mixed_batch());
        svc.drain()
    };
    let concurrent = drain_with(4);
    let sequential = drain_with(1);
    assert_eq!(concurrent.workers, 4);
    assert_eq!(sequential.workers, 1);
    assert_eq!(concurrent.jobs.len(), sequential.jobs.len());
    for (c, s) in concurrent.jobs.iter().zip(&sequential.jobs) {
        assert_eq!(c.id, s.id);
        // The one-number check: the signature digests the tagged event
        // log, solution bits, per-rank records and the performance
        // report, which holds simulated quantities only.
        assert_eq!(
            c.signature(),
            s.signature(),
            "job {} diverged between 4 workers and 1",
            c.id
        );
        // And the load-bearing pieces explicitly, for a readable failure:
        let (co, so) = (&c.outcome.outcome, &s.outcome.outcome);
        assert_eq!(co.perf, so.perf); // PartialEq already excludes wall-clock
        assert_eq!(co.ir_iters, so.ir_iters);
        assert_eq!(
            co.scaled_residual.map(f64::to_bits),
            so.scaled_residual.map(f64::to_bits)
        );
        let (cx, sx) = (co.solution.as_ref().unwrap(), so.solution.as_ref().unwrap());
        assert!(cx.iter().zip(sx).all(|(a, b)| a.to_bits() == b.to_bits()));
        assert_eq!(c.outcome.events.len(), s.outcome.events.len());
    }
    // The cache sees the same universe of keys either way: 2 seeds × 4
    // ranks fill once each; the algorithm/precision/backend sweep reuses
    // them (those axes are not part of the key).
    assert_eq!(concurrent.cache.misses, sequential.cache.misses);
    assert_eq!(concurrent.cache.misses, 8);
    assert_eq!(
        concurrent.cache.hits + concurrent.cache.misses,
        16 * 4, // jobs × ranks
    );
}

/// Satellite 3 (regression): two supervised jobs sharing one log
/// directory used to interleave/clobber one JSONL stream; now each job
/// writes its own uniquely-named file and every line is tagged with the
/// owning job id as the first member.
#[test]
fn shared_log_dir_keeps_per_job_streams_separate() {
    let dir = std::env::temp_dir().join(format!("hplai-service-logs-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let mut svc = SolveService::new(ServiceConfig {
        workers: 2,
        log_dir: Some(dir.clone()),
        ..Default::default()
    });
    let grid = ProcessGrid::col_major(2, 2, 4);
    let ids = svc.submit_all((0..4u64).map(|i| {
        RunConfig::functional(testbed(1, 4), grid, 64, 8)
            .seed(100 + i)
            .build()
            .unwrap()
    }));
    let report = svc.drain();

    let mut names: Vec<String> = std::fs::read_dir(&dir)
        .expect("log dir exists")
        .map(|e| e.unwrap().file_name().into_string().unwrap())
        .collect();
    names.sort();
    let mut expected: Vec<String> = ids.iter().map(|&id| job_log_filename(id)).collect();
    expected.sort();
    assert_eq!(names, expected, "one uniquely-named file per job");

    for (job, rec) in ids.iter().zip(&report.jobs) {
        let text = std::fs::read_to_string(dir.join(job_log_filename(*job))).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), rec.outcome.events.len());
        for line in lines {
            let v: serde_json::Value = serde_json::from_str(line).expect("valid JSON line");
            assert_eq!(v["job"].as_f64(), Some(*job as f64), "line: {line}");
            assert!(v.get("event").is_some());
            assert!(
                line.starts_with(&format!("{{\"job\":{job},")),
                "job id leads the line for grep-ability: {line}"
            );
        }
    }
    std::fs::remove_dir_all(&dir).unwrap();
}

/// Satellite 4: a warm batch of repeated-shape solves through the service
/// path stops allocating scratch after the first job. The event backend
/// hosts every rank fiber on the worker thread itself, so with one worker
/// the thread-local arenas of job 0 serve every later job: per-job miss
/// counters are zero across the tail.
#[test]
fn warm_repeated_shape_batch_has_zero_scratch_misses() {
    let mut svc = SolveService::new(ServiceConfig {
        workers: 1,
        ..Default::default()
    });
    let grid = ProcessGrid::col_major(2, 2, 4);
    svc.submit_all((0..8u64).map(|i| {
        RunConfig::functional(testbed(1, 4), grid, 64, 8)
            .seed(200 + i)
            .backend(Backend::EventTimed)
            .build()
            .unwrap()
    }));
    let report = svc.drain();
    assert_eq!(report.jobs.len(), 8);
    let first = &report.jobs[0];
    assert!(
        first.scratch_acquires > 0,
        "the service path goes through the scratch arenas at all"
    );
    for j in &report.jobs[1..] {
        assert!(
            j.scratch_acquires > 0,
            "job {} reuses arenas rather than bypassing them",
            j.id
        );
        assert_eq!(
            j.scratch_misses, 0,
            "job {} allocated scratch in the warm steady state",
            j.id
        );
    }
}

/// The batch grammar and the service compose: a sweep document drains to
/// converged jobs whose cache counters prove input reuse across the
/// algorithm/precision axes.
#[test]
fn batch_file_drives_the_service_end_to_end() {
    let batch = parse_batch(
        r#"{
            "service": {"workers": 2},
            "defaults": {"n": 64, "b": 8, "pr": 2, "pc": 2, "seed": 5},
            "jobs": [
                {"algo": ["bcast", "ring2m"], "backend": ["threads", "event"]},
                {"precision": "bf16", "repeat": 2}
            ]
        }"#,
    )
    .expect("valid batch");
    assert_eq!(batch.jobs.len(), 6);
    let mut svc = SolveService::new(ServiceConfig {
        workers: batch.workers.unwrap(),
        ..Default::default()
    });
    svc.submit_all(batch.jobs);
    let report = svc.drain();
    assert!(report.jobs.iter().all(|j| j.outcome.outcome.converged));
    // Seeds 5 and 6 (repeat bumps the second copy) × 4 ranks generate;
    // everything else is a hit.
    assert_eq!(report.cache.misses, 8);
    assert_eq!(report.cache.hits, 6 * 4 - 8);
    assert!(report.solves_per_sec > 0.0);
}
