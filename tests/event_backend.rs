//! Cross-backend differential suite: the thread-per-rank functional
//! backend and the fiber-per-rank event-driven backend must be
//! observationally identical from the driver's point of view — same
//! traced communication-event sequence (operation, scope, bytes), same
//! simulated clocks, same solutions — across grid shapes and fidelities.
//! The event backend's schedule is a deterministic run-until-block order,
//! not an OS thread interleaving, so the agreement is required to be
//! bitwise, which is well inside the suite's nominal float tolerance.
//!
//! The `#[ignore]`d test at the bottom is the full-extent acceptance run:
//! all 75,264 Frontier ranks (9408 nodes × 8 GCDs) hosted as fibers in
//! this process, snapshotted against a golden report. CI's `event-scale`
//! job runs it in release mode; locally:
//! `cargo test --release -p hplai-core --test event_backend -- --ignored`.

use hplai_core::factor::{factor, FactorState};
use hplai_core::ir::ir_time_model;
use hplai_core::{
    run, run_with_backend, run_with_series, step_until_done, testbed, Backend, CommEvent,
    CommScope, PerfReport, ProcessGrid, RunConfig, Series,
};
use mxp_msgsim::BcastAlgo;
use proptest::prelude::*;

/// One traced comm event, reduced to the comparable fields: op label,
/// scope, payload bytes, and the clock columns as bits.
type EventSig = (&'static str, Option<CommScope>, u64, u64, u64);

fn signature(events: &[CommEvent]) -> Vec<EventSig> {
    events
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
        .collect()
}

/// The differential suite's timing-fidelity run on `grid`. `shards` fixes
/// the event scheduler's partition count (0 = automatic; ignored by the
/// thread backend).
fn timing_config(grid: ProcessGrid, algo: BcastAlgo, backend: Backend, shards: usize) -> RunConfig {
    let b = 512;
    // Smallest valid N at or past 8192: grids whose lcm does not divide
    // 16 blocks (e.g. 6x4) round up instead of failing validation.
    let n = hplai_core::adjust_n(8192, &grid, b);
    let nodes = grid.size() / grid.gcds_per_node();
    RunConfig::timing(testbed(nodes, grid.gcds_per_node()), grid, n, b)
        .algo(algo)
        .backend(backend)
        .event_shards(shards)
        .build()
        .expect("valid differential config")
}

/// Runs a timing-fidelity factorization on the given backend and returns
/// (per-rank final clocks as bits, per-rank event signatures).
fn timing_signature(
    grid: ProcessGrid,
    algo: BcastAlgo,
    backend: Backend,
    shards: usize,
) -> (Vec<u64>, Vec<Vec<EventSig>>) {
    let cfg = timing_config(grid, algo, backend, shards);
    let outs = run_with_backend(&cfg, |ctx| {
        let out = factor(ctx, &cfg, 1.0);
        (out.elapsed.to_bits(), signature(ctx.take_trace().events()))
    })
    .expect("differential grids fit both backends");
    outs.into_iter().unzip()
}

#[test]
fn backends_trace_identical_comm_sequences() {
    let grids = [
        ProcessGrid::node_local(2, 2, 2, 2),
        ProcessGrid::node_local(4, 2, 2, 2),
        ProcessGrid::node_local(2, 4, 2, 2),
        ProcessGrid::node_local(4, 4, 2, 2),
    ];
    for grid in grids {
        for algo in [BcastAlgo::Lib, BcastAlgo::Ring2M] {
            let (t_clocks, t_events) = timing_signature(grid, algo, Backend::Functional, 0);
            let (e_clocks, e_events) = timing_signature(grid, algo, Backend::EventTimed, 0);
            assert_eq!(
                t_clocks, e_clocks,
                "{}x{} {algo:?}: final clocks diverged across backends",
                grid.p_r, grid.p_c
            );
            // `run` traces rank 0 only; on either backend its trace must be
            // the one a tracing closure over the same stepper collects.
            for backend in [Backend::Functional, Backend::EventTimed] {
                let out = run(&timing_config(grid, algo, backend, 0));
                assert_eq!(
                    signature(out.trace_rank0.events()),
                    t_events[0],
                    "{}x{} {algo:?} {backend}: run()'s rank-0 trace diverged",
                    grid.p_r,
                    grid.p_c
                );
            }
            for (rank, (te, ee)) in t_events.iter().zip(&e_events).enumerate() {
                assert_eq!(
                    te, ee,
                    "{}x{} {algo:?} rank {rank}: comm event sequence diverged",
                    grid.p_r, grid.p_c
                );
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Shard invariance: every shard count — including counts that do not
    /// divide the rank count (7) and counts exceeding some shards' load —
    /// must reproduce the thread backend's clocks and comm signatures
    /// bitwise, on both broadcast algorithms. The scheduler partitions
    /// *host work*, never simulated semantics, and matching is exact on
    /// (src, tag, seq), so arrival interleaving cannot leak into clocks.
    #[test]
    fn sharded_scheduler_is_bitwise_shard_invariant(
        kr in 1usize..4,
        kc in 1usize..4,
        shards_idx in 0usize..4,
        ring in any::<bool>(),
    ) {
        let grid = ProcessGrid::node_local(2 * kr, 2 * kc, 2, 2);
        let algo = if ring { BcastAlgo::Ring2M } else { BcastAlgo::Lib };
        let shards = [1usize, 2, 4, 7][shards_idx];
        let reference = timing_signature(grid, algo, Backend::Functional, 0);
        let sharded = timing_signature(grid, algo, Backend::EventTimed, shards);
        prop_assert_eq!(
            &reference.0, &sharded.0,
            "{}x{} {:?} @ {} shards: clocks diverged", grid.p_r, grid.p_c, algo, shards
        );
        prop_assert_eq!(
            &reference.1, &sharded.1,
            "{}x{} {:?} @ {} shards: comm signatures diverged", grid.p_r, grid.p_c, algo, shards
        );
    }
}

/// A receive that can never be satisfied across a shard boundary must be
/// diagnosed, not hung: the termination protocol has to tell "every shard
/// idle because the job is done" from "every shard idle because a rank
/// blocks on a message nobody will send", and the panic must name the
/// blocked rank, what it waits for, and which shards own both ends — the
/// operator's first question when a multi-worker run wedges.
#[test]
fn cross_shard_deadlock_is_diagnosed_with_shard_ownership() {
    let mut spec = mxp_msgsim::WorldSpec::cluster(2, 4, mxp_netsim::frontier_network());
    spec.event_shards = 2; // ranks 0-3 on shard 0, ranks 4-7 on shard 1
    let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        spec.run_event::<(), _, _>(|mut c| {
            if c.rank() == 0 {
                // Rank 7 lives on the other shard and never sends tag 0x77.
                c.recv(7, 0x77);
            }
        });
    }))
    .expect_err("a never-satisfiable recv must panic, not hang");
    let msg = err
        .downcast_ref::<String>()
        .cloned()
        .or_else(|| err.downcast_ref::<&str>().map(|s| s.to_string()))
        .expect("deadlock panic carries a message");
    for needle in [
        "deadlock",
        "1 of 8 ranks",
        "2 shard(s)",
        "rank 0 (shard 0)",
        "src 7 @ shard 1",
        "tag 0x77",
    ] {
        assert!(
            msg.contains(needle),
            "deadlock diagnosis missing {needle:?}: {msg}"
        );
    }
}

#[test]
fn backends_agree_on_the_functional_solution() {
    // Real payloads on fibers: the solve itself (math, pivoting-free
    // mixed-precision path, IR) must come out bit-identical.
    let grid = ProcessGrid::node_local(2, 2, 2, 2);
    let base = RunConfig::functional(testbed(1, 4), grid, 128, 16);
    let threads = run_with_series(&base.clone().build().unwrap(), Series::AllRanks);
    let fibers = run_with_series(
        &base.backend(Backend::EventTimed).build().unwrap(),
        Series::AllRanks,
    );
    assert_eq!(threads.converged, fibers.converged);
    assert_eq!(
        threads.scaled_residual.unwrap().to_bits(),
        fibers.scaled_residual.unwrap().to_bits()
    );
    assert_eq!(threads.ir_iters, fibers.ir_iters);
    assert_eq!(threads.records, fibers.records);
    assert_eq!(
        threads.perf.runtime.to_bits(),
        fibers.perf.runtime.to_bits()
    );
}

#[test]
fn run_reports_backend_provenance() {
    let grid = ProcessGrid::node_local(2, 2, 2, 2);
    let cfg = RunConfig::timing(testbed(1, 4), grid, 2048, 256)
        .backend(Backend::EventTimed)
        .build()
        .unwrap();
    let out = run(&cfg);
    assert_eq!(out.perf.backend, Backend::EventTimed);
    assert_eq!(out.perf.simulated_ranks, 4);
    assert!(
        out.provenance.wall_vs_virtual_time > 0.0,
        "hosted runs must report their host cost"
    );
}

/// The report holds simulated quantities only: the event scheduler's
/// shard count reaches the provenance, never the report's bytes.
#[test]
fn report_bytes_do_not_depend_on_the_shard_count() {
    let grid = ProcessGrid::node_local(2, 2, 2, 2);
    let base = RunConfig::timing(testbed(1, 4), grid, 2048, 256);
    let hosted = |shards: usize| {
        run(&base
            .clone()
            .backend(Backend::EventTimed)
            .event_shards(shards)
            .build()
            .unwrap())
    };
    let (one, four) = (hosted(1), hosted(4));
    assert_eq!(
        serde_json::to_string(&one.perf).unwrap(),
        serde_json::to_string(&four.perf).unwrap()
    );
    assert_eq!(
        (one.provenance.event_shards, four.provenance.event_shards),
        (1, 4)
    );
    for out in [&one, &four] {
        assert!(out.provenance.wall_vs_virtual_time > 0.0);
    }
    let threads = run(&base.build().unwrap());
    assert_eq!(threads.provenance.event_shards, 0);
}

/// Compares `actual` against the checked-in snapshot, or rewrites it when
/// `GOLDEN_REGEN` is set (same contract as `golden_trace.rs`).
fn assert_golden(actual: &str, name: &str) {
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../../tests/golden")
        .join(name);
    if std::env::var_os("GOLDEN_REGEN").is_some() {
        std::fs::write(&path, actual).unwrap_or_else(|e| panic!("rewrite {path:?}: {e}"));
        return;
    }
    let golden = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!("missing tests/golden/{name} ({e}); GOLDEN_REGEN=1 generates it")
    });
    assert_eq!(
        actual, golden,
        "output diverged from tests/golden/{name} \
         (GOLDEN_REGEN=1 regenerates the snapshot if the change is intended)"
    );
}

/// The full Frontier extent — the fig8 9408-node × 8-GCD point — on the
/// event backend, pinned against a golden performance report. One process,
/// 75,264 rank fibers, 672 factorization iterations at the paper's
/// B = 3072. The report holds simulated quantities only, so every byte
/// of it is deterministic.
///
/// The run is pinned to **4 shards**: the golden was produced by the
/// serial scheduler, so passing here proves the parallel cross-shard
/// delivery path reproduces it bitwise at full machine scale (the 1-shard
/// case is covered by the proptest matrix above at small scale).
#[test]
#[ignore = "full-machine extent: run in release via CI's event-scale job"]
fn full_frontier_extent_matches_golden_report() {
    let sys = hplai_core::frontier();
    let grid = ProcessGrid::node_local(224, 336, 2, 4);
    assert_eq!(grid.size(), 75_264);
    let b = sys.paper_b;
    let n = hplai_core::adjust_n(1, &grid, b); // minimum N tiling the grid
    let cfg = RunConfig::timing(sys.clone(), grid, n, b)
        .backend(Backend::EventTimed)
        .event_shards(4)
        .build()
        .unwrap();
    let outs = run_with_backend(&cfg, |ctx| {
        // 75k rank traces, or record series, would dominate memory.
        ctx.set_tracing(false);
        let state = FactorState::new(ctx, &cfg, 1.0.into()).keep_series(false);
        let out = step_until_done(ctx, state, None).0;
        let ir = ir_time_model(&sys, n, ctx.grid().size(), 3);
        ctx.charge(ir);
        (
            out.elapsed + ir,
            out.elapsed,
            ir,
            ctx.bytes_sent(),
            ctx.wait_total(),
        )
    })
    .expect("event backend hosts the full machine");
    assert_eq!(outs.len(), 75_264);
    let runtime = outs.iter().map(|r| r.0).fold(0.0, f64::max);
    let factor_time = outs.iter().map(|r| r.1).fold(0.0, f64::max);
    let ir_time = outs.iter().map(|r| r.2).fold(0.0, f64::max);
    let bytes = outs.iter().map(|r| r.3).sum::<u64>();
    let wait = outs.iter().map(|r| r.4).fold(0.0, f64::max);
    let perf = PerfReport::new(n, grid.size(), runtime, factor_time, ir_time)
        .with_comm(bytes, wait)
        .with_backend(Backend::EventTimed, grid.size());
    let json = serde_json::to_string_pretty(&perf).expect("serialize") + "\n";
    assert_golden(&json, "event_fig8_9408x8.json");
}
