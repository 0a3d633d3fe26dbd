//! # hplai-core — the HPL-AI / HPL-MxP benchmark
//!
//! The paper's primary contribution, rebuilt on the simulated substrates:
//! a distributed, GPU-resident, mixed-precision LU factorization
//! (FP32 diagonal/panels, FP16 trailing updates) followed by FP64 iterative
//! refinement, with the full tuning surface the paper explores — block size
//! `B`, local problem size `N_L`, process grid and node-local grid,
//! broadcast algorithm, look-ahead, GPU-aware communication, port binding,
//! fleet variability and warm-up.
//!
//! One algorithm, three fidelities:
//!
//! * **Functional** ([`Fidelity::Functional`]) — ranks are threads, panels
//!   are real `f32`/`F16` buffers, the math actually runs, and the solve is
//!   verified against the paper's convergence criterion (Algorithm 1 line
//!   44). This is the correctness story.
//! * **Emergent timing** ([`Fidelity::Timing`]) — the identical driver with
//!   virtual payloads; per-rank LogP clocks from `mxp-msgsim` price every
//!   kernel and message. Used up to O(10³) ranks.
//! * **Critical path** ([`critical`]) — an O(N/B) recurrence using the same
//!   kernel-time surfaces and closed-form broadcast costs, for
//!   Summit/Frontier-scale projections (Figs. 4, 8, 9, 11). An integration
//!   test pins it against the emergent driver at small scale.
//!
//! Orthogonally, the emergent fidelities run on either of two runtime
//! *backends*, the variants of [`Backend`], selected with
//! [`RunConfigBuilder::backend`](solve::RunConfigBuilder::backend):
//! [`Backend::Functional`] hosts each rank on an OS thread (real payloads,
//! up to O(10³) ranks), while [`Backend::EventTimed`] schedules ranks as
//! fiber continuations under a discrete-event simulator — one process
//! hosts full Summit/Frontier rank counts (75,264 ranks) with
//! bit-identical simulated clocks. Drivers are backend-agnostic: the same
//! [`RankCtx`] code runs unmodified on both.
//!
//! ```
//! use hplai_core::{run, testbed, ProcessGrid, RunConfig};
//!
//! // Solve a 128x128 mixed-precision system on 4 simulated GCDs and
//! // verify it to FP64 accuracy.
//! let grid = ProcessGrid::col_major(2, 2, 4);
//! let cfg = RunConfig::functional(testbed(1, 4), grid, 128, 16)
//!     .build()
//!     .unwrap();
//! let out = run(&cfg);
//! assert!(out.converged);
//! assert!(out.scaled_residual.unwrap() < 16.0);
//! ```
//!
//! Operational robustness (§VI-B) is covered by [`fault`] (injectable
//! device/link fault states), [`progress`] (per-component progress
//! monitoring), [`scan`] (the slow-node mini-benchmark), and
//! [`supervisor`] (typed run events plus automated recovery policies).

#![deny(missing_docs)]

pub mod cache;
pub mod checkpoint;
pub mod critical;
pub mod factor;
pub mod fault;
pub mod grid;
pub mod hpl;
pub mod hpl_dist;
pub mod ir;
pub mod local;
pub mod metrics;
pub mod msg;
pub mod progress;
pub mod report;
pub mod runtime;
pub mod scan;
pub mod service;
pub mod solve;
pub mod supervisor;
pub mod systems;
pub mod trace;

pub use cache::{CacheStats, MatrixCache, MatrixKey};
pub use checkpoint::{CheckpointSpec, Snapshot, SnapshotError, SnapshotHeader};
pub use factor::{Fidelity, IterRecord, RecordObserver};
pub use fault::FaultPlan;
pub use grid::{ProcessGrid, RankOrder};
pub use local::{LocalMat, LocalMatrix};
pub use metrics::{gflops_per_gcd, hplai_flops, parallel_efficiency};
pub use msg::{PanelData, PanelMsg, TrailingPrecision};
pub use report::{PerfReport, RunProvenance};
pub use runtime::{
    Backend, BackendError, CommEvent, CommOp, CommScope, CommStats, CommTotals, CommTrace,
    PanelBcast, RankCtx, TagAllocator,
};
pub use service::{
    job_log_filename, parse_batch, BatchError, BatchFile, JobRecord, LatencyStats, ServiceConfig,
    ServiceReport, ServiceSummary, SolveService,
};
pub use solve::{
    adjust_n, run, run_observed, run_sequence, run_with_backend, snapshot_header, step_until_done,
    try_adjust_n, CkptMeter, ConfigError, RunConfig, RunConfigBuilder, RunOutcome,
};
pub use supervisor::{
    cost_recovery_ratio, recovery_ratio, RecoveryPolicy, RunEvent, SupervisedOutcome, Supervisor,
};
pub use systems::{frontier, summit, testbed, SystemSpec};
