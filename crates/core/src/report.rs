//! The shared run-performance report.
//!
//! Every fidelity (functional, timing, critical) used to carry its own
//! copy of the headline numbers; [`PerfReport`] unifies them so drivers,
//! sweep binaries, and the supervisor all serialize the same shape. How a
//! hosted run produced its numbers (host cost, SIMD level, scheduler
//! shards, checkpoint drains) is [`RunProvenance`], kept beside the report
//! so that simulated quantities and host details never mix.

use crate::metrics::{eflops, gflops_per_gcd};
use crate::runtime::Backend;
use serde::Serialize;

/// Headline performance numbers of one benchmark run — the quantities the
/// paper reports for every configuration (runtime split plus the two
/// throughput units of Table III).
#[derive(Clone, Copy, Debug, Default, PartialEq, Serialize)]
pub struct PerfReport {
    /// End-to-end simulated runtime (slowest rank), seconds.
    pub runtime: f64,
    /// Factorization portion (slowest rank), seconds.
    pub factor_time: f64,
    /// Iterative-refinement portion (slowest rank), seconds.
    pub ir_time: f64,
    /// Effective GFLOPS per GCD (the paper's per-device reporting unit).
    pub gflops_per_gcd: f64,
    /// Whole-run EFLOPS (the headline mixed-precision number).
    pub eflops: f64,
    /// Mean per-rank panel-transfer seconds hidden under compute by the
    /// look-ahead pipeline (0.0 when look-ahead is off or unmeasured).
    pub overlap_hidden: f64,
    /// Total bytes put on the wire, summed across all ranks (0 when the
    /// run did not go through the traced runtime).
    pub comm_bytes: u64,
    /// Communication-wait seconds of the slowest rank.
    pub comm_wait: f64,
    /// Which runtime backend hosted the ranks. Defaults to
    /// [`Backend::Functional`]; reports written before this field existed
    /// deserialize-compatibly because readers fall back to the default on
    /// a missing key.
    pub backend: Backend,
    /// How many ranks the run hosted (0 in reports synthesized outside
    /// the runtime, e.g. pure model evaluations).
    pub simulated_ranks: usize,
}

/// Host and restart provenance of one hosted run: how the numbers in its
/// [`PerfReport`] were produced rather than what was simulated. It sits
/// beside the report as [`crate::RunOutcome::provenance`], never inside
/// it, so event logs, job signatures and golden snapshots carry simulated
/// quantities only. Deliberately not `PartialEq`: no determinism check can
/// compare host details by accident.
#[derive(Clone, Copy, Debug, Serialize)]
pub struct RunProvenance {
    /// Host wall-clock seconds spent per simulated second — the event
    /// backend's headline economy metric ("simulate Frontier in one
    /// process"). 0.0 when the run simulated no time.
    pub wall_vs_virtual_time: f64,
    /// SIMD ISA level the BLAS micro-kernels dispatched to on this host
    /// (`"avx512"`, `"avx2"`, `"neon"`, `"portable"`), for cross-host
    /// comparison of measured numbers.
    pub simd_isa: &'static str,
    /// How many shards (worker threads) the event scheduler partitioned
    /// the rank space into (0 for the thread backend). Any shard count
    /// produces identical simulated results.
    pub event_shards: usize,
    /// Fraction of host worker time the event scheduler spent on
    /// scheduling itself (delivery, idling, fiber switches) rather than
    /// rank execution (0.0 for the thread backend).
    pub sched_overhead: f64,
    /// Modeled bytes drained to panel-boundary checkpoints, summed over
    /// all ranks (0 when checkpointing was off). A restarted run re-drains
    /// only its tail.
    pub checkpoint_bytes: u64,
    /// Simulated seconds the slowest rank spent draining checkpoints
    /// (0.0 when checkpointing was off).
    pub checkpoint_time: f64,
    /// How many times this outcome resumed from a snapshot (0 = ran from
    /// panel 0).
    pub restart_count: usize,
}

impl PerfReport {
    /// Builds a report from the runtime split, deriving the throughput
    /// numbers from problem size `n` and device count `p_total`.
    pub fn new(n: usize, p_total: usize, runtime: f64, factor_time: f64, ir_time: f64) -> Self {
        PerfReport {
            runtime,
            factor_time,
            ir_time,
            gflops_per_gcd: gflops_per_gcd(n, p_total, runtime),
            eflops: eflops(n, runtime),
            overlap_hidden: 0.0,
            comm_bytes: 0,
            comm_wait: 0.0,
            backend: Backend::Functional,
            simulated_ranks: 0,
        }
    }

    /// Attaches the measured communication/computation overlap.
    pub fn with_overlap(mut self, hidden: f64) -> Self {
        self.overlap_hidden = hidden;
        self
    }

    /// Attaches the communication counters harvested from the rank
    /// contexts: total wire bytes and the slowest rank's wait time.
    pub fn with_comm(mut self, bytes: u64, wait: f64) -> Self {
        self.comm_bytes = bytes;
        self.comm_wait = wait;
        self
    }

    /// Records which backend hosted the run and at what rank count.
    pub fn with_backend(mut self, backend: Backend, ranks: usize) -> Self {
        self.backend = backend;
        self.simulated_ranks = ranks;
        self
    }

    /// The same run scaled by a runtime multiplier (warm-up / thermal
    /// sequences): times scale up, throughputs scale down.
    pub fn scaled(&self, n: usize, p_total: usize, mult: f64) -> Self {
        PerfReport::new(
            n,
            p_total,
            self.runtime * mult,
            self.factor_time * mult,
            self.ir_time * mult,
        )
        .with_overlap(self.overlap_hidden * mult)
        // Stretching the clock stretches stalls but moves no extra data.
        .with_comm(self.comm_bytes, self.comm_wait * mult)
        .with_backend(self.backend, self.simulated_ranks)
    }

    /// Single-line human summary.
    pub fn summary(&self) -> String {
        format!(
            "runtime {:.3} s (factor {:.3} s + ir {:.3} s), {:.1} GFLOPS/GCD, {:.4} EFLOPS",
            self.runtime, self.factor_time, self.ir_time, self.gflops_per_gcd, self.eflops
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn derives_throughputs_consistently() {
        let r = PerfReport::new(4096, 16, 2.0, 1.5, 0.5);
        assert_eq!(r.runtime, 2.0);
        assert!((r.gflops_per_gcd - gflops_per_gcd(4096, 16, 2.0)).abs() < 1e-12);
        assert!((r.eflops - eflops(4096, 2.0)).abs() < 1e-24);
    }

    #[test]
    fn scaling_preserves_work() {
        let r = PerfReport::new(4096, 16, 2.0, 1.5, 0.5)
            .with_comm(1_000, 0.25)
            .with_backend(Backend::EventTimed, 16);
        let s = r.scaled(4096, 16, 2.0);
        assert_eq!(s.runtime, 4.0);
        assert!((s.gflops_per_gcd - r.gflops_per_gcd / 2.0).abs() < 1e-9);
        // Stalls stretch with the clock; traffic does not.
        assert_eq!(s.comm_bytes, 1_000);
        assert!((s.comm_wait - 0.5).abs() < 1e-12);
        assert_eq!((s.backend, s.simulated_ranks), (Backend::EventTimed, 16));
    }

    #[test]
    fn serializes_to_json() {
        let r = PerfReport::new(1024, 4, 1.0, 0.8, 0.2);
        let json = serde_json::to_string(&r).unwrap();
        let v: serde_json::Value = serde_json::from_str(&json).unwrap();
        assert_eq!(v["runtime"], 1.0);
        assert!(v["gflops_per_gcd"].as_f64().unwrap() > 0.0);
    }

    fn sample_provenance() -> RunProvenance {
        RunProvenance {
            wall_vs_virtual_time: 0.5,
            simd_isa: "avx512",
            event_shards: 4,
            sched_overhead: 0.05,
            checkpoint_bytes: 4096,
            checkpoint_time: 0.25,
            restart_count: 1,
        }
    }

    /// Each `key` is serialized with the provenance and is absent from the
    /// report, whose bytes feed event logs, job signatures and goldens.
    fn assert_provenance_only(keys: &[&str]) {
        let prov = serde_json::to_string(&sample_provenance()).unwrap();
        let perf = serde_json::to_string(
            &PerfReport::new(1024, 4, 1.0, 0.8, 0.2).with_backend(Backend::EventTimed, 4),
        )
        .unwrap();
        for key in keys {
            let quoted = format!("\"{key}\":");
            assert!(prov.contains(&quoted), "{key} missing from {prov}");
            assert!(!perf.contains(&quoted), "{key} leaked into {perf}");
        }
    }

    #[test]
    fn simd_isa_is_provenance_only() {
        assert_provenance_only(&["simd_isa"]);
    }

    #[test]
    fn scheduler_stats_are_provenance_only() {
        assert_provenance_only(&["wall_vs_virtual_time", "event_shards", "sched_overhead"]);
    }

    #[test]
    fn checkpoint_stats_are_provenance_only() {
        assert_provenance_only(&["checkpoint_bytes", "checkpoint_time", "restart_count"]);
    }

    #[test]
    fn provenance_serializes_all_seven_keys() {
        let json = serde_json::to_string(&sample_provenance()).unwrap();
        for key in [
            "\"wall_vs_virtual_time\":0.5",
            "\"simd_isa\":\"avx512\"",
            "\"event_shards\":4",
            "\"sched_overhead\":0.05",
            "\"checkpoint_bytes\":4096",
            "\"checkpoint_time\":0.25",
            "\"restart_count\":1",
        ] {
            assert!(json.contains(key), "{key} missing from {json}");
        }
    }

    #[test]
    fn summary_mentions_headline_units() {
        let s = PerfReport::new(1024, 4, 1.0, 0.8, 0.2).summary();
        assert!(s.contains("GFLOPS/GCD") && s.contains("EFLOPS"));
    }
}
