//! Critical-path timing driver for full-machine scale.
//!
//! Thread-per-rank simulation tops out around a few thousand ranks; the
//! paper's headline runs use up to 29584 GCDs and N > 2×10⁷ (≈6700
//! iterations). This driver walks the same iteration structure as
//! [`crate::factor::factor`] but prices each step with closed forms — the
//! device-model kernel times and [`mxp_msgsim::collectives::bcast_cost`] —
//! accumulating one scalar clock in O(N/B) work. An integration test pins
//! it against the emergent driver at small scale.

use crate::grid::ProcessGrid;
use crate::ir::ir_time_model;
use crate::report::PerfReport;
use crate::systems::SystemSpec;
use mxp_gpusim::{integrate_energy, EnergyAccount, PowerModel};
use mxp_msgsim::collectives::bcast_cost;
use mxp_msgsim::BcastAlgo;
use mxp_netsim::GcdLoc;

/// Configuration of a critical-path estimate.
#[derive(Clone, Debug)]
pub struct CriticalConfig {
    /// Global problem size.
    pub n: usize,
    /// Block size.
    pub b: usize,
    /// Process grid (sharers and group sizes come from here).
    pub grid: ProcessGrid,
    /// Panel broadcast algorithm.
    pub algo: BcastAlgo,
    /// Look-ahead overlap on/off.
    pub lookahead: bool,
    /// Slowest fleet multiplier (1.0 = uniform fleet); the pipeline runs
    /// at the pace of the slowest GCD (§VI-B).
    pub slowest: f64,
}

/// Fraction of panel-broadcast time hideable under the trailing GEMM.
/// Full overlap is not physical: the GPU's copy/DMA engines and HBM
/// bandwidth are shared between the GEMM and the outbound panels, and MPI
/// progress costs cycles. 0.35 reproduces the paper's Fig. 8 communication
/// sensitivity; 1.0 would recover the idealized Eq. (1) max().
const OVERLAP: f64 = 0.35;

impl CriticalConfig {
    /// Standard configuration: look-ahead on, uniform fleet.
    pub fn new(n: usize, b: usize, grid: ProcessGrid, algo: BcastAlgo) -> Self {
        CriticalConfig {
            n,
            b,
            grid,
            algo,
            lookahead: true,
            slowest: 1.0,
        }
    }
}

/// Per-iteration cost breakdown (the critical-path Fig. 10 analogue).
#[derive(Clone, Copy, Debug, Default)]
pub struct CriticalIter {
    /// Iteration index.
    pub k: usize,
    /// GETRF time.
    pub getrf: f64,
    /// Diagonal broadcast completion.
    pub dbcast: f64,
    /// Panel TRSM time (row + column).
    pub trsm: f64,
    /// CAST / TRANS_CAST time.
    pub cast: f64,
    /// Panel broadcast completion (both panels).
    pub pbcast: f64,
    /// Trailing GEMM time.
    pub gemm: f64,
    /// Modeled broadcast time hidden under the remainder GEMM:
    /// `OVERLAP · min(pbcast, gemm_rem)` (0 without look-ahead) — the
    /// model-side counterpart of the measured `IterRecord::hidden`.
    pub hidden: f64,
    /// Contribution of this iteration to the total (after overlap).
    pub total: f64,
}

/// Result of the critical-path estimate.
#[derive(Clone, Debug)]
pub struct CriticalOutcome {
    /// Headline performance numbers (shared report shape; `runtime` is the
    /// estimated end-to-end time, factorization + modeled IR).
    pub perf: PerfReport,
    /// Per-GCD energy account over the run (§VIII outlook).
    pub energy: EnergyAccount,
    /// Energy efficiency in GFLOPS per watt (per GCD).
    pub gflops_per_watt: f64,
    /// Per-iteration breakdown.
    pub iters: Vec<CriticalIter>,
}

/// Runs the critical-path estimate.
pub fn critical_time(sys: &SystemSpec, cfg: &CriticalConfig) -> CriticalOutcome {
    let dev = &sys.gcd;
    let grid = &cfg.grid;
    let n_b = cfg.n / cfg.b;
    let b = cfg.b;
    let n_l = cfg.n / grid.p_r;
    let slow = 1.0 / cfg.slowest.max(1e-6);

    // Representative point-to-point hops: inter-node with the phase's
    // sharer count (Eq. 5). Column-direction traffic (U panels, group size
    // P_r) shares NICs q_c ways; row-direction (L panels, group size P_c)
    // shares q_r ways.
    let loc0 = GcdLoc { node: 0, gcd: 0 };
    let loc1 = GcdLoc { node: 1, gcd: 0 };
    // Fabric congestion/distance scaling: broadcasts at scale traverse
    // more switch hops and share more links, degrading effective bandwidth
    // logarithmically in the node count. This is why "the effect of grid
    // tuning tends to be more observable as the scale increases"
    // (Finding 8) and why Frontier's weak scaling sags at 16k GCDs.
    let nodes = (grid.size() / grid.gcds_per_node()).max(2) as f64;
    let congestion = 1.0 + sys.net.congestion_per_log_node * nodes.log2();
    let mut cost_row = sys.net.p2p(loc0, loc1, grid.sharers_row());
    let mut cost_col = sys.net.p2p(loc0, loc1, grid.sharers_col());
    cost_row.sec_per_byte *= congestion;
    cost_col.sec_per_byte *= congestion;
    let send_o = 1.0e-6;
    let recv_o = 0.5e-6;

    let mut factor_time = 0.0;
    let mut hidden_total = 0.0;
    let mut busy_gemm = 0.0;
    let mut busy_fp32 = 0.0;
    let mut busy_mem = 0.0;
    let mut iters = Vec::with_capacity(n_b);
    for k in 0..n_b {
        // Per-rank local trailing extents (average over the cycle).
        let blocks_left_r = (n_b - k - 1).div_ceil(grid.p_r);
        let blocks_left_c = (n_b - k - 1).div_ceil(grid.p_c);
        let m_loc = blocks_left_r * b;
        let n_loc = blocks_left_c * b;

        let getrf = dev.getrf_time(b) * slow;
        let (_, dbcast_row) = bcast_cost(
            BcastAlgo::Lib,
            grid.p_c,
            4 * (b * b) as u64,
            cost_row,
            &sys.tuning,
            send_o,
            recv_o,
        );
        let (_, dbcast_col) = bcast_cost(
            BcastAlgo::Lib,
            grid.p_r,
            4 * (b * b) as u64,
            cost_col,
            &sys.tuning,
            send_o,
            recv_o,
        );
        let dbcast = dbcast_row.max(dbcast_col);
        let trsm = (dev.trsm_time(b, n_loc) + dev.trsm_time(b, m_loc)) * slow;
        let cast = (dev.cast_time(b * n_loc) + dev.cast_time(m_loc * b)) * slow;
        // U panel: down columns (group P_r); L panel: along rows (P_c).
        let (_, u_bcast) = bcast_cost(
            cfg.algo,
            grid.p_r,
            2 * (n_loc * b) as u64,
            cost_col,
            &sys.tuning,
            send_o,
            recv_o,
        );
        let (_, l_bcast) = bcast_cost(
            cfg.algo,
            grid.p_c,
            2 * (m_loc * b) as u64,
            cost_row,
            &sys.tuning,
            send_o,
            recv_o,
        );
        // The two panel broadcasts are distinct collectives issued back to
        // back on every rank; they serialize.
        let pbcast = u_bcast + l_bcast;
        let gemm = if m_loc > 0 && n_loc > 0 {
            dev.gemm_mixed_time(m_loc, n_loc, b, n_l) * slow
        } else {
            0.0
        };

        let (total, hidden) = if cfg.lookahead {
            // Only the panel-owner row/column applies the urgent strips
            // (thin launches at strip rates), and that work pipelines
            // against every other rank's remainder GEMM — a rank is a strip
            // owner for 1/P_r (row strip) or 1/P_c (column strip) of the
            // iterations, so the critical path carries the *average* strip
            // share, not the whole pair. The remainder then overlaps the
            // posted panel broadcasts (§IV-B).
            let m_prev = m_loc + b;
            let n_prev = n_loc + b;
            let strip_row = dev.gemm_mixed_time(b.min(m_prev), n_prev, b, n_l) * slow;
            let strip_col = dev.gemm_mixed_time(m_loc.max(1), b.min(n_prev), b, n_l) * slow;
            let strips = strip_row / grid.p_r as f64 + strip_col / grid.p_c as f64;
            let gemm_rem = (gemm - strips).max(0.0);
            let hidden = OVERLAP * pbcast.min(gemm_rem);
            let overlapped = pbcast.max(gemm_rem) + pbcast.min(gemm_rem) - hidden;
            (strips + getrf + dbcast + trsm + cast + overlapped, hidden)
        } else {
            (getrf + dbcast + trsm + cast + pbcast + gemm, 0.0)
        };
        factor_time += total;
        hidden_total += hidden;
        busy_gemm += gemm;
        busy_fp32 += getrf + trsm;
        busy_mem += cast;
        iters.push(CriticalIter {
            k,
            getrf,
            dbcast,
            trsm,
            cast,
            pbcast,
            gemm,
            hidden,
            total,
        });
    }

    let ir_time = ir_time_model(sys, cfg.n, grid.size(), 3);
    let runtime = factor_time + ir_time;
    let power = PowerModel::for_device(dev);
    let energy = integrate_energy(
        &power, runtime, busy_gemm, busy_fp32, 0.0, busy_mem, ir_time,
    );
    let flops_per_gcd = crate::metrics::hplai_flops(cfg.n) / grid.size() as f64;
    CriticalOutcome {
        perf: PerfReport::new(cfg.n, grid.size(), runtime, factor_time, ir_time)
            .with_overlap(hidden_total),
        gflops_per_watt: energy.gflops_per_watt(flops_per_gcd, runtime),
        energy,
        iters,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::systems::{frontier, summit, testbed};

    fn frontier_cfg(p: usize, n_l: usize, b: usize) -> CriticalConfig {
        CriticalConfig::new(
            n_l * p,
            b,
            ProcessGrid::node_local(p, p, 2, 4),
            BcastAlgo::Ring2M,
        )
    }

    #[test]
    fn frontier_headline_is_exascale() {
        // Fig. 11: N = 20,606,976, P = 172², B = 3072, Ring2M →
        // 2.387 EFLOPS. The critical path must land in the same regime.
        let sys = frontier();
        let cfg = frontier_cfg(172, 119808, 3072);
        let out = critical_time(&sys, &cfg);
        assert!(
            out.perf.eflops > 1.6 && out.perf.eflops < 3.2,
            "Frontier headline: {} EFLOPS",
            out.perf.eflops
        );
    }

    #[test]
    fn summit_headline_is_exascale() {
        // Fig. 11: Summit 3×2 grid, P = 162², B = 768 → 1.411 EFLOPS.
        let sys = summit();
        let cfg = CriticalConfig::new(
            61440 * 162,
            768,
            ProcessGrid::node_local(162, 162, 3, 2),
            BcastAlgo::Lib,
        );
        let out = critical_time(&sys, &cfg);
        assert!(
            out.perf.eflops > 0.9 && out.perf.eflops < 2.0,
            "Summit headline: {} EFLOPS",
            out.perf.eflops
        );
    }

    #[test]
    fn frontier_beats_summit_at_same_gcd_count() {
        // Frontier's per-node FP16 is 1.58x Summit's; per-GCD throughput
        // must come out ahead at matched scale.
        let s = critical_time(
            &summit(),
            &CriticalConfig::new(
                61440 * 32,
                768,
                ProcessGrid::node_local(32, 32, 2, 2),
                BcastAlgo::Lib,
            ),
        );
        let f = critical_time(&frontier(), &frontier_cfg(32, 119808, 3072));
        assert!(f.perf.gflops_per_gcd > s.perf.gflops_per_gcd);
    }

    #[test]
    fn lookahead_helps() {
        let sys = frontier();
        let mut cfg = frontier_cfg(32, 119808, 3072);
        let with = critical_time(&sys, &cfg).perf.runtime;
        cfg.lookahead = false;
        let without = critical_time(&sys, &cfg).perf.runtime;
        assert!(with < without);
    }

    #[test]
    fn slow_gcd_degrades_total() {
        let sys = frontier();
        let mut cfg = frontier_cfg(16, 30720, 3072);
        let clean = critical_time(&sys, &cfg).perf.runtime;
        cfg.slowest = 0.95;
        let slowed = critical_time(&sys, &cfg).perf.runtime;
        assert!(slowed > clean * 1.02);
    }

    #[test]
    fn iteration_breakdown_shapes() {
        // Early iterations are GEMM-dominated; the tail is not (Fig. 10's
        // "computational bounded until the final trailing iterations").
        let sys = frontier();
        let cfg = frontier_cfg(8, 119808, 3072);
        let out = critical_time(&sys, &cfg);
        let first = &out.iters[0];
        assert!(first.gemm > first.getrf + first.trsm + first.cast);
        let last = out.iters.last().unwrap();
        assert!(last.gemm < first.gemm / 10.0);
    }

    #[test]
    fn rings_beat_lib_on_frontier_model() {
        let sys = frontier();
        let mut cfg = frontier_cfg(32, 119808, 3072);
        cfg.algo = BcastAlgo::Lib;
        let lib = critical_time(&sys, &cfg).perf.runtime;
        cfg.algo = BcastAlgo::Ring2M;
        let ring = critical_time(&sys, &cfg).perf.runtime;
        assert!(ring < lib, "ring {ring} !< lib {lib}");
    }

    #[test]
    fn lib_beats_rings_on_summit_model() {
        let sys = summit();
        let mut cfg = CriticalConfig::new(
            61440 * 36,
            768,
            ProcessGrid::node_local(36, 36, 3, 2),
            BcastAlgo::Lib,
        );
        let lib = critical_time(&sys, &cfg).perf.runtime;
        cfg.algo = BcastAlgo::Ring1;
        let ring = critical_time(&sys, &cfg).perf.runtime;
        assert!(lib < ring, "lib {lib} !< ring {ring}");
    }

    #[test]
    fn matches_emergent_driver_at_small_scale() {
        use crate::solve::{run, RunConfig};
        let sys = testbed(4, 4);
        let grid = ProcessGrid::node_local(4, 4, 2, 2);
        let (n, b) = (16384, 512);
        let cfg = RunConfig::timing(sys.clone(), grid, n, b).build().unwrap();
        let emergent = run(&cfg).perf.runtime;
        let model = critical_time(&sys, &CriticalConfig::new(n, b, grid, BcastAlgo::Lib))
            .perf
            .runtime;
        let ratio = model / emergent;
        assert!(
            (0.6..1.6).contains(&ratio),
            "critical-path {model} vs emergent {emergent} (ratio {ratio})"
        );
    }
}
