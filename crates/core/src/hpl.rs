//! The HPL (FP64, partially pivoted) baseline.
//!
//! The paper's motivating comparison: "Our Summit result achieved 9.5 times
//! the performance of HPL, demonstrating the value of mixed precision"
//! (§I). This module holds the **critical-path cost model** for
//! distributed HPL, mirroring [`crate::critical`], with the costs mixed
//! precision avoids: FP64 GEMM rates, a memory-bound pivoted panel
//! factorization, per-column pivot reductions, row-swap traffic, and 4×
//! panel broadcast bytes. The functional HPL solve is
//! [`crate::hpl_dist`]: the `Hpl` policy of the one factorization stepper.
//!
//! HPL stores the matrix in FP64, so at equal memory the local dimension
//! shrinks by √2 relative to HPL-AI ([`hpl_n_local`]).

use crate::grid::ProcessGrid;
use crate::metrics::eflops;
use crate::systems::SystemSpec;
use mxp_gpusim::GcdModel;
use mxp_msgsim::collectives::bcast_cost;
use mxp_msgsim::BcastAlgo;
use mxp_netsim::GcdLoc;

/// HPL flop count: `(2/3)·N³ + (3/2)·N²` (same polynomial as HPL-AI).
pub fn hpl_flops(n: usize) -> f64 {
    crate::metrics::hplai_flops(n)
}

/// Local dimension for HPL at the same device memory as an HPL-AI run with
/// local dimension `n_local` (FP64 doubles the bytes per element).
pub fn hpl_n_local(n_local_hplai: usize, b: usize) -> usize {
    let nl = (n_local_hplai as f64 / std::f64::consts::SQRT_2) as usize;
    nl - nl % b
}

/// FP64 GEMM rate model (DGEMM saturates at much smaller `k` than the
/// mixed-precision tensor path).
pub fn dgemm_rate(dev: &GcdModel, k: usize) -> f64 {
    let kf = k as f64;
    dev.fp64_peak * 0.90 * kf / (kf + 64.0)
}

/// Outcome of the distributed HPL cost model.
#[derive(Clone, Debug)]
pub struct HplOutcome {
    /// Estimated runtime, seconds.
    pub runtime: f64,
    /// Whole-run EFLOPS (FP64).
    pub eflops: f64,
    /// GFLOPS per GCD.
    pub gflops_per_gcd: f64,
    /// Per-GCD energy over the run.
    pub energy: mxp_gpusim::EnergyAccount,
    /// Energy efficiency in GFLOPS per watt (per GCD).
    pub gflops_per_watt: f64,
}

/// Critical-path cost of a distributed HPL run (no look-ahead modeled;
/// classic HPL overlaps less aggressively than the paper's HPL-AI code).
pub fn hpl_critical_time(sys: &SystemSpec, grid: &ProcessGrid, n: usize, b: usize) -> HplOutcome {
    let dev = &sys.gcd;
    let n_b = n / b;
    let loc0 = GcdLoc { node: 0, gcd: 0 };
    let loc1 = GcdLoc { node: 1, gcd: 0 };
    let cost_row = sys.net.p2p(loc0, loc1, grid.sharers_row());
    let cost_col = sys.net.p2p(loc0, loc1, grid.sharers_col());
    let (send_o, recv_o) = (1.0e-6, 0.5e-6);

    let mut total = 0.0;
    let mut busy_fp64 = 0.0;
    for k in 0..n_b {
        let blocks_left_r = (n_b - k - 1).div_ceil(grid.p_r);
        let blocks_left_c = (n_b - k - 1).div_ceil(grid.p_c);
        let m_loc = blocks_left_r * b + b; // panel includes the diagonal block
        let n_loc = blocks_left_c * b;

        // Pivoted panel factorization: column-at-a-time, memory-bound
        // (≈15% of FP64 peak), plus a max-pivot reduction and a swap
        // exchange per column across the process column.
        let panel_flops = m_loc as f64 * (b * b) as f64;
        let panel = panel_flops / (dev.fp64_peak * 0.15);
        let pivot_comm =
            b as f64 * (grid.p_r as f64).log2().ceil() * (cost_col.latency + send_o + recv_o);
        // Row swaps: B rows of the trailing local width move across the
        // process column each iteration.
        let swap_bytes = 8 * (b * n_loc) as u64;
        let swaps = cost_col.latency + swap_bytes as f64 * cost_col.sec_per_byte;

        // FP64 panel broadcast (8-byte elements: 4× the FP16 volume).
        let (_, l_bcast) = bcast_cost(
            BcastAlgo::Lib,
            grid.p_c,
            8 * (m_loc * b) as u64,
            cost_row,
            &sys.tuning,
            send_o,
            recv_o,
        );
        let (_, u_bcast) = bcast_cost(
            BcastAlgo::Lib,
            grid.p_r,
            8 * (n_loc * b) as u64,
            cost_col,
            &sys.tuning,
            send_o,
            recv_o,
        );

        // FP64 TRSM + trailing DGEMM.
        let trsm = (b * b * n_loc) as f64 / (dev.fp64_peak * 0.8);
        let gemm = if n_loc > 0 {
            2.0 * ((m_loc - b) * n_loc * b) as f64 / dgemm_rate(dev, b)
        } else {
            0.0
        };
        // HPL implementations overlap the pivoted panel, swaps, and the
        // panel broadcast with the trailing DGEMM (classic look-ahead).
        total += trsm + (panel + pivot_comm + swaps + l_bcast.max(u_bcast)).max(gemm);
        busy_fp64 += trsm + panel + gemm;
    }

    let power = mxp_gpusim::PowerModel::for_device(dev);
    let energy =
        mxp_gpusim::integrate_energy(&power, total, 0.0, 0.0, busy_fp64.min(total), 0.0, 0.0);
    let flops_per_gcd = hpl_flops(n) / grid.size() as f64;
    HplOutcome {
        runtime: total,
        eflops: eflops(n, total),
        gflops_per_gcd: crate::metrics::gflops_per_gcd(n, grid.size(), total),
        gflops_per_watt: energy.gflops_per_watt(flops_per_gcd, total),
        energy,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::systems::summit;

    #[test]
    fn hplai_is_about_9_5x_hpl_on_summit() {
        // §I: "9.5 times the performance of HPL". Compare the two cost
        // models at the Summit headline scale. HPL runs a smaller N (FP64
        // memory) and a smaller B (DGEMM saturates earlier).
        let sys = summit();
        let p = 162;
        let grid = ProcessGrid::node_local(p, p, 3, 2);

        let ai = crate::critical::critical_time(
            &sys,
            &crate::critical::CriticalConfig::new(61440 * p, 768, grid, BcastAlgo::Lib),
        );
        let hpl_nl = hpl_n_local(61440, 768);
        let hpl = hpl_critical_time(&sys, &grid, hpl_nl * p, 768);
        let ratio = ai.perf.eflops / hpl.eflops;
        assert!(
            (6.0..14.0).contains(&ratio),
            "HPL-AI/HPL ratio {ratio} (ai {} EF, hpl {} EF)",
            ai.perf.eflops,
            hpl.eflops
        );
    }

    #[test]
    fn hpl_n_local_shrinks_by_sqrt2() {
        let nl = hpl_n_local(61440, 384);
        assert!(nl.is_multiple_of(384));
        let ratio = 61440.0 / nl as f64;
        assert!((ratio - std::f64::consts::SQRT_2).abs() < 0.02);
    }

    #[test]
    fn dgemm_rate_below_fp64_peak() {
        let dev = mxp_gpusim::GcdModel::v100();
        assert!(dgemm_rate(&dev, 384) < dev.fp64_peak);
        assert!(dgemm_rate(&dev, 1024) > dgemm_rate(&dev, 128));
    }
}
