//! Property-based tests for the jump-ahead LCG and matrix generator.

use mxp_lcg::{affine_pow, Lcg, MatrixGen, MatrixKind};
use proptest::prelude::*;
use std::sync::{Mutex, MutexGuard};

/// Sets `RAYON_NUM_THREADS` for one case, serialised with every other
/// test here that sets it, and restores the prior value on drop.
struct Width {
    prior: Option<String>,
    _serial: MutexGuard<'static, ()>,
}

fn width(n: usize) -> Width {
    static SERIAL: Mutex<()> = Mutex::new(());
    let serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let prior = std::env::var("RAYON_NUM_THREADS").ok();
    std::env::set_var("RAYON_NUM_THREADS", n.to_string());
    Width {
        prior,
        _serial: serial,
    }
}

impl Drop for Width {
    fn drop(&mut self) {
        match &self.prior {
            Some(v) => std::env::set_var("RAYON_NUM_THREADS", v),
            None => std::env::remove_var("RAYON_NUM_THREADS"),
        }
    }
}

proptest! {
    /// Jumping m+n steps equals jumping m then n, from any seed.
    #[test]
    fn jump_is_additive(seed: u64, m in 0u64..1_000_000, n in 0u64..1_000_000) {
        let mut split = Lcg::new(seed);
        split.skip(m as u128);
        split.skip(n as u128);
        let mut joint = Lcg::new(seed);
        joint.skip(m as u128 + n as u128);
        prop_assert_eq!(split, joint);
    }

    /// affine_pow(n) applied to a state equals n sequential steps
    /// (checked for small n where sequential is affordable).
    #[test]
    fn affine_matches_iteration(seed: u64, n in 0usize..2000) {
        let (a, c) = affine_pow(n as u128);
        let jumped = seed.wrapping_mul(a).wrapping_add(c);
        let mut g = Lcg::new(seed);
        for _ in 0..n {
            g.next_u64();
        }
        prop_assert_eq!(g.state(), jumped);
    }

    /// Matrix entries are independent of access pattern: filling a tile and
    /// probing single entries agree everywhere.
    #[test]
    fn tile_entry_agreement(seed: u64, n in 2usize..48, probe_i in 0usize..48, probe_j in 0usize..48) {
        let i = probe_i % n;
        let j = probe_j % n;
        let g = MatrixGen::new(seed, n, MatrixKind::DiagDominant);
        let mut tile = vec![0.0; n * n];
        g.fill_tile(0..n, 0..n, n, &mut tile);
        prop_assert_eq!(tile[j * n + i], g.entry(i, j));
    }

    /// Off-diagonal magnitudes stay below 0.5, so diagonal dominance holds
    /// for every seed (the benchmark's no-pivoting precondition).
    #[test]
    fn dominance_for_all_seeds(seed: u64, n in 2usize..32) {
        let g = MatrixGen::new(seed, n, MatrixKind::DiagDominant);
        for i in 0..n {
            let row: f64 = (0..n).filter(|&j| j != i).map(|j| g.entry(i, j).abs()).sum();
            prop_assert!(g.entry(i, i) > row);
        }
    }

    /// Parallel tile fill is bitwise identical to the serial path for any
    /// seed and any shape above the parallel-dispatch floor: each column
    /// group jumps to its own stream position and draws the same values the
    /// serial sweep would have.
    #[test]
    fn parallel_fill_matches_serial(seed: u64, n in 130usize..200) {
        let g = MatrixGen::new(seed, n, MatrixKind::DiagDominant);
        let fill = |threads: usize| {
            let _w = width(threads);
            let mut tile = vec![0.0; n * n];
            g.fill_tile(0..n, 0..n, n, &mut tile);
            tile
        };
        prop_assert_eq!(fill(1), fill(4));
    }

    /// Unit mapping stays in [-0.5, 0.5).
    #[test]
    fn unit_range(seed: u64) {
        let mut g = Lcg::new(seed);
        for _ in 0..64 {
            let v = g.next_unit();
            prop_assert!((-0.5..0.5).contains(&v));
        }
    }
}
