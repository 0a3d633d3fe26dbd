//! Property-based tests of the process-grid mapping and block-cyclic
//! layout arithmetic — the index math every other layer trusts.

use hplai_core::local::{count_owned, trailing_row, LocalMatrix};
use hplai_core::{ProcessGrid, RankOrder};
use proptest::prelude::*;

fn arb_grid() -> impl Strategy<Value = ProcessGrid> {
    (1usize..7, 1usize..7, 1usize..4, 1usize..4, any::<bool>()).prop_map(
        |(kr, kc, q_r, q_c, col_major)| {
            let p_r = kr * q_r;
            let p_c = kc * q_c;
            if col_major {
                // Column-major needs p_r*p_c divisible by the node size.
                ProcessGrid::col_major(p_r, p_c, q_r * q_c)
            } else {
                ProcessGrid::node_local(p_r, p_c, q_r, q_c)
            }
        },
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// rank_of ∘ coord_of is the identity, and the mapping is a bijection.
    #[test]
    fn rank_coord_bijection(grid in arb_grid()) {
        let mut seen = vec![false; grid.size()];
        for (rank, s) in seen.iter_mut().enumerate() {
            let (r, c) = grid.coord_of(rank);
            prop_assert!(r < grid.p_r && c < grid.p_c);
            prop_assert_eq!(grid.rank_of(r, c), rank);
            prop_assert!(!*s);
            *s = true;
        }
    }

    /// Every rank appears exactly once in its row and column groups, at
    /// the position matching its coordinate.
    #[test]
    fn group_membership_consistent(grid in arb_grid()) {
        for rank in 0..grid.size() {
            let (r, c) = grid.coord_of(rank);
            let row = grid.row_members(r);
            prop_assert_eq!(row[c], rank);
            let col = grid.col_members(c);
            prop_assert_eq!(col[r], rank);
        }
    }

    /// Node placement puts exactly gcds_per_node ranks on each node.
    #[test]
    fn nodes_fill_exactly(grid in arb_grid()) {
        let locs = grid.locs();
        let q = grid.gcds_per_node();
        let nodes = grid.size() / q;
        let mut counts = vec![0usize; nodes];
        for l in &locs {
            prop_assert!(l.gcd < q);
            counts[l.node] += 1;
        }
        prop_assert!(counts.iter().all(|&c| c == q));
    }

    /// count_owned telescopes: summing ownership over all coordinates
    /// covers every block exactly once.
    #[test]
    fn count_owned_partitions(upto in 0usize..200, p in 1usize..9) {
        let total: usize = (0..p).map(|pi| count_owned(upto, pi, p)).sum();
        prop_assert_eq!(total, upto);
        // And it is monotone in `upto`.
        for pi in 0..p {
            prop_assert!(count_owned(upto, pi, p) <= count_owned(upto + 1, pi, p));
        }
    }

    /// The local matrix tiles the global matrix: every global entry is
    /// owned by exactly one rank, at consistent local offsets.
    #[test]
    fn local_layout_partitions_global(
        kr in 1usize..4,
        kc in 1usize..4,
        blocks_per in 1usize..4,
        b in 1usize..6,
    ) {
        let grid = ProcessGrid::node_local(kr, kc, 1, 1);
        let n_b = kr * kc * blocks_per; // divisible by both dims
        let n = n_b * b;
        let mut owned = vec![0u32; n * n];
        for rank in 0..grid.size() {
            let coord = grid.coord_of(rank);
            let m = LocalMatrix::new(&grid, coord, n, b);
            for ib in 0..n_b {
                for jb in 0..n_b {
                    if m.owns_block_row(ib) && m.owns_block_col(jb) {
                        let lr = m.row_of_block(ib);
                        let lc = m.col_of_block(jb);
                        prop_assert!(lr + b <= m.n_loc_r && lc + b <= m.n_loc_c);
                        for i in 0..b {
                            for j in 0..b {
                                owned[(jb * b + j) * n + ib * b + i] += 1;
                            }
                        }
                        // Offsets are consistent with the prefix counts.
                        prop_assert_eq!(lr, count_owned(ib, coord.0, grid.p_r) * b);
                        prop_assert_eq!(lc, count_owned(jb, coord.1, grid.p_c) * b);
                    }
                }
            }
        }
        prop_assert!(owned.iter().all(|&c| c == 1));
    }

    /// Trailing offsets shrink the local window monotonically and land on
    /// block boundaries.
    #[test]
    fn trailing_monotone(p_r in 1usize..5, p_c in 1usize..5, blocks in 1usize..5, b in 1usize..5) {
        let grid = ProcessGrid::node_local(p_r, p_c, 1, 1);
        let n_b = p_r * p_c * blocks;
        let n = n_b * b;
        let m = LocalMatrix::new(&grid, (0, 0), n, b);
        let mut prev_r = 0;
        for k in 0..n_b {
            let tr = trailing_row(&grid, 0, k, b);
            prop_assert!(tr >= prev_r);
            prop_assert!(tr.is_multiple_of(b));
            prop_assert!(tr <= m.n_loc_r);
            prev_r = tr;
        }
        prop_assert_eq!(trailing_row(&grid, 0, n_b - 1, b), m.n_loc_r);
    }

    /// Column-major placement is the degenerate Qx1 node-local grid when
    /// the node size divides P_r (the paper's Summit default).
    #[test]
    fn col_major_equals_qx1_tile(k in 1usize..5, q in 1usize..5, p_c in 1usize..5) {
        let p_r = k * q;
        let cm = ProcessGrid::col_major(p_r, p_c, q);
        let nl = ProcessGrid::node_local(p_r, p_c, q, 1);
        prop_assert_eq!(cm.order, RankOrder::ColMajor);
        for rank in 0..cm.size() {
            prop_assert_eq!(cm.coord_of(rank), nl.coord_of(rank));
        }
        prop_assert_eq!(cm.sharers_row(), nl.sharers_row());
    }
}
