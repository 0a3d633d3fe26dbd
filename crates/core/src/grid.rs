//! The 2D process grid and node-local grid mapping (§IV-B, Fig. 2).
//!
//! Ranks are arranged in a `P_r × P_c` grid; block `(I, J)` of the matrix
//! belongs to the rank at grid coordinate `(I mod P_r, J mod P_c)` (2D
//! block-cyclic). Separately, ranks are *placed* on physical nodes: either
//! column-major (consecutive ranks fill a node, which makes a node cover
//! `Q` consecutive grid rows of one column), or via an explicit `Q_r × Q_c`
//! node-local grid where each node covers a rectangular tile of the process
//! grid — the tuning knob of Finding 8.

use mxp_netsim::GcdLoc;

/// How grid coordinates map to physical GCDs.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RankOrder {
    /// Column-major: rank = `pi_r + pi_c·P_r`, nodes take consecutive
    /// ranks. A `Q`-GCD node then covers a `Q × 1` tile of the grid.
    ColMajor,
    /// Node-local grid: each node covers a `Q_r × Q_c` tile; nodes
    /// themselves tile the grid column-major.
    NodeLocal,
}

/// The process grid and its physical placement.
#[derive(Clone, Copy, Debug)]
pub struct ProcessGrid {
    /// Grid rows `P_r`.
    pub p_r: usize,
    /// Grid columns `P_c`.
    pub p_c: usize,
    /// Node-local grid rows `Q_r` (used by [`RankOrder::NodeLocal`]).
    pub q_r: usize,
    /// Node-local grid columns `Q_c`.
    pub q_c: usize,
    /// Placement policy.
    pub order: RankOrder,
}

impl ProcessGrid {
    /// Column-major grid on nodes of `q` GCDs.
    pub fn col_major(p_r: usize, p_c: usize, q: usize) -> Self {
        assert!(
            (p_r * p_c).is_multiple_of(q),
            "grid {p_r}x{p_c} not divisible into {q}-GCD nodes"
        );
        ProcessGrid {
            p_r,
            p_c,
            q_r: q,
            q_c: 1,
            order: RankOrder::ColMajor,
        }
    }

    /// Node-local grid placement with a `q_r × q_c` tile per node.
    pub fn node_local(p_r: usize, p_c: usize, q_r: usize, q_c: usize) -> Self {
        assert!(
            p_r.is_multiple_of(q_r) && p_c.is_multiple_of(q_c),
            "grid {p_r}x{p_c} not tileable by {q_r}x{q_c}"
        );
        ProcessGrid {
            p_r,
            p_c,
            q_r,
            q_c,
            order: RankOrder::NodeLocal,
        }
    }

    /// Total rank count.
    pub fn size(&self) -> usize {
        self.p_r * self.p_c
    }

    /// GCDs per node implied by the node-local tile.
    pub fn gcds_per_node(&self) -> usize {
        self.q_r * self.q_c
    }

    /// Grid coordinate of a rank.
    pub fn coord_of(&self, rank: usize) -> (usize, usize) {
        debug_assert!(rank < self.size());
        match self.order {
            RankOrder::ColMajor => (rank % self.p_r, rank / self.p_r),
            RankOrder::NodeLocal => {
                let q = self.gcds_per_node();
                let node = rank / q;
                let slot = rank % q;
                let k_r = self.p_r / self.q_r;
                let (node_r, node_c) = (node % k_r, node / k_r);
                let (slot_r, slot_c) = (slot % self.q_r, slot / self.q_r);
                (node_r * self.q_r + slot_r, node_c * self.q_c + slot_c)
            }
        }
    }

    /// Rank at a grid coordinate.
    pub fn rank_of(&self, pi_r: usize, pi_c: usize) -> usize {
        debug_assert!(pi_r < self.p_r && pi_c < self.p_c);
        match self.order {
            RankOrder::ColMajor => pi_r + pi_c * self.p_r,
            RankOrder::NodeLocal => {
                let k_r = self.p_r / self.q_r;
                let (node_r, slot_r) = (pi_r / self.q_r, pi_r % self.q_r);
                let (node_c, slot_c) = (pi_c / self.q_c, pi_c % self.q_c);
                let node = node_r + node_c * k_r;
                let slot = slot_r + slot_c * self.q_r;
                node * self.gcds_per_node() + slot
            }
        }
    }

    /// Physical placement of every rank, for `WorldSpec`: consecutive
    /// ranks fill consecutive node slots.
    pub fn locs(&self) -> Vec<GcdLoc> {
        let q = self.gcds_per_node();
        (0..self.size())
            .map(|r| GcdLoc {
                node: r / q,
                gcd: r % q,
            })
            .collect()
    }

    /// Ranks of grid row `pi_r`, ordered by column.
    pub fn row_members(&self, pi_r: usize) -> Vec<usize> {
        (0..self.p_c).map(|c| self.rank_of(pi_r, c)).collect()
    }

    /// Ranks of grid column `pi_c`, ordered by row.
    pub fn col_members(&self, pi_c: usize) -> Vec<usize> {
        (0..self.p_r).map(|r| self.rank_of(r, pi_c)).collect()
    }

    /// All world ranks, in rank order — the member list of the world group.
    pub fn world_members(&self) -> Vec<usize> {
        (0..self.size()).collect()
    }

    /// NIC sharers during **row-direction** traffic (L panels moving along
    /// grid rows): the number of distinct grid rows a node hosts.
    pub fn sharers_row(&self) -> u32 {
        match self.order {
            RankOrder::ColMajor => self.gcds_per_node().min(self.p_r) as u32,
            RankOrder::NodeLocal => self.q_r as u32,
        }
    }

    /// NIC sharers during **column-direction** traffic (U panels moving
    /// along grid columns).
    pub fn sharers_col(&self) -> u32 {
        match self.order {
            RankOrder::ColMajor => {
                // A column-major node covers Q consecutive rows of (usually)
                // one column.
                let q = self.gcds_per_node();
                (q / self.p_r.min(q)).max(1) as u32
            }
            RankOrder::NodeLocal => self.q_c as u32,
        }
    }

    /// Owner grid coordinate of global block `(i_blk, j_blk)` under 2D
    /// block-cyclic distribution.
    pub fn owner_of_block(&self, i_blk: usize, j_blk: usize) -> (usize, usize) {
        (i_blk % self.p_r, j_blk % self.p_c)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn col_major_roundtrip() {
        let g = ProcessGrid::col_major(6, 4, 6);
        for rank in 0..g.size() {
            let (r, c) = g.coord_of(rank);
            assert_eq!(g.rank_of(r, c), rank);
        }
        assert_eq!(g.coord_of(0), (0, 0));
        assert_eq!(g.coord_of(1), (1, 0));
        assert_eq!(g.coord_of(6), (0, 1));
    }

    #[test]
    fn node_local_roundtrip() {
        let g = ProcessGrid::node_local(8, 8, 2, 4);
        assert_eq!(g.gcds_per_node(), 8);
        for rank in 0..g.size() {
            let (r, c) = g.coord_of(rank);
            assert_eq!(g.rank_of(r, c), rank, "rank {rank} -> ({r},{c})");
        }
    }

    #[test]
    fn node_local_tiles_are_contiguous_on_node() {
        // All 8 ranks of node 0 must cover the 2x4 tile at origin.
        let g = ProcessGrid::node_local(8, 8, 2, 4);
        let mut coords: Vec<_> = (0..8).map(|r| g.coord_of(r)).collect();
        coords.sort();
        let expect: Vec<_> = (0..2usize)
            .flat_map(|r| (0..4usize).map(move |c| (r, c)))
            .collect();
        assert_eq!(coords, expect);
        // And they are all placed on node 0.
        assert!(g.locs()[..8].iter().all(|l| l.node == 0));
    }

    #[test]
    fn col_major_node_covers_q_rows() {
        // Summit column-major: a 6-GCD node covers 6 consecutive grid rows
        // of one column (when P_r >= 6).
        let g = ProcessGrid::col_major(12, 2, 6);
        let node0: Vec<_> = (0..6).map(|r| g.coord_of(r)).collect();
        assert!(node0.iter().all(|&(_, c)| c == 0));
        let rows: Vec<_> = node0.iter().map(|&(r, _)| r).collect();
        assert_eq!(rows, vec![0, 1, 2, 3, 4, 5]);
    }

    #[test]
    fn sharers_reflect_fig2() {
        // Fig. 2 / Eq. 5: node-local 2x4 grid → 2 row-direction sharers,
        // 4 column-direction sharers.
        let g = ProcessGrid::node_local(8, 8, 2, 4);
        assert_eq!(g.sharers_row(), 2);
        assert_eq!(g.sharers_col(), 4);
        // Column-major on 6-GCD nodes: 6 row-direction sharers.
        let cm = ProcessGrid::col_major(12, 2, 6);
        assert_eq!(cm.sharers_row(), 6);
        assert_eq!(cm.sharers_col(), 1);
    }

    #[test]
    fn row_col_members() {
        let g = ProcessGrid::node_local(4, 4, 2, 2);
        let row2 = g.row_members(2);
        assert_eq!(row2.len(), 4);
        for (c, &rank) in row2.iter().enumerate() {
            assert_eq!(g.coord_of(rank), (2, c));
        }
        let col3 = g.col_members(3);
        for (r, &rank) in col3.iter().enumerate() {
            assert_eq!(g.coord_of(rank), (r, 3));
        }
    }

    #[test]
    fn block_cyclic_owner() {
        let g = ProcessGrid::col_major(3, 2, 6);
        assert_eq!(g.owner_of_block(0, 0), (0, 0));
        assert_eq!(g.owner_of_block(4, 5), (1, 1));
        assert_eq!(g.owner_of_block(3, 2), (0, 0));
    }

    #[test]
    fn locs_fill_nodes_consecutively() {
        let g = ProcessGrid::node_local(4, 4, 2, 2);
        let locs = g.locs();
        assert_eq!(locs.len(), 16);
        assert_eq!(locs[0].node, 0);
        assert_eq!(locs[3].node, 0);
        assert_eq!(locs[4].node, 1);
        assert_eq!(locs[4].gcd, 0);
    }
}
