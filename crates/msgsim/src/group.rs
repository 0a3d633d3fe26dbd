//! Sub-communicators: the row and column groups of the 2D process grid.

use std::sync::Arc;

/// Bit 31 of every collective stream tag; point-to-point tags stay below
/// it.
pub(crate) const COLLECTIVE_TAG: u32 = 0x8000_0000;

/// A subset of world ranks acting as a communicator (like an
/// `MPI_Comm_split` result). All members must invoke each collective in the
/// same order; a per-group sequence number keeps their tags matched.
///
/// The member list is shared: every rank's handle on the same group can
/// point at one allocation ([`Group::shared`]), so per-rank state does not
/// grow with the group's size.
#[derive(Clone, Debug)]
pub struct Group {
    members: Arc<[usize]>,
    my_idx: usize,
    color: u32,
    seq: u32,
    /// Memoized worst member-to-member path cost (see
    /// `Group::worst_cost`): membership and the network model are fixed
    /// for the group's lifetime, and rescanning every member on each
    /// broadcast root was measurable at full-machine extents.
    pub(crate) worst_cost: Option<mxp_netsim::P2pCost>,
}

impl Group {
    /// Builds the group for a member rank. Returns `None` if `world_rank`
    /// is not in `members`. `color` must be unique among groups that a rank
    /// uses concurrently (e.g. row index vs column index with distinct
    /// namespaces).
    pub fn new(world_rank: usize, members: Vec<usize>, color: u32) -> Option<Self> {
        let my_idx = members.iter().position(|&m| m == world_rank)?;
        Some(Group::shared(members.into(), my_idx, color))
    }

    /// Builds the group for member `my_idx` over a member list shared with
    /// the other members' handles. The caller knows its index (e.g. from
    /// grid coordinates), so no O(len) search runs per rank. `color` has
    /// the same contract as in [`Group::new`].
    pub fn shared(members: Arc<[usize]>, my_idx: usize, color: u32) -> Self {
        assert!(color < 0x4000, "color {color} out of tag space");
        assert!(
            my_idx < members.len(),
            "member index {my_idx} outside a {}-member group",
            members.len()
        );
        Group {
            members,
            my_idx,
            color,
            seq: 0,
            worst_cost: None,
        }
    }

    /// Number of members.
    pub fn len(&self) -> usize {
        self.members.len()
    }

    /// `true` if the group has no members (never constructible).
    pub fn is_empty(&self) -> bool {
        self.members.is_empty()
    }

    /// This rank's index within the group.
    pub fn my_idx(&self) -> usize {
        self.my_idx
    }

    /// World rank of group member `idx`.
    pub fn member(&self, idx: usize) -> usize {
        self.members[idx]
    }

    /// All member world ranks, in group order.
    pub fn members(&self) -> &[usize] {
        &self.members
    }

    /// Allocates the stream tag for the next collective on this group.
    ///
    /// The low 32 bits are `COLLECTIVE_TAG | color << 16 | seq & 0xFFFF`;
    /// the high 32 bits are the wrap generation `seq >> 16`. A tag
    /// therefore never recurs within a run, which is what lets a finished
    /// collective retire its stream counters (`Comm::retire`): no later
    /// message can arrive on a retired tag.
    pub(crate) fn next_tag(&mut self) -> u64 {
        let low = COLLECTIVE_TAG | (self.color << 16) | (self.seq & 0xFFFF);
        let tag = (u64::from(self.seq >> 16) << 32) | u64::from(low);
        self.seq = self.seq.wrapping_add(1);
        tag
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn membership() {
        let g = Group::new(7, vec![3, 7, 11], 5).unwrap();
        assert_eq!(g.len(), 3);
        assert_eq!(g.my_idx(), 1);
        assert_eq!(g.member(2), 11);
        assert!(Group::new(8, vec![3, 7, 11], 5).is_none());
    }

    #[test]
    fn shared_groups_read_one_member_list() {
        let members: Arc<[usize]> = vec![3, 7, 11].into();
        let a = Group::shared(Arc::clone(&members), 0, 5);
        let b = Group::shared(members, 2, 5);
        assert!(std::ptr::eq(a.members(), b.members()));
        assert_eq!((a.member(a.my_idx()), b.member(b.my_idx())), (3, 11));
        let c = Group::new(3, vec![3, 7, 11], 5).unwrap();
        assert!(!std::ptr::eq(a.members(), c.members()));
    }

    #[test]
    #[should_panic(expected = "member index")]
    fn shared_rejects_an_index_outside_the_group() {
        Group::shared(vec![0, 1].into(), 2, 1);
    }

    #[test]
    fn tags_are_distinct_per_color_and_seq() {
        let mut a = Group::new(0, vec![0, 1], 1).unwrap();
        let mut b = Group::new(0, vec![0, 1], 2).unwrap();
        let t1 = a.next_tag();
        let t2 = a.next_tag();
        let t3 = b.next_tag();
        assert_ne!(t1, t2);
        assert_ne!(t1, t3);
        // All collective tags carry the high bit.
        assert!(t1 & 0x8000_0000 != 0);
    }

    #[test]
    fn tags_never_recur_across_a_sequence_wrap() {
        let mut g = Group::new(0, vec![0, 1], 3).unwrap();
        let first = g.next_tag();
        for _ in 1..0x1_0000 {
            g.next_tag();
        }
        let wrapped = g.next_tag();
        // Same low word as the first tag (the historical 32-bit tag), a
        // new generation in the high word.
        assert_eq!(wrapped as u32, first as u32);
        assert_eq!((first >> 32, wrapped >> 32), (0, 1));
    }

    #[test]
    fn matching_order_produces_matching_tags() {
        let mut on_rank0 = Group::new(0, vec![0, 1, 2], 9).unwrap();
        let mut on_rank2 = Group::new(2, vec![0, 1, 2], 9).unwrap();
        assert_eq!(on_rank0.next_tag(), on_rank2.next_tag());
        assert_eq!(on_rank0.next_tag(), on_rank2.next_tag());
    }
}
