//! A split-phase broadcast that stays in flight while its group's 16-bit
//! collective sequence wraps must still receive its own payload.
//!
//! Each blocking broadcast takes two tags from the group, so the 32,768th
//! one after the posted broadcast reuses the low 32 bits of the posted
//! broadcast's tag. Only the wrap generation in the stream tag's high word
//! keeps the late join from matching that broadcast's message (or the
//! broadcast from matching the join's).

use mxp_msgsim::{BcastAlgo, Group, WorldSpec};
use mxp_netsim::frontier_network;

const BCASTS: u64 = 40_000;

/// Runs the posted-broadcast / many-broadcasts / late-join sequence and
/// returns, per rank, the joined payload and the index of the first
/// blocking broadcast that delivered a foreign payload.
fn posted_across_a_wrap(event: bool, algo: BcastAlgo) -> Vec<(u64, Option<u64>)> {
    let w = WorldSpec::cluster(2, 1, frontier_network());
    let job = move |mut c: mxp_msgsim::Comm<u64>| {
        let mut g = Group::new(c.rank(), vec![0, 1], 1).unwrap();
        let root = g.my_idx() == 0;
        let x = g.ibcast(&mut c, 0, root.then_some(7), 64, algo);
        let mut first_mismatch = None;
        for i in 0..BCASTS {
            let got = g.bcast(&mut c, 0, root.then_some(1000 + i), 64, algo);
            if got != 1000 + i && first_mismatch.is_none() {
                first_mismatch = Some(i);
            }
        }
        let (joined, _) = g.ibcast_join(&mut c, x);
        (joined, first_mismatch)
    };
    if event {
        w.run_event(job)
    } else {
        w.run(job)
    }
}

#[test]
fn a_posted_broadcast_survives_a_tag_sequence_wrap() {
    for event in [false, true] {
        for algo in [BcastAlgo::Lib, BcastAlgo::Ring1] {
            for (rank, (joined, mismatch)) in
                posted_across_a_wrap(event, algo).into_iter().enumerate()
            {
                assert_eq!(
                    mismatch, None,
                    "rank {rank} event={event} {algo:?}: first mismatch at {mismatch:?}"
                );
                assert_eq!(joined, 7, "rank {rank} event={event} {algo:?}: joined");
            }
        }
    }
}
