//! Edge-case tests for the group collectives: single-member groups,
//! non-power-of-two ring sizes, and zero-byte payloads must work for every
//! broadcast algorithm, through both the blocking and split-phase entry
//! points.

use mxp_msgsim::{BcastAlgo, CollectiveTuning, Group, WorldSpec};
use mxp_netsim::{frontier_network, summit_network};

fn world(p: usize, q: usize, summit: bool) -> WorldSpec {
    let nodes = p.div_ceil(q);
    let mut w = WorldSpec::cluster(
        nodes,
        q,
        if summit {
            summit_network()
        } else {
            frontier_network()
        },
    );
    w.locs.truncate(p);
    w.tuning = if summit {
        CollectiveTuning::summit()
    } else {
        CollectiveTuning::frontier()
    };
    w
}

/// Runs a blocking broadcast over all `p` ranks, two per node (one when
/// `p = 1`), so ring hops mix intra- and inter-node links.
fn bcast_all(p: usize, root: usize, bytes: u64, algo: BcastAlgo, summit: bool) -> Vec<u64> {
    let w = world(p, p.min(2), summit);
    w.run::<u64, _, _>(move |mut c| {
        let mut g = Group::new(c.rank(), (0..p).collect(), 1).unwrap();
        let msg = if g.my_idx() == root { Some(42) } else { None };
        g.bcast(&mut c, root, msg, bytes, algo)
    })
}

/// [`bcast_all`] through the split-phase `ibcast` / `ibcast_join` pair.
fn ibcast_all(p: usize, root: usize, bytes: u64, algo: BcastAlgo, summit: bool) -> Vec<u64> {
    let w = world(p, p.min(2), summit);
    w.run::<u64, _, _>(move |mut c| {
        let mut g = Group::new(c.rank(), (0..p).collect(), 1).unwrap();
        let msg = if g.my_idx() == root { Some(42) } else { None };
        let req = g.ibcast(&mut c, root, msg, bytes, algo);
        let (m, info) = g.ibcast_join(&mut c, req);
        assert!(info.waited >= 0.0 && info.hidden >= 0.0);
        m
    })
}

#[test]
fn single_member_group_every_algo() {
    for algo in BcastAlgo::ALL {
        for summit in [false, true] {
            let got = bcast_all(1, 0, 4096, algo, summit);
            assert_eq!(got, vec![42], "{algo:?} summit={summit}");
            let got = ibcast_all(1, 0, 4096, algo, summit);
            assert_eq!(got, vec![42], "{algo:?} summit={summit} split-phase");
        }
    }
}

#[test]
fn non_power_of_two_rings_every_algo() {
    // Odd and prime group sizes stress the mid-split of the modified
    // rings (Ring1M chains, Ring2M meet-in-the-middle).
    for p in [3usize, 5, 6, 7] {
        for algo in BcastAlgo::ALL {
            for root in [0, p - 1, p / 2] {
                let got = bcast_all(p, root, 1 << 20, algo, false);
                assert_eq!(got, vec![42; p], "{algo:?} p={p} root={root}");
            }
        }
    }
}

#[test]
fn zero_byte_payload_every_algo() {
    for p in [1usize, 2, 3, 5, 8] {
        for algo in BcastAlgo::ALL {
            let got = bcast_all(p, 0, 0, algo, false);
            assert_eq!(got, vec![42; p], "{algo:?} p={p} blocking zero-byte");
            let got = ibcast_all(p, 0, 0, algo, false);
            assert_eq!(got, vec![42; p], "{algo:?} p={p} split-phase zero-byte");
        }
    }
}

#[test]
fn split_phase_matches_blocking_delivery() {
    for p in [2usize, 4, 5, 7] {
        for algo in BcastAlgo::ALL {
            for summit in [false, true] {
                let a = bcast_all(p, 1 % p, 1 << 18, algo, summit);
                let b = ibcast_all(p, 1 % p, 1 << 18, algo, summit);
                assert_eq!(a, b, "{algo:?} p={p} summit={summit}");
            }
        }
    }
}

#[test]
fn zero_byte_collectives_are_cheap() {
    // A zero-byte broadcast still pays latency and overheads but must not
    // charge any bandwidth term: it completes well under a millisecond of
    // simulated time at any swept size.
    for p in [2usize, 5, 8] {
        for algo in BcastAlgo::ALL {
            let w = world(p, 2, false);
            let clocks = w.run::<u64, _, _>(move |mut c| {
                let mut g = Group::new(c.rank(), (0..p).collect(), 1).unwrap();
                let msg = if g.my_idx() == 0 { Some(0) } else { None };
                g.bcast(&mut c, 0, msg, 0, algo);
                c.now().to_bits()
            });
            for bits in clocks {
                let t = f64::from_bits(bits);
                assert!(t < 1e-3, "{algo:?} p={p}: zero-byte bcast took {t}");
            }
        }
    }
}

#[test]
fn deferred_ibcast_root_without_async_progress_still_delivers() {
    // Summit tuning has no async progress: the root's injection is
    // deferred to the join. Everyone must still get the payload, and the
    // root must report zero hidden (it did the work at join, not in
    // flight).
    for p in [2usize, 3, 6] {
        let w = world(p, 2, true);
        let got = w.run::<u64, _, _>(move |mut c| {
            let mut g = Group::new(c.rank(), (0..p).collect(), 1).unwrap();
            let msg = if g.my_idx() == 0 { Some(7) } else { None };
            let req = g.ibcast(&mut c, 0, msg, 1 << 16, BcastAlgo::IBcast);
            let (m, info) = g.ibcast_join(&mut c, req);
            if g.my_idx() == 0 {
                assert_eq!(info.hidden, 0.0, "root must not claim hidden overlap");
            }
            m
        });
        assert_eq!(got, vec![7; p]);
    }
}
