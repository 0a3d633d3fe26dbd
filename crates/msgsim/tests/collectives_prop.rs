//! Property-based tests of the message runtime's collectives: delivery
//! correctness and clock determinism across random group sizes, roots,
//! payload sizes, and algorithms.

use mxp_msgsim::{BcastAlgo, CollectiveTuning, Group, WorldSpec};
use mxp_netsim::{frontier_network, summit_network};
use proptest::prelude::*;

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

fn algo_of(i: u8) -> BcastAlgo {
    BcastAlgo::ALL[i as usize % BcastAlgo::ALL.len()]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Every algorithm delivers the root's payload to every member, for
    /// any group size, root, byte count, and vendor tuning.
    #[test]
    fn bcast_delivers(
        p in 2usize..10,
        q in 1usize..4,
        root_seed in 0usize..100,
        algo_i in 0u8..5,
        bytes in 0u64..(64 << 20),
        summit: bool,
    ) {
        let root = root_seed % p;
        let algo = algo_of(algo_i);
        let w = world(p, q, summit);
        let payload: Vec<u64> = (0..32).map(|i| root as u64 * 1000 + i).collect();
        let expect = payload.clone();
        let results = w.run::<Vec<u64>, _, _>(move |mut c| {
            let mut g = Group::new(c.rank(), (0..p).collect(), 1).unwrap();
            let msg = if g.my_idx() == root { Some(payload.clone()) } else { None };
            g.bcast(&mut c, root, msg, bytes, algo)
        });
        for r in results {
            prop_assert_eq!(&r, &expect);
        }
    }

    /// Simulated clocks are a pure function of the schedule: two runs of
    /// the same program give identical clocks for every algorithm.
    #[test]
    fn clocks_deterministic(p in 2usize..9, algo_i in 0u8..5, bytes in 1u64..(16 << 20)) {
        let algo = algo_of(algo_i);
        let w = world(p, 2, false);
        let job = move |mut c: mxp_msgsim::Comm<()>| {
            let mut g = Group::new(c.rank(), (0..p).collect(), 1).unwrap();
            for root in 0..p.min(3) {
                let msg = if g.my_idx() == root { Some(()) } else { None };
                g.bcast(&mut c, root, msg, bytes, algo);
            }
            c.now()
        };
        let a = w.run(job);
        let b = w.run(job);
        prop_assert_eq!(a, b);
    }

    /// Larger payloads never arrive earlier (monotonicity of the cost
    /// model through the whole collective stack).
    #[test]
    fn bcast_time_monotone_in_bytes(p in 3usize..8, algo_i in 0u8..5) {
        let algo = algo_of(algo_i);
        let w = world(p, 2, false);
        let t_of = |bytes: u64| {
            let clocks = w.run::<(), _, _>(move |mut c| {
                let mut g = Group::new(c.rank(), (0..p).collect(), 1).unwrap();
                let msg = if g.my_idx() == 0 { Some(()) } else { None };
                g.bcast(&mut c, 0, msg, bytes, algo);
                c.now()
            });
            clocks.into_iter().fold(0.0, f64::max)
        };
        let small = t_of(1 << 16);
        let big = t_of(64 << 20);
        prop_assert!(big >= small, "{} < {}", big, small);
    }
}
