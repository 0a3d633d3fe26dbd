//! Bitwise pin of every broadcast algorithm's simulated clocks.
//!
//! For each algorithm, tuning, group size, root and payload size, every
//! member's `now()`, `wait_total()` and `hidden_total()` bit patterns and
//! `bytes_sent()` are folded into one FNV-1a digest per case, both for a
//! blocking `bcast` and for a split-phase `ibcast` / local `charge` /
//! `ibcast_join`. Both rank hosts must agree bit for bit before the digest
//! is compared with `tests/golden/bcast_pin.txt`. A refactor of the
//! collectives that leaves every simulated bit alone keeps this file
//! unchanged; `GOLDEN_REGEN=1 cargo test -p mxp-msgsim --test bcast_pin`
//! rewrites it when a change to the simulated timeline is intended.

use mxp_msgsim::{BcastAlgo, CollectiveTuning, Comm, Group, WorldSpec};
use mxp_netsim::{frontier_network, summit_network};
use std::fmt::Write;

const GROUP_SIZES: [usize; 7] = [1, 2, 3, 4, 5, 8, 13];
const BYTES: [u64; 5] = [0, 1, 512 << 10, 1280 << 10, 200 << 20];
const TUNINGS: [&str; 3] = ["default", "summit", "frontier"];

/// Local work between post and join of a split-phase broadcast, scaled by
/// member index so members cover different shares of the flight time.
const SPLIT_CHARGE: f64 = 30e-6;

/// Two ranks per node, so chains mix intra- and inter-node hops.
fn world(g: usize, tuning: &str) -> WorldSpec {
    let net = if tuning == "summit" {
        summit_network()
    } else {
        frontier_network()
    };
    let mut w = WorldSpec::cluster(g.div_ceil(2), 2, net);
    w.locs.truncate(g);
    match tuning {
        "summit" => w.tuning = CollectiveTuning::summit(),
        "frontier" => w.tuning = CollectiveTuning::frontier(),
        _ => {}
    }
    w
}

/// Per member: (now, wait_total, hidden_total) bits and bytes_sent.
type Clocks = Vec<[u64; 4]>;

fn run_case(w: &WorldSpec, root: usize, bytes: u64, algo: BcastAlgo, split: bool) -> Clocks {
    let g = w.ranks();
    let payload = 1000 + root as u64;
    let job = move |mut c: Comm<u64>| {
        let mut grp = Group::new(c.rank(), (0..g).collect(), 1).unwrap();
        let msg = (grp.my_idx() == root).then_some(payload);
        let got = if split {
            let req = grp.ibcast(&mut c, root, msg, bytes, algo);
            c.charge(SPLIT_CHARGE * (1 + grp.my_idx()) as f64);
            grp.ibcast_join(&mut c, req).0
        } else {
            grp.bcast(&mut c, root, msg, bytes, algo)
        };
        assert_eq!(got, payload, "{algo:?} g={g} root={root} rank {}", c.rank());
        [
            c.now().to_bits(),
            c.wait_total().to_bits(),
            c.hidden_total().to_bits(),
            c.bytes_sent(),
        ]
    };
    let threads = w.run(job);
    let events = w.run_event(job);
    assert_eq!(
        threads, events,
        "{algo:?} g={g} root={root} bytes={bytes} split={split}: hosts disagree"
    );
    threads
}

fn fnv1a(clocks: &Clocks) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for word in clocks.iter().flatten() {
        for b in word.to_le_bytes() {
            h = (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
        }
    }
    h
}

/// One line per (algorithm, tuning, mode, group size, root), holding one
/// digest per payload size in [`BYTES`] order.
fn snapshot() -> String {
    let mut out = String::new();
    for algo in BcastAlgo::ALL {
        for tuning in TUNINGS {
            for split in [false, true] {
                for g in GROUP_SIZES {
                    let w = world(g, tuning);
                    let mut roots = vec![0, g / 2, g - 1];
                    roots.dedup();
                    for root in roots {
                        let mode = if split { "split" } else { "blocking" };
                        write!(out, "{} {tuning} {mode} g={g} root={root}:", algo.label()).unwrap();
                        for bytes in BYTES {
                            let d = fnv1a(&run_case(&w, root, bytes, algo, split));
                            write!(out, " {d:016x}").unwrap();
                        }
                        out.push('\n');
                    }
                }
            }
        }
    }
    out
}

#[test]
fn broadcast_clocks_match_the_pinned_digests() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/golden/bcast_pin.txt");
    let got = snapshot();
    if std::env::var_os("GOLDEN_REGEN").is_some() {
        std::fs::write(path, &got).expect("write golden");
        return;
    }
    let want = std::fs::read_to_string(path)
        .unwrap_or_else(|e| panic!("missing {path} ({e}); GOLDEN_REGEN=1 generates it"));
    for (i, (g, w)) in got.lines().zip(want.lines()).enumerate() {
        assert_eq!(g, w, "line {}: broadcast clocks moved", i + 1);
    }
    assert_eq!(got.lines().count(), want.lines().count(), "case count");
}
