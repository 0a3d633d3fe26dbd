//! An event-host run returns every byte it allocates.
//!
//! A counting global allocator tracks live heap bytes. The same event-host
//! run is made three times, with the stack pool trimmed after each; the
//! first run warms one-time state (scheduler statistics, the switch-cost
//! calibration), so the live bytes after the second and third runs must be
//! equal. A per-fiber leak shows up as the difference: bytes per fiber
//! times the rank count. This file holds one test so that no other test
//! allocates while it counts.

use mxp_msgsim::{fiber, Group, WorldSpec};
use mxp_netsim::frontier_network;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicIsize, Ordering};

struct Counting;

static LIVE: AtomicIsize = AtomicIsize::new(0);

unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        LIVE.fetch_add(layout.size() as isize, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE.fetch_sub(layout.size() as isize, Ordering::Relaxed);
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        LIVE.fetch_add(
            new_size as isize - layout.size() as isize,
            Ordering::Relaxed,
        );
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

const RANKS: usize = 64;

/// One event-host run on a single shard (no worker threads): every rank
/// joins a world broadcast and a barrier. Returns the live heap bytes once
/// the run has returned and the stack pool is trimmed.
fn run_once() -> isize {
    let mut w = WorldSpec::cluster(RANKS / 4, 4, frontier_network());
    w.event_shards = 1;
    let sums = w.run_event(|mut c: mxp_msgsim::Comm<u64>| {
        let mut g = Group::new(c.rank(), (0..RANKS).collect(), 1).unwrap();
        let root = g.my_idx() == 0;
        let got = g.bcast(&mut c, 0, root.then_some(7), 64, mxp_msgsim::BcastAlgo::Lib);
        g.barrier(&mut c);
        got
    });
    assert!(sums.iter().all(|&v| v == 7));
    drop(sums);
    fiber::trim_stack_pool();
    LIVE.load(Ordering::Relaxed)
}

#[test]
fn event_runs_free_every_fiber_allocation() {
    if !fiber::supported() {
        return;
    }
    run_once();
    let second = run_once();
    let third = run_once();
    assert_eq!(
        third - second,
        0,
        "live heap grew by {} B over one {RANKS}-rank event run ({} B per rank)",
        third - second,
        (third - second) as f64 / RANKS as f64
    );
}
