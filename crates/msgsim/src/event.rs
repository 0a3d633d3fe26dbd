//! The event-driven backend: every rank is a fiber scheduled by a sharded
//! parallel discrete-event scheduler.
//!
//! The thread backend gives each rank an OS thread and a channel; this
//! backend gives each rank a [`Fiber`] and a flat mailbox in one shared
//! [`EventWorld`]. A rank runs until it needs a message that has not
//! been delivered yet, records what it is waiting for, and yields; the
//! sender that later delivers the matching envelope puts the receiver back
//! on the run queue. Because simulated clocks are pure functions of the
//! send/receive matching — and matching is made schedule-independent by
//! the exact `(src, tag, seq)` key on every envelope — *any* schedule
//! of the fibers produces bit-identical clocks to the thread backend, which
//! is what licenses running the scheduler itself in parallel.
//!
//! # Sharding
//!
//! The rank space is partitioned into `K` contiguous shards of
//! `ceil(p / K)` ranks. Each shard owns its ranks' fibers, mailboxes,
//! blocked table, and run queue, and is driven by exactly one worker
//! thread; that single-writer discipline is why the per-shard state lives
//! in an `UnsafeCell` instead of behind a lock. The only cross-thread
//! traffic is an envelope whose destination lives on another shard: the
//! sender pushes it into the destination shard's mutex-protected inbox
//! (bumping the global `in_flight` count first) and rings that shard's
//! condvar. Workers alternate between draining their inbox into local
//! mailboxes and resuming runnable fibers.
//!
//! # Termination
//!
//! "Globally idle" must be distinguished from "one inbox still has mail".
//! A worker with nothing to run parks on its condvar after registering in
//! the global `idle` count — the decrement happens only while holding its
//! own inbox lock, so a parked worker's state is frozen by that lock. The
//! worker that believes it is the last idler verifies: it acquires *all*
//! shard inbox locks in index order and re-checks `idle == K`,
//! `in_flight == 0`, and that every inbox is empty while holding them.
//! Any still-active worker implies `idle < K`, and every state transition
//! that could create work requires a lock the verifier holds, so a
//! successful sweep proves global quiescence; the verifier then sets the
//! `terminated` flag and wakes everyone. Quiescence with unfinished ranks
//! is a communication deadlock: the caller panics with a per-rank
//! diagnosis naming each stuck rank's shard and the `(src, tag, seq)` it
//! waits on (and the shard that owed it).
//!
//! Ranks a run abandons — suspended at a deadlock, or when another rank
//! panicked — are unwound before their worker exits: resumed once with the
//! shard's `cancel` flag set, each unwinds out of its receive, so its
//! frames and captures are dropped and its stack returns to the pool.
//!
//! On targets without a fiber implementation the entry point transparently
//! falls back to the thread backend (identical results, thread-bound
//! scale).

use std::cell::{Cell, UnsafeCell};
use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering::SeqCst};
use std::sync::{Arc, Condvar, Mutex};
use std::time::Instant;

use crate::fiber::{fiber_yield, Fiber, Resume};
use crate::world::{Comm, Envelope, WorldSpec};

/// What a blocked rank is waiting for: the `seq`-th message of the
/// `(src, tag)` stream. 24 bytes (`u32` rank, 64-bit stream tag), small
/// enough that the whole per-rank scheduling record ([`RankState`]) still
/// fits one cache line.
#[derive(Clone, Copy, Debug)]
pub(crate) struct Want {
    pub(crate) seq: u64,
    pub(crate) tag: u64,
    pub(crate) src: u32,
}

/// Per-rank store of delivered-but-unclaimed envelopes: one flat `Vec`,
/// scanned linearly and emptied with `swap_remove`.
///
/// Matching is exact on `(src, tag, seq)`, so storage order is free to be
/// anything. A mailbox holds only what has arrived and not yet been taken
/// (in a 6,912-rank Summit timing run, 23.1 envelopes on average at a
/// take and 145 at most), and its allocation is reused for the whole run,
/// so a scan of warm memory beats hashing every delivery.
struct Mailbox<M>(Vec<Envelope<M>>);

impl<M> Mailbox<M> {
    fn insert(&mut self, env: Envelope<M>) {
        let key = (env.src, env.tag, env.seq);
        debug_assert!(
            self.0.iter().all(|e| (e.src, e.tag, e.seq) != key),
            "duplicate envelope (src, tag, seq) {key:?} in one mailbox"
        );
        self.0.push(env);
    }

    fn take(&mut self, src: usize, tag: u64, seq: u64) -> Option<Envelope<M>> {
        let idx = self
            .0
            .iter()
            .position(|e| e.seq == seq && e.src == src && e.tag == tag)?;
        Some(self.0.swap_remove(idx))
    }
}

/// Scheduling record of one rank. Every delivery touches both the mailbox
/// and the blocked word, so they share a struct that stays within one cache
/// line, making a delivery to a cold rank one miss instead of three.
struct RankState<M> {
    /// Delivered-but-unclaimed envelopes.
    pending: Mailbox<M>,
    /// `Some(want)` while the rank's fiber is suspended in a receive.
    blocked: Option<Want>,
    /// Whether the rank's closure has returned.
    done: bool,
}

// A delivery to a cold rank must stay one cache miss: the mailbox is one
// `Vec` whatever the payload type, so one instance checks them all.
const _: () = assert!(std::mem::size_of::<RankState<Vec<f64>>>() <= 64);

/// State owned by exactly one worker thread (single-writer; see the
/// module-level safety argument).
struct ShardLocal<M> {
    /// First global rank of this shard.
    base: usize,
    /// Per-local-rank scheduling records.
    ranks: Vec<RankState<M>>,
    /// Local indices ready to run, in wake order.
    runq: VecDeque<u32>,
    /// Set once the run is over with ranks still suspended (deadlock or a
    /// rank panic): a rank resumed now unwinds out of its receive.
    cancel: bool,
}

/// Panic payload that unwinds an abandoned rank's fiber. Raised with
/// `resume_unwind`, so the panic hook never sees it.
struct Cancelled;

/// One shard: a concurrent inbox for cross-shard envelopes plus the
/// owner-thread-only scheduling state.
struct Shard<M> {
    inbox: Mutex<Vec<(usize, Envelope<M>)>>,
    cv: Condvar,
    local: UnsafeCell<ShardLocal<M>>,
}

// Safety: `local` is only touched by the shard's owning worker thread
// while workers are live (enforced by `debug_assert`s against
// WORKER_SHARD), and by the main thread after every worker has been
// joined; `inbox` and `cv` are internally synchronized.
unsafe impl<M: Send> Sync for Shard<M> {}

/// Scheduler phase accumulators of one worker, folded into the run-wide
/// [`EventStats`] when the worker exits.
#[derive(Default)]
struct AggStats {
    run_secs: f64,
    deliver_secs: f64,
    idle_secs: f64,
    resumes: u64,
    local_msgs: u64,
    cross_msgs: u64,
}

/// Shared state of one event-backend run.
pub(crate) struct EventWorld<M> {
    shards: Vec<Shard<M>>,
    /// Ranks per shard (last shard may be smaller).
    chunk: usize,
    ranks: usize,
    /// Cross-shard envelopes pushed but not yet drained by their target.
    in_flight: AtomicUsize,
    /// Workers currently parked on their condvar.
    idle: AtomicUsize,
    /// Set by a successful termination sweep: globally quiescent.
    terminated: AtomicBool,
    /// Set when a fiber panicked: all workers abandon their fibers.
    aborted: AtomicBool,
    /// First captured panic payload, re-thrown by the caller.
    panic: Mutex<Option<Box<dyn std::any::Any + Send>>>,
    /// Per-worker phase times, folded in as workers exit.
    agg: Mutex<AggStats>,
}

thread_local! {
    /// Which shard the current thread owns (`usize::MAX` off the workers).
    static WORKER_SHARD: Cell<usize> = const { Cell::new(usize::MAX) };
    /// Same-shard deliveries made from this worker (fibers included).
    static LOCAL_MSGS: Cell<u64> = const { Cell::new(0) };
    /// Cross-shard deliveries made from this worker.
    static CROSS_MSGS: Cell<u64> = const { Cell::new(0) };
    /// Stats of the most recent `run_event` driven from this thread.
    static LAST_STATS: Cell<Option<EventStats>> = const { Cell::new(None) };
}

/// Scheduler cost breakdown of one event-backend run, for perf-report
/// provenance and the `scaling_sweep` per-phase output. All wall-clock
/// quantities are host-dependent; none of them feed back into simulated
/// results.
#[derive(Clone, Copy, Debug, Default)]
pub struct EventStats {
    /// Shards (worker threads) the run was partitioned into.
    pub shards: usize,
    /// Ranks hosted.
    pub ranks: usize,
    /// End-to-end host seconds of the scheduler scope.
    pub wall_secs: f64,
    /// Worker seconds spent inside rank fibers (rank compute + context
    /// switches), summed across workers.
    pub run_secs: f64,
    /// Worker seconds spent draining cross-shard inboxes.
    pub deliver_secs: f64,
    /// Worker seconds spent parked with nothing runnable.
    pub idle_secs: f64,
    /// Estimated seconds of `run_secs` that were context-switch overhead:
    /// the per-process calibrated switch cost times `resumes`. A lower
    /// bound measured on a warm cache: the calibration times one hot fiber
    /// yielding in a loop, while a real resume switches to a rank whose
    /// stack and canary are cold. On the 6,912-rank Summit timing run a
    /// sampling profiler put the switch plus the canary read at ~18% of
    /// the time, against the ~1% this estimate gives.
    pub switch_secs_est: f64,
    /// Fiber resumes performed.
    pub resumes: u64,
    /// Envelopes delivered within their sender's shard.
    pub local_msgs: u64,
    /// Envelopes that crossed shards through an inbox.
    pub cross_msgs: u64,
    /// Fiber stacks recycled from the pool during this run.
    pub stacks_reused: u64,
    /// Fiber stacks freshly allocated during this run.
    pub stacks_allocated: u64,
}

impl EventStats {
    /// Fraction of total worker time that was scheduling overhead rather
    /// than rank execution: deliver + idle + estimated switch cost over
    /// the whole worker budget. 0.0 when nothing was measured. A lower
    /// bound, because [`switch_secs_est`](Self::switch_secs_est) prices
    /// each switch at its warm-cache cost: it read 0.9% on the 6,912-rank
    /// Summit timing run, where switching to cold ranks cost ~18%.
    pub fn sched_overhead(&self) -> f64 {
        let total = self.run_secs + self.deliver_secs + self.idle_secs;
        if total <= 0.0 {
            return 0.0;
        }
        let sched = (self.deliver_secs + self.idle_secs + self.switch_secs_est).min(total);
        sched / total
    }
}

/// Scheduler statistics of the most recent [`WorldSpec::run_event`]
/// completed on the calling thread, if any. Cleared at the start of each
/// run (and left `None` by the thread-backend fallback), so a `Some` is
/// always from the run that just returned.
pub fn last_event_stats() -> Option<EventStats> {
    LAST_STATS.with(|s| s.get())
}

impl<M: Send> EventWorld<M> {
    fn new(ranks: usize, k: usize, chunk: usize) -> Self {
        let shards = (0..k)
            .map(|s| {
                let base = s * chunk;
                let n = chunk.min(ranks - base);
                Shard {
                    inbox: Mutex::new(Vec::new()),
                    cv: Condvar::new(),
                    local: UnsafeCell::new(ShardLocal {
                        base,
                        ranks: (0..n)
                            .map(|_| RankState {
                                pending: Mailbox(Vec::new()),
                                blocked: None,
                                done: false,
                            })
                            .collect(),
                        runq: (0..n as u32).collect(),
                        cancel: false,
                    }),
                }
            })
            .collect();
        EventWorld {
            shards,
            chunk,
            ranks,
            in_flight: AtomicUsize::new(0),
            idle: AtomicUsize::new(0),
            terminated: AtomicBool::new(false),
            aborted: AtomicBool::new(false),
            panic: Mutex::new(None),
            agg: Mutex::new(AggStats::default()),
        }
    }

    #[inline]
    fn shard_of(&self, rank: usize) -> usize {
        rank / self.chunk
    }

    /// Owner-thread access to a shard's scheduling state.
    ///
    /// # Safety
    ///
    /// Caller must be the shard's worker thread (checked in debug builds),
    /// or the main thread after all workers have been joined.
    #[allow(clippy::mut_from_ref)]
    unsafe fn local_mut(&self, shard: usize) -> &mut ShardLocal<M> {
        &mut *self.shards[shard].local.get()
    }

    /// Inserts an envelope into a local mailbox, waking the target rank if
    /// it is suspended waiting for exactly this message.
    ///
    /// # Safety
    ///
    /// Same contract as [`Self::local_mut`].
    unsafe fn deliver_local(&self, shard: usize, li: usize, env: Envelope<M>) {
        debug_assert_eq!(WORKER_SHARD.get(), shard, "local delivery off-owner");
        let loc = self.local_mut(shard);
        let rs = &mut loc.ranks[li];
        let wake = matches!(
            rs.blocked,
            Some(w) if w.seq == env.seq && w.src as usize == env.src && w.tag == env.tag
        );
        if wake {
            rs.blocked = None;
            loc.runq.push_back(li as u32);
        }
        rs.pending.insert(env);
    }

    /// Routes an envelope to `dst`: directly into the mailbox when the
    /// destination shares the sender's shard, through the destination
    /// shard's inbox (and condvar) otherwise.
    pub(crate) fn deliver(&self, dst: usize, env: Envelope<M>) {
        let shard = self.shard_of(dst);
        let li = dst - shard * self.chunk;
        if shard == WORKER_SHARD.get() {
            LOCAL_MSGS.set(LOCAL_MSGS.get() + 1);
            unsafe { self.deliver_local(shard, li, env) };
        } else {
            CROSS_MSGS.set(CROSS_MSGS.get() + 1);
            // Order matters for termination: the in-flight count rises
            // before the envelope becomes visible, so a verifier that
            // reads 0 while holding every inbox lock cannot miss mail.
            self.in_flight.fetch_add(1, SeqCst);
            let target = &self.shards[shard];
            let mut inbox = target.inbox.lock().unwrap();
            inbox.push((li, env));
            target.cv.notify_one();
        }
    }

    /// Removes and returns the `(src, tag, seq)` envelope for `rank`,
    /// suspending the rank's fiber until it has been delivered. Called
    /// from the rank's own fiber, i.e. on its shard's worker thread. If
    /// the run is abandoned meanwhile, unwinds the fiber instead.
    pub(crate) fn obtain(&self, rank: usize, src: usize, tag: u64, seq: u64) -> Envelope<M> {
        let shard = self.shard_of(rank);
        let li = rank - shard * self.chunk;
        debug_assert_eq!(WORKER_SHARD.get(), shard, "obtain off-owner");
        loop {
            {
                let rs = &mut unsafe { self.local_mut(shard) }.ranks[li];
                if let Some(env) = rs.pending.take(src, tag, seq) {
                    return env;
                }
                rs.blocked = Some(Want {
                    seq,
                    src: src as u32,
                    tag,
                });
            }
            // No shard state is borrowed across the switch: the worker
            // (same thread, below this frame) is free to mutate it.
            fiber_yield();
            if unsafe { self.local_mut(shard) }.cancel {
                std::panic::resume_unwind(Box::new(Cancelled));
            }
        }
    }
}

/// One rank's result slot, written by its fiber, read after the join.
struct ResultCell<T>(UnsafeCell<Option<T>>);

// Safety: slot `rank` is written exactly once, by rank `rank`'s fiber on
// its worker thread; the main thread reads only after joining all workers.
unsafe impl<T: Send> Sync for ResultCell<T> {}

/// Picks the per-fiber stack size: debug builds carry much fatter frames.
/// Stacks are reserved, not committed — the OS backs only touched pages —
/// so generosity here costs address space, not memory.
fn fiber_stack_size() -> usize {
    if cfg!(debug_assertions) {
        1 << 20 // 1 MiB
    } else {
        256 << 10 // 256 KiB
    }
}

/// Resolves the shard count: an explicit `WorldSpec::event_shards` wins,
/// then the `HPLAI_EVENT_SHARDS` environment variable (mirroring the
/// `RAYON_NUM_THREADS` convention), then the machine's parallelism — the
/// automatic path additionally refuses to spin up worker threads that
/// small worlds cannot feed.
fn resolve_shards(spec: &WorldSpec, ranks: usize) -> usize {
    let req = if spec.event_shards != 0 {
        spec.event_shards
    } else if let Some(k) = std::env::var("HPLAI_EVENT_SHARDS")
        .ok()
        .and_then(|v| v.parse::<usize>().ok())
        .filter(|&k| k > 0)
    {
        k
    } else {
        let hw = std::thread::available_parallelism().map_or(1, |n| n.get());
        hw.min(ranks.div_ceil(4096))
    };
    req.clamp(1, ranks.max(1))
}

/// The worker loop of one shard: drain the inbox, run local fibers, and
/// when both are dry run the idle/termination protocol described at the
/// module level.
fn shard_worker<M, T, F>(
    world: &Arc<EventWorld<M>>,
    shard: usize,
    spec: &Arc<WorldSpec>,
    f: &F,
    results: &[ResultCell<T>],
    stack_size: usize,
) where
    M: Send + 'static,
    T: Send,
    F: Fn(Comm<M>) -> T + Sync,
{
    WORKER_SHARD.set(shard);
    LOCAL_MSGS.set(0);
    CROSS_MSGS.set(0);
    let k = world.shards.len();
    let base = shard * world.chunk;
    let n_local = world.chunk.min(world.ranks - base);
    let mut fibers: Vec<Option<Fiber>> = (0..n_local).map(|_| None).collect();
    let mut scratch: Vec<(usize, Envelope<M>)> = Vec::new();
    let me = &world.shards[shard];
    let mut ws = AggStats::default();
    /// Fiber resumes between inbox/abort checks: long enough to amortize
    /// the lock, short enough to keep cross-shard latency bounded.
    const STREAK: usize = 256;
    'outer: loop {
        if world.aborted.load(SeqCst) || world.terminated.load(SeqCst) {
            break;
        }
        // Drain the cross-shard inbox into local mailboxes. The swap keeps
        // both buffers' capacity alive — no allocation per batch.
        {
            let mut inbox = me.inbox.lock().unwrap();
            std::mem::swap(&mut *inbox, &mut scratch);
        }
        if !scratch.is_empty() {
            let t0 = Instant::now();
            let n = scratch.len();
            for (li, env) in scratch.drain(..) {
                unsafe { world.deliver_local(shard, li, env) };
            }
            world.in_flight.fetch_sub(n, SeqCst);
            ws.deliver_secs += t0.elapsed().as_secs_f64();
        }
        // Run local fibers until the queue dries up or the streak budget
        // says to look at the inbox again.
        let t0 = Instant::now();
        let mut streak = 0;
        while streak < STREAK {
            let runq = &mut unsafe { world.local_mut(shard) }.runq;
            let Some(li) = runq.pop_front() else {
                break;
            };
            // Start loading the next rank's saved context now, so it is
            // in cache by the time this rank yields.
            if let Some(next) = runq.front().and_then(|&n| fibers[n as usize].as_ref()) {
                next.prefetch();
            }
            let li = li as usize;
            streak += 1;
            ws.resumes += 1;
            let fiber = fibers[li].get_or_insert_with(|| {
                // Fibers are created lazily on their owner thread (a fiber
                // is not Send) with a pooled stack.
                let rank = base + li;
                let world = Arc::clone(world);
                let spec = Arc::clone(spec);
                // Safety: the fiber is driven to completion — or, once
                // the run is over, unwound by the cancel sweep below —
                // before `f` and `results` (borrowed from `run_event`'s
                // frame) die at the end of the worker scope.
                unsafe {
                    Fiber::new(stack_size, move || {
                        let comm = Comm::event(rank, spec, world);
                        let out = f(comm);
                        *results[rank].0.get() = Some(out);
                    })
                }
            });
            match fiber.resume() {
                Resume::Yielded => {}
                Resume::Finished => {
                    let fiber = fibers[li].take().expect("finished fiber vanished");
                    fiber.recycle();
                    unsafe { world.local_mut(shard) }.ranks[li].done = true;
                }
                Resume::Panicked(payload) => {
                    let mut slot = world.panic.lock().unwrap();
                    if slot.is_none() {
                        *slot = Some(payload);
                    }
                    drop(slot);
                    world.aborted.store(true, SeqCst);
                    for s in &world.shards {
                        s.cv.notify_all();
                    }
                    ws.run_secs += t0.elapsed().as_secs_f64();
                    break 'outer;
                }
            }
        }
        if streak > 0 {
            ws.run_secs += t0.elapsed().as_secs_f64();
            continue;
        }
        // Nothing runnable: park, and maybe prove global quiescence.
        let mut inbox = me.inbox.lock().unwrap();
        if !inbox.is_empty() {
            continue;
        }
        world.idle.fetch_add(1, SeqCst);
        let t_idle = Instant::now();
        loop {
            if world.aborted.load(SeqCst) || world.terminated.load(SeqCst) {
                world.idle.fetch_sub(1, SeqCst);
                ws.idle_secs += t_idle.elapsed().as_secs_f64();
                break 'outer;
            }
            if !inbox.is_empty() {
                break;
            }
            if world.idle.load(SeqCst) == k && world.in_flight.load(SeqCst) == 0 {
                // Verification sweep: acquire every inbox lock in index
                // order (total order — concurrent sweeps cannot deadlock)
                // and re-check the quiescence conditions while holding
                // them all.
                drop(inbox);
                let held: Vec<_> = world
                    .shards
                    .iter()
                    .map(|s| s.inbox.lock().unwrap())
                    .collect();
                let quiescent = world.idle.load(SeqCst) == k
                    && world.in_flight.load(SeqCst) == 0
                    && held.iter().all(|q| q.is_empty());
                if quiescent {
                    world.terminated.store(true, SeqCst);
                    for s in &world.shards {
                        s.cv.notify_all();
                    }
                    drop(held);
                    world.idle.fetch_sub(1, SeqCst);
                    ws.idle_secs += t_idle.elapsed().as_secs_f64();
                    break 'outer;
                }
                drop(held);
                inbox = me.inbox.lock().unwrap();
                continue;
            }
            inbox = me.cv.wait(inbox).unwrap();
        }
        world.idle.fetch_sub(1, SeqCst);
        ws.idle_secs += t_idle.elapsed().as_secs_f64();
        drop(inbox);
    }
    // Unfinished fibers still held were abandoned, each suspended in
    // `EventWorld::obtain`. Resumed once with `cancel` set, a fiber unwinds,
    // dropping its frames and start closure, and its stack goes back to
    // the pool. `blocked` stays as it was, for the deadlock diagnosis.
    unsafe { world.local_mut(shard) }.cancel = true;
    for mut fiber in fibers.into_iter().flatten() {
        if fiber.is_finished() || !matches!(fiber.resume(), Resume::Yielded) {
            fiber.recycle();
        }
    }
    let mut agg = world.agg.lock().unwrap();
    agg.run_secs += ws.run_secs;
    agg.deliver_secs += ws.deliver_secs;
    agg.idle_secs += ws.idle_secs;
    agg.resumes += ws.resumes;
    agg.local_msgs += LOCAL_MSGS.get();
    agg.cross_msgs += CROSS_MSGS.get();
}

/// Runs one closure per rank, all as fibers over `K` shard workers, under
/// the discrete-event scheduler. Returns results in rank order; a rank
/// panic is re-thrown (like the thread backend's join), and a
/// communication deadlock panics with a blocked-rank diagnosis instead of
/// hanging.
pub(crate) fn run_event<M, T, F>(spec: &WorldSpec, f: F) -> Vec<T>
where
    M: Send + 'static,
    T: Send,
    F: Fn(Comm<M>) -> T + Sync,
{
    LAST_STATS.set(None);
    if !crate::fiber::supported() {
        // No fiber implementation on this target: same clocks, OS-thread
        // scale, via the functional transport.
        return spec.run(f);
    }
    let p = spec.ranks();
    if p == 0 {
        return Vec::new();
    }
    let k = resolve_shards(spec, p);
    let chunk = p.div_ceil(k);
    let k = p.div_ceil(chunk); // drop shards the rounding left empty
    let world: Arc<EventWorld<M>> = Arc::new(EventWorld::new(p, k, chunk));
    let results: Vec<ResultCell<T>> = (0..p).map(|_| ResultCell(UnsafeCell::new(None))).collect();
    let spec_arc = Arc::new(spec.clone());
    let stack_size = fiber_stack_size();
    let (reused0, alloc0) = crate::fiber::stack_pool_stats();
    let t0 = Instant::now();
    // Shard 0 runs inline on the calling thread: a 1-shard run costs no
    // thread spawn, and callers that batch many runs (the multi-solve
    // service) keep their thread-local scratch arenas warm across jobs.
    std::thread::scope(|scope| {
        for shard in 1..k {
            let world = &world;
            let spec_arc = &spec_arc;
            let f = &f;
            let results = &results[..];
            scope.spawn(move || shard_worker(world, shard, spec_arc, f, results, stack_size));
        }
        shard_worker(&world, 0, &spec_arc, &f, &results, stack_size);
    });
    WORKER_SHARD.set(usize::MAX);
    let wall_secs = t0.elapsed().as_secs_f64();
    if let Some(payload) = world.panic.lock().unwrap().take() {
        std::panic::resume_unwind(payload);
    }
    // Quiescent, workers joined: exclusive access to every shard's state.
    let mut stuck: Vec<(usize, Option<Want>)> = Vec::new();
    for shard in 0..k {
        let loc = unsafe { world.local_mut(shard) };
        for (li, rs) in loc.ranks.iter().enumerate() {
            if !rs.done {
                stuck.push((loc.base + li, rs.blocked));
            }
        }
    }
    if !stuck.is_empty() {
        let detail: Vec<String> = stuck
            .iter()
            .take(8)
            .map(|&(r, w)| match w {
                Some(w) => format!(
                    "rank {r} (shard {}) waiting for (src {} @ shard {}, tag {:#x}, seq {})",
                    world.shard_of(r),
                    w.src,
                    world.shard_of(w.src as usize),
                    w.tag,
                    w.seq
                ),
                None => format!(
                    "rank {r} (shard {}) suspended outside a receive",
                    world.shard_of(r)
                ),
            })
            .collect();
        panic!(
            "event backend deadlock: {} of {p} ranks never finished across {k} shard(s); {}",
            stuck.len(),
            detail.join("; ")
        );
    }
    let (reused1, alloc1) = crate::fiber::stack_pool_stats();
    let agg = world.agg.lock().unwrap();
    let stats = EventStats {
        shards: k,
        ranks: p,
        wall_secs,
        run_secs: agg.run_secs,
        deliver_secs: agg.deliver_secs,
        idle_secs: agg.idle_secs,
        switch_secs_est: crate::fiber::switch_cost_estimate() * agg.resumes as f64,
        resumes: agg.resumes,
        local_msgs: agg.local_msgs,
        cross_msgs: agg.cross_msgs,
        stacks_reused: reused1.saturating_sub(reused0),
        stacks_allocated: alloc1.saturating_sub(alloc0),
    };
    drop(agg);
    LAST_STATS.set(Some(stats));
    results
        .into_iter()
        .map(|c| c.0.into_inner().expect("finished rank left no result"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// SplitMix64: a seeded, dependency-free operation stream.
    struct Rng(u64);

    impl Rng {
        fn next(&mut self) -> u64 {
            self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^ (z >> 31)
        }

        fn below(&mut self, n: usize) -> usize {
            (self.next() % n as u64) as usize
        }
    }

    type Key = (usize, u64, u64);

    fn view(e: &Envelope<u64>) -> (Key, u64, u64, u64) {
        ((e.src, e.tag, e.seq), e.arrive.to_bits(), e.bytes, e.msg)
    }

    fn envelope(src: usize, tag: u64, seq: u64, rng: &mut Rng, id: u64) -> Envelope<u64> {
        Envelope {
            src,
            tag,
            seq,
            arrive: rng.next() as f64 * 1e-19,
            bytes: rng.next() % 4096,
            msg: id,
        }
    }

    /// `Mailbox` against a plain `Vec` searched by exact key: random
    /// insert / take sequences that fill deep and drain back, over
    /// long-lived multi-envelope streams (taken out of `seq` order) and
    /// one-shot collective streams, plus probes for keys that were never
    /// delivered or already taken. Then many-to-one traffic: 4,096
    /// one-envelope streams from distinct sources, taken newest first.
    #[test]
    fn mailbox_matches_a_naive_model() {
        for seed in 0..40 {
            let mut rng = Rng(seed);
            let mut set = Mailbox::<u64>(Vec::new());
            let mut model: Vec<Envelope<u64>> = Vec::new();
            let mut next_seq: std::collections::HashMap<(usize, u64), u64> = Default::default();
            let mut one_shot = 1u64 << 40;
            let mut id = 0u64;
            // Alternate fill and drain phases so the depth rises and falls.
            for phase in 0..8usize {
                let filling = phase.is_multiple_of(2);
                for _ in 0..300 {
                    let roll = rng.below(10);
                    if (filling && roll < 6) || (!filling && roll < 2) {
                        let (src, tag) = if rng.below(3) == 0 {
                            one_shot += 1;
                            (rng.below(64), one_shot)
                        } else {
                            (rng.below(6), rng.below(3) as u64)
                        };
                        let seq = next_seq.entry((src, tag)).or_insert(0);
                        id += 1;
                        let env = envelope(src, tag, *seq, &mut rng, id);
                        *seq += 1;
                        model.push(Envelope { ..env });
                        set.insert(env);
                        continue;
                    }
                    // Half the probes name a live envelope (any stream
                    // position, so seq order is not respected); the rest a
                    // key that is absent.
                    let key: Key = if !model.is_empty() && rng.below(2) == 0 {
                        let e = &model[rng.below(model.len())];
                        (e.src, e.tag, e.seq)
                    } else {
                        (rng.below(6), rng.below(3) as u64, rng.below(400) as u64)
                    };
                    let pos = model.iter().position(|e| (e.src, e.tag, e.seq) == key);
                    let want = pos.map(|i| model.remove(i));
                    let got = set.take(key.0, key.1, key.2);
                    assert_eq!(
                        got.as_ref().map(view),
                        want.as_ref().map(view),
                        "seed {seed}: take {key:?}"
                    );
                }
            }
            // Everything still pending comes back out exactly once.
            for e in std::mem::take(&mut model) {
                let got = set.take(e.src, e.tag, e.seq);
                assert_eq!(got.as_ref().map(view), Some(view(&e)));
                assert!(set.take(e.src, e.tag, e.seq).is_none());
            }
            assert!(set.0.is_empty(), "seed {seed}: mailbox kept envelopes");
        }
        let mut rng = Rng(7);
        let mut set = Mailbox::<u64>(Vec::new());
        let sent: Vec<Envelope<u64>> = (0..4096)
            .map(|src| envelope(src, 0x8000_0001, 0, &mut rng, src as u64))
            .collect();
        for e in &sent {
            set.insert(Envelope { ..*e });
        }
        for e in sent.iter().rev() {
            assert!(set.take(e.src, e.tag, 1).is_none());
            let got = set.take(e.src, e.tag, e.seq);
            assert_eq!(got.as_ref().map(view), Some(view(e)), "src {}", e.src);
            assert!(set.take(e.src, e.tag, e.seq).is_none());
        }
        assert!(set.0.is_empty());
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "duplicate envelope")]
    fn mailbox_rejects_a_duplicate_key() {
        let mut rng = Rng(1);
        let mut set = Mailbox::<u64>(Vec::new());
        set.insert(envelope(3, 9, 0, &mut rng, 1));
        set.insert(envelope(3, 9, 0, &mut rng, 2));
    }
}
