//! Stackful coroutines ("fibers") for the event-driven backend.
//!
//! The event backend runs every simulated rank as a suspended computation
//! on its own small heap-allocated stack, all multiplexed onto the one OS
//! thread that drives the discrete-event scheduler. A fiber costs a stack
//! allocation (lazily committed by the OS page by page) instead of an OS
//! thread, which is what lets a single process hold the 75,264 ranks of a
//! full Frontier run.
//!
//! The context switch is the classic callee-saved-register swap: push
//! `rbp/rbx/r12..r15`, save `rsp` into the suspended context, load the
//! resumed context's `rsp`, pop, `ret`. Floating-point state needs no
//! saving — the x86-64 SysV ABI makes every vector register caller-saved,
//! and neither side changes `mxcsr`/x87 control modes. On targets other
//! than x86-64 the module compiles to a stub and
//! [`supported`] reports `false`; the event backend then falls back to the
//! thread backend (same clocks, thread-bound scale).
//!
//! Scheduling is strictly cooperative and single-threaded: the scheduler
//! [`resume`](Fiber::resume)s a fiber, which runs until it calls
//! [`fiber_yield`] (or finishes), at which point control returns to the
//! scheduler. Panics inside a fiber are caught at the fiber boundary and
//! re-thrown by `resume`'s caller, mirroring how the thread backend
//! propagates a rank panic through `join`.

#[cfg(target_arch = "x86_64")]
mod imp {
    use std::any::Any;
    use std::cell::Cell;
    use std::panic::{catch_unwind, AssertUnwindSafe};
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::sync::{Mutex, OnceLock};

    /// `true` when this target has a fiber implementation.
    pub fn supported() -> bool {
        true
    }

    /// Recycled fiber stacks. A full-Frontier run churns ~75k × 256 KiB
    /// reservations; reusing the backing `Vec`s keeps the pages the OS
    /// already committed (and their page-table entries) live across ranks
    /// and across runs, instead of re-faulting every stack from zero.
    static STACK_POOL: Mutex<Vec<Vec<u8>>> = Mutex::new(Vec::new());
    static STACKS_REUSED: AtomicU64 = AtomicU64::new(0);
    static STACKS_ALLOCATED: AtomicU64 = AtomicU64::new(0);

    /// Pops a pooled stack of at least `size` bytes, or allocates one.
    /// Undersized pool entries (from smaller earlier runs) are dropped
    /// rather than resized — mixing sizes is rare and resize would copy.
    fn take_stack(size: usize) -> Vec<u8> {
        let mut pool = STACK_POOL.lock().unwrap();
        while let Some(stack) = pool.pop() {
            if stack.capacity() >= size {
                drop(pool);
                STACKS_REUSED.fetch_add(1, Ordering::Relaxed);
                return stack;
            }
        }
        drop(pool);
        STACKS_ALLOCATED.fetch_add(1, Ordering::Relaxed);
        Vec::with_capacity(size)
    }

    /// Lifetime counters of the stack pool: `(reused, freshly allocated)`.
    pub fn stack_pool_stats() -> (u64, u64) {
        (
            STACKS_REUSED.load(Ordering::Relaxed),
            STACKS_ALLOCATED.load(Ordering::Relaxed),
        )
    }

    /// Releases every pooled stack back to the allocator. Long-lived
    /// processes that are done simulating (or switching to a much smaller
    /// extent) can call this to return the committed pages.
    pub fn trim_stack_pool() {
        STACK_POOL.lock().unwrap().clear();
    }

    /// Measured cost of one suspend/resume round trip (two context
    /// switches), in seconds — calibrated once per process by timing a
    /// yield loop. Used to attribute scheduler overhead in per-phase
    /// breakdowns without timestamping every switch.
    pub fn switch_cost_estimate() -> f64 {
        static COST: OnceLock<f64> = OnceLock::new();
        *COST.get_or_init(|| {
            const ROUNDS: u32 = 4096;
            let mut f = unsafe {
                Fiber::new(64 << 10, || {
                    for _ in 0..ROUNDS {
                        fiber_yield();
                    }
                })
            };
            let start = std::time::Instant::now();
            loop {
                if let Resume::Finished = f.resume() {
                    break;
                }
            }
            f.recycle();
            start.elapsed().as_secs_f64() / ROUNDS as f64
        })
    }

    // Saves the callee-saved context on the current stack, stores `rsp`
    // into `*save`, installs `rsp` from `*restore`, and returns into the
    // restored context. The first switch into a fresh fiber "returns" into
    // `fiber_entry` via the return address planted by `Fiber::new`.
    std::arch::global_asm!(
        ".balign 16",
        "mxp_msgsim_fiber_switch:",
        "push rbp",
        "push rbx",
        "push r12",
        "push r13",
        "push r14",
        "push r15",
        "mov [rdi], rsp",
        "mov rsp, [rsi]",
        "pop r15",
        "pop r14",
        "pop r13",
        "pop r12",
        "pop rbx",
        "pop rbp",
        "ret",
    );

    extern "C" {
        fn mxp_msgsim_fiber_switch(save: *mut usize, restore: *const usize);
    }

    thread_local! {
        /// Slot holding the scheduler's saved stack pointer for the
        /// duration of one `resume` (points at a local in `resume`).
        static SCHED_SP: Cell<*mut usize> = const { Cell::new(std::ptr::null_mut()) };
        /// Slot of the currently running fiber's saved stack pointer.
        static CURRENT_SP: Cell<*mut usize> = const { Cell::new(std::ptr::null_mut()) };
        /// Closure handed to a fiber on its first resume.
        static START: Cell<*mut ()> = const { Cell::new(std::ptr::null_mut()) };
        /// Set by the fiber epilogue when the closure returned or panicked.
        static DONE: Cell<bool> = const { Cell::new(false) };
        /// Panic payload carried across the switch back to the scheduler.
        static PANIC: Cell<Option<Box<dyn Any + Send>>> = const { Cell::new(None) };
    }

    /// Value written at the low end of every stack; checked after each
    /// resume to catch fiber stack overflow before it silently corrupts
    /// neighbouring allocations.
    const CANARY: usize = 0x5AFE_57AC_CAFE_F1BE;

    /// Cache lines of saved stack, from the saved stack pointer upward,
    /// that [`Fiber::prefetch`] requests at most: 8 KB, the two pages a
    /// rank of the 6,912-rank Summit timing run touches. Suspended in a
    /// receive, such a rank holds ~6.0 KB of live stack (6.3 KB at most),
    /// so the whole of it is fetched. On that run the whole live stack
    /// gave a lower median wall time than the canary line alone or the
    /// first 16, 32 or 64 lines (EXPERIMENTS.md); the cap bounds the cost
    /// for a fiber suspended deeper.
    const PREFETCH_LINES: usize = 128;

    /// Outcome of one [`Fiber::resume`].
    pub enum Resume {
        /// The fiber called [`fiber_yield`] and can be resumed again.
        Yielded,
        /// The fiber's closure returned; the fiber must not be resumed.
        Finished,
        /// The fiber's closure panicked; the payload is returned for
        /// `resume_unwind`. The fiber must not be resumed.
        Panicked(Box<dyn Any + Send>),
    }

    /// A suspended computation with its own stack.
    pub struct Fiber {
        /// Backing store; allocated but deliberately never initialized so
        /// the OS only commits the pages a rank actually touches.
        stack: Vec<u8>,
        /// Saved stack pointer while suspended.
        sp: usize,
        /// Entry closure, consumed on first resume.
        start: Option<Box<Box<dyn FnOnce()>>>,
        finished: bool,
    }

    impl Fiber {
        /// Creates a suspended fiber that will run `f` on a `stack_size`-
        /// byte stack when first resumed.
        ///
        /// # Safety
        ///
        /// The closure may borrow state with a lifetime shorter than
        /// `'static`; the caller must guarantee the fiber is driven to
        /// completion (or leaked-on-panic without further resumes) before
        /// any borrowed state is dropped — the scoped event-loop in
        /// `event.rs` upholds this by construction.
        pub unsafe fn new<F: FnOnce()>(stack_size: usize, f: F) -> Fiber {
            let mut stack: Vec<u8> = take_stack(stack_size.max(4096));
            let base = stack.as_mut_ptr() as usize;
            let top = base + stack.capacity();
            // 16-align the top, then plant (downward): a null return
            // address terminating unwinds, the entry trampoline as the
            // `ret` target of the first switch, and six zeroed
            // callee-saved-register slots.
            let top16 = top & !15usize;
            let p = top16 as *mut usize;
            unsafe {
                *(base as *mut usize) = CANARY;
                *p.sub(1) = 0;
                *p.sub(2) = fiber_entry as *const () as usize;
                for i in 3..=8 {
                    *p.sub(i) = 0;
                }
            }
            let boxed: Box<dyn FnOnce() + '_> = Box::new(f);
            // Erase the lifetime; see the safety contract above.
            let boxed: Box<dyn FnOnce() + 'static> =
                unsafe { std::mem::transmute::<Box<dyn FnOnce() + '_>, Box<dyn FnOnce()>>(boxed) };
            Fiber {
                stack,
                sp: top16 - 64,
                start: Some(Box::new(boxed)),
                finished: false,
            }
        }

        /// Switches to the fiber until it yields, finishes, or panics.
        pub fn resume(&mut self) -> Resume {
            assert!(!self.finished, "resume of a finished fiber");
            if let Some(start) = self.start.take() {
                START.with(|s| s.set(Box::into_raw(start) as *mut ()));
            }
            let mut sched_sp: usize = 0;
            let prev_sched = SCHED_SP.with(|s| s.replace(&mut sched_sp));
            let prev_current = CURRENT_SP.with(|c| c.replace(&mut self.sp));
            unsafe {
                mxp_msgsim_fiber_switch(&mut sched_sp, &self.sp);
            }
            SCHED_SP.with(|s| s.set(prev_sched));
            CURRENT_SP.with(|c| c.set(prev_current));
            let canary = unsafe { *(self.stack.as_ptr() as *const usize) };
            assert!(
                canary == CANARY,
                "fiber stack overflow: canary clobbered ({canary:#x})"
            );
            if DONE.with(|d| d.replace(false)) {
                self.finished = true;
                match PANIC.with(|p| p.take()) {
                    Some(payload) => Resume::Panicked(payload),
                    None => Resume::Finished,
                }
            } else {
                Resume::Yielded
            }
        }

        /// Starts loading this suspended fiber's context into the cache
        /// without waiting for it: the canary line `resume` checks, and the
        /// saved stack from the registers the switch pops upward through
        /// the frames it returns into, up to `PREFETCH_LINES` (128) lines.
        /// A scheduler calls it for the fiber it will resume next, so the
        /// lines arrive while the current one runs. Only a hint: nothing
        /// is read or written.
        #[inline]
        pub fn prefetch(&self) {
            use std::arch::x86_64::{_mm_prefetch, _MM_HINT_T0};
            for line in self.prefetch_lines() {
                // SAFETY: a prefetch never faults and has no visible effect;
                // every address lies inside this fiber's own allocation.
                unsafe { _mm_prefetch::<_MM_HINT_T0>(line as *const i8) };
            }
        }

        /// Addresses [`Fiber::prefetch`] requests: the canary word at the
        /// low end, then one per cache line from the line holding the saved
        /// stack pointer up to `PREFETCH_LINES` lines or the 16-aligned
        /// top, whichever comes first. Everything from the stack pointer to
        /// that top is live, so no untouched page is hinted.
        fn prefetch_lines(&self) -> impl Iterator<Item = usize> {
            let base = self.stack.as_ptr() as usize;
            let top16 = (base + self.stack.capacity()) & !15usize;
            let lo = (self.sp & !63usize).max(base);
            let hi = lo.saturating_add(PREFETCH_LINES * 64).min(top16);
            std::iter::once(base).chain((lo..hi).step_by(64))
        }

        /// `true` once the fiber's closure has returned or panicked.
        pub fn is_finished(&self) -> bool {
            self.finished
        }

        /// Bytes of stack the OS would need to commit if fully touched —
        /// capacity, for diagnostics only.
        pub fn stack_size(&self) -> usize {
            self.stack.capacity()
        }

        /// Returns this fiber's stack to the pool for reuse by a later
        /// fiber. Only meaningful for finished fibers: a suspended fiber's
        /// stack still holds its live frames, so recycling it would be a
        /// use-after-free — hence the assert.
        pub fn recycle(self) {
            assert!(self.finished, "recycle of a live fiber");
            STACK_POOL.lock().unwrap().push(self.stack);
        }
    }

    /// Suspends the currently running fiber and returns control to the
    /// scheduler that resumed it. Panics when called from outside a fiber.
    pub fn fiber_yield() {
        let cur = CURRENT_SP.with(|c| c.get());
        let sched = SCHED_SP.with(|s| s.get());
        assert!(
            !cur.is_null() && !sched.is_null(),
            "fiber_yield outside a fiber"
        );
        unsafe {
            mxp_msgsim_fiber_switch(cur, sched);
        }
    }

    /// `true` when the calling code is running on a fiber.
    pub fn on_fiber() -> bool {
        CURRENT_SP.with(|c| !c.get().is_null())
    }

    /// First-resume entry point: runs the closure, records the outcome,
    /// and switches back to the scheduler for good.
    extern "C" fn fiber_entry() -> ! {
        let raw = START.with(|s| s.replace(std::ptr::null_mut()));
        debug_assert!(!raw.is_null(), "fiber entered without a start closure");
        // Unbox in a statement of its own: the outer box is freed at its
        // end. Moving out of it inside the call below would free it only
        // when this frame returns, and this frame never does.
        // SAFETY: `raw` is the `Box::into_raw` of this fiber's start
        // closure, stored by `resume` just before switching here and
        // taken out of `START` exactly once (the slot is nulled above).
        let f: Box<dyn FnOnce()> = *unsafe { Box::from_raw(raw as *mut Box<dyn FnOnce()>) };
        if let Err(payload) = catch_unwind(AssertUnwindSafe(f)) {
            PANIC.with(|p| p.set(Some(payload)));
        }
        DONE.with(|d| d.set(true));
        let sched = SCHED_SP.with(|s| s.get());
        let mut dead: usize = 0;
        unsafe {
            mxp_msgsim_fiber_switch(&mut dead, sched);
        }
        unreachable!("finished fiber resumed");
    }

    #[cfg(test)]
    mod tests {
        use super::*;
        use std::hint::black_box;

        /// Checks `f`'s prefetch span: the canary word first, then whole
        /// lines upward from the saved stack pointer's line, at most
        /// `PREFETCH_LINES` of them, every address inside the live stack.
        /// Returns the live stack depth in bytes.
        fn check_span(f: &Fiber) -> usize {
            let base = f.stack.as_ptr() as usize;
            let top16 = (base + f.stack.capacity()) & !15usize;
            assert!(base < f.sp && f.sp < top16, "saved sp outside the stack");
            let lines: Vec<usize> = f.prefetch_lines().collect();
            assert_eq!(lines[0], base, "first line is not the canary");
            let stack = &lines[1..];
            let lo = f.sp & !63usize;
            assert_eq!(stack.first(), Some(&lo), "span does not start at sp");
            assert!(stack.windows(2).all(|w| w[1] == w[0] + 64));
            assert_eq!(stack.len(), PREFETCH_LINES.min((top16 - lo).div_ceil(64)));
            for &a in &lines {
                assert!(
                    base <= a && a < top16,
                    "{a:#x} outside [{base:#x}, {top16:#x})"
                );
            }
            top16 - f.sp
        }

        /// Recurses `n` frames of 256 live bytes each, then yields.
        fn deep(n: usize) {
            let frame = black_box([n as u8; 256]);
            if n == 0 {
                fiber_yield();
            } else {
                deep(n - 1);
            }
            black_box(&frame);
        }

        fn finish(mut f: Fiber) {
            while !matches!(f.resume(), Resume::Finished) {}
            f.recycle();
        }

        #[test]
        fn prefetch_span_stays_in_the_live_stack() {
            const STACK: usize = 256 << 10;
            // Fresh: only the planted entry frame is live.
            let fresh = unsafe { Fiber::new(STACK, fiber_yield) };
            assert_eq!(check_span(&fresh), 64);
            finish(fresh);

            // Shallow: suspended one call below its closure, the whole
            // live stack fits the span.
            let mut shallow = unsafe { Fiber::new(STACK, fiber_yield) };
            assert!(matches!(shallow.resume(), Resume::Yielded));
            let depth = check_span(&shallow);
            assert!(depth > 64 && depth < PREFETCH_LINES * 64, "depth {depth}");
            finish(shallow);

            // Deep: 64 × 256 B of frames, past `PREFETCH_LINES` lines; the
            // span stops there, below the top.
            let mut deep_fiber = unsafe { Fiber::new(STACK, || deep(64)) };
            assert!(matches!(deep_fiber.resume(), Resume::Yielded));
            let depth = check_span(&deep_fiber);
            assert!(depth > PREFETCH_LINES * 64 + 64, "depth {depth}");
            finish(deep_fiber);
        }
    }
}

#[cfg(not(target_arch = "x86_64"))]
mod imp {
    //! Stub for targets without a context-switch implementation: the event
    //! backend detects `supported() == false` and routes through the
    //! thread backend instead, so none of these entry points can be hit.

    use std::any::Any;

    /// `true` when this target has a fiber implementation.
    pub fn supported() -> bool {
        false
    }

    /// Outcome of one [`Fiber::resume`].
    pub enum Resume {
        /// The fiber yielded.
        Yielded,
        /// The fiber finished.
        Finished,
        /// The fiber panicked.
        Panicked(Box<dyn Any + Send>),
    }

    /// Unsupported-target placeholder.
    pub struct Fiber;

    impl Fiber {
        /// Unavailable on this target.
        ///
        /// # Safety
        ///
        /// Never constructible; see the x86-64 implementation for the
        /// real contract.
        pub unsafe fn new<F: FnOnce()>(_stack_size: usize, _f: F) -> Fiber {
            unimplemented!("fibers are not implemented for this target")
        }

        /// Unavailable on this target.
        pub fn resume(&mut self) -> Resume {
            unimplemented!("fibers are not implemented for this target")
        }

        /// No-op on this target.
        pub fn prefetch(&self) {}

        /// Unavailable on this target.
        pub fn is_finished(&self) -> bool {
            true
        }

        /// Unavailable on this target.
        pub fn stack_size(&self) -> usize {
            0
        }

        /// Unavailable on this target.
        pub fn recycle(self) {}
    }

    /// Unavailable on this target.
    pub fn fiber_yield() {
        unimplemented!("fibers are not implemented for this target")
    }

    /// Always `false` on this target.
    pub fn on_fiber() -> bool {
        false
    }

    /// Always `(0, 0)` on this target.
    pub fn stack_pool_stats() -> (u64, u64) {
        (0, 0)
    }

    /// No-op on this target.
    pub fn trim_stack_pool() {}

    /// Always `0.0` on this target.
    pub fn switch_cost_estimate() -> f64 {
        0.0
    }
}

pub use imp::{
    fiber_yield, on_fiber, stack_pool_stats, supported, switch_cost_estimate, trim_stack_pool,
    Fiber, Resume,
};

#[cfg(all(test, target_arch = "x86_64"))]
mod tests {
    use super::*;
    use std::cell::RefCell;
    use std::rc::Rc;

    const STACK: usize = 64 * 1024;

    #[test]
    fn runs_to_completion() {
        let hits = Rc::new(RefCell::new(Vec::new()));
        let h = hits.clone();
        let mut f = unsafe { Fiber::new(STACK, move || h.borrow_mut().push(42)) };
        assert!(matches!(f.resume(), Resume::Finished));
        assert!(f.is_finished());
        assert_eq!(*hits.borrow(), vec![42]);
    }

    #[test]
    fn yields_and_resumes_interleaved() {
        let log = Rc::new(RefCell::new(Vec::new()));
        let mut fibers: Vec<Fiber> = (0..3)
            .map(|id| {
                let log = log.clone();
                unsafe {
                    Fiber::new(STACK, move || {
                        for step in 0..2 {
                            log.borrow_mut().push((id, step));
                            fiber_yield();
                        }
                    })
                }
            })
            .collect();
        // Round-robin until all finish: yields interleave the logs.
        let mut live = 3;
        while live > 0 {
            for f in &mut fibers {
                if !f.is_finished() {
                    if let Resume::Finished = f.resume() {
                        live -= 1;
                    }
                }
            }
        }
        assert_eq!(
            *log.borrow(),
            vec![(0, 0), (1, 0), (2, 0), (0, 1), (1, 1), (2, 1)]
        );
    }

    #[test]
    fn panic_is_captured_and_rethrowable() {
        let mut f = unsafe { Fiber::new(STACK, || panic!("rank died")) };
        match f.resume() {
            Resume::Panicked(payload) => {
                let msg = payload.downcast_ref::<&str>().copied().unwrap_or("");
                assert_eq!(msg, "rank died");
            }
            _ => panic!("expected a captured panic"),
        }
        assert!(f.is_finished());
    }

    #[test]
    fn many_fibers_fit_in_memory() {
        // 10k fibers — sanity for the 75k-rank target without slowing the
        // debug test run. Untouched stack pages stay uncommitted.
        let counter = Rc::new(RefCell::new(0usize));
        let mut fibers: Vec<Fiber> = (0..10_000)
            .map(|_| {
                let c = counter.clone();
                unsafe {
                    Fiber::new(STACK, move || {
                        fiber_yield();
                        *c.borrow_mut() += 1;
                    })
                }
            })
            .collect();
        for f in &mut fibers {
            assert!(matches!(f.resume(), Resume::Yielded));
        }
        for f in &mut fibers {
            assert!(matches!(f.resume(), Resume::Finished));
        }
        assert_eq!(*counter.borrow(), 10_000);
    }

    #[test]
    fn recycled_stacks_are_reused() {
        let (reused_before, _) = stack_pool_stats();
        // Several create/finish/recycle cycles: even if concurrently
        // running tests pop the pool in between, at least one cycle
        // reuses a stack this test just returned.
        for _ in 0..50 {
            let mut f = unsafe { Fiber::new(STACK, || {}) };
            assert!(matches!(f.resume(), Resume::Finished));
            f.recycle();
        }
        let (reused_after, _) = stack_pool_stats();
        assert!(
            reused_after > reused_before,
            "no stack reuse across {reused_before}→{reused_after}"
        );
    }

    #[test]
    fn switch_cost_is_sane() {
        let cost = switch_cost_estimate();
        // A context switch round trip is more than a nanosecond and less
        // than a millisecond on anything that can run this suite.
        assert!(cost > 1e-9 && cost < 1e-3, "switch cost {cost}");
    }

    #[test]
    fn on_fiber_reports_context() {
        assert!(!on_fiber());
        let seen = Rc::new(RefCell::new(false));
        let s = seen.clone();
        let mut f = unsafe { Fiber::new(STACK, move || *s.borrow_mut() = on_fiber()) };
        f.resume();
        assert!(*seen.borrow());
        assert!(!on_fiber());
    }
}
