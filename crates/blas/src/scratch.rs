//! Thread-local scratch arenas for the blocked kernels (DESIGN.md §10).
//!
//! The blocked factorization path allocates short-lived pack buffers at
//! every block step: `getrf_nopiv` packs `U₁₂` before the trailing GEMM,
//! `trsm` packs row blocks ahead of its rank-k updates, and the GEMM
//! engine packs A and B slabs. Before this module each of those was a
//! fresh `vec!` — for an `n = 4096`, `NB = 32` factorization that is
//! several hundred heap allocations (plus page faults on first touch) on
//! the critical path. The arena keeps one buffer per (thread, element
//! type, role-peak-size) alive and hands it back out on the next
//! acquisition, so steady-state block steps allocate nothing.
//!
//! # Alignment
//!
//! Every buffer is allocated at **64-byte alignment** (one cache line, one
//! AVX-512 vector). The SIMD micro-kernels (DESIGN.md §14) rely on this:
//! packed A micro-panels are read with *aligned* vector loads, which fault
//! on a misaligned address — a plain `Vec<T>` only guarantees the element
//! type's alignment. The `pointer_alignment_across_acquire_release` test
//! pins the guarantee across acquire/release/reuse cycles.
//!
//! # Ownership model
//!
//! * Buffers live in a **thread-local** pool: no locks, no sharing, and a
//!   kernel running on a rayon worker reuses the buffers of the previous
//!   dispatch on that worker (the vendored rayon pool keeps workers — and
//!   therefore their arenas — alive across calls).
//! * [`take`] pops the **smallest pooled buffer the request fits**
//!   (re-fitting it to the request), so one buffer serves a shrinking
//!   sequence of requests — exactly the shape of a right-looking
//!   factorization whose trailing matrix shrinks every step — and a
//!   smaller request held at the same time as a larger one never takes
//!   the buffer the larger one needs. When no buffer fits, the largest is
//!   dropped and replaced by a fresh allocation.
//! * The returned [`ScratchGuard`] owns the buffer; dropping it returns
//!   the buffer to the pool. Contents are **unspecified** (stale data from
//!   a previous use) — every current caller fully overwrites its scratch
//!   before reading, which is the whole point: no `memset` per step
//!   either. Use [`take_zeroed`] when cleared contents are required.
//! * The pool holds at most `MAX_POOLED` buffers per element type;
//!   beyond that, dropped guards free their buffer instead (bounds memory
//!   on pathological acquire patterns).
//!
//! [`stats`] exposes per-thread acquisition/allocation counters so tests
//! can assert the no-allocation steady state (see `getrf` tests).

use core::any::{Any, TypeId};
use core::cell::{Cell, RefCell};
use core::ops::{Deref, DerefMut};
use core::ptr::NonNull;
use std::alloc::{alloc, dealloc, Layout};
use std::collections::HashMap;

/// Maximum buffers retained per element type per thread.
const MAX_POOLED: usize = 8;

/// Alignment (bytes) of every arena allocation: one cache line, and the
/// strictest requirement of any SIMD load the micro-kernels issue.
pub const ARENA_ALIGN: usize = 64;

/// A heap buffer of `cap` elements at [`ARENA_ALIGN`]-byte alignment.
///
/// Invariant: all `cap` elements are initialized (default-filled once at
/// allocation; only `Copy` writes afterwards), so any `len <= cap` window
/// is safe to expose as a slice — re-fitting a pooled buffer to a new
/// request is just a length store.
struct AlignedBuf<T> {
    ptr: NonNull<T>,
    cap: usize,
    len: usize,
}

impl<T: Copy + Default> AlignedBuf<T> {
    /// Allocates `cap` default-initialized elements at 64-byte alignment.
    fn alloc(cap: usize) -> Self {
        if cap == 0 || core::mem::size_of::<T>() == 0 {
            return AlignedBuf {
                ptr: NonNull::dangling(),
                cap,
                len: 0,
            };
        }
        let layout = Self::layout(cap);
        // SAFETY: layout has non-zero size (cap > 0, sized T).
        let raw = unsafe { alloc(layout) } as *mut T;
        let ptr = NonNull::new(raw).unwrap_or_else(|| std::alloc::handle_alloc_error(layout));
        // Default-fill so every element is initialized before a slice of
        // any length is ever formed over the buffer.
        for i in 0..cap {
            // SAFETY: i < cap, within the fresh allocation.
            unsafe { ptr.as_ptr().add(i).write(T::default()) };
        }
        AlignedBuf { ptr, cap, len: 0 }
    }

    fn layout(cap: usize) -> Layout {
        let bytes = cap
            .checked_mul(core::mem::size_of::<T>())
            .expect("scratch request overflows");
        Layout::from_size_align(bytes, ARENA_ALIGN.max(core::mem::align_of::<T>()))
            .expect("scratch layout")
    }
}

impl<T> AlignedBuf<T> {
    fn as_slice(&self) -> &[T] {
        // SAFETY: len <= cap elements are initialized (struct invariant).
        unsafe { core::slice::from_raw_parts(self.ptr.as_ptr(), self.len) }
    }

    fn as_mut_slice(&mut self) -> &mut [T] {
        // SAFETY: len <= cap elements are initialized (struct invariant).
        unsafe { core::slice::from_raw_parts_mut(self.ptr.as_ptr(), self.len) }
    }
}

impl<T> Drop for AlignedBuf<T> {
    fn drop(&mut self) {
        if self.cap > 0 && core::mem::size_of::<T>() > 0 {
            let bytes = self.cap * core::mem::size_of::<T>();
            let layout =
                Layout::from_size_align(bytes, ARENA_ALIGN.max(core::mem::align_of::<T>()))
                    .expect("scratch layout");
            // SAFETY: ptr was allocated in `alloc` with this exact layout.
            unsafe { dealloc(self.ptr.as_ptr() as *mut u8, layout) };
        }
    }
}

thread_local! {
    /// Pooled buffers, keyed by element type. Values are
    /// `Vec<AlignedBuf<T>>` behind `dyn Any`.
    static POOL: RefCell<HashMap<TypeId, Box<dyn Any>>> = RefCell::new(HashMap::new());
    /// Total acquisitions on this thread.
    static ACQUIRES: Cell<usize> = const { Cell::new(0) };
    /// Acquisitions that had to allocate a fresh buffer (pool miss).
    static MISSES: Cell<usize> = const { Cell::new(0) };
}

/// Per-thread arena counters: `(acquires, misses)`. An acquisition is any
/// [`take`]/[`take_zeroed`] call; a miss is one that allocated a fresh
/// buffer instead of reusing a pooled one. In the steady state of a
/// blocked kernel, `acquires` grows with the block count while `misses`
/// stays at the handful of distinct buffer roles.
pub fn stats() -> (usize, usize) {
    (ACQUIRES.with(Cell::get), MISSES.with(Cell::get))
}

/// An exclusively owned scratch buffer of `len` elements at 64-byte
/// alignment, returned to the thread-local pool on drop.
pub struct ScratchGuard<T: 'static> {
    buf: Option<AlignedBuf<T>>,
}

impl<T: 'static> Deref for ScratchGuard<T> {
    type Target = [T];
    #[inline]
    fn deref(&self) -> &[T] {
        self.buf.as_ref().expect("guard holds buffer").as_slice()
    }
}

impl<T: 'static> DerefMut for ScratchGuard<T> {
    #[inline]
    fn deref_mut(&mut self) -> &mut [T] {
        self.buf
            .as_mut()
            .expect("guard holds buffer")
            .as_mut_slice()
    }
}

impl<T: 'static> Drop for ScratchGuard<T> {
    fn drop(&mut self) {
        let buf = self.buf.take().expect("guard holds buffer");
        POOL.with(|pool| {
            let mut pool = pool.borrow_mut();
            let entry = pool
                .entry(TypeId::of::<T>())
                .or_insert_with(|| Box::new(Vec::<AlignedBuf<T>>::new()));
            let bufs = entry
                .downcast_mut::<Vec<AlignedBuf<T>>>()
                .expect("pool entry type");
            if bufs.len() < MAX_POOLED {
                bufs.push(buf);
            }
        });
    }
}

/// Acquires a scratch buffer of exactly `len` elements with **unspecified
/// contents** (stale data on reuse, `T::default()` on first touch). The
/// base pointer is 64-byte aligned. The caller must fully overwrite the
/// buffer before reading it.
pub fn take<T: Copy + Default + 'static>(len: usize) -> ScratchGuard<T> {
    ACQUIRES.with(|c| c.set(c.get() + 1));
    let pooled: Option<AlignedBuf<T>> = POOL.with(|pool| {
        let mut pool = pool.borrow_mut();
        let bufs = pool
            .get_mut(&TypeId::of::<T>())?
            .downcast_mut::<Vec<AlignedBuf<T>>>()
            .expect("pool entry type");
        // Pop the smallest buffer the request fits, so a larger buffer
        // stays pooled for a larger request held at the same time; when
        // none fits, pop the largest, which the caller replaces.
        let caps = bufs.iter().map(|b| b.cap).enumerate();
        let fit = caps
            .clone()
            .filter(|&(_, c)| c >= len)
            .min_by_key(|&(_, c)| c);
        let (best, _) = fit.or_else(|| caps.max_by_key(|&(_, c)| c))?;
        Some(bufs.swap_remove(best))
    });
    let mut buf = match pooled {
        Some(buf) if buf.cap >= len => buf,
        Some(_small) => {
            // Growing is still a heap round-trip: count it, drop the old
            // buffer and allocate fresh at the new capacity.
            MISSES.with(|c| c.set(c.get() + 1));
            AlignedBuf::alloc(len)
        }
        None => {
            MISSES.with(|c| c.set(c.get() + 1));
            AlignedBuf::alloc(len)
        }
    };
    buf.len = len;
    ScratchGuard { buf: Some(buf) }
}

/// Like [`take`] but with every element cleared to `T::default()`.
pub fn take_zeroed<T: Copy + Default + 'static>(len: usize) -> ScratchGuard<T> {
    let mut g = take::<T>(len);
    g.fill(T::default());
    g
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn guard_has_requested_len() {
        let g = take::<f64>(37);
        assert_eq!(g.len(), 37);
        let z = take_zeroed::<f32>(8);
        assert!(z.iter().all(|&v| v == 0.0));
    }

    #[test]
    fn buffers_are_reused_on_this_thread() {
        let (a0, m0) = stats();
        {
            let mut g = take::<f64>(100);
            g[0] = 1.0;
        } // returned to pool
        for _ in 0..10 {
            let g = take::<f64>(50); // smaller: must re-fit, not allocate
            drop(g);
        }
        let (a1, m1) = stats();
        assert_eq!(a1 - a0, 11);
        assert!(
            m1 - m0 <= 1,
            "expected at most one fresh allocation, got {}",
            m1 - m0
        );
    }

    #[test]
    fn a_small_request_leaves_the_large_buffer_pooled() {
        // Two buffers pooled, then a small and a large request held at
        // once, the small one first: both must fit without allocating.
        drop((take::<u16>(300), take::<u16>(200)));
        let (_, m0) = stats();
        let small = take::<u16>(150);
        let large = take::<u16>(300);
        let (_, m1) = stats();
        drop((small, large));
        assert_eq!(m1 - m0, 0, "best fit must leave the 300 for the 300");
    }

    #[test]
    fn distinct_types_pool_independently() {
        let g32 = take::<f32>(16);
        let g64 = take::<f64>(16);
        assert_eq!(g32.len(), 16);
        assert_eq!(g64.len(), 16);
    }

    #[test]
    fn concurrent_guards_are_distinct_buffers() {
        let mut a = take::<f64>(4);
        let mut b = take::<f64>(4);
        a.fill(1.0);
        b.fill(2.0);
        assert!(a.iter().all(|&v| v == 1.0));
        assert!(b.iter().all(|&v| v == 2.0));
    }

    #[test]
    fn growing_request_counts_as_miss() {
        // Warm the pool with a small buffer, then request a bigger one.
        drop(take::<i64>(8));
        let (_, m0) = stats();
        drop(take::<i64>(1024));
        let (_, m1) = stats();
        assert_eq!(m1 - m0, 1, "growth must be visible as a miss");
        // And now the grown buffer serves big requests without misses.
        let (_, m2) = stats();
        drop(take::<i64>(1024));
        let (_, m3) = stats();
        assert_eq!(m3 - m2, 0);
    }

    #[test]
    fn pointer_alignment_across_acquire_release() {
        // The SIMD micro-kernels issue aligned loads on packed panels, so
        // every acquisition — fresh, reused, re-fitted smaller, grown, and
        // with several guards live at once — must hand out a 64-byte
        // aligned base pointer.
        fn assert_aligned<T>(s: &[T], what: &str) {
            let addr = s.as_ptr() as usize;
            assert_eq!(addr % ARENA_ALIGN, 0, "{what}: base {addr:#x} misaligned");
        }
        for cycle in 0..4 {
            for &len in &[1usize, 7, 16, 63, 64, 65, 1000, 4096] {
                let g = take::<f32>(len);
                assert_aligned(&g, &format!("f32 len {len} cycle {cycle}"));
                let h = take::<f64>(len);
                assert_aligned(&h, &format!("f64 len {len} cycle {cycle}"));
                // Hold a second live buffer of the same type, too.
                let g2 = take::<f32>(len / 2 + 1);
                assert_aligned(&g2, &format!("f32 second guard len {len}"));
            }
        }
        // A zeroed acquisition goes through the same allocator.
        let z = take_zeroed::<f32>(513);
        assert_aligned(&z, "take_zeroed");
    }
}
