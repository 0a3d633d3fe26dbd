//! Content-addressed cache of generated local matrices (DESIGN.md §13).
//!
//! Matrix generation is pure: every entry of the global system is a
//! function of `(seed, N, kind)`, and a rank's local block-cyclic share
//! additionally depends only on the grid shape, the rank's coordinate and
//! the block size. Two run configurations that differ *only* in broadcast
//! algorithm, trailing precision, look-ahead or runtime backend therefore
//! consume byte-identical local inputs — which a batched service hits
//! constantly (parameter sweeps queue dozens of configs over a handful of
//! distinct systems). [`MatrixCache`] memoizes the filled FP32 buffer
//! under the exact generation key, so only the first job of each
//! equivalence class pays the LCG fill; everyone else memcpys.
//!
//! Correctness leans on purity, and the cache is careful to preserve it:
//!
//! * the key ([`MatrixKey`]) covers **every** input of the fill — anything
//!   that changes a byte of the local buffer changes the key;
//! * fills are **single-flight**: generation runs outside the lock (so
//!   distinct keys generate in parallel), but concurrent lookups of the
//!   same key elect one filler and the rest wait for its buffer. Besides
//!   avoiding duplicate work, this makes the hit/miss counters themselves
//!   deterministic — `misses` equals the number of distinct keys filled
//!   regardless of worker count, which the service's determinism tests
//!   assert exactly;
//! * eviction is size-bounded LRU — dropping an entry can only cost a
//!   regeneration, never change a result.
//!
//! The service path threads an `Arc<MatrixCache>` through
//! [`RunConfig`](crate::solve::RunConfig); the factorization consults it
//! in [`crate::factor::FactorState::new`]. A property test
//! (`tests/service.rs`) pins the bitwise-identity and key-sensitivity
//! claims.

use mxp_lcg::MatrixKind;
use serde::Serialize;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};

/// The complete set of inputs that determine one rank's generated local
/// matrix, used as the cache key. Everything influencing the buffer's
/// bytes is here; nothing else is (algorithm, precision, look-ahead and
/// backend deliberately do **not** appear — sharing across them is the
/// point of the cache).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct MatrixKey {
    /// Generator seed.
    pub seed: u64,
    /// Global problem size `N`.
    pub n: usize,
    /// Block size `B` (affects nothing about the values, but the local
    /// layout is only valid for tilings the solve was configured with, so
    /// it participates in the key for safety).
    pub b: usize,
    /// Grid rows `P_r` (the local share's row decimation).
    pub p_r: usize,
    /// Grid columns `P_c`.
    pub p_c: usize,
    /// This rank's grid coordinate `(my_r, my_c)`.
    pub coord: (usize, usize),
    /// Diagonal construction of the generated system.
    pub kind: MatrixKind,
}

/// Cumulative cache counters, snapshot by [`MatrixCache::stats`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Serialize)]
pub struct CacheStats {
    /// Lookups served from a resident buffer, including lookups that
    /// arrived while another thread was filling the same key (they reuse
    /// its buffer without generating).
    pub hits: u64,
    /// Lookups that generated: exactly one per distinct key filled, at
    /// any concurrency.
    pub misses: u64,
    /// Buffers currently resident.
    pub entries: usize,
    /// Bytes currently resident.
    pub resident_bytes: usize,
    /// Configured capacity, bytes.
    pub capacity_bytes: usize,
}

impl CacheStats {
    /// Hit fraction over all lookups so far (0.0 when none happened).
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

struct Entry {
    data: Arc<Vec<f32>>,
    last_used: u64,
}

/// One in-flight fill: the elected filler publishes its buffer here (or
/// `None` if it panicked) and wakes every same-key waiter.
#[derive(Default)]
struct Pending {
    slot: Mutex<(bool, Option<Arc<Vec<f32>>>)>,
    ready: Condvar,
}

#[derive(Default)]
struct Inner {
    map: HashMap<MatrixKey, Entry>,
    pending: HashMap<MatrixKey, Arc<Pending>>,
    resident_bytes: usize,
    tick: u64,
}

impl Inner {
    fn touch(&mut self, key: &MatrixKey) -> Option<Arc<Vec<f32>>> {
        self.tick += 1;
        let tick = self.tick;
        self.map.get_mut(key).map(|e| {
            e.last_used = tick;
            Arc::clone(&e.data)
        })
    }

    fn insert(&mut self, key: MatrixKey, data: Arc<Vec<f32>>, capacity: usize) {
        let bytes = std::mem::size_of_val(data.as_slice());
        if bytes > capacity {
            // Larger than the whole cache: not storable, serve uncached.
            return;
        }
        self.tick += 1;
        if let Some(old) = self.map.insert(
            key,
            Entry {
                data,
                last_used: self.tick,
            },
        ) {
            self.resident_bytes -= std::mem::size_of_val(old.data.as_slice());
        }
        self.resident_bytes += bytes;
        // Evict least-recently-used entries until we fit again (never the
        // one just inserted — it is the most recently used by definition).
        while self.resident_bytes > capacity {
            let victim = self
                .map
                .iter()
                .min_by_key(|(_, e)| e.last_used)
                .map(|(k, _)| *k)
                .expect("resident bytes imply at least one entry");
            let evicted = self.map.remove(&victim).expect("victim is resident");
            self.resident_bytes -= std::mem::size_of_val(evicted.data.as_slice());
        }
    }
}

/// A size-bounded, thread-safe LRU cache of generated local matrices.
///
/// Shared across the jobs of a [`crate::service::SolveService`] via `Arc`;
/// safe to share across any concurrent runs because generated content is a
/// pure function of [`MatrixKey`].
pub struct MatrixCache {
    capacity: usize,
    inner: Mutex<Inner>,
    hits: AtomicU64,
    misses: AtomicU64,
}

impl MatrixCache {
    /// Creates a cache holding at most `capacity_bytes` of FP32 buffers.
    pub fn new(capacity_bytes: usize) -> Self {
        MatrixCache {
            capacity: capacity_bytes,
            inner: Mutex::new(Inner::default()),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
        }
    }

    /// Returns the buffer for `key`, generating it with `fill` on a miss.
    ///
    /// `fill` runs **outside** the cache lock, so misses on distinct keys
    /// generate in parallel. Fills are single-flight: concurrent lookups
    /// of the same key elect one filler (one miss) and the rest block
    /// until its buffer is published (each a hit) — no duplicate
    /// generation, and counters that do not depend on timing.
    pub fn get_or_fill<F>(&self, key: MatrixKey, fill: F) -> Arc<Vec<f32>>
    where
        F: FnOnce() -> Vec<f32>,
    {
        enum Claim {
            Ready(Arc<Vec<f32>>),
            Wait(Arc<Pending>),
            Fill(Arc<Pending>),
        }
        let claim = {
            let mut inner = self.inner.lock().expect("cache lock");
            if let Some(data) = inner.touch(&key) {
                Claim::Ready(data)
            } else if let Some(p) = inner.pending.get(&key) {
                Claim::Wait(Arc::clone(p))
            } else {
                let p = Arc::new(Pending::default());
                inner.pending.insert(key, Arc::clone(&p));
                Claim::Fill(p)
            }
        };
        match claim {
            Claim::Ready(data) => {
                self.hits.fetch_add(1, Ordering::Relaxed);
                data
            }
            Claim::Wait(p) => {
                let mut slot = p.slot.lock().expect("pending slot lock");
                while !slot.0 {
                    slot = p.ready.wait(slot).expect("pending slot lock");
                }
                match slot.1.clone() {
                    Some(data) => {
                        // Reused the filler's buffer without generating.
                        self.hits.fetch_add(1, Ordering::Relaxed);
                        data
                    }
                    // The filler panicked; its pending entry is gone, so
                    // retrying elects a new filler (possibly us).
                    None => {
                        drop(slot);
                        self.get_or_fill(key, fill)
                    }
                }
            }
            Claim::Fill(p) => {
                self.misses.fetch_add(1, Ordering::Relaxed);
                // The guard publishes on every exit path: if `fill`
                // panics, waiters are woken with `None` instead of
                // deadlocking on a pending entry nobody will complete.
                let mut guard = FillGuard {
                    cache: self,
                    key,
                    pending: &p,
                    result: None,
                };
                let data = Arc::new(fill());
                guard.result = Some(Arc::clone(&data));
                drop(guard);
                data
            }
        }
    }

    /// Snapshot of the cumulative counters and current residency.
    pub fn stats(&self) -> CacheStats {
        let inner = self.inner.lock().expect("cache lock");
        CacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            entries: inner.map.len(),
            resident_bytes: inner.resident_bytes,
            capacity_bytes: self.capacity,
        }
    }

    /// Drops every resident buffer (counters are kept).
    pub fn clear(&self) {
        let mut inner = self.inner.lock().expect("cache lock");
        inner.map.clear();
        inner.resident_bytes = 0;
    }
}

/// Completes a single-flight fill on drop: retires the pending entry,
/// stores the buffer (when one was produced) and wakes every waiter. Drop
/// runs on unwind too, which is what keeps a panicking `fill` from
/// stranding its waiters.
struct FillGuard<'a> {
    cache: &'a MatrixCache,
    key: MatrixKey,
    pending: &'a Arc<Pending>,
    result: Option<Arc<Vec<f32>>>,
}

impl Drop for FillGuard<'_> {
    fn drop(&mut self) {
        {
            let mut inner = self.cache.inner.lock().expect("cache lock");
            inner.pending.remove(&self.key);
            if let Some(data) = &self.result {
                inner.insert(self.key, Arc::clone(data), self.cache.capacity);
            }
        }
        let mut slot = self.pending.slot.lock().expect("pending slot lock");
        slot.0 = true;
        slot.1 = self.result.clone();
        self.pending.ready.notify_all();
    }
}

/// Debug shows capacity and counters, not megabytes of buffer contents —
/// required because [`crate::solve::RunConfig`] (which derives `Debug`)
/// carries an `Arc<MatrixCache>`.
impl std::fmt::Debug for MatrixCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = self.stats();
        f.debug_struct("MatrixCache")
            .field("capacity_bytes", &s.capacity_bytes)
            .field("entries", &s.entries)
            .field("resident_bytes", &s.resident_bytes)
            .field("hits", &s.hits)
            .field("misses", &s.misses)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn key(seed: u64) -> MatrixKey {
        MatrixKey {
            seed,
            n: 64,
            b: 8,
            p_r: 2,
            p_c: 2,
            coord: (0, 0),
            kind: MatrixKind::DiagDominant,
        }
    }

    #[test]
    fn hit_returns_the_same_buffer() {
        let cache = MatrixCache::new(1 << 20);
        let a = cache.get_or_fill(key(1), || vec![1.0, 2.0]);
        let b = cache.get_or_fill(key(1), || panic!("must not refill"));
        assert!(Arc::ptr_eq(&a, &b));
        let s = cache.stats();
        assert_eq!((s.hits, s.misses, s.entries), (1, 1, 1));
        assert!((s.hit_rate() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn distinct_keys_miss() {
        let cache = MatrixCache::new(1 << 20);
        cache.get_or_fill(key(1), || vec![1.0]);
        cache.get_or_fill(key(2), || vec![2.0]);
        let s = cache.stats();
        assert_eq!((s.hits, s.misses, s.entries), (0, 2, 2));
    }

    #[test]
    fn lru_eviction_respects_capacity() {
        // Capacity of two 4-element f32 buffers (16 bytes each).
        let cache = MatrixCache::new(32);
        cache.get_or_fill(key(1), || vec![0.0; 4]);
        cache.get_or_fill(key(2), || vec![0.0; 4]);
        cache.get_or_fill(key(1), || panic!("1 is resident")); // refresh 1
        cache.get_or_fill(key(3), || vec![0.0; 4]); // evicts 2
        assert_eq!(cache.stats().entries, 2);
        cache.get_or_fill(key(1), || panic!("1 must have survived (LRU)"));
        let before = cache.stats().misses;
        cache.get_or_fill(key(2), || vec![0.0; 4]); // 2 was evicted: refills
        assert_eq!(cache.stats().misses, before + 1);
    }

    #[test]
    fn oversized_entries_pass_through_uncached() {
        let cache = MatrixCache::new(8);
        let a = cache.get_or_fill(key(1), || vec![0.0; 100]);
        assert_eq!(a.len(), 100);
        assert_eq!(cache.stats().entries, 0);
        assert_eq!(cache.stats().resident_bytes, 0);
    }

    #[test]
    fn concurrent_same_key_fills_are_single_flight() {
        let cache = Arc::new(MatrixCache::new(1 << 20));
        let barrier = Arc::new(std::sync::Barrier::new(8));
        let handles: Vec<_> = (0..8)
            .map(|_| {
                let (cache, barrier) = (Arc::clone(&cache), Arc::clone(&barrier));
                std::thread::spawn(move || {
                    barrier.wait();
                    cache.get_or_fill(key(1), || {
                        // Widen the race window so waiters really wait.
                        std::thread::sleep(std::time::Duration::from_millis(10));
                        vec![1.0, 2.0, 3.0]
                    })
                })
            })
            .collect();
        let results: Vec<_> = handles.into_iter().map(|h| h.join().unwrap()).collect();
        assert!(results.iter().all(|r| Arc::ptr_eq(r, &results[0])));
        let s = cache.stats();
        assert_eq!((s.hits, s.misses, s.entries), (7, 1, 1));
    }

    #[test]
    fn panicking_fill_does_not_strand_waiters() {
        let cache = Arc::new(MatrixCache::new(1 << 20));
        let c = Arc::clone(&cache);
        let panicker = std::thread::spawn(move || {
            let _ = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                c.get_or_fill(key(1), || {
                    std::thread::sleep(std::time::Duration::from_millis(10));
                    panic!("generator failure")
                })
            }));
        });
        std::thread::sleep(std::time::Duration::from_millis(2));
        // This lookup either waits on the doomed fill and retries, or
        // arrives after the unwind and fills first itself — both end with
        // a usable buffer rather than a deadlock.
        let data = cache.get_or_fill(key(1), || vec![7.0]);
        assert_eq!(*data, vec![7.0]);
        panicker.join().unwrap();
    }

    #[test]
    fn clear_drops_buffers_keeps_counters() {
        let cache = MatrixCache::new(1 << 20);
        cache.get_or_fill(key(1), || vec![1.0]);
        cache.clear();
        let s = cache.stats();
        assert_eq!((s.entries, s.resident_bytes), (0, 0));
        assert_eq!(s.misses, 1);
    }
}
