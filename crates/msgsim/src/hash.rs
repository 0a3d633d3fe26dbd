//! A fast, non-cryptographic hasher for the simulator's hot-path maps.
//!
//! The per-(src, tag) sequence maps and the event backend's pending-message
//! index are hit on every message; `std`'s SipHash dominates those lookups
//! at full-machine rank counts. This is the classic Fx multiply-rotate mix
//! (as used by rustc): good dispersion for small integer keys, a handful of
//! instructions per word, and no per-map random state — determinism is a
//! feature here, since no result depends on iteration order (the only
//! iteration, retiring a finished collective's counters, just deletes).

use std::hash::{BuildHasherDefault, Hasher};

/// Multiplicative mixing constant (64-bit golden-ratio derivative).
const SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;

/// Word-at-a-time multiply-rotate hasher for small integer keys.
#[derive(Default)]
pub(crate) struct FxHasher {
    hash: u64,
}

impl FxHasher {
    #[inline]
    fn add(&mut self, word: u64) {
        self.hash = (self.hash.rotate_left(5) ^ word).wrapping_mul(SEED);
    }
}

impl Hasher for FxHasher {
    #[inline]
    fn finish(&self) -> u64 {
        self.hash
    }

    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        // Fallback for keys that hash as raw bytes: fold word-sized chunks.
        let mut chunks = bytes.chunks_exact(8);
        for c in &mut chunks {
            self.add(u64::from_le_bytes(c.try_into().unwrap()));
        }
        let rest = chunks.remainder();
        if !rest.is_empty() {
            let mut tail = [0u8; 8];
            tail[..rest.len()].copy_from_slice(rest);
            self.add(u64::from_le_bytes(tail));
        }
    }

    #[inline]
    fn write_u32(&mut self, v: u32) {
        self.add(v as u64);
    }

    #[inline]
    fn write_u64(&mut self, v: u64) {
        self.add(v);
    }

    #[inline]
    fn write_usize(&mut self, v: usize) {
        self.add(v as u64);
    }
}

/// `BuildHasher` plugging [`FxHasher`] into `HashMap`.
pub(crate) type FxBuildHasher = BuildHasherDefault<FxHasher>;

/// `HashMap` keyed with the fast hasher.
pub(crate) type FxHashMap<K, V> = std::collections::HashMap<K, V, FxBuildHasher>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn distinct_stream_keys_disperse() {
        // The hot key shape: (rank, tag) pairs. All distinct inputs must
        // produce distinct hashes over a realistic range (no catastrophic
        // collapse like xor-folding symmetric pairs).
        use std::collections::HashSet;
        use std::hash::BuildHasher;
        let bh = FxBuildHasher::default();
        let mut seen = HashSet::new();
        for src in 0..64usize {
            for tag in [0u32, 1, 7, 0x8000_0001, 0x8001_0003] {
                seen.insert(bh.hash_one((src, tag)));
            }
        }
        assert_eq!(seen.len(), 64 * 5, "collisions in the (src, tag) key space");
    }

    #[test]
    fn maps_behave_like_std() {
        let mut m: FxHashMap<(usize, u32), u64> = FxHashMap::default();
        for i in 0..1000usize {
            m.insert((i, (i * 3) as u32), i as u64);
        }
        for i in 0..1000usize {
            assert_eq!(m.get(&(i, (i * 3) as u32)), Some(&(i as u64)));
        }
        assert_eq!(m.len(), 1000);
    }
}
