//! A multiply-rotate hasher for maps keyed by values the kernel itself
//! hands out: function addresses, module and principal ids, function ids,
//! interned writer sets and the kernel's own thunk names.
//!
//! `std`'s default SipHash is keyed and collision-resistant, which is
//! what a table needs when an adversary picks its keys. None of the maps
//! switched to [`FastMap`]/[`FastSet`] has that property: every key is
//! allocated by the kernel or the runtime, so the keyed hash only costs
//! time on the guard and annotation paths.
//!
//! Two maps must stay on SipHash because an isolated module chooses their
//! keys, and an unkeyed hash would let it pick colliding keys and turn
//! the runtime's lookups into linear scans:
//!
//! - `ModuleInfo::names` (pointer names, including those a module binds
//!   through `lxfi_princ_alias`);
//! - `CapSet::refs` (REF capabilities over addresses a module passes).
//!
//! Each word is folded in with a rotate, xor and multiply. The product's
//! low bits depend only on the key's low bits, so page-aligned or
//! `FN_SPACING`-aligned addresses would all land in bucket 0 if the table
//! indexed by them. [`FastHasher::finish`] therefore rotates the
//! well-mixed high product bits down into the low bits the table uses.

use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasherDefault, Hasher};

/// Odd multiplier with good bit dispersion (from the golden ratio).
const K: u64 = 0x9e37_79b9_7f4a_7c15;

/// Unkeyed multiply-rotate hasher; see the module docs for where it may
/// be used.
#[derive(Debug, Default, Clone, Copy)]
pub struct FastHasher {
    hash: u64,
}

impl FastHasher {
    #[inline]
    fn add(&mut self, word: u64) {
        self.hash = (self.hash.rotate_left(5) ^ word).wrapping_mul(K);
    }
}

impl Hasher for FastHasher {
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        let mut chunks = bytes.chunks_exact(8);
        for c in &mut chunks {
            self.add(u64::from_le_bytes(c.try_into().expect("8-byte chunk")));
        }
        let rest = chunks.remainder();
        if !rest.is_empty() {
            let mut buf = [0u8; 8];
            buf[..rest.len()].copy_from_slice(rest);
            self.add(u64::from_le_bytes(buf));
        }
    }

    #[inline]
    fn write_u32(&mut self, i: u32) {
        self.add(i as u64);
    }

    #[inline]
    fn write_u64(&mut self, i: u64) {
        self.add(i);
    }

    #[inline]
    fn write_usize(&mut self, i: usize) {
        self.add(i as u64);
    }

    #[inline]
    fn finish(&self) -> u64 {
        self.hash.rotate_left(26)
    }
}

/// A `HashMap` over [`FastHasher`], for kernel-assigned keys only.
pub type FastMap<K, V> = HashMap<K, V, BuildHasherDefault<FastHasher>>;

/// A `HashSet` over [`FastHasher`], for kernel-assigned keys only.
pub type FastSet<K> = HashSet<K, BuildHasherDefault<FastHasher>>;

#[cfg(test)]
mod tests {
    use super::*;
    use std::hash::{BuildHasher, Hash};

    fn hash_of<T: Hash>(t: T) -> u64 {
        BuildHasherDefault::<FastHasher>::default().hash_one(t)
    }

    /// Largest bucket when `keys` are spread over 1,024 buckets by the
    /// hash's low bits (the bits a table indexes by).
    fn worst_bucket(keys: impl Iterator<Item = u64>) -> u32 {
        let mut buckets = vec![0u32; 1024];
        for k in keys {
            buckets[(hash_of(k) & 1023) as usize] += 1;
        }
        buckets.into_iter().max().unwrap_or(0)
    }

    #[test]
    fn aligned_keys_spread_across_buckets() {
        // 4,096 keys into 1,024 buckets: 4 per bucket on average.
        const FN_SPACING: u64 = 16;
        let base = 0xffff_ffff_a000_0000u64;
        let fns = worst_bucket((0..4096).map(|i| base + i * FN_SPACING));
        let pages = worst_bucket((0..4096).map(|i| 0x10_0000 + i * 4096));
        let ids = worst_bucket(0..4096);
        assert!(fns <= 16, "FN_SPACING keys: worst bucket {fns}");
        assert!(pages <= 16, "4 KiB keys: worst bucket {pages}");
        assert!(ids <= 16, "dense ids: worst bucket {ids}");
    }

    #[test]
    fn maps_behave_like_std_maps() {
        let mut m: FastMap<Vec<u32>, u32> = FastMap::default();
        m.insert(vec![3, 7], 1);
        m.insert(vec![3], 2);
        assert_eq!(m.get(&[3u32, 7][..]), Some(&1));
        assert_eq!(m.get(std::slice::from_ref(&3u32)), Some(&2));
        let mut s: FastSet<&str> = FastSet::default();
        s.insert("lxfi_thunk_a");
        assert!(s.contains("lxfi_thunk_a") && !s.contains("lxfi_thunk_b"));
    }
}
