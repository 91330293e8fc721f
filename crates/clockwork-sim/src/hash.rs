//! The workspace's hashes: the one FNV-1a, the 64-bit byte-wise hash behind
//! every determinism digest (responses, traces, fleets) and the front-door
//! router; and [`IdHasher`], the hasher of the maps and sets keyed by ids.

use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasherDefault, Hasher};

/// An incremental 64-bit FNV-1a hasher.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Fnv1a(u64);

const PRIME: u64 = 0x0000_0100_0000_01b3;

impl Fnv1a {
    /// A hasher at the FNV-1a offset basis.
    pub const fn new() -> Self {
        Fnv1a(0xcbf2_9ce4_8422_2325)
    }

    /// Folds one byte in.
    #[inline]
    pub fn write_u8(&mut self, byte: u8) {
        self.0 = (self.0 ^ u64::from(byte)).wrapping_mul(PRIME);
    }

    /// Folds a byte string in, first byte first.
    #[inline]
    pub fn write_bytes(&mut self, bytes: &[u8]) {
        for &byte in bytes {
            self.write_u8(byte);
        }
    }

    /// Folds the eight little-endian bytes of `value` in.
    #[inline]
    pub fn write_u64_le(&mut self, value: u64) {
        self.write_bytes(&value.to_le_bytes());
    }

    /// The hash of everything written so far.
    #[inline]
    pub fn finish(&self) -> u64 {
        self.0
    }
}

impl Default for Fnv1a {
    fn default() -> Self {
        Self::new()
    }
}

/// A hasher for integer keys — action, request and worker ids, GPU
/// references — where SipHash's resistance to chosen keys buys nothing and
/// costs a few dozen cycles a probe.
///
/// Each integer written is added in and the sum multiplied by an odd
/// constant; `finish` rotates the well-mixed high bits down to where the
/// table takes its bucket index. There is no per-process seed, so a map's
/// iteration order is the same in every run. Keys chosen to collide would
/// make every probe a scan, so this is only for ids nobody hostile picks:
/// the simulation mints them, or — a joining worker's — the scenario's
/// author names it.
#[derive(Clone, Copy, Debug, Default)]
pub struct IdHasher(u64);

const MIX: u64 = 0xf135_7aea_2e62_a9c5;

impl Hasher for IdHasher {
    #[inline]
    fn write_u64(&mut self, n: u64) {
        self.0 = self.0.wrapping_add(n).wrapping_mul(MIX);
    }

    #[inline]
    fn write_u32(&mut self, n: u32) {
        self.write_u64(u64::from(n));
    }

    /// Anything that is not an integer, byte by byte.
    fn write(&mut self, bytes: &[u8]) {
        for &byte in bytes {
            self.write_u64(u64::from(byte));
        }
    }

    #[inline]
    fn finish(&self) -> u64 {
        self.0.rotate_left(26)
    }
}

/// A `HashMap` keyed by ids, hashed with [`IdHasher`]. Build one with
/// `IdMap::default()`.
pub type IdMap<K, V> = HashMap<K, V, BuildHasherDefault<IdHasher>>;

/// A `HashSet` of ids, hashed with [`IdHasher`]. Build one with
/// `IdSet::default()`.
pub type IdSet<K> = HashSet<K, BuildHasherDefault<IdHasher>>;

#[cfg(test)]
mod tests {
    use super::*;

    fn hash(bytes: &[u8]) -> u64 {
        let mut h = Fnv1a::new();
        h.write_bytes(bytes);
        h.finish()
    }

    #[test]
    fn matches_the_published_64_bit_vectors() {
        assert_eq!(hash(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(hash(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(hash(b"foobar"), 0x8594_4171_f739_67e8);
    }

    #[test]
    fn id_maps_keep_every_key_and_have_no_seed() {
        // Sequential ids, ids a large stride apart and a pair type, the
        // shapes the id maps see.
        let keys: Vec<(u32, u64)> = (0..2_000u32)
            .map(|i| (i % 7, u64::from(i) << 20))
            .chain((0..500).map(|i| (u32::MAX - i, u64::from(i))))
            .collect();
        let map: IdMap<(u32, u64), usize> = keys.iter().enumerate().map(|(i, &k)| (k, i)).collect();
        assert_eq!(map.len(), keys.len());
        for (i, k) in keys.iter().enumerate() {
            assert_eq!(map[k], i);
        }
        // No seed: a second map built the same way iterates the same way.
        let again: IdMap<(u32, u64), usize> =
            keys.iter().enumerate().map(|(i, &k)| (k, i)).collect();
        assert!(map.iter().eq(again.iter()));
        let set: IdSet<u64> = (0..1_000).collect();
        assert!((0..1_000).all(|k| set.contains(&k)) && !set.contains(&1_000));
    }

    #[test]
    fn u64_writes_are_the_little_endian_bytes() {
        let mut h = Fnv1a::new();
        h.write_u64_le(0x0807_0605_0403_0201);
        assert_eq!(h.finish(), hash(&[1, 2, 3, 4, 5, 6, 7, 8]));
    }
}
