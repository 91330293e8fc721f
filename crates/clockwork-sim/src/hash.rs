//! The workspace's one FNV-1a: the 64-bit byte-wise hash behind every
//! determinism digest (responses, traces, fleets) and the front-door router.

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
    fn u64_writes_are_the_little_endian_bytes() {
        let mut h = Fnv1a::new();
        h.write_u64_le(0x0807_0605_0403_0201);
        assert_eq!(h.finish(), hash(&[1, 2, 3, 4, 5, 6, 7, 8]));
    }
}
