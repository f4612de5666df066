//! The workspace's one FNV-1a-64 definition.
//!
//! Policy-file and cache-envelope checksums, sweep-journal lines, cache
//! keys, failpoint site hashes and RNG stream labels all hash through
//! [`Fnv1a64`], so they cannot drift apart. FNV-1a is byte-serial, so
//! feeding a sequence of slices gives the same value as feeding their
//! concatenation, and a state can be copied to extend a shared prefix in
//! several ways.

/// FNV-1a-64 offset basis.
const OFFSET_BASIS: u64 = 0xcbf2_9ce4_8422_2325;
/// FNV-1a-64 prime.
const PRIME: u64 = 0x100_0000_01b3;

/// A streaming FNV-1a-64 state: 8 bytes, `Copy`, no buffer.
///
/// ```
/// use simkit::Fnv1a64;
///
/// let mut h = Fnv1a64::new();
/// h.write(b"ab");
/// let mut fork = h;
/// h.write(b"c");
/// assert_eq!(h.finish(), Fnv1a64::hash(b"abc"));
/// fork.write(b"d");
/// assert_eq!(fork.finish(), Fnv1a64::hash(b"abd"));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Fnv1a64(u64);

impl Fnv1a64 {
    /// The state of an empty input.
    pub const fn new() -> Fnv1a64 {
        Fnv1a64(OFFSET_BASIS)
    }

    /// Feeds `bytes`.
    pub fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(PRIME);
        }
    }

    /// The hash of everything fed so far.
    pub const fn finish(self) -> u64 {
        self.0
    }

    /// The hash of one byte slice.
    pub fn hash(bytes: &[u8]) -> u64 {
        let mut h = Fnv1a64::new();
        h.write(bytes);
        h.finish()
    }
}

impl Default for Fnv1a64 {
    fn default() -> Fnv1a64 {
        Fnv1a64::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matches_the_published_fnv1a64_vectors() {
        assert_eq!(Fnv1a64::hash(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(Fnv1a64::hash(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(Fnv1a64::hash(b"foobar"), 0x8594_4171_f739_67e8);
    }

    #[test]
    fn split_writes_equal_one_write() {
        let mut h = Fnv1a64::new();
        for part in [&b"fo"[..], b"", b"ob", b"ar"] {
            h.write(part);
        }
        assert_eq!(h.finish(), Fnv1a64::hash(b"foobar"));
    }
}
