//! FNV-1a64, the workspace's one checksum and fingerprint hash: the
//! embedding store's body checksum, the delta log's trailer and the
//! experiment matrix's embedding digests all fold bytes through
//! [`Fnv1a64`].

/// Incremental FNV-1a64 state, so a stream can be checksummed without
/// buffering it.
#[derive(Clone, Copy, Debug)]
pub struct Fnv1a64(u64);

impl Fnv1a64 {
    /// Fresh state (the FNV-1a offset basis).
    pub fn new() -> Fnv1a64 {
        Fnv1a64(0xcbf2_9ce4_8422_2325)
    }

    /// Fold more bytes into the state.
    pub fn update(&mut self, bytes: &[u8]) {
        let mut h = self.0;
        for &b in bytes {
            h = (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3);
        }
        self.0 = h;
    }

    /// The digest so far.
    pub fn finish(&self) -> u64 {
        self.0
    }
}

impl Default for Fnv1a64 {
    fn default() -> Self {
        Self::new()
    }
}

/// FNV-1a64 over one byte slice.
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h = Fnv1a64::new();
    h.update(bytes);
    h.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matches_the_published_test_vectors() {
        assert_eq!(fnv1a64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a64(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a64(b"foobar"), 0x8594_4171_f739_67e8);
    }
}
