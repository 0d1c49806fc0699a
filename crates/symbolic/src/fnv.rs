//! [`Fnv64`]: the one FNV-1a behind COMMUTER's structural fingerprints.

/// A 64-bit FNV-1a state, starting at the offset basis (`default`). It is
/// word-wise: each input word is xor-folded whole, so byte input hashes
/// one byte per step. Directory bucket placement, the corpus fingerprint
/// and the footprint pins all hash through it.
#[derive(Clone, Copy, Debug)]
pub struct Fnv64(u64);

impl Default for Fnv64 {
    fn default() -> Self {
        Fnv64(0xcbf29ce484222325)
    }
}

impl Fnv64 {
    /// Folds one word into the hash.
    pub fn word(&mut self, v: u64) {
        self.0 = (self.0 ^ v).wrapping_mul(0x100000001b3);
    }

    /// Folds each byte as one word.
    pub fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.word(b as u64);
        }
    }

    /// The hash so far.
    pub fn finish(&self) -> u64 {
        self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn byte_input_is_standard_fnv1a() {
        let mut h = Fnv64::default();
        assert_eq!(h.finish(), 0xcbf29ce484222325);
        h.bytes(b"a");
        assert_eq!(h.finish(), 0xaf63dc4c8601ec8c);
    }
}
