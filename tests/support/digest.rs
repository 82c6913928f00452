//! The one FNV-1a fold of test code: a test folds a large output into one
//! word and pins that (`pinned.rs`). The multiply never carries a
//! difference out of bit 63, so flipped sign bits cancel in pairs.

/// FNV-1a over 64-bit words.
pub struct Digest(pub u64);

impl Digest {
    pub fn new() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }

    pub fn word(&mut self, x: u64) {
        self.0 = (self.0 ^ x).wrapping_mul(0x0000_0100_0000_01b3);
    }
}
