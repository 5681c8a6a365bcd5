//! The one content hash behind every recorded digest table: 64-bit FNV-1a
//! over the `Debug` rendering of each item added.
//!
//! A digest pins *what* something is (a sender's emissions, a fabric's
//! wiring, a scenario's expanded configurations) in sixteen hex digits, so a
//! test can compare it with a recorded row and print the new table when it
//! moves. Each item is rendered as `format!("{item:?};")`, so a change to the
//! `Debug` shape of a hashed type changes the digest as surely as a change to
//! its values.

use std::fmt::{Debug, Write};

/// FNV-1a over the `Debug` rendering of everything added, in order.
///
/// ```
/// use netsim::Digest;
///
/// let mut a = Digest::new();
/// a.add(&("fig1a", 8));
/// let mut b = Digest::default();
/// b.add(&("fig1a", 8));
/// assert_eq!(a.value(), b.value());
/// b.add(&1);
/// assert_ne!(a.value(), b.value());
/// ```
pub struct Digest(u64);

impl Digest {
    /// The digest of nothing: the FNV-1a offset basis.
    pub fn new() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }

    /// Fold in the bytes of `format!("{item:?};")`.
    pub fn add(&mut self, item: &impl Debug) {
        let mut text = String::new();
        write!(text, "{item:?};").expect("writing to a String cannot fail");
        for byte in text.bytes() {
            self.0 = (self.0 ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    /// The hash of everything added so far.
    pub fn value(&self) -> u64 {
        self.0
    }
}

impl Default for Digest {
    fn default() -> Self {
        Self::new()
    }
}
