//! Small copyable identifier newtypes used throughout the simulator.
//!
//! Node and link identifiers and host addresses are dense indices handed out
//! by the [`crate::network::Network`] builder, so they can be used to index the
//! corresponding vectors directly. A [`FlowId`] is not: the workload chooses it
//! (any `u64`), and each host keys its agents by it in a [`FlowMap`].

use core::fmt;
use serde::{Deserialize, Serialize};
use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasherDefault, Hasher};

/// Identifier of a node (host or switch) in the network graph.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize, Default,
)]
pub struct NodeId(pub u32);

/// Identifier of a unidirectional link (channel) in the network graph.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize, Default,
)]
pub struct LinkId(pub u32);

/// Identifier of a transport-level flow (one connection; all of its subflows
/// share the same `FlowId`).
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize, Default,
)]
pub struct FlowId(pub u64);

/// Network-layer address of a host. In this simulator addresses are dense
/// host indices; the FatTree builder hands them out in (pod, edge, host)
/// order, which is what its path-count model decodes (FatTree addressing).
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize, Default,
)]
pub struct Addr(pub u32);

impl NodeId {
    /// The underlying index.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl LinkId {
    /// The underlying index.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl Addr {
    /// The underlying host index.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// A map keyed by [`FlowId`], hashed by [`FlowHasher`]: a host's agents (one
/// lookup per delivered packet, timer and start), the metrics' per-flow
/// records.
pub type FlowMap<V> = HashMap<FlowId, V, BuildHasherDefault<FlowHasher>>;

/// A set of [`FlowId`]s, hashed like a [`FlowMap`].
pub type FlowSet = HashSet<FlowId, BuildHasherDefault<FlowHasher>>;

/// The hasher of [`FlowMap`] and [`FlowSet`]: one folded multiply per id
/// instead of SipHash's rounds. It does not resist keys crafted to collide,
/// which the program's own flow ids are not.
#[derive(Debug, Default, Clone, Copy)]
pub struct FlowHasher(u64);

impl Hasher for FlowHasher {
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_u64(u64::from(b));
        }
    }

    /// The 128-bit product's two halves XORed: every bit of the id reaches
    /// both the low bits a table indexes its buckets by and the high bits
    /// it tags them with, whichever bits the ids differ in.
    fn write_u64(&mut self, n: u64) {
        let product = u128::from(self.0 ^ n) * 0xf135_7aea_2e62_a9c5;
        self.0 = product as u64 ^ (product >> 64) as u64;
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

impl fmt::Display for LinkId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "l{}", self.0)
    }
}

impl fmt::Display for FlowId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "f{}", self.0)
    }
}

impl fmt::Display for Addr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "h{}", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::hash::Hash;

    #[test]
    fn ids_are_usable_as_map_keys() {
        let mut m = HashMap::new();
        m.insert(FlowId(7), "seven");
        assert_eq!(m[&FlowId(7)], "seven");
    }

    #[test]
    fn the_flow_hasher_spreads_sequential_and_high_bit_ids() {
        let hash = |id: u64| {
            let mut h = FlowHasher::default();
            FlowId(id).hash(&mut h);
            h.finish()
        };
        // A 1024-bucket table indexes by the low 10 bits. Sequential ids,
        // and ids that differ only far above those bits, fill about as many
        // buckets as random keys would (1 - 1/e of them).
        for shift in [0, 32, 54] {
            let buckets: HashSet<u64> = (0..1024u64).map(|i| hash(i << shift) & 1023).collect();
            assert!(
                buckets.len() > 600,
                "ids << {shift}: {} of 1024 buckets",
                buckets.len()
            );
        }
    }

    #[test]
    fn display_is_compact() {
        assert_eq!(NodeId(3).to_string(), "n3");
        assert_eq!(LinkId(4).to_string(), "l4");
        assert_eq!(FlowId(5).to_string(), "f5");
        assert_eq!(Addr(6).to_string(), "h6");
    }

    #[test]
    fn index_accessors() {
        assert_eq!(NodeId(9).index(), 9);
        assert_eq!(LinkId(9).index(), 9);
        assert_eq!(Addr(9).index(), 9);
    }
}
