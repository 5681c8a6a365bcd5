//! Small copyable identifier newtypes used throughout the simulator.
//!
//! All identifiers are dense indices handed out by the [`crate::network::Network`]
//! builder, so they can be used to index the corresponding vectors directly.

use core::fmt;
use serde::{Deserialize, Serialize};

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

impl FlowId {
    /// The underlying integer value.
    pub fn value(self) -> u64 {
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
    use std::collections::HashMap;

    #[test]
    fn ids_are_usable_as_map_keys() {
        let mut m = HashMap::new();
        m.insert(FlowId(7), "seven");
        assert_eq!(m[&FlowId(7)], "seven");
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
        assert_eq!(FlowId(9).value(), 9);
    }
}
