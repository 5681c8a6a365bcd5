//! Network nodes: either a host or a switch.

use crate::host::Host;
use crate::ids::NodeId;
use crate::switch::Switch;

/// A node in the network graph.
#[derive(Debug)]
pub enum Node {
    /// An end host running transport agents.
    Host(Host),
    /// A fabric switch forwarding packets.
    Switch(Switch),
}

impl Node {
    /// This node's id.
    pub fn id(&self) -> NodeId {
        match self {
            Node::Host(h) => h.id,
            Node::Switch(s) => s.id,
        }
    }

    /// Borrow as a host, if it is one.
    pub fn as_host(&self) -> Option<&Host> {
        match self {
            Node::Host(h) => Some(h),
            Node::Switch(_) => None,
        }
    }

    /// Mutably borrow as a host, if it is one.
    pub(crate) fn as_host_mut(&mut self) -> Option<&mut Host> {
        match self {
            Node::Host(h) => Some(h),
            Node::Switch(_) => None,
        }
    }

    /// Borrow as a switch, if it is one.
    pub fn as_switch(&self) -> Option<&Switch> {
        match self {
            Node::Switch(s) => Some(s),
            Node::Host(_) => None,
        }
    }

    /// Mutably borrow as a switch, if it is one.
    pub(crate) fn as_switch_mut(&mut self) -> Option<&mut Switch> {
        match self {
            Node::Switch(s) => Some(s),
            Node::Host(_) => None,
        }
    }

    /// Is this node a host?
    pub fn is_host(&self) -> bool {
        matches!(self, Node::Host(_))
    }

    /// Is this node a switch?
    pub(crate) fn is_switch(&self) -> bool {
        matches!(self, Node::Switch(_))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::Addr;
    use crate::switch::SwitchLayer;

    #[test]
    fn accessors() {
        let host = Node::Host(Host::new(NodeId(1), Addr(0), 0));
        let switch = Node::Switch(Switch::new(NodeId(2), SwitchLayer::Core, 4, 0));
        assert!(host.is_host());
        assert!(!host.is_switch());
        assert!(switch.is_switch());
        assert_eq!(host.id(), NodeId(1));
        assert_eq!(switch.id(), NodeId(2));
        assert!(host.as_host().is_some());
        assert!(host.as_switch().is_none());
        assert!(switch.as_switch().is_some());
        assert!(switch.as_host().is_none());
    }
}
