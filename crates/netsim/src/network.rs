//! The static network graph: nodes plus unidirectional links.
//!
//! Topology builders (FatTree, VL2, dumbbell, …) live in the `topology` crate
//! and use this builder API; the simulator only ever sees the finished graph.

use crate::host::Host;
use crate::ids::{Addr, LinkId, NodeId};
use crate::link::{Link, LinkConfig};
use crate::node::Node;
use crate::switch::{Switch, SwitchLayer};

/// The network graph.
#[derive(Debug, Default)]
pub struct Network {
    nodes: Vec<Node>,
    links: Vec<Link>,
    hosts: Vec<NodeId>,
    salt_counter: u64,
}

impl Network {
    /// Create an empty network.
    pub fn new() -> Self {
        Network::default()
    }

    fn next_salt(&mut self) -> u64 {
        self.salt_counter += 1;
        crate::ecmp::mix64(self.salt_counter)
    }

    /// Add a host. Hosts receive dense addresses in creation order.
    pub fn add_host(&mut self) -> NodeId {
        let id = NodeId(self.nodes.len() as u32);
        let addr = Addr(self.hosts.len() as u32);
        let salt = self.next_salt();
        self.nodes.push(Node::Host(Host::new(id, addr, salt)));
        self.hosts.push(id);
        id
    }

    /// Add a switch at the given fabric layer. The routing table is sized
    /// lazily when routes are installed; `expected_hosts` sizes it up front.
    pub fn add_switch(&mut self, layer: SwitchLayer, expected_hosts: usize) -> NodeId {
        let id = NodeId(self.nodes.len() as u32);
        let salt = self.next_salt();
        self.nodes
            .push(Node::Switch(Switch::new(id, layer, expected_hosts, salt)));
        id
    }

    /// Add a unidirectional link from `from` to `to`.
    pub(crate) fn add_link(&mut self, from: NodeId, to: NodeId, config: LinkConfig) -> LinkId {
        assert!(from.index() < self.nodes.len(), "unknown 'from' node");
        assert!(to.index() < self.nodes.len(), "unknown 'to' node");
        let id = LinkId(self.links.len() as u32);
        self.links.push(Link::new(id, from, to, config));
        // If the source is a host, record the uplink so the host knows its NIC.
        if let Node::Host(h) = &mut self.nodes[from.index()] {
            h.attach_uplink(id);
        }
        id
    }

    /// Add a full-duplex link (two unidirectional links). Returns
    /// `(a_to_b, b_to_a)`.
    pub fn add_duplex_link(
        &mut self,
        a: NodeId,
        b: NodeId,
        config: LinkConfig,
    ) -> (LinkId, LinkId) {
        let ab = self.add_link(a, b, config);
        let ba = self.add_link(b, a, config);
        (ab, ba)
    }

    /// Number of nodes.
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// Number of links (unidirectional).
    pub fn link_count(&self) -> usize {
        self.links.len()
    }

    /// Number of hosts.
    pub fn host_count(&self) -> usize {
        self.hosts.len()
    }

    /// Node ids of all hosts, in address order.
    pub fn hosts(&self) -> &[NodeId] {
        &self.hosts
    }

    /// Borrow a node.
    pub fn node(&self, id: NodeId) -> &Node {
        &self.nodes[id.index()]
    }

    /// Borrow a link.
    pub fn link(&self, id: LinkId) -> &Link {
        &self.links[id.index()]
    }

    /// Mutably borrow a link.
    pub fn link_mut(&mut self, id: LinkId) -> &mut Link {
        &mut self.links[id.index()]
    }

    /// All links.
    pub fn links(&self) -> &[Link] {
        &self.links
    }

    /// All nodes.
    pub fn nodes(&self) -> &[Node] {
        &self.nodes
    }

    /// Convenience for builders: mutably borrow a switch, panicking with a
    /// clear message if the node is not one.
    pub fn switch_mut(&mut self, id: NodeId) -> &mut Switch {
        self.nodes[id.index()]
            .as_switch_mut()
            .expect("node is not a switch")
    }

    /// Convenience: mutably borrow a host, panicking if the node is not one.
    pub(crate) fn host_mut(&mut self, id: NodeId) -> &mut Host {
        self.nodes[id.index()]
            .as_host_mut()
            .expect("node is not a host")
    }

    /// Mutable iterator over every switch, e.g. for installing a fabric-wide
    /// [`crate::switch::PathPolicy`] after the topology is built.
    pub fn switches_mut(&mut self) -> impl Iterator<Item = &mut Switch> {
        self.nodes.iter_mut().filter_map(|n| n.as_switch_mut())
    }

    /// The list of switch node ids at a given layer.
    pub fn switches_at(&self, layer: SwitchLayer) -> Vec<NodeId> {
        self.nodes
            .iter()
            .filter_map(|n| n.as_switch())
            .filter(|s| s.layer == layer)
            .map(|s| s.id)
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn build_a_small_graph() {
        let mut net = Network::new();
        let h0 = net.add_host();
        let h1 = net.add_host();
        let sw = net.add_switch(SwitchLayer::Edge, 2);
        net.add_duplex_link(h0, sw, LinkConfig::default());
        net.add_duplex_link(h1, sw, LinkConfig::default());

        assert_eq!(net.node_count(), 3);
        assert_eq!(net.link_count(), 4);
        assert_eq!(net.host_count(), 2);
        assert_eq!(net.hosts(), [h0, h1]);
        assert_eq!(net.switches_at(SwitchLayer::Edge), vec![sw]);
        assert_eq!(net.switches_at(SwitchLayer::Core), Vec::<NodeId>::new());

        // Hosts learned their uplinks automatically.
        let host0 = net.node(h0).as_host().unwrap();
        assert_eq!(host0.addr, Addr(0));
        assert_eq!(net.node(h1).as_host().unwrap().addr, Addr(1));
        assert_eq!(host0.uplinks.len(), 1);
        assert_eq!(net.link(host0.uplinks[0]).to, sw);

        // Switch has two outgoing (downlink) links.
        assert_eq!(net.links().iter().filter(|l| l.from == sw).count(), 2);
    }

    #[test]
    fn per_node_salts_differ() {
        let mut net = Network::new();
        let a = net.add_switch(SwitchLayer::Core, 1);
        let b = net.add_switch(SwitchLayer::Core, 1);
        let sa = net.node(a).as_switch().unwrap().ecmp_salt;
        let sb = net.node(b).as_switch().unwrap().ecmp_salt;
        assert_ne!(sa, sb);
    }

    #[test]
    #[should_panic(expected = "unknown 'to' node")]
    fn linking_unknown_node_panics() {
        let mut net = Network::new();
        let a = net.add_host();
        net.add_link(a, NodeId(99), LinkConfig::default());
    }
}
