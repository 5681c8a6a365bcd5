//! Output-queued switches with configurable multi-path forwarding.
//!
//! A switch owns a routing table mapping destination hosts to *groups* of
//! equal-cost output links. Forwarding a packet selects a group by destination
//! and a member link according to the switch's [`PathPolicy`]: classic
//! per-flow hash ECMP, per-packet scatter, or DiffFlow-style size-aware
//! routing (mice scattered, elephants pinned). Drops are counted per switch so
//! the metrics crate can report per-layer (core / aggregation / edge) loss
//! rates, one of the quantities the paper reports in its §3 text.

use crate::ecmp;
use crate::ids::{Addr, LinkId, NodeId};
use crate::packet::{Packet, MICE_THRESHOLD_BYTES};
use serde::{Deserialize, Serialize};

/// Which tier of the data-centre fabric a switch belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum SwitchLayer {
    /// Top-of-rack / edge switches directly connected to hosts.
    Edge,
    /// Aggregation (pod) switches.
    Aggregation,
    /// Core switches.
    Core,
}

impl SwitchLayer {
    /// Stable index used by per-layer statistics arrays.
    pub fn index(self) -> usize {
        match self {
            SwitchLayer::Edge => 0,
            SwitchLayer::Aggregation => 1,
            SwitchLayer::Core => 2,
        }
    }

    /// Human-readable name.
    pub fn name(self) -> &'static str {
        match self {
            SwitchLayer::Edge => "edge",
            SwitchLayer::Aggregation => "aggregation",
            SwitchLayer::Core => "core",
        }
    }
}

/// How a switch picks one member of a multi-path next-hop group.
///
/// The policy is a property of the *fabric*, orthogonal to the transport: the
/// same TCP sender behaves very differently under per-flow ECMP (one path for
/// the flow's lifetime), per-packet scatter (maximal path diversity, maximal
/// reordering) and DiffFlow-style size-aware routing (scatter only while the
/// flow is still small, pin once it has proven to be an elephant).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize, Default)]
pub enum PathPolicy {
    /// Classic hash-based ECMP on the 5-tuple: every packet of a flow follows
    /// the same path (no reordering); flows as a whole spread across paths.
    #[default]
    FlowHash,
    /// Per-packet scatter: every data packet independently picks a member
    /// (via a per-switch forwarding nonce), regardless of its 5-tuple. Pure
    /// control packets (SYNs, ACKs) still follow the flow hash so handshakes
    /// and ACK clocking stay on stable paths, mirroring how spraying fabrics
    /// treat the data plane.
    PerPacketScatter,
    /// DiffFlow-style size-aware routing: data packets whose connection-level
    /// byte offset (`Packet::data_seq`, the byte count carried in the packet
    /// metadata) is still below [`MICE_THRESHOLD_BYTES`] are treated as mice
    /// and scattered per packet; once a flow's offset reaches it, the flow's
    /// packets are pinned to one stable path chosen by a port-agnostic flow
    /// hash, so the elephant stops causing reordering and keeps its ACK
    /// clock. Control packets follow the flow hash.
    DiffFlow,
}

impl PathPolicy {
    /// [`PathPolicy::DiffFlow`], under the name `benchmark/` calls.
    pub fn diffflow_default() -> Self {
        PathPolicy::DiffFlow
    }

    /// Short label for run names and reports.
    pub fn label(&self) -> &'static str {
        match self {
            PathPolicy::FlowHash => "ecmp",
            PathPolicy::PerPacketScatter => "scatter",
            PathPolicy::DiffFlow => "diffflow",
        }
    }
}

/// Per-switch forwarding counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct SwitchStats {
    /// Packets with no route (should not happen on a well-formed topology;
    /// counted rather than panicking so malformed experiments are visible).
    pub no_route: u64,
}

/// An output-queued switch.
#[derive(Debug, Clone)]
pub struct Switch {
    /// This switch's node id.
    pub id: NodeId,
    /// The fabric tier this switch belongs to.
    pub layer: SwitchLayer,
    /// ECMP hash salt (models per-switch hash seed diversity).
    pub ecmp_salt: u64,
    /// For each destination host address (dense index), which next-hop group
    /// to use. `u16::MAX` means "no route".
    table: Vec<u16>,
    /// Next-hop groups: each is a non-empty set of equal-cost output links.
    groups: Vec<Vec<LinkId>>,
    /// Multi-path member selection policy.
    policy: PathPolicy,
    /// Forwarding nonce for per-packet scatter policies (incremented per
    /// scattered packet; deterministic across runs).
    scatter_nonce: u64,
    stats: SwitchStats,
}

/// Sentinel meaning "destination not in the table".
const NO_ROUTE: u16 = u16::MAX;

impl Switch {
    /// Create a switch with an empty routing table sized for `num_hosts`
    /// destinations.
    pub fn new(id: NodeId, layer: SwitchLayer, num_hosts: usize, ecmp_salt: u64) -> Self {
        Switch {
            id,
            layer,
            ecmp_salt,
            table: vec![NO_ROUTE; num_hosts],
            groups: Vec::new(),
            policy: PathPolicy::FlowHash,
            scatter_nonce: 0,
            stats: SwitchStats::default(),
        }
    }

    /// Install a multi-path member selection policy.
    pub fn set_path_policy(&mut self, policy: PathPolicy) {
        self.policy = policy;
    }

    /// Register a next-hop group (a set of equal-cost output links) and return
    /// its index for use with [`Switch::set_route`].
    pub fn add_group(&mut self, links: Vec<LinkId>) -> u16 {
        assert!(!links.is_empty(), "next-hop group must not be empty");
        assert!(
            self.groups.len() < NO_ROUTE as usize,
            "too many next-hop groups"
        );
        self.groups.push(links);
        (self.groups.len() - 1) as u16
    }

    /// Route destination `dst` through group `group`.
    pub fn set_route(&mut self, dst: Addr, group: u16) {
        assert!((group as usize) < self.groups.len(), "unknown group");
        let idx = dst.index();
        assert!(idx < self.table.len(), "destination out of range");
        self.table[idx] = group;
    }

    /// The equal-cost next hops towards `dst`, in member order (empty if
    /// unreachable). Which group index holds them is not observable.
    pub fn next_hops(&self, dst: Addr) -> &[LinkId] {
        match self.table.get(dst.index()) {
            Some(&g) if g != NO_ROUTE => &self.groups[g as usize],
            _ => &[],
        }
    }

    /// Number of equal-cost next hops towards `dst` (0 if unreachable).
    pub fn path_count(&self, dst: Addr) -> usize {
        self.next_hops(dst).len()
    }

    /// Choose the output link for `packet` according to the switch's
    /// [`PathPolicy`].
    ///
    /// Returns `None` (and counts it) if the destination has no route.
    pub fn forward(&mut self, packet: &Packet) -> Option<LinkId> {
        let group = match self.table.get(packet.dst.index()) {
            Some(&g) if g != NO_ROUTE => &self.groups[g as usize],
            _ => {
                self.stats.no_route += 1;
                return None;
            }
        };
        let n = group.len();
        let salt = self.ecmp_salt;
        let scatter = |nonce: &mut u64| {
            let choice = ecmp::select_scatter(packet, salt, *nonce, n);
            *nonce = nonce.wrapping_add(1);
            choice
        };
        let choice = match self.policy {
            PathPolicy::FlowHash => ecmp::select(packet, salt, n),
            PathPolicy::PerPacketScatter if packet.payload > 0 => scatter(&mut self.scatter_nonce),
            PathPolicy::DiffFlow if packet.payload > 0 => {
                if packet.data_seq < MICE_THRESHOLD_BYTES {
                    scatter(&mut self.scatter_nonce)
                } else {
                    ecmp::select_pinned(packet, salt, n)
                }
            }
            // Control packets under the spraying policies keep the flow hash.
            PathPolicy::PerPacketScatter | PathPolicy::DiffFlow => ecmp::select(packet, salt, n),
        };
        Some(group[choice])
    }

    /// The *stable* output link the fluid fast path attributes to `packet`'s
    /// flow, without touching forwarding state (no stats, no scatter nonce).
    ///
    /// Matches [`Switch::forward`] exactly for the policies that pin flows:
    /// flow-hash ECMP, control packets under the spraying policies, and
    /// DiffFlow elephants (`data_seq` at or past the threshold map to the
    /// same `select_pinned` member real elephant packets use, so fluid
    /// elephants share their path — and re-pin after `remove_link` — just
    /// like packet elephants). Per-packet-scattered traffic has no single
    /// path by construction; its fluid stand-in is the flow-hash member,
    /// which spreads a *population* of fluid flows across the group the way
    /// scatter spreads packets.
    pub(crate) fn route_stable(&self, packet: &Packet) -> Option<LinkId> {
        let group = match self.table.get(packet.dst.index()) {
            Some(&g) if g != NO_ROUTE => &self.groups[g as usize],
            _ => return None,
        };
        let n = group.len();
        let salt = self.ecmp_salt;
        let choice = match self.policy {
            PathPolicy::DiffFlow
                if packet.payload > 0 && packet.data_seq >= MICE_THRESHOLD_BYTES =>
            {
                ecmp::select_pinned(packet, salt, n)
            }
            _ => ecmp::select(packet, salt, n),
        };
        Some(group[choice])
    }

    /// Remove `link` from every next-hop group that has at least two members,
    /// e.g. when the link has failed and traffic must spread over the
    /// surviving equal-cost siblings. A group's last member is never removed
    /// (that would blackhole every destination routed through it); the return
    /// value is the number of groups the link was actually removed from.
    pub fn remove_link(&mut self, link: LinkId) -> usize {
        let mut removed = 0;
        for group in &mut self.groups {
            if group.len() > 1 {
                if let Some(pos) = group.iter().position(|&l| l == link) {
                    group.remove(pos);
                    removed += 1;
                }
            }
        }
        removed
    }

    /// Forwarding counters.
    pub fn stats(&self) -> SwitchStats {
        self.stats
    }

    /// All next-hop groups (used by topology tests to check invariants).
    pub fn groups(&self) -> &[Vec<LinkId>] {
        &self.groups
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::FlowId;
    use crate::time::SimTime;

    fn pkt(dst: u32, src_port: u16) -> Packet {
        Packet::data(
            Addr(0),
            Addr(dst),
            src_port,
            80,
            FlowId(1),
            0,
            0,
            0,
            1400,
            SimTime::ZERO,
        )
    }

    fn switch_with_two_groups() -> Switch {
        let mut sw = Switch::new(NodeId(10), SwitchLayer::Edge, 4, 99);
        let up = sw.add_group(vec![LinkId(0), LinkId(1), LinkId(2), LinkId(3)]);
        let down = sw.add_group(vec![LinkId(7)]);
        sw.set_route(Addr(0), down);
        sw.set_route(Addr(1), up);
        sw.set_route(Addr(2), up);
        sw
    }

    #[test]
    fn forwards_by_destination() {
        let mut sw = switch_with_two_groups();
        assert_eq!(sw.forward(&pkt(0, 50_000)), Some(LinkId(7)));
        let up_choice = sw.forward(&pkt(1, 50_000)).unwrap();
        assert!([LinkId(0), LinkId(1), LinkId(2), LinkId(3)].contains(&up_choice));
    }

    #[test]
    fn unknown_destination_counts_no_route() {
        let mut sw = switch_with_two_groups();
        assert_eq!(sw.forward(&pkt(3, 50_000)), None);
        assert_eq!(sw.stats().no_route, 1);
    }

    #[test]
    fn same_flow_is_pinned_to_one_path() {
        let mut sw = switch_with_two_groups();
        let first = sw.forward(&pkt(1, 51_111)).unwrap();
        for _ in 0..50 {
            assert_eq!(sw.forward(&pkt(1, 51_111)).unwrap(), first);
        }
    }

    #[test]
    fn varying_source_port_uses_multiple_paths() {
        let mut sw = switch_with_two_groups();
        let mut seen = std::collections::HashSet::new();
        for port in 49152..49152 + 256 {
            seen.insert(sw.forward(&pkt(1, port)).unwrap());
        }
        assert_eq!(seen.len(), 4, "all four uplinks should be exercised");
    }

    #[test]
    fn path_count_reports_group_size() {
        let sw = switch_with_two_groups();
        assert_eq!(sw.path_count(Addr(1)), 4);
        assert_eq!(sw.path_count(Addr(0)), 1);
        assert_eq!(sw.path_count(Addr(3)), 0);
    }

    #[test]
    fn layer_indices_are_stable() {
        assert_eq!(SwitchLayer::Edge.index(), 0);
        assert_eq!(SwitchLayer::Aggregation.index(), 1);
        assert_eq!(SwitchLayer::Core.index(), 2);
        assert_eq!(SwitchLayer::Core.name(), "core");
    }

    #[test]
    #[should_panic(expected = "must not be empty")]
    fn empty_group_rejected() {
        let mut sw = Switch::new(NodeId(0), SwitchLayer::Core, 1, 0);
        sw.add_group(vec![]);
    }

    fn data_pkt(dst: u32, src_port: u16, data_seq: u64, payload: u32) -> Packet {
        Packet::data(
            Addr(0),
            Addr(dst),
            src_port,
            80,
            FlowId(1),
            0,
            data_seq,
            data_seq,
            payload,
            SimTime::ZERO,
        )
    }

    #[test]
    fn per_packet_scatter_sprays_one_flow_over_all_uplinks() {
        let mut sw = switch_with_two_groups();
        sw.set_path_policy(PathPolicy::PerPacketScatter);
        let mut seen = std::collections::HashSet::new();
        for i in 0..64u64 {
            seen.insert(sw.forward(&data_pkt(1, 51_111, i * 1400, 1400)).unwrap());
        }
        assert_eq!(seen.len(), 4, "one pinned 5-tuple must use all uplinks");
    }

    #[test]
    fn scatter_policies_keep_control_packets_on_the_flow_hash() {
        let mut pinned = switch_with_two_groups();
        let mut scattering = switch_with_two_groups();
        scattering.set_path_policy(PathPolicy::PerPacketScatter);
        for _ in 0..32 {
            let ctrl = data_pkt(1, 51_111, 0, 0); // zero payload = control
            assert_eq!(pinned.forward(&ctrl), scattering.forward(&ctrl));
        }
    }

    #[test]
    fn diffflow_scatters_mice_and_pins_elephants() {
        let mut sw = switch_with_two_groups();
        sw.set_path_policy(PathPolicy::DiffFlow);
        // Below the threshold: the flow sprays.
        let mut mice_links = std::collections::HashSet::new();
        for i in 0..64u64 {
            mice_links.insert(sw.forward(&data_pkt(1, 51_111, i * 1400, 1400)).unwrap());
        }
        assert!(mice_links.len() > 1, "mice must scatter");
        // Beyond the threshold: pinned to one path even with random ports.
        let first = sw.forward(&data_pkt(1, 49_152, 200_000, 1400)).unwrap();
        for port in 49_153..49_153 + 64 {
            assert_eq!(
                sw.forward(&data_pkt(1, port, 200_000 + port as u64, 1400))
                    .unwrap(),
                first,
                "elephant packets must stay pinned"
            );
        }
    }

    #[test]
    fn diffflow_elephant_repins_when_the_group_shrinks() {
        let mut sw = switch_with_two_groups();
        sw.set_path_policy(PathPolicy::DiffFlow);
        let pinned = sw.forward(&data_pkt(1, 50_000, 500_000, 1400)).unwrap();
        // Fail the pinned link: the elephant must move to a surviving sibling
        // immediately (stateless re-pin), never to the removed link.
        assert_eq!(sw.remove_link(pinned), 1);
        for port in 49_152..49_152 + 64 {
            let link = sw
                .forward(&data_pkt(1, port, 500_000 + port as u64, 1400))
                .unwrap();
            assert_ne!(link, pinned, "must never strand on the failed link");
        }
        // And the new pin is again a single stable path.
        let repinned = sw.forward(&data_pkt(1, 50_000, 600_000, 1400)).unwrap();
        for _ in 0..16 {
            assert_eq!(
                sw.forward(&data_pkt(1, 50_000, 600_000, 1400)).unwrap(),
                repinned
            );
        }
    }

    #[test]
    fn default_policy_is_flow_hash() {
        let sw = Switch::new(NodeId(1), SwitchLayer::Core, 1, 0);
        assert_eq!(sw.policy, PathPolicy::FlowHash);
        assert_eq!(PathPolicy::FlowHash.label(), "ecmp");
        assert_eq!(PathPolicy::PerPacketScatter.label(), "scatter");
        assert_eq!(PathPolicy::DiffFlow.label(), "diffflow");
        assert_eq!(PathPolicy::diffflow_default(), PathPolicy::DiffFlow);
    }

    #[test]
    fn route_stable_matches_forward_for_pinned_traffic() {
        let mut sw = switch_with_two_groups();
        // Flow-hash ECMP: identical member, and no forwarding state touched.
        for port in 49_152..49_152 + 32 {
            let p = pkt(1, port);
            let stable = sw.route_stable(&p);
            assert_eq!(stable, sw.forward(&p));
        }
        // DiffFlow elephants (data_seq past the threshold) pin identically.
        sw.set_path_policy(PathPolicy::DiffFlow);
        for port in 49_152..49_152 + 32 {
            let p = data_pkt(1, port, 500_000, 1400);
            assert_eq!(sw.route_stable(&p), sw.forward(&p));
        }
        // Unknown destinations stay unroutable (and are not counted).
        let no_route_before = sw.stats().no_route;
        assert_eq!(sw.route_stable(&pkt(3, 50_000)), None);
        assert_eq!(sw.stats().no_route, no_route_before);
    }

    #[test]
    fn remove_link_shrinks_groups_but_never_empties_them() {
        let mut sw = switch_with_two_groups();
        // LinkId(1) is in the four-member up group: removable.
        assert_eq!(sw.remove_link(LinkId(1)), 1);
        assert_eq!(sw.path_count(Addr(1)), 3);
        // LinkId(7) is the sole member of the down group: protected.
        assert_eq!(sw.remove_link(LinkId(7)), 0);
        assert_eq!(sw.path_count(Addr(0)), 1);
        // Removing an absent link is a no-op.
        assert_eq!(sw.remove_link(LinkId(99)), 0);
        // Forwarding never selects the removed link any more.
        for port in 49152..49152 + 256 {
            assert_ne!(sw.forward(&pkt(1, port)), Some(LinkId(1)));
        }
    }
}
