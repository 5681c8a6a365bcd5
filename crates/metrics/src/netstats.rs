//! Network-level measurement: per-layer loss rates and link utilisation.
//!
//! The paper's §3 reports that "the average loss rate at the core and
//! aggregation layers are slightly lower [for MMPTCP] compared to MPTCP and
//! both protocols achieve the same average throughput for long flows and
//! overall network utilisation". These functions compute exactly those
//! quantities from the simulator's per-link counters.

use netsim::{Network, SimDuration, SwitchLayer};
use serde::{Deserialize, Serialize};
use topology::{BuiltTopology, LinkTier};

/// Loss statistics for one fabric layer.
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct LayerLoss {
    /// Packets offered to the output queues of switches at this layer.
    pub offered: u64,
    /// Packets dropped at those queues.
    pub dropped: u64,
    /// Packets ECN-marked (Congestion Experienced) at those queues.
    pub marked: u64,
}

impl LayerLoss {
    /// Drop probability (0 when nothing was offered).
    pub fn loss_rate(&self) -> f64 {
        if self.offered == 0 {
            0.0
        } else {
            self.dropped as f64 / self.offered as f64
        }
    }
}

/// Loss rates grouped by the layer of the switch whose output queue dropped
/// the packet. Host NIC queues are reported separately.
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct LossReport {
    /// Edge (top-of-rack) switches.
    pub edge: LayerLoss,
    /// Aggregation switches.
    pub aggregation: LayerLoss,
    /// Core switches.
    pub core: LayerLoss,
    /// Host NICs (send queues of end hosts).
    pub host: LayerLoss,
}

impl LossReport {
    /// Total drops anywhere.
    pub fn total_dropped(&self) -> u64 {
        self.edge.dropped + self.aggregation.dropped + self.core.dropped + self.host.dropped
    }

    /// Total ECN marks anywhere.
    pub fn total_marked(&self) -> u64 {
        self.edge.marked + self.aggregation.marked + self.core.marked + self.host.marked
    }
}

/// Compute per-layer loss by attributing each link's queue drops to the layer
/// of the node transmitting on that link.
pub fn loss_report(network: &Network) -> LossReport {
    let mut report = LossReport::default();
    for link in network.links() {
        let qs = link.queue_stats();
        let offered = qs.enqueued + qs.dropped;
        let slot = match network.node(link.from) {
            netsim::Node::Host(_) => &mut report.host,
            netsim::Node::Switch(sw) => match sw.layer {
                SwitchLayer::Edge => &mut report.edge,
                SwitchLayer::Aggregation => &mut report.aggregation,
                SwitchLayer::Core => &mut report.core,
            },
        };
        slot.offered += offered;
        slot.dropped += qs.dropped;
        slot.marked += qs.ecn_marked;
    }
    report
}

/// Utilisation statistics for a set of links.
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct UtilisationReport {
    /// Number of links considered.
    pub links: usize,
    /// Mean utilisation (busy fraction) across them.
    pub mean: f64,
    /// Highest single-link utilisation.
    pub max: f64,
    /// Total bytes carried by these links.
    pub bytes: u64,
}

/// Utilisation of all links of a tier over `elapsed` simulated time.
pub fn tier_utilisation(
    topo: &BuiltTopology,
    tier: LinkTier,
    elapsed: SimDuration,
) -> UtilisationReport {
    let links = topo.links_of_tier(tier);
    if links.is_empty() || elapsed.is_zero() {
        return UtilisationReport::default();
    }
    let mut sum = 0.0;
    let mut max: f64 = 0.0;
    let mut bytes = 0;
    for id in &links {
        let l = topo.network.link(*id);
        let u = l.utilisation(elapsed);
        sum += u;
        max = max.max(u);
        bytes += l.stats().tx_bytes;
    }
    UtilisationReport {
        links: links.len(),
        mean: sum / links.len() as f64,
        max,
        bytes,
    }
}

/// Overall network utilisation: mean utilisation over every link in the
/// network during `elapsed`.
pub fn overall_utilisation(network: &Network, elapsed: SimDuration) -> f64 {
    let links = network.links();
    if links.is_empty() || elapsed.is_zero() {
        return 0.0;
    }
    links.iter().map(|l| l.utilisation(elapsed)).sum::<f64>() / links.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use netsim::{Addr, FlowId, LinkConfig, Packet, QueueConfig, SimTime};
    use topology::fattree::{self, FatTreeConfig};

    #[test]
    fn loss_report_attributes_drops_to_the_transmitting_layer() {
        // Tiny hand-built network: host -> edge switch with a 1-packet queue;
        // overflow the edge switch's downlink so drops land on the Edge layer.
        let mut net = Network::new();
        let h0 = net.add_host();
        let h1 = net.add_host();
        let sw = net.add_switch(SwitchLayer::Edge, 2);
        let cfg = LinkConfig {
            queue: QueueConfig {
                limit_packets: 1,
                ..QueueConfig::default()
            },
            ..LinkConfig::default()
        };
        net.add_duplex_link(h0, sw, cfg);
        let (_up1, down1) = net.add_duplex_link(h1, sw, cfg);
        let s = net.switch_mut(sw);
        let g = s.add_group(vec![down1]);
        s.set_route(Addr(1), g);

        // Push three packets into the switch->h1 link directly.
        let mk = |seq| {
            Packet::data(
                Addr(0),
                Addr(1),
                50_000,
                80,
                FlowId(1),
                0,
                seq,
                seq,
                1400,
                SimTime::ZERO,
            )
        };
        {
            let link = net.link_mut(down1);
            let _ = link.offer(SimTime::ZERO, mk(0)); // goes on the wire
            let _ = link.offer(SimTime::ZERO, mk(1)); // queued (limit 1)
            let _ = link.offer(SimTime::ZERO, mk(2)); // dropped
        }
        let report = loss_report(&net);
        assert_eq!(report.edge.dropped, 1);
        assert_eq!(report.edge.offered, 3);
        assert!(report.edge.loss_rate() > 0.3 && report.edge.loss_rate() < 0.34);
        assert_eq!(report.core.dropped, 0);
        assert_eq!(report.host.dropped, 0);
        assert_eq!(report.total_dropped(), 1);
    }

    #[test]
    fn utilisation_of_idle_fattree_is_zero() {
        let topo = fattree::build(FatTreeConfig::small());
        let u = tier_utilisation(&topo, LinkTier::AggregationCore, SimDuration::from_secs(1));
        assert_eq!(u.links, 32);
        assert_eq!(u.mean, 0.0);
        assert_eq!(u.bytes, 0);
        assert_eq!(
            overall_utilisation(&topo.network, SimDuration::from_secs(1)),
            0.0
        );
    }

    #[test]
    fn utilisation_counts_transmitted_bytes() {
        let topo = fattree::build(FatTreeConfig::small());
        let mut net = topo.network;
        // Transmit one packet on a core link.
        let core_links = {
            let mut v = Vec::new();
            for (i, t) in topo.link_tiers.iter().enumerate() {
                if *t == LinkTier::AggregationCore {
                    v.push(netsim::LinkId(i as u32));
                }
            }
            v
        };
        let p = Packet::data(
            Addr(0),
            Addr(8),
            50_000,
            80,
            FlowId(1),
            0,
            0,
            0,
            1446,
            SimTime::ZERO,
        );
        let _ = net.link_mut(core_links[0]).offer(SimTime::ZERO, p);
        let rebuilt = BuiltTopology {
            network: net,
            name: topo.name,
            hosts: topo.hosts,
            link_tiers: topo.link_tiers,
            path_model: topo.path_model,
        };
        let u = tier_utilisation(
            &rebuilt,
            LinkTier::AggregationCore,
            SimDuration::from_micros(24),
        );
        assert!(u.bytes >= 1500);
        assert!(u.mean > 0.0);
        assert!(u.max > 0.4);
    }
}
