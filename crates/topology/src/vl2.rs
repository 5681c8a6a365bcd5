//! Simplified VL2-style Clos topology.
//!
//! The paper's introduction cites VL2 as the other canonical data-centre
//! fabric and notes that its centralised components can provide the path-count
//! information MMPTCP's packet-scatter phase needs. This module builds a
//! three-tier Clos in the VL2 style: hosts attach to ToR switches, each ToR
//! connects to two aggregation switches, and aggregation and intermediate
//! switches form a complete bipartite graph over which traffic is spread by
//! ECMP (standing in for VL2's valiant load balancing).

use crate::built::{BuiltTopology, LinkTier, PathModel};
use crate::fabric::{self, Fabric};
use netsim::{QueueConfig, SimDuration, SwitchLayer};
use serde::{Deserialize, Serialize};

/// Configuration of a VL2-style build.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Vl2Config {
    /// Number of ToR (edge) switches.
    pub num_tors: usize,
    /// Hosts attached to each ToR.
    pub hosts_per_tor: usize,
    /// Number of aggregation switches (must be ≥ 2).
    pub num_aggs: usize,
    /// Number of intermediate (core) switches.
    pub num_intermediates: usize,
    /// Host ↔ ToR link rate, bits/s.
    pub host_rate_bps: u64,
    /// Switch ↔ switch link rate, bits/s (VL2 uses 10x the host rate).
    pub fabric_rate_bps: u64,
    /// Propagation delay of every link.
    pub link_delay: SimDuration,
    /// Queue configuration of every port.
    pub queue: QueueConfig,
}

impl Default for Vl2Config {
    fn default() -> Self {
        Vl2Config {
            num_tors: 8,
            hosts_per_tor: 8,
            num_aggs: 4,
            num_intermediates: 4,
            host_rate_bps: 1_000_000_000,
            fabric_rate_bps: 10_000_000_000,
            link_delay: SimDuration::from_micros(5),
            queue: QueueConfig::default(),
        }
    }
}

impl Vl2Config {
    /// The hosts [`build`] builds, or why it cannot build this; it panics
    /// with the same message.
    pub fn check(&self) -> Result<usize, String> {
        if self.num_aggs < 2 {
            return Err("VL2 needs at least two aggregation switches".into());
        }
        if self.num_tors < 1 || self.hosts_per_tor < 1 {
            return Err("VL2 needs at least one ToR and one host per ToR".into());
        }
        if self.num_intermediates < 1 {
            return Err("VL2 needs at least one intermediate switch".into());
        }
        Ok(self.num_tors * self.hosts_per_tor)
    }
}

/// Build the VL2-style topology.
pub fn build(config: Vl2Config) -> BuiltTopology {
    let num_hosts = config.check().unwrap_or_else(|e| panic!("{e}"));
    let host_link = fabric::link(config.host_rate_bps, config.link_delay, config.queue);
    let fabric_link = fabric::link(config.fabric_rate_bps, config.link_delay, config.queue);

    let mut f = Fabric::new(num_hosts);
    let tors = f.switches(SwitchLayer::Edge, config.num_tors);
    let aggs = f.switches(SwitchLayer::Aggregation, config.num_aggs);
    let ints = f.switches(SwitchLayer::Core, config.num_intermediates);

    // Hosts to ToRs.
    let host_down: Vec<_> = (0..num_hosts)
        .map(|h| f.attach(h, tors[h / config.hosts_per_tor], host_link))
        .collect();

    // Each ToR connects to two (distinct, as `num_aggs >= 2`) aggregation
    // switches. `agg_down[a][t]` is the link a -> t, if there is one.
    let tor_aggs = |t: usize| [(2 * t) % config.num_aggs, (2 * t + 1) % config.num_aggs];
    let mut tor_up = vec![Vec::new(); config.num_tors];
    let mut agg_down = vec![vec![Vec::new(); config.num_tors]; config.num_aggs];
    for (t, &tor) in tors.iter().enumerate() {
        for a in tor_aggs(t) {
            let (up, down) = f.cable(tor, aggs[a], fabric_link, LinkTier::EdgeAggregation);
            tor_up[t].push(up);
            agg_down[a][t].push(down);
        }
    }

    // Aggregation and intermediate switches form a complete bipartite graph.
    // `int_down[i][t]` are the links from intermediate i towards ToR t: one
    // per aggregation switch serving t, in aggregation order.
    let mut agg_up = vec![Vec::new(); config.num_aggs];
    let mut int_down = vec![vec![Vec::new(); config.num_tors]; config.num_intermediates];
    for (a, &agg) in aggs.iter().enumerate() {
        for (i, &int) in ints.iter().enumerate() {
            let (up, down) = f.cable(agg, int, fabric_link, LinkTier::AggregationCore);
            agg_up[a].push(up);
            for t in (0..config.num_tors).filter(|&t| tor_aggs(t).contains(&a)) {
                int_down[i][t].push(down);
            }
        }
    }

    // ToRs send attached hosts down and the rest up; aggregation switches
    // send hosts under a directly connected ToR down and the rest up over all
    // intermediates; intermediates go down to either aggregation switch that
    // serves the destination's ToR.
    let under = |t: usize| t * config.hosts_per_tor..(t + 1) * config.hosts_per_tor;
    for (t, &tor) in tors.iter().enumerate() {
        let attached = fabric::one_each(under(t), &host_down[under(t)]);
        f.route(tor, &tor_up[t], attached);
    }
    for (a, &agg) in aggs.iter().enumerate() {
        let served = agg_down[a]
            .iter()
            .enumerate()
            .filter(|(_, l)| !l.is_empty());
        f.route(agg, &agg_up[a], served.map(|(t, l)| (under(t), &l[..])));
    }
    for (i, &int) in ints.iter().enumerate() {
        let all = int_down[i].iter().enumerate();
        f.route(int, &[], all.map(|(t, l)| (under(t), &l[..])));
    }

    // Path count between hosts on different ToRs: 2 uplinks × intermediates ×
    // (up to) 2 downlinks; we expose the dominant factor used for dup-ACK
    // tuning rather than the exact combinatorial count.
    let paths = 2 * config.num_intermediates;
    f.finish(
        format!(
            "vl2({} tors x {} hosts, {} aggs, {} ints)",
            config.num_tors, config.hosts_per_tor, config.num_aggs, config.num_intermediates
        ),
        PathModel::Constant(paths),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::built::assert_fully_routable;

    #[test]
    fn structure_and_routability() {
        let cfg = Vl2Config::default();
        let t = build(cfg);
        assert_eq!(t.host_count(), 64);
        assert_fully_routable(&t);
    }

    #[test]
    fn fabric_links_are_faster_than_access() {
        let t = build(Vl2Config::default());
        let access = t.links_of_tier(LinkTier::HostEdge);
        let fabric = t.links_of_tier(LinkTier::AggregationCore);
        assert_eq!(t.network.link(access[0]).config.rate_bps, 1_000_000_000);
        assert_eq!(t.network.link(fabric[0]).config.rate_bps, 10_000_000_000);
    }

    #[test]
    fn two_aggs_special_case() {
        let cfg = Vl2Config {
            num_tors: 4,
            hosts_per_tor: 2,
            num_aggs: 2,
            num_intermediates: 2,
            ..Vl2Config::default()
        };
        let t = build(cfg);
        assert_eq!(t.host_count(), 8);
        assert_fully_routable(&t);
    }
}
