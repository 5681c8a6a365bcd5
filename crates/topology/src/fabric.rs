//! The one way a builder assembles a fabric: hosts, then switches, then
//! cables, then routes, then [`Fabric::finish`].
//!
//! What a simulation can observe of a fabric is fixed by *creation order*:
//! node ids and ECMP salts follow the order of [`Fabric::new`] /
//! [`Fabric::switches`] calls, link ids (and each host's uplink order) the
//! order of [`Fabric::cable`] calls, and forwarding the *ordered* member
//! list [`Fabric::route`] installs per (switch, destination). Which group
//! index holds a member list is not observable, so `route` takes whole runs
//! of hosts behind the same next hops and gives each run one group.

use crate::built::{BuiltTopology, LinkTier, PathModel};
use netsim::{
    Addr, LinkConfig, LinkId, Network, NodeId, QueueConfig, SimDuration, Switch, SwitchLayer,
};
use std::ops::Range;

/// A link of the given rate and delay whose port uses `queue`.
pub(crate) fn link(rate_bps: u64, delay: SimDuration, queue: QueueConfig) -> LinkConfig {
    LinkConfig {
        rate_bps,
        delay,
        queue,
    }
}

/// Blocks for [`Fabric::route`] when every host of `hosts` has a down-link of
/// its own: host `hosts.start + i` sits behind `links[i]`.
pub(crate) fn one_each(
    hosts: Range<usize>,
    links: &[LinkId],
) -> impl Iterator<Item = (Range<usize>, &[LinkId])> {
    debug_assert_eq!(hosts.len(), links.len());
    hosts.zip(links.chunks(1)).map(|(h, link)| (h..h + 1, link))
}

/// A network under construction plus the per-link tier list.
pub(crate) struct Fabric {
    net: Network,
    tiers: Vec<LinkTier>,
}

impl Fabric {
    /// A fabric of `num_hosts` hosts (addresses `0..num_hosts`) and nothing else.
    pub(crate) fn new(num_hosts: usize) -> Self {
        let mut net = Network::new();
        for _ in 0..num_hosts {
            net.add_host();
        }
        Fabric {
            net,
            tiers: Vec::new(),
        }
    }

    /// Add `n` switches at `layer`.
    pub(crate) fn switches(&mut self, layer: SwitchLayer, n: usize) -> Vec<NodeId> {
        let hosts = self.net.host_count();
        (0..n).map(|_| self.net.add_switch(layer, hosts)).collect()
    }

    /// Join `a` and `b` with a duplex link of tier `tier`; returns
    /// `(a_to_b, b_to_a)`.
    pub(crate) fn cable(
        &mut self,
        a: NodeId,
        b: NodeId,
        link: LinkConfig,
        tier: LinkTier,
    ) -> (LinkId, LinkId) {
        self.tiers.extend([tier, tier]);
        self.net.add_duplex_link(a, b, link)
    }

    /// Join host `h` to `switch` with an access link; returns the link from
    /// the switch down to the host.
    pub(crate) fn attach(&mut self, h: usize, switch: NodeId, link: LinkConfig) -> LinkId {
        self.cable(self.net.hosts()[h], switch, link, LinkTier::HostEdge)
            .1
    }

    /// Fill `switch`'s table: every host is reached over the `up` ECMP group
    /// (the switch's group 0; none if `up` is empty), except that each block
    /// of `down` — a run of hosts and the ordered next hops they sit behind —
    /// goes down instead. Without an up-group the blocks must cover every
    /// host.
    pub(crate) fn route<'a>(
        &mut self,
        switch: NodeId,
        up: &'a [LinkId],
        down: impl IntoIterator<Item = (Range<usize>, &'a [LinkId])>,
    ) {
        let all = 0..self.net.host_count();
        let sw = self.net.switch_mut(switch);
        let up = (!up.is_empty()).then_some((all, up));
        for (hosts, links) in up.into_iter().chain(down) {
            let group = sw.add_group(links.to_vec());
            for h in hosts {
                sw.set_route(Addr(h as u32), group);
            }
        }
    }

    /// Mutably borrow a switch (failure injection edits groups after routing).
    pub(crate) fn switch_mut(&mut self, switch: NodeId) -> &mut Switch {
        self.net.switch_mut(switch)
    }

    /// The finished topology.
    pub(crate) fn finish(self, name: String, path_model: PathModel) -> BuiltTopology {
        debug_assert_eq!(self.tiers.len(), self.net.link_count());
        BuiltTopology {
            hosts: self.net.hosts().to_vec(),
            network: self.net,
            name,
            link_tiers: self.tiers,
            path_model,
        }
    }
}
