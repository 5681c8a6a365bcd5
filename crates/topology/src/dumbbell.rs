//! Dumbbell topology: two groups of hosts joined by a single bottleneck link.
//!
//! Not a data-centre fabric, but indispensable for validating transport
//! behaviour (congestion-window dynamics, fairness, RTO behaviour) against
//! textbook expectations before letting the protocols loose on a FatTree.

use crate::built::{BuiltTopology, LinkTier, PathModel};
use crate::fabric::{self, Fabric};
use netsim::{QueueConfig, SimDuration, SwitchLayer};
use serde::{Deserialize, Serialize};

/// Configuration of a dumbbell build.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct DumbbellConfig {
    /// Hosts on each side.
    pub hosts_per_side: usize,
    /// Access link rate (host ↔ switch), bits/s.
    pub access_rate_bps: u64,
    /// Bottleneck link rate (switch ↔ switch), bits/s.
    pub bottleneck_rate_bps: u64,
    /// Propagation delay of access links.
    pub access_delay: SimDuration,
    /// Propagation delay of the bottleneck link.
    pub bottleneck_delay: SimDuration,
    /// Queue configuration (applied to all ports).
    pub queue: QueueConfig,
}

impl Default for DumbbellConfig {
    fn default() -> Self {
        DumbbellConfig {
            hosts_per_side: 2,
            access_rate_bps: 1_000_000_000,
            bottleneck_rate_bps: 1_000_000_000,
            access_delay: SimDuration::from_micros(5),
            bottleneck_delay: SimDuration::from_micros(5),
            queue: QueueConfig::default(),
        }
    }
}

impl DumbbellConfig {
    /// The hosts [`build`] builds, or why it cannot build this; it panics
    /// with the same message.
    pub fn check(&self) -> Result<usize, String> {
        if self.hosts_per_side < 1 {
            return Err("need at least one host per side".into());
        }
        Ok(2 * self.hosts_per_side)
    }
}

/// Build a dumbbell. Hosts `0..n` are on the left, `n..2n` on the right.
pub fn build(config: DumbbellConfig) -> BuiltTopology {
    config.check().unwrap_or_else(|e| panic!("{e}"));
    let n = config.hosts_per_side;
    let access = fabric::link(config.access_rate_bps, config.access_delay, config.queue);
    let bottleneck = fabric::link(
        config.bottleneck_rate_bps,
        config.bottleneck_delay,
        config.queue,
    );

    let mut f = Fabric::new(2 * n);
    let sides = f.switches(SwitchLayer::Edge, 2);
    let downlinks: Vec<_> = (0..2 * n)
        .map(|h| f.attach(h, sides[h / n], access))
        .collect();
    let (lr, rl) = f.cable(sides[0], sides[1], bottleneck, LinkTier::Other);

    // Each side sends its own hosts down and the others across.
    for (side, cross) in [lr, rl].into_iter().enumerate() {
        let own = side * n..(side + 1) * n;
        let own = fabric::one_each(own.clone(), &downlinks[own]);
        f.route(sides[side], &[cross], own);
    }

    f.finish(format!("dumbbell({n}x{n})"), PathModel::Constant(1))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::built::assert_fully_routable;
    use netsim::Addr;

    #[test]
    fn structure() {
        let t = build(DumbbellConfig::default());
        assert_eq!(t.host_count(), 4);
        assert_eq!(t.network.node_count(), 6);
        // 4 access duplex + 1 bottleneck duplex = 10 unidirectional links.
        assert_eq!(t.network.link_count(), 10);
        assert_eq!(t.links_of_tier(LinkTier::Other).len(), 2);
        assert_eq!(t.path_count(Addr(0), Addr(2)), 1);
    }

    #[test]
    fn all_destinations_routable() {
        let t = build(DumbbellConfig {
            hosts_per_side: 3,
            ..DumbbellConfig::default()
        });
        assert_fully_routable(&t);
    }
}
