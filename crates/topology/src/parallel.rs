//! Parallel-path topology: a pair of endpoints joined by `p` equal-cost paths.
//!
//! The smallest topology on which multipath behaviour is observable: MPTCP
//! subflows with distinct source ports hash onto different middle switches,
//! and MMPTCP's packet scatter spreads individual packets across all of them.
//! Used heavily by transport unit/integration tests and by the burst-tolerance
//! micro-benchmarks.

use crate::built::{BuiltTopology, LinkTier, PathModel};
use crate::fabric::{self, Fabric};
use netsim::{QueueConfig, SimDuration, SwitchLayer};
use serde::{Deserialize, Serialize};

/// Configuration for a parallel-path build.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ParallelPathConfig {
    /// Number of sender/receiver host pairs (hosts `0..n` send to `n..2n`).
    pub host_pairs: usize,
    /// Number of equal-cost paths between the two edge switches.
    pub paths: usize,
    /// Access link rate, bits/s.
    pub access_rate_bps: u64,
    /// Per-path core link rate, bits/s.
    pub path_rate_bps: u64,
    /// Propagation delay of every link.
    pub link_delay: SimDuration,
    /// Queue configuration for every port.
    pub queue: QueueConfig,
}

impl Default for ParallelPathConfig {
    fn default() -> Self {
        ParallelPathConfig {
            host_pairs: 1,
            paths: 4,
            access_rate_bps: 1_000_000_000,
            path_rate_bps: 1_000_000_000,
            link_delay: SimDuration::from_micros(5),
            queue: QueueConfig::default(),
        }
    }
}

impl ParallelPathConfig {
    /// The hosts [`build`] builds, or why it cannot build this; it panics
    /// with the same message.
    pub fn check(&self) -> Result<usize, String> {
        if self.paths < 1 {
            return Err("need at least one path".into());
        }
        if self.host_pairs < 1 {
            return Err("need at least one host pair".into());
        }
        Ok(2 * self.host_pairs)
    }
}

/// Build a parallel-path topology: hosts — edge switch — `p` middle switches —
/// edge switch — hosts.
pub fn build(config: ParallelPathConfig) -> BuiltTopology {
    config.check().unwrap_or_else(|e| panic!("{e}"));
    let n = config.host_pairs;
    let access = fabric::link(config.access_rate_bps, config.link_delay, config.queue);
    let core = fabric::link(config.path_rate_bps, config.link_delay, config.queue);

    let mut f = Fabric::new(2 * n);
    let sides = f.switches(SwitchLayer::Edge, 2);
    let middles = f.switches(SwitchLayer::Core, config.paths);
    let downlinks: Vec<_> = (0..2 * n)
        .map(|h| f.attach(h, sides[h / n], access))
        .collect();

    // `side_up[s]` are side s's links to every middle switch, `mid_down[m]`
    // middle switch m's links to the left and to the right side.
    let mut side_up = [Vec::new(), Vec::new()];
    let mut mid_down = Vec::with_capacity(config.paths);
    for &m in &middles {
        let (lu, ld) = f.cable(sides[0], m, core, LinkTier::AggregationCore);
        let (ru, rd) = f.cable(sides[1], m, core, LinkTier::AggregationCore);
        side_up[0].push(lu);
        side_up[1].push(ru);
        mid_down.push([ld, rd]);
    }

    // Routing: edges send local hosts down, remote hosts up across all paths;
    // middle switches know which side each host is on.
    for (side, up) in side_up.iter().enumerate() {
        let own = side * n..(side + 1) * n;
        let own = fabric::one_each(own.clone(), &downlinks[own]);
        f.route(sides[side], up, own);
    }
    for (&m, down) in middles.iter().zip(&mid_down) {
        f.route(m, &[], [(0..n, &down[..1]), (n..2 * n, &down[1..])]);
    }

    f.finish(
        format!("parallel({} pairs, {} paths)", n, config.paths),
        PathModel::Constant(config.paths),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use netsim::Addr;

    #[test]
    fn structure() {
        let cfg = ParallelPathConfig {
            host_pairs: 2,
            paths: 4,
            ..ParallelPathConfig::default()
        };
        let t = build(cfg);
        assert_eq!(t.host_count(), 4);
        // 4 hosts + 2 edges + 4 middles.
        assert_eq!(t.network.node_count(), 10);
        // 4 access duplex + 4*2 core duplex = 24 unidirectional.
        assert_eq!(t.network.link_count(), 24);
        assert_eq!(t.path_count(Addr(0), Addr(2)), 4);
    }

    #[test]
    fn cross_traffic_routable_and_local_traffic_stays_local() {
        let t = build(ParallelPathConfig::default());
        let left = t.network.switches_at(SwitchLayer::Edge)[0];
        let sw = t.network.node(left).as_switch().unwrap();
        assert_eq!(sw.path_count(Addr(0)), 1);
        assert_eq!(sw.path_count(Addr(1)), 4);
    }
}
