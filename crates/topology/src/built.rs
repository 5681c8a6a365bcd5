//! The output of a topology builder: a network graph plus the metadata the
//! transports and metrics need (host list, link tiers, path counts).

use netsim::{Addr, LinkId, Network, NodeId};
use serde::{Deserialize, Serialize};

/// Which tier of the fabric a link belongs to (classified by its endpoints).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum LinkTier {
    /// Host ↔ edge/ToR switch.
    HostEdge,
    /// Edge/ToR ↔ aggregation switch.
    EdgeAggregation,
    /// Aggregation ↔ core/intermediate switch.
    AggregationCore,
    /// Anything else (e.g. the bottleneck link of a dumbbell).
    Other,
}

/// How many equal-cost paths exist between a pair of hosts. Used by MMPTCP's
/// topology-aware duplicate-ACK threshold.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum PathModel {
    /// FatTree addressing: path count depends on whether the endpoints share
    /// an edge switch, a pod, or neither, times the number of edge switches
    /// each host can enter the fabric through.
    FatTree {
        /// FatTree arity (number of pods).
        k: usize,
        /// Hosts whose primary attachment is a given edge switch.
        hosts_per_edge: usize,
        /// Edge switches each host attaches to (2 for the dual-homed tree).
        homes: usize,
    },
    /// Every distinct pair of hosts has the same number of paths.
    Constant(usize),
}

impl PathModel {
    /// Number of equal-cost paths between hosts `a` and `b` (1 if `a == b`).
    pub fn path_count(&self, a: Addr, b: Addr) -> usize {
        if a == b {
            return 1;
        }
        match self {
            PathModel::Constant(n) => (*n).max(1),
            PathModel::FatTree {
                k,
                hosts_per_edge,
                homes,
            } => {
                // Primary edge switches of the endpoints; `half` of them per pod.
                let half = k / 2;
                let (ea, eb) = (a.index() / hosts_per_edge, b.index() / hosts_per_edge);
                let single_homed = if ea == eb {
                    1
                } else if ea / half == eb / half {
                    half
                } else {
                    half * half
                };
                homes * single_homed
            }
        }
    }
}

/// A finished topology: the network graph plus metadata.
#[derive(Debug)]
pub struct BuiltTopology {
    /// The network graph, ready to hand to [`netsim::Simulator`].
    pub network: Network,
    /// Human-readable name (e.g. `fattree(k=8, 4:1)`).
    pub name: String,
    /// Host node ids in address order (index == address).
    pub hosts: Vec<NodeId>,
    /// Tier of each link, indexed by `LinkId`.
    pub link_tiers: Vec<LinkTier>,
    /// Path-count model for MMPTCP's topology-aware policies.
    pub path_model: PathModel,
}

impl BuiltTopology {
    /// Number of hosts.
    pub fn host_count(&self) -> usize {
        self.hosts.len()
    }

    /// Node id of the host with address `addr`.
    pub fn host(&self, addr: Addr) -> NodeId {
        self.hosts[addr.index()]
    }

    /// Number of equal-cost paths between two hosts.
    pub fn path_count(&self, a: Addr, b: Addr) -> usize {
        self.path_model.path_count(a, b)
    }

    /// All links of a given tier.
    pub fn links_of_tier(&self, tier: LinkTier) -> Vec<LinkId> {
        self.link_tiers
            .iter()
            .enumerate()
            .filter(|(_, t)| **t == tier)
            .map(|(i, _)| LinkId(i as u32))
            .collect()
    }
}

/// Test helper: every switch has a next hop towards every host.
#[cfg(test)]
pub(crate) fn assert_fully_routable(t: &BuiltTopology) {
    for sw in t.network.nodes().iter().filter_map(|n| n.as_switch()) {
        for h in 0..t.host_count() {
            assert!(
                sw.path_count(Addr(h as u32)) >= 1,
                "{}: switch {:?} has no route to host {h}",
                t.name,
                sw.id
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constant_path_model() {
        let m = PathModel::Constant(4);
        assert_eq!(m.path_count(Addr(0), Addr(1)), 4);
        assert_eq!(m.path_count(Addr(2), Addr(2)), 1);
        assert_eq!(PathModel::Constant(0).path_count(Addr(0), Addr(1)), 1);
    }

    #[test]
    fn fattree_path_model_k4() {
        // k=4, 1:1 over-subscription: 2 hosts per edge, 4 hosts per pod.
        let m = PathModel::FatTree {
            k: 4,
            hosts_per_edge: 2,
            homes: 1,
        };
        // Same edge switch.
        assert_eq!(m.path_count(Addr(0), Addr(1)), 1);
        // Same pod, different edge.
        assert_eq!(m.path_count(Addr(0), Addr(2)), 2);
        // Different pods.
        assert_eq!(m.path_count(Addr(0), Addr(4)), 4);
    }

    #[test]
    fn fattree_path_model_oversubscribed() {
        // k=8 with 16 hosts per edge (4:1) — the paper's 512-server topology.
        let m = PathModel::FatTree {
            k: 8,
            hosts_per_edge: 16,
            homes: 1,
        };
        assert_eq!(m.path_count(Addr(0), Addr(15)), 1); // same edge
        assert_eq!(m.path_count(Addr(0), Addr(16)), 4); // same pod
        assert_eq!(m.path_count(Addr(0), Addr(64)), 16); // inter-pod
    }

    #[test]
    fn multihomed_doubles_paths() {
        let m = PathModel::FatTree {
            k: 4,
            hosts_per_edge: 2,
            homes: 2,
        };
        assert_eq!(m.path_count(Addr(0), Addr(1)), 2);
        assert_eq!(m.path_count(Addr(0), Addr(4)), 8);
    }
}
