//! k-ary FatTree topology with configurable over-subscription.
//!
//! The paper's evaluation topology is a FatTree of 512 servers with a 4:1
//! over-subscription ratio: a k=8 FatTree normally hosts 128 servers (4 per
//! edge switch); attaching 16 servers per edge switch instead yields 512
//! servers whose aggregate access bandwidth exceeds the edge uplink capacity
//! by 4:1 — exactly the contention regime in which long flows collide and
//! short flows suffer.
//!
//! Structure of a k-ary FatTree (k even):
//! * `k` pods;
//! * `k/2` edge and `k/2` aggregation switches per pod;
//! * `(k/2)²` core switches;
//! * every edge switch connects to every aggregation switch in its pod;
//! * aggregation switch `j` of every pod connects to core switches
//!   `j·k/2 .. (j+1)·k/2`.
//!
//! Routing is the standard FatTree two-level scheme realised as ECMP groups:
//! packets travel up (edge → aggregation → core) choosing among all equal-cost
//! uplinks by 5-tuple hash, then down a deterministic path to the destination.

use crate::built::{BuiltTopology, LinkTier, PathModel};
use crate::fabric::{self, Fabric};
use netsim::{QueueConfig, SimDuration, SimRng, SwitchLayer};
use serde::{Deserialize, Serialize};

/// Deterministic link-failure injection applied after the routing tables are
/// built.
///
/// Failures are modelled on the aggregation→core *uplink* direction only:
/// each failed uplink is removed from its aggregation switch's ECMP up-group,
/// so inter-pod traffic spreads over the surviving core uplinks (exactly what
/// datacentre routing does after a failure converges), while the intact
/// core→aggregation down direction keeps every destination reachable. This
/// reduces path diversity and creates asymmetric core capacity — the failure
/// regime multipath papers study — without ever blackholing a host.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize, Default)]
pub struct LinkFailureSpec {
    /// Fraction (in thousandths, i.e. 250 = 25 %) of aggregation→core
    /// uplinks to fail. 0 disables injection entirely.
    pub agg_core_uplink_millis: u32,
    /// Seed for the deterministic choice of which uplinks fail.
    pub seed: u64,
}

impl LinkFailureSpec {
    /// Fail `millis`/1000 of the aggregation→core uplinks, chosen by `seed`.
    pub fn agg_core(millis: u32, seed: u64) -> Self {
        LinkFailureSpec {
            agg_core_uplink_millis: millis,
            seed,
        }
    }

    /// Whether this spec injects any failures at all.
    pub fn is_active(&self) -> bool {
        self.agg_core_uplink_millis > 0
    }
}

/// Configuration of a FatTree build.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct FatTreeConfig {
    /// Arity `k` (must be even, ≥ 2). The tree has `k` pods.
    pub k: usize,
    /// Over-subscription ratio at the edge: each edge switch serves
    /// `oversubscription · k/2` hosts. 1 gives the canonical re-arrangeably
    /// non-blocking FatTree; the paper uses 4.
    pub oversubscription: usize,
    /// Link rate for host ↔ edge links, in bits/s.
    pub host_rate_bps: u64,
    /// Link rate for switch ↔ switch links, in bits/s.
    pub fabric_rate_bps: u64,
    /// One-way propagation delay of every link.
    pub link_delay: SimDuration,
    /// Output queue configuration applied to every port.
    pub queue: QueueConfig,
    /// Link failures to inject after routing is built (defaults to none).
    pub failures: LinkFailureSpec,
}

impl Default for FatTreeConfig {
    fn default() -> Self {
        FatTreeConfig {
            k: 4,
            oversubscription: 1,
            host_rate_bps: 1_000_000_000,
            fabric_rate_bps: 1_000_000_000,
            link_delay: SimDuration::from_micros(5),
            queue: QueueConfig::default(),
            failures: LinkFailureSpec::default(),
        }
    }
}

impl FatTreeConfig {
    /// The paper's evaluation topology: k=8, 4:1 over-subscribed, 512 servers.
    pub fn paper() -> Self {
        FatTreeConfig {
            k: 8,
            oversubscription: 4,
            ..FatTreeConfig::default()
        }
    }

    /// A small 16-host FatTree (k=4, 1:1) for tests and examples.
    pub fn small() -> Self {
        FatTreeConfig::default()
    }

    /// A medium 64-host FatTree (k=4, 4:1 over-subscribed) used as the
    /// default benchmark scale: the paper's 4:1 contention at laptop-friendly
    /// size.
    pub fn benchmark() -> Self {
        FatTreeConfig {
            k: 4,
            oversubscription: 4,
            ..FatTreeConfig::default()
        }
    }

    /// Hosts attached to each edge switch.
    pub(crate) fn hosts_per_edge(&self) -> usize {
        self.oversubscription * self.k / 2
    }

    /// Hosts per pod.
    pub fn hosts_per_pod(&self) -> usize {
        self.hosts_per_edge() * self.k / 2
    }

    /// Total number of hosts.
    pub fn total_hosts(&self) -> usize {
        self.hosts_per_pod() * self.k
    }

    /// The hosts of a tree whose hosts attach to `homes` edge switches each
    /// (1 for [`build`], 2 for [`build_dual_homed`]), or why it cannot be
    /// built; the builders panic with the same message.
    pub fn check(&self, homes: usize) -> Result<usize, String> {
        if self.k < 2 || !self.k.is_multiple_of(2) {
            return Err("FatTree k must be even and >= 2".into());
        }
        if self.oversubscription < 1 {
            return Err("over-subscription must be >= 1".into());
        }
        if homes > self.k / 2 {
            return Err("dual-homing needs at least two edge switches per pod".into());
        }
        Ok(self.total_hosts())
    }
}

/// Build a FatTree.
pub fn build(config: FatTreeConfig) -> BuiltTopology {
    build_homed(config, 1)
}

/// Build a dual-homed FatTree: the same fabric as [`build`], but every host
/// also attaches to the *next* edge switch of its pod (wrapping around), so
/// even the access layer offers path diversity for packet scatter to exploit.
/// The paper's roadmap: *"We also plan to design multi-homed network
/// topologies as these are well-suited to MMPTCP. The more parallel paths at
/// the access layer, the higher the burst tolerance."*
pub fn build_dual_homed(config: FatTreeConfig) -> BuiltTopology {
    build_homed(config, 2)
}

/// The FatTree with every host attached to `homes` consecutive edge switches
/// of its pod.
fn build_homed(config: FatTreeConfig, homes: usize) -> BuiltTopology {
    let num_hosts = config.check(homes).unwrap_or_else(|e| panic!("{e}"));
    let k = config.k;
    let half = k / 2;
    let hosts_per_edge = config.hosts_per_edge();
    let hosts_per_pod = config.hosts_per_pod();
    let host_link = fabric::link(config.host_rate_bps, config.link_delay, config.queue);
    let fabric_link = fabric::link(config.fabric_rate_bps, config.link_delay, config.queue);

    // Hosts are in (pod, edge, slot) order so addresses are structured.
    // Switch `i` of a pod-level tier is switch `i % half` of pod `i / half`.
    let mut f = Fabric::new(num_hosts);
    let (mut edges, mut aggs) = (Vec::new(), Vec::new());
    for _ in 0..k {
        edges.extend(f.switches(SwitchLayer::Edge, half));
        aggs.extend(f.switches(SwitchLayer::Aggregation, half));
    }
    let cores = f.switches(SwitchLayer::Core, half * half);
    // The `j`-th home of a host whose primary edge switch is `edge`.
    let home = |edge: usize, j: usize| edge - edge % half + (edge + j) % half;

    // host <-> edge: `host_down[j][h]` is the link from host `h`'s `j`-th home
    // down to it.
    let mut host_down = vec![Vec::with_capacity(num_hosts); homes];
    for h in 0..num_hosts {
        for (j, down) in host_down.iter_mut().enumerate() {
            down.push(f.attach(h, edges[home(h / hosts_per_edge, j)], host_link));
        }
    }

    // edge <-> aggregation, complete bipartite within each pod: cable
    // `edge * half + a` joins `edge` to aggregation switch `a` of its pod.
    let (mut edge_up, mut edge_down) = (Vec::new(), Vec::new());
    for (e, &edge) in edges.iter().enumerate() {
        for &agg in &aggs[e - e % half..][..half] {
            let (up, down) = f.cable(edge, agg, fabric_link, LinkTier::EdgeAggregation);
            edge_up.push(up);
            edge_down.push(down);
        }
    }

    // aggregation <-> core: aggregation switch `a` of every pod connects to
    // cores `a * half .. (a + 1) * half`, over cable `agg * half + i`.
    let (mut agg_up, mut agg_down) = (Vec::new(), Vec::new());
    for (a, &agg) in aggs.iter().enumerate() {
        for &core in &cores[a % half * half..][..half] {
            let (up, down) = f.cable(agg, core, fabric_link, LinkTier::AggregationCore);
            agg_up.push(up);
            agg_down.push(down);
        }
    }

    // Edge switches: attached hosts go down their access link; everything
    // else goes up via ECMP over all aggregation uplinks.
    let under = |edge: usize| edge * hosts_per_edge..(edge + 1) * hosts_per_edge;
    for (e, &edge) in edges.iter().enumerate() {
        let attached = host_down.iter().enumerate().flat_map(|(j, down)| {
            // The hosts whose `j`-th home this switch is (`home` run backwards).
            let hosts = under(home(e, half - j));
            fabric::one_each(hosts.clone(), &down[hosts])
        });
        f.route(edge, &edge_up[e * half..][..half], attached);
    }

    // Aggregation switches: hosts in the same pod go down to (any of) the
    // edge switches that serve them; hosts in other pods go up via ECMP over
    // the core uplinks.
    for (a, &agg) in aggs.iter().enumerate() {
        let first = a - a % half; // the pod's first edge switch
        let to_homes: Vec<Vec<_>> = (first..first + half)
            .map(|primary| {
                (0..homes)
                    .map(|j| edge_down[home(primary, j) * half + a % half])
                    .collect()
            })
            .collect();
        let local = (first..)
            .zip(&to_homes)
            .map(|(e, links)| (under(e), &links[..]));
        f.route(agg, &agg_up[a * half..][..half], local);
    }

    // Core switches: every pod is reached through the aggregation switch of
    // it that this core is wired to.
    for (c, &core) in cores.iter().enumerate() {
        let pods = (0..k).map(|pod| {
            let agg = pod * half + c / half;
            (
                pod * hosts_per_pod..(pod + 1) * hosts_per_pod,
                std::slice::from_ref(&agg_down[agg * half + c % half]),
            )
        });
        f.route(core, &[], pods);
    }

    // Link-failure injection: withdraw a deterministic subset of the
    // aggregation→core uplinks from their ECMP up-groups (see
    // [`LinkFailureSpec`] for the model and its reachability guarantee).
    let mut failed_uplinks = 0usize;
    if config.failures.is_active() {
        let mut failure_rng = SimRng::new(0xFA11_0000 ^ config.failures.seed);
        for (i, &up) in agg_up.iter().enumerate() {
            if failure_rng.range(0..1000u32) < config.failures.agg_core_uplink_millis {
                failed_uplinks += f.switch_mut(aggs[i / half]).remove_link(up);
            }
        }
    }

    let mut name = format!(
        "{}fattree(k={}, {}:1, {} hosts)",
        if homes > 1 { "multihomed-" } else { "" },
        k,
        config.oversubscription,
        num_hosts
    );
    if failed_uplinks > 0 {
        name = format!("{name} -{failed_uplinks} core uplinks");
    }
    f.finish(
        name,
        PathModel::FatTree {
            k,
            hosts_per_edge,
            homes,
        },
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::built::assert_fully_routable;
    use netsim::Addr;

    #[test]
    fn counts_match_theory_k4() {
        let cfg = FatTreeConfig::small();
        assert_eq!(cfg.total_hosts(), 16);
        let t = build(cfg);
        assert_eq!(t.host_count(), 16);
        // 16 hosts + 16 edge+agg (k*k) + 4 core.
        assert_eq!(t.network.node_count(), 16 + 16 + 4);
        // Links: 16 host links + 4 pods * 2*2 edge-agg + 4 pods * 2*2 agg-core,
        // each duplex = 2 unidirectional.
        assert_eq!(t.network.link_count(), 2 * (16 + 16 + 16));
        assert_eq!(t.link_tiers.len(), t.network.link_count());
    }

    #[test]
    fn paper_scale_is_512_servers() {
        let cfg = FatTreeConfig::paper();
        assert_eq!(cfg.k, 8);
        assert_eq!(cfg.oversubscription, 4);
        assert_eq!(cfg.hosts_per_edge(), 16);
        assert_eq!(cfg.total_hosts(), 512);
    }

    #[test]
    fn every_switch_routes_every_host() {
        assert_fully_routable(&build(FatTreeConfig::small()));
    }

    #[test]
    fn link_failures_shrink_up_groups_but_keep_full_reachability() {
        let cfg = FatTreeConfig {
            failures: LinkFailureSpec::agg_core(400, 7),
            ..FatTreeConfig::small()
        };
        let t = build(cfg);
        assert!(
            t.name.contains("core uplinks"),
            "failures must show in the name: {}",
            t.name
        );
        // Aggregate up-group capacity dropped below the healthy k/2 per agg.
        let healthy = build(FatTreeConfig::small());
        let up_members = |topo: &BuiltTopology| -> usize {
            topo.network
                .switches_at(SwitchLayer::Aggregation)
                .iter()
                .map(|&id| {
                    let sw = topo.network.node(id).as_switch().unwrap();
                    // Group 0 is the up-group (first group added).
                    sw.groups()[0].len()
                })
                .sum()
        };
        assert!(up_members(&t) < up_members(&healthy));
        assert_fully_routable(&t);
    }

    #[test]
    fn link_failures_are_deterministic_per_seed() {
        let cfg = |seed| FatTreeConfig {
            failures: LinkFailureSpec::agg_core(250, seed),
            ..FatTreeConfig::small()
        };
        let a = build(cfg(1));
        let b = build(cfg(1));
        let c = build(cfg(2));
        assert_eq!(a.name, b.name);
        let groups = |topo: &BuiltTopology| -> Vec<Vec<netsim::LinkId>> {
            topo.network
                .switches_at(SwitchLayer::Aggregation)
                .iter()
                .map(|&id| topo.network.node(id).as_switch().unwrap().groups()[0].clone())
                .collect()
        };
        assert_eq!(groups(&a), groups(&b), "same seed, same surviving links");
        assert_ne!(
            (a.name.clone(), groups(&a)),
            (c.name.clone(), groups(&c)),
            "different seed should fail a different subset"
        );
    }

    #[test]
    fn zero_failure_spec_is_inactive() {
        assert!(!LinkFailureSpec::default().is_active());
        assert!(LinkFailureSpec::agg_core(125, 3).is_active());
        let t = build(FatTreeConfig::default());
        assert!(!t.name.contains("core uplinks"));
    }

    #[test]
    fn edge_uplink_group_has_k_over_2_members() {
        let cfg = FatTreeConfig::small();
        let t = build(cfg);
        // Host 0 and a host in a different pod: the edge switch must offer
        // k/2 = 2 uplinks.
        let edge_switches = t.network.switches_at(SwitchLayer::Edge);
        let first_edge = t.network.node(edge_switches[0]).as_switch().unwrap();
        // Host 15 is in the last pod.
        assert_eq!(first_edge.path_count(Addr(15)), 2);
        // Its own host has a single downlink.
        assert_eq!(first_edge.path_count(Addr(0)), 1);
    }

    #[test]
    fn tier_classification_counts() {
        let cfg = FatTreeConfig::small();
        let t = build(cfg);
        let host_edge = t.links_of_tier(LinkTier::HostEdge).len();
        let edge_agg = t.links_of_tier(LinkTier::EdgeAggregation).len();
        let agg_core = t.links_of_tier(LinkTier::AggregationCore).len();
        assert_eq!(host_edge, 2 * 16);
        assert_eq!(edge_agg, 2 * 16);
        assert_eq!(agg_core, 2 * 16);
    }

    #[test]
    fn oversubscribed_tree_attaches_more_hosts_per_edge() {
        let cfg = FatTreeConfig {
            k: 4,
            oversubscription: 4,
            ..FatTreeConfig::default()
        };
        assert_eq!(cfg.total_hosts(), 64);
        let t = build(cfg);
        assert_eq!(t.host_count(), 64);
        // Edge switch 0 serves hosts 0..8 (hosts_per_edge = 8).
        let edge_switches = t.network.switches_at(SwitchLayer::Edge);
        let sw = t.network.node(edge_switches[0]).as_switch().unwrap();
        for h in 0..8 {
            assert_eq!(sw.path_count(Addr(h)), 1);
        }
        assert_eq!(sw.path_count(Addr(8)), 2);
    }

    #[test]
    fn path_model_matches_structure() {
        let t = build(FatTreeConfig::small());
        // Same edge.
        assert_eq!(t.path_count(Addr(0), Addr(1)), 1);
        // Same pod, different edge.
        assert_eq!(t.path_count(Addr(0), Addr(2)), 2);
        // Different pod.
        assert_eq!(t.path_count(Addr(0), Addr(8)), 4);
    }

    /// Host count, tier list, uplinks per host, routability and the path
    /// model hold for every legal (k, oversubscription), single- and
    /// dual-homed.
    #[test]
    fn fattree_structure_invariants() {
        for k in [4usize, 6, 8] {
            for oversub in 1usize..=4 {
                let cfg = FatTreeConfig {
                    k,
                    oversubscription: oversub,
                    ..FatTreeConfig::default()
                };
                let single = build(cfg);
                for (topo, homes) in [(&single, 1), (&build_dual_homed(cfg), 2)] {
                    assert_eq!(topo.host_count(), oversub * k * k * k / 4);
                    assert_eq!(topo.link_tiers.len(), topo.network.link_count());
                    for &h in &topo.hosts {
                        let host = topo.network.node(h).as_host().unwrap();
                        assert_eq!(host.uplinks.len(), homes);
                    }
                    assert_fully_routable(topo);
                    // The path count grows with distance, and every extra
                    // home multiplies the single-homed count.
                    let last = Addr((topo.host_count() - 1) as u32);
                    assert!(topo.path_count(Addr(0), Addr(1)) <= topo.path_count(Addr(0), last));
                    assert_eq!(topo.path_count(Addr(0), last), homes * (k / 2) * (k / 2));
                    for b in 1..topo.host_count() as u32 {
                        assert_eq!(
                            topo.path_count(Addr(0), Addr(b)),
                            homes * single.path_count(Addr(0), Addr(b))
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn ecn_threshold_is_applied() {
        let mut cfg = FatTreeConfig::small();
        cfg.queue.ecn_threshold_packets = Some(20);
        let t = build(cfg);
        assert_eq!(
            t.network
                .link(netsim::LinkId(0))
                .config
                .queue
                .ecn_threshold_packets,
            Some(20)
        );
    }

    #[test]
    fn hosts_have_two_uplinks() {
        let t = build_dual_homed(FatTreeConfig::small());
        for &h in &t.hosts {
            let host = t.network.node(h).as_host().unwrap();
            assert_eq!(host.uplinks.len(), 2, "host {h:?} should be dual-homed");
        }
    }

    #[test]
    fn everything_is_routable() {
        assert_fully_routable(&build_dual_homed(FatTreeConfig::small()));
    }

    #[test]
    fn aggregation_offers_two_downlinks_per_local_host() {
        let t = build_dual_homed(FatTreeConfig::small());
        let aggs = t.network.switches_at(SwitchLayer::Aggregation);
        let sw = t.network.node(aggs[0]).as_switch().unwrap();
        // Host 0 is in pod 0, reachable via two edges.
        assert_eq!(sw.path_count(Addr(0)), 2);
    }

    #[test]
    fn path_model_doubles_diversity() {
        let t = build_dual_homed(FatTreeConfig::small());
        assert_eq!(t.path_count(Addr(0), Addr(8)), 8); // vs 4 single-homed
    }

    #[test]
    fn dual_homed_tree_honours_link_failures() {
        let cfg = FatTreeConfig {
            failures: LinkFailureSpec::agg_core(400, 7),
            ..FatTreeConfig::small()
        };
        let (single, dual) = (build(cfg), build_dual_homed(cfg));
        // Same seed, same fabric above the access layer: the same uplinks go.
        let suffix = single.name.split_once(") ").expect("failures show").1;
        assert!(suffix.ends_with("core uplinks"), "{}", single.name);
        assert_eq!(
            dual.name,
            format!("multihomed-fattree(k=4, 1:1, 16 hosts) {suffix}")
        );
        let up_members = |topo: &BuiltTopology| -> Vec<usize> {
            let aggs = topo.network.switches_at(SwitchLayer::Aggregation);
            aggs.iter()
                .map(|&id| topo.network.node(id).as_switch().unwrap().groups()[0].len())
                .collect()
        };
        assert_eq!(up_members(&dual), up_members(&single));
        assert!(up_members(&dual).iter().sum::<usize>() < 8 * 2);
        assert_fully_routable(&dual);
    }

    #[test]
    #[should_panic(expected = "FatTree k must be even and >= 2")]
    fn dual_homed_tree_rejects_odd_k() {
        build_dual_homed(FatTreeConfig {
            k: 5,
            ..FatTreeConfig::default()
        });
    }
}
