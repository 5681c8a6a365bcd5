//! Identity pin for every fabric the builders produce. A run's packets are
//! spread by `hash(5-tuple, switch salt) % group.len()` and land on
//! `group[choice]`, so a fabric is the same fabric exactly when nodes (and
//! hence salts), links and every next-hop member list come out in the same
//! order. Each row digests all of that for one (builder, config): node
//! kinds, layers and salts, every link's `(from, to, LinkConfig)`, the
//! tier list, each host's uplinks, each switch's ordered next hops per
//! destination, the name, and `path_count` over all host pairs. Group
//! *numbering* inside a switch is not observable and is not digested.
//!
//! The digests were recorded against the builders of commit 9a207a1, before
//! they were ported onto one shared fabric helper; a refactor of the
//! builders must not change any of them.

use netsim::{Addr, Node, SimDuration};
use std::fmt::{Debug, Write};
use topology::{
    dumbbell, fattree, parallel, vl2, BuiltTopology, DumbbellConfig, FatTreeConfig,
    LinkFailureSpec, ParallelPathConfig, Vl2Config,
};

/// FNV-1a over the `Debug` rendering of everything added.
struct Digest(u64);

impl Digest {
    fn new() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }

    fn add(&mut self, item: &impl Debug) {
        let mut text = String::new();
        write!(text, "{item:?};").expect("writing to a String cannot fail");
        for byte in text.bytes() {
            self.0 = (self.0 ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
}

fn fingerprint(t: &BuiltTopology) -> u64 {
    let mut d = Digest::new();
    d.add(&t.name);
    d.add(&t.hosts);
    d.add(&t.link_tiers);
    let dsts = || (0..t.host_count() as u32).map(Addr);
    for node in t.network.nodes() {
        match node {
            Node::Host(h) => d.add(&("host", h.id, h.addr, h.ecmp_salt, &h.uplinks)),
            Node::Switch(s) => {
                d.add(&("switch", s.id, s.layer, s.ecmp_salt));
                dsts().for_each(|dst| d.add(&s.next_hops(dst)));
            }
        }
    }
    for link in t.network.links() {
        d.add(&(link.id, link.from, link.to, link.config));
    }
    for a in dsts() {
        d.add(&dsts().map(|b| t.path_count(a, b)).collect::<Vec<_>>());
    }
    d.0
}

fn fat(k: usize, oversubscription: usize) -> FatTreeConfig {
    FatTreeConfig {
        k,
        oversubscription,
        ..FatTreeConfig::default()
    }
}

fn failing(config: FatTreeConfig) -> FatTreeConfig {
    FatTreeConfig {
        failures: LinkFailureSpec::agg_core(250, 7),
        ..config
    }
}

fn rows() -> Vec<(String, BuiltTopology)> {
    let mut rows = Vec::new();
    for k in [4, 6, 8] {
        for oversubscription in [1, 4] {
            rows.push((
                format!("fattree/k{k}/{oversubscription}:1"),
                fattree::build(fat(k, oversubscription)),
            ));
        }
    }
    for (k, oversubscription) in [(4, 1), (8, 4)] {
        rows.push((
            format!("fattree/k{k}/{oversubscription}:1/agg_core(250,7)"),
            fattree::build(failing(fat(k, oversubscription))),
        ));
    }
    // Every knob away from its default, so a builder that drops one shows.
    let mut tuned = fat(4, 2);
    tuned.host_rate_bps = 2_000_000_000;
    tuned.fabric_rate_bps = 5_000_000_000;
    tuned.link_delay = SimDuration::from_micros(3);
    tuned.queue.limit_packets = 64;
    tuned.queue.ecn_threshold_packets = Some(20);
    rows.push(("fattree/k4/2:1/tuned-links".into(), fattree::build(tuned)));
    for (k, oversubscription) in [(4, 1), (4, 4), (6, 1), (8, 1)] {
        rows.push((
            format!("dual-homed/k{k}/{oversubscription}:1"),
            fattree::build_dual_homed(fat(k, oversubscription)),
        ));
    }
    rows.push((
        "dual-homed/k4/2:1/tuned-links".into(),
        fattree::build_dual_homed(tuned),
    ));
    rows.push(("vl2/default".into(), vl2::build(Vl2Config::default())));
    for num_aggs in [2, 3] {
        let config = Vl2Config {
            num_tors: 4,
            hosts_per_tor: 2,
            num_aggs,
            num_intermediates: 2,
            ..Vl2Config::default()
        };
        rows.push((format!("vl2/{num_aggs}-aggs"), vl2::build(config)));
    }
    for hosts_per_side in [2, 3] {
        let config = DumbbellConfig {
            hosts_per_side,
            bottleneck_rate_bps: 100_000_000,
            bottleneck_delay: SimDuration::from_micros(50),
            ..DumbbellConfig::default()
        };
        rows.push((
            format!("dumbbell/{hosts_per_side}x{hosts_per_side}"),
            dumbbell::build(config),
        ));
    }
    for paths in [1, 4] {
        let config = ParallelPathConfig {
            host_pairs: 2,
            paths,
            path_rate_bps: 250_000_000,
            ..ParallelPathConfig::default()
        };
        rows.push((format!("parallel/{paths}-paths"), parallel::build(config)));
    }
    rows
}

/// `row digest`, recorded at commit 9a207a1.
const EXPECTED: &str = "\
fattree/k4/1:1 1e5c8f0c669f42c3
fattree/k4/4:1 e3a3e768c2ba10ef
fattree/k6/1:1 383da2bfd372e883
fattree/k6/4:1 3f9f52e9c2231620
fattree/k8/1:1 c99306b27dcfc848
fattree/k8/4:1 a3248c1e0c78331d
fattree/k4/1:1/agg_core(250,7) f7d6434c5856b0d1
fattree/k8/4:1/agg_core(250,7) d7c2e6f3fb3389f3
fattree/k4/2:1/tuned-links 7008d4fc80fed21d
dual-homed/k4/1:1 79ddb14d8751d578
dual-homed/k4/4:1 d30ca1637ca10f9e
dual-homed/k6/1:1 d9bcf685be645108
dual-homed/k8/1:1 bf2b5f12a9a563e7
dual-homed/k4/2:1/tuned-links 521b4419bd423226
vl2/default 9b88f80f0c3eb97e
vl2/2-aggs d28aad793dc4964e
vl2/3-aggs f62e95b6c0096726
dumbbell/2x2 2a9edf738977068c
dumbbell/3x3 68f297e646e57b6e
parallel/1-paths 677cf95c1abb929f
parallel/4-paths 81708fe6ebbefad5
";

#[test]
fn every_fabric_is_built_exactly_as_recorded() {
    let mut table = String::new();
    for (row, topo) in rows() {
        writeln!(table, "{row} {:016x}", fingerprint(&topo))
            .expect("writing to a String cannot fail");
    }
    assert_eq!(
        table, EXPECTED,
        "fabric fingerprints changed; actual table:\n{table}"
    );
}
