//! Identity pin for every fabric the builders produce. A run's packets are
//! spread by `hash(5-tuple, switch salt) % group.len()` and land on
//! `group[choice]`, so a fabric is the same fabric exactly when nodes (and
//! hence salts), links and every next-hop member list come out in the same
//! order. Each row digests all of that for one (builder, config): node
//! kinds, layers and salts, every link's `(from, to)` and configuration,
//! the tier list, each host's uplinks, each switch's ordered next hops per
//! destination, the name, and `path_count` over all host pairs. Group
//! *numbering* inside a switch is not observable and is not digested.
//!
//! A link's configuration is digested value by value (rate, delay, packet
//! limit, ECN threshold), not through `LinkConfig`'s `Debug` text, so deleting
//! a field no builder sets does not re-word every row. The digests were
//! recorded for that rendering at commit cc03229, whose builders produce the
//! fabrics first pinned at 9a207a1 (before they were ported onto one shared
//! fabric helper); a refactor of the builders must not change any.

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
        let c = link.config;
        // A byte limit is not digested, so no builder may set one. Read off the
        // `Debug` text so this file compiles with or without that field.
        let queue = format!("{:?}", c.queue);
        assert!(!queue.contains("limit_bytes: Some"), "{}: {queue}", t.name);
        let queue = (c.queue.limit_packets, c.queue.ecn_threshold_packets);
        let ends = (link.id, link.from, link.to);
        d.add(&(ends, c.rate_bps, c.delay, queue));
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

/// `row digest`, recorded at commit cc03229 (see the module doc).
const EXPECTED: &str = "\
fattree/k4/1:1 d50bb1e32b0b529f
fattree/k4/4:1 ceca0f00525d67a7
fattree/k6/1:1 dbef921a61354e7b
fattree/k6/4:1 2a2a2d23e5ae9060
fattree/k8/1:1 a8b95483a2c5a8c0
fattree/k8/4:1 c29c965bf0365061
fattree/k4/1:1/agg_core(250,7) 39905c2372a5a8f5
fattree/k8/4:1/agg_core(250,7) ecad89bebcb45477
fattree/k4/2:1/tuned-links 4df7b83a6d8fad0d
dual-homed/k4/1:1 343296fafe365ee0
dual-homed/k4/4:1 3224ca41fd776d56
dual-homed/k6/1:1 02e43f1604334a28
dual-homed/k8/1:1 a8f9f2aa656bc5a7
dual-homed/k4/2:1/tuned-links 7a7e602b32e5ad0a
vl2/default 9e1f8ee8e1b1094e
vl2/2-aggs 4f3deb16ff7f14ae
vl2/3-aggs 8869d9e30eb07906
dumbbell/2x2 81eb24a0aec66d62
dumbbell/3x3 0382648d8a8ff094
parallel/1-paths 649f86e09a72ebcb
parallel/4-paths 5234ba401e7a5ac9
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
