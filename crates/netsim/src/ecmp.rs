//! Hash-based Equal-Cost Multi-Path selection.
//!
//! Data-centre switches pick one of several equal-cost next hops by hashing
//! the packet's 5-tuple; all packets of a TCP flow therefore follow the same
//! path (no reordering), while flows as a whole are spread across paths.
//! MMPTCP's packet-scatter phase exploits exactly this mechanism: by
//! randomising the *source port* per packet, each packet hashes to a
//! different path.

use crate::packet::Packet;

/// A 64-bit mixing function (SplitMix64 finaliser). Good avalanche behaviour,
/// deterministic, and dependency-free.
#[inline]
pub(crate) fn mix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// Hash a packet's forwarding 5-tuple together with a per-switch salt.
///
/// The salt models the fact that different switches use different (vendor
/// specific) hash functions/seeds, so a flow that collides on one switch does
/// not necessarily collide everywhere.
#[inline]
fn flow_hash(packet: &Packet, salt: u64) -> u64 {
    let a = ((packet.src.0 as u64) << 32) | packet.dst.0 as u64;
    let b = ((packet.src_port as u64) << 16) | packet.dst_port as u64;
    mix64(a ^ mix64(b ^ salt))
}

/// Pick an index in `0..n` for this packet using hash-based ECMP.
///
/// Panics if `n == 0` — a switch must always have at least one candidate
/// next hop for a reachable destination.
#[inline]
pub(crate) fn select(packet: &Packet, salt: u64, n: usize) -> usize {
    assert!(n > 0, "ECMP selection over an empty next-hop set");
    if n == 1 {
        return 0;
    }
    (flow_hash(packet, salt) % n as u64) as usize
}

/// Per-packet scatter selection: like [`select`] but folds a per-switch
/// `nonce` (a forwarding counter) into the hash, so consecutive packets of
/// the same flow spread over the candidate set. Used by switch-side
/// packet-spraying path policies (per-packet scatter and DiffFlow's mice
/// scattering); deterministic given the forwarding history, unlike drawing
/// from an RNG.
#[inline]
pub(crate) fn select_scatter(packet: &Packet, salt: u64, nonce: u64, n: usize) -> usize {
    assert!(n > 0, "ECMP selection over an empty next-hop set");
    if n == 1 {
        return 0;
    }
    (mix64(flow_hash(packet, salt) ^ mix64(nonce)) % n as u64) as usize
}

/// Flow-pinned selection that ignores the ports: hashes only source,
/// destination and flow id. DiffFlow-style switches use this for elephants so
/// a large flow stays on one stable path even when the transport randomises
/// its source port per packet, and so the pin moves deterministically to a
/// surviving sibling when the next-hop group shrinks after a link failure
/// (stateless `hash % n` re-pins on group-size change — no flow entry can go
/// stale and keep pointing at a removed link).
#[inline]
pub(crate) fn select_pinned(packet: &Packet, salt: u64, n: usize) -> usize {
    assert!(n > 0, "ECMP selection over an empty next-hop set");
    if n == 1 {
        return 0;
    }
    let a = ((packet.src.0 as u64) << 32) | packet.dst.0 as u64;
    (mix64(a ^ mix64(packet.flow.0 ^ salt)) % n as u64) as usize
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::{Addr, FlowId};
    use crate::time::SimTime;

    fn pkt(src_port: u16) -> Packet {
        Packet::data(
            Addr(3),
            Addr(77),
            src_port,
            8080,
            FlowId(5),
            0,
            0,
            0,
            1400,
            SimTime::ZERO,
        )
    }

    #[test]
    fn same_tuple_same_choice() {
        let p = pkt(51_000);
        let q = pkt(51_000);
        for n in [2usize, 4, 8, 16] {
            assert_eq!(select(&p, 1234, n), select(&q, 1234, n));
        }
    }

    /// Selection is deterministic per 5-tuple and salt, and in range, for
    /// any tuple, salt and group size (64 seeded cases).
    #[test]
    fn ecmp_selection_in_range() {
        for case in 0..64 {
            let mut params = crate::SimRng::new(0xC0FFEE ^ (5 << 32) ^ case);
            let src = params.range(0u32..1024);
            let dst = params.range(0u32..1024);
            let sport = params.range(1024u16..65535);
            let salt = params.next_u64();
            let n = params.range(1usize..64);
            let pkt = Packet::data(
                Addr(src),
                Addr(dst),
                sport,
                80,
                FlowId(1),
                0,
                0,
                0,
                1400,
                SimTime::ZERO,
            );
            let a = select(&pkt, salt, n);
            assert_eq!(a, select(&pkt, salt, n));
            assert!(a < n);
        }
    }

    #[test]
    fn source_port_changes_spread_choices() {
        // The packet-scatter premise: varying the source port gives a roughly
        // uniform spread over the candidate set.
        let n = 8;
        let mut counts = vec![0usize; n];
        for port in 49152..(49152 + 4096) {
            counts[select(&pkt(port), 42, n)] += 1;
        }
        let expected = 4096 / n;
        for (i, c) in counts.iter().enumerate() {
            assert!(
                (*c as i64 - expected as i64).abs() < (expected as i64) / 2,
                "bucket {i} count {c} far from expected {expected}"
            );
        }
    }

    #[test]
    fn salt_decorrelates_switches() {
        // A pair of flows that collide under one salt should usually not
        // collide under a different salt.
        let mut collisions_both = 0;
        let mut collisions_first = 0;
        for port in 0..2048u16 {
            let a = pkt(49152 + port);
            let b = pkt(49152 + port.wrapping_add(7919));
            let n = 4;
            if select(&a, 1, n) == select(&b, 1, n) {
                collisions_first += 1;
                if select(&a, 2, n) == select(&b, 2, n) {
                    collisions_both += 1;
                }
            }
        }
        assert!(collisions_first > 0);
        // Roughly 1/n of the first-salt collisions should persist, certainly
        // not all of them.
        assert!(collisions_both < collisions_first);
    }

    #[test]
    fn single_candidate_short_circuits() {
        assert_eq!(select(&pkt(50_000), 9, 1), 0);
    }

    #[test]
    #[should_panic(expected = "empty next-hop set")]
    fn empty_candidate_set_panics() {
        select(&pkt(50_000), 9, 0);
    }

    #[test]
    fn scatter_nonce_spreads_a_single_flow() {
        // One pinned 5-tuple, varying only the nonce: the whole candidate set
        // must be exercised roughly uniformly.
        let n = 8;
        let p = pkt(50_000);
        let mut counts = vec![0usize; n];
        for nonce in 0..4096u64 {
            counts[select_scatter(&p, 42, nonce, n)] += 1;
        }
        let expected = 4096 / n;
        for (i, c) in counts.iter().enumerate() {
            assert!(
                (*c as i64 - expected as i64).abs() < (expected as i64) / 2,
                "bucket {i} count {c} far from expected {expected}"
            );
        }
        // Same nonce, same choice (determinism).
        assert_eq!(
            select_scatter(&p, 42, 7, n),
            select_scatter(&pkt(50_000), 42, 7, n)
        );
    }

    #[test]
    fn pinned_selection_ignores_ports() {
        // An elephant whose transport randomises source ports must still land
        // on one stable path.
        let n = 4;
        let first = select_pinned(&pkt(49_152), 9, n);
        for port in 49_153..49_153 + 256 {
            assert_eq!(select_pinned(&pkt(port), 9, n), first);
        }
        // Shrinking the group re-pins deterministically within range.
        for m in 1..=n {
            assert!(select_pinned(&pkt(50_000), 9, m) < m);
        }
    }

    #[test]
    fn mix64_avalanche() {
        // Flipping one input bit should flip roughly half the output bits.
        let x = 0xDEAD_BEEF_u64;
        let a = mix64(x);
        let b = mix64(x ^ 1);
        let differing = (a ^ b).count_ones();
        assert!(differing > 16, "only {differing} bits differ");
    }
}
