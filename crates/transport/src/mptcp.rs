//! Multi-Path TCP sender.
//!
//! An [`MptcpSender`] stripes one connection-level byte stream over `N`
//! subflows, each pinned to its own source port (and therefore, via ECMP, to
//! its own path through the fabric). Congestion control is RFC 6356's Linked
//! Increase Algorithm (LIA): subflows share a coupled additive-increase term
//! so the connection is no more aggressive than a single TCP flow on its best
//! path, while still moving traffic away from congested paths.
//!
//! Faithful to the behaviour the paper criticises, there is **no
//! connection-level reinjection**: bytes mapped onto a subflow can only be
//! retransmitted by that subflow, so a loss on a subflow whose window is tiny
//! must wait for that subflow's RTO — which is exactly what inflates short
//! flow completion times as the number of subflows grows (Figure 1(a)/(b)).

use crate::config::TransportConfig;
use crate::conn::{ConnState, Connection, Policy};
use crate::subflow::{LiaParams, Subflow, SubflowUpdate};
use netsim::{Addr, AgentCtx, FlowId};
use serde::{Deserialize, Serialize};

/// MPTCP-specific configuration. What the paper's ns-3 model fixes is fixed
/// here too: LIA coupling, round-robin scheduling over subflows with window
/// space, and RFC 6824's join order (only the initial subflow performs the
/// opening handshake; the others need the token from its MP_CAPABLE exchange
/// and join once it is established, so a lost initial SYN stalls them all).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct MptcpConfig {
    /// Per-subflow TCP parameters.
    pub transport: TransportConfig,
    /// Number of subflows to open.
    pub num_subflows: usize,
}

impl Default for MptcpConfig {
    fn default() -> Self {
        MptcpConfig {
            transport: TransportConfig::default(),
            num_subflows: 8,
        }
    }
}

impl MptcpConfig {
    /// Config with `n` subflows and defaults otherwise.
    pub fn with_subflows(n: usize) -> Self {
        MptcpConfig {
            num_subflows: n,
            ..MptcpConfig::default()
        }
    }
}

/// Compute RFC 6356's `alpha` from the state of the established subflows.
///
/// `alpha = tot_cwnd * max_i(cwnd_i / rtt_i^2) / (sum_i cwnd_i / rtt_i)^2`
///
/// Subflows without an RTT sample yet are ignored; if nothing qualifies the
/// result falls back to `alpha = 1` (plain Reno behaviour).
pub(crate) fn compute_lia(subflows: &[Subflow]) -> LiaParams {
    let mut total_cwnd = 0.0_f64;
    let mut max_term = 0.0_f64;
    let mut sum_term = 0.0_f64;
    for sf in subflows.iter().filter(|s| s.is_established()) {
        let cwnd = sf.cwnd();
        total_cwnd += cwnd;
        let rtt = sf.srtt().map(|d| d.as_secs_f64()).unwrap_or(0.0).max(1e-6);
        max_term = max_term.max(cwnd / (rtt * rtt));
        sum_term += cwnd / rtt;
    }
    let alpha = if sum_term > 0.0 && total_cwnd > 0.0 {
        total_cwnd * max_term / (sum_term * sum_term)
    } else {
        1.0
    };
    LiaParams {
        alpha,
        total_cwnd_bytes: total_cwnd.max(1.0),
    }
}

/// MPTCP as a connection policy: which subflows open when, and LIA
/// coupling. `Policy::start`'s default is the MP_CAPABLE handshake on the
/// initial subflow, and `Policy::pump`'s is the round-robin scheduler.
#[derive(Debug)]
pub struct Multipath {
    /// True once the additional (MP_JOIN) subflows have been started.
    joined: bool,
}

impl Policy for Multipath {
    const NAME: &'static str = "mptcp";

    fn lia(&self, conn: &ConnState, _idx: usize) -> Option<LiaParams> {
        Some(compute_lia(&conn.subflows))
    }

    fn after_subflow_event(
        &mut self,
        conn: &mut ConnState,
        ctx: &mut AgentCtx<'_>,
        _idx: usize,
        _update: SubflowUpdate,
    ) {
        if !self.joined && conn.subflows[0].is_established() {
            self.joined = true;
            for sf in &mut conn.subflows[1..] {
                sf.start(ctx);
            }
        }
    }

    /// Every subflow, once all have joined.
    fn fluid_subflows<'a>(&self, subflows: &'a [Subflow]) -> &'a [Subflow] {
        if self.joined {
            subflows
        } else {
            &[]
        }
    }
}

/// A Multi-Path TCP sender.
pub type MptcpSender = Connection<Multipath>;

impl MptcpSender {
    /// Create an MPTCP sender. Subflow source ports are `base_src_port`,
    /// `base_src_port + 1`, … so each subflow hashes to (generally) a
    /// different ECMP path.
    #[allow(clippy::too_many_arguments)]
    pub fn new(
        cfg: MptcpConfig,
        flow: FlowId,
        src: Addr,
        dst: Addr,
        base_src_port: u16,
        dst_port: u16,
        total: Option<u64>,
    ) -> Self {
        let subflow = |i: usize| {
            let src_port = base_src_port.wrapping_add(i as u16);
            Subflow::new(
                cfg.transport,
                i as u8,
                false,
                src,
                dst,
                src_port,
                dst_port,
                flow,
            )
        };
        let policy = Multipath { joined: false };
        Connection::with_subflows(flow, total, cfg.num_subflows, subflow, policy)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testing::{repairs, Loopback};
    use netsim::{Packet, PacketKind};

    fn new_loop(cfg: MptcpConfig, total: u64) -> Loopback<MptcpSender> {
        let flow = FlowId(1);
        let tx = MptcpSender::new(cfg, flow, Addr(0), Addr(1), 50_000, 80, Some(total));
        Loopback::new(flow, tx)
    }

    #[test]
    fn all_subflows_carry_data() {
        let mut l = new_loop(MptcpConfig::with_subflows(4), 400_000);
        l.run(2_000, |_| false);
        assert!(l.tx.is_completed());
        for sf in l.tx.subflows() {
            assert!(
                sf.bytes_sent() > 0,
                "subflow {} never carried data",
                sf.index
            );
        }
        assert_eq!(l.tx.conn.data_acked, 400_000);
    }

    #[test]
    fn distinct_source_ports_per_subflow() {
        let tx = MptcpSender::new(
            MptcpConfig::with_subflows(8),
            FlowId(1),
            Addr(0),
            Addr(1),
            50_000,
            80,
            Some(1_000),
        );
        let ports: std::collections::HashSet<u16> =
            tx.subflows().iter().map(|s| s.src_port()).collect();
        assert_eq!(ports.len(), 8);
    }

    #[test]
    #[should_panic(expected = "unreasonable subflow count")]
    fn more_than_64_subflows_are_refused() {
        let cfg = MptcpConfig::with_subflows(65);
        MptcpSender::new(cfg, FlowId(1), Addr(0), Addr(1), 50_000, 80, Some(1));
    }

    #[test]
    fn single_subflow_mptcp_behaves_like_tcp() {
        let mut l = new_loop(MptcpConfig::with_subflows(1), 70_000);
        l.run(2_000, |_| false);
        assert!(l.tx.is_completed());
        assert_eq!(repairs(&l.signals, 0).1, 0);
    }

    #[test]
    fn loss_on_one_subflow_is_recovered_by_that_subflow() {
        // Drop every data packet of subflow 2 once (the first copy).
        let mut dropped = std::collections::HashSet::new();
        let mut l = new_loop(MptcpConfig::with_subflows(4), 200_000);
        l.run(20_000, |p: &Packet| {
            if p.kind == PacketKind::Data && p.subflow == 2 && !dropped.contains(&p.seq) {
                dropped.insert(p.seq);
                true
            } else {
                false
            }
        });
        assert!(l.tx.is_completed(), "connection must eventually complete");
        // Only subflow 2 performed retransmissions/timeouts.
        for sf in l.tx.subflows() {
            let (fast, rto) = repairs(&l.signals, sf.index);
            let recovering = fast + rto;
            if sf.index == 2 {
                assert!(recovering > 0);
            } else {
                assert_eq!(recovering, 0, "subflow {} should be clean", sf.index);
            }
        }
    }

    #[test]
    fn additional_subflows_join_after_initial_handshake() {
        let mut l = new_loop(MptcpConfig::with_subflows(8), 70_000);
        l.start();
        // Only the initial subflow's SYN is on the wire at connection start.
        let syns: Vec<u8> = l
            .to_rx
            .iter()
            .filter(|p| p.kind == PacketKind::Syn)
            .map(|p| p.subflow)
            .collect();
        assert_eq!(syns, vec![0]);
        // After one round trip the SYN-ACK arrives and the joins go out.
        l.round(|_| false);
        let joined: std::collections::HashSet<u8> = l
            .to_rx
            .iter()
            .filter(|p| p.kind == PacketKind::Syn)
            .map(|p| p.subflow)
            .collect();
        assert_eq!(joined.len(), 7, "seven MP_JOIN SYNs follow");
        for _ in 0..2_000 {
            if l.tx.is_completed() {
                break;
            }
            l.round(|_| false);
        }
        assert!(l.tx.is_completed());
    }

    #[test]
    fn lost_initial_syn_stalls_the_whole_connection() {
        // With RFC 6824 join semantics a lost MP_CAPABLE SYN cannot be masked
        // by the other subflows: nothing moves until the retransmitted SYN
        // succeeds one initial-RTO later.
        let mut l = new_loop(MptcpConfig::with_subflows(8), 10_000);
        let mut dropped = false;
        l.run(2, |p: &Packet| {
            if !dropped && p.kind == PacketKind::Syn {
                dropped = true;
                true
            } else {
                false
            }
        });
        assert!(!l.tx.is_completed());
        assert!(repairs(&l.signals, 0).1 >= 1);
        assert_eq!(
            l.tx.subflows().iter().map(Subflow::bytes_sent).sum::<u64>(),
            0,
            "no data can flow before the initial subflow establishes"
        );
    }

    #[test]
    fn compute_lia_falls_back_to_reno_when_unmeasured() {
        let subflows: Vec<Subflow> = Vec::new();
        let p = compute_lia(&subflows);
        assert_eq!(p.alpha, 1.0);
    }

    #[test]
    fn lia_alpha_for_identical_subflows_is_about_one_over_n() {
        // For n identical subflows, RFC 6356 gives alpha = 1/n of the total
        // increase spread over them: alpha = tot * (c/r^2) / (n*c/r)^2
        //   = tot * c / (n^2 c^2 / r^2 * r^2)   with tot = n*c  =>  1/n.
        let mut l = new_loop(MptcpConfig::with_subflows(4), 400_000);
        l.run(200, |_| false);
        let p = compute_lia(l.tx.subflows());
        let cwnds: Vec<f64> = l.tx.subflows().iter().map(|s| s.cwnd()).collect();
        let mean = cwnds.iter().sum::<f64>() / cwnds.len() as f64;
        let spread = cwnds.iter().map(|c| (c - mean).abs()).fold(0.0, f64::max);
        if spread < mean * 0.2 {
            assert!(
                (p.alpha - 0.25).abs() < 0.15,
                "alpha {} should be near 1/n for similar subflows",
                p.alpha
            );
        }
    }
}
