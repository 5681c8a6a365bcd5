//! RepFlow / RepSYN: latency-by-replication transports.
//!
//! RepFlow (Xu & Li, arXiv:1307.7451) attacks short-flow tail latency from
//! the opposite direction to MMPTCP: instead of spraying one connection's
//! packets over every path, it opens **two independent single-path
//! connections** for each mouse (flow below a size threshold) and lets them
//! race. The two connections carry identical application bytes over
//! (with high probability) ECMP-disjoint paths — different source ports hash
//! to different next-hop choices at every switch — and the flow completes as
//! soon as **either** copy is fully delivered, so one congested or lossy path
//! no longer dictates the tail. Elephants are not replicated: doubling their
//! bytes would be ruinous, and their completion time is bandwidth- not
//! latency-bound anyway.
//!
//! The [`RepFlowConfig::syn_only`] variant models RepSYN, which replicates
//! only the handshake and the first window: both SYNs race, the first
//! connection to establish carries the whole flow, and the other replica is
//! capped at one initial window. This keeps most of the tail protection
//! (lost SYNs cost a full `initial_rto` — the 1 s band of Figure 1(b) — and
//! first-window losses cost an RTO because there are too few duplicate ACKs
//! for fast retransmit) at a fraction of the redundant bytes.
//!
//! Both connections are ordinary [`Subflow`]s sharing one [`netsim::FlowId`],
//! so the unmodified [`crate::receiver::TransportReceiver`] reassembles them:
//! each replica has its own subflow sequence space, while the shared
//! connection-level data sequence numbers make the second copy a no-op at
//! reassembly. The sender's completion condition — the connection-level
//! cumulative data ACK covering the flow — is therefore exactly "first full
//! delivery wins". The bandwidth price (replica copies plus retransmissions)
//! is reported through [`netsim::Signal::RedundantBytes`].
//!
//! Because replicas are plain subflows, the flight recorder sees the race
//! for free: with tracing enabled each replica emits its own
//! [`netsim::Signal::CwndSample`] series (subflow indices 0 and 1 under the
//! shared flow id), and the losing replica's series goes quiet at the abort
//! instant — `scenarios trace battle-matrix --flow <id>` plots it.

use crate::config::TransportConfig;
use crate::conn::{ConnState, Connection, Policy};
use crate::subflow::{Subflow, SubflowUpdate};
use netsim::{Addr, AgentCtx, FlowId};
use serde::{Deserialize, Serialize};

/// Source-port stride between replica connections. A large odd offset keeps
/// the replicas' 5-tuples far apart in the hash space so they land on
/// distinct ECMP members with high probability at every switch.
const REPLICA_PORT_STRIDE: u16 = 8191;

/// RepFlow configuration.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct RepFlowConfig {
    /// Per-connection TCP parameters (each replica is a full TCP sender).
    pub transport: TransportConfig,
    /// Flows of at most this many bytes (mice) are replicated; larger flows
    /// and unbounded background flows use a single connection. The RepFlow
    /// paper draws the mice/elephant boundary at 100 KB, matching the
    /// report layer's mice classification (size ≤ threshold).
    pub replication_threshold: u64,
    /// RepSYN mode: replicate only the handshake and the first window. The
    /// first replica to establish carries the whole flow; the other stops
    /// after one initial congestion window of data.
    pub syn_only: bool,
}

impl Default for RepFlowConfig {
    fn default() -> Self {
        RepFlowConfig {
            transport: TransportConfig::default(),
            replication_threshold: netsim::MICE_THRESHOLD_BYTES,
            syn_only: false,
        }
    }
}

impl RepFlowConfig {
    /// The RepSYN variant of the default configuration.
    pub fn repsyn() -> Self {
        RepFlowConfig {
            syn_only: true,
            ..RepFlowConfig::default()
        }
    }
}

/// RepFlow as a connection policy: every subflow is a replica — an
/// independent single-path TCP connection walking the whole application
/// byte stream with a cursor of its own (the connection's shared data-sequence
/// cursor goes unused) — and completion silences the loser.
#[derive(Debug)]
pub struct Replicated {
    cfg: RepFlowConfig,
    /// Per replica: the next connection-level byte it will map.
    cursor: [u64; 2],
    /// Per replica: exclusive upper bound of the bytes it may carry (the full
    /// flow, or one initial window for a RepSYN secondary).
    limit: [u64; 2],
    /// Index of the first replica to establish (RepSYN's winner).
    primary: Option<usize>,
}

impl Policy for Replicated {
    const NAME: &'static str = "repflow";

    /// Both SYNs race from the first instant.
    fn start(&mut self, conn: &mut ConnState, ctx: &mut AgentCtx<'_>) {
        for sf in conn.subflows.iter_mut() {
            sf.start(ctx);
        }
    }

    fn after_subflow_event(
        &mut self,
        _conn: &mut ConnState,
        _ctx: &mut AgentCtx<'_>,
        winner: usize,
        update: SubflowUpdate,
    ) {
        if !update.became_established || self.primary.is_some() {
            return;
        }
        self.primary = Some(winner);
        if self.cfg.syn_only {
            // RepSYN: the race is decided at the handshake. The winner takes
            // the whole flow; the other replica is capped at one initial
            // window (it may already be carrying that much — the cap can
            // only shrink a limit, never extend one).
            let first_window = self.cfg.transport.initial_cwnd_bytes() as u64;
            let loser = 1 - winner;
            self.limit[loser] = self.limit[loser].min(first_window.max(self.cursor[loser]));
        }
    }

    fn pump(&mut self, conn: &mut ConnState, ctx: &mut AgentCtx<'_>) {
        let mss = self.cfg.transport.mss as u64;
        for (i, sf) in conn.subflows.iter_mut().enumerate() {
            loop {
                let len = mss.min(self.limit[i].saturating_sub(self.cursor[i]));
                if len == 0 || sf.window_space() < len {
                    break;
                }
                sf.send_segment(ctx, self.cursor[i], len as u32);
                self.cursor[i] += len;
            }
        }
    }

    /// First full delivery wins: silence the losing replica so it stops
    /// retransmitting bytes nobody needs (the real protocol closes the
    /// slower connection).
    fn on_finish(&mut self, conn: &mut ConnState, ctx: &mut AgentCtx<'_>) {
        for sf in conn.subflows.iter_mut() {
            sf.abort(ctx);
        }
    }
}

/// A RepFlow sender: mice race two replica connections, elephants and
/// unbounded flows degrade to a single plain-TCP connection.
pub type RepFlowSender = Connection<Replicated>;

impl RepFlowSender {
    /// Create a sender. `path_count` is the number of ECMP-disjoint paths
    /// between the endpoints (from the topology's path model): replication
    /// is pointless on a single path — both copies would queue behind each
    /// other on the same bottleneck — so path-diversity-starved pairs fall
    /// back to one connection and the transport degenerates to plain TCP.
    #[allow(clippy::too_many_arguments)]
    pub fn new(
        cfg: RepFlowConfig,
        flow: FlowId,
        src: Addr,
        dst: Addr,
        base_src_port: u16,
        dst_port: u16,
        total: Option<u64>,
        path_count: usize,
    ) -> Self {
        let replicate =
            path_count >= 2 && total.is_some_and(|t| t <= cfg.replication_threshold && t > 0);
        let copies = if replicate { 2 } else { 1 };
        let subflow = |i: usize| {
            let src_port = base_src_port.wrapping_add(i as u16 * REPLICA_PORT_STRIDE);
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
        let policy = Replicated {
            cfg,
            cursor: [0; 2],
            limit: [total.unwrap_or(u64::MAX); 2],
            primary: None,
        };
        Connection::with_subflows(flow, total, copies, subflow, policy)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testing::Loopback;
    use netsim::{Agent, AgentEvent, Packet, PacketKind, Signal, SimDuration, SimTime};

    fn new_loop(cfg: RepFlowConfig, total: u64, paths: usize) -> Loopback<RepFlowSender> {
        let flow = FlowId(1);
        let tx = RepFlowSender::new(cfg, flow, Addr(0), Addr(1), 50_000, 80, Some(total), paths);
        Loopback::new(flow, tx)
    }

    #[test]
    fn mice_are_replicated_over_two_connections() {
        let mut l = new_loop(RepFlowConfig::default(), 70_000, 4);
        assert_eq!(l.tx.subflows().len(), 2);
        l.run(2_000, |_| false);
        assert!(l.tx.is_completed());
        assert_eq!(l.tx.conn.data_acked, 70_000);
        // Both replicas carried data, on distinct source ports.
        let replicas = l.tx.subflows();
        assert_eq!(replicas.len(), 2);
        for sf in replicas {
            assert!(sf.bytes_sent() > 0);
        }
        assert_ne!(replicas[0].src_port(), replicas[1].src_port());
        // The wire carried more than the flow size; the overhead is reported.
        assert!(l.tx.total_bytes_sent() > 70_000);
        let redundant = l
            .signals
            .iter()
            .find_map(|s| match s {
                Signal::RedundantBytes { bytes, .. } => Some(*bytes),
                _ => None,
            })
            .expect("redundant-bytes signal must be emitted on completion");
        assert_eq!(redundant, l.tx.total_bytes_sent() - 70_000);
    }

    #[test]
    fn completes_at_first_full_delivery_despite_a_dead_replica() {
        // Replica 1's data never arrives: the flow must still complete via
        // replica 0, and the dead copy must not keep retransmitting after.
        let mut l = new_loop(RepFlowConfig::default(), 70_000, 4);
        l.run(4_000, |p: &Packet| {
            p.kind == PacketKind::Data && p.subflow == 1
        });
        assert!(l.tx.is_completed());
        let completions = l
            .signals
            .iter()
            .filter(|s| matches!(s, Signal::FlowCompleted { .. }))
            .count();
        assert_eq!(completions, 1);
        // The losing replica was aborted: firing every remaining timer
        // produces no packets.
        let timers = std::mem::take(&mut l.timers);
        let mut out = Vec::new();
        for (_, token) in timers {
            let mut ctx = AgentCtx::new(
                l.now + SimDuration::from_secs(10),
                FlowId(1),
                &mut l.rng,
                &mut out,
                &mut l.timers,
                &mut l.signals,
            );
            l.tx.handle(&mut ctx, AgentEvent::Timer(token));
        }
        assert!(out.is_empty(), "aborted replica must stay silent");
    }

    #[test]
    fn the_boundary_flow_is_still_a_mouse() {
        // Exactly-threshold flows are mice (size <= threshold), matching the
        // report layer's mice classification — no flow may be counted in the
        // mice tail yet denied replication.
        let l = new_loop(RepFlowConfig::default(), 100_000, 4);
        assert_eq!(l.tx.subflows().len(), 2);
        let l = new_loop(RepFlowConfig::default(), 100_001, 4);
        assert_eq!(l.tx.subflows().len(), 1);
    }

    #[test]
    fn elephants_are_not_replicated() {
        let l = new_loop(RepFlowConfig::default(), 500_000, 4);
        assert_eq!(
            l.tx.subflows().len(),
            1,
            "500 KB is above the 100 KB threshold"
        );
        let mut l = new_loop(RepFlowConfig::default(), 500_000, 4);
        l.run(5_000, |_| false);
        assert!(l.tx.is_completed());
        // Exactly the flow's bytes were sent (no losses in this harness).
        assert_eq!(l.tx.total_bytes_sent(), 500_000);
    }

    #[test]
    fn single_path_pairs_fall_back_to_one_connection() {
        let l = new_loop(RepFlowConfig::default(), 70_000, 1);
        assert_eq!(
            l.tx.subflows().len(),
            1,
            "replication over one path is pure overhead"
        );
    }

    #[test]
    fn unbounded_flows_are_never_replicated() {
        let tx = RepFlowSender::new(
            RepFlowConfig::default(),
            FlowId(1),
            Addr(0),
            Addr(1),
            50_000,
            80,
            None,
            8,
        );
        assert_eq!(tx.subflows().len(), 1);
    }

    #[test]
    fn repsyn_caps_the_loser_at_one_initial_window() {
        let mut l = new_loop(RepFlowConfig::repsyn(), 70_000, 4);
        assert_eq!(l.tx.subflows().len(), 2);
        l.run(2_000, |_| false);
        assert!(l.tx.is_completed());
        let winner =
            l.tx.policy
                .primary
                .expect("a replica must have established");
        let loser = 1 - winner;
        let first_window = TransportConfig::default().initial_cwnd_bytes() as u64;
        let sent = l.tx.subflows()[loser].bytes_sent();
        assert!(
            sent <= first_window,
            "loser sent {sent} > one initial window {first_window}"
        );
        // The winner carried the whole flow.
        assert!(l.tx.subflows()[winner].bytes_sent() >= 70_000);
    }

    #[test]
    fn repsyn_masks_a_lost_initial_syn() {
        // Plain TCP pays a full initial RTO (1 s) for a lost SYN; RepSYN's
        // second SYN wins the race instead.
        let mut dropped = false;
        let mut l = new_loop(RepFlowConfig::repsyn(), 70_000, 4);
        l.run(2_000, |p: &Packet| {
            if !dropped && p.kind == PacketKind::Syn && p.subflow == 0 {
                dropped = true;
                true
            } else {
                false
            }
        });
        assert!(l.tx.is_completed());
        assert_eq!(l.tx.policy.primary, Some(1), "replica 1 must win the race");
        let elapsed = l.now - SimTime::from_millis(1);
        assert!(
            elapsed < SimDuration::from_millis(900),
            "completion must not wait for the 1 s initial RTO (took {elapsed})"
        );
    }

    #[test]
    fn loss_on_one_path_does_not_stall_completion() {
        // Drop every 7th data packet of replica 0 only: replica 1's clean
        // copy completes the flow without waiting for recovery on replica 0.
        let mut count = 0usize;
        let mut l = new_loop(RepFlowConfig::default(), 70_000, 4);
        l.run(4_000, |p: &Packet| {
            if p.kind == PacketKind::Data && p.subflow == 0 {
                count += 1;
                count.is_multiple_of(7)
            } else {
                false
            }
        });
        assert!(l.tx.is_completed());
        assert_eq!(l.tx.conn.data_acked, 70_000);
    }

    #[test]
    fn config_presets() {
        let d = RepFlowConfig::default();
        assert_eq!(d.replication_threshold, 100_000);
        assert!(!d.syn_only);
        assert!(RepFlowConfig::repsyn().syn_only);
    }
}
