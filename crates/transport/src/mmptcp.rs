//! MMPTCP: the paper's hybrid transport.
//!
//! An [`MmptcpSender`] runs in two phases:
//!
//! 1. **Packet-Scatter (PS) phase** — a single congestion window whose data
//!    packets each carry a freshly randomised source port, so hash-based ECMP
//!    sprays them over every available path. Reordering is expected, so the
//!    duplicate-ACK threshold is raised according to a [`DupAckPolicy`]
//!    (derived from the topology's path count — the FatTree addressing
//!    trick of §2 — adaptive à la RR-TCP, or both).
//! 2. **MPTCP phase** — once the [`SwitchStrategy`] triggers (a configured
//!    data volume has been sent, or the first congestion event occurs), the
//!    connection opens N regular subflows governed by coupled congestion
//!    control. No new data is mapped onto the PS flow; it retires once its
//!    outstanding window drains.
//!
//! A connection with `num_subflows == 0` has no MPTCP phase to switch to and
//! scatters for its whole life: that is the packet-scatter-only ablation,
//! [`MmptcpConfig::packet_scatter_only`], which the experiment runner's
//! `Protocol::PacketScatter` selects.
//!
//! Short flows are expected to finish entirely inside the PS phase (low
//! latency, burst tolerant); long flows spend almost all their life in the
//! MPTCP phase (high throughput) — "a battle that both can win".

use crate::config::TransportConfig;
use crate::conn::{ConnState, Connection, Policy};
use crate::mptcp::compute_lia;
use crate::subflow::{LiaParams, Subflow, SubflowUpdate, DUPACK_THRESHOLD};
use netsim::{Addr, AgentCtx, FlowId, Signal, SimTime};
use serde::{Deserialize, Serialize};

/// When MMPTCP leaves the packet-scatter phase. A connection with
/// `num_subflows == 0` never leaves it, whatever the strategy: that is the
/// scatter-only ablation, [`MmptcpConfig::packet_scatter_only`], which
/// `Protocol::PacketScatter` selects.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum SwitchStrategy {
    /// Switch after this many connection-level bytes have been handed to the
    /// network (paper §2, "Data Volume").
    DataVolume(u64),
    /// Switch at the first congestion event — fast retransmission or RTO —
    /// observed on the packet-scatter flow (paper §2, "Congestion Event").
    CongestionEvent,
}

impl Default for SwitchStrategy {
    fn default() -> Self {
        // Three times the paper's short-flow size: short flows (70 KB) finish
        // well inside the PS phase, long flows switch quickly.
        SwitchStrategy::DataVolume(210_000)
    }
}

/// [`DupAckPolicy::Adaptive`]'s increment per spurious retransmission.
const ADAPTIVE_STEP: u32 = 4;

/// [`DupAckPolicy::Adaptive`]'s upper bound on the adapted threshold.
const ADAPTIVE_MAX: u32 = 64;

/// How the packet-scatter phase picks its duplicate-ACK threshold.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum DupAckPolicy {
    /// Standard TCP's threshold of 3, which reads scatter reordering as loss.
    Standard,
    /// Derive the threshold from the number of equal-cost paths between the
    /// endpoints (obtained from FatTree addressing or a VL2-style directory):
    /// `threshold = max(3, paths)`.
    TopologyAware {
        /// Number of equal-cost paths between source and destination.
        paths: u32,
    },
    /// RR-TCP-style adaptation: start at standard TCP's 3 and raise the
    /// threshold by 4 every time a spurious retransmission is detected, up
    /// to 64.
    Adaptive,
    /// Both mechanisms of §2 combined: the initial threshold is derived from
    /// the topology's path count (`max(3, paths)`) and is then raised
    /// RR-TCP-style by `max(3, paths)` per detected spurious retransmission,
    /// up to `max(24, 8 * paths)`. This is the default the experiment runner
    /// installs, because at low path counts the queue-occupancy *difference*
    /// between paths (not the path count itself) bounds the reordering depth.
    TopologyAdaptive {
        /// Number of equal-cost paths between source and destination.
        paths: u32,
    },
}

impl Default for DupAckPolicy {
    fn default() -> Self {
        DupAckPolicy::TopologyAware { paths: 16 }
    }
}

impl DupAckPolicy {
    /// The threshold to install when the connection starts.
    pub(crate) fn initial_threshold(&self) -> u32 {
        match *self {
            DupAckPolicy::Standard | DupAckPolicy::Adaptive => DUPACK_THRESHOLD,
            DupAckPolicy::TopologyAware { paths } | DupAckPolicy::TopologyAdaptive { paths } => {
                paths.max(DUPACK_THRESHOLD)
            }
        }
    }

    /// The per-spurious-retransmission increment and upper bound, if this
    /// policy adapts at run time.
    pub(crate) fn adaptation(&self) -> Option<(u32, u32)> {
        match *self {
            DupAckPolicy::Standard | DupAckPolicy::TopologyAware { .. } => None,
            DupAckPolicy::Adaptive => Some((ADAPTIVE_STEP, ADAPTIVE_MAX)),
            DupAckPolicy::TopologyAdaptive { paths } => Some((
                paths.max(DUPACK_THRESHOLD),
                (8 * paths).max(8 * DUPACK_THRESHOLD),
            )),
        }
    }

    /// [`DupAckPolicy::TopologyAdaptive`] over `paths` equal-cost paths.
    pub fn topology_adaptive(paths: u32) -> Self {
        DupAckPolicy::TopologyAdaptive { paths }
    }
}

/// MMPTCP configuration.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct MmptcpConfig {
    /// Per-subflow TCP parameters (shared by the PS flow and MPTCP subflows).
    pub transport: TransportConfig,
    /// Number of MPTCP subflows opened when the connection switches phase;
    /// with 0 it never switches.
    pub num_subflows: usize,
    /// Phase-switching strategy.
    pub switch: SwitchStrategy,
    /// Duplicate-ACK threshold policy for the packet-scatter phase.
    pub dupack: DupAckPolicy,
    /// Couple the MPTCP-phase subflows with LIA.
    pub coupled: bool,
    /// Undo spurious fast retransmissions on the packet-scatter flow
    /// (RR-TCP/Eifel-style): when the receiver reports that a "recovered"
    /// segment had in fact arrived, the window reduction is reverted. §2 cites
    /// RR-TCP as the mechanism for minimising the cost of mis-identified
    /// losses; disable for the ablation bench.
    pub reorder_undo: bool,
}

impl Default for MmptcpConfig {
    fn default() -> Self {
        MmptcpConfig {
            transport: TransportConfig::default(),
            num_subflows: 8,
            switch: SwitchStrategy::default(),
            dupack: DupAckPolicy::default(),
            coupled: true,
            reorder_undo: true,
        }
    }
}

impl MmptcpConfig {
    /// A PS-only configuration: with no MPTCP-phase subflows to open, the
    /// connection never switches. This is the packet-scatter ablation.
    pub fn packet_scatter_only() -> Self {
        MmptcpConfig {
            num_subflows: 0,
            ..MmptcpConfig::default()
        }
    }
}

/// MMPTCP as a connection policy. Subflow 0 is the packet-scatter flow,
/// started with the connection; subflows 1..=N are the MPTCP-phase subflows,
/// started at the phase switch.
#[derive(Debug)]
pub struct ScatterThenMultipath {
    cfg: MmptcpConfig,
    /// When the connection left the packet-scatter phase for the MPTCP
    /// phase, if it has: the connection's whole phase state.
    switched_at: Option<SimTime>,
}

impl ScatterThenMultipath {
    fn should_switch(&self, conn: &ConnState, congestion_event: bool) -> bool {
        if self.switched_at.is_some() || self.cfg.num_subflows == 0 {
            return false;
        }
        match self.cfg.switch {
            SwitchStrategy::DataVolume(bytes) => conn.next_data_seq >= bytes,
            SwitchStrategy::CongestionEvent => congestion_event,
        }
    }

    fn switch_to_mptcp(&mut self, conn: &mut ConnState, ctx: &mut AgentCtx<'_>) {
        self.switched_at = Some(ctx.now());
        ctx.signal(Signal::PhaseSwitched {
            flow: conn.flow,
            at: ctx.now(),
            bytes_sent: conn.next_data_seq,
        });
        // Pin a flight-recorder sample of every subflow at the exact switch
        // instant, so traced cwnd series show the PS→MPTCP handoff even if
        // the decimating ring would otherwise skip this activation.
        conn.subflows[0].trace_sample(ctx);
        for sf in &mut conn.subflows[1..] {
            sf.start(ctx);
            sf.trace_sample(ctx);
        }
    }
}

impl Policy for ScatterThenMultipath {
    const NAME: &'static str = "mmptcp";

    fn lia(&self, conn: &ConnState, idx: usize) -> Option<LiaParams> {
        (self.cfg.coupled && self.switched_at.is_some() && idx > 0)
            .then(|| compute_lia(&conn.subflows[1..]))
    }

    fn after_subflow_event(
        &mut self,
        conn: &mut ConnState,
        ctx: &mut AgentCtx<'_>,
        idx: usize,
        update: SubflowUpdate,
    ) {
        // An adaptive policy raises the scatter flow's dup-ACK threshold by
        // `step` per retransmission this activation judged spurious, up to
        // `max`.
        let spurious = update.spurious_retransmits;
        if let (0, 1.., Some((step, max))) = (idx, spurious, self.cfg.dupack.adaptation()) {
            let scatter = &mut conn.subflows[0];
            let new = (scatter.dupack_threshold() + spurious.saturating_mul(step)).min(max);
            scatter.set_dupack_threshold(new);
        }
        if self.should_switch(conn, update.congestion_event) {
            self.switch_to_mptcp(conn, ctx);
        }
    }

    fn pump(&mut self, conn: &mut ConnState, ctx: &mut AgentCtx<'_>) {
        while self.switched_at.is_none() {
            let len = conn.next_segment_len();
            if len == 0 || conn.subflows[0].window_space() < len {
                return;
            }
            conn.send_next(ctx, 0, len);
            // The data-volume trigger is checked as data is handed to the
            // network, matching the paper's description.
            if self.should_switch(conn, false) {
                self.switch_to_mptcp(conn, ctx);
            }
        }
        // No new data is mapped onto the scatter flow after the switch.
        conn.pump_from(ctx, 1);
    }

    /// The MPTCP subflows, and **only in the MPTCP phase**: the paper's
    /// packet-scatter protection phase stays packet-exact so the short-flow
    /// dynamics the paper studies are never approximated.
    fn fluid_subflows<'a>(&self, subflows: &'a [Subflow]) -> &'a [Subflow] {
        match self.switched_at {
            None => &[],
            Some(_) => &subflows[1..],
        }
    }
}

/// The MMPTCP sender.
pub type MmptcpSender = Connection<ScatterThenMultipath>;

impl MmptcpSender {
    /// Create an MMPTCP sender. The packet-scatter flow uses per-packet random
    /// source ports; the MPTCP-phase subflows use `base_src_port + i`.
    #[allow(clippy::too_many_arguments)]
    pub fn new(
        cfg: MmptcpConfig,
        flow: FlowId,
        src: Addr,
        dst: Addr,
        base_src_port: u16,
        dst_port: u16,
        total: Option<u64>,
    ) -> Self {
        let subflow = |i: usize| {
            let src_port = base_src_port.wrapping_add(i as u16);
            let mut sf = Subflow::new(
                cfg.transport,
                i as u8,
                i == 0,
                src,
                dst,
                src_port,
                dst_port,
                flow,
            );
            if i == 0 {
                sf.set_dupack_threshold(cfg.dupack.initial_threshold());
                sf.set_undo_on_spurious(cfg.reorder_undo);
            }
            sf
        };
        let policy = ScatterThenMultipath {
            cfg,
            switched_at: None,
        };
        let count = cfg.num_subflows.saturating_add(1);
        Connection::with_subflows(flow, total, count, subflow, policy)
    }

    /// When the connection switched from the packet-scatter to the MPTCP
    /// phase; `None` while it is still scattering.
    pub fn switched_at(&self) -> Option<SimTime> {
        self.policy.switched_at
    }

    /// The packet-scatter subflow.
    pub fn scatter_subflow(&self) -> &Subflow {
        self.subflow()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testing::Loopback;
    use crate::{case_rng, CASES};
    use netsim::{Packet, PacketKind};

    fn new_loop(cfg: MmptcpConfig, total: u64) -> Loopback<MmptcpSender> {
        let flow = FlowId(1);
        let tx = MmptcpSender::new(cfg, flow, Addr(0), Addr(1), 50_000, 80, Some(total));
        Loopback::new(flow, tx)
    }

    #[test]
    fn short_flow_completes_in_packet_scatter_phase() {
        // 70 KB (the paper's short flow) with the default 210 KB switch
        // threshold never leaves the PS phase.
        let mut l = new_loop(MmptcpConfig::default(), 70_000);
        l.run(2_000, |_| false);
        assert!(l.tx.is_completed());
        assert!(l.tx.switched_at().is_none());
        // All data travelled on the scatter flow.
        assert!(l.tx.scatter_subflow().bytes_sent() >= 70_000);
        for sf in &l.tx.subflows()[1..] {
            assert_eq!(sf.bytes_sent(), 0);
        }
    }

    #[test]
    fn long_flow_switches_after_data_volume() {
        let cfg = MmptcpConfig {
            switch: SwitchStrategy::DataVolume(100_000),
            num_subflows: 4,
            ..MmptcpConfig::default()
        };
        let mut l = new_loop(cfg, 500_000);
        l.run(5_000, |_| false);
        assert!(l.tx.is_completed());
        assert!(l.tx.switched_at().is_some());
        assert!(l
            .signals
            .iter()
            .any(|s| matches!(s, Signal::PhaseSwitched { .. })));
        // MPTCP subflows carried the bulk of the data after the switch.
        let mptcp_bytes: u64 = l.tx.subflows()[1..].iter().map(Subflow::bytes_sent).sum();
        assert!(mptcp_bytes > 0);
        // The PS flow stopped taking new data around the threshold.
        assert!(l.tx.scatter_subflow().bytes_sent() <= 150_000);
    }

    #[test]
    fn congestion_event_strategy_switches_on_loss() {
        let cfg = MmptcpConfig {
            switch: SwitchStrategy::CongestionEvent,
            num_subflows: 2,
            dupack: DupAckPolicy::Standard,
            ..MmptcpConfig::default()
        };
        let mut l = new_loop(cfg, 300_000);
        // Drop one early data packet (the first copy of scatter seq 0).
        let mut dropped = false;
        l.run(5_000, |p: &Packet| {
            if !dropped && p.kind == PacketKind::Data && p.subflow == 0 {
                dropped = true;
                true
            } else {
                false
            }
        });
        assert!(l.tx.is_completed());
        assert!(l.tx.switched_at().is_some());
    }

    #[test]
    fn never_strategy_stays_in_scatter_mode() {
        let mut l = new_loop(MmptcpConfig::packet_scatter_only(), 400_000);
        l.run(5_000, |_| false);
        assert!(l.tx.is_completed());
        assert!(l.tx.switched_at().is_none());
    }

    #[test]
    fn dupack_policy_thresholds() {
        assert_eq!(DupAckPolicy::Standard.initial_threshold(), DUPACK_THRESHOLD);
        assert_eq!(DupAckPolicy::Adaptive.initial_threshold(), DUPACK_THRESHOLD);
        let aware = |paths| DupAckPolicy::TopologyAware { paths }.initial_threshold();
        assert_eq!(aware(16), 16);
        assert_eq!(aware(2), 3, "never below the TCP default of 3");
    }

    #[test]
    fn topology_aware_threshold_is_installed_on_the_scatter_flow() {
        let cfg = MmptcpConfig {
            dupack: DupAckPolicy::TopologyAware { paths: 12 },
            ..MmptcpConfig::default()
        };
        let tx = MmptcpSender::new(cfg, FlowId(1), Addr(0), Addr(1), 50_000, 80, Some(1));
        assert_eq!(tx.scatter_subflow().dupack_threshold(), 12);
    }

    /// 256 MPTCP-phase subflows used to wrap the `u8` subflow index back to
    /// the scatter flow's 0; the connection core bounds the count instead.
    #[test]
    #[should_panic(expected = "unreasonable subflow count")]
    fn more_than_64_subflows_are_refused() {
        let cfg = MmptcpConfig {
            num_subflows: 65,
            ..MmptcpConfig::default()
        };
        MmptcpSender::new(cfg, FlowId(1), Addr(0), Addr(1), 50_000, 80, Some(1));
    }

    #[test]
    fn topology_adaptive_policy_combines_both_mechanisms() {
        let p = DupAckPolicy::topology_adaptive(4);
        assert_eq!(p.initial_threshold(), 4);
        assert_eq!(p.adaptation(), Some((4, 32)));
        let q = DupAckPolicy::topology_adaptive(16);
        assert_eq!(q.initial_threshold(), 16);
        assert_eq!(q.adaptation(), Some((16, 128)));
        let one = DupAckPolicy::topology_adaptive(1);
        assert_eq!(one.adaptation(), Some((3, 24)), "standard TCP's floor");
        assert_eq!(DupAckPolicy::Adaptive.adaptation(), Some((4, 64)));
        // Non-adaptive policies report no adaptation.
        assert_eq!(DupAckPolicy::Standard.adaptation(), None);
        assert_eq!(DupAckPolicy::TopologyAware { paths: 4 }.adaptation(), None);
    }

    /// Every path count gives a threshold of at least TCP's 3, and the
    /// combined policy adapts up to a bound no smaller than its start.
    #[test]
    fn dupack_policies_are_sane() {
        for case in 0..CASES {
            let paths = case_rng(7, case).range(1u32..256);
            assert!(DupAckPolicy::TopologyAware { paths }.initial_threshold() >= 3);
            let combined = DupAckPolicy::topology_adaptive(paths);
            assert!(combined.initial_threshold() >= 3);
            let (_step, max) = combined.adaptation().expect("combined policy adapts");
            assert!(max >= combined.initial_threshold());
        }
    }

    #[test]
    fn adaptive_policy_raises_threshold_after_spurious_retransmits() {
        // Force a low initial threshold so reordering triggers a spurious fast
        // retransmit, then check that the threshold was bumped by one step.
        let cfg = MmptcpConfig {
            dupack: DupAckPolicy::topology_adaptive(1),
            ..MmptcpConfig::packet_scatter_only()
        };
        let mut l = new_loop(cfg, 140_000);
        // Reorder, don't lose: from round 3 on, the first data packet of a
        // round (past seq 0) is diverted and delivered behind everything
        // else — four rounds late the first time, at the end of its own
        // round from then on.
        let mut held: Option<Packet> = None;
        let initial_threshold = l.tx.scatter_subflow().dupack_threshold();
        l.start();
        for round in 1..=4_000 {
            if l.tx.is_completed() {
                break;
            }
            if round > 2 && held.is_none() {
                let first_data = |p: &Packet| p.kind == PacketKind::Data && p.seq > 0;
                held = l
                    .to_rx
                    .iter()
                    .position(first_data)
                    .map(|i| l.to_rx.remove(i));
            }
            if round > 6 {
                l.to_rx.extend(held.take());
            }
            l.round(|_| false);
        }
        assert!(l.tx.is_completed());
        let spurious = |s: &&Signal| matches!(s, Signal::SpuriousRetransmit { .. });
        assert_eq!(l.signals.iter().filter(spurious).count(), 1);
        let threshold = l.tx.scatter_subflow().dupack_threshold();
        assert_eq!((initial_threshold, threshold), (3, 3 + 3), "one step up");
    }

    #[test]
    fn reorder_undo_is_installed_by_default_and_can_be_disabled() {
        let with = MmptcpSender::new(
            MmptcpConfig::default(),
            FlowId(1),
            Addr(0),
            Addr(1),
            50_000,
            80,
            Some(1),
        );
        assert!(with.policy.cfg.reorder_undo);
        let without_cfg = MmptcpConfig {
            reorder_undo: false,
            ..MmptcpConfig::default()
        };
        let without = MmptcpSender::new(
            without_cfg,
            FlowId(2),
            Addr(0),
            Addr(1),
            50_000,
            80,
            Some(1),
        );
        assert!(!without.policy.cfg.reorder_undo);
    }

    #[test]
    fn completed_flow_reports_bytes_once() {
        let mut l = new_loop(MmptcpConfig::default(), 10_000);
        l.run(1_000, |_| false);
        let completions = l
            .signals
            .iter()
            .filter(|s| matches!(s, Signal::FlowCompleted { .. }))
            .count();
        assert_eq!(completions, 1);
    }
}
