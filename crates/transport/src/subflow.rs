//! The per-path TCP engine ("subflow").
//!
//! A [`Subflow`] is a complete single-path TCP sender state machine: SYN
//! handshake, sliding window, slow start / congestion avoidance, duplicate-ACK
//! counting with a configurable threshold, fast retransmit + NewReno-style
//! fast recovery, RTO with exponential backoff, and optional DCTCP-style ECN
//! reaction.
//!
//! Every transport in this crate is built out of subflows:
//! * plain TCP is one subflow whose data sequence equals its subflow sequence;
//! * MPTCP is N subflows fed by a connection-level scheduler and coupled by
//!   LIA congestion control;
//! * MMPTCP starts with a single *packet-scatter* subflow (source port
//!   randomised per packet, high duplicate-ACK threshold) and later opens
//!   MPTCP subflows;
//! * DCTCP is one subflow with `ecn` enabled.
//!
//! The congestion *response* itself — how the window grows and backs off —
//! lives behind the [`crate::cc::CongestionController`] trait; the subflow
//! only detects events (dup-ACK thresholds, partial ACKs, timeouts, spurious
//! retransmissions, round-trip boundaries) and drives the trait object.

use crate::cc::{CongestionController, EcnResponder};
use crate::config::TransportConfig;
use crate::rtt::RttEstimator;
use netsim::{Addr, AgentCtx, Ecn, FlowId, Packet, PacketKind, Signal, SimTime};
use std::collections::VecDeque;

/// Parameters of MPTCP's Linked-Increase (coupled) congestion control for one
/// ACK, computed by the connection from the state of all subflows.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LiaParams {
    /// The aggressiveness factor `alpha` of RFC 6356.
    pub alpha: f64,
    /// Sum of the congestion windows of all established subflows, in bytes.
    pub total_cwnd_bytes: f64,
}

/// What happened inside the subflow while processing an event; connections use
/// this to drive phase switches and coupled congestion control.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct SubflowUpdate {
    /// The subflow completed its handshake during this activation.
    pub became_established: bool,
    /// A congestion event (fast retransmit or RTO) occurred.
    pub congestion_event: bool,
    /// Retransmissions this activation judged spurious (the original had in
    /// fact arrived).
    pub spurious_retransmits: u32,
}

/// Handshake and loss-recovery state.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum State {
    Closed,
    SynSent,
    /// Established, not repairing a loss.
    Open,
    /// Established and in fast recovery or RTO repair until `recover` (the
    /// `snd_nxt` of the moment the loss was detected) is acknowledged.
    Recovering {
        recover: u64,
    },
}

/// Duplicate ACKs that trigger a fast retransmission, until a policy raises
/// the subflow's threshold (MMPTCP's packet-scatter phase).
const DUPACK_THRESHOLD: u32 = 3;

/// A single-path TCP sender engine.
#[derive(Debug)]
pub struct Subflow {
    cfg: TransportConfig,
    /// Subflow index within the connection.
    pub(crate) index: u8,
    /// When true, every outgoing data packet gets a freshly randomised source
    /// port so ECMP sprays packets over all available paths (MMPTCP PS phase).
    pub(crate) scatter: bool,
    src: Addr,
    dst: Addr,
    src_port: u16,
    dst_port: u16,
    flow: FlowId,

    state: State,
    snd_una: u64,
    snd_nxt: u64,
    /// The congestion state machine this subflow drives.
    cc: Box<dyn CongestionController>,
    dup_acks: u32,
    dupack_threshold: u32,
    /// When true, a fast retransmission later found to be spurious (the
    /// receiver reports the original arrived after all) undoes the congestion
    /// response: cwnd/ssthresh are restored to their pre-recovery values and
    /// any remaining recovery state is cleared. This is the RR-TCP/Eifel-style
    /// reaction the paper cites for the packet-scatter phase, where reordering
    /// routinely masquerades as loss.
    undo_on_spurious: bool,
    /// True from entering a fast-recovery episode until either an undo is
    /// performed or an RTO fires (timeouts are never undone). It outlives
    /// `State::Recovering` on purpose: the receiver's duplicate hint may
    /// arrive after the full ACK that ended the episode.
    undo_armed: bool,
    rtt: RttEstimator,

    /// Pending RTO deadline and the generation of the last armed timer.
    rto_deadline: Option<SimTime>,
    timer_gen: u64,

    /// `(subflow sequence, connection data sequence, length)` of every
    /// segment that is unacknowledged at subflow level, in send order:
    /// segments are mapped at `snd_nxt` and acknowledged from the front.
    mappings: VecDeque<(u64, u64, u32)>,

    /// Sequence number of the most recent retransmission (for spurious
    /// retransmission detection via receiver duplicate hints).
    last_retransmitted: Option<u64>,

    /// DCTCP/D²TCP ECN response, present iff the config negotiates ECN.
    ecn: Option<EcnResponder>,
    /// Subflow sequence at which the current round trip ends (`snd_una`
    /// crossing it completes the round): drives the ECN responder's α update
    /// and the controller's `on_round_trip` hook.
    round_end: u64,

    /// Data bytes sent, retransmissions included.
    bytes_sent: u64,
}

impl Subflow {
    /// Create a subflow in the `Closed` state.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn new(
        cfg: TransportConfig,
        index: u8,
        scatter: bool,
        src: Addr,
        dst: Addr,
        src_port: u16,
        dst_port: u16,
        flow: FlowId,
    ) -> Self {
        let rtt = RttEstimator::new(cfg.min_rto, cfg.initial_rto, cfg.max_rto);
        let cc = cfg.cc.build(&cfg);
        let ecn = cfg.ecn.then(EcnResponder::new);
        Subflow {
            dupack_threshold: DUPACK_THRESHOLD,
            cfg,
            index,
            scatter,
            src,
            dst,
            src_port,
            dst_port,
            flow,
            state: State::Closed,
            snd_una: 0,
            snd_nxt: 0,
            cc,
            dup_acks: 0,
            undo_on_spurious: false,
            undo_armed: false,
            rtt,
            rto_deadline: None,
            timer_gen: 0,
            mappings: VecDeque::new(),
            last_retransmitted: None,
            ecn,
            round_end: 0,
            bytes_sent: 0,
        }
    }

    // --- accessors -------------------------------------------------------

    /// The transport parameters this subflow was created with.
    pub(crate) fn config(&self) -> &TransportConfig {
        &self.cfg
    }

    /// Has the handshake completed?
    pub(crate) fn is_established(&self) -> bool {
        matches!(self.state, State::Open | State::Recovering { .. })
    }

    /// Is a loss being repaired (fast recovery, or go-back-N after an RTO)?
    pub(crate) fn is_recovering(&self) -> bool {
        matches!(self.state, State::Recovering { .. })
    }

    /// Leave loss recovery, if in it.
    fn exit_recovery(&mut self) {
        if self.is_recovering() {
            self.state = State::Open;
        }
    }

    /// Congestion window in bytes.
    pub(crate) fn cwnd(&self) -> f64 {
        self.cc.cwnd()
    }

    /// The controller's explicit pacing rate (BBR), if it exports one.
    /// `None` means pace from `cwnd / srtt` as always.
    pub(crate) fn cc_pacing_rate_bps(&self) -> Option<u64> {
        self.cc.pacing_rate_bps()
    }

    /// Smoothed RTT, if measured.
    pub(crate) fn srtt(&self) -> Option<netsim::SimDuration> {
        self.rtt.srtt()
    }

    /// Minimum RTT ever sampled (propagation-delay estimate), if measured.
    pub(crate) fn min_rtt(&self) -> Option<netsim::SimDuration> {
        self.rtt.min_rtt()
    }

    /// Bytes in flight at subflow level.
    pub(crate) fn outstanding(&self) -> u64 {
        self.snd_nxt - self.snd_una
    }

    /// True when the subflow holds no unacknowledged data.
    fn is_drained(&self) -> bool {
        self.mappings.is_empty() && self.outstanding() == 0
    }

    /// True when nothing can make the subflow act on its own again: no
    /// unacknowledged data (so no ACK can trigger a retransmission) and no
    /// retransmission deadline armed (so every timer still in the calendar is
    /// stale). Only a new `start` or `send_segment` wakes it.
    pub(crate) fn is_quiescent(&self) -> bool {
        self.is_drained() && self.rto_deadline.is_none()
    }

    /// How many more bytes the congestion window allows in flight right now.
    pub(crate) fn window_space(&self) -> u64 {
        if !self.is_established() {
            return 0;
        }
        let flight = self.outstanding() as f64;
        let cwnd = self.cc.cwnd();
        if cwnd > flight {
            (cwnd - flight) as u64
        } else {
            0
        }
    }

    /// The current duplicate-ACK threshold.
    pub(crate) fn dupack_threshold(&self) -> u32 {
        self.dupack_threshold
    }

    /// Override the duplicate-ACK threshold (used by MMPTCP's topology-aware
    /// and adaptive reordering policies).
    pub(crate) fn set_dupack_threshold(&mut self, threshold: u32) {
        self.dupack_threshold = threshold.max(1);
    }

    /// Enable or disable the RR-TCP-style undo of spurious fast retransmits.
    pub(crate) fn set_undo_on_spurious(&mut self, enabled: bool) {
        self.undo_on_spurious = enabled;
    }

    /// Data bytes sent, retransmissions included.
    pub(crate) fn bytes_sent(&self) -> u64 {
        self.bytes_sent
    }

    /// The DCTCP marked-fraction estimate (0 when ECN is off).
    #[cfg(test)]
    pub(crate) fn dctcp_alpha(&self) -> f64 {
        self.ecn.map(|e| e.alpha()).unwrap_or(0.0)
    }

    /// Set D²TCP's deadline-imminence exponent `d` (clamped to a sane range;
    /// 1.0 reproduces plain DCTCP). Values below 1 make the flow hold its
    /// window near a deadline; values above 1 make it yield. A no-op when
    /// ECN is off (there is no responder to correct).
    pub(crate) fn set_dctcp_penalty_exponent(&mut self, d: f64) {
        if let Some(e) = &mut self.ecn {
            e.set_penalty_exponent(d);
        }
    }

    /// The current D²TCP deadline-imminence exponent (1.0 when ECN is off).
    #[cfg(test)]
    pub(crate) fn dctcp_penalty_exponent(&self) -> f64 {
        self.ecn.map(|e| e.penalty_exponent()).unwrap_or(1.0)
    }

    /// The source port this subflow is pinned to (ignored per-packet when
    /// `scatter` is on).
    #[cfg(test)]
    pub(crate) fn src_port(&self) -> u16 {
        self.src_port
    }

    /// Whether the controller is still in its startup regime
    /// (`cwnd < ssthresh` for loss-based controllers, `Startup` for BBR).
    /// The fluid fast path only accepts flows that have left slow start, so
    /// the handed-off pacing rate reflects a steady-state estimate.
    pub fn in_slow_start(&self) -> bool {
        self.cc.in_slow_start()
    }

    /// Build a representative data packet for a fluid handoff: same 5-tuple
    /// (pinned source port — scatter randomisation does not apply, the fluid
    /// path pins one route), flow, subflow index and ECN capability as a real
    /// segment at `data_seq`, but never transmitted. The fluid engine walks
    /// the routing tables with it to discover which links the flow occupies.
    pub(crate) fn fluid_template(&self, data_seq: u64, payload: u32, now: SimTime) -> Packet {
        self.segment(self.src_port, self.snd_nxt, data_seq, payload, now)
    }

    /// A data segment of this subflow from `src_port`, ECN-capable when the
    /// subflow negotiates ECN.
    fn segment(&self, src_port: u16, seq: u64, data_seq: u64, len: u32, now: SimTime) -> Packet {
        let (src, dst, dst_port) = (self.src, self.dst, self.dst_port);
        let mut pkt = Packet::data(
            src, dst, src_port, dst_port, self.flow, self.index, seq, data_seq, len, now,
        );
        if self.cfg.ecn {
            pkt.ecn = Ecn::Capable;
        }
        pkt
    }

    /// Emit one flight-recorder [`Signal::CwndSample`] for this subflow —
    /// but only when the experiment has tracing enabled, so the default
    /// (untraced) hot path pays exactly one branch and never constructs a
    /// sample. Called automatically after every state-changing activation
    /// ([`Subflow::on_packet`] / [`Subflow::on_timer`]); connections may
    /// also call it directly to pin a sample at a significant instant (the
    /// MMPTCP phase switch does).
    pub(crate) fn trace_sample(&self, ctx: &mut AgentCtx<'_>) {
        if !ctx.trace_enabled() {
            return;
        }
        ctx.signal(Signal::CwndSample {
            flow: self.flow,
            subflow: self.index,
            at: ctx.now(),
            cwnd: self.cc.cwnd() as u64,
            srtt_us: self.rtt.srtt().map(|d| d.as_micros()).unwrap_or(0),
            outstanding: self.outstanding(),
            cc: self.cfg.cc.name(),
        });
    }

    // --- lifecycle --------------------------------------------------------

    /// Begin the handshake: send a SYN and arm the retransmission timer.
    pub(crate) fn start(&mut self, ctx: &mut AgentCtx<'_>) {
        assert_eq!(self.state, State::Closed, "subflow already started");
        self.state = State::SynSent;
        self.send_syn(ctx);
    }

    fn send_syn(&mut self, ctx: &mut AgentCtx<'_>) {
        let mut syn = self.segment(self.pick_port(ctx), 0, 0, 0, ctx.now());
        syn.kind = PacketKind::Syn;
        ctx.send(syn);
        self.arm_timer(ctx);
    }

    fn pick_port(&self, ctx: &mut AgentCtx<'_>) -> u16 {
        if self.scatter {
            ctx.rng().ephemeral_port()
        } else {
            self.src_port
        }
    }

    /// Abort the subflow: forget every unacknowledged mapping and cancel the
    /// retransmission timer, leaving the subflow quiescent. RepFlow-style
    /// transports use this to silence the losing replica once the connection
    /// has completed through the other one — without an abort the laggard
    /// would keep retransmitting (and firing RTO signals) for data nobody
    /// needs any more.
    pub(crate) fn abort(&mut self) {
        self.mappings.clear();
        self.snd_una = self.snd_nxt;
        self.exit_recovery();
        self.dup_acks = 0;
        self.cancel_timer();
    }

    // --- timers -----------------------------------------------------------

    /// Encode this subflow's timer token (subflow index in the top bits,
    /// generation below), so one agent can multiplex many subflows over the
    /// single timer token namespace.
    fn timer_token(index: u8, gen: u64) -> u64 {
        ((index as u64) << 48) | (gen & 0xFFFF_FFFF_FFFF)
    }

    /// Decode a timer token into (subflow index, generation).
    pub(crate) fn decode_timer_token(token: u64) -> (u8, u64) {
        ((token >> 48) as u8, token & 0xFFFF_FFFF_FFFF)
    }

    fn arm_timer(&mut self, ctx: &mut AgentCtx<'_>) {
        self.timer_gen += 1;
        let deadline = ctx.now() + self.rtt.rto();
        self.rto_deadline = Some(deadline);
        ctx.set_timer(deadline, Self::timer_token(self.index, self.timer_gen));
    }

    fn cancel_timer(&mut self) {
        self.rto_deadline = None;
        self.timer_gen += 1;
    }

    /// Handle a timer firing for this subflow. `gen` is the generation part of
    /// the token; stale timers are ignored.
    pub(crate) fn on_timer(&mut self, ctx: &mut AgentCtx<'_>, gen: u64) -> SubflowUpdate {
        let mut update = SubflowUpdate::default();
        if gen != self.timer_gen || self.rto_deadline.is_none() {
            return update; // stale or cancelled
        }
        match self.state {
            State::Closed => {}
            State::SynSent => {
                // Lost SYN: back off and retry.
                self.rtt.backoff();
                update.congestion_event = true;
                ctx.signal(Signal::RetransmissionTimeout {
                    flow: self.flow,
                    subflow: self.index,
                    at: ctx.now(),
                });
                self.send_syn(ctx);
            }
            State::Open | State::Recovering { .. } => {
                if self.is_drained() {
                    self.cancel_timer();
                    return update;
                }
                // RFC 5681 timeout reaction. Entering the recovery state with
                // `recover = snd_nxt` makes subsequent partial ACKs retransmit
                // the remaining holes (go-back-N style, ACK clocked) instead of
                // waiting one RTO per lost segment — essential when a burst
                // overflows a drop-tail queue and the whole tail of the window
                // is missing.
                self.cc.on_rto(self.outstanding());
                self.state = State::Recovering {
                    recover: self.snd_nxt,
                };
                self.dup_acks = 0;
                self.undo_armed = false;
                self.rtt.backoff();
                update.congestion_event = true;
                ctx.signal(Signal::RetransmissionTimeout {
                    flow: self.flow,
                    subflow: self.index,
                    at: ctx.now(),
                });
                self.retransmit_first_unacked(ctx);
                self.arm_timer(ctx);
            }
        }
        if update.congestion_event {
            self.trace_sample(ctx);
        }
        update
    }

    // --- sending ----------------------------------------------------------

    /// Send one data segment carrying connection-level bytes
    /// `[data_seq, data_seq + len)`. The caller is responsible for respecting
    /// [`Subflow::window_space`].
    pub(crate) fn send_segment(&mut self, ctx: &mut AgentCtx<'_>, data_seq: u64, len: u32) {
        debug_assert!(self.is_established(), "cannot send before handshake");
        debug_assert!(len > 0 && len <= self.cfg.mss);
        let seq = self.snd_nxt;
        self.mappings.push_back((seq, data_seq, len));
        self.snd_nxt += len as u64;
        self.transmit(ctx, seq, data_seq, len, false);
        if self.rto_deadline.is_none() {
            self.arm_timer(ctx);
        }
    }

    fn transmit(
        &mut self,
        ctx: &mut AgentCtx<'_>,
        seq: u64,
        data_seq: u64,
        len: u32,
        is_retransmit: bool,
    ) {
        let pkt = self.segment(self.pick_port(ctx), seq, data_seq, len, ctx.now());
        self.bytes_sent += len as u64;
        if is_retransmit {
            self.last_retransmitted = Some(seq);
        }
        ctx.send(pkt);
    }

    fn retransmit_first_unacked(&mut self, ctx: &mut AgentCtx<'_>) {
        // Acknowledged mappings are dropped as `snd_una` advances, so the
        // front one covers it.
        if let Some(&(seq, data_seq, len)) = self.mappings.front() {
            self.transmit(ctx, seq, data_seq, len, true);
        }
    }

    // --- receiving --------------------------------------------------------

    /// Process a packet addressed to this subflow (SYN-ACK or ACK).
    ///
    /// `lia` carries the coupled-congestion-control parameters when the
    /// connection uses MPTCP's linked increase; `None` means plain Reno.
    pub(crate) fn on_packet(
        &mut self,
        ctx: &mut AgentCtx<'_>,
        pkt: &Packet,
        lia: Option<LiaParams>,
    ) -> SubflowUpdate {
        let update = match pkt.kind {
            PacketKind::SynAck if self.state == State::SynSent => {
                self.state = State::Open;
                self.cc.on_established(ctx.now(), &self.rtt);
                self.rtt.on_sample(ctx.now() - pkt.sent_at);
                self.cancel_timer();
                SubflowUpdate {
                    became_established: true,
                    ..SubflowUpdate::default()
                }
            }
            PacketKind::Ack => self.on_ack(ctx, pkt, lia),
            _ => SubflowUpdate::default(),
        };
        self.trace_sample(ctx);
        update
    }

    fn on_ack(
        &mut self,
        ctx: &mut AgentCtx<'_>,
        pkt: &Packet,
        lia: Option<LiaParams>,
    ) -> SubflowUpdate {
        let mut update = SubflowUpdate::default();
        if !self.is_established() {
            return update;
        }
        let ack = pkt.ack;
        if ack > self.snd_una {
            let newly = ack - self.snd_una;
            self.snd_una = ack;
            self.drop_acked_mappings();
            self.dup_acks = 0;
            // RTT sample from the echoed transmit timestamp.
            if pkt.sent_at > SimTime::ZERO {
                self.rtt.on_sample(ctx.now() - pkt.sent_at);
            }

            match self.state {
                State::Recovering { recover } if ack >= recover => {
                    // Full ACK: leave recovery.
                    self.state = State::Open;
                    self.cc.on_recovery_exit();
                }
                // Partial ACK (NewReno): retransmit the next hole and stay
                // in recovery.
                State::Recovering { .. } => self.retransmit_first_unacked(ctx),
                _ => self.cc.on_ack(newly, ctx.now(), &self.rtt, lia),
            }

            if let Some(resp) = &mut self.ecn {
                resp.on_ack(newly, pkt.ecn_echo);
            }
            if self.snd_una >= self.round_end {
                // One round trip of data completed: let the ECN responder
                // fold in its marked fraction and give the controller its
                // per-round hook, then start the next round at snd_nxt —
                // exactly the window DCTCP's α-EWMA has always used.
                if let Some(resp) = &mut self.ecn {
                    resp.on_round_end(self.cc.as_mut());
                }
                self.cc.on_round_trip(ctx.now(), &self.rtt);
                self.round_end = self.snd_nxt;
            }

            if self.is_drained() {
                self.cancel_timer();
            } else {
                self.arm_timer(ctx);
            }
        } else if self.outstanding() > 0 {
            // Duplicate ACK.
            if pkt.dup_hint {
                if let Some(seq) = self.last_retransmitted {
                    if seq < ack {
                        update.spurious_retransmits += 1;
                        self.last_retransmitted = None;
                        ctx.signal(Signal::SpuriousRetransmit {
                            flow: self.flow,
                            subflow: self.index,
                            at: ctx.now(),
                        });
                        if self.undo_on_spurious && self.undo_armed {
                            // RR-TCP/Eifel-style undo: the "loss" was in fact
                            // reordering, so the window reduction (and any
                            // remaining recovery state) is reverted.
                            self.exit_recovery();
                            self.cc.undo();
                            self.dup_acks = 0;
                            self.undo_armed = false;
                        }
                    }
                }
            }
            self.dup_acks += 1;
            if !self.is_recovering() && self.dup_acks >= self.dupack_threshold {
                // Fast retransmit + enter fast recovery. The controller
                // snapshots its pre-loss state for a possible undo.
                self.cc.on_loss(self.outstanding());
                self.undo_armed = true;
                self.state = State::Recovering {
                    recover: self.snd_nxt,
                };
                update.congestion_event = true;
                ctx.signal(Signal::FastRetransmit {
                    flow: self.flow,
                    subflow: self.index,
                    at: ctx.now(),
                });
                self.retransmit_first_unacked(ctx);
                self.arm_timer(ctx);
            } else if self.is_recovering() {
                // Window inflation while the hole is being repaired.
                self.cc.on_dup_ack();
            }
        }
        update
    }

    fn drop_acked_mappings(&mut self) {
        let una = self.snd_una;
        while let Some(&(seq, _, len)) = self.mappings.front() {
            if seq + len as u64 > una {
                break;
            }
            self.mappings.pop_front();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testing::repairs;
    use netsim::{SimDuration, SimRng};

    const MSS: u32 = 1400;

    struct Harness {
        rng: SimRng,
        out: Vec<Packet>,
        timers: Vec<(SimTime, u64)>,
        signals: Vec<Signal>,
        now: SimTime,
    }

    impl Harness {
        fn new() -> Self {
            Harness {
                rng: SimRng::new(1),
                out: Vec::new(),
                timers: Vec::new(),
                signals: Vec::new(),
                now: SimTime::from_millis(1),
            }
        }
        fn with<R>(&mut self, f: impl FnOnce(&mut AgentCtx<'_>) -> R) -> R {
            let mut ctx = AgentCtx::new(
                self.now,
                FlowId(1),
                &mut self.rng,
                &mut self.out,
                &mut self.timers,
                &mut self.signals,
            );
            f(&mut ctx)
        }
        fn advance(&mut self, d: SimDuration) {
            self.now += d;
        }
    }

    fn subflow(scatter: bool) -> Subflow {
        subflow_with(TransportConfig::default(), scatter)
    }

    /// In congestion avoidance from the first ACK: the slow-start threshold
    /// is half the initial window.
    fn subflow_in_congestion_avoidance() -> Subflow {
        let cfg = TransportConfig::default();
        let initial_ssthresh = cfg.initial_cwnd_bytes() as u64 / 2;
        let cfg = TransportConfig {
            initial_ssthresh,
            ..cfg
        };
        subflow_with(cfg, false)
    }

    fn subflow_with(cfg: TransportConfig, scatter: bool) -> Subflow {
        Subflow::new(cfg, 0, scatter, Addr(0), Addr(1), 50_000, 80, FlowId(1))
    }

    /// Establish the subflow by simulating a SYN / SYN-ACK exchange.
    fn establish(h: &mut Harness, sf: &mut Subflow) {
        h.with(|ctx| sf.start(ctx));
        assert_eq!(h.out.len(), 1);
        let syn = h.out.pop().unwrap();
        assert_eq!(syn.kind, PacketKind::Syn);
        h.advance(SimDuration::from_micros(100));
        let mut synack = syn.reply_template();
        synack.kind = PacketKind::SynAck;
        synack.sent_at = syn.sent_at;
        let upd = h.with(|ctx| sf.on_packet(ctx, &synack, None));
        assert!(upd.became_established);
        assert!(sf.is_established());
    }

    fn ack_for(sf: &Subflow, ack: u64, sent_at: SimTime) -> Packet {
        let mut p = Packet::ack(
            Addr(1),
            Addr(0),
            80,
            50_000,
            FlowId(1),
            sf.index,
            ack,
            ack,
            sent_at,
        );
        p.sent_at = sent_at;
        p
    }

    #[test]
    fn handshake_and_initial_window() {
        let mut h = Harness::new();
        let mut sf = subflow(false);
        establish(&mut h, &mut sf);
        assert_eq!(sf.cwnd(), (10 * MSS) as f64);
        assert_eq!(sf.window_space(), (10 * MSS) as u64);
        assert!(sf.srtt().is_some());
    }

    #[test]
    fn slow_start_doubles_per_rtt() {
        let mut h = Harness::new();
        let mut sf = subflow(false);
        establish(&mut h, &mut sf);
        let before = sf.cwnd();
        // Send and ack one full initial window.
        for i in 0..10u64 {
            h.with(|ctx| sf.send_segment(ctx, i * MSS as u64, MSS));
        }
        let sent_at = h.now;
        h.advance(SimDuration::from_micros(200));
        for i in 1..=10u64 {
            let ack = ack_for(&sf, i * MSS as u64, sent_at);
            h.with(|ctx| sf.on_packet(ctx, &ack, None));
        }
        // Slow start: cwnd should have grown by ~1 MSS per acked MSS.
        assert!(
            sf.cwnd() >= before + (9 * MSS) as f64,
            "cwnd {} should have nearly doubled from {}",
            sf.cwnd(),
            before
        );
    }

    #[test]
    fn congestion_avoidance_grows_slowly() {
        let mut h = Harness::new();
        let mut sf = subflow_in_congestion_avoidance();
        establish(&mut h, &mut sf);
        let before = sf.cwnd();
        h.with(|ctx| sf.send_segment(ctx, 0, MSS));
        let sent = h.now;
        h.advance(SimDuration::from_micros(100));
        let ack = ack_for(&sf, MSS as u64, sent);
        h.with(|ctx| sf.on_packet(ctx, &ack, None));
        let growth = sf.cwnd() - before;
        assert!(growth > 0.0 && growth < MSS as f64, "CA growth {growth}");
    }

    #[test]
    fn three_dupacks_trigger_fast_retransmit() {
        let mut h = Harness::new();
        let mut sf = subflow(false);
        establish(&mut h, &mut sf);
        for i in 0..5u64 {
            h.with(|ctx| sf.send_segment(ctx, i * MSS as u64, MSS));
        }
        h.out.clear();
        // Three duplicate ACKs for sequence 0 (first segment lost).
        for _ in 0..3 {
            let ack = ack_for(&sf, 0, SimTime::ZERO);
            h.with(|ctx| sf.on_packet(ctx, &ack, None));
        }
        assert_eq!(repairs(&h.signals, 0), (1, 0));
        // The retransmission is the segment starting at subflow seq 0.
        let retx = h.out.iter().find(|p| p.kind == PacketKind::Data).unwrap();
        assert_eq!(retx.seq, 0);
        assert!(sf.is_recovering());
    }

    #[test]
    fn high_dupack_threshold_tolerates_reordering() {
        let mut h = Harness::new();
        let mut sf = subflow(true);
        sf.set_dupack_threshold(16);
        establish(&mut h, &mut sf);
        for i in 0..8u64 {
            h.with(|ctx| sf.send_segment(ctx, i * MSS as u64, MSS));
        }
        h.out.clear();
        // Ten duplicate ACKs caused by reordering: below the threshold of 16,
        // so no fast retransmit.
        for _ in 0..10 {
            let ack = ack_for(&sf, 0, SimTime::ZERO);
            h.with(|ctx| sf.on_packet(ctx, &ack, None));
        }
        assert_eq!(repairs(&h.signals, 0), (0, 0));
        assert!(!sf.is_recovering());
    }

    #[test]
    fn rto_collapses_window_and_retransmits() {
        let mut h = Harness::new();
        let mut sf = subflow(false);
        establish(&mut h, &mut sf);
        for i in 0..4u64 {
            h.with(|ctx| sf.send_segment(ctx, i * MSS as u64, MSS));
        }
        // Find the armed timer and fire it.
        let (deadline, token) = *h.timers.last().unwrap();
        let (_idx, gen) = Subflow::decode_timer_token(token);
        h.now = deadline;
        h.out.clear();
        let upd = h.with(|ctx| sf.on_timer(ctx, gen));
        assert!(upd.congestion_event);
        assert_eq!(repairs(&h.signals, 0), (0, 1));
        assert_eq!(sf.cwnd(), MSS as f64);
        assert_eq!(h.out.len(), 1, "exactly the first segment is retransmitted");
        assert_eq!(h.out[0].seq, 0);
    }

    #[test]
    fn stale_timers_are_ignored() {
        let mut h = Harness::new();
        let mut sf = subflow(false);
        establish(&mut h, &mut sf);
        h.with(|ctx| sf.send_segment(ctx, 0, MSS));
        let (_, token) = *h.timers.last().unwrap();
        let (_, gen) = Subflow::decode_timer_token(token);
        // ACK everything: timer is cancelled.
        let ack = ack_for(&sf, MSS as u64, h.now);
        h.advance(SimDuration::from_micros(50));
        h.with(|ctx| sf.on_packet(ctx, &ack, None));
        assert!(sf.is_drained());
        let upd = h.with(|ctx| sf.on_timer(ctx, gen));
        assert_eq!(repairs(&h.signals, 0), (0, 0));
        assert!(!upd.congestion_event);
    }

    #[test]
    fn newreno_partial_ack_retransmits_next_hole() {
        let mut h = Harness::new();
        let mut sf = subflow(false);
        establish(&mut h, &mut sf);
        for i in 0..6u64 {
            h.with(|ctx| sf.send_segment(ctx, i * MSS as u64, MSS));
        }
        // Lose segments 0 and 2: three dupacks at 0 trigger recovery.
        for _ in 0..3 {
            let ack = ack_for(&sf, 0, SimTime::ZERO);
            h.with(|ctx| sf.on_packet(ctx, &ack, None));
        }
        assert!(sf.is_recovering());
        h.out.clear();
        // Partial ACK up to 2*MSS (segment 0 repaired, hole at segment 2).
        let ack = ack_for(&sf, 2 * MSS as u64, SimTime::ZERO);
        h.with(|ctx| sf.on_packet(ctx, &ack, None));
        assert!(sf.is_recovering(), "partial ACK keeps us in recovery");
        assert_eq!(h.out.len(), 1);
        assert_eq!(h.out[0].seq, 2 * MSS as u64);
        // Full ACK ends recovery.
        let ack = ack_for(&sf, 6 * MSS as u64, SimTime::ZERO);
        h.with(|ctx| sf.on_packet(ctx, &ack, None));
        assert!(!sf.is_recovering());
    }

    #[test]
    fn lia_increase_is_capped_by_uncoupled_increase() {
        let mut h = Harness::new();
        let mut sf = subflow_in_congestion_avoidance();
        establish(&mut h, &mut sf);
        let before = sf.cwnd();
        h.with(|ctx| sf.send_segment(ctx, 0, MSS));
        let lia = LiaParams {
            alpha: 100.0, // absurdly aggressive: must be capped
            total_cwnd_bytes: before,
        };
        let ack = ack_for(&sf, MSS as u64, h.now);
        h.advance(SimDuration::from_micros(100));
        h.with(|ctx| sf.on_packet(ctx, &ack, Some(lia)));
        let growth = sf.cwnd() - before;
        let uncoupled_cap = MSS as f64 * MSS as f64 / before;
        assert!(
            growth <= uncoupled_cap + 1.0,
            "growth {growth} cap {uncoupled_cap}"
        );
    }

    #[test]
    fn scatter_randomises_source_ports() {
        let mut h = Harness::new();
        let mut sf = subflow(true);
        establish(&mut h, &mut sf);
        h.out.clear();
        for i in 0..20u64 {
            h.with(|ctx| sf.send_segment(ctx, i * MSS as u64, MSS));
        }
        let ports: std::collections::HashSet<u16> = h.out.iter().map(|p| p.src_port).collect();
        assert!(
            ports.len() > 10,
            "expected many distinct ports, got {}",
            ports.len()
        );
    }

    #[test]
    fn pinned_subflow_uses_one_source_port() {
        let mut h = Harness::new();
        let mut sf = subflow(false);
        establish(&mut h, &mut sf);
        h.out.clear();
        for i in 0..10u64 {
            h.with(|ctx| sf.send_segment(ctx, i * MSS as u64, MSS));
        }
        let ports: std::collections::HashSet<u16> = h.out.iter().map(|p| p.src_port).collect();
        assert_eq!(ports.len(), 1);
    }

    #[test]
    fn dctcp_reduces_window_proportionally_to_marks() {
        let mut h = Harness::new();
        let mut sf = subflow_with(TransportConfig::dctcp(), false);
        establish(&mut h, &mut sf);
        let before = sf.cwnd();
        // Send a window, ack it all with ECN echo set.
        for i in 0..10u64 {
            h.with(|ctx| sf.send_segment(ctx, i * MSS as u64, MSS));
        }
        let sent = h.now;
        h.advance(SimDuration::from_micros(100));
        for i in 1..=10u64 {
            let mut ack = ack_for(&sf, i * MSS as u64, sent);
            ack.ecn_echo = true;
            h.with(|ctx| sf.on_packet(ctx, &ack, None));
        }
        assert!(sf.dctcp_alpha() > 0.0);
        // Window must not have grown unchecked despite slow start.
        assert!(sf.cwnd() < before + (10 * MSS) as f64);
    }

    #[test]
    fn spurious_retransmission_detection() {
        let mut h = Harness::new();
        let mut sf = subflow(false);
        sf.set_dupack_threshold(2);
        establish(&mut h, &mut sf);
        for i in 0..4u64 {
            h.with(|ctx| sf.send_segment(ctx, i * MSS as u64, MSS));
        }
        // Reordering-induced dupacks trigger a (spurious) fast retransmit.
        for _ in 0..2 {
            let ack = ack_for(&sf, 0, SimTime::ZERO);
            h.with(|ctx| sf.on_packet(ctx, &ack, None));
        }
        assert_eq!(repairs(&h.signals, 0), (1, 0));
        // Later the receiver advances past the retransmitted data and flags a
        // duplicate arrival.
        let ack = ack_for(&sf, 4 * MSS as u64, SimTime::ZERO);
        h.with(|ctx| sf.on_packet(ctx, &ack, None));
        let mut dup = ack_for(&sf, 4 * MSS as u64, SimTime::ZERO);
        dup.dup_hint = true;
        // Make it a duplicate ACK by keeping outstanding data around.
        h.with(|ctx| sf.send_segment(ctx, 4 * MSS as u64, MSS));
        let upd = h.with(|ctx| sf.on_packet(ctx, &dup, None));
        assert_eq!(upd.spurious_retransmits, 1, "reported by the activation");
        assert!(h
            .signals
            .iter()
            .any(|s| matches!(s, Signal::SpuriousRetransmit { .. })));
    }

    #[test]
    fn timer_token_roundtrip() {
        let token = Subflow::timer_token(7, 123_456);
        assert_eq!(Subflow::decode_timer_token(token), (7, 123_456));
    }

    /// Drive a subflow through a reordering-induced (spurious) fast-recovery
    /// episode: dup-ACKs below `threshold+…`, then a full ACK (the "lost"
    /// original arrived after all), then the dup-hinted duplicate ACK caused by
    /// the unnecessary retransmitted copy. Returns the cwnd before the episode.
    fn spurious_episode(h: &mut Harness, sf: &mut Subflow) -> f64 {
        establish(h, sf);
        for i in 0..6u64 {
            h.with(|ctx| sf.send_segment(ctx, i * MSS as u64, MSS));
        }
        let cwnd_before = sf.cwnd();
        // Reordering-induced duplicate ACKs trigger a spurious fast retransmit.
        for _ in 0..2 {
            let ack = ack_for(sf, 0, SimTime::ZERO);
            h.with(|ctx| sf.on_packet(ctx, &ack, None));
        }
        assert!(sf.is_recovering());
        assert_eq!(repairs(&h.signals, 0), (1, 0));
        // The delayed original (and everything else) arrives: full ACK exits
        // recovery with the reduced window.
        let ack = ack_for(sf, 6 * MSS as u64, SimTime::ZERO);
        h.with(|ctx| sf.on_packet(ctx, &ack, None));
        assert!(!sf.is_recovering());
        // More data goes out, then the retransmitted copy reaches the receiver,
        // which reports it as a duplicate.
        h.with(|ctx| sf.send_segment(ctx, 6 * MSS as u64, MSS));
        let mut dup = ack_for(sf, 6 * MSS as u64, SimTime::ZERO);
        dup.dup_hint = true;
        let upd = h.with(|ctx| sf.on_packet(ctx, &dup, None));
        assert_eq!(upd.spurious_retransmits, 1);
        cwnd_before
    }

    #[test]
    fn spurious_retransmit_undo_restores_window() {
        let mut h = Harness::new();
        let mut sf = subflow(true);
        sf.set_dupack_threshold(2);
        sf.set_undo_on_spurious(true);
        let cwnd_before = spurious_episode(&mut h, &mut sf);
        assert!(
            sf.cwnd() >= cwnd_before,
            "cwnd {} must be restored to at least its pre-recovery value {}",
            sf.cwnd(),
            cwnd_before
        );
    }

    #[test]
    fn without_undo_spurious_recovery_keeps_reduced_window() {
        let mut h = Harness::new();
        let mut sf = subflow(true);
        sf.set_dupack_threshold(2);
        let cwnd_before = spurious_episode(&mut h, &mut sf);
        assert!(
            sf.cwnd() < cwnd_before,
            "without undo the halved window persists: cwnd {} vs {}",
            sf.cwnd(),
            cwnd_before
        );
    }

    #[test]
    fn rto_recovery_is_never_undone() {
        let mut h = Harness::new();
        let mut sf = subflow(true);
        sf.set_undo_on_spurious(true);
        establish(&mut h, &mut sf);
        for i in 0..4u64 {
            h.with(|ctx| sf.send_segment(ctx, i * MSS as u64, MSS));
        }
        let (deadline, token) = *h.timers.last().unwrap();
        let (_idx, gen) = Subflow::decode_timer_token(token);
        h.now = deadline;
        h.with(|ctx| sf.on_timer(ctx, gen));
        assert_eq!(repairs(&h.signals, 0), (0, 1));
        let collapsed = sf.cwnd();
        // A dup-hinted duplicate ACK after the timeout must not restore the
        // pre-timeout window.
        let mut dup = ack_for(&sf, 0, SimTime::ZERO);
        dup.dup_hint = true;
        h.with(|ctx| sf.on_packet(ctx, &dup, None));
        assert!(sf.cwnd() <= collapsed + MSS as f64);
    }
}
