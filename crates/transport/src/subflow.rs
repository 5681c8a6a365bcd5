//! The per-path TCP engine ("subflow").
//!
//! A [`Subflow`] is a complete single-path TCP sender state machine: SYN
//! handshake, sliding window, slow start / congestion avoidance, duplicate-ACK
//! counting with a configurable threshold, fast retransmit and fast recovery,
//! RTO with exponential backoff, and optional DCTCP-style ECN reaction. Every
//! change of state is one arm of `Subflow::step`; the diagram is beside
//! `State`. What recovery does not do yet (ROADMAP item 16): a partial ACK
//! does not deflate the window (RFC 6582 §3.2 step 5), and no receive window
//! bounds `snd_nxt − snd_una`, so a flow in recovery keeps growing its flight.
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

/// Handshake and loss-recovery state. [`Subflow::step`] is the only place
/// it changes; each edge below is one of its arms.
///
/// ```text
///           start              SYN-ACK
/// Closed ──────────▶ SynSent ──────────▶ Open ◀──────────────────────────┐
///                     │   ▲               │  ↺ full ACK: grow the window │
///                     └───┘               │  ↺ dup ACK below threshold   │
///                 RTO: back off,          │                              │
///                 resend the SYN          │ dup ACK at the threshold     │
///                                         │ (RFC 5681 §3.2), or RTO      │
///                                         │ (RFC 6298 §5): enter         │
///                                         ▼ recovery                     │
///                               Recovering { recover } ──────────────────┘
///  ↺ dup ACK: inflate by one MSS            full ACK: deflate to ssthresh
///  ↺ partial ACK: resend the next hole      (RFC 6582 §3.2); spurious hint
///  ↺ RTO: enter recovery again              with undo armed: undo; abort
/// ```
///
/// Entering recovery is one sequence for both causes: signal, resend the
/// first hole, arm the timer, `recover = snd_nxt`. A spurious hint undoes
/// only when undo is on and armed, and can do so in `Open` too: the hint may
/// follow the full ACK that ended the episode, so `undo_armed` outlives
/// `Recovering`. An ACK before the handshake completes, a SYN-ACK after it
/// and an RTO while `Closed` are ignored; an RTO with nothing outstanding
/// only cancels the timer; `abort` forgets the unacknowledged data and
/// cancels the timer in every state.
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

/// What [`Subflow::step`] reacts to, classified from its input by `start`,
/// `on_packet`, `on_timer` and `abort`.
#[derive(Debug, Clone, Copy)]
enum Event<'a> {
    /// The connection opens the subflow.
    Start,
    /// The SYN-ACK, echoing the SYN's send time.
    SynAck(SimTime),
    /// An ACK of new data up to `recover` or beyond; outside recovery, every
    /// ACK of new data.
    FullAck(&'a Packet, Option<LiaParams>),
    /// An ACK of new data short of `recover`.
    PartialAck(&'a Packet),
    /// An ACK of nothing new while data is outstanding.
    DupAck,
    /// The retransmission timer expired.
    Rto,
    /// The receiver got a second copy of the last retransmission: it was
    /// spurious. Precedes the duplicate ACK that carries it.
    SpuriousHint,
    /// The connection silences the subflow.
    Abort,
}

/// Duplicate ACKs that trigger a fast retransmission, until a policy raises
/// the subflow's threshold (MMPTCP's packet-scatter phase).
pub(crate) const DUPACK_THRESHOLD: u32 = 3;

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

    /// Whether a retransmission timer is armed, and the generation of the
    /// last one armed or cancelled (only a timer of that generation fires).
    rto_armed: bool,
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
            rto_armed: false,
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
    #[cfg(test)]
    pub(crate) fn is_recovering(&self) -> bool {
        matches!(self.state, State::Recovering { .. })
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
        self.is_drained() && !self.rto_armed
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
        self.step(ctx, Event::Start);
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
    pub(crate) fn abort(&mut self, ctx: &mut AgentCtx<'_>) {
        self.step(ctx, Event::Abort);
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
        self.rto_armed = true;
        let deadline = ctx.now() + self.rtt.rto();
        ctx.set_timer(deadline, Self::timer_token(self.index, self.timer_gen));
    }

    fn cancel_timer(&mut self) {
        self.rto_armed = false;
        self.timer_gen += 1;
    }

    /// Handle a timer firing for this subflow. `gen` is the generation part of
    /// the token; a timer of an older generation was re-armed or cancelled
    /// since (no timer of generation 0 is ever armed).
    pub(crate) fn on_timer(&mut self, ctx: &mut AgentCtx<'_>, gen: u64) -> SubflowUpdate {
        if gen != self.timer_gen {
            return SubflowUpdate::default();
        }
        let update = self.step(ctx, Event::Rto);
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
        if !self.rto_armed {
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
            PacketKind::SynAck => self.step(ctx, Event::SynAck(pkt.sent_at)),
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
        let ack = pkt.ack;
        if ack > self.snd_una {
            return match self.state {
                State::Recovering { recover } if ack < recover => {
                    self.step(ctx, Event::PartialAck(pkt))
                }
                _ => self.step(ctx, Event::FullAck(pkt, lia)),
            };
        }
        if self.outstanding() == 0 {
            return SubflowUpdate::default();
        }
        let spurious = pkt.dup_hint && self.last_retransmitted.is_some_and(|seq| seq < ack);
        let hint = match spurious {
            true => self.step(ctx, Event::SpuriousHint),
            false => SubflowUpdate::default(),
        };
        SubflowUpdate {
            spurious_retransmits: hint.spurious_retransmits,
            ..self.step(ctx, Event::DupAck)
        }
    }

    /// The transition function: the one place `state` changes, one arm per
    /// (state, event) pair of the diagram beside [`State`].
    fn step(&mut self, ctx: &mut AgentCtx<'_>, event: Event<'_>) -> SubflowUpdate {
        use Event::*;
        use State::*;
        let mut update = SubflowUpdate::default();
        self.state = match (self.state, event) {
            (Closed, Start) => {
                self.send_syn(ctx);
                SynSent
            }
            (SynSent | Open | Recovering { .. }, Start) => panic!("subflow already started"),
            (SynSent, SynAck(sent_at)) => {
                self.cc.on_established(ctx.now(), &self.rtt);
                self.rtt.on_sample(ctx.now() - sent_at);
                self.cancel_timer();
                update.became_established = true;
                Open
            }
            (state @ (Closed | Open | Recovering { .. }), SynAck(_))
            | (state @ (Closed | SynSent), FullAck(..) | PartialAck(_) | DupAck | SpuriousHint)
            | (state @ Closed, Rto) => state,
            (Open, FullAck(pkt, lia)) => {
                let newly = self.take_ack(ctx, pkt);
                self.cc.on_ack(newly, ctx.now(), &self.rtt, lia);
                self.settle_ack(ctx, pkt, newly);
                Open
            }
            (Recovering { .. }, FullAck(pkt, _)) => {
                let newly = self.take_ack(ctx, pkt);
                self.cc.on_recovery_exit();
                self.settle_ack(ctx, pkt, newly);
                Open
            }
            (Open, PartialAck(_)) => unreachable!("only recovery has a partial ACK"),
            (state @ Recovering { .. }, PartialAck(pkt)) => {
                let newly = self.take_ack(ctx, pkt);
                self.retransmit_first_unacked(ctx);
                self.settle_ack(ctx, pkt, newly);
                state
            }
            (Open, DupAck) => {
                self.dup_acks += 1;
                if self.dup_acks < self.dupack_threshold {
                    Open
                } else {
                    // The controller snapshots its pre-loss state for a
                    // possible undo.
                    self.cc.on_loss(self.outstanding());
                    self.undo_armed = true;
                    self.enter_recovery(ctx, &mut update, false)
                }
            }
            (state @ Recovering { .. }, DupAck) => {
                // Window inflation while the hole is being repaired.
                self.dup_acks += 1;
                self.cc.on_dup_ack();
                state
            }
            (SynSent, Rto) => {
                // Lost SYN: back off and retry.
                self.rtt.backoff();
                update.congestion_event = true;
                self.signal_timeout(ctx);
                self.send_syn(ctx);
                SynSent
            }
            (state @ (Open | Recovering { .. }), Rto) if self.is_drained() => {
                self.cancel_timer();
                state
            }
            (Open | Recovering { .. }, Rto) => {
                // Entering recovery with `recover = snd_nxt` makes later
                // partial ACKs retransmit the remaining holes (go-back-N
                // style, ACK clocked) instead of waiting one RTO per lost
                // segment — essential when a burst overflows a drop-tail
                // queue and the whole tail of the window is missing.
                self.cc.on_rto(self.outstanding());
                self.dup_acks = 0;
                self.undo_armed = false;
                self.rtt.backoff();
                self.enter_recovery(ctx, &mut update, true)
            }
            (state @ (Open | Recovering { .. }), SpuriousHint) => {
                update.spurious_retransmits = 1;
                self.last_retransmitted = None;
                ctx.signal(Signal::SpuriousRetransmit {
                    flow: self.flow,
                    subflow: self.index,
                    at: ctx.now(),
                });
                if self.undo_on_spurious && self.undo_armed {
                    // RR-TCP/Eifel-style undo: the "loss" was in fact
                    // reordering, so the window reduction (and any remaining
                    // recovery state) is reverted.
                    self.cc.undo();
                    self.dup_acks = 0;
                    self.undo_armed = false;
                    Open
                } else {
                    state
                }
            }
            (state @ (Closed | SynSent | Open), Abort) => {
                self.forget();
                state
            }
            (Recovering { .. }, Abort) => {
                self.forget();
                Open
            }
        };
        update
    }

    /// Forget every unacknowledged mapping and cancel the timer.
    fn forget(&mut self) {
        self.mappings.clear();
        self.snd_una = self.snd_nxt;
        self.dup_acks = 0;
        self.cancel_timer();
    }

    /// Enter loss recovery after the controller's response to a fast
    /// retransmit or a timeout: signal it, resend the first hole and arm the
    /// timer, until everything sent so far is acknowledged.
    fn enter_recovery(
        &mut self,
        ctx: &mut AgentCtx<'_>,
        update: &mut SubflowUpdate,
        timeout: bool,
    ) -> State {
        update.congestion_event = true;
        if timeout {
            self.signal_timeout(ctx);
        } else {
            ctx.signal(Signal::FastRetransmit {
                flow: self.flow,
                subflow: self.index,
                at: ctx.now(),
            });
        }
        self.retransmit_first_unacked(ctx);
        self.arm_timer(ctx);
        State::Recovering {
            recover: self.snd_nxt,
        }
    }

    fn signal_timeout(&self, ctx: &mut AgentCtx<'_>) {
        ctx.signal(Signal::RetransmissionTimeout {
            flow: self.flow,
            subflow: self.index,
            at: ctx.now(),
        });
    }

    /// What every ACK of new data does first: advance `snd_una` past it and
    /// take the RTT sample its echoed timestamp carries. Returns the bytes
    /// newly acknowledged.
    fn take_ack(&mut self, ctx: &mut AgentCtx<'_>, pkt: &Packet) -> u64 {
        let newly = pkt.ack - self.snd_una;
        self.snd_una = pkt.ack;
        self.drop_acked_mappings();
        self.dup_acks = 0;
        if pkt.sent_at > SimTime::ZERO {
            self.rtt.on_sample(ctx.now() - pkt.sent_at);
        }
        newly
    }

    /// What every ACK of new data does last, after the window's response:
    /// ECN accounting, the round-trip boundary, and the timer.
    fn settle_ack(&mut self, ctx: &mut AgentCtx<'_>, pkt: &Packet, newly: u64) {
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
    use crate::conn::{ConnState, Connection, Policy};
    use crate::testing::{repairs, Loopback, Step, Step::*};
    use std::collections::HashSet;
    use State::Open;

    const MSS: u64 = 1400;
    /// The default initial ssthresh, `u64::MAX / 2`, as the window's `f64`.
    const INF: u64 = 1 << 63;
    /// Recovering from a loss in the initial window, which ends at 14 000.
    const RECOVERING: State = State::Recovering { recover: 14_000 };
    const ROUND: Step = Drop(|_| false);
    const BLACKOUT: Step = Drop(|_| true);

    /// Subflow 0 after a step: state; cwnd, ssthresh and outstanding bytes
    /// (whole bytes); the fast retransmits, timeouts and spurious
    /// retransmissions signalled so far; the RTO in milliseconds.
    #[derive(Debug, PartialEq)]
    struct Check(State, u64, u64, u64, (usize, usize, usize), u64);

    /// Start `sender` in a [`Loopback`] and play `script`, checking subflow 0
    /// after every step, and that the activations reported every congestion
    /// event and spurious retransmission the subflow signalled.
    fn play(rfc: &str, sender: Connection<Probe>, script: &[(Step, Check)]) {
        let mut l = Loopback::new(FlowId(1), sender);
        l.start();
        let mut found = Vec::new();
        for &(step, _) in script {
            l.play(step);
            let sf = &l.tx.conn.subflows[0];
            let (fast, rto) = repairs(&l.signals, 0);
            let spurious = l
                .signals
                .iter()
                .filter(|s| matches!(s, Signal::SpuriousRetransmit { .. }))
                .count();
            let reported = (l.tx.policy.congestion_events, l.tx.policy.spurious);
            assert_eq!(reported, (fast + rto, spurious), "{rfc}");
            found.push(Check(
                sf.state,
                sf.cc.cwnd() as u64,
                sf.cc.ssthresh() as u64,
                sf.outstanding(),
                (fast, rto, spurious),
                sf.rtt.rto().as_millis_f64() as u64,
            ));
        }
        let want: Vec<&Check> = script.iter().map(|(_, check)| check).collect();
        assert_eq!(found.iter().collect::<Vec<_>>(), want, "{rfc}");
    }

    /// Single-path TCP that counts what its subflow's activations report.
    /// A greedy one hands every ACK RFC 6356 parameters with an absurd α, so
    /// only the uncoupled cap bounds its increase.
    #[derive(Default)]
    struct Probe {
        greedy: bool,
        congestion_events: usize,
        spurious: usize,
    }

    impl Policy for Probe {
        const NAME: &'static str = "probe";

        fn lia(&self, conn: &ConnState, idx: usize) -> Option<LiaParams> {
            self.greedy.then(|| LiaParams {
                alpha: 100.0,
                total_cwnd_bytes: conn.subflows[idx].cwnd(),
            })
        }

        fn after_subflow_event(
            &mut self,
            _conn: &mut ConnState,
            _ctx: &mut AgentCtx<'_>,
            _idx: usize,
            update: SubflowUpdate,
        ) {
            self.congestion_events += usize::from(update.congestion_event);
            self.spurious += update.spurious_retransmits as usize;
        }
    }

    fn tcp_with(cfg: TransportConfig, total: Option<u64>) -> Connection<Probe> {
        let subflow = |_| Subflow::new(cfg, 0, false, Addr(0), Addr(1), 50_000, 80, FlowId(1));
        Connection::with_subflows(FlowId(1), total, 1, subflow, Probe::default())
    }

    fn tcp(total: Option<u64>) -> Connection<Probe> {
        tcp_with(TransportConfig::default(), total)
    }

    /// In congestion avoidance from the first ACK: the slow-start threshold
    /// is half the initial window.
    fn avoiding() -> TransportConfig {
        TransportConfig {
            initial_ssthresh: 5 * MSS,
            ..TransportConfig::default()
        }
    }

    /// `sender` with its subflow adjusted by `tune` before it starts.
    fn tuned(mut sender: Connection<Probe>, tune: impl FnOnce(&mut Subflow)) -> Connection<Probe> {
        tune(&mut sender.conn.subflows[0]);
        sender
    }

    /// The loss-recovery table. A row is a sender, a script of
    /// [`Loopback`] steps with the checkpoint after each, and the section
    /// it implements; it runs as one `#[test]` under its own name.
    macro_rules! rows {
        ($($(#[doc = $doc:literal])* $name:ident: $rfc:literal, $sender:expr,
            [$($step:expr => $check:expr,)*];)*) => {
            $($(#[doc = $doc])* #[test] fn $name() {
                play($rfc, $sender, &[$(($step, $check)),*]);
            })*
        };
    }

    rows! {
        /// The SYN-ACK opens a 10-segment window, and its RTT sample takes
        /// the RTO from the initial 1 s to the 200 ms floor.
        handshake_and_initial_window: "RFC 6928 §2, RFC 6298 §2", tcp(None), [
            ROUND => Check(Open, 14_000, INF, 14_000, (0, 0, 0), 200),
        ];
        /// Every acknowledged segment adds one to the window.
        slow_start_doubles_per_rtt: "RFC 5681 §3.1", tcp(None), [
            ROUND => Check(Open, 14_000, INF, 14_000, (0, 0, 0), 200),
            ROUND => Check(Open, 28_000, INF, 28_000, (0, 0, 0), 200),
            ROUND => Check(Open, 56_000, INF, 56_000, (0, 0, 0), 200),
        ];
        /// Above ssthresh a window of ACKs adds less than one segment.
        congestion_avoidance_grows_slowly: "RFC 5681 §3.1", tcp_with(avoiding(), None), [
            ROUND => Check(Open, 14_000, 7_000, 14_000, (0, 0, 0), 200),
            ROUND => Check(Open, 15_342, 7_000, 14_000, (0, 0, 0), 200),
        ];
        /// RFC 6356's increase is never more than uncoupled Reno's: this
        /// row's windows are `congestion_avoidance_grows_slowly`'s.
        lia_increase_is_capped_by_uncoupled_increase: "RFC 6356 §3",
            Connection { policy: Probe { greedy: true, ..Probe::default() }, ..tcp_with(avoiding(), None) }, [
            ROUND => Check(Open, 14_000, 7_000, 14_000, (0, 0, 0), 200),
            ROUND => Check(Open, 15_342, 7_000, 14_000, (0, 0, 0), 200),
        ];
        /// The third duplicate ACK halves ssthresh, retransmits the hole and
        /// inflates the window by three; each later one inflates it by one,
        /// and the ACK of the repaired hole deflates it to ssthresh.
        three_dupacks_trigger_fast_retransmit: "RFC 5681 §3.2", tcp(Some(14_000)), [
            ROUND => Check(Open, 14_000, INF, 14_000, (0, 0, 0), 200),
            Drop(|p| p.seq == 0) => Check(RECOVERING, 19_600, 7_000, 14_000, (1, 0, 0), 200),
            ROUND => Check(Open, 7_000, 7_000, 0, (1, 0, 0), 200),
        ];
        /// A partial ACK retransmits the next hole and stays in recovery;
        /// the full ACK ends it. Each partial ACK here acknowledges one
        /// segment, where step 5's deflation leaves the window as it is.
        newreno_partial_ack_retransmits_next_hole: "RFC 6582 §3.2", tcp(Some(14_000)), [
            ROUND => Check(Open, 14_000, INF, 14_000, (0, 0, 0), 200),
            Drop(|p| p.seq < 2 * MSS) => Check(RECOVERING, 18_200, 7_000, 14_000, (1, 0, 0), 200),
            ROUND => Check(RECOVERING, 18_200, 7_000, 12_600, (1, 0, 0), 200),
            ROUND => Check(Open, 7_000, 7_000, 0, (1, 0, 0), 200),
        ];
        /// A timeout collapses the window to one segment, retransmits the
        /// first hole and doubles the RTO; the RTT sample of the first ACK
        /// of new data ends the backoff, and each partial ACK repairs the
        /// next hole.
        rto_collapses_window_and_retransmits: "RFC 5681 §3.1, RFC 6298 §5", tcp(Some(14_000)), [
            ROUND => Check(Open, 14_000, INF, 14_000, (0, 0, 0), 200),
            BLACKOUT => Check(Open, 14_000, INF, 14_000, (0, 0, 0), 200),
            ROUND => Check(RECOVERING, 1_400, 7_000, 14_000, (0, 1, 0), 400),
            BLACKOUT => Check(RECOVERING, 1_400, 7_000, 14_000, (0, 1, 0), 400),
            ROUND => Check(RECOVERING, 1_400, 7_000, 14_000, (0, 2, 0), 800),
            ROUND => Check(RECOVERING, 1_400, 7_000, 12_600, (0, 2, 0), 200),
        ];
        /// Once everything is acknowledged the timer is off: the one armed
        /// with the data fires stale.
        stale_timers_are_ignored: "RFC 6298 §5.2", tcp(Some(MSS)), [
            ROUND => Check(Open, 14_000, INF, 1_400, (0, 0, 0), 200),
            ROUND => Check(Open, 15_400, INF, 0, (0, 0, 0), 200),
            Expire => Check(Open, 15_400, INF, 0, (0, 0, 0), 200),
        ];
        /// Each marked round cuts the window by α/2, α an EWMA of the
        /// marked fraction with gain 1/16; an unmarked round cuts nothing.
        dctcp_reduces_window_proportionally_to_marks: "RFC 8257 §3.3",
            tcp_with(TransportConfig::dctcp(), None), [
            ROUND => Check(Open, 14_000, INF, 14_000, (0, 0, 0), 200),
            Mark => Check(Open, 15_089, 15_089, 14_000, (0, 0, 0), 200),
            ROUND => Check(Open, 16_341, 15_089, 15_400, (0, 0, 0), 200),
        ];
        /// MMPTCP's packet-scatter threshold: nine duplicate ACKs from a
        /// segment one round late are reordering, not loss.
        high_dupack_threshold_tolerates_reordering: "MMPTCP's raised threshold",
            tuned(tcp(None), |sf| sf.set_dupack_threshold(16)), [
            ROUND => Check(Open, 14_000, INF, 14_000, (0, 0, 0), 200),
            Delay(|p| p.seq == 0) => Check(Open, 14_000, INF, 14_000, (0, 0, 0), 200),
            ROUND => Check(Open, 16_800, INF, 16_800, (0, 0, 0), 200),
        ];
        /// The same late segment under threshold 2: its retransmission
        /// reaches the receiver as a duplicate, which the sender counts.
        spurious_retransmission_detection: "MMPTCP's spurious-retransmit detection",
            tuned(tcp(None), |sf| sf.set_dupack_threshold(2)), [
            ROUND => Check(Open, 14_000, INF, 14_000, (0, 0, 0), 200),
            Delay(|p| p.seq == 0) => Check(RECOVERING, 21_000, 7_000, 21_000, (1, 0, 0), 200),
            ROUND => Check(Open, 8_303, 7_000, 7_000, (1, 0, 1), 200),
        ];
        /// With undo on, the duplicate restores the pre-recovery window.
        spurious_retransmit_undo_restores_window: "MMPTCP's spurious undo (RR-TCP, Eifel)",
            tuned(tcp(None), |sf| sf.set_undo_on_spurious(true)), [
            ROUND => Check(Open, 14_000, INF, 14_000, (0, 0, 0), 200),
            Delay(|p| p.seq == 0) => Check(RECOVERING, 19_600, 7_000, 19_600, (1, 0, 0), 200),
            ROUND => Check(Open, 19_600, INF, 19_600, (1, 0, 1), 200),
        ];
        /// With undo off, the halved window persists.
        without_undo_spurious_recovery_keeps_reduced_window: "RFC 5681 §3.2, no undo", tcp(None), [
            ROUND => Check(Open, 14_000, INF, 14_000, (0, 0, 0), 200),
            Delay(|p| p.seq == 0) => Check(RECOVERING, 19_600, 7_000, 19_600, (1, 0, 0), 200),
            ROUND => Check(Open, 8_059, 7_000, 7_000, (1, 0, 1), 200),
        ];
        /// A timeout is never undone: the window arrives two rounds late,
        /// after the RTO, and the duplicate it causes restores nothing.
        rto_recovery_is_never_undone: "MMPTCP's spurious undo (RR-TCP, Eifel)",
            tuned(tcp(None), |sf| sf.set_undo_on_spurious(true)), [
            ROUND => Check(Open, 14_000, INF, 14_000, (0, 0, 0), 200),
            Delay(|_| true) => Check(Open, 14_000, INF, 14_000, (0, 0, 0), 200),
            Expire => Check(RECOVERING, 1_400, 7_000, 14_000, (0, 1, 0), 400),
            ROUND => Check(Open, 7_000, 7_000, 7_000, (0, 1, 1), 478),
        ];
    }

    /// Distinct source ports of the first 20 data segments a TCP sender
    /// emits, with packet scatter on or off.
    fn data_ports(scatter: bool) -> usize {
        let mut l = Loopback::new(FlowId(1), tuned(tcp(None), |sf| sf.scatter = scatter));
        l.start();
        l.play(ROUND);
        l.play(ROUND);
        let data = l.sent.iter().filter(|(_, p)| p.kind == PacketKind::Data);
        let ports: HashSet<u16> = data.take(20).map(|(_, p)| p.src_port).collect();
        ports.len()
    }

    #[test]
    fn scatter_randomises_source_ports() {
        let ports = data_ports(true);
        assert!(ports > 10, "expected many distinct ports, got {ports}");
    }

    #[test]
    fn pinned_subflow_uses_one_source_port() {
        assert_eq!(data_ports(false), 1);
    }

    #[test]
    fn timer_token_roundtrip() {
        let token = Subflow::timer_token(7, 123_456);
        assert_eq!(Subflow::decode_timer_token(token), (7, 123_456));
    }
}
