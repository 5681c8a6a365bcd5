//! The connection core every sender in this crate is built on.
//!
//! The transports the paper compares differ in two things only — how many
//! subflows a connection has and when it opens them, and how data is mapped
//! onto them — and RepFlow adds a completion rule. Everything else is the
//! same for all of them and lives here, once: the connection-level data
//! sequence space, the cumulative data ACK, completion and its signals
//! (`FlowStarted` / `FlowCompleted` / `RedundantBytes`),
//! routing of packets and timer tokens to the [`Subflow`] they belong to,
//! round-robin scheduling, and the handoff of an elephant's remainder to the
//! fluid fast path. Every change of the connection's `Mode` is one arm of
//! `Connection::step`; the diagram is beside `Mode`.
//!
//! A transport is a [`Policy`]: a small, statically dispatched set of hooks
//! the core calls at fixed points, each with a default, so a policy states
//! only what differs. On an ACK the order is
//!
//! 1. `data_acked` advances to the packet's connection-level ACK,
//! 2. [`Policy::before_ack`] (D²TCP refreshes its deadline-imminence exponent),
//! 3. [`Policy::lia`] computes the coupled-increase input for the subflow,
//! 4. `Subflow::on_packet` runs loss detection and congestion control,
//! 5. [`Policy::after_subflow_event`] (MPTCP joins, MMPTCP adapts its
//!    dup-ACK threshold and switches phase, RepSYN caps the losing replica),
//! 6. [`Policy::pump`] maps new data onto subflows with window space (by
//!    default round-robin over the established subflows),
//! 7. completion is checked ([`Policy::on_finish`] runs before the signals;
//!    RepFlow aborts the losing replica),
//! 8. the fluid handoff is considered over [`Policy::fluid_subflows`].
//!
//! Steps 6–8 run only in `Mode::Packet`, and in this order: a RepFlow
//! replica whose own ACK completes the flow still has data mapped onto it
//! first. A timer runs `Subflow::on_timer`, then step 5, and step 6 in
//! `Mode::Packet`.
//!
//! A connection lives until its flow is complete *and* every subflow is
//! quiescent (`Subflow::is_quiescent`); the activation that gets it there
//! ends with [`AgentCtx::retire`] and the simulator drops the agent.

use crate::subflow::{LiaParams, Subflow, SubflowUpdate};
use netsim::fluid::{pacing_rate_bps, FluidHandoff};
use netsim::{
    Agent, AgentCtx, AgentEvent, FlowId, Packet, PacketKind, Signal, SimDuration, SimTime,
};
use std::ops::{Deref, DerefMut};

/// The most subflows one connection may have. Subflow indices travel in a
/// `u8` packet field and in the top bits of timer tokens, and every subflow
/// is allocated when the connection is created, so the count is bounded
/// before anything is built.
pub const MAX_SUBFLOWS: usize = 64;

/// A connection's subflows, indexed by [`Subflow::index`]. A single-path
/// connection keeps its one subflow inline: a `Vec` of one costs an
/// allocation per flow and a cache miss per ACK, which the benchmark's
/// 189 000-connection `mice_storm_tcp` workload measured as 5 % of wall time
/// and 10 % of set-up.
#[derive(Debug)]
#[allow(clippy::large_enum_variant)] // the large variant is the common one
pub(crate) enum Subflows {
    One(Subflow),
    Many(Vec<Subflow>),
}

impl Deref for Subflows {
    type Target = [Subflow];

    fn deref(&self) -> &[Subflow] {
        match self {
            Subflows::One(subflow) => std::slice::from_ref(subflow),
            Subflows::Many(subflows) => subflows,
        }
    }
}

impl DerefMut for Subflows {
    fn deref_mut(&mut self) -> &mut [Subflow] {
        match self {
            Subflows::One(subflow) => std::slice::from_mut(subflow),
            Subflows::Many(subflows) => subflows,
        }
    }
}

/// Where a connection is in its life; it only ever moves forward.
/// `Connection::step` is the only place it changes; each edge below is one
/// of its arms.
///
/// ```text
///  Packet ─────────────── handoff ──────────────▶ Fluid
///    │ ↺ ACK or timer: pump                         │ ↺ ACK or timer: the subflows drain
///    │                                              │
///    │ the last byte's data ACK                     │ FluidComplete: abort every subflow
///    ▼                                              │
///  Done ◀───────────────────────────────────────────┘
///    ↺ ACK or timer: the subflows drain; retire once every subflow is quiescent
/// ```
///
/// The handoff needs the hybrid engine and a bounded elephant out of slow
/// start with more than the engine's threshold left to send. `Start`
/// signals `FlowStarted` and calls [`Policy::start`] in every mode.
/// `FluidComplete` in `Packet` takes `Fluid`'s arm, and a second one is
/// ignored. At `Finalize` a bounded flow still in `Packet` reports what it
/// sent beyond `data_acked` as redundant bytes; `Fluid` and `Done` report
/// nothing there. RepFlow's losing replica is not a connection state: it is
/// the subflow's `Abort`, which a `FluidComplete` also sends every subflow.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Mode {
    /// Mapping data onto subflows.
    Packet,
    /// The remainder of the flow has been handed to the fluid fast path: the
    /// connection stops mapping new data and waits for
    /// [`AgentEvent::FluidComplete`] (in-flight packets still drain normally).
    Fluid,
    /// Every byte is acknowledged (or delivered by the fluid engine).
    Done,
}

/// The connection-level state shared by every transport. Policies read and
/// steer it through their hooks.
#[derive(Debug)]
pub struct ConnState {
    pub(crate) flow: FlowId,
    /// Bytes to transfer; `None` is an unbounded background flow.
    pub(crate) total: Option<u64>,
    /// Every subflow the connection will ever use; which of them are
    /// started, and when, is policy.
    pub(crate) subflows: Subflows,
    /// Next connection-level byte to map onto a subflow.
    pub(crate) next_data_seq: u64,
    /// Connection-level cumulative data ACK.
    pub(crate) data_acked: u64,
    pub(crate) mode: Mode,
    /// Where the round-robin scheduler's next search starts, counted from
    /// the first subflow it schedules over.
    next_subflow: u8,
}

impl ConnState {
    /// Length of the next segment to map: one MSS, or the flow's tail; 0 once
    /// every byte has been mapped.
    pub(crate) fn next_segment_len(&self) -> u64 {
        let remaining = match self.total {
            Some(total) => total.saturating_sub(self.next_data_seq),
            None => u64::MAX,
        };
        u64::from(self.subflows[0].config().mss).min(remaining)
    }

    /// Map the next `len` bytes of the stream onto subflow `idx` and send them.
    pub(crate) fn send_next(&mut self, ctx: &mut AgentCtx<'_>, idx: usize, len: u64) {
        self.subflows[idx].send_segment(ctx, self.next_data_seq, len as u32);
        self.next_data_seq += len;
    }

    /// Round-robin over the established subflows from `first` on: map each
    /// next segment onto the first of them at or after the cursor with
    /// window space for it, until the stream is mapped or no window has room.
    pub(crate) fn pump_from(&mut self, ctx: &mut AgentCtx<'_>, first: usize) {
        let n = self.subflows.len() - first;
        loop {
            let len = self.next_segment_len();
            if len == 0 {
                return;
            }
            let cursor = usize::from(self.next_subflow);
            let Some(idx) = (0..n).map(|off| (cursor + off) % n).find(|&i| {
                let sf = &self.subflows[first + i];
                sf.is_established() && sf.window_space() >= len
            }) else {
                return;
            };
            self.next_subflow = ((idx + 1) % n) as u8;
            self.send_next(ctx, first + idx, len);
        }
    }
}

/// What distinguishes one transport from another. Every hook has a default:
/// together they describe a connection that opens subflow 0 at `Start`,
/// couples nothing, reacts to nothing, maps data round-robin over its
/// established subflows and never goes fluid.
pub trait Policy: Send {
    /// The transport's label in [`Agent::describe`].
    const NAME: &'static str;

    /// `Start`: open the subflows that exist from the first instant.
    fn start(&mut self, conn: &mut ConnState, ctx: &mut AgentCtx<'_>) {
        conn.subflows[0].start(ctx);
    }

    /// An ACK is about to reach its subflow.
    fn before_ack(&mut self, _conn: &mut ConnState, _now: SimTime) {}

    /// The coupled-increase parameters for an ACK on subflow `idx`; `None`
    /// is uncoupled Reno-style increase.
    fn lia(&self, _conn: &ConnState, _idx: usize) -> Option<LiaParams> {
        None
    }

    /// Subflow `idx` has just processed an ACK or a timer.
    fn after_subflow_event(
        &mut self,
        _conn: &mut ConnState,
        _ctx: &mut AgentCtx<'_>,
        _idx: usize,
        _update: SubflowUpdate,
    ) {
    }

    /// Map as much new data as the subflows' windows allow: by default
    /// round-robin over every established subflow.
    fn pump(&mut self, conn: &mut ConnState, ctx: &mut AgentCtx<'_>) {
        conn.pump_from(ctx, 0);
    }

    /// The subflows whose rates a fluid handoff would sum, or none while
    /// the connection must stay packet-exact.
    fn fluid_subflows<'a>(&self, _subflows: &'a [Subflow]) -> &'a [Subflow] {
        &[]
    }

    /// The flow has just completed.
    fn on_finish(&mut self, _conn: &mut ConnState, _ctx: &mut AgentCtx<'_>) {}
}

/// A sender: the shared connection core steered by transport policy `P`.
#[derive(Debug)]
pub struct Connection<P> {
    pub(crate) conn: ConnState,
    pub(crate) policy: P,
}

impl<P: Policy> Connection<P> {
    /// A connection of `count` subflows built by `subflow(index)`.
    pub(crate) fn with_subflows(
        flow: FlowId,
        total: Option<u64>,
        count: usize,
        mut subflow: impl FnMut(usize) -> Subflow,
        policy: P,
    ) -> Self {
        assert!(count >= 1, "a connection needs at least one subflow");
        assert!(count <= MAX_SUBFLOWS, "unreasonable subflow count");
        let subflows = match count {
            1 => Subflows::One(subflow(0)),
            _ => Subflows::Many((0..count).map(subflow).collect()),
        };
        Connection {
            conn: ConnState {
                flow,
                total,
                subflows,
                next_data_seq: 0,
                data_acked: 0,
                mode: Mode::Packet,
                next_subflow: 0,
            },
            policy,
        }
    }

    /// Has the whole transfer been acknowledged?
    pub fn is_completed(&self) -> bool {
        self.conn.mode == Mode::Done
    }

    /// Whether the remainder of the flow has been handed to the fluid engine
    /// and is still in its hands.
    pub fn is_fluid_mode(&self) -> bool {
        self.conn.mode == Mode::Fluid
    }

    /// Every subflow of the connection, started or not.
    pub(crate) fn subflows(&self) -> &[Subflow] {
        &self.conn.subflows
    }

    /// Subflow 0: the only subflow of a single-path transport, MPTCP's
    /// initial subflow, MMPTCP's packet-scatter flow.
    pub(crate) fn subflow(&self) -> &Subflow {
        &self.conn.subflows[0]
    }

    /// Total data bytes handed to the network across all subflows,
    /// including retransmissions and replica copies.
    pub fn total_bytes_sent(&self) -> u64 {
        self.subflows().iter().map(Subflow::bytes_sent).sum()
    }

    /// Say that the flow is complete — `total` bytes delivered, of which
    /// `fluid_bytes` by the fluid engine — and return its next mode.
    fn complete(&mut self, ctx: &mut AgentCtx<'_>, total: u64, fluid_bytes: u64) -> Mode {
        self.policy.on_finish(&mut self.conn, ctx);
        ctx.signal(Signal::FlowCompleted {
            flow: self.conn.flow,
            at: ctx.now(),
            bytes: total,
        });
        self.signal_redundant_bytes(ctx, self.total_bytes_sent() + fluid_bytes, total);
        Mode::Done
    }

    /// Emit [`Signal::RedundantBytes`] when the sender has put more data
    /// bytes on the wire than the application needed (`needed` = flow size
    /// at completion, bytes acknowledged at finalize). Zero excess emits
    /// nothing. One rule for every transport, so the metric compares
    /// replication against plain retransmission on equal terms.
    fn signal_redundant_bytes(&self, ctx: &mut AgentCtx<'_>, sent: u64, needed: u64) {
        let excess = sent.saturating_sub(needed);
        if excess > 0 {
            ctx.signal(Signal::RedundantBytes {
                flow: self.conn.flow,
                at: ctx.now(),
                bytes: excess,
            });
        }
    }

    /// Hand the remainder of the flow to the fluid fast path if the hybrid
    /// engine is on, the flow is a bounded elephant with more than the
    /// threshold left, and at least one eligible subflow has an RTT sample
    /// and has settled out of slow start (so the pacing cap approximates
    /// congestion avoidance). The cap is the sum of the eligible subflows'
    /// rates, so an MPTCP connection's aggregate is respected. Returns the
    /// connection's next mode.
    fn hand_off(&mut self, ctx: &mut AgentCtx<'_>) -> Mode {
        let Some(threshold) = ctx.fluid_threshold() else {
            return Mode::Packet;
        };
        let Some(total) = self.conn.total else {
            return Mode::Packet; // unbounded background flows stay packet-level
        };
        let remaining = total.saturating_sub(self.conn.next_data_seq);
        if remaining <= threshold {
            return Mode::Packet;
        }
        let eligible = self.policy.fluid_subflows(&self.conn.subflows);
        let Some(first) = eligible.first() else {
            return Mode::Packet;
        };
        let mut rate_cap_bps = 0u64;
        let mut base_rtt: Option<SimDuration> = None;
        let mut out_of_slow_start = false;
        for sf in eligible.iter().filter(|s| s.is_established()) {
            let Some(srtt) = sf.srtt() else { continue };
            out_of_slow_start |= !sf.in_slow_start();
            // BBR exports an explicit model-based pacing rate; loss-based
            // controllers fall back to the classic cwnd/srtt estimate.
            rate_cap_bps = rate_cap_bps.saturating_add(
                sf.cc_pacing_rate_bps()
                    .unwrap_or_else(|| pacing_rate_bps(sf.cwnd(), srtt)),
            );
            // Cap growth must run at the base (propagation) RTT, not the
            // smoothed RTT: srtt is queue-inflated at handoff time, and a
            // frozen inflated value would slow additive increase forever
            // (packet mode self-corrects via ack clocking; fluid can't).
            let base = sf.min_rtt().unwrap_or(srtt);
            base_rtt = Some(base_rtt.map_or(base, |cur| cur.min(base)));
        }
        let Some(srtt) = base_rtt else {
            return Mode::Packet;
        };
        if !out_of_slow_start {
            return Mode::Packet;
        }
        let cfg = first.config();
        ctx.request_fluid_handoff(FluidHandoff {
            template: first.fluid_template(self.conn.next_data_seq, cfg.mss, ctx.now()),
            remaining,
            base_bytes: self.conn.next_data_seq,
            rate_cap_bps,
            srtt,
            mss: cfg.mss,
            cc: cfg.cc.fluid(),
        });
        Mode::Fluid
    }

    /// Steps 1–5 of the hook order for an ACK or a SYN-ACK.
    fn on_ack(&mut self, ctx: &mut AgentCtx<'_>, pkt: &Packet) {
        let conn = &mut self.conn;
        conn.data_acked = conn.data_acked.max(pkt.data_ack);
        self.policy.before_ack(conn, ctx.now());
        let idx = usize::from(pkt.subflow);
        let lia = self.policy.lia(conn, idx);
        let update = match conn.subflows.get_mut(idx) {
            Some(sf) => sf.on_packet(ctx, pkt, lia),
            None => SubflowUpdate::default(),
        };
        self.policy.after_subflow_event(conn, ctx, idx, update);
    }

    /// A timer through its subflow, then step 5 of the hook order.
    fn on_timer(&mut self, ctx: &mut AgentCtx<'_>, token: u64) {
        let (idx, gen) = Subflow::decode_timer_token(token);
        let idx = usize::from(idx);
        let conn = &mut self.conn;
        let update = match conn.subflows.get_mut(idx) {
            Some(sf) => sf.on_timer(ctx, gen),
            None => SubflowUpdate::default(),
        };
        self.policy.after_subflow_event(conn, ctx, idx, update);
    }

    /// The connection's transition function: one arm per edge of the
    /// diagram beside [`Mode`], and the only place the mode changes.
    fn step(&mut self, ctx: &mut AgentCtx<'_>, event: AgentEvent) {
        use AgentEvent::{Finalize, FluidComplete, Start, Timer};
        use Mode::{Done, Fluid, Packet};
        self.conn.mode = match (self.conn.mode, event) {
            (mode, Start) => {
                ctx.signal(Signal::FlowStarted {
                    flow: self.conn.flow,
                    at: ctx.now(),
                    bytes: self.conn.total.unwrap_or(u64::MAX),
                });
                self.policy.start(&mut self.conn, ctx);
                mode
            }
            (mode, AgentEvent::Packet(pkt))
                if !matches!(pkt.kind, PacketKind::Ack | PacketKind::SynAck) =>
            {
                mode
            }
            (Packet, AgentEvent::Packet(pkt)) => {
                self.on_ack(ctx, &pkt);
                self.policy.pump(&mut self.conn, ctx);
                match self.conn.total {
                    Some(total) if self.conn.data_acked >= total => self.complete(ctx, total, 0),
                    _ => self.hand_off(ctx),
                }
            }
            (mode @ (Fluid | Done), AgentEvent::Packet(pkt)) => {
                self.on_ack(ctx, &pkt);
                mode
            }
            (Packet, Timer(token)) => {
                self.on_timer(ctx, token);
                self.policy.pump(&mut self.conn, ctx);
                Packet
            }
            (mode @ (Fluid | Done), Timer(token)) => {
                self.on_timer(ctx, token);
                mode
            }
            (Packet | Fluid, FluidComplete { bytes }) => {
                for sf in self.conn.subflows.iter_mut() {
                    sf.abort(ctx);
                }
                let total = self.conn.total.unwrap_or(self.conn.next_data_seq + bytes);
                self.complete(ctx, total, bytes)
            }
            (Done, FluidComplete { .. }) => Done,
            (Packet, Finalize) => {
                // The price of replication and retransmission must be visible
                // even (especially) for flows the run's time cap caught
                // unfinished. How far such a flow got is the receiver's to
                // report: `data_acked` is the largest data ACK it ever sent.
                if self.conn.total.is_some() {
                    let acked = self.conn.data_acked;
                    self.signal_redundant_bytes(ctx, self.total_bytes_sent(), acked);
                }
                Packet
            }
            (mode @ (Fluid | Done), Finalize) => mode,
        };
    }
}

impl<P: Policy> Agent for Connection<P> {
    fn handle(&mut self, ctx: &mut AgentCtx<'_>, event: AgentEvent) {
        self.step(ctx, event);
        // A complete flow maps no new data and every hook that could open a
        // subflow has already run; once the subflows are quiet too, no event
        // can make this connection send, arm a timer or signal again.
        if self.conn.mode == Mode::Done && self.conn.subflows.iter().all(Subflow::is_quiescent) {
            ctx.retire();
        }
    }

    fn describe(&self) -> String {
        format!(
            "{}-sender({}, {} subflows, {:?} bytes)",
            P::NAME,
            self.conn.flow,
            self.conn.subflows.len(),
            self.conn.total
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testing::Loopback;
    use crate::{TcpSender, TransportConfig};
    use netsim::Addr;
    use AgentEvent::{Finalize, FluidComplete, Timer};

    type Tcp = Loopback<TcpSender>;

    /// Run until the loss of one segment has ended slow start: the fast
    /// retransmit's own activation hands the remainder to the fluid engine.
    fn hand_off(l: &mut Tcp) {
        let mut lost = false;
        while l.handoffs.is_empty() {
            l.round(|p| {
                let hit = !lost && p.seq == 14_000;
                lost |= hit;
                hit
            });
        }
    }

    /// RepFlow's loser, or a join still open at `FluidComplete`: the SYN retry
    /// is cancelled and the state stays `SynSent`, so a SYN-ACK still in
    /// flight would open the subflow.
    fn abort_syn(l: &mut Tcp) {
        l.act(|tx, ctx| tx.conn.subflows[0].abort(ctx));
        l.deliver(Timer(l.timers[0].1));
        assert_eq!((l.sent.len(), l.armed.len()), (1, 1), "the SYN, once");
    }

    fn complete_twice(l: &mut Tcp) {
        hand_off(l);
        l.deliver(FluidComplete { bytes: 1 });
        l.deliver(FluidComplete { bytes: 1 });
    }

    /// The late ACKs and the stale RTO reach an agent the simulator would
    /// already have dropped.
    fn after_retiring(l: &mut Tcp) {
        hand_off(l);
        l.deliver(FluidComplete { bytes: 1 });
        assert!(l.retired && !l.to_rx.is_empty() && !l.timers.is_empty());
        l.round(|_| false);
        for (_, token) in std::mem::take(&mut l.timers) {
            l.deliver(Timer(token));
        }
    }

    /// Two lossless rounds; the run ends with the next window in flight.
    fn finalize_in_flight(l: &mut Tcp) {
        l.round(|_| false);
        l.round(|_| false);
        l.deliver(Finalize);
    }

    /// The run ends while the fluid engine still carries the remainder.
    fn finalize_fluid(l: &mut Tcp) {
        hand_off(l);
        l.deliver(Finalize);
    }

    fn complete_by_packets(l: &mut Tcp) {
        while !l.is_completed() {
            l.round(|_| false);
        }
    }

    /// One row per arm of `Connection::step`, named by its edge in the
    /// diagram beside `Mode`, on a TCP flow of `total` bytes under a 100 KB
    /// elephant threshold: the states the edge leaves behind
    /// (`[established, recovering, quiescent]` is subflow 0), and whether the
    /// flow reported what it sent beyond `data_acked` as redundant bytes
    /// (every other row reports none). A sender that retired on the way
    /// stays silent.
    #[test]
    fn each_arm_of_step_does_what_it_always_did() {
        use Mode::{Done, Fluid, Packet};
        type Row = (
            &'static str,
            Option<u64>,
            fn(&mut Tcp),
            Mode,
            [bool; 3],
            bool,
        );
        const FLOW: Option<u64> = Some(5_000_000);
        #[rustfmt::skip]
        let rows: [Row; 8] = [
            // The hole is repaired by packets while the remainder is fluid.
            ("Packet -> Fluid: handoff while recovering",
                FLOW, hand_off, Fluid, [true, true, false], false),
            ("Packet -> Done: the last byte's data ACK",
                Some(70_000), complete_by_packets, Done, [true, false, true], false),
            ("Packet, timer: abort during the handshake",
                FLOW, abort_syn, Packet, [false, false, true], false),
            ("Fluid -> Done at FluidComplete, then Done ignores a second one",
                FLOW, complete_twice, Done, [true, false, true], false),
            ("Done, ACK or timer: an activation after retirement",
                FLOW, after_retiring, Done, [true, false, true], false),
            ("Packet, Finalize: a bounded flow reports sent - data_acked",
                FLOW, finalize_in_flight, Packet, [true, false, false], true),
            ("Packet, Finalize: an unbounded flow reports nothing",
                None, finalize_in_flight, Packet, [true, false, false], false),
            // What the fluid engine carried goes unreported (ROADMAP item 13).
            ("Fluid, Finalize: reports nothing",
                FLOW, finalize_fluid, Fluid, [true, true, false], false),
        ];
        for (edge, total, scenario, mode, subflow, reports) in rows {
            let (flow, cfg) = (FlowId(1), TransportConfig::default());
            let tx = TcpSender::new(cfg, flow, Addr(0), Addr(1), 50_000, 80, total);
            let mut l = Loopback::new(flow, tx);
            l.fluid_threshold = Some(100_000);
            l.start();
            scenario(&mut l);
            let sf = &l.tx.conn.subflows[0];
            let found = [sf.is_established(), sf.is_recovering(), sf.is_quiescent()];
            assert_eq!((l.tx.conn.mode, found), (mode, subflow), "{edge}");
            assert_eq!(l.produced_after_retiring, 0, "{edge}");
            let redundant: Vec<u64> = l
                .signals
                .iter()
                .filter_map(|s| match s {
                    Signal::RedundantBytes { bytes, .. } => Some(*bytes),
                    _ => None,
                })
                .collect();
            let excess = l.tx.total_bytes_sent() - l.tx.conn.data_acked;
            assert!(!reports || excess > 0, "{edge}");
            let want: Vec<u64> = reports.then_some(excess).into_iter().collect();
            assert_eq!(redundant, want, "{edge}");
        }
    }
}
