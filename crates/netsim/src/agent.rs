//! The interface between the simulator and transport endpoints.
//!
//! A transport protocol implementation (TCP sender, MPTCP receiver, …) is an
//! [`Agent`] attached to a host under the connection's [`FlowId`]. The
//! simulator drives agents with [`AgentEvent`]s and agents act on the world
//! exclusively through the [`AgentCtx`] handed to them: sending packets,
//! arming timers and emitting measurement [`Signal`]s. This keeps the
//! transport crates completely decoupled from the engine internals.

use crate::fluid::FluidHandoff;
use crate::ids::FlowId;
use crate::packet::Packet;
use crate::rng::SimRng;
use crate::signal::Signal;
use crate::time::SimTime;

/// Something that happened which an agent must react to.
#[derive(Debug, Clone)]
pub enum AgentEvent {
    /// The application asked the agent to start (e.g. begin transmitting).
    Start,
    /// A timer previously set with [`AgentCtx::set_timer`] fired. The token is
    /// whatever the agent passed when arming it.
    Timer(u64),
    /// A packet addressed to this agent's flow arrived at the host.
    Packet(Packet),
    /// The fluid fast path finished delivering the remainder of this flow
    /// (`bytes` = the fluid-delivered byte count, i.e. the `remaining` the
    /// agent handed off). The agent — not the engine — emits the
    /// `FlowCompleted` signal, exactly as it would in packet mode.
    FluidComplete {
        /// Bytes delivered analytically by the fluid engine.
        bytes: u64,
    },
    /// The simulation is ending; emit any final measurements (e.g. progress of
    /// unbounded background flows).
    Finalize,
}

/// The capabilities an agent has while handling an event.
pub struct AgentCtx<'a> {
    now: SimTime,
    flow: FlowId,
    rng: &'a mut SimRng,
    out: &'a mut Vec<Packet>,
    timers: &'a mut Vec<(SimTime, u64)>,
    signals: &'a mut Vec<Signal>,
    trace: bool,
    fluid_threshold: Option<u64>,
    fluid_handoff: Option<FluidHandoff>,
    retire: bool,
}

impl<'a> AgentCtx<'a> {
    /// Construct a context. Only the simulator (and tests) should need this.
    pub fn new(
        now: SimTime,
        flow: FlowId,
        rng: &'a mut SimRng,
        out: &'a mut Vec<Packet>,
        timers: &'a mut Vec<(SimTime, u64)>,
        signals: &'a mut Vec<Signal>,
    ) -> Self {
        AgentCtx {
            now,
            flow,
            rng,
            out,
            timers,
            signals,
            trace: false,
            fluid_threshold: None,
            fluid_handoff: None,
            retire: false,
        }
    }

    /// Configure the fluid-handoff byte threshold for this activation. Set
    /// by the simulator when the hybrid engine is enabled; `None` (the
    /// default) means the packet engine is authoritative and transports
    /// must not hand flows off.
    pub fn set_fluid_threshold(&mut self, threshold: Option<u64>) {
        self.fluid_threshold = threshold;
    }

    /// The fluid-handoff byte threshold, if the hybrid engine is active: a
    /// transport whose *remaining* bytes exceed it (and which has left slow
    /// start) should hand the rest of the flow to the fluid fast path via
    /// [`AgentCtx::request_fluid_handoff`].
    pub fn fluid_threshold(&self) -> Option<u64> {
        self.fluid_threshold
    }

    /// Hand the remainder of this flow to the fluid fast path. The
    /// simulator collects the request after the activation and registers
    /// the flow with the fluid engine; from that point the transport must
    /// stop sending new data (in-flight packets still drain normally) and
    /// wait for [`AgentEvent::FluidComplete`]. At most one handoff per
    /// activation; later requests replace earlier ones.
    pub fn request_fluid_handoff(&mut self, handoff: FluidHandoff) {
        self.fluid_handoff = Some(handoff);
    }

    /// Take the handoff requested during this activation, if any. Called by
    /// the simulator after the agent returns.
    pub fn take_fluid_handoff(&mut self) -> Option<FluidHandoff> {
        self.fluid_handoff.take()
    }

    /// Declare this agent finished for good: it will never again send a
    /// packet, arm a timer or emit a signal, whatever event reaches it. The
    /// simulator removes the agent from its host after the activation, so
    /// timers it armed earlier and packets still in flight towards it find no
    /// agent and are dropped on arrival. An agent that must keep answering
    /// (a receiver ACKing late duplicates) must not retire.
    pub fn retire(&mut self) {
        self.retire = true;
    }

    /// Whether the agent retired during this activation. Read by the
    /// simulator after the agent returns.
    pub fn retired(&self) -> bool {
        self.retire
    }

    /// Enable (or disable) flight-recorder tracing for this activation. Set
    /// by the simulator from its experiment-wide tracing flag; agents should
    /// only *read* it via [`AgentCtx::trace_enabled`].
    pub(crate) fn set_trace_enabled(&mut self, on: bool) {
        self.trace = on;
    }

    /// Whether the experiment wants [`Signal::CwndSample`] telemetry from
    /// transports. Defaults to `false`, in which case transports must not
    /// construct samples at all — keeping the default hot path untouched.
    pub fn trace_enabled(&self) -> bool {
        self.trace
    }

    /// Current simulated time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// The flow this agent is registered under.
    pub fn flow(&self) -> FlowId {
        self.flow
    }

    /// The simulation's deterministic random number generator.
    pub fn rng(&mut self) -> &mut SimRng {
        self.rng
    }

    /// Hand a packet to the host's NIC for transmission.
    pub fn send(&mut self, packet: Packet) {
        self.out.push(packet);
    }

    /// Arm a timer that will fire at absolute time `at` with the given token.
    ///
    /// Timers cannot be cancelled; agents are expected to ignore stale
    /// firings (e.g. by comparing the token against a generation counter),
    /// which is both simpler and closer to how retransmission timers are
    /// usually implemented in simulators. A timer that outlives its agent
    /// ([`AgentCtx::retire`]) fires into an empty slot and is discarded,
    /// which is the routine end of every finished sender's last timers.
    pub fn set_timer(&mut self, at: SimTime, token: u64) {
        self.timers.push((at, token));
    }

    /// Emit a measurement signal towards the experiment harness.
    pub fn signal(&mut self, signal: Signal) {
        self.signals.push(signal);
    }
}

/// A transport endpoint (or any other host-resident protocol entity).
///
/// Agents must be `Send` so entire simulations can be moved across threads by
/// parameter-sweep harnesses (each simulation itself stays single-threaded).
pub trait Agent: Send {
    /// React to an event.
    fn handle(&mut self, ctx: &mut AgentCtx<'_>, event: AgentEvent);

    /// Short human-readable description, used in traces and debugging output.
    fn describe(&self) -> String {
        "agent".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::Addr;
    use crate::time::SimDuration;

    /// A trivial agent that echoes every data packet back as an ACK and
    /// signals completion after a fixed number of packets.
    struct Echo {
        received: u32,
        want: u32,
    }

    impl Agent for Echo {
        fn handle(&mut self, ctx: &mut AgentCtx<'_>, event: AgentEvent) {
            match event {
                AgentEvent::Packet(p) => {
                    self.received += 1;
                    ctx.send(p.reply_template());
                    if self.received == self.want {
                        ctx.signal(Signal::FlowCompleted {
                            flow: ctx.flow(),
                            at: ctx.now(),
                            bytes: 0,
                        });
                    }
                }
                AgentEvent::Start => ctx.set_timer(ctx.now() + SimDuration::from_millis(1), 7),
                AgentEvent::Timer(_) | AgentEvent::Finalize | AgentEvent::FluidComplete { .. } => {}
            }
        }
        fn describe(&self) -> String {
            "echo".into()
        }
    }

    #[test]
    fn ctx_collects_actions() {
        let mut rng = SimRng::new(1);
        let mut out = Vec::new();
        let mut timers = Vec::new();
        let mut signals = Vec::new();
        let mut agent = Echo {
            received: 0,
            want: 1,
        };

        let mut ctx = AgentCtx::new(
            SimTime::from_millis(10),
            FlowId(3),
            &mut rng,
            &mut out,
            &mut timers,
            &mut signals,
        );
        agent.handle(&mut ctx, AgentEvent::Start);
        let pkt = Packet::data(
            Addr(0),
            Addr(1),
            50_000,
            80,
            FlowId(3),
            0,
            0,
            0,
            100,
            SimTime::ZERO,
        );
        agent.handle(&mut ctx, AgentEvent::Packet(pkt));

        assert_eq!(out.len(), 1);
        assert_eq!(out[0].src, Addr(1));
        assert_eq!(timers, vec![(SimTime::from_millis(11), 7)]);
        assert_eq!(signals.len(), 1);
        assert_eq!(signals[0].flow(), FlowId(3));
        assert_eq!(agent.describe(), "echo");
    }
}
