//! The discrete-event simulation engine.
//!
//! [`Simulator`] owns the network graph, the event calendar, the clock and
//! the deterministic RNG. It advances by popping the earliest event and
//! dispatching it: packet deliveries to switches (which forward) or hosts
//! (which hand them to transport agents), transmit-complete notifications to
//! links, and timers / start requests to agents.

use crate::agent::{Agent, AgentCtx, AgentEvent};
use crate::event::{Event, EventQueue};
use crate::fluid::{FluidEngine, FluidHandoff};
use crate::ids::{FlowId, LinkId, NodeId};
use crate::link::StartedTransmission;
use crate::network::Network;
use crate::packet::{Packet, PacketArena, PacketRef};
use crate::rng::SimRng;
use crate::signal::Signal;
use crate::time::SimTime;
use serde::{Deserialize, Serialize};

/// Engine-wide counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct SimCounters {
    /// Events processed so far.
    pub events_processed: u64,
    /// Packets delivered to hosts, [`SimCounters::misrouted`] ones included.
    pub delivered_to_hosts: u64,
    /// Packets forwarded by switches.
    pub forwarded: u64,
    /// Packets dropped anywhere (full queues or unroutable).
    pub dropped: u64,
    /// Packets a host could not send because it has no uplink.
    pub unsendable: u64,
    /// Packets delivered to a host other than their destination (a routing
    /// bug), discarded there instead of reaching an agent.
    pub misrouted: u64,
}

/// The discrete-event simulator.
pub struct Simulator {
    network: Network,
    queue: EventQueue,
    /// In-flight packets, owned here and referenced from `Delivery` events by
    /// small generational handles.
    arena: PacketArena,
    now: SimTime,
    rng: SimRng,
    signals: Vec<Signal>,
    counters: SimCounters,
    /// When true, every agent activation sees `AgentCtx::trace_enabled()` and
    /// transports emit `Signal::CwndSample` telemetry. Off by default.
    trace_flows: bool,
    // Reusable scratch buffers for agent activations (avoids per-event
    // allocation).
    scratch_out: Vec<Packet>,
    scratch_timers: Vec<(SimTime, u64)>,
    /// The fluid fast path (see [`crate::fluid`]). Dormant — and the packet
    /// engine byte-identical to a build without it — unless a handoff
    /// threshold is installed.
    fluid: FluidEngine,
    /// `Some(threshold)` enables the hybrid engine: transports see the
    /// threshold via [`AgentCtx::fluid_threshold`] and may hand elephant
    /// remainders to the fluid engine.
    fluid_threshold: Option<u64>,
    /// Earliest `FluidEpoch` event currently in the calendar, for
    /// coalescing (stale later events recompute harmlessly).
    fluid_epoch_at: Option<SimTime>,
}

impl Simulator {
    /// Create a simulator over a finished network graph.
    pub fn new(network: Network, seed: u64) -> Self {
        Simulator {
            network,
            queue: EventQueue::new(),
            arena: PacketArena::with_capacity(256),
            now: SimTime::ZERO,
            rng: SimRng::new(seed),
            signals: Vec::new(),
            counters: SimCounters::default(),
            trace_flows: false,
            scratch_out: Vec::with_capacity(64),
            scratch_timers: Vec::with_capacity(16),
            fluid: FluidEngine::new(),
            fluid_threshold: None,
            fluid_epoch_at: None,
        }
    }

    /// Enable the hybrid fluid/packet engine with the given elephant byte
    /// threshold, or disable it with `None` (the default — pure packet
    /// mode). With a threshold installed, transports that opt in hand a
    /// flow's remainder to the fluid fast path once it has left slow start
    /// and more than `threshold` bytes remain.
    pub fn set_fluid_threshold(&mut self, threshold: Option<u64>) {
        self.fluid_threshold = threshold;
    }

    /// Bytes delivered analytically by the fluid fast path so far (the
    /// fluid term of the experiment-level conservation ledger).
    pub fn fluid_delivered_bytes(&self) -> u64 {
        self.fluid.delivered_bytes()
    }

    /// Number of flows currently in fluid mode.
    pub fn fluid_flows_active(&self) -> usize {
        self.fluid.len()
    }

    /// Tell the fluid fast path the topology changed (link failure or
    /// repair): schedules an immediate epoch so paths are re-walked and
    /// shares recomputed. No epoch is scheduled when the hybrid engine is
    /// off or idle.
    ///
    /// The contract: call this after *any* routing mutation made while the
    /// simulator runs (`Switch::remove_link`, `Switch::set_route`, a new
    /// link or group). Fluid paths are walked at handoff and re-walked only
    /// after this call, so a mutation left unannounced keeps resident fluid
    /// flows on their old paths (debug builds panic at the next epoch).
    pub fn notify_topology_changed(&mut self) {
        self.fluid.topology_changed();
        if self.fluid_threshold.is_some() && !self.fluid.is_empty() {
            let now = self.now;
            self.schedule_fluid_epoch(now);
        }
    }

    /// Current simulated time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// The network graph (read access).
    pub fn network(&self) -> &Network {
        &self.network
    }

    /// The network graph (mutable access, e.g. for installing agents during
    /// set-up or inspecting statistics afterwards).
    pub fn network_mut(&mut self) -> &mut Network {
        &mut self.network
    }

    /// Engine counters.
    pub fn counters(&self) -> SimCounters {
        self.counters
    }

    /// Remove and return all signals emitted so far.
    pub fn drain_signals(&mut self) -> Vec<Signal> {
        std::mem::take(&mut self.signals)
    }

    /// Enable flight-recorder flow tracing: every subsequent agent activation
    /// sees [`AgentCtx::trace_enabled`] and transports emit
    /// [`Signal::CwndSample`] telemetry alongside the regular signal stream.
    /// Off by default; leaving it off keeps the engine's behaviour and output
    /// byte-identical to a build without telemetry.
    pub fn set_flow_tracing(&mut self, on: bool) {
        self.trace_flows = on;
    }

    /// Install `agent` for `flow` on host `host`.
    pub fn register_agent(&mut self, host: NodeId, flow: FlowId, agent: Box<dyn Agent>) {
        self.network.host_mut(host).register_agent(flow, agent);
    }

    /// Schedule agent `flow` on `host` to receive [`AgentEvent::Start`] at `at`.
    pub fn schedule_flow_start(&mut self, at: SimTime, host: NodeId, flow: FlowId) {
        self.queue
            .schedule(at, Event::FlowStart { node: host, flow });
    }

    /// Number of events waiting in the calendar.
    pub fn pending_events(&self) -> usize {
        self.queue.len()
    }

    /// Number of packets currently in flight (owned by the packet arena).
    pub fn in_flight_packets(&self) -> usize {
        self.arena.len()
    }

    /// Advance the clock to `at` and dispatch one popped event.
    fn process(&mut self, at: SimTime, event: Event) {
        debug_assert!(at >= self.now, "event scheduled in the past");
        self.now = at;
        self.counters.events_processed += 1;
        match event {
            Event::Delivery { link, packet } => self.handle_delivery(link, packet),
            Event::TransmitComplete { link } => self.handle_transmit_complete(link),
            Event::AgentTimer { node, flow, token } => {
                self.dispatch_agent(node, flow, AgentEvent::Timer(token));
            }
            Event::FlowStart { node, flow } => {
                self.dispatch_agent(node, flow, AgentEvent::Start);
            }
            Event::FluidEpoch => self.handle_fluid_epoch(),
        }
    }

    /// Run until simulated time reaches `until` (inclusive of events at
    /// exactly `until`) or the calendar empties.
    ///
    /// The clock is always left at `until` — including when the calendar
    /// empties mid-window or was empty to begin with — so back-to-back
    /// `run_until` calls advance time monotonically and interval-based
    /// harness logic (progress sampling, load injection) can rely on `now()`
    /// afterwards.
    pub fn run_until(&mut self, until: SimTime) {
        // Bounded pop: locates the next event once and leaves it pending if
        // it lies beyond the window.
        while let Some((at, event)) = self.queue.pop_at_or_before(until) {
            self.process(at, event);
        }
        if self.now < until {
            self.now = until;
        }
    }

    /// Send [`AgentEvent::Finalize`] to every agent on every host so they can
    /// emit closing measurements (e.g. background-flow progress reports).
    pub fn finalize(&mut self) {
        if self.fluid_threshold.is_some() && !self.fluid.is_empty() {
            let (completions, progress) = self.fluid.finalize(self.now, &mut self.network);
            for c in completions {
                self.dispatch_agent(c.node, c.flow, AgentEvent::FluidComplete { bytes: c.bytes });
            }
            // Unfinished fluid flows: the engine reports their cumulative
            // progress (the transport froze its own byte count at handoff).
            self.signals.extend(progress);
        }
        let hosts: Vec<NodeId> = self.network.hosts().to_vec();
        // Room for one report per resident agent up front: grown by
        // doubling, the buffer would hold up to twice that at its peak.
        let resident: usize = hosts
            .iter()
            .filter_map(|&h| self.network.node(h).as_host())
            .map(|h| h.agent_count())
            .sum();
        self.signals.reserve(resident);
        for host in hosts {
            let flows = self
                .network
                .node(host)
                .as_host()
                .map(|h| h.agent_flows())
                .unwrap_or_default();
            for flow in flows {
                self.dispatch_agent(host, flow, AgentEvent::Finalize);
            }
        }
    }

    // --- event handlers -------------------------------------------------

    fn handle_delivery(&mut self, link: LinkId, handle: PacketRef) {
        let packet = self.arena.take(handle);
        let to = self.network.link(link).to;
        if self.network.node(to).is_switch() {
            let out = self.network.switch_mut(to).forward(&packet);
            match out {
                Some(next) => {
                    self.counters.forwarded += 1;
                    self.offer_to_link(next, packet);
                }
                None => {
                    self.counters.dropped += 1;
                }
            }
        } else {
            self.counters.delivered_to_hosts += 1;
            let host = self.network.node(to).as_host();
            if host.is_some_and(|h| h.addr != packet.dst) {
                self.counters.misrouted += 1;
                return;
            }
            let flow = packet.flow;
            self.with_agent_ctx(to, flow, |host, ctx| {
                host.deliver(ctx, packet);
            });
        }
    }

    fn handle_transmit_complete(&mut self, link: LinkId) {
        if let Some(tx) = self.network.link_mut(link).transmit_complete(self.now) {
            self.schedule_transmission(link, tx);
        }
    }

    /// Schedule the `TransmitComplete` and the `Delivery` of a transmission
    /// that just started on `link`, in that order: schedule order breaks
    /// same-instant ties (determinism rule 3), so it is pinned behaviour.
    fn schedule_transmission(&mut self, link: LinkId, tx: StartedTransmission) {
        self.queue
            .schedule(tx.transmit_done_at, Event::TransmitComplete { link });
        let packet = self.arena.insert(tx.packet);
        self.queue
            .schedule(tx.delivered_at, Event::Delivery { link, packet });
    }

    fn dispatch_agent(&mut self, node: NodeId, flow: FlowId, event: AgentEvent) {
        self.with_agent_ctx(node, flow, |host, ctx| {
            host.dispatch(ctx, flow, event);
        });
    }

    /// Run `f` with the host and a fresh agent context, then flush whatever
    /// the agent produced (outgoing packets, timers) into the engine. An agent
    /// that retired during the activation is removed from the host; what it
    /// produced in that last activation is still flushed.
    fn with_agent_ctx<F>(&mut self, node: NodeId, flow: FlowId, f: F)
    where
        F: FnOnce(&mut crate::host::Host, &mut AgentCtx<'_>),
    {
        let mut out = std::mem::take(&mut self.scratch_out);
        let mut timers = std::mem::take(&mut self.scratch_timers);
        out.clear();
        timers.clear();
        let handoff;
        {
            let host = self.network.host_mut(node);
            let mut ctx = AgentCtx::new(
                self.now,
                flow,
                &mut self.rng,
                &mut out,
                &mut timers,
                &mut self.signals,
            );
            ctx.set_trace_enabled(self.trace_flows);
            ctx.set_fluid_threshold(self.fluid_threshold);
            f(host, &mut ctx);
            handoff = ctx.take_fluid_handoff();
            if ctx.retired() {
                host.remove_agent(flow);
            }
        }
        for packet in out.drain(..) {
            self.send_from_host(node, packet);
        }
        for (at, token) in timers.drain(..) {
            self.queue
                .schedule(at, Event::AgentTimer { node, flow, token });
        }
        self.scratch_out = out;
        self.scratch_timers = timers;
        if let Some(h) = handoff {
            self.accept_fluid_handoff(node, h);
        }
    }

    /// Register a transport's fluid handoff and schedule the arrival epoch.
    fn accept_fluid_handoff(&mut self, node: NodeId, handoff: FluidHandoff) {
        if self.fluid_threshold.is_none() {
            return;
        }
        self.fluid.accept(self.now, node, handoff, &self.network);
        let now = self.now;
        self.schedule_fluid_epoch(now);
    }

    /// Schedule a `FluidEpoch` at `at` unless an earlier one is already in
    /// the calendar.
    fn schedule_fluid_epoch(&mut self, at: SimTime) {
        let at = at.max(self.now);
        if self.fluid_epoch_at.is_none_or(|t| at < t) {
            self.fluid_epoch_at = Some(at);
            self.queue.schedule(at, Event::FluidEpoch);
        }
    }

    /// Run one fluid epoch: advance fluid flows, hand completions back to
    /// their transports, and reschedule.
    fn handle_fluid_epoch(&mut self) {
        if self.fluid_epoch_at == Some(self.now) {
            self.fluid_epoch_at = None;
        }
        if self.fluid_threshold.is_none() || self.fluid.is_empty() {
            return;
        }
        let outcome = self.fluid.epoch(self.now, &mut self.network);
        for c in outcome.completions {
            self.dispatch_agent(c.node, c.flow, AgentEvent::FluidComplete { bytes: c.bytes });
        }
        if let Some(next) = outcome.next_epoch {
            self.schedule_fluid_epoch(next);
        }
    }

    fn send_from_host(&mut self, node: NodeId, packet: Packet) {
        let uplink = self
            .network
            .node(node)
            .as_host()
            .and_then(|h| h.select_uplink(&packet));
        match uplink {
            Some(link) => self.offer_to_link(link, packet),
            None => {
                self.counters.unsendable += 1;
            }
        }
    }

    fn offer_to_link(&mut self, link: LinkId, packet: Packet) {
        let now = self.now;
        let result = self.network.link_mut(link).offer(now, packet);
        match result {
            Ok(Some(tx)) => self.schedule_transmission(link, tx),
            Ok(None) => {}
            Err(_) => {
                self.counters.dropped += 1;
                // A packet drop on a link shared with fluid flows is
                // congestion feedback for them too: Reno-halve their caps
                // at an immediate epoch.
                if self.fluid_threshold.is_some() && self.fluid.note_drop(link) {
                    self.schedule_fluid_epoch(now);
                }
            }
        }
    }
}

impl std::fmt::Debug for Simulator {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let [active, level0, level1, level2, overflow] = self.queue.tier_lens();
        f.debug_struct("Simulator")
            .field("now", &self.now)
            .field(
                "pending_events",
                &format_args!(
                    "{} (active {active}, level0 {level0}, level1 {level1}, \
                     level2 {level2}, overflow {overflow})",
                    self.queue.len()
                ),
            )
            .field("counters", &self.counters)
            .field("nodes", &self.network.node_count())
            .field("links", &self.network.link_count())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::Addr;
    use crate::link::LinkConfig;
    use crate::packet::{Packet, PacketKind};
    use crate::queue::QueueConfig;
    use crate::switch::SwitchLayer;
    use crate::time::SimDuration;

    /// Minimal stop-and-wait sender used to exercise the engine end to end.
    struct StopAndWaitSender {
        src: Addr,
        dst: Addr,
        flow: FlowId,
        segments_left: u32,
        seq: u64,
        payload: u32,
    }

    impl Agent for StopAndWaitSender {
        fn handle(&mut self, ctx: &mut AgentCtx<'_>, event: AgentEvent) {
            match event {
                AgentEvent::Start => {
                    ctx.signal(Signal::FlowStarted {
                        flow: self.flow,
                        at: ctx.now(),
                        bytes: (self.segments_left * self.payload) as u64,
                    });
                    self.send_next(ctx);
                }
                AgentEvent::Packet(p) if p.kind == PacketKind::Ack => {
                    self.segments_left -= 1;
                    if self.segments_left == 0 {
                        ctx.signal(Signal::FlowCompleted {
                            flow: self.flow,
                            at: ctx.now(),
                            bytes: self.seq,
                        });
                    } else {
                        self.send_next(ctx);
                    }
                }
                _ => {}
            }
        }
    }

    impl StopAndWaitSender {
        fn send_next(&mut self, ctx: &mut AgentCtx<'_>) {
            let pkt = Packet::data(
                self.src,
                self.dst,
                50_000,
                80,
                self.flow,
                0,
                self.seq,
                self.seq,
                self.payload,
                ctx.now(),
            );
            self.seq += self.payload as u64;
            ctx.send(pkt);
        }
    }

    /// Receiver that ACKs every data packet.
    struct AckEverything;
    impl Agent for AckEverything {
        fn handle(&mut self, ctx: &mut AgentCtx<'_>, event: AgentEvent) {
            if let AgentEvent::Packet(p) = event {
                if p.kind == PacketKind::Data {
                    let mut ack = p.reply_template();
                    ack.ack = p.seq + p.payload as u64;
                    ack.sent_at = ctx.now();
                    ctx.send(ack);
                }
            }
        }
    }

    fn two_host_network() -> (Network, NodeId, NodeId) {
        two_host_network_with(QueueConfig::default())
    }

    fn two_host_network_with(queue: QueueConfig) -> (Network, NodeId, NodeId) {
        let mut net = Network::new();
        let h0 = net.add_host();
        let h1 = net.add_host();
        let sw = net.add_switch(SwitchLayer::Edge, 2);
        let cfg = LinkConfig {
            rate_bps: 1_000_000_000,
            delay: SimDuration::from_micros(10),
            queue,
        };
        let (_h0_up, h0_down) = net.add_duplex_link(h0, sw, cfg);
        let (_h1_up, h1_down) = net.add_duplex_link(h1, sw, cfg);
        // Switch routes: to host 0 via its downlink, to host 1 likewise.
        let sw_ref = net.switch_mut(sw);
        let g0 = sw_ref.add_group(vec![h0_down]);
        let g1 = sw_ref.add_group(vec![h1_down]);
        sw_ref.set_route(Addr(0), g0);
        sw_ref.set_route(Addr(1), g1);
        (net, h0, h1)
    }

    /// Drain the calendar, leaving the clock at the last event.
    fn run(sim: &mut Simulator) {
        while let Some((at, event)) = sim.queue.pop() {
            sim.process(at, event);
        }
    }

    fn run_transfer(segments: u32) -> (Simulator, Vec<Signal>) {
        let (net, h0, h1) = two_host_network();
        let mut sim = Simulator::new(net, 7);
        let flow = FlowId(1);
        sim.register_agent(
            h0,
            flow,
            Box::new(StopAndWaitSender {
                src: Addr(0),
                dst: Addr(1),
                flow,
                segments_left: segments,
                seq: 0,
                payload: 1400,
            }),
        );
        sim.register_agent(h1, flow, Box::new(AckEverything));
        sim.schedule_flow_start(SimTime::from_millis(1), h0, flow);
        run(&mut sim);
        let signals = sim.drain_signals();
        (sim, signals)
    }

    #[test]
    fn end_to_end_stop_and_wait_transfer() {
        let (sim, signals) = run_transfer(10);
        let completed = signals
            .iter()
            .find(|s| matches!(s, Signal::FlowCompleted { .. }))
            .expect("flow should complete");
        assert_eq!(completed.flow(), FlowId(1));
        // 10 data packets and 10 ACKs delivered to hosts.
        assert_eq!(sim.counters().delivered_to_hosts, 20);
        // Every packet traversed exactly one switch.
        assert_eq!(sim.counters().forwarded, 20);
        assert_eq!(sim.counters().dropped, 0);
    }

    #[test]
    fn stop_and_wait_latency_matches_analysis() {
        // One segment: data (1454B wire) + ACK (54B) over two 1 Gbps hops with
        // 10 us propagation each. Completion time relative to start:
        //   data: 2 * (tx 11.632us + prop 10us)  [store-and-forward]
        //   ack:  2 * (tx 0.432us + prop 10us)
        let (_, signals) = run_transfer(1);
        let start = signals
            .iter()
            .find_map(|s| match s {
                Signal::FlowStarted { at, .. } => Some(*at),
                _ => None,
            })
            .unwrap();
        let done = signals
            .iter()
            .find_map(|s| match s {
                Signal::FlowCompleted { at, .. } => Some(*at),
                _ => None,
            })
            .unwrap();
        let elapsed = done - start;
        let data_wire = (1400 + crate::packet::HEADER_BYTES) as u64;
        let ack_wire = crate::packet::HEADER_BYTES as u64;
        let expected = SimDuration::transmission(data_wire, 1_000_000_000) * 2
            + SimDuration::transmission(ack_wire, 1_000_000_000) * 2
            + SimDuration::from_micros(10) * 4;
        assert_eq!(elapsed, expected, "elapsed {elapsed} expected {expected}");
    }

    #[test]
    fn identical_seeds_reproduce_identical_runs() {
        let (sim_a, sig_a) = run_transfer(25);
        let (sim_b, sig_b) = run_transfer(25);
        assert_eq!(sig_a, sig_b);
        assert_eq!(sim_a.counters(), sim_b.counters());
    }

    #[test]
    fn run_until_respects_bound() {
        let (net, h0, h1) = two_host_network();
        let mut sim = Simulator::new(net, 7);
        let flow = FlowId(1);
        sim.register_agent(
            h0,
            flow,
            Box::new(StopAndWaitSender {
                src: Addr(0),
                dst: Addr(1),
                flow,
                segments_left: 1000,
                seq: 0,
                payload: 1400,
            }),
        );
        sim.register_agent(h1, flow, Box::new(AckEverything));
        sim.schedule_flow_start(SimTime::from_millis(1), h0, flow);
        sim.run_until(SimTime::from_millis(2));
        assert_eq!(sim.now(), SimTime::from_millis(2));
        assert!(sim.pending_events() > 0, "transfer should still be running");
    }

    #[test]
    fn debug_splits_pending_events_by_calendar_tier() {
        let (net, h0, _) = two_host_network();
        let mut sim = Simulator::new(net, 7);
        for (i, at) in [(1, SimTime::from_millis(1)), (2, SimTime::from_secs(30))] {
            sim.schedule_flow_start(at, h0, FlowId(i));
        }
        let tiers = sim.queue.tier_lens();
        assert_eq!(tiers.iter().sum::<usize>(), sim.pending_events());
        assert!(
            format!("{sim:?}")
                .contains("pending_events: 2 (active 0, level0 0, level1 1, level2 0, overflow 1)"),
            "{sim:?}"
        );
    }

    #[test]
    fn finalize_reaches_agents() {
        struct FinalizeProbe;
        impl Agent for FinalizeProbe {
            fn handle(&mut self, ctx: &mut AgentCtx<'_>, event: AgentEvent) {
                if matches!(event, AgentEvent::Finalize) {
                    ctx.signal(Signal::FlowProgress {
                        flow: ctx.flow(),
                        at: ctx.now(),
                        bytes: 42,
                    });
                }
            }
        }
        let (net, h0, _h1) = two_host_network();
        let mut sim = Simulator::new(net, 1);
        sim.register_agent(h0, FlowId(9), Box::new(FinalizeProbe));
        sim.finalize();
        let signals = sim.drain_signals();
        assert_eq!(signals.len(), 1);
        assert!(matches!(signals[0], Signal::FlowProgress { bytes: 42, .. }));
    }

    #[test]
    fn a_retiring_agent_is_removed_after_its_last_activation_is_flushed() {
        /// Arms a timer, signals and retires, all in its first activation;
        /// would signal again if anything reached it afterwards.
        struct OneShot;
        impl Agent for OneShot {
            fn handle(&mut self, ctx: &mut AgentCtx<'_>, _event: AgentEvent) {
                ctx.set_timer(ctx.now() + SimDuration::from_millis(1), 0);
                ctx.signal(Signal::FlowProgress {
                    flow: ctx.flow(),
                    at: ctx.now(),
                    bytes: 0,
                });
                ctx.retire();
            }
        }
        let (net, h0, _h1) = two_host_network();
        let mut sim = Simulator::new(net, 1);
        let flow = FlowId(4);
        sim.register_agent(h0, flow, Box::new(OneShot));
        sim.schedule_flow_start(SimTime::from_millis(1), h0, flow);
        sim.run_until(SimTime::from_millis(1));
        let host = |sim: &Simulator| sim.network().node(h0).as_host().unwrap().agent_count();
        assert_eq!(host(&sim), 0, "retired agents leave their host");
        assert_eq!(sim.pending_events(), 1, "its last timer is still armed");
        run(&mut sim);
        sim.finalize();
        assert_eq!(sim.counters().events_processed, 2, "the timer fired");
        assert_eq!(sim.drain_signals().len(), 1, "into nothing");
    }

    #[test]
    fn run_until_advances_clock_when_calendar_empties_mid_window() {
        // Regression: the clock must land on `until` even when the last event
        // fires well before the window ends (and when the calendar was empty
        // to begin with), so interval-driven harness loops see monotone time.
        let (net, h0, h1) = two_host_network();
        let mut sim = Simulator::new(net, 7);
        let flow = FlowId(1);
        sim.register_agent(
            h0,
            flow,
            Box::new(StopAndWaitSender {
                src: Addr(0),
                dst: Addr(1),
                flow,
                segments_left: 1,
                seq: 0,
                payload: 1400,
            }),
        );
        sim.register_agent(h1, flow, Box::new(AckEverything));
        sim.schedule_flow_start(SimTime::from_millis(1), h0, flow);
        // The one-segment transfer finishes within ~1.05 ms; the window ends
        // at 50 ms.
        sim.run_until(SimTime::from_millis(50));
        assert_eq!(sim.pending_events(), 0, "calendar must have emptied");
        assert_eq!(sim.now(), SimTime::from_millis(50));
        // An empty calendar still advances the clock.
        sim.run_until(SimTime::from_millis(80));
        assert_eq!(sim.now(), SimTime::from_millis(80));
        // ... but never backwards.
        sim.run_until(SimTime::from_millis(10));
        assert_eq!(sim.now(), SimTime::from_millis(80));
    }

    #[test]
    fn schedule_order_decides_an_arrival_at_the_instant_the_transmitter_frees() {
        // Determinism rule 3 at a queue: the downlink to h1 has one packet on
        // the wire and its one-packet queue full when a third packet reaches
        // the switch in the very nanosecond the wire frees.
        let run_tie = |arrival_scheduled_first: bool| {
            let (net, h0, h1) = two_host_network_with(QueueConfig {
                limit_packets: 1,
                ..QueueConfig::default()
            });
            let mut sim = Simulator::new(net, 7);
            let links = sim.network().links();
            let uplink = links.iter().find(|l| l.from == h0).unwrap().id;
            let downlink = links.iter().find(|l| l.to == h1).unwrap().id;
            let pkt = |seq| {
                let (src, dst) = (Addr(0), Addr(1));
                Packet::data(src, dst, 1, 2, FlowId(1), 0, seq, seq, 1400, SimTime::ZERO)
            };
            let wire = u64::from(pkt(0).wire_bytes());
            let frees_at = SimTime::ZERO + SimDuration::transmission(wire, 1_000_000_000);
            let arrive = |sim: &mut Simulator| {
                let arrival = Event::Delivery {
                    link: uplink,
                    packet: sim.arena.insert(pkt(2)),
                };
                sim.queue.schedule(frees_at, arrival);
            };
            if arrival_scheduled_first {
                arrive(&mut sim);
            }
            sim.offer_to_link(downlink, pkt(0)); // on the wire until `frees_at`
            sim.offer_to_link(downlink, pkt(1)); // fills the queue
            if !arrival_scheduled_first {
                arrive(&mut sim);
            }
            run(&mut sim);
            (sim.counters().dropped, sim.counters().delivered_to_hosts)
        };
        assert_eq!(run_tie(false), (0, 3), "the transmitter freed first");
        assert_eq!(run_tie(true), (1, 2), "the packet arrived first");
    }

    #[test]
    fn in_flight_packets_return_to_arena() {
        let (sim, _signals) = run_transfer(10);
        assert_eq!(sim.in_flight_packets(), 0, "arena must drain with calendar");
    }

    #[test]
    fn unsendable_packets_are_counted() {
        let mut net = Network::new();
        let h0 = net.add_host(); // no uplink
        let mut sim = Simulator::new(net, 1);
        let pkt = |dst| {
            Packet::data(
                Addr(0),
                Addr(dst),
                1,
                2,
                FlowId(1),
                0,
                0,
                0,
                10,
                SimTime::ZERO,
            )
        };
        sim.send_from_host(h0, pkt(0));
        assert_eq!(sim.counters().unsendable, 1);
        // So is a packet delivered to a host it is not addressed to.
        let (net, _, h1) = two_host_network();
        let mut sim = Simulator::new(net, 1);
        let links = sim.network().links();
        let downlink = links.iter().find(|l| l.to == h1).unwrap().id;
        sim.offer_to_link(downlink, pkt(0));
        run(&mut sim);
        let c = sim.counters();
        assert_eq!((c.delivered_to_hosts, c.misrouted), (1, 1));
    }
}
