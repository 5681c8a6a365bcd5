//! End hosts (servers).
//!
//! A host owns its attachment links (one for single-homed topologies, several
//! for the multi-homed designs the paper's roadmap discusses) and a table of
//! transport agents keyed by flow id. Packet demultiplexing is by flow id,
//! which all subflows of a connection share — this sidesteps the fact that
//! MMPTCP's packet-scatter phase deliberately varies the source port per
//! packet, making classic 5-tuple demux unusable.

use crate::agent::{Agent, AgentCtx, AgentEvent};
use crate::ids::{Addr, FlowId, FlowMap, LinkId, NodeId};
use crate::packet::Packet;

/// An end host.
pub struct Host {
    /// This host's node id.
    pub id: NodeId,
    /// This host's network address.
    pub addr: Addr,
    /// Outgoing attachment links (towards edge switches), in attachment order.
    pub uplinks: Vec<LinkId>,
    /// Salt used to pick among multiple uplinks (multi-homed hosts).
    pub ecmp_salt: u64,
    agents: FlowMap<Box<dyn Agent>>,
}

impl std::fmt::Debug for Host {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Host")
            .field("id", &self.id)
            .field("addr", &self.addr)
            .field("uplinks", &self.uplinks)
            .field("agents", &self.agents.len())
            .finish()
    }
}

impl Host {
    /// Create a host. Uplinks are attached later by the topology builder.
    pub(crate) fn new(id: NodeId, addr: Addr, ecmp_salt: u64) -> Self {
        Host {
            id,
            addr,
            uplinks: Vec::new(),
            ecmp_salt,
            agents: FlowMap::default(),
        }
    }

    /// Attach an outgoing link.
    pub(crate) fn attach_uplink(&mut self, link: LinkId) {
        self.uplinks.push(link);
    }

    /// Install an agent under `flow`. Replaces (and returns) any previous
    /// agent registered under the same flow.
    pub(crate) fn register_agent(
        &mut self,
        flow: FlowId,
        agent: Box<dyn Agent>,
    ) -> Option<Box<dyn Agent>> {
        self.agents.insert(flow, agent)
    }

    /// Remove the agent registered under `flow`. The simulator calls this
    /// when the agent retires ([`AgentCtx::retire`]); later packets and timers
    /// for the flow take the no-such-agent arms of [`Host::deliver`] and
    /// [`Host::dispatch`].
    pub(crate) fn remove_agent(&mut self, flow: FlowId) -> Option<Box<dyn Agent>> {
        self.agents.remove(&flow)
    }

    /// Number of agents installed.
    pub fn agent_count(&self) -> usize {
        self.agents.len()
    }

    /// Deliver a packet to the matching agent. The simulator has already
    /// checked that the packet is addressed to this host.
    pub(crate) fn deliver(&mut self, ctx: &mut AgentCtx<'_>, packet: Packet) {
        // A packet with no matching agent is routine, not an error: a sender
        // retires as soon as its flow is complete and its subflows are quiet,
        // so the ACK of every spurious retransmission still in flight at that
        // moment finds no agent and is discarded.
        if let Some(agent) = self.agents.get_mut(&packet.flow) {
            agent.handle(ctx, AgentEvent::Packet(packet));
        }
    }

    /// Dispatch a non-packet event (start, timer, finalize) to the agent for
    /// `flow`, if present. Returns whether an agent handled it.
    pub(crate) fn dispatch(
        &mut self,
        ctx: &mut AgentCtx<'_>,
        flow: FlowId,
        event: AgentEvent,
    ) -> bool {
        match self.agents.get_mut(&flow) {
            Some(agent) => {
                agent.handle(ctx, event);
                true
            }
            None => false,
        }
    }

    /// Iterate over all flow ids with agents on this host (sorted, so
    /// iteration order is deterministic).
    pub(crate) fn agent_flows(&self) -> Vec<FlowId> {
        let mut flows: Vec<FlowId> = self.agents.keys().copied().collect();
        flows.sort_unstable();
        flows
    }

    /// Choose the uplink for an outgoing packet. Single-homed hosts always use
    /// their only uplink; multi-homed hosts hash the packet's 5-tuple so that,
    /// like in the fabric, per-packet source-port randomisation spreads load.
    pub(crate) fn select_uplink(&self, packet: &Packet) -> Option<LinkId> {
        match self.uplinks.len() {
            0 => None,
            1 => Some(self.uplinks[0]),
            n => {
                let idx = crate::ecmp::select(packet, self.ecmp_salt, n);
                Some(self.uplinks[idx])
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::SimRng;
    use crate::signal::Signal;
    use crate::time::SimTime;

    /// Answers every packet it is handed, so a test counts deliveries in the
    /// context's outbox.
    struct Echo;
    impl Agent for Echo {
        fn handle(&mut self, ctx: &mut AgentCtx<'_>, event: AgentEvent) {
            if let AgentEvent::Packet(p) = event {
                ctx.send(p.reply_template());
            }
        }
    }

    type Timers = Vec<(SimTime, u64)>;

    fn ctx_parts() -> (SimRng, Vec<Packet>, Timers, Vec<Signal>) {
        (SimRng::new(1), Vec::new(), Vec::new(), Vec::new())
    }

    fn pkt(dst: u32, flow: u64, src_port: u16) -> Packet {
        Packet::data(
            Addr(0),
            Addr(dst),
            src_port,
            80,
            FlowId(flow),
            0,
            0,
            0,
            100,
            SimTime::ZERO,
        )
    }

    #[test]
    fn demux_by_flow_id() {
        let mut host = Host::new(NodeId(5), Addr(2), 0);
        host.register_agent(FlowId(1), Box::new(Echo));
        let (mut rng, mut out, mut timers, mut signals) = ctx_parts();
        let mut ctx = AgentCtx::new(
            SimTime::ZERO,
            FlowId(1),
            &mut rng,
            &mut out,
            &mut timers,
            &mut signals,
        );
        host.deliver(&mut ctx, pkt(2, 1, 50_000));
        host.deliver(&mut ctx, pkt(2, 9, 50_000)); // no such agent
        assert_eq!(out.len(), 1, "only the matching agent was reached");
    }

    #[test]
    fn dispatch_reports_missing_agent() {
        let mut host = Host::new(NodeId(5), Addr(2), 0);
        host.register_agent(FlowId(1), Box::new(Echo));
        let (mut rng, mut out, mut timers, mut signals) = ctx_parts();
        let mut ctx = AgentCtx::new(
            SimTime::ZERO,
            FlowId(1),
            &mut rng,
            &mut out,
            &mut timers,
            &mut signals,
        );
        assert!(host.dispatch(&mut ctx, FlowId(1), AgentEvent::Timer(0)));
        assert!(!host.dispatch(&mut ctx, FlowId(2), AgentEvent::Timer(0)));
    }

    #[test]
    fn register_remove_and_list() {
        let mut host = Host::new(NodeId(5), Addr(2), 0);
        host.register_agent(FlowId(3), Box::new(Echo));
        host.register_agent(FlowId(1), Box::new(Echo));
        assert_eq!(host.agent_count(), 2);
        assert_eq!(host.agent_flows(), vec![FlowId(1), FlowId(3)]);
        assert!(host.remove_agent(FlowId(3)).is_some());
        assert_eq!(host.agent_flows(), vec![FlowId(1)]);
    }

    #[test]
    fn single_homed_uplink_selection() {
        let mut host = Host::new(NodeId(5), Addr(2), 0);
        assert_eq!(host.select_uplink(&pkt(9, 1, 50_000)), None);
        host.attach_uplink(LinkId(4));
        assert_eq!(host.select_uplink(&pkt(9, 1, 50_000)), Some(LinkId(4)));
    }

    #[test]
    fn multi_homed_uses_both_uplinks() {
        let mut host = Host::new(NodeId(5), Addr(2), 1234);
        host.attach_uplink(LinkId(4));
        host.attach_uplink(LinkId(5));
        let mut seen = std::collections::HashSet::new();
        for port in 49152..49152 + 64 {
            seen.insert(host.select_uplink(&pkt(9, 1, port)).unwrap());
        }
        assert_eq!(seen.len(), 2);
    }
}
