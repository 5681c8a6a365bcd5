//! A sender retires (`AgentCtx::retire`) when its flow is complete and its
//! subflows are quiescent, and the simulator then drops it; whatever still
//! reaches the flow finds no agent. That is only sound if the sender would
//! have done nothing with those events. The loopback harness keeps a retired
//! sender alive, so this test feeds it everything the rest of the run holds —
//! the ACKs still in flight, every timer still armed, a `FluidComplete`, the
//! `Finalize` — and requires silence: no packet, no timer, no handoff, no
//! signal. All seven transports, lossless and under random periodic loss,
//! over random flow sizes, with and without the hybrid engine's threshold.

use netsim::{Addr, Agent, AgentCtx, AgentEvent, FlowId, Packet, PacketKind, SimDuration, SimRng};
use transport::testing::Loopback;
use transport::{
    D2tcpSender, MmptcpConfig, MmptcpSender, MptcpConfig, MptcpSender, RepFlowConfig,
    RepFlowSender, SwitchStrategy, TcpSender, TransportConfig,
};

/// `Loopback` is generic over the sender type; the table holds them boxed.
struct Boxed(Box<dyn Agent>);

impl Agent for Boxed {
    fn handle(&mut self, ctx: &mut AgentCtx<'_>, event: AgentEvent) {
        self.0.handle(ctx, event);
    }
}

const FLOW: FlowId = FlowId(1);
const SRC: Addr = Addr(0);
const DST: Addr = Addr(1);
const SPORT: u16 = 50_000;
const DPORT: u16 = 80;

/// The seven transports of `mmptcp::Protocol`, each as a sender of `size` bytes.
fn build(transport: &str, size: u64) -> Box<dyn Agent> {
    let total = Some(size);
    let plain = TransportConfig::default();
    match transport {
        "tcp" => Box::new(TcpSender::new(plain, FLOW, SRC, DST, SPORT, DPORT, total)),
        "dctcp" => Box::new(TcpSender::new(
            TransportConfig::dctcp(),
            FLOW,
            SRC,
            DST,
            SPORT,
            DPORT,
            total,
        )),
        "d2tcp" => Box::new(D2tcpSender::new(
            plain,
            FLOW,
            SRC,
            DST,
            SPORT,
            DPORT,
            total,
            Some(SimDuration::from_millis(3)),
        )),
        "mptcp" => Box::new(MptcpSender::new(
            MptcpConfig::with_subflows(4),
            FLOW,
            SRC,
            DST,
            SPORT,
            DPORT,
            total,
        )),
        "packet-scatter" => Box::new(MmptcpSender::new(
            MmptcpConfig::packet_scatter_only(),
            FLOW,
            SRC,
            DST,
            SPORT,
            DPORT,
            total,
        )),
        "mmptcp" => Box::new(MmptcpSender::new(
            MmptcpConfig {
                num_subflows: 4,
                switch: SwitchStrategy::DataVolume(100_000),
                ..MmptcpConfig::default()
            },
            FLOW,
            SRC,
            DST,
            SPORT,
            DPORT,
            total,
        )),
        "repflow" => Box::new(RepFlowSender::new(
            RepFlowConfig::default(),
            FLOW,
            SRC,
            DST,
            SPORT,
            DPORT,
            total,
            4,
        )),
        other => unreachable!("no transport called {other}"),
    }
}

/// Run one flow until its sender retires, then replay the rest of the run at
/// it. `drop_every = Some((n, k))` drops the sender's k-th packet of every n.
fn retire_then_replay(
    transport: &str,
    size: u64,
    drop_every: Option<(u64, u64)>,
    fluid_threshold: Option<u64>,
) {
    let case = format!("{transport}, {size} B, drop {drop_every:?}, fluid {fluid_threshold:?}");
    let mut l = Loopback::new(FLOW, Boxed(build(transport, size)));
    l.fluid_threshold = fluid_threshold;
    let mut emitted = 0u64;
    let mut drop = |_: &Packet| {
        emitted += 1;
        drop_every.is_some_and(|(n, k)| emitted % n == k)
    };
    let mark = |p: &Packet| p.kind == PacketKind::Data && (p.seq / 1400).is_multiple_of(3);

    l.start();
    for _ in 0..100_000 {
        if l.retired {
            break;
        }
        l.round_with(&mut drop, mark);
        // Stand in for the fluid engine: 1 ms after a handoff the remainder
        // is reported delivered.
        if let Some((at, handoff)) = l.handoffs.first() {
            if !l.is_completed() && l.now >= *at + SimDuration::from_millis(1) {
                let bytes = handoff.remaining;
                l.deliver(AgentEvent::FluidComplete { bytes });
            }
        }
        // A subflow can outlive its flow (an ACK was lost, the data was
        // not): the harness stops skipping idle time once the flow is
        // complete, so skip to that subflow's RTO here.
        if l.to_rx.is_empty() && l.to_tx.is_empty() {
            if let Some(at) = l.timers.iter().map(|&(at, _)| at).min() {
                l.now = l.now.max(at);
            }
        }
    }
    assert!(l.is_completed(), "{case}: the flow must finish");
    assert!(l.retired, "{case}: the sender must retire");

    // The rest of the run: what is in flight, then every timer still armed
    // (each at its deadline), then the two engine events.
    for _ in 0..16 {
        l.round(|_| false);
    }
    assert!(
        l.to_rx.is_empty() && l.to_tx.is_empty(),
        "{case}: idle pipe"
    );
    let mut timers = std::mem::take(&mut l.timers);
    timers.sort_unstable();
    for (at, token) in timers {
        l.now = l.now.max(at);
        l.deliver(AgentEvent::Timer(token));
    }
    l.deliver(AgentEvent::FluidComplete { bytes: 1 });
    l.deliver(AgentEvent::Finalize);
    assert_eq!(
        l.produced_after_retiring, 0,
        "{case}: a retired sender acted again"
    );
}

const TRANSPORTS: [&str; 7] = [
    "tcp",
    "dctcp",
    "d2tcp",
    "mptcp",
    "packet-scatter",
    "mmptcp",
    "repflow",
];

#[test]
fn a_retired_sender_is_inert_on_a_lossless_network() {
    let mut rng = SimRng::new(0x1e57);
    for transport in TRANSPORTS {
        for size in [1, 1_400, 10_000, 70_000, 400_000] {
            retire_then_replay(transport, size, None, None);
        }
        for _ in 0..6 {
            let size = rng.range(1..600_000u64);
            let fluid = rng.chance(0.5).then_some(100_000);
            retire_then_replay(transport, size, None, fluid);
        }
    }
}

#[test]
fn a_retired_sender_is_inert_under_loss() {
    let mut rng = SimRng::new(0x1055);
    for transport in TRANSPORTS {
        for _ in 0..16 {
            let size = rng.range(1..600_000u64);
            let n = rng.range(5..24u64);
            let k = rng.range(0..n);
            let fluid = rng.chance(0.5).then_some(100_000);
            retire_then_replay(transport, size, Some((n, k)), fluid);
        }
    }
}
