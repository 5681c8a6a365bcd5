//! Sender-level tests of the fluid handoff, which lives in the connection
//! core exactly once: every transport that may hand off does it by the same
//! rule, and `FluidComplete` ends every one of them the same way.

use netsim::{Addr, Agent, AgentEvent, FlowId, Packet, PacketKind, Signal};
use transport::testing::Loopback;
use transport::{
    MmptcpConfig, MmptcpSender, MptcpConfig, MptcpSender, SwitchStrategy, TcpSender,
    TransportConfig,
};

const FLOW: FlowId = FlowId(1);
const TOTAL: u64 = 5_000_000;
const THRESHOLD: u64 = 100_000;

fn hybrid<A: Agent>(tx: A) -> Loopback<A> {
    let mut l = Loopback::new(FLOW, tx);
    l.fluid_threshold = Some(THRESHOLD);
    l
}

fn tcp() -> TcpSender {
    let cfg = TransportConfig::default();
    TcpSender::new(cfg, FLOW, Addr(0), Addr(1), 50_000, 80, Some(TOTAL))
}

fn mptcp(subflows: usize) -> MptcpSender {
    let cfg = MptcpConfig::with_subflows(subflows);
    MptcpSender::new(cfg, FLOW, Addr(0), Addr(1), 50_000, 80, Some(TOTAL))
}

/// Drop the first copy of the data segment at subflow sequence 14 000: the
/// fast retransmit it provokes takes the subflow out of slow start, which is
/// what makes a flow eligible for handoff.
fn one_loss() -> impl FnMut(&Packet) -> bool {
    let mut dropped = false;
    move |p| {
        let hit = !dropped && p.kind == PacketKind::Data && p.seq == 14_000;
        dropped |= hit;
        hit
    }
}

/// Run until the sender asks for a handoff.
fn run_to_handoff<A: Agent>(l: &mut Loopback<A>, mut drop: impl FnMut(&Packet) -> bool) {
    l.start();
    for _ in 0..2_000 {
        if !l.handoffs.is_empty() {
            return;
        }
        l.round(&mut drop);
    }
    panic!("no fluid handoff within 2 000 rounds");
}

#[test]
fn tcp_and_one_subflow_mptcp_hand_off_identically() {
    let mut t = hybrid(tcp());
    let mut m = hybrid(mptcp(1));
    run_to_handoff(&mut t, one_loss());
    run_to_handoff(&mut m, one_loss());
    assert!(t.tx.is_fluid_mode() && m.tx.is_fluid_mode());
    assert_eq!(t.handoffs.len(), 1);
    // Same instant, same request, field for field.
    assert_eq!(format!("{:?}", t.handoffs), format!("{:?}", m.handoffs));
    assert_eq!(t.sent, m.sent);
    let (_, h) = &t.handoffs[0];
    assert_eq!(h.base_bytes + h.remaining, TOTAL);
    assert!(h.remaining > THRESHOLD);
}

#[test]
fn mmptcp_hands_off_only_after_the_phase_switch() {
    // The loss makes the scatter flow eligible by TCP's rule long before the
    // switch; it must stay packet-exact regardless.
    let cfg = MmptcpConfig {
        switch: SwitchStrategy::DataVolume(400_000),
        num_subflows: 2,
        ..MmptcpConfig::default()
    };
    let tx = MmptcpSender::new(cfg, FLOW, Addr(0), Addr(1), 50_000, 80, Some(TOTAL));
    let mut l = hybrid(tx);
    let mut scatter_loss = one_loss();
    let mut subflow_loss = one_loss();
    let mut drop = |p: &Packet| match p.subflow {
        0 => scatter_loss(p),
        1 => subflow_loss(p),
        _ => false,
    };
    l.start();
    for _ in 0..2_000 {
        if l.tx.switched_at().is_some() {
            break;
        }
        l.round(&mut drop);
        assert!(l.handoffs.is_empty(), "handoff in the packet-scatter phase");
    }
    assert!(
        !l.tx.scatter_subflow().in_slow_start(),
        "the scatter flow must have been eligible by the single-path rule"
    );
    let switched_at = l.tx.switched_at().expect("phase switched");
    for _ in 0..2_000 {
        if !l.handoffs.is_empty() {
            break;
        }
        l.round(&mut drop);
    }
    let (at, handoff) = l.handoffs.first().expect("handoff in the MPTCP phase");
    assert!(*at > switched_at);
    assert!(l.tx.is_fluid_mode());
    assert_ne!(handoff.template.subflow, 0, "an MPTCP subflow is the model");
}

#[test]
fn fluid_complete_finishes_the_flow_exactly_once() {
    let mut l = hybrid(mptcp(2));
    run_to_handoff(&mut l, one_loss());
    let fluid_bytes = l.handoffs[0].1.remaining;
    // In-flight packets drain while the fluid engine works.
    for _ in 0..5 {
        l.round(|_| false);
    }
    assert!(!l.is_completed());
    let packet_bytes = l.tx.total_bytes_sent();
    let (packets, timers, signals) = (l.sent.len(), l.armed.len(), l.signals.len());

    l.deliver(AgentEvent::FluidComplete { bytes: fluid_bytes });
    assert!(l.tx.is_completed());
    assert_eq!(l.sent.len(), packets, "completion sends nothing");
    assert_eq!(
        l.signals[signals..],
        [
            Signal::FlowCompleted {
                flow: FLOW,
                at: l.now,
                bytes: TOTAL
            },
            Signal::RedundantBytes {
                flow: FLOW,
                at: l.now,
                bytes: packet_bytes + fluid_bytes - TOTAL
            },
        ]
    );

    // Every subflow is aborted: no timer still armed does anything, and a
    // second FluidComplete or the final Finalize emit nothing.
    let signals = l.signals.len();
    for (at, token) in std::mem::take(&mut l.timers) {
        l.now = l.now.max(at);
        l.deliver(AgentEvent::Timer(token));
    }
    l.deliver(AgentEvent::FluidComplete { bytes: fluid_bytes });
    l.deliver(AgentEvent::Finalize);
    assert_eq!(l.sent.len(), packets, "no packet after completion");
    assert_eq!(l.armed.len(), timers, "no timer after completion");
    assert_eq!(l.signals.len(), signals, "no signal after completion");
}
