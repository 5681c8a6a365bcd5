//! Layer kernels: each times nothing but calls into one layer's public
//! functions, at a size taken from the workload where the layer's cost
//! depends on it. They resolve what the traced pass cannot — the layers
//! inside `Simulator::run_until` — and feed the estimated-share metrics.

use crate::stats;
use metrics::FlowMetrics;
use mmptcp::prelude::*;
use netsim::event::{Event, EventQueue};
use netsim::fluid::{FluidCc, FluidEngine, FluidHandoff};
use netsim::{
    Agent, AgentCtx, AgentEvent, Link, LinkConfig, LinkId, NodeId, Packet, PacketArena, PathPolicy,
    Signal, SimRng, SwitchLayer,
};
use std::hint::black_box;
use std::time::Instant;
use topology::fattree;
use transport::{
    CongestionControl, MmptcpConfig, MmptcpSender, MptcpConfig, MptcpSender, RttEstimator,
    TcpSender, TransportReceiver,
};
use workload::paper_workload;

/// Samples per kernel; the reported figure is their median.
const SAMPLES: usize = 5;

/// How many kernels [`run_all`] runs (so a caller can split a time budget).
pub const COUNT: usize = 24;

/// Median nanoseconds per operation. `batch` performs a batch of operations
/// and returns how many; it runs once untimed, then repeatedly for
/// `slice_s / SAMPLES` seconds per sample.
fn ns_per_op(slice_s: f64, mut batch: impl FnMut() -> u64) -> f64 {
    black_box(batch());
    let per_sample = slice_s / SAMPLES as f64;
    let samples: Vec<f64> = (0..SAMPLES)
        .map(|_| {
            let start = Instant::now();
            let mut ops = 0u64;
            loop {
                ops += black_box(batch());
                let elapsed = start.elapsed().as_secs_f64();
                if elapsed >= per_sample {
                    break elapsed * 1e9 / ops as f64;
                }
            }
        })
        .collect();
    stats::median(&samples)
}

fn data_packet(src: u32, dst: u32, src_port: u16, data_seq: u64) -> Packet {
    Packet::data(
        Addr(src),
        Addr(dst),
        src_port,
        80,
        FlowId(u64::from(src_port)),
        0,
        data_seq,
        data_seq,
        netsim::DEFAULT_MSS,
        SimTime::ZERO,
    )
}

/// What the kernels need to know about the workload they accompany.
pub struct Sizing {
    /// Peak calendar depth.
    pub pending_events: u64,
    /// Peak packet-arena occupancy.
    pub in_flight: u64,
}

/// Run every kernel for about `slice_s` seconds each; returns
/// `(metric name, value)`, times in the unit the metric's name states.
pub fn run_all(sizing: &Sizing, slice_s: f64) -> Vec<(String, f64)> {
    let mut out: Vec<(String, f64)> = Vec::new();
    let mut push = |name: &str, value: f64| out.push((name.to_string(), value));

    // A packet in flight holds two calendar entries (its delivery and its
    // link's transmit-complete); the rest of the peak depth is timers.
    let in_flight = sizing.in_flight.max(32) as usize;
    let near = 2 * in_flight;
    let far = (sizing.pending_events as usize).saturating_sub(near);
    push(
        "netsim.event.ns_per_op.wheel",
        event_churn(slice_s, near, 0),
    );
    push(
        "netsim.event.ns_per_op.overflow",
        event_churn(slice_s, near, far),
    );
    push(
        "netsim.packet.arena_ns_per_op",
        arena_churn(slice_s, in_flight),
    );
    push(
        "netsim.link.ns_per_packet.load0.9",
        link_churn(slice_s, 0.9),
    );
    push(
        "netsim.link.ns_per_packet.load1.2",
        link_churn(slice_s, 1.2),
    );
    for (label, policy) in [
        ("flow_hash", PathPolicy::FlowHash),
        ("scatter", PathPolicy::PerPacketScatter),
        ("diffflow", PathPolicy::diffflow_default()),
    ] {
        let name = format!("netsim.switch.ns_per_forward.{label}");
        push(&name, switch_forward(slice_s, policy));
    }
    for cc in [
        CongestionControl::Reno,
        CongestionControl::Cubic,
        CongestionControl::Bbr,
    ] {
        let name = format!("transport.cc.ns_per_ack.{}", cc.name());
        push(&name, cc_acks(slice_s, cc));
    }
    const BULK: u64 = 10_000_000;
    for (label, ecn, kind) in [
        ("tcp", false, Loopback::Tcp),
        ("dctcp", true, Loopback::Tcp),
        ("mptcp8", false, Loopback::Mptcp8),
        ("mmptcp8", false, Loopback::Mmptcp8),
    ] {
        let name = format!("transport.loopback.ns_per_segment.{label}");
        push(&name, ns_per_op(slice_s, || loopback(kind, ecn, BULK)));
    }
    push(
        "transport.loopback.ns_per_flow.tcp",
        ns_per_op(slice_s, || {
            (0..100).for_each(|_| {
                black_box(loopback(Loopback::Tcp, false, 10_000));
            });
            100
        }),
    );
    push("netsim.fluid.accept_ns_per_flow", fluid_accept(slice_s));
    push(
        "netsim.fluid.ns_per_epoch_flow.64",
        fluid_epoch(slice_s, 64),
    );
    push(
        "netsim.fluid.ns_per_epoch_flow.512",
        fluid_epoch(slice_s, 512),
    );
    push("metrics.fct.ns_per_signal", signal_fold(slice_s));
    push("workload.ns_per_flow", workload_generate(slice_s));
    for (label, k) in [("k4", 4), ("k8", 8), ("k16", 16)] {
        let config = FatTreeConfig {
            k,
            oversubscription: 4,
            ..FatTreeConfig::default()
        };
        let ns = ns_per_op(slice_s, || {
            black_box(fattree::build(config).host_count());
            1
        });
        push(&format!("topology.fattree.build_ms.{label}"), ns / 1e6);
    }
    out
}

/// Hold-model churn on the calendar: pop the earliest event, schedule one a
/// random delay later. `near` events are packets on the wire (1–100 µs
/// ahead, inside the timing wheel); `far` events are armed RTO timers
/// (0.2–1 s ahead, in the overflow heap). The share of far delays drawn is
/// the one that holds both populations steady, so a calendar whose pending
/// events are mostly timers is churned the way the simulator churns it.
fn event_churn(slice_s: f64, near: usize, far: usize) -> f64 {
    const NEAR_NS: std::ops::Range<u64> = 1_000..100_000;
    const FAR_NS: std::ops::Range<u64> = 200_000_000..1_000_000_000;
    let mean = |r: &std::ops::Range<u64>| (r.start + r.end) as f64 / 2.0;
    // Little's law: populations are in the ratio of arrival share x lifetime.
    let weight = far as f64 / near as f64 * mean(&NEAR_NS) / mean(&FAR_NS);
    let far_share = weight / (1.0 + weight);

    let mut rng = SimRng::new(0xCA1E);
    let delays: Vec<SimDuration> = (0..8192)
        .map(|_| {
            let range = if rng.chance(far_share) {
                FAR_NS
            } else {
                NEAR_NS
            };
            SimDuration::from_nanos(rng.range(range))
        })
        .collect();
    let event = |i: usize| Event::FlowStart {
        node: NodeId(0),
        flow: FlowId(i as u64),
    };
    let mut queue = EventQueue::new();
    for i in 0..near + far {
        let horizon = if i < near { NEAR_NS.end } else { FAR_NS.end };
        queue.schedule(SimTime::from_nanos(rng.range(0..horizon)), event(i));
    }
    let mut next = 0usize;
    ns_per_op(slice_s, || {
        for _ in 0..10_000 {
            let (at, _) = queue.pop().expect("hold model keeps the depth");
            next = (next + 1) % delays.len();
            queue.schedule(at + delays[next], event(next));
        }
        10_000
    })
}

/// Insert/take churn on the packet arena at `occupancy` live packets, oldest
/// out first (packets leave the wire in the order they entered it).
fn arena_churn(slice_s: f64, occupancy: usize) -> f64 {
    let mut arena = PacketArena::with_capacity(occupancy);
    let mut live: std::collections::VecDeque<_> = (0..occupancy)
        .map(|i| arena.insert(data_packet(0, 1, i as u16, 0)))
        .collect();
    ns_per_op(slice_s, || {
        for _ in 0..10_000 {
            let oldest = live.pop_front().expect("occupancy is held");
            let packet = arena.take(oldest);
            live.push_back(arena.insert(packet));
        }
        10_000
    })
}

/// `Link::offer` + `Link::on_transmit_complete` on one default link with
/// full-size packets arriving at `load` times the line rate. Above 1 the
/// queue stays full and the excess is dropped.
fn link_churn(slice_s: f64, load: f64) -> f64 {
    let config = LinkConfig::default();
    let mut link = Link::new(LinkId(0), NodeId(0), NodeId(1), config);
    let packet = data_packet(0, 1, 1, 0);
    let wire = SimDuration::transmission(u64::from(packet.wire_bytes()), config.rate_bps);
    let gap = SimDuration::from_nanos((wire.as_nanos() as f64 / load) as u64);
    let mut now = SimTime::ZERO;
    let mut busy_until: Option<SimTime> = None;
    let mut burst = Vec::new();
    ns_per_op(slice_s, || {
        for _ in 0..10_000 {
            now += gap;
            while let Some(done) = busy_until.filter(|&t| t <= now) {
                burst.clear();
                link.on_transmit_complete(done, &mut burst);
                busy_until = burst.last().map(|tx| tx.transmit_done_at);
            }
            if let Ok(Some(tx)) = link.offer(now, packet.clone()) {
                busy_until = Some(tx.transmit_done_at);
            }
        }
        10_000
    })
}

/// `Switch::forward` on an edge switch of the benchmark FatTree (two-member
/// uplink groups), data packets to every host with varied ports and offsets
/// on both sides of DiffFlow's elephant threshold.
fn switch_forward(slice_s: f64, policy: PathPolicy) -> f64 {
    let mut topo = fattree::build(FatTreeConfig::benchmark());
    let hosts = topo.host_count() as u32;
    let edge = topo.network.switches_at(SwitchLayer::Edge)[0];
    let switch = topo.network.switch_mut(edge);
    switch.set_path_policy(policy);
    let packets: Vec<Packet> = (0..4096u32)
        .map(|i| data_packet(0, i % hosts, 20_000 + i as u16, u64::from(i % 128) * 2_000))
        .collect();
    ns_per_op(slice_s, || {
        for p in &packets {
            black_box(switch.forward(p));
        }
        packets.len() as u64
    })
}

/// The per-ack hot path of one congestion controller behind the boxed
/// trait: full-size ACKs with the per-round-trip hook every 100.
fn cc_acks(slice_s: f64, cc: CongestionControl) -> f64 {
    let cfg = TransportConfig::default();
    let mut rtt = RttEstimator::new(cfg.min_rto, cfg.initial_rto, cfg.max_rto);
    rtt.on_sample(SimDuration::from_micros(120));
    ns_per_op(slice_s, || {
        let mut ctl = cc.build(&cfg);
        let mut now = SimTime::from_millis(1);
        ctl.on_established(now, &rtt);
        for i in 0..10_000u64 {
            now += SimDuration::from_micros(1);
            ctl.on_ack(u64::from(cfg.mss), now, &rtt, None);
            if i % 100 == 99 {
                ctl.on_round_trip(now, &rtt);
            }
        }
        black_box(ctl.cwnd());
        10_000
    })
}

/// Which sender a loopback transfer uses.
#[derive(Clone, Copy)]
enum Loopback {
    Tcp,
    Mptcp8,
    Mmptcp8,
}

/// One transfer of `bytes` between a sender and a `TransportReceiver` wired
/// back to back through `AgentCtx`, with no network in between: every packet
/// one side sends is handed to the other 50 µs later, nothing is lost.
/// Returns the data segments delivered (connection set-up and agent
/// construction are inside the measurement: they are per-connection cost).
fn loopback(kind: Loopback, ecn: bool, bytes: u64) -> u64 {
    let flow = FlowId(1);
    let transport = TransportConfig {
        ecn,
        ..TransportConfig::default()
    };
    let (src, dst, sport, dport, total) = (Addr(0), Addr(1), 50_000, 80, Some(bytes));
    let mut tx: Box<dyn Agent> = match kind {
        Loopback::Tcp => Box::new(TcpSender::new(
            transport, flow, src, dst, sport, dport, total,
        )),
        Loopback::Mptcp8 => {
            let cfg = MptcpConfig {
                transport,
                ..MptcpConfig::default()
            };
            Box::new(MptcpSender::new(cfg, flow, src, dst, sport, dport, total))
        }
        Loopback::Mmptcp8 => {
            let cfg = MmptcpConfig {
                transport,
                ..MmptcpConfig::default()
            };
            Box::new(MmptcpSender::new(cfg, flow, src, dst, sport, dport, total))
        }
    };
    let mut rx = TransportReceiver::new(flow);
    let mut rng = SimRng::new(3);
    let (mut signals, mut timers) = (Vec::new(), Vec::new());
    let (mut to_rx, mut to_tx): (Vec<Packet>, Vec<Packet>) = (Vec::new(), Vec::new());
    let mut now = SimTime::from_millis(1);
    let mut segments = 0u64;
    let hop = SimDuration::from_micros(50);

    tx.handle(
        &mut AgentCtx::new(now, flow, &mut rng, &mut to_rx, &mut timers, &mut signals),
        AgentEvent::Start,
    );
    while !signals
        .iter()
        .any(|s| matches!(s, Signal::FlowCompleted { .. }))
    {
        signals.clear();
        if to_rx.is_empty() {
            // Nothing on the wire: only a timer can move the transfer on.
            let (at, token) = timers
                .iter()
                .copied()
                .min()
                .expect("an unfinished transfer has packets in flight or a timer armed");
            timers.retain(|&t| t != (at, token));
            now = now.max(at);
            let mut ctx = AgentCtx::new(now, flow, &mut rng, &mut to_rx, &mut timers, &mut signals);
            tx.handle(&mut ctx, AgentEvent::Timer(token));
            continue;
        }
        now += hop;
        for packet in to_rx.drain(..) {
            segments += u64::from(packet.payload > 0);
            let mut ctx = AgentCtx::new(now, flow, &mut rng, &mut to_tx, &mut timers, &mut signals);
            rx.handle(&mut ctx, AgentEvent::Packet(packet));
        }
        now += hop;
        for packet in to_tx.drain(..) {
            let mut ctx = AgentCtx::new(now, flow, &mut rng, &mut to_rx, &mut timers, &mut signals);
            tx.handle(&mut ctx, AgentEvent::Packet(packet));
        }
    }
    segments
}

/// A fluid handoff between two hosts of the benchmark FatTree with so much
/// left to send that it never completes during a kernel.
fn handoff(i: u32, hosts: u32) -> FluidHandoff {
    let src = i % hosts;
    let dst = (src + 1 + (i / hosts) % (hosts - 1)) % hosts;
    let mut template = data_packet(src, dst, 20_000 + i as u16, 2_000_000);
    template.flow = FlowId(u64::from(i));
    FluidHandoff {
        template,
        remaining: 1_000_000_000_000,
        base_bytes: 2_000_000,
        rate_cap_bps: 200_000_000,
        srtt: SimDuration::from_micros(120),
        mss: netsim::DEFAULT_MSS,
        cc: FluidCc::Reno,
    }
}

/// `FluidEngine::accept`: the path walk a handoff pays.
fn fluid_accept(slice_s: f64) -> f64 {
    let topo = fattree::build(FatTreeConfig::benchmark());
    let hosts = topo.host_count() as u32;
    ns_per_op(slice_s, || {
        let mut engine = FluidEngine::new();
        for i in 0..512 {
            let h = handoff(i, hosts);
            let node = topo.host(h.template.src);
            engine.accept(SimTime::ZERO, node, h, &topo.network);
        }
        black_box(engine.len());
        512
    })
}

/// `FluidEngine::epoch` with `resident` flows, per resident flow: the path
/// re-walk, map rebuilds and water-filling every handoff, completion, drop
/// and 2 ms refresh pays.
fn fluid_epoch(slice_s: f64, resident: u32) -> f64 {
    let mut topo = fattree::build(FatTreeConfig::benchmark());
    let hosts = topo.host_count() as u32;
    let mut engine = FluidEngine::new();
    for i in 0..resident {
        let h = handoff(i, hosts);
        let node = topo.host(h.template.src);
        engine.accept(SimTime::ZERO, node, h, &topo.network);
    }
    let mut now = SimTime::ZERO;
    ns_per_op(slice_s, || {
        for _ in 0..10 {
            now += netsim::fluid::FLUID_REFRESH;
            black_box(engine.epoch(now, &mut topo.network).next_epoch);
        }
        10 * u64::from(resident)
    })
}

/// `FlowMetrics::ingest` on a start/progress/completion stream.
fn signal_fold(slice_s: f64) -> f64 {
    let signals: Vec<Signal> = (0..10_000u64)
        .flat_map(|i| {
            let (flow, at) = (FlowId(i), SimTime::from_micros(i));
            [
                Signal::FlowStarted {
                    flow,
                    at,
                    bytes: 70_000,
                },
                Signal::FlowProgress {
                    flow,
                    at,
                    bytes: 35_000,
                },
                Signal::FlowCompleted {
                    flow,
                    at,
                    bytes: 70_000,
                },
            ]
        })
        .collect();
    ns_per_op(slice_s, || {
        let mut metrics = FlowMetrics::new();
        metrics.ingest(signals.iter());
        black_box(metrics.flow_count());
        signals.len() as u64
    })
}

/// `workload::paper_workload` per generated flow.
fn workload_generate(slice_s: f64) -> f64 {
    let hosts: Vec<Addr> = (0..64).map(Addr).collect();
    let config = PaperWorkloadConfig {
        flows_per_short_host: 100,
        ..PaperWorkloadConfig::default()
    };
    ns_per_op(slice_s, || {
        let mut rng = SimRng::new(7);
        paper_workload(&hosts, &config, &mut rng).flows.len() as u64
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn loopback_delivers_every_segment_for_every_sender() {
        for kind in [Loopback::Tcp, Loopback::Mptcp8, Loopback::Mmptcp8] {
            assert_eq!(loopback(kind, false, 140_000), 100);
        }
        assert_eq!(loopback(Loopback::Tcp, true, 10_000), 8);
    }

    #[test]
    fn every_kernel_reports_a_positive_finite_number() {
        let sizing = Sizing {
            pending_events: 1_000,
            in_flight: 100,
        };
        let results = run_all(&sizing, 0.005);
        assert_eq!(results.len(), COUNT);
        for (name, value) in &results {
            assert!(value.is_finite() && *value > 0.0, "{name} = {value}");
        }
    }
}
