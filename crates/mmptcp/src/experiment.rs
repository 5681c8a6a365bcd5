//! The experiment runner: build the topology, generate the workload, run the
//! event loop to completion — installing each flow's sender/receiver agent
//! pair just before the flow starts — and collect every measurement the paper
//! reports.

use crate::config::{ExperimentConfig, Protocol, TopologySpec, WorkloadSpec};
use crate::results::{ConservationAudit, ExperimentResults};
use metrics::trace::{TraceConfig, TraceSink};
use metrics::{loss_report, overall_utilisation, tier_utilisation, FlowMetrics};
use netsim::{Addr, Agent, FlowId, PathPolicy, Signal, SimRng, SimTime, Simulator};
use std::collections::HashSet;
use topology::{BuiltTopology, LinkTier};
use transport::{
    D2tcpSender, DupAckPolicy, MmptcpConfig, MmptcpSender, MptcpConfig, MptcpSender, RepFlowConfig,
    RepFlowSender, TcpSender, TransportConfig, TransportReceiver,
};
use workload::{incast_workload, paper_workload, FlowClass, FlowSpec, Workload};

/// Deterministic per-flow base source port: spreads flows across the ephemeral
/// range so different flows (and different subflows of one flow) hash to
/// different ECMP paths, without consuming RNG state.
fn base_port_for(flow_id: u64) -> u16 {
    20_000 + ((flow_id.wrapping_mul(257)) % 30_000) as u16
}

/// Destination port: stable per flow (the receiver's "service" port).
fn dst_port_for(flow_id: u64) -> u16 {
    5_000 + (flow_id % 1_000) as u16
}

/// Build the sender agent for one flow.
fn build_sender(
    protocol: Protocol,
    transport: TransportConfig,
    topo: &BuiltTopology,
    spec: &FlowSpec,
) -> Box<dyn Agent> {
    let flow = FlowId(spec.id);
    let (src, dst, size) = (spec.src, spec.dst, spec.size);
    let (sp, dp) = (base_port_for(spec.id), dst_port_for(spec.id));
    // Path diversity sizes the scatter phase's dup-ACK threshold (§2 proposes
    // a topology-derived threshold and an RR-TCP-style adaptive one;
    // `DupAckPolicy::TopologyAdaptive` combines them) and decides whether
    // replication can pay off: with a single path both copies would share
    // one bottleneck, so such pairs degenerate to plain TCP inside the sender.
    let paths = topo.path_count(src, dst);
    let mmptcp = |cfg| Box::new(MmptcpSender::new(cfg, flow, src, dst, sp, dp, size));
    match protocol {
        Protocol::Tcp => Box::new(TcpSender::new(transport, flow, src, dst, sp, dp, size)),
        Protocol::Dctcp => {
            let cfg = TransportConfig {
                ecn: true,
                ..transport
            };
            Box::new(TcpSender::new(cfg, flow, src, dst, sp, dp, size))
        }
        Protocol::D2tcp => {
            let deadline = spec.deadline;
            Box::new(D2tcpSender::new(
                transport, flow, src, dst, sp, dp, size, deadline,
            ))
        }
        Protocol::Mptcp { subflows } => {
            let cfg = MptcpConfig {
                transport,
                num_subflows: subflows,
            };
            Box::new(MptcpSender::new(cfg, flow, src, dst, sp, dp, size))
        }
        Protocol::PacketScatter => mmptcp(MmptcpConfig {
            transport,
            dupack: DupAckPolicy::topology_adaptive(paths as u32),
            ..MmptcpConfig::packet_scatter_only()
        }),
        Protocol::RepFlow {
            threshold,
            syn_only,
        } => {
            let cfg = RepFlowConfig {
                transport,
                replication_threshold: threshold,
                syn_only,
            };
            Box::new(RepFlowSender::new(cfg, flow, src, dst, sp, dp, size, paths))
        }
        Protocol::Mmptcp {
            subflows,
            switch,
            dupack,
        } => mmptcp(MmptcpConfig {
            transport,
            num_subflows: subflows,
            switch,
            dupack: dupack.unwrap_or_else(|| DupAckPolicy::topology_adaptive(paths as u32)),
            coupled: true,
            reorder_undo: true,
        }),
    }
}

/// If DCTCP is in play and the topology has no ECN marking threshold, install
/// the conventional K = 20 packets.
fn ensure_ecn_marking(config: &mut ExperimentConfig) {
    let ecn = |p: Protocol| matches!(p, Protocol::Dctcp | Protocol::D2tcp);
    if !(ecn(config.protocol) || config.long_protocol.is_some_and(ecn)) {
        return;
    }
    let queue = match &mut config.topology {
        TopologySpec::FatTree(c) | TopologySpec::MultiHomedFatTree(c) => &mut c.queue,
        TopologySpec::Vl2(c) => &mut c.queue,
        TopologySpec::Dumbbell(c) => &mut c.queue,
        TopologySpec::Parallel(c) => &mut c.queue,
    };
    queue.ecn_threshold_packets.get_or_insert(20);
}

/// Generate the workload for a topology.
fn generate_workload(spec: WorkloadSpec, hosts: &[Addr], rng: &mut SimRng) -> Workload {
    match spec {
        WorkloadSpec::Paper(cfg) => paper_workload(hosts, &cfg, rng),
        WorkloadSpec::Incast {
            fan_in,
            bytes,
            start,
        } => incast_workload(hosts, fan_in, bytes, start),
        WorkloadSpec::Custom(flows) => Workload { flows },
    }
}

/// Where a caller may time, observe or disturb [`run_with`]'s loop without
/// restating it. Every method defaults to doing nothing: `()` is [`run`],
/// and a closure is a hook that only has a `tick`.
pub trait RunHooks {
    /// Wraps one phase of the runner and returns what `phase` returns.
    /// `name` is `topology.build`, `mmptcp.install` (set-up, and every
    /// tick's just-in-time agent install), `netsim.sim.event_loop`,
    /// `metrics.fct.signal_fold`, `mmptcp.completion_check`,
    /// `netsim.sim.finalize` or `metrics.netstats.scrape`.
    fn stage<R>(&mut self, _name: &'static str, phase: impl FnOnce() -> R) -> R {
        phase()
    }

    /// Runs after each tick's `signals` have been folded into the metrics.
    /// The simulator is mutable so that a test can disturb the run between
    /// ticks (withdraw links, then `Simulator::notify_topology_changed`)
    /// until faults are calendar events; a production caller only reads it.
    fn tick(&mut self, _sim: &mut Simulator, _signals: &[Signal]) {}

    /// Runs once, after `Simulator::finalize` and the fold of the `signals`
    /// it produced, while the simulator still owns the network.
    fn end(&mut self, _sim: &Simulator, _signals: &[Signal]) {}
}

impl RunHooks for () {}

impl<F: FnMut(&mut Simulator, &[Signal])> RunHooks for F {
    fn tick(&mut self, sim: &mut Simulator, signals: &[Signal]) {
        self(sim, signals)
    }
}

/// Run one experiment to completion.
pub fn run(config: ExperimentConfig) -> ExperimentResults {
    run_with(config, &mut ())
}

/// [`run`], calling `hooks` at the runner's phase and tick boundaries.
pub fn run_with<H: RunHooks>(mut config: ExperimentConfig, hooks: &mut H) -> ExperimentResults {
    if let Err(e) = config.validate() {
        panic!("invalid experiment configuration: {e}");
    }
    let mut topo = hooks.stage("topology.build", || {
        ensure_ecn_marking(&mut config);
        let mut topo = config.topology.build();
        // The path policy is a fabric property: install it on every switch
        // before the simulator takes ownership of the network.
        if config.path_policy != PathPolicy::FlowHash {
            for sw in topo.network.switches_mut() {
                sw.set_path_policy(config.path_policy);
            }
        }
        topo
    });
    let host_addrs: Vec<Addr> = (0..topo.host_count() as u32).map(Addr).collect();

    // Workload generation uses a forked RNG stream so changing the workload
    // never perturbs packet-level randomness and vice versa.
    let mut wl_rng = SimRng::new(config.seed).fork(0xBEEF);
    let workload = generate_workload(config.workload, &host_addrs, &mut wl_rng);
    assert!(!workload.flows.is_empty(), "workload generated no flows");

    let name = format!("{} on {}", config.protocol.name(), topo.name);

    let mut short_ids = HashSet::new();
    let mut long_ids = HashSet::new();
    // The bounded flows, and the short ones among them, that have not
    // completed yet. Only a bounded flow signals `FlowCompleted`, and once.
    let (mut bounded_left, mut short_left) = (0usize, 0usize);
    let mut sim = hooks.stage("mmptcp.install", || {
        // The simulator takes ownership of the network; `topo` keeps the
        // metadata (host table, path model, link tiers) and gets the network
        // back for the tier-based metrics afterwards.
        let network = std::mem::replace(&mut topo.network, netsim::Network::new());
        let mut sim = Simulator::new(network, config.seed);
        // Hybrid engine: arm the fluid fast path. Transports see the
        // threshold on every activation and hand off elephant remainders;
        // `Engine::Packet` leaves the threshold `None` and the run is
        // byte-identical to before.
        sim.set_fluid_threshold(config.engine.fluid_threshold());
        // Every start goes on the calendar now, in workload order: the
        // calendar's `(time, seq)` order is part of the run's identity.
        for spec in &workload.flows {
            let flow = FlowId(spec.id);
            match spec.class {
                FlowClass::Short => short_ids.insert(flow),
                FlowClass::Long => long_ids.insert(flow),
            };
            bounded_left += usize::from(spec.size.is_some());
            short_left += usize::from(spec.size.is_some() && spec.class == FlowClass::Short);
            sim.schedule_flow_start(spec.start, topo.host(spec.src), flow);
        }
        sim
    });

    // Flight recorder: with tracing on, transports emit cwnd samples and
    // (optionally) the loop below snapshots link telemetry. With the default
    // `TraceConfig::Off` nothing here runs and the loop cadence is untouched,
    // so untraced runs — and their golden metrics — stay byte-identical.
    let mut trace_sink = match config.trace {
        TraceConfig::Off => None,
        TraceConfig::On(settings) => {
            sim.set_flow_tracing(true);
            Some(TraceSink::new(settings))
        }
    };

    // The agents are not built now. A flow's sender and receiver are installed
    // just before the tick that contains its start, and the sender retires
    // itself once the flow is done, so the resident state follows the flows
    // alive, not the flows offered.
    let mut by_start: Vec<&FlowSpec> = workload.flows.iter().collect();
    by_start.sort_by_key(|spec| spec.start);
    let mut to_install = by_start.into_iter().peekable();

    // Run until every bounded flow completes (or the cap is hit), draining
    // signals incrementally so memory stays flat. Flows are installed and
    // the stop is decided on progress-interval boundaries; link tracing
    // samples inside the interval at its own cadence, so a traced run stops
    // where the untraced one does.
    let mut metrics = FlowMetrics::new();
    let cap = SimTime::ZERO + config.max_sim_time;
    let mut boundary = SimTime::ZERO;
    let tick = match &trace_sink {
        Some(sink) if sink.links_enabled() => config.progress_interval.min(sink.sample_every()),
        _ => config.progress_interval,
    };
    if let Some(sink) = trace_sink.as_mut() {
        // Baseline link snapshot at time zero so the first window's deltas
        // measure from the start of the run.
        sink.sample_links(sim.now(), sim.network());
    }
    let mut fold = |sim: &mut Simulator, trace_sink: &mut Option<TraceSink>| {
        let signals = sim.drain_signals();
        metrics.ingest(signals.iter());
        if let Some(sink) = trace_sink {
            sink.ingest(&signals);
        }
        signals
    };
    loop {
        if sim.now() >= boundary {
            boundary = (sim.now() + config.progress_interval).min(cap);
        }
        let next = (sim.now() + tick).min(boundary);
        hooks.stage("mmptcp.install", || {
            while let Some(spec) = to_install.next_if(|spec| spec.start <= boundary) {
                let flow = FlowId(spec.id);
                let protocol = match spec.class {
                    FlowClass::Long => config.long_protocol.unwrap_or(config.protocol),
                    FlowClass::Short => config.protocol,
                };
                let sender = build_sender(protocol, config.transport, &topo, spec);
                let receiver: Box<dyn Agent> = Box::new(TransportReceiver::new(flow));
                sim.register_agent(topo.host(spec.src), flow, sender);
                sim.register_agent(topo.host(spec.dst), flow, receiver);
            }
        });
        hooks.stage("netsim.sim.event_loop", || sim.run_until(next));
        let signals = hooks.stage("metrics.fct.signal_fold", || {
            let signals = fold(&mut sim, &mut trace_sink);
            if let Some(sink) = trace_sink.as_mut() {
                sink.sample_links(sim.now(), sim.network());
            }
            signals
        });
        hooks.tick(&mut sim, &signals);
        let all_done = hooks.stage("mmptcp.completion_check", || {
            for s in &signals {
                if let Signal::FlowCompleted { flow, .. } = s {
                    bounded_left -= 1;
                    short_left -= usize::from(short_ids.contains(flow));
                }
            }
            bounded_left == 0
        });
        // The cap is a boundary too (`boundary <= cap`).
        if sim.now() >= boundary && (all_done || sim.now() >= cap || sim.pending_events() == 0) {
            break;
        }
    }
    // Decided before `finalize`: a flow the fluid engine's last epoch
    // completes there does not count.
    let all_short_completed = short_left == 0;

    // Final measurements from long-running flows and receivers.
    hooks.stage("netsim.sim.finalize", || sim.finalize());
    let final_signals = hooks.stage("metrics.fct.signal_fold", || {
        fold(&mut sim, &mut trace_sink)
    });
    hooks.end(&sim, &final_signals);

    hooks.stage("metrics.netstats.scrape", || {
        let elapsed = sim.now() - SimTime::ZERO;
        let counters = sim.counters();
        let in_flight_at_end = sim.in_flight_packets() as u64;
        let fluid_delivered_bytes = sim.fluid_delivered_bytes();

        // The network goes back into `topo` for the tier-based utilisation
        // metrics.
        topo.network = std::mem::replace(sim.network_mut(), netsim::Network::new());
        let network = &topo.network;
        let backlog_at_end: u64 = network.links().iter().map(|l| l.backlog() as u64).sum();
        let no_route: u64 = network
            .nodes()
            .iter()
            .filter_map(|n| n.as_switch())
            .map(|s| s.stats().no_route)
            .sum();
        let audit = ConservationAudit {
            in_flight_at_end,
            backlog_at_end,
            no_route,
            fluid_delivered_bytes,
        };
        let loss = loss_report(network);
        let overall = overall_utilisation(network, elapsed);
        let core_utilisation = tier_utilisation(&topo, LinkTier::AggregationCore, elapsed);

        ExperimentResults {
            name,
            protocol: config.protocol,
            seed: config.seed,
            elapsed,
            flows: workload.flows,
            short_ids,
            long_ids,
            metrics,
            loss,
            core_utilisation,
            overall_utilisation: overall,
            counters,
            audit,
            all_short_completed,
            goodput_horizon: config.goodput_horizon,
            trace: trace_sink,
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use netsim::SimTime;
    use topology::ParallelPathConfig;

    /// A tiny custom workload on the parallel-path topology: one short flow.
    fn one_flow_config(protocol: Protocol) -> ExperimentConfig {
        ExperimentConfig {
            topology: TopologySpec::Parallel(ParallelPathConfig {
                host_pairs: 1,
                paths: 4,
                ..ParallelPathConfig::default()
            }),
            workload: WorkloadSpec::Custom(vec![FlowSpec::new(
                0,
                Addr(0),
                Addr(1),
                Some(70_000),
                SimTime::from_millis(1),
                FlowClass::Short,
            )]),
            protocol,
            ..ExperimentConfig::default()
        }
    }

    #[test]
    fn single_tcp_flow_completes_with_sensible_fct() {
        let r = run(one_flow_config(Protocol::Tcp));
        assert!(r.all_short_completed);
        let s = r.short_fct_summary();
        assert_eq!(s.count, 1);
        // 70 KB over a 1 Gbps path with microsecond RTTs: well under 10 ms,
        // but not zero.
        assert!(s.mean > 0.1 && s.mean < 10.0, "FCT {} ms", s.mean);
        assert_eq!(r.loss.total_dropped(), 0);
    }

    #[test]
    fn every_protocol_completes_the_single_flow() {
        for p in [
            Protocol::Tcp,
            Protocol::Dctcp,
            Protocol::D2tcp,
            Protocol::Mptcp { subflows: 4 },
            Protocol::PacketScatter,
            Protocol::mmptcp_default(),
        ] {
            let r = run(one_flow_config(p));
            assert!(r.all_short_completed, "protocol {:?} failed to complete", p);
        }
    }

    #[test]
    fn identical_seeds_give_identical_results() {
        let a = run(ExperimentConfig::small_test(Protocol::mmptcp_default(), 42));
        let b = run(ExperimentConfig::small_test(Protocol::mmptcp_default(), 42));
        assert_eq!(a.short_fcts_ms(), b.short_fcts_ms());
        assert_eq!(a.counters, b.counters);
        assert_eq!(a.loss, b.loss);
        assert_eq!(a.core_utilisation.bytes, b.core_utilisation.bytes);
    }

    #[test]
    fn different_seeds_give_different_schedules() {
        let a = run(ExperimentConfig::small_test(Protocol::Tcp, 1));
        let b = run(ExperimentConfig::small_test(Protocol::Tcp, 2));
        assert_ne!(a.short_fcts_ms(), b.short_fcts_ms());
    }

    /// Long flows make progress, and over a 500 ms goodput horizon they
    /// carry no more than their access links' line rate.
    #[test]
    fn paper_workload_on_small_fattree_completes_for_mmptcp() {
        let mut r = run(ExperimentConfig {
            goodput_horizon: Some(netsim::SimDuration::from_millis(500)),
            ..ExperimentConfig::small_test(Protocol::mmptcp_default(), 7)
        });
        assert!(r.short_fct_summary().count > 0);
        assert!(r.all_short_completed, "short flows must finish");
        let host_rate = topology::FatTreeConfig::small().host_rate_bps as f64;
        let bound = r.long_ids.len() as f64 * host_rate * 1.05;
        let goodput = r.long_goodput_bps();
        assert!(goodput > 0.0 && goodput <= bound, "{goodput} bps");
        r.goodput_horizon = None;
        assert!(r.long_goodput_bps() > 0.0);
        assert!(r.overall_utilisation > 0.0);
    }

    /// The run waits for every bounded flow, not only the short ones: with
    /// the short flow done and a bounded long flow still sending, it ends at
    /// the cap.
    #[test]
    fn a_bounded_long_flow_keeps_the_run_open() {
        let mut config = one_flow_config(Protocol::Tcp);
        let WorkloadSpec::Custom(flows) = &mut config.workload else {
            unreachable!("one_flow_config is a custom workload")
        };
        // 100 MB at 1 Gbps takes 800 ms, far past the 50 ms cap.
        let start = SimTime::from_millis(1);
        flows.push(FlowSpec::new(
            1,
            Addr(0),
            Addr(1),
            Some(100_000_000),
            start,
            FlowClass::Long,
        ));
        let cap = netsim::SimDuration::from_millis(50);
        config.max_sim_time = cap;
        let r = run(config);
        assert!(r.all_short_completed);
        assert!(r.metrics.record(FlowId(0)).unwrap().completed.is_some());
        assert_eq!(r.metrics.record(FlowId(1)).unwrap().completed, None);
        assert_eq!(r.elapsed, cap, "the run ends at the cap");
    }

    /// Resident agents follow the flows alive, not the flows offered: each
    /// flow's pair is installed in the tick of its start, the sender leaves
    /// when the flow is done, and a finished flow keeps one receiver.
    #[test]
    fn agents_are_resident_only_while_their_flow_is_alive() {
        const FLOWS: u64 = 4_000;
        const GAP_US: u64 = 200;
        // Senders alive at the end of a tick: flows start 200 us apart and
        // take about that long, plus whatever the tick's last start left open.
        const MAX_LIVE_SENDERS: usize = 4;
        let mut config = one_flow_config(Protocol::Tcp);
        config.workload = WorkloadSpec::Custom(
            (0..FLOWS)
                .map(|id| {
                    let start = SimTime::from_micros(id * GAP_US);
                    FlowSpec::new(id, Addr(0), Addr(1), Some(10_000), start, FlowClass::Short)
                })
                .collect(),
        );
        config.progress_interval = netsim::SimDuration::from_millis(1);

        let mut ticks = 0;
        let mut last = 0;
        let r = run_with(config, &mut |sim: &mut Simulator, _: &[Signal]| {
            let elapsed_us = (sim.now() - SimTime::ZERO).as_micros();
            let started = (elapsed_us / GAP_US + 1).min(FLOWS) as usize;
            let net = sim.network();
            let hosts = net.hosts().iter().filter_map(|&h| net.node(h).as_host());
            let agents: usize = hosts.map(|h| h.agent_count()).sum();
            // No host was ever handed a packet addressed to another.
            assert_eq!(sim.counters().misrouted, 0);
            assert!(
                (started..=started + MAX_LIVE_SENDERS).contains(&agents),
                "{agents} agents resident with {started} of {FLOWS} flows started"
            );
            ticks += 1;
            last = agents;
        });
        assert!(r.all_short_completed);
        assert_eq!(r.loss.total_dropped(), 0);
        assert!(ticks > 500, "the run must span many ticks, not {ticks}");
        assert_eq!(last, FLOWS as usize, "one receiver per finished flow");
    }

    #[test]
    fn base_ports_are_spread() {
        let mut seen = std::collections::HashSet::new();
        for id in 0..1000 {
            seen.insert(base_port_for(id));
        }
        assert!(seen.len() > 900);
    }
}
