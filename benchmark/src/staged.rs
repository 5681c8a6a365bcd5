//! The traced pass: a staged runner that mirrors `mmptcp::run` through the
//! crates' public API only, with a span around every call into a layer and
//! the layers' counters read at the same boundaries.
//!
//! The spans sit *outside* the layers (in-program tracing is a later issue),
//! so what they resolve is the runner's own phases; the kernels in
//! `crate::kernels` resolve the layers inside the event loop. The mirror is
//! kept honest by the correctness gate: its digest must equal the digest of
//! the `mmptcp::run` it shadows.

use metrics::{loss_report, overall_utilisation, tier_utilisation, FlowMetrics};
use mmptcp::results::ConservationAudit;
use mmptcp::{ExperimentConfig, ExperimentResults, Protocol, TopologySpec, WorkloadSpec};
use netsim::{Agent, FlowId, PathPolicy, Signal, SimTime, Simulator};
use std::collections::HashSet;
use std::time::Instant;
use topology::{BuiltTopology, LinkTier};
use transport::{
    D2tcpSender, DupAckPolicy, MmptcpConfig, MmptcpSender, MptcpConfig, MptcpSender, RepFlowConfig,
    RepFlowSender, TcpSender, TransportConfig, TransportReceiver,
};
use workload::{FlowClass, FlowSpec};

/// One timed interval. Spans of one simulated run share `run`; `parent`
/// indexes the span that caused this one.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    pub run: usize,
}

/// In-memory span recorder; written out when the benchmark ends.
pub struct Tracer {
    origin: Instant,
    pub spans: Vec<Span>,
}

impl Tracer {
    pub fn new() -> Self {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Open a span; close it with [`Tracer::end`].
    pub fn begin(&mut self, name: &'static str, parent: Option<usize>, run: usize) -> usize {
        let now = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns: now,
            end_ns: now,
            parent,
            run,
        });
        self.spans.len() - 1
    }

    pub fn end(&mut self, span: usize) {
        self.spans[span].end_ns = self.now_ns();
    }

    /// Record `f` as one span.
    pub fn time<R>(
        &mut self,
        name: &'static str,
        parent: Option<usize>,
        run: usize,
        f: impl FnOnce() -> R,
    ) -> R {
        let span = self.begin(name, parent, run);
        let out = f();
        self.end(span);
        out
    }

    /// Total seconds spent in spans called `name`.
    pub fn total_s(&self, name: &str) -> f64 {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| (s.end_ns - s.start_ns) as f64 / 1e9)
            .sum()
    }
}

/// Counts read at the runner's layer boundaries, summed over a workload's
/// runs (peaks are maxima).
#[derive(Debug, Clone, Copy, Default)]
pub struct Counts {
    pub flows_installed: u64,
    pub signals: u64,
    pub rtos: u64,
    pub fast_retransmits: u64,
    pub redundant_bytes: u64,
    pub peak_pending_events: u64,
    pub peak_in_flight: u64,
    pub link_tx_packets: u64,
    pub host_wire_bytes: u64,
    pub queue_offered: u64,
    pub fluid_bytes: u64,
}

// The two port rules and the ECN default below are private to
// `mmptcp::experiment`; they are restated here and pinned by the gate.

fn base_port_for(flow_id: u64) -> u16 {
    20_000 + ((flow_id.wrapping_mul(257)) % 30_000) as u16
}

fn dst_port_for(flow_id: u64) -> u16 {
    5_000 + (flow_id % 1_000) as u16
}

/// DCTCP's conventional marking threshold, K = 20 packets.
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

fn build_sender(
    protocol: Protocol,
    transport: TransportConfig,
    topo: &BuiltTopology,
    spec: &FlowSpec,
) -> Box<dyn Agent> {
    let flow = FlowId(spec.id);
    let (src, dst, size) = (spec.src, spec.dst, spec.size);
    let (sp, dp) = (base_port_for(spec.id), dst_port_for(spec.id));
    let paths = topo.path_count(src, dst);
    match protocol {
        Protocol::Tcp => Box::new(TcpSender::new(transport, flow, src, dst, sp, dp, size)),
        Protocol::Dctcp => {
            let cfg = TransportConfig {
                ecn: true,
                ..transport
            };
            Box::new(TcpSender::new(cfg, flow, src, dst, sp, dp, size))
        }
        Protocol::D2tcp => Box::new(D2tcpSender::new(
            transport,
            flow,
            src,
            dst,
            sp,
            dp,
            size,
            spec.deadline,
        )),
        Protocol::Mptcp { subflows } => {
            let cfg = MptcpConfig {
                transport,
                num_subflows: subflows.max(1),
                ..MptcpConfig::default()
            };
            Box::new(MptcpSender::new(cfg, flow, src, dst, sp, dp, size))
        }
        Protocol::PacketScatter => {
            let cfg = MmptcpConfig {
                transport,
                dupack: DupAckPolicy::topology_adaptive(paths as u32),
                ..MmptcpConfig::packet_scatter_only()
            };
            Box::new(MmptcpSender::new(cfg, flow, src, dst, sp, dp, size))
        }
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
        } => {
            let cfg = MmptcpConfig {
                transport,
                num_subflows: subflows,
                switch,
                dupack: dupack.unwrap_or_else(|| DupAckPolicy::topology_adaptive(paths as u32)),
                coupled: true,
                reorder_undo: true,
            };
            Box::new(MmptcpSender::new(cfg, flow, src, dst, sp, dp, size))
        }
    }
}

/// Drain the simulator's signals into the flow metrics, noting completions
/// and counting the signals by kind on the way.
fn fold_signals(
    sim: &mut Simulator,
    metrics: &mut FlowMetrics,
    completed: &mut HashSet<FlowId>,
    counts: &mut Counts,
) {
    let signals = sim.drain_signals();
    counts.signals += signals.len() as u64;
    for s in &signals {
        match s {
            Signal::FlowCompleted { flow, .. } => {
                completed.insert(*flow);
            }
            Signal::RetransmissionTimeout { .. } => counts.rtos += 1,
            Signal::FastRetransmit { .. } => counts.fast_retransmits += 1,
            Signal::RedundantBytes { bytes, .. } => counts.redundant_bytes += bytes,
            _ => {}
        }
    }
    metrics.ingest(signals.iter());
}

/// Run one configuration stage by stage, recording spans under run id `run`
/// and adding its boundary counts to `counts`.
pub fn run(
    mut config: ExperimentConfig,
    run: usize,
    tracer: &mut Tracer,
    counts: &mut Counts,
) -> ExperimentResults {
    let root = tracer.begin("mmptcp.staged_total", None, run);
    let parent = Some(root);

    let mut topo = tracer.time("topology.build", parent, run, || {
        ensure_ecn_marking(&mut config);
        let mut topo = config.topology.build();
        if config.path_policy != PathPolicy::FlowHash {
            for sw in topo.network.switches_mut() {
                sw.set_path_policy(config.path_policy);
            }
        }
        topo
    });
    let WorkloadSpec::Custom(flows) = config.workload else {
        unreachable!("benchmark workloads are explicit flow lists");
    };
    assert!(!flows.is_empty(), "workload generated no flows");
    let name = format!("{} on {}", config.protocol.name(), topo.name);

    let install = tracer.begin("mmptcp.install", parent, run);
    let network = std::mem::replace(&mut topo.network, netsim::Network::new());
    let mut sim = Simulator::new(network, config.seed);
    sim.set_fluid_threshold(config.engine.fluid_threshold());
    let (mut short_ids, mut long_ids, mut bounded_ids) =
        (HashSet::new(), HashSet::new(), HashSet::new());
    for spec in &flows {
        let flow = FlowId(spec.id);
        let protocol = match spec.class {
            FlowClass::Short => {
                short_ids.insert(flow);
                config.protocol
            }
            FlowClass::Long => {
                long_ids.insert(flow);
                config.long_protocol.unwrap_or(config.protocol)
            }
        };
        if spec.size.is_some() {
            bounded_ids.insert(flow);
        }
        let sender = build_sender(protocol, config.transport, &topo, spec);
        let (src_node, dst_node) = (topo.host(spec.src), topo.host(spec.dst));
        sim.register_agent(src_node, flow, sender);
        sim.register_agent(dst_node, flow, Box::new(TransportReceiver::new(flow)));
        sim.schedule_flow_start(spec.start, src_node, flow);
    }
    tracer.end(install);
    counts.flows_installed += flows.len() as u64;

    let mut metrics = FlowMetrics::new();
    let cap = SimTime::ZERO + config.max_sim_time;
    let mut completed: HashSet<FlowId> = HashSet::new();
    loop {
        let next = (sim.now() + config.progress_interval).min(cap);
        tracer.time("netsim.sim.event_loop", parent, run, || sim.run_until(next));
        counts.peak_pending_events = counts.peak_pending_events.max(sim.pending_events() as u64);
        counts.peak_in_flight = counts.peak_in_flight.max(sim.in_flight_packets() as u64);
        tracer.time("metrics.fct.signal_fold", parent, run, || {
            fold_signals(&mut sim, &mut metrics, &mut completed, counts)
        });
        let all_done = tracer.time("mmptcp.completion_check", parent, run, || {
            bounded_ids.iter().all(|f| completed.contains(f))
        });
        if all_done || sim.now() >= cap || sim.pending_events() == 0 {
            break;
        }
    }
    let all_short_completed = short_ids
        .iter()
        .filter(|f| bounded_ids.contains(f))
        .all(|f| completed.contains(f));
    tracer.time("netsim.sim.finalize", parent, run, || sim.finalize());
    tracer.time("metrics.fct.signal_fold", parent, run, || {
        fold_signals(&mut sim, &mut metrics, &mut completed, counts)
    });

    let scrape = tracer.begin("metrics.netstats.scrape", parent, run);
    let elapsed = sim.now() - SimTime::ZERO;
    let counters = sim.counters();
    let in_flight_at_end = sim.in_flight_packets() as u64;
    let fluid_delivered_bytes = sim.fluid_delivered_bytes();
    topo.network = std::mem::replace(sim.network_mut(), netsim::Network::new());
    let network = &topo.network;
    let audit = ConservationAudit {
        in_flight_at_end,
        backlog_at_end: network.links().iter().map(|l| l.backlog() as u64).sum(),
        no_route: network
            .nodes()
            .iter()
            .filter_map(|n| n.as_switch())
            .map(|s| s.stats().no_route)
            .sum(),
        fluid_delivered_bytes,
    };
    let loss = loss_report(network);
    let overall = overall_utilisation(network, elapsed);
    let core_utilisation = tier_utilisation(&topo, LinkTier::AggregationCore, elapsed);
    tracer.end(scrape);

    for link in network.links() {
        counts.link_tx_packets += link.stats().tx_packets;
        if network.node(link.from).is_host() {
            counts.host_wire_bytes += link.stats().tx_bytes;
        }
    }
    counts.queue_offered +=
        loss.host.offered + loss.edge.offered + loss.aggregation.offered + loss.core.offered;
    counts.fluid_bytes += fluid_delivered_bytes;

    let results = ExperimentResults {
        name,
        protocol: config.protocol,
        seed: config.seed,
        elapsed,
        flows,
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
        trace: None,
    };
    tracer.end(root);
    results
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::measure::{execute, Outcome};
    use crate::workloads::{configs, WorkloadId};

    /// The mirror must not drift from `mmptcp::run`: same digest on every
    /// workload, DCTCP's K = 20 default included (battle_sweep runs DCTCP).
    #[test]
    fn staged_runner_reproduces_the_user_path() {
        for id in [WorkloadId::ElephantsHybrid, WorkloadId::BattleSweep] {
            let cfgs = configs(id, 3, true);
            let user = execute(id, cfgs.clone(), 1);
            let mut tracer = Tracer::new();
            let mut counts = Counts::default();
            let staged: Vec<_> = cfgs
                .into_iter()
                .enumerate()
                .map(|(i, (label, c))| (label, run(c, i, &mut tracer, &mut counts)))
                .collect();
            let report = mmptcp::scenario::report(id.name(), mmptcp::Fidelity::Full, &staged);
            assert_eq!(
                Outcome::of(&staged, &report.to_json()),
                user.outcome(),
                "{}",
                id.name()
            );
            assert!(tracer.total_s("netsim.sim.event_loop") > 0.0);
            assert!(counts.signals > 0 && counts.link_tx_packets > 0);
        }
    }

    #[test]
    fn spans_nest_under_their_run_root() {
        let mut t = Tracer::new();
        let root = t.begin("root", None, 7);
        t.time("child", Some(root), 7, || std::hint::black_box(1 + 1));
        t.end(root);
        assert_eq!(t.spans[1].parent, Some(root));
        assert_eq!(t.spans[1].run, 7);
        assert!(t.spans[0].start_ns <= t.spans[1].start_ns);
        assert!(t.spans[1].end_ns <= t.spans[0].end_ns);
        assert!(t.total_s("root") >= t.total_s("child"));
    }
}
