//! Experiment configuration: which topology, which workload, which transport.

use metrics::trace::TraceConfig;
use netsim::{PathPolicy, SimDuration, SimTime};
use serde::{Deserialize, Serialize};
use topology::{DumbbellConfig, FatTreeConfig, ParallelPathConfig, Vl2Config};
use transport::conn::MAX_SUBFLOWS;
use transport::{DupAckPolicy, SwitchStrategy, TransportConfig};
use workload::{DeadlineModel, FlowSpec, PaperWorkloadConfig};

/// The transport protocol a flow uses.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum Protocol {
    /// Single-path TCP (NewReno flavour).
    Tcp,
    /// DCTCP: TCP with ECN marking and α-proportional window reduction.
    /// Requires switches with an ECN marking threshold (the experiment runner
    /// configures one automatically if the topology does not).
    Dctcp,
    /// D²TCP: deadline-aware DCTCP. Flows without a deadline in the workload
    /// behave exactly like DCTCP; flows with one gamma-correct their window
    /// reduction by the deadline-imminence factor. Requires ECN like DCTCP.
    D2tcp,
    /// Multi-Path TCP with the given number of subflows.
    Mptcp {
        /// Number of subflows.
        subflows: usize,
    },
    /// Packet scatter only: MMPTCP that never leaves its first phase.
    PacketScatter,
    /// MMPTCP: packet-scatter phase followed by MPTCP with `subflows`
    /// subflows.
    Mmptcp {
        /// Number of subflows opened at the phase switch.
        subflows: usize,
        /// Phase-switching strategy.
        switch: SwitchStrategy,
        /// Duplicate-ACK policy for the packet-scatter phase. `None` derives a
        /// topology-aware threshold from the path count between the endpoints.
        dupack: Option<DupAckPolicy>,
    },
    /// RepFlow: flows of at most `threshold` bytes (the same mice boundary
    /// the report layer uses) race two replicated single-path connections
    /// over ECMP-disjoint paths and complete at the first full delivery;
    /// larger (and unbounded) flows use one plain TCP connection.
    /// `syn_only` selects the RepSYN variant, which replicates only the
    /// handshake and the first window. Host pairs without path diversity
    /// (path count < 2) never replicate.
    RepFlow {
        /// Mice/elephant boundary in bytes (the paper uses 100 KB).
        threshold: u64,
        /// Replicate only the handshake + first window (RepSYN).
        syn_only: bool,
    },
}

impl Protocol {
    /// MMPTCP with default settings (8 subflows, data-volume switching,
    /// topology-aware duplicate-ACK threshold).
    pub fn mmptcp_default() -> Protocol {
        Protocol::Mmptcp {
            subflows: 8,
            switch: SwitchStrategy::default(),
            dupack: None,
        }
    }

    /// MPTCP with 8 subflows (the configuration of Figure 1(b)).
    pub fn mptcp8() -> Protocol {
        Protocol::Mptcp { subflows: 8 }
    }

    /// RepFlow with the paper's 100 KB replication threshold.
    pub fn repflow() -> Protocol {
        Protocol::RepFlow {
            threshold: netsim::MICE_THRESHOLD_BYTES,
            syn_only: false,
        }
    }

    /// RepSYN: replicate only the handshake and the first window.
    pub fn repsyn() -> Protocol {
        Protocol::RepFlow {
            threshold: netsim::MICE_THRESHOLD_BYTES,
            syn_only: true,
        }
    }

    /// Short human-readable name for tables.
    pub fn name(&self) -> String {
        match self {
            Protocol::Tcp => "tcp".into(),
            Protocol::Dctcp => "dctcp".into(),
            Protocol::D2tcp => "d2tcp".into(),
            Protocol::Mptcp { subflows } => format!("mptcp-{subflows}"),
            Protocol::PacketScatter => "packet-scatter".into(),
            Protocol::Mmptcp { subflows, .. } => format!("mmptcp-{subflows}"),
            Protocol::RepFlow {
                syn_only: false, ..
            } => "repflow".into(),
            Protocol::RepFlow { syn_only: true, .. } => "repsyn".into(),
        }
    }
}

/// Which simulation engine executes the experiment.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize, Default)]
pub enum Engine {
    /// Pure packet-level simulation: every byte of every flow rides in a
    /// simulated packet. The reference engine — exact, but its cost scales
    /// with bytes transferred.
    #[default]
    Packet,
    /// Hybrid fluid/packet: once a bounded flow leaves slow start with more
    /// than `elephant_threshold` bytes still to send, its remainder is
    /// advanced analytically between epochs by the fluid engine
    /// (`netsim::fluid`) at max-min fair link shares, while mice, handshakes
    /// and all control traffic stay packet-level. MMPTCP hands off only after
    /// its PS→MPTCP switch, so the paper's protection phase stays
    /// packet-exact.
    Hybrid {
        /// Remaining-bytes boundary above which a flow is handed to the
        /// fluid fast path.
        elephant_threshold: u64,
    },
}

impl Engine {
    /// The default hybrid engine: elephants are flows with more than 1 MB
    /// left after slow start (10× the paper's 100 KB mice boundary, so the
    /// whole mice distribution — and a fat margin above it — is packet-exact).
    pub fn hybrid_default() -> Engine {
        Engine::Hybrid {
            elephant_threshold: 1_000_000,
        }
    }

    /// Short name for tables and ledger keys.
    pub fn label(&self) -> &'static str {
        match self {
            Engine::Packet => "packet",
            Engine::Hybrid { .. } => "hybrid",
        }
    }

    /// The fluid threshold to install on the simulator (`None` = packet-only).
    pub fn fluid_threshold(&self) -> Option<u64> {
        match self {
            Engine::Packet => None,
            Engine::Hybrid { elephant_threshold } => Some(*elephant_threshold),
        }
    }
}

/// Which topology to build.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum TopologySpec {
    /// k-ary FatTree.
    FatTree(FatTreeConfig),
    /// Dual-homed FatTree.
    MultiHomedFatTree(FatTreeConfig),
    /// VL2-style Clos.
    Vl2(Vl2Config),
    /// Dumbbell.
    Dumbbell(DumbbellConfig),
    /// Two edge switches joined by `p` parallel paths.
    Parallel(ParallelPathConfig),
}

impl TopologySpec {
    /// Build the topology.
    pub fn build(&self) -> topology::BuiltTopology {
        match self {
            TopologySpec::FatTree(c) => topology::fattree::build(*c),
            TopologySpec::MultiHomedFatTree(c) => topology::fattree::build_dual_homed(*c),
            TopologySpec::Vl2(c) => topology::vl2::build(*c),
            TopologySpec::Dumbbell(c) => topology::dumbbell::build(*c),
            TopologySpec::Parallel(c) => topology::parallel::build(*c),
        }
    }
}

/// Which workload to generate.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum WorkloadSpec {
    /// The paper's evaluation workload (long background flows on one third of
    /// hosts, Poisson short flows on the rest, permutation matrix).
    Paper(PaperWorkloadConfig),
    /// A TCP-incast workload: groups of `fan_in` senders each blast `bytes`
    /// at one receiver simultaneously.
    Incast {
        /// Senders per receiver.
        fan_in: usize,
        /// Bytes per sender.
        bytes: u64,
        /// Start time of the burst.
        start: SimTime,
    },
    /// An explicit list of flows.
    Custom(Vec<FlowSpec>),
}

/// A complete experiment description.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ExperimentConfig {
    /// Topology to build.
    pub topology: TopologySpec,
    /// Workload to run over it.
    pub workload: WorkloadSpec,
    /// Transport protocol used by short flows (and by long flows unless
    /// `long_protocol` overrides it).
    pub protocol: Protocol,
    /// Optional different protocol for long (background) flows — used by the
    /// co-existence experiments.
    pub long_protocol: Option<Protocol>,
    /// Per-subflow TCP parameters.
    pub transport: TransportConfig,
    /// Multi-path member selection installed on every switch of the fabric:
    /// per-flow hash ECMP (the default), per-packet scatter, or
    /// DiffFlow-style size-aware routing (mice scattered, elephants pinned).
    /// A fabric property, orthogonal to the transport under test.
    pub path_policy: PathPolicy,
    /// Random seed. The same seed reproduces the same packet-level schedule.
    pub seed: u64,
    /// Hard cap on simulated time.
    pub max_sim_time: SimDuration,
    /// Interval at which the runner checks for completion and drains signals.
    pub progress_interval: SimDuration,
    /// Flight-recorder telemetry: [`TraceConfig::Off`] (the default) records
    /// nothing and leaves the run — including every golden metric —
    /// byte-identical; `On` collects per-flow cwnd/RTT series, discrete flow
    /// events and (optionally) per-link queue/utilisation series into
    /// `ExperimentResults::trace`.
    pub trace: TraceConfig,
    /// Which engine executes the run: pure packet (the default, exact) or
    /// hybrid fluid/packet (elephant remainders advanced analytically).
    pub engine: Engine,
    /// Fixed window over which long-flow goodput is measured (from time zero).
    /// `None` measures over the whole run, which makes runs of different
    /// lengths incomparable: a protocol whose short flows straggle keeps
    /// simulating long after the others, and its long flows then enjoy an
    /// uncontended network that inflates their average. The Figure-1 configs
    /// therefore pin this to one second — inside the loaded period for every
    /// protocol under comparison.
    pub goodput_horizon: Option<SimDuration>,
}

impl Default for ExperimentConfig {
    fn default() -> Self {
        ExperimentConfig {
            topology: TopologySpec::FatTree(FatTreeConfig::benchmark()),
            workload: WorkloadSpec::Paper(PaperWorkloadConfig::default()),
            protocol: Protocol::mmptcp_default(),
            long_protocol: None,
            transport: TransportConfig::default(),
            path_policy: PathPolicy::FlowHash,
            seed: 1,
            max_sim_time: SimDuration::from_secs(20),
            progress_interval: SimDuration::from_millis(50),
            trace: TraceConfig::Off,
            engine: Engine::Packet,
            goodput_horizon: None,
        }
    }
}

impl ExperimentConfig {
    /// A small, fast configuration for unit/integration tests: a 16-host
    /// FatTree with a light paper-style workload.
    pub fn small_test(protocol: Protocol, seed: u64) -> Self {
        ExperimentConfig {
            topology: TopologySpec::FatTree(FatTreeConfig::small()),
            workload: WorkloadSpec::Paper(PaperWorkloadConfig {
                flows_per_short_host: 2,
                arrivals: workload::ArrivalProcess::Poisson {
                    mean_interarrival: SimDuration::from_millis(20),
                },
                ..PaperWorkloadConfig::default()
            }),
            protocol,
            seed,
            max_sim_time: SimDuration::from_secs(10),
            ..ExperimentConfig::default()
        }
    }

    /// The paper's Figure 1 scenario at the requested scale. `paper` uses the
    /// paper's 512-server topology (`Fidelity::Paper`); otherwise a 4:1
    /// over-subscribed 64-host FatTree (`Fidelity::Full`) preserves the
    /// contention regime at laptop-friendly cost.
    pub fn figure1(protocol: Protocol, seed: u64, paper: bool, flows_per_host: usize) -> Self {
        let topo = if paper {
            FatTreeConfig::paper()
        } else {
            FatTreeConfig::benchmark()
        };
        ExperimentConfig {
            topology: TopologySpec::FatTree(topo),
            workload: WorkloadSpec::Paper(PaperWorkloadConfig {
                flows_per_short_host: flows_per_host,
                ..PaperWorkloadConfig::default()
            }),
            protocol,
            seed,
            goodput_horizon: Some(SimDuration::from_secs(1)),
            ..ExperimentConfig::default()
        }
    }

    /// Reject a configuration [`crate::run`] cannot execute, so it fails
    /// before a topology is built rather than in a worker at the first flow
    /// start (or never: a zero progress interval does not advance the run
    /// loop). A connection holds between one and [`MAX_SUBFLOWS`] subflows,
    /// and MMPTCP's packet-scatter flow is one of them — but not the only
    /// one, or the connection would silently be `Protocol::PacketScatter`.
    /// The fabric's shape is checked by its own config, whose builder would
    /// panic, and that check counts the hosts the workload may use. A
    /// `Custom` workload names each flow id once, between hosts that exist.
    pub fn validate(&self) -> Result<(), String> {
        if self.progress_interval.is_zero() {
            return Err("progress_interval must be positive".into());
        }
        let hosts = match &self.topology {
            TopologySpec::FatTree(c) => c.check(1)?,
            TopologySpec::MultiHomedFatTree(c) => c.check(2)?,
            TopologySpec::Vl2(c) => c.check()?,
            TopologySpec::Dumbbell(c) => c.check()?,
            TopologySpec::Parallel(c) => c.check()?,
        };
        match self.workload {
            WorkloadSpec::Paper(_) if hosts < 4 => {
                return Err(format!(
                    "the paper workload needs 4 hosts; the topology has {hosts}"
                ));
            }
            WorkloadSpec::Incast { fan_in: 0 | 1, .. } => {
                return Err("incast needs at least two senders per receiver".into());
            }
            WorkloadSpec::Incast { fan_in, .. } if hosts <= fan_in => {
                return Err(format!(
                    "one incast group needs {} hosts; the topology has {hosts}",
                    fan_in.saturating_add(1)
                ));
            }
            _ => {}
        }
        if let WorkloadSpec::Custom(flows) = &self.workload {
            if flows.is_empty() {
                return Err("custom workload has no flows".into());
            }
            // A host keeps one agent per flow id: a second flow with the same
            // id would replace the first one's sender and share its record.
            // Generators number flows 0..n, so ids below n are ticked off in a
            // table and only the others are sorted: sorting all 189 000 ids
            // of `mice_storm_tcp` was measured as 15-30 % of its set-up.
            let mut seen = vec![false; flows.len()];
            let mut sparse = Vec::new();
            for &FlowSpec { id, src, dst, .. } in flows {
                // Its receiver would replace its sender: it would never start.
                if src == dst {
                    return Err(format!("custom workload flow {id} has {src} at both ends"));
                }
                if src.index().max(dst.index()) >= hosts {
                    return Err(format!(
                        "custom workload flow {id} runs from host {} to host {}; \
                         the topology has {hosts} hosts",
                        src.index(),
                        dst.index()
                    ));
                }
                match usize::try_from(id).ok().and_then(|i| seen.get_mut(i)) {
                    Some(seen) => {
                        if std::mem::replace(seen, true) {
                            return Err(format!("custom workload repeats flow id {id}"));
                        }
                    }
                    None => sparse.push(id),
                }
            }
            sparse.sort_unstable();
            if let Some(pair) = sparse.windows(2).find(|pair| pair[0] == pair[1]) {
                return Err(format!("custom workload repeats flow id {}", pair[0]));
            }
        }
        for protocol in std::iter::once(&self.protocol).chain(&self.long_protocol) {
            let (name, subflows, needed) = match *protocol {
                Protocol::Mptcp { subflows: 0 } => {
                    return Err("MPTCP needs at least one subflow".into());
                }
                Protocol::Mptcp { subflows } => ("MPTCP", subflows, subflows),
                Protocol::Mmptcp { subflows: 0, .. } => {
                    return Err("MMPTCP with no subflows never leaves its scatter phase; \
                                use Protocol::PacketScatter"
                        .into());
                }
                Protocol::Mmptcp { subflows, .. } => {
                    ("MMPTCP", subflows, subflows.saturating_add(1))
                }
                _ => continue,
            };
            if needed > MAX_SUBFLOWS {
                return Err(format!(
                    "{name} with {subflows} subflows needs {needed} per connection; \
                     the limit is {MAX_SUBFLOWS}"
                ));
            }
        }
        Ok(())
    }

    /// The config with what no run of it reads erased, so two configs with
    /// one normal form run to the same counters, FCTs and losses, and differ
    /// at most in their deadline misses. Two rules, each pinned by
    /// `scenario::tests::a_normal_form_shares_its_cells_result`:
    /// MPTCP with one subflow is TCP, and only D²TCP reads the deadlines of
    /// the paper workload, which only short flows (which run `protocol`)
    /// carry. It decides which rows share a golden cell and which
    /// conservation runs are the same run; nothing runs it.
    pub(crate) fn normal(&self) -> ExperimentConfig {
        let single_path = |protocol| match protocol {
            Protocol::Mptcp { subflows: 1 } => Protocol::Tcp,
            other => other,
        };
        let mut normal = ExperimentConfig {
            protocol: single_path(self.protocol),
            long_protocol: self.long_protocol.map(single_path),
            ..self.clone()
        };
        match &mut normal.workload {
            WorkloadSpec::Paper(paper) if self.protocol != Protocol::D2tcp => {
                paper.deadlines = DeadlineModel::None;
            }
            _ => {}
        }
        normal
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use workload::FlowClass;

    /// Every rule of `validate`, one row each; `run` refuses with the same
    /// message before it builds anything.
    #[test]
    fn validate_bounds_subflows_per_connection() {
        let with = |protocol| ExperimentConfig::small_test(protocol, 1);
        let mmptcp = |subflows| Protocol::Mmptcp {
            subflows,
            switch: SwitchStrategy::default(),
            dupack: None,
        };
        let mptcp = |subflows| Protocol::Mptcp { subflows };
        let long = |protocol| {
            let mut config = with(Protocol::Tcp);
            config.long_protocol = Some(protocol);
            config
        };
        let (mut zero_tick, mut no_flows) = (with(Protocol::Tcp), with(Protocol::Tcp));
        zero_tick.progress_interval = SimDuration::ZERO;
        no_flows.workload = WorkloadSpec::Custom(Vec::new());
        let incast = |fan_in| ExperimentConfig {
            workload: WorkloadSpec::Incast {
                fan_in,
                bytes: 70_000,
                start: SimTime::ZERO,
            },
            ..with(Protocol::Tcp)
        };
        let paper_on_two_hosts = ExperimentConfig {
            topology: TopologySpec::Parallel(ParallelPathConfig::default()),
            ..with(Protocol::Tcp)
        };
        let on = |topology| ExperimentConfig {
            topology,
            ..with(Protocol::Tcp)
        };
        let fat_tree = |k, oversubscription| FatTreeConfig {
            k,
            oversubscription,
            ..FatTreeConfig::default()
        };
        let parallel = |host_pairs, paths| ParallelPathConfig {
            host_pairs,
            paths,
            ..ParallelPathConfig::default()
        };
        let no_hosts = DumbbellConfig {
            hosts_per_side: 0,
            ..DumbbellConfig::default()
        };
        let one_agg = Vl2Config {
            num_aggs: 1,
            ..Vl2Config::default()
        };
        let custom = |flows: &[(u64, u32, u32)]| {
            let mut config = with(Protocol::Tcp);
            let flow = |&(id, src, dst)| {
                let (src, dst) = (netsim::Addr(src), netsim::Addr(dst));
                FlowSpec::new(id, src, dst, Some(70_000), SimTime::ZERO, FlowClass::Short)
            };
            config.workload = WorkloadSpec::Custom(flows.iter().map(flow).collect());
            config
        };
        assert_eq!(with(mptcp(64)).validate(), Ok(()));
        assert_eq!(with(mptcp(1)).validate(), Ok(()));
        assert_eq!(with(mmptcp(63)).validate(), Ok(()));
        let rejected = [
            // The packet-scatter flow is the 65th subflow.
            (with(mmptcp(64)), "MMPTCP with 64 subflows needs 65"),
            (with(mptcp(65)), "MPTCP with 65"),
            (long(mmptcp(64)), "limit is 64"),
            (with(mptcp(0)), "at least one subflow"),
            (long(mptcp(0)), "at least one subflow"),
            (with(mmptcp(0)), "use Protocol::PacketScatter"),
            (long(mmptcp(0)), "use Protocol::PacketScatter"),
            (zero_tick, "progress_interval must be positive"),
            (no_flows, "custom workload has no flows"),
            // The second sender would silently replace the first.
            (custom(&[(1, 0, 1), (0, 2, 3), (1, 4, 5)]), "flow id 1"),
            (custom(&[(7, 0, 1), (8, 2, 3), (7, 4, 5)]), "flow id 7"),
            // The receiver would replace the sender: the flow never starts.
            (custom(&[(0, 0, 1), (1, 5, 5)]), "flow 1 has h5 at both"),
            (incast(1), "incast needs at least two senders"),
            // The fabric's builder would panic in a worker.
            (on(TopologySpec::FatTree(fat_tree(3, 1))), "k must be even"),
            (
                on(TopologySpec::FatTree(fat_tree(4, 0))),
                "over-subscription",
            ),
            (
                on(TopologySpec::MultiHomedFatTree(fat_tree(2, 1))),
                "dual-homing needs at least two edge switches",
            ),
            (on(TopologySpec::Parallel(parallel(1, 0))), "one path"),
            (on(TopologySpec::Parallel(parallel(0, 4))), "one host pair"),
            (on(TopologySpec::Dumbbell(no_hosts)), "one host per side"),
            (on(TopologySpec::Vl2(one_agg)), "two aggregation switches"),
            // Well-shaped, but beyond `small_test`'s 16 hosts: only the
            // count the fabric's check returns rejects these.
            (custom(&[(0, 0, 1), (1, 16, 2)]), "flow 1 runs from host 16"),
            (custom(&[(0, 3, 99)]), "to host 99; the topology has 16"),
            (incast(16), "group needs 17 hosts; the topology has 16"),
            (paper_on_two_hosts, "workload needs 4 hosts"),
        ];
        for (config, expected) in rejected {
            let err = config.validate().expect_err(expected);
            assert!(err.contains(expected), "{err}");
            let panic = std::panic::catch_unwind(|| crate::run(config)).unwrap_err();
            let message = panic.downcast_ref::<String>().unwrap();
            assert_eq!(*message, format!("invalid experiment configuration: {err}"));
        }
    }

    #[test]
    fn protocol_names() {
        assert_eq!(Protocol::Tcp.name(), "tcp");
        assert_eq!(Protocol::mptcp8().name(), "mptcp-8");
        assert_eq!(Protocol::mmptcp_default().name(), "mmptcp-8");
        assert_eq!(Protocol::PacketScatter.name(), "packet-scatter");
        assert_eq!(Protocol::Dctcp.name(), "dctcp");
        assert_eq!(Protocol::D2tcp.name(), "d2tcp");
        assert_eq!(Protocol::repflow().name(), "repflow");
        assert_eq!(Protocol::repsyn().name(), "repsyn");
    }

    #[test]
    fn repflow_presets_use_the_100kb_boundary() {
        let Protocol::RepFlow {
            threshold,
            syn_only,
        } = Protocol::repflow()
        else {
            panic!("wrong variant");
        };
        assert_eq!(threshold, 100_000);
        assert!(!syn_only);
        assert!(matches!(
            Protocol::repsyn(),
            Protocol::RepFlow { syn_only: true, .. }
        ));
    }

    #[test]
    fn default_engine_is_packet_and_hybrid_carries_its_threshold() {
        assert_eq!(ExperimentConfig::default().engine, Engine::Packet);
        assert_eq!(Engine::Packet.fluid_threshold(), None);
        assert_eq!(Engine::Packet.label(), "packet");
        let h = Engine::hybrid_default();
        assert_eq!(h.fluid_threshold(), Some(1_000_000));
        assert_eq!(h.label(), "hybrid");
    }

    #[test]
    fn default_path_policy_is_flow_hash_ecmp() {
        assert_eq!(
            ExperimentConfig::default().path_policy,
            PathPolicy::FlowHash
        );
    }

    #[test]
    fn figure1_pins_a_goodput_horizon() {
        let c = ExperimentConfig::figure1(Protocol::Tcp, 1, false, 4);
        assert_eq!(c.goodput_horizon, Some(SimDuration::from_secs(1)));
        assert_eq!(ExperimentConfig::default().goodput_horizon, None);
    }

    /// Every fabric builds, and its `check` counts the hosts its builder
    /// builds: the count `validate` holds a workload to.
    #[test]
    fn topology_specs_build() {
        let (small, dumbbell) = (FatTreeConfig::small(), DumbbellConfig::default());
        let (parallel, vl2) = (ParallelPathConfig::default(), Vl2Config::default());
        let specs = [
            (TopologySpec::FatTree(small), small.check(1), 16),
            (TopologySpec::MultiHomedFatTree(small), small.check(2), 16),
            (TopologySpec::Dumbbell(dumbbell), dumbbell.check(), 4),
            (TopologySpec::Parallel(parallel), parallel.check(), 2),
            (TopologySpec::Vl2(vl2), vl2.check(), 64),
        ];
        for (spec, checked, hosts) in specs {
            assert_eq!(spec.build().host_count(), hosts, "{spec:?}");
            assert_eq!(checked, Ok(hosts), "{spec:?}");
        }
    }

    #[test]
    fn default_config_is_benchmark_scale() {
        let c = ExperimentConfig::default();
        match c.topology {
            TopologySpec::FatTree(ft) => assert_eq!(ft.total_hosts(), 64),
            _ => panic!("unexpected default topology"),
        }
    }

    #[test]
    fn figure1_full_uses_paper_scale() {
        let c = ExperimentConfig::figure1(Protocol::mptcp8(), 1, true, 8);
        match c.topology {
            TopologySpec::FatTree(ft) => assert_eq!(ft.total_hosts(), 512),
            _ => panic!(),
        }
    }
}
