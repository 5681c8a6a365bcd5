//! The scenario registry: every canonical experiment as a named, data-driven
//! spec instead of a copy-pasted binary.
//!
//! A [`Scenario`] expands to a deterministic, labelled list of
//! [`ExperimentConfig`]s at one of three fidelities — [`Fidelity::Fast`]
//! (the CI / golden-snapshot scale, seconds per scenario), [`Fidelity::Full`]
//! (the 64-host benchmark scale the replaced binaries ran by default) or
//! [`Fidelity::Paper`] (their old `--full` 512-server scale). Running a
//! scenario fans the configs across the parallel [`crate::Driver`] and
//! [`report`] distils each run into a canonical
//! [`metrics::report::ScenarioReport`] JSON document.
//!
//! The golden tier pins each distinct fast configuration once: [`cells`]
//! lists them, `tests/golden/cells.json` holds their rows, and
//! [`Scenario::reassemble`] rebuilds any scenario's document from it. The
//! `scenarios` binary (crate `bench`) checks the cells in CI, so any
//! behavioural drift in the simulator, transports, workloads or topologies
//! becomes an explicit, reviewable diff — one per changed cell.
//!
//! The catalog covers the paper's figures (`fig1a`, `fig1bc`), the load and
//! incast sweeps, empirical flow-size workloads (`web-search`,
//! `data-mining`), traffic-matrix variations (`hotspot`), link-failure
//! injection (`link-failure`), protocol co-existence (`coexistence`) and
//! Figure 1 over seeds behind an over-subscribed core (`fig1-seeds`).

use crate::config::{Engine, ExperimentConfig, Protocol, TopologySpec, WorkloadSpec};
use crate::results::ExperimentResults;
use metrics::report::{FctDoc, RunReport, ScenarioReport, TierCounts};
use netsim::{PathPolicy, SimDuration, SimTime};
use topology::{FatTreeConfig, LinkFailureSpec};
use transport::{CongestionControl, DupAckPolicy, SwitchStrategy};
use workload::{ArrivalProcess, DeadlineModel, FlowSizeModel, PaperWorkloadConfig, TrafficMatrix};

/// The scale a scenario expands to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Fidelity {
    /// Small, seconds-per-scenario scale used by tests and the CI golden
    /// check: 16-host FatTree (32 hosts where a scenario needs a 2:1
    /// over-subscribed core), few flows and seeds.
    Fast,
    /// The scale the replaced harness binaries ran by default: the 64-host,
    /// 4:1 over-subscribed benchmark FatTree with 10 flows per short host —
    /// the paper's contention regime at laptop-friendly cost.
    Full,
    /// The paper's actual evaluation scale (the binaries' old `--full`
    /// flag): the 512-server, 4:1 over-subscribed k=8 FatTree.
    Paper,
}

impl Fidelity {
    /// Stable label used in reports.
    pub fn label(&self) -> &'static str {
        match self {
            Fidelity::Fast => "fast",
            Fidelity::Full => "full",
            Fidelity::Paper => "paper",
        }
    }
}

/// A named, data-driven experiment: topology + workload + transport +
/// parameter sweep + seeds, expanded deterministically per fidelity.
///
/// ```
/// use mmptcp::scenario::{find, Fidelity};
///
/// let scenario = find("fig1a").expect("fig1a is in the catalog");
/// // Expansion is deterministic: the same fidelity always yields the same
/// // labelled configuration list (the golden-snapshot contract).
/// let configs = scenario.configs(Fidelity::Fast);
/// assert_eq!(configs.len(), 3);
/// assert_eq!(configs[0].0, "mptcp-1");
/// assert_eq!(configs, scenario.configs(Fidelity::Fast));
/// // `Driver::run_labelled(configs)` executes them on the parallel driver
/// // and `scenario::report` distils the canonical `ScenarioReport`.
/// ```
pub struct Scenario {
    /// Registry name.
    pub name: &'static str,
    /// One-line description shown by `scenarios list`.
    pub description: &'static str,
    build: fn(Fidelity) -> Vec<(String, ExperimentConfig)>,
}

impl Scenario {
    /// Expand into labelled configurations (deterministic per fidelity).
    pub fn configs(&self, fidelity: Fidelity) -> Vec<(String, ExperimentConfig)> {
        (self.build)(fidelity)
    }

    /// This scenario's fast document, rebuilt from the golden cells document
    /// (the rendering of [`cells`]): each row is the cell whose config equals
    /// the row's, under the row's own label. Fails when a cell is missing.
    pub fn reassemble(&self, golden: &ScenarioReport) -> Result<ScenarioReport, String> {
        let cells = cells();
        let runs = self
            .configs(Fidelity::Fast)
            .into_iter()
            .map(|(label, config)| {
                let (name, _) = cells
                    .iter()
                    .find(|(_, cell)| *cell == config)
                    .expect("every fast row is a cell");
                let run = golden.runs.iter().find(|r| r.label == *name);
                let run = run.ok_or_else(|| format!("{}: no golden cell `{name}`", self.name))?;
                Ok(RunReport {
                    label,
                    ..run.clone()
                })
            })
            .collect::<Result<_, String>>()?;
        Ok(ScenarioReport {
            scenario: self.name.to_string(),
            fidelity: Fidelity::Fast.label().to_string(),
            runs,
        })
    }
}

/// Every distinct fast configuration of the catalog, once, in catalog
/// order: the golden cells. A cell is named `<scenario> / <label>` after its
/// first row; a later row whose config is equal shares it.
pub fn cells() -> Vec<(String, ExperimentConfig)> {
    let mut cells: Vec<(String, ExperimentConfig)> = Vec::new();
    for s in catalog() {
        for (label, config) in s.configs(Fidelity::Fast) {
            if !cells.iter().any(|(_, cell)| *cell == config) {
                cells.push((format!("{} / {label}", s.name), config));
            }
        }
    }
    cells
}

/// Distil labelled results into the canonical metrics document.
pub fn report(
    scenario: &str,
    fidelity: Fidelity,
    results: &[(String, ExperimentResults)],
) -> ScenarioReport {
    ScenarioReport {
        scenario: scenario.to_string(),
        fidelity: fidelity.label().to_string(),
        runs: results
            .iter()
            .map(|(label, r)| run_report(label, r))
            .collect(),
    }
}

fn run_report(label: &str, r: &ExperimentResults) -> RunReport {
    let s = r.short_fct_summary();
    RunReport {
        label: label.to_string(),
        short_fct: FctDoc::from_summary(&s),
        mice_fct: FctDoc::from_summary(&r.mice_fct_summary()),
        all_short_completed: r.all_short_completed,
        short_flows_with_rto: r.short_flows_with_rto(),
        rtos: r.metrics.total_rtos(|_| true),
        long_goodput_gbps: r.long_goodput_bps() / 1e9,
        drops: TierCounts {
            edge: r.loss.edge.dropped,
            aggregation: r.loss.aggregation.dropped,
            core: r.loss.core.dropped,
            host: r.loss.host.dropped,
        },
        ecn_marks: TierCounts {
            edge: r.loss.edge.marked,
            aggregation: r.loss.aggregation.marked,
            core: r.loss.core.marked,
            host: r.loss.host.marked,
        },
        phase_switches: r.phase_switches(),
        redundant_bytes: r.redundant_bytes(),
        core_utilisation: r.core_utilisation.mean,
    }
}

/// The full scenario catalog, in stable display order.
pub fn catalog() -> &'static [Scenario] {
    static CATALOG: [Scenario; 17] = [
        Scenario {
            name: "fig1a",
            description: "Figure 1(a): MPTCP short-flow FCT vs subflow count (1..9)",
            build: fig1a,
        },
        Scenario {
            name: "fig1bc",
            description: "Figures 1(b)/(c): per-flow FCT, MPTCP-8 vs MMPTCP-8",
            build: fig1bc,
        },
        Scenario {
            name: "load-sweep",
            description: "Short-flow FCT vs offered load (Poisson inter-arrival sweep)",
            build: load_sweep,
        },
        Scenario {
            name: "incast",
            description: "TCP-incast fan-in sweep: N synchronised senders per receiver",
            build: incast,
        },
        Scenario {
            name: "web-search",
            description: "Empirical web-search flow-size CDF (DCTCP paper) workload",
            build: web_search,
        },
        Scenario {
            name: "data-mining",
            description: "Empirical data-mining flow-size CDF (VL2 paper) workload",
            build: data_mining,
        },
        Scenario {
            name: "hotspot",
            description: "Permutation vs hotspot traffic matrix (25% of flows on 4 hot hosts)",
            build: hotspot,
        },
        Scenario {
            name: "link-failure",
            description: "Aggregation-to-core uplink failures: 0 / 12.5% / 25% failed",
            build: link_failure,
        },
        Scenario {
            name: "coexistence",
            description: "MMPTCP short flows sharing the fabric with TCP/MPTCP long flows",
            build: coexistence,
        },
        Scenario {
            name: "battle-matrix",
            description: "Every transport (incl. RepFlow/RepSYN, DiffFlow routing) x empirical workload x load",
            build: battle_matrix,
        },
        Scenario {
            name: "cc-battle",
            description: "Congestion-controller duel: Reno vs CUBIC vs BBR vs DCTCP on the Figure-1 cell",
            build: cc_battle,
        },
        Scenario {
            name: "mega-load-sweep",
            description: "Hybrid-engine stress: 100k+ bounded data-mining flows, cap-limited burst",
            build: mega_load_sweep,
        },
        Scenario {
            name: "switching",
            description: "MMPTCP phase-switching trigger: data volume vs congestion event vs never",
            build: switching,
        },
        Scenario {
            name: "dupack",
            description: "Scatter-phase duplicate-ACK threshold: fixed 3 / topology-aware / adaptive / both",
            build: dupack,
        },
        Scenario {
            name: "multihomed",
            description: "Single-homed vs dual-homed FatTree access layer, MMPTCP-8 and MPTCP-8",
            build: multihomed,
        },
        Scenario {
            name: "deadlines",
            description: "Deadline-bound short flows: deadline-aware D2TCP vs deadline-blind transports",
            build: deadlines,
        },
        Scenario {
            name: "fig1-seeds",
            description: "Figures 1(b)/(c) over five seeds on an over-subscribed core, MPTCP-8 vs MMPTCP-8",
            build: fig1_seeds,
        },
    ];
    &CATALOG
}

/// Look a scenario up by name.
pub fn find(name: &str) -> Option<&'static Scenario> {
    catalog().iter().find(|s| s.name == name)
}

// --- Base configurations ------------------------------------------------

/// The figure-faithful base the replaced harness binaries used by default:
/// `ExperimentConfig::figure1` at benchmark scale, seed 1, 10 flows per
/// short-flow host.
fn full_base(protocol: Protocol) -> ExperimentConfig {
    ExperimentConfig::figure1(protocol, 1, false, 10)
}

/// CI-scale base: the `small_test` configuration plus the Figure-1 goodput
/// horizon so long-flow goodput stays comparable across runs.
fn fast_base(protocol: Protocol) -> ExperimentConfig {
    ExperimentConfig {
        goodput_horizon: Some(SimDuration::from_secs(1)),
        ..ExperimentConfig::small_test(protocol, 1)
    }
}

/// Paper-scale base: what the replaced binaries ran under their `--full`
/// flag — the 512-server FatTree of the paper's evaluation.
fn paper_base(protocol: Protocol) -> ExperimentConfig {
    ExperimentConfig::figure1(protocol, 1, true, 10)
}

fn base(fidelity: Fidelity, protocol: Protocol) -> ExperimentConfig {
    match fidelity {
        Fidelity::Fast => fast_base(protocol),
        Fidelity::Full => full_base(protocol),
        Fidelity::Paper => paper_base(protocol),
    }
}

fn with_paper_workload(
    mut config: ExperimentConfig,
    f: impl FnOnce(&mut PaperWorkloadConfig),
) -> ExperimentConfig {
    if let WorkloadSpec::Paper(p) = &mut config.workload {
        f(p);
    }
    config
}

// --- Scenario builders --------------------------------------------------

fn fig1a(fidelity: Fidelity) -> Vec<(String, ExperimentConfig)> {
    let subflows: &[usize] = match fidelity {
        Fidelity::Fast => &[1, 4, 8],
        _ => &[1, 2, 3, 4, 5, 6, 7, 8, 9],
    };
    subflows
        .iter()
        .map(|&n| {
            (
                format!("mptcp-{n}"),
                base(fidelity, Protocol::Mptcp { subflows: n }),
            )
        })
        .collect()
}

fn fig1bc(fidelity: Fidelity) -> Vec<(String, ExperimentConfig)> {
    [
        ("mptcp-8 (Figure 1b)", Protocol::mptcp8()),
        ("mmptcp-8 (Figure 1c)", Protocol::mmptcp_default()),
    ]
    .into_iter()
    .map(|(label, p)| (label.to_string(), base(fidelity, p)))
    .collect()
}

fn load_sweep(fidelity: Fidelity) -> Vec<(String, ExperimentConfig)> {
    let (protocols, loads_ms): (&[Protocol], &[u64]) = match fidelity {
        Fidelity::Fast => (&[Protocol::Tcp, Protocol::mmptcp_default()], &[40, 20]),
        _ => (
            &[
                Protocol::Tcp,
                Protocol::mptcp8(),
                Protocol::mmptcp_default(),
            ],
            &[300, 150, 75, 40],
        ),
    };
    let mut out = Vec::new();
    for &p in protocols {
        for &ms in loads_ms {
            let cfg = with_paper_workload(base(fidelity, p), |w| {
                w.arrivals = ArrivalProcess::Poisson {
                    mean_interarrival: SimDuration::from_millis(ms),
                };
            });
            out.push((format!("{} @ {ms} ms", p.name()), cfg));
        }
    }
    out
}

fn incast(fidelity: Fidelity) -> Vec<(String, ExperimentConfig)> {
    let (protocols, fan_ins, bytes): (&[Protocol], &[usize], u64) = match fidelity {
        Fidelity::Fast => (
            &[Protocol::Tcp, Protocol::mmptcp_default()],
            &[4, 8],
            32_000,
        ),
        _ => (
            &[
                Protocol::Tcp,
                Protocol::Dctcp,
                Protocol::mptcp8(),
                Protocol::PacketScatter,
                Protocol::mmptcp_default(),
            ],
            &[4, 8, 16, 32],
            64_000,
        ),
    };
    let topology = match fidelity {
        Fidelity::Fast => TopologySpec::FatTree(FatTreeConfig::small()),
        Fidelity::Full => TopologySpec::FatTree(FatTreeConfig::benchmark()),
        Fidelity::Paper => TopologySpec::FatTree(FatTreeConfig::paper()),
    };
    let mut out = Vec::new();
    for &fan_in in fan_ins {
        for &p in protocols {
            out.push((
                format!("{} | {fan_in}", p.name()),
                ExperimentConfig {
                    topology,
                    workload: WorkloadSpec::Incast {
                        fan_in,
                        bytes,
                        start: SimTime::from_millis(1),
                    },
                    protocol: p,
                    seed: 1,
                    ..ExperimentConfig::default()
                },
            ));
        }
    }
    out
}

fn empirical(fidelity: Fidelity, size: FlowSizeModel) -> Vec<(String, ExperimentConfig)> {
    let protocols: &[Protocol] = match fidelity {
        Fidelity::Fast => &[Protocol::Tcp, Protocol::mmptcp_default()],
        _ => &[
            Protocol::Tcp,
            Protocol::mptcp8(),
            Protocol::mmptcp_default(),
        ],
    };
    protocols
        .iter()
        .map(|&p| {
            let cfg = with_paper_workload(base(fidelity, p), |w| {
                w.short_size = size;
            });
            (p.name(), cfg)
        })
        .collect()
}

fn web_search(fidelity: Fidelity) -> Vec<(String, ExperimentConfig)> {
    empirical(fidelity, FlowSizeModel::WebSearch)
}

fn data_mining(fidelity: Fidelity) -> Vec<(String, ExperimentConfig)> {
    empirical(fidelity, FlowSizeModel::DataMining)
}

fn hotspot(fidelity: Fidelity) -> Vec<(String, ExperimentConfig)> {
    let protocols: &[Protocol] = match fidelity {
        Fidelity::Fast => &[Protocol::Tcp, Protocol::mmptcp_default()],
        _ => &[
            Protocol::mptcp8(),
            Protocol::mmptcp_default(),
            Protocol::Tcp,
        ],
    };
    let mut out = Vec::new();
    for &p in protocols {
        out.push((format!("{} / permutation", p.name()), base(fidelity, p)));
        out.push((
            format!("{} / hotspot", p.name()),
            with_paper_workload(base(fidelity, p), |w| {
                w.matrix = TrafficMatrix::Hotspot {
                    hot_hosts: 4,
                    hot_fraction_millis: 250,
                };
            }),
        ));
    }
    out
}

fn link_failure(fidelity: Fidelity) -> Vec<(String, ExperimentConfig)> {
    let protocols: &[Protocol] = match fidelity {
        Fidelity::Fast => &[Protocol::mmptcp_default()],
        _ => &[Protocol::mptcp8(), Protocol::mmptcp_default()],
    };
    let mut out = Vec::new();
    for &p in protocols {
        for &millis in &[0u32, 125, 250] {
            let mut cfg = base(fidelity, p);
            // The unfailed row is the plain base, so it shares its cell.
            if let (TopologySpec::FatTree(ft), true) = (&mut cfg.topology, millis > 0) {
                ft.failures = LinkFailureSpec::agg_core(millis, 42);
            }
            out.push((format!("{} / failed {millis}/1000", p.name()), cfg));
        }
    }
    out
}

fn coexistence(fidelity: Fidelity) -> Vec<(String, ExperimentConfig)> {
    let combos: &[(&str, Protocol, Option<Protocol>)] = &[
        (
            "short mmptcp / long mmptcp",
            Protocol::mmptcp_default(),
            None,
        ),
        (
            "short mmptcp / long mptcp-8",
            Protocol::mmptcp_default(),
            Some(Protocol::mptcp8()),
        ),
        (
            "short mmptcp / long tcp",
            Protocol::mmptcp_default(),
            Some(Protocol::Tcp),
        ),
        (
            "short mptcp-8 / long tcp",
            Protocol::mptcp8(),
            Some(Protocol::Tcp),
        ),
    ];
    combos
        .iter()
        .map(|&(label, short, long)| {
            let mut cfg = base(fidelity, short);
            cfg.long_protocol = long;
            (label.to_string(), cfg)
        })
        .collect()
}

/// The short-vs-long battleground: every transport family (including the
/// replication-based RepFlow/RepSYN and switch-side DiffFlow size-aware
/// routing) crossed with both empirical flow-size workloads and an offered
/// load sweep. Load is expressed as the target fraction of a host's access
/// link consumed by its short-flow arrivals: the Poisson mean inter-arrival
/// is derived from the workload CDF's analytic mean flow size, so "load 0.6"
/// means the same pressure under web-search and data-mining sizes.
fn battle_matrix(fidelity: Fidelity) -> Vec<(String, ExperimentConfig)> {
    let variants: Vec<(&'static str, Protocol, PathPolicy)> = match fidelity {
        Fidelity::Fast => vec![
            ("tcp", Protocol::Tcp, PathPolicy::FlowHash),
            ("mptcp-8", Protocol::mptcp8(), PathPolicy::FlowHash),
            ("mmptcp-8", Protocol::mmptcp_default(), PathPolicy::FlowHash),
            ("repflow", Protocol::repflow(), PathPolicy::FlowHash),
            (
                "tcp+diffflow",
                Protocol::Tcp,
                PathPolicy::diffflow_default(),
            ),
        ],
        _ => vec![
            ("tcp", Protocol::Tcp, PathPolicy::FlowHash),
            ("dctcp", Protocol::Dctcp, PathPolicy::FlowHash),
            ("mptcp-8", Protocol::mptcp8(), PathPolicy::FlowHash),
            (
                "packet-scatter",
                Protocol::PacketScatter,
                PathPolicy::FlowHash,
            ),
            ("mmptcp-8", Protocol::mmptcp_default(), PathPolicy::FlowHash),
            ("repflow", Protocol::repflow(), PathPolicy::FlowHash),
            ("repsyn", Protocol::repsyn(), PathPolicy::FlowHash),
            (
                "tcp+diffflow",
                Protocol::Tcp,
                PathPolicy::diffflow_default(),
            ),
        ],
    };
    // The congestion-control axis joins the battle at the larger fidelities:
    // single-path TCP re-run under CUBIC and BBR. The fast (golden-pinned)
    // arm stays Reno-only so the snapshot grid keeps its size.
    let cc_of = |variant: &str| match variant {
        "tcp-cubic" => CongestionControl::Cubic,
        "tcp-bbr" => CongestionControl::Bbr,
        _ => CongestionControl::Reno,
    };
    let variants: Vec<(&'static str, Protocol, PathPolicy)> = match fidelity {
        Fidelity::Fast => variants,
        _ => {
            let mut v = variants;
            v.push(("tcp-cubic", Protocol::Tcp, PathPolicy::FlowHash));
            v.push(("tcp-bbr", Protocol::Tcp, PathPolicy::FlowHash));
            v
        }
    };
    let workloads: &[(&str, FlowSizeModel)] = &[
        ("web-search", FlowSizeModel::WebSearch),
        ("data-mining", FlowSizeModel::DataMining),
    ];
    // Target loads in thousandths of the access-link rate.
    let loads: &[u32] = match fidelity {
        Fidelity::Fast => &[400, 600],
        _ => &[200, 400, 600, 800],
    };
    // At the 16-host fast scale a single permutation matrix leaves only ~5
    // long flows, so per-cell goodput is dominated by which paths collide;
    // two seeds per cell make cross-transport comparisons meaningful, and
    // the MPTCP-8 / MMPTCP-8 goodput comparison pools eight (one seed's ratio
    // ranges 0.75-1.49). The larger fidelities have enough flows per run.
    let seeds = |variant: &str| -> &'static [u64] {
        match (fidelity, variant) {
            (Fidelity::Fast, "mptcp-8" | "mmptcp-8") => &[1, 2, 3, 4, 5, 6, 7, 8],
            (Fidelity::Fast, _) => &[1, 2],
            _ => &[1],
        }
    };
    let mut out = Vec::new();
    for &(wl_name, model) in workloads {
        let mean_flow_bits = model.cdf().expect("empirical workload").mean() * 8.0;
        for &load in loads {
            // Host access links are 1 Gbps in every battle topology.
            let arrival_rate = 1e9 * (load as f64 / 1000.0) / mean_flow_bits;
            let interarrival = SimDuration::from_secs_f64(1.0 / arrival_rate);
            for &(variant, protocol, policy) in &variants {
                let mut cfg = with_paper_workload(base(fidelity, protocol), |w| {
                    w.short_size = model;
                    w.arrivals = ArrivalProcess::Poisson {
                        mean_interarrival: interarrival,
                    };
                });
                cfg.path_policy = policy;
                cfg.transport.cc = cc_of(variant);
                // Empirical-CDF mice bursts displace elephants for hundreds
                // of milliseconds at a time; a multi-second goodput window
                // averages over those transients so long-flow comparisons
                // across transports are not dominated by which burst the
                // 1 s Figure-1 window happens to straddle.
                cfg.goodput_horizon = Some(SimDuration::from_secs(3));
                for &seed in seeds(variant) {
                    let mut c = cfg.clone();
                    c.seed = seed;
                    let load_label = format!("load {:.1}", load as f64 / 1000.0);
                    let label = if fidelity == Fidelity::Fast {
                        format!("{variant} | {wl_name} @ {load_label} seed={seed}")
                    } else {
                        format!("{variant} | {wl_name} @ {load_label}")
                    };
                    out.push((label, c));
                }
            }
        }
    }
    out
}

/// The congestion-controller battleground: the same Figure-1 cell
/// (permutation matrix, short flows arriving over long background flows)
/// run under every controller behind the `transport::cc` trait — single-path
/// TCP with Reno, CUBIC and BBR, DCTCP (the ECN responder layered on Reno),
/// and MMPTCP-8 under Reno vs BBR. The fast variant is golden-pinned, so the
/// per-ack arithmetic of every controller (and the DCTCP-on-trait layering)
/// is frozen as an explicit, reviewable snapshot.
fn cc_battle(fidelity: Fidelity) -> Vec<(String, ExperimentConfig)> {
    let cells: &[(&str, Protocol, CongestionControl)] = &[
        ("tcp-reno", Protocol::Tcp, CongestionControl::Reno),
        ("tcp-cubic", Protocol::Tcp, CongestionControl::Cubic),
        ("tcp-bbr", Protocol::Tcp, CongestionControl::Bbr),
        ("dctcp", Protocol::Dctcp, CongestionControl::Reno),
        (
            "mmptcp-8-reno",
            Protocol::mmptcp_default(),
            CongestionControl::Reno,
        ),
        (
            "mmptcp-8-bbr",
            Protocol::mmptcp_default(),
            CongestionControl::Bbr,
        ),
    ];
    cells
        .iter()
        .map(|&(label, p, cc)| {
            let mut cfg = base(fidelity, p);
            cfg.transport.cc = cc;
            (label.to_string(), cfg)
        })
        .collect()
}

/// Hybrid-engine stress scenario: a flow-count sweep whose top rung is only
/// routinely runnable on the fluid fast path. Every host generates bounded
/// data-mining flows (no unbounded background flows, so the CDF's heavy tail
/// is eligible for fluid handoff), arrivals are compressed into the first few
/// tens of milliseconds, and the run is hard-capped, so the golden document
/// pins a deterministic cap-limited snapshot. At fast fidelity the largest
/// rung alone generates 16 hosts x 6500 = 104 000 flows; the smallest rung
/// leads the expansion so debug-profile conformance sweeps (which take each
/// scenario's first fast config) stay tractable on the packet engine too.
fn mega_load_sweep(fidelity: Fidelity) -> Vec<(String, ExperimentConfig)> {
    // Hosts per fidelity mirror `base`: small/benchmark/paper FatTrees.
    let (flow_counts, hosts): (&[usize], usize) = match fidelity {
        Fidelity::Fast => (&[50, 1_000, 6_500], 16),
        Fidelity::Full => (&[50, 1_000, 6_500], 64),
        Fidelity::Paper => (&[500, 2_500], 512),
    };
    flow_counts
        .iter()
        .map(|&n| {
            let mut cfg = with_paper_workload(base(fidelity, Protocol::mmptcp_default()), |w| {
                w.long_host_millis = 0;
                w.short_size = FlowSizeModel::DataMining;
                w.flows_per_short_host = n;
                w.arrivals = ArrivalProcess::Poisson {
                    mean_interarrival: SimDuration::from_micros(5),
                };
                w.short_start = SimTime::from_millis(1);
            });
            cfg.engine = Engine::hybrid_default();
            cfg.max_sim_time = SimDuration::from_millis(250);
            // No unbounded long flows exist, so the Figure-1 goodput window
            // would just measure zero over a second the run never reaches.
            cfg.goodput_horizon = None;
            (format!("mmptcp-8 hybrid | {} flows", n * hosts), cfg)
        })
        .collect()
}

/// MMPTCP-8 with an explicit phase-switching trigger and scatter-phase
/// duplicate-ACK policy (`None` = the runner's topology-adaptive default).
fn mmptcp8(switch: SwitchStrategy, dupack: Option<DupAckPolicy>) -> Protocol {
    Protocol::Mmptcp {
        subflows: 8,
        switch,
        dupack,
    }
}

/// Paper §2 "Phase Switching": switching after a fixed data volume (a sweep
/// of thresholds) against switching at the first congestion event and never
/// switching (the packet-scatter-only ablation). Short-flow FCT should not
/// regress while the threshold exceeds the 70 KB short-flow size, and
/// long-flow goodput should not depend on it (the MPTCP subflows ramp up
/// within a few RTTs of the switch).
fn switching(fidelity: Fidelity) -> Vec<(String, ExperimentConfig)> {
    let thresholds_kb: &[u64] = match fidelity {
        Fidelity::Fast => &[70, 1_000],
        _ => &[70, 140, 210, 500, 1_000],
    };
    let mut cells: Vec<(String, Protocol)> = thresholds_kb
        .iter()
        .map(|&kb| {
            let switch = SwitchStrategy::DataVolume(kb * 1_000);
            (format!("data-volume {kb} KB"), mmptcp8(switch, None))
        })
        .collect();
    cells.push((
        "congestion-event".to_string(),
        mmptcp8(SwitchStrategy::CongestionEvent, None),
    ));
    cells.push(("never (PS only)".to_string(), Protocol::PacketScatter));
    cells
        .into_iter()
        .map(|(label, p)| (label, base(fidelity, p)))
        .collect()
}

/// Paper §2 "Packet Scatter Phase": the scatter-phase duplicate-ACK
/// threshold. The standard threshold of 3 misreads scatter reordering as
/// loss; the paper proposes deriving it from the topology's path count, or
/// adapting it RR-TCP-style; the runner's default combines both.
fn dupack(fidelity: Fidelity) -> Vec<(String, ExperimentConfig)> {
    // Inter-pod equal-cost path count of the FatTree under test: (k/2)^2.
    let paths = match fidelity {
        Fidelity::Paper => 16,
        _ => 4,
    };
    [
        ("fixed 3 (standard TCP)", Some(DupAckPolicy::Fixed(3))),
        (
            "topology-aware only",
            Some(DupAckPolicy::TopologyAware { paths }),
        ),
        (
            "adaptive (RR-TCP style)",
            Some(DupAckPolicy::Adaptive {
                initial: 3,
                step: 4,
                max: 64,
            }),
        ),
        ("topology-adaptive (default)", None),
    ]
    .into_iter()
    .map(|(label, policy)| {
        let protocol = mmptcp8(SwitchStrategy::default(), policy);
        (label.to_string(), base(fidelity, protocol))
    })
    .collect()
}

/// Paper §3 roadmap: multi-homed topologies ("the more parallel paths at the
/// access layer, the higher the burst tolerance"). The Figure-1 workload on
/// the standard FatTree and on the same FatTree with every host attached to
/// two edge switches.
fn multihomed(fidelity: Fidelity) -> Vec<(String, ExperimentConfig)> {
    let mut out = Vec::new();
    for p in [Protocol::mmptcp_default(), Protocol::mptcp8()] {
        let single = base(fidelity, p);
        let mut dual = single.clone();
        if let TopologySpec::FatTree(ft) = single.topology {
            dual.topology = TopologySpec::MultiHomedFatTree(ft);
        }
        out.push((format!("{} / single-homed", p.name()), single));
        out.push((format!("{} / dual-homed", p.name()), dual));
    }
    out
}

/// The paper's introduction: short flows "commonly come with strict
/// deadlines ... even a single RTO may result in flow deadline violation".
/// Every short flow gets a deadline; D²TCP uses it, everything else —
/// MMPTCP included — does not. The report carries FCTs, RTOs and marks per
/// cell; `scenarios run deadlines` prints each cell's
/// `ExperimentResults::deadline_misses()` as `missed/total`.
fn deadlines(fidelity: Fidelity) -> Vec<(String, ExperimentConfig)> {
    let slack = |slack: f64, floor_ms: u64| DeadlineModel::Slack {
        slack,
        reference_gbps: 1.0,
        floor: SimDuration::from_millis(floor_ms),
    };
    let loose = (
        "loose (fixed 100 ms)",
        DeadlineModel::Fixed(SimDuration::from_millis(100)),
    );
    let (protocols, models): (&[Protocol], Vec<(&str, DeadlineModel)>) = match fidelity {
        // On the 16-host fabric the larger grids' 10 ms floor sits so far
        // above every FCT that D²TCP's imminence factor clamps to its lower
        // bound under the tight and the loose model alike; a 2x slack with a
        // 1 ms floor puts the mice inside the range where it moves.
        Fidelity::Fast => (
            &[Protocol::Dctcp, Protocol::D2tcp, Protocol::mmptcp_default()],
            vec![("tight (2x, 1 ms floor)", slack(2.0, 1)), loose],
        ),
        _ => (
            &[
                Protocol::Tcp,
                Protocol::Dctcp,
                Protocol::D2tcp,
                Protocol::mptcp8(),
                Protocol::mmptcp_default(),
            ],
            vec![
                ("tight (5x, 10 ms floor)", slack(5.0, 10)),
                ("moderate (20x, 25 ms floor)", slack(20.0, 25)),
                loose,
            ],
        ),
    };
    let mut out = Vec::new();
    for (model_name, model) in models {
        for &p in protocols {
            let cfg = with_paper_workload(base(fidelity, p), |w| w.deadlines = model);
            out.push((format!("{} | {model_name}", p.name()), cfg));
        }
    }
    out
}

/// The Figure-1 contrast where the paper finds it, behind an over-subscribed
/// core, and over seeds, since one seed at a small scale can read either
/// way: 70 KB Poisson short flows over long flows, MPTCP-8 against MMPTCP-8.
/// The fast base's 16-host tree is not over-subscribed, so the fast arm runs
/// k = 4 at 2:1 (32 hosts); the larger fidelities keep their 4:1 base.
/// `tests/paper_scenario.rs` reads the paper's claims off the fast cells.
fn fig1_seeds(fidelity: Fidelity) -> Vec<(String, ExperimentConfig)> {
    let cell = |protocol| match fidelity {
        Fidelity::Fast => ExperimentConfig {
            topology: TopologySpec::FatTree(FatTreeConfig {
                oversubscription: 2,
                ..FatTreeConfig::default()
            }),
            workload: WorkloadSpec::Paper(PaperWorkloadConfig {
                flows_per_short_host: 3,
                arrivals: ArrivalProcess::Poisson {
                    mean_interarrival: SimDuration::from_millis(30),
                },
                ..PaperWorkloadConfig::default()
            }),
            protocol,
            ..ExperimentConfig::default()
        },
        _ => base(fidelity, protocol),
    };
    let mut out = Vec::new();
    for p in [Protocol::mptcp8(), Protocol::mmptcp_default()] {
        for seed in 1..=5 {
            let cfg = ExperimentConfig { seed, ..cell(p) };
            out.push((format!("{} seed={seed}", p.name()), cfg));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn catalog_names_are_unique_and_plentiful() {
        let names: Vec<&str> = catalog().iter().map(|s| s.name).collect();
        assert!(names.len() >= 8, "catalog must have >= 8 scenarios");
        let mut dedup = names.clone();
        dedup.sort_unstable();
        dedup.dedup();
        assert_eq!(dedup.len(), names.len(), "duplicate scenario names");
        assert!(find("fig1a").is_some());
        assert!(find("no-such-scenario").is_none());
    }

    #[test]
    fn every_scenario_expands_deterministically_at_every_fidelity() {
        for s in catalog() {
            for fidelity in [Fidelity::Fast, Fidelity::Full, Fidelity::Paper] {
                let a = s.configs(fidelity);
                let b = s.configs(fidelity);
                assert!(!a.is_empty(), "{} has no configs", s.name);
                assert_eq!(a, b, "{} expansion must be deterministic", s.name);
                let mut labels: Vec<&String> = a.iter().map(|(l, _)| l).collect();
                labels.sort_unstable();
                labels.dedup();
                assert_eq!(labels.len(), a.len(), "{} labels must be unique", s.name);
            }
        }
    }

    #[test]
    fn fast_configs_stay_at_test_scale() {
        for s in catalog() {
            // An over-subscribed k = 4 tree has 32 hosts.
            let limit = if s.name == "fig1-seeds" { 32 } else { 16 };
            for (label, cfg) in s.configs(Fidelity::Fast) {
                let hosts = cfg.topology.build().host_count();
                assert!(
                    hosts <= limit,
                    "{}/{label} fast config uses {hosts} hosts",
                    s.name
                );
            }
        }
    }

    /// Differential guard for the deleted `fig1a` binary: the registry's full
    /// expansion must be exactly the configuration list the binary ran
    /// (`ExperimentConfig::figure1` per subflow count with the default
    /// harness options), so registry runs reproduce the old numbers
    /// run-for-run (the engine is deterministic per config+seed).
    #[test]
    fn fig1a_full_matches_the_replaced_binary() {
        let registry = find("fig1a").unwrap().configs(Fidelity::Full);
        let legacy: Vec<ExperimentConfig> = (1..=9)
            .map(|n| ExperimentConfig::figure1(Protocol::Mptcp { subflows: n }, 1, false, 10))
            .collect();
        assert_eq!(registry.len(), legacy.len());
        for ((label, cfg), old) in registry.iter().zip(&legacy) {
            assert_eq!(cfg, old, "config drift for {label}");
        }
    }

    /// Paper fidelity reproduces the deleted binaries' `--full` flag: the
    /// 512-server evaluation topology of the paper.
    #[test]
    fn paper_fidelity_uses_the_512_server_topology() {
        for (label, cfg) in find("fig1a").unwrap().configs(Fidelity::Paper) {
            assert_eq!(
                cfg,
                ExperimentConfig::figure1(cfg.protocol, 1, true, 10),
                "{label}"
            );
            let TopologySpec::FatTree(ft) = cfg.topology else {
                panic!("{label}: expected a FatTree");
            };
            assert_eq!(ft.total_hosts(), 512, "{label}");
        }
        for (label, cfg) in find("incast").unwrap().configs(Fidelity::Paper) {
            let TopologySpec::FatTree(ft) = cfg.topology else {
                panic!("{label}: expected a FatTree");
            };
            assert_eq!(ft.total_hosts(), 512, "{label}");
        }
    }

    /// Differential guard for the deleted `fig1bc` binary.
    #[test]
    fn fig1bc_full_matches_the_replaced_binary() {
        let registry = find("fig1bc").unwrap().configs(Fidelity::Full);
        let legacy = [
            ExperimentConfig::figure1(Protocol::mptcp8(), 1, false, 10),
            ExperimentConfig::figure1(Protocol::mmptcp_default(), 1, false, 10),
        ];
        assert_eq!(registry.len(), legacy.len());
        for ((_, cfg), old) in registry.iter().zip(&legacy) {
            assert_eq!(cfg, old);
        }
    }

    /// Differential guards for the other replaced binaries (`load_sweep`,
    /// `incast_sweep`, `hotspot`, `coexistence`): spot-check that the full
    /// expansion reproduces the binaries' configuration grids.
    #[test]
    fn remaining_full_expansions_match_the_replaced_binaries() {
        // load_sweep: 3 protocols x 4 loads, protocol-major, 300..40 ms.
        let loads = find("load-sweep").unwrap().configs(Fidelity::Full);
        assert_eq!(loads.len(), 12);
        assert_eq!(loads[0].0, "tcp @ 300 ms");
        let expected = with_paper_workload(full_base(Protocol::Tcp), |w| {
            w.arrivals = ArrivalProcess::Poisson {
                mean_interarrival: SimDuration::from_millis(300),
            };
        });
        assert_eq!(loads[0].1, expected);

        // incast_sweep: 4 fan-ins x 5 protocols, 64 KB per sender.
        let incast = find("incast").unwrap().configs(Fidelity::Full);
        assert_eq!(incast.len(), 20);
        assert_eq!(incast[0].0, "tcp | 4");
        match &incast[0].1.workload {
            WorkloadSpec::Incast {
                fan_in,
                bytes,
                start,
            } => {
                assert_eq!(*fan_in, 4);
                assert_eq!(*bytes, 64_000);
                assert_eq!(*start, SimTime::from_millis(1));
            }
            other => panic!("unexpected workload {other:?}"),
        }

        // hotspot: permutation baseline must be exactly the figure-1 config.
        let hotspot = find("hotspot").unwrap().configs(Fidelity::Full);
        assert_eq!(hotspot.len(), 6);
        assert_eq!(hotspot[0].1, full_base(Protocol::mptcp8()));

        // coexistence: 4 combos, long_protocol overrides as in the binary.
        let coex = find("coexistence").unwrap().configs(Fidelity::Full);
        assert_eq!(coex.len(), 4);
        assert_eq!(coex[1].1.long_protocol, Some(Protocol::mptcp8()));
        assert_eq!(coex[3].1.protocol, Protocol::mptcp8());
        assert_eq!(coex[3].1.long_protocol, Some(Protocol::Tcp));
    }

    /// Differential guards for the last four folded binaries
    /// (`switching_sweep`, `dupack_ablation`, `multihomed`, `deadlines`):
    /// Full is each binary's default grid, Paper its `--full` grid — cell for
    /// cell `ExperimentConfig::figure1` with one knob turned.
    #[test]
    fn design_knob_expansions_match_the_replaced_binaries() {
        for fidelity in [Fidelity::Full, Fidelity::Paper] {
            let paper = fidelity == Fidelity::Paper;
            let fig1 = |p: Protocol| ExperimentConfig::figure1(p, 1, paper, 10);
            let grid = |name: &str| find(name).unwrap().configs(fidelity);

            let mut switching: Vec<(String, ExperimentConfig)> = [70u64, 140, 210, 500, 1_000]
                .iter()
                .map(|kb| {
                    let switch = SwitchStrategy::DataVolume(kb * 1_000);
                    (format!("data-volume {kb} KB"), fig1(mmptcp8(switch, None)))
                })
                .collect();
            switching.push((
                "congestion-event".into(),
                fig1(mmptcp8(SwitchStrategy::CongestionEvent, None)),
            ));
            switching.push(("never (PS only)".into(), fig1(Protocol::PacketScatter)));
            assert_eq!(grid("switching"), switching);

            let paths = if paper { 16 } else { 4 };
            let policies = [
                ("fixed 3 (standard TCP)", Some(DupAckPolicy::Fixed(3))),
                (
                    "topology-aware only",
                    Some(DupAckPolicy::TopologyAware { paths }),
                ),
                (
                    "adaptive (RR-TCP style)",
                    Some(DupAckPolicy::Adaptive {
                        initial: 3,
                        step: 4,
                        max: 64,
                    }),
                ),
                ("topology-adaptive (default)", None),
            ];
            let dupack: Vec<(String, ExperimentConfig)> = policies
                .iter()
                .map(|&(l, d)| (l.to_string(), fig1(mmptcp8(SwitchStrategy::default(), d))))
                .collect();
            assert_eq!(grid("dupack"), dupack);

            let ft = if paper {
                FatTreeConfig::paper()
            } else {
                FatTreeConfig::benchmark()
            };
            let mut multihomed = Vec::new();
            for (name, p) in [
                ("mmptcp-8", Protocol::mmptcp_default()),
                ("mptcp-8", Protocol::mptcp8()),
            ] {
                multihomed.push((format!("{name} / single-homed"), fig1(p)));
                assert_eq!(fig1(p).topology, TopologySpec::FatTree(ft));
                let mut dual = fig1(p);
                dual.topology = TopologySpec::MultiHomedFatTree(ft);
                multihomed.push((format!("{name} / dual-homed"), dual));
            }
            assert_eq!(grid("multihomed"), multihomed);

            let slack = |slack, floor_ms| DeadlineModel::Slack {
                slack,
                reference_gbps: 1.0,
                floor: SimDuration::from_millis(floor_ms),
            };
            let mut deadlines = Vec::new();
            for (model_name, model) in [
                ("tight (5x, 10 ms floor)", slack(5.0, 10)),
                ("moderate (20x, 25 ms floor)", slack(20.0, 25)),
                (
                    "loose (fixed 100 ms)",
                    DeadlineModel::Fixed(SimDuration::from_millis(100)),
                ),
            ] {
                for (name, p) in [
                    ("tcp", Protocol::Tcp),
                    ("dctcp", Protocol::Dctcp),
                    ("d2tcp", Protocol::D2tcp),
                    ("mptcp-8", Protocol::mptcp8()),
                    ("mmptcp-8", Protocol::mmptcp_default()),
                ] {
                    let cfg = with_paper_workload(fig1(p), |w| w.deadlines = model);
                    deadlines.push((format!("{name} | {model_name}"), cfg));
                }
            }
            assert_eq!(grid("deadlines"), deadlines);
        }
    }

    /// The fast arms of the design-knob scenarios are small subsets of those
    /// grids on the 16-host base: every cell is `fast_base` with the same
    /// one knob turned, the path count is the small FatTree's 4, and the two
    /// deadline models are ones D²TCP can tell apart at this scale.
    #[test]
    fn design_knob_fast_arms_are_subsets_on_the_fast_base() {
        for (name, cells) in [
            ("switching", 4),
            ("dupack", 4),
            ("multihomed", 4),
            ("deadlines", 6),
        ] {
            let fast = find(name).unwrap().configs(Fidelity::Fast);
            assert_eq!(fast.len(), cells, "{name}");
            for (label, cfg) in fast {
                let mut plain = fast_base(cfg.protocol);
                if name == "multihomed" && label.ends_with("dual-homed") {
                    plain.topology = TopologySpec::MultiHomedFatTree(FatTreeConfig::small());
                }
                let plain = with_paper_workload(plain, |w| {
                    if let WorkloadSpec::Paper(p) = &cfg.workload {
                        w.deadlines = p.deadlines;
                    }
                });
                assert_eq!(cfg, plain, "{name}/{label}");
            }
        }
        let dupack = find("dupack").unwrap().configs(Fidelity::Fast);
        assert!(dupack.iter().any(|(_, c)| matches!(
            c.protocol,
            Protocol::Mmptcp {
                dupack: Some(DupAckPolicy::TopologyAware { paths: 4, .. }),
                ..
            }
        )));
        let models: Vec<DeadlineModel> = find("deadlines")
            .unwrap()
            .configs(Fidelity::Fast)
            .iter()
            .map(|(_, c)| match &c.workload {
                WorkloadSpec::Paper(p) => p.deadlines,
                other => panic!("unexpected workload {other:?}"),
            })
            .collect();
        let tight = DeadlineModel::Slack {
            slack: 2.0,
            reference_gbps: 1.0,
            floor: SimDuration::from_millis(1),
        };
        let loose = DeadlineModel::Fixed(SimDuration::from_millis(100));
        assert_eq!(models, [tight, tight, tight, loose, loose, loose]);
    }

    /// Registry-driven execution equals running the same configs by hand: a
    /// scenario reassembled from a run of its cells is what a direct run
    /// reports, so the cells add no hidden state to the deterministic engine.
    #[test]
    fn registry_run_equals_direct_run() {
        let incast = find("incast").unwrap();
        let configs = incast.configs(Fidelity::Fast);
        let mut own = cells();
        own.retain(|(_, cell)| configs.iter().any(|(_, c)| c == cell));
        let run = |configs, threads| crate::Driver::with_threads(threads).run_labelled(configs);
        let golden = report("cells", Fidelity::Fast, &run(own, 2));
        let direct = report("incast", Fidelity::Fast, &run(configs, 1));
        assert_eq!(direct.runs.len(), 4);
        let reassembled = incast.reassemble(&golden).unwrap();
        assert_eq!(reassembled.to_json(), direct.to_json());
    }

    #[test]
    fn link_failure_scenario_wires_the_failure_spec() {
        // The unfailed fast row is the plain base: it shares fig1bc's cell.
        let fast = find("link-failure").unwrap().configs(Fidelity::Fast);
        assert_eq!(fast[0].1, fast_base(Protocol::mmptcp_default()));
        for (label, cfg) in find("link-failure").unwrap().configs(Fidelity::Full) {
            let TopologySpec::FatTree(ft) = cfg.topology else {
                panic!("link-failure must use a FatTree");
            };
            if label.ends_with(" 0/1000") {
                assert!(!ft.failures.is_active());
            } else {
                assert!(ft.failures.is_active(), "{label}");
            }
        }
    }

    #[test]
    fn battle_matrix_crosses_variants_workloads_and_loads() {
        // Fast: 5 variants x 2 workloads x 2 loads x 2 seeds, plus seeds 3-8
        // of mptcp-8 and mmptcp-8; full: 10 x 2 x 4 (the 8 transport
        // variants plus the tcp-cubic / tcp-bbr CC cells).
        let fast = find("battle-matrix").unwrap().configs(Fidelity::Fast);
        assert_eq!(fast.len(), 88);
        let full = find("battle-matrix").unwrap().configs(Fidelity::Full);
        assert_eq!(full.len(), 10 * 2 * 4);
        // The DiffFlow variant carries the size-aware path policy; everything
        // else runs plain per-flow ECMP.
        for (label, cfg) in &fast {
            if label.starts_with("tcp+diffflow") {
                assert_eq!(cfg.path_policy, PathPolicy::diffflow_default(), "{label}");
            } else {
                assert_eq!(cfg.path_policy, PathPolicy::FlowHash, "{label}");
            }
            let WorkloadSpec::Paper(p) = &cfg.workload else {
                panic!("{label} must use the paper workload");
            };
            assert!(matches!(
                p.short_size,
                FlowSizeModel::WebSearch | FlowSizeModel::DataMining
            ));
        }
        // RepFlow and RepSYN are distinct variants at full fidelity.
        assert!(full.iter().any(|(l, c)| l.starts_with("repflow")
            && matches!(
                c.protocol,
                Protocol::RepFlow {
                    syn_only: false,
                    ..
                }
            )));
        assert!(full.iter().any(|(l, c)| l.starts_with("repsyn")
            && matches!(c.protocol, Protocol::RepFlow { syn_only: true, .. })));
        // The CC axis: tcp-cubic / tcp-bbr carry their controller, everything
        // else (fast arm included: golden-pinned) stays on the Reno default.
        assert!(
            full.iter()
                .any(|(l, c)| l.starts_with("tcp-cubic")
                    && c.transport.cc == CongestionControl::Cubic)
        );
        assert!(full
            .iter()
            .any(|(l, c)| l.starts_with("tcp-bbr") && c.transport.cc == CongestionControl::Bbr));
        for (label, cfg) in &fast {
            assert_eq!(cfg.transport.cc, CongestionControl::Reno, "{label}");
        }
    }

    /// The cc-battle scenario wires each cell's controller through
    /// `ExperimentConfig::transport` and keeps DCTCP on the ECN-responder
    /// layering over Reno.
    #[test]
    fn cc_battle_wires_the_controller_axis() {
        let configs = find("cc-battle").unwrap().configs(Fidelity::Fast);
        assert_eq!(configs.len(), 6);
        let cc_of = |name: &str| {
            configs
                .iter()
                .find(|(l, _)| l == name)
                .map(|(_, c)| c.transport.cc)
                .unwrap_or_else(|| panic!("missing cell {name}"))
        };
        assert_eq!(cc_of("tcp-reno"), CongestionControl::Reno);
        assert_eq!(cc_of("tcp-cubic"), CongestionControl::Cubic);
        assert_eq!(cc_of("tcp-bbr"), CongestionControl::Bbr);
        assert_eq!(cc_of("dctcp"), CongestionControl::Reno);
        assert_eq!(cc_of("mmptcp-8-bbr"), CongestionControl::Bbr);
        let dctcp = &configs.iter().find(|(l, _)| l == "dctcp").unwrap().1;
        assert_eq!(dctcp.protocol, Protocol::Dctcp);
        // Apart from the controller override, every cell is the plain
        // fast-fidelity Figure-1 base — cc-battle isolates the CC axis.
        let (_, tcp_reno) = configs.iter().find(|(l, _)| l == "tcp-reno").unwrap();
        assert_eq!(*tcp_reno, fast_base(Protocol::Tcp));
    }

    #[test]
    fn battle_matrix_load_sets_the_interarrival_from_the_cdf_mean() {
        // At load L the mean inter-arrival must equal mean_flow_bits / (L * 1 Gbps).
        for (label, cfg) in find("battle-matrix").unwrap().configs(Fidelity::Fast) {
            let WorkloadSpec::Paper(p) = &cfg.workload else {
                panic!("paper workload expected");
            };
            let mean_bits = p.short_size.cdf().unwrap().mean() * 8.0;
            let load: f64 = label
                .rsplit("load ")
                .next()
                .unwrap()
                .split_whitespace()
                .next()
                .unwrap()
                .parse()
                .expect("load suffix");
            let ArrivalProcess::Poisson { mean_interarrival } = p.arrivals else {
                panic!("poisson arrivals expected");
            };
            let expected_secs = mean_bits / (load * 1e9);
            let got = mean_interarrival.as_secs_f64();
            assert!(
                (got - expected_secs).abs() / expected_secs < 1e-6,
                "{label}: interarrival {got} vs expected {expected_secs}"
            );
        }
    }

    /// The hybrid stress scenario must actually exercise the fluid fast
    /// path: every rung runs the hybrid engine over bounded data-mining
    /// flows, and the top fast rung generates at least 100 000 of them.
    #[test]
    fn mega_load_sweep_is_hybrid_and_tops_100k_flows_at_fast() {
        let configs = find("mega-load-sweep").unwrap().configs(Fidelity::Fast);
        let mut biggest = 0usize;
        for (label, cfg) in &configs {
            assert_eq!(cfg.engine, Engine::hybrid_default(), "{label}");
            let WorkloadSpec::Paper(p) = &cfg.workload else {
                panic!("{label} must use the paper workload");
            };
            assert_eq!(p.long_host_millis, 0, "{label}: all flows must be bounded");
            assert_eq!(p.short_size, FlowSizeModel::DataMining, "{label}");
            let hosts = cfg.topology.build().host_count();
            assert!(label.ends_with(&format!("{} flows", p.flows_per_short_host * hosts)));
            biggest = biggest.max(p.flows_per_short_host * hosts);
        }
        assert!(
            biggest >= 100_000,
            "largest fast rung generates only {biggest} flows"
        );
        // Smallest rung first: debug-profile conformance sweeps take the
        // first config of each scenario.
        let first_flows = match &configs[0].1.workload {
            WorkloadSpec::Paper(p) => p.flows_per_short_host,
            _ => unreachable!(),
        };
        assert_eq!(first_flows, 50);
    }

    /// Config fields that show fewer than two values across the catalog, and
    /// why each is a field all the same. Anything not listed here must take
    /// two values in some scenario, or it is a constant (ARCHITECTURE.md
    /// "Options").
    const SINGLE_VALUED: &[(&str, &str)] = &[
        ("ExperimentConfig::trace", "set by `scenarios trace`"),
        ("TraceSettings::flows", "set by `scenarios trace --flow`"),
        ("TraceSettings::links", "set by `scenarios trace --links`"),
        ("TransportConfig::mss", "frozen by benchmark/src"),
        ("TransportConfig::min_rto", "frozen by benchmark/src"),
        ("TransportConfig::initial_rto", "frozen by benchmark/src"),
        ("TransportConfig::max_rto", "frozen by benchmark/src"),
        (
            "ExperimentConfig::progress_interval",
            "frozen by benchmark/src",
        ),
        ("TransportConfig::ecn", "set by `run` for DCTCP and D²TCP"),
        ("FatTreeConfig::queue", "set by `run` for DCTCP and D²TCP"),
        ("TransportConfig::initial_ssthresh", "test reference"),
        ("FatTreeConfig::host_rate_bps", "physical input"),
        ("FatTreeConfig::fabric_rate_bps", "physical input"),
        ("FatTreeConfig::link_delay", "physical input"),
        ("PaperWorkloadConfig::long_start", "physical input"),
    ];

    /// Destructure `$value` exhaustively (a new field does not compile until
    /// it is listed) and record each field's value under `Type::field`.
    macro_rules! note_fields {
        ($seen:ident, $ty:ident { $($field:ident),* } = $value:expr) => {
            let $ty { $($field),* } = $value;
            $($seen
                .entry(concat!(stringify!($ty), "::", stringify!($field)))
                .or_default()
                .insert(format!("{:?}", $field));)*
        };
    }

    /// The rule for options, executable: a config field exists because two
    /// catalog scenarios give it different values, or `SINGLE_VALUED` says
    /// why not.
    #[test]
    fn every_config_field_takes_two_values_somewhere_in_the_catalog() {
        use metrics::{TraceConfig, TraceSettings};
        use std::collections::{BTreeMap, BTreeSet};
        use transport::TransportConfig;

        let mut seen: BTreeMap<&str, BTreeSet<String>> = BTreeMap::new();
        let configs = catalog().iter().flat_map(|s| {
            [Fidelity::Fast, Fidelity::Full, Fidelity::Paper]
                .into_iter()
                .flat_map(|f| s.configs(f))
        });
        for (_, config) in configs {
            note_fields!(
                seen,
                ExperimentConfig {
                    topology,
                    workload,
                    protocol,
                    long_protocol,
                    transport,
                    path_policy,
                    seed,
                    max_sim_time,
                    progress_interval,
                    trace,
                    engine,
                    goodput_horizon
                } = &config
            );
            note_fields!(
                seen,
                TransportConfig {
                    mss,
                    initial_ssthresh,
                    min_rto,
                    initial_rto,
                    max_rto,
                    ecn,
                    cc
                } = transport
            );
            if let TopologySpec::FatTree(tree) | TopologySpec::MultiHomedFatTree(tree) = topology {
                note_fields!(
                    seen,
                    FatTreeConfig {
                        k,
                        oversubscription,
                        host_rate_bps,
                        fabric_rate_bps,
                        link_delay,
                        queue,
                        failures
                    } = tree
                );
            }
            if let WorkloadSpec::Paper(paper) = workload {
                note_fields!(
                    seen,
                    PaperWorkloadConfig {
                        long_host_millis,
                        short_size,
                        flows_per_short_host,
                        arrivals,
                        matrix,
                        long_start,
                        short_start,
                        deadlines
                    } = paper
                );
            }
            if let TraceConfig::On(settings) = trace {
                note_fields!(seen, TraceSettings { flows, links } = settings);
            }
        }
        let mut wrong = Vec::new();
        for (field, values) in &seen {
            let excused = SINGLE_VALUED.iter().find(|(f, _)| f == field);
            match (values.len() >= 2, excused) {
                (true, None) | (false, Some(_)) => {}
                (false, None) => wrong.push(format!("{field} only ever is {values:?}")),
                (true, Some((_, why))) => wrong.push(format!("{field} varies, yet: {why}")),
            }
        }
        assert!(wrong.is_empty(), "constants, not options: {wrong:#?}");
    }

    #[test]
    fn empirical_scenarios_use_the_cdf_models() {
        for (name, model) in [
            ("web-search", FlowSizeModel::WebSearch),
            ("data-mining", FlowSizeModel::DataMining),
        ] {
            for (label, cfg) in find(name).unwrap().configs(Fidelity::Fast) {
                let WorkloadSpec::Paper(p) = cfg.workload else {
                    panic!("{name}/{label} must use the paper workload");
                };
                assert_eq!(p.short_size, model, "{name}/{label}");
            }
        }
    }
}
