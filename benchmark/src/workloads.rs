//! The four benchmark workloads: the paper's battle restated as load on the
//! simulator, plus the rival designs that drive the same layers through
//! different code paths. Flows are generated here from `--seed`; the
//! simulator only ever receives the finished list (`WorkloadSpec::Custom`).
//!
//! Every workload offers a fixed amount of traffic: the seed decides who
//! talks to whom, when, and which flow gets which size, but not how many
//! bytes cross how many hops. Host time per run is then a property of the
//! simulator, not of the draw, and runs on different seeds can be compared.

use mmptcp::prelude::*;
use netsim::{PathPolicy, SimDuration, SimRng};
use transport::CongestionControl;
use workload::{paper_workload, TrafficMatrix, Workload};

/// One benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WorkloadId {
    /// The paper's headline cell: MMPTCP-8 short flows over long flows.
    Fig1Mmptcp,
    /// Mice only: very many tiny TCP flows.
    MiceStormTcp,
    /// Bounded elephants on the hybrid fluid/packet engine.
    ElephantsHybrid,
    /// Every rival transport, policy and controller, swept by the driver.
    BattleSweep,
}

impl WorkloadId {
    /// All workloads, in reporting order.
    pub const ALL: [WorkloadId; 4] = [
        WorkloadId::Fig1Mmptcp,
        WorkloadId::MiceStormTcp,
        WorkloadId::ElephantsHybrid,
        WorkloadId::BattleSweep,
    ];

    /// The name used on the command line and in every document.
    pub fn name(self) -> &'static str {
        match self {
            WorkloadId::Fig1Mmptcp => "fig1_mmptcp",
            WorkloadId::MiceStormTcp => "mice_storm_tcp",
            WorkloadId::ElephantsHybrid => "elephants_hybrid",
            WorkloadId::BattleSweep => "battle_sweep",
        }
    }

    /// Look a workload up by name.
    pub fn parse(name: &str) -> Option<WorkloadId> {
        WorkloadId::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// Worker threads of the driver. `battle_sweep` and `elephants_hybrid` have
/// more than one configuration to spread over them; the other two workloads
/// are one single-threaded simulation each.
pub const SWEEP_THREADS: usize = 2;

/// Bytes each long flow of `fig1_mmptcp` transfers. The long flows finish
/// between 0.7 and 2.8 simulated seconds (median 1.6 s) and the short flows
/// arrive from 0.1 s to about 2.2 s, so most of them meet the paper's
/// contention.
const FIG1_LONG_BYTES: u64 = 80_000_000;
/// Bytes each long flow of a `battle_sweep` configuration transfers.
const SWEEP_LONG_BYTES: u64 = 16_000_000;

/// What becomes of the paper workload's long (background) flows.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LongFlows {
    /// Dropped: the workload is its short flows only.
    Strip,
    /// Kept, but bounded at this many bytes each, so every seed offers the
    /// same amount of traffic and a run ends when the traffic is delivered
    /// (not when the slowest short flow's last retransmission timer fires).
    Bounded(u64),
}

/// The seeded flow generator behind every workload: `paper_workload` on the
/// stream `mmptcp::run` would fork for a `WorkloadSpec::Paper`, shaped so
/// that the amount of work does not depend on the seed:
///
/// * the traffic matrix is a stride drawn from the seed that always crosses
///   pods, so every flow travels the same number of hops;
/// * long flows are stripped or bounded (see [`LongFlows`]);
/// * sizes from an empirical CDF are replaced by the CDF's quantiles at the
///   midpoints of as many equal-probability strata as there are flows, dealt
///   to the flows in seeded random order: the same distribution, and exactly
///   the same bytes on every seed.
pub fn generate_flows(
    hosts: usize,
    hosts_per_pod: usize,
    paper: &PaperWorkloadConfig,
    seed: u64,
    long: LongFlows,
) -> Vec<FlowSpec> {
    let addrs: Vec<Addr> = (0..hosts as u32).map(Addr).collect();
    let mut rng = SimRng::new(seed).fork(0xBEEF);
    let stride = hosts_per_pod + rng.range(0..=hosts - 2 * hosts_per_pod);
    let paper = PaperWorkloadConfig {
        matrix: TrafficMatrix::Stride(stride),
        ..*paper
    };
    let Workload { mut flows } = paper_workload(&addrs, &paper, &mut rng);
    match long {
        LongFlows::Strip => flows.retain(|f| f.class == FlowClass::Short),
        LongFlows::Bounded(bytes) => {
            for f in flows.iter_mut().filter(|f| f.class == FlowClass::Long) {
                f.size = Some(bytes);
            }
        }
    }
    if let Some(cdf) = paper.short_size.cdf() {
        let short: Vec<usize> = (0..flows.len())
            .filter(|&i| flows[i].class == FlowClass::Short)
            .collect();
        let mut strata: Vec<usize> = (0..short.len()).collect();
        rng.shuffle(&mut strata);
        for (&i, stratum) in short.iter().zip(strata) {
            let midpoint = (stratum as f64 + 0.5) / short.len() as f64;
            flows[i].size = Some(cdf.quantile(midpoint));
        }
    }
    flows
}

/// Generate the flows for `config`'s FatTree from its seed and pin them into
/// the config as an explicit flow list. Runs are capped at 60 simulated
/// seconds, far beyond any completion: a flow still open then has failed.
fn pin_flows(
    mut config: ExperimentConfig,
    paper: &PaperWorkloadConfig,
    long: LongFlows,
) -> ExperimentConfig {
    let TopologySpec::FatTree(ft) = config.topology else {
        unreachable!("every benchmark workload runs on a FatTree");
    };
    let flows = generate_flows(
        ft.total_hosts(),
        ft.hosts_per_pod(),
        paper,
        config.seed,
        long,
    );
    config.workload = WorkloadSpec::Custom(flows);
    config.max_sim_time = SimDuration::from_secs(60);
    config
}

/// The labelled configurations of one workload. `quick` shrinks the flow
/// counts (same code paths and checks, a fraction of the work).
pub fn configs(id: WorkloadId, seed: u64, quick: bool) -> Vec<(String, ExperimentConfig)> {
    match id {
        // 64-host 4:1 FatTree, one third of the hosts run long flows, the
        // rest Poisson 70 KB short flows; MMPTCP-8, Reno/LIA, flow-hash ECMP.
        WorkloadId::Fig1Mmptcp => {
            let flows_per_host = if quick { 1 } else { 8 };
            let base =
                ExperimentConfig::figure1(Protocol::mmptcp_default(), seed, false, flows_per_host);
            let paper = PaperWorkloadConfig {
                flows_per_short_host: flows_per_host,
                ..PaperWorkloadConfig::default()
            };
            let long = LongFlows::Bounded(if quick {
                FIG1_LONG_BYTES / 16
            } else {
                FIG1_LONG_BYTES
            });
            vec![("mmptcp-8".into(), pin_flows(base, &paper, long))]
        }
        // Same fabric, 63 hosts x 3 000 fixed 10 KB TCP flows at 500 us mean
        // inter-arrival and no long flows: about 165 events per flow.
        WorkloadId::MiceStormTcp => {
            let base = ExperimentConfig {
                protocol: Protocol::Tcp,
                seed,
                ..ExperimentConfig::default()
            };
            let paper = PaperWorkloadConfig {
                long_host_millis: 0,
                short_size: FlowSizeModel::Fixed(10_000),
                flows_per_short_host: if quick { 50 } else { 3000 },
                arrivals: ArrivalProcess::Poisson {
                    mean_interarrival: SimDuration::from_micros(500),
                },
                ..PaperWorkloadConfig::default()
            };
            vec![("tcp".into(), pin_flows(base, &paper, LongFlows::Strip))]
        }
        WorkloadId::ElephantsHybrid => {
            let draws = if quick { 2 } else { ELEPHANT_DRAWS };
            (0..draws)
                .map(|k| {
                    let config_seed = seed * 100 + k;
                    (
                        format!("tcp-hybrid seed={config_seed}"),
                        elephants(config_seed, quick, Engine::hybrid_default()),
                    )
                })
                .collect()
        }
        WorkloadId::BattleSweep => battle_sweep(seed, quick),
    }
}

/// Configurations of `elephants_hybrid` and the bytes of each of their flows.
const ELEPHANT_DRAWS: u64 = 16;
const ELEPHANT_BYTES: u64 = 32_000_000;

/// One configuration of the elephants workload on a chosen engine (the
/// traced pass also runs the first on the packet engine, to report the fluid
/// model's speed-up and error): same fabric, no long flows; all 63 sending
/// hosts start one `ELEPHANT_BYTES` TCP flow at the same instant. A flow is
/// handed to the fluid engine once it leaves slow start, so 63 fluid flows
/// are resident at first, fewer as the luckier ones finish, and over 99 % of
/// the bytes are delivered by `netsim::fluid`.
///
/// Simultaneous starts, not a Poisson mix, because the fluid engine's cost
/// per epoch grows with the square of the flows resident: a heavy-tailed mix
/// (the issue's 1 260 data-mining flows at 20 ms) costs 6.6-12 s depending
/// on how the seed lets its few giants overlap, which no bound could hold.
/// Even so the cost of one such wave moves by a quarter with the paths ECMP
/// happens to deal, hence sixteen of them, each on a seed of its own.
pub fn elephants(config_seed: u64, quick: bool, engine: Engine) -> ExperimentConfig {
    let base = ExperimentConfig {
        protocol: Protocol::Tcp,
        seed: config_seed,
        engine,
        ..ExperimentConfig::default()
    };
    let paper = PaperWorkloadConfig {
        long_host_millis: 0,
        short_size: FlowSizeModel::Fixed(if quick {
            ELEPHANT_BYTES / 5
        } else {
            ELEPHANT_BYTES
        }),
        flows_per_short_host: 1,
        arrivals: ArrivalProcess::Simultaneous,
        ..PaperWorkloadConfig::default()
    };
    pin_flows(base, &paper, LongFlows::Strip)
}

/// 8 rival designs x 3 configuration seeds on the 16-host FatTree, web-search
/// sizes at load 0.6 of the access links, 8 flows per short host.
fn battle_sweep(seed: u64, quick: bool) -> Vec<(String, ExperimentConfig)> {
    use CongestionControl::{Bbr, Cubic, Reno};
    use PathPolicy::FlowHash;
    let variants = [
        ("tcp", Protocol::Tcp, FlowHash, Reno),
        ("dctcp", Protocol::Dctcp, FlowHash, Reno),
        ("packet-scatter", Protocol::PacketScatter, FlowHash, Reno),
        ("repflow", Protocol::repflow(), FlowHash, Reno),
        ("repsyn", Protocol::repsyn(), FlowHash, Reno),
        (
            "tcp+diffflow",
            Protocol::Tcp,
            PathPolicy::diffflow_default(),
            Reno,
        ),
        ("tcp-cubic", Protocol::Tcp, FlowHash, Cubic),
        ("tcp-bbr", Protocol::Tcp, FlowHash, Bbr),
    ];
    let model = FlowSizeModel::WebSearch;
    let mean_flow_bits = model.cdf().expect("empirical model").mean() * 8.0;
    let paper = PaperWorkloadConfig {
        short_size: model,
        flows_per_short_host: if quick { 4 } else { 8 },
        arrivals: ArrivalProcess::Poisson {
            mean_interarrival: SimDuration::from_secs_f64(mean_flow_bits / (0.6 * 1e9)),
        },
        ..PaperWorkloadConfig::default()
    };
    let config_seeds = if quick { 1 } else { 3 };
    let mut out = Vec::new();
    for (label, protocol, policy, cc) in variants {
        for k in 0..config_seeds {
            let config_seed = seed * 100 + k;
            let mut config = ExperimentConfig::small_test(protocol, config_seed);
            config.path_policy = policy;
            config.transport.cc = cc;
            config.goodput_horizon = Some(SimDuration::from_secs(3));
            let long = LongFlows::Bounded(if quick {
                SWEEP_LONG_BYTES / 2
            } else {
                SWEEP_LONG_BYTES
            });
            out.push((
                format!("{label} seed={config_seed}"),
                pin_flows(config, &paper, long),
            ));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn flows_of(id: WorkloadId, seed: u64) -> Vec<Vec<FlowSpec>> {
        configs(id, seed, true)
            .into_iter()
            .map(|(_, c)| match c.workload {
                WorkloadSpec::Custom(flows) => flows,
                other => panic!("expected an explicit flow list, got {other:?}"),
            })
            .collect()
    }

    #[test]
    fn equal_seeds_give_equal_flows_and_seeds_1_2_3_differ() {
        for id in WorkloadId::ALL {
            assert_eq!(flows_of(id, 1), flows_of(id, 1), "{}", id.name());
            let (a, b, c) = (flows_of(id, 1), flows_of(id, 2), flows_of(id, 3));
            assert!(a != b && b != c && a != c, "{}", id.name());
        }
    }

    #[test]
    fn every_seed_offers_the_same_work() {
        for id in WorkloadId::ALL {
            let shape = |seed| -> Vec<(usize, u64)> {
                flows_of(id, seed)
                    .iter()
                    .map(|flows| {
                        let bytes: u64 = flows.iter().map(|f| f.size.expect("bounded")).sum();
                        (flows.len(), bytes)
                    })
                    .collect()
            };
            let (a, b) = (shape(1), shape(7));
            assert_eq!(a.len(), b.len());
            for ((flows_a, bytes_a), (flows_b, bytes_b)) in a.into_iter().zip(b) {
                assert_eq!((flows_a, bytes_a), (flows_b, bytes_b), "{}", id.name());
            }
        }
    }

    #[test]
    fn every_flow_crosses_pods() {
        for id in WorkloadId::ALL {
            for (_, config) in configs(id, 5, true) {
                let TopologySpec::FatTree(ft) = config.topology else {
                    panic!("FatTree expected");
                };
                let WorkloadSpec::Custom(flows) = config.workload else {
                    panic!("explicit flows expected");
                };
                let pod = |a: Addr| a.index() / ft.hosts_per_pod();
                assert!(
                    flows.iter().all(|f| pod(f.src) != pod(f.dst)),
                    "{}",
                    id.name()
                );
            }
        }
    }

    #[test]
    fn names_parse_back() {
        for id in WorkloadId::ALL {
            assert_eq!(WorkloadId::parse(id.name()), Some(id));
        }
        assert_eq!(WorkloadId::parse("nope"), None);
    }
}
