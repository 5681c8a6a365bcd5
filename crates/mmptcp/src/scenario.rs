//! The scenario registry: every canonical experiment as a named, data-driven
//! spec instead of a copy-pasted binary.
//!
//! A [`Scenario`] expands to a deterministic, labelled list of
//! [`ExperimentConfig`]s at one of three fidelities — [`Fidelity::Fast`]
//! (the CI / golden-snapshot scale, seconds per scenario), [`Fidelity::Full`]
//! (64 hosts behind a 4:1 over-subscribed core, the benchmark scale) or
//! [`Fidelity::Paper`] (512 servers at 4:1, the paper's evaluation scale).
//! Every expansion at every fidelity is pinned by a recorded digest table in
//! this module's tests. Running a
//! scenario fans the configs across the parallel [`crate::Driver`] and
//! [`report`] distils each run into a canonical
//! [`metrics::report::ScenarioReport`] JSON document.
//!
//! The golden tier pins each behaviour once. Which fast rows are the same
//! run is decided here and nowhere else, on a normal form of the config
//! that erases what no run reads (MPTCP with one subflow is TCP; only D²TCP
//! reads deadlines): [`cells`] lists one cell per normal form with the rows
//! that share it, `tests/golden/cells.json` holds the cells' rows,
//! [`Scenario::reassemble`] rebuilds any scenario's document from it, and
//! [`conservation_runs`] skips the runs that are cells. The
//! `scenarios` binary (crate `bench`) checks the cells in CI, so any
//! behavioural drift in the simulator, transports, workloads or topologies
//! becomes an explicit, reviewable diff — one per changed cell. What the
//! rows claim is a table of its own here, one line a claim with its source,
//! which [`Scenario::check_claims`] evaluates on any scenario's report.
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
use std::ops::RangeInclusive;
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
    /// The benchmark scale: the 64-host, 4:1 over-subscribed FatTree with 10
    /// flows per short host — the paper's contention regime at
    /// laptop-friendly cost.
    Full,
    /// The paper's evaluation scale: the 512-server, 4:1 over-subscribed
    /// k=8 FatTree.
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
    /// (the rendering of [`cells`]): each row is the cell it shares, under
    /// the row's own label. Fails when a cell is missing.
    pub fn reassemble(&self, golden: &ScenarioReport) -> Result<ScenarioReport, String> {
        let cells = cells(catalog());
        let runs = self
            .configs(Fidelity::Fast)
            .into_iter()
            .map(|(label, _)| {
                let row = format!("{} / {label}", self.name);
                let ((name, _), _) = cells
                    .iter()
                    .find(|(_, rows)| rows.contains(&row))
                    .expect("every fast row shares a cell");
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

/// The golden cells that the fast rows of `scenarios` share, in catalog
/// order, each with every row of the catalog that shares it. A cell is one
/// normal form of the catalog's fast configs (`ExperimentConfig::normal`
/// erases what no run reads): it is named `<scenario> / <label>` after its
/// first row and runs that row's config as written. A later row with the
/// same normal form shares the cell and its result; rows are named like
/// cells.
pub fn cells<'a>(
    scenarios: impl IntoIterator<Item = &'a Scenario>,
) -> Vec<((String, ExperimentConfig), Vec<String>)> {
    let selected: Vec<&str> = scenarios.into_iter().map(|s| s.name).collect();
    let mut cells: Vec<((String, ExperimentConfig), Vec<String>)> = Vec::new();
    // Each cell's normal form, and whether a row of `scenarios` shares it.
    let mut normals: Vec<(ExperimentConfig, bool)> = Vec::new();
    for s in catalog() {
        let chosen = selected.contains(&s.name);
        for (label, config) in s.configs(Fidelity::Fast) {
            let (row, normal) = (format!("{} / {label}", s.name), config.normal());
            match normals.iter().position(|(cell, _)| *cell == normal) {
                Some(i) => {
                    normals[i].1 |= chosen;
                    cells[i].1.push(row);
                }
                None => {
                    normals.push((normal, chosen));
                    cells.push(((row.clone(), config), vec![row]));
                }
            }
        }
    }
    let wanted = normals.into_iter().map(|(_, wanted)| wanted);
    let cells = cells.into_iter().zip(wanted);
    cells
        .filter_map(|(cell, wanted)| wanted.then_some(cell))
        .collect()
}

/// The conservation sweep's runs over `scenarios`: each one's first fast
/// row and, where the scenario holds one, the cells no scenario opens on (a
/// fabric degraded by build-time link failures, the dual-homed access layer
/// and D²TCP with deadlines to meet), each at every seed of `seeds` with
/// `overrides` applied. A run is left out when its normal form is an
/// earlier run's, or a golden cell's, which `scenarios check` runs and
/// audits already; so a selection can leave no run. Labels name the
/// scenario, row, seed, engine and controller.
///
/// Panics if a selected scenario no longer has the extra row this sweep
/// names for it, so a renamed row cannot silently drop out of the sweep.
pub fn conservation_runs<'a>(
    scenarios: impl IntoIterator<Item = &'a Scenario>,
    seeds: RangeInclusive<u64>,
    overrides: impl Fn(&mut ExperimentConfig),
) -> Vec<(String, ExperimentConfig)> {
    const EXTRAS: [(&str, &str); 3] = [
        ("link-failure", "mmptcp-8 / failed 250/1000"),
        ("multihomed", "mmptcp-8 / dual-homed"),
        ("deadlines", "d2tcp | tight (2x, 1 ms floor)"),
    ];
    // The normal forms already run: every cell's, then each run's.
    let mut seen: Vec<ExperimentConfig> = cells(catalog())
        .into_iter()
        .map(|((_, cell), _)| cell.normal())
        .collect();
    let mut runs: Vec<(String, ExperimentConfig)> = Vec::new();
    for s in scenarios {
        let rows = s.configs(Fidelity::Fast);
        for (name, extra) in EXTRAS.iter().filter(|(name, _)| *name == s.name) {
            assert!(
                rows.iter().any(|(label, _)| label == extra),
                "conservation_runs: scenario {name} has no row {extra:?}"
            );
        }
        let rows = rows.into_iter().enumerate();
        let rows = rows.filter(|(i, (label, _))| *i == 0 || EXTRAS.contains(&(s.name, label)));
        for (_, (label, config)) in rows {
            for seed in seeds.clone() {
                let mut c = config.clone();
                c.seed = seed;
                overrides(&mut c);
                let normal = c.normal();
                if !seen.contains(&normal) {
                    seen.push(normal);
                    let (engine, cc) = (c.engine.label(), c.transport.cc.name());
                    let label = format!("{} / {label} seed={seed} engine={engine} cc={cc}", s.name);
                    runs.push((label, c));
                }
            }
        }
    }
    runs
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

// --- Claims -------------------------------------------------------------

/// What the catalog's rows claim, one claim a line:
/// `scenario; rows; metric; relation; other rows; bound; source`.
///
/// `rows` and `other rows` select the runs whose labels start with them.
/// `metric` is a `RunReport` field: `completed`, `short flows`,
/// `long goodput`, `rto flows`, `short p99`, `mice p99`, `ecn marks` or
/// `phase switches`. `relation` is one of:
/// - `each >`, `each =`: every selected run against `bound`;
/// - `each <`: every selected run against the other run whose label goes on
///   the same way after the prefix;
/// - `sum >`: the selected runs' sum against `bound`;
/// - `sum <`: against the other rows' sum;
/// - `sum >=`: at least `bound` times the other rows' sum;
/// - `sum ~`: the larger of the two sums is below `bound` times the smaller;
/// - `differs`: the selected runs against the other rows, whole and without
///   their labels. (That two rows are the same run is not a claim but the
///   config normal form's rule: they share a cell.)
///
/// `-` fills a field the relation does not read. A selection that matches
/// no run breaks its claim, and so does a run that `each <` cannot pair.
/// `source` says where the claim comes from.
const CLAIMS: &str = "\
fig1-seeds; mptcp-8 seed=; completed; each =; -; 1; paper §3, Figure 1(b)/(c)
fig1-seeds; mmptcp-8 seed=; completed; each =; -; 1; paper §3, Figure 1(b)/(c)
fig1-seeds; mptcp-8 seed=; short flows; each >; -; 10; paper §3, Figure 1(b)/(c)
fig1-seeds; mmptcp-8 seed=; short flows; each >; -; 10; paper §3, Figure 1(b)/(c)
fig1-seeds; mptcp-8 seed=; long goodput; each >; -; 0; paper §3, Figure 1(b)/(c)
fig1-seeds; mmptcp-8 seed=; long goodput; each >; -; 0; paper §3, Figure 1(b)/(c)
fig1-seeds; mmptcp-8 seed=; rto flows; sum <; mptcp-8 seed=; -; paper §3, Figure 1(b)/(c)
fig1-seeds; mmptcp-8 seed=; short p99; sum <; mptcp-8 seed=; -; paper §3, Figure 1(b)/(c)
fig1-seeds; mptcp-8 seed=; long goodput; each >; -; 0.5; paper §3, Figure 1(b)/(c)
fig1-seeds; mmptcp-8 seed=; long goodput; each >; -; 0.5; paper §3, Figure 1(b)/(c)
fig1-seeds; mmptcp-8 seed=; long goodput; sum ~; mptcp-8 seed=; 1.05; paper §3, Figure 1(b)/(c)
battle-matrix; repflow |; mice p99; each <; tcp |; -; RepFlow (PAPERS.md)
battle-matrix; mptcp-8 |; long goodput; sum >; -; 0; paper §3, Figure 1(b)/(c)
battle-matrix; mmptcp-8 |; long goodput; sum >=; mptcp-8 |; 0.95; paper §3, Figure 1(b)/(c)
cc-battle; tcp-reno; long goodput; sum >; -; 0; none cited
cc-battle; tcp-bbr; long goodput; sum >=; tcp-reno; 1; none cited
cc-battle; mmptcp-8-bbr; long goodput; sum >=; mmptcp-8-reno; 1; none cited
cc-battle; dctcp; ecn marks; each >; -; 0; none cited
cc-battle; tcp-; ecn marks; each =; -; 0; none cited
deadlines; d2tcp | tight; -; differs; d2tcp | loose; -; paper §1, deadline-bound short flows
deadlines; d2tcp | tight; ecn marks; each >; -; 0; paper §1, deadline-bound short flows
switching; data-volume; phase switches; each >; -; 0; paper §2
switching; never (PS only); phase switches; each =; -; 0; paper §2
";

impl Scenario {
    /// The claims this scenario's rows make (paper §3's Figure-1 contrast,
    /// RepFlow's mice tail, the design knobs' effects), checked on
    /// `report`: one line for each claim it breaks, naming the claim, its
    /// source and the numbers that break it. Tier-1 checks the golden
    /// cells; `scenarios run` checks every run, at every fidelity.
    pub fn check_claims(&self, report: &ScenarioReport) -> Vec<String> {
        let own = CLAIMS
            .lines()
            .filter(|line| line.split(';').next() == Some(self.name));
        own.filter_map(|line| Some(format!("{line}: {}", broken(line, &report.runs)?)))
            .collect()
    }
}

/// The `RunReport` field a claim's `metric` names, as a number.
fn metric(name: &str) -> fn(&RunReport) -> f64 {
    match name {
        "completed" => |r| f64::from(u8::from(r.all_short_completed)),
        "short flows" => |r| r.short_fct.count as f64,
        "long goodput" => |r| r.long_goodput_gbps,
        "rto flows" => |r| r.short_flows_with_rto as f64,
        "short p99" => |r| r.short_fct.p99_ms,
        "mice p99" => |r| r.mice_fct.p99_ms,
        "ecn marks" => |r| r.ecn_marks.total() as f64,
        "phase switches" => |r| r.phase_switches as f64,
        _ => panic!("no claim metric `{name}`"),
    }
}

/// Why the claim `line` does not hold on `runs`, or `None` when it holds.
/// Panics on a malformed line.
fn broken(line: &str, runs: &[RunReport]) -> Option<String> {
    let fields: Vec<&str> = line.split(';').map(str::trim).collect();
    let [_, rows, metric_name, relation, other, bound, _] = fields[..] else {
        panic!("claim `{line}` does not have seven fields");
    };
    let (mine, theirs) = (select(runs, rows), select(runs, other));
    if mine.is_empty() || (other != "-" && theirs.is_empty()) {
        return Some("a selection matches no run".to_string());
    }
    let value = |r: &RunReport| metric(metric_name)(r);
    let bound = || -> f64 {
        let parsed = bound.parse();
        parsed.unwrap_or_else(|_| panic!("claim `{line}`: bound `{bound}` is not a number"))
    };
    let unless = |holds: bool, why: String| (!holds).then_some(why);
    // The first selected run that breaks a claim about each run on its own.
    let miss = |holds: &dyn Fn(&str, &RunReport) -> bool| {
        let run = mine.iter().find(|(rest, r)| !holds(rest, r));
        run.map(|(_, r)| format!("{} has {}", r.label, value(r)))
    };
    match relation {
        "each >" => miss(&|_, r| value(r) > bound()),
        "each =" => miss(&|_, r| value(r) == bound()),
        "each <" if mine.len() != theirs.len() => Some("a run has no partner".to_string()),
        "each <" => miss(&|rest, r| {
            let partner = theirs.iter().find(|(t, _)| *t == rest);
            partner.is_some_and(|(_, o)| value(r) < value(o))
        }),
        "sum >" | "sum <" | "sum >=" | "sum ~" => {
            let sum = |runs: &[(&str, &RunReport)]| runs.iter().map(|(_, r)| value(r)).sum();
            let (a, b): (f64, f64) = (sum(&mine), sum(&theirs));
            let holds = match relation {
                "sum >" => a > bound(),
                "sum <" => a < b,
                "sum >=" => a >= bound() * b,
                _ => a.max(b) / a.min(b) < bound(),
            };
            unless(holds, format!("the sums are {a} and {b}"))
        }
        "differs" => {
            let bare = |runs: &[(&str, &RunReport)]| -> Vec<RunReport> {
                let unlabelled = |r: &RunReport| RunReport {
                    label: String::new(),
                    ..r.clone()
                };
                runs.iter().map(|(_, r)| unlabelled(r)).collect()
            };
            let differs = bare(&mine) != bare(&theirs);
            unless(differs, "the runs are the same".to_string())
        }
        _ => panic!("claim `{line}`: no relation `{relation}`"),
    }
}

/// The runs whose labels start with `prefix`, each with the rest of its label.
fn select<'a>(runs: &'a [RunReport], prefix: &str) -> Vec<(&'a str, &'a RunReport)> {
    let rest = |r: &'a RunReport| Some((r.label.strip_prefix(prefix)?, r));
    runs.iter().filter_map(rest).collect()
}

// --- Base configurations ------------------------------------------------

/// Full-scale base: `ExperimentConfig::figure1` on the 64-host, 4:1
/// benchmark FatTree, seed 1, 10 flows per short-flow host.
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

/// Paper-scale base: `ExperimentConfig::figure1` on the 512-server, 4:1
/// FatTree of the paper's evaluation, seed 1, 10 flows per short-flow host.
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
            ("tcp+diffflow", Protocol::Tcp, PathPolicy::DiffFlow),
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
            ("tcp+diffflow", Protocol::Tcp, PathPolicy::DiffFlow),
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
        ("fixed 3 (standard TCP)", Some(DupAckPolicy::Standard)),
        (
            "topology-aware only",
            Some(DupAckPolicy::TopologyAware { paths }),
        ),
        ("adaptive (RR-TCP style)", Some(DupAckPolicy::Adaptive)),
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
/// The claims table states the paper's claims on these rows.
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

    /// The sweep's extra cells are named by (scenario, row label); a rename
    /// of one of those rows must fail loudly, not drop the cell.
    #[test]
    #[should_panic(expected = "has no row")]
    fn conservation_runs_rejects_a_scenario_missing_its_extra_row() {
        let renamed = Scenario {
            name: "deadlines",
            description: "deadlines without its D²TCP tight row",
            build: |fidelity| {
                let mut rows = find("deadlines").unwrap().configs(fidelity);
                rows.retain(|(label, _)| !label.starts_with("d2tcp | tight"));
                rows
            },
        };
        conservation_runs([&renamed], 1..=1, |_| {});
    }

    /// The sweeps' sizes, pinned without running them: CI's packet and
    /// hybrid sweeps at seeds 1..=16 and tier-1's at 17..=18. The first rows
    /// and the 3 extras are 17 distinct configs a seed (`multihomed`'s and
    /// `coexistence`'s first rows are `link-failure`'s, `cc-battle`'s is
    /// `hotspot`'s): 272 and 34 pairs. Every sweep drops `hotspot / tcp /
    /// permutation`, which is TCP as `fig1a / mptcp-1` is. At seeds 1..=16
    /// the pairs that are cells go too: on the packet engine 21 (16 seed-1
    /// rows, `fig1-seeds`' seeds 2..=5 and `battle-matrix`'s seed 2), and
    /// under the hybrid override only `mega-load-sweep`'s seed-1 row, the
    /// one cell that runs hybrid. A selection of cells alone leaves no run.
    #[test]
    fn conservation_sweeps_skip_cells_and_repeats() {
        let hybrid = |c: &mut ExperimentConfig| c.engine = Engine::hybrid_default();
        assert_eq!(conservation_runs(catalog(), 1..=16, |_| {}).len(), 235);
        assert_eq!(conservation_runs(catalog(), 1..=16, hybrid).len(), 255);
        assert_eq!(conservation_runs(catalog(), 17..=18, |_| {}).len(), 32);
        assert_eq!(conservation_runs(find("fig1a"), 1..=1, |_| {}), []);
    }

    /// The normal form's rules hold where the catalog leans on them: each
    /// distinct fast config that differs from its cell's config as written
    /// runs to that cell's golden row. There are five: `load-sweep / tcp @
    /// 20 ms`, which is `fig1a / mptcp-1` with TCP for one-subflow MPTCP,
    /// and the deadline-blind `dctcp` and `mmptcp-8` rows of `deadlines`.
    /// D²TCP reads its deadlines, so its two models stay two cells. If a
    /// bless makes a group diverge, delete the rule that folds it, not this
    /// test.
    #[test]
    fn a_normal_form_shares_its_cells_result() {
        let cells = cells(catalog());
        let cell_of = |row: &str| {
            let shared = cells.iter().find(|(_, rows)| rows.iter().any(|r| r == row));
            shared
                .map(|(cell, _)| cell)
                .expect("every fast row shares a cell")
        };
        let (tight, loose) = ("| tight (2x, 1 ms floor)", "| loose (fixed 100 ms)");
        let d2tcp = |model| &cell_of(&format!("deadlines / d2tcp {model}")).0;
        assert_ne!(d2tcp(tight), d2tcp(loose));
        let (mut folded, mut runs) = (Vec::new(), Vec::<(String, ExperimentConfig)>::new());
        for s in catalog() {
            for (label, config) in s.configs(Fidelity::Fast) {
                let row = format!("{} / {label}", s.name);
                let (cell, cell_config) = cell_of(&row);
                if config != *cell_config && runs.iter().all(|(_, c)| *c != config) {
                    folded.push(row);
                    runs.push((cell.clone(), config));
                }
            }
        }
        assert_eq!(
            folded,
            [
                "load-sweep / tcp @ 20 ms".to_string(),
                format!("deadlines / dctcp {tight}"),
                format!("deadlines / mmptcp-8 {tight}"),
                format!("deadlines / dctcp {loose}"),
                format!("deadlines / mmptcp-8 {loose}"),
            ]
        );
        let golden = include_str!("../../../tests/golden/cells.json");
        let golden = ScenarioReport::from_json(golden).expect("cells.json reads back");
        let expected = runs.iter().map(|(cell, _)| {
            let row = golden.runs.iter().find(|r| r.label == *cell);
            row.expect("a golden row per cell").clone()
        });
        let expected = ScenarioReport {
            runs: expected.collect(),
            ..golden.clone()
        };
        let actual = report(
            "cells",
            Fidelity::Fast,
            &crate::Driver::with_threads(2).run_labelled(runs),
        );
        assert_eq!(actual.to_json(), expected.to_json());
    }

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

    /// `scenario fidelity digest`: each scenario's labelled configuration
    /// list at each fidelity, through [`netsim::Digest`]. Recorded at commit
    /// aa6e7fb, where the tests that restated the replaced binaries' grids
    /// config by config still passed. A change to an expansion, or to the
    /// `Debug` shape of a config type, re-records the table and says why.
    const EXPANSIONS: &str = "\
fig1a fast 9e82971fb8feb9b7
fig1a full 8247e84418177d64
fig1a paper c4e8bae5f6c62ab8
fig1bc fast 5cff252c0fb41b29
fig1bc full bc208a3d4ea66fd9
fig1bc paper 0b9434dd1e1091b9
load-sweep fast 7d1cb8ff3ef88e46
load-sweep full 73431a7a7ffe65c0
load-sweep paper 10320bbdb52f1ce0
incast fast 6b3ed414a49bd896
incast full b2a3905ae57e4f82
incast paper 054f09056ea5523a
web-search fast b596e864e7f1af64
web-search full e3d8f2fc5d2150bc
web-search paper e2d3b8a9b9e6b5e0
data-mining fast 1182a0ce0ac14bf4
data-mining full 01fcf9a00022be20
data-mining paper 9226d8675bc4ceec
hotspot fast f26d027c2994e42c
hotspot full 8d9c013d46596a55
hotspot paper 9d4ffe189a746e95
link-failure fast b60d64941f901ebd
link-failure full c9175d86161fdc94
link-failure paper c6658e53da9930d4
coexistence fast e4e15cfd020dfe29
coexistence full 9a1eeeb0ac8675ed
coexistence paper 0a09f2f7b05e6f2d
battle-matrix fast ddeed86c6f1d2e9a
battle-matrix full b3883b41acbca686
battle-matrix paper 9211848211c25716
cc-battle fast 69ca466377d865d9
cc-battle full 402ffc74ee493c39
cc-battle paper 36ee24bb2b9a5741
mega-load-sweep fast d21e454df86034c1
mega-load-sweep full 6ea496a8e12822ca
mega-load-sweep paper 0887305c6693e8fa
switching fast ba019ebb06e75d25
switching full 7ae615e736943c30
switching paper 5e2681b028655974
dupack fast 5cb9185d7cb9adb7
dupack full 63190fe80616e167
dupack paper e42fcc52ea6835ee
multihomed fast 6139ac852fae2f16
multihomed full a6375ad2210a91b6
multihomed paper eec22947c5e1d12e
deadlines fast 9d476dffc113c814
deadlines full 8cca41abfc151d81
deadlines paper 19528cd0c7eefa25
fig1-seeds fast e21f5bc21d849b42
fig1-seeds full 905dddc775f8c6c2
fig1-seeds paper 0f06324bb1b4d2f2
";

    #[test]
    fn every_expansion_is_as_recorded() {
        use std::fmt::Write;
        let mut table = String::new();
        for s in catalog() {
            for fidelity in [Fidelity::Fast, Fidelity::Full, Fidelity::Paper] {
                let mut d = netsim::Digest::new();
                d.add(&s.configs(fidelity));
                writeln!(table, "{} {} {:016x}", s.name, fidelity.label(), d.value())
                    .expect("writing to a String cannot fail");
            }
        }
        let changed: Vec<&str> = table
            .lines()
            .zip(EXPANSIONS.lines())
            .filter(|(now, then)| now != then)
            .map(|(now, _)| now)
            .collect();
        assert!(
            table == EXPANSIONS,
            "expansions changed for {changed:#?}; the digests are now:\n{table}"
        );
    }

    /// Every claim names a catalog scenario, so some golden check reads it.
    #[test]
    fn every_claim_names_a_scenario() {
        for line in CLAIMS.lines() {
            let scenario = line.split(';').next().unwrap_or_default();
            assert!(find(scenario).is_some(), "claim `{line}`");
        }
    }

    /// Runs `a 1` and `b 1` with long-flow goodputs `a` and `b`.
    fn two(a: f64, b: f64) -> Vec<RunReport> {
        let run = |label: &str, gbps| RunReport {
            label: label.to_string(),
            long_goodput_gbps: gbps,
            ..RunReport::default()
        };
        vec![run("a 1", a), run("b 1", b)]
    }

    /// Each relation holds on one two-run report and breaks on another, and
    /// a selection that matches nothing, or an `each <` run without a
    /// partner, breaks its claim.
    #[test]
    fn each_claim_relation_holds_and_breaks() {
        for (relation, other, bound, holds, breaks) in [
            ("each >", "-", "1", two(2.0, 0.0), two(1.0, 0.0)),
            ("each =", "-", "1", two(1.0, 0.0), two(2.0, 1.0)),
            ("each <", "b", "-", two(1.0, 2.0), two(2.0, 2.0)),
            ("sum >", "-", "1", two(1.5, 0.0), two(1.0, 5.0)),
            ("sum <", "b", "-", two(1.0, 2.0), two(2.0, 2.0)),
            ("sum >=", "b", "0.5", two(1.0, 2.0), two(0.9, 2.0)),
            ("sum ~", "b", "1.5", two(2.0, 2.9), two(3.0, 2.0)),
            ("differs", "b", "-", two(1.0, 2.0), two(1.0, 1.0)),
        ] {
            let line = format!("s; a; long goodput; {relation}; {other}; {bound}; test");
            assert_eq!(broken(&line, &holds), None, "`{line}` on {holds:?}");
            assert!(broken(&line, &breaks).is_some(), "`{line}` on {breaks:?}");
        }
        let nothing = "s; c; long goodput; each >; -; 0; test";
        assert!(broken(nothing, &two(1.0, 1.0)).is_some());
        let mut unpaired = two(1.0, 2.0);
        unpaired[1].label = "b 2".to_string();
        let paired = "s; a; long goodput; each <; b; -; test";
        assert!(broken(paired, &unpaired).is_some());
        unpaired.extend(two(0.0, 2.0).pop());
        assert!(broken(paired, &unpaired).is_some(), "an extra `b` run");
    }

    #[test]
    #[should_panic(expected = "no relation")]
    fn a_malformed_claim_panics() {
        broken("s; a; long goodput; each >=; -; 0; test", &two(1.0, 1.0));
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

    /// Paper fidelity is the paper's evaluation scale: `figure1` on the
    /// 512-server FatTree.
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
        let own = cells([incast]).into_iter().map(|(cell, _)| cell).collect();
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
                assert_eq!(cfg.path_policy, PathPolicy::DiffFlow, "{label}");
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

    /// Config fields and enum payloads that show fewer than two values
    /// across the catalog, and why each is a field all the same. Anything not
    /// listed here must take two values in some scenario, or it is a
    /// constant (ARCHITECTURE.md "Options").
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
        ("Protocol::Mmptcp::subflows", "frozen by benchmark/src"),
        ("Protocol::RepFlow::threshold", "frozen by benchmark/src"),
        ("TransportConfig::ecn", "set by `run` for DCTCP and D²TCP"),
        ("FatTreeConfig::queue", "set by `run` for DCTCP and D²TCP"),
        ("TransportConfig::initial_ssthresh", "test reference"),
        ("Engine::Hybrid::elephant_threshold", "test reference"),
        ("FatTreeConfig::host_rate_bps", "physical input"),
        ("FatTreeConfig::fabric_rate_bps", "physical input"),
        ("FatTreeConfig::link_delay", "physical input"),
        ("PaperWorkloadConfig::long_start", "physical input"),
    ];

    /// Enum variants that no catalog row produces, and the caller that does.
    /// Any other variant must come out of some scenario, or nothing needs it.
    const UNPRODUCED: &[(&str, &str)] = &[
        ("TopologySpec::Vl2", "frozen by benchmark/src"),
        ("TopologySpec::Dumbbell", "the analytic oracles' fabric"),
        ("TopologySpec::Parallel", "the analytic oracles' fabric"),
        ("WorkloadSpec::Custom", "benchmark/src"),
        ("ArrivalProcess::Simultaneous", "benchmark/src"),
        ("TrafficMatrix::Stride", "benchmark/src"),
        ("PathPolicy::PerPacketScatter", "benchmark/src"),
        ("SwitchStrategy::Never", "set by `packet_scatter_only`"),
        ("DupAckPolicy::TopologyAdaptive", "installed by the runner"),
        ("TraceConfig::On", "set by `scenarios trace`"),
        ("FlowSelect::All", "set by `scenarios trace`"),
        ("FlowSelect::One", "set by `scenarios trace --flow`"),
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

    /// Enter every listed variant under `Type::Variant`, then match each of
    /// `$values` exhaustively (a new variant does not compile until it is
    /// listed) and mark its variant produced. A payload bound by name is
    /// recorded under `Type::Variant::name`; an input's is matched by `..`.
    macro_rules! note_variants {
        (@payload $seen:ident, $ty:ident::$v:ident, $(..)?) => {};
        (@payload $seen:ident, $ty:ident::$v:ident, $name:ident $(, $($rest:tt)*)?) => {
            $seen
                .entry(concat!(stringify!($ty), "::", stringify!($v), "::", stringify!($name)))
                .or_default()
                .insert(format!("{:?}", $name));
            note_variants!(@payload $seen, $ty::$v, $($($rest)*)?);
        };
        ($variants:ident, $seen:ident, $ty:ident {
            $($v:ident $(($($tuple:tt)*))? $({ $($named:tt)* })?),*
        } in $values:expr) => {
            $($variants.entry(concat!(stringify!($ty), "::", stringify!($v))).or_insert(false);)*
            for value in $values {
                match value {
                    $($ty::$v $(($($tuple)*))? $({ $($named)* })? => {
                        $variants.insert(concat!(stringify!($ty), "::", stringify!($v)), true);
                        note_variants!(@payload $seen, $ty::$v, $($($tuple)*)? $($($named)*)?);
                    })*
                }
            }
        };
    }

    /// The rule for options, executable: a config field, or the payload of
    /// a variant of the system under test, exists because two catalog
    /// scenarios give it different values, or `SINGLE_VALUED` says why not;
    /// a variant of a config enum exists because some catalog scenario
    /// produces it, or `UNPRODUCED` names its caller.
    #[test]
    fn every_config_field_takes_two_values_somewhere_in_the_catalog() {
        use metrics::{FlowSelect, TraceConfig, TraceSettings};
        use std::collections::{BTreeMap, BTreeSet};
        use transport::TransportConfig;

        let mut seen: BTreeMap<&str, BTreeSet<String>> = BTreeMap::new();
        let mut variants: BTreeMap<&str, bool> = BTreeMap::new();
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
                note_variants!(variants, seen, FlowSizeModel {
                    Fixed(..), WebSearch, DataMining
                } in [short_size]);
                note_variants!(variants, seen, ArrivalProcess {
                    Poisson { .. }, Simultaneous
                } in [arrivals]);
                note_variants!(variants, seen, TrafficMatrix {
                    Permutation, Stride(..), Hotspot { .. }
                } in [matrix]);
                note_variants!(variants, seen, DeadlineModel {
                    None, Fixed(..), Slack { .. }
                } in [deadlines]);
            }
            // `scenarios trace` alone turns tracing on: no row reaches
            // `FlowSelect`, whose variants are entered all the same.
            let settings = match trace {
                TraceConfig::On(settings) => Some(settings),
                TraceConfig::Off => None,
            };
            if let Some(settings) = settings {
                note_fields!(seen, TraceSettings { flows, links } = settings);
            }
            note_variants!(variants, seen, FlowSelect {
                All, One(..)
            } in settings.iter().map(|s| &s.flows));
            note_variants!(variants, seen, TraceConfig { Off, On(..) } in [trace]);
            note_variants!(variants, seen, TopologySpec {
                FatTree(..), MultiHomedFatTree(..), Vl2(..), Dumbbell(..), Parallel(..)
            } in [topology]);
            note_variants!(variants, seen, WorkloadSpec {
                Paper(..), Incast { .. }, Custom(..)
            } in [workload]);
            note_variants!(variants, seen, CongestionControl { Reno, Cubic, Bbr } in [cc]);
            note_variants!(variants, seen, Engine {
                Packet, Hybrid { elephant_threshold }
            } in [engine]);
            note_variants!(variants, seen, PathPolicy {
                FlowHash, PerPacketScatter, DiffFlow
            } in [path_policy]);
            for protocol in std::iter::once(protocol).chain(long_protocol) {
                note_variants!(variants, seen, Protocol {
                    Tcp, Dctcp, D2tcp, Mptcp { subflows }, PacketScatter,
                    Mmptcp { subflows, switch, dupack }, RepFlow { threshold, syn_only }
                } in [protocol]);
                if let Protocol::Mmptcp { switch, dupack, .. } = protocol {
                    note_variants!(variants, seen, SwitchStrategy {
                        DataVolume(bytes), CongestionEvent, Never
                    } in [switch]);
                    note_variants!(variants, seen, DupAckPolicy {
                        Standard, TopologyAware { paths }, Adaptive, TopologyAdaptive { paths }
                    } in dupack.iter());
                }
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
        for (variant, &produced) in &variants {
            let excused = UNPRODUCED.iter().find(|(v, _)| v == variant);
            match (produced, excused) {
                (true, None) | (false, Some(_)) => {}
                (false, None) => wrong.push(format!("no scenario produces {variant}")),
                (true, Some((_, why))) => wrong.push(format!("{variant} is produced, yet: {why}")),
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
