//! The cross-transport conformance layer: invariants every transport (and
//! every future transport) must satisfy, checked end-to-end on the real
//! simulator.
//!
//! * **Conservation**: packets injected into the fabric are exactly
//!   delivered + dropped + still-in-network, and completed flows delivered
//!   exactly their size — for every catalog scenario at fast fidelity,
//!   across a spread of seeds (the release-profile `scenarios conserve`
//!   subcommand sweeps 16+ seeds per scenario in CI).
//! * **Differential**: MMPTCP in its packet-scatter phase is byte-for-byte
//!   the packet-scatter-only ablation until the phase switch.
//! * **Degeneracy**: on a single-path dumbbell with zero loss, every
//!   transport collapses to plain TCP's completion time exactly (±0) —
//!   multi-path machinery must cost nothing when there are no paths to use.

mod common;

use common::{golden, golden_cells, CELLS};
use mmptcp::prelude::*;
use mmptcp::scenario::{catalog, find, Fidelity};
use netsim::{Packet, PathPolicy};
use transport::testing::Loopback;
use transport::{CongestionControl, MmptcpConfig, MmptcpSender};

/// Fast cells no scenario's first config reaches, swept next to the first
/// configs by the packet conservation test: a fabric degraded by build-time
/// link failures, the dual-homed access layer and D²TCP with deadlines to
/// meet.
fn extra_conservation_cells() -> Vec<(String, ExperimentConfig)> {
    [
        ("link-failure", "mmptcp-8 / failed 250/1000"),
        ("multihomed", "mmptcp-8 / dual-homed"),
        ("deadlines", "d2tcp | tight (2x, 1 ms floor)"),
    ]
    .into_iter()
    .map(|(scenario, label)| {
        let configs = find(scenario)
            .expect("catalog scenario")
            .configs(Fidelity::Fast);
        let cell = configs.into_iter().find(|(l, _)| l == label);
        let (_, cfg) = cell.unwrap_or_else(|| panic!("{scenario} has no `{label}` cell"));
        (format!("{scenario} / {label}"), cfg)
    })
    .collect()
}

/// The first fast config of every scenario, each distinct config once, with
/// the catalog index of the scenario that opens on it (the index seeds the
/// runs). Several scenarios open on the same cell: `cc-battle` on
/// `hotspot`'s, `coexistence` and `multihomed` on `link-failure`'s.
fn first_cells() -> Vec<(usize, String, ExperimentConfig)> {
    let mut firsts: Vec<(usize, String, ExperimentConfig)> = Vec::new();
    for (i, s) in catalog().iter().enumerate() {
        let (label, cfg) = s.configs(Fidelity::Fast).swap_remove(0);
        if firsts.iter().all(|(.., first)| *first != cfg) {
            firsts.push((i, format!("{} / {label}", s.name), cfg));
        }
    }
    firsts
}

/// Conservation across the catalog: every scenario's first cell, two
/// distinct seeds each (seeds never repeat across cells, so the sweep covers
/// well over 16 seeds in total; the CI `scenarios conserve` job extends this
/// to 16 seeds per scenario at release speed).
#[test]
fn conservation_laws_hold_across_the_catalog() {
    let mut configs = extra_conservation_cells();
    for (i, name, cfg) in first_cells() {
        for k in 0..2u64 {
            let mut run = cfg.clone();
            run.seed = 1 + (i as u64) * 2 + k;
            configs.push((format!("{name} seed={}", run.seed), run));
        }
    }
    assert!(
        configs.len() >= 16,
        "the sweep must span at least 16 seeded runs"
    );
    assert_conserves(Driver::new().run_labelled(configs));
}

/// Every run conserves packets and bytes, injected something (so the audit
/// is meaningful) and never asked a host without an uplink to send.
fn assert_conserves(results: Vec<(String, ExperimentResults)>) {
    for (label, r) in &results {
        r.check_conservation()
            .unwrap_or_else(|e| panic!("{label}: {e}"));
        assert!(
            r.counters.delivered_to_hosts > 0,
            "{label}: no packets delivered?"
        );
        assert_eq!(r.counters.unsendable, 0, "{label}: a host had no uplink");
    }
}

/// Drive one MMPTCP sender against the shared receiver over the ideal
/// loopback network, which records every packet the sender emits, in order,
/// with its emission time.
struct RecordedRun {
    sent: Vec<(SimTime, Packet)>,
    switch_signal: Option<SimTime>,
}

fn drive_mmptcp(cfg: MmptcpConfig, total: u64, rounds: usize) -> RecordedRun {
    let flow = netsim::FlowId(1);
    let tx = MmptcpSender::new(cfg, flow, Addr(0), Addr(1), 50_000, 80, Some(total));
    let mut l = Loopback::new(flow, tx);
    l.run(rounds, |_| false);
    let switch_signal = l.signals.iter().find_map(|s| match s {
        netsim::Signal::PhaseSwitched { at, .. } => Some(*at),
        _ => None,
    });
    RecordedRun {
        sent: l.sent,
        switch_signal,
    }
}

/// Differential conformance: an MMPTCP connection in its packet-scatter
/// phase must be *indistinguishable* from the packet-scatter-only ablation —
/// identical packets (ports, sequence numbers, timing) up to the instant the
/// phase switch fires. The PS phase is not "roughly" packet scatter, it IS
/// packet scatter.
#[test]
fn mmptcp_packet_scatter_phase_equals_the_ps_only_ablation() {
    let total = 600_000u64; // well beyond the 210 KB switch threshold
    let hybrid = drive_mmptcp(MmptcpConfig::default(), total, 4_000);
    let ps_only = drive_mmptcp(MmptcpConfig::packet_scatter_only(), total, 4_000);

    let switch_at = hybrid
        .switch_signal
        .expect("a 600 KB flow must switch phase");
    assert!(
        ps_only.switch_signal.is_none(),
        "the ablation never switches"
    );

    // Everything the hybrid sender emitted on the scatter flow before the
    // switch instant must equal the ablation's stream, packet for packet.
    let prefix: Vec<&(SimTime, Packet)> = hybrid
        .sent
        .iter()
        .take_while(|(at, p)| *at < switch_at && p.subflow == 0)
        .collect();
    assert!(
        prefix.len() > 50,
        "the PS phase must have carried a substantial stream ({} pkts)",
        prefix.len()
    );
    assert!(
        ps_only.sent.len() >= prefix.len(),
        "ablation sent fewer packets ({}) than the hybrid's PS phase ({})",
        ps_only.sent.len(),
        prefix.len()
    );
    for (i, ((at_a, pkt_a), (at_b, pkt_b))) in prefix.iter().zip(ps_only.sent.iter()).enumerate() {
        assert_eq!(at_a, at_b, "packet {i}: emission times diverge");
        assert_eq!(pkt_a, pkt_b, "packet {i}: contents diverge");
    }
}

/// One bounded flow crossing the dumbbell bottleneck.
fn dumbbell_flow(protocol: Protocol, bytes: u64) -> ExperimentConfig {
    ExperimentConfig {
        topology: TopologySpec::Dumbbell(DumbbellConfig::default()),
        workload: WorkloadSpec::Custom(vec![FlowSpec::new(
            0,
            Addr(0),
            Addr(2),
            Some(bytes),
            SimTime::from_millis(1),
            FlowClass::Short,
        )]),
        protocol,
        seed: 11,
        ..ExperimentConfig::default()
    }
}

/// Degeneracy conformance: on a single-path topology under zero loss, every
/// transport's completion time equals plain TCP's *exactly*. Multi-path
/// machinery (subflow scheduling, packet scatter, replication) must add
/// nothing when there is nothing to exploit: scatter hashes onto the only
/// path, MPTCP-1 is one subflow, RepFlow/RepSYN see path_count == 1 and do
/// not replicate, DCTCP/D²TCP see no ECN marks without queue build-up.
#[test]
fn every_transport_degenerates_to_plain_tcp_on_a_single_path_dumbbell() {
    let bytes = 70_000;
    let baseline = mmptcp::run(dumbbell_flow(Protocol::Tcp, bytes));
    assert!(baseline.all_short_completed);
    assert_eq!(baseline.loss.total_dropped(), 0, "the premise is zero loss");
    let tcp_fct = baseline.short_fcts_ms()[0];

    for protocol in [
        Protocol::Dctcp,
        Protocol::D2tcp,
        Protocol::Mptcp { subflows: 1 },
        Protocol::PacketScatter,
        Protocol::mmptcp_default(),
        Protocol::repflow(),
        Protocol::repsyn(),
    ] {
        let r = mmptcp::run(dumbbell_flow(protocol, bytes));
        assert!(r.all_short_completed, "{protocol:?} did not complete");
        assert_eq!(r.loss.total_dropped(), 0, "{protocol:?} saw drops");
        let fct = r.short_fcts_ms()[0];
        assert_eq!(
            fct, tcp_fct,
            "{protocol:?} FCT {fct} ms != TCP {tcp_fct} ms on a single path"
        );
        r.check_conservation()
            .unwrap_or_else(|e| panic!("{protocol:?}: {e}"));
    }
}

/// The battleground's headline, as pinned by the golden cells (which the CI
/// golden job keeps equal to actual behaviour): RepFlow beats single-path
/// TCP on mice p99 FCT in every cell at load <= 0.6, while MMPTCP holds
/// aggregate long-flow goodput within 5% of MPTCP across the matrix. With
/// ~5 long flows a run, one seed's ratio is decided by which paths collide
/// (0.75-1.49 over seeds 1..=8), so the goodput claim pools the eight seeds
/// the golden holds of every MPTCP-8 and MMPTCP-8 cell. Nothing is run.
#[test]
fn battle_matrix_golden_witnesses_the_headline_claims() {
    let runs = golden("battle-matrix").runs;
    let variant = |name: &str| -> Vec<&metrics::RunReport> {
        let prefix = format!("{name} | ");
        runs.iter()
            .filter(|r| r.label.starts_with(&prefix))
            .collect()
    };

    // Cell by cell, in the matrix's order (every fast load is <= 0.6).
    let (tcp, repflow) = (variant("tcp"), variant("repflow"));
    assert_eq!(tcp.len(), 8, "2 workloads x 2 loads x 2 seeds");
    assert_eq!(repflow.len(), 8);
    for (t, r) in tcp.iter().zip(&repflow) {
        let cell = t.label.split_once(" | ").expect("variant | cell").1;
        assert_eq!(r.label, format!("repflow | {cell}"));
        assert!(
            r.mice_fct.p99_ms < t.mice_fct.p99_ms,
            "repflow mice p99 {} must beat tcp {} in cell {cell}",
            r.mice_fct.p99_ms,
            t.mice_fct.p99_ms
        );
    }

    // MMPTCP vs MPTCP, aggregate long-flow goodput across the matrix and
    // across seeds 1..=8.
    let goodput = |name: &str| -> f64 {
        let pooled = variant(name);
        assert_eq!(pooled.len(), 2 * 2 * 8, "{name}: 4 cells x 8 seeds");
        pooled.iter().map(|r| r.long_goodput_gbps).sum()
    };
    let (mmptcp, mptcp) = (goodput("mmptcp-8"), goodput("mptcp-8"));
    assert!(mptcp > 0.0);
    assert!(
        mmptcp >= 0.95 * mptcp,
        "mmptcp aggregate long goodput {mmptcp:.3} Gbps must stay within 5% of mptcp {mptcp:.3}"
    );
}

/// fig1bc's golden rows are what its configs produce today, byte for byte,
/// under the two defaults the goldens were pinned with, both checked here:
/// the Reno controller behind the `transport::cc::CongestionController`
/// trait (so the extracted Reno arithmetic is the legacy inline one) and
/// `TraceConfig::Off` (so the flight recorder costs the golden nothing). The
/// 2-thread driver is the path `scenarios check` takes; thread-count
/// independence itself is pinned by the driver's and telemetry's tests.
#[test]
fn explicit_reno_reproduces_the_fig1bc_golden_byte_for_byte() {
    let configs = find("fig1bc")
        .expect("fig1bc is in the catalog")
        .configs(Fidelity::Fast);
    for (label, cfg) in &configs {
        assert_eq!(cfg.transport.cc, CongestionControl::Reno, "{label}");
        assert_eq!(cfg.trace, TraceConfig::Off, "{label}");
    }
    let results = Driver::with_threads(2).run_labelled(configs);
    let report = mmptcp::scenario::report("fig1bc", Fidelity::Fast, &results);
    assert_eq!(report.to_json(), golden("fig1bc").to_json());
}

/// The controller duel's headline, as pinned by the cc-battle golden (kept
/// equal to actual behaviour by the CI golden job): BBR's model-based pacing
/// matches or beats Reno's loss-probing on long-flow goodput — single-path
/// and under MMPTCP — and the DCTCP cell is the one whose ECN responder
/// actually engages (the loss-based cells never see a mark, so DCTCP's
/// alpha arithmetic — now layered on the trait via `EcnResponder`, with its
/// legacy-equivalence pinned by `transport::cc`'s unit tests — is what the
/// frozen snapshot captures).
#[test]
fn cc_battle_golden_witnesses_the_controller_claims() {
    let runs = golden("cc-battle").runs;
    assert_eq!(runs.len(), 6, "6 controller cells");
    let run = |name: &str| -> &metrics::RunReport {
        runs.iter()
            .find(|r| r.label == name)
            .unwrap_or_else(|| panic!("missing cc-battle cell {name}"))
    };

    let bbr = run("tcp-bbr").long_goodput_gbps;
    let reno = run("tcp-reno").long_goodput_gbps;
    assert!(reno > 0.0);
    assert!(
        bbr >= reno,
        "BBR long-flow goodput {bbr:.3} Gbps must be >= Reno's {reno:.3}"
    );
    let mm_bbr = run("mmptcp-8-bbr").long_goodput_gbps;
    let mm_reno = run("mmptcp-8-reno").long_goodput_gbps;
    assert!(
        mm_bbr >= mm_reno,
        "MMPTCP/BBR goodput {mm_bbr:.3} Gbps must be >= MMPTCP/Reno's {mm_reno:.3}"
    );

    assert!(
        run("dctcp").ecn_marks.total() > 0,
        "the DCTCP cell must actually exercise the ECN responder"
    );
    for loss_based in ["tcp-reno", "tcp-cubic", "tcp-bbr"] {
        assert_eq!(
            run(loss_based).ecn_marks.total(),
            0,
            "{loss_based} must not see ECN marks (no responder installed)"
        );
    }
}

/// The paper's own knobs, as pinned by the `deadlines` and `switching`
/// goldens: the deadline model reaches D²TCP's window arithmetic and nothing
/// else's (DCTCP ignores it, so its two cells are the same run), and the
/// phase switch happens under every data-volume threshold and never under
/// the packet-scatter-only ablation.
#[test]
fn design_knob_goldens_witness_deadlines_and_phase_switching() {
    let deadlines = golden("deadlines").runs;
    let cell = |protocol: &str, model: &str| -> metrics::RunReport {
        let prefix = format!("{protocol} | {model} ");
        let found = deadlines.iter().find(|r| r.label.starts_with(&prefix));
        let run = found.unwrap_or_else(|| panic!("no `{prefix}` cell"));
        metrics::RunReport {
            label: String::new(),
            ..run.clone()
        }
    };
    assert_ne!(
        cell("d2tcp", "tight"),
        cell("d2tcp", "loose"),
        "the fast deadline models must separate D2TCP's behaviour"
    );
    assert_eq!(cell("dctcp", "tight"), cell("dctcp", "loose"));
    assert!(cell("d2tcp", "tight").ecn_marks.total() > 0);

    let switching = golden("switching").runs;
    let data_volume: Vec<_> = switching
        .iter()
        .filter(|r| r.label.starts_with("data-volume "))
        .collect();
    assert_eq!(data_volume.len(), 2);
    for run in data_volume {
        assert!(run.phase_switches > 0, "{}: nothing switched", run.label);
    }
    let never = switching.iter().find(|r| r.label == "never (PS only)");
    assert_eq!(never.expect("PS-only cell").phase_switches, 0);
}

/// `tests/golden/` is one canonical document whose rows are the catalog's
/// distinct fast cells, in order, and every scenario reassembles from it:
/// a hand-edited, stale or incomplete golden fails here without a
/// simulation being run.
#[test]
fn every_scenario_has_a_canonical_golden_and_every_golden_a_scenario() {
    let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/../../tests/golden");
    let files: Vec<String> = std::fs::read_dir(dir)
        .expect("tests/golden exists")
        .map(|entry| entry.unwrap().file_name().into_string().unwrap())
        .collect();
    assert_eq!(files, ["cells.json"]);
    let cells = golden_cells();
    assert_eq!(cells.to_json(), CELLS, "cells.json is not canonical");
    assert_eq!(cells.fidelity, Fidelity::Fast.label());
    let pinned: Vec<&str> = cells.runs.iter().map(|r| r.label.as_str()).collect();
    let names: Vec<String> = mmptcp::scenario::cells().into_iter().map(|c| c.0).collect();
    assert_eq!(pinned, names, "golden rows against the distinct fast cells");
    for s in catalog() {
        let report = s.reassemble(&cells).unwrap_or_else(|e| panic!("{e}"));
        let labels: Vec<String> = s.configs(Fidelity::Fast).into_iter().map(|c| c.0).collect();
        let rows: Vec<&str> = report.runs.iter().map(|r| r.label.as_str()).collect();
        assert_eq!(rows, labels, "{}: row labels", s.name);
    }
}

/// Link failure × size-aware routing: on the fig-style fat-tree with 25% of
/// the aggregation→core uplinks withdrawn, DiffFlow's pinned elephants must
/// re-pin onto surviving links (stateless hash % group-size) — no flow may
/// strand, blackhole (no-route) or over/under-deliver.
#[test]
fn diffflow_link_failure_never_strands_a_pinned_elephant() {
    let mut flows = Vec::new();
    // Inter-pod elephants (well above the 100 KB pin threshold) and a few
    // mice sharing the degraded fabric.
    for (i, (src, dst, bytes)) in [
        (0u32, 8u32, 600_000u64),
        (1, 12, 600_000),
        (4, 13, 500_000),
        (5, 9, 70_000),
        (2, 14, 70_000),
    ]
    .iter()
    .enumerate()
    {
        flows.push(FlowSpec::new(
            i as u64,
            Addr(*src),
            Addr(*dst),
            Some(*bytes),
            SimTime::from_millis(1),
            FlowClass::Short,
        ));
    }
    let cfg = ExperimentConfig {
        topology: TopologySpec::FatTree(FatTreeConfig {
            failures: LinkFailureSpec::agg_core(250, 42),
            ..FatTreeConfig::small()
        }),
        workload: WorkloadSpec::Custom(flows),
        protocol: Protocol::Tcp,
        path_policy: PathPolicy::diffflow_default(),
        seed: 3,
        ..ExperimentConfig::default()
    };
    let r = mmptcp::run(cfg);
    assert!(
        r.all_short_completed,
        "a pinned elephant stranded on the degraded fabric"
    );
    assert_eq!(r.audit.no_route, 0, "no packet may be blackholed");
    r.check_conservation().expect("conservation under failures");
}

// --- Hybrid fluid/packet engine conformance ------------------------------

/// Relative tolerance for FCT percentiles between the packet and hybrid
/// engines. The fluid fast path *approximates* an elephant's congestion
/// control (max-min shares under a pacing cap instead of per-ACK dynamics),
/// so elephants — and the mice that share links with them — legitimately
/// finish somewhat earlier or later than under packet simulation. 35 %
/// keeps both engines in the same regime (an elephant can never look like a
/// mouse) while absorbing the loss of per-packet burstiness.
const ENGINE_REL_TOL: f64 = 0.35;
/// Absolute floor (ms) for elephant percentiles: sub-2 ms shifts are within
/// a handful of RTTs on these fabrics.
const ELEPHANT_ABS_TOL_MS: f64 = 2.0;
/// Absolute floor (ms) for mice percentiles, sized to the two ways the
/// engines legitimately reshape a mouse that shares a link with an
/// elephant. Under the hybrid engine the mouse serialises at the 10 %
/// reserve headroom while a fluid reservation holds — `size / (0.10 ×
/// link rate)` ≈ 10 ms for a ~100 KB mouse — because the fluid elephant
/// claims its max-min share instantly where its packet twin is still
/// ramping. Under the packet engine the same mouse instead takes drops in
/// the elephant-dominated queue and pays a couple of (low-preset, 10 ms)
/// RTO cycles that reservations smooth away entirely. Either effect can
/// land on either side, so the floor covers ~3 such cycles; gross
/// starvation (100 ms-scale gaps, an unfinished mouse) still fails.
const MICE_ABS_TOL_MS: f64 = 30.0;

fn percentiles_close(what: &str, packet: &Summary, hybrid: &Summary, abs_tol_ms: f64) {
    assert_eq!(
        packet.count, hybrid.count,
        "{what}: both engines must complete the same flows"
    );
    for (name, p, h) in [
        ("p50", packet.median, hybrid.median),
        ("p95", packet.p95, hybrid.p95),
        ("p99", packet.p99, hybrid.p99),
    ] {
        let tol = (p.max(h) * ENGINE_REL_TOL).max(abs_tol_ms);
        assert!(
            (p - h).abs() <= tol,
            "{what} {name}: packet {p:.3} ms vs hybrid {h:.3} ms exceeds ±{tol:.3} ms"
        );
    }
}

/// FCT summary over an explicit flow-id set.
fn fct_summary_of(r: &ExperimentResults, ids: &[u64]) -> Summary {
    r.metrics.fct_summary_ms(|f| ids.contains(&f.0))
}

/// Mixed mice/elephant grids for the engine-differential tests. Elephants
/// are well above the 1 MB default handoff threshold; mice are all below
/// the 100 KB mice boundary.
fn mixed_flows(pairs: &[(u32, u32, u64)]) -> Vec<FlowSpec> {
    pairs
        .iter()
        .enumerate()
        .map(|(i, (src, dst, bytes))| {
            FlowSpec::new(
                i as u64,
                Addr(*src),
                Addr(*dst),
                Some(*bytes),
                SimTime::from_millis(1 + i as u64),
                FlowClass::Short,
            )
        })
        .collect()
}

fn split_by_size(pairs: &[(u32, u32, u64)]) -> (Vec<u64>, Vec<u64>) {
    let mut mice = Vec::new();
    let mut elephants = Vec::new();
    for (i, (_, _, bytes)) in pairs.iter().enumerate() {
        if *bytes <= 100_000 {
            mice.push(i as u64);
        } else {
            elephants.push(i as u64);
        }
    }
    (mice, elephants)
}

/// Differential conformance between the engines on one grid: run the same
/// configuration under `Engine::Packet` and `Engine::Hybrid`, require that
/// the hybrid run actually exercised the fluid path, that every flow still
/// completes, and that mice and elephant FCT percentiles stay within the
/// documented tolerance.
fn assert_engines_agree(
    what: &str,
    base: ExperimentConfig,
    pairs: &[(u32, u32, u64)],
    threshold: u64,
) {
    let packet = mmptcp::run(ExperimentConfig {
        engine: Engine::Packet,
        ..base.clone()
    });
    let hybrid = mmptcp::run(ExperimentConfig {
        engine: Engine::Hybrid {
            elephant_threshold: threshold,
        },
        ..base
    });
    for (label, r) in [("packet", &packet), ("hybrid", &hybrid)] {
        assert!(r.all_short_completed, "{what}/{label}: flows stranded");
        r.check_conservation()
            .unwrap_or_else(|e| panic!("{what}/{label}: {e}"));
    }
    assert_eq!(
        packet.audit.fluid_delivered_bytes, 0,
        "{what}: packet engine ran fluid?"
    );
    assert!(
        hybrid.audit.fluid_delivered_bytes > 0,
        "{what}: hybrid run never handed an elephant to the fluid path"
    );
    let (mice, elephants) = split_by_size(pairs);
    percentiles_close(
        &format!("{what}/mice"),
        &fct_summary_of(&packet, &mice),
        &fct_summary_of(&hybrid, &mice),
        MICE_ABS_TOL_MS,
    );
    percentiles_close(
        &format!("{what}/elephants"),
        &fct_summary_of(&packet, &elephants),
        &fct_summary_of(&hybrid, &elephants),
        ELEPHANT_ABS_TOL_MS,
    );
}

/// Engine-differential on the dumbbell: two elephants contending on the
/// shared bottleneck, mice same-side so they share access links (and thus
/// fluid reservations) with the elephants but not the drop-prone
/// bottleneck queue — a mouse drop there would halve *both* fluid
/// elephants' caps where the packet engine penalises only the dropping
/// mouse, a deliberate modelling asymmetry the fat-tree grid absorbs in
/// its tolerance instead. Both differential grids use a finite initial
/// ssthresh (deterministic handoff eligibility) and the low min-RTO
/// preset: the fluid model reproduces congestion-avoidance dynamics, not
/// 200 ms minimum-timeout stalls, so a default-RTO packet run would
/// diverge by whole RTO multiples rather than model error.
#[test]
fn hybrid_engine_matches_packet_fcts_on_the_dumbbell() {
    assert_engines_agree("dumbbell", dumbbell_mix(), DUMBBELL_PAIRS, 500_000);
}

// 10 MB elephants: the fluid ramp-in (EWMA capacity recovery plus
// pacing-cap growth after handoff) costs tens of milliseconds, so the
// transfer must be long enough for steady state to dominate — exactly
// the regime the fast path targets.
const DUMBBELL_PAIRS: &[(u32, u32, u64)] = &[
    (0, 2, 10_000_000),
    (1, 3, 10_000_000),
    (0, 1, 50_000),
    (2, 3, 70_000),
];

fn dumbbell_mix() -> ExperimentConfig {
    let dumbbell = TopologySpec::Dumbbell(DumbbellConfig::default());
    engine_mix(dumbbell, DUMBBELL_PAIRS, 21)
}

/// `pairs` as TCP flows on `topology`, for the tests that run a grid under
/// both engines.
fn engine_mix(topology: TopologySpec, pairs: &[(u32, u32, u64)], seed: u64) -> ExperimentConfig {
    ExperimentConfig {
        topology,
        workload: WorkloadSpec::Custom(mixed_flows(pairs)),
        protocol: Protocol::Tcp,
        transport: TransportConfig {
            initial_ssthresh: 100_000,
            ..TransportConfig::low_min_rto()
        },
        seed,
        ..ExperimentConfig::default()
    }
}

/// Engine-differential on the small FatTree: inter-pod elephants and mice.
/// A finite initial ssthresh makes the elephants leave slow start (and thus
/// hand off) deterministically rather than waiting for an ECMP collision.
#[test]
fn hybrid_engine_matches_packet_fcts_on_the_fattree() {
    let pairs: &[(u32, u32, u64)] = &[
        (0, 8, 3_000_000),
        (1, 12, 2_500_000),
        (4, 13, 2_000_000),
        (5, 9, 70_000),
        (2, 14, 50_000),
        (6, 10, 90_000),
        (3, 11, 30_000),
    ];
    let cfg = engine_mix(TopologySpec::FatTree(FatTreeConfig::small()), pairs, 23);
    assert_engines_agree("fattree", cfg, pairs, 500_000);
}

/// Flows that never reach the fluid path must be *byte-identical* between
/// the engines: with every flow below the handoff threshold the hybrid
/// engine installs no reservation and schedules no epoch, so the packet
/// schedule — and therefore every FCT and every counter — is exactly the
/// packet engine's.
#[test]
fn hybrid_engine_is_byte_identical_when_no_flow_goes_fluid() {
    let pairs: &[(u32, u32, u64)] = &[
        (0, 8, 70_000),
        (1, 12, 90_000),
        (5, 9, 50_000),
        (2, 14, 30_000),
    ];
    let base = ExperimentConfig {
        topology: TopologySpec::FatTree(FatTreeConfig::small()),
        workload: WorkloadSpec::Custom(mixed_flows(pairs)),
        protocol: Protocol::mmptcp_default(),
        seed: 29,
        ..ExperimentConfig::default()
    };
    let packet = mmptcp::run(ExperimentConfig {
        engine: Engine::Packet,
        ..base.clone()
    });
    let hybrid = mmptcp::run(ExperimentConfig {
        engine: Engine::hybrid_default(),
        ..base
    });
    assert_eq!(hybrid.audit.fluid_delivered_bytes, 0);
    assert_eq!(packet.short_fcts_ms(), hybrid.short_fcts_ms());
    assert_eq!(packet.counters, hybrid.counters);
    assert_eq!(packet.loss, hybrid.loss);
}

/// Conservation under the hybrid engine, on runs that hand flows to the
/// fluid path: the packet law is untouched by fluid bytes and the fluid
/// ledger stays within the bounded workload. Only a bounded flow above the
/// threshold goes fluid; on a run without one the hybrid engine should be
/// the packet engine byte for byte, which the packet sweep audits. So the
/// runs are the dumbbell's elephants under CUBIC and BBR (no other test runs
/// those two fluid cap models), every first cell whose short flows come from
/// an empirical size CDF, and data-mining's on a fabric degraded by
/// build-time link failures — and each must go fluid. That premise is
/// checked on one config here
/// (`hybrid_engine_is_byte_identical_when_no_flow_goes_fluid`); the hybrid
/// runs of the other first cells and of the extra cells are left to CI's
/// release `scenarios conserve --engine hybrid`, which audits every cell.
#[test]
fn conservation_laws_hold_on_the_hybrid_engine() {
    let mut configs = Vec::new();
    for cc in [CongestionControl::Cubic, CongestionControl::Bbr] {
        let mut cfg = dumbbell_mix();
        cfg.transport.cc = cc;
        cfg.engine = Engine::Hybrid {
            elephant_threshold: 500_000,
        };
        configs.push((format!("dumbbell / {} hybrid", cc.name()), cfg));
    }
    for (i, name, mut cfg) in first_cells() {
        if matches!(&cfg.workload, WorkloadSpec::Paper(w) if w.short_size.cdf().is_some()) {
            cfg.engine = Engine::hybrid_default();
            cfg.seed = 101 + i as u64;
            configs.push((format!("{name} hybrid"), cfg));
        }
    }
    let (label, mut degraded) = find("data-mining")
        .unwrap()
        .configs(Fidelity::Fast)
        .swap_remove(0);
    if let TopologySpec::FatTree(ft) = &mut degraded.topology {
        ft.failures = LinkFailureSpec::agg_core(250, 42);
    }
    degraded.engine = Engine::hybrid_default();
    degraded.seed = 251;
    configs.push((
        format!("data-mining / {label} failed 250/1000 hybrid"),
        degraded,
    ));

    let results = Driver::new().run_labelled(configs);
    for (label, r) in &results {
        let fluid = r.audit.fluid_delivered_bytes;
        assert!(fluid > 0, "{label}: nothing went fluid");
    }
    assert_conserves(results);
}

/// Mid-run link failure while flows are in fluid mode: the epoch triggered
/// by `notify_topology_changed` must re-walk every fluid path onto the
/// surviving ECMP members, the flows must still complete with exactly their
/// sizes, and the packet conservation law must hold across the transition.
#[test]
fn fluid_flows_survive_a_mid_run_link_failure() {
    let fabric = FatTreeConfig::small();
    let topo = topology::fattree::build(fabric);
    let agg_core = topo.links_of_tier(topology::LinkTier::AggregationCore);
    assert!(!agg_core.is_empty(), "small fat-tree has agg-core links");
    let mut failed = false;
    // At the first tick that finds a fluid flow, withdraw every
    // aggregation->core link (both directions) from its emitting switch's
    // groups. That degrades the fabric as far as ECMP allows: a group's last
    // member is never removed, so nothing blackholes.
    let mut fail_uplinks = |sim: &mut netsim::Simulator, _: &[netsim::Signal]| {
        if failed || sim.fluid_flows_active() == 0 {
            return;
        }
        for &link in &agg_core {
            let from = topo.network.link(link).from;
            sim.network_mut().switch_mut(from).remove_link(link);
        }
        sim.notify_topology_changed();
        failed = true;
    };
    let pairs = &[(0, 8, 3_000_000), (1, 12, 3_000_000)];
    let config = ExperimentConfig {
        // Finite ssthresh: leave slow start (and hand off) without needing a
        // loss first.
        transport: TransportConfig {
            initial_ssthresh: 64_000,
            ..TransportConfig::default()
        },
        engine: Engine::Hybrid {
            elephant_threshold: 200_000,
        },
        progress_interval: SimDuration::from_millis(1),
        ..engine_mix(TopologySpec::FatTree(fabric), pairs, 1)
    };
    let r = mmptcp::run_with(config, &mut fail_uplinks);
    assert!(
        failed,
        "no flow ever entered fluid mode — the handoff premise broke"
    );
    assert!(r.all_short_completed, "a flow was stranded by the failure");
    assert!(
        r.audit.fluid_delivered_bytes > 0,
        "fluid path never engaged"
    );
    r.check_conservation().unwrap_or_else(|e| panic!("{e}"));
}

/// The same degraded fabric under every spraying policy: completion and
/// conservation hold regardless of how the fabric spreads packets.
#[test]
fn all_path_policies_survive_link_failures() {
    for policy in [
        PathPolicy::FlowHash,
        PathPolicy::PerPacketScatter,
        PathPolicy::diffflow_default(),
    ] {
        let cfg = ExperimentConfig {
            topology: TopologySpec::FatTree(FatTreeConfig {
                failures: LinkFailureSpec::agg_core(125, 7),
                ..FatTreeConfig::small()
            }),
            workload: WorkloadSpec::Custom(vec![FlowSpec::new(
                0,
                Addr(0),
                Addr(12),
                Some(300_000),
                SimTime::from_millis(1),
                FlowClass::Short,
            )]),
            protocol: Protocol::Tcp,
            path_policy: policy,
            seed: 9,
            ..ExperimentConfig::default()
        };
        let r = mmptcp::run(cfg);
        assert!(r.all_short_completed, "{policy:?} stranded the flow");
        r.check_conservation()
            .unwrap_or_else(|e| panic!("{policy:?}: {e}"));
    }
}
