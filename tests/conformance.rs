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
//! * **Claims**: every row of the claims table in `mmptcp::scenario` holds on
//!   its scenario's golden document, reassembled from the committed cells.
//!   A claim is a row of that table; the tests below check it group by group
//!   and whole.

mod common;

use common::{assert_claims_hold, golden_cells, CELLS};
use mmptcp::prelude::*;
use mmptcp::scenario::{catalog, conservation_runs, find, Fidelity};
use netsim::{Packet, PathPolicy};
use transport::testing::Loopback;
use transport::{CongestionControl, MmptcpConfig, MmptcpSender};

/// Conservation across the catalog: `conservation_runs`, the list CI's
/// `scenarios conserve` sweeps at seeds 1..=16, here at seeds 17 and 18,
/// which that job never runs: every scenario's first cell and the extra
/// cells no scenario opens on, each behaviour once (`hotspot / tcp /
/// permutation` is `fig1a / mptcp-1`'s TCP run and is left out; a renamed
/// extra row panics in `conservation_runs`). Every run must deliver
/// something, so the audit is meaningful.
#[test]
fn conservation_laws_hold_across_the_catalog() {
    let runs = conservation_runs(catalog(), 17..=18, |_| {});
    assert!(runs.len() >= 16, "the sweep must span at least 16 runs");
    for (label, r) in Driver::new().run_labelled(runs) {
        r.check_conservation()
            .unwrap_or_else(|e| panic!("{label}: {e}"));
        assert!(
            r.counters.delivered_to_hosts > 0,
            "{label}: no packets delivered?"
        );
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

/// fig1bc's golden rows are what its configs produce today, byte for byte,
/// under the two defaults the goldens were pinned with, both checked here:
/// the Reno controller behind the `transport::cc::CongestionController`
/// trait (so the extracted Reno arithmetic is the legacy inline one) and
/// `TraceConfig::Off` (so the flight recorder costs the golden nothing). The
/// 2-thread driver is the path `scenarios check` takes; thread-count
/// independence itself is pinned by the driver's and telemetry's tests.
#[test]
fn explicit_reno_reproduces_the_fig1bc_golden_byte_for_byte() {
    let fig1bc = find("fig1bc").expect("fig1bc is in the catalog");
    let configs = fig1bc.configs(Fidelity::Fast);
    for (label, cfg) in &configs {
        assert_eq!(cfg.transport.cc, CongestionControl::Reno, "{label}");
        assert_eq!(cfg.trace, TraceConfig::Off, "{label}");
    }
    let results = Driver::with_threads(2).run_labelled(configs);
    let report = mmptcp::scenario::report("fig1bc", Fidelity::Fast, &results);
    let golden = fig1bc.reassemble(&golden_cells()).unwrap();
    assert_eq!(report.to_json(), golden.to_json());
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
    let names: Vec<String> = mmptcp::scenario::cells(catalog())
        .into_iter()
        .map(|((name, _), _)| name)
        .collect();
    assert_eq!(pinned, names, "golden rows against the distinct fast cells");
    for s in catalog() {
        let report = s.reassemble(&cells).unwrap_or_else(|e| panic!("{e}"));
        let labels: Vec<String> = s.configs(Fidelity::Fast).into_iter().map(|c| c.0).collect();
        let rows: Vec<&str> = report.runs.iter().map(|r| r.label.as_str()).collect();
        assert_eq!(rows, labels, "{}: row labels", s.name);
    }
}

/// No two golden cells have the same row once their labels are set aside:
/// two configs that run to one result are one behaviour, and the normal
/// form that decides which rows share a cell should fold them. Nothing is
/// run, so a new pair shows at the bless that adds it.
#[test]
fn no_two_golden_cells_are_the_same_result() {
    let cells = golden_cells();
    let bare = |r: &metrics::RunReport| metrics::RunReport {
        label: String::new(),
        ..r.clone()
    };
    let mut twins = Vec::new();
    for (i, run) in cells.runs.iter().enumerate() {
        let earlier = cells.runs[..i].iter().find(|e| bare(e) == bare(run));
        twins.extend(earlier.map(|e| format!("{} = {}", run.label, e.label)));
    }
    assert!(twins.is_empty(), "cells with equal rows: {twins:#?}");
}

/// Every row of the claims table in `mmptcp::scenario` holds on its
/// scenario's golden document. Nothing is run.
#[test]
fn every_claim_holds_on_the_golden_cells() {
    let cells = golden_cells();
    let broken: Vec<String> = catalog()
        .iter()
        .flat_map(|s| s.check_claims(&s.reassemble(&cells).unwrap_or_else(|e| panic!("{e}"))))
        .collect();
    assert!(broken.is_empty(), "broken claims: {broken:#?}");
}

/// RepFlow beats TCP's mice p99 cell by cell; MMPTCP-8's pooled long-flow
/// goodput stays within 5 % of MPTCP-8's.
#[test]
fn battle_matrix_golden_witnesses_the_headline_claims() {
    assert_claims_hold("battle-matrix", &["mice p99", "long goodput"], 3);
}

/// BBR's long-flow goodput is at least Reno's, single-path and under MMPTCP;
/// only the DCTCP cell sees ECN marks.
#[test]
fn cc_battle_golden_witnesses_the_controller_claims() {
    assert_claims_hold("cc-battle", &["long goodput", "ecn marks"], 5);
}

/// The deadline model moves D²TCP; the phase switch happens under every
/// data-volume threshold and never in the PS-only ablation. That it moves no
/// deadline-blind transport is the config normal form's rule, checked by
/// `scenario::tests::a_normal_form_shares_its_cells_result`.
#[test]
fn design_knob_goldens_witness_deadlines_and_phase_switching() {
    assert_claims_hold("deadlines", &["-", "ecn marks"], 2);
    assert_claims_hold("switching", &["phase switches"], 2);
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
        path_policy: PathPolicy::DiffFlow,
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
/// those two fluid cap models), every run of `conservation_runs` at seed 17
/// whose short flows come from an empirical size CDF, and data-mining's on a
/// fabric degraded by build-time link failures — and each must go fluid.
/// That premise is checked on one config here
/// (`hybrid_engine_is_byte_identical_when_no_flow_goes_fluid`); the hybrid
/// runs of the other first cells and of the extra cells are left to CI's
/// release `scenarios conserve --engine hybrid`, which audits them at seeds
/// 1..=16, and `mega-load-sweep`'s seed-1 cell, which runs hybrid as
/// written, to `scenarios check`, which audits every golden cell.
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
    let cdf_cells = conservation_runs(catalog(), 17..=17, |c| c.engine = Engine::hybrid_default());
    configs.extend(cdf_cells.into_iter().filter(
        |(_, c)| matches!(&c.workload, WorkloadSpec::Paper(w) if w.short_size.cdf().is_some()),
    ));
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

    assert_eq!(
        configs.len(),
        7,
        "CUBIC, BBR, 4 empirical-CDF cells, degraded"
    );
    for (label, r) in Driver::new().run_labelled(configs) {
        r.check_conservation()
            .unwrap_or_else(|e| panic!("{label}: {e}"));
        assert!(
            r.counters.delivered_to_hosts > 0,
            "{label}: no packets delivered?"
        );
        assert!(
            r.audit.fluid_delivered_bytes > 0,
            "{label}: nothing went fluid"
        );
    }
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
        PathPolicy::DiffFlow,
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
