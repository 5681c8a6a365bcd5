//! Flight-recorder telemetry: end-to-end guarantees.
//!
//! Three properties the trace subsystem must keep:
//!
//! 1. **Zero cost when off** — `TraceConfig::Off` (the default) leaves every
//!    golden metric byte-identical, and turning tracing *on* still does not
//!    perturb the simulation itself (identical FCTs, counters and loss).
//! 2. **Determinism** — the same seed produces byte-identical trace CSV
//!    across repeated runs and across driver thread counts (per-worker
//!    sinks travel inside results, which merge in config order).
//! 3. **Fidelity** — a traced MMPTCP flow's series visibly contains the
//!    packet-scatter→MPTCP switch: scatter samples before the instant,
//!    MPTCP-subflow samples only from it onwards, and a `phase_switch` row
//!    in the event log.

use mmptcp::prelude::*;
use mmptcp::scenario;
use mmptcp::{TopologySpec, WorkloadSpec};
use netsim::{Addr, Signal};

fn tiny_config(protocol: Protocol, seed: u64, flows: &[(u64, u64)]) -> ExperimentConfig {
    ExperimentConfig {
        topology: TopologySpec::Parallel(ParallelPathConfig {
            host_pairs: 2,
            paths: 4,
            ..ParallelPathConfig::default()
        }),
        workload: WorkloadSpec::Custom(
            flows
                .iter()
                .map(|&(id, size)| {
                    FlowSpec::new(
                        id,
                        Addr((id % 2) as u32 * 2),
                        Addr((id % 2) as u32 * 2 + 1),
                        Some(size),
                        SimTime::from_millis(1 + id),
                        FlowClass::Short,
                    )
                })
                .collect(),
        ),
        protocol,
        seed,
        ..ExperimentConfig::default()
    }
}

fn traced(mut config: ExperimentConfig, links: bool) -> ExperimentConfig {
    config.trace = TraceConfig::On(TraceSettings {
        links,
        ..TraceSettings::default()
    });
    config
}

#[test]
fn untraced_runs_carry_no_sink() {
    let r = mmptcp::run(tiny_config(Protocol::Tcp, 1, &[(0, 30_000)]));
    assert!(r.trace.is_none());
    assert!(r.all_short_completed);
}

#[test]
fn traced_mmptcp_flow_shows_the_phase_switch() {
    // 500 KB through the default 210 KB data-volume trigger: the flow must
    // switch mid-transfer.
    let config = traced(
        tiny_config(Protocol::mmptcp_default(), 7, &[(0, 500_000)]),
        false,
    );
    let r = mmptcp::run(config);
    assert!(r.all_short_completed);
    let sink = r.trace.as_ref().expect("traced run must carry a sink");

    let (flow, switched_at, bytes_sent) = sink
        .events()
        .iter()
        .find_map(|e| match *e {
            Signal::PhaseSwitched {
                flow,
                at,
                bytes_sent,
            } => Some((flow, at, bytes_sent)),
            _ => None,
        })
        .expect("the flow must have switched phase");
    assert_eq!(flow, FlowId(0));
    assert_eq!(bytes_sent, 210_000, "switch carries bytes-sent");

    // Scatter subflow (0) has samples before the switch; every MPTCP
    // subflow's samples start at or after it.
    let scatter = sink.flow_series(0, 0).expect("scatter series");
    assert!(!scatter.is_empty());
    assert!(
        scatter.items().iter().any(|p| p.at < switched_at),
        "scatter cwnd evolution before the switch must be visible"
    );
    let mptcp_keys: Vec<(u64, u8)> = sink
        .flow_keys()
        .into_iter()
        .filter(|&(f, s)| f == 0 && s > 0)
        .collect();
    assert!(!mptcp_keys.is_empty(), "MPTCP subflows must have series");
    for (f, s) in mptcp_keys {
        let series = sink.flow_series(f, s).unwrap();
        assert!(
            series.items().iter().all(|p| p.at >= switched_at),
            "subflow {s} sampled before the switch"
        );
    }

    // The CSV export is non-empty and matches the documented schema.
    let csv = sink.flows_csv();
    assert!(csv.starts_with("flow,subflow,cc,t_ns,cwnd_bytes,srtt_us,outstanding_bytes\n"));
    assert!(csv.lines().count() > 2);
    assert!(sink.events_csv().contains("phase_switch"));
}

/// Every flows.csv row carries the stable label of the controller that
/// produced the sample, so mixed-controller experiments stay separable.
#[test]
fn trace_rows_carry_the_congestion_controller_label() {
    use mmptcp::transport::CongestionControl;
    for (cc, label) in [
        (CongestionControl::Reno, "reno"),
        (CongestionControl::Cubic, "cubic"),
        (CongestionControl::Bbr, "bbr"),
    ] {
        let mut cfg = tiny_config(Protocol::Tcp, 9, &[(0, 150_000)]);
        cfg.transport.cc = cc;
        let r = mmptcp::run(traced(cfg, false));
        let csv = r.trace.as_ref().unwrap().flows_csv();
        let mut rows = 0usize;
        for line in csv.lines().skip(1) {
            assert_eq!(
                line.split(',').nth(2),
                Some(label),
                "cc column mismatch in {line:?}"
            );
            rows += 1;
        }
        assert!(rows > 0, "{label}: no flow samples recorded");
    }
}

/// Link tracing samples inside the progress tick; it must not move when the
/// run stops, or anything else a report row shows.
#[test]
fn tracing_does_not_perturb_the_simulation() {
    let base = tiny_config(Protocol::mmptcp_default(), 11, &[(0, 300_000), (1, 70_000)]);
    let mut configs = vec![("tiny".to_string(), base)];
    configs.extend(scenario::find("incast").unwrap().configs(Fidelity::Fast));
    let with_links = configs
        .iter()
        .map(|(label, config)| (label.clone(), traced(config.clone(), true)))
        .collect();
    let driver = Driver::with_threads(2);
    let plain = driver.run_labelled(configs);
    let full = driver.run_labelled(with_links);
    for ((label, plain), (_, full)) in plain.iter().zip(&full) {
        assert_eq!(plain.elapsed, full.elapsed, "{label}");
        assert_eq!(plain.short_fcts_ms(), full.short_fcts_ms(), "{label}");
        assert_eq!(plain.counters, full.counters, "{label}");
        assert_eq!(plain.loss, full.loss, "{label}");
    }
    let render = |results| scenario::report("incast", Fidelity::Fast, results).to_json();
    assert_eq!(render(&plain), render(&full));
}

#[test]
fn trace_csv_is_byte_identical_across_runs_and_thread_counts() {
    let configs: Vec<(String, ExperimentConfig)> = [
        (Protocol::Tcp, 1u64),
        (Protocol::mmptcp_default(), 2),
        (Protocol::Tcp, 3),
        (Protocol::mmptcp_default(), 4),
    ]
    .iter()
    .enumerate()
    .map(|(i, &(p, seed))| {
        (
            format!("cfg{i}"),
            traced(tiny_config(p, seed, &[(0, 150_000), (1, 40_000)]), true),
        )
    })
    .collect();

    let render = |results: &[(String, mmptcp::ExperimentResults)]| -> Vec<String> {
        results
            .iter()
            .map(|(label, r)| {
                let sink = r.trace.as_ref().expect("sink");
                format!(
                    "{label}\n{}{}{}",
                    sink.flows_csv(),
                    sink.events_csv(),
                    sink.links_csv()
                )
            })
            .collect()
    };

    let serial_a = render(&Driver::with_threads(1).run_labelled(configs.clone()));
    let serial_b = render(&Driver::with_threads(1).run_labelled(configs.clone()));
    let parallel = render(&Driver::with_threads(4).run_labelled(configs));
    assert_eq!(serial_a, serial_b, "same seed, same trace bytes");
    assert_eq!(
        serial_a, parallel,
        "1-thread and 4-thread drivers must merge identical traces in config order"
    );
    assert!(serial_a.iter().all(|s| s.contains("flow,subflow")));
}

#[test]
fn link_series_record_fabric_activity() {
    let r = mmptcp::run(traced(tiny_config(Protocol::Tcp, 5, &[(0, 200_000)]), true));
    let sink = r.trace.as_ref().unwrap();
    assert!(sink.link_count() > 0);
    assert!(sink.link_sample_count() > 0);
    let mut carried = 0u64;
    let mut link = 0usize;
    while let Some(series) = sink.link_series(link) {
        for p in series.items() {
            carried += p.tx_bytes;
            assert!((0.0..=1.0).contains(&p.utilisation));
        }
        link += 1;
    }
    assert!(
        carried > 0,
        "sampled windows must account transmitted bytes"
    );
    assert!(sink
        .links_csv()
        .starts_with("link,t_ns,depth_packets,tx_packets,tx_bytes,drops,ecn_marks,utilisation\n"));
}

#[test]
fn flow_filter_restricts_series_to_one_flow() {
    let mut config = tiny_config(Protocol::Tcp, 9, &[(0, 50_000), (1, 50_000)]);
    config.trace = TraceConfig::On(TraceSettings {
        flows: FlowSelect::One(1),
        ..TraceSettings::default()
    });
    let r = mmptcp::run(config);
    let sink = r.trace.as_ref().unwrap();
    assert!(!sink.flow_keys().is_empty());
    assert!(sink.flow_keys().iter().all(|&(f, _)| f == 1));
}

/// `TraceConfig::Off` leaves the golden contract untouched: every cell is
/// pinned with tracing off, and the cheapest golden scenario (incast) still
/// regenerates its committed rows byte for byte, as `scenarios check` does.
#[test]
fn trace_off_keeps_golden_metrics_byte_identical() {
    for (name, cfg) in scenario::cells() {
        assert_eq!(cfg.trace, TraceConfig::Off, "{name}");
    }
    let cells = metrics::ScenarioReport::from_json(include_str!("golden/cells.json")).unwrap();
    let incast = scenario::find("incast").unwrap();
    let golden = incast.reassemble(&cells).unwrap();
    let results = Driver::with_threads(2).run_labelled(incast.configs(Fidelity::Fast));
    let report = scenario::report("incast", Fidelity::Fast, &results);
    assert_eq!(report.to_json(), golden.to_json());
}
