//! Integration tests for the extension features layered on top of the paper's
//! core scenario: deadline-aware workloads and D²TCP, the combined
//! topology-aware/adaptive duplicate-ACK policy, the fixed-horizon goodput
//! measurement and the co-existence of protocols on one fabric.

use mmptcp::prelude::*;

/// A small paper-style workload on the 16-host FatTree with deadlines.
fn deadline_config(protocol: Protocol, deadlines: DeadlineModel, seed: u64) -> ExperimentConfig {
    let mut cfg = ExperimentConfig {
        topology: TopologySpec::FatTree(FatTreeConfig::small()),
        workload: WorkloadSpec::Paper(PaperWorkloadConfig {
            flows_per_short_host: 2,
            deadlines,
            arrivals: ArrivalProcess::Poisson {
                mean_interarrival: SimDuration::from_millis(20),
            },
            ..PaperWorkloadConfig::default()
        }),
        protocol,
        seed,
        max_sim_time: SimDuration::from_secs(10),
        ..ExperimentConfig::default()
    };
    cfg.goodput_horizon = Some(SimDuration::from_millis(500));
    cfg
}

#[test]
fn generous_deadlines_are_all_met_by_d2tcp() {
    let r = mmptcp::run(deadline_config(
        Protocol::D2tcp,
        DeadlineModel::Fixed(SimDuration::from_secs(8)),
        3,
    ));
    assert!(r.all_short_completed);
    let (missed, total) = r.deadline_misses();
    assert!(total > 0, "short flows must carry deadlines");
    assert_eq!(missed, 0, "an 8 s deadline for 70 KB cannot be missed");
}

#[test]
fn impossible_deadlines_are_all_missed() {
    let r = mmptcp::run(deadline_config(
        Protocol::D2tcp,
        DeadlineModel::Fixed(SimDuration::from_micros(1)),
        3,
    ));
    let (missed, total) = r.deadline_misses();
    assert_eq!(missed, total, "nobody can move 70 KB in a microsecond");
    assert!(total > 0);
}

#[test]
fn deadline_accounting_covers_every_protocol() {
    // Deadlines are a property of the workload, not of the transport: the
    // miss-rate accounting must work for protocols that ignore them too.
    for protocol in [Protocol::Tcp, Protocol::mmptcp_default()] {
        let r = mmptcp::run(deadline_config(
            protocol,
            DeadlineModel::Slack {
                slack: 50.0,
                reference_gbps: 1.0,
                floor: SimDuration::from_millis(50),
            },
            5,
        ));
        let (missed, total) = r.deadline_misses();
        assert!(total > 0);
        assert!(missed <= total);
    }
}

#[test]
fn d2tcp_completes_the_paper_workload() {
    let r = mmptcp::run(deadline_config(
        Protocol::D2tcp,
        DeadlineModel::Fixed(SimDuration::from_millis(100)),
        7,
    ));
    assert!(r.all_short_completed);
    assert!(r.short_fct_summary().count > 0);
    // D2TCP requires ECN: the run must have been configured with marking, so
    // at least some window reductions happen without drops dominating.
    assert!(r.overall_utilisation > 0.0);
}

#[test]
fn goodput_horizon_bounds_the_measurement_window() {
    // The same run measured over a 500 ms horizon and over the whole run:
    // both must be positive; the horizon version reflects only the loaded
    // period and therefore never exceeds the line-rate bound of the access
    // links times the number of long flows.
    let with_horizon = mmptcp::run(deadline_config(Protocol::Tcp, DeadlineModel::None, 11));
    assert!(with_horizon.all_short_completed);
    let goodput = with_horizon.long_goodput_bps();
    assert!(
        goodput > 0.0,
        "long flows must have made progress by 500 ms"
    );
    let long_flows = with_horizon.long_ids.len() as f64;
    assert!(
        goodput <= long_flows * 1e9 * 1.05,
        "aggregate long-flow goodput {goodput} cannot exceed access capacity"
    );

    let mut cfg = deadline_config(Protocol::Tcp, DeadlineModel::None, 11);
    cfg.goodput_horizon = None;
    let whole_run = mmptcp::run(cfg);
    assert!(whole_run.long_goodput_bps() > 0.0);
}

#[test]
fn congestion_event_switching_works_end_to_end() {
    let cfg = ExperimentConfig {
        topology: TopologySpec::FatTree(FatTreeConfig::small()),
        workload: WorkloadSpec::Custom(vec![FlowSpec::new(
            0,
            Addr(0),
            Addr(12),
            Some(3_000_000),
            SimTime::from_millis(1),
            FlowClass::Short,
        )]),
        protocol: Protocol::Mmptcp {
            subflows: 4,
            switch: SwitchStrategy::CongestionEvent,
            dupack: None,
        },
        seed: 9,
        ..ExperimentConfig::default()
    };
    let r = mmptcp::run(cfg);
    assert!(r.all_short_completed, "the transfer must complete");
    // Whether it switched depends on whether any congestion event occurred;
    // the accounting must be consistent either way.
    assert!(r.phase_switches() <= 1);
}

#[test]
fn mixed_protocols_coexist_on_one_fabric() {
    // Short flows on MMPTCP while the long background flows run legacy MPTCP:
    // the co-existence scenario from §3. Everything must still complete and
    // both classes must make progress.
    let mut cfg = deadline_config(Protocol::mmptcp_default(), DeadlineModel::None, 13);
    cfg.long_protocol = Some(Protocol::mptcp8());
    let r = mmptcp::run(cfg);
    assert!(r.all_short_completed);
    assert!(r.long_goodput_bps() > 0.0);
    assert!(r.short_fct_summary().count > 0);
}

#[test]
fn d2tcp_protocol_resolves_and_names_correctly() {
    assert_eq!(Protocol::D2tcp.name(), "d2tcp");
    let r = mmptcp::run(ExperimentConfig {
        topology: TopologySpec::Parallel(ParallelPathConfig::default()),
        workload: WorkloadSpec::Custom(vec![FlowSpec {
            deadline: Some(SimDuration::from_millis(50)),
            ..FlowSpec::new(
                0,
                Addr(0),
                Addr(1),
                Some(70_000),
                SimTime::from_millis(1),
                FlowClass::Short,
            )
        }]),
        protocol: Protocol::D2tcp,
        seed: 2,
        ..ExperimentConfig::default()
    });
    assert!(r.all_short_completed);
    assert_eq!(
        r.deadline_misses(),
        (0, 1),
        "an uncontended 70 KB flow meets 50 ms"
    );
}
