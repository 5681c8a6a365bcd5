//! Cross-crate property-style tests: invariants that must hold for arbitrary
//! topologies, workloads and packet arrival orders.
//!
//! The build environment is offline, so instead of proptest these tests draw
//! their case parameters from a seeded [`SimRng`] — every run explores the
//! same (deterministic) sample of the input space, which keeps failures
//! reproducible without a shrinker.

use mmptcp::prelude::*;
use netsim::{Addr as NAddr, AgentCtx, FlowId as NFlowId, Packet, SimRng};
use transport::TransportReceiver;

/// Number of sampled cases per property, mirroring the old proptest config.
const CASES: u64 = 64;

/// Deterministic per-case parameter source.
fn case_rng(test: u64, case: u64) -> SimRng {
    SimRng::new(0xC0FFEE ^ (test << 32) ^ case)
}

/// The permutation traffic matrix never maps a host to itself and never
/// assigns two senders the same destination.
#[test]
fn permutation_matrix_is_a_derangement() {
    for case in 0..CASES {
        let mut params = case_rng(1, case);
        let n = params.range(2usize..200);
        let seed = params.range(0u64..1000);
        let hosts: Vec<Addr> = (0..n as u32).map(Addr).collect();
        let mut rng = SimRng::new(seed);
        let pairs =
            workload::assign_destinations(TrafficMatrix::Permutation, &hosts, &hosts, &mut rng);
        assert_eq!(pairs.len(), n);
        let mut seen = std::collections::HashSet::new();
        for (s, d) in pairs {
            assert_ne!(s, d, "n={n} seed={seed}");
            assert!(seen.insert(d), "duplicate destination (n={n} seed={seed})");
        }
    }
}

/// FatTree construction invariants hold for every legal (k, oversubscription),
/// single- and dual-homed.
#[test]
fn fattree_structure_invariants() {
    use topology::fattree::{build, build_dual_homed};
    for k in [4usize, 6, 8] {
        for oversub in 1usize..=4 {
            let cfg = FatTreeConfig {
                k,
                oversubscription: oversub,
                ..FatTreeConfig::default()
            };
            let single = build(cfg);
            for (topo, homes) in [(&single, 1), (&build_dual_homed(cfg), 2)] {
                // Host count formula.
                assert_eq!(topo.host_count(), oversub * k * k * k / 4);
                // Link tier list covers every link.
                assert_eq!(topo.link_tiers.len(), topo.network.link_count());
                // Every host has one uplink per edge switch it attaches to.
                for &h in &topo.hosts {
                    let host = topo.network.node(h).as_host().unwrap();
                    assert_eq!(host.uplinks.len(), homes);
                }
                // Every switch can reach every host.
                for node in topo.network.nodes() {
                    if let Some(sw) = node.as_switch() {
                        for h in 0..topo.host_count() {
                            assert!(sw.path_count(Addr(h as u32)) >= 1);
                        }
                    }
                }
                // Path-count model is monotone in topological distance, and
                // every extra home multiplies the single-homed count.
                let last = Addr((topo.host_count() - 1) as u32);
                assert!(topo.path_count(Addr(0), Addr(1)) <= topo.path_count(Addr(0), last));
                assert_eq!(topo.path_count(Addr(0), last), homes * (k / 2) * (k / 2));
                for b in 1..topo.host_count() as u32 {
                    assert_eq!(
                        topo.path_count(Addr(0), Addr(b)),
                        homes * single.path_count(Addr(0), Addr(b))
                    );
                }
            }
        }
    }
}

/// The receiver reassembles a randomly-ordered stream without losing or
/// duplicating bytes, regardless of arrival order and duplication.
#[test]
fn receiver_reassembly_is_lossless() {
    for case in 0..CASES {
        let mut params = case_rng(2, case);
        let segments = params.range(1usize..60);
        let seed = params.range(0u64..500);
        let duplicate_every = params.range(2usize..10);

        let mss = 1_000u64;
        let total = segments as u64 * mss;
        let mut order: Vec<usize> = (0..segments).collect();
        let mut rng = SimRng::new(seed);
        rng.shuffle(&mut order);

        let mut rx = TransportReceiver::new(NFlowId(1));
        let mut out = Vec::new();
        let mut timers = Vec::new();
        let mut signals = Vec::new();
        let mut last_data_ack = 0;
        for (i, &seg) in order.iter().enumerate() {
            let reps = if i % duplicate_every == 0 { 2 } else { 1 };
            for _ in 0..reps {
                let pkt = Packet::data(
                    NAddr(0),
                    NAddr(1),
                    50_000,
                    80,
                    NFlowId(1),
                    0,
                    seg as u64 * mss,
                    seg as u64 * mss,
                    mss as u32,
                    SimTime::from_micros(i as u64),
                );
                let mut ctx = AgentCtx::new(
                    SimTime::from_millis(1 + i as u64),
                    NFlowId(1),
                    &mut rng,
                    &mut out,
                    &mut timers,
                    &mut signals,
                );
                netsim::Agent::handle(&mut rx, &mut ctx, netsim::AgentEvent::Packet(pkt));
            }
            if let Some(ack) = out.last() {
                assert!(ack.data_ack >= last_data_ack, "data ack went backwards");
                last_data_ack = ack.data_ack;
            }
        }
        assert_eq!(rx.contiguous_bytes(), total);
        assert_eq!(last_data_ack, total);
    }
}

/// Summary statistics are internally consistent for arbitrary samples.
#[test]
fn summary_statistics_are_consistent() {
    for case in 0..CASES {
        let mut params = case_rng(3, case);
        let len = params.range(1usize..200);
        let samples: Vec<f64> = (0..len).map(|_| params.unit() * 1e6).collect();
        let s = metrics::Summary::of(&samples);
        assert_eq!(s.count, samples.len());
        assert!(s.min <= s.median + 1e-9);
        assert!(s.median <= s.p95 + 1e-9);
        assert!(s.p95 <= s.p99 + 1e-9);
        assert!(s.p99 <= s.max + 1e-9);
        assert!(s.mean >= s.min - 1e-9 && s.mean <= s.max + 1e-9);
        assert!(s.std_dev >= 0.0);
    }
}

/// Paper workload generation: flow counts, classes and sizes are coherent
/// for arbitrary host counts and seeds.
#[test]
fn paper_workload_is_coherent() {
    for case in 0..CASES {
        let mut params = case_rng(4, case);
        let hosts = params.range(6usize..80);
        let seed = params.range(0u64..200);
        let flows_per_host = params.range(1usize..5);
        let addrs: Vec<Addr> = (0..hosts as u32).map(Addr).collect();
        let cfg = PaperWorkloadConfig {
            flows_per_short_host: flows_per_host,
            ..PaperWorkloadConfig::default()
        };
        let mut rng = SimRng::new(seed);
        let w = workload::paper_workload(&addrs, &cfg, &mut rng);
        let long = w.long_count();
        let short = w.short_count();
        assert!(long >= 1);
        assert_eq!(short, (hosts - long) * flows_per_host);
        for f in &w.flows {
            assert!(f.src.index() < hosts);
            assert!(f.dst.index() < hosts);
            assert_ne!(f.src, f.dst);
            match f.class {
                FlowClass::Long => assert!(f.size.is_none()),
                FlowClass::Short => assert_eq!(f.size, Some(70_000)),
            }
        }
    }
}

/// ECMP selection is deterministic per 5-tuple and always in range.
#[test]
fn ecmp_selection_in_range() {
    for case in 0..CASES {
        let mut params = case_rng(5, case);
        let src = params.range(0u32..1024);
        let dst = params.range(0u32..1024);
        let sport = params.range(1024u16..65535);
        let salt = params.next_u64();
        let n = params.range(1usize..64);
        let pkt = Packet::data(
            NAddr(src),
            NAddr(dst),
            sport,
            80,
            NFlowId(1),
            0,
            0,
            0,
            1400,
            SimTime::ZERO,
        );
        let a = netsim::ecmp::select(&pkt, salt, n);
        let b = netsim::ecmp::select(&pkt, salt, n);
        assert_eq!(a, b);
        assert!(a < n);
    }
}

/// Slack-based deadlines scale with flow size, never fall below the floor,
/// and are monotone in size.
#[test]
fn slack_deadlines_are_monotone_and_floored() {
    for case in 0..CASES {
        let mut params = case_rng(6, case);
        let small = params.range(1_000u64..50_000);
        let extra = params.range(1u64..10_000_000);
        let slack = 0.1 + params.unit() * 49.9;
        let floor_ms = params.range(1u64..100);
        let model = DeadlineModel::Slack {
            slack,
            reference_gbps: 1.0,
            floor: SimDuration::from_millis(floor_ms),
        };
        let floor = SimDuration::from_millis(floor_ms);
        let d_small = model.deadline_for(small).unwrap();
        let d_large = model.deadline_for(small + extra).unwrap();
        assert!(d_small >= floor);
        assert!(d_large >= d_small);
        // None and Fixed behave as documented regardless of size.
        assert_eq!(DeadlineModel::None.deadline_for(small), None);
        assert_eq!(
            DeadlineModel::Fixed(floor).deadline_for(small + extra),
            Some(floor)
        );
    }
}

/// Every duplicate-ACK policy yields an initial threshold of at least the
/// TCP default where it is meant to, and adaptive variants advertise an
/// upper bound no smaller than where they start.
#[test]
fn dupack_policies_are_sane() {
    for case in 0..CASES {
        let mut params = case_rng(7, case);
        let paths = params.range(1u32..256);
        let aware = DupAckPolicy::TopologyAware { paths };
        assert!(aware.initial_threshold() >= 3);
        let combined = DupAckPolicy::topology_adaptive(paths);
        assert!(combined.initial_threshold() >= 3);
        let (_step, max) = combined.adaptation().expect("combined policy adapts");
        assert!(max >= combined.initial_threshold());
        assert_eq!(DupAckPolicy::Fixed(0).initial_threshold(), 1);
    }
}

/// The incast workload builder produces `fan_in` senders per receiver, no
/// self-flows and one shared destination per group.
#[test]
fn incast_workload_structure() {
    for case in 0..CASES {
        let mut params = case_rng(8, case);
        let hosts = params.range(6usize..120);
        let fan_in = params.range(2usize..16);
        if hosts <= fan_in {
            continue;
        }
        let addrs: Vec<Addr> = (0..hosts as u32).map(Addr).collect();
        let w = workload::incast_workload(&addrs, fan_in, 32_000, SimTime::from_millis(1));
        assert!(!w.flows.is_empty());
        assert_eq!(w.flows.len() % fan_in, 0);
        for group in w.flows.chunks(fan_in) {
            let dst = group[0].dst;
            for f in group {
                assert_eq!(f.dst, dst);
                assert_ne!(f.src, f.dst);
                assert_eq!(f.size, Some(32_000));
            }
        }
    }
}

/// Hotspot matrices keep the sender count and never create self-flows, for
/// any hot-set size and fraction.
#[test]
fn hotspot_matrix_is_valid() {
    for case in 0..CASES {
        let mut params = case_rng(9, case);
        let n = params.range(4usize..150);
        let hot_hosts = params.range(1usize..8);
        let fraction = params.range(0u32..1000);
        let seed = params.range(0u64..300);
        let hosts: Vec<Addr> = (0..n as u32).map(Addr).collect();
        let mut rng = SimRng::new(seed);
        let pairs = workload::assign_destinations(
            TrafficMatrix::Hotspot {
                hot_hosts,
                hot_fraction_millis: fraction,
            },
            &hosts,
            &hosts,
            &mut rng,
        );
        assert_eq!(pairs.len(), n);
        for (s, d) in pairs {
            assert_ne!(s, d);
            assert!(d.index() < n);
        }
    }
}

/// Windowed goodput is non-negative and non-decreasing in the window end,
/// for an arbitrary (sorted) progress series.
#[test]
fn windowed_goodput_monotone_in_delivered_bytes() {
    for case in 0..CASES {
        let mut params = case_rng(10, case);
        let len = params.range(1usize..40);
        let mut points: Vec<(u64, u64)> = (0..len)
            .map(|_| (params.range(1u64..5_000), params.range(1u64..1_000_000)))
            .collect();
        points.sort();
        let mut metrics = metrics::FlowMetrics::new();
        let mut cumulative = 0u64;
        let mut last_t = 0u64;
        for (dt, db) in &points {
            last_t += dt;
            cumulative += db;
            metrics.ingest(&[netsim::Signal::FlowProgress {
                flow: NFlowId(1),
                at: SimTime::from_micros(last_t),
                bytes: cumulative,
            }]);
        }
        let end = SimTime::from_micros(last_t);
        assert_eq!(metrics.bytes_delivered_by(NFlowId(1), end), cumulative);
        assert_eq!(metrics.bytes_delivered_by(NFlowId(1), SimTime::ZERO), 0);
        // Bytes delivered by t never decrease as t grows.
        let mut prev = 0u64;
        for (i, _) in points.iter().enumerate() {
            let t = SimTime::from_micros((i as u64 + 1) * 100);
            let b = metrics.bytes_delivered_by(NFlowId(1), t);
            assert!(b >= prev);
            prev = b;
        }
        let g = metrics.goodput_bps_windowed(|_| true, SimTime::ZERO, end);
        assert!(g >= 0.0);

        // Over the whole stream the window measures exactly the bytes the
        // flow records hold — the whole-run goodput, so results need no
        // second formula — whatever mix of reports a flow leaves behind:
        // receiver and sender progress at the same instant in either order
        // (the sender a few segments behind; the fluid engine reports
        // through the same signal), and a completion followed by the
        // receiver's closing report.
        let mut metrics = metrics::FlowMetrics::new();
        let mut end = SimTime::ZERO;
        for flow in 0..params.range(1u64..5) {
            let progress = |at, bytes| netsim::Signal::FlowProgress {
                flow: NFlowId(flow),
                at,
                bytes,
            };
            let (mut at, mut delivered) = (SimTime::ZERO, 0u64);
            for _ in 0..params.range(1usize..20) {
                at += SimDuration::from_micros(params.range(1u64..5_000));
                delivered += params.range(1u64..1_000_000);
                let lag = params.range(0u64..=delivered.min(14_000));
                match params.range(0u32..3) {
                    0 => metrics.ingest(&[progress(at, delivered)]),
                    1 => metrics.ingest(&[progress(at, delivered), progress(at, delivered - lag)]),
                    _ => metrics.ingest(&[progress(at, delivered - lag), progress(at, delivered)]),
                }
            }
            if params.chance(0.5) {
                at += SimDuration::from_micros(params.range(1u64..5_000));
                metrics.ingest(&[netsim::Signal::FlowCompleted {
                    flow: NFlowId(flow),
                    at,
                    bytes: delivered,
                }]);
                if params.chance(0.5) {
                    at += SimDuration::from_micros(params.range(0u64..5_000));
                    metrics.ingest(&[progress(at, delivered)]);
                }
            }
            end = end.max(at);
        }
        let even = |f: NFlowId| f.0.is_multiple_of(2);
        let recorded = metrics.sorted_records().into_iter();
        let bytes: u64 = recorded.filter(|r| even(r.0)).map(|r| r.1.bytes).sum();
        assert_eq!(
            metrics.goodput_bps_windowed(even, SimTime::ZERO, end),
            bytes as f64 * 8.0 / (end - SimTime::ZERO).as_secs_f64(),
            "case {case}"
        );
    }
}

/// Stride and random matrices never map a sender to itself.
#[test]
fn stride_and_random_matrices_avoid_self() {
    for case in 0..CASES {
        let mut params = case_rng(11, case);
        let n = params.range(3usize..100);
        let k = params.range(1usize..50);
        let seed = params.range(0u64..100);
        let hosts: Vec<Addr> = (0..n as u32).map(Addr).collect();
        let mut rng = SimRng::new(seed);
        for matrix in [TrafficMatrix::Stride(k), TrafficMatrix::Random] {
            let pairs = workload::assign_destinations(matrix, &hosts, &hosts, &mut rng);
            assert_eq!(pairs.len(), n);
            for (s, d) in pairs {
                assert_ne!(s, d);
            }
        }
    }
}

/// Empirical-CDF sampling is a pure function of the RNG stream: the same
/// seed always reproduces the same sample sequence, and different seeds
/// explore different sequences.
#[test]
fn empirical_cdf_sampling_is_deterministic_per_seed() {
    for case in 0..CASES {
        let mut params = case_rng(12, case);
        let seed = params.range(0u64..10_000);
        for cdf in [&workload::WEB_SEARCH, &workload::DATA_MINING] {
            let draw = |seed: u64| -> Vec<u64> {
                let mut rng = SimRng::new(seed);
                (0..32).map(|_| cdf.sample(&mut rng)).collect()
            };
            let a = draw(seed);
            let b = draw(seed);
            assert_eq!(a, b, "{} seed={seed}", cdf.name);
            let c = draw(seed ^ 0x5EED_0001);
            assert_ne!(a, c, "{} different seeds must differ", cdf.name);
            for v in a {
                assert!(
                    (cdf.min_bytes()..=cdf.max_bytes()).contains(&v),
                    "{} sample {v} out of CDF support",
                    cdf.name
                );
            }
        }
    }
}

/// Inverse-transform sampling converges: the mean over many samples
/// approaches the analytic piecewise-linear mean of the CDF.
#[test]
fn empirical_cdf_sample_means_converge_to_the_analytic_mean() {
    const SAMPLES: usize = 200_000;
    for (cdf, tolerance) in [
        // Web-search mass is spread broadly: tight tolerance.
        (&workload::WEB_SEARCH, 0.05),
        // Data-mining is dominated by its extreme tail (top 2 % of flows
        // carry most bytes), so the sample mean has higher variance.
        (&workload::DATA_MINING, 0.10),
    ] {
        cdf.validate();
        let mut rng = SimRng::new(0xCDF_CA5E);
        let sum: f64 = (0..SAMPLES).map(|_| cdf.sample(&mut rng) as f64).sum();
        let sample_mean = sum / SAMPLES as f64;
        let analytic = cdf.mean();
        let rel = (sample_mean - analytic).abs() / analytic;
        assert!(
            rel < tolerance,
            "{}: sample mean {sample_mean:.0} vs analytic {analytic:.0} (rel err {rel:.4})",
            cdf.name
        );
    }
}

/// Every congestion controller behind the `transport::cc` trait keeps its
/// state machine sane under arbitrary interleavings of ACK / dup-ACK /
/// fast-retransmit loss / ECN / RTO / round-trip / undo events:
///
/// * `cwnd` stays finite and never drops below 1 MSS — the universal floor.
///   (The ISSUE-level "2 MSS" floor holds right after a fast-retransmit
///   loss, and that is asserted here at the loss site; it cannot hold
///   universally because RFC 5681 collapses the window to one segment on an
///   RTO, and a DCTCP-style ECN response may pin `ssthresh = cwnd` below
///   2 MSS.)
/// * `ssthresh` stays finite and strictly positive.
/// * The advertised pacing rate, when present, is a positive number of bps.
#[test]
fn congestion_controllers_keep_their_state_sane_under_random_events() {
    use transport::{CongestionControl, RttEstimator, TransportConfig};
    let cfg = TransportConfig::default();
    let mss = cfg.mss as f64;
    let controllers = [
        CongestionControl::Reno,
        CongestionControl::Cubic,
        CongestionControl::Bbr,
    ];
    for case in 0..CASES {
        for (ci, cc) in controllers.iter().enumerate() {
            let mut params = case_rng(7, case * 8 + ci as u64);
            let mut rtt = RttEstimator::new(cfg.min_rto, cfg.initial_rto, cfg.max_rto);
            let mut now = SimTime::from_millis(1);
            let mut ctl = cc.build(&cfg);
            ctl.on_established(now, &rtt);
            for step in 0..200u32 {
                now += SimDuration::from_micros(params.range(1u64..5_000));
                if params.chance(0.7) {
                    rtt.on_sample(SimDuration::from_micros(params.range(20u64..5_000)));
                }
                let flight = params.range(0u64..400_000);
                match params.range(0u32..100) {
                    0..=44 => {
                        let newly = params.range(1u64..(3 * cfg.mss as u64));
                        ctl.on_ack(newly, now, &rtt, None);
                    }
                    45..=54 => ctl.on_dup_ack(),
                    55..=64 => {
                        ctl.on_loss(flight);
                        assert!(
                            ctl.cwnd() >= 2.0 * mss,
                            "{} case={case} step={step}: cwnd {} < 2 MSS right after \
                             a fast-retransmit loss",
                            cc.name(),
                            ctl.cwnd()
                        );
                    }
                    65..=72 => ctl.on_recovery_exit(),
                    73..=80 => {
                        let penalty = params.range(0u64..=1_000) as f64 / 1_000.0;
                        ctl.on_ecn(penalty);
                    }
                    81..=87 => ctl.on_rto(flight),
                    88..=94 => ctl.on_round_trip(now, &rtt),
                    _ => ctl.undo(),
                }
                let (w, s) = (ctl.cwnd(), ctl.ssthresh());
                assert!(
                    w.is_finite() && w >= mss,
                    "{} case={case} step={step}: cwnd {w} broke the 1-MSS floor",
                    cc.name()
                );
                assert!(
                    s.is_finite() && s > 0.0,
                    "{} case={case} step={step}: ssthresh {s} not finite-positive",
                    cc.name()
                );
                if let Some(rate) = ctl.pacing_rate_bps() {
                    assert!(
                        rate > 0,
                        "{} case={case} step={step}: zero pacing rate advertised",
                        cc.name()
                    );
                }
            }
        }
    }
}

/// The quantile function is monotone non-decreasing over [0, 1] — the basic
/// soundness requirement for inverse-transform sampling.
#[test]
fn empirical_cdf_quantile_is_monotone() {
    for cdf in [&workload::WEB_SEARCH, &workload::DATA_MINING] {
        let mut prev = 0u64;
        for i in 0..=1_000 {
            let q = cdf.quantile(i as f64 / 1_000.0);
            assert!(q >= prev, "{} quantile not monotone at {i}", cdf.name);
            prev = q;
        }
        assert_eq!(cdf.quantile(0.0), cdf.min_bytes());
        assert_eq!(cdf.quantile(1.0), cdf.max_bytes());
    }
}
