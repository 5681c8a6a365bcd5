//! Flow specifications and workload generators.
//!
//! The output of this module is a plain list of [`FlowSpec`]s — protocol
//! agnostic descriptions of "host A sends B bytes to host C starting at time
//! T". The experiment layer (`mmptcp` crate) turns each spec into a concrete
//! sender/receiver agent pair for whichever transport is under test.

use crate::matrix::{assign_destinations, TrafficMatrix};
use netsim::{Addr, SimDuration, SimRng, SimTime};
use serde::{Deserialize, Serialize};

/// Whether a flow is one of the latency-sensitive short flows or a
/// bandwidth-hungry long (background) flow.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum FlowClass {
    /// Latency-sensitive short flow (the paper uses 70 KB).
    Short,
    /// Long-lived background flow (runs for the whole experiment).
    Long,
}

/// One flow to be simulated.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct FlowSpec {
    /// Dense flow identifier (also used as the simulator `FlowId`).
    pub id: u64,
    /// Sending host.
    pub src: Addr,
    /// Receiving host.
    pub dst: Addr,
    /// Bytes to transfer; `None` means unbounded (background flow).
    pub size: Option<u64>,
    /// When the sender starts.
    pub start: SimTime,
    /// Short or long.
    pub class: FlowClass,
    /// Completion deadline relative to the flow's start, if the application
    /// has one (the paper's introduction: short flows "commonly come with
    /// strict deadlines"). Used by the deadline-miss analysis and by the
    /// deadline-aware D²TCP sender; `None` for deadline-free flows.
    pub deadline: Option<SimDuration>,
}

impl FlowSpec {
    /// Convenience constructor for a deadline-free flow.
    #[allow(clippy::too_many_arguments)]
    pub fn new(
        id: u64,
        src: Addr,
        dst: Addr,
        size: Option<u64>,
        start: SimTime,
        class: FlowClass,
    ) -> Self {
        FlowSpec {
            id,
            src,
            dst,
            size,
            start,
            class,
            deadline: None,
        }
    }
}

/// How deadlines are assigned to short flows.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize, Default)]
pub enum DeadlineModel {
    /// No deadlines (the paper's Figure-1 workload).
    #[default]
    None,
    /// Every short flow gets the same relative deadline.
    Fixed(SimDuration),
    /// Deadline proportional to the flow's ideal transfer time at
    /// `reference_gbps`, multiplied by `slack` and never below `floor` — the
    /// usual model in the deadline-aware transport literature (D³, D²TCP).
    Slack {
        /// Multiplier on the ideal transfer time.
        slack: f64,
        /// Line rate used to compute the ideal transfer time.
        reference_gbps: f64,
        /// Minimum deadline handed out.
        floor: SimDuration,
    },
}

impl DeadlineModel {
    /// The deadline for a flow of `size` bytes (`None` when the model assigns
    /// no deadlines).
    pub(crate) fn deadline_for(&self, size: u64) -> Option<SimDuration> {
        match *self {
            DeadlineModel::None => None,
            DeadlineModel::Fixed(d) => Some(d),
            DeadlineModel::Slack {
                slack,
                reference_gbps,
                floor,
            } => {
                let ideal_secs = (size as f64 * 8.0) / (reference_gbps.max(1e-3) * 1e9);
                let d = SimDuration::from_secs_f64(ideal_secs * slack.max(0.0));
                Some(d.max(floor))
            }
        }
    }
}

/// An empirical flow-size distribution given as a piecewise-linear CDF:
/// `(bytes, cumulative probability)` knots, strictly increasing in both
/// coordinates, starting at probability 0 and ending at 1. Samples are drawn
/// by inverse-transform: one uniform variate is mapped through the inverse
/// CDF with linear interpolation between knots.
///
/// ```
/// use netsim::SimRng;
/// use workload::WEB_SEARCH;
///
/// WEB_SEARCH.validate();
/// // The median web-search flow is a short query; the analytic mean is
/// // dominated by the few multi-megabyte responses.
/// assert!(WEB_SEARCH.quantile(0.5) < 100_000);
/// assert!(WEB_SEARCH.mean() > 1_000_000.0);
/// // Sampling is deterministic per seed and bounded by the knot range.
/// let mut rng = SimRng::new(42);
/// let size = WEB_SEARCH.sample(&mut rng);
/// assert!(size >= WEB_SEARCH.min_bytes() && size <= WEB_SEARCH.max_bytes());
/// assert_eq!(WEB_SEARCH.sample(&mut SimRng::new(42)), size);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EmpiricalCdf {
    /// Distribution name (used in labels and reports).
    pub name: &'static str,
    /// `(bytes, cumulative_probability)` knots.
    points: &'static [(u64, f64)],
}

/// The web-search flow-size distribution reported in the DCTCP paper
/// (Alizadeh et al., SIGCOMM 2010): about half the flows are short queries
/// under 20 KB, but most *bytes* come from the few multi-megabyte responses.
pub static WEB_SEARCH: EmpiricalCdf = EmpiricalCdf {
    name: "web-search",
    points: &[
        (6_000, 0.0),
        (10_000, 0.15),
        (13_000, 0.20),
        (19_000, 0.30),
        (33_000, 0.40),
        (53_000, 0.53),
        (133_000, 0.60),
        (667_000, 0.70),
        (1_333_000, 0.80),
        (3_333_000, 0.90),
        (6_667_000, 0.97),
        (20_000_000, 0.995),
        (30_000_000, 1.0),
    ],
};

/// The data-mining flow-size distribution reported for VL2-style clusters
/// (Greenberg et al., SIGCOMM 2009): even more skewed than web-search —
/// ~80 % of flows are under 10 KB while the top few percent reach 100 MB.
pub static DATA_MINING: EmpiricalCdf = EmpiricalCdf {
    name: "data-mining",
    points: &[
        (100, 0.0),
        (180, 0.10),
        (250, 0.20),
        (560, 0.30),
        (900, 0.40),
        (1_100, 0.50),
        (1_870, 0.60),
        (3_160, 0.70),
        (10_000, 0.80),
        (400_000, 0.85),
        (3_160_000, 0.90),
        (10_000_000, 0.95),
        (31_600_000, 0.98),
        (100_000_000, 1.0),
    ],
};

impl EmpiricalCdf {
    /// Check the CDF invariants (strictly increasing in both coordinates,
    /// probability spanning exactly [0, 1]). Called by tests and debug paths.
    pub fn validate(&self) {
        assert!(self.points.len() >= 2, "CDF needs at least two knots");
        assert_eq!(self.points[0].1, 0.0, "first knot must be at p=0");
        assert_eq!(
            self.points[self.points.len() - 1].1,
            1.0,
            "last knot at p=1"
        );
        for w in self.points.windows(2) {
            assert!(w[0].0 < w[1].0, "bytes must be strictly increasing");
            assert!(w[0].1 < w[1].1, "probability must be strictly increasing");
        }
    }

    /// Smallest possible sample.
    pub fn min_bytes(&self) -> u64 {
        self.points[0].0
    }

    /// Largest possible sample.
    pub fn max_bytes(&self) -> u64 {
        self.points[self.points.len() - 1].0
    }

    /// The inverse CDF at probability `u` (clamped to [0, 1]), linearly
    /// interpolated between knots.
    pub fn quantile(&self, u: f64) -> u64 {
        let u = u.clamp(0.0, 1.0);
        let mut prev = self.points[0];
        for &(bytes, p) in &self.points[1..] {
            if u <= p {
                let frac = (u - prev.1) / (p - prev.1);
                let span = (bytes - prev.0) as f64;
                return prev.0 + (span * frac).round() as u64;
            }
            prev = (bytes, p);
        }
        self.max_bytes()
    }

    /// Draw one sample by inverse-transform (consumes exactly one uniform
    /// variate, so per-seed determinism is trivial to reason about).
    pub fn sample(&self, rng: &mut SimRng) -> u64 {
        self.quantile(rng.unit())
    }

    /// Analytic mean of the piecewise-linear distribution: each segment
    /// contributes its probability mass times the segment midpoint.
    pub fn mean(&self) -> f64 {
        self.points
            .windows(2)
            .map(|w| (w[1].1 - w[0].1) * (w[0].0 + w[1].0) as f64 / 2.0)
            .sum()
    }
}

/// Flow size models for short flows.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum FlowSizeModel {
    /// Every flow has exactly this many bytes (the paper's 70 KB short flows).
    Fixed(u64),
    /// The empirical web-search distribution ([`WEB_SEARCH`]).
    WebSearch,
    /// The empirical data-mining distribution ([`DATA_MINING`]).
    DataMining,
}

impl FlowSizeModel {
    /// The empirical CDF behind this model, if it has one.
    pub fn cdf(&self) -> Option<&'static EmpiricalCdf> {
        match self {
            FlowSizeModel::WebSearch => Some(&WEB_SEARCH),
            FlowSizeModel::DataMining => Some(&DATA_MINING),
            FlowSizeModel::Fixed(_) => None,
        }
    }

    /// Draw one flow size.
    pub fn sample(&self, rng: &mut SimRng) -> u64 {
        match *self {
            FlowSizeModel::Fixed(b) => b,
            FlowSizeModel::WebSearch => WEB_SEARCH.sample(rng),
            FlowSizeModel::DataMining => DATA_MINING.sample(rng),
        }
    }
}

/// Arrival process of short flows at each sending host.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum ArrivalProcess {
    /// Poisson process: exponential inter-arrival times with the given mean.
    Poisson {
        /// Mean inter-arrival time between consecutive flows at one host.
        mean_interarrival: SimDuration,
    },
    /// All flows of a host start at the same instant (burst / incast).
    Simultaneous,
}

impl ArrivalProcess {
    /// The time of the `k`-th arrival after `base` (`k` starts at 0).
    fn next(&self, base: SimTime, prev: SimTime, rng: &mut SimRng) -> SimTime {
        match *self {
            ArrivalProcess::Poisson { mean_interarrival } => {
                let gap = rng.exponential(mean_interarrival.as_secs_f64());
                prev + SimDuration::from_secs_f64(gap)
            }
            ArrivalProcess::Simultaneous => base,
        }
    }
}

/// The paper's evaluation workload (§3 / Figure 1 caption): one third of the
/// hosts run long background flows; the remaining hosts generate short flows
/// according to a Poisson process; all source/destination pairs come from a
/// permutation traffic matrix.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct PaperWorkloadConfig {
    /// Fraction of hosts (in thousandths) that run long flows. The paper uses
    /// one third (≈ 333).
    pub long_host_millis: u32,
    /// Short flow size model (paper: fixed 70 KB).
    pub short_size: FlowSizeModel,
    /// Number of short flows each short-flow host generates.
    pub flows_per_short_host: usize,
    /// Arrival process of short flows at each host.
    pub arrivals: ArrivalProcess,
    /// Traffic matrix for pairing sources with destinations.
    pub matrix: TrafficMatrix,
    /// When the long flows start.
    pub long_start: SimTime,
    /// When short-flow generation begins (long flows are usually given a head
    /// start so queues reach steady state).
    pub short_start: SimTime,
    /// Deadline assignment for short flows (none in the paper's Figure-1
    /// workload; used by the deadline-miss extension experiment).
    pub deadlines: DeadlineModel,
}

impl Default for PaperWorkloadConfig {
    fn default() -> Self {
        PaperWorkloadConfig {
            long_host_millis: 333,
            short_size: FlowSizeModel::Fixed(70_000),
            flows_per_short_host: 8,
            arrivals: ArrivalProcess::Poisson {
                mean_interarrival: SimDuration::from_millis(150),
            },
            matrix: TrafficMatrix::Permutation,
            long_start: SimTime::from_millis(0),
            short_start: SimTime::from_millis(100),
            deadlines: DeadlineModel::None,
        }
    }
}

/// A complete generated workload.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Workload {
    /// All flows, sorted by start time.
    pub flows: Vec<FlowSpec>,
}

#[cfg(test)]
impl Workload {
    /// Flows of a given class.
    fn of_class(&self, class: FlowClass) -> impl Iterator<Item = &FlowSpec> {
        self.flows.iter().filter(move |f| f.class == class)
    }

    /// Number of short flows.
    fn short_count(&self) -> usize {
        self.of_class(FlowClass::Short).count()
    }

    /// Number of long flows.
    fn long_count(&self) -> usize {
        self.of_class(FlowClass::Long).count()
    }
}

/// Generate the paper's workload over the given hosts.
pub fn paper_workload(hosts: &[Addr], cfg: &PaperWorkloadConfig, rng: &mut SimRng) -> Workload {
    assert!(hosts.len() >= 4, "need at least four hosts");
    // Split hosts into long-flow hosts and short-flow hosts. The split is
    // random but deterministic for a given seed.
    let mut shuffled: Vec<Addr> = hosts.to_vec();
    rng.shuffle(&mut shuffled);
    let num_long = ((hosts.len() as u64 * cfg.long_host_millis as u64) / 1000) as usize;
    let num_long = num_long.clamp(1, hosts.len().saturating_sub(2));
    let long_hosts: Vec<Addr> = shuffled[..num_long].to_vec();
    let short_hosts: Vec<Addr> = shuffled[num_long..].to_vec();

    let mut flows = Vec::new();
    let mut next_id = 0u64;

    // One traffic matrix over *all* hosts, exactly as in the paper ("all
    // flows are scheduled based on a permutation traffic matrix"): every host
    // is the destination of at most one sender, so a short flow never shares
    // its destination access link with a long flow.
    let all_pairs = assign_destinations(cfg.matrix, hosts, hosts, rng);
    let dest_of = |src: Addr| -> Addr {
        all_pairs
            .iter()
            .find(|(s, _)| *s == src)
            .map(|(_, d)| *d)
            .expect("every host has a destination")
    };

    // Long background flows: one per long host.
    for &src in &long_hosts {
        flows.push(FlowSpec {
            id: next_id,
            src,
            dst: dest_of(src),
            size: None,
            start: cfg.long_start,
            class: FlowClass::Long,
            deadline: None,
        });
        next_id += 1;
    }

    // Short flows: each short host keeps its single matrix destination and
    // generates a Poisson train of short flows towards it.
    let short_pairs: Vec<(Addr, Addr)> = short_hosts.iter().map(|&s| (s, dest_of(s))).collect();
    for (src, dst) in short_pairs {
        let mut prev = cfg.short_start;
        for _k in 0..cfg.flows_per_short_host {
            let start = cfg.arrivals.next(cfg.short_start, prev, rng);
            prev = start;
            let size = cfg.short_size.sample(rng);
            flows.push(FlowSpec {
                id: next_id,
                src,
                dst,
                size: Some(size),
                start,
                class: FlowClass::Short,
                deadline: cfg.deadlines.deadline_for(size),
            });
            next_id += 1;
        }
    }

    flows.sort_by_key(|f| (f.start, f.id));
    Workload { flows }
}

/// Generate an incast workload: `fan_in` senders each send `bytes` to the same
/// receiver, all starting at `start`. Repeated for as many complete groups as
/// the host list allows.
pub fn incast_workload(hosts: &[Addr], fan_in: usize, bytes: u64, start: SimTime) -> Workload {
    assert!(fan_in >= 2, "incast needs at least two senders");
    assert!(
        hosts.len() > fan_in,
        "not enough hosts for one incast group"
    );
    let mut flows = Vec::new();
    let mut next_id = 0u64;
    let groups = hosts.len() / (fan_in + 1);
    for g in 0..groups.max(1) {
        let base = g * (fan_in + 1);
        if base + fan_in >= hosts.len() {
            break;
        }
        let receiver = hosts[base + fan_in];
        for s in 0..fan_in {
            flows.push(FlowSpec {
                id: next_id,
                src: hosts[base + s],
                dst: receiver,
                size: Some(bytes),
                start,
                class: FlowClass::Short,
                deadline: None,
            });
            next_id += 1;
        }
    }
    Workload { flows }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{case_rng, CASES};

    fn hosts(n: usize) -> Vec<Addr> {
        (0..n as u32).map(Addr).collect()
    }

    #[test]
    fn paper_workload_splits_hosts_one_third_two_thirds() {
        let mut rng = SimRng::new(11);
        let w = paper_workload(&hosts(48), &PaperWorkloadConfig::default(), &mut rng);
        assert_eq!(w.long_count(), 48 * 333 / 1000);
        let expected_short_hosts = 48 - 48 * 333 / 1000;
        assert_eq!(w.short_count(), expected_short_hosts * 8);
    }

    /// Flow counts, classes and sizes are coherent for any host count,
    /// flows per host and seed.
    #[test]
    fn paper_workload_is_coherent() {
        for case in 0..CASES {
            let mut params = case_rng(4, case);
            let n = params.range(6usize..80);
            let seed = params.range(0u64..200);
            let flows_per_host = params.range(1usize..5);
            let cfg = PaperWorkloadConfig {
                flows_per_short_host: flows_per_host,
                ..PaperWorkloadConfig::default()
            };
            let w = paper_workload(&hosts(n), &cfg, &mut SimRng::new(seed));
            let long = w.long_count();
            assert!(long >= 1);
            assert_eq!(w.short_count(), (n - long) * flows_per_host);
            for f in &w.flows {
                assert!(f.src.index() < n);
                assert!(f.dst.index() < n);
                assert_ne!(f.src, f.dst);
                match f.class {
                    FlowClass::Long => assert!(f.size.is_none()),
                    FlowClass::Short => assert_eq!(f.size, Some(70_000)),
                }
            }
        }
    }

    #[test]
    fn long_flows_are_unbounded_and_start_first() {
        let mut rng = SimRng::new(11);
        let cfg = PaperWorkloadConfig::default();
        let w = paper_workload(&hosts(24), &cfg, &mut rng);
        for f in w.of_class(FlowClass::Long) {
            assert_eq!(f.size, None);
            assert_eq!(f.start, cfg.long_start);
        }
        for f in w.of_class(FlowClass::Short) {
            assert_eq!(f.size, Some(70_000));
            assert!(f.start >= cfg.short_start);
        }
    }

    #[test]
    fn flow_ids_are_unique_and_flows_sorted_by_start() {
        let mut rng = SimRng::new(2);
        let w = paper_workload(&hosts(30), &PaperWorkloadConfig::default(), &mut rng);
        let mut ids: Vec<u64> = w.flows.iter().map(|f| f.id).collect();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), w.flows.len());
        for pair in w.flows.windows(2) {
            assert!(pair[0].start <= pair[1].start);
        }
    }

    #[test]
    fn workload_is_deterministic_per_seed() {
        let cfg = PaperWorkloadConfig::default();
        let a = paper_workload(&hosts(20), &cfg, &mut SimRng::new(9));
        let b = paper_workload(&hosts(20), &cfg, &mut SimRng::new(9));
        assert_eq!(a, b);
    }

    #[test]
    fn poisson_arrivals_have_plausible_mean_gap() {
        let mut rng = SimRng::new(1);
        let cfg = PaperWorkloadConfig {
            flows_per_short_host: 200,
            ..PaperWorkloadConfig::default()
        };
        let w = paper_workload(&hosts(6), &cfg, &mut rng);
        // Collect inter-arrival gaps per source host.
        use std::collections::HashMap;
        let mut per_src: HashMap<Addr, Vec<SimTime>> = HashMap::new();
        for f in w.of_class(FlowClass::Short) {
            per_src.entry(f.src).or_default().push(f.start);
        }
        for starts in per_src.values() {
            let mut s = starts.clone();
            s.sort_unstable();
            let gaps: Vec<f64> = s.windows(2).map(|w| (w[1] - w[0]).as_secs_f64()).collect();
            let mean = gaps.iter().sum::<f64>() / gaps.len() as f64;
            assert!(
                (mean - 0.150).abs() < 0.05,
                "mean inter-arrival {mean} should be near 150 ms"
            );
        }
    }

    #[test]
    fn flow_size_models_sample_within_bounds() {
        let mut rng = SimRng::new(4);
        assert_eq!(FlowSizeModel::Fixed(70_000).sample(&mut rng), 70_000);
        for _ in 0..100 {
            let w = FlowSizeModel::WebSearch.sample(&mut rng);
            assert!((6_000..=30_000_000).contains(&w));
            let d = FlowSizeModel::DataMining.sample(&mut rng);
            assert!((100..=100_000_000).contains(&d));
        }
    }

    #[test]
    fn empirical_cdfs_are_well_formed() {
        WEB_SEARCH.validate();
        DATA_MINING.validate();
        assert_eq!(WEB_SEARCH.min_bytes(), 6_000);
        assert_eq!(WEB_SEARCH.max_bytes(), 30_000_000);
        assert_eq!(DATA_MINING.min_bytes(), 100);
        assert_eq!(DATA_MINING.max_bytes(), 100_000_000);
    }

    #[test]
    fn empirical_quantiles_interpolate_between_knots() {
        // Exactly at a knot.
        assert_eq!(WEB_SEARCH.quantile(0.15), 10_000);
        // Halfway through the first segment: linear in bytes.
        assert_eq!(WEB_SEARCH.quantile(0.075), 8_000);
        // Out-of-range probabilities clamp rather than panic.
        assert_eq!(DATA_MINING.quantile(-0.5), 100);
        assert_eq!(DATA_MINING.quantile(1.5), 100_000_000);
    }

    /// The quantile function is monotone non-decreasing over [0, 1], the
    /// basic soundness requirement for inverse-transform sampling.
    #[test]
    fn empirical_cdf_quantile_is_monotone() {
        for cdf in [&WEB_SEARCH, &DATA_MINING] {
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

    /// Sampling is a pure function of the RNG stream: the same seed always
    /// reproduces the same sample sequence, different seeds explore
    /// different ones, and every sample lies in the CDF's support.
    #[test]
    fn empirical_cdf_sampling_is_deterministic_per_seed() {
        for case in 0..CASES {
            let mut params = case_rng(12, case);
            let seed = params.range(0u64..10_000);
            for cdf in [&WEB_SEARCH, &DATA_MINING] {
                let draw = |seed: u64| -> Vec<u64> {
                    let mut rng = SimRng::new(seed);
                    (0..32).map(|_| cdf.sample(&mut rng)).collect()
                };
                let a = draw(seed);
                assert_eq!(a, draw(seed), "{} seed={seed}", cdf.name);
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
            (&WEB_SEARCH, 0.05),
            // Data-mining is dominated by its extreme tail (top 2 % of flows
            // carry most bytes), so the sample mean has higher variance.
            (&DATA_MINING, 0.10),
        ] {
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

    #[test]
    fn empirical_mean_matches_hand_computation() {
        // Two-segment toy CDF: half the mass uniform on [0, 10], half on
        // [10, 30]; mean = 0.5*5 + 0.5*20 = 12.5.
        static TOY: EmpiricalCdf = EmpiricalCdf {
            name: "toy",
            points: &[(0, 0.0), (10, 0.5), (30, 1.0)],
        };
        TOY.validate();
        assert!((TOY.mean() - 12.5).abs() < 1e-9);
    }

    #[test]
    fn deadline_models() {
        assert_eq!(DeadlineModel::None.deadline_for(70_000), None);
        assert_eq!(
            DeadlineModel::Fixed(SimDuration::from_millis(20)).deadline_for(1),
            Some(SimDuration::from_millis(20))
        );
        // 70 KB at 1 Gbps is 560 µs ideal; slack 10 → 5.6 ms, above the floor.
        let slack = DeadlineModel::Slack {
            slack: 10.0,
            reference_gbps: 1.0,
            floor: SimDuration::from_millis(1),
        };
        let d = slack.deadline_for(70_000).unwrap();
        assert!((d.as_secs_f64() - 5.6e-3).abs() < 1e-5, "got {:?}", d);
        // Tiny flows hit the floor.
        assert_eq!(slack.deadline_for(10), Some(SimDuration::from_millis(1)));
    }

    /// Slack deadlines never fall below the floor and are monotone in
    /// size; `None` and `Fixed` ignore the size.
    #[test]
    fn slack_deadlines_are_monotone_and_floored() {
        for case in 0..CASES {
            let mut params = case_rng(6, case);
            let small = params.range(1_000u64..50_000);
            let extra = params.range(1u64..10_000_000);
            let slack = 0.1 + params.unit() * 49.9;
            let floor = SimDuration::from_millis(params.range(1u64..100));
            let model = DeadlineModel::Slack {
                slack,
                reference_gbps: 1.0,
                floor,
            };
            let d_small = model.deadline_for(small).unwrap();
            let d_large = model.deadline_for(small + extra).unwrap();
            assert!(d_small >= floor);
            assert!(d_large >= d_small);
            assert_eq!(DeadlineModel::None.deadline_for(small), None);
            let fixed = DeadlineModel::Fixed(floor);
            assert_eq!(fixed.deadline_for(small + extra), Some(floor));
        }
    }

    #[test]
    fn deadlines_are_assigned_to_short_flows_only() {
        let mut rng = SimRng::new(11);
        let cfg = PaperWorkloadConfig {
            deadlines: DeadlineModel::Fixed(SimDuration::from_millis(25)),
            ..PaperWorkloadConfig::default()
        };
        let w = paper_workload(&hosts(24), &cfg, &mut rng);
        for f in w.of_class(FlowClass::Short) {
            assert_eq!(f.deadline, Some(SimDuration::from_millis(25)));
        }
        for f in w.of_class(FlowClass::Long) {
            assert_eq!(f.deadline, None);
        }
    }

    #[test]
    fn flow_spec_new_is_deadline_free() {
        let f = FlowSpec::new(
            1,
            Addr(0),
            Addr(1),
            Some(100),
            SimTime::ZERO,
            FlowClass::Short,
        );
        assert_eq!(f.deadline, None);
        assert_eq!(f.size, Some(100));
    }

    #[test]
    fn incast_workload_shares_one_receiver_per_group() {
        let w = incast_workload(&hosts(18), 8, 32_000, SimTime::from_millis(5));
        assert_eq!(w.flows.len(), 16);
        let first_dst = w.flows[0].dst;
        assert!(w.flows[..8].iter().all(|f| f.dst == first_dst));
        assert!(w.flows[..8].iter().all(|f| f.src != f.dst));
        assert!(w.flows.iter().all(|f| f.start == SimTime::from_millis(5)));
    }

    /// `fan_in` senders per receiver, no self-flows and one shared
    /// destination per group, for any host count and fan-in.
    #[test]
    fn incast_workload_structure() {
        for case in 0..CASES {
            let mut params = case_rng(8, case);
            let n = params.range(6usize..120);
            let fan_in = params.range(2usize..16);
            if n <= fan_in {
                continue;
            }
            let w = incast_workload(&hosts(n), fan_in, 32_000, SimTime::from_millis(1));
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

    #[test]
    fn simultaneous_arrivals_start_at_the_base() {
        let mut rng = SimRng::new(4);
        let base = SimTime::from_millis(10);
        let s = ArrivalProcess::Simultaneous;
        assert_eq!(s.next(base, SimTime::from_millis(14), &mut rng), base);
    }
}
