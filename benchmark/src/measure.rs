//! The untraced pass: run a workload through the user path, time it, and
//! check what came out.

use crate::stats;
use crate::workloads::{self, WorkloadId, SWEEP_THREADS};
use mmptcp::{Driver, ExperimentConfig, ExperimentResults, Fidelity};
use netsim::{FlowId, SimDuration};
use std::time::Instant;

/// A workload's labelled configurations.
pub type Configs = Vec<(String, ExperimentConfig)>;

/// One execution of a workload through the user path.
pub struct Execution {
    /// Host seconds from the configurations to the rendered report.
    pub wall_s: f64,
    /// Per-configuration results, in configuration order.
    pub results: Vec<(String, ExperimentResults)>,
    /// The canonical `ScenarioReport` JSON.
    pub report: String,
}

impl Execution {
    /// What this execution produced.
    pub fn outcome(&self) -> Outcome {
        Outcome::of(&self.results, &self.report)
    }
}

/// Run `configs` the way a user would: the parallel driver (which runs a lone
/// configuration inline, as `mmptcp::run`), then the canonical report.
pub fn execute(id: WorkloadId, configs: Configs, threads: usize) -> Execution {
    let start = Instant::now();
    let results = Driver::with_threads(threads).run_labelled(configs);
    let report = mmptcp::scenario::report(id.name(), Fidelity::Full, &results).to_json();
    Execution {
        wall_s: start.elapsed().as_secs_f64(),
        results,
        report,
    }
}

/// What one execution produced, reduced to what the benchmark checks and
/// reports.
#[derive(Debug, Clone, PartialEq)]
pub struct Outcome {
    /// FNV-1a over the canonical report, every run's `SimCounters` and its
    /// elapsed simulated time: equal digests mean equal simulated behaviour.
    pub digest: u64,
    /// Bounded flows offered.
    pub attempted: u64,
    /// Bounded flows that completed.
    pub completed: u64,
    /// Application bytes delivered (fluid-delivered bytes included).
    pub bytes: u64,
    /// Broken invariants other than incomplete flows; empty on a correct run.
    pub violations: Vec<String>,
}

impl Outcome {
    /// Reduce an execution's results.
    pub fn of(results: &[(String, ExperimentResults)], report: &str) -> Outcome {
        let mut digest = Fnv1a::new();
        digest.write(report.as_bytes());
        let (mut attempted, mut completed, mut bytes) = (0u64, 0u64, 0u64);
        let mut violations = Vec::new();
        for (label, r) in results {
            let c = r.counters;
            for n in [
                c.events_processed,
                c.delivered_to_hosts,
                c.forwarded,
                c.dropped,
                c.unsendable,
                r.elapsed.as_nanos(),
            ] {
                digest.write(&n.to_le_bytes());
            }
            let (mut offered, mut done) = (0u64, 0u64);
            for spec in &r.flows {
                let record = r.metrics.record(FlowId(spec.id));
                bytes += record.map_or(0, |rec| rec.bytes);
                if spec.size.is_some() {
                    offered += 1;
                    done += u64::from(record.is_some_and(|rec| rec.completed.is_some()));
                }
            }
            attempted += offered;
            completed += done;
            if let Err(e) = r.check_conservation() {
                violations.push(e);
            }
            if done != offered {
                eprintln!(
                    "'{label}': {} of {offered} bounded flows incomplete at the cap",
                    offered - done
                );
            }
        }
        Outcome {
            digest: digest.finish(),
            attempted,
            completed,
            bytes,
            violations,
        }
    }

    /// Flows to count as failed: the incomplete ones, or every flow of an
    /// execution that broke an invariant.
    pub fn failed(&self) -> u64 {
        if self.violations.is_empty() {
            self.attempted - self.completed
        } else {
            self.attempted
        }
    }
}

/// 64-bit FNV-1a.
struct Fnv1a(u64);

impl Fnv1a {
    fn new() -> Self {
        Fnv1a(0xcbf2_9ce4_8422_2325)
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

/// The same configurations with no simulated time to run: what every run
/// pays before its first event (topology build, agent install, report) and
/// after its last (teardown).
fn idle(configs: &Configs) -> Configs {
    configs
        .iter()
        .map(|(label, c)| {
            let mut c = c.clone();
            c.max_sim_time = SimDuration::ZERO;
            (label.clone(), c)
        })
        .collect()
}

/// Samples of the untraced pass.
pub struct Untraced {
    /// `wall_s` of each measured repetition.
    pub wall_s: Vec<f64>,
    /// Wall of each set-up repetition.
    pub setup_s: Vec<f64>,
    /// The outcome every repetition agreed on.
    pub outcome: Outcome,
    /// Peak resident set of this process, which ran only this workload, after
    /// the set-up samples and one repetition.
    pub peak_rss_mb: f64,
}

/// Set-up is sampled until this many host seconds of samples exist…
const SETUP_SAMPLE_SECONDS: f64 = 1.0;
/// …but at least and at most this many times. A set-up of a fraction of a
/// millisecond needs many samples before its median holds still.
const SETUP_SAMPLES_MIN: usize = 3;
const SETUP_SAMPLES_MAX: usize = 1000;
/// Fewest measured repetitions of a full pass, however long one takes.
const REPETITIONS_MIN: usize = 3;

/// Measure a workload for about `seconds` host seconds: set-up first (which
/// also faults the process's memory in, so it is the warm-up), then whole
/// repetitions until the next would not fit, at least three. `quick` measures
/// exactly one.
pub fn untraced(id: WorkloadId, seed: u64, quick: bool, seconds: f64) -> Untraced {
    let configs = workloads::configs(id, seed, quick);

    let idle_configs = idle(&configs);
    let mut setup_s = Vec::new();
    while setup_s.len() < SETUP_SAMPLES_MIN
        || (setup_s.len() < SETUP_SAMPLES_MAX && setup_s.iter().sum::<f64>() < SETUP_SAMPLE_SECONDS)
    {
        let configs = idle_configs.clone();
        let start = Instant::now();
        drop(execute(id, configs, SWEEP_THREADS));
        setup_s.push(start.elapsed().as_secs_f64());
        if quick {
            break;
        }
    }

    let started = Instant::now();
    let mut wall_s: Vec<f64> = Vec::new();
    let mut outcome: Option<Outcome> = None;
    let mut first_peak_mb = 0.0;
    loop {
        let run = execute(id, configs.clone(), SWEEP_THREADS);
        wall_s.push(run.wall_s);
        let mut this = run.outcome();
        drop(run);
        match &mut outcome {
            None => {
                // Read after the first repetition: the peak then is what one
                // execution needs, whatever number of repetitions follows.
                first_peak_mb = peak_rss_mb();
                outcome = Some(this);
            }
            Some(first) if first.digest != this.digest => {
                first.violations.push(format!(
                    "repetition {} digest {:#018x} differs from the first, {:#018x}",
                    wall_s.len(),
                    this.digest,
                    first.digest
                ));
                first.violations.append(&mut this.violations);
            }
            Some(_) => {}
        }
        let fits = started.elapsed().as_secs_f64() + stats::median(&wall_s) <= seconds;
        if quick || (wall_s.len() >= REPETITIONS_MIN && !fits) {
            break;
        }
    }

    Untraced {
        wall_s,
        setup_s,
        outcome: outcome.expect("at least one repetition ran"),
        peak_rss_mb: first_peak_mb,
    }
}

/// `VmHWM` of this process in megabytes (0 where `/proc` has no such line).
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fnv1a_matches_the_reference_vectors() {
        let hash = |s: &str| {
            let mut h = Fnv1a::new();
            h.write(s.as_bytes());
            h.finish()
        };
        assert_eq!(hash(""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(hash("a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(hash("foobar"), 0x8594_4171_f739_67e8);
    }

    #[test]
    fn digest_is_stable_under_rerun_and_moves_with_the_seed() {
        let run = |seed| {
            let configs = workloads::configs(WorkloadId::Fig1Mmptcp, seed, true);
            execute(WorkloadId::Fig1Mmptcp, configs, 1).outcome()
        };
        let (a, b, c) = (run(1), run(1), run(2));
        assert_eq!(a, b);
        assert_ne!(a.digest, c.digest);
        assert!(a.violations.is_empty(), "{:?}", a.violations);
        assert_eq!(a.attempted, a.completed);
        assert_eq!(a.failed(), 0);
    }

    #[test]
    fn peak_rss_reads_as_a_positive_number() {
        assert!(peak_rss_mb() > 0.0);
    }
}
