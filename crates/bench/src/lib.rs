//! Shared plumbing for the benchmark harnesses: a tiny command-line parser,
//! parallel experiment sweeps, and table helpers used by every figure
//! regenerator.
//!
//! The binaries in `src/bin/` each regenerate one table or figure of the
//! paper (see DESIGN.md §6 and EXPERIMENTS.md for the mapping); the criterion
//! benches in `benches/` exercise the same code paths at reduced scale.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod harness;
pub mod suite;

use mmptcp::prelude::*;
use mmptcp::ExperimentResults;

/// Command-line options shared by every harness binary.
#[derive(Debug, Clone, PartialEq)]
pub struct HarnessOptions {
    /// Run at the paper's full 512-server scale instead of the default
    /// 64-host benchmark scale.
    pub full: bool,
    /// Short flows generated per short-flow host.
    pub flows_per_host: usize,
    /// Random seed.
    pub seed: u64,
    /// Print per-flow CSV output instead of only the summary tables.
    pub csv: bool,
    /// Number of worker threads for parameter sweeps.
    pub threads: usize,
    /// Which protocol to run (only used by harnesses that take one).
    pub protocol: Option<String>,
}

impl Default for HarnessOptions {
    fn default() -> Self {
        HarnessOptions {
            full: false,
            flows_per_host: 10,
            seed: 1,
            csv: false,
            threads: std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(4),
            protocol: None,
        }
    }
}

impl HarnessOptions {
    /// Parse options from `std::env::args`. Unknown arguments are ignored so
    /// harnesses can add their own.
    pub fn from_args() -> Self {
        Self::parse(std::env::args().skip(1))
    }

    /// Parse options from an iterator of argument strings.
    pub fn parse(args: impl IntoIterator<Item = String>) -> Self {
        let mut opts = HarnessOptions::default();
        let mut iter = args.into_iter().peekable();
        while let Some(arg) = iter.next() {
            match arg.as_str() {
                "--full" => opts.full = true,
                "--csv" => opts.csv = true,
                "--flows" => {
                    if let Some(v) = iter.next() {
                        opts.flows_per_host = v.parse().unwrap_or(opts.flows_per_host);
                    }
                }
                "--seed" => {
                    if let Some(v) = iter.next() {
                        opts.seed = v.parse().unwrap_or(opts.seed);
                    }
                }
                "--threads" => {
                    if let Some(v) = iter.next() {
                        opts.threads = v.parse().unwrap_or(opts.threads);
                    }
                }
                "--protocol" => {
                    opts.protocol = iter.next();
                }
                _ => {}
            }
        }
        opts
    }

    /// The Figure-1 experiment configuration for a protocol under these
    /// options.
    pub fn figure1_config(&self, protocol: Protocol) -> ExperimentConfig {
        ExperimentConfig::figure1(protocol, self.seed, self.full, self.flows_per_host)
    }
}

/// Run a set of labelled experiments, up to `threads` at a time, preserving
/// input order in the output. Thin wrapper over [`mmptcp::Driver`], kept so
/// the harness binaries share one entry point.
pub fn run_sweep(
    configs: Vec<(String, ExperimentConfig)>,
    threads: usize,
) -> Vec<(String, ExperimentResults)> {
    mmptcp::Driver::with_threads(threads).run_labelled(configs)
}

/// Build the standard comparison table row for one run.
pub fn summary_row(label: &str, r: &ExperimentResults) -> Vec<String> {
    let s = r.summary();
    vec![
        label.to_string(),
        s.short_flows.to_string(),
        metrics::f2(s.short_fct_mean_ms),
        metrics::f2(s.short_fct_std_ms),
        metrics::f2(s.short_fct_p99_ms),
        metrics::f2(s.short_fct_max_ms),
        s.short_flows_with_rto.to_string(),
        metrics::f2(s.long_goodput_gbps),
        metrics::pct(s.core_loss),
        metrics::pct(s.aggregation_loss),
        metrics::pct(s.overall_utilisation),
    ]
}

/// The headers matching [`summary_row`].
pub fn summary_headers() -> Vec<&'static str> {
    vec![
        "run",
        "short flows",
        "mean FCT (ms)",
        "std FCT (ms)",
        "p99 FCT (ms)",
        "max FCT (ms)",
        "flows w/ RTO",
        "long goodput (Gbps)",
        "core loss",
        "agg loss",
        "mean util",
    ]
}

/// Print the per-flow completion-time series (Figure 1(b)/(c) style) as CSV.
pub fn print_fct_series(label: &str, r: &ExperimentResults) {
    println!("# per-flow completion times: {label}");
    println!("flow_id,fct_ms");
    for (id, fct) in r.short_fct_series() {
        println!("{id},{fct:.3}");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_arguments() {
        let o = HarnessOptions::parse(
            [
                "--full",
                "--flows",
                "25",
                "--seed",
                "9",
                "--csv",
                "--protocol",
                "mptcp-4",
            ]
            .iter()
            .map(|s| s.to_string()),
        );
        assert!(o.full);
        assert!(o.csv);
        assert_eq!(o.flows_per_host, 25);
        assert_eq!(o.seed, 9);
        assert_eq!(o.protocol.as_deref(), Some("mptcp-4"));
    }

    #[test]
    fn unknown_arguments_are_ignored() {
        let o = HarnessOptions::parse(["--wat".to_string()]);
        assert_eq!(o, HarnessOptions::default());
    }

    #[test]
    fn summary_row_matches_headers() {
        assert_eq!(summary_headers().len(), 11);
    }

    #[test]
    fn sweep_runs_in_parallel_and_preserves_order() {
        use netsim::SimTime;
        let mk = |seed| ExperimentConfig {
            topology: TopologySpec::Parallel(ParallelPathConfig::default()),
            workload: WorkloadSpec::Custom(vec![FlowSpec {
                id: 0,
                src: Addr(0),
                dst: Addr(1),
                size: Some(20_000),
                start: SimTime::from_millis(1),
                class: FlowClass::Short,
                deadline: None,
            }]),
            protocol: Protocol::Tcp,
            seed,
            ..ExperimentConfig::default()
        };
        let results = run_sweep(
            vec![
                ("a".to_string(), mk(1)),
                ("b".to_string(), mk(2)),
                ("c".to_string(), mk(3)),
            ],
            2,
        );
        assert_eq!(results.len(), 3);
        assert_eq!(results[0].0, "a");
        assert_eq!(results[2].0, "c");
        assert!(results.iter().all(|(_, r)| r.all_short_completed));
    }
}
