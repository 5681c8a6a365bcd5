//! The parallel experiment driver: fan a grid of [`ExperimentConfig`]s
//! across worker threads and merge the results deterministically.
//!
//! Every figure in the paper is an aggregate over many runs — seeds ×
//! offered loads × protocols — and each run is an independent, seeded,
//! single-threaded simulation. That makes the sweep embarrassingly parallel:
//! the [`Driver`] hands each worker thread its own isolated [`netsim::Simulator`]
//! (created inside [`crate::run`]), workers pull configurations from a shared
//! index counter, and results are written back into the slot matching the
//! configuration's position, so the output order is exactly the input order
//! no matter how the OS schedules the threads.
//!
//! The work-pulling executor is implemented on `std::thread::scope` rather
//! than rayon because the build environment is offline; the API mirrors a
//! rayon `par_iter().map().collect()` so swapping the substrate later is
//! mechanical.

use crate::config::ExperimentConfig;
use crate::results::ExperimentResults;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// Runs batches of experiments in parallel, preserving configuration order.
#[derive(Debug, Clone)]
pub struct Driver {
    threads: usize,
}

impl Default for Driver {
    fn default() -> Self {
        Driver::new()
    }
}

impl Driver {
    /// A driver using every available core.
    pub fn new() -> Self {
        Driver {
            threads: std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(4),
        }
    }

    /// A driver pinned to `threads` workers (minimum 1).
    pub fn with_threads(threads: usize) -> Self {
        Driver {
            threads: threads.max(1),
        }
    }

    /// Run every configuration and return the results in input order.
    pub fn run(&self, configs: Vec<ExperimentConfig>) -> Vec<ExperimentResults> {
        let n = configs.len();
        if n == 0 {
            return Vec::new();
        }
        let workers = self.threads.min(n);
        if workers == 1 {
            return configs.into_iter().map(crate::run).collect();
        }

        let next = AtomicUsize::new(0);
        let slots: Vec<Mutex<Option<ExperimentResults>>> =
            (0..n).map(|_| Mutex::new(None)).collect();
        std::thread::scope(|scope| {
            for _ in 0..workers {
                scope.spawn(|| loop {
                    let idx = next.fetch_add(1, Ordering::Relaxed);
                    if idx >= n {
                        break;
                    }
                    // Each run builds its own Simulator; nothing is shared
                    // between workers except the index counter and the
                    // result slots.
                    let result = crate::run(configs[idx].clone());
                    *slots[idx].lock().expect("result slot poisoned") = Some(result);
                });
            }
        });

        slots
            .into_iter()
            .map(|slot| {
                slot.into_inner()
                    .expect("result slot poisoned")
                    .expect("worker skipped a configuration")
            })
            .collect()
    }

    /// Run every labelled configuration, preserving labels and order.
    pub fn run_labelled(
        &self,
        configs: Vec<(String, ExperimentConfig)>,
    ) -> Vec<(String, ExperimentResults)> {
        let (labels, configs): (Vec<_>, Vec<_>) = configs.into_iter().unzip();
        let results = self.run(configs);
        labels.into_iter().zip(results).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{Protocol, TopologySpec, WorkloadSpec};
    use netsim::{Addr, SimTime};
    use topology::ParallelPathConfig;
    use workload::{FlowClass, FlowSpec};

    fn tiny(seed: u64) -> ExperimentConfig {
        ExperimentConfig {
            topology: TopologySpec::Parallel(ParallelPathConfig::default()),
            workload: WorkloadSpec::Custom(vec![FlowSpec {
                id: 0,
                src: Addr(0),
                dst: Addr(1),
                size: Some(30_000),
                start: SimTime::from_millis(1),
                class: FlowClass::Short,
                deadline: None,
            }]),
            protocol: Protocol::Tcp,
            seed,
            ..ExperimentConfig::default()
        }
    }

    #[test]
    fn results_come_back_in_config_order() {
        let configs: Vec<ExperimentConfig> = (1..=8).map(tiny).collect();
        let results = Driver::with_threads(4).run(configs);
        assert_eq!(results.len(), 8);
        for (i, r) in results.iter().enumerate() {
            assert_eq!(r.seed, (i + 1) as u64);
            assert!(r.all_short_completed);
        }
    }

    #[test]
    fn parallel_matches_serial_exactly() {
        let configs: Vec<ExperimentConfig> = (1..=6).map(tiny).collect();
        let serial = Driver::with_threads(1).run(configs.clone());
        let parallel = Driver::with_threads(4).run(configs);
        for (a, b) in serial.iter().zip(&parallel) {
            assert_eq!(a.short_fcts_ms(), b.short_fcts_ms());
            assert_eq!(a.counters, b.counters);
            assert_eq!(a.loss, b.loss);
        }
    }
}
