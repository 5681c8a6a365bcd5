//! The benchmark's definition, read from `BENCHMARK.json` at the repository
//! root (compiled in, so the program and the driver cannot disagree): the
//! workloads, the length of a pass, and every metric's name, unit, direction
//! and (end to end) regression bound.

use crate::json::Json;
use std::sync::OnceLock;

/// Which way a metric improves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn label(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// A metric's identity.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: String,
    pub unit: String,
    pub better: Better,
    /// Share of the baseline's median by which the metric may worsen before
    /// `compare` calls it worse. Per-layer metrics have none (0).
    pub bound: f64,
}

/// `setup_s` is a fraction of a millisecond on the workloads with few flows;
/// a relative bound alone would gate on timer noise there. `compare` lets it
/// worsen by its bound or by this many seconds, whichever is more.
pub const SETUP_FLOOR_S: f64 = 0.001;

/// `peak_rss_mb` moves by up to 13 % from seed to seed (which the bound in
/// `BENCHMARK.json` must cover) but repeats within 2 % on one seed. When two
/// documents ran the same inputs (equal `sim_digest`), `compare` holds it to
/// this share instead.
pub const RSS_SAME_INPUTS_BOUND: f64 = 0.05;

/// Everything `BENCHMARK.json` states.
#[derive(Debug)]
pub struct Spec {
    /// Seconds one pass measures (`run_seconds`).
    pub run_seconds: f64,
    /// Workload names, in reporting order.
    pub workloads: Vec<String>,
    /// What a user of the simulator sees, per workload. All host time.
    pub end_to_end: Vec<Metric>,
    /// Layer = module: spans and counts of the traced pass, the layer
    /// kernels, and the attribution derived from both.
    pub per_layer: Vec<Metric>,
}

fn metrics_of(doc: &Json, key: &str) -> Result<Vec<Metric>, String> {
    doc.get(key)
        .ok_or(format!("no {key}"))?
        .elements()
        .iter()
        .map(|m| {
            let text = |k: &str| {
                m.get(k)
                    .and_then(Json::as_str)
                    .ok_or(format!("{key}: a metric has no {k}"))
            };
            let better = match text("better")? {
                "lower" => Better::Lower,
                "higher" => Better::Higher,
                other => return Err(format!("{key}: better is '{other}'")),
            };
            Ok(Metric {
                name: text("name")?.to_string(),
                unit: text("unit")?.to_string(),
                better,
                bound: m.get("bound").and_then(Json::as_f64).unwrap_or(0.0),
            })
        })
        .collect()
}

impl Spec {
    fn parse(text: &str) -> Result<Spec, String> {
        let doc = Json::parse(text)?;
        let workloads = doc
            .get("workloads")
            .ok_or("no workloads")?
            .elements()
            .iter()
            .map(|w| {
                w.get("name")
                    .and_then(Json::as_str)
                    .map(str::to_string)
                    .ok_or("a workload has no name".to_string())
            })
            .collect::<Result<_, _>>()?;
        Ok(Spec {
            run_seconds: doc
                .get("run_seconds")
                .and_then(Json::as_f64)
                .ok_or("no run_seconds")?,
            workloads,
            end_to_end: metrics_of(&doc, "end_to_end")?,
            per_layer: metrics_of(&doc, "per_layer")?,
        })
    }
}

/// The definition this program was built with.
pub fn spec() -> &'static Spec {
    static SPEC: OnceLock<Spec> = OnceLock::new();
    SPEC.get_or_init(|| {
        Spec::parse(include_str!("../../BENCHMARK.json"))
            .unwrap_or_else(|e| panic!("BENCHMARK.json: {e}"))
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads::WorkloadId;
    use std::collections::HashSet;

    fn well_formed(name: &str) -> bool {
        !name.is_empty()
            && name.len() <= 64
            && name.starts_with(|c: char| c.is_ascii_alphanumeric())
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    }

    /// The limits the benchmark driver refuses a `BENCHMARK.json` over.
    #[test]
    fn the_definition_is_within_the_drivers_limits() {
        let spec = spec();
        let metrics = || spec.end_to_end.iter().chain(&spec.per_layer);
        let names: Vec<&str> = metrics()
            .map(|m| m.name.as_str())
            .chain(spec.workloads.iter().map(String::as_str))
            .collect();
        for name in &names {
            assert!(well_formed(name), "{name}");
        }
        let unique: HashSet<&str> = names.iter().copied().collect();
        assert_eq!(unique.len(), names.len(), "a name is used twice");
        for m in metrics() {
            assert!(
                !m.unit.is_empty()
                    && m.unit.len() <= 16
                    && m.unit
                        .chars()
                        .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)),
                "unit of {}",
                m.name
            );
        }
        assert!(spec
            .end_to_end
            .iter()
            .all(|m| m.bound > 0.0 && m.bound <= 0.25));
        assert!((1.0..=60.0).contains(&spec.run_seconds) && spec.run_seconds.fract() == 0.0);
        // Set-up time is the noisiest metric and gets the widest bound.
        let setup = spec.end_to_end.iter().find(|m| m.name == "setup_s");
        let widest = spec.end_to_end.iter().map(|m| m.bound).fold(0.0, f64::max);
        assert!(
            setup.is_some_and(|m| m.unit == "s" && m.better == Better::Lower && m.bound == widest)
        );
    }

    #[test]
    fn every_listed_workload_is_implemented_and_no_other() {
        let ours: Vec<&str> = WorkloadId::ALL.iter().map(|w| w.name()).collect();
        assert_eq!(spec().workloads, ours);
    }
}
