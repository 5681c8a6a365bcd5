//! Result documents: what a pass writes, what `run` assembles, and what
//! `compare` reads back.

use crate::json::Json;
use crate::measure::{Outcome, Untraced};
use crate::spec::{spec, Better, Metric, RSS_SAME_INPUTS_BOUND, SETUP_FLOOR_S};
use crate::stats;
use crate::traced::Traced;
use crate::workloads::WorkloadId;
use std::fmt::Write;

/// Schema tag of the documents `run` writes.
pub const SCHEMA: &str = "mmptcp-benchmark-v1";

/// The samples behind each end-to-end metric, in `BENCHMARK.json`'s order.
/// Rates are per repetition, so their median pairs with `wall_s`'s.
pub fn end_to_end_samples(u: &Untraced) -> Vec<(&'static Metric, Vec<f64>)> {
    let per_wall = |amount: f64| u.wall_s.iter().map(|w| amount / w).collect::<Vec<f64>>();
    spec()
        .end_to_end
        .iter()
        .map(|m| {
            let samples = match m.name.as_str() {
                "wall_s" => u.wall_s.clone(),
                "flows_per_s" => per_wall(u.outcome.completed as f64),
                "sim_mb_per_s" => per_wall(u.outcome.bytes as f64 / 1e6),
                "setup_s" => u.setup_s.clone(),
                "peak_rss_mb" => vec![u.peak_rss_mb],
                other => panic!("BENCHMARK.json lists {other}, which nothing measures"),
            };
            (m, samples)
        })
        .collect()
}

fn outcome_members(id: WorkloadId, outcome: &Outcome) -> Vec<(&'static str, Json)> {
    vec![
        ("workload", Json::str(id.name())),
        ("sim_digest", Json::str(format!("{:#018x}", outcome.digest))),
        ("flows_attempted", Json::Num(outcome.attempted as f64)),
        ("flows_failed", Json::Num(outcome.failed() as f64)),
        ("correct", Json::Bool(outcome.failed() == 0)),
        (
            "violations",
            Json::Arr(outcome.violations.iter().map(Json::str).collect()),
        ),
    ]
}

/// The untraced pass of one workload as a document.
pub fn untraced_doc(id: WorkloadId, u: &Untraced) -> Json {
    let metrics = end_to_end_samples(u).into_iter().map(|(m, samples)| {
        let entry = Json::obj([
            ("unit", Json::str(&m.unit)),
            ("better", Json::str(m.better.label())),
            ("median", Json::Num(stats::median(&samples))),
            ("min", Json::Num(stats::min(&samples))),
            ("max", Json::Num(stats::max(&samples))),
            ("samples", Json::nums(&samples)),
        ]);
        (m.name.as_str(), entry)
    });
    let mut members = outcome_members(id, &u.outcome);
    members.push(("end_to_end", Json::obj(metrics)));
    Json::obj(members)
}

/// The traced pass of one workload as a document.
pub fn traced_doc(id: WorkloadId, t: &Traced) -> Json {
    let metrics = t.per_layer.iter().map(|&(name, unit, value)| {
        let entry = Json::obj([("unit", Json::str(unit)), ("value", Json::Num(value))]);
        (name, entry)
    });
    let spans = t.spans.iter().map(|s| {
        Json::obj([
            ("name", Json::str(s.name)),
            ("start_ns", Json::Num(s.start_ns as f64)),
            ("end_ns", Json::Num(s.end_ns as f64)),
            (
                "parent",
                s.parent.map_or(Json::Null, |p| Json::Num(p as f64)),
            ),
            ("run", Json::Num(s.run as f64)),
        ])
    });
    let mut members = outcome_members(id, &t.outcome);
    members.push(("per_layer", Json::obj(metrics)));
    members.push(("spans", Json::Arr(spans.collect())));
    Json::obj(members)
}

/// The line the driver reads: exactly `correct`, `attempted`, `failed` and
/// `metrics`, the latter `{name: {value, unit}}`.
pub fn contract_line(outcome: &Outcome, metrics: &[(&str, &str, f64)], reps: u64) -> String {
    let metrics = metrics.iter().map(|&(name, unit, value)| {
        let entry = Json::obj([("value", Json::Num(value)), ("unit", Json::str(unit))]);
        (name, entry)
    });
    Json::obj([
        ("correct", Json::Bool(outcome.failed() == 0)),
        ("attempted", Json::Num((outcome.attempted * reps) as f64)),
        ("failed", Json::Num((outcome.failed() * reps) as f64)),
        ("metrics", Json::obj(metrics)),
    ])
    .render()
}

/// One workload of a run document, as `compare` needs it.
struct Side<'a> {
    digest: &'a str,
    attempted: f64,
    failed: f64,
    end_to_end: &'a Json,
}

fn workloads_of(doc: &Json) -> Result<Vec<(&str, Side<'_>)>, String> {
    if doc.get("schema").and_then(Json::as_str) != Some(SCHEMA) {
        return Err(format!("not a {SCHEMA} document"));
    }
    doc.get("workloads")
        .ok_or("no workloads")?
        .elements()
        .iter()
        .map(|w| {
            let text = |k: &str| w.get(k).and_then(Json::as_str).ok_or(format!("no {k}"));
            let num = |k: &str| w.get(k).and_then(Json::as_f64).ok_or(format!("no {k}"));
            let side = Side {
                digest: text("sim_digest")?,
                attempted: num("flows_attempted")?,
                failed: num("flows_failed")?,
                end_to_end: w.get("end_to_end").ok_or("no end_to_end")?,
            };
            Ok((text("workload")?, side))
        })
        .collect()
}

fn samples_of(side: &Side<'_>, metric: &str) -> Result<Vec<f64>, String> {
    let samples: Vec<f64> = side
        .end_to_end
        .get(metric)
        .and_then(|m| m.get("samples"))
        .ok_or(format!("no samples for {metric}"))?
        .elements()
        .iter()
        .filter_map(Json::as_f64)
        .collect();
    if samples.is_empty() {
        return Err(format!("no samples for {metric}"));
    }
    Ok(samples)
}

/// How `b` stands against `a` on one metric.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Ok,
    Worse,
    Better,
    Unresolved,
}

impl Verdict {
    fn label(self) -> &'static str {
        match self {
            Verdict::Ok => "ok",
            Verdict::Worse => "worse",
            Verdict::Better => "better",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// The share of the baseline's median `ma` a metric may worsen by: its
/// bound, except that `setup_s` may always worsen by [`SETUP_FLOOR_S`] and
/// `peak_rss_mb` on the same inputs only by [`RSS_SAME_INPUTS_BOUND`].
pub fn allowance(metric: &Metric, ma: f64, same_inputs: bool) -> f64 {
    match metric.name.as_str() {
        "setup_s" if ma > 0.0 => metric.bound.max(SETUP_FLOOR_S / ma),
        "peak_rss_mb" if same_inputs => metric.bound.min(RSS_SAME_INPUTS_BOUND),
        _ => metric.bound,
    }
}

/// Judge candidate samples `b` against baseline samples `a`. A median moved
/// past the allowance is a verdict only if the repetitions' own spread stays
/// within it, or every candidate repetition reads better than every baseline
/// repetition; otherwise the pair is unresolved.
pub fn judge(metric: &Metric, a: &[f64], b: &[f64], same_inputs: bool) -> Verdict {
    let (ma, mb) = (stats::median(a), stats::median(b));
    let allowed = allowance(metric, ma, same_inputs);
    // Positive = candidate worse, as a share of the baseline's median.
    let worsening = match metric.better {
        Better::Lower => (mb - ma) / ma,
        Better::Higher => (ma - mb) / ma,
    };
    let all_better = match metric.better {
        Better::Lower => stats::max(b) < stats::min(a),
        Better::Higher => stats::min(b) > stats::max(a),
    };
    let noisy = stats::relative_spread(a).max(stats::relative_spread(b)) > allowed;
    if worsening > allowed {
        if noisy {
            Verdict::Unresolved
        } else {
            Verdict::Worse
        }
    } else if worsening < -allowed && (all_better || !noisy) {
        Verdict::Better
    } else if noisy && !all_better {
        Verdict::Unresolved
    } else {
        Verdict::Ok
    }
}

/// Compare run document `b` (candidate) against `a` (baseline). Returns the
/// table and whether the candidate passes: no metric worse, no workload with
/// a higher failed share.
pub fn compare(a: &Json, b: &Json) -> Result<(String, bool), String> {
    let quick = |d: &Json| d.get("quick").and_then(Json::as_bool).unwrap_or(false);
    if quick(a) != quick(b) {
        return Err("a quick run and a full run measure different workloads".into());
    }
    let (wa, wb) = (workloads_of(a)?, workloads_of(b)?);
    let mut out = String::new();
    let mut pass = true;
    writeln!(
        out,
        "{:<18}{:<14}{:>14}{:>14}{:>9}{:>7}  verdict",
        "workload", "metric", "a (base)", "b", "b/a", "bound"
    )
    .expect("write to String");
    for (name, sa) in &wa {
        let Some((_, sb)) = wb.iter().find(|(n, _)| n == name) else {
            return Err(format!(
                "workload {name} is missing from the second document"
            ));
        };
        let same_inputs = sa.digest == sb.digest;
        for metric in &spec().end_to_end {
            let (xa, xb) = (samples_of(sa, &metric.name)?, samples_of(sb, &metric.name)?);
            let verdict = judge(metric, &xa, &xb, same_inputs);
            pass &= verdict != Verdict::Worse;
            let (ma, mb) = (stats::median(&xa), stats::median(&xb));
            writeln!(
                out,
                "{name:<18}{:<14}{ma:>14.4}{mb:>14.4}{:>9.3}{:>6.0}%  {}",
                metric.name,
                mb / ma,
                allowance(metric, ma, same_inputs) * 100.0,
                verdict.label()
            )
            .expect("write to String");
        }
        let (fa, fb) = (sa.failed / sa.attempted, sb.failed / sb.attempted);
        pass &= fb <= fa;
        let digests = if same_inputs { "equal" } else { "different" };
        writeln!(
            out,
            "{name:<18}failed share {fa:.4} -> {fb:.4}; sim_digest {digests} ({} vs {})",
            sa.digest, sb.digest
        )
        .expect("write to String");
    }
    Ok((out, pass))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn metric(name: &str, better: Better) -> Metric {
        Metric {
            name: name.into(),
            unit: "s".into(),
            better,
            bound: 0.1,
        }
    }

    fn untraced(walls: &[f64]) -> Untraced {
        Untraced {
            wall_s: walls.to_vec(),
            setup_s: vec![0.010, 0.011, 0.012],
            outcome: Outcome {
                digest: 0xfeed,
                attempted: 100,
                completed: 100,
                bytes: 5_000_000,
                violations: vec![],
            },
            peak_rss_mb: 64.0,
        }
    }

    fn run_doc(walls: &[f64], quick: bool) -> Json {
        let w = untraced_doc(WorkloadId::Fig1Mmptcp, &untraced(walls));
        Json::obj([
            ("schema", Json::str(SCHEMA)),
            ("quick", Json::Bool(quick)),
            ("workloads", Json::Arr(vec![w])),
        ])
    }

    #[test]
    fn documents_round_trip_through_the_reader() {
        let doc = run_doc(&[2.0, 2.1, 1.9], false);
        let back = Json::parse(&doc.render()).unwrap();
        assert_eq!(back, doc);
        let workloads = workloads_of(&back).unwrap();
        let (name, side) = &workloads[0];
        assert_eq!(*name, "fig1_mmptcp");
        assert_eq!(side.digest, "0x000000000000feed");
        assert_eq!(samples_of(side, "wall_s").unwrap(), vec![2.0, 2.1, 1.9]);
        assert_eq!(samples_of(side, "flows_per_s").unwrap()[0], 50.0);
        assert_eq!(samples_of(side, "sim_mb_per_s").unwrap()[0], 2.5);
        assert_eq!(samples_of(side, "peak_rss_mb").unwrap(), vec![64.0]);
    }

    #[test]
    fn contract_line_has_exactly_the_four_keys() {
        let line = contract_line(&untraced(&[2.0]).outcome, &[("wall_s", "s", 2.0)], 3);
        let doc = Json::parse(&line).unwrap();
        let keys: Vec<&str> = doc.members().iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        assert_eq!(doc.get("attempted").and_then(Json::as_f64), Some(300.0));
        let wall = doc.get("metrics").and_then(|m| m.get("wall_s")).unwrap();
        assert_eq!(wall.get("value").and_then(Json::as_f64), Some(2.0));
        assert_eq!(wall.get("unit").and_then(Json::as_str), Some("s"));
    }

    #[test]
    fn verdicts_follow_bound_and_spread() {
        let (wall, rate) = (
            &metric("wall_s", Better::Lower),
            &metric("flows_per_s", Better::Higher),
        );
        let base = [1.00, 1.01, 0.99, 1.00, 1.02];
        let scale = |k: f64| base.map(|x| x * k);
        assert_eq!(judge(wall, &base, &scale(1.0), true), Verdict::Ok);
        assert_eq!(
            judge(wall, &base, &scale(1.0 + wall.bound / 2.0), true),
            Verdict::Ok
        );
        assert_eq!(judge(wall, &base, &scale(1.5), true), Verdict::Worse);
        assert_eq!(judge(wall, &base, &scale(0.5), true), Verdict::Better);
        assert_eq!(judge(rate, &base, &scale(0.5), true), Verdict::Worse);
        assert_eq!(judge(rate, &base, &scale(1.5), true), Verdict::Better);
        // Repetitions spread wider than the bound: a moved median proves
        // nothing, unless every repetition of b beats every one of a.
        let noisy = [1.0, 1.6, 0.7, 1.3, 1.0];
        assert_eq!(
            judge(wall, &noisy, &noisy.map(|x| x * 1.4), true),
            Verdict::Unresolved
        );
        assert_eq!(judge(wall, &noisy, &noisy, true), Verdict::Unresolved);
        assert_eq!(
            judge(wall, &noisy, &noisy.map(|x| x * 0.3), true),
            Verdict::Better
        );
    }

    #[test]
    fn setup_may_worsen_by_a_millisecond_whatever_its_bound() {
        let setup = &metric("setup_s", Better::Lower);
        let tiny = [0.0003, 0.0003, 0.0003];
        assert_eq!(
            judge(setup, &tiny, &tiny.map(|x| x * 3.0), true),
            Verdict::Ok
        );
        assert_eq!(
            judge(setup, &tiny, &tiny.map(|x| x * 6.0), true),
            Verdict::Worse
        );
        let large = [0.5, 0.5, 0.5];
        assert_eq!(
            judge(setup, &large, &large.map(|x| x * 1.2), true),
            Verdict::Worse
        );
        // The floor is set-up's alone.
        let wall = &metric("wall_s", Better::Lower);
        assert_eq!(
            judge(wall, &tiny, &tiny.map(|x| x * 3.0), true),
            Verdict::Worse
        );
    }

    #[test]
    fn memory_is_held_tighter_on_the_same_inputs() {
        let rss = &Metric {
            bound: 0.25,
            ..metric("peak_rss_mb", Better::Lower)
        };
        let (base, grown) = ([100.0], [110.0]);
        assert_eq!(judge(rss, &base, &grown, true), Verdict::Worse);
        assert_eq!(judge(rss, &base, &grown, false), Verdict::Ok);
        assert_eq!(judge(rss, &base, &[103.0], true), Verdict::Ok);
    }

    #[test]
    fn compare_flags_regressions_and_refuses_quick_against_full() {
        let (a, slow) = (
            run_doc(&[2.0, 2.0, 2.0], false),
            run_doc(&[3.0, 3.0, 3.0], false),
        );
        let (table, pass) = compare(&a, &a).unwrap();
        assert!(pass, "{table}");
        assert!(table.contains("sim_digest equal"));
        assert!(!table.contains("worse"));
        let (table, pass) = compare(&a, &slow).unwrap();
        assert!(!pass);
        assert!(table.contains("worse"), "{table}");
        assert!(compare(&a, &run_doc(&[2.0], true)).is_err());
        assert!(compare(&a, &Json::obj([("schema", Json::str("other"))])).is_err());
    }
}
