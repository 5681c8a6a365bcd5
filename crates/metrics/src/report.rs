//! Canonical scenario metrics documents.
//!
//! Every registry scenario emits one [`ScenarioReport`]: the per-run
//! headline numbers (FCT percentiles by flow class, long-flow goodput,
//! per-tier drops and ECN marks) rendered as a *canonical* JSON string —
//! fixed key order, two-space indentation, floats rounded to four decimals
//! before formatting so last-ulp libm differences between platforms can
//! never produce spurious diffs. The golden cells document
//! `tests/golden/cells.json` is compared byte-for-byte against this
//! rendering; [`diff`] produces the line-level drift report CI uploads as an
//! artifact.
//!
//! The local `serde` crate is a no-op shim (offline build), so the writer is
//! hand-rolled: a tiny escaping/formatting layer instead of a serializer.
//! [`ScenarioReport::from_json`] is its inverse — the one reader of these
//! documents (figure rendering, claim checks), strict enough that
//! `from_json(text).to_json() == text` holds for exactly the canonical
//! renderings.

use crate::stats::Summary;

/// Decimal places kept for every floating-point value in a report.
const FLOAT_DECIMALS: i32 = 4;

/// Round-then-format a float for canonical JSON output. Rust's shortest
/// round-trip `Display` is deterministic; rounding first collapses sub-1e-4
/// noise so cross-platform libm (ln in the Poisson sampler, etc.) cannot
/// flip a digit. Non-finite values render as `null`.
fn json_f64(x: f64) -> String {
    if !x.is_finite() {
        return "null".to_string();
    }
    let scale = 10f64.powi(FLOAT_DECIMALS);
    let rounded = (x * scale).round() / scale;
    // Avoid "-0".
    let rounded = if rounded == 0.0 { 0.0 } else { rounded };
    format!("{rounded}")
}

/// Escape a string for JSON.
pub fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// Invert [`json_escape`].
fn json_unescape(s: &str) -> Result<String, String> {
    let mut out = String::with_capacity(s.len());
    let mut chars = s.chars();
    while let Some(c) = chars.next() {
        if c != '\\' {
            out.push(c);
            continue;
        }
        match chars.next() {
            Some('"') => out.push('"'),
            Some('\\') => out.push('\\'),
            Some('n') => out.push('\n'),
            Some('r') => out.push('\r'),
            Some('t') => out.push('\t'),
            Some('u') => {
                let hex: String = chars.by_ref().take(4).collect();
                let c = u32::from_str_radix(&hex, 16).ok().and_then(char::from_u32);
                out.push(c.ok_or_else(|| format!("bad escape \\u{hex}"))?);
            }
            other => return Err(format!("bad escape {other:?}")),
        }
    }
    Ok(out)
}

/// Line cursor over a canonical document (one key or bracket per line).
struct Reader<'a> {
    lines: std::iter::Peekable<std::iter::Enumerate<std::str::Lines<'a>>>,
}

impl<'a> Reader<'a> {
    /// The next line without indentation and trailing comma, or `""` at the
    /// end of the document.
    fn peek(&mut self) -> &'a str {
        let line = self.lines.peek().map_or("", |&(_, l)| l.trim_start());
        line.strip_suffix(',').unwrap_or(line)
    }

    /// Consume the next line: its 1-based number and what [`Self::peek`] saw.
    fn take(&mut self) -> (usize, &'a str) {
        let found = self.peek();
        (self.lines.next().map_or(0, |(i, _)| i + 1), found)
    }

    /// Consume one line, which must be `token` (a bracket or an opening key).
    fn expect(&mut self, token: &str) -> Result<(), String> {
        let (at, found) = self.take();
        if found == token {
            Ok(())
        } else {
            Err(format!("line {at}: expected `{token}`, found `{found}`"))
        }
    }

    /// Consume `"key": <value>` and parse the value.
    fn field<T: std::str::FromStr>(&mut self, key: &str) -> Result<T, String> {
        let (at, found) = self.take();
        found
            .strip_prefix(&format!("\"{key}\": "))
            .and_then(|v| v.parse().ok())
            .ok_or_else(|| format!("line {at}: expected a `{key}` value, found `{found}`"))
    }

    /// A float field; `null` (the rendering of non-finite values) reads as NaN.
    fn float(&mut self, key: &str) -> Result<f64, String> {
        if self.peek() == format!("\"{key}\": null") {
            self.take();
            return Ok(f64::NAN);
        }
        self.field(key)
    }

    /// A string field.
    fn string(&mut self, key: &str) -> Result<String, String> {
        let quoted: String = self.field(key)?;
        let inner = quoted.strip_prefix('"').and_then(|q| q.strip_suffix('"'));
        json_unescape(inner.ok_or_else(|| format!("`{key}` is not a string: {quoted}"))?)
    }
}

/// FCT summary (milliseconds) of one flow class within one run.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct FctDoc {
    /// Number of completed flows in the class.
    pub count: usize,
    /// Mean completion time.
    pub mean_ms: f64,
    /// Median (p50).
    pub p50_ms: f64,
    /// 95th percentile.
    pub p95_ms: f64,
    /// 99th percentile.
    pub p99_ms: f64,
    /// Maximum.
    pub max_ms: f64,
}

impl FctDoc {
    /// Build from a [`Summary`] over completion times in milliseconds.
    pub fn from_summary(s: &Summary) -> Self {
        FctDoc {
            count: s.count,
            mean_ms: s.mean,
            p50_ms: s.median,
            p95_ms: s.p95,
            p99_ms: s.p99,
            max_ms: s.max,
        }
    }

    fn read_json(r: &mut Reader<'_>, key: &str) -> Result<Self, String> {
        r.expect(&format!("\"{key}\": {{"))?;
        let doc = FctDoc {
            count: r.field("count")?,
            mean_ms: r.float("mean_ms")?,
            p50_ms: r.float("p50_ms")?,
            p95_ms: r.float("p95_ms")?,
            p99_ms: r.float("p99_ms")?,
            max_ms: r.float("max_ms")?,
        };
        r.expect("}")?;
        Ok(doc)
    }

    fn write_json(&self, out: &mut String, indent: &str) {
        out.push_str(&format!(
            "{{\n{indent}  \"count\": {},\n{indent}  \"mean_ms\": {},\n{indent}  \"p50_ms\": {},\n{indent}  \"p95_ms\": {},\n{indent}  \"p99_ms\": {},\n{indent}  \"max_ms\": {}\n{indent}}}",
            self.count,
            json_f64(self.mean_ms),
            json_f64(self.p50_ms),
            json_f64(self.p95_ms),
            json_f64(self.p99_ms),
            json_f64(self.max_ms),
        ));
    }
}

/// Per-fabric-tier packet counters (drops or ECN marks).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TierCounts {
    /// Edge (ToR) switch queues.
    pub edge: u64,
    /// Aggregation switch queues.
    pub aggregation: u64,
    /// Core switch queues.
    pub core: u64,
    /// Host NIC queues.
    pub host: u64,
}

impl TierCounts {
    /// Sum over every tier.
    pub fn total(&self) -> u64 {
        self.edge + self.aggregation + self.core + self.host
    }

    fn read_json(r: &mut Reader<'_>, key: &str) -> Result<Self, String> {
        r.expect(&format!("\"{key}\": {{"))?;
        let counts = TierCounts {
            edge: r.field("edge")?,
            aggregation: r.field("aggregation")?,
            core: r.field("core")?,
            host: r.field("host")?,
        };
        let total: u64 = r.field("total")?;
        if total != counts.total() {
            return Err(format!("`{key}` total {total} is not the sum of its tiers"));
        }
        r.expect("}")?;
        Ok(counts)
    }

    fn write_json(&self, out: &mut String, indent: &str) {
        out.push_str(&format!(
            "{{\n{indent}  \"edge\": {},\n{indent}  \"aggregation\": {},\n{indent}  \"core\": {},\n{indent}  \"host\": {},\n{indent}  \"total\": {}\n{indent}}}",
            self.edge,
            self.aggregation,
            self.core,
            self.host,
            self.total(),
        ));
    }
}

/// The canonical metrics of one experiment run within a scenario.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct RunReport {
    /// Run label (stable across regenerations; part of the golden contract).
    pub label: String,
    /// Short-flow completion-time summary.
    pub short_fct: FctDoc,
    /// Completion-time summary of the *mice* among the short flows (at most
    /// 100 KB). With empirical flow-size workloads the overall short-flow
    /// percentiles are dominated by multi-megabyte transfers; the mice
    /// summary is the tail the short-flow transports (RepFlow, packet
    /// scatter) actually compete on.
    pub mice_fct: FctDoc,
    /// Whether every bounded short flow finished before the time cap.
    pub all_short_completed: bool,
    /// Number of short flows that saw at least one RTO.
    pub short_flows_with_rto: usize,
    /// Total retransmission timeouts over all flows.
    pub rtos: u64,
    /// Aggregate long-flow goodput in Gbps.
    pub long_goodput_gbps: f64,
    /// Packet drops by fabric tier.
    pub drops: TierCounts,
    /// ECN marks by fabric tier.
    pub ecn_marks: TierCounts,
    /// Flows that executed an MMPTCP phase switch.
    pub phase_switches: usize,
    /// Bytes sent beyond the flows' sizes (replica copies plus
    /// retransmissions, as reported by replication-based transports).
    pub redundant_bytes: u64,
    /// Mean utilisation of aggregation↔core links.
    pub core_utilisation: f64,
}

impl RunReport {
    fn read_json(r: &mut Reader<'_>) -> Result<Self, String> {
        r.expect("{")?;
        let run = RunReport {
            label: r.string("label")?,
            short_fct: FctDoc::read_json(r, "short_fct")?,
            mice_fct: FctDoc::read_json(r, "mice_fct")?,
            all_short_completed: r.field("all_short_completed")?,
            short_flows_with_rto: r.field("short_flows_with_rto")?,
            rtos: r.field("rtos")?,
            long_goodput_gbps: r.float("long_goodput_gbps")?,
            drops: TierCounts::read_json(r, "drops")?,
            ecn_marks: TierCounts::read_json(r, "ecn_marks")?,
            phase_switches: r.field("phase_switches")?,
            redundant_bytes: r.field("redundant_bytes")?,
            core_utilisation: r.float("core_utilisation")?,
        };
        r.expect("}")?;
        Ok(run)
    }

    fn write_json(&self, out: &mut String) {
        let i = "      "; // nested under "runs": [ { ...
        out.push_str(&format!(
            "    {{\n{i}\"label\": \"{}\",\n",
            json_escape(&self.label)
        ));
        out.push_str(&format!("{i}\"short_fct\": "));
        self.short_fct.write_json(out, i);
        out.push_str(&format!(",\n{i}\"mice_fct\": "));
        self.mice_fct.write_json(out, i);
        out.push_str(&format!(
            ",\n{i}\"all_short_completed\": {},\n{i}\"short_flows_with_rto\": {},\n{i}\"rtos\": {},\n{i}\"long_goodput_gbps\": {},\n",
            self.all_short_completed,
            self.short_flows_with_rto,
            self.rtos,
            json_f64(self.long_goodput_gbps),
        ));
        out.push_str(&format!("{i}\"drops\": "));
        self.drops.write_json(out, i);
        out.push_str(&format!(",\n{i}\"ecn_marks\": "));
        self.ecn_marks.write_json(out, i);
        out.push_str(&format!(
            ",\n{i}\"phase_switches\": {},\n{i}\"redundant_bytes\": {},\n{i}\"core_utilisation\": {}\n    }}",
            self.phase_switches,
            self.redundant_bytes,
            json_f64(self.core_utilisation),
        ));
    }
}

/// The canonical, deterministic metrics document of one scenario execution.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct ScenarioReport {
    /// Scenario name from the registry, or `cells` for the golden document
    /// that holds each distinct fast configuration of the catalog once.
    pub scenario: String,
    /// Fidelity label (`fast` / `full`).
    pub fidelity: String,
    /// One entry per run, in the deterministic config order.
    pub runs: Vec<RunReport>,
}

impl ScenarioReport {
    /// Render the canonical JSON document (fixed key order, 2-space indent,
    /// trailing newline). Byte-identical output is the golden-check contract.
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        out.push_str("{\n");
        out.push_str(&format!(
            "  \"scenario\": \"{}\",\n",
            json_escape(&self.scenario)
        ));
        out.push_str(&format!(
            "  \"fidelity\": \"{}\",\n",
            json_escape(&self.fidelity)
        ));
        out.push_str("  \"runs\": [\n");
        for (i, run) in self.runs.iter().enumerate() {
            run.write_json(&mut out);
            if i + 1 < self.runs.len() {
                out.push(',');
            }
            out.push('\n');
        }
        out.push_str("  ]\n}\n");
        out
    }

    /// Read a canonical document back. Accepts the key order and
    /// one-key-per-line layout [`ScenarioReport::to_json`] renders and
    /// nothing else; a document is canonical (not hand-edited) exactly when
    /// `from_json(text)?.to_json() == text`.
    pub fn from_json(text: &str) -> Result<Self, String> {
        let mut r = Reader {
            lines: text.lines().enumerate().peekable(),
        };
        r.expect("{")?;
        let mut report = ScenarioReport {
            scenario: r.string("scenario")?,
            fidelity: r.string("fidelity")?,
            runs: Vec::new(),
        };
        r.expect("\"runs\": [")?;
        while r.peek() == "{" {
            report.runs.push(RunReport::read_json(&mut r)?);
        }
        r.expect("]")?;
        r.expect("}")?;
        r.expect("")?;
        Ok(report)
    }
}

/// Line-level diff between an expected and an actual canonical document.
/// Returns `None` when the documents are identical; otherwise a compact
/// report listing every differing line (`-` expected, `+` actual) with its
/// 1-based line number — the artifact the CI golden job uploads.
pub fn diff(expected: &str, actual: &str) -> Option<String> {
    if expected == actual {
        return None;
    }
    let exp: Vec<&str> = expected.lines().collect();
    let act: Vec<&str> = actual.lines().collect();
    let mut out = String::new();
    let max = exp.len().max(act.len());
    for i in 0..max {
        let e = exp.get(i).copied();
        let a = act.get(i).copied();
        if e != a {
            if let Some(e) = e {
                out.push_str(&format!("@{} - {}\n", i + 1, e));
            }
            if let Some(a) = a {
                out.push_str(&format!("@{} + {}\n", i + 1, a));
            }
        }
    }
    if exp.len() != act.len() {
        out.push_str(&format!(
            "line count: expected {}, actual {}\n",
            exp.len(),
            act.len()
        ));
    }
    Some(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_report() -> ScenarioReport {
        ScenarioReport {
            scenario: "fig1a".into(),
            fidelity: "fast".into(),
            runs: vec![RunReport {
                label: "mptcp-1 seed=1".into(),
                short_fct: FctDoc {
                    count: 12,
                    mean_ms: 3.14759265,
                    p50_ms: 2.5,
                    p95_ms: 8.0,
                    p99_ms: 9.99995,
                    max_ms: 11.0,
                },
                mice_fct: FctDoc {
                    count: 8,
                    mean_ms: 1.5,
                    p50_ms: 1.25,
                    p95_ms: 2.0,
                    p99_ms: 2.5,
                    max_ms: 3.0,
                },
                all_short_completed: true,
                short_flows_with_rto: 1,
                rtos: 2,
                long_goodput_gbps: 0.91234567,
                drops: TierCounts {
                    edge: 3,
                    aggregation: 1,
                    core: 0,
                    host: 0,
                },
                ecn_marks: TierCounts::default(),
                phase_switches: 0,
                redundant_bytes: 70_000,
                core_utilisation: 0.25,
            }],
        }
    }

    #[test]
    fn floats_are_rounded_to_four_decimals() {
        assert_eq!(json_f64(3.14759265), "3.1476");
        assert_eq!(json_f64(9.99995), "10");
        assert_eq!(json_f64(0.0), "0");
        assert_eq!(json_f64(-0.00001), "0");
        assert_eq!(json_f64(f64::NAN), "null");
        assert_eq!(json_f64(f64::INFINITY), "null");
        assert_eq!(json_f64(42.0), "42");
    }

    #[test]
    fn string_escaping() {
        assert_eq!(json_escape("plain"), "plain");
        assert_eq!(json_escape("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
        assert_eq!(json_escape("\u{01}"), "\\u0001");
    }

    #[test]
    fn rendering_is_deterministic_and_canonical() {
        let r = sample_report();
        let a = r.to_json();
        let b = r.to_json();
        assert_eq!(a, b);
        assert!(a.starts_with("{\n  \"scenario\": \"fig1a\",\n"));
        assert!(a.ends_with("  ]\n}\n"));
        assert!(a.contains("\"mean_ms\": 3.1476"));
        assert!(a.contains("\"p99_ms\": 10"));
        assert!(a.contains("\"total\": 4"));
        assert!(a.contains("\"mice_fct\""));
        assert!(a.contains("\"redundant_bytes\": 70000"));
    }

    #[test]
    fn reader_inverts_the_writer_and_rejects_non_canonical_documents() {
        let mut report = sample_report();
        report.runs[0].label = "a \"quoted\\\" label,\n\u{1}".into();
        report.runs[0].core_utilisation = f64::NAN;
        report.runs.push(RunReport::default());
        let text = report.to_json();
        let back = ScenarioReport::from_json(&text).expect("canonical document");
        assert_eq!(back.to_json(), text);
        assert_eq!(back.runs[0].label, report.runs[0].label);
        assert_eq!(back.runs[0].short_fct.mean_ms, 3.1476);
        assert_eq!(back.runs[0].drops, report.runs[0].drops);
        let empty = ScenarioReport::default();
        assert_eq!(ScenarioReport::from_json(&empty.to_json()), Ok(empty));

        // A hand-edited tier count no longer sums to its total; a reordered or
        // dropped key is refused where it is met, with the line number.
        let edited = text.replace("\"edge\": 3,", "\"edge\": 4,");
        let err = ScenarioReport::from_json(&edited).unwrap_err();
        assert!(err.contains("`drops` total 4"), "{err}");
        let dropped = text.replace("      \"rtos\": 2,\n", "");
        let err = ScenarioReport::from_json(&dropped).unwrap_err();
        assert!(err.starts_with("line 25: expected a `rtos` value"), "{err}");
        assert!(ScenarioReport::from_json(&text[..text.len() - 2]).is_err());
    }

    #[test]
    fn diff_is_none_for_identical_docs() {
        let a = sample_report().to_json();
        assert_eq!(diff(&a, &a), None);
    }

    #[test]
    fn diff_reports_changed_lines() {
        let a = sample_report().to_json();
        let mut changed = sample_report();
        changed.runs[0].short_fct.p99_ms = 123.4;
        let b = changed.to_json();
        let d = diff(&a, &b).expect("documents differ");
        assert!(d.contains("- "), "expected side present: {d}");
        assert!(d.contains("+ "), "actual side present: {d}");
        assert!(d.contains("123.4"), "new value shown: {d}");
    }

    #[test]
    fn tier_totals() {
        let t = TierCounts {
            edge: 1,
            aggregation: 2,
            core: 3,
            host: 4,
        };
        assert_eq!(t.total(), 10);
    }
}
