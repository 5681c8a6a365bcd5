//! The committed golden cells, for the test binaries that read them instead
//! of simulating.

use metrics::ScenarioReport;
use mmptcp::scenario::find;

/// `tests/golden/cells.json` as committed.
pub(crate) const CELLS: &str = include_str!("../golden/cells.json");

/// The committed golden cells, read back through the canonical reader.
pub(crate) fn golden_cells() -> ScenarioReport {
    ScenarioReport::from_json(CELLS).unwrap_or_else(|e| panic!("cells.json: {e}"))
}

/// Checks `scenario`'s `rows` claims about `metrics` (`-` for `same` and
/// `differs`) on its golden document.
pub(crate) fn assert_claims_hold(scenario: &str, metrics: &[&str], rows: usize) {
    let s = find(scenario).unwrap_or_else(|| panic!("no scenario `{scenario}`"));
    let about = |line: &String| metrics.contains(&line.split(';').nth(2).unwrap_or("").trim());
    // Every claim breaks on a document without runs, so this lists them all.
    let no_runs = ScenarioReport {
        runs: Vec::new(),
        ..golden_cells()
    };
    let listed = s.check_claims(&no_runs).iter().filter(|l| about(l)).count();
    assert_eq!(listed, rows, "{scenario}: claim rows about {metrics:?}");
    let golden = s
        .reassemble(&golden_cells())
        .unwrap_or_else(|e| panic!("{e}"));
    let broken: Vec<String> = s.check_claims(&golden).into_iter().filter(about).collect();
    assert!(broken.is_empty(), "broken claims: {broken:#?}");
}
