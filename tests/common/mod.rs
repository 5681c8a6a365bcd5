//! The committed golden cells, for the conformance layer, which reads them
//! instead of simulating: the claims table is checked on them whole.

use metrics::ScenarioReport;

/// `tests/golden/cells.json` as committed.
pub(crate) const CELLS: &str = include_str!("../golden/cells.json");

/// The committed golden cells, read back through the canonical reader.
pub(crate) fn golden_cells() -> ScenarioReport {
    ScenarioReport::from_json(CELLS).unwrap_or_else(|e| panic!("cells.json: {e}"))
}
