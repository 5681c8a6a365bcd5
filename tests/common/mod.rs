//! The committed golden cells, for the test binaries that read claims off
//! them instead of simulating.

use metrics::ScenarioReport;
use mmptcp::scenario::find;

/// `tests/golden/cells.json` as committed.
pub(crate) const CELLS: &str = include_str!("../golden/cells.json");

/// The committed golden cells, read back through the canonical reader.
pub(crate) fn golden_cells() -> ScenarioReport {
    ScenarioReport::from_json(CELLS).unwrap_or_else(|e| panic!("cells.json: {e}"))
}

/// A scenario's golden document, reassembled from the committed cells.
pub(crate) fn golden(scenario: &str) -> ScenarioReport {
    let reassembled = find(scenario).unwrap().reassemble(&golden_cells());
    reassembled.unwrap_or_else(|e| panic!("{e}"))
}
