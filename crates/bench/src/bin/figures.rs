//! Render the paper's headline plots as gnuplot-ready `.dat` + `.gp` pairs.
//!
//! Three figure families, written under `target/figures/`:
//!
//! * **fig1a_fct_vs_subflows** — short-flow FCT versus MPTCP subflow count,
//!   read from the committed golden `fig1a` rows (no simulation needed: the
//!   goldens *are* the blessed numbers);
//! * **fct_vs_load** — short-flow p99 FCT versus offered load per protocol,
//!   from the golden `load-sweep` rows;
//! * **cwnd_switch** — a traced MMPTCP run (the `fig1bc` Figure-1(c)
//!   configuration) showing each subflow's congestion window over time with
//!   the packet-scatter→MPTCP switch instant marked;
//! * **queue_heat** — a traced `hotspot` run's per-link queue-depth series
//!   as a time × link heat map.
//!
//! The golden cells `tests/golden/cells.json` are read back with
//! `ScenarioReport::from_json`, the canonical reader next to the writer that
//! rendered them, and `Scenario::reassemble` rebuilds a scenario's rows.
//!
//! Usage: `figures [--out DIR]` (default `target/figures`). Render with
//! `gnuplot <name>.gp`; every script writes `<name>.png` next to its data.

use metrics::trace::{FlowSelect, TraceConfig, TraceSettings};
use metrics::ScenarioReport;
use mmptcp::netsim::Signal;
use mmptcp::scenario::{find, Fidelity};
use std::path::{Path, PathBuf};
use std::process::ExitCode;

fn default_out_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../../target/figures")
}

/// A scenario's document reassembled from the committed golden cells, or
/// say why its figure is skipped.
fn golden(name: &str) -> Option<ScenarioReport> {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../tests/golden/cells.json");
    let scenario = find(name).expect("a catalog scenario");
    let report = std::fs::read_to_string(&path)
        .map_err(|e| e.to_string())
        .and_then(|text| ScenarioReport::from_json(&text))
        .and_then(|cells| scenario.reassemble(&cells));
    match report {
        Ok(report) => Some(report),
        Err(e) => {
            eprintln!("skipping the {name} figure: {}: {e}", path.display());
            None
        }
    }
}

/// The subflow count of a `fig1a` run label (`mptcp-<n>`).
fn subflow_count(label: &str) -> Option<u32> {
    label.strip_prefix("mptcp-")?.parse().ok()
}

/// Protocol and Poisson mean inter-arrival of a `load-sweep` run label
/// (`<protocol> @ <ms> ms`).
fn load_point(label: &str) -> Option<(&str, u64)> {
    let (proto, rest) = label.split_once(" @ ")?;
    Some((proto, rest.strip_suffix(" ms")?.parse().ok()?))
}

// --- figure writers ------------------------------------------------------

fn write(out_dir: &Path, name: &str, contents: String) -> std::io::Result<()> {
    let path = out_dir.join(name);
    std::fs::write(&path, contents)?;
    println!("wrote {}", path.display());
    Ok(())
}

/// Figure 1(a) from the committed golden: FCT vs subflow count.
fn fig1a(out_dir: &Path) -> std::io::Result<bool> {
    let Some(report) = golden("fig1a") else {
        return Ok(false);
    };
    let mut dat = String::from("# subflows  mean_ms  p99_ms   (from the golden fig1a rows)\n");
    for run in &report.runs {
        let Some(n) = subflow_count(&run.label) else {
            continue;
        };
        let fct = run.short_fct;
        dat.push_str(&format!("{n} {} {}\n", fct.mean_ms, fct.p99_ms));
    }
    write(out_dir, "fig1a_fct_vs_subflows.dat", dat)?;
    write(
        out_dir,
        "fig1a_fct_vs_subflows.gp",
        concat!(
            "set terminal png size 800,600\n",
            "set output 'fig1a_fct_vs_subflows.png'\n",
            "set title 'Short-flow FCT vs MPTCP subflow count (golden fig1a)'\n",
            "set xlabel 'subflows'\nset ylabel 'FCT (ms)'\nset key top left\nset grid\n",
            "plot 'fig1a_fct_vs_subflows.dat' using 1:2 with linespoints title 'mean', \\\n",
            "     '' using 1:3 with linespoints title 'p99'\n",
        )
        .to_string(),
    )?;
    Ok(true)
}

/// FCT-vs-load curves from the load-sweep golden: one column per protocol,
/// x = Poisson mean inter-arrival (smaller = heavier load).
fn fct_vs_load(out_dir: &Path) -> std::io::Result<bool> {
    let Some(report) = golden("load-sweep") else {
        return Ok(false);
    };
    // Labels look like "tcp @ 40 ms": collect protocols and loads in first-
    // appearance order, then emit a column per protocol.
    let mut protocols: Vec<String> = Vec::new();
    let mut loads: Vec<u64> = Vec::new();
    let mut cells: Vec<(String, u64, f64)> = Vec::new();
    for run in &report.runs {
        let Some((proto, ms)) = load_point(&run.label) else {
            continue;
        };
        let p99 = run.short_fct.p99_ms;
        if !protocols.iter().any(|p| p == proto) {
            protocols.push(proto.to_string());
        }
        if !loads.contains(&ms) {
            loads.push(ms);
        }
        cells.push((proto.to_string(), ms, p99));
    }
    loads.sort_unstable_by(|a, b| b.cmp(a)); // lightest load first
    let mut dat = format!(
        "# interarrival_ms  {}   (short-flow p99 ms, from the golden load-sweep rows)\n",
        protocols.join("  ")
    );
    for &ms in &loads {
        dat.push_str(&format!("{ms}"));
        for proto in &protocols {
            let v = cells
                .iter()
                .find(|(p, l, _)| p == proto && *l == ms)
                .map(|(_, _, v)| *v)
                .unwrap_or(f64::NAN);
            dat.push_str(&format!(" {v}"));
        }
        dat.push('\n');
    }
    let mut gp = String::from(concat!(
        "set terminal png size 800,600\n",
        "set output 'fct_vs_load.png'\n",
        "set title 'Short-flow p99 FCT vs offered load (golden load-sweep)'\n",
        "set xlabel 'Poisson mean inter-arrival (ms; left = heavier load)'\n",
        "set ylabel 'p99 FCT (ms)'\nset key top right\nset grid\n",
        "plot ",
    ));
    for (i, proto) in protocols.iter().enumerate() {
        if i > 0 {
            gp.push_str(", \\\n     ");
        }
        gp.push_str(&format!(
            "'fct_vs_load.dat' using 1:{} with linespoints title '{proto}'",
            i + 2
        ));
    }
    gp.push('\n');
    write(out_dir, "fct_vs_load.dat", dat)?;
    write(out_dir, "fct_vs_load.gp", gp)?;
    Ok(true)
}

/// Traced MMPTCP run: per-subflow cwnd series with the PS→MPTCP switch
/// instant marked. Uses the Figure-1(c) configuration from `fig1bc`.
fn cwnd_switch(out_dir: &Path) -> std::io::Result<bool> {
    let scenario = find("fig1bc").expect("fig1bc is in the catalog");
    let Some((label, mut config)) = scenario
        .configs(Fidelity::Fast)
        .into_iter()
        .find(|(label, _)| label.contains("mmptcp"))
    else {
        eprintln!("skipping cwnd_switch figure: no mmptcp config in fig1bc");
        return Ok(false);
    };
    config.trace = TraceConfig::On(TraceSettings {
        flows: FlowSelect::All,
        ..TraceSettings::default()
    });
    println!("running traced '{label}' for the cwnd-switch figure...");
    let results = mmptcp::run(config);
    let sink = results.trace.as_ref().expect("traced run carries a sink");
    // The flow whose series we plot: the first one that switched phase.
    let Some((flow, at)) = sink.events().iter().find_map(|e| match *e {
        Signal::PhaseSwitched { flow, at, .. } => Some((flow.0, at)),
        _ => None,
    }) else {
        eprintln!("skipping cwnd_switch figure: no flow switched phase");
        return Ok(false);
    };
    let subflows: Vec<u8> = sink
        .flow_keys()
        .iter()
        .filter(|(f, _)| *f == flow)
        .map(|(_, s)| *s)
        .collect();
    let mut dat = format!(
        "# traced run: {label}; flow {flow} switched PS->MPTCP at {:.4} ms\n\
         # one index block per subflow (0 = packet-scatter flow): t_ms cwnd_bytes outstanding_bytes\n",
        at.as_millis_f64()
    );
    for &sf in &subflows {
        let series = sink.flow_series(flow, sf).expect("keyed series");
        dat.push_str(&format!("# subflow {sf}\n"));
        for p in series.items() {
            dat.push_str(&format!(
                "{:.6} {} {}\n",
                p.at.as_millis_f64(),
                p.cwnd,
                p.outstanding
            ));
        }
        dat.push_str("\n\n");
    }
    let mut gp = format!(
        concat!(
            "set terminal png size 900,600\n",
            "set output 'cwnd_switch.png'\n",
            "set title 'MMPTCP flow {flow}: subflow cwnd across the PS->MPTCP switch'\n",
            "set xlabel 'time (ms)'\nset ylabel 'cwnd (bytes)'\nset key top left\nset grid\n",
            "set arrow from {at}, graph 0 to {at}, graph 1 nohead dashtype 2 lc rgb 'red'\n",
            "set label 'switch' at {at}, graph 0.95 offset 1,0 tc rgb 'red'\n",
            "plot ",
        ),
        flow = flow,
        at = at.as_millis_f64(),
    );
    for (i, sf) in subflows.iter().enumerate() {
        if i > 0 {
            gp.push_str(", \\\n     ");
        }
        let title = if *sf == 0 {
            "packet-scatter".to_string()
        } else {
            format!("mptcp subflow {sf}")
        };
        gp.push_str(&format!(
            "'cwnd_switch.dat' index {i} using 1:2 with steps title '{title}'"
        ));
    }
    gp.push('\n');
    write(out_dir, "cwnd_switch.dat", dat)?;
    write(out_dir, "cwnd_switch.gp", gp)?;
    Ok(true)
}

/// Traced hotspot run: per-link queue-depth series as time × link heat data.
fn queue_heat(out_dir: &Path) -> std::io::Result<bool> {
    let scenario = find("hotspot").expect("hotspot is in the catalog");
    let Some((label, mut config)) = scenario
        .configs(Fidelity::Fast)
        .into_iter()
        .find(|(label, _)| label.contains("hotspot") && label.contains("mmptcp"))
    else {
        eprintln!("skipping queue_heat figure: no mmptcp hotspot config");
        return Ok(false);
    };
    config.trace = TraceConfig::On(TraceSettings {
        links: true,
        ..TraceSettings::default()
    });
    println!("running traced '{label}' for the queue-heat figure...");
    let results = mmptcp::run(config);
    let sink = results.trace.as_ref().expect("traced run carries a sink");
    let mut dat = format!(
        "# traced run: {label}\n# t_ms link_index depth_packets (blank line between link blocks)\n"
    );
    let mut link = 0usize;
    while let Some(series) = sink.link_series(link) {
        for p in series.items() {
            dat.push_str(&format!(
                "{:.6} {link} {}\n",
                p.at.as_millis_f64(),
                p.depth_packets
            ));
        }
        dat.push('\n');
        link += 1;
    }
    let gp = format!(
        concat!(
            "set terminal png size 1000,700\n",
            "set output 'queue_heat.png'\n",
            "set title 'Queue depth over time, every link ({label})'\n",
            "set xlabel 'time (ms)'\nset ylabel 'link index'\nset cblabel 'queue depth (packets)'\n",
            "set view map\nset palette rgbformulae 22,13,-31\n",
            "splot 'queue_heat.dat' using 1:2:3 with points pointtype 5 pointsize 0.5 palette notitle\n",
        ),
        label = label,
    );
    write(out_dir, "queue_heat.dat", dat)?;
    write(out_dir, "queue_heat.gp", gp)?;
    println!("queue_heat: {link} link blocks");
    Ok(true)
}

fn main() -> ExitCode {
    let mut out_dir = default_out_dir();
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--out" => match args.next() {
                Some(dir) => out_dir = PathBuf::from(dir),
                None => {
                    eprintln!("usage: figures [--out DIR]");
                    return ExitCode::from(2);
                }
            },
            other => {
                eprintln!("usage: figures [--out DIR] (got '{other}')");
                return ExitCode::from(2);
            }
        }
    }
    std::fs::create_dir_all(&out_dir).expect("create figures dir");
    let mut rendered = 0;
    for result in [
        fig1a(&out_dir),
        fct_vs_load(&out_dir),
        cwnd_switch(&out_dir),
        queue_heat(&out_dir),
    ] {
        match result {
            Ok(true) => rendered += 1,
            Ok(false) => {}
            Err(e) => {
                eprintln!("figure rendering failed: {e}");
                return ExitCode::FAILURE;
            }
        }
    }
    println!(
        "{rendered} figure(s) under {} — render with `gnuplot <name>.gp`",
        out_dir.display()
    );
    if rendered > 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The golden-fed figures skip runs whose label they cannot parse; the
    /// committed goldens must leave them nothing to skip.
    #[test]
    fn extractor_handles_the_committed_goldens() {
        let fig1a = golden("fig1a").expect("fig1a golden");
        assert!(!fig1a.runs.is_empty());
        for run in &fig1a.runs {
            assert!(subflow_count(&run.label).is_some(), "{}", run.label);
        }
        let loads = golden("load-sweep").expect("load-sweep golden");
        assert!(!loads.runs.is_empty());
        for run in &loads.runs {
            assert!(load_point(&run.label).is_some(), "{}", run.label);
        }
    }
}
