//! The scenario runner: list, run, and regression-check the canonical
//! experiment catalog (`mmptcp::scenario`).
//!
//! The one way to run an experiment: every figure, sweep and ablation is a
//! catalog entry reached through this registry-driven entry point, which is
//! also the substrate of the CI `golden` job: every distinct fast
//! configuration of the catalog (a *cell*, `mmptcp::scenario::cells`) renders
//! one row of a canonical JSON metrics document that is compared
//! byte-for-byte against `tests/golden/cells.json`.
//!
//! Usage:
//!
//! ```text
//! scenarios list
//! scenarios run <name>... [--full | --paper] [--seed N] [--engine packet|hybrid] [--cc reno|cubic|bbr] [--threads N] [--json]
//! scenarios check [<name>...] [--threads N]
//! scenarios bless [--threads N]
//! scenarios conserve [<name>...] [--seeds N] [--all-configs] [--engine packet|hybrid] [--cc reno|cubic|bbr] [--threads N]
//! scenarios trace <name>... [--flow ID] [--links] [--full | --paper] [--seed N] [--engine packet|hybrid] [--cc reno|cubic|bbr] [--threads N]
//! ```
//!
//! `--full` runs the 64-host benchmark scale the replaced binaries used by
//! default; `--paper` the 512-server paper scale (their old `--full`).
//! `--seed N` overrides every run's seed (run/trace only; golden cells are
//! defined at the fast fidelity's pinned seed, so `check`/`bless` reject
//! scale and seed flags). `--engine packet|hybrid` overrides which engine
//! executes every selected configuration — `hybrid` installs the default
//! 1 MB elephant threshold (`Engine::hybrid_default`) so any catalog
//! scenario can be re-run on the fluid fast path, and `packet` forces the
//! exact engine on scenarios (like `mega-load-sweep`) that default to
//! hybrid. Golden cells pin each scenario's own engine choice, so
//! `check`/`bless` reject the flag; `conserve` accepts it and sweeps the
//! conservation laws under the chosen engine. `--cc reno|cubic|bbr`
//! similarly overrides the congestion controller on every selected run
//! (run/trace/conserve only — goldens pin each scenario's own controller
//! axis, so `check`/`bless` reject it).
//!
//! `check` runs the distinct cells of the selected scenarios (default: all)
//! in one driver sweep, compares them row by row against the golden and
//! exits non-zero on any drift. It names each drifted cell once, with every
//! scenario row that shares it, in `target/golden-diff/cells.diff` (the
//! artifact CI uploads). `bless` runs every cell and rewrites the one golden
//! file, so every accepted metrics change is an explicit commit; it takes no
//! names, because a shared cell belongs to several scenarios.
//!
//! `conserve` is the simulator-wide conservation sweep: for every selected
//! scenario it runs the first fast-fidelity configuration (every
//! configuration with `--all-configs`) across `--seeds N` seeds (default 16),
//! each distinct (config, seed) pair once, and checks
//! [`mmptcp::ExperimentResults::check_conservation`] on each run — packets
//! injected must equal delivered + dropped + still-in-network, and every
//! completed bounded flow must have delivered exactly its size. CI runs this
//! next to the golden check.
//!
//! `trace` runs the selected scenarios with the flight recorder on
//! (`metrics::trace`) and writes the per-run time series under
//! `target/traces/<scenario>/<run>/`: `flows.csv` (per-subflow cwnd / RTT /
//! outstanding samples), `events.csv` (phase switches, RTOs, fast and
//! spurious retransmits), `links.csv` with `--links` (queue depth, window
//! deltas, utilisation per sample window) and a schema-documenting
//! `manifest.json`. `--flow ID` restricts the flow series to one flow.
//! Golden metrics are unaffected: tracing rides alongside the normal run
//! and the `TraceConfig::Off` default never records anything. `--links`
//! samples inside the progress tick, so the run stops where the untraced
//! one does and reports the same results.

use metrics::{report, RunReport, ScenarioReport, Table};
use mmptcp::netsim::Signal;
use mmptcp::scenario::{self, catalog, find, Fidelity, Scenario};
use mmptcp::{Driver, Engine, ExperimentConfig, ExperimentResults};
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use transport::CongestionControl;

/// Repository-root-relative path of the golden cells document.
fn golden_path() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../../tests/golden/cells.json")
}

struct Options {
    command: Command,
    names: Vec<String>,
    threads: usize,
    fidelity: Fidelity,
    fidelity_flag_seen: bool,
    seed: Option<u64>,
    seeds: u64,
    engine: Option<Engine>,
    cc: Option<CongestionControl>,
    all_configs: bool,
    json: bool,
    flow: Option<u64>,
    links: bool,
}

enum Command {
    List,
    Run,
    Check,
    Bless,
    Conserve,
    Trace,
}

fn usage() -> ! {
    eprintln!(
        "usage: scenarios <list|run|check|bless|conserve|trace> [<name>...] [--full | --paper] \
         [--seed N] [--seeds N] [--engine packet|hybrid] [--cc reno|cubic|bbr] [--all-configs] \
         [--threads N] [--json] [--flow ID] [--links]\n\
         check/bless always run the pinned fast fidelity and reject \
         --full/--paper/--seed/--engine/--cc; bless rewrites every cell and takes no names;\n\
         conserve sweeps --seeds N seeds (default 16) over every scenario's first fast \
         config (--all-configs: every config) and checks the conservation laws, optionally \
         under an --engine or --cc override;\n\
         trace re-runs the named scenarios with the flight recorder on and writes \
         CSV/JSON series under target/traces/ (--links adds per-link series, \
         --flow ID narrows the flow series to one flow; --seed/--engine/--cc apply)"
    );
    std::process::exit(2)
}

/// Parse the arguments that follow the program name.
fn parse_args(args: impl IntoIterator<Item = String>) -> Options {
    let mut opts = Options {
        command: Command::List,
        names: Vec::new(),
        threads: std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(4),
        fidelity: Fidelity::Fast,
        fidelity_flag_seen: false,
        seed: None,
        seeds: 16,
        engine: None,
        cc: None,
        all_configs: false,
        json: false,
        flow: None,
        links: false,
    };
    let mut command = None;
    let mut args = args.into_iter();
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "list" if command.is_none() => command = Some(Command::List),
            "run" if command.is_none() => command = Some(Command::Run),
            "check" if command.is_none() => command = Some(Command::Check),
            "bless" if command.is_none() => command = Some(Command::Bless),
            "conserve" if command.is_none() => command = Some(Command::Conserve),
            "trace" if command.is_none() => command = Some(Command::Trace),
            "--all-configs" => opts.all_configs = true,
            "--links" => opts.links = true,
            "--flow" => {
                let Some(v) = args.next() else { usage() };
                opts.flow = Some(v.parse().unwrap_or_else(|_| usage()));
            }
            "--seeds" => {
                let Some(v) = args.next() else { usage() };
                opts.seeds = v.parse().unwrap_or_else(|_| usage());
            }
            "--engine" => {
                let Some(v) = args.next() else { usage() };
                opts.engine = Some(match v.as_str() {
                    "packet" => Engine::Packet,
                    "hybrid" => Engine::hybrid_default(),
                    _ => usage(),
                });
            }
            "--cc" => {
                let Some(v) = args.next() else { usage() };
                opts.cc = Some(CongestionControl::parse(&v).unwrap_or_else(|| usage()));
            }
            "--full" => {
                opts.fidelity = Fidelity::Full;
                opts.fidelity_flag_seen = true;
            }
            "--paper" => {
                opts.fidelity = Fidelity::Paper;
                opts.fidelity_flag_seen = true;
            }
            "--json" => opts.json = true,
            "--seed" => {
                let Some(v) = args.next() else { usage() };
                opts.seed = Some(v.parse().unwrap_or_else(|_| usage()));
            }
            "--threads" => {
                let Some(v) = args.next() else { usage() };
                opts.threads = v.parse().unwrap_or_else(|_| usage());
            }
            name if !name.starts_with('-') => opts.names.push(name.to_string()),
            _ => usage(),
        }
    }
    opts.command = command.unwrap_or_else(|| usage());
    // Golden cells are pinned at fast fidelity, seed, engine and controller:
    // a check or bless under any other combination would silently compare
    // apples to oranges. The conservation sweep likewise always runs the fast
    // fidelity and owns its seeds (--seeds), but the conservation laws must
    // hold under every engine and controller, so it does accept --engine/--cc.
    let golden = matches!(opts.command, Command::Check | Command::Bless);
    let conflict = if (golden || matches!(opts.command, Command::Conserve))
        && (opts.fidelity_flag_seen || opts.seed.is_some())
    {
        "check/bless/conserve always run the pinned fast fidelity; \
         drop --full/--paper/--seed (conserve takes --seeds N)"
    } else if golden && (opts.engine.is_some() || opts.cc.is_some()) {
        "golden cells pin each scenario's own engine and congestion-control axis; drop \
         --engine/--cc (`scenarios run <name>` and `scenarios conserve` take them)"
    } else if matches!(opts.command, Command::Bless) && !opts.names.is_empty() {
        "bless rewrites every cell (a cell can belong to several scenarios); drop the names"
    } else {
        ""
    };
    if !conflict.is_empty() {
        eprintln!("{conflict}");
        std::process::exit(2);
    }
    opts.seeds = opts.seeds.max(1);
    opts
}

/// The `--seed`, `--engine` and `--cc` overrides, applied to one config.
fn apply_overrides(opts: &Options, config: &mut ExperimentConfig) {
    if let Some(seed) = opts.seed {
        config.seed = seed;
    }
    if let Some(engine) = opts.engine {
        config.engine = engine;
    }
    if let Some(cc) = opts.cc {
        config.transport.cc = cc;
    }
}

/// Resolve requested names (default: the whole catalog) into scenarios.
fn select(names: &[String]) -> Vec<&'static Scenario> {
    if names.is_empty() {
        return catalog().iter().collect();
    }
    names
        .iter()
        .map(|n| {
            find(n).unwrap_or_else(|| {
                eprintln!("unknown scenario '{n}'; `scenarios list` shows the catalog");
                std::process::exit(2)
            })
        })
        .collect()
}

fn cmd_list() -> ExitCode {
    let mut table = Table::new("Scenario catalog", &["name", "description"]);
    for s in catalog() {
        table.add_row(vec![s.name.to_string(), s.description.to_string()]);
    }
    println!("{}", table.render());
    println!(
        "{} scenarios. `scenarios run <name>` executes one (--full: 64-host benchmark scale, \
         --paper: 512-server paper scale, --seed N overrides the seed);",
        catalog().len()
    );
    println!("`scenarios check` verifies the golden cells; `scenarios bless` rewrites them.");
    ExitCode::SUCCESS
}

/// The headers matching [`summary_row`].
fn summary_headers() -> Vec<&'static str> {
    vec![
        "run",
        "short flows",
        "mean FCT (ms)",
        "std FCT (ms)",
        "p99 FCT (ms)",
        "max FCT (ms)",
        "flows w/ RTO",
        "missed deadlines",
        "long goodput (Gbps)",
        "core loss",
        "agg loss",
        "mean util",
        "elapsed (ms)",
        "last done (ms)",
    ]
}

/// The comparison-table row `run` prints for one experiment.
fn summary_row(label: &str, r: &ExperimentResults) -> Vec<String> {
    let s = r.short_fct_summary();
    let missed = match r.deadline_misses() {
        (_, 0) => "-".to_string(),
        (missed, total) => format!("{missed}/{total}"),
    };
    // The run's end beside its last completion: the gap is how far the
    // tick loop carried the run past its work.
    let last_done = r
        .metrics
        .sorted_records()
        .iter()
        .filter_map(|(_, rec)| rec.completed)
        .max()
        .map_or("-".to_string(), |t| metrics::f2(t.as_millis_f64()));
    vec![
        label.to_string(),
        s.count.to_string(),
        metrics::f2(s.mean),
        metrics::f2(s.std_dev),
        metrics::f2(s.p99),
        metrics::f2(s.max),
        r.short_flows_with_rto().to_string(),
        missed,
        metrics::f2(r.long_goodput_bps() / 1e9),
        metrics::pct(r.loss.core.loss_rate()),
        metrics::pct(r.loss.aggregation.loss_rate()),
        metrics::pct(r.overall_utilisation),
        metrics::f2(r.elapsed.as_millis_f64()),
        last_done,
    ]
}

fn cmd_run(opts: &Options) -> ExitCode {
    let fidelity = opts.fidelity;
    for s in select(&opts.names) {
        let mut configs = s.configs(fidelity);
        for (_, cfg) in configs.iter_mut() {
            apply_overrides(opts, cfg);
        }
        let results = Driver::with_threads(opts.threads).run_labelled(configs);
        if opts.json {
            print!("{}", scenario::report(s.name, fidelity, &results).to_json());
            continue;
        }
        let mut table = Table::new(
            format!("{} [{}]: {}", s.name, fidelity.label(), s.description),
            &summary_headers(),
        );
        for (label, r) in &results {
            table.add_row(summary_row(label, r));
        }
        println!("{}", table.render());
    }
    ExitCode::SUCCESS
}

/// Every fast row of `scenarios`, named `<scenario> / <label>`.
fn fast_rows(scenarios: &[&Scenario]) -> Vec<(String, ExperimentConfig)> {
    scenarios
        .iter()
        .flat_map(|s| {
            let rows = s.configs(Fidelity::Fast).into_iter();
            rows.map(|(label, config)| (format!("{} / {label}", s.name), config))
        })
        .collect()
}

/// Run `cells` in one driver sweep and distil the golden cells document.
fn run_cells(cells: Vec<(String, ExperimentConfig)>, threads: usize) -> ScenarioReport {
    let results = Driver::with_threads(threads).run_labelled(cells);
    scenario::report("cells", Fidelity::Fast, &results)
}

/// One row as a canonical document of its own, for a row-by-row diff.
fn render(run: &RunReport) -> String {
    ScenarioReport {
        runs: vec![run.clone()],
        ..ScenarioReport::default()
    }
    .to_json()
}

fn cmd_bless(opts: &Options) -> ExitCode {
    let golden = run_cells(scenario::cells(), opts.threads);
    std::fs::write(golden_path(), golden.to_json()).expect("write golden cells");
    println!("blessed {} cells into cells.json", golden.runs.len());
    ExitCode::SUCCESS
}

fn cmd_check(opts: &Options) -> ExitCode {
    let path = golden_path();
    let text = std::fs::read_to_string(&path).map_err(|e| e.to_string());
    let golden = match text.and_then(|text| ScenarioReport::from_json(&text)) {
        Ok(golden) => golden,
        Err(e) => {
            eprintln!("cannot read {}: {e}; run `scenarios bless`", path.display());
            return ExitCode::FAILURE;
        }
    };
    let rows = fast_rows(&select(&opts.names));
    let cells: Vec<(String, ExperimentConfig)> = scenario::cells()
        .into_iter()
        .filter(|(_, cell)| rows.iter().any(|(_, row)| row == cell))
        .collect();
    println!("checking {} cells of {} rows", cells.len(), rows.len());
    let actual = run_cells(cells.clone(), opts.threads);
    let all_rows = fast_rows(&select(&[]));
    let mut failures = Vec::new();
    for ((_, config), run) in cells.iter().zip(&actual.runs) {
        let expected = golden.runs.iter().find(|g| g.label == run.label);
        let mut body = match expected {
            None => format!("MISSING  {} (no such row in the golden)\n", run.label),
            Some(g) => match report::diff(&render(g), &render(run)) {
                None => continue,
                Some(d) => format!("DRIFT    {}\n{d}", run.label),
            },
        };
        for (row, _) in all_rows.iter().filter(|(_, c)| c == config) {
            body.push_str(&format!("  shared by {row}\n"));
        }
        eprint!("{body}");
        failures.push(body);
    }
    if failures.is_empty() {
        println!("golden check passed: {} cells", cells.len());
        return ExitCode::SUCCESS;
    }
    // Uploaded as a CI artifact on failure.
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../target/golden-diff");
    std::fs::create_dir_all(&dir).expect("create diff dir");
    let diff_path = dir.join("cells.diff");
    let header = format!("drift against {} (- expected, + actual):\n", path.display());
    std::fs::write(&diff_path, header + &failures.concat()).expect("write diff");
    let drifted = failures.len();
    eprintln!("{drifted} cells drifted (if intended, `scenarios bless`): {diff_path:?}");
    ExitCode::FAILURE
}

/// Conservation sweep: run the selected scenarios' fast configurations
/// across many seeds, each distinct (config, seed) pair once, and check the
/// packet/byte conservation laws on every run. Exits non-zero (listing
/// every violation) if any law is broken.
fn cmd_conserve(opts: &Options) -> ExitCode {
    let mut configs: Vec<(String, ExperimentConfig)> = Vec::new();
    for s in select(&opts.names) {
        let expanded = s.configs(Fidelity::Fast);
        let chosen = if opts.all_configs { expanded.len() } else { 1 };
        for (label, cfg) in expanded.into_iter().take(chosen) {
            for seed in 1..=opts.seeds {
                let mut c = cfg.clone();
                c.seed = seed;
                apply_overrides(opts, &mut c);
                if configs.iter().any(|(_, seen)| *seen == c) {
                    continue;
                }
                let run = format!(
                    "{} / {label} seed={seed} engine={} cc={}",
                    s.name,
                    c.engine.label(),
                    c.transport.cc.name()
                );
                configs.push((run, c));
            }
        }
    }
    let total = configs.len();
    println!("conservation sweep: {total} runs ({} seeds)", opts.seeds);
    let results = Driver::with_threads(opts.threads).run_labelled(configs);
    let mut violations = Vec::new();
    for (label, r) in &results {
        if let Err(e) = r.check_conservation() {
            eprintln!("VIOLATION  {label}: {e}");
            violations.push(label.clone());
        }
    }
    if violations.is_empty() {
        println!("conservation laws hold across all {total} runs");
        ExitCode::SUCCESS
    } else {
        eprintln!("{} of {total} runs violated conservation", violations.len());
        ExitCode::FAILURE
    }
}

/// Where `trace` writes its per-run series directories.
fn trace_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../../target/traces")
}

/// File-system-safe directory name for one run label, prefixed with its
/// config index so directory order matches the scenario's config order.
fn sanitize_label(index: usize, label: &str) -> String {
    let mut out = format!("{index:02}-");
    let mut last_dash = false;
    for c in label.chars() {
        if c.is_ascii_alphanumeric() || c == '.' {
            out.push(c.to_ascii_lowercase());
            last_dash = false;
        } else if !last_dash {
            out.push('-');
            last_dash = true;
        }
    }
    out.trim_end_matches('-').to_string()
}

/// Flight-recorder sweep: run the selected scenarios with tracing on and
/// write each run's CSV/JSON series under `target/traces/<scenario>/<run>/`.
fn cmd_trace(opts: &Options) -> ExitCode {
    if opts.names.is_empty() {
        eprintln!("trace needs at least one scenario name; `scenarios list` shows the catalog");
        return ExitCode::from(2);
    }
    let settings = metrics::TraceSettings {
        flows: match opts.flow {
            None => metrics::FlowSelect::All,
            Some(id) => metrics::FlowSelect::One(id),
        },
        links: opts.links,
    };
    let mut empty = Vec::new();
    for s in select(&opts.names) {
        let mut configs = s.configs(opts.fidelity);
        for (_, cfg) in configs.iter_mut() {
            cfg.trace = metrics::TraceConfig::On(settings);
            apply_overrides(opts, cfg);
        }
        let results = Driver::with_threads(opts.threads).run_labelled(configs);
        let scenario_dir = trace_dir().join(s.name);
        // Clear previous traces of this scenario so run directories from an
        // earlier fidelity/flag combination cannot linger beside fresh ones.
        if scenario_dir.exists() {
            std::fs::remove_dir_all(&scenario_dir).expect("clear stale trace directory");
        }
        for (index, (label, r)) in results.iter().enumerate() {
            let sink = r.trace.as_ref().expect("traced run must carry a sink");
            let dir = scenario_dir.join(sanitize_label(index, label));
            sink.write_dir(&dir, label).expect("write trace directory");
            let switches = sink
                .events()
                .iter()
                .filter(|e| matches!(e, Signal::PhaseSwitched { .. }))
                .count();
            println!(
                "{}/{label}: {} flow series ({} samples), {} events ({} phase switches), \
                 {} link series ({} samples) -> {}",
                s.name,
                sink.flow_keys().len(),
                sink.flow_sample_count(),
                sink.events().len(),
                switches,
                sink.link_count(),
                sink.link_sample_count(),
                dir.display(),
            );
            if sink.flow_sample_count() == 0 {
                empty.push(format!("{}/{label}", s.name));
            }
        }
    }
    if empty.is_empty() {
        println!(
            "trace series written under {} (schema in each manifest.json)",
            trace_dir().display()
        );
        ExitCode::SUCCESS
    } else {
        eprintln!("runs with no flow samples: {}", empty.join(", "));
        ExitCode::FAILURE
    }
}

fn main() -> ExitCode {
    let opts = parse_args(std::env::args().skip(1));
    match opts.command {
        Command::List => cmd_list(),
        Command::Run => cmd_run(&opts),
        Command::Check => cmd_check(&opts),
        Command::Bless => cmd_bless(&opts),
        Command::Conserve => cmd_conserve(&opts),
        Command::Trace => cmd_trace(&opts),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn summary_row_matches_headers() {
        use mmptcp::prelude::*;
        let one_flow = ExperimentConfig {
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
            ..ExperimentConfig::default()
        };
        let row = summary_row("one flow", &mmptcp::run(one_flow));
        assert_eq!(row.len(), summary_headers().len());
        assert_eq!(row[..2], ["one flow", "1"]);
        assert_eq!(row[7], "-", "the workload carries no deadline");
        let ms = |i: usize| row[i].parse::<f64>().expect("a time in ms");
        // The flow starts at 1 ms; the run cannot end before it completes.
        assert!(ms(12) >= ms(13) && ms(13) > 1.0, "elapsed, then last done");
    }

    /// `--seed`, `--engine` and `--cc` reach the config of every command
    /// that accepts them — `trace --engine hybrid` once ran the packet engine.
    #[test]
    fn overrides_reach_the_config() {
        let parse = |line: &str| parse_args(line.split_whitespace().map(String::from));
        let mut config = ExperimentConfig::default();
        apply_overrides(&parse("trace fig1bc"), &mut config);
        assert_eq!(config, ExperimentConfig::default());
        let line = "trace fig1bc --seed 9 --engine hybrid --cc cubic";
        apply_overrides(&parse(line), &mut config);
        assert_eq!(config.seed, 9);
        assert_eq!(config.engine, Engine::hybrid_default());
        assert_eq!(config.transport.cc, CongestionControl::Cubic);
    }
}
