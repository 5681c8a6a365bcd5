//! The scenario runner: list, run, and regression-check the canonical
//! experiment catalog (`mmptcp::scenario`).
//!
//! The one way to run an experiment: every figure, sweep and ablation is a
//! catalog entry reached through this registry-driven entry point, which is
//! also the substrate of the CI `golden` job: every distinct behaviour among
//! the catalog's fast configurations (a *cell*: one normal form of the
//! config, `mmptcp::scenario::cells`) renders one row of a canonical JSON
//! metrics document that is compared byte-for-byte against
//! `tests/golden/cells.json`.
//!
//! Usage:
//!
//! ```text
//! scenarios list
//! scenarios run <name>... [--full | --paper] [--seed N] [--engine packet|hybrid] [--cc reno|cubic|bbr] [--threads N] [--json]
//! scenarios check [<name>...] [--threads N]
//! scenarios bless [--threads N]
//! scenarios conserve [<name>...] [--seeds N] [--engine packet|hybrid] [--cc reno|cubic|bbr] [--threads N]
//! scenarios trace <name>... [--flow ID] [--links] [--full | --paper] [--seed N] [--engine packet|hybrid] [--cc reno|cubic|bbr] [--threads N]
//! scenarios figures [--threads N]
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
//! axis, so `check`/`bless` reject it). A flag that shapes one command's
//! output is that command's alone, and the others reject it: `--seeds N`
//! (at least 1) is `conserve`'s, `--json` is `run`'s, and `--flow ID` and
//! `--links` are `trace`'s; `list` takes no names or flags.
//!
//! `run` prints to stderr each claim of the scenario's rows that the run
//! breaks (`Scenario::check_claims`), at every fidelity and under every
//! override, and then exits non-zero; stdout, `--json` included, does not
//! change.
//!
//! `check` runs the cells that the rows of the selected scenarios (default:
//! all) share, as `mmptcp::scenario::cells` lists them, in one driver
//! sweep, compares them row by row against the golden, audits
//! each run with [`mmptcp::ExperimentResults::check_conservation`] (a
//! `VIOLATION` line per broken run) and exits non-zero on any drift or
//! violation. It names each drifted cell once, with every
//! scenario row that shares it, in `target/golden-diff/cells.diff` (the
//! artifact CI uploads). `bless` runs every cell and rewrites the one golden
//! file, so every accepted metrics change is an explicit commit; it takes no
//! names, because a shared cell belongs to several scenarios.
//!
//! `conserve` is the simulator-wide conservation sweep: it runs
//! `mmptcp::scenario::conservation_runs` over the selected scenarios — each
//! one's first fast-fidelity configuration and the extra cells no scenario
//! opens on — at seeds `1..=N` (`--seeds N`, default 16), each run once up
//! to the normal form, leaving out the runs that are golden cells (`check`
//! runs and audits those; a selection that leaves no run exits 2), and checks
//! [`mmptcp::ExperimentResults::check_conservation`] on each run — packets
//! injected must equal delivered + dropped + still-in-network, no packet
//! was unsendable or misrouted, and every completed bounded flow must have
//! delivered exactly its size. CI runs this next to the golden check.
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
//!
//! `figures` renders the paper's Figure-1 views as gnuplot `.dat` + `.gp`
//! pairs under `target/figures/` (`gnuplot <name>.gp` writes `<name>.png`
//! next to its data). Two come from the golden cells, without simulating:
//! `fig1a_fct_vs_subflows`, short-flow FCT against MPTCP subflow count
//! (the `fig1a` rows), and `fct_vs_load`, short-flow p99 against offered
//! load with one column per protocol (the `load-sweep` rows). Two come from
//! traced runs of a fast row: `cwnd_switch`, the subflow windows of the
//! first MMPTCP flow of `fig1bc`'s MMPTCP-8 row to switch from packet
//! scatter to MPTCP, and `queue_heat`, every link's queue depth over time in
//! `hotspot`'s MMPTCP-8 hotspot row. Like `check` it takes no scale, seed,
//! engine or controller flag, and like `bless` no names.

use metrics::{report, FlowSelect, RunReport, ScenarioReport, Table, TraceConfig, TraceSettings};
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

/// The golden cells document that `check` compares against and `figures`
/// plots, or why it cannot be read.
fn read_golden() -> Result<ScenarioReport, String> {
    let path = golden_path();
    let text = std::fs::read_to_string(&path).map_err(|e| e.to_string());
    text.and_then(|text| ScenarioReport::from_json(&text))
        .map_err(|e| format!("cannot read {}: {e}; run `scenarios bless`", path.display()))
}

/// `target/<sub>` at the repository root, where `check`, `trace` and
/// `figures` write.
fn target_dir(sub: &str) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../../target")
        .join(sub)
}

struct Options {
    command: Command,
    names: Vec<String>,
    threads: usize,
    fidelity: Fidelity,
    seed: Option<u64>,
    seeds: Option<u64>,
    engine: Option<Engine>,
    cc: Option<CongestionControl>,
    json: bool,
    flow: Option<u64>,
    links: bool,
}

#[derive(Clone, Copy, PartialEq)]
enum Command {
    List,
    Run,
    Check,
    Bless,
    Conserve,
    Trace,
    Figures,
}

fn usage() -> ! {
    eprintln!(
        "usage: scenarios <list|run|check|bless|conserve|trace|figures> [<name>...] [--full | --paper] \
         [--seed N] [--seeds N] [--engine packet|hybrid] [--cc reno|cubic|bbr] \
         [--threads N] [--json] [--flow ID] [--links]\n\
         run prints the table (or --json) and exits non-zero when a run breaks a \
         claim of the scenario's rows;\n\
         check/bless always run the pinned fast fidelity and reject \
         --full/--paper/--seed/--engine/--cc; check also audits conservation on every \
         cell; bless rewrites every cell and takes no names;\n\
         conserve sweeps --seeds N seeds (default 16) over every scenario's first fast \
         config and the extra cells no scenario opens on, skipping the runs that are \
         golden cells (check audits those), and checks the conservation laws, \
         optionally under an --engine or --cc override;\n\
         --seeds is conserve's only, --json run's, --flow/--links trace's; list takes \
         nothing;\n\
         trace re-runs the named scenarios with the flight recorder on and writes \
         CSV/JSON series under target/traces/ (--links adds per-link series, \
         --flow ID narrows the flow series to one flow; --seed/--engine/--cc apply);\n\
         figures writes gnuplot .dat/.gp files under target/figures/ from the golden \
         cells and two traced fast runs; like bless it takes no names or scale flags"
    );
    std::process::exit(2)
}

/// Parse the arguments that follow the program name, or name the flags
/// the command cannot take.
fn parse_args(args: impl IntoIterator<Item = String>) -> Result<Options, &'static str> {
    let mut opts = Options {
        command: Command::List,
        names: Vec::new(),
        threads: std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(4),
        fidelity: Fidelity::Fast,
        seed: None,
        seeds: None,
        engine: None,
        cc: None,
        json: false,
        flow: None,
        links: false,
    };
    let mut command = None;
    let args: Vec<String> = args.into_iter().collect();
    let bare = args.len() == 1;
    let mut args = args.into_iter();
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "list" if command.is_none() => command = Some(Command::List),
            "run" if command.is_none() => command = Some(Command::Run),
            "check" if command.is_none() => command = Some(Command::Check),
            "bless" if command.is_none() => command = Some(Command::Bless),
            "conserve" if command.is_none() => command = Some(Command::Conserve),
            "trace" if command.is_none() => command = Some(Command::Trace),
            "figures" if command.is_none() => command = Some(Command::Figures),
            "--links" => opts.links = true,
            "--flow" => {
                let Some(v) = args.next() else { usage() };
                opts.flow = Some(v.parse().unwrap_or_else(|_| usage()));
            }
            "--seeds" => {
                let Some(v) = args.next() else { usage() };
                opts.seeds = Some(v.parse().unwrap_or_else(|_| usage()));
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
            "--full" => opts.fidelity = Fidelity::Full,
            "--paper" => opts.fidelity = Fidelity::Paper,
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
    // apples to oranges, and figures plots them beside two fast rows. The
    // conservation sweep likewise always runs the fast fidelity and owns its
    // seeds (--seeds), but the conservation laws must hold under every engine
    // and controller, so it does accept --engine/--cc. A flag that shapes
    // one command's output is that command's alone.
    let command = opts.command;
    let golden = matches!(command, Command::Check | Command::Bless | Command::Figures);
    let conflict = if (golden || command == Command::Conserve)
        && (opts.fidelity != Fidelity::Fast || opts.seed.is_some())
    {
        "check/bless/conserve/figures always run the pinned fast fidelity; \
         drop --full/--paper/--seed (conserve takes --seeds N)"
    } else if golden && (opts.engine.is_some() || opts.cc.is_some()) {
        "golden cells pin each scenario's own engine and congestion-control axis; drop \
         --engine/--cc (`scenarios run <name>` and `scenarios conserve` take them)"
    } else if matches!(command, Command::Bless | Command::Figures) && !opts.names.is_empty() {
        "bless rewrites every cell (a cell can belong to several scenarios) and figures \
         renders a fixed set; drop the names"
    } else if opts.seeds.is_some() && command != Command::Conserve {
        "--seeds N is the conservation sweep's seed count; only conserve takes it \
         (run and trace take --seed N)"
    } else if opts.seeds == Some(0) {
        "--seeds N sweeps seeds 1..=N; N must be at least 1"
    } else if (opts.flow.is_some() || opts.links) && command != Command::Trace {
        "--flow ID and --links narrow and widen the flight recorder's series; only trace \
         takes them"
    } else if opts.json && command != Command::Run {
        "--json prints the canonical report of a run; only run takes it"
    } else if command == Command::List && !bare {
        "list prints the whole catalog; it takes no names or flags"
    } else {
        return Ok(opts);
    };
    Err(conflict)
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
    let mut broken_claims = 0;
    for s in select(&opts.names) {
        let mut configs = s.configs(fidelity);
        for (_, cfg) in configs.iter_mut() {
            apply_overrides(opts, cfg);
        }
        let results = Driver::with_threads(opts.threads).run_labelled(configs);
        let report = scenario::report(s.name, fidelity, &results);
        for broken in s.check_claims(&report) {
            eprintln!("BROKEN CLAIM  {broken}");
            broken_claims += 1;
        }
        if opts.json {
            print!("{}", report.to_json());
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
    ExitCode::from(u8::from(broken_claims > 0))
}

/// Check the conservation law on every run, printing a `VIOLATION` line for
/// each run that breaks it; returns how many did.
fn audit(results: &[(String, ExperimentResults)]) -> usize {
    let mut broken = 0;
    for (label, r) in results {
        if let Err(e) = r.check_conservation() {
            eprintln!("VIOLATION  {label}: {e}");
            broken += 1;
        }
    }
    broken
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
    let cells = scenario::cells(catalog()).into_iter().map(|(cell, _)| cell);
    let results = Driver::with_threads(opts.threads).run_labelled(cells.collect());
    let golden = scenario::report("cells", Fidelity::Fast, &results);
    std::fs::write(golden_path(), golden.to_json()).expect("write golden cells");
    println!("blessed {} cells into cells.json", golden.runs.len());
    ExitCode::SUCCESS
}

fn cmd_check(opts: &Options) -> ExitCode {
    let golden = match read_golden() {
        Ok(golden) => golden,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::FAILURE;
        }
    };
    let (cells, shared): (Vec<_>, Vec<Vec<String>>) =
        scenario::cells(select(&opts.names)).into_iter().unzip();
    let rows: usize = shared.iter().map(Vec::len).sum();
    let total = cells.len();
    println!("checking {total} cells, shared by {rows} rows");
    let results = Driver::with_threads(opts.threads).run_labelled(cells);
    let violations = audit(&results);
    let actual = scenario::report("cells", Fidelity::Fast, &results);
    let mut failures = Vec::new();
    for (run, rows) in actual.runs.iter().zip(&shared) {
        let expected = golden.runs.iter().find(|g| g.label == run.label);
        let mut body = match expected {
            None => format!("MISSING  {} (no such row in the golden)\n", run.label),
            Some(g) => match report::diff(&render(g), &render(run)) {
                None => continue,
                Some(d) => format!("DRIFT    {}\n{d}", run.label),
            },
        };
        for row in rows {
            body.push_str(&format!("  shared by {row}\n"));
        }
        eprint!("{body}");
        failures.push(body);
    }
    if !failures.is_empty() {
        // Uploaded as a CI artifact on failure.
        let dir = target_dir("golden-diff");
        std::fs::create_dir_all(&dir).expect("create diff dir");
        let diff_path = dir.join("cells.diff");
        let header = format!(
            "drift against {} (- expected, + actual):\n",
            golden_path().display()
        );
        std::fs::write(&diff_path, header + &failures.concat()).expect("write diff");
        let drifted = failures.len();
        eprintln!("{drifted} cells drifted (if intended, `scenarios bless`): {diff_path:?}");
    }
    if violations > 0 {
        eprintln!("{violations} of {total} cells violated conservation");
    }
    if failures.is_empty() && violations == 0 {
        println!("golden check passed: {total} cells match and conserve");
        return ExitCode::SUCCESS;
    }
    ExitCode::FAILURE
}

/// Conservation sweep: run `scenario::conservation_runs` over the selected
/// scenarios at seeds `1..=N` and check the conservation law on every run.
/// Exits non-zero (listing every violation) if any law is broken.
fn cmd_conserve(opts: &Options) -> ExitCode {
    let seeds = opts.seeds.unwrap_or(16);
    let configs =
        scenario::conservation_runs(select(&opts.names), 1..=seeds, |c| apply_overrides(opts, c));
    let total = configs.len();
    if total == 0 {
        eprintln!(
            "conserve: every run of this selection is a golden cell, which \
             `scenarios check` runs and audits; add seeds or scenarios"
        );
        return ExitCode::from(2);
    }
    println!("conservation sweep: {total} runs ({seeds} seeds)");
    let results = Driver::with_threads(opts.threads).run_labelled(configs);
    match audit(&results) {
        0 => {
            println!("conservation laws hold across all {total} runs");
            ExitCode::SUCCESS
        }
        violations => {
            eprintln!("{violations} of {total} runs violated conservation");
            ExitCode::FAILURE
        }
    }
}

/// Run `configs` with the flight recorder on, under the `--seed`,
/// `--engine` and `--cc` overrides.
fn run_traced(
    opts: &Options,
    mut configs: Vec<(String, ExperimentConfig)>,
    settings: TraceSettings,
) -> Vec<(String, ExperimentResults)> {
    for (_, cfg) in configs.iter_mut() {
        cfg.trace = TraceConfig::On(settings);
        apply_overrides(opts, cfg);
    }
    Driver::with_threads(opts.threads).run_labelled(configs)
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

/// What `--flow` and `--links` ask the flight recorder to keep.
fn trace_settings(opts: &Options) -> TraceSettings {
    TraceSettings {
        flows: match opts.flow {
            None => FlowSelect::All,
            Some(id) => FlowSelect::One(id),
        },
        links: opts.links,
    }
}

/// Flight-recorder sweep: run the selected scenarios with tracing on and
/// write each run's CSV/JSON series under `target/traces/<scenario>/<run>/`.
fn cmd_trace(opts: &Options) -> ExitCode {
    if opts.names.is_empty() {
        eprintln!("trace needs at least one scenario name; `scenarios list` shows the catalog");
        return ExitCode::from(2);
    }
    let mut empty = Vec::new();
    for s in select(&opts.names) {
        let results = run_traced(opts, s.configs(opts.fidelity), trace_settings(opts));
        let scenario_dir = target_dir("traces").join(s.name);
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
            target_dir("traces").display()
        );
        ExitCode::SUCCESS
    } else {
        eprintln!("runs with no flow samples: {}", empty.join(", "));
        ExitCode::FAILURE
    }
}

/// Between two plots of one gnuplot `plot` command.
const PLOT_SEPARATOR: &str = ", \\\n     ";

/// Write one figure file and say where.
fn write_figure(dir: &Path, name: &str, contents: String) -> Result<(), String> {
    let path = dir.join(name);
    std::fs::write(&path, contents).map_err(|e| format!("{}: {e}", path.display()))?;
    println!("wrote {}", path.display());
    Ok(())
}

/// Figure 1(a) from the golden `fig1a` rows: FCT against subflow count.
fn fig1a(dir: &Path, report: &ScenarioReport) -> Result<(), String> {
    let mut dat = String::from("# subflows  mean_ms  p99_ms   (from the golden fig1a rows)\n");
    for run in &report.runs {
        let Some(Ok(n)) = run.label.strip_prefix("mptcp-").map(str::parse::<u32>) else {
            continue;
        };
        let fct = run.short_fct;
        dat.push_str(&format!("{n} {} {}\n", fct.mean_ms, fct.p99_ms));
    }
    write_figure(dir, "fig1a_fct_vs_subflows.dat", dat)?;
    write_figure(
        dir,
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
    )
}

/// FCT against load from the golden `load-sweep` rows (labelled
/// `<protocol> @ <ms> ms`): one column per protocol, x = Poisson mean
/// inter-arrival (smaller = heavier load).
fn fct_vs_load(dir: &Path, report: &ScenarioReport) -> Result<(), String> {
    // Protocols and loads in first-appearance order.
    let mut protocols: Vec<&str> = Vec::new();
    let mut loads: Vec<u64> = Vec::new();
    let mut cells: Vec<(&str, u64, f64)> = Vec::new();
    for run in &report.runs {
        let Some((proto, rest)) = run.label.split_once(" @ ") else {
            continue;
        };
        let Some(Ok(ms)) = rest.strip_suffix(" ms").map(str::parse::<u64>) else {
            continue;
        };
        if !protocols.contains(&proto) {
            protocols.push(proto);
        }
        if !loads.contains(&ms) {
            loads.push(ms);
        }
        cells.push((proto, ms, run.short_fct.p99_ms));
    }
    loads.sort_unstable_by(|a, b| b.cmp(a)); // lightest load first
    let mut dat = format!(
        "# interarrival_ms  {}   (short-flow p99 ms, from the golden load-sweep rows)\n",
        protocols.join("  ")
    );
    for &ms in &loads {
        dat.push_str(&format!("{ms}"));
        for &proto in &protocols {
            let v = cells
                .iter()
                .find(|&&(p, l, _)| p == proto && l == ms)
                .map_or(f64::NAN, |&(_, _, v)| v);
            dat.push_str(&format!(" {v}"));
        }
        dat.push('\n');
    }
    let plots: Vec<String> = protocols
        .iter()
        .enumerate()
        .map(|(i, proto)| {
            let column = i + 2;
            format!("'fct_vs_load.dat' using 1:{column} with linespoints title '{proto}'")
        })
        .collect();
    let gp = format!(
        concat!(
            "set terminal png size 800,600\n",
            "set output 'fct_vs_load.png'\n",
            "set title 'Short-flow p99 FCT vs offered load (golden load-sweep)'\n",
            "set xlabel 'Poisson mean inter-arrival (ms; left = heavier load)'\n",
            "set ylabel 'p99 FCT (ms)'\nset key top right\nset grid\n",
            "plot {}\n",
        ),
        plots.join(PLOT_SEPARATOR)
    );
    write_figure(dir, "fct_vs_load.dat", dat)?;
    write_figure(dir, "fct_vs_load.gp", gp)
}

/// Per-subflow cwnd series of the first flow of a traced MMPTCP run to
/// switch phase, with the packet-scatter→MPTCP switch instant marked.
fn cwnd_switch(dir: &Path, (label, results): (String, ExperimentResults)) -> Result<(), String> {
    let sink = results.trace.as_ref().expect("traced run carries a sink");
    let Some((flow, at)) = sink.events().iter().find_map(|e| match *e {
        Signal::PhaseSwitched { flow, at, .. } => Some((flow.0, at)),
        _ => None,
    }) else {
        return Err(format!("cwnd_switch: no flow of '{label}' switched phase"));
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
    let plots: Vec<String> = subflows
        .iter()
        .enumerate()
        .map(|(i, &sf)| {
            let title = match sf {
                0 => "packet-scatter".to_string(),
                _ => format!("mptcp subflow {sf}"),
            };
            format!("'cwnd_switch.dat' index {i} using 1:2 with steps title '{title}'")
        })
        .collect();
    let gp = format!(
        concat!(
            "set terminal png size 900,600\n",
            "set output 'cwnd_switch.png'\n",
            "set title 'MMPTCP flow {flow}: subflow cwnd across the PS->MPTCP switch'\n",
            "set xlabel 'time (ms)'\nset ylabel 'cwnd (bytes)'\nset key top left\nset grid\n",
            "set arrow from {at}, graph 0 to {at}, graph 1 nohead dashtype 2 lc rgb 'red'\n",
            "set label 'switch' at {at}, graph 0.95 offset 1,0 tc rgb 'red'\n",
            "plot {plots}\n",
        ),
        flow = flow,
        at = at.as_millis_f64(),
        plots = plots.join(PLOT_SEPARATOR),
    );
    write_figure(dir, "cwnd_switch.dat", dat)?;
    write_figure(dir, "cwnd_switch.gp", gp)
}

/// Every link's queue-depth series of a traced run, as time × link heat data.
fn queue_heat(dir: &Path, (label, results): (String, ExperimentResults)) -> Result<(), String> {
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
    write_figure(dir, "queue_heat.dat", dat)?;
    write_figure(dir, "queue_heat.gp", gp)
}

/// Render the Figure-1 views under `target/figures/`: two from the golden
/// cells, two from traced fast rows.
fn cmd_figures(opts: &Options) -> ExitCode {
    let dir = target_dir("figures");
    let traced = |name: &str, label: &str, links: bool| {
        let scenario = find(name).expect("a catalog scenario");
        let row = scenario.configs(Fidelity::Fast).into_iter();
        let row = row.filter(|(l, _)| l == label).collect();
        println!("running traced '{name} / {label}'...");
        let settings = TraceSettings {
            links,
            ..TraceSettings::default()
        };
        let mut results = run_traced(opts, row, settings);
        results.pop().expect("the row is in the catalog")
    };
    let rendered = read_golden().and_then(|cells| {
        std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        let golden = |name| find(name).expect("a catalog scenario").reassemble(&cells);
        fig1a(&dir, &golden("fig1a")?)?;
        fct_vs_load(&dir, &golden("load-sweep")?)?;
        cwnd_switch(&dir, traced("fig1bc", "mmptcp-8 (Figure 1c)", false))?;
        queue_heat(&dir, traced("hotspot", "mmptcp-8 / hotspot", true))
    });
    match rendered {
        Ok(()) => {
            println!(
                "4 figures under {}; render with `gnuplot <name>.gp`",
                dir.display()
            );
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("figures: {e}");
            ExitCode::FAILURE
        }
    }
}

fn main() -> ExitCode {
    let opts = parse_args(std::env::args().skip(1)).unwrap_or_else(|conflict| {
        eprintln!("{conflict}");
        std::process::exit(2)
    });
    match opts.command {
        Command::List => cmd_list(),
        Command::Run => cmd_run(&opts),
        Command::Check => cmd_check(&opts),
        Command::Bless => cmd_bless(&opts),
        Command::Conserve => cmd_conserve(&opts),
        Command::Trace => cmd_trace(&opts),
        Command::Figures => cmd_figures(&opts),
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
    /// that accepts them — `trace --engine hybrid` once ran the packet engine
    /// — and the commands pinned to the fast fidelity reject the flags that
    /// leave it; those that render a fixed set reject names, and a command
    /// rejects a flag that only another command reads (`run --seeds 4` once
    /// ran one seed) or a sweep of no seeds (once quietly one).
    #[test]
    fn overrides_reach_the_config() {
        let args = |line: &str| parse_args(line.split_whitespace().map(String::from));
        let parse = |line: &str| args(line).unwrap();
        let fast_only = args("check --full").err();
        let prefix = "check/bless/conserve/figures always run";
        assert!(fast_only.as_ref().is_some_and(|e| e.starts_with(prefix)));
        for line in [
            "check --paper",
            "bless --full",
            "conserve fig1bc --paper",
            "figures --full",
        ] {
            assert_eq!(args(line).err(), fast_only, "{line}");
        }
        let no_names = args("bless fig1a").err();
        assert!(no_names.is_some_and(|e| e.ends_with("drop the names")));
        assert_eq!(args("figures fig1a").err(), no_names);
        assert!(args("run fig1bc --paper").is_ok());
        for (line, rejected) in [
            ("run fig1bc --seeds 4", "only conserve takes it"),
            ("trace fig1bc --seeds 4", "only conserve takes it"),
            ("check --seeds 4", "only conserve takes it"),
            ("conserve --seeds 0", "at least 1"),
            ("run fig1bc --flow 3", "only trace"),
            ("conserve --links", "only trace"),
            ("check --links", "only trace"),
            ("trace fig1bc --json", "only run takes it"),
            ("list --json", "only run takes it"),
            ("list fig1a", "no names or flags"),
            ("list --threads 2", "no names or flags"),
        ] {
            let err = args(line).err();
            assert!(err.is_some_and(|e| e.contains(rejected)), "{line}: {err:?}");
        }
        assert_eq!(parse("conserve --seeds 4").seeds, Some(4));
        // Both values of each `TraceSettings` field, which no catalog row
        // sets (the Options rule in `mmptcp::scenario`).
        let traced = trace_settings(&parse("trace fig1bc --flow 3 --links"));
        assert_eq!((traced.flows, traced.links), (FlowSelect::One(3), true));
        let bare = trace_settings(&parse("trace fig1bc"));
        assert_eq!((bare.flows, bare.links), (FlowSelect::All, false));
        assert!(parse("run fig1bc --json").json);
        assert!(args("list").is_ok());
        let mut config = ExperimentConfig::default();
        apply_overrides(&parse("trace fig1bc"), &mut config);
        assert_eq!(config, ExperimentConfig::default());
        let line = "trace fig1bc --seed 9 --engine hybrid --cc cubic";
        apply_overrides(&parse(line), &mut config);
        assert_eq!(config.seed, 9);
        assert_eq!(config.engine, Engine::hybrid_default());
        assert_eq!(config.transport.cc, CongestionControl::Cubic);
    }

    /// The golden-fed figures skip runs whose label they cannot parse; the
    /// committed goldens must leave them nothing to skip.
    #[test]
    fn extractor_handles_the_committed_goldens() {
        let cells = read_golden().unwrap();
        let golden = |name| find(name).unwrap().reassemble(&cells).unwrap();
        let dir = std::env::temp_dir().join(format!("scenarios-figures-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let fig1a_golden = golden("fig1a");
        fig1a(&dir, &fig1a_golden).unwrap();
        fct_vs_load(&dir, &golden("load-sweep")).unwrap();
        let rows = |name: &str| -> Vec<Vec<f64>> {
            let text = std::fs::read_to_string(dir.join(name)).unwrap();
            let data = text.lines().filter(|line| !line.starts_with('#'));
            let row = |line: &str| line.split(' ').map(|v| v.parse().unwrap()).collect();
            data.map(row).collect()
        };
        let subflows = rows("fig1a_fct_vs_subflows.dat");
        assert_eq!(fig1a_golden.runs.len(), 3);
        assert_eq!(subflows.len(), fig1a_golden.runs.len(), "{subflows:?}");
        let loads = rows("fct_vs_load.dat");
        assert_eq!(loads.len(), 2, "two loads: {loads:?}");
        for row in &loads {
            // The inter-arrival, then one p99 per protocol, none missing.
            assert_eq!(row.len(), 1 + 2, "{row:?}");
            assert!(row.iter().all(|v| v.is_finite()), "{row:?}");
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
