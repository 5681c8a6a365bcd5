//! The simulator's benchmark: four workloads through the user path
//! (`mmptcp::Driver` / `mmptcp::run`), five end-to-end metrics measured with
//! tracing off, and a traced pass plus layer kernels for the per-layer
//! ledger. See `README.md` beside this package.

mod document;
mod json;
mod kernels;
mod measure;
mod spec;
mod staged;
mod stats;
mod traced;
mod workloads;

use json::Json;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};
use workloads::WorkloadId;

const USAGE: &str = "\
usage:
  benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1> [--quick] [--detail <file>]
      one pass over one workload; the last line of output is the result as JSON
      (--trace 0: end-to-end metrics, tracing off; --trace 1: per-layer metrics)
  benchmark run [--seed <n>] [--seconds <s>] [--quick] [--out <file>]
      both passes over every workload, one child process each, into one document
  benchmark compare <a.json> <b.json>
      judge run document b against baseline a; fails on a regression
workloads: fig1_mmptcp mice_storm_tcp elephants_hybrid battle_sweep";

struct Args {
    positional: Vec<String>,
    workload: Option<WorkloadId>,
    seed: u64,
    seconds: f64,
    trace: bool,
    quick: bool,
    detail: Option<PathBuf>,
    out: Option<PathBuf>,
}

fn parse_args(raw: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut args = Args {
        positional: Vec::new(),
        workload: None,
        seed: 1,
        seconds: spec::spec().run_seconds,
        trace: false,
        quick: false,
        detail: None,
        out: None,
    };
    let mut raw = raw.peekable();
    while let Some(arg) = raw.next() {
        let mut value = |what: &str| raw.next().ok_or(format!("{arg} needs {what}"));
        match arg.as_str() {
            "--workload" => {
                let name = value("a workload name")?;
                let id = WorkloadId::parse(&name).ok_or(format!("unknown workload '{name}'"))?;
                args.workload = Some(id);
            }
            "--seed" => {
                args.seed = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?;
            }
            "--seconds" => {
                let s: f64 = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 3600.0) {
                    return Err("--seconds must be within (0, 3600]".into());
                }
                args.seconds = s;
            }
            "--trace" => {
                args.trace = match value("0 or 1")?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not '{other}'")),
                };
            }
            "--quick" => args.quick = true,
            "--detail" => args.detail = Some(value("a file name")?.into()),
            "--out" => args.out = Some(value("a file name")?.into()),
            flag if flag.starts_with("--") => return Err(format!("unknown option {flag}")),
            _ => args.positional.push(arg),
        }
    }
    Ok(args)
}

fn write_doc(path: &Path, doc: &Json) -> Result<(), String> {
    std::fs::write(path, doc.render() + "\n").map_err(|e| format!("{}: {e}", path.display()))
}

fn read_doc(path: &Path) -> Result<Json, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    Json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))
}

/// One pass over one workload. Returns whether its outputs were correct.
fn pass(id: WorkloadId, args: &Args) -> Result<bool, String> {
    let length = if args.quick {
        "quick".to_string()
    } else {
        format!("{} s", args.seconds)
    };
    println!(
        "{}: seed {}, {length}, tracing {}",
        id.name(),
        args.seed,
        if args.trace { "on" } else { "off" }
    );
    let (doc, outcome, line) = if args.trace {
        let t = traced::traced(id, args.seed, args.quick, args.seconds);
        for (name, unit, value) in &t.per_layer {
            println!("  {name:<44}{value:>18.6} {unit}");
        }
        println!("  spans recorded: {}", t.spans.len());
        let line = document::contract_line(&t.outcome, &t.per_layer, 1);
        (document::traced_doc(id, &t), t.outcome, line)
    } else {
        let u = measure::untraced(id, args.seed, args.quick, args.seconds);
        let mut medians = Vec::new();
        for (m, samples) in document::end_to_end_samples(&u) {
            let median = stats::median(&samples);
            println!(
                "  {:<14}{median:>14.6} {:<5} (n={}, min {:.6}, max {:.6}; {} is better, bound {:.0}%)",
                m.name,
                m.unit,
                samples.len(),
                stats::min(&samples),
                stats::max(&samples),
                m.better.label(),
                m.bound * 100.0
            );
            medians.push((m.name.as_str(), m.unit.as_str(), median));
        }
        let line = document::contract_line(&u.outcome, &medians, u.wall_s.len() as u64);
        (document::untraced_doc(id, &u), u.outcome, line)
    };
    println!(
        "  flows_attempted {}, flows_failed {}, sim_digest {:#018x}",
        outcome.attempted,
        outcome.failed(),
        outcome.digest
    );
    for violation in &outcome.violations {
        eprintln!("  VIOLATION: {violation}");
    }
    if let Some(path) = &args.detail {
        write_doc(path, &doc)?;
    }
    println!("{line}");
    Ok(outcome.failed() == 0)
}

fn first_line_of(program: &str, arguments: &[&str], dir: &Path) -> String {
    Command::new(program)
        .args(arguments)
        .current_dir(dir)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .and_then(|s| s.lines().next().map(str::to_string))
        .unwrap_or_else(|| "unknown".into())
}

/// What the numbers were measured on, so two documents can be told apart.
fn host_fingerprint(args: &Args) -> Json {
    let package = Path::new(env!("CARGO_MANIFEST_DIR"));
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, model)| model.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into());
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let unix_secs = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map_or(0, |d| d.as_secs());
    Json::obj([
        ("nproc", Json::Num(nproc as f64)),
        ("cpu", Json::Str(cpu)),
        ("rustc", Json::Str(first_line_of("rustc", &["-V"], package))),
        (
            "git",
            Json::Str(first_line_of("git", &["rev-parse", "HEAD"], package)),
        ),
        ("seed", Json::Num(args.seed as f64)),
        ("seconds_per_pass", Json::Num(args.seconds)),
        ("sweep_threads", Json::Num(workloads::SWEEP_THREADS as f64)),
        ("unix_secs", Json::Num(unix_secs as f64)),
    ])
}

/// Both passes over every workload, each in a child process of its own (so
/// `peak_rss_mb` is that workload's alone), strictly one after another.
fn run(args: &Args) -> Result<bool, String> {
    let results = Path::new(env!("CARGO_MANIFEST_DIR")).join("results");
    std::fs::create_dir_all(&results).map_err(|e| format!("{}: {e}", results.display()))?;
    let suffix = if args.quick { "-quick" } else { "" };
    let out = args
        .out
        .clone()
        .unwrap_or_else(|| results.join(format!("run-seed{}{suffix}.json", args.seed)));
    let exe = std::env::current_exe().map_err(|e| format!("own executable: {e}"))?;
    let part = results.join(format!(".pass-{}.json", std::process::id()));

    let mut all_correct = true;
    let mut workloads = Vec::new();
    let mut spans = Vec::new();
    for name in &spec::spec().workloads {
        let id = WorkloadId::parse(name).ok_or(format!(
            "BENCHMARK.json lists '{name}', which is no workload"
        ))?;
        let mut passes = Vec::new();
        for trace in ["0", "1"] {
            let mut child = Command::new(&exe);
            child
                .args(["--workload", id.name(), "--trace", trace])
                .args(["--seed", &args.seed.to_string()])
                .args(["--seconds", &args.seconds.to_string()])
                .arg("--detail")
                .arg(&part);
            if args.quick {
                child.arg("--quick");
            }
            let status = child
                .status()
                .map_err(|e| format!("{}: {e}", exe.display()))?;
            all_correct &= status.success();
            passes.push(read_doc(&part)?);
            std::fs::remove_file(&part).map_err(|e| format!("{}: {e}", part.display()))?;
        }
        let (untraced, traced) = (&passes[0], &passes[1]);
        if untraced.get("sim_digest") != traced.get("sim_digest") {
            eprintln!("{}: the two passes disagree on sim_digest", id.name());
            all_correct = false;
        }
        let mut entry = untraced.members().to_vec();
        entry.push((
            "per_layer".into(),
            traced.get("per_layer").cloned().unwrap_or(Json::Null),
        ));
        entry.push((
            "traced_violations".into(),
            traced.get("violations").cloned().unwrap_or(Json::Null),
        ));
        workloads.push(Json::Obj(entry));
        spans.push((
            id.name(),
            traced.get("spans").cloned().unwrap_or(Json::Null),
        ));
    }

    let doc = Json::obj([
        ("schema", Json::str(document::SCHEMA)),
        ("quick", Json::Bool(args.quick)),
        ("correct", Json::Bool(all_correct)),
        ("host", host_fingerprint(args)),
        ("workloads", Json::Arr(workloads)),
    ]);
    write_doc(&out, &doc)?;
    let spans_out = out.with_extension("spans.json");
    write_doc(&spans_out, &Json::obj(spans))?;
    println!("wrote {} and {}", out.display(), spans_out.display());
    Ok(all_correct)
}

fn compare(a: &str, b: &str) -> Result<bool, String> {
    let (table, pass) = document::compare(&read_doc(Path::new(a))?, &read_doc(Path::new(b))?)?;
    print!("{table}");
    Ok(pass)
}

fn main() -> ExitCode {
    let outcome = parse_args(std::env::args().skip(1)).and_then(|args| {
        let positional: Vec<&str> = args.positional.iter().map(String::as_str).collect();
        match (positional.as_slice(), args.workload) {
            ([], Some(id)) => pass(id, &args),
            (["run"], None) => run(&args),
            (["compare", a, b], None) => compare(a, b),
            _ => Err(USAGE.into()),
        }
    });
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(message) => {
            eprintln!("{message}");
            ExitCode::from(2)
        }
    }
}
