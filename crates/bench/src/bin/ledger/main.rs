//! `ledger` — the two-clock benchmark of the workshare engine.
//!
//! Every number is on one of two clocks: **V**, virtual time charged to the
//! simulated machine (what the paper's figures are drawn in), or **W**, host
//! wall time (what the Rust costs). See `README.md` beside this file for the
//! workloads, the metrics and how they interact.
//!
//! ```text
//! ledger --workload <name>|all [--seed N] [--seconds S] [--trace [0|1]] [--out FILE]
//! ledger --selfcheck [--seed N] [--seconds S] [--out DIR]
//! ```
//!
//! The last line of standard output is one JSON object with the keys
//! `correct`, `attempted`, `failed` and `metrics`: the end-to-end metrics
//! without `--trace`, the per-layer metrics with it. The exit code is 0 only
//! when the results were correct and nothing failed.

mod adapter;
mod host;
mod json;
mod layers;
mod metrics;
mod run;
mod trace;
mod workloads;

use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};

use json::{metrics_from_json, metrics_to_json, Json, MetricValues};
use metrics::{breaches, worse_by, END_TO_END};
use workloads::SHAPES;

/// How long one run measures unless `--seconds` says otherwise; also
/// `run_seconds` in `BENCHMARK.json`.
pub const DEFAULT_SECONDS: f64 = 24.0;
const DEFAULT_SEED: u64 = 1;

struct Args {
    workload: Option<String>,
    selfcheck: bool,
    seed: u64,
    seconds: f64,
    trace: bool,
    out: Option<PathBuf>,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        selfcheck: false,
        seed: DEFAULT_SEED,
        seconds: DEFAULT_SECONDS,
        trace: false,
        out: None,
    };
    let mut it = argv.iter().peekable();
    while let Some(flag) = it.next() {
        let mut value = |what: &str| it.next().ok_or(format!("{flag} needs {what}"));
        match flag.as_str() {
            "--workload" => args.workload = Some(value("a workload name")?.clone()),
            "--seed" => {
                args.seed = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?;
            }
            "--seconds" => {
                args.seconds = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(args.seconds > 0.0 && args.seconds <= 60.0) {
                    return Err("--seconds must be in (0, 60]".into());
                }
            }
            "--out" => args.out = Some(PathBuf::from(value("a path")?)),
            "--selfcheck" => args.selfcheck = true,
            // `--trace` alone turns tracing on; `--trace 0|1` sets it.
            "--trace" => {
                args.trace = match it.peek().map(|s| s.as_str()) {
                    Some("0") => {
                        it.next();
                        false
                    }
                    Some("1") => {
                        it.next();
                        true
                    }
                    _ => true,
                }
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if args.selfcheck == args.workload.is_some() {
        return Err("give either --workload <name>|all or --selfcheck".into());
    }
    Ok(args)
}

fn result_json(outcome: &run::Outcome) -> Json {
    Json::obj([
        ("correct", Json::Bool(outcome.correct)),
        ("attempted", Json::Num(outcome.attempted as f64)),
        ("failed", Json::Num(outcome.failed as f64)),
        ("metrics", metrics_to_json(&outcome.metrics)),
    ])
}

fn write_file(path: &Path, text: &str) -> Result<(), String> {
    let written = match path.parent() {
        Some(dir) if !dir.as_os_str().is_empty() => std::fs::create_dir_all(dir),
        _ => Ok(()),
    }
    .and_then(|()| std::fs::write(path, text));
    written.map_err(|e| format!("{}: {e}", path.display()))
}

/// `<out>.trace.json`: every span of the traced run.
fn write_trace(out: &Path, spans: &[trace::Span]) -> Result<(), String> {
    let selfs = trace::self_times(spans);
    let rows: Vec<String> = spans
        .iter()
        .zip(selfs)
        .map(|(s, self_ns)| {
            Json::obj([
                ("name", Json::Str(s.name.into())),
                ("start_ns", Json::Num(s.start_ns as f64)),
                ("end_ns", Json::Num(s.end_ns as f64)),
                ("self_ns", Json::Num(self_ns as f64)),
                (
                    "parent",
                    if s.parent == trace::ROOT {
                        Json::Null
                    } else {
                        Json::Num(f64::from(s.parent))
                    },
                ),
                ("request", Json::Num(s.request as f64)),
            ])
            .render()
        })
        .collect();
    let mut path = out.as_os_str().to_owned();
    path.push(".trace.json");
    write_file(Path::new(&path), &format!("[\n{}\n]\n", rows.join(",\n")))
}

/// One workload in this process. Prints the report and the result line.
fn run_one(name: &str, args: &Args) -> Result<bool, String> {
    let shape = workloads::shape(name).ok_or_else(|| {
        let names: Vec<_> = SHAPES.iter().map(|s| s.name).collect();
        format!(
            "unknown workload {name}; the workloads are {}",
            names.join(", ")
        )
    })?;
    // Before the first thread is started: both settings are inherited.
    let host_notes = host::steady();
    let outcome = run::run_workload(shape, args.seed, args.seconds, args.trace);
    for line in host_notes.iter().chain(&outcome.notes) {
        println!("{line}");
    }
    for fault in &outcome.faults {
        println!("  FAULT: {fault}");
    }
    let line = result_json(&outcome).render();
    if let Some(out) = &args.out {
        write_file(out, &format!("{line}\n"))?;
        if args.trace {
            write_trace(out, &outcome.spans)?;
        }
    }
    println!("{line}");
    Ok(outcome.correct)
}

/// One workload's result as a child process printed it.
struct ChildResult {
    name: &'static str,
    correct: bool,
    attempted: f64,
    failed: f64,
    metrics: MetricValues,
}

/// Run every workload, each in a process of its own so that
/// `host_peak_rss_mb` is that workload's and not the largest so far.
fn run_all(args: &Args) -> Result<Vec<ChildResult>, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut results = Vec::new();
    for shape in &SHAPES {
        let output = Command::new(&exe)
            .args(["--workload", shape.name])
            .args(["--seed", &args.seed.to_string()])
            .args(["--seconds", &args.seconds.to_string()])
            .args(["--trace", if args.trace { "1" } else { "0" }])
            .stderr(Stdio::inherit())
            .output()
            .map_err(|e| format!("{}: {e}", exe.display()))?;
        let stdout = String::from_utf8_lossy(&output.stdout);
        print!("{stdout}");
        let line = stdout.lines().last().unwrap_or_default();
        let parsed = Json::parse(line).map_err(|e| format!("{}: result line: {e}", shape.name))?;
        let field = |key: &str| parsed.get(key).ok_or(format!("{}: no {key}", shape.name));
        results.push(ChildResult {
            name: shape.name,
            correct: field("correct")?.as_bool() == Some(true) && output.status.success(),
            attempted: field("attempted")?.as_f64().unwrap_or(f64::NAN),
            failed: field("failed")?.as_f64().unwrap_or(f64::NAN),
            metrics: metrics_from_json(field("metrics")?)?,
        });
    }
    Ok(results)
}

/// The result file of a whole set: one schema for `--out` and `baseline/`.
fn set_json(args: &Args, results: &[ChildResult]) -> String {
    let workloads: Vec<String> = results
        .iter()
        .map(|r| {
            let fields = Json::obj([
                ("name", Json::Str(r.name.into())),
                ("correct", Json::Bool(r.correct)),
                ("attempted", Json::Num(r.attempted)),
                ("failed", Json::Num(r.failed)),
                ("metrics", metrics_to_json(&r.metrics)),
            ]);
            format!("    {}", fields.render())
        })
        .collect();
    format!(
        "{{\n  \"schema\": \"ledger/1\",\n  \"seed\": {},\n  \"seconds\": {},\n  \"trace\": {},\n  \"host_cores\": {},\n  \"workloads\": [\n{}\n  ]\n}}\n",
        args.seed,
        args.seconds,
        args.trace,
        std::thread::available_parallelism().map_or(0, usize::from),
        workloads.join(",\n")
    )
}

/// Run the full set twice and hold the second against the first, metric by
/// metric, with the benchmark's own bounds.
fn selfcheck(args: &Args) -> Result<bool, String> {
    let first = run_all(args)?;
    let second = run_all(args)?;
    if let Some(dir) = &args.out {
        write_file(&dir.join("run-a.json"), &set_json(args, &first))?;
        write_file(&dir.join("run-b.json"), &set_json(args, &second))?;
    }
    let mut ok = true;
    println!(
        "\n{:<14} {:<20} {:>16} {:>16} {:>9} {:>7}  verdict",
        "workload", "metric", "run a", "run b", "worse by", "bound"
    );
    for (a, b) in first.iter().zip(&second) {
        for m in &END_TO_END {
            let (va, vb) = (a.metrics[m.name].0, b.metrics[m.name].0);
            let breach = breaches(m, va, vb);
            ok &= !breach;
            println!(
                "{:<14} {:<20} {:>16.6} {:>16.6} {:>8.2}% {:>6.0}%  {}",
                a.name,
                m.name,
                va,
                vb,
                100.0 * worse_by(m.better, va, vb),
                100.0 * m.bound,
                if breach { "BREACH" } else { "ok" }
            );
        }
        // failed_share has no bound to spend: any failure is a breach.
        for (run, r) in [("a", a), ("b", b)] {
            if !r.correct || r.failed > 0.0 {
                ok = false;
                println!(
                    "{:<14} run {run}: {} of {} failed, correct = {}",
                    r.name, r.failed, r.attempted, r.correct
                );
            }
        }
    }
    println!("selfcheck: {}", if ok { "within bounds" } else { "BREACH" });
    Ok(ok)
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let done = parse_args(&argv).and_then(|args| {
        if args.selfcheck {
            selfcheck(&args)
        } else if args.workload.as_deref() == Some("all") {
            let results = run_all(&args)?;
            if let Some(out) = &args.out {
                write_file(out, &set_json(&args, &results))?;
            }
            Ok(results.iter().all(|r| r.correct))
        } else {
            run_one(args.workload.as_deref().unwrap_or_default(), &args)
        }
    });
    match done {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(message) => {
            eprintln!("ledger: {message}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(words: &[&str]) -> Result<Args, String> {
        parse_args(&words.iter().map(|w| w.to_string()).collect::<Vec<_>>())
    }

    #[test]
    fn the_drivers_command_line_parses() {
        let a = parse(&[
            "--workload",
            "lone1",
            "--seed",
            "7",
            "--seconds",
            "24",
            "--trace",
            "0",
        ])
        .unwrap();
        assert_eq!(
            (a.workload.as_deref(), a.seed, a.seconds, a.trace),
            (Some("lone1"), 7, 24.0, false)
        );
        assert!(
            parse(&["--workload", "lone1", "--trace", "1"])
                .unwrap()
                .trace
        );
        assert!(parse(&["--workload", "lone1", "--trace"]).unwrap().trace);
        assert!(parse(&["--trace", "--workload", "all"]).unwrap().trace);
    }

    #[test]
    fn bad_command_lines_are_refused() {
        assert!(parse(&[]).is_err());
        assert!(parse(&["--workload", "all", "--selfcheck"]).is_err());
        assert!(parse(&["--workload", "all", "--seconds", "0"]).is_err());
        assert!(parse(&["--workload", "all", "--seconds", "61"]).is_err());
        assert!(parse(&["--workload", "all", "--seed"]).is_err());
        assert!(parse(&["--workload", "all", "--bogus"]).is_err());
    }
}
