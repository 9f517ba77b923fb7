//! The one figure driver: `figures [<id>…] [--full] [--json] [--check]`.
//!
//! Runs the named figures (all fourteen if none is named) at default sizes, or
//! at paper scale with `--full`, and prints their rows as text tables — or,
//! with `--json`, as one JSON object per row on stdout (verdicts then go to
//! stderr). The figures run on one worker thread per available CPU; each
//! builds its own simulated machines, so its rows do not depend on the
//! thread it runs on, and everything is printed and checked in `FIGURES`
//! order once all have run. Every predicate of the figures that ran is
//! evaluated against `docs/FIGURES.json`; with `--check` a verdict that
//! differs from the committed one makes the exit code non-zero, and so does,
//! at default scale, a figure whose rows differ from its committed
//! `docs/figures/<id>.jsonl` (a figure without that file is not diffed).
//! `figures --render-docs` runs nothing: it prints the predicate rows of
//! `docs/FIGURES.md` and the text of `docs/FIGURES.json` that the
//! expectations in the code call for.

use std::process::ExitCode;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

use workshare_bench::figures::{Figure, Scale, FIGURES};
use workshare_bench::predicates::{check, doc_row, expected_json, COMMITTED, PREDICATES};
use workshare_bench::{diff_rows, pivot, Row, COMMITTED_ROWS_DIR};

/// The rows of each of `figures`, in order, run on one worker per available
/// CPU: the workers take figures by index from one counter.
fn run_all(figures: &[&Figure], scale: Scale) -> Vec<Vec<Row>> {
    let next = AtomicUsize::new(0);
    let ran = Mutex::new(vec![None; figures.len()]);
    let workers = std::thread::available_parallelism().map_or(1, |n| n.get());
    std::thread::scope(|s| {
        for _ in 0..workers.min(figures.len()) {
            s.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                let Some(figure) = figures.get(i) else { break };
                let rows = (figure.run)(scale);
                ran.lock().unwrap()[i] = Some(rows);
            });
        }
    });
    let ran = ran.into_inner().unwrap();
    ran.into_iter().map(|rows| rows.expect("every figure ran")).collect()
}

fn main() -> ExitCode {
    let (mut scale, mut json, mut gate) = (Scale::Default, false, false);
    let mut ids = Vec::new();
    for arg in std::env::args().skip(1) {
        match arg.as_str() {
            "--full" => scale = Scale::Full,
            "--json" => json = true,
            "--check" => gate = true,
            "--render-docs" => {
                PREDICATES.iter().for_each(|p| println!("{}", doc_row(p)));
                print!("docs/FIGURES.json:\n{}", expected_json(PREDICATES));
                return ExitCode::SUCCESS;
            }
            id if FIGURES.iter().any(|f| f.id == id) => ids.push(arg),
            other => {
                let known: Vec<_> = FIGURES.iter().map(|f| f.id).collect();
                eprintln!(
                    "figures: unknown argument {other:?}; figures are {}",
                    known.join(" ")
                );
                return ExitCode::from(2);
            }
        }
    }
    let selected: Vec<&Figure> = FIGURES
        .iter()
        .filter(|f| ids.is_empty() || ids.iter().any(|id| id == f.id))
        .collect();
    let (mut rows, mut rows_moved) = (Vec::new(), 0);
    for (figure, of_figure) in selected.iter().zip(run_all(&selected, scale)) {
        if json {
            of_figure
                .iter()
                .for_each(|r| println!("{}", r.to_json().render()));
        } else {
            print!(
                "\n=== {} — {}\n{}",
                figure.id,
                figure.title,
                pivot(&of_figure)
            );
        }
        if gate && scale == Scale::Default {
            let path = format!("{COMMITTED_ROWS_DIR}/{}.jsonl", figure.id);
            if let Ok(committed) = std::fs::read_to_string(&path) {
                if let Some(diff) = diff_rows(&of_figure, &committed) {
                    eprintln!(
                        "figures: {} rows differ from docs/figures/{}.jsonl: {diff}",
                        figure.id, figure.id
                    );
                    rows_moved += 1;
                }
            }
        }
        rows.extend(of_figure);
    }
    let (verdicts, moved) = match check(PREDICATES, &rows, COMMITTED) {
        Ok(report) => report,
        Err(e) => {
            eprintln!("figures: {e}");
            return ExitCode::FAILURE;
        }
    };
    if json {
        eprint!("{verdicts}");
    } else {
        print!("\n=== verdicts (expectations: docs/FIGURES.json)\n{verdicts}");
    }
    if moved > 0 {
        eprintln!("figures: {moved} verdict(s) differ from docs/FIGURES.json");
    }
    if (moved > 0 || rows_moved > 0) && gate {
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}
