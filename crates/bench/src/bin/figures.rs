//! The one figure driver: `figures [<id>…] [--full] [--json] [--check]`.
//!
//! Runs the named figures (all fourteen if none is named) at default sizes, or
//! at paper scale with `--full`, and prints their rows as text tables — or,
//! with `--json`, as one JSON object per row on stdout (verdicts then go to
//! stderr). Every predicate of the figures that ran is evaluated against
//! `docs/FIGURES.json`; with `--check` a verdict that differs from the
//! committed one makes the exit code non-zero (marginal ones never do), and
//! so does, at default scale, a figure whose rows differ from its committed
//! `docs/figures/<id>.jsonl` (a figure without that file is not diffed).
//! `figures --render-docs` runs nothing: it prints the predicate rows of
//! `docs/FIGURES.md` and the text of `docs/FIGURES.json` that the
//! expectations in the code call for.

use std::process::ExitCode;

use workshare_bench::figures::{Scale, FIGURES};
use workshare_bench::predicates::{check, doc_row, expected_json, COMMITTED, PREDICATES};
use workshare_bench::{diff_rows, pivot, COMMITTED_ROWS_DIR};

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
    let (mut rows, mut rows_moved) = (Vec::new(), 0);
    for figure in &FIGURES {
        if !ids.is_empty() && !ids.iter().any(|id| id == figure.id) {
            continue;
        }
        let of_figure = (figure.run)(scale);
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
