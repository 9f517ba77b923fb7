//! The paper's conclusions as executable predicates over figure rows.
//!
//! Each [`Predicate`] names one sentence of the paper, the panel of the
//! figure that shows it, a check over that panel's rows and the verdict
//! expected today. A known miss is `Fails { since }` — a recorded
//! expectation, not a silent one — and a predicate whose margin at today's
//! numbers is under 5 % is `Marginal`: printed, never gated, because until
//! ROADMAP item 1 lands a batch's virtual numbers repeat only to 0.2 %
//! (disk-resident ones to a few %) and closed-loop ones wander by several %.
//! `figures --check` compares what it measures with the committed
//! `docs/FIGURES.json`, which a test holds equal to the expectations written
//! here, so an engine change that moves a conclusion shows up as a diff of
//! verdicts.

use std::fmt::Write as _;
use std::ops::RangeBounds;

use crate::json::Json;
use crate::{distinct, pivot, Row};

/// The verdict a predicate is expected to have today.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Expected {
    Holds,
    /// Known not to reproduce since PR `since` (21: found when the
    /// predicates were first written down; the miss may be older).
    Fails {
        since: u32,
    },
    /// Within 5 % of flipping at today's numbers: reported, not gated.
    Marginal,
}
use Expected::{Fails, Holds, Marginal};

pub struct Predicate {
    /// `<figure>.<what_the_paper_says>`.
    pub id: &'static str,
    /// The panel the check reads — the rows printed when a verdict moves.
    pub panel: &'static str,
    /// The paper's sentence, with where it is said.
    pub paper_claim: &'static str,
    /// Over the rows of the figure's `panel` only. A missing cell reads as
    /// NaN, so a comparison with it is false.
    pub check: fn(&[Row]) -> bool,
    pub expected: Expected,
}

impl Predicate {
    pub fn figure(&self) -> &'static str {
        self.id.split('.').next().unwrap_or(self.id)
    }

    /// (`holds` / `fails` / `marginal`, the PR a miss is known since).
    fn verdict(&self) -> (&'static str, Option<u32>) {
        match self.expected {
            Holds => ("holds", None),
            Fails { since } => ("fails", Some(since)),
            Marginal => ("marginal", None),
        }
    }
}

/// The predicate's row in its figure's table of `docs/FIGURES.md`
/// (`figures --render-docs` prints them all).
pub fn doc_row(p: &Predicate) -> String {
    let (verdict, since) = p.verdict();
    let since = since.map_or("—".into(), |pr| format!("PR {pr}"));
    format!("| `{}` | {} | {verdict} | {since} |", p.id, p.paper_claim)
}

/// What `docs/FIGURES.json` must contain for `predicates`: one object per
/// line, so a verdict that moves is a one-line diff.
pub fn expected_json(predicates: &[Predicate]) -> String {
    let line = |p: &Predicate| {
        let (verdict, since) = p.verdict();
        let since = since.map_or(Json::Null, |pr| Json::Num(pr.into()));
        let id = ("id", Json::Str(p.id.into()));
        Json::obj([id, ("verdict", Json::Str(verdict.into())), ("since", since)]).render()
    };
    let lines: Vec<String> = predicates.iter().map(line).collect();
    format!("[\n{}\n]\n", lines.join(",\n"))
}

/// The committed expectations `figures --check` compares against.
pub const COMMITTED: &str = include_str!("../../../docs/FIGURES.json");

/// Evaluate every predicate of `predicates` whose figure has rows in `rows`
/// and compare its verdict with the one `committed` (the text of
/// `docs/FIGURES.json`) records for it. Returns what to print and how many
/// verdicts moved: a `marginal` entry is reported and never counts; any other
/// difference — or a predicate the file does not name — is a mismatch,
/// printed with the paper's sentence and the rows the check read.
pub fn check(
    predicates: &[Predicate],
    rows: &[Row],
    committed: &str,
) -> Result<(String, usize), String> {
    let committed = Json::parse(committed).map_err(|e| format!("docs/FIGURES.json: {e}"))?;
    let Json::Arr(entries) = &committed else {
        return Err("docs/FIGURES.json is not an array".into());
    };
    let (mut out, mut mismatches) = (String::new(), 0);
    for p in predicates {
        let mut of_figure = rows.iter().filter(|r| r.figure == p.figure()).peekable();
        if of_figure.peek().is_none() {
            continue;
        }
        let evidence: Vec<Row> = of_figure.filter(|r| r.panel == p.panel).cloned().collect();
        let measured = if (p.check)(&evidence) {
            "holds"
        } else {
            "fails"
        };
        let entry = entries
            .iter()
            .find(|e| e.get("id").and_then(Json::as_str) == Some(p.id));
        let field = |name| entry.and_then(|e| e.get(name));
        let since = field("since")
            .and_then(Json::as_f64)
            .map_or(String::new(), |pr| format!(" since PR {pr}"));
        let _ = match field("verdict").and_then(Json::as_str) {
            Some("marginal") => writeln!(out, "marginal  {}: {measured} today, not gated", p.id),
            Some(recorded) if recorded == measured => {
                writeln!(out, "{measured:<8}  {}{since}", p.id)
            }
            recorded => {
                mismatches += 1;
                let recorded = recorded.map_or("nothing".into(), |v| format!("{v}{since}"));
                let table = pivot(&evidence).replace('\n', "\n          ");
                writeln!(
                    out,
                    "MISMATCH  {}: measured {measured}, docs/FIGURES.json records {recorded}\n          paper: {}{table}",
                    p.id, p.paper_claim,
                )
            }
        };
    }
    Ok((out, mismatches))
}

// ---- what the checks are written in ----------------------------------------

/// The cell at (`x`, `series`), NaN if the panel has none.
fn at(rows: &[Row], x: &str, series: &str) -> f64 {
    let hit = rows.iter().find(|r| r.x == x && r.series == series);
    hit.map_or(f64::NAN, |r| r.value)
}

/// The sweep points of the panel, in order.
fn xs(rows: &[Row]) -> Vec<&str> {
    distinct(rows.iter().map(|r| r.x.as_str()))
}

fn first(rows: &[Row]) -> &str {
    xs(rows).first().copied().unwrap_or("")
}

fn top(rows: &[Row]) -> &str {
    xs(rows).last().copied().unwrap_or("")
}

/// `holds` at every sweep point whose numeric value is in `keep`, of which
/// there must be one (non-numeric points such as `random` are skipped).
fn wherever(rows: &[Row], keep: impl RangeBounds<f64>, holds: impl Fn(&str) -> bool) -> bool {
    let numeric = |x: &&str| x.parse::<f64>().is_ok_and(|v| keep.contains(&v));
    let points: Vec<&str> = xs(rows).into_iter().filter(numeric).collect();
    !points.is_empty() && points.iter().all(|x| holds(x))
}

/// `holds` at every sweep point, of which there must be one.
fn everywhere(rows: &[Row], holds: impl Fn(&str) -> bool) -> bool {
    !rows.is_empty() && xs(rows).into_iter().all(holds)
}

/// `a` is strictly below `b` at `x`.
fn below(rows: &[Row], x: &str, a: &str, b: &str) -> bool {
    at(rows, x, a) < at(rows, x, b)
}

/// `a` is at most `factor` × `b` at `x`.
fn within(rows: &[Row], x: &str, a: &str, factor: f64, b: &str) -> bool {
    at(rows, x, a) <= factor * at(rows, x, b)
}

/// `a` is strictly below every one of `others` at `x`.
fn lowest(rows: &[Row], x: &str, a: &str, others: &[&str]) -> bool {
    others.iter().all(|o| below(rows, x, a, o))
}

/// Largest over smallest of a series over the whole sweep; NaN if the
/// panel is empty or a cell is missing.
fn spread(rows: &[Row], series: &str) -> f64 {
    let values: Vec<f64> = xs(rows).into_iter().map(|x| at(rows, x, series)).collect();
    let max = values.iter().copied().fold(f64::NAN, f64::max);
    let min = values.iter().copied().fold(f64::NAN, f64::min);
    let complete = values.iter().all(|v| !v.is_nan());
    if complete {
        max / min
    } else {
        f64::NAN
    }
}

/// Mean per-unit-of-x slope of `series` between consecutive sweep points,
/// and the largest relative deviation of one of them from that mean.
fn slope(rows: &[Row], series: &str) -> (f64, f64) {
    let points: Vec<(f64, f64)> = xs(rows)
        .iter()
        .filter_map(|x| Some((x.parse().ok()?, at(rows, x, series))))
        .collect();
    let slopes: Vec<f64> = points
        .windows(2)
        .map(|w| (w[1].1 - w[0].1) / (w[1].0 - w[0].0))
        .collect();
    let mean = slopes.iter().sum::<f64>() / slopes.len() as f64;
    (
        mean,
        slopes
            .iter()
            .map(|k| (k - mean).abs() / mean)
            .fold(f64::NAN, f64::max),
    )
}

const RESPONSE: &str = "response time";
const MEMORY_RESPONSE: &str = "memory-resident: response time";
const DISK_RESPONSE: &str = "disk-resident: response time";
const TABLE01_ENGINE: &str = "execution engine: response time";
const QPIPES: [&str; 3] = ["QPipe", "QPipe-CS", "QPipe-SP"];
const ADMISSION: &str = "CJOIN admission";

/// Adaptive is within 10 % of the better of the two static routes at 1 and
/// at 64 queries.
fn adaptive_tracks_the_better_static(r: &[Row]) -> bool {
    ["1", "64"].iter().all(|x| {
        let better = at(r, x, "Gov-QC").min(at(r, x, "Gov-Shared"));
        at(r, x, "Adaptive") <= 1.10 * better
    })
}

/// Every conclusion of the paper the figures are checked for, ≥ 1 per
/// figure. Thresholds are the paper's where it gives one, the repo's
/// customary 10 % (5 % where `figures_smoke` used it) where a claim is
/// "matches" or "flat", a retired bench's bar where the claim was its gate,
/// and otherwise the plain ordering; verdicts are today's (default sizes).
pub const PREDICATES: &[Predicate] = &[
    Predicate {
        id: "fig06.fifo_sharing_hurts_at_low_concurrency",
        panel: RESPONSE,
        paper_claim: "With push-based SP (FIFO) a circular scan is a serialization point: CS is \
                      slower than No SP at 2–4 queries (§4, Fig. 6a)",
        check: |r| wherever(r, 2.0..=4.0, |x| below(r, x, "No SP (FIFO)", "CS (FIFO)")),
        expected: Holds,
    },
    Predicate {
        id: "fig06.spl_sharing_never_worse",
        panel: RESPONSE,
        paper_claim: "With pull-based SP (SPL) sharing never hurts: CS ≤ No SP (within 5 %) at \
                      every point (§4, Fig. 6b)",
        check: |r| everywhere(r, |x| within(r, x, "CS (SPL)", 1.05, "No SP (SPL)")),
        expected: Holds,
    },
    Predicate {
        id: "fig06.spl_beats_fifo_at_high_concurrency",
        panel: RESPONSE,
        paper_claim: "At 64 queries CS (SPL) answers faster than CS (FIFO) (§4, Fig. 6)",
        check: |r| below(r, top(r), "CS (SPL)", "CS (FIFO)"),
        expected: Holds,
    },
    Predicate {
        id: "fig06.spl_cuts_fifo_response_by_82_percent",
        panel: "CS (SPL) vs CS (FIFO)",
        paper_claim: "CS (SPL) reduces response times by 82–86 % over CS (FIFO) at high \
                      concurrency (§4)",
        check: |r| at(r, top(r), "reduction") >= 82.0,
        expected: Fails { since: 21 },
    },
    Predicate {
        id: "fig10.qpipe_over_2x_qpipe_sp_at_top",
        panel: MEMORY_RESPONSE,
        paper_claim: "Without sharing QPipe saturates the cores and degrades sharply: more than \
                      2× QPipe-SP at the top point (§5.2.1, Fig. 10)",
        check: |r| at(r, top(r), "QPipe") > 2.0 * at(r, top(r), "QPipe-SP"),
        expected: Holds,
    },
    Predicate {
        id: "fig10.sharing_order_at_top",
        panel: MEMORY_RESPONSE,
        paper_claim: "Circular scans reduce contention and SP exploits common sub-plans: QPipe > \
                      QPipe-CS ≥ QPipe-SP at high concurrency (§5.2.1, Fig. 10)",
        check: |r| {
            below(r, top(r), "QPipe-CS", "QPipe") && !below(r, top(r), "QPipe-CS", "QPipe-SP")
        },
        expected: Holds,
    },
    Predicate {
        id: "fig10.cjoin_lowest_at_64_and_up",
        panel: MEMORY_RESPONSE,
        paper_claim: "Shared operators are the most efficient at high concurrency: CJOIN has the \
                      lowest response time at ≥ 64 queries, memory-resident (§5.2.1, Fig. 10)",
        check: |r| wherever(r, 64.0.., |x| lowest(r, x, "CJOIN", &QPIPES)),
        expected: Fails { since: 21 },
    },
    Predicate {
        id: "fig10.cjoin_lowest_at_64_and_up_on_disk",
        panel: DISK_RESPONSE,
        paper_claim: "… and disk-resident (§5.2.1, Fig. 10)",
        check: |r| wherever(r, 64.0.., |x| lowest(r, x, "CJOIN", &QPIPES)),
        expected: Marginal,
    },
    Predicate {
        id: "fig11.cjoin_slower_than_qpipe_sp_at_8_queries",
        panel: RESPONSE,
        paper_claim: "At 8 queries CJOIN is slower than QPipe-SP — here checked where ≥ 10 % of \
                      the fact table is selected (§5.2.2, Fig. 11)",
        check: |r| {
            ["10.2%", "19.4%", "29.1%"]
                .iter()
                .all(|x| below(r, x, "QPipe-SP", "CJOIN"))
        },
        expected: Holds,
    },
    Predicate {
        id: "fig11.cjoin_slower_than_qpipe_sp_below_10_percent_selectivity",
        panel: RESPONSE,
        paper_claim: "… and at every lower selectivity too: at low concurrency shared operators \
                      always lose (§5.2.2, Fig. 11)",
        check: |r| {
            ["0.16%", "0.96%"]
                .iter()
                .all(|x| below(r, x, "QPipe-SP", "CJOIN"))
        },
        expected: Marginal,
    },
    Predicate {
        id: "fig11.admission_grows_with_selectivity",
        panel: ADMISSION,
        paper_claim: "The cost of CJOIN's admission phase increases as more dimension tuples are \
                      selected (§5.2.2)",
        check: |r| at(r, top(r), "serial") > at(r, first(r), "serial"),
        expected: Holds,
    },
    Predicate {
        id: "fig11.serial_admission_costs_more_than_shared_scan",
        panel: ADMISSION,
        paper_claim: "Admission scans every dimension table once per query (§3.2); sharing the \
                      scans across the batch — this repo's default — costs less at every \
                      selectivity",
        check: |r| everywhere(r, |x| below(r, x, "shared scan", "serial")),
        expected: Holds,
    },
    Predicate {
        id: "fig11.qpipe_sp_hashing_outgrows_cjoin",
        panel: "CPU breakdown: QPipe-SP",
        paper_claim: "QPipe-SP's Hashing CPU grows with selectivity — it does not share the hash \
                      work: at least 2× from 0.16 % to 29.1 % (§5.2.2, Fig. 11)",
        check: |r| at(r, top(r), "Hashing") >= 2.0 * at(r, first(r), "Hashing"),
        expected: Holds,
    },
    Predicate {
        id: "fig12.cjoin_hashing_flat",
        panel: "hashing CPU",
        paper_claim: "CJOIN's Hashing CPU stays flat as queries are added — the hashing is \
                      shared: within 10 % from 16 queries to the top point (§5.2.2, Fig. 12)",
        check: |r| spread(r, "CJOIN") <= 1.10,
        expected: Holds,
    },
    Predicate {
        id: "fig12.qpipe_sp_hashing_scales_with_queries",
        panel: "hashing CPU",
        paper_claim: "QPipe-SP's query-centric operators do work per query: its Hashing CPU \
                      grows at least in proportion (within 10 %) to the query count (§5.2.2, \
                      Fig. 12)",
        check: |r| {
            let queries = |x: &str| x.parse::<f64>().unwrap_or(f64::NAN);
            let (lo, hi) = (first(r), top(r));
            at(r, hi, "QPipe-SP") / at(r, lo, "QPipe-SP") >= 0.9 * queries(hi) / queries(lo)
        },
        expected: Holds,
    },
    Predicate {
        id: "fig12.cjoin_wins_at_high_concurrency",
        panel: RESPONSE,
        paper_claim: "At high concurrency and 30 % selectivity CJOIN overtakes QPipe-SP \
                      (§5.2.2, Fig. 12)",
        check: |r| below(r, top(r), "CJOIN", "QPipe-SP"),
        expected: Fails { since: 21 },
    },
    Predicate {
        id: "fig12.shared_scan_admission_at_least_2x_cheaper",
        panel: ADMISSION,
        paper_claim: "Serial admission scans each dimension once per query (§3.2); one shared \
                      scan per batch, this repo's default, is ≥ 2× cheaper from 32 queries up",
        check: |r| wherever(r, 32.0.., |x| within(r, x, "shared scan", 0.5, "serial")),
        expected: Holds,
    },
    Predicate {
        id: "fig13.response_time_linear_in_scale_factor",
        panel: RESPONSE,
        paper_claim: "Response times grow linearly with the scale factor for both \
                      configurations: consecutive slopes within 20 % of their mean (§5.2.3, \
                      Fig. 13)",
        check: |r| slope(r, "QPipe-SP").1 <= 0.2 && slope(r, "CJOIN").1 <= 0.2,
        expected: Holds,
    },
    Predicate {
        id: "fig13.cjoin_slope_above_qpipe_sp",
        panel: RESPONSE,
        paper_claim: "… with different slopes: at 8 queries CJOIN's is the steeper one (§5.2.3, \
                      Fig. 13)",
        check: |r| slope(r, "CJOIN").0 > slope(r, "QPipe-SP").0,
        expected: Fails { since: 21 },
    },
    Predicate {
        id: "fig13.direct_io_exposes_cjoin_preprocessor",
        panel: "avg read rate",
        paper_claim: "With direct I/O the preprocessor's overhead is no longer masked by \
                      read-ahead: CJOIN's read rate drops below QPipe-SP's (§5.2.3, Fig. 13)",
        check: |r| below(r, top(r), "CJOIN (Direct I/O)", "QPipe-SP (Direct I/O)"),
        expected: Fails { since: 21 },
    },
    Predicate {
        id: "fig14.qpipe_sp_beats_cjoin_with_16_plans",
        panel: RESPONSE,
        paper_claim: "With only 16 possible plans QPipe-SP evaluates at most 16 and reuses them \
                      for the rest — it even beats CJOIN at the top point (§5.2.4, Fig. 14)",
        check: |r| below(r, top(r), "QPipe-SP", "CJOIN"),
        expected: Marginal,
    },
    Predicate {
        id: "fig14.cjoin_sp_improves_cjoin",
        panel: RESPONSE,
        paper_claim: "CJOIN-SP shares identical CJOIN packets and improves on CJOIN at ≥ 64 \
                      queries (§5.2.4, Fig. 14)",
        check: |r| wherever(r, 64.0.., |x| below(r, x, "CJOIN-SP", "CJOIN")),
        expected: Holds,
    },
    Predicate {
        id: "fig15.cjoin_flat_across_plan_counts",
        panel: RESPONSE,
        paper_claim: "CJOIN is insensitive to the number of distinct plans: within 10 % across \
                      the sweep (§5.2.4, Fig. 15)",
        check: |r| spread(r, "CJOIN") <= 1.10,
        expected: Holds,
    },
    Predicate {
        id: "fig15.qpipe_sp_best_at_one_plan",
        panel: RESPONSE,
        paper_claim: "QPipe-SP wins at extreme similarity, a single possible plan (§5.2.4, \
                      Fig. 15)",
        check: |r| lowest(r, "1", "QPipe-SP", &["CJOIN", "CJOIN-SP"]),
        expected: Fails { since: 21 },
    },
    Predicate {
        id: "fig15.cjoin_sp_improves_cjoin_with_common_subplans",
        panel: RESPONSE,
        paper_claim: "CJOIN-SP improves on CJOIN wherever the plans are limited, i.e. common \
                      sub-plans exist (by 20–48 % in the paper; §5.2.4, Fig. 15)",
        check: |r| wherever(r, .., |x| below(r, x, "CJOIN-SP", "CJOIN")),
        expected: Holds,
    },
    Predicate {
        id: "fig16.postgres_best_at_low_concurrency",
        panel: RESPONSE,
        paper_claim: "The mature query-centric executor (Postgres) has the lowest response time \
                      at 1–4 queries (§5.3, Fig. 16)",
        check: |r| {
            wherever(r, ..=4.0, |x| {
                lowest(r, x, "Postgres*", &["QPipe-SP", "CJOIN-SP"])
            })
        },
        expected: Fails { since: 21 },
    },
    Predicate {
        id: "fig16.cjoin_sp_best_at_top",
        panel: RESPONSE,
        paper_claim: "CJOIN-SP has the lowest response time at the top point, where Postgres \
                      contends (§5.3, Fig. 16)",
        check: |r| lowest(r, top(r), "CJOIN-SP", &["QPipe-SP", "Postgres*"]),
        expected: Holds,
    },
    Predicate {
        id: "fig16.cjoin_sp_throughput_rises_with_clients",
        panel: "throughput (closed loop)",
        paper_claim: "CJOIN-SP's throughput keeps rising as clients are added (§5.3, Fig. 16)",
        check: |r| {
            let points: Vec<f64> = xs(r).iter().map(|x| at(r, x, "CJOIN-SP")).collect();
            points.len() > 1 && points.windows(2).all(|w| w[1] > w[0])
        },
        expected: Holds,
    },
    Predicate {
        id: "table01.query_centric_sp_wins_at_low_concurrency",
        panel: TABLE01_ENGINE,
        paper_claim: "Low concurrency → query-centric operators + SP: QPipe-SP ≤ CJOIN-SP at \
                      least at one point before the first where it is not (Table 1)",
        // A "crossover" at the first sweep point is not one: with nothing
        // before it, query-centric never won.
        check: |r| at(r, first(r), "QPipe-SP") <= at(r, first(r), "CJOIN-SP"),
        expected: Fails { since: 21 },
    },
    Predicate {
        id: "table01.gqp_sp_wins_at_high_concurrency",
        panel: TABLE01_ENGINE,
        paper_claim: "High concurrency → GQP (shared operators) + SP: CJOIN-SP < QPipe-SP at the \
                      top point (Table 1)",
        check: |r| below(r, top(r), "CJOIN-SP", "QPipe-SP"),
        expected: Holds,
    },
    Predicate {
        id: "table01.shared_scans_win_at_both_ends",
        panel: "I/O layer: disk-resident response time",
        paper_claim: "I/O layer → shared scans, at low and at high concurrency: QPipe-CS < QPipe \
                      at 4 queries and at the top point (Table 1)",
        check: |r| xs(r).len() == 2 && everywhere(r, |x| below(r, x, "QPipe-CS", "QPipe")),
        expected: Holds,
    },
    Predicate {
        id: "wop_study.join_wop_is_a_step",
        panel: "shares, by delay in T",
        paper_claim: "A hash-join has a step WoP: an identical latecomer shares it only until \
                      the host's first output page, never after the host finished (§2.2, Fig. 2b)",
        check: |r| at(r, "0.00", "join shares") >= 1.0 && at(r, "1.50", "join shares") == 0.0,
        expected: Holds,
    },
    Predicate {
        id: "wop_study.scan_wop_is_linear",
        panel: "response time, by delay in T",
        paper_claim: "A circular scan has a linear WoP: a latecomer attaches at any time and \
                      pays only for what it missed — Q2's response time is within 0.1 T of \
                      (1 − delay) T while the host runs (§2.2, Fig. 2b)",
        check: |r| {
            // Q2 / T + delay = 1 when Q2 pays exactly for the part it missed.
            let paid =
                |x: &str| at(r, x, "Q2") / at(r, x, "Q1 alone (T)") + x.parse().unwrap_or(f64::NAN);
            wherever(r, ..1.0, |x| (paid(x) - 1.0).abs() <= 0.1)
        },
        expected: Holds,
    },
    Predicate {
        id: "ablation_prediction.model_tracks_the_better_static_choice",
        panel: RESPONSE,
        paper_claim: "Under push-based SP a run-time prediction model decides when to share: \
                      Predict (FIFO) is within 10 % of the better of No SP and CS at every point \
                      (§1.3, §4)",
        check: |r| {
            let better = |x: &str| at(r, x, "No SP (FIFO)").min(at(r, x, "CS (FIFO)"));
            everywhere(r, |x| at(r, x, "Predict (FIFO)") <= 1.10 * better(x))
        },
        expected: Holds,
    },
    Predicate {
        id: "ablation_prediction.spl_needs_no_model",
        panel: RESPONSE,
        paper_claim: "SPL makes the prediction model unnecessary: CS (SPL) is within 10 % of \
                      Predict (FIFO) or better at every point (§4)",
        check: |r| everywhere(r, |x| within(r, x, "CS (SPL)", 1.10, "Predict (FIFO)")),
        expected: Holds,
    },
    Predicate {
        id: "ablation_fabric.merged_windows_admit_at_least_1_3x_cheaper",
        panel: ADMISSION,
        paper_claim: "Admission shared across CJOIN stages (§3.2, one level up): a fabric window \
                      admits a 32-query two-fact crowd ≥ 1.3× cheaper than per-stage pools",
        check: |r| at(r, "32", "per-stage pools") >= 1.3 * at(r, "32", "fabric"),
        expected: Holds,
    },
    Predicate {
        id: "ablation_governor.adaptive_within_10_percent_of_better_static_in_memory",
        panel: MEMORY_RESPONSE,
        paper_claim: "Table 1's choice between query-centric and shared operators, made per \
                      query: Adaptive is within 10 % of the better static route at 1 and at 64 \
                      queries, memory-resident",
        check: adaptive_tracks_the_better_static,
        expected: Holds,
    },
    Predicate {
        id: "ablation_governor.adaptive_within_10_percent_of_better_static_on_disk",
        panel: DISK_RESPONSE,
        paper_claim: "… and disk-resident (Table 1)",
        check: adaptive_tracks_the_better_static,
        expected: Holds,
    },
    Predicate {
        id: "ablation_governor.query_centric_route_wins_somewhere",
        panel: MEMORY_RESPONSE,
        paper_claim: "Below some concurrency query-centric operators win (Table 1): Gov-QC \
                      answers faster than Gov-Shared at some point, memory-resident",
        check: |r| xs(r).iter().any(|x| below(r, x, "Gov-QC", "Gov-Shared")),
        expected: Fails { since: 27 },
    },
    Predicate {
        id: "overload.bounded_p99_holds_where_unbounded_diverges",
        panel: "admitted p99, by offered load",
        paper_claim: "The service loop (docs/SERVICE.md): past saturation a queue cap and \
                      deadline shedding keep admitted p99 within 2× the pre-saturation p99, \
                      which an engine that admits everything exceeds at the top load",
        check: |r| {
            let bound = |x: &str| at(r, x, "2× pre-saturation");
            let held = |x: &str| bound(x) > 0.0 && at(r, x, "bounded") <= bound(x);
            wherever(r, 1.0.., held) && at(r, top(r), "unbounded") > bound(top(r))
        },
        expected: Holds,
    },
    Predicate {
        id: "overload.excess_is_shed_past_saturation",
        panel: "bounded sheds, by offered load",
        paper_claim: "… because the bounded loop sheds the excess at every load past \
                      saturation (docs/SERVICE.md)",
        check: |r| {
            let shed = |x: &str| at(r, x, "queue full") + at(r, x, "deadline");
            wherever(r, 1.0.., |x| shed(x) > 0.0)
        },
        expected: Holds,
    },
    Predicate {
        id: "overload.bounded_goodput_holds_and_beats_unbounded",
        panel: "goodput, by offered load",
        paper_claim: "Shedding does not erode what the bounded loop serves: each load keeps \
                      ≥ 90 % of the previous one's goodput, and at the top load it is at least \
                      the unbounded engine's (docs/SERVICE.md)",
        check: |r| {
            let points: Vec<f64> = xs(r).iter().map(|x| at(r, x, "bounded")).collect();
            let held = points.len() > 1 && points.windows(2).all(|w| w[1] >= 0.9 * w[0]);
            held && at(r, top(r), "bounded") >= at(r, top(r), "unbounded")
        },
        expected: Holds,
    },
    Predicate {
        id: "overload.every_submission_accounted",
        panel: "unaccounted submissions",
        paper_claim: "Every submission of every run ends as exactly one of completed, late, \
                      shed or error (docs/SERVICE.md)",
        check: |r| !r.is_empty() && r.iter().all(|row| row.value == 0.0),
        expected: Holds,
    },
    Predicate {
        id: "overload.healed_p99_within_3x_fault_free",
        panel: "faulted p99",
        paper_claim: "Degraded, never wrong: under page faults and a wedging fabric worker the \
                      self-healing ladder keeps p99 ≤ 3× the fault-free run's (docs/FAULTS.md)",
        check: |r| everywhere(r, |x| within(r, x, "healed", 3.0, "clean")),
        expected: Holds,
    },
    Predicate {
        id: "overload.no_recovery_loses_goodput",
        panel: "faulted goodput",
        paper_claim: "Without recovery the same fault schedule costs goodput (docs/FAULTS.md)",
        check: |r| everywhere(r, |x| below(r, x, "no recovery", "healed")),
        expected: Holds,
    },
    Predicate {
        id: "overload.every_recovery_action_counted",
        panel: "recovery actions",
        paper_claim: "Every rung of the ladder acts and is counted (retries, wedge, demotion, \
                      respawn); without it faults surface as typed errors (docs/FAULTS.md)",
        check: |r| !r.is_empty() && r.iter().all(|counted| counted.value > 0.0),
        expected: Holds,
    },
];

#[cfg(test)]
mod tests {
    use super::*;
    use crate::figures::FIGURES;
    use crate::tests::row;

    fn synthetic() -> Vec<Row> {
        vec![
            row("response time", "1", "A", 10.0, "ms"),
            row("response time", "1", "B", 20.0, "ms"),
            row("response time", "64", "A", 40.0, "ms"),
            row("response time", "64", "B", 30.0, "ms"),
            row("other", "64", "A", 1.0, "ms"),
        ]
    }

    const A_WINS_FIRST: Predicate = Predicate {
        id: "figXX.a_wins_at_first",
        panel: "response time",
        paper_claim: "A is faster at one query (§9)",
        check: |r| below(r, first(r), "A", "B"),
        expected: Holds,
    };
    const A_WINS_TOP: Predicate = Predicate {
        id: "figXX.a_wins_at_top",
        panel: "response time",
        paper_claim: "A is faster at the top point (§9)",
        check: |r| below(r, top(r), "A", "B"),
        expected: Fails { since: 7 },
    };

    #[test]
    fn equal_verdicts_pass_and_a_flipped_one_names_itself() {
        let same = expected_json(&[A_WINS_FIRST, A_WINS_TOP]);
        let (text, mismatches) = check(&[A_WINS_FIRST, A_WINS_TOP], &synthetic(), &same).unwrap();
        assert_eq!(mismatches, 0, "{text}");
        assert!(text.contains("holds     figXX.a_wins_at_first\n"));
        assert!(text.contains("fails     figXX.a_wins_at_top since PR 7\n"));

        let flipped = same.replace("\"fails\", \"since\": 7", "\"holds\", \"since\": null");
        let (text, mismatches) =
            check(&[A_WINS_FIRST, A_WINS_TOP], &synthetic(), &flipped).unwrap();
        assert_eq!(mismatches, 1);
        assert!(
            text.contains("MISMATCH  figXX.a_wins_at_top: measured fails"),
            "{text}"
        );
        assert!(text.contains("A is faster at the top point (§9)"));
        // The offending rows: the predicate's panel, and only it.
        assert!(text.contains("figXX · response time") && text.contains("40.00"));
        assert!(!text.contains("figXX · other"));
    }

    #[test]
    fn a_marginal_predicate_never_fails_the_run_and_a_dropped_one_does() {
        let marginal = expected_json(&[Predicate {
            expected: Marginal,
            ..A_WINS_TOP
        }]);
        let (text, mismatches) = check(&[A_WINS_TOP], &synthetic(), &marginal).unwrap();
        assert_eq!(mismatches, 0);
        assert!(text.contains("marginal  figXX.a_wins_at_top: fails today"));
        // A predicate the committed file does not name is not silently passed.
        let (text, mismatches) =
            check(&[A_WINS_FIRST, A_WINS_TOP], &synthetic(), &marginal).unwrap();
        assert_eq!(mismatches, 1);
        assert!(text.contains("a_wins_at_first: measured holds, docs/FIGURES.json records nothing"));
        // A figure that was not run is not judged; a broken file is an error.
        assert_eq!(check(&[A_WINS_TOP], &[], &marginal).unwrap().0, "");
        assert!(check(&[A_WINS_TOP], &synthetic(), "{").is_err());
    }

    #[test]
    fn a_missing_cell_fails_the_predicate_instead_of_panicking() {
        assert!(!(A_WINS_FIRST.check)(&[row(
            "response time",
            "1",
            "A",
            10.0,
            "ms"
        )]));
        for p in PREDICATES {
            assert!(!(p.check)(&[]), "{} holds on no rows", p.id);
        }
    }

    #[test]
    fn a_crossover_at_the_first_point_is_not_a_crossover() {
        let low = PREDICATES
            .iter()
            .find(|p| p.id == "table01.query_centric_sp_wins_at_low_concurrency");
        let engine_row = |sp_at_1: f64| {
            let cells = [
                ("1", "QPipe-SP", sp_at_1),
                ("1", "CJOIN-SP", 14.0),
                ("128", "QPipe-SP", 122.0),
                ("128", "CJOIN-SP", 85.0),
            ];
            cells.map(|(x, series, ms)| row(TABLE01_ENGINE, x, series, ms, "ms"))
        };
        // Today's numbers: CJOIN-SP ahead from one query on — no low-concurrency win.
        assert!(!(low.unwrap().check)(&engine_row(22.0)));
        assert!((low.unwrap().check)(&engine_row(12.0)));
    }

    /// Each gate a bench's exit code made before it was a predicate, with a
    /// synthetic panel of its own: `x:series:value` cells, where the value
    /// `k` is the one under test. Just past the threshold (first number) the
    /// predicate must fail; just inside it (second number) it must hold.
    const BENCH_GATES: &str = "
        fig12.shared_scan_admission_at_least_2x_cheaper | 1.99 | 2
            16:serial:1; 16:shared scan:1; 32:serial:k; 32:shared scan:1; 64:serial:k; 64:shared scan:1
        ablation_fabric.merged_windows_admit_at_least_1_3x_cheaper | 1.29 | 1.31
            8:fabric:1; 8:per-stage pools:1; 32:fabric:1; 32:per-stage pools:k
        ablation_governor.adaptive_within_10_percent_of_better_static_in_memory | 1.11 | 1.09
            1:Gov-QC:2; 1:Gov-Shared:1; 1:Adaptive:k; 64:Gov-QC:1; 64:Gov-Shared:3; 64:Adaptive:k; 256:Adaptive:99
        ablation_governor.adaptive_within_10_percent_of_better_static_on_disk | 1.11 | 1.09
            1:Gov-QC:2; 1:Gov-Shared:1; 1:Adaptive:k; 64:Gov-QC:1; 64:Gov-Shared:3; 64:Adaptive:k; 256:Adaptive:99
        ablation_governor.query_centric_route_wins_somewhere | 1 | 0.99
            1:Gov-QC:k; 1:Gov-Shared:1; 64:Gov-QC:5; 64:Gov-Shared:1
        overload.bounded_p99_holds_where_unbounded_diverges | 2.01 | 1.99
            0.5:cap only:1; 0.75:bounded:9; 0.75:2× pre-saturation:2; 2:bounded:k; 2:2× pre-saturation:2; 4:bounded:k; 4:2× pre-saturation:2; 4:unbounded:5
        overload.bounded_p99_holds_where_unbounded_diverges | 1.99 | 2.01
            2:bounded:1; 2:2× pre-saturation:2; 4:bounded:1; 4:2× pre-saturation:2; 4:unbounded:k
        overload.excess_is_shed_past_saturation | 0 | 1
            0.75:queue full:0; 0.75:deadline:0; 2:queue full:3; 2:deadline:0; 4:queue full:k; 4:deadline:0
        overload.bounded_goodput_holds_and_beats_unbounded | 0.89 | 0.91
            0.75:bounded:1; 2:bounded:k; 4:bounded:k; 4:unbounded:0.1
        overload.bounded_goodput_holds_and_beats_unbounded | 1.01 | 1
            2:bounded:1; 2:unbounded:0.5; 4:bounded:1; 4:unbounded:k
        overload.every_submission_accounted | 1 | 0
            closed loop:unbounded:0; 4:bounded:0; seed 1337:healed:k
        overload.healed_p99_within_3x_fault_free | 3.01 | 2.99
            seed 1337:clean:1; seed 1337:healed:k
        overload.no_recovery_loses_goodput | 1 | 0.99
            seed 1337:healed:1; seed 1337:no recovery:k
        overload.every_recovery_action_counted | 0 | 1
            seed 1337:retries:12; seed 1337:wedges:1; seed 1337:demotions:1; seed 1337:respawns:k; seed 1337:no-recovery errors:3
        overload.every_recovery_action_counted | 0 | 1
            seed 1337:retries:12; seed 1337:wedges:1; seed 1337:demotions:1; seed 1337:respawns:1; seed 1337:no-recovery errors:k";

    #[test]
    fn every_gate_taken_over_from_a_bench_fails_just_past_its_threshold() {
        let lines: Vec<&str> = BENCH_GATES.trim().lines().map(str::trim).collect();
        for case in lines.chunks(2) {
            let [id, past, inside] = case[0].split(" | ").collect::<Vec<_>>()[..] else {
                panic!("{}", case[0])
            };
            let panel = |k: f64| -> Vec<Row> {
                let cell = |c: &str| {
                    let [x, series, value] = c.split(':').collect::<Vec<_>>()[..] else {
                        panic!("{c}")
                    };
                    row("panel", x, series, value.parse().unwrap_or(k), "m")
                };
                case[1].split("; ").map(cell).collect()
            };
            let p = PREDICATES.iter().find(|p| p.id == id).expect(id);
            let (past, inside) = (past.parse().unwrap(), inside.parse().unwrap());
            assert!(!(p.check)(&panel(past)), "{id} holds at {past}");
            assert!((p.check)(&panel(inside)), "{id} fails at {inside}");
        }
        for p in PREDICATES {
            if ["ablation_fabric", "ablation_governor", "overload"].contains(&p.figure()) {
                let case = format!("{} |", p.id);
                assert!(BENCH_GATES.contains(&case), "{} has no case", p.id);
            }
        }
    }

    #[test]
    fn every_figure_has_a_predicate_and_ids_are_unique() {
        assert!(PREDICATES.len() >= 20);
        for f in &FIGURES {
            assert!(
                PREDICATES.iter().any(|p| p.figure() == f.id),
                "{} has no predicate",
                f.id
            );
        }
        for (i, p) in PREDICATES.iter().enumerate() {
            assert!(
                FIGURES.iter().any(|f| f.id == p.figure()),
                "{}: unknown figure",
                p.id
            );
            assert!(
                PREDICATES[..i].iter().all(|q| q.id != p.id),
                "{} twice",
                p.id
            );
        }
    }

    /// The census of `docs/KNOBS.md`, for conclusions: both committed files
    /// name every predicate with the verdict the code expects.
    #[test]
    fn figures_md_and_figures_json_name_every_predicate_with_its_verdict() {
        let md = include_str!("../../../docs/FIGURES.md");
        for row in PREDICATES.iter().map(doc_row) {
            assert!(md.contains(&row), "docs/FIGURES.md lacks the row\n{row}");
        }
        let expected = expected_json(PREDICATES);
        assert!(
            COMMITTED == expected,
            "docs/FIGURES.json should be\n{expected}"
        );
    }
}
