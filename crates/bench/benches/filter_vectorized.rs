//! Micro-benchmark: the CJOIN shared-filter hot loop, scalar
//! (tuple-at-a-time, the seed's semantics) vs vectorized (batch-at-a-time
//! with a `BitmapBank` and key-run probing), at 1 / 16 / 64 / 256 concurrent
//! queries — the concurrency axis of the paper's §5.2 experiments, where
//! per-tuple bookkeeping is exactly what makes shared operators lose at low
//! concurrency. The vectorized side is the kernel the CJOIN stage's filter
//! workers run, `filter_page_survivors` (survivors and bitmaps, no
//! dimension row); the scalar oracle also resolves every match, as
//! `filter_page_vectorized` does for the readers that want one.
//!
//! The design target of key-run probing is ≥2× scalar throughput at 64
//! concurrent queries on the clustered-FK page; see the
//! `speedup_clustered/64` JSON line. **Self-gating** (non-zero exit on
//! failure) at 1.5×, because this is wall-clock time on a shared runner. A
//! scattered-FK page (runs of ~1, per-run probing degenerates to
//! per-tuple) is also reported for transparency as `speedup_scattered/N`.
//! One more line, `in_place_clustered/64`, times the vectorized kernel on
//! the clustered page encoded and read in place (what the CJOIN filter
//! workers run) beside the same kernel on decoded rows; it is not gated.

use std::sync::Arc;

use workshare_bench::json::Json;
use workshare_cjoin::{
    filter_page_scalar, filter_page_survivors, DimEntry, FilterCore, FilterScratch,
};
use workshare_common::codec::PageBuilder;
use workshare_common::fxhash::FxHashMap;
use workshare_common::value::Row;
use workshare_common::{ColType, Column, QueryBitmap, Schema, Value};

const PAGE_ROWS: usize = 4096;
const DIM_KEYS: i64 = 64;

/// A shared filter where query `q` selects key `k` iff `k % (2 + q % 7) == 0`
/// — overlapping but distinct per-query selections, as produced by a mix of
/// star queries over one dimension.
fn mk_filter(fact_fk_idx: usize, n_queries: usize) -> Arc<FilterCore> {
    let mut hash = FxHashMap::default();
    let mut referencing = QueryBitmap::zeros(n_queries);
    for q in 0..n_queries {
        referencing.set(q);
    }
    for key in 0..DIM_KEYS {
        let mut bits = QueryBitmap::zeros(n_queries);
        let mut any = false;
        for q in 0..n_queries {
            if key % (2 + q as i64 % 7) == 0 {
                bits.set(q);
                any = true;
            }
        }
        if any {
            hash.insert(
                key,
                DimEntry {
                    row: Arc::new(vec![Value::Int(key), Value::Int(key * 10)]),
                    bits,
                },
            );
        }
    }
    Arc::new(FilterCore {
        dim: workshare_storage::TableId(0),
        fact_fk_idx,
        dim_pk_idx: 0,
        hash,
        referencing,
    })
}

/// One fact page with physically correlated FKs (runs of 8 and 4): the
/// regime the key-run probe targets — date-ordered fact loads and
/// join-product skew both produce long runs. This page drives the ≥2×
/// acceptance measurement.
fn mk_rows_clustered() -> Vec<Row> {
    (0..PAGE_ROWS as i64)
        .map(|i| {
            vec![
                Value::Int((i / 8) % DIM_KEYS),
                Value::Int((i / 4) % DIM_KEYS),
                Value::Int(i),
            ]
        })
        .collect()
}

/// Adversarial page: second FK scattered (runs of ~1), so per-run probing
/// degenerates to per-tuple on that filter. Reported for transparency; the
/// vectorized path must still win, just by less.
fn mk_rows_scattered() -> Vec<Row> {
    (0..PAGE_ROWS as i64)
        .map(|i| {
            vec![
                Value::Int((i / 8) % DIM_KEYS),
                Value::Int((i * 13) % DIM_KEYS),
                Value::Int(i),
            ]
        })
        .collect()
}

/// Median ns per page of `page`, over `samples` timed blocks of `iters`
/// calls.
fn median_ns(mut page: impl FnMut()) -> f64 {
    use std::time::Instant;
    let (iters, samples) = (20u32, 15usize);
    let mut ns: Vec<f64> = (0..samples)
        .map(|_| {
            let t = Instant::now();
            (0..iters).for_each(|_| page());
            t.elapsed().as_nanos() as f64 / iters as f64
        })
        .collect();
    ns.sort_by(|a, b| a.total_cmp(b));
    ns[ns.len() / 2]
}

/// Round `x` to `1 / scale`.
fn rounded(x: f64, scale: f64) -> Json {
    Json::Num((x * scale).round() / scale)
}

/// Directly measured scalar/vectorized ratio, printed as its own JSON line
/// and returned (medians over `samples` timed blocks of `iters` pages).
fn report_speedup(label: &str, rows: &[Row], n_queries: usize) -> f64 {
    use std::time::Instant;
    let filters = vec![mk_filter(0, n_queries), mk_filter(1, n_queries)];
    let members = QueryBitmap::ones(n_queries);
    let mut scratch = FilterScratch::default();
    let (iters, samples) = (20u32, 15usize);
    let median = |mut v: Vec<f64>| {
        v.sort_by(|a, b| a.total_cmp(b));
        v[v.len() / 2]
    };
    let mut scalar_ns = Vec::with_capacity(samples);
    let mut vec_ns = Vec::with_capacity(samples);
    for _ in 0..samples {
        let t = Instant::now();
        for _ in 0..iters {
            let (p, _) = filter_page_scalar(&filters, rows, &members);
            std::hint::black_box(p.selected.len());
        }
        scalar_ns.push(t.elapsed().as_nanos() as f64 / iters as f64);
        let t = Instant::now();
        for _ in 0..iters {
            let (p, _) = filter_page_survivors(&filters, 0..2, rows, &members, &mut scratch);
            std::hint::black_box(p.selected.len());
        }
        vec_ns.push(t.elapsed().as_nanos() as f64 / iters as f64);
    }
    let (s, v) = (median(scalar_ns), median(vec_ns));
    let bench = format!("cjoin_filter_page/speedup_{label}/{n_queries}");
    let line = Json::obj([
        ("bench", Json::Str(bench)),
        ("scalar_ns", rounded(s, 10.0)),
        ("vectorized_ns", rounded(v, 10.0)),
        ("ratio", rounded(s / v, 100.0)),
    ]);
    println!("{}", line.render());
    s / v
}

/// The stage's kernel on `rows` encoded into one page and read in place —
/// what the CJOIN filter workers run — beside the same kernel on the
/// decoded rows. Printed, never gated.
fn report_in_place(label: &str, rows: &[Row], n_queries: usize) {
    let schema = Schema::new(
        ["fk0", "fk1", "id"]
            .iter()
            .map(|n| Column::new(n, ColType::Int))
            .collect(),
    );
    let mut builder = PageBuilder::with_page_size(&schema, 4 + rows.len() * schema.row_width());
    rows.iter().for_each(|r| builder.push(r));
    let page = builder.finish().remove(0);
    let filters = vec![mk_filter(0, n_queries), mk_filter(1, n_queries)];
    let members = QueryBitmap::ones(n_queries);
    let mut scratch = FilterScratch::default();
    let decoded = median_ns(|| {
        let (p, _) = filter_page_survivors(&filters, 0..2, rows, &members, &mut scratch);
        std::hint::black_box(p.selected.len());
    });
    let in_place = median_ns(|| {
        let rows = page.rows(&schema);
        let (p, _) = filter_page_survivors(&filters, 0..2, &rows, &members, &mut scratch);
        std::hint::black_box(p.selected.len());
    });
    let line = Json::obj([
        (
            "bench",
            Json::Str(format!("cjoin_filter_page/in_place_{label}/{n_queries}")),
        ),
        ("decoded_ns", rounded(decoded, 10.0)),
        ("in_place_ns", rounded(in_place, 10.0)),
        ("ratio", rounded(decoded / in_place, 100.0)),
    ]);
    println!("{}", line.render());
}

fn main() {
    let clustered = mk_rows_clustered();
    let scattered = mk_rows_scattered();
    let mut at_64 = 0.0;
    for n_queries in [1usize, 16, 64, 256] {
        let ratio = report_speedup("clustered", &clustered, n_queries);
        if n_queries == 64 {
            at_64 = ratio;
        }
        report_speedup("scattered", &scattered, n_queries);
    }
    report_in_place("clustered", &clustered, 64);
    if at_64 < 1.5 {
        eprintln!(
            "FAIL: vectorized filter only {at_64:.2}x of scalar at 64 queries on the clustered page; bar is 1.5x"
        );
        std::process::exit(1);
    }
}
