//! The per-layer metrics, assembled from what the traced run left behind:
//! the spans, the counters the engine's getters returned, the layer sweep
//! and the micro-benchmarks of the simulator, the governor and Volcano.
//!
//! A `*.residual` is host ns ÷ virtual ns for the same call: what the Rust
//! costs against what `CostModel` charges for it.

use crate::adapter::{cost_kind_names, Counters, Sweep};
use crate::json::MetricValues;
use crate::metrics::PER_LAYER;
use crate::run::Timed;
use crate::trace::{totals_by_name, Span};

/// Host times measured outside the replay, each the median of five runs.
pub struct Micro {
    pub charge_wall_ns_t1: f64,
    pub charge_wall_ns_t8: f64,
    pub charge_wall_ns_t64: f64,
    pub spawn_join_wall_ns: f64,
    pub governor_decide_wall_ns: f64,
    /// One query through `run_volcano_query`.
    pub volcano_wall_ns: f64,
    pub volcano_v_ns: f64,
    pub volcano_tuples: u64,
}

pub struct LayerInputs<'a> {
    pub data_rows: u64,
    pub gen_wall_s: f64,
    pub counters: &'a Counters,
    pub sweep: &'a Sweep,
    pub micro: &'a Micro,
    pub traced: &'a Timed,
    pub untraced: &'a Timed,
    pub rerun_spread: f64,
}

/// 0 when nothing was counted, so that a memory-resident workload reports a
/// pool hit ratio of 0 and not NaN.
fn ratio(part: f64, whole: f64) -> f64 {
    if whole == 0.0 {
        0.0
    } else {
        part / whole
    }
}

pub fn per_layer(inputs: &LayerInputs, spans: &[Span]) -> MetricValues {
    let LayerInputs {
        counters: c,
        sweep,
        micro,
        ..
    } = inputs;
    let totals = totals_by_name(spans);
    let span_ns = |name: &str| totals.get(name).map_or(0.0, |t| t.total_ns as f64);
    let span_mean_ns = |name: &str| totals.get(name).map_or(0.0, |t| t.mean_ns());
    let completed = c.completed as f64;
    let cpu_v_s: f64 = c.cpu_v_s.iter().sum();

    let mut values: Vec<(String, f64)> = Vec::with_capacity(PER_LAYER.len());
    let mut put = |name: &str, value: f64| values.push((name.to_string(), value));
    // Wall, virtual and their ratio for one swept call.
    let mut calibrate = |name: &str, wall_ns: f64, v_ns: f64, per: f64| {
        put(&format!("{name}.wall_ns_per_tuple"), ratio(wall_ns, per));
        put(&format!("{name}.v_ns_per_tuple"), ratio(v_ns, per));
        put(&format!("{name}.residual"), ratio(wall_ns, v_ns));
    };
    let tuples = sweep.tuples as f64;
    calibrate(
        "common.codec.decode",
        span_ns("common.codec.decode"),
        sweep.decode_v_ns,
        tuples,
    );
    calibrate(
        "common.predicate.eval_batch",
        span_ns("common.predicate.eval_batch"),
        sweep.predicate_v_ns,
        sweep.predicate_term_tuples as f64,
    );
    calibrate(
        "common.agg.update",
        span_ns("common.agg.update"),
        sweep.agg_v_ns,
        sweep.agg_updates as f64,
    );
    calibrate(
        "cjoin.filter",
        span_ns("cjoin.filter"),
        sweep.filter_v_ns,
        tuples,
    );
    calibrate(
        "core.volcano",
        micro.volcano_wall_ns,
        micro.volcano_v_ns,
        micro.volcano_tuples as f64,
    );

    put("sim.charge.wall_ns.t1", micro.charge_wall_ns_t1);
    put("sim.charge.wall_ns.t8", micro.charge_wall_ns_t8);
    put("sim.charge.wall_ns.t64", micro.charge_wall_ns_t64);
    put("sim.spawn_join.wall_ns", micro.spawn_join_wall_ns);
    put(
        "sim.host_ns_per_vcpu_ns",
        ratio(inputs.traced.host_s, cpu_v_s),
    );
    put("sim.cores_used", ratio(c.busy_core_s, c.elapsed_v_s));
    // The run is sized by host time, so a faster host completes more
    // queries: counts that grow with the work done are given per completed
    // query, which is what stays comparable between two runs.
    let kinds = cost_kind_names();
    for (kind, v_s) in kinds.iter().zip(c.cpu_v_s) {
        put(&format!("sim.cpu.{kind}.v_s"), ratio(v_s, completed));
    }
    put("sim.disk.bytes_read", ratio(c.disk_bytes as f64, completed));
    put(
        "sim.disk.requests",
        ratio(c.disk_requests as f64, completed),
    );
    put("sim.disk.seeks", ratio(c.disk_seeks as f64, completed));
    put("sim.disk.busy_v_s", ratio(c.disk_busy_v_s, completed));
    put("sim.v_latency_rep_spread", inputs.rerun_spread);

    put(
        "storage.read_page.wall_ns",
        span_mean_ns("storage.read_page"),
    );
    put(
        "storage.read_page.v_ns",
        ratio(sweep.read_v_ns, sweep.pages as f64),
    );
    put(
        "storage.pool.hit_ratio",
        ratio(c.pool_hits as f64, (c.pool_hits + c.pool_misses) as f64),
    );
    put(
        "storage.pool.misses",
        ratio(c.pool_misses as f64, completed),
    );
    put(
        "storage.fs.hit_ratio",
        ratio(c.fs_hits as f64, (c.fs_hits + c.fs_misses) as f64),
    );

    put(
        "cjoin.filter.key_run_len",
        ratio(sweep.filter_probes as f64, sweep.filter_key_runs as f64),
    );
    let admission = kinds
        .iter()
        .position(|kind| kind == "admission")
        .expect("admission is a cost kind");
    put(
        "cjoin.admission.v_s_per_query",
        ratio(c.cpu_v_s[admission], completed),
    );
    put(
        "cjoin.admission.dim_rows_per_query",
        ratio(c.admission_dim_rows as f64, c.admitted as f64),
    );
    put(
        "cjoin.admission.queries_per_batch",
        ratio(c.admitted as f64, c.admission_batches as f64),
    );
    put(
        "cjoin.sp_share_ratio",
        ratio(c.sp_shares as f64, (c.admitted + c.sp_shares) as f64),
    );
    put(
        "cjoin.fabric.windows",
        ratio(c.fabric_windows as f64, completed),
    );
    put(
        "cjoin.fabric.merged_requests",
        ratio(c.fabric_merged as f64, completed),
    );
    put(
        "cjoin.fabric.dim_pages_per_query",
        ratio(c.fabric_dim_pages as f64, completed),
    );

    put(
        "core.engine.new.wall_ms",
        span_mean_ns("core.engine.new") / 1e6,
    );
    put(
        "core.engine.submit.wall_us",
        span_mean_ns("core.engine.submit") / 1e3,
    );
    put(
        "core.engine.shutdown.wall_ms",
        span_mean_ns("core.engine.shutdown") / 1e6,
    );
    put(
        "core.governor.decide.wall_ns",
        micro.governor_decide_wall_ns,
    );
    put(
        "core.governor.routed_shared",
        ratio(c.routed_shared as f64, completed),
    );
    put(
        "core.governor.routed_query_centric",
        ratio(c.routed_query_centric as f64, completed),
    );
    put("core.governor.flips", ratio(c.flips as f64, completed));
    put(
        "core.governor.shared_residual",
        ratio(c.shared_residual_sum, c.engines as f64),
    );

    put("datagen.ssb.wall_s", inputs.gen_wall_s);
    put(
        "datagen.rows_per_s",
        ratio(inputs.data_rows as f64, inputs.gen_wall_s),
    );

    put("trace.spans", spans.len() as f64);
    put(
        "trace.overhead_share",
        1.0 - ratio(
            inputs.traced.wall_queries_per_s,
            inputs.untraced.wall_queries_per_s,
        ),
    );

    // Report in the table's order and with its units; a name the table does
    // not have, or one it has and nothing measured, is a bug here.
    assert_eq!(
        values.len(),
        PER_LAYER.len(),
        "per-layer metrics and their table differ"
    );
    PER_LAYER
        .iter()
        .map(|m| {
            let (_, value) = values
                .iter()
                .find(|(name, _)| name == m.name)
                .unwrap_or_else(|| panic!("{} was not measured", m.name));
            (m.name.to_string(), (*value, m.unit.to_string()))
        })
        .collect()
}
