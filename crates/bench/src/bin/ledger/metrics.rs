//! The metric tables (name, unit, direction, bound) and the arithmetic that
//! is applied to samples: percentiles, medians, spreads and bound checks.
//! `BENCHMARK.json` at the root of the repository lists the same metrics; a
//! test holds the two against each other.

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn label(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// A metric a user of the engine would see. V = virtual time charged to the
/// simulated machine, W = host wall time.
///
/// A metric has one bound for all workloads, so the loosest workload sets it:
/// `closed16`, whose virtual metrics repeat to 3-8 % between runs (the race of
/// ROADMAP item 2) where the other three repeat to 0.2 %; `lone1`, whose p99
/// sits on a second mode of its latency distribution and flips between 1.34
/// and 1.52 ms; and the shared host, whose speed drifts over minutes. Each
/// bound is at least the widest quartile distance measured over ten seeds, and
/// three times it where the 25 % ceiling allows; README.md has the table.
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the first value by which the second may be worse.
    pub bound: f64,
    /// A difference smaller than this is never a breach, in the metric's
    /// unit: a quarter of a 0.1 s set-up is below what the host repeats to.
    pub floor: f64,
}

pub const END_TO_END: [EndToEnd; 7] = [
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
        floor: 0.05,
    },
    EndToEnd {
        name: "v_latency_p50_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.15,
        floor: 0.0,
    },
    EndToEnd {
        name: "v_latency_p99_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
        floor: 0.0,
    },
    EndToEnd {
        name: "v_queries_per_s",
        unit: "1/s",
        better: Better::Higher,
        bound: 0.15,
        floor: 0.0,
    },
    EndToEnd {
        name: "v_cpu_s_per_query",
        unit: "s",
        better: Better::Lower,
        bound: 0.15,
        floor: 0.0,
    },
    EndToEnd {
        name: "wall_queries_per_s",
        unit: "1/s",
        better: Better::Higher,
        bound: 0.25,
        floor: 0.0,
    },
    EndToEnd {
        name: "host_peak_rss_mb",
        unit: "MB",
        better: Better::Lower,
        bound: 0.25,
        floor: 0.0,
    },
];

/// A metric of one layer (crate, or crate.module), from the traced run.
pub struct PerLayer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
}

const fn layer(name: &'static str, unit: &'static str, better: Better) -> PerLayer {
    PerLayer { name, unit, better }
}

use Better::{Higher, Lower};

pub const PER_LAYER: [PerLayer; 62] = [
    // sim: what the simulator costs the host, and what it charged.
    layer("sim.charge.wall_ns.t1", "ns", Lower),
    layer("sim.charge.wall_ns.t8", "ns", Lower),
    layer("sim.charge.wall_ns.t64", "ns", Lower),
    layer("sim.spawn_join.wall_ns", "ns", Lower),
    layer("sim.host_ns_per_vcpu_ns", "ratio", Lower),
    layer("sim.cores_used", "count", Higher),
    layer("sim.cpu.scan.v_s", "s", Lower),
    layer("sim.cpu.select.v_s", "s", Lower),
    layer("sim.cpu.hashing.v_s", "s", Lower),
    layer("sim.cpu.join.v_s", "s", Lower),
    layer("sim.cpu.aggregation.v_s", "s", Lower),
    layer("sim.cpu.sort.v_s", "s", Lower),
    layer("sim.cpu.copy.v_s", "s", Lower),
    layer("sim.cpu.locks.v_s", "s", Lower),
    layer("sim.cpu.admission.v_s", "s", Lower),
    layer("sim.cpu.routing.v_s", "s", Lower),
    layer("sim.cpu.misc.v_s", "s", Lower),
    layer("sim.disk.bytes_read", "count", Lower),
    layer("sim.disk.requests", "count", Lower),
    layer("sim.disk.seeks", "count", Lower),
    layer("sim.disk.busy_v_s", "s", Lower),
    layer("sim.v_latency_rep_spread", "ratio", Lower),
    // storage
    layer("storage.read_page.wall_ns", "ns", Lower),
    layer("storage.read_page.v_ns", "ns", Lower),
    layer("storage.pool.hit_ratio", "ratio", Higher),
    layer("storage.pool.misses", "count", Lower),
    layer("storage.fs.hit_ratio", "ratio", Higher),
    // common
    layer("common.codec.decode.wall_ns_per_tuple", "ns", Lower),
    layer("common.codec.decode.v_ns_per_tuple", "ns", Lower),
    layer("common.codec.decode.residual", "ratio", Lower),
    layer("common.predicate.eval_batch.wall_ns_per_tuple", "ns", Lower),
    layer("common.predicate.eval_batch.v_ns_per_tuple", "ns", Lower),
    layer("common.predicate.eval_batch.residual", "ratio", Lower),
    layer("common.agg.update.wall_ns_per_tuple", "ns", Lower),
    layer("common.agg.update.v_ns_per_tuple", "ns", Lower),
    layer("common.agg.update.residual", "ratio", Lower),
    // cjoin
    layer("cjoin.filter.wall_ns_per_tuple", "ns", Lower),
    layer("cjoin.filter.v_ns_per_tuple", "ns", Lower),
    layer("cjoin.filter.residual", "ratio", Lower),
    layer("cjoin.filter.key_run_len", "count", Higher),
    layer("cjoin.admission.v_s_per_query", "s", Lower),
    layer("cjoin.admission.dim_rows_per_query", "count", Lower),
    layer("cjoin.admission.queries_per_batch", "count", Higher),
    layer("cjoin.sp_share_ratio", "ratio", Higher),
    layer("cjoin.fabric.windows", "count", Lower),
    layer("cjoin.fabric.merged_requests", "count", Higher),
    layer("cjoin.fabric.dim_pages_per_query", "count", Lower),
    // core
    layer("core.engine.new.wall_ms", "ms", Lower),
    layer("core.engine.submit.wall_us", "us", Lower),
    layer("core.engine.shutdown.wall_ms", "ms", Lower),
    layer("core.governor.decide.wall_ns", "ns", Lower),
    layer("core.governor.routed_shared", "count", Higher),
    layer("core.governor.routed_query_centric", "count", Lower),
    layer("core.governor.flips", "count", Lower),
    layer("core.governor.shared_residual", "ratio", Lower),
    layer("core.volcano.wall_ns_per_tuple", "ns", Lower),
    layer("core.volcano.v_ns_per_tuple", "ns", Lower),
    layer("core.volcano.residual", "ratio", Lower),
    // datagen
    layer("datagen.ssb.wall_s", "s", Lower),
    layer("datagen.rows_per_s", "1/s", Higher),
    // trace
    layer("trace.spans", "count", Lower),
    layer("trace.overhead_share", "ratio", Lower),
];

/// A name starts with a letter or a digit and is made of at most 64 letters,
/// digits, `_`, `.` and `-`.
#[cfg(test)]
pub fn valid_name(name: &str) -> bool {
    let ok = |c: char| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-');
    name.len() <= 64
        && name
            .chars()
            .next()
            .is_some_and(|c| c.is_ascii_alphanumeric())
        && name.chars().all(ok)
}

/// Nearest-rank percentile of `sorted` (ascending, not empty): the
/// `ceil(q·n)`-th smallest sample, as `LatencyHistogram::quantile` picks it.
pub fn nearest_rank(sorted: &[f64], q: f64) -> f64 {
    let n = sorted.len();
    sorted[((q * n as f64).ceil() as usize).clamp(1, n) - 1]
}

/// [`nearest_rank`], or `None` unless at least ten samples lie beyond the
/// percentile, so that a tail is never read off a handful of outliers: p99
/// needs 1000 samples, p50 needs 20.
pub fn percentile(sorted: &[f64], q: f64) -> Option<f64> {
    (sorted.len() >= samples_needed(q)).then(|| nearest_rank(sorted, q))
}

/// Samples a percentile needs before [`percentile`] reports it.
pub fn samples_needed(q: f64) -> usize {
    (10.0 / (1.0 - q)).ceil() as usize
}

pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => f64::NAN,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// (max − min) / median.
pub fn range_over_median(values: &[f64]) -> f64 {
    let max = values.iter().copied().fold(f64::MIN, f64::max);
    let min = values.iter().copied().fold(f64::MAX, f64::min);
    (max - min) / median(values)
}

/// By how much `second` is worse than `first`, as a share of `first`
/// (negative when it is better).
pub fn worse_by(better: Better, first: f64, second: f64) -> f64 {
    let delta = match better {
        Better::Lower => second - first,
        Better::Higher => first - second,
    };
    delta / first.abs()
}

/// Whether `second` is worse than `first` by more than the metric allows.
pub fn breaches(metric: &EndToEnd, first: f64, second: f64) -> bool {
    let worse = worse_by(metric.better, first, second);
    worse > metric.bound && worse * first.abs() > metric.floor
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::Json;

    #[test]
    fn percentile_is_nearest_rank_and_wants_ten_samples_beyond() {
        let thousand: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(percentile(&thousand, 0.99), Some(990.0));
        assert_eq!(percentile(&thousand, 0.5), Some(500.0));
        assert_eq!(percentile(&thousand[..999], 0.99), None);
        assert_eq!(percentile(&thousand[..20], 0.5), Some(10.0));
        assert_eq!(percentile(&thousand[..19], 0.5), None);
        assert_eq!(percentile(&[], 0.5), None);
        assert_eq!(samples_needed(0.99), 1000);
        assert_eq!(samples_needed(0.5), 20);
    }

    #[test]
    fn median_and_spread() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(range_over_median(&[9.0, 10.0, 11.0]), 0.2);
    }

    fn metric(name: &str) -> &'static EndToEnd {
        END_TO_END.iter().find(|m| m.name == name).unwrap()
    }

    #[test]
    fn a_bound_is_a_share_of_the_first_value_in_the_metrics_direction() {
        let p50 = metric("v_latency_p50_s");
        assert!(!breaches(p50, 1.0, 1.14));
        assert!(breaches(p50, 1.0, 1.16));
        assert!(
            !breaches(p50, 1.0, 0.5),
            "lower is better: a drop is a gain"
        );
        let qps = metric("wall_queries_per_s");
        assert!(!breaches(qps, 100.0, 76.0));
        assert!(breaches(qps, 100.0, 74.0));
        assert!(!breaches(qps, 100.0, 300.0));
    }

    #[test]
    fn the_absolute_floor_forgives_a_large_share_of_a_small_value() {
        let setup = metric("setup_s");
        // +40 % of 0.1 s is 0.04 s: under the 0.05 s floor.
        assert!(!breaches(setup, 0.10, 0.14));
        // +40 % of 1 s is not.
        assert!(breaches(setup, 1.0, 1.4));
        // Past both the share and the floor.
        assert!(breaches(setup, 0.10, 0.16));
    }

    #[test]
    fn names_are_valid_and_used_once() {
        let names: Vec<&str> = END_TO_END
            .iter()
            .map(|m| m.name)
            .chain(PER_LAYER.iter().map(|m| m.name))
            .collect();
        assert!(names.iter().all(|n| valid_name(n)), "{names:?}");
        let distinct: std::collections::BTreeSet<_> = names.iter().collect();
        assert_eq!(distinct.len(), names.len());
        assert!(!valid_name(".x") && !valid_name("a b") && !valid_name(&"x".repeat(65)));
    }

    /// `BENCHMARK.json` is what the driver reads; these tables are what the
    /// runner prints. They must list the same metrics.
    #[test]
    fn benchmark_json_lists_these_metrics() {
        let text = include_str!("../../../../../BENCHMARK.json");
        let spec = Json::parse(text).unwrap();
        let field = |m: &Json, key: &str| m.get(key).and_then(Json::as_str).unwrap().to_string();

        let listed: Vec<_> = spec
            .get("end_to_end")
            .and_then(Json::as_arr)
            .unwrap()
            .iter()
            .map(|m| {
                (
                    field(m, "name"),
                    field(m, "unit"),
                    field(m, "better"),
                    m.get("bound").and_then(Json::as_f64).unwrap(),
                )
            })
            .collect();
        let ours: Vec<_> = END_TO_END
            .iter()
            .map(|m| {
                (
                    m.name.to_string(),
                    m.unit.to_string(),
                    m.better.label().to_string(),
                    m.bound,
                )
            })
            .collect();
        assert_eq!(listed, ours);

        let listed: Vec<_> = spec
            .get("per_layer")
            .and_then(Json::as_arr)
            .unwrap()
            .iter()
            .map(|m| (field(m, "name"), field(m, "unit"), field(m, "better")))
            .collect();
        let ours: Vec<_> = PER_LAYER
            .iter()
            .map(|m| {
                (
                    m.name.to_string(),
                    m.unit.to_string(),
                    m.better.label().to_string(),
                )
            })
            .collect();
        assert_eq!(listed, ours);

        let listed: Vec<_> = spec
            .get("workloads")
            .and_then(Json::as_arr)
            .unwrap()
            .iter()
            .map(|w| field(w, "name"))
            .collect();
        let ours: Vec<_> = crate::workloads::SHAPES
            .iter()
            .map(|s| s.name.to_string())
            .collect();
        assert_eq!(listed, ours);
        assert_eq!(
            spec.get("run_seconds").and_then(Json::as_f64),
            Some(crate::DEFAULT_SECONDS)
        );
    }
}
