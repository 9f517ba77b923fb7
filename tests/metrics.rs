//! Invariants of the measurement pipeline itself — the numbers the figures
//! are built from must be internally consistent for every engine.

use std::sync::OnceLock;

use workshare::harness::{run_batch, run_service, run_staggered, ServiceLoad};
use workshare::{workload, Dataset, ExecPolicy, FaultPlan, IoMode, NamedConfig, RunConfig};
use workshare_common::{AggSpec, ColRef, Predicate, StarQuery};
use workshare_sim::{CostKind, COST_KINDS};

fn ssb() -> &'static Dataset {
    static D: OnceLock<Dataset> = OnceLock::new();
    D.get_or_init(|| Dataset::ssb(0.05, 2024))
}

#[test]
fn report_invariants_hold_for_every_engine() {
    let mut r = workload::rng(41);
    let queries: Vec<_> = (0..6)
        .map(|i| workload::ssb_q3_2(i as u64, &mut r))
        .collect();
    for engine in NamedConfig::all() {
        let cfg = RunConfig::named(engine);
        let rep = run_batch(ssb(), &cfg, &queries, false);
        assert_eq!(rep.queries, 6, "{engine:?}");
        assert_eq!(rep.latencies_secs.len(), 6, "{engine:?}");
        for &l in &rep.latencies_secs {
            assert!(l > 0.0, "{engine:?}: non-positive latency");
            assert!(
                l <= rep.makespan_secs * 1.0001,
                "{engine:?}: latency {l} beyond makespan {}",
                rep.makespan_secs
            );
        }
        // Cores bound by the machine.
        assert!(rep.avg_cores_used > 0.0 && rep.avg_cores_used <= 24.0, "{engine:?}");
        // Work conservation: busy cores × makespan ≈ total charged CPU.
        let busy = rep.avg_cores_used * rep.makespan_secs;
        let charged = rep.cpu.total_secs();
        assert!(
            (busy - charged).abs() / charged.max(1e-9) < 0.05,
            "{engine:?}: busy={busy} charged={charged}"
        );
        // Memory-resident run: no disk traffic.
        assert_eq!(rep.disk.bytes_read, 0, "{engine:?}");
        assert_eq!(rep.read_rate_mbps, 0.0, "{engine:?}");
        // Breakdown categories are all non-negative and total to the sum.
        let total: f64 = COST_KINDS.iter().map(|&k| rep.cpu.secs(k)).sum();
        assert!((total - rep.cpu.total_secs()).abs() < 1e-9, "{engine:?}");
    }
}

#[test]
fn disk_metrics_consistent_on_disk_modes() {
    let mut r = workload::rng(42);
    let queries: Vec<_> = (0..4)
        .map(|i| workload::ssb_q3_2(i as u64, &mut r))
        .collect();
    for io in [IoMode::BufferedDisk, IoMode::DirectDisk] {
        let mut cfg = RunConfig::named(NamedConfig::QpipeCs);
        cfg.io_mode = io;
        let rep = run_batch(ssb(), &cfg, &queries, false);
        assert!(rep.disk.bytes_read > 0, "{io:?}");
        assert!(rep.disk.requests > 0, "{io:?}");
        assert!(rep.disk.busy_ns > 0.0, "{io:?}");
        assert!(rep.read_rate_mbps > 0.0, "{io:?}");
        // The device can't be busy longer than the run.
        assert!(
            rep.disk.busy_ns <= rep.makespan_secs * 1e9 * 1.0001,
            "{io:?}: busy {} > makespan {}",
            rep.disk.busy_ns,
            rep.makespan_secs * 1e9
        );
    }
}

#[test]
fn admission_time_only_reported_for_cjoin() {
    let mut r = workload::rng(43);
    let queries: Vec<_> = (0..3)
        .map(|i| workload::ssb_q3_2(i as u64, &mut r))
        .collect();
    let qp = run_batch(ssb(), &RunConfig::named(NamedConfig::QpipeSp), &queries, false);
    assert_eq!(qp.admission_secs(), 0.0);
    assert_eq!(qp.cpu.secs(CostKind::Routing), 0.0);
    let cj = run_batch(ssb(), &RunConfig::named(NamedConfig::Cjoin), &queries, false);
    assert!(cj.admission_secs() > 0.0);
    assert!(cj.cpu.secs(CostKind::Routing) > 0.0);
}

#[test]
fn throughput_report_is_consistent() {
    let cfg = RunConfig::named(NamedConfig::CjoinSp);
    let load = ServiceLoad {
        clients: 4,
        arrivals_per_sec: None,
        tenants: 1,
        window_secs: 1.0,
        seed: 3,
    };
    let rep = run_service(ssb(), &cfg, "lineorder", load, |id, rng| {
        workload::ssb_q3_2(id, rng)
    });
    assert!(rep.completed > 0);
    let per_hour = rep.completed as f64 / (1.0 / 3600.0);
    assert!((rep.queries_per_hour - per_hour).abs() < 1e-6);
    assert!(rep.mean_latency_secs > 0.0);
    assert!(rep.avg_cores_used > 0.0 && rep.avg_cores_used <= 24.0);

    // Service accounting with the default (inactive) ServiceConfig: every
    // submission is admitted, nothing sheds or errors, and goodput equals
    // throughput because no SLO target is set.
    assert!(rep.is_conserved(), "{rep:?}");
    assert_eq!(rep.submitted, rep.completed + rep.completed_late, "{rep:?}");
    assert_eq!(rep.shed_queue_full + rep.shed_deadline + rep.errors, 0);
    assert!((rep.goodput_per_hour - rep.queries_per_hour).abs() < 1e-6);

    // Percentiles come from the latency histogram (exact nearest-rank at
    // this sample count): positive, ordered, and consistent with the mean
    // (the median of a non-negative sample is at most twice its mean).
    assert!(rep.p50_latency_secs > 0.0, "{rep:?}");
    assert!(rep.p50_latency_secs <= rep.p99_latency_secs, "{rep:?}");
    assert!(rep.p50_latency_secs <= 2.0 * rep.mean_latency_secs, "{rep:?}");
    assert!(rep.p99_latency_secs <= 1.0, "one-second window bounds latency");

    // A single-tenant run reports one tenant row that mirrors the totals.
    assert_eq!(rep.tenants.len(), 1);
    let t = &rep.tenants[0];
    assert_eq!(t.tenant, 0);
    assert_eq!(t.submitted, rep.submitted);
    assert_eq!(t.completed, rep.completed + rep.completed_late);
    assert_eq!(t.shed + t.errors, 0);
}

#[test]
fn stage_rows_label_shared_queries_by_fact_table() {
    // Two star queries over two fact tables through the governed shared
    // path: the report's stage rows must say *which* stage served each
    // shared query — the label carries the fact-table name.
    let d = Dataset::ssb_two_facts(0.05, 7);
    let mut r = workload::rng(5);
    let q1 = workload::ssb_q3_2(1, &mut r);
    let mut q2 = workload::ssb_q3_2(2, &mut r);
    q2.fact = "lineorder2".into();
    let cfg = RunConfig::governed(workshare::ExecPolicy::Shared);
    let queries = [q1, q2];
    let rep = run_batch(&d, &cfg, &queries, true);
    let labels: Vec<&str> = rep.stages.iter().map(|s| s.label.as_str()).collect();
    assert_eq!(
        labels,
        vec!["Shared(lineorder)", "Shared(lineorder2)"],
        "route labels must distinguish the serving stage: {:?}",
        rep.stages
    );
    for row in &rep.stages {
        assert_eq!(row.shared_queries, 1, "{row:?}");
        assert_eq!(row.stats.admitted, 1, "{row:?}");
        assert_eq!(row.incarnations, 1, "{row:?}");
    }
    // The aggregate CJOIN counters cover both stages.
    assert_eq!(rep.cjoin.clone().unwrap().admitted, 2);

    // Every stage build fails once by injection: the carcass is shut down
    // before any query sees it, so each routed query is still counted once
    // (the carcass used to be retired as a served query and the rebuild
    // counted it again) and the answers are the fault-free run's.
    let mut faulted_cfg = cfg;
    faulted_cfg.faults = FaultPlan {
        seed: 42,
        stage_build_stride: Some(1),
        ..FaultPlan::default()
    };
    let faulted = run_batch(&d, &faulted_cfg, &queries, true);
    let served: u64 = faulted.stages.iter().map(|s| s.shared_queries).sum();
    let admitted: u64 = faulted.stages.iter().map(|s| s.stats.admitted).sum();
    assert_eq!(served, 2, "{:?}", faulted.stages);
    assert_eq!(served, faulted.governor.unwrap().routed_shared);
    assert_eq!(served, admitted, "{:?}", faulted.stages);
    assert_eq!(faulted.health.stage_rebuilds, 2, "{:?}", faulted.health);
    for row in &faulted.stages {
        assert_eq!(row.incarnations, 2, "{row:?}");
    }
    assert_eq!(faulted.results, rep.results);

    // A lone client alternating between the two facts, each query finished
    // before the next arrives: two always-on stages, each built once, and
    // answers equal to Volcano's.
    let mut r = workload::rng(6);
    let alternating: Vec<_> = (0..6)
        .map(|i| {
            let mut q = workload::ssb_q3_2(i, &mut r);
            if i % 2 == 1 {
                q.fact = "lineorder2".into();
            }
            q
        })
        .collect();
    let lone = run_staggered(&d, &cfg, "lineorder", &alternating, 0.02, true);
    assert!(lone.latencies_secs.iter().all(|&l| l < 0.02), "{lone:?}");
    assert_eq!(lone.stages.len(), 2, "{:?}", lone.stages);
    for row in &lone.stages {
        assert_eq!((row.shared_queries, row.incarnations), (3, 1), "{row:?}");
    }
    let oracle = run_batch(&d, &RunConfig::named(NamedConfig::Volcano), &alternating, true);
    assert_eq!(lone.results, oracle.results);
    // Ungoverned engines report no stage rows.
    let rep = run_batch(ssb(), &RunConfig::named(NamedConfig::CjoinSp), &[], false);
    assert!(rep.stages.is_empty());
}

#[test]
fn fabric_counts_each_physical_page_once_and_keeps_logical_rows_invariant() {
    // Two fact tables' star queries filter the same dimension tables
    // through the governed shared path. With the cross-stage admission
    // fabric (the default) each shared dimension is physically scanned
    // once per batching window for BOTH stages; with per-stage pools each
    // stage scans its dimensions itself. Physical reads must be attributed
    // to the fabric and counted once per page; the per-stage logical
    // volume must not depend on which pool ran the scans.
    let d = Dataset::ssb_two_facts(0.05, 7);
    let cfg = RunConfig::governed(workshare::ExecPolicy::Shared);
    let mut r = workload::rng(5);
    let queries: Vec<_> = (0..4)
        .map(|i| {
            let mut q = workload::ssb_q3_2(i as u64, &mut r);
            if i % 2 == 1 {
                q.fact = "lineorder2".into();
            }
            q
        })
        .collect();
    let fabric_run = run_batch(&d, &cfg, &queries, false);
    let mut perstage_cfg = cfg;
    perstage_cfg.admission_fabric = false;
    let perstage_run = run_batch(&d, &perstage_cfg, &queries, false);

    // The fabric run reports fabric counters; the per-stage run does not.
    let fs = fabric_run.fabric.expect("fabric run must report FabricStats");
    assert!(perstage_run.fabric.is_none());
    assert!(fs.batches > 0, "{fs:?}");

    // Physical once-per-page accounting: every page the fabric read is in
    // its own counter (per-stage counters stay 0 — a page read once for
    // two stages belongs to neither), and the engine aggregate equals it.
    for row in &fabric_run.stages {
        assert_eq!(row.stats.admission_dim_pages, 0, "{row:?}");
    }
    let fabric_cj = fabric_run.cjoin.clone().unwrap();
    assert_eq!(fabric_cj.admission_dim_pages, fs.admission_dim_pages);
    // Exactly the distinct dimension page counts per window: the batch
    // submits at one virtual instant, so one window serves both stages and
    // scans customer + supplier + date once each.
    let sm = d.instantiate(cfg.storage_config(), cfg.cost);
    let pages = |t: &str| sm.page_count(sm.table(t)) as u64;
    let once = pages("customer") + pages("supplier") + pages("date");
    assert_eq!(fs.admission_dim_pages, once * fs.batches, "{fs:?}");
    assert!(fs.cross_stage_batches >= 1, "window never merged stages: {fs:?}");

    // Logical per-query volume is batching-invariant: identical per stage
    // and in aggregate, however the scans were pooled — while the fabric's
    // physical reads are at most the per-stage pools' (strictly less when
    // a window merged stages).
    let perstage_cj = perstage_run.cjoin.clone().unwrap();
    assert_eq!(fabric_cj.admission_dim_rows, perstage_cj.admission_dim_rows);
    assert_eq!(fabric_cj.admitted, perstage_cj.admitted);
    let per_stage_rows = |rep: &workshare::harness::RunReport| {
        let mut v: Vec<(String, u64)> = rep
            .stages
            .iter()
            .map(|s| (s.fact.clone(), s.stats.admission_dim_rows))
            .collect();
        v.sort();
        v
    };
    assert_eq!(per_stage_rows(&fabric_run), per_stage_rows(&perstage_run));
    assert!(
        fs.admission_dim_pages < perstage_cj.admission_dim_pages,
        "cross-stage sharing must reduce physical reads: fabric {fs:?} vs {perstage_cj:?}"
    );
}

#[test]
fn dimension_less_queries_ride_the_star_crowds_scan() {
    // One circular scan per table: four dimension-less sums submitted
    // beside eight Q3.2 ride the crowd's wrap of `lineorder` on the
    // governed engine, so the fact scan is paid once, not once per scanner.
    let mut r = workload::rng(44);
    let stars: Vec<_> = (0..8).map(|i| workload::ssb_q3_2(i, &mut r)).collect();
    let sums = (8..12).map(|id| StarQuery {
        id,
        fact: "lineorder".into(),
        fact_pred: Predicate::True,
        dims: vec![],
        group_by: vec![],
        aggs: vec![AggSpec::sum(ColRef::fact("lo_revenue"))],
        order_by: vec![],
    });
    let mixed: Vec<_> = stars.iter().cloned().chain(sums).collect();
    let cfg = RunConfig::governed(ExecPolicy::Shared);
    let scan_secs = |queries: &[StarQuery]| {
        let rep = run_batch(ssb(), &cfg, queries, false);
        assert!(rep.qpipe_sharing.is_none(), "{:?}", rep.qpipe_sharing);
        rep.cpu.secs(CostKind::Scan)
    };
    let (alone, together) = (scan_secs(&stars), scan_secs(&mixed));
    let ratio = together / alone;
    assert!(
        (ratio - 1.0).abs() <= 0.01,
        "Scan CPU {together} s with the sums vs {alone} s without: {ratio:.3}×"
    );
}

#[test]
fn sharing_stats_bounded_by_query_count() {
    let queries = workload::limited_plans(10, 2, 4, workload::ssb_q3_2_narrow);
    let rep = run_batch(ssb(), &RunConfig::named(NamedConfig::QpipeSp), &queries, false);
    let s = rep.qpipe_sharing.unwrap();
    let join_shares: u64 = s.join_satellites_by_level.iter().sum();
    assert!(join_shares <= 10);
    // Q3.2 touches 4 tables; satellites bounded by queries × tables.
    assert!(s.scan_satellites <= 40);
    assert!(s.scan_hosts <= 4);
}
