//! Smoke tests of the service loop — the deterministic CI companions to the
//! `overload` figure's predicates: queue-full sheds, deadline sheds on every
//! routing policy, weighted tenant lockout, bind errors surfacing as
//! per-query error outcomes, a lone closed-loop client repeating exactly —
//! with star queries and with dimension-less ones, which ride the same
//! stage — sixteen clients repeating exactly too, and the health monitor
//! parking on an idle engine whose stage stays built.

use std::sync::OnceLock;

use workshare::harness::{run_service, ServiceLoad};
use workshare::{
    workload, Dataset, Engine, ExecPolicy, FaultPlan, RunConfig, ServiceConfig, MAX_TENANTS,
};
use workshare_common::{AggSpec, ColRef, Predicate, StarQuery};
use workshare_sim::Machine;

fn ssb() -> &'static Dataset {
    static D: OnceLock<Dataset> = OnceLock::new();
    D.get_or_init(|| Dataset::ssb(0.05, 2468))
}

/// A dimension-less scan-aggregate over `lineorder`: the degenerate star,
/// which the governed engine's shared route admits to the fact's stage
/// like any star query — held here to what a star query is held to.
fn sum_of(id: u64, column: &str) -> StarQuery {
    StarQuery {
        id,
        fact: "lineorder".into(),
        fact_pred: Predicate::True,
        dims: vec![],
        group_by: vec![],
        aggs: vec![AggSpec::sum(ColRef::fact(column))],
        order_by: vec![],
    }
}

fn load(clients: usize, tenants: usize, window_secs: f64) -> ServiceLoad {
    ServiceLoad {
        clients,
        arrivals_per_sec: None,
        tenants,
        window_secs,
        seed: 9,
    }
}

#[test]
fn queue_cap_sheds_under_concurrency() {
    // Four closed-loop clients racing a single service slot: the losers
    // shed with QueueFull, the winners complete, everything balances.
    let mut cfg = RunConfig::governed(ExecPolicy::Adaptive);
    cfg.service = ServiceConfig {
        queue_cap: Some(1),
        ..ServiceConfig::default()
    };
    let rep = run_service(ssb(), &cfg, "lineorder", load(4, 1, 0.5), |id, rng| {
        workload::ssb_q3_2(id, rng)
    });
    assert!(rep.completed > 0, "{rep:?}");
    assert!(rep.shed_queue_full > 0, "cap 1 under 4 clients must shed: {rep:?}");
    assert_eq!(rep.shed_deadline, 0, "{rep:?}");
    assert!(rep.is_conserved(), "{rep:?}");
}

#[test]
fn impossible_deadline_sheds_every_submission() {
    // A deadline below any predicted completion: every submission is shed
    // at submit time, on the adaptive (SLO-mode) and both pinned routes.
    for policy in [
        ExecPolicy::Adaptive,
        ExecPolicy::Shared,
        ExecPolicy::QueryCentric,
    ] {
        let mut cfg = RunConfig::governed(policy);
        cfg.service = ServiceConfig {
            deadline_secs: Some(1e-7),
            ..ServiceConfig::default()
        };
        let rep = run_service(ssb(), &cfg, "lineorder", load(2, 1, 0.2), |id, rng| {
            workload::ssb_q3_2(id, rng)
        });
        assert!(rep.submitted > 0, "{policy:?}: {rep:?}");
        assert_eq!(rep.completed, 0, "{policy:?}: {rep:?}");
        assert_eq!(rep.shed_deadline, rep.submitted, "{policy:?}: {rep:?}");
        assert!(rep.is_conserved(), "{policy:?}: {rep:?}");
        if policy == ExecPolicy::Adaptive {
            // SLO mode counts its sheds in the governor stats too.
            let g = rep.governor.expect("governed run reports stats");
            assert_eq!(g.slo_sheds, rep.shed_deadline, "{g:?}");
        }
    }
}

#[test]
fn zero_weight_tenant_is_locked_out_under_explicit_weights() {
    // With weights set, a zero-weight tenant holds no slot under pressure
    // while the weighted tenants keep completing.
    let mut weights = [0.0; MAX_TENANTS];
    weights[0] = 3.0;
    weights[1] = 1.0;
    let mut cfg = RunConfig::governed(ExecPolicy::Adaptive);
    cfg.service = ServiceConfig {
        queue_cap: Some(4),
        tenant_weights: weights,
        ..ServiceConfig::default()
    };
    let rep = run_service(ssb(), &cfg, "lineorder", load(3, 3, 0.5), |id, rng| {
        workload::ssb_q3_2(id, rng)
    });
    assert!(rep.is_conserved(), "{rep:?}");
    let by_tenant = &rep.tenants;
    assert_eq!(by_tenant.len(), 3);
    assert!(by_tenant[0].completed > 0, "{rep:?}");
    assert!(by_tenant[1].completed > 0, "{rep:?}");
    assert_eq!(
        by_tenant[2].shed, by_tenant[2].submitted,
        "zero-weight tenant must shed everything: {rep:?}"
    );
    assert!(by_tenant[2].submitted > 0, "{rep:?}");
}

#[test]
fn bind_errors_surface_as_error_outcomes() {
    // Every query references a payload column its dimension doesn't have:
    // the governed engine must return per-query error outcomes (completing
    // the slot immediately) instead of panicking a stage worker.
    let cfg = RunConfig::governed(ExecPolicy::Shared);
    let star = run_service(ssb(), &cfg, "lineorder", load(2, 1, 0.2), |id, rng| {
        let mut q = workload::ssb_q3_2(id, rng);
        q.dims[0].payload = vec!["no_such_col".into()];
        q
    });
    // The same mistake in a dimension-less query.
    let non_star = run_service(ssb(), &cfg, "lineorder", load(2, 1, 0.2), |id, _| {
        sum_of(id, "no_such_col")
    });
    for rep in [star, non_star] {
        assert!(rep.submitted > 0, "{rep:?}");
        assert_eq!(rep.errors, rep.submitted, "{rep:?}");
        assert_eq!(rep.completed, 0, "{rep:?}");
        assert!(rep.is_conserved(), "{rep:?}");
    }
}

#[test]
fn lone_closed_loop_client_repeats_bit_for_bit() {
    // One client, so nothing it measures may depend on who wins a race in
    // real time. It used to: a finished query published its result before it
    // gave back its claims on the engine, and the client's next submission —
    // same virtual instant — sometimes saw them still held, a second latency
    // mode ~14 % up.
    for policy in [ExecPolicy::Adaptive, ExecPolicy::Shared] {
        let cfg = RunConfig::governed(policy);
        let run = || {
            run_service(ssb(), &cfg, "lineorder", load(1, 1, 0.13), |id, rng| {
                workload::ssb_q3_2(id, rng)
            })
        };
        let first = run();
        assert!(first.completed >= 200, "{policy:?}: {first:?}");
        assert!(first.is_conserved(), "{policy:?}: {first:?}");
        // Always on: the first query built the fact's stage, every later
        // one found it parked and reused it.
        let [stage] = &first.stages[..] else {
            panic!("one fact table, one row: {:?}", first.stages);
        };
        assert_eq!(stage.shared_queries, first.submitted, "{policy:?}: {stage:?}");
        assert_eq!(stage.incarnations, 1, "{policy:?}: {stage:?}");
        for _ in 0..2 {
            let again = run();
            assert_eq!(again.completed, first.completed);
            assert_eq!(
                again.p50_latency_secs.to_bits(),
                first.p50_latency_secs.to_bits(),
                "{policy:?}: p50 {} vs {}",
                again.p50_latency_secs,
                first.p50_latency_secs
            );
            assert_eq!(
                again.p99_latency_secs.to_bits(),
                first.p99_latency_secs.to_bits(),
                "{policy:?}: p99 {} vs {}",
                again.p99_latency_secs,
                first.p99_latency_secs
            );
            assert_eq!(again.stages, first.stages);
        }
    }

    // Dimension-less queries, with one queue slot: the client's next
    // submission arrives in the virtual instant its last query completes, so
    // it is admitted only if the permit was released before the completion
    // was published — which an observer vthread used to do afterwards,
    // shedding a quarter of the submissions and a different quarter on every
    // run.
    let mut cfg = RunConfig::governed(ExecPolicy::Shared);
    cfg.service.queue_cap = Some(1);
    let run = || {
        run_service(ssb(), &cfg, "lineorder", load(1, 1, 0.13), |id, _| {
            sum_of(id, "lo_revenue")
        })
    };
    let first = run();
    assert!(first.completed >= 100, "{first:?}");
    assert_eq!(first.shed_queue_full, 0, "{first:?}");
    assert!(first.is_conserved(), "{first:?}");
    for _ in 0..2 {
        let again = run();
        assert_eq!(again.shed_queue_full, 0, "{again:?}");
        assert_eq!(again.completed, first.completed);
        assert_eq!(
            again.p50_latency_secs.to_bits(),
            first.p50_latency_secs.to_bits()
        );
        assert_eq!(
            again.p99_latency_secs.to_bits(),
            first.p99_latency_secs.to_bits()
        );
    }
}

#[test]
fn sixteen_closed_loop_clients_repeat_bit_for_bit() {
    // Sixteen clients on 8 cores: queries join scans in flight and wait in
    // admission windows, so every run is full of vthreads made ready at one
    // virtual instant. The machine resumes them one at a time in the order
    // they were woken, and the harness reads the machine's counters at the
    // instant the last client finishes, so one seed gives one report. (When
    // the host's scheduler picked the order, no two runs agreed.)
    let mut cfg = RunConfig::governed(ExecPolicy::Adaptive);
    cfg.cores = 8;
    let run = || {
        run_service(ssb(), &cfg, "lineorder", load(16, 1, 0.03), |id, rng| {
            match id % 3 {
                0 => workload::ssb_q1_1(id, rng),
                1 => workload::ssb_q2_1(id, rng),
                _ => workload::ssb_q3_2(id, rng),
            }
        })
    };
    let first = run();
    assert!(first.completed >= 100, "{first:?}");
    assert!(first.is_conserved(), "{first:?}");
    for _ in 0..2 {
        let again = run();
        assert_eq!(again.completed, first.completed);
        assert_eq!(
            again.p50_latency_secs.to_bits(),
            first.p50_latency_secs.to_bits(),
            "p50 {} vs {}",
            again.p50_latency_secs,
            first.p50_latency_secs
        );
        assert_eq!(
            again.p99_latency_secs.to_bits(),
            first.p99_latency_secs.to_bits(),
            "p99 {} vs {}",
            again.p99_latency_secs,
            first.p99_latency_secs
        );
        assert_eq!(again.cpu, first.cpu);
        assert_eq!(
            again.avg_cores_used.to_bits(),
            first.avg_cores_used.to_bits()
        );
    }
}

#[test]
fn health_monitor_parks_on_an_idle_engine_with_a_built_stage() {
    // A healing plan (so the monitor exists) whose one armed site never
    // fires: query ids here are not multiples of u64::MAX. After one star
    // query the fact's stage stays built — and the monitor must go back to
    // parking, not tick the virtual clock of a quiet engine forever.
    let mut cfg = RunConfig::governed(ExecPolicy::Shared);
    cfg.faults = FaultPlan {
        worker_panic_stride: Some(u64::MAX),
        ..FaultPlan::default()
    };
    assert!(cfg.faults.heals());
    let machine = Machine::new(cfg.machine_config());
    let storage = ssb().instantiate(cfg.storage_config(), cfg.cost);
    let engine = Engine::new(&machine, &storage, &cfg, "lineorder");
    let q = workload::ssb_q3_2(1, &mut workload::rng(9));
    let e2 = engine.clone();
    let error = machine
        .spawn("client", move |_| {
            let ticket = e2.submit(&q);
            ticket.wait();
            ticket.error()
        })
        .join()
        .expect("client vthread panicked");
    assert_eq!(error, None);
    let [stage] = &engine.stage_rows()[..] else {
        panic!("one row: {:?}", engine.stage_rows());
    };
    assert_eq!((stage.shared_queries, stage.incarnations), (1, 1));
    assert!(engine.health_stats().is_quiet(), "{:?}", engine.health_stats());
    // Let the query's finaliser and the monitor's last tick run out first.
    let pause = || std::thread::sleep(std::time::Duration::from_millis(50));
    pause();
    let before = machine.now_ns();
    pause();
    assert_eq!(machine.now_ns(), before, "the monitor ticks an idle engine");
    engine.shutdown();
}
