//! Property-based tests of the **overload-safe service loop**: for random
//! arrival bursts — closed- or open-loop, multi-tenant, with or without a
//! queue cap, a deadline, and injected bind errors — every submitted query
//! must end in exactly one of {completed, shed, error}, and the per-tenant
//! rows must add up to the totals, under both the engine-level admission
//! fabric and per-stage admission pools.

use std::sync::OnceLock;

use proptest::prelude::*;

use workshare::harness::{run_service, ServiceLoad};
use workshare::{workload, Dataset, ExecPolicy, FaultPlan, RunConfig, ServiceConfig};

fn ssb() -> &'static Dataset {
    static D: OnceLock<Dataset> = OnceLock::new();
    D.get_or_init(|| Dataset::ssb(0.05, 4321))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Conservation and per-tenant accounting under random service loads.
    #[test]
    fn every_submission_is_accounted_exactly_once(
        clients in 1usize..5,
        tenants in 1usize..4,
        open_loop in proptest::bool::ANY,
        rate in 100.0f64..1500.0,
        capped in proptest::bool::ANY,
        cap in 1usize..6,
        tight_deadline in proptest::bool::ANY,
        fabric in proptest::bool::ANY,
        inject_errors in proptest::bool::ANY,
        stride in 2u64..5,
        inject_panics in proptest::bool::ANY,
        panic_stride in 3u64..6,
        seed in 0u64..1000,
    ) {
        let open_rate = open_loop.then_some(rate);
        let queue_cap = capped.then_some(cap);
        let err_stride = inject_errors.then_some(stride);
        let worker_panic_stride = inject_panics.then_some(panic_stride);
        let mut cfg = RunConfig::governed(ExecPolicy::Adaptive);
        cfg.admission_fabric = fabric;
        cfg.service = ServiceConfig {
            queue_cap,
            // Tight enough that the predicted latency sheds some (often
            // all) submissions at SF 0.05, loose enough to stay non-zero.
            deadline_secs: tight_deadline.then_some(0.002),
            ..ServiceConfig::default()
        };
        // Mid-execution worker panics: the completion guard must turn
        // them into error outcomes, never lost queries or deadlock. No
        // self-healing: this property is about the service loop alone, so
        // no monitor, ladder or supervised fabric windows are built.
        cfg.faults = FaultPlan {
            worker_panic_stride,
            self_heal: false,
            ..FaultPlan::default()
        };
        let load = ServiceLoad {
            clients,
            arrivals_per_sec: open_rate,
            tenants,
            window_secs: 0.25,
            seed,
        };
        let rep = run_service(ssb(), &cfg, "lineorder", load, move |id, rng| {
            let mut q = workload::ssb_q3_2(id, rng);
            if err_stride.is_some_and(|s| id % s == 0) {
                // Unresolvable payload column: binding must surface a
                // typed per-query error outcome, never a panic.
                q.dims[0].payload = vec!["no_such_col".into()];
            }
            q
        });

        prop_assert!(rep.is_conserved(), "{rep:?}");
        prop_assert_eq!(rep.clients, clients);

        // Per-tenant rows: one per tenant, each internally balanced, and
        // their sums reproduce the engine-wide totals.
        prop_assert_eq!(rep.tenants.len(), tenants);
        for row in &rep.tenants {
            prop_assert_eq!(
                row.submitted,
                row.completed + row.shed + row.errors,
                "tenant {} unbalanced: {row:?}",
                row.tenant
            );
        }
        let sub: u64 = rep.tenants.iter().map(|t| t.submitted).sum();
        let comp: u64 = rep.tenants.iter().map(|t| t.completed).sum();
        let shed: u64 = rep.tenants.iter().map(|t| t.shed).sum();
        let errs: u64 = rep.tenants.iter().map(|t| t.errors).sum();
        prop_assert_eq!(sub, rep.submitted);
        prop_assert_eq!(comp, rep.completed + rep.completed_late);
        prop_assert_eq!(shed, rep.shed_queue_full + rep.shed_deadline);
        prop_assert_eq!(errs, rep.errors);

        // An inactive service config admits everything (legacy behavior).
        if queue_cap.is_none() && !tight_deadline {
            prop_assert_eq!(rep.shed_queue_full + rep.shed_deadline, 0);
        }
        // Without a cap there is no queue to fill.
        if queue_cap.is_none() {
            prop_assert_eq!(rep.shed_queue_full, 0);
        }
        // Without a deadline nothing sheds on predicted latency, and
        // goodput is plain throughput.
        if !tight_deadline {
            prop_assert_eq!(rep.shed_deadline, 0);
            prop_assert!(
                (rep.goodput_per_hour - rep.queries_per_hour).abs() < 1e-6,
                "{rep:?}"
            );
        }
        // Injected bind errors and worker panics only ever produce error
        // outcomes; without injection the workload is error-free.
        if err_stride.is_none() && worker_panic_stride.is_none() {
            prop_assert_eq!(rep.errors, 0, "{rep:?}");
        }
        // Latency percentiles exist whenever something completed in-window.
        if rep.completed > 0 {
            prop_assert!(rep.p50_latency_secs > 0.0);
            prop_assert!(rep.p50_latency_secs <= rep.p99_latency_secs);
        }
    }
}

/// Deterministic companion to the property above: force the shared path
/// (every admitted query executes a worker closure with the injected
/// panic), and require that stride-3 faults really fire, surface as typed
/// error outcomes, and leave the report conserved — the completion guard
/// poisons the abandoned slot and the queue permit is released by its RAII
/// drop, so a panicking worker can neither lose a query nor wedge the
/// admission queue.
#[test]
fn injected_worker_panics_surface_as_errors_and_conserve() {
    let mut cfg = RunConfig::governed(ExecPolicy::Shared);
    cfg.faults = FaultPlan {
        worker_panic_stride: Some(3),
        self_heal: false,
        ..FaultPlan::default()
    };
    let load = ServiceLoad {
        clients: 3,
        arrivals_per_sec: None,
        tenants: 2,
        window_secs: 0.25,
        seed: 7,
    };
    let rep = run_service(ssb(), &cfg, "lineorder", load, |id, rng| {
        workload::ssb_q3_2(id, rng)
    });
    assert!(rep.is_conserved(), "{rep:?}");
    assert!(rep.submitted > 0 && rep.completed > 0, "{rep:?}");
    assert!(rep.errors > 0, "stride-3 faults must have fired: {rep:?}");
    for row in &rep.tenants {
        assert_eq!(
            row.submitted,
            row.completed + row.shed + row.errors,
            "tenant {} unbalanced: {row:?}",
            row.tenant
        );
    }
}
