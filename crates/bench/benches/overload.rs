//! Macro-benchmark: the **overload-safe service loop** vs an unbounded
//! engine under open-loop arrivals swept past saturation.
//!
//! Both sides run the governed adaptive engine on the same SSB workload
//! (wide Q3.2 disjunctions on a 4-core machine, so per-query aggregation
//! work the shared path cannot amortize saturates the CPUs at a modest
//! arrival rate); the *only* difference is the [`ServiceConfig`]:
//!
//! * **bounded**: a queue-depth cap plus a per-query virtual deadline —
//!   submissions are shed (`Outcome::Shed`) when the admission queue is
//!   full or when no route is predicted to meet the deadline, so the
//!   queries that *are* admitted keep pre-saturation response times.
//! * **unbounded** (default admission): every submission is admitted;
//!   past saturation the queue grows without bound and response times
//!   diverge with offered load. Its [`ServiceConfig::slo_p99_secs`] is
//!   set to the bounded side's deadline so both report goodput against
//!   the same yardstick — the knob is observability-only and does not
//!   enable shedding.
//!
//! The sweep self-calibrates: a closed-loop run measures the engine's
//! at-capacity throughput `C`, an open-loop run at `0.5 C` measures the
//! pre-saturation p99 (which sets the deadline at twice that), and the
//! sweep then offers `0.75 C`, `2 C`, and `4 C`. Results are printed as
//! JSON lines:
//!
//! ```text
//! {"bench":"overload/4x","rate_qps":…,"bounded_p99":…,"unbounded_p99":…,
//!  "bounded_goodput":…,"unbounded_goodput":…,"shed_queue_full":…,…}
//! ```
//!
//! Acceptance (checked by this binary, non-zero exit on failure):
//!
//! * past saturation the bounded loop's admitted-query p99 stays within
//!   2× the pre-saturation p99, sheds are reported, and every report
//!   conserves submissions (`submitted == completed + late + shed +
//!   errors`),
//! * the bounded loop's goodput is monotone-ish across the sweep (each
//!   step keeps ≥ 90 % of the previous), and at the top rate it beats the
//!   unbounded baseline's, whose p99 has diverged past the bound the
//!   service loop is holding.
//!
//! A second, **faulted** gate (see docs/FAULTS.md) runs the shared fabric
//! path under a seeded [`FaultPlan`] — transient page faults plus a wedging
//! fabric worker — and checks that the self-healing ladder (storage
//! retry/backoff, dark-fabric demotion, reclaim + respawn) keeps goodput
//! alive and admitted-query p99 within 3× the fault-free run, while a
//! no-recovery baseline under the same storage schedule degrades into typed
//! per-query errors and loses goodput.

use workshare_bench::{bench_line, count, gate, rounded};
use workshare_core::harness::{run_service, ServiceLoad, ThroughputReport};
use workshare_core::{workload, Dataset, ExecPolicy, FaultPlan, RunConfig, ServiceConfig};

/// Queue-depth cap of the bounded side: enough concurrency to keep the
/// shared path busy at saturation, small enough that queueing delay alone
/// cannot push admitted queries past the p99 gate.
const QUEUE_CAP: usize = 8;
/// Open-loop clients sharing the offered aggregate rate.
const CLIENTS: usize = 6;
/// Measurement window, virtual seconds.
const WINDOW_SECS: f64 = 2.0;
/// Simulated cores: small enough that wide-disjunction Q3.2 saturates at
/// a few thousand queries per second.
const CORES: u32 = 4;

fn service_run(dataset: &Dataset, service: ServiceConfig, rate: Option<f64>) -> ThroughputReport {
    let mut cfg = RunConfig::governed(ExecPolicy::Adaptive);
    cfg.cores = CORES;
    cfg.service = service;
    let load = ServiceLoad {
        clients: CLIENTS,
        arrivals_per_sec: rate,
        tenants: 1,
        window_secs: WINDOW_SECS,
        seed: 77,
    };
    run_service(dataset, &cfg, "lineorder", load, |id, rng| {
        workload::ssb_q3_2_wide(id, rng, 12, 12)
    })
}

/// Closed-loop run over the shared fabric path with a seeded fault plan:
/// the faulted-overload gate pins the policy to `Shared` so every query
/// rides the admission fabric the plan is targeting.
fn faulted_run(dataset: &Dataset, faults: FaultPlan, service: ServiceConfig) -> ThroughputReport {
    let mut cfg = RunConfig::governed(ExecPolicy::Shared);
    cfg.cores = CORES;
    cfg.admission_fabric = true;
    cfg.faults = faults;
    cfg.service = service;
    let load = ServiceLoad {
        clients: CLIENTS,
        arrivals_per_sec: None,
        tenants: 1,
        window_secs: WINDOW_SECS,
        seed: 77,
    };
    run_service(dataset, &cfg, "lineorder", load, |id, rng| {
        workload::ssb_q3_2_wide(id, rng, 12, 12)
    })
}

fn conserved(failures: &mut Vec<String>, label: &str, rep: &ThroughputReport) {
    if !rep.is_conserved() {
        failures.push(format!(
            "{label}: submitted {} != completed {} + late {} + shed {}/{} + errors {}",
            rep.submitted,
            rep.completed,
            rep.completed_late,
            rep.shed_queue_full,
            rep.shed_deadline,
            rep.errors
        ));
    }
}

fn main() {
    let dataset = Dataset::ssb(0.05, 11);
    let mut failures: Vec<String> = Vec::new();

    // At-capacity throughput: closed-loop clients keep the engine at full
    // utilization, so completed/window is the scale the sweep multiplies.
    let closed = service_run(&dataset, ServiceConfig::default(), None);
    conserved(&mut failures, "closed-loop calibration", &closed);
    let capacity = closed.completed as f64 / WINDOW_SECS;

    // Pre-saturation p99: open loop at half capacity, queue cap armed but
    // effectively idle — this anchors the overload gate below.
    let cap_only = ServiceConfig {
        queue_cap: Some(QUEUE_CAP),
        ..ServiceConfig::default()
    };
    let pre = service_run(&dataset, cap_only, Some(0.5 * capacity));
    conserved(&mut failures, "pre-saturation calibration", &pre);
    let p99_pre = pre.p99_latency_secs;
    bench_line(
        "overload/calibration",
        [
            ("capacity_qps", rounded(capacity, 3)),
            ("p99_pre_secs", rounded(p99_pre, 6)),
            ("pre_shed", count(pre.shed_queue_full + pre.shed_deadline)),
        ],
    );
    if capacity <= 0.0 || p99_pre <= 0.0 {
        gate(&[format!(
            "degenerate calibration (capacity {capacity}, p99_pre {p99_pre})"
        )]);
    }
    let deadline = 2.0 * p99_pre;

    let bounded_cfg = ServiceConfig {
        queue_cap: Some(QUEUE_CAP),
        deadline_secs: Some(deadline),
        ..ServiceConfig::default()
    };
    // Same goodput yardstick, no enforcement: the baseline stays unbounded.
    let unbounded_cfg = ServiceConfig {
        slo_p99_secs: Some(deadline),
        ..ServiceConfig::default()
    };
    let mults = [0.75, 2.0, 4.0];
    let mut prev_goodput: Option<f64> = None;
    let mut top: Option<(ThroughputReport, ThroughputReport)> = None;
    for mult in mults {
        let rate = mult * capacity;
        let bounded = service_run(&dataset, bounded_cfg, Some(rate));
        let unbounded = service_run(&dataset, unbounded_cfg, Some(rate));
        bench_line(
            &format!("overload/{mult}x"),
            [
                ("rate_qps", rounded(rate, 3)),
                ("bounded_p99", rounded(bounded.p99_latency_secs, 6)),
                ("unbounded_p99", rounded(unbounded.p99_latency_secs, 6)),
                ("bounded_goodput", rounded(bounded.goodput_per_hour, 1)),
                ("unbounded_goodput", rounded(unbounded.goodput_per_hour, 1)),
                ("shed_queue_full", count(bounded.shed_queue_full)),
                ("shed_deadline", count(bounded.shed_deadline)),
                ("bounded_submitted", count(bounded.submitted)),
                ("unbounded_submitted", count(unbounded.submitted)),
            ],
        );
        conserved(&mut failures, &format!("bounded {mult}x"), &bounded);
        conserved(&mut failures, &format!("unbounded {mult}x"), &unbounded);
        // Monotone-ish goodput: shedding the excess must not erode what
        // the bounded loop actually serves as offered load keeps rising.
        if let Some(prev) = prev_goodput {
            if bounded.goodput_per_hour < 0.9 * prev {
                failures.push(format!(
                    "bounded goodput fell from {prev:.1}/h to {:.1}/h at {mult}x",
                    bounded.goodput_per_hour
                ));
            }
        }
        prev_goodput = Some(bounded.goodput_per_hour);
        if mult > 1.0 {
            // Past saturation: admitted-query latency must stay anchored to
            // the pre-saturation distribution…
            if bounded.p99_latency_secs > 2.0 * p99_pre {
                failures.push(format!(
                    "bounded p99 {:.4}s at {mult}x exceeds 2x pre-saturation p99 {:.4}s",
                    bounded.p99_latency_secs, p99_pre
                ));
            }
            // …which is only possible because the excess was shed.
            if bounded.shed_queue_full + bounded.shed_deadline == 0 {
                failures.push(format!("no sheds at {mult}x offered load"));
            }
            top = Some((bounded, unbounded));
        }
    }
    // Deep overload: the unbounded baseline has lost both the latency
    // bound and the goodput the service loop is holding.
    if let Some((bounded, unbounded)) = &top {
        if unbounded.p99_latency_secs <= 2.0 * p99_pre {
            failures.push(format!(
                "unbounded p99 {:.4}s did not diverge past 2x pre-saturation p99 {:.4}s at the top rate",
                unbounded.p99_latency_secs, p99_pre
            ));
        }
        if bounded.goodput_per_hour < unbounded.goodput_per_hour {
            failures.push(format!(
                "bounded goodput {:.1}/h below unbounded {:.1}/h at the top rate",
                bounded.goodput_per_hour, unbounded.goodput_per_hour
            ));
        }
    } else {
        failures.push("sweep never passed saturation".into());
    }

    // ---- Faulted overload gate: seeded faults over the fabric path. ----
    let fabric_service = ServiceConfig {
        queue_cap: Some(QUEUE_CAP),
        ..ServiceConfig::default()
    };
    // Fault-free reference over the identical configuration: the yardstick
    // the healed run's p99 is gated against.
    let clean = faulted_run(&dataset, FaultPlan::default(), fabric_service);
    conserved(&mut failures, "fault-free reference", &clean);
    // Healed: transient page faults retried with backoff, and a fabric
    // worker that wedges after two windows — recovered by the health
    // monitor's demote → reclaim → respawn cycle.
    let healed = faulted_run(
        &dataset,
        FaultPlan {
            seed: 1337,
            transient_page_stride: Some(9),
            fabric_wedge_after: Some(2),
            self_heal: true,
            ..FaultPlan::default()
        },
        fabric_service,
    );
    conserved(&mut failures, "faulted healed", &healed);
    // No-recovery baseline: the same storage schedule with healing off
    // turns every injected fault into a first-attempt typed error. The
    // wedge site stays unarmed here — a wedged fabric with no monitor
    // holds its queued work forever by design.
    let baseline = faulted_run(
        &dataset,
        FaultPlan {
            seed: 1337,
            transient_page_stride: Some(9),
            self_heal: false,
            ..FaultPlan::default()
        },
        fabric_service,
    );
    conserved(&mut failures, "faulted no-recovery baseline", &baseline);

    let h = &healed.health;
    bench_line(
        "overload/faulted",
        [
            ("clean_p99", rounded(clean.p99_latency_secs, 6)),
            ("healed_p99", rounded(healed.p99_latency_secs, 6)),
            ("healed_goodput", rounded(healed.goodput_per_hour, 1)),
            ("baseline_goodput", rounded(baseline.goodput_per_hour, 1)),
            ("baseline_errors", count(baseline.errors)),
            ("retries", count(h.storage.retries)),
            ("wedges", count(h.admission.injected_wedges)),
            ("demotions", count(h.admission.demotions)),
            ("respawns", count(h.admission.fabric_respawns)),
            ("rung", count(h.admission.rung as u64)),
        ],
    );
    if healed.completed + healed.completed_late == 0 {
        failures.push("healed run produced no goodput".into());
    }
    if healed.p99_latency_secs > 3.0 * clean.p99_latency_secs {
        failures.push(format!(
            "healed p99 {:.4}s exceeds 3x fault-free p99 {:.4}s",
            healed.p99_latency_secs, clean.p99_latency_secs
        ));
    }
    if h.storage.retries == 0 {
        failures.push("healed run recorded no transient retries".into());
    }
    if h.admission.injected_wedges == 0 {
        failures.push("fabric worker never wedged under the plan".into());
    }
    if h.admission.demotions == 0 {
        failures.push("dark fabric never demoted the ladder".into());
    }
    if h.admission.fabric_respawns == 0 {
        failures.push("monitor never respawned the wedged worker".into());
    }
    if baseline.errors == 0 {
        failures.push("no-recovery baseline surfaced no errors".into());
    }
    if baseline.goodput_per_hour >= healed.goodput_per_hour {
        failures.push(format!(
            "no-recovery goodput {:.1}/h not below healed {:.1}/h",
            baseline.goodput_per_hour, healed.goodput_per_hour
        ));
    }

    gate(&failures);
}
