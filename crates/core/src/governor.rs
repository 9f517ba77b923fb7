//! The sharing governor: cost-driven routing between query-centric and
//! shared execution.
//!
//! The paper's central finding is that shared execution (CJOIN/QPipe-style
//! Global Query Plans) beats query-centric plans only **past a concurrency
//! threshold** (§5.2), and that the threshold moves with workload shape —
//! predicate selectivity, dimension sizes, and foreign-key clustering /
//! join-product skew all shift it. A static engine choice is therefore wrong
//! somewhere in every mixed workload. The governor makes the choice per
//! submission:
//!
//! 1. Build [`SharingSignals`] for the query from the catalog (table
//!    cardinalities) and live observations (in-flight query count, the
//!    fact stage's own crowd, the **per-dimension** admission-selectivity
//!    EWMAs of the dimensions the query actually joins, filter key-run
//!    length from [`CjoinRuntimeStats`](workshare_cjoin::CjoinRuntimeStats),
//!    and the cross-stage admission fabric's pending count
//!    ([`SharingSignals::cross_stage_pending`] — a dimension hot across
//!    fact tables amortizes the candidate's admission scan, pushing both
//!    facts' queries toward sharing).
//! 2. Ask the cost model for the predicted **response times** of both
//!    paths at the current concurrency
//!    ([`CostModel::query_centric_latency_ns`],
//!    [`CostModel::shared_latency_ns`] — core saturation, per-stage
//!    admission queueing and pipeline saturation, pipeline parallelism and
//!    disk-bandwidth amortization all modeled). The estimates are the raw
//!    model: its constants are fitted offline, and the governor learns
//!    nothing from completions.
//! 3. Apply **hysteresis**: the losing path must undercut the winning one
//!    by a margin before the route flips, so queries arriving near the
//!    crossover do not flap between engines.
//!
//! The only mutable state, the hysteresis incumbent, is keyed by a
//! workload-**shape** signature
//! ([`StarQuery::shape_signature`](workshare_common::StarQuery::shape_signature)):
//! a stream alternating two shapes routes each by its own incumbent instead
//! of flip-counting a single global cell. A decision is a pure function of
//! the live signals and that incumbent.

use std::sync::atomic::{AtomicU64, Ordering};

use parking_lot::Mutex;

use workshare_common::fxhash::FxHashMap;
use workshare_common::{CostModel, SharingSignals};

/// Which execution path a submission is routed to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Route {
    /// Private Volcano-style plan: cheapest when the machine is idle.
    QueryCentric,
    /// Shared plan (the fact's CJOIN stage): cheapest past the concurrency
    /// crossover.
    Shared,
}

impl Route {
    /// Display label.
    pub fn label(self) -> &'static str {
        match self {
            Route::QueryCentric => "QueryCentric",
            Route::Shared => "Shared",
        }
    }
}

/// Outcome of an SLO-mode routing decision
/// ([`SharingGovernor::decide_slo_keyed`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SloDecision {
    /// Some route is predicted to finish within the deadline; run it.
    Route(Route),
    /// Neither route's estimate meets the deadline: admitting the query
    /// would only burn capacity on a guaranteed SLO miss — shed it at the
    /// door.
    Shed,
}

/// Governor tuning knobs.
#[derive(Debug, Clone, Copy)]
pub struct GovernorConfig {
    /// Relative margin by which the losing path's estimate must undercut
    /// the current path's estimate before the route flips (0.25 = 25 %
    /// cheaper). Larger values mean stickier routing.
    pub hysteresis: f64,
}

impl Default for GovernorConfig {
    fn default() -> Self {
        GovernorConfig { hysteresis: 0.25 }
    }
}

/// Routing counters reported alongside a run
/// ([`RunReport::governor`](crate::harness::RunReport::governor)).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct GovernorStats {
    /// Submissions routed to the query-centric path.
    pub routed_query_centric: u64,
    /// Submissions routed to the shared path.
    pub routed_shared: u64,
    /// Route changes between consecutive decisions **of the same shape**,
    /// summed over shapes (alternating between two shapes with stable
    /// per-shape incumbents contributes nothing).
    pub flips: u64,
    /// Retired: the residual of the online calibration the governor no
    /// longer learns. Always 1.0; kept while the benchmark ledger still
    /// reports it as `core.governor.shared_residual`.
    pub shared_residual: f64,
    /// Distinct workload shapes the governor holds state for.
    pub shapes: u64,
    /// SLO-mode decisions where **neither** route's estimate met the
    /// deadline ([`SloDecision::Shed`]).
    pub slo_sheds: u64,
}

/// Hysteresis state of one workload shape.
#[derive(Default)]
struct ShapeState {
    /// Last route decided for this shape — its hysteresis incumbent.
    route: Option<Route>,
    flips: u64,
}

/// Per-submission router between query-centric and shared execution. Cheap
/// to share behind an `Arc`; all methods take `&self`.
pub struct SharingGovernor {
    cost: CostModel,
    config: GovernorConfig,
    routed_qc: AtomicU64,
    routed_sh: AtomicU64,
    slo_sheds: AtomicU64,
    shapes: Mutex<FxHashMap<u64, ShapeState>>,
}

impl SharingGovernor {
    /// New governor over `cost` with `config` knobs.
    pub fn new(cost: CostModel, config: GovernorConfig) -> SharingGovernor {
        SharingGovernor {
            cost,
            config,
            routed_qc: AtomicU64::new(0),
            routed_sh: AtomicU64::new(0),
            slo_sheds: AtomicU64::new(0),
            shapes: Mutex::new(FxHashMap::default()),
        }
    }

    /// The cost model's estimate, in virtual nanoseconds, of one query's
    /// response time via `route` under the live `signals`.
    pub fn predicted_ns(&self, route: Route, signals: &SharingSignals) -> f64 {
        match route {
            Route::QueryCentric => self.cost.query_centric_latency_ns(signals),
            Route::Shared => self.cost.shared_latency_ns(signals),
        }
    }

    /// Route one submission of workload shape `shape`. Applies hysteresis
    /// around the cost crossover **per shape**: the route flips only when
    /// the other path's estimate undercuts the shape's incumbent by the
    /// configured margin.
    pub fn decide_keyed(&self, shape: u64, signals: &SharingSignals) -> Route {
        self.decide_at(shape, signals, None)
            .expect("only a deadline sheds")
    }

    /// SLO-mode routing: like [`decide_keyed`](SharingGovernor::decide_keyed)
    /// but deadline-aware. The hysteresis-preferred route wins when its
    /// estimate meets `deadline_secs`; otherwise the other route wins **if
    /// it meets the deadline** (a genuine flip — the SLO overrides
    /// stickiness); when neither route is predicted to finish in time the
    /// query is [shed](SloDecision::Shed) without touching the shape's
    /// incumbent (a shed is not evidence about which route is cheaper).
    pub fn decide_slo_keyed(
        &self,
        shape: u64,
        signals: &SharingSignals,
        deadline_secs: f64,
    ) -> SloDecision {
        self.decide_at(shape, signals, Some(deadline_secs))
            .map_or(SloDecision::Shed, SloDecision::Route)
    }

    /// The one decision body behind [`decide_keyed`](SharingGovernor::decide_keyed)
    /// and [`decide_slo_keyed`](SharingGovernor::decide_slo_keyed): the
    /// shape's hysteresis-preferred route, overridden by `deadline_secs`
    /// when one is set; `None` is a shed.
    fn decide_at(
        &self,
        shape: u64,
        signals: &SharingSignals,
        deadline_secs: Option<f64>,
    ) -> Option<Route> {
        let qc = self.predicted_ns(Route::QueryCentric, signals);
        let sh = self.predicted_ns(Route::Shared, signals);
        let mut shapes = self.shapes.lock();
        let shape_state = shapes.entry(shape).or_default();
        let margin = 1.0 - self.config.hysteresis.clamp(0.0, 0.9);
        let preferred = match shape_state.route {
            // Cold start for this shape (no incumbent yet): a plain
            // latency comparison — no incumbent to be sticky about.
            None => {
                if sh < qc {
                    Route::Shared
                } else {
                    Route::QueryCentric
                }
            }
            Some(Route::QueryCentric) => {
                if sh < qc * margin {
                    Route::Shared
                } else {
                    Route::QueryCentric
                }
            }
            Some(Route::Shared) => {
                if qc < sh * margin {
                    Route::QueryCentric
                } else {
                    Route::Shared
                }
            }
        };
        let route = match deadline_secs {
            None => preferred,
            Some(deadline_secs) => {
                let deadline_ns = deadline_secs * 1e9;
                let (pref_ns, other, other_ns) = match preferred {
                    Route::QueryCentric => (qc, Route::Shared, sh),
                    Route::Shared => (sh, Route::QueryCentric, qc),
                };
                if pref_ns <= deadline_ns {
                    preferred
                } else if other_ns <= deadline_ns {
                    other
                } else {
                    drop(shapes);
                    self.slo_sheds.fetch_add(1, Ordering::Relaxed);
                    return None;
                }
            }
        };
        if shape_state.route.is_some_and(|prev| prev != route) {
            shape_state.flips += 1;
        }
        shape_state.route = Some(route);
        drop(shapes);
        match route {
            Route::QueryCentric => self.routed_qc.fetch_add(1, Ordering::Relaxed),
            Route::Shared => self.routed_sh.fetch_add(1, Ordering::Relaxed),
        };
        Some(route)
    }

    /// Record a route that was forced by a pinned policy
    /// ([`ExecPolicy::QueryCentric`](crate::config::ExecPolicy) /
    /// [`ExecPolicy::Shared`](crate::config::ExecPolicy)) rather than
    /// decided, so routing statistics stay meaningful for the static
    /// baselines. Does not touch the hysteresis state.
    pub fn record_forced(&self, route: Route) {
        match route {
            Route::QueryCentric => self.routed_qc.fetch_add(1, Ordering::Relaxed),
            Route::Shared => self.routed_sh.fetch_add(1, Ordering::Relaxed),
        };
    }

    /// Routing statistics, flips summed over shapes.
    pub fn stats(&self) -> GovernorStats {
        let shapes = self.shapes.lock();
        GovernorStats {
            routed_query_centric: self.routed_qc.load(Ordering::Relaxed),
            routed_shared: self.routed_sh.load(Ordering::Relaxed),
            flips: shapes.values().map(|s| s.flips).sum(),
            shared_residual: 1.0,
            shapes: shapes.len() as u64,
            slo_sheds: self.slo_sheds.load(Ordering::Relaxed),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Memory-resident scan-heavy SSB-like shape: the pipelined shared plan
    /// beats the serial private plan at idle, and with shared-scan
    /// admission the crowd keeps sharing too (queued arrivals add only
    /// their predicate-evaluation increment, not a full dimension scan).
    /// Single-stage world: the whole crowd is on the candidate's stage.
    fn signals(concurrency: f64) -> SharingSignals {
        SharingSignals {
            dim_selectivity: 0.1,
            ..SharingSignals::cold(30_000.0, 4_000.0, 3)
        }
        .with_crowd(concurrency)
    }

    /// Admission-dominated shape (tiny fact, huge dimension): a lone query
    /// pays the whole admission scan with nothing to amortize it, so
    /// query-centric wins the low end; the crowd crosses over once the scan
    /// is shared across the batch and the private plans saturate the cores.
    fn flat_signals(concurrency: f64) -> SharingSignals {
        SharingSignals {
            dim_selectivity: 0.1,
            ..SharingSignals::cold(2_000.0, 50_000.0, 1)
        }
        .with_crowd(concurrency)
    }

    /// Degenerate tiny-table shape: everything fits in a few pages, so the
    /// fixed admission cost dominates and private plans win decisively at
    /// any concurrency the hysteresis band can see.
    fn tiny_signals(concurrency: f64) -> SharingSignals {
        SharingSignals {
            dim_selectivity: 0.1,
            ..SharingSignals::cold(100.0, 100.0, 1)
        }
        .with_crowd(concurrency)
    }

    /// Disk-resident variant of the scan-heavy shape: one circular scan
    /// feeds everyone, n private streams split the device.
    fn disk_signals(concurrency: f64) -> SharingSignals {
        SharingSignals {
            fact_bytes: 11.5e6,
            disk_bandwidth_bytes_per_sec: 220.0 * 1024.0 * 1024.0,
            ..signals(concurrency)
        }
    }

    fn governor() -> SharingGovernor {
        SharingGovernor::new(CostModel::default(), GovernorConfig::default())
    }

    /// The shape key the single-shape tests below decide under.
    const SHAPE: u64 = 0;

    #[test]
    fn cold_start_decides_from_the_model_without_history() {
        // `active_queries == 0`, no incumbent: the decision is a plain
        // latency comparison per workload shape, and stats stay coherent.
        let g = governor();
        assert_eq!(
            g.decide_keyed(SHAPE, &flat_signals(0.0)),
            Route::QueryCentric
        );
        let st = g.stats();
        assert_eq!(st.routed_query_centric, 1);
        assert_eq!(st.routed_shared, 0);
        assert_eq!(st.flips, 0);
        // A scan-heavy shape cold-starts shared instead: the pipelined
        // wrap beats a fully serial private plan even for a lone query.
        let g2 = governor();
        assert_eq!(g2.decide_keyed(SHAPE, &signals(0.0)), Route::Shared);
        assert_eq!(g2.stats().flips, 0);
    }

    #[test]
    fn crowds_route_by_load_and_residency() {
        // Admission-dominated shape at idle: query-centric. The same shape
        // crowded: with de-serialized admission the batch shares one
        // dimension scan while 64 private plans fight over the cores —
        // Shared. (Before the admission de-serialization this crowd flipped
        // back to query-centric; that inversion is gone.)
        let g = governor();
        assert_eq!(
            g.decide_keyed(SHAPE, &flat_signals(0.0)),
            Route::QueryCentric
        );
        let g2 = governor();
        assert_eq!(g2.decide_keyed(SHAPE, &flat_signals(63.0)), Route::Shared);
        // Disk-resident crowd: bandwidth amortization wins — Shared.
        let g3 = governor();
        assert_eq!(g3.decide_keyed(SHAPE, &disk_signals(63.0)), Route::Shared);
    }

    #[test]
    fn cross_stage_pending_tips_admission_bound_shapes_to_shared() {
        // A lone admission-dominated query routes query-centric: nothing
        // amortizes its dimension scan.
        let g = governor();
        assert_eq!(
            g.decide_keyed(SHAPE, &flat_signals(0.0)),
            Route::QueryCentric
        );
        // The same lone query while a crowd from *other* fact stages is
        // queued on the cross-stage admission fabric: the batching window
        // scans the dimension once for everyone, the candidate's share
        // collapses, and the governor routes it shared — the fabric makes
        // a dimension hot across facts pull every fact toward sharing.
        let g2 = governor();
        let hot = SharingSignals {
            cross_stage_pending: 31.0,
            ..flat_signals(0.0)
        };
        assert_eq!(g2.decide_keyed(SHAPE, &hot), Route::Shared);
    }

    #[test]
    fn hysteresis_prevents_flapping_at_the_threshold() {
        let cost = CostModel::default();
        // Find the concurrency where the admission-dominated estimates
        // cross (query-centric wins below, shared above once the batch
        // amortizes the scan), then check the estimates really are within
        // the hysteresis band there.
        let cross = (1..512)
            .find(|&c| {
                cost.shared_latency_ns(&flat_signals(c as f64))
                    < cost.query_centric_latency_ns(&flat_signals(c as f64))
            })
            .expect("admission-dominated shape must cross") as f64;
        let qc = cost.query_centric_latency_ns(&flat_signals(cross));
        let sh = cost.shared_latency_ns(&flat_signals(cross));
        assert!((qc - sh).abs() < 0.25 * qc, "qc={qc} sh={sh}");
        // Oscillate the concurrency either side of the threshold: without
        // hysteresis every decision would flip; with it the route settles
        // after at most one transition.
        let g = governor();
        let mut routes = Vec::new();
        for i in 0..40 {
            let c = if i % 2 == 0 { cross + 2.0 } else { (cross - 2.0).max(0.0) };
            routes.push(g.decide_keyed(SHAPE, &flat_signals(c)));
        }
        assert!(
            g.stats().flips <= 1,
            "route flapped {} times across the threshold: {routes:?}",
            g.stats().flips
        );
    }

    #[test]
    fn large_swings_still_flip_the_route() {
        let g = governor();
        assert_eq!(
            g.decide_keyed(SHAPE, &flat_signals(2.0)),
            Route::QueryCentric
        );
        // A disk-resident crowd is decisively shared…
        assert_eq!(g.decide_keyed(SHAPE, &disk_signals(64.0)), Route::Shared);
        // …and a tiny admission-fixed-cost-dominated query decisively
        // isn't, even against the shared incumbent's hysteresis.
        assert_eq!(
            g.decide_keyed(SHAPE, &tiny_signals(0.0)),
            Route::QueryCentric
        );
        assert_eq!(g.stats().flips, 2);
    }

    #[test]
    fn per_shape_incumbents_are_independent() {
        // Two shapes with opposite preferences, alternated: each keeps its
        // own incumbent; no flips, no cross-shape contamination. With the
        // former single global incumbent this stream flip-counted (or
        // routed one shape by the other's incumbent) on every alternation.
        let g = governor();
        for _ in 0..25 {
            assert_eq!(g.decide_keyed(1, &signals(4.0)), Route::Shared);
            assert_eq!(g.decide_keyed(2, &tiny_signals(4.0)), Route::QueryCentric);
        }
        let st = g.stats();
        assert_eq!(st.flips, 0, "{st:?}");
        assert_eq!(st.shapes, 2);
        assert_eq!(st.routed_shared, 25);
        assert_eq!(st.routed_query_centric, 25);
    }

    #[test]
    fn slo_mode_prefers_routes_that_meet_the_deadline() {
        let cost = CostModel::default();
        let g = governor();
        let s = flat_signals(0.0); // query-centric decisively cheaper
        let qc_ns = cost.query_centric_latency_ns(&s);
        let sh_ns = cost.shared_latency_ns(&s);
        assert!(qc_ns < sh_ns, "shape precondition");
        // Generous deadline: the hysteresis-preferred (cheaper) route runs.
        let roomy = (sh_ns * 2.0) / 1e9;
        assert_eq!(g.decide_slo_keyed(7, &s, roomy), SloDecision::Route(Route::QueryCentric));
        // Deadline between the two estimates: still the meeting route.
        let between = (qc_ns + sh_ns) / 2.0 / 1e9;
        assert_eq!(g.decide_slo_keyed(7, &s, between), SloDecision::Route(Route::QueryCentric));
        assert_eq!(g.stats().slo_sheds, 0);
    }

    #[test]
    fn slo_mode_overrides_hysteresis_to_meet_the_deadline() {
        let cost = CostModel::default();
        let g = governor();
        // Establish a Shared incumbent on a shape where shared wins.
        let easy = signals(4.0);
        assert_eq!(g.decide_keyed(9, &easy), Route::Shared);
        // Now a burst where shared misses the deadline but query-centric
        // meets it: SLO mode must flip off the incumbent.
        let tiny = tiny_signals(0.0);
        let qc_ns = cost.query_centric_latency_ns(&tiny);
        let sh_ns = cost.shared_latency_ns(&tiny);
        assert!(qc_ns < sh_ns, "tiny shape favors query-centric");
        let deadline = (qc_ns + sh_ns) / 2.0 / 1e9;
        assert_eq!(
            g.decide_slo_keyed(9, &tiny, deadline),
            SloDecision::Route(Route::QueryCentric)
        );
        assert_eq!(g.stats().flips, 1, "the SLO override counts as a flip");
    }

    #[test]
    fn slo_mode_sheds_when_neither_route_can_meet_the_deadline() {
        let g = governor();
        let s = signals(4.0);
        // Establish an incumbent, then present an impossible deadline.
        assert_eq!(g.decide_slo_keyed(3, &s, 1e9), SloDecision::Route(Route::Shared));
        assert_eq!(g.decide_slo_keyed(3, &s, 1e-12), SloDecision::Shed);
        let st = g.stats();
        assert_eq!(st.slo_sheds, 1);
        // The shed left the incumbent alone: the next roomy decision is
        // still Shared with no flip.
        assert_eq!(g.decide_slo_keyed(3, &s, 1e9), SloDecision::Route(Route::Shared));
        assert_eq!(g.stats().flips, 0);
    }

    /// The shape key every decision of a pin row is filed under.
    const PIN_KEY: u64 = 0x5eed;

    /// The decision sequence behind one row of [`PINS`]: `fixture` at
    /// `crowd`, under deadline `deadline` (0 none, 1 roomy — twice the
    /// larger estimate, 2 between the two estimates, 3 1e-12 s), decided
    /// on one shape key three times — cold, against a query-centric
    /// incumbent, against a shared incumbent. The incumbents are set by
    /// undeadlined decisions on the tiny and the crowded disk fixture.
    /// Returns the three outcomes (`Q`, `S`, `X` for shed) and the final
    /// `flips`, `routed_query_centric`, `routed_shared` and `slo_sheds`.
    fn pin_sequence(
        fixture: fn(f64) -> SharingSignals,
        crowd: f64,
        deadline: usize,
    ) -> (String, [u64; 4]) {
        let cost = CostModel::default();
        let g = governor();
        let s = fixture(crowd);
        let qc = cost.query_centric_latency_ns(&s);
        let sh = cost.shared_latency_ns(&s);
        let deadline_secs = [
            None,
            Some(2.0 * qc.max(sh) / 1e9),
            Some((qc + sh) / 2.0 / 1e9),
            Some(1e-12),
        ][deadline];
        let decide = |s: &SharingSignals| match deadline_secs {
            None => SloDecision::Route(g.decide_keyed(PIN_KEY, s)),
            Some(d) => g.decide_slo_keyed(PIN_KEY, s, d),
        };
        let mut outcomes = String::new();
        let mut push = |d: SloDecision| {
            outcomes.push(match d {
                SloDecision::Route(Route::QueryCentric) => 'Q',
                SloDecision::Route(Route::Shared) => 'S',
                SloDecision::Shed => 'X',
            })
        };
        push(decide(&s));
        g.decide_keyed(PIN_KEY, &tiny_signals(0.0));
        push(decide(&s));
        g.decide_keyed(PIN_KEY, &disk_signals(64.0));
        push(decide(&s));
        let st = g.stats();
        let counters = [
            st.flips,
            st.routed_query_centric,
            st.routed_shared,
            st.slo_sheds,
        ];
        (outcomes, counters)
    }

    /// `(fixture, crowd, deadline, outcomes, [flips, routed_query_centric,
    /// routed_shared, slo_sheds])` of [`pin_sequence`], fixtures indexed
    /// `signals`, `flat_signals`, `tiny_signals`, `disk_signals`. The
    /// outcomes are the first three of those the two decision bodies
    /// `decide_keyed` and `decide_slo_keyed` had before they were merged
    /// into one; the rows were taken from the merged body while it still
    /// calibrated online, which it never did before a shape's fourth
    /// decision.
    const PINS: [(usize, f64, usize, &str, [u64; 4]); 64] = [
        (0, 0.0, 0, "SSS", [2, 1, 4, 0]),
        (0, 0.0, 1, "SSS", [2, 1, 4, 0]),
        (0, 0.0, 2, "SSS", [2, 1, 4, 0]),
        (0, 0.0, 3, "XXX", [1, 1, 1, 3]),
        (0, 2.0, 0, "SSS", [2, 1, 4, 0]),
        (0, 2.0, 1, "SSS", [2, 1, 4, 0]),
        (0, 2.0, 2, "SSS", [2, 1, 4, 0]),
        (0, 2.0, 3, "XXX", [1, 1, 1, 3]),
        (0, 8.0, 0, "SSS", [2, 1, 4, 0]),
        (0, 8.0, 1, "SSS", [2, 1, 4, 0]),
        (0, 8.0, 2, "SSS", [2, 1, 4, 0]),
        (0, 8.0, 3, "XXX", [1, 1, 1, 3]),
        (0, 63.0, 0, "SSS", [2, 1, 4, 0]),
        (0, 63.0, 1, "SSS", [2, 1, 4, 0]),
        (0, 63.0, 2, "SSS", [2, 1, 4, 0]),
        (0, 63.0, 3, "XXX", [1, 1, 1, 3]),
        (1, 0.0, 0, "QQS", [1, 3, 2, 0]),
        (1, 0.0, 1, "QQS", [1, 3, 2, 0]),
        (1, 0.0, 2, "QQQ", [2, 4, 1, 0]),
        (1, 0.0, 3, "XXX", [1, 1, 1, 3]),
        (1, 2.0, 0, "QQS", [1, 3, 2, 0]),
        (1, 2.0, 1, "QQS", [1, 3, 2, 0]),
        (1, 2.0, 2, "QQQ", [2, 4, 1, 0]),
        (1, 2.0, 3, "XXX", [1, 1, 1, 3]),
        (1, 8.0, 0, "QQS", [1, 3, 2, 0]),
        (1, 8.0, 1, "QQS", [1, 3, 2, 0]),
        (1, 8.0, 2, "QQQ", [2, 4, 1, 0]),
        (1, 8.0, 3, "XXX", [1, 1, 1, 3]),
        (1, 63.0, 0, "SSS", [2, 1, 4, 0]),
        (1, 63.0, 1, "SSS", [2, 1, 4, 0]),
        (1, 63.0, 2, "SSS", [2, 1, 4, 0]),
        (1, 63.0, 3, "XXX", [1, 1, 1, 3]),
        (2, 0.0, 0, "QQQ", [2, 4, 1, 0]),
        (2, 0.0, 1, "QQQ", [2, 4, 1, 0]),
        (2, 0.0, 2, "QQQ", [2, 4, 1, 0]),
        (2, 0.0, 3, "XXX", [1, 1, 1, 3]),
        (2, 2.0, 0, "QQQ", [2, 4, 1, 0]),
        (2, 2.0, 1, "QQQ", [2, 4, 1, 0]),
        (2, 2.0, 2, "QQQ", [2, 4, 1, 0]),
        (2, 2.0, 3, "XXX", [1, 1, 1, 3]),
        (2, 8.0, 0, "QQQ", [2, 4, 1, 0]),
        (2, 8.0, 1, "QQQ", [2, 4, 1, 0]),
        (2, 8.0, 2, "QQQ", [2, 4, 1, 0]),
        (2, 8.0, 3, "XXX", [1, 1, 1, 3]),
        (2, 63.0, 0, "QQQ", [2, 4, 1, 0]),
        (2, 63.0, 1, "QQQ", [2, 4, 1, 0]),
        (2, 63.0, 2, "QQQ", [2, 4, 1, 0]),
        (2, 63.0, 3, "XXX", [1, 1, 1, 3]),
        (3, 0.0, 0, "SQS", [2, 2, 3, 0]),
        (3, 0.0, 1, "SQS", [2, 2, 3, 0]),
        (3, 0.0, 2, "SSS", [2, 1, 4, 0]),
        (3, 0.0, 3, "XXX", [1, 1, 1, 3]),
        (3, 2.0, 0, "SSS", [2, 1, 4, 0]),
        (3, 2.0, 1, "SSS", [2, 1, 4, 0]),
        (3, 2.0, 2, "SSS", [2, 1, 4, 0]),
        (3, 2.0, 3, "XXX", [1, 1, 1, 3]),
        (3, 8.0, 0, "SSS", [2, 1, 4, 0]),
        (3, 8.0, 1, "SSS", [2, 1, 4, 0]),
        (3, 8.0, 2, "SSS", [2, 1, 4, 0]),
        (3, 8.0, 3, "XXX", [1, 1, 1, 3]),
        (3, 63.0, 0, "SSS", [2, 1, 4, 0]),
        (3, 63.0, 1, "SSS", [2, 1, 4, 0]),
        (3, 63.0, 2, "SSS", [2, 1, 4, 0]),
        (3, 63.0, 3, "XXX", [1, 1, 1, 3]),
    ];

    #[test]
    fn one_decision_body_routes_as_the_two_it_replaced() {
        let fixtures: [fn(f64) -> SharingSignals; 4] =
            [signals, flat_signals, tiny_signals, disk_signals];
        for (fixture, crowd, deadline, outcomes, counters) in PINS {
            assert_eq!(
                pin_sequence(fixtures[fixture], crowd, deadline),
                (outcomes.to_string(), counters),
                "fixture {fixture}, crowd {crowd}, deadline {deadline}"
            );
        }
    }
}
