//! Virtual CPU cost model.
//!
//! Every unit of real data-plane work charges virtual nanoseconds through
//! these constants. They are calibrated to commodity-server per-tuple costs
//! (fractions of a microsecond per tuple), so virtual response times are
//! directly comparable *in shape* to the paper's; absolute values are ~100×
//! smaller because the datasets are generated at 1/100 row scale (see
//! `docs/FIGURES.md`).
//!
//! The constants deliberately encode the asymmetries the paper analyses:
//!
//! * `copy_byte_ns` — the push-based SP forwarding cost, paid *by the
//!   producer per satellite* (the serialization point of §4).
//! * `filter_batch_fixed_ns`, `filter_probe_run_ns` and `bank_word_and_ns` —
//!   the shared-operator bookkeeping overhead that makes GQP lose at low
//!   concurrency (§5.2.2).
//! * `volcano_tuple_overhead_ns` — tuple-at-a-time iterator overhead of the
//!   Postgres-substitute baseline.

/// Tunable virtual-cost constants (nanoseconds unless noted).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CostModel {
    /// Fixed cost to fetch+pin one page from the buffer pool.
    pub scan_page_fixed_ns: f64,
    /// Per-tuple decode cost during scans.
    pub scan_tuple_ns: f64,
    /// Hash-table insert during a join build, per tuple (`hash()` part).
    pub hash_build_tuple_ns: f64,
    /// Hash-table lookup during a join probe, per tuple (`hash()`+`equal()`).
    pub hash_probe_tuple_ns: f64,
    /// Join output assembly, per emitted tuple.
    pub join_output_tuple_ns: f64,
    /// Aggregation hash-table update, per input tuple.
    pub agg_update_tuple_ns: f64,
    /// Aggregate finalization, per output group.
    pub agg_group_output_ns: f64,
    /// Sort cost: `sort_tuple_factor_ns × n × log2(n)`.
    pub sort_tuple_factor_ns: f64,
    /// Memory copy, per byte (push-based SP result forwarding).
    pub copy_byte_ns: f64,
    /// Exchange-queue operation (page push or pop), per page.
    pub exchange_page_ns: f64,
    /// Lock acquisition (SPL list lock, buffer-pool latch).
    pub lock_acquire_ns: f64,
    /// CJOIN admission: fixed per-query pipeline-pause cost.
    pub admission_query_fixed_ns: f64,
    /// CJOIN admission: per dimension tuple scanned/hashed/bit-extended.
    pub admission_tuple_ns: f64,
    /// Distributor routing, per output tuple per subscribed query.
    pub route_tuple_ns: f64,
    /// Extra per-tuple cost of the Volcano (tuple-at-a-time) baseline.
    pub volcano_tuple_overhead_ns: f64,
    /// Fixed per-batch cost of entering the vectorized shared-filter path
    /// (scratch reset, selection-vector setup).
    pub filter_batch_fixed_ns: f64,
    /// Hash probe per distinct *key run* among the tuples some referencing
    /// query still needs: the vectorized filter probes once per run of
    /// equal consecutive FKs instead of once per tuple, which is how batch
    /// routing absorbs join-product skew, and skips a tuple whose surviving
    /// queries do not join the filter's dimension.
    pub filter_probe_run_ns: f64,
    /// Bitmap-bank AND per 64-bit word (contiguous word-strided layout).
    pub bank_word_and_ns: f64,
    /// Predicate evaluation, per atomic term per tuple, at the batch rate
    /// (operator dispatch amortized by `select_batch_fixed_ns`). Every
    /// engine evaluates selections batch-at-a-time, so this is the one
    /// selection rate in the model.
    pub select_term_vec_ns: f64,
    /// Fixed per-batch predicate-evaluation cost (operator dispatch is paid
    /// once per batch, not once per tuple).
    pub select_batch_fixed_ns: f64,
}

impl Default for CostModel {
    fn default() -> Self {
        CostModel {
            scan_page_fixed_ns: 2_000.0,
            // Shore-MT-style slotted-page tuple access (latching + slot
            // lookup + decode) dominates scan-heavy queries; the paper's Q1
            // runs at ~1.6 µs/tuple end-to-end single-threaded, most of it
            // in the scan stage.
            scan_tuple_ns: 220.0,
            hash_build_tuple_ns: 90.0,
            hash_probe_tuple_ns: 70.0,
            join_output_tuple_ns: 80.0,
            agg_update_tuple_ns: 60.0,
            agg_group_output_ns: 120.0,
            sort_tuple_factor_ns: 25.0,
            copy_byte_ns: 0.25,
            exchange_page_ns: 800.0,
            lock_acquire_ns: 120.0,
            admission_query_fixed_ns: 150_000.0,
            admission_tuple_ns: 45.0,
            route_tuple_ns: 45.0,
            // Default 0: PostgreSQL's executor is mature enough that its
            // tuple-at-a-time overhead is offset by a leaner data path, which
            // is how the paper's Fig. 16 shows Postgres *ahead* at low
            // concurrency. Raise to model a naive iterator engine.
            volcano_tuple_overhead_ns: 0.0,
            filter_batch_fixed_ns: 400.0,
            // One probe per key run still pays the full hash+equal cost plus
            // the shared-operator slot indirection.
            filter_probe_run_ns: 110.0,
            bank_word_and_ns: 1.5,
            select_term_vec_ns: 6.0,
            select_batch_fixed_ns: 120.0,
        }
    }
}

impl CostModel {
    /// Cost of sorting `n` tuples.
    pub fn sort_cost(&self, n: usize) -> f64 {
        if n <= 1 {
            return self.sort_tuple_factor_ns;
        }
        self.sort_tuple_factor_ns * n as f64 * (n as f64).log2()
    }

    /// Cost of copying `bytes` (push-based SP forwarding).
    pub fn copy_cost(&self, bytes: usize) -> f64 {
        self.copy_byte_ns * bytes as f64
    }

    /// Cost of one vectorized shared-filter pass over a batch: `runs` hash
    /// probes (one per key run) plus `words` bitmap-bank word ANDs. Charged
    /// per batch.
    pub fn filter_batch_cost(&self, runs: u64, words: u64) -> f64 {
        self.filter_batch_fixed_ns
            + self.filter_probe_run_ns * runs as f64
            + self.bank_word_and_ns * words as f64
    }

    /// Cost of vectorized predicate evaluation of `terms` atomic terms over
    /// an `n`-tuple batch.
    pub fn select_batch_cost(&self, terms: usize, n: usize) -> f64 {
        self.select_batch_fixed_ns
            + self.select_term_vec_ns * terms.max(1) as f64 * n as f64
    }

    /// Cost of one **shared** admission-scan page: the page is decoded
    /// (`scan_tuple_ns`) and its rows hashed/bit-extended
    /// (`admission_tuple_ns`) once per physical row for the whole pending
    /// batch — under the cross-stage admission fabric, once for *every
    /// stage* in the batching window — while each of the `pending` queries
    /// pays only its own predicate evaluation at the batch rate
    /// (`total_terms` = Σ per-query `max(term_count, 1)`).
    ///
    /// This replaces the serial path's per-query full-scan charges
    /// (`(scan_tuple_ns + admission_tuple_ns) × rows` *per query*: the
    /// serial oracle really re-reads and re-decodes the pages per query) —
    /// the de-serialization that makes admission cost grow with *distinct
    /// dimension pages + pending queries* instead of *pages × queries*.
    /// The per-row physical rate matches the
    /// [`shared_latency_ns`](CostModel::shared_latency_ns) estimator's
    /// `(scan_tuple_ns + admission_tuple_ns)` admission term, so the
    /// governor's raw estimate prices admission at the rate it is charged.
    pub fn admission_batch_cost(&self, rows: usize, pending: usize, total_terms: usize) -> f64 {
        (self.scan_tuple_ns + self.admission_tuple_ns) * rows as f64
            + pending.max(1) as f64 * self.select_batch_fixed_ns
            + self.select_term_vec_ns * total_terms.max(pending.max(1)) as f64 * rows as f64
    }

    /// Virtual CPU work of evaluating **one** star query with a private
    /// query-centric plan (the Volcano path): scan the fact and dimension
    /// tables, build private hash tables, probe per fact tuple, aggregate
    /// the survivors. Independent of concurrency — each query repeats all
    /// of it.
    pub fn query_centric_query_ns(&self, s: &SharingSignals) -> f64 {
        let fact_scan = self.scan_tuple_ns * s.fact_tuples
            + self.scan_page_fixed_ns * (s.fact_tuples / TUPLES_PER_PAGE).max(1.0);
        let dim_scan = self.scan_tuple_ns * s.dim_tuples
            + self.select_term_vec_ns * s.dim_tuples;
        let build = self.hash_build_tuple_ns * s.dim_tuples * s.dim_selectivity;
        let probe = self.hash_probe_tuple_ns * s.fact_tuples * s.n_dims as f64;
        let agg = self.agg_update_tuple_ns * s.fact_tuples * s.fact_selectivity();
        fact_scan + dim_scan + build + probe + agg + self.volcano_tuple_overhead_ns * s.fact_tuples
    }

    /// Estimated **response time** of a query-centric plan with
    /// `s.concurrency` other queries in flight: the serial CPU work slowed
    /// by core saturation (processor sharing: each of `n` single-threaded
    /// plans progresses at rate `min(1, cores/n)`), plus the private scan's
    /// share of disk bandwidth when the database is disk-resident (`n`
    /// private streams split the device).
    pub fn query_centric_latency_ns(&self, s: &SharingSignals) -> f64 {
        let n = s.concurrency + 1.0;
        let cpu = self.query_centric_query_ns(s) * (n / s.cores.max(1.0)).max(1.0);
        let io = if s.disk_bandwidth_bytes_per_sec > 0.0 {
            s.fact_bytes / s.disk_bandwidth_bytes_per_sec * n * 1e9
        } else {
            0.0
        };
        cpu + io
    }

    /// Estimated **response time** of joining the shared plan at
    /// `s.concurrency`: the shared-scan admission (one physical dimension
    /// scan per admission batch, run by off-thread admission workers
    /// overlapping the circular scan), one full circular-scan wrap (latency
    /// is never amortized: every query must see every fact page), the
    /// shared filter work spread over the pipeline workers, this query's
    /// own routing/aggregation, and **one** scan's worth of disk time
    /// regardless of concurrency — the bandwidth amortization that makes
    /// shared execution win disk-resident.
    ///
    /// Two terms are **per stage** rather than engine-wide, keyed by
    /// [`stage_in_flight`](SharingSignals::stage_in_flight) (with sharded
    /// multi-fact stages, only the crowd on the *candidate's* fact stage
    /// queues behind its admissions and contends for its pipeline threads):
    ///
    /// * The admission **queueing** term holds only the marginal per-query
    ///   work of the other arrivals *to this stage* (slot bookkeeping +
    ///   predicate evaluation), not their full dimension scans: batched
    ///   arrivals share one scan pass. Before the admission
    ///   de-serialization this term carried each queued arrival's *entire*
    ///   admission, which is what used to flip memory-resident crowds back
    ///   to query-centric plans.
    /// * The **saturation** term scales the query's own routing/aggregation
    ///   work once the stage's member count exceeds its distributor/filter
    ///   thread capacity — a crowded fact stage answers slower per member
    ///   than a quiet one, which is what lets the governor keep a quiet
    ///   fact query-centric while a crowded one shares.
    pub fn shared_latency_ns(&self, s: &SharingSignals) -> f64 {
        // The physical dimension scan amortizes over every query pending on
        // the cross-stage admission fabric: the batching window reads each
        // distinct dimension page once for all of them, so the candidate's
        // share shrinks with the fabric's pending count (its own predicate
        // evaluation below stays private).
        let admission_scan = (self.scan_tuple_ns + self.admission_tuple_ns) * s.dim_tuples
            / (1.0 + s.cross_stage_pending.max(0.0));
        let admission_own = self.select_term_vec_ns * s.dim_tuples;
        let admission = self.admission_query_fixed_ns + admission_scan + admission_own;
        // Queueing behind the other in-flight arrivals' *serialized* state
        // work. The only serialized per-arrival step is the in-place
        // mutation of the stage's filter state — the per-page state writes
        // the old RwLock imposed are gone — so the fixed-term share is a
        // sliver of the fixed admission charge, not a tenth of it.
        let admission_queue =
            (self.admission_query_fixed_ns / 16.0 + admission_own) * s.stage_in_flight / 2.0;
        // The circular-scan thread only fetches/stamps pages; tuple decode
        // happens in the parallel filter tier, so the per-tuple part of the
        // wrap spreads over the pipeline workers.
        let wrap_scan = self.scan_tuple_ns * s.fact_tuples / s.pipeline_parallelism.max(1.0)
            + self.scan_page_fixed_ns * (s.fact_tuples / TUPLES_PER_PAGE).max(1.0);
        // One probe per key run, spread over the pipeline workers; skewed or
        // clustered foreign keys (long runs) make this cheaper — the skew
        // signal. An upper bound: it charges `n_dims` probes per fact tuple,
        // where the filter skips a tuple none of whose surviving queries
        // joins the dimension.
        let filter = self.filter_probe_run_ns * (s.fact_tuples / s.avg_key_run.max(1.0))
            * s.n_dims as f64
            / s.pipeline_parallelism.max(1.0);
        let sat = self.stage_saturation(s);
        let own = (self.bank_word_and_ns * (s.fact_tuples / 64.0) * s.n_dims as f64
            + (self.route_tuple_ns + self.agg_update_tuple_ns)
                * s.fact_tuples
                * s.fact_selectivity())
            * sat;
        let io = if s.disk_bandwidth_bytes_per_sec > 0.0 {
            s.fact_bytes / s.disk_bandwidth_bytes_per_sec * 1e9
        } else {
            0.0
        };
        admission + admission_queue + wrap_scan + filter + own + io
    }

    /// Per-stage saturation multiplier of the shared estimate: 1.0 while the
    /// candidate's stage has spare pipeline capacity, growing linearly once
    /// its member count exceeds `4 ×` the filter-worker parallelism (the
    /// distributor parts roughly quadruple the routing capacity of the
    /// filter tier, so members queue behind each other only past that
    /// point).
    pub fn stage_saturation(&self, s: &SharingSignals) -> f64 {
        ((s.stage_in_flight + 1.0) / (4.0 * s.pipeline_parallelism.max(1.0))).max(1.0)
    }
}

/// Rows per 32 KB page assumed by the estimator (SSB `lineorder` tuples are
/// ~60 bytes fixed-width).
const TUPLES_PER_PAGE: f64 = 512.0;

/// Workload-shape and live-load signals the sharing governor feeds the two
/// route estimates it compares per submission
/// ([`CostModel::query_centric_latency_ns`],
/// [`CostModel::shared_latency_ns`]).
///
/// Static fields come from the catalog (table sizes, dimension count); the
/// dynamic fields — [`dim_selectivity`](SharingSignals::dim_selectivity),
/// [`avg_key_run`](SharingSignals::avg_key_run) and
/// [`concurrency`](SharingSignals::concurrency) — are observed online
/// (admission-scan `Predicate::eval_batch*` hit rates, filter key-run
/// counters, `CjoinStage::active_queries`).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SharingSignals {
    /// Fact-table cardinality.
    pub fact_tuples: f64,
    /// Total dimension tuples scanned per query (sum over joined dims).
    pub dim_tuples: f64,
    /// Number of dimension joins in the plan.
    pub n_dims: usize,
    /// Fraction of dimension tuples selected by the dimension predicates
    /// (observed EWMA; the per-dim fact selectivity factor).
    pub dim_selectivity: f64,
    /// Average run length of equal consecutive foreign keys in fact pages
    /// (observed; clustered loads and join-product skew raise it, which
    /// lowers the shared filter's per-run probe cost).
    pub avg_key_run: f64,
    /// Queries currently sharing the plan (excluding the candidate).
    pub concurrency: f64,
    /// Queries in flight on the **candidate's fact-table stage** (excluding
    /// the candidate). With sharded multi-fact stages this is the crowd
    /// that queues behind this stage's admissions and contends for its
    /// pipeline threads; for a single-fact engine it equals
    /// [`concurrency`](SharingSignals::concurrency).
    pub stage_in_flight: f64,
    /// Queries pending on the engine's **cross-stage admission fabric**
    /// (all fact stages, excluding the candidate) at decision time. With
    /// the fabric, a batching window scans each distinct dimension table
    /// once for *every* pending query of *every* stage, so the candidate's
    /// own admission-scan share shrinks with this count — a dimension hot
    /// across fact tables pushes **both** facts' queries toward sharing.
    /// 0 without a fabric (per-stage pools share only within a stage; the
    /// [`stage_in_flight`](SharingSignals::stage_in_flight) queue term
    /// covers that).
    pub cross_stage_pending: f64,
    /// Virtual cores of the machine (saturation divisor of the
    /// query-centric path).
    pub cores: f64,
    /// Parallel filter workers of the shared pipeline.
    pub pipeline_parallelism: f64,
    /// Fact-table size in bytes (the unit of scan-bandwidth amortization).
    pub fact_bytes: f64,
    /// Sequential disk bandwidth in bytes per virtual second; 0 for a
    /// memory-resident database (disables the I/O terms).
    pub disk_bandwidth_bytes_per_sec: f64,
}

impl SharingSignals {
    /// Estimated fraction of fact tuples surviving all dimension filters:
    /// `dim_selectivity ^ n_dims` (independence assumption).
    pub fn fact_selectivity(&self) -> f64 {
        self.dim_selectivity
            .clamp(0.0, 1.0)
            .powi(self.n_dims.max(1) as i32)
    }

    /// Neutral defaults for a cold start: moderate selectivity, no observed
    /// clustering, no active queries, a 24-core memory-resident machine.
    pub fn cold(fact_tuples: f64, dim_tuples: f64, n_dims: usize) -> SharingSignals {
        SharingSignals {
            fact_tuples,
            dim_tuples,
            n_dims,
            dim_selectivity: 0.1,
            avg_key_run: 1.0,
            concurrency: 0.0,
            stage_in_flight: 0.0,
            cross_stage_pending: 0.0,
            cores: 24.0,
            pipeline_parallelism: 6.0,
            fact_bytes: 0.0,
            disk_bandwidth_bytes_per_sec: 0.0,
        }
    }

    /// Single-stage crowd of `n`: every in-flight query is on the
    /// candidate's stage (the shape of an unsharded engine, and of the
    /// cost-model unit tests).
    pub fn with_crowd(self, n: f64) -> SharingSignals {
        SharingSignals {
            concurrency: n,
            stage_in_flight: n,
            ..self
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_are_positive() {
        let c = CostModel::default();
        assert!(c.scan_tuple_ns > 0.0);
        assert!(c.copy_byte_ns > 0.0);
    }

    #[test]
    fn sort_cost_is_n_log_n() {
        let c = CostModel::default();
        let n1 = c.sort_cost(1024);
        let n2 = c.sort_cost(2048);
        assert!(n2 > 2.0 * n1, "super-linear");
        assert!(n2 < 2.5 * n1, "but close to n log n");
        assert!(c.sort_cost(0) > 0.0);
    }

    #[test]
    fn copy_cost_linear_in_bytes() {
        let c = CostModel::default();
        assert_eq!(c.copy_cost(32 * 1024), c.copy_byte_ns * 32.0 * 1024.0);
    }

    #[test]
    fn batch_charges_scale_per_run_and_word() {
        let c = CostModel::default();
        let base = c.filter_batch_cost(0, 0);
        assert_eq!(base, c.filter_batch_fixed_ns);
        assert_eq!(
            c.filter_batch_cost(10, 100) - base,
            c.filter_probe_run_ns * 10.0 + c.bank_word_and_ns * 100.0
        );
    }

    fn ssb_like_signals() -> SharingSignals {
        SharingSignals {
            dim_selectivity: 0.1,
            ..SharingSignals::cold(30_000.0, 4_000.0, 3)
        }
    }

    #[test]
    fn shared_wins_an_engine_wide_crowd() {
        let c = CostModel::default();
        // 63 queries in flight on other stages: the private plans saturate
        // the cores while the candidate's quiet stage answers as at idle.
        let crowded = SharingSignals {
            concurrency: 63.0,
            ..ssb_like_signals()
        };
        assert!(
            c.shared_latency_ns(&crowded) < c.query_centric_latency_ns(&crowded),
            "shared must win at concurrency 63"
        );
    }

    #[test]
    fn latency_model_reflects_both_residency_regimes() {
        let c = CostModel::default();
        // Memory-resident, scan-heavy: at idle the pipelined shared plan
        // beats the serial private plan (volcano pays the probe work
        // serially)…
        let mem = ssb_like_signals();
        assert!(c.shared_latency_ns(&mem) < c.query_centric_latency_ns(&mem));
        // …and with shared-scan admission the crowd keeps sharing: queued
        // arrivals add only their predicate-evaluation increment, not a
        // full private dimension scan each, so the old memory-resident
        // inversion (crowds flipping back to query-centric) is gone for
        // scan-heavy shapes.
        let crowd = mem.with_crowd(63.0);
        assert!(c.shared_latency_ns(&crowd) < c.query_centric_latency_ns(&crowd));
        // Admission-dominated shape (tiny fact, huge dimensions) at idle:
        // the one place query-centric still wins memory-resident — a lone
        // query pays the whole admission scan with nothing to amortize it.
        let flat = SharingSignals {
            dim_selectivity: 0.1,
            ..SharingSignals::cold(2_000.0, 50_000.0, 1)
        };
        assert!(c.shared_latency_ns(&flat) > c.query_centric_latency_ns(&flat));
        // Disk-resident, the paper's headline regime: one circular scan
        // feeds everyone while 64 private streams split the device —
        // sharing wins the crowd by an order of magnitude.
        let disk = SharingSignals {
            fact_bytes: 11.5e6,
            disk_bandwidth_bytes_per_sec: 220.0 * 1024.0 * 1024.0,
            ..crowd
        };
        assert!(c.shared_latency_ns(&disk) * 10.0 < c.query_centric_latency_ns(&disk));
    }

    #[test]
    fn crossover_spans_the_full_range() {
        let c = CostModel::default();
        let shares = |s: SharingSignals| c.shared_latency_ns(&s) < c.query_centric_latency_ns(&s);
        // Scan-heavy shape: sharing wins from the first query (pipeline
        // parallelism).
        assert!(
            shares(ssb_like_signals()),
            "scan-heavy shape should share immediately"
        );
        // Admission-dominated shape: with batched shared scans the
        // crossover is late but finite — the private plans saturate the
        // cores while the shared path's per-query increment stays flat.
        let flat = SharingSignals {
            dim_selectivity: 0.1,
            ..SharingSignals::cold(2_000.0, 50_000.0, 1)
        };
        assert!(
            !shares(flat.with_crowd(16.0)),
            "admission-dominated shape crosses late"
        );
        assert!(shares(flat.with_crowd(255.0)), "…but finitely");
    }

    #[test]
    fn skew_tips_a_boundary_shape_to_shared() {
        // A shape balanced so the per-run probe term decides the contest.
        // With decode and filtering both in the parallel worker tier, a
        // wide stage amortizes the probe cost regardless of clustering, so
        // the boundary lives in the *narrow* (single-worker) deployment:
        // there, unclustered keys (runs of 1) keep sharing underwater until
        // the cores saturate, while 16-tuple key runs (clustered loads,
        // join-product skew) collapse the probe cost and tip the crossover
        // from "late" to "immediately".
        let c = CostModel::default();
        let shares = |s: SharingSignals| c.shared_latency_ns(&s) < c.query_centric_latency_ns(&s);
        let boundary = SharingSignals {
            dim_selectivity: 0.1,
            pipeline_parallelism: 1.0,
            ..SharingSignals::cold(40_000.0, 20_000.0, 1)
        };
        assert!(!shares(boundary.with_crowd(8.0)));
        let skewed = SharingSignals {
            avg_key_run: 16.0,
            ..boundary
        };
        assert!(shares(skewed));
    }

    #[test]
    fn admission_batch_cost_shares_the_scan_not_the_predicates() {
        let c = CostModel::default();
        // One query: batch cost within a fixed term of the serial charge
        // (decode + hash/bit-extend per physical row, predicates at the
        // batch rate).
        let serial_one = (c.scan_tuple_ns + c.admission_tuple_ns) * 1000.0
            + c.select_batch_cost(2, 1000);
        assert_eq!(c.admission_batch_cost(1000, 1, 2), serial_one);
        // 32 queries sharing the scan: the physical per-row work is paid
        // once, so the batch is far cheaper than 32 serial scans…
        let serial_32 = 32.0 * serial_one;
        let shared_32 = c.admission_batch_cost(1000, 32, 64);
        assert!(
            shared_32 * 2.0 < serial_32,
            "shared {shared_32} vs serial {serial_32}"
        );
        // …while still growing with pending queries and predicate width.
        assert!(shared_32 > c.admission_batch_cost(1000, 1, 2));
        assert!(c.admission_batch_cost(1000, 32, 128) > shared_32);
        // Degenerate inputs stay sane (zero-term predicates charge one).
        assert!(c.admission_batch_cost(0, 0, 0) > 0.0);
    }

    #[test]
    fn stage_saturation_only_penalizes_crowded_stages() {
        let c = CostModel::default();
        let quiet = ssb_like_signals(); // stage_in_flight 0
        assert_eq!(c.stage_saturation(&quiet), 1.0);
        // Engine-wide load without stage load: the shared estimate must not
        // pay the saturation or queueing terms for a quiet fact stage.
        let busy_engine = SharingSignals {
            concurrency: 63.0,
            ..quiet
        };
        assert_eq!(
            c.shared_latency_ns(&busy_engine),
            c.shared_latency_ns(&quiet),
            "a quiet stage's shared estimate is independent of other stages"
        );
        // A crowded stage pays both: strictly slower than the quiet one.
        let crowded = quiet.with_crowd(63.0);
        assert!(c.stage_saturation(&crowded) > 2.0);
        assert!(c.shared_latency_ns(&crowded) > c.shared_latency_ns(&busy_engine));
        // Under capacity the multiplier stays exactly 1.
        let small = quiet.with_crowd(8.0);
        assert_eq!(c.stage_saturation(&small), 1.0);
    }

    #[test]
    fn cross_stage_pending_amortizes_the_admission_scan() {
        let c = CostModel::default();
        // Admission-dominated shape (tiny fact, huge dimension): at idle a
        // lone query pays the whole dimension scan and stays query-centric.
        let flat = SharingSignals {
            dim_selectivity: 0.1,
            ..SharingSignals::cold(2_000.0, 50_000.0, 1)
        };
        assert!(c.shared_latency_ns(&flat) > c.query_centric_latency_ns(&flat));
        // The same query with a crowd pending on the cross-stage admission
        // fabric — e.g. another fact table's stars filtering the same
        // dimension — shares the physical scan and the shared estimate
        // drops strictly below the private plan's.
        let hot = SharingSignals {
            cross_stage_pending: 31.0,
            ..flat
        };
        assert!(c.shared_latency_ns(&hot) < c.shared_latency_ns(&flat));
        assert!(c.shared_latency_ns(&hot) < c.query_centric_latency_ns(&hot));
        // The amortization touches only the physical scan term: its
        // saving is bounded by the full scan cost.
        let saved = c.shared_latency_ns(&flat) - c.shared_latency_ns(&hot);
        let scan = (c.scan_tuple_ns + c.admission_tuple_ns) * flat.dim_tuples;
        assert!(saved <= scan && saved > 0.9 * scan * 31.0 / 32.0);
    }

    #[test]
    fn cold_signals_are_sane() {
        let s = SharingSignals::cold(1000.0, 100.0, 3);
        assert_eq!(s.concurrency, 0.0);
        assert!(s.fact_selectivity() > 0.0 && s.fact_selectivity() < 1.0);
        // Zero-dim plans (pure scan-aggregates) still get a defined factor.
        let s0 = SharingSignals::cold(1000.0, 0.0, 0);
        assert!(s0.fact_selectivity() > 0.0);
    }

    #[test]
    fn select_batch_cost_amortizes_dispatch() {
        let c = CostModel::default();
        assert_eq!(
            c.select_batch_cost(2, 100),
            c.select_batch_fixed_ns + c.select_term_vec_ns * 200.0
        );
        // Zero-term predicates still charge one term, as in select_cost.
        assert_eq!(
            c.select_batch_cost(0, 10),
            c.select_batch_fixed_ns + c.select_term_vec_ns * 10.0
        );
    }
}
