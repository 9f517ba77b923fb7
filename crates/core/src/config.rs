//! Engine configurations matching the paper's §5.1 experimental matrix.

use workshare_cjoin::CjoinConfig;
pub use workshare_common::FaultPlan;
use workshare_common::CostModel;
use workshare_qpipe::{ExchangeKind, QpipeConfig};
use workshare_sim::{DiskConfig, MachineConfig};
use workshare_storage::{IoMode, StorageConfig};

/// How submissions are routed between the query-centric and shared
/// execution paths. `None` in [`RunConfig::policy`] keeps the legacy
/// behavior: the single engine named by [`RunConfig::engine`] runs every
/// query.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ExecPolicy {
    /// Route every submission to a private Volcano-style plan.
    QueryCentric,
    /// Route every submission to the shared path: its fact table's CJOIN
    /// stage, dimension-less queries included.
    Shared,
    /// Cost-driven per-submission routing with hysteresis
    /// ([`SharingGovernor`](crate::governor::SharingGovernor)).
    Adaptive,
}

impl ExecPolicy {
    /// Display label for reports.
    pub fn label(self) -> &'static str {
        match self {
            ExecPolicy::QueryCentric => "Gov-QC",
            ExecPolicy::Shared => "Gov-Shared",
            ExecPolicy::Adaptive => "Adaptive",
        }
    }
}

/// The named configurations evaluated throughout the paper.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum NamedConfig {
    /// Query-centric staged engine, no sharing (baseline).
    Qpipe,
    /// + circular scans (SP at the table-scan stage only).
    QpipeCs,
    /// + SP at the join stage.
    QpipeSp,
    /// Global Query Plan with shared hash-joins (CJOIN as a QPipe stage).
    Cjoin,
    /// + SP over identical CJOIN packets.
    CjoinSp,
    /// Tuple-at-a-time query-centric iterator engine (the Postgres
    /// substitute of Fig. 16; see `docs/FIGURES.md`).
    Volcano,
}

impl NamedConfig {
    /// Display label matching the paper's figures.
    pub fn label(self) -> &'static str {
        match self {
            NamedConfig::Qpipe => "QPipe",
            NamedConfig::QpipeCs => "QPipe-CS",
            NamedConfig::QpipeSp => "QPipe-SP",
            NamedConfig::Cjoin => "CJOIN",
            NamedConfig::CjoinSp => "CJOIN-SP",
            NamedConfig::Volcano => "Postgres*",
        }
    }

    /// All configurations, in the paper's order.
    pub fn all() -> [NamedConfig; 6] {
        [
            NamedConfig::Qpipe,
            NamedConfig::QpipeCs,
            NamedConfig::QpipeSp,
            NamedConfig::Cjoin,
            NamedConfig::CjoinSp,
            NamedConfig::Volcano,
        ]
    }
}

/// Overload-control knobs for the closed-loop service driver. The default
/// is **fully off**: no queue cap, no deadline, no SLO target — every
/// submission is admitted exactly as before, preserving the legacy
/// behavior bit-for-bit.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct ServiceConfig {
    /// Cap on queries concurrently admitted into the governed engine
    /// (in flight anywhere: fabric pending, stage pending, or executing).
    /// `None` = unbounded (legacy). When the cap is hit, submissions are
    /// shed with [`ShedReason::QueueFull`](crate::ShedReason::QueueFull)
    /// instead of queueing forever.
    pub queue_cap: Option<usize>,
    /// Per-query virtual deadline in seconds, measured from submission.
    /// `None` = no deadline. With a deadline set, submissions whose
    /// predicted completion (cost model over live sharing signals) already
    /// exceeds it are shed with
    /// [`ShedReason::Deadline`](crate::ShedReason::Deadline), and the
    /// governor switches to SLO mode: prefer the route predicted to meet
    /// the deadline, shed only when neither can.
    pub deadline_secs: Option<f64>,
    /// Target p99 latency in seconds reported against by the `overload`
    /// figure's unbounded engine. Purely an observability/gating knob —
    /// shedding is driven by `deadline_secs`.
    pub slo_p99_secs: Option<f64>,
}

impl ServiceConfig {
    /// Whether any overload control is active. False = legacy behavior.
    pub fn is_active(&self) -> bool {
        self.queue_cap.is_some() || self.deadline_secs.is_some()
    }

    /// Deadline the governor's SLO mode routes against (`deadline_secs`,
    /// falling back to the p99 target when only that is set).
    pub fn slo_target_secs(&self) -> Option<f64> {
        self.deadline_secs.or(self.slo_p99_secs)
    }
}

/// Full run configuration: engine + machine + storage knobs.
#[derive(Debug, Clone, Copy)]
pub struct RunConfig {
    /// Which engine to run.
    pub engine: NamedConfig,
    /// Virtual cores (the paper's server has 24).
    pub cores: u32,
    /// Exchange implementation for SP (Fig. 6's FIFO vs SPL axis).
    pub exchange: ExchangeKind,
    /// Database residency / I/O mode.
    pub io_mode: IoMode,
    /// Buffer-pool capacity in pages (`None` = large default).
    pub buffer_pool_pages: Option<usize>,
    /// Run CJOIN with the retained per-query **serial** admission path (the
    /// paper's §3.2 behavior: the preprocessor pauses the pipeline and
    /// scans every dimension once per pending query) instead of the
    /// shared-scan, pipeline-overlapped path. Behavioral oracle and
    /// fig11 / fig12's `serial` series; see
    /// `workshare_cjoin::CjoinConfig::serial_admission`.
    pub cjoin_serial_admission: bool,
    /// Johnson et al. \[14\] run-time prediction model for scan sharing
    /// (only share once the machine saturates). Fig. 6 ablation.
    pub cs_prediction: bool,
    /// Cost model.
    pub cost: CostModel,
    /// Simulated disk parameters.
    pub disk: DiskConfig,
    /// Execution policy: `None` runs the single engine named by `engine`;
    /// `Some(_)` builds the governed engine and routes per submission.
    pub policy: Option<ExecPolicy>,
    /// Serve CJOIN admission from one engine-level **cross-stage fabric**
    /// (default, governed engines only): every sharded stage hands its
    /// pending batches to a single worker pool that merges them per
    /// batching window and scans each distinct dimension table **once for
    /// all stages** — two fact tables' star queries filtering the same
    /// dimension share one physical scan. Off = each stage runs its own
    /// admission worker (the oracle for cross-stage merge invariance, the
    /// `ablation_fabric` figure's other side, and the only mode for
    /// ungoverned / standalone stages). Ignored under
    /// [`cjoin_serial_admission`](RunConfig::cjoin_serial_admission), which
    /// admits inline on the preprocessor.
    pub admission_fabric: bool,
    /// Overload-control knobs (queue cap, deadline shedding, SLO target).
    /// Default **off**: legacy unbounded admission.
    pub service: ServiceConfig,
    /// Seeded fault-injection schedule plus the self-healing machinery it
    /// arms. Default **off**: legacy behavior bit-for-bit.
    pub faults: FaultPlan,
}

impl Default for RunConfig {
    fn default() -> Self {
        RunConfig {
            engine: NamedConfig::QpipeSp,
            cores: 24,
            exchange: ExchangeKind::Spl,
            io_mode: IoMode::Memory,
            buffer_pool_pages: None,
            cjoin_serial_admission: false,
            cs_prediction: false,
            cost: CostModel::default(),
            disk: DiskConfig::default(),
            policy: None,
            admission_fabric: true,
            service: ServiceConfig::default(),
            faults: FaultPlan::default(),
        }
    }
}

impl RunConfig {
    /// Convenience constructor.
    pub fn named(engine: NamedConfig) -> RunConfig {
        RunConfig {
            engine,
            ..Default::default()
        }
    }

    /// Governed-engine constructor: `policy` routes each submission between
    /// Volcano and the always-on CJOIN stage of its fact table — every
    /// shared query, star or dimension-less, rides that stage's one
    /// circular scan. The `engine` field still selects the stages'
    /// parameters (CJOIN-SP defaults).
    pub fn governed(policy: ExecPolicy) -> RunConfig {
        RunConfig {
            engine: NamedConfig::CjoinSp,
            policy: Some(policy),
            ..Default::default()
        }
    }

    /// Display label: the policy's when governed, the engine's otherwise.
    pub fn label(&self) -> &'static str {
        match self.policy {
            Some(p) => p.label(),
            None => self.engine.label(),
        }
    }

    /// Machine parameters implied by this configuration.
    pub fn machine_config(&self) -> MachineConfig {
        MachineConfig {
            cores: self.cores,
            disk: self.disk,
        }
    }

    /// Storage parameters implied by this configuration.
    pub fn storage_config(&self) -> StorageConfig {
        let mut sc = StorageConfig {
            io_mode: self.io_mode,
            faults: self.faults,
            ..Default::default()
        };
        if let Some(p) = self.buffer_pool_pages {
            sc.buffer_pool_pages = p;
        }
        sc
    }

    /// QPipe engine parameters implied by this configuration
    /// (meaningful for the three QPipe variants).
    pub fn qpipe_config(&self) -> QpipeConfig {
        let (cs, sp) = match self.engine {
            NamedConfig::Qpipe => (false, false),
            NamedConfig::QpipeCs => (true, false),
            NamedConfig::QpipeSp => (true, true),
            _ => (false, false),
        };
        QpipeConfig {
            exchange: self.exchange,
            circular_scans: cs,
            sp_joins: sp,
            cs_prediction: self.cs_prediction,
            cap_pages: 8,
        }
    }

    /// CJOIN stage parameters implied by this configuration.
    pub fn cjoin_config(&self) -> CjoinConfig {
        CjoinConfig {
            exchange: self.exchange,
            sp: self.engine == NamedConfig::CjoinSp,
            serial_admission: self.cjoin_serial_admission,
            faults: self.faults,
            ..Default::default()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::governor::GovernorConfig;

    #[test]
    fn labels_are_unique() {
        let mut seen = std::collections::HashSet::new();
        for c in NamedConfig::all() {
            assert!(seen.insert(c.label()));
        }
    }

    #[test]
    fn qpipe_variants_map_to_sharing_flags() {
        let q = RunConfig::named(NamedConfig::Qpipe).qpipe_config();
        assert!(!q.circular_scans && !q.sp_joins);
        let cs = RunConfig::named(NamedConfig::QpipeCs).qpipe_config();
        assert!(cs.circular_scans && !cs.sp_joins);
        let sp = RunConfig::named(NamedConfig::QpipeSp).qpipe_config();
        assert!(sp.circular_scans && sp.sp_joins);
    }

    #[test]
    fn cjoin_sp_flag_follows_engine() {
        assert!(!RunConfig::named(NamedConfig::Cjoin).cjoin_config().sp);
        assert!(RunConfig::named(NamedConfig::CjoinSp).cjoin_config().sp);
    }

    #[test]
    fn governed_configs_label_by_policy() {
        let rc = RunConfig::governed(ExecPolicy::Adaptive);
        assert_eq!(rc.policy, Some(ExecPolicy::Adaptive));
        assert_eq!(rc.label(), "Adaptive");
        assert_eq!(RunConfig::governed(ExecPolicy::QueryCentric).label(), "Gov-QC");
        assert_eq!(RunConfig::governed(ExecPolicy::Shared).label(), "Gov-Shared");
        // Ungoverned configs keep the engine's label.
        assert_eq!(RunConfig::named(NamedConfig::Cjoin).label(), "CJOIN");
    }

    #[test]
    fn admission_fabric_defaults_on_for_governed_engines() {
        let rc = RunConfig::governed(ExecPolicy::Shared);
        assert!(rc.admission_fabric, "fabric is the governed default");
    }

    #[test]
    fn service_config_defaults_off() {
        let rc = RunConfig::default();
        assert!(!rc.service.is_active(), "overload control must default off");
        assert_eq!(rc.service.queue_cap, None);
        assert_eq!(rc.service.deadline_secs, None);
        assert_eq!(rc.service.slo_target_secs(), None);
        // The SLO target is the deadline, falling back to the p99 target.
        let mut sc = ServiceConfig {
            slo_p99_secs: Some(0.5),
            ..Default::default()
        };
        assert_eq!(sc.slo_target_secs(), Some(0.5));
        assert!(!sc.is_active(), "a p99 target alone sheds nothing");
        sc.deadline_secs = Some(0.2);
        assert_eq!(sc.slo_target_secs(), Some(0.2));
        assert!(sc.is_active());
    }

    #[test]
    fn fault_plan_defaults_off() {
        let rc = RunConfig::default();
        assert!(!rc.faults.is_armed(), "fault injection must default off");
        assert!(!rc.faults.heals(), "no machinery without armed sites");
        assert!(!rc.storage_config().faults.is_armed());
        assert!(!rc.cjoin_config().faults.is_armed());
        assert_eq!(rc.faults.worker_panic_stride, None);
    }

    #[test]
    fn fault_plan_threads_into_layer_configs() {
        let mut rc = RunConfig::governed(ExecPolicy::Shared);
        rc.faults = FaultPlan {
            seed: 42,
            transient_page_stride: Some(5),
            torn_page_stride: Some(9),
            scan_stall_stride: Some(7),
            fabric_wedge_after: Some(3),
            ..Default::default()
        };
        // Every layer reads the one plan, unchanged.
        assert_eq!(rc.storage_config().faults, rc.faults);
        assert_eq!(rc.cjoin_config().faults, rc.faults);
        assert!(rc.faults.heals());
        // The no-recovery baseline disables the retry machinery.
        rc.faults.self_heal = false;
        assert!(!rc.storage_config().faults.self_heal);
        assert!(!rc.faults.heals());
    }

    /// Name one config struct's fields by destructuring its default
    /// **exhaustively — no `..`**: a field added to (or removed from) the
    /// struct stops this compiling until the census below, and with it
    /// `docs/KNOBS.md`, says what the new knob is for and who sets it.
    macro_rules! fields {
        ($ty:ident { $($field:ident),* $(,)? }) => {{
            let $ty { $($field: _),* } = $ty::default();
            (stringify!($ty), vec![$(stringify!($field)),*])
        }};
    }

    /// The knob census of `docs/KNOBS.md`: every field of every config
    /// struct a run can be parameterised through.
    fn knob_census() -> Vec<(&'static str, Vec<&'static str>)> {
        vec![
            fields!(RunConfig {
                engine, cores, exchange, io_mode, buffer_pool_pages, cjoin_serial_admission,
                cs_prediction, cost, disk, policy, admission_fabric, service, faults,
            }),
            fields!(ServiceConfig { queue_cap, deadline_secs, slo_p99_secs }),
            fields!(FaultPlan {
                seed, transient_page_stride, permanent_page_stride, torn_page_stride,
                scan_stall_stride, scan_panic_stride, fabric_wedge_after, stage_build_stride,
                worker_panic_stride, self_heal,
            }),
            fields!(GovernorConfig { hysteresis, ewma_alpha }),
            fields!(CjoinConfig { exchange, cap_pages, sp, serial_admission, faults }),
            fields!(QpipeConfig {
                exchange, circular_scans, sp_joins, cs_prediction, cap_pages,
            }),
            fields!(StorageConfig {
                io_mode, buffer_pool_pages, fs_extent_pages, fs_cache_extents, faults,
            }),
            fields!(DiskConfig {
                bandwidth_bytes_per_sec, per_request_overhead_ns, stream_switch_seek_ns,
            }),
        ]
    }

    const KNOBS_MD: &str = include_str!("../../../docs/KNOBS.md");

    #[test]
    fn knob_census_counts_every_config_field() {
        let total: usize = knob_census().iter().map(|(_, f)| f.len()).sum();
        // docs/KNOBS.md's "Count" section leads with the total and explains
        // which of the fields are set independently.
        let headline = format!("{total} fields in eight structs");
        assert!(KNOBS_MD.contains(&headline), "docs/KNOBS.md does not say \"{headline}\"");
    }

    #[test]
    fn knobs_md_names_every_field_of_the_census() {
        let doc = KNOBS_MD;
        for (ty, fields) in knob_census() {
            for field in fields {
                let name = format!("`{ty}::{field}`");
                assert!(doc.contains(&name), "docs/KNOBS.md does not mention {name}");
            }
        }
    }

    #[test]
    fn storage_overrides_apply() {
        let mut rc = RunConfig::named(NamedConfig::Qpipe);
        rc.io_mode = IoMode::DirectDisk;
        rc.buffer_pool_pages = Some(128);
        let sc = rc.storage_config();
        assert_eq!(sc.io_mode, IoMode::DirectDisk);
        assert_eq!(sc.buffer_pool_pages, 128);
    }
}
