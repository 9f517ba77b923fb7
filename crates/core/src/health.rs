//! Aggregated fault-injection and self-healing counters surfaced on run
//! reports ([`RunReport::health`](crate::harness::RunReport::health),
//! [`ThroughputReport::health`](crate::harness::ThroughputReport::health)).
//!
//! With the default (fully off) [`FaultPlan`](crate::config::FaultPlan)
//! every field is zero. With faults armed the acceptance invariant is that
//! every injected fault and every recovery action is **accounted**: a
//! transition of the fabric → pool → serial ladder, a retried page read, a
//! re-dispatched straggler subscan, a quarantined stage — each shows up in
//! exactly one counter here.

use workshare_cjoin::AdmissionHealthSnapshot;
use workshare_storage::StorageFaultStats;

/// Point-in-time fault/recovery accounting across all layers of one engine.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct HealthStats {
    /// Storage-layer injection and recovery counters: transient / permanent
    /// / torn faults injected, retried attempts, pages quarantined and
    /// rebuilt.
    pub storage: StorageFaultStats,
    /// Admission-layer counters: injected stalls / panics / wedges,
    /// straggler re-dispatches, failed batches, reclaimed queries, and the
    /// ladder's demotions / promotions (plus the current rung).
    pub admission: AdmissionHealthSnapshot,
    /// Stage builds that failed by injection: the carcass was shut down
    /// under the registry lock and the stage built again before any query
    /// saw it.
    pub stage_rebuilds: u64,
}

impl HealthStats {
    /// Total faults injected across every site.
    pub fn faults_injected(&self) -> u64 {
        self.storage.injected()
            + self.admission.injected_stalls
            + self.admission.injected_panics
            + self.admission.injected_wedges
            + self.stage_rebuilds
    }

    /// Total recovery actions taken (retries, re-dispatches, requeues,
    /// respawns, page rebuilds, stage rebuilds, ladder moves).
    pub fn recovery_actions(&self) -> u64 {
        self.storage.retries
            + self.storage.pages_rebuilt
            + self.admission.redispatches
            + self.admission.requeued
            + self.admission.fabric_respawns
            + self.admission.demotions
            + self.admission.promotions
            + self.stage_rebuilds
    }

    /// Whether nothing was ever injected — true for every run with the
    /// default [`FaultPlan`](crate::config::FaultPlan) (the bit-for-bit
    /// legacy guarantee).
    pub fn is_quiet(&self) -> bool {
        *self == HealthStats::default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_quiet() {
        let h = HealthStats::default();
        assert!(h.is_quiet());
        assert_eq!(h.faults_injected(), 0);
        assert_eq!(h.recovery_actions(), 0);
    }
}
