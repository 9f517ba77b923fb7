//! Datasets: generate once, instantiate per experiment run.
//!
//! Data generation is the most expensive real-time step of an experiment
//! sweep, so generated pages (which are `Arc`-backed and cheap to clone) are
//! kept in a [`Dataset`] and mounted into a fresh [`StorageManager`] —
//! equivalent to "clearing the caches" between measurements — for every run.

use workshare_common::codec::Page;
use workshare_common::{CostModel, Schema};
use workshare_datagen::{
    gen_customer, gen_date_table, gen_lineitem, gen_lineorder, gen_part, gen_supplier,
    SsbScale,
};
use workshare_storage::{StorageConfig, StorageManager};

/// A generated database: named tables with their schemas and pages.
pub struct Dataset {
    tables: Vec<(String, Schema, Vec<Page>)>,
    /// Scale the dataset was generated at.
    pub scale: f64,
}

impl Dataset {
    /// Generate the five SSB tables at `scale` (our 1/100-row scale).
    pub fn ssb(scale: f64, seed: u64) -> Dataset {
        let s = SsbScale::new(scale);
        let (ds, dp, _) = gen_date_table();
        let (cs, cp, _) = gen_customer(s, seed);
        let (ss, sp, _) = gen_supplier(s, seed);
        let (ps, pp, _) = gen_part(s, seed);
        let (ls, lp, _) = gen_lineorder(s, seed);
        Dataset {
            tables: vec![
                ("date".into(), ds, dp),
                ("customer".into(), cs, cp),
                ("supplier".into(), ss, sp),
                ("part".into(), ps, pp),
                ("lineorder".into(), ls, lp),
            ],
            scale,
        }
    }

    /// SSB plus a **second fact table** `lineorder2` (same schema,
    /// independently drawn rows) sharing the four dimension tables — the
    /// multi-fact star schema of mixed dashboards, used by the sharded
    /// CJOIN stage tests and the `ablation_fabric` figure.
    pub fn ssb_two_facts(scale: f64, seed: u64) -> Dataset {
        let mut d = Dataset::ssb(scale, seed);
        let (ls2, lp2, _) = gen_lineorder(SsbScale::new(scale), seed ^ 0x5eed_2fac);
        d.tables.push(("lineorder2".into(), ls2, lp2));
        d
    }

    /// Generate the TPC-H `lineitem` table at `scale`.
    pub fn tpch(scale: f64, seed: u64) -> Dataset {
        let s = SsbScale::new(scale);
        let (ls, lp, _) = gen_lineitem(s, seed);
        Dataset {
            tables: vec![("lineitem".into(), ls, lp)],
            scale,
        }
    }

    /// Names of the contained tables.
    pub fn table_names(&self) -> Vec<&str> {
        self.tables.iter().map(|(n, _, _)| n.as_str()).collect()
    }

    /// Total pages across all tables.
    pub fn total_pages(&self) -> usize {
        self.tables.iter().map(|(_, _, p)| p.len()).sum()
    }

    /// Total encoded bytes across all tables.
    pub fn total_bytes(&self) -> u64 {
        self.tables
            .iter()
            .flat_map(|(_, _, p)| p.iter())
            .map(|p| p.byte_len() as u64)
            .sum()
    }

    /// Mount the dataset into a fresh storage manager (cold caches).
    pub fn instantiate(&self, config: StorageConfig, cost: CostModel) -> StorageManager {
        let sm = StorageManager::new(config, cost);
        for (name, schema, pages) in &self.tables {
            sm.create_table(name, schema.clone(), pages.clone());
        }
        sm
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use workshare_storage::IoMode;

    #[test]
    fn ssb_dataset_has_all_tables() {
        let d = Dataset::ssb(0.05, 1);
        let names = d.table_names();
        for t in ["date", "customer", "supplier", "part", "lineorder"] {
            assert!(names.contains(&t), "{t} missing");
        }
        assert!(d.total_pages() > 0);
        assert!(d.total_bytes() > 0);
    }

    #[test]
    fn instantiate_mounts_everything() {
        let d = Dataset::ssb(0.05, 1);
        let sm = d.instantiate(
            StorageConfig {
                io_mode: IoMode::Memory,
                ..Default::default()
            },
            CostModel::default(),
        );
        assert!(sm.row_count(sm.table("lineorder")) >= 100);
        // Instantiating twice gives independent registries.
        let sm2 = d.instantiate(StorageConfig::default(), CostModel::default());
        assert_eq!(
            sm.row_count(sm.table("customer")),
            sm2.row_count(sm2.table("customer"))
        );
    }

    #[test]
    fn tpch_dataset_contains_lineitem() {
        let d = Dataset::tpch(0.05, 1);
        assert_eq!(d.table_names(), vec!["lineitem"]);
    }

    #[test]
    fn two_fact_dataset_adds_an_independent_lineorder2() {
        let d = Dataset::ssb_two_facts(0.05, 1);
        assert!(d.table_names().contains(&"lineorder2"));
        let sm = d.instantiate(StorageConfig::default(), CostModel::default());
        let lo = sm.table("lineorder");
        let lo2 = sm.table("lineorder2");
        assert_ne!(lo, lo2);
        // Same scale, same schema, independent draw.
        assert_eq!(sm.row_count(lo), sm.row_count(lo2));
        assert_eq!(sm.schema(lo).col("lo_custkey"), sm.schema(lo2).col("lo_custkey"));
    }
}
