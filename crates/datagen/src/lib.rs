//! # workshare-datagen — deterministic SSB / TPC-H data generation
//!
//! Generates the Star Schema Benchmark tables (`date`, `customer`,
//! `supplier`, `part`, `lineorder`) and the TPC-H `lineitem` table (for the
//! Figure 6 TPC-H Q1 workload), then loads them into a
//! [`StorageManager`](workshare_storage::StorageManager).
//!
//! ## Scale
//!
//! Row counts are **1/100** of standard SSB for the fact table and **1/10**
//! for dimensions (dimensions need enough rows for 1/25-nation selectivity
//! granularity at small scale factors):
//!
//! | table     | standard SSB        | ours                      |
//! |-----------|---------------------|---------------------------|
//! | lineorder | 6,000,000 × SF      | 60,000 × SF               |
//! | customer  | 30,000 × SF         | 3,000 × SF                |
//! | supplier  | 2,000 × SF          | 200 × SF                  |
//! | part      | 200k × (1+log2 SF)  | 2,000 × (1+⌊log2 SF⌋)     |
//! | date      | 2,556 (7 years)     | 2,556 (unchanged)         |
//!
//! Selectivities are ratios (nations are 1/25 of customers, year ranges are
//! fractions of 7 years), so predicate selectivity, join fan-in and sharing
//! opportunities match the paper's at every scale.
//!
//! Generation is deterministic in `(scale, seed)`.

mod dates;
mod ssb;
mod tpch;

pub use dates::{date_key, date_schema, gen_date_table, DATE_DAYS, YEARS};
pub use ssb::{
    city_of, customer_schema, gen_customer, gen_lineorder, gen_part, gen_supplier,
    lineorder_schema, load_ssb, part_schema, region_of, supplier_schema, SsbTables,
    NATIONS, REGIONS,
};
pub use tpch::{gen_lineitem, lineitem_schema, load_tpch, TpchTables};

/// Scaled SSB row counts for our 1/100 reproduction scale.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SsbScale {
    /// Paper-equivalent scale factor (SF 1 ⇒ 60 k lineorder rows here).
    pub sf: f64,
}

impl SsbScale {
    /// Construct; scale factors below 0.01 are clamped up.
    pub fn new(sf: f64) -> SsbScale {
        SsbScale { sf: sf.max(0.01) }
    }

    /// Fact-table rows.
    pub fn lineorder_rows(&self) -> usize {
        ((60_000.0 * self.sf) as usize).max(100)
    }

    /// Customer rows.
    pub fn customer_rows(&self) -> usize {
        ((3_000.0 * self.sf) as usize).max(50)
    }

    /// Supplier rows.
    pub fn supplier_rows(&self) -> usize {
        ((200.0 * self.sf) as usize).max(25)
    }

    /// Part rows.
    pub fn part_rows(&self) -> usize {
        let log = if self.sf >= 2.0 {
            self.sf.log2().floor()
        } else {
            0.0
        };
        ((2_000.0 * (1.0 + log)) as usize).max(200)
    }

    /// TPC-H lineitem rows (same 1/100 scale: SF 1 ⇒ 60 k rows).
    pub fn lineitem_rows(&self) -> usize {
        ((60_000.0 * self.sf) as usize).max(100)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scale_row_counts() {
        let s = SsbScale::new(1.0);
        assert_eq!(s.lineorder_rows(), 60_000);
        assert_eq!(s.customer_rows(), 3_000);
        assert_eq!(s.supplier_rows(), 200);
        assert_eq!(s.part_rows(), 2_000);
        let s10 = SsbScale::new(10.0);
        assert_eq!(s10.lineorder_rows(), 600_000);
        assert!(s10.part_rows() > s.part_rows());
    }

    #[test]
    fn tiny_scale_clamps_to_minimums() {
        let s = SsbScale::new(0.0);
        assert!(s.lineorder_rows() >= 100);
        assert!(s.supplier_rows() >= 25);
    }
}
