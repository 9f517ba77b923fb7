//! Windows of Opportunity (paper §2.2, Figure 2b).
//!
//! The WoP of a pivot operator bounds how much of an in-progress (host)
//! evaluation a newly arrived identical (satellite) packet can reuse:
//!
//! * **Step** — full reuse iff the satellite arrives before the host's first
//!   output tuple; zero afterwards. Joins and aggregations.
//! * **Linear** — reuse proportional to the remaining work from the arrival
//!   point; the satellite later re-issues the part it missed. Table scans
//!   (realized as circular scans: the missed prefix is produced after the
//!   wrap) and sorts.

/// Window-of-opportunity class of a pivot operator.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Wop {
    /// Full reuse only before the first output tuple.
    Step,
    /// Reuse from arrival onward; the missed prefix is recomputed/wrapped.
    Linear,
}

impl Wop {
    /// Whether a satellite arriving when the host has already emitted
    /// `emitted_pages` (out of `total_pages`, if known) may attach.
    pub fn can_attach(self, emitted_pages: u64, host_closed: bool) -> bool {
        match self {
            Wop::Step => emitted_pages == 0 && !host_closed,
            Wop::Linear => !host_closed,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn step_attaches_only_before_first_output() {
        assert!(Wop::Step.can_attach(0, false));
        assert!(!Wop::Step.can_attach(1, false));
        assert!(!Wop::Step.can_attach(0, true));
    }

    #[test]
    fn linear_attaches_until_host_finishes() {
        assert!(Wop::Linear.can_attach(0, false));
        assert!(Wop::Linear.can_attach(1_000, false));
        assert!(!Wop::Linear.can_attach(5, true));
    }
}
