//! The four workloads: what each one is and why it exists. Nothing here calls
//! into the engine; `adapter.rs` turns a [`Shape`] into configuration.

#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Residency {
    /// The database is in memory: reads never reach the simulated disk.
    Memory,
    /// Direct I/O through a buffer pool of this many pages.
    DirectDisk { pool_pages: usize },
}

#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Load {
    /// This many queries submitted at the same virtual instant, repeated with
    /// fresh queries until the run's time is up.
    Batch { queries: usize },
    /// This many clients that each wait for their query before sending the
    /// next one, for one window of virtual time sized to the run's host time.
    Closed {
        clients: usize,
        /// Virtual seconds of the warm-up window that also calibrates how
        /// much host time a virtual second costs.
        warmup_window_s: f64,
    },
}

pub struct Shape {
    pub name: &'static str,
    /// One line, repeated in `BENCHMARK.json`.
    pub why: &'static str,
    /// SSB scale factor at the repository's 1/100-row scale.
    pub scale: f64,
    /// Virtual cores of the simulated machine.
    pub cores: u32,
    pub residency: Residency,
    pub load: Load,
}

impl Shape {
    /// Queries in flight at once, which is how many share the filters.
    pub fn concurrency(&self) -> usize {
        match self.load {
            Load::Batch { queries } => queries,
            Load::Closed { clients, .. } => clients,
        }
    }
}

pub const SHAPES: [Shape; 4] = [
    Shape {
        name: "batch64_mem",
        why: "64 simultaneous queries on memory-resident data: decode, the shared filter and aggregation do the virtual work",
        scale: 3.0,
        cores: 24,
        residency: Residency::Memory,
        load: Load::Batch { queries: 64 },
    },
    Shape {
        name: "batch64_disk",
        why: "the same queries with data 8x the buffer pool on direct I/O: storage and the simulated disk set latency, CPU layers must not",
        scale: 3.0,
        cores: 24,
        residency: Residency::DirectDisk { pool_pages: 64 },
        load: Load::Batch { queries: 64 },
    },
    Shape {
        name: "closed16",
        why: "16 closed-loop clients saturating 8 vcores: queries join a scan in flight, so admission windows and the governor are on every path",
        scale: 0.5,
        cores: 8,
        residency: Residency::Memory,
        load: Load::Closed {
            clients: 16,
            warmup_window_s: 0.05,
        },
    },
    Shape {
        name: "lone1",
        why: "one closed-loop client: nothing is amortised, the stage is rebuilt per query, simulator and stage-lifecycle host cost dominate",
        // Half of closed16's data: at SF 0.5 a lone query costs 30 ms of host
        // time, which leaves p99 under 1000 samples in a 24 s run.
        scale: 0.25,
        cores: 8,
        residency: Residency::Memory,
        load: Load::Closed {
            clients: 1,
            warmup_window_s: 0.06,
        },
    },
];

pub fn shape(name: &str) -> Option<&'static Shape> {
    SHAPES.iter().find(|s| s.name == name)
}

/// splitmix64: one seed in, a stream of well-mixed seeds out, so the dataset,
/// every repetition's queries and every service window get their own.
pub fn derive_seed(seed: u64, stream: u64) -> u64 {
    let mut z = seed.wrapping_add(stream.wrapping_add(1).wrapping_mul(0x9E37_79B9_7F4A_7C15));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn derived_seeds_differ_by_stream_and_repeat_by_seed() {
        assert_eq!(derive_seed(1, 0), derive_seed(1, 0));
        assert_ne!(derive_seed(1, 0), derive_seed(1, 1));
        assert_ne!(derive_seed(1, 0), derive_seed(2, 0));
    }

    #[test]
    fn whys_fit_the_benchmark_file() {
        for s in &SHAPES {
            assert!(s.why.len() <= 200 && !s.why.contains('\n'), "{}", s.name);
        }
    }
}
