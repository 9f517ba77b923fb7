//! The storage manager: tables, I/O modes, and the page read path.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use parking_lot::{Mutex, RwLock};

use workshare_common::bind::{try_bind, BindError, BoundQuery};
use workshare_common::codec::Page;
use workshare_common::{CostModel, FaultPlan, FaultSite, Schema, StarQuery, PAGE_SIZE};
use workshare_sim::disk::StreamId;
use workshare_sim::{CostKind, SimCtx};

use crate::bufferpool::BufferPool;
use crate::fault::{page_checksum, FaultState};
use crate::fscache::FsCache;
use crate::{StorageError, StorageFaultStats};

/// Attempts (first try + retries) before a failing page read gives up.
pub const MAX_PAGE_ATTEMPTS: u32 = 4;

/// Virtual-time backoff before the first page-read retry; doubles per retry.
pub const PAGE_RETRY_BACKOFF_NS: f64 = 20_000.0;

/// Consecutive attempts a transient page fault poisons before the retry
/// succeeds. Below the retry budget ([`MAX_PAGE_ATTEMPTS`]), so a transient
/// fault always recovers when retries run.
const TRANSIENT_FAULT_BURST: u32 = 2;
const _: () = assert!(TRANSIENT_FAULT_BURST < MAX_PAGE_ATTEMPTS);

/// Identifies a registered table.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct TableId(pub u32);

/// Residency / I/O behavior of the database (paper §5.1).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IoMode {
    /// Memory-resident database: reads never touch the disk model.
    Memory,
    /// Disk-resident behind the FS cache (read-ahead, coalescing).
    BufferedDisk,
    /// Disk-resident with direct I/O: per-page requests, no FS cache.
    DirectDisk,
}

/// Storage manager configuration.
#[derive(Debug, Clone, Copy)]
pub struct StorageConfig {
    /// Residency mode.
    pub io_mode: IoMode,
    /// Buffer-pool capacity in pages.
    pub buffer_pool_pages: usize,
    /// FS-cache read-ahead extent size in pages (32 pages = 1 MB extents).
    pub fs_extent_pages: usize,
    /// FS-cache capacity in extents.
    pub fs_cache_extents: usize,
    /// The seeded fault plan (default fully off); its page-read sites.
    pub faults: FaultPlan,
}

impl Default for StorageConfig {
    fn default() -> Self {
        StorageConfig {
            io_mode: IoMode::Memory,
            // "A large buffer pool that fits datasets of scale factors up to
            // 30" — default generous; experiments override (e.g. Fig. 15 uses
            // a pool fitting 10 % of the database).
            buffer_pool_pages: 1 << 20,
            fs_extent_pages: 32,
            fs_cache_extents: 1 << 16,
            faults: FaultPlan::default(),
        }
    }
}

struct TableData {
    name: String,
    schema: Arc<Schema>,
    pages: Arc<Vec<Page>>,
    /// Per-page FNV-1a checksums, verified on read when the plan arms a
    /// page-read site; empty otherwise.
    sums: Arc<Vec<u64>>,
    rows: usize,
}

/// Heap-table storage over the simulated disk. Cheap to clone (shared).
#[derive(Clone)]
pub struct StorageManager {
    inner: Arc<StorageInner>,
}

struct StorageInner {
    config: StorageConfig,
    cost: CostModel,
    tables: RwLock<Vec<TableData>>,
    pool: Mutex<BufferPool>,
    fs: Mutex<FsCache>,
    stream_counter: AtomicU64,
    fault: FaultState,
}

impl StorageManager {
    /// Create a storage manager with the given configuration and cost model.
    pub fn new(config: StorageConfig, cost: CostModel) -> StorageManager {
        StorageManager {
            inner: Arc::new(StorageInner {
                config,
                cost,
                tables: RwLock::new(Vec::new()),
                pool: Mutex::new(BufferPool::new(config.buffer_pool_pages)),
                fs: Mutex::new(FsCache::new(config.fs_cache_extents)),
                stream_counter: AtomicU64::new(1),
                fault: FaultState::new(),
            }),
        }
    }

    /// Active configuration.
    pub fn config(&self) -> StorageConfig {
        self.inner.config
    }

    /// Register a table from pre-built pages (the datagen loaders call this).
    pub fn create_table(
        &self,
        name: &str,
        schema: Schema,
        pages: Vec<Page>,
    ) -> TableId {
        let rows = pages.iter().map(|p| p.row_count()).sum();
        let mut tables = self.inner.tables.write();
        assert!(
            tables.iter().all(|t| t.name != name),
            "table '{name}' already exists"
        );
        let id = TableId(tables.len() as u32);
        // Only an armed plan verifies a read, and the plan is fixed for the
        // manager's life: an unarmed mount hashes nothing.
        let sums = if self.inner.config.faults.arms_page_reads() {
            pages.iter().map(|p| page_checksum(p.bytes())).collect()
        } else {
            Vec::new()
        };
        tables.push(TableData {
            name: name.to_string(),
            schema: Arc::new(schema),
            pages: Arc::new(pages),
            sums: Arc::new(sums),
            rows,
        });
        id
    }

    /// Resolve a table by name; panics if absent (plans are machine-built).
    pub fn table(&self, name: &str) -> TableId {
        self.try_table(name)
            .unwrap_or_else(|| panic!("no table named '{name}'"))
    }

    /// Resolve a table by name.
    pub fn try_table(&self, name: &str) -> Option<TableId> {
        self.inner
            .tables
            .read()
            .iter()
            .position(|t| t.name == name)
            .map(|i| TableId(i as u32))
    }

    /// Table schema (shared).
    pub fn schema(&self, t: TableId) -> Arc<Schema> {
        Arc::clone(&self.inner.tables.read()[t.0 as usize].schema)
    }

    /// Bind `q` against the catalog: its fact schema and its dimension
    /// schemas in join order. The one place a plan meets the physical
    /// layout — every engine binds through here. An unresolvable column is
    /// a typed [`BindError`]; the tables themselves must exist
    /// ([`StorageManager::table`]).
    pub fn bind_query(&self, q: &StarQuery) -> Result<BoundQuery, BindError> {
        let fact = self.schema(self.table(&q.fact));
        let dims: Vec<Arc<Schema>> = q
            .dims
            .iter()
            .map(|d| self.schema(self.table(&d.dim)))
            .collect();
        let dim_refs: Vec<&Schema> = dims.iter().map(|s| s.as_ref()).collect();
        try_bind(&fact, &dim_refs, q)
    }

    /// Number of pages in the table.
    pub fn page_count(&self, t: TableId) -> usize {
        self.inner.tables.read()[t.0 as usize].pages.len()
    }

    /// Number of rows in the table.
    pub fn row_count(&self, t: TableId) -> usize {
        self.inner.tables.read()[t.0 as usize].rows
    }

    /// Table name.
    pub fn table_name(&self, t: TableId) -> String {
        self.inner.tables.read()[t.0 as usize].name.clone()
    }

    /// Total encoded bytes of the table.
    pub fn table_bytes(&self, t: TableId) -> u64 {
        self.inner.tables.read()[t.0 as usize]
            .pages
            .iter()
            .map(|p| p.byte_len() as u64)
            .sum()
    }

    /// Allocate a fresh I/O stream id (one per scan cursor; the disk model
    /// charges a seek when served streams interleave).
    pub fn new_stream(&self) -> StreamId {
        self.inner.stream_counter.fetch_add(1, Ordering::Relaxed)
    }

    /// Read one page on behalf of `ctx`, charging latch CPU and blocking on
    /// simulated I/O according to the configured [`IoMode`]. Panics on an
    /// unrecovered fault — use [`StorageManager::try_read_page`] on paths
    /// that surface per-query errors.
    pub fn read_page(
        &self,
        ctx: &SimCtx,
        t: TableId,
        page_no: usize,
        stream: StreamId,
    ) -> Page {
        match self.try_read_page(ctx, t, page_no, stream) {
            Ok(page) => page,
            Err(e) => panic!("unrecovered storage fault: {e}"),
        }
    }

    /// Fallible page read: retries transient faults with exponential backoff,
    /// verifies the per-page checksum (quarantining torn pages), and surfaces
    /// unrecoverable faults as a typed [`StorageError`]. With no page-read
    /// site armed this is exactly the legacy read path.
    pub fn try_read_page(
        &self,
        ctx: &SimCtx,
        t: TableId,
        page_no: usize,
        stream: StreamId,
    ) -> Result<Page, StorageError> {
        let plan = &self.inner.config.faults;
        if !plan.arms_page_reads() {
            return Ok(self.read_page_raw(ctx, t, page_no, stream));
        }
        let cost = self.inner.cost;
        let key = (t.0, page_no as u32);
        // A quarantined page is rebuilt from the replica before serving:
        // modeled as one page copy of CPU work.
        if self.inner.fault.rebuild(key) {
            let bytes = self.inner.tables.read()[t.0 as usize].pages[page_no].byte_len();
            ctx.charge(CostKind::Misc, cost.copy_cost(bytes));
        }
        // Decide this read's fate up front (seeded, counter-driven), so the
        // schedule replays from the plan's seed.
        let tick = self.inner.fault.tick();
        let permanent = plan.fires(FaultSite::Permanent, tick);
        let transient = !permanent && plan.fires(FaultSite::Transient, tick);
        let torn = !permanent && !transient && plan.fires(FaultSite::Torn, tick);
        if permanent {
            self.inner.fault.count_injected(FaultSite::Permanent);
        } else if transient {
            self.inner.fault.count_injected(FaultSite::Transient);
        } else if torn {
            self.inner.fault.count_injected(FaultSite::Torn);
        }
        let max_attempts = if plan.self_heal { MAX_PAGE_ATTEMPTS } else { 1 };
        let mut attempt = 0u32;
        loop {
            attempt += 1;
            // Every attempt pays the physical read (I/O + latches).
            let page = self.read_page_raw(ctx, t, page_no, stream);
            if permanent || (transient && attempt <= TRANSIENT_FAULT_BURST) {
                if attempt >= max_attempts {
                    return Err(StorageError::PageUnreadable {
                        table: t.0,
                        page: page_no as u32,
                        attempts: attempt,
                    });
                }
                // Bounded retry with exponential backoff.
                self.inner.fault.count_retry();
                ctx.sleep(PAGE_RETRY_BACKOFF_NS * (1u64 << (attempt - 1)) as f64);
                continue;
            }
            // Verify the per-page checksum; a torn read mismatches.
            let expected = self.inner.tables.read()[t.0 as usize].sums[page_no];
            let actual = page_checksum(page.bytes()) ^ if torn { 1 } else { 0 };
            if actual != expected {
                self.inner.fault.quarantine(key);
                return Err(StorageError::TornPage {
                    table: t.0,
                    page: page_no as u32,
                });
            }
            return Ok(page);
        }
    }

    /// Fault-injection and recovery counters (all zero when faults are off).
    pub fn fault_stats(&self) -> StorageFaultStats {
        self.inner.fault.stats()
    }

    /// The unconditional physical read path.
    fn read_page_raw(
        &self,
        ctx: &SimCtx,
        t: TableId,
        page_no: usize,
        stream: StreamId,
    ) -> Page {
        let (page, total_pages) = {
            let tables = self.inner.tables.read();
            let td = &tables[t.0 as usize];
            (td.pages[page_no].clone(), td.pages.len())
        };
        let cost = &self.inner.cost;
        match self.inner.config.io_mode {
            IoMode::Memory => {
                // Resident database: only the buffer-pool latch is paid.
                ctx.charge(CostKind::Locks, cost.lock_acquire_ns);
            }
            IoMode::BufferedDisk => {
                let key = (t.0, page_no as u32);
                ctx.charge(CostKind::Locks, cost.lock_acquire_ns);
                let hit = self.inner.pool.lock().get(key).is_some();
                if !hit {
                    let extent_pages = self.inner.config.fs_extent_pages.max(1);
                    let extent = (page_no / extent_pages) as u32;
                    let cached = self.inner.fs.lock().probe((t.0, extent));
                    if !cached {
                        // Read-ahead: fetch the whole extent in one request.
                        let first = extent as usize * extent_pages;
                        let npages = extent_pages.min(total_pages - first);
                        ctx.io_read(stream, (npages * PAGE_SIZE) as u64);
                        self.inner.fs.lock().admit((t.0, extent));
                    } else {
                        // Copy from the OS cache into the pool.
                        ctx.charge(
                            CostKind::Misc,
                            cost.copy_cost(page.byte_len()),
                        );
                    }
                    self.inner.pool.lock().insert(key, page.clone());
                }
            }
            IoMode::DirectDisk => {
                let key = (t.0, page_no as u32);
                ctx.charge(CostKind::Locks, cost.lock_acquire_ns);
                let hit = self.inner.pool.lock().get(key).is_some();
                if !hit {
                    ctx.io_read(stream, page.byte_len() as u64);
                    self.inner.pool.lock().insert(key, page.clone());
                }
            }
        }
        page
    }

    /// Buffer-pool (hits, misses).
    pub fn pool_stats(&self) -> (u64, u64) {
        self.inner.pool.lock().stats()
    }

    /// FS-cache (hits, misses).
    pub fn fs_stats(&self) -> (u64, u64) {
        self.inner.fs.lock().stats()
    }

    /// Drop buffer-pool and FS-cache contents ("we clear the file system
    /// caches before every measurement", paper §5.1).
    pub fn reset_caches(&self) {
        self.inner.pool.lock().clear();
        self.inner.fs.lock().clear();
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;
    use workshare_common::codec::PageBuilder;
    use workshare_common::{ColType, Column, Value};
    use workshare_sim::{Machine, MachineConfig};

    fn schema() -> Schema {
        Schema::new(vec![
            Column::new("id", ColType::Int),
            Column::new("pad", ColType::Str(100)),
        ])
    }

    fn build_table(rows: usize) -> Vec<Page> {
        let s = schema();
        let mut b = PageBuilder::new(&s);
        for i in 0..rows {
            b.push(&[Value::Int(i as i64), Value::str("x")]);
        }
        b.finish()
    }

    fn manager(mode: IoMode, pool_pages: usize) -> StorageManager {
        StorageManager::new(
            StorageConfig {
                io_mode: mode,
                buffer_pool_pages: pool_pages,
                fs_extent_pages: 4,
                fs_cache_extents: 1024,
                ..Default::default()
            },
            CostModel::default(),
        )
    }

    fn machine() -> Machine {
        Machine::new(MachineConfig {
            cores: 2,
            ..Default::default()
        })
    }

    fn scan_all(m: &Machine, sm: &StorageManager, t: TableId) -> usize {
        let sm = sm.clone();
        let pages = sm.page_count(t);
        m.spawn("scan", move |ctx| {
            let stream = sm.new_stream();
            let schema = sm.schema(t);
            let mut n = 0;
            for p in 0..pages {
                let page = sm.read_page(ctx, t, p, stream);
                n += page.decode_all(&schema).len();
            }
            n
        })
        .join()
        .unwrap()
    }

    #[test]
    fn memory_mode_never_touches_disk() {
        let m = machine();
        let sm = manager(IoMode::Memory, 16);
        let t = sm.create_table("t", schema(), build_table(5000));
        let n = scan_all(&m, &sm, t);
        assert_eq!(n, 5000);
        assert_eq!(m.disk_stats().bytes_read, 0);
    }

    #[test]
    fn buffered_disk_reads_extents_once() {
        let m = machine();
        let sm = manager(IoMode::BufferedDisk, 4096);
        let t = sm.create_table("t", schema(), build_table(5000));
        let pages = sm.page_count(t);
        scan_all(&m, &sm, t);
        let s1 = m.disk_stats();
        // Extent reads: ceil(pages/4) requests.
        assert_eq!(s1.requests as usize, pages.div_ceil(4));
        assert!(s1.bytes_read >= (pages * PAGE_SIZE) as u64);
        // Second scan: everything cached (pool or FS cache) → no new I/O.
        scan_all(&m, &sm, t);
        assert_eq!(m.disk_stats().requests, s1.requests);
    }

    #[test]
    fn direct_disk_reads_per_page() {
        let m = machine();
        let sm = manager(IoMode::DirectDisk, 4096);
        let t = sm.create_table("t", schema(), build_table(5000));
        let pages = sm.page_count(t);
        scan_all(&m, &sm, t);
        assert_eq!(m.disk_stats().requests as usize, pages);
    }

    #[test]
    fn tiny_pool_rereads_after_eviction_in_direct_mode() {
        let m = machine();
        let sm = manager(IoMode::DirectDisk, 2);
        let t = sm.create_table("t", schema(), build_table(5000));
        let pages = sm.page_count(t);
        assert!(pages > 4);
        scan_all(&m, &sm, t);
        let r1 = m.disk_stats().requests;
        scan_all(&m, &sm, t);
        let r2 = m.disk_stats().requests;
        assert_eq!(r2, 2 * r1, "nothing stays cached with a 2-page pool");
    }

    #[test]
    fn reset_caches_forces_io_again() {
        let m = machine();
        let sm = manager(IoMode::BufferedDisk, 4096);
        let t = sm.create_table("t", schema(), build_table(1000));
        scan_all(&m, &sm, t);
        let r1 = m.disk_stats().requests;
        sm.reset_caches();
        scan_all(&m, &sm, t);
        assert_eq!(m.disk_stats().requests, 2 * r1);
    }

    #[test]
    fn table_registry_lookup_and_metadata() {
        let sm = manager(IoMode::Memory, 16);
        let t = sm.create_table("lineorder", schema(), build_table(100));
        assert_eq!(sm.table("lineorder"), t);
        assert_eq!(sm.try_table("nope"), None);
        assert_eq!(sm.row_count(t), 100);
        assert_eq!(sm.table_name(t), "lineorder");
        assert!(sm.table_bytes(t) > 0);
        assert!(sm.page_count(t) >= 1);
    }

    #[test]
    #[should_panic(expected = "already exists")]
    fn duplicate_table_rejected() {
        let sm = manager(IoMode::Memory, 16);
        sm.create_table("t", schema(), vec![]);
        sm.create_table("t", schema(), vec![]);
    }

    #[test]
    fn streams_are_unique() {
        let sm = manager(IoMode::Memory, 16);
        let a = sm.new_stream();
        let b = sm.new_stream();
        assert_ne!(a, b);
    }

    fn faulted_manager(faults: FaultPlan) -> StorageManager {
        StorageManager::new(
            StorageConfig {
                io_mode: IoMode::Memory,
                faults,
                ..Default::default()
            },
            CostModel::default(),
        )
    }

    fn try_scan_all(
        m: &Machine,
        sm: &StorageManager,
        t: TableId,
    ) -> (usize, Vec<StorageError>) {
        let sm = sm.clone();
        let pages = sm.page_count(t);
        m.spawn("scan", move |ctx| {
            let stream = sm.new_stream();
            let mut ok = 0;
            let mut errs = Vec::new();
            for p in 0..pages {
                match sm.try_read_page(ctx, t, p, stream) {
                    Ok(_) => ok += 1,
                    Err(e) => errs.push(e),
                }
            }
            (ok, errs)
        })
        .join()
        .unwrap()
    }

    #[test]
    fn transient_faults_recover_via_retry() {
        let m = machine();
        let sm = faulted_manager(FaultPlan {
            seed: 7,
            transient_page_stride: Some(3),
            ..Default::default()
        });
        let t = sm.create_table("t", schema(), build_table(5000));
        let (ok, errs) = try_scan_all(&m, &sm, t);
        assert_eq!(ok, sm.page_count(t), "every read recovers");
        assert!(errs.is_empty(), "{errs:?}");
        let fs = sm.fault_stats();
        assert!(fs.injected_transient > 0, "{fs:?}");
        assert!(fs.retries >= fs.injected_transient, "{fs:?}");
        assert!(m.now_ns() > 0.0, "backoff advanced virtual time");
    }

    #[test]
    fn transient_faults_without_retry_surface_errors() {
        let m = machine();
        let sm = faulted_manager(FaultPlan {
            seed: 7,
            transient_page_stride: Some(3),
            self_heal: false,
            ..Default::default()
        });
        let t = sm.create_table("t", schema(), build_table(5000));
        let (_, errs) = try_scan_all(&m, &sm, t);
        assert_eq!(errs.len() as u64, sm.fault_stats().injected_transient);
        assert!(!errs.is_empty());
    }

    #[test]
    fn permanent_faults_error_after_bounded_attempts() {
        let m = machine();
        let sm = faulted_manager(FaultPlan {
            seed: 11,
            permanent_page_stride: Some(4),
            ..Default::default()
        });
        let t = sm.create_table("t", schema(), build_table(5000));
        let (ok, errs) = try_scan_all(&m, &sm, t);
        assert!(ok > 0 && !errs.is_empty());
        for e in &errs {
            assert!(
                matches!(
                    e,
                    StorageError::PageUnreadable { attempts, .. }
                        if *attempts == MAX_PAGE_ATTEMPTS
                ),
                "{e:?}"
            );
        }
    }

    #[test]
    fn torn_pages_quarantine_then_rebuild() {
        let m = machine();
        let sm = faulted_manager(FaultPlan {
            seed: 3,
            torn_page_stride: Some(5),
            ..Default::default()
        });
        let t = sm.create_table("t", schema(), build_table(5000));
        let (_, errs) = try_scan_all(&m, &sm, t);
        assert!(!errs.is_empty());
        assert!(errs.iter().all(|e| matches!(e, StorageError::TornPage { .. })));
        let fs = sm.fault_stats();
        assert_eq!(fs.pages_quarantined, errs.len() as u64);
        // A second scan rebuilds the quarantined pages (new ticks may tear
        // other pages, but the first scan's casualties all heal).
        try_scan_all(&m, &sm, t);
        assert!(sm.fault_stats().pages_rebuilt >= fs.pages_quarantined, "{fs:?}");
    }

    #[test]
    fn only_a_manager_that_verifies_reads_checksums_its_pages() {
        let sums = |sm: &StorageManager| sm.inner.tables.read()[0].sums.len();
        let unarmed = faulted_manager(FaultPlan {
            scan_stall_stride: Some(1),
            ..Default::default()
        });
        unarmed.create_table("t", schema(), build_table(5000));
        assert_eq!(sums(&unarmed), 0, "no page-read site armed: nothing hashed");
        let m = machine();
        let armed = faulted_manager(FaultPlan {
            seed: 3,
            torn_page_stride: Some(5),
            ..Default::default()
        });
        let t = armed.create_table("t", schema(), build_table(5000));
        assert_eq!(sums(&armed), armed.page_count(t));
        let (_, errs) = try_scan_all(&m, &armed, t);
        assert!(!errs.is_empty());
        assert_eq!(armed.fault_stats().pages_quarantined, errs.len() as u64);
    }
}
