//! Table-scan stage: circular (shared) scans and independent scans.
//!
//! The table-scan operator has a **linear WoP**: "the linear WoP of the table
//! scan operator is translated into a circular scan of each table" (§2.2).
//! The scan service keeps one scanner vthread per table; scan packets attach
//! to it at the current position (their *point of entry*) with a page budget
//! of exactly one wrap. With SPL exchanges consumers share the decoded
//! pages; with FIFO exchanges the scanner pushes a copy to each attached
//! packet — the paper's `CS (FIFO)` configuration.
//!
//! A scan that meets an unrecoverable page read closes its exchange, so
//! nothing hangs behind it — and says so: the service counts such failures,
//! a query samples the count when it is submitted ([`ScanService::watch`])
//! and its tail checks it again once the stream has drained
//! ([`ScanWatch::failure`]). A circular scanner that failed is also dropped
//! from the service, so the next attach starts a fresh one instead of
//! reading end-of-stream from the dead one for the rest of the engine's
//! life.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

use parking_lot::Mutex;

use workshare_common::fxhash::FxHashMap;
use workshare_common::CostModel;
use workshare_sim::{CostKind, Machine, WaitSet};

use workshare_storage::{StorageError, StorageManager, TableId};

use crate::batch::TupleBatch;
use crate::exchange::{Exchange, ExchangeKind, ExchangeReader};

struct ScanInner {
    machine: Machine,
    storage: StorageManager,
    cost: CostModel,
    kind: ExchangeKind,
    cap_pages: usize,
    scanners: Mutex<FxHashMap<TableId, Exchange>>,
    /// Unrecoverable scan reads so far, and the last one's message.
    failures: Mutex<(u64, String)>,
    wake: WaitSet,
    shutdown: AtomicBool,
    satellites: AtomicU64,
    hosts: AtomicU64,
}

/// Shared circular-scan service (one scanner vthread per table, lazily
/// created). Cheap to clone.
#[derive(Clone)]
pub struct ScanService {
    inner: Arc<ScanInner>,
}

impl ScanService {
    /// Create the service.
    pub fn new(
        machine: &Machine,
        storage: &StorageManager,
        cost: CostModel,
        kind: ExchangeKind,
        cap_pages: usize,
    ) -> ScanService {
        ScanService {
            inner: Arc::new(ScanInner {
                machine: machine.clone(),
                storage: storage.clone(),
                cost,
                kind,
                cap_pages,
                scanners: Mutex::new(FxHashMap::default()),
                failures: Mutex::new((0, String::new())),
                wake: WaitSet::new(machine),
                shutdown: AtomicBool::new(false),
                satellites: AtomicU64::new(0),
                hosts: AtomicU64::new(0),
            }),
        }
    }

    /// Attach a scan packet to the circular scan of `table`, starting at the
    /// scanner's current position with a budget of one full wrap.
    pub fn attach(&self, table: TableId) -> ExchangeReader {
        let inner = &self.inner;
        let pages = inner.storage.page_count(table) as u64;
        let mut scanners = inner.scanners.lock();
        let exchange = match scanners.get(&table) {
            Some(ex) => {
                inner.satellites.fetch_add(1, Ordering::Relaxed);
                ex.clone()
            }
            None => {
                inner.hosts.fetch_add(1, Ordering::Relaxed);
                let ex = Exchange::new(inner.kind, &inner.machine, inner.cost, inner.cap_pages);
                scanners.insert(table, ex.clone());
                self.spawn_scanner(table, ex.clone());
                ex
            }
        };
        let reader = exchange.attach(Some(pages));
        drop(scanners);
        inner.wake.notify_all();
        reader
    }

    fn spawn_scanner(&self, table: TableId, exchange: Exchange) {
        let inner = Arc::clone(&self.inner);
        let name = format!("cscan-{}", inner.storage.table_name(table));
        inner.machine.clone().spawn(&name, move |ctx| {
            let storage = inner.storage.clone();
            let schema = storage.schema(table);
            let npages = storage.page_count(table);
            let stream = storage.new_stream();
            let mut pos = 0usize;
            loop {
                // Park while nobody consumes; wake on attach or shutdown.
                inner.wake.wait_until(|| {
                    inner.shutdown.load(Ordering::Acquire)
                        || pending_consumers(&exchange) > 0
                });
                if inner.shutdown.load(Ordering::Acquire) {
                    exchange.close();
                    return;
                }
                // Fail-stop on an unrecoverable page read (transient
                // faults were already retried with backoff inside the
                // manager): close the exchange so attached consumers see
                // end-of-stream instead of hanging behind a dead scanner.
                let page = match storage.try_read_page(ctx, table, pos, stream) {
                    Ok(p) => p,
                    Err(e) => {
                        inner.scan_failed(Some(table), &exchange, &e);
                        return;
                    }
                };
                let rows = page.decode_all(&schema);
                ctx.charge(
                    CostKind::Scan,
                    inner.cost.scan_page_fixed_ns
                        + inner.cost.scan_tuple_ns * rows.len() as f64,
                );
                let bytes = page.byte_len();
                exchange.emit(ctx, Arc::new(TupleBatch::with_bytes(rows, bytes)));
                pos = (pos + 1) % npages.max(1);
            }
        });
    }

    /// Spawn an **independent** (query-centric) scan of `table`: a producer
    /// vthread reads the table front-to-back once and closes. Returns the
    /// reading end. This is the no-sharing baseline whose buffer-pool and
    /// disk contention the paper's `QPipe` configuration exhibits.
    pub fn scan_once(
        &self,
        table: TableId,
        gate: Option<WaitSet>,
        gate_open: Arc<AtomicBool>,
    ) -> ExchangeReader {
        let inner = Arc::clone(&self.inner);
        let exchange = Exchange::new(inner.kind, &inner.machine, inner.cost, inner.cap_pages);
        let reader = exchange.attach(None);
        let name = format!("scan-{}", inner.storage.table_name(table));
        inner.machine.clone().spawn(&name, move |ctx| {
            if let Some(g) = &gate {
                g.wait_until(|| gate_open.load(Ordering::Acquire));
            }
            let storage = &inner.storage;
            let schema = storage.schema(table);
            let stream = storage.new_stream();
            for pos in 0..storage.page_count(table) {
                // Same fail-stop shape as the shared scanner: an
                // unrecoverable read closes the exchange rather than
                // panicking the producer.
                let page = match storage.try_read_page(ctx, table, pos, stream) {
                    Ok(p) => p,
                    Err(e) => return inner.scan_failed(None, &exchange, &e),
                };
                let rows = page.decode_all(&schema);
                ctx.charge(
                    CostKind::Scan,
                    inner.cost.scan_page_fixed_ns + inner.cost.scan_tuple_ns * rows.len() as f64,
                );
                let bytes = page.byte_len();
                exchange.emit(ctx, Arc::new(TupleBatch::with_bytes(rows, bytes)));
            }
            exchange.close();
        });
        reader
    }

    /// Sample the failure count for a query being submitted — before its
    /// first attach, so a scan that fails under it moves the watch.
    pub fn watch(&self) -> ScanWatch {
        ScanWatch {
            inner: Arc::clone(&self.inner),
            generation: self.inner.failures.lock().0,
        }
    }

    /// (hosts created, satellites attached) — the scan stage's sharing stats.
    pub fn stats(&self) -> (u64, u64) {
        (
            self.inner.hosts.load(Ordering::Relaxed),
            self.inner.satellites.load(Ordering::Relaxed),
        )
    }

    /// Stop all scanner vthreads and close their exchanges.
    pub fn shutdown(&self) {
        self.inner.shutdown.store(true, Ordering::Release);
        self.inner.wake.notify_all();
    }
}

impl ScanInner {
    /// A scan of this service met an unrecoverable read. Order matters: the
    /// dead circular scanner leaves `scanners` first (nobody attaches to
    /// `exchange` after that, and everybody who did sampled their
    /// [`ScanWatch`] before), then the failure is counted, then the
    /// exchange closes — so every reader that sees this early
    /// end-of-stream also sees the count moved.
    fn scan_failed(&self, circular: Option<TableId>, exchange: &Exchange, err: &StorageError) {
        if let Some(table) = circular {
            self.scanners.lock().remove(&table);
        }
        {
            let mut failures = self.failures.lock();
            failures.0 += 1;
            failures.1 = err.to_string();
        }
        exchange.close();
    }
}

/// A query's view of [`ScanService`] failures: the failure count sampled
/// at submission ([`ScanService::watch`]).
pub struct ScanWatch {
    inner: Arc<ScanInner>,
    generation: u64,
}

impl ScanWatch {
    /// The failure count this watch sampled.
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// The typed error of the last scan that failed since this watch was
    /// taken — any scan of the service, not only the ones this query read:
    /// the blast radius is wider than strictly needed, a silently partial
    /// result is not possible.
    pub fn failure(&self) -> Option<String> {
        let failures = self.inner.failures.lock();
        (failures.0 != self.generation).then(|| failures.1.clone())
    }
}

fn pending_consumers(ex: &Exchange) -> usize {
    match ex {
        Exchange::Spl(s) => s.active_consumers(),
        Exchange::Fifo(f) => f.reader_count(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use workshare_sim::SimCtx;
    use workshare_common::codec::PageBuilder;
    use workshare_common::{ColType, Column, Schema, Value};
    use workshare_sim::MachineConfig;
    use workshare_storage::{IoMode, StorageConfig};

    fn setup(rows: usize) -> (Machine, StorageManager, TableId) {
        let m = Machine::new(MachineConfig {
            cores: 8,
            ..Default::default()
        });
        let sm = StorageManager::new(
            StorageConfig {
                io_mode: IoMode::Memory,
                ..Default::default()
            },
            CostModel::default(),
        );
        let schema = Schema::new(vec![
            Column::new("k", ColType::Int),
            Column::new("pad", ColType::Str(64)),
        ]);
        let mut b = PageBuilder::new(&schema);
        for i in 0..rows {
            b.push(&[Value::Int(i as i64), Value::str("x")]);
        }
        let pages = b.finish();
        let t = sm.create_table("t", schema, pages);
        (m, sm, t)
    }

    fn drain_sum(mut r: ExchangeReader, ctx: &SimCtx) -> (usize, i64) {
        let mut n = 0;
        let mut sum = 0;
        while let Some(b) = r.next(ctx) {
            n += b.len();
            for row in &b.rows {
                sum += row[0].as_int();
            }
        }
        (n, sum)
    }

    #[test]
    fn independent_scan_reads_whole_table_once() {
        let (m, sm, t) = setup(3000);
        let cost = CostModel::default();
        let sm2 = sm.clone();
        let got = m
            .spawn("coord", move |ctx| {
                let svc = ScanService::new(ctx.machine(), &sm2, cost, ExchangeKind::Spl, 8);
                let r = svc.scan_once(t, None, Arc::new(AtomicBool::new(true)));
                drain_sum(r, ctx)
            })
            .join()
            .unwrap();
        assert_eq!(got.0, 3000);
        assert_eq!(got.1, (0..3000i64).sum::<i64>());
    }

    #[test]
    fn circular_scan_serves_full_wrap_to_each_consumer() {
        let (m, sm, t) = setup(3000);
        let svc = ScanService::new(&m, &sm, CostModel::default(), ExchangeKind::Spl, 8);
        let svc2 = svc.clone();
        let results = m
            .spawn("coord", move |ctx| {
                let readers: Vec<_> = (0..4).map(|_| svc2.attach(t)).collect();
                let workers: Vec<_> = readers
                    .into_iter()
                    .enumerate()
                    .map(|(i, r)| {
                        ctx.machine()
                            .spawn(&format!("q{i}"), move |ctx| drain_sum(r, ctx))
                    })
                    .collect();
                workers
                    .into_iter()
                    .map(|w| w.join().unwrap())
                    .collect::<Vec<_>>()
            })
            .join()
            .unwrap();
        for (n, sum) in results {
            assert_eq!(n, 3000, "every consumer sees exactly one wrap");
            assert_eq!(sum, (0..3000i64).sum::<i64>());
        }
        let (hosts, satellites) = svc.stats();
        assert_eq!(hosts, 1);
        assert_eq!(satellites, 3);
        svc.shutdown();
    }

    #[test]
    fn late_consumer_wraps_around() {
        let (m, sm, t) = setup(2000);
        let svc = ScanService::new(&m, &sm, CostModel::default(), ExchangeKind::Spl, 8);
        let svc2 = svc.clone();
        m.spawn("coord", move |ctx| {
            // First consumer drives the scan forward, then a second joins
            // mid-scan and must still see the full table via wrap-around.
            let r1 = svc2.attach(t);
            let w1 = ctx.machine().spawn("q1", move |ctx| drain_sum(r1, ctx));
            ctx.sleep(1e5); // let the scan progress
            let r2 = svc2.attach(t);
            let w2 = ctx.machine().spawn("q2", move |ctx| drain_sum(r2, ctx));
            let a = w1.join().unwrap();
            let b = w2.join().unwrap();
            assert_eq!(a.0, 2000);
            assert_eq!(b.0, 2000);
            assert_eq!(a.1, b.1, "same multiset of rows regardless of entry");
        })
        .join()
        .unwrap();
        svc.shutdown();
    }

    #[test]
    fn fifo_mode_also_delivers_full_wraps() {
        let (m, sm, t) = setup(1500);
        let svc = ScanService::new(&m, &sm, CostModel::default(), ExchangeKind::Fifo, 8);
        let svc2 = svc.clone();
        let results = m
            .spawn("coord", move |ctx| {
                let readers: Vec<_> = (0..3).map(|_| svc2.attach(t)).collect();
                let ws: Vec<_> = readers
                    .into_iter()
                    .map(|r| ctx.machine().spawn("q", move |ctx| drain_sum(r, ctx)))
                    .collect();
                ws.into_iter().map(|w| w.join().unwrap()).collect::<Vec<_>>()
            })
            .join()
            .unwrap();
        for (n, _) in results {
            assert_eq!(n, 1500);
        }
        svc.shutdown();
    }

    #[test]
    fn shutdown_stops_scanners() {
        let (m, sm, t) = setup(500);
        let svc = ScanService::new(&m, &sm, CostModel::default(), ExchangeKind::Spl, 8);
        let svc2 = svc.clone();
        m.spawn("coord", move |ctx| {
            let r = svc2.attach(t);
            let w = ctx.machine().spawn("q", move |ctx| drain_sum(r, ctx));
            w.join().unwrap();
            svc2.shutdown();
        })
        .join()
        .unwrap();
        // Scanner threads exit; only this check matters (no hang).
        for _ in 0..100 {
            if m.live_threads() == 0 {
                break;
            }
            std::thread::sleep(std::time::Duration::from_millis(5));
        }
        assert_eq!(m.live_threads(), 0, "scanner exited after shutdown");
    }
}
