//! The query handle: one type, whichever engine runs the query.

use workshare_common::sync::Arc;
use workshare_common::value::Row;
use workshare_qpipe::SlotResult;

/// Handle to a submitted query, independent of the engine that runs it:
/// every route — QPipe, CJOIN, Volcano — ends in the same [`SlotResult`],
/// published by the engine's one query driver.
#[derive(Clone)]
pub struct Ticket(pub(crate) Arc<SlotResult>);

impl Ticket {
    /// Block (in virtual time from a vthread) until completion; returns the
    /// result rows (empty when the slot was poisoned — check
    /// [`Ticket::error`]).
    pub fn wait(&self) -> Arc<Vec<Row>> {
        self.0.wait()
    }

    /// Whether the query completed.
    pub fn is_done(&self) -> bool {
        self.0.is_done()
    }

    /// The error that poisoned this query's slot, if any: a query that did
    /// not bind, an unrecoverable fault under it, or a producer that
    /// panicked.
    pub fn error(&self) -> Option<String> {
        self.0.error()
    }

    /// Response time in virtual seconds (valid after completion).
    pub fn latency_secs(&self) -> f64 {
        self.0.latency_secs()
    }

    /// Completion timestamp in virtual nanoseconds.
    pub fn finish_ns(&self) -> f64 {
        self.0.finish_ns()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use workshare_common::Value;
    use workshare_qpipe::CompletionGuard;
    use workshare_sim::{Machine, MachineConfig};

    fn machine() -> Machine {
        Machine::new(MachineConfig {
            cores: 2,
            ..Default::default()
        })
    }

    #[test]
    fn slot_ticket_roundtrip() {
        let m = machine();
        let slot = SlotResult::new(&m, 0.0);
        let t = Ticket(Arc::clone(&slot));
        assert!(!t.is_done());
        let s2 = Arc::clone(&slot);
        m.spawn("producer", move |ctx| {
            let guard = CompletionGuard::new(Arc::clone(&s2));
            ctx.charge(workshare_sim::CostKind::Misc, 5e6);
            s2.complete(
                Arc::new(vec![vec![Value::Int(1)]]),
                ctx.machine().now_ns(),
            );
            guard.disarm();
        });
        let rows = t.wait();
        assert_eq!(rows.len(), 1);
        assert!(t.is_done());
        assert!(t.error().is_none(), "disarmed guard must not poison");
        assert!((t.latency_secs() - 0.005).abs() < 1e-9);
        assert!(t.finish_ns() > 0.0);
    }

    #[test]
    fn panicking_producer_poisons_instead_of_deadlocking() {
        let m = machine();
        let slot = SlotResult::new(&m, 0.0);
        let t = Ticket(Arc::clone(&slot));
        let s2 = Arc::clone(&slot);
        let h = m.spawn("doomed-producer", move |ctx| {
            let _guard = CompletionGuard::new(s2);
            ctx.charge(workshare_sim::CostKind::Misc, 1e6);
            panic!("producer blew up mid-query");
        });
        // The waiter wakes (no deadlock) with empty rows and the error set.
        let rows = t.wait();
        assert!(rows.is_empty());
        assert_eq!(t.error().as_deref(), Some("producer abandoned the result slot"));
        assert!(t.is_done());
        assert!(h.join().is_err(), "the producer really panicked");
    }

    #[test]
    fn explicit_error_completion_wins_over_guard() {
        let m = machine();
        let slot = SlotResult::new(&m, 0.0);
        let t = Ticket(Arc::clone(&slot));
        let s2 = Arc::clone(&slot);
        m.spawn("erroring-producer", move |ctx| {
            let _guard = CompletionGuard::new(Arc::clone(&s2));
            s2.complete_error("query failed to bind", ctx.machine().now_ns());
            // Guard drops armed, but complete_error is first-write-wins.
        });
        t.wait();
        assert_eq!(t.error().as_deref(), Some("query failed to bind"));
    }
}
