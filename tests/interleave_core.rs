//! Deterministic interleaving checks for the concurrent core.
//!
//! Compiled only under `RUSTFLAGS="--cfg interleave"`, where
//! [`workshare_common::sync`] resolves the workspace's sync primitives to
//! the model-checked `loom` shim. Each scenario runs a load-bearing
//! protocol of the engine under **every** (bounded) thread interleaving:
//!
//! 1. *(retired — lease checkout vs stage teardown and the retired-ledger
//!    absorb. A fact's stage now lives as long as its engine, so the
//!    protocol no longer exists: the registry is a map under one lock.
//!    Numbers stay stable.)*
//! 2. *(retired — the window drain of the single-mutex pending set. The
//!    stages' pending sets and the fabric queue are [`ShardedSlot`]s;
//!    scenario 9 is the same race, `TornDrain` mutation and
//!    [`WindowLedger`] balance included, on the type production runs.
//!    Numbers stay stable.)*
//! 3. *(retired — the lock-based publish-then-activate spec, later checked
//!    on the production `EpochCell` by scenario 7, itself retired since.
//!    Numbers stay stable.)*
//! 4. [`ServiceSlots`] claim CAS (the bounded admission queue): the cap
//!    never overshoots, and every permit gives its slot back.
//! 5. [`CompletionCell`] complete vs racing error-complete vs polling
//!    waiter: exactly one completion wins and `done` never precedes the
//!    outcome.
//! 6. [`ScanAttempt`] straggler re-dispatch claim (the fabric's
//!    exactly-once handshake): racing original and re-dispatched attempts
//!    publish a scan unit exactly once, never zero times, and `done` never
//!    precedes the publish.
//! 7. *(retired — the lock-free epoch publish of the stage's filter state
//!    (`EpochFilterSpec` over `EpochCell` / `EpochReader`). A machine runs
//!    its vthreads one at a time on one carrier, so the stage mutates one
//!    filter state in place and no reader can overlap a writer; the
//!    entries-then-activate order it checked is held end to end by the
//!    stage test `a_query_admitted_while_its_dimension_is_scanned_misses_no_row`.
//!    Numbers stay stable.)*
//! 8. [`WrapLedger`] atomic wrap bookkeeping (the circular scan's lock-free
//!    `active_bits`/`emit_left`): racing page recorders consume the page
//!    budget exactly, complete a slot exactly once, and an observed active
//!    bit always comes with an initialized budget.
//! 9. [`ShardedSlot`] MPMC sharded drain vs concurrent pushes (the stages'
//!    pending sets and the fabric's request queue): every submission rides
//!    exactly one window across the racing drain and the final sweep.
//!
//! Every faithful scenario must *exhaust* its schedule space
//! (`report.complete`) and explore at least 1 000 distinct schedules; every
//! deliberately broken variant (the `*Mutation` enums, compiled only under
//! this cfg) must be caught deterministically. See docs/TESTING.md.

#![cfg(interleave)]

use loom::thread;
use loom::{Builder, Report};

use workshare_cjoin::window::{
    RedispatchMutation, ScanAttempt, ShardMutation, ShardedSlot, WindowLedger,
};
use workshare_cjoin::wrap::{WrapLedger, WrapMutation};
use workshare_common::cell::{CellMutation, CompletionCell};
use workshare_common::sync::{Arc, AtomicU64, Ordering};
use workshare_common::QueryBitmap;
use workshare_core::slots::{ServiceSlots, SlotMutation};

/// The suite's preemption bound. The scenarios' full interleaving spaces
/// run past the schedule cap, so we search the bounded subspace
/// **exhaustively** instead: every schedule with at most this many
/// involuntary context switches. That is where
/// concurrency bugs live (all the mutation variants below are caught well
/// inside it), and it keeps the suite's wall-clock bounded as scenarios
/// grow. See docs/TESTING.md for how to re-tune it.
const PREEMPTION_BOUND: usize = 3;

fn explore<F>(bound: Option<usize>, f: F) -> Report
where
    F: Fn() + Send + Sync + 'static,
{
    let mut b = Builder::new();
    b.preemption_bound = bound;
    b.max_schedules = 500_000;
    b.check(f)
}

/// Run `f` under the suite's bounded DFS and require both exhaustion of
/// the bounded space and the coverage floor the issue mandates.
fn check_exhaustive<F>(f: F) -> Report
where
    F: Fn() + Send + Sync + 'static,
{
    let report = explore(Some(PREEMPTION_BOUND), f);
    assert!(
        report.complete,
        "bounded schedule space must be exhausted (explored {})",
        report.schedules
    );
    assert!(
        report.schedules >= 1_000,
        "scenario too small to be meaningful: {} schedules",
        report.schedules
    );
    report
}

/// Whether the checker rejects `f` (some schedule panics). Used on the
/// mutation variants: a `true` means the model checker would have caught
/// the regression the mutation reintroduces.
fn catches<F>(f: F) -> bool
where
    F: Fn() + Send + Sync + 'static,
{
    std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        explore(Some(PREEMPTION_BOUND), f)
    }))
    .is_err()
}

// ---------------------------------------------------------------------------
// Scenario 4: bounded-admission claim CAS
// ---------------------------------------------------------------------------

/// Three claimants (two spawned, one main) race for the engine cap.
/// Invariants: the outstanding count never overshoots its cap, and every
/// claim — admitted or shed — leaves the counter balanced at zero once the
/// permits drop.
fn slots_scenario(mutation: SlotMutation, cap: u64) -> impl Fn() + Send + Sync + 'static {
    move || {
        let slots = ServiceSlots::with_mutation(mutation);
        let ts: Vec<_> = (0..2)
            .map(|_| {
                let slots = Arc::clone(&slots);
                thread::spawn(move || {
                    let permit = slots.try_claim(cap);
                    assert!(
                        slots.outstanding() <= cap,
                        "engine-wide cap overshot: {} > {cap}",
                        slots.outstanding()
                    );
                    drop(permit);
                })
            })
            .collect();
        let permit = slots.try_claim(cap);
        assert!(slots.outstanding() <= cap, "engine-wide cap overshot");
        drop(permit);
        for t in ts {
            t.join().unwrap();
        }
        assert_eq!(slots.outstanding(), 0, "engine slot leaked");
    }
}

#[test]
fn slot_claim_rollback_holds() {
    check_exhaustive(slots_scenario(SlotMutation::None, 2));
}

#[test]
fn slot_mutation_blind_increment_is_caught() {
    // Cap 1 with two racing claimants: the blind fetch_add transiently
    // drives the engine-wide count to 2 before its rollback, which the
    // concurrent cap observers must flag.
    assert!(catches(slots_scenario(SlotMutation::BlindIncrement, 1)));
}

// ---------------------------------------------------------------------------
// Scenario 5: completion cell vs racing error path vs waiter
// ---------------------------------------------------------------------------

/// A completing producer races a poisoning error path (the completion
/// guard's drop shape) while the waiter polls. Invariants: exactly one
/// completion wins, the final outcome is the winner's, and a waiter that
/// observes `done` always finds a published outcome (`try_outcome` panics
/// on a claimed-but-empty cell — the detector).
fn cell_scenario(mutation: CellMutation) -> impl Fn() + Send + Sync + 'static {
    move || {
        let cell: Arc<CompletionCell<u64>> = Arc::new(CompletionCell::with_mutation(mutation));
        let producer = {
            let cell = Arc::clone(&cell);
            thread::spawn(move || cell.complete(7))
        };
        let guard = {
            let cell = Arc::clone(&cell);
            thread::spawn(move || cell.complete_error("producer abandoned the result slot"))
        };
        // Polling waiter: done ⇒ outcome published (try_outcome panics on
        // the broken ordering).
        if let Some(outcome) = cell.try_outcome() {
            match outcome {
                Ok(v) => assert_eq!(v, 7),
                Err(e) => assert_eq!(e, "producer abandoned the result slot"),
            }
        }
        let value_won = producer.join().unwrap();
        let error_won = guard.join().unwrap();
        assert_eq!(
            value_won as u32 + error_won as u32,
            1,
            "exactly one completion must win the cell"
        );
        let outcome = cell.try_outcome().expect("cell done after both completers");
        assert_eq!(
            outcome.is_ok(),
            value_won,
            "final outcome must be the winner's"
        );
    }
}

#[test]
fn completion_race_holds() {
    check_exhaustive(cell_scenario(CellMutation::None));
}

#[test]
fn cell_mutation_flag_before_value_is_caught() {
    assert!(catches(cell_scenario(CellMutation::FlagBeforeValue)));
}

#[test]
fn cell_mutation_blind_error_overwrite_is_caught() {
    assert!(catches(cell_scenario(CellMutation::BlindErrorOverwrite)));
}

// ---------------------------------------------------------------------------
// Scenario 6: straggler re-dispatch claim protocol
// ---------------------------------------------------------------------------

/// The fabric's re-dispatch shape: when a subscan outlives its deadline the
/// window supervisor spawns a second (and under repeated stalls a third)
/// attempt over the same scan unit. All attempts stage their entries, then
/// race [`ScanAttempt::try_claim`] for the right to publish; losers discard.
/// Invariants: the unit is published exactly once (no duplicate-dispatch),
/// never zero times (no lost-unit), every losing attempt discards, and a
/// supervisor that observes `is_done` sees the publish (Release/Acquire
/// pairing).
fn redispatch_scenario(mutation: RedispatchMutation) -> impl Fn() + Send + Sync + 'static {
    const ATTEMPTS: u64 = 3;
    move || {
        let attempt = Arc::new(ScanAttempt::with_mutation(mutation));
        let published = Arc::new(AtomicU64::new(0));
        let discarded = Arc::new(AtomicU64::new(0));
        let run = |attempt: Arc<ScanAttempt>, published: Arc<AtomicU64>, discarded: Arc<AtomicU64>| {
            // Each attempt stages its entries privately, then races for the
            // publish right; exactly one may apply them.
            if attempt.try_claim() {
                published.fetch_add(1, Ordering::AcqRel);
                attempt.mark_done();
            } else {
                discarded.fetch_add(1, Ordering::AcqRel);
            }
        };
        let ts: Vec<_> = (1..ATTEMPTS)
            .map(|_| {
                let (a, p, d) = (
                    Arc::clone(&attempt),
                    Arc::clone(&published),
                    Arc::clone(&discarded),
                );
                thread::spawn(move || run(a, p, d))
            })
            .collect();
        // The original attempt runs on this thread, racing the re-dispatches.
        run(
            Arc::clone(&attempt),
            Arc::clone(&published),
            Arc::clone(&discarded),
        );
        // Supervisor's mid-race view: done ⇒ the publish is visible, and
        // only one attempt ever made it.
        if attempt.is_done() {
            assert_eq!(
                published.load(Ordering::Acquire),
                1,
                "done observed without exactly one visible publish"
            );
        }
        for t in ts {
            t.join().unwrap();
        }
        assert!(attempt.is_done(), "scan unit silently dropped (lost-unit)");
        assert_eq!(
            published.load(Ordering::Acquire),
            1,
            "duplicate dispatch: more than one attempt published"
        );
        assert_eq!(
            discarded.load(Ordering::Acquire),
            ATTEMPTS - 1,
            "a losing attempt failed to discard its staged entries"
        );
    }
}

#[test]
fn redispatch_claim_is_exactly_once_holds() {
    check_exhaustive(redispatch_scenario(RedispatchMutation::None));
}

#[test]
fn redispatch_mutation_torn_claim_is_caught() {
    assert!(catches(redispatch_scenario(RedispatchMutation::TornClaim)));
}

// ---------------------------------------------------------------------------
// Scenario 8: atomic wrap bookkeeping
// ---------------------------------------------------------------------------

/// The circular scan's lock-free wrap ledger: slot 0 enters with a budget
/// of two pages and two recorders race to consume it (the shape of a fault
/// re-dispatch racing the scan), while an admitter activates slot 1
/// mid-wrap and the main thread stamps from a mask snapshot. Invariants:
/// the budget is consumed exactly (no lost decrement), exactly one
/// recorder observes the completing 1→0 edge and clears the bit, and a
/// snapshot that observes an active bit always sees the slot's initialized
/// budget (budget-then-activate).
fn wrap_scenario(mutation: WrapMutation) -> impl Fn() + Send + Sync + 'static {
    move || {
        let ledger = Arc::new(WrapLedger::with_mutation(64, mutation));
        ledger.activate(0, 2);
        let members = {
            let mut b = QueryBitmap::zeros(64);
            b.set(0);
            b
        };
        let completions = Arc::new(AtomicU64::new(0));
        let recorders: Vec<_> = (0..2)
            .map(|_| {
                let (ledger, completions, members) = (
                    Arc::clone(&ledger),
                    Arc::clone(&completions),
                    members.clone(),
                );
                thread::spawn(move || {
                    let done = ledger.record_page(&members);
                    completions.fetch_add(done.len() as u64, Ordering::AcqRel);
                })
            })
            .collect();
        let admitter = {
            let ledger = Arc::clone(&ledger);
            thread::spawn(move || ledger.activate(1, 1))
        };
        // The scan's view: stamp from a mask snapshot; an observed bit must
        // come with its page budget already stored.
        let snapshot = ledger.snapshot();
        if snapshot.get(1) {
            assert!(
                ledger.emit_left(1) >= 1,
                "active slot observed without an initialized budget"
            );
            let mut stamp = QueryBitmap::zeros(64);
            stamp.set(1);
            assert_eq!(ledger.record_page(&stamp), vec![1u32]);
        }
        for t in recorders {
            t.join().unwrap();
        }
        admitter.join().unwrap();
        assert_eq!(ledger.emit_left(0), 0, "a page decrement was lost");
        assert!(!ledger.is_active(0), "completed slot still active");
        assert_eq!(
            completions.load(Ordering::Acquire),
            1,
            "the 1→0 completion edge must be observed exactly once"
        );
    }
}

#[test]
fn wrap_bookkeeping_holds() {
    check_exhaustive(wrap_scenario(WrapMutation::None));
}

#[test]
fn wrap_mutation_lost_decrement_is_caught() {
    assert!(catches(wrap_scenario(WrapMutation::LostDecrement)));
}

// ---------------------------------------------------------------------------
// Scenario 9: sharded MPMC pending drain
// ---------------------------------------------------------------------------

/// The sharded pending set of the stages and of the fabric queue: a window
/// worker drains all shards while two submitters race their pushes onto
/// different shards (each adding to the depth ledger *before* the push, as
/// the fabric does). Invariants: every submission rides exactly one window
/// across the racing drain and the final sweep, and the depth ledger
/// balances to zero.
fn sharded_scenario(mutation: ShardMutation) -> impl Fn() + Send + Sync + 'static {
    move || {
        let slot: Arc<ShardedSlot<u32>> = Arc::new(ShardedSlot::with_mutation(2, mutation));
        let ledger = Arc::new(WindowLedger::default());
        let drained = Arc::new(AtomicU64::new(0));
        let submitter = {
            let (slot, ledger) = (Arc::clone(&slot), Arc::clone(&ledger));
            thread::spawn(move || {
                ledger.add(1);
                slot.push(7);
            })
        };
        let window = {
            let (slot, ledger, drained) =
                (Arc::clone(&slot), Arc::clone(&ledger), Arc::clone(&drained));
            thread::spawn(move || {
                let batch = slot.drain();
                ledger.sub(batch.len() as u64);
                drained.fetch_add(batch.len() as u64, Ordering::AcqRel);
            })
        };
        ledger.add(1);
        slot.push(8);
        submitter.join().unwrap();
        window.join().unwrap();
        // Final sweep: whatever the racing window left pending.
        let batch = slot.drain();
        ledger.sub(batch.len() as u64);
        let total = drained.load(Ordering::Acquire) + batch.len() as u64;
        assert_eq!(total, 2, "a submission was lost or drained twice");
        assert_eq!(ledger.pending(), 0, "depth ledger out of balance");
    }
}

#[test]
fn sharded_drain_vs_submission_holds() {
    check_exhaustive(sharded_scenario(ShardMutation::None));
}

#[test]
fn sharded_mutation_torn_drain_is_caught() {
    assert!(catches(sharded_scenario(ShardMutation::TornDrain)));
}

// ---------------------------------------------------------------------------
// Cross-cutting checks
// ---------------------------------------------------------------------------

#[test]
fn preemption_bound_shrinks_the_search() {
    // The bound is what keeps the suite's wall-clock in check as scenarios
    // grow: each extra allowed preemption widens the explored subspace
    // strictly, so bound N is a strict subset of bound N+1 on the same
    // scenario — and the bugs (the mutation variants above) already
    // surface at the suite's bound.
    let tighter = explore(Some(1), slots_scenario(SlotMutation::None, 2));
    let wider = explore(Some(2), slots_scenario(SlotMutation::None, 2));
    assert!(tighter.complete && wider.complete);
    assert!(
        tighter.schedules < wider.schedules,
        "bound must prune ({} vs {})",
        tighter.schedules,
        wider.schedules
    );
}

#[test]
fn production_types_degrade_outside_the_model() {
    // The same protocol objects must behave as plain concurrent types when
    // no model is active: the `--cfg interleave` build of the whole
    // workspace still runs its ordinary tests.
    let slots = ServiceSlots::new();
    let ts: Vec<_> = (0..4)
        .map(|_| {
            let slots = Arc::clone(&slots);
            std::thread::spawn(move || {
                let permit = slots.try_claim(2);
                let claimed = permit.is_some();
                drop(permit);
                claimed
            })
        })
        .collect();
    let claims = ts.into_iter().filter_map(|t| t.join().unwrap().then_some(())).count();
    assert!(claims >= 2, "cap 2 admits at least two of four");
    assert_eq!(slots.outstanding(), 0);
}
