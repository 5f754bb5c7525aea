//! What a warm table hit allocates.
//!
//! A warm open query is answered from its complete subgoal table: each
//! answer costs its own `bindings` vector and nothing else per answer — no
//! substitution, no copy of the table.  A counting global allocator pins
//! the exact count for the 190-answer `?- winning(X).` and the 2-answer
//! `?- move(p1, X).` of the serving workload (the game `http_point_reads`
//! serves, seed 17), so a change that puts an allocation per answer, or per
//! variable of the key, back on the path fails here.  The counts
//! are per thread, so whatever else runs in this binary does not disturb
//! them.

use hilog_repro::prelude::*;
use hilog_workloads::{serving_workload, ServingWorkloadConfig};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

/// The system allocator, counting this thread's allocations (fresh blocks
/// and reallocations).
struct Counting;

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

fn count() {
    // `try_with`: a thread being torn down has no counter any more.
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
}

unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// This thread's allocations while `f` runs, and what it returned.
fn allocations<T>(f: impl FnOnce() -> T) -> (u64, T) {
    let before = ALLOCATIONS.with(Cell::get);
    let out = f();
    (ALLOCATIONS.with(Cell::get) - before, out)
}

/// The program `http_point_reads` serves at seed 17: the win/move game on a
/// random 300-node DAG.
fn served_program() -> Program {
    let config = ServingWorkloadConfig {
        nodes: 300,
        avg_out_degree: 2.0,
        churn_pool: 40,
        batch_size: 4,
        write_batches: 1,
        queries: 1,
    };
    serving_workload(&config, 17).program
}

/// A session over the served game, in memory.
fn session() -> HiLogDb {
    HiLogDb::builder()
        .program(served_program())
        .storage(StorageConfig::InMemory)
        .build()
}

/// What a warm single-atom query with one variable costs however many
/// answers it has: the parse-free read path, its table key and the result.
/// The key's canonical variable is a slice of ones built once: building
/// `_N0` per query (its name's `String` and a `Vec` of one) made this 13.
const PER_QUERY: u64 = 11;

/// The allocations of a warm `?- winning(X).` over the served game: one
/// `bindings` vector for each of its 190 answers, plus [`PER_QUERY`].
/// Before the hit matched into one cleared buffer it was 398: a
/// substitution per answer, and the table copied into a vector first.
const WARM_OPEN_HIT_ALLOCATIONS: u64 = 190 + PER_QUERY;

/// The same for the bound `?- move(p1, X).`: its two answers and
/// [`PER_QUERY`] (15 while the key built its variable).
const WARM_BOUND_HIT_ALLOCATIONS: u64 = 2 + PER_QUERY;

#[test]
fn a_warm_open_hit_allocates_one_vector_per_answer() {
    let query = parse_query("?- winning(X).").unwrap();
    let (mut writer, _snapshots) = session().into_serving();
    let snapshot = writer.publish();
    let cold = snapshot.query(&query).unwrap();
    assert_eq!(cold.answers.len(), 190);
    let (count, warm) = allocations(|| snapshot.query(&query).unwrap());
    assert_eq!(warm.stats.cached_subqueries, 1, "not a table hit");
    assert_eq!(warm.answers, cold.answers);
    assert_eq!(count, WARM_OPEN_HIT_ALLOCATIONS, "published snapshot");

    // The session answers through the same snapshot code.
    let mut db = session();
    db.query(&query).unwrap();
    let (count, _) = allocations(|| db.query(&query).unwrap());
    assert_eq!(count, WARM_OPEN_HIT_ALLOCATIONS, "session");
}

#[test]
fn a_warm_bound_hit_allocates_its_answers_and_the_query() {
    let query = parse_query("?- move(p1, X).").unwrap();
    let (mut writer, _snapshots) = session().into_serving();
    let snapshot = writer.publish();
    let cold = snapshot.query(&query).unwrap();
    assert_eq!(cold.answers.len(), 2);
    let (count, warm) = allocations(|| snapshot.query(&query).unwrap());
    assert_eq!(warm.stats.cached_subqueries, 1, "not a table hit");
    assert_eq!(warm.answers, cold.answers);
    assert_eq!(count, WARM_BOUND_HIT_ALLOCATIONS);
}
