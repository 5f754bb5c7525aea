//! What a warm table hit allocates, and what a write's table pass does.
//!
//! A warm open query is answered from its complete subgoal table: each
//! answer costs its own `bindings` vector and nothing else per answer — no
//! substitution, no copy of the table.  A counting global allocator pins
//! the exact count for the 190-answer `?- winning(X).` and the 2-answer
//! `?- move(p1, X).` of the serving workload (the game `http_point_reads`
//! serves, seed 17), so a change that puts an allocation per answer, or per
//! variable of the key, back on the path fails here.
//!
//! A publish settles the batch's tables first, on the writer's side; the
//! pass costs what it changes.  The count of each of the first eight
//! batches of `inproc_mixed_rw`'s stream is pinned too, so an allocation
//! per table the pass walks, or a whole copy of a table it edits, fails
//! here.  The counts are per thread, so whatever else runs in
//! this binary does not disturb them.

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

/// The allocations of settling each of the first eight batches of
/// `inproc_mixed_rw`'s stream at seed 17 (`move` facts asserted and
/// retracted in turn, four a batch but one) on the served game with its
/// 1,024 queries warm: `DbWriter::db` settles the batch exactly as
/// `publish` does before it forks (the fork is one `Arc`, but a debug
/// build's publish also rebuilds the table arena to check it).  The fifth
/// read 1,203 and the eighth 789 while the pass handed out an `Arc` per
/// table of its closure, built a vector per member to order it, and copied
/// each table it patched or grafted; 330 and 177 while each re-solve moved
/// the arena into an `Arc` and back.  Every count is the same in every
/// process: a re-solve hands its tables back in key order, so where they
/// are filed, and the order the next pass meets them in, does not follow
/// hashing.
const BATCH_ALLOCATIONS: [(bool, usize, u64); 8] = [
    (true, 4, 1_085),
    (false, 4, 202),
    (true, 4, 2_228),
    (false, 3, 133),
    (true, 4, 326),
    (false, 4, 2_007),
    (true, 4, 231),
    (false, 4, 173),
];

#[test]
fn a_write_batch_allocates_what_its_pass_changes() {
    let config = ServingWorkloadConfig {
        nodes: 300,
        avg_out_degree: 2.0,
        churn_pool: 40,
        batch_size: 4,
        write_batches: 8,
        queries: 1_024,
    };
    let workload = serving_workload(&config, 17);
    let (mut writer, handle) = HiLogDb::builder()
        .program(workload.program.clone())
        .storage(StorageConfig::InMemory)
        .build()
        .into_serving();
    for query in &workload.queries {
        let query = parse_query(query).unwrap();
        handle.current().query(&query).unwrap();
    }
    writer.publish();
    let mut settled = Vec::new();
    for batch in &workload.batches {
        for fact in &batch.facts {
            let fact = parse_term(fact).unwrap();
            if batch.assert {
                writer.assert_fact(fact).unwrap();
            } else {
                assert!(writer.retract_fact(&fact));
            }
        }
        let (count, _) = allocations(|| {
            writer.db();
        });
        settled.push((batch.assert, batch.facts.len(), count));
        writer.publish();
    }
    assert_eq!(settled, BATCH_ALLOCATIONS);
}
