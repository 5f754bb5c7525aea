//! The engine's one piece of ambient state: a per-thread block holding the
//! query deadline and the evaluation counters.  Nothing here is process-wide.
//!
//! **The deadline.**  HiLog Herbrand universes are infinite, so every
//! fixpoint, grounding and search loop consults the `EvalOptions` limits and
//! returns [`EngineError::LimitExceeded`] when a count is blown.  A deadline
//! is the wall-clock analogue — one pathological query must not pin a serving
//! worker for seconds while its atom counts stay legal.  [`check_deadline`]
//! sits at the hook sites the limits use (semi-naive rounds, grounding
//! passes, magic-settle iterations, stable search nodes, Figure 1 rounds) and
//! between the grounding and the evaluation of a full-model build.
//! [`with_deadline`] installs it for one closure (one query) on the calling
//! thread.  A well-founded evaluation ([`crate::wfs`]) has no hook — once
//! started it runs to completion, so the deadline bounds when a model build
//! may *begin*, not how long one takes.
//!
//! **The counters.**  What `EvalStats` reports beyond the evaluator's own
//! counts — index probes, spill traffic, deadline checks — is counted here,
//! on the thread where it happens, one thread-local access per increment.
//! [`counters`] reads this thread's cumulative values; a query's share is the
//! difference of two reads, which `DbSnapshot::query` hands to `EvalStats`.
//! Evaluation never leaves the calling thread, so that difference is exact
//! whatever other threads, sessions or servers in the process are doing.

use crate::error::EngineError;
use std::cell::Cell;
use std::time::Instant;

/// Declares [`Counters`] and its per-thread cells from one field list.
macro_rules! counters {
    ($($(#[$doc:meta])* $field:ident,)*) => {
        /// One thread's cumulative evaluation counts, as read by
        /// [`counters`].  Subtract an earlier read from a later one for the
        /// counts of what ran in between.
        #[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
        pub struct Counters {
            $($(#[$doc])* pub $field: u64,)*
        }

        impl std::ops::Sub for Counters {
            type Output = Counters;
            fn sub(self, earlier: Counters) -> Counters {
                Counters { $($field: self.$field - earlier.$field,)* }
            }
        }

        /// The cells behind [`Counters`]; [`count`] picks one by field.
        pub(crate) struct CounterCells {
            $(pub(crate) $field: Cell<u64>,)*
        }

        impl CounterCells {
            const fn zero() -> Self {
                CounterCells { $($field: Cell::new(0),)* }
            }

            fn read(&self) -> Counters {
                Counters { $($field: self.$field.get(),)* }
            }
        }
    };
}

counters! {
    /// Candidate lookups [`crate::horn::AtomStore::candidates`] answered
    /// from an argument index.
    index_probes,
    /// Candidate lookups that fell back to scanning a relation's rows or,
    /// for a variable predicate name, the whole store by arity.  A lookup
    /// of a `(name, arity)` with no stored atoms counts as neither.
    index_fallback_scans,
    /// Spilled rows decoded back from a segment file.
    residency_faults,
    /// Rows paged out to a segment file.
    spill_writes,
    /// Eviction attempts that hit a segment I/O error and kept their rows
    /// resident instead (see `spill.rs`).
    spill_io_errors,
    /// `check_deadline` calls made under an installed deadline.
    deadline_checks,
    /// Those that found the deadline passed.
    deadline_exceeded,
}

struct Block {
    deadline: Cell<Option<Instant>>,
    counters: CounterCells,
}

thread_local! {
    static BLOCK: Block = const {
        Block {
            deadline: Cell::new(None),
            counters: CounterCells::zero(),
        }
    };
}

fn bump(cell: &Cell<u64>, n: u64) {
    cell.set(cell.get() + n);
}

/// This thread's cumulative counters: exact, and moved by nobody else's
/// evaluation.
pub fn counters() -> Counters {
    BLOCK.with(|block| block.counters.read())
}

/// Adds `n` to one of this thread's counters:
/// `count(|c| &c.index_probes, 1)`.  One thread-local access.
pub(crate) fn count(pick: impl FnOnce(&CounterCells) -> &Cell<u64>, n: u64) {
    BLOCK.with(|block| bump(pick(&block.counters), n));
}

/// Runs `f` with the calling thread's evaluation deadline set to
/// `deadline` (`None` disables checking), restoring the previous deadline
/// afterwards — panic-safe, so a poisoned query cannot leak its deadline
/// into the next one served on the same worker thread.
pub fn with_deadline<T>(deadline: Option<Instant>, f: impl FnOnce() -> T) -> T {
    struct Restore(Option<Instant>);
    impl Drop for Restore {
        fn drop(&mut self) {
            BLOCK.with(|block| block.deadline.set(self.0));
        }
    }
    let _restore = Restore(BLOCK.with(|block| block.deadline.replace(deadline)));
    f()
}

/// Returns `Err(EngineError::DeadlineExceeded)` when the calling thread's
/// deadline has passed; a no-op (not even a clock read) when none is set.
/// Evaluation loops call this exactly where they check resource limits.
pub fn check_deadline() -> Result<(), EngineError> {
    BLOCK.with(|block| {
        let Some(deadline) = block.deadline.get() else {
            return Ok(());
        };
        bump(&block.counters.deadline_checks, 1);
        if Instant::now() >= deadline {
            bump(&block.counters.deadline_exceeded, 1);
            return Err(EngineError::DeadlineExceeded(
                "query deadline passed during evaluation".into(),
            ));
        }
        Ok(())
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn no_deadline_means_no_checks_counted() {
        let before = counters();
        check_deadline().unwrap();
        check_deadline().unwrap();
        assert_eq!(counters(), before, "unset deadline costs no counted check");
    }

    #[test]
    fn future_deadline_passes_and_counts() {
        let before = counters();
        with_deadline(Some(Instant::now() + Duration::from_secs(60)), || {
            check_deadline().unwrap();
            check_deadline().unwrap();
        });
        let counted = counters() - before;
        assert_eq!(counted.deadline_checks, 2);
        assert_eq!(counted.deadline_exceeded, 0);
    }

    #[test]
    fn past_deadline_fails_with_deadline_exceeded() {
        let before = counters();
        let result = with_deadline(Some(Instant::now() - Duration::from_millis(1)), || {
            check_deadline()
        });
        assert!(matches!(result, Err(EngineError::DeadlineExceeded(_))));
        assert_eq!((counters() - before).deadline_exceeded, 1);
    }

    #[test]
    fn deadline_is_scoped_and_restored() {
        let outer = Instant::now() + Duration::from_secs(60);
        with_deadline(Some(outer), || {
            with_deadline(Some(Instant::now() - Duration::from_millis(1)), || {
                assert!(check_deadline().is_err());
            });
            // Back under the outer (future) deadline.
            check_deadline().unwrap();
        });
        // No deadline outside.
        let before = counters();
        check_deadline().unwrap();
        assert_eq!(counters(), before);
    }

    #[test]
    fn a_difference_of_two_reads_holds_what_ran_between_them() {
        let before = counters();
        count(|c| &c.index_probes, 3);
        count(|c| &c.spill_writes, 2);
        assert_eq!(
            counters() - before,
            Counters {
                index_probes: 3,
                spill_writes: 2,
                ..Counters::default()
            }
        );
    }
}
