//! Engine error types.

use hilog_core::error::CoreError;
use std::fmt;

/// Errors raised by grounding and evaluation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EngineError {
    /// A rule or query floundered: a variable could not be bound before it
    /// was needed (a non-ground negative subgoal, a non-ground head after
    /// body evaluation, or a subgoal with a variable predicate name selected
    /// while unbound — footnote 10 of the paper).
    Floundering(String),
    /// A resource limit (atom count, iteration count, search nodes) was
    /// exceeded.  The limits exist because HiLog Herbrand universes are
    /// infinite; see `EvalOptions`.
    LimitExceeded(String),
    /// The program is not modularly stratified (for HiLog), reported by the
    /// Figure 1 procedure or by the query-directed evaluator when it detects
    /// a negative dependency cycle.
    NotModularlyStratified(String),
    /// The program has no stable models at all, so the stable-model
    /// semantics (Definition 3.7) assigns no truth values — reported by the
    /// session facade when queries are asked under
    /// [`Semantics::Stable`](crate::session::Semantics).
    NoStableModels,
    /// The query's deadline passed while evaluation was still running.  The
    /// deadline is checked at the same hook sites as the resource limits, so
    /// a runaway query returns instead of pinning a worker; see
    /// [`crate::with_deadline`].
    DeadlineExceeded(String),
    /// A construct is not supported by the invoked evaluation path (e.g. an
    /// aggregate literal reaching the plain grounder instead of the
    /// aggregation evaluator).
    Unsupported(String),
    /// An error bubbled up from `hilog-core` (arithmetic, preconditions).
    Core(CoreError),
}

impl fmt::Display for EngineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EngineError::Floundering(m) => write!(f, "floundering: {m}"),
            EngineError::LimitExceeded(m) => write!(f, "limit exceeded: {m}"),
            EngineError::NotModularlyStratified(m) => {
                write!(f, "not modularly stratified for HiLog: {m}")
            }
            EngineError::NoStableModels => write!(
                f,
                "no stable models: the stable-model semantics (Definition 3.7) is undefined \
                 for this program"
            ),
            EngineError::DeadlineExceeded(m) => write!(f, "deadline exceeded: {m}"),
            EngineError::Unsupported(m) => write!(f, "unsupported: {m}"),
            EngineError::Core(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for EngineError {}

impl From<CoreError> for EngineError {
    fn from(e: CoreError) -> Self {
        EngineError::Core(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_variants() {
        assert!(EngineError::Floundering("x".into())
            .to_string()
            .contains("floundering"));
        assert!(EngineError::LimitExceeded("x".into())
            .to_string()
            .contains("limit"));
        assert!(EngineError::NotModularlyStratified("x".into())
            .to_string()
            .contains("modularly stratified"));
        assert!(EngineError::Unsupported("x".into())
            .to_string()
            .contains("unsupported"));
        assert!(EngineError::NoStableModels
            .to_string()
            .contains("no stable models"));
        let core: EngineError = CoreError::Arithmetic("bad".into()).into();
        assert!(core.to_string().contains("arithmetic"));
    }
}
