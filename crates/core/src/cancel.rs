//! Cooperative cancellation for long-running queries.
//!
//! ResAcc's cost is input-dependent: a query with tiny `δ`/`ε`, or an
//! adversarial source on a heavy-tailed graph, can run orders of magnitude
//! longer than the median. A serving layer therefore needs a way to bound
//! the damage one query can do. This module provides the mechanism:
//!
//! * [`Cancel`] — a cheap, cloneable token combining an optional wall-clock
//!   deadline with an atomic cancel flag. `Cancel::never()` carries no
//!   allocation and compiles down to a no-op check, so infallible callers
//!   (benchmarks, offline evaluation) pay nothing.
//! * [`Ticker`] — a coarse op-counter that amortizes the cost of the check:
//!   the hot loops of h-HopFWD, OMFWD and the remedy walks call
//!   [`Ticker::tick`] once per push / walk, and only every
//!   [`CHECK_INTERVAL`]-th tick actually reads the clock. An expired query
//!   aborts within O(check interval) operations.
//! * [`QueryError`] — the typed abort reason. Phases can only produce
//!   `DeadlineExceeded` / `Cancelled`; the session adds `SourceOutOfRange`
//!   (validated under the same read lock the query runs under, closing the
//!   validate-then-mutate race with concurrent `delete_node`).
//!
//! Cancellation never touches the RNG stream: a query that *completes*
//! under a deadline is bit-identical to one that ran without it. The token
//! only decides whether the query finishes, never what it computes.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Operations (pushes / walks) between consecutive clock checks. Small
/// enough that a 1 ms deadline is honoured within a fraction of a
/// millisecond of engine work, large enough that the check cost is
/// invisible next to the work it meters.
pub const CHECK_INTERVAL: u32 = 1024;

/// Why a query aborted (or was refused) instead of returning scores.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum QueryError {
    /// The query's deadline passed while it was still running.
    DeadlineExceeded,
    /// The query's cancel flag was raised.
    Cancelled,
    /// The source node does not exist in the graph the query would have run
    /// against (checked under the session read lock, so concurrent
    /// `delete_node` cannot invalidate the check).
    SourceOutOfRange {
        /// The requested source node.
        source: u32,
        /// Node count of the graph at query time.
        nodes: usize,
    },
}

impl std::fmt::Display for QueryError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            QueryError::DeadlineExceeded => write!(f, "deadline exceeded"),
            QueryError::Cancelled => write!(f, "query cancelled"),
            QueryError::SourceOutOfRange { source, nodes } => {
                write!(f, "source {source} out of range (n = {nodes})")
            }
        }
    }
}

impl std::error::Error for QueryError {}

struct CancelState {
    cancelled: AtomicBool,
    deadline: Option<Instant>,
}

/// A cooperative cancellation token: atomic flag plus optional deadline.
///
/// Cloning shares the underlying state, so a scheduler can keep one clone
/// to cancel with while the worker threads check another.
#[derive(Clone, Default)]
pub struct Cancel {
    shared: Option<Arc<CancelState>>,
}

impl Cancel {
    /// A token that never cancels. No allocation; checks are a branch on a
    /// `None`.
    pub fn never() -> Self {
        Cancel { shared: None }
    }

    /// A token that expires at `deadline`.
    pub fn at(deadline: Instant) -> Self {
        Cancel {
            shared: Some(Arc::new(CancelState {
                cancelled: AtomicBool::new(false),
                deadline: Some(deadline),
            })),
        }
    }

    /// A token that expires `timeout` from now.
    pub fn after(timeout: Duration) -> Self {
        Self::at(Instant::now() + timeout)
    }

    /// A flag-only token: never expires on its own, cancels when
    /// [`Cancel::cancel`] is called on any clone.
    pub fn manual() -> Self {
        Cancel {
            shared: Some(Arc::new(CancelState {
                cancelled: AtomicBool::new(false),
                deadline: None,
            })),
        }
    }

    /// Raises the cancel flag (a no-op on a `never()` token).
    pub fn cancel(&self) {
        if let Some(s) = &self.shared {
            s.cancelled.store(true, Ordering::Release);
        }
    }

    /// Full check: flag first (cheap), then the clock.
    pub fn check(&self) -> Result<(), QueryError> {
        let Some(s) = &self.shared else { return Ok(()) };
        if s.cancelled.load(Ordering::Acquire) {
            return Err(QueryError::Cancelled);
        }
        if let Some(d) = s.deadline {
            if Instant::now() >= d {
                return Err(QueryError::DeadlineExceeded);
            }
        }
        Ok(())
    }

    /// True when a check would fail.
    pub fn is_cancelled(&self) -> bool {
        self.check().is_err()
    }

    /// Starts a coarse-checking ticker over this token.
    pub fn ticker(&self) -> Ticker<'_> {
        Ticker {
            cancel: self,
            ops: 0,
        }
    }
}

impl std::fmt::Debug for Cancel {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match &self.shared {
            None => write!(f, "Cancel::never"),
            Some(s) => f
                .debug_struct("Cancel")
                .field("cancelled", &s.cancelled.load(Ordering::Relaxed))
                .field("deadline", &s.deadline)
                .finish(),
        }
    }
}

/// Amortized cancellation checks for hot loops: one increment per op, one
/// real [`Cancel::check`] per [`CHECK_INTERVAL`] ops.
pub struct Ticker<'c> {
    cancel: &'c Cancel,
    ops: u32,
}

impl Ticker<'_> {
    /// Counts one operation; every `CHECK_INTERVAL`-th call performs the
    /// real check. Call this once per push / walk inside a hot loop.
    #[inline]
    pub fn tick(&mut self) -> Result<(), QueryError> {
        self.ops += 1;
        if self.ops >= CHECK_INTERVAL {
            self.ops = 0;
            self.cancel.check()
        } else {
            Ok(())
        }
    }

    /// Counts `n` operations at once (e.g. one walk chunk); performs the
    /// real check when the running count crosses a [`CHECK_INTERVAL`]
    /// boundary, so it checks exactly where `n` single ticks would.
    #[inline]
    pub fn tick_n(&mut self, n: u64) -> Result<(), QueryError> {
        let interval = u64::from(CHECK_INTERVAL);
        let total = u64::from(self.ops) + n;
        self.ops = (total % interval) as u32;
        if total >= interval {
            self.cancel.check()
        } else {
            Ok(())
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn never_token_never_cancels() {
        let c = Cancel::never();
        assert!(c.check().is_ok());
        c.cancel(); // no-op
        assert!(c.check().is_ok());
        assert!(!c.is_cancelled());
    }

    #[test]
    fn manual_flag_cancels_all_clones() {
        let c = Cancel::manual();
        let clone = c.clone();
        assert!(clone.check().is_ok());
        c.cancel();
        assert_eq!(clone.check(), Err(QueryError::Cancelled));
    }

    #[test]
    fn expired_deadline_reports_deadline_exceeded() {
        let c = Cancel::at(Instant::now() - Duration::from_millis(1));
        assert_eq!(c.check(), Err(QueryError::DeadlineExceeded));
        // The flag takes precedence over the deadline in the report.
        c.cancel();
        assert_eq!(c.check(), Err(QueryError::Cancelled));
    }

    #[test]
    fn future_deadline_passes() {
        let c = Cancel::after(Duration::from_secs(3600));
        assert!(c.check().is_ok());
    }

    #[test]
    fn ticker_checks_at_interval() {
        let c = Cancel::at(Instant::now() - Duration::from_millis(1));
        let mut t = c.ticker();
        // The first CHECK_INTERVAL - 1 ticks are free even though the
        // deadline already passed; the interval-th performs the check.
        for _ in 0..CHECK_INTERVAL - 1 {
            assert!(t.tick().is_ok());
        }
        assert_eq!(t.tick(), Err(QueryError::DeadlineExceeded));
    }

    #[test]
    fn ticker_tick_n_checks_on_interval_boundaries() {
        let c = Cancel::at(Instant::now() - Duration::from_millis(1));
        let mut t = c.ticker();
        // 1023 ops stay inside the first interval: no check yet.
        assert!(t.tick_n(CHECK_INTERVAL as u64 - 1).is_ok());
        assert!(t.tick_n(0).is_ok());
        // The next op crosses the boundary and performs the real check.
        assert_eq!(t.tick_n(1), Err(QueryError::DeadlineExceeded));
        // A bulk tick spanning several intervals checks too.
        let mut t2 = c.ticker();
        assert_eq!(
            t2.tick_n(10 * CHECK_INTERVAL as u64),
            Err(QueryError::DeadlineExceeded)
        );
        // Mixed single and bulk ticks share one running count.
        let mut t3 = c.ticker();
        assert!(t3.tick().is_ok());
        assert!(t3.tick_n(CHECK_INTERVAL as u64 - 2).is_ok());
        assert_eq!(t3.tick(), Err(QueryError::DeadlineExceeded));
    }

    #[test]
    fn error_messages_are_typed() {
        assert_eq!(QueryError::DeadlineExceeded.to_string(), "deadline exceeded");
        assert_eq!(
            QueryError::SourceOutOfRange {
                source: 7,
                nodes: 3
            }
            .to_string(),
            "source 7 out of range (n = 3)"
        );
    }
}
