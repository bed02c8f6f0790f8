//! Solver-phase tracing on a deterministic *work-unit* clock.
//!
//! The solver must stay reproducible across machines and thread counts,
//! so spans are positioned by work done (simplex pivots, B&B nodes,
//! sweep touches) rather than wall-clock. A [`SolveTrace`] keeps a
//! monotone work cursor; each recorded phase advances it by the phase's
//! work, producing a gapless, deterministic lane of spans. The consumer
//! (the online scheduler in `hare-baselines`) drains the spans and
//! forwards them to the simulator's `TraceSink`, anchored at the
//! simulation time of the replan that ran the solver.
//!
//! `hare-solver` cannot depend on `hare-sim` (the dependency points the
//! other way), which is why this is a standalone buffer rather than an
//! implementation of the sim's sink trait.

use std::sync::{Arc, Mutex};

/// One recorded solver phase, in work units.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SolveSpan {
    /// Phase name (`"lp_round"`, `"bb_root"`, `"combinatorial"`,
    /// rung names, ...).
    pub phase: &'static str,
    /// Work-cursor position when the phase started.
    pub start: u64,
    /// Work-cursor position when the phase ended (`start + work`).
    pub end: u64,
    /// Phase-specific detail: cut round, branch index, rung outcome.
    pub detail: u64,
}

/// Shared, clonable span buffer with a monotone work cursor.
///
/// Cheap to clone (an `Arc`): clones share one buffer, so an owner such
/// as the online policy keeps a handle while the solvers record through
/// `&SolveTrace`. The `Mutex` keeps the handle `Send + Sync`, like the
/// simulator's `TraceSink`, so policies holding one can run on the
/// experiment harness's worker threads; each solve records from its own
/// thread, in order.
#[derive(Clone, Debug, Default)]
pub struct SolveTrace {
    inner: Arc<Mutex<Inner>>,
}

#[derive(Debug, Default)]
struct Inner {
    cursor: u64,
    spans: Vec<SolveSpan>,
}

impl SolveTrace {
    /// An empty trace with the cursor at zero.
    pub fn new() -> SolveTrace {
        SolveTrace::default()
    }

    /// Record a phase that did `work` units, advancing the cursor.
    /// Zero-work phases are clamped to one unit so they stay visible.
    pub fn record(&self, phase: &'static str, work: u64, detail: u64) {
        let mut inner = self.inner.lock().unwrap_or_else(|e| e.into_inner());
        let start = inner.cursor;
        let end = start + work.max(1);
        inner.cursor = end;
        inner.spans.push(SolveSpan {
            phase,
            start,
            end,
            detail,
        });
    }

    /// Total work recorded so far (the cursor position).
    pub fn cursor(&self) -> u64 {
        self.inner.lock().unwrap_or_else(|e| e.into_inner()).cursor
    }

    /// Number of recorded spans.
    pub fn len(&self) -> usize {
        self.inner
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .spans
            .len()
    }

    /// True when nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Take the recorded spans, resetting the buffer and cursor — one
    /// drain per replan keeps successive solves independently anchored.
    pub fn drain(&self) -> Vec<SolveSpan> {
        let mut inner = self.inner.lock().unwrap_or_else(|e| e.into_inner());
        inner.cursor = 0;
        std::mem::take(&mut inner.spans)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cursor_is_monotone_and_gapless() {
        let t = SolveTrace::new();
        t.record("lp_round", 10, 0);
        t.record("lp_round", 0, 1); // clamped to 1
        t.record("bb_root", 5, 2);
        assert_eq!(t.cursor(), 16);
        let spans = t.drain();
        assert_eq!(spans.len(), 3);
        assert_eq!(spans[0].start, 0);
        assert_eq!(spans[0].end, 10);
        assert_eq!(spans[1].end, 11);
        assert_eq!(spans[2].start, 11);
        assert_eq!(spans[2].end, 16);
        // Drained: cursor and buffer reset.
        assert!(t.is_empty());
        assert_eq!(t.cursor(), 0);
    }

    #[test]
    fn clones_share_the_buffer() {
        let a = SolveTrace::new();
        let b = a.clone();
        a.record("x", 3, 0);
        b.record("y", 4, 0);
        assert_eq!(a.len(), 2);
        assert_eq!(a.cursor(), 7);
    }
}
