//! `aa-obs`: structured tracing and metrics for the analog-accel workspace.
//!
//! The paper's evaluation is entirely about *measured* behaviour — solve
//! times, convergence iterations, exception counts — so the hot paths
//! (engine, solver, recovery controller, parallel block sweeps) emit
//! structured telemetry through the [`Recorder`] trait defined here:
//!
//! * **Spans** — named start/end pairs with monotonic-clock durations
//!   ([`span`] returns a scope guard).
//! * **Counters** — named monotone `u64` accumulators ([`counter`]).
//! * **Histograms** — log₂-bucketed summaries of deterministic values such
//!   as step counts and residuals ([`histogram`]).
//! * **Timings** — log₂-bucketed wall-clock observations ([`timing`]),
//!   kept separate from histograms because their values are inherently
//!   nondeterministic.
//! * **Events** — a ring-buffered journal of typed records ([`event`]).
//!
//! # Dispatch model
//!
//! Recorders are **thread-inherited**, not global: [`with_recorder`]
//! installs one for the duration of a closure on the current thread, and
//! `aa_linalg::parallel::scoped_map`-style fan-outs carry it across
//! worker threads by [`Recorder::fork`]ing one child per task and
//! [`Recorder::join`]ing the children back **in input order**. Two
//! consequences fall out:
//!
//! 1. **Zero interference** — concurrently running tests (or request
//!    handlers) never write into each other's recorders.
//! 2. **Determinism** — the merged journal is independent of the worker
//!    thread count, so a trace is a replayable regression oracle: same
//!    seed, netlist, and fault plan ⇒ identical event sequence, with the
//!    wall clock as the *only* masked field.
//!
//! When no recorder is installed (the default), every instrumentation call
//! is a thread-local `None` check — instrumented hot paths cost nothing
//! measurable. Building with the `noop` feature removes even that.
//!
//! ```
//! use std::sync::Arc;
//! use aa_obs::{span, counter, event, Event, MemoryRecorder};
//!
//! let recorder = Arc::new(MemoryRecorder::new());
//! aa_obs::with_recorder(recorder.clone(), || {
//!     let _solve = span("demo.solve");
//!     counter("demo.calls", 1);
//!     event(Event::new("demo.done").with("ok", true));
//! });
//! let trace = recorder.snapshot();
//! # if aa_obs::ENABLED {
//! assert_eq!(trace.counter("demo.calls"), 1);
//! assert_eq!(
//!     trace.deterministic_lines(),
//!     vec![">demo.solve", "demo.done ok=true", "<demo.solve"],
//! );
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod event;
mod histogram;
pub mod json;
mod memory;

use std::sync::Arc;
use std::time::Instant;

pub use event::{Event, JournalEntry, Value};
pub use histogram::LogHistogram;
pub use memory::{MemoryRecorder, TraceSnapshot, DEFAULT_JOURNAL_CAPACITY};

/// `false` when the crate was built with the `noop` feature, in which case
/// every recording call compiles to nothing and [`with_recorder`] installs
/// nothing. Tests that assert on recorded traces should early-return when
/// this is `false`.
pub const ENABLED: bool = cfg!(not(feature = "noop"));

/// A telemetry sink. Implementations must be cheap and non-blocking-ish:
/// they are called from solver hot paths (at run granularity, never inside
/// the RK4 inner loop).
pub trait Recorder: Send + Sync {
    /// Appends an entry to the event journal.
    fn journal(&self, entry: JournalEntry);

    /// Adds `delta` to a named monotone counter.
    fn counter(&self, name: &'static str, delta: u64);

    /// Records a deterministic value into a named log-scale histogram.
    fn histogram(&self, name: &'static str, value: f64);

    /// Records a wall-clock observation (nanoseconds) into a named
    /// log-scale histogram kept separate from deterministic histograms.
    fn timing(&self, name: &'static str, wall_ns: u64);

    /// Creates an independent child recorder for parallel task `index`.
    /// The caller will hand every child back to [`join`](Self::join) in
    /// input order once the fan-out completes.
    fn fork(&self, index: usize) -> Arc<dyn Recorder>;

    /// Merges child recorders produced by [`fork`](Self::fork), in the
    /// order given (callers pass input order, making the merged journal
    /// independent of worker scheduling).
    fn join(&self, children: Vec<Arc<dyn Recorder>>);

    /// Downcast support for [`join`](Self::join) implementations.
    fn as_any(&self) -> &dyn std::any::Any;
}

#[cfg(not(feature = "noop"))]
mod dispatch {
    use super::*;
    use std::cell::RefCell;

    thread_local! {
        static CURRENT: RefCell<Option<Arc<dyn Recorder>>> = const { RefCell::new(None) };
    }

    /// Restores the previously installed recorder on drop (panic-safe).
    struct Restore(Option<Arc<dyn Recorder>>);

    impl Drop for Restore {
        fn drop(&mut self) {
            let prev = self.0.take();
            CURRENT.with(|c| *c.borrow_mut() = prev);
        }
    }

    pub fn with_recorder<T>(recorder: Arc<dyn Recorder>, f: impl FnOnce() -> T) -> T {
        let prev = CURRENT.with(|c| c.borrow_mut().replace(recorder));
        let _restore = Restore(prev);
        f()
    }

    pub fn current() -> Option<Arc<dyn Recorder>> {
        CURRENT.with(|c| c.borrow().clone())
    }

    pub fn is_active() -> bool {
        CURRENT.with(|c| c.borrow().is_some())
    }

    /// Runs `f` against the installed recorder, if any, without cloning
    /// the `Arc`. `f` must not install or remove recorders.
    pub fn with_active(f: impl FnOnce(&dyn Recorder)) {
        CURRENT.with(|c| {
            if let Some(r) = c.borrow().as_deref() {
                f(r);
            }
        });
    }

    pub fn silenced<T>(f: impl FnOnce() -> T) -> T {
        let prev = CURRENT.with(|c| c.borrow_mut().take());
        let _restore = Restore(prev);
        f()
    }
}

#[cfg(feature = "noop")]
mod dispatch {
    use super::*;

    pub fn with_recorder<T>(_recorder: Arc<dyn Recorder>, f: impl FnOnce() -> T) -> T {
        f()
    }

    pub fn current() -> Option<Arc<dyn Recorder>> {
        None
    }

    pub fn is_active() -> bool {
        false
    }

    pub fn with_active(_f: impl FnOnce(&dyn Recorder)) {}

    pub fn silenced<T>(f: impl FnOnce() -> T) -> T {
        f()
    }
}

/// Installs `recorder` on the current thread for the duration of `f`,
/// restoring the previous recorder (if any) afterwards, panic-safe.
/// Nesting is allowed; the innermost recorder wins.
pub fn with_recorder<T>(recorder: Arc<dyn Recorder>, f: impl FnOnce() -> T) -> T {
    dispatch::with_recorder(recorder, f)
}

/// The recorder installed on the current thread, if any. Parallel
/// primitives use this to carry the recorder across worker threads (fork
/// here, [`with_recorder`] + [`Recorder::join`] there).
pub fn current() -> Option<Arc<dyn Recorder>> {
    dispatch::current()
}

/// Whether a recorder is installed on the current thread. Lets callers
/// skip building expensive event payloads when nobody is listening.
pub fn is_active() -> bool {
    dispatch::is_active()
}

/// Runs `f` with **no** recorder installed, restoring the previous one
/// (if any) afterwards, panic-safe. Deterministic replay paths — e.g. a
/// fleet draining its admission WAL after a crash — use this so the
/// re-executed work does not double-count events the uninterrupted run
/// already recorded.
pub fn silenced<T>(f: impl FnOnce() -> T) -> T {
    dispatch::silenced(f)
}

/// Appends a structured event to the journal (no-op when inactive).
pub fn event(event: Event) {
    dispatch::with_active(|r| r.journal(JournalEntry::Event(event)));
}

/// Adds `delta` to a named counter (no-op when inactive).
pub fn counter(name: &'static str, delta: u64) {
    dispatch::with_active(|r| r.counter(name, delta));
}

/// Records a deterministic value into a log-scale histogram (no-op when
/// inactive).
pub fn histogram(name: &'static str, value: f64) {
    dispatch::with_active(|r| r.histogram(name, value));
}

/// Records a wall-clock observation in nanoseconds (no-op when inactive).
pub fn timing(name: &'static str, wall_ns: u64) {
    dispatch::with_active(|r| r.timing(name, wall_ns));
}

/// An RAII span: construction journals `SpanStart`, drop journals
/// `SpanEnd` with the monotonic elapsed time. Inert (and allocation-free)
/// when no recorder is installed.
#[must_use = "a span measures the scope it is bound to; bind it to a variable"]
pub struct Span {
    active: Option<(Arc<dyn Recorder>, &'static str, Instant)>,
}

impl Span {
    /// Whether this span is actually recording.
    pub fn is_recording(&self) -> bool {
        self.active.is_some()
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        if let Some((recorder, name, start)) = self.active.take() {
            let wall_ns = u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX);
            recorder.journal(JournalEntry::SpanEnd { name, wall_ns });
        }
    }
}

/// Opens a span on the current thread's recorder. The span closes when the
/// returned guard drops.
pub fn span(name: &'static str) -> Span {
    match dispatch::current() {
        Some(recorder) => {
            recorder.journal(JournalEntry::SpanStart { name });
            Span {
                active: Some((recorder, name, Instant::now())),
            }
        }
        None => Span { active: None },
    }
}

#[cfg(all(test, not(feature = "noop")))]
mod tests {
    use super::*;

    #[test]
    fn inactive_by_default() {
        assert!(!is_active());
        assert!(current().is_none());
        // All free functions are harmless no-ops.
        counter("x", 1);
        histogram("y", 2.0);
        timing("z", 3);
        event(Event::new("nothing"));
        let s = span("quiet");
        assert!(!s.is_recording());
    }

    #[test]
    fn scoping_nests_and_restores() {
        let outer = MemoryRecorder::shared();
        let inner = MemoryRecorder::shared();
        with_recorder(outer.clone(), || {
            counter("depth", 1);
            with_recorder(inner.clone(), || {
                assert!(is_active());
                counter("depth", 10);
            });
            counter("depth", 1);
        });
        assert!(!is_active());
        assert_eq!(outer.snapshot().counter("depth"), 2);
        assert_eq!(inner.snapshot().counter("depth"), 10);
    }

    #[test]
    fn silenced_suppresses_and_restores() {
        let rec = MemoryRecorder::shared();
        with_recorder(rec.clone(), || {
            counter("kept", 1);
            let out = silenced(|| {
                assert!(!is_active());
                counter("kept", 100); // dropped: nobody is listening
                7
            });
            assert_eq!(out, 7);
            assert!(is_active(), "recorder restored after silenced scope");
            counter("kept", 1);
        });
        assert_eq!(rec.snapshot().counter("kept"), 2);
    }

    #[test]
    fn recorder_restored_after_panic() {
        let rec = MemoryRecorder::shared();
        let result = std::panic::catch_unwind(|| {
            with_recorder(rec, || panic!("boom"));
        });
        assert!(result.is_err());
        assert!(!is_active(), "panic must not leak the installed recorder");
    }

    #[test]
    fn spans_nest_in_the_journal() {
        let rec = MemoryRecorder::shared();
        with_recorder(rec.clone(), || {
            let _outer = span("outer");
            {
                let _inner = span("inner");
            }
            event(Event::new("between"));
        });
        assert_eq!(
            rec.snapshot().deterministic_lines(),
            vec![">outer", ">inner", "<inner", "between", "<outer"]
        );
    }

    #[test]
    fn span_survives_recorder_swap() {
        // A span keeps writing to the recorder it opened on, even if the
        // thread's current recorder changes before it closes.
        let a = MemoryRecorder::shared();
        let b = MemoryRecorder::shared();
        with_recorder(a.clone(), || {
            let guard = span("on_a");
            with_recorder(b.clone(), move || {
                drop(guard);
            });
        });
        assert_eq!(a.snapshot().deterministic_lines(), vec![">on_a", "<on_a"]);
        assert!(b.snapshot().deterministic_lines().is_empty());
    }
}
