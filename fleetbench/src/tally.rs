//! A benchmark-owned `aa_obs::Recorder` that aggregates as entries arrive.
//!
//! Spans are folded by their path (`sched.round/solver.recovery/...`)
//! into call counts, total and self nanoseconds; counters are summed. Of
//! the events only `solver.batch` is read, for the number of columns a
//! batched sweep certified; histograms and timings are dropped. Nothing
//! is journaled, so the recorder's cost per entry stays constant however
//! long a run is.

use std::any::Any;
use std::collections::HashMap;
use std::sync::{Arc, Mutex};

use aa_obs::{JournalEntry, Recorder, Value};

/// The pseudo-counter summing the `solved` field of `solver.batch` events.
pub const BATCH_SOLVED: &str = "solver.batch_solved";

/// Aggregated time of one span path.
#[derive(Debug, Clone, Copy, Default)]
pub struct SpanAgg {
    pub calls: u64,
    pub total_ns: u64,
    /// Span time minus the time of its child spans.
    pub self_ns: u64,
}

#[derive(Default)]
struct State {
    /// Open spans, innermost last: `(name, child_ns, path length before)`.
    stack: Vec<(&'static str, u64, usize)>,
    path: String,
    /// Time of closed spans that had no open parent here.
    top_ns: u64,
    spans: HashMap<String, SpanAgg>,
    counters: HashMap<&'static str, u64>,
}

/// The recorder. Forked children (one per worker-pool task) are merged
/// back under the parent's innermost open span.
#[derive(Default)]
pub struct Tally {
    state: Mutex<State>,
}

impl Tally {
    pub fn shared() -> Arc<Tally> {
        Arc::new(Tally::default())
    }

    /// A snapshot of everything recorded so far.
    pub fn summary(&self) -> Summary {
        let state = self.state.lock().expect("tally poisoned");
        Summary {
            spans: state.spans.clone(),
            counters: state.counters.clone(),
        }
    }
}

impl Recorder for Tally {
    fn journal(&self, entry: JournalEntry) {
        let mut state = self.state.lock().expect("tally poisoned");
        let state = &mut *state;
        match entry {
            JournalEntry::SpanStart { name } => {
                let before = state.path.len();
                if before > 0 {
                    state.path.push('/');
                }
                state.path.push_str(name);
                state.stack.push((name, 0, before));
            }
            JournalEntry::SpanEnd { name, wall_ns } => {
                let Some((open, child_ns, before)) = state.stack.pop() else {
                    return;
                };
                debug_assert_eq!(open, name, "spans close innermost first");
                let agg = match state.spans.get_mut(state.path.as_str()) {
                    Some(agg) => agg,
                    None => state.spans.entry(state.path.clone()).or_default(),
                };
                agg.calls += 1;
                agg.total_ns += wall_ns;
                agg.self_ns += wall_ns.saturating_sub(child_ns);
                state.path.truncate(before);
                match state.stack.last_mut() {
                    Some(parent) => parent.1 += wall_ns,
                    None => state.top_ns += wall_ns,
                }
            }
            JournalEntry::Event(event) => {
                if event.kind == "solver.batch" {
                    if let Some(Value::U64(solved)) = event.field("solved") {
                        *state.counters.entry(BATCH_SOLVED).or_insert(0) += solved;
                    }
                }
            }
        }
    }

    fn counter(&self, name: &'static str, delta: u64) {
        let mut state = self.state.lock().expect("tally poisoned");
        *state.counters.entry(name).or_insert(0) += delta;
    }

    fn histogram(&self, _name: &'static str, _value: f64) {}

    fn timing(&self, _name: &'static str, _wall_ns: u64) {}

    fn fork(&self, _index: usize) -> Arc<dyn Recorder> {
        Tally::shared()
    }

    fn join(&self, children: Vec<Arc<dyn Recorder>>) {
        let mut state = self.state.lock().expect("tally poisoned");
        let state = &mut *state;
        for child in children {
            let Some(child) = child.as_any().downcast_ref::<Tally>() else {
                continue;
            };
            let theirs = child.state.lock().expect("tally poisoned");
            for (path, agg) in &theirs.spans {
                let key = if state.path.is_empty() {
                    path.clone()
                } else {
                    format!("{}/{path}", state.path)
                };
                let ours = state.spans.entry(key).or_default();
                ours.calls += agg.calls;
                ours.total_ns += agg.total_ns;
                ours.self_ns += agg.self_ns;
            }
            for (name, delta) in &theirs.counters {
                *state.counters.entry(name).or_insert(0) += delta;
            }
            match state.stack.last_mut() {
                Some(parent) => parent.1 += theirs.top_ns,
                None => state.top_ns += theirs.top_ns,
            }
        }
    }

    fn as_any(&self) -> &dyn Any {
        self
    }
}

/// What one traced phase recorded, queried by span name or name prefix.
#[derive(Debug, Clone, Default)]
pub struct Summary {
    spans: HashMap<String, SpanAgg>,
    counters: HashMap<&'static str, u64>,
}

impl Summary {
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// Totals over every path whose innermost span satisfies `matches`.
    fn fold(&self, matches: impl Fn(&str) -> bool) -> SpanAgg {
        let mut out = SpanAgg::default();
        for (path, agg) in &self.spans {
            let leaf = path.rsplit('/').next().unwrap_or(path);
            if matches(leaf) {
                out.calls += agg.calls;
                out.total_ns += agg.total_ns;
                out.self_ns += agg.self_ns;
            }
        }
        out
    }

    /// Totals of the spans named `name`, wherever they nest.
    pub fn span(&self, name: &str) -> SpanAgg {
        self.fold(|leaf| leaf == name)
    }

    /// Totals of the spans whose name starts with `prefix`.
    pub fn spans_with_prefix(&self, prefix: &str) -> SpanAgg {
        self.fold(|leaf| leaf.starts_with(prefix))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children_and_joined_tasks() {
        let tally = Tally::shared();
        tally.journal(JournalEntry::SpanStart { name: "outer" });
        tally.journal(JournalEntry::SpanStart { name: "inner" });
        tally.journal(JournalEntry::SpanEnd {
            name: "inner",
            wall_ns: 30,
        });
        let child = tally.fork(0);
        child.journal(JournalEntry::SpanStart { name: "task" });
        child.journal(JournalEntry::SpanEnd {
            name: "task",
            wall_ns: 50,
        });
        child.counter("tasks", 2);
        tally.join(vec![child]);
        tally.journal(JournalEntry::SpanEnd {
            name: "outer",
            wall_ns: 100,
        });
        let summary = tally.summary();
        let outer = summary.span("outer");
        assert_eq!((outer.calls, outer.total_ns, outer.self_ns), (1, 100, 20));
        assert_eq!(summary.span("task").total_ns, 50);
        assert!(summary.spans.contains_key("outer/task"));
        assert_eq!(summary.spans_with_prefix("in").self_ns, 30);
        assert_eq!(summary.counter("tasks"), 2);
    }
}
