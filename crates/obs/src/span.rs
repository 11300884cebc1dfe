//! Hierarchical spans with exclusive-time attribution.
//!
//! A [`Recorder`] maintains a span stack over an injected
//! [`TimeSource`]. Closing a span records its *exclusive* time — total
//! minus the time spent in nested spans — into the registry histogram of
//! the span's name, so a set of phase spans partitions the measured time
//! without double counting. With a manual (simulated-time) source the
//! recording is byte-deterministic; an external wall-clock source turns
//! the same instrumentation into a profiler.

use crate::clock::TimeSource;
use crate::metrics::Registry;

/// Span name: one engine event being dispatched (the event loop body,
/// exclusive of the nested phases below).
pub const EVENT_DISPATCH: &str = "event_dispatch";
/// Span name: a routing-protocol or application handler running.
pub const PROTOCOL_PROCESSING: &str = "protocol_processing";
/// Span name: appending records to the run trace.
pub const TRACE_RECORDING: &str = "trace_recording";

#[derive(Debug)]
struct Frame {
    name: &'static str,
    start: u64,
    /// Total (inclusive) nanoseconds spent in already-closed child spans.
    child: u64,
}

/// Records hierarchical spans and counters against an injected clock.
#[derive(Debug)]
pub struct Recorder {
    clock: TimeSource,
    registry: Registry,
    stack: Vec<Frame>,
}

impl Default for Recorder {
    fn default() -> Self {
        Recorder::manual()
    }
}

impl Recorder {
    /// A recorder over a manual (deterministic) time source starting at
    /// zero. The instrumented code advances it with
    /// [`Recorder::set_time`].
    #[must_use]
    pub fn manual() -> Self {
        Recorder::with_clock(TimeSource::manual())
    }

    /// A recorder over an external nanosecond closure (a wall clock owned
    /// by bench code).
    #[must_use]
    pub fn external(f: Box<dyn Fn() -> u64 + Send>) -> Self {
        Recorder::with_clock(TimeSource::external(f))
    }

    /// A recorder over an explicit time source.
    #[must_use]
    pub fn with_clock(clock: TimeSource) -> Self {
        Recorder {
            clock,
            registry: Registry::new(),
            stack: Vec::with_capacity(8),
        }
    }

    /// Advances a manual clock to `nanos` (no-op for external clocks).
    pub fn set_time(&mut self, nanos: u64) {
        self.clock.set(nanos);
    }

    /// The clock's current reading.
    #[must_use]
    pub fn now(&self) -> u64 {
        self.clock.now()
    }

    /// Opens a span named `name` at the current time.
    pub fn enter(&mut self, name: &'static str) {
        let start = self.clock.now();
        self.stack.push(Frame {
            name,
            start,
            child: 0,
        });
    }

    /// Closes the innermost span, recording its exclusive time into the
    /// histogram of its name. Closing with an empty stack is a no-op, so
    /// unbalanced instrumentation degrades instead of failing.
    pub fn exit(&mut self) {
        let Some(frame) = self.stack.pop() else {
            return;
        };
        let total = self.clock.now().saturating_sub(frame.start);
        let exclusive = total.saturating_sub(frame.child);
        self.registry.record(frame.name, exclusive);
        if let Some(parent) = self.stack.last_mut() {
            parent.child = parent.child.saturating_add(total);
        }
    }

    /// Current span nesting depth.
    #[must_use]
    pub fn depth(&self) -> usize {
        self.stack.len()
    }

    /// Total exclusive nanoseconds recorded under span `name`.
    #[must_use]
    pub fn exclusive_ns(&self, name: &'static str) -> u64 {
        self.registry.histogram(name).map_or(0, |h| h.sum())
    }

    /// How many spans named `name` have closed.
    #[must_use]
    pub fn calls(&self, name: &'static str) -> u64 {
        self.registry.histogram(name).map_or(0, |h| h.count())
    }

    /// The underlying counter/histogram registry.
    #[must_use]
    pub fn registry(&self) -> &Registry {
        &self.registry
    }

    /// Mutable access to the registry (for counters recorded alongside
    /// spans).
    pub fn registry_mut(&mut self) -> &mut Registry {
        &mut self.registry
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exclusive_time_subtracts_children() {
        let mut r = Recorder::manual();
        r.set_time(0);
        r.enter("outer");
        r.set_time(10);
        r.enter("inner");
        r.set_time(30);
        r.exit(); // inner: 20 exclusive
        r.set_time(35);
        r.exit(); // outer: 35 total - 20 child = 15 exclusive
        assert_eq!(r.exclusive_ns("inner"), 20);
        assert_eq!(r.exclusive_ns("outer"), 15);
        assert_eq!(r.calls("outer"), 1);
        assert_eq!(r.depth(), 0);
    }

    #[test]
    fn sibling_children_accumulate_into_the_parent() {
        let mut r = Recorder::manual();
        r.enter("outer");
        for t in [10u64, 20, 30, 40] {
            r.set_time(t.saturating_sub(10));
            r.enter("child");
            r.set_time(t);
            r.exit();
        }
        r.set_time(50);
        r.exit();
        // Four 10 ns children cover [0, 40); the parent keeps [40, 50).
        assert_eq!(r.calls("child"), 4);
        assert_eq!(r.exclusive_ns("child"), 40);
        assert_eq!(r.exclusive_ns("outer"), 10);
    }

    #[test]
    fn unbalanced_exit_is_a_noop() {
        let mut r = Recorder::manual();
        r.exit();
        assert_eq!(r.depth(), 0);
        assert!(r.registry().render_lines().is_empty());
    }

    #[test]
    fn deterministic_rendering_for_identical_histories() {
        let record = || {
            let mut r = Recorder::manual();
            for i in 0..100u64 {
                r.set_time(i * 10);
                r.enter(EVENT_DISPATCH);
                r.set_time(i * 10 + 3);
                r.enter(PROTOCOL_PROCESSING);
                r.set_time(i * 10 + 7);
                r.exit();
                r.exit();
            }
            r.registry().render_lines()
        };
        assert_eq!(record(), record());
    }

    #[test]
    fn external_clock_is_read_through() {
        let mut r = Recorder::external(Box::new(|| 42));
        assert_eq!(r.now(), 42);
        r.enter("x");
        r.exit();
        assert_eq!(r.exclusive_ns("x"), 0);
        assert_eq!(r.calls("x"), 1);
    }
}
