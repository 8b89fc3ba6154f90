//! In-memory span recording around the public calls into each layer.
//!
//! Spans are kept in a preallocated vector while the workload runs, so
//! recording costs two clock reads and one push per span.

use std::time::Instant;

/// A layer boundary the benchmark times from outside.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Layer {
    /// One control frame: every other `park` span lies inside one.
    Frame,
    /// `Perception::observe`.
    Perception,
    /// `IlModel::infer`.
    Il,
    /// `Hsa::set_ego_position` + `Hsa::update`.
    Hsa,
    /// `CoController::control`.
    Co,
    /// `World::step`.
    World,
    /// `ServeHandle::step_many` for one tick of the fleet.
    ServeStep,
}

/// One recorded span.
#[derive(Debug, Clone, Copy)]
struct Span {
    /// Which boundary was timed.
    layer: Layer,
    /// Duration in nanoseconds.
    dur_ns: u64,
}

/// The span store of one traced run.
pub struct Trace {
    spans: Vec<Span>,
}

impl Trace {
    /// An empty trace.
    pub fn new() -> Trace {
        Trace {
            spans: Vec::with_capacity(1 << 16),
        }
    }

    /// Runs `f` inside a span of `layer`.
    #[inline]
    pub fn span<T>(&mut self, layer: Layer, f: impl FnOnce() -> T) -> T {
        let start = Instant::now();
        let out = f();
        self.record(layer, start, Instant::now());
        out
    }

    /// Records a span whose bounds were taken by the caller.
    pub fn record(&mut self, layer: Layer, start: Instant, end: Instant) {
        self.spans.push(Span {
            layer,
            dur_ns: end.saturating_duration_since(start).as_nanos() as u64,
        });
    }

    /// Durations of every span of `layer`, in microseconds.
    pub fn durations_us(&self, layer: Layer) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.layer == layer)
            .map(|s| s.dur_ns as f64 / 1e3)
            .collect()
    }

    /// Total time inside spans of `layer`, in seconds.
    pub fn total_s(&self, layer: Layer) -> f64 {
        self.spans
            .iter()
            .filter(|s| s.layer == layer)
            .map(|s| s.dur_ns as f64)
            .sum::<f64>()
            / 1e9
    }
}
