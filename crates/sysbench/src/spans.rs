//! Span arithmetic over a [`tagnn_obs::Trace`].
//!
//! The traced run wraps each call into a layer in a span named after
//! the layer (`graph.plan_window`, `models.process_window`, ...), nested
//! under a root span that carries the window or request id in its name
//! (`window:7`, `request:42`), so spans of one unit of work share an
//! identifier through their parent chain. A layer's *self* time is its
//! span's duration minus the part its direct children cover.

use std::collections::BTreeMap;
use std::time::Instant;

use tagnn_obs::{Recorder, Trace};

/// Per-name totals over every finished span of a trace.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SpanTotals {
    /// Finished spans with this name.
    pub count: u64,
    /// Sum of their durations.
    pub total_ns: u64,
    /// Sum of their self times (duration minus direct children).
    pub self_ns: u64,
}

impl SpanTotals {
    /// Mean self time per span in nanoseconds (0 when none finished).
    pub fn self_mean_ns(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.self_ns as f64 / self.count as f64
        }
    }
}

/// Aggregates self time by span name. Spans still open are ignored; a
/// child that outlasts its parent's recorded duration clamps the
/// parent's self time at zero instead of underflowing.
pub fn self_times(trace: &Trace) -> BTreeMap<String, SpanTotals> {
    let mut child_ns = vec![0u64; trace.spans.len()];
    for s in &trace.spans {
        if let (Some(parent), Some(dur)) = (s.parent, s.dur_ns) {
            child_ns[parent] += dur;
        }
    }
    let mut out: BTreeMap<String, SpanTotals> = BTreeMap::new();
    for s in &trace.spans {
        let Some(dur) = s.dur_ns else { continue };
        let t = out.entry(s.name.clone()).or_default();
        t.count += 1;
        t.total_ns += dur;
        t.self_ns += dur.saturating_sub(child_ns[s.id]);
    }
    out
}

/// Measured cost of one enter/exit pair on a recorder, in nanoseconds
/// (`obs.span_ns`): the price every traced call pays.
pub fn span_cost_ns() -> f64 {
    const PAIRS: u32 = 20_000;
    let rec = Recorder::new();
    let started = Instant::now();
    for _ in 0..PAIRS {
        let id = rec.enter("probe");
        rec.exit(id);
    }
    started.elapsed().as_nanos() as f64 / PAIRS as f64
}
