//! Result collection and the output contract.
//!
//! A workload run ends in an [`Outcome`]. [`Outcome::print`] writes a
//! readable table (every metric by name, with its unit, next to the
//! sample counts and generator lag that qualify the latencies), one
//! `info` JSON line with the host and every pinned value, and — as the
//! last line of standard output — the result object with exactly the
//! keys `correct`, `attempted`, `failed` and `metrics`.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use crate::spec::{self, MetricDef};

/// Metric values by name. Names must come from the spec tables.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Metrics(BTreeMap<&'static str, f64>);

impl Metrics {
    /// Records `value` under `name`.
    ///
    /// # Panics
    /// Panics when `name` is in neither metric table (a typo would
    /// otherwise silently drop a number) or `value` is not finite (JSON
    /// has no spelling for it).
    pub fn set(&mut self, name: &'static str, value: f64) {
        assert!(
            spec::END_TO_END
                .iter()
                .chain(&spec::PER_LAYER)
                .any(|d| d.name == name),
            "metric `{name}` is in no spec table"
        );
        assert!(value.is_finite(), "metric `{name}` is not finite: {value}");
        self.0.insert(name, value);
    }

    /// The recorded value, if any.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.get(name).copied()
    }
}

/// What one workload run produced.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Outcome {
    /// Operations attempted (windows for batch, requests for serving).
    pub attempted: u64,
    /// Operations that failed: shed, error frames, I/O errors, late
    /// replies, digest mismatches.
    pub failed: u64,
    /// Whether every output check passed.
    pub correct: bool,
    /// Measured values.
    pub metrics: Metrics,
    /// Human-readable context printed above the result line: sample
    /// counts, generator lag, check details, frozen constants.
    pub notes: Vec<(String, String)>,
}

impl Outcome {
    /// Adds a `key: value` context line.
    pub fn note(&mut self, key: &str, value: impl std::fmt::Display) {
        self.notes.push((key.to_string(), value.to_string()));
    }

    /// `failed ÷ attempted` (1.0 when a check failed outright).
    pub fn failed_share(&self) -> f64 {
        if !self.correct && self.failed == 0 {
            return 1.0;
        }
        self.failed as f64 / self.attempted.max(1) as f64
    }

    /// Prints the table, the info line and the final result line.
    /// `traced` selects which metric table the result line carries.
    ///
    /// # Panics
    /// Panics when an end-to-end metric was never set.
    pub fn print(&self, workload: &str, seed: u64, seconds: f64, traced: bool) {
        let table: &[MetricDef] = if traced {
            &spec::PER_LAYER
        } else {
            &spec::END_TO_END
        };
        println!("# sysbench {workload} seed={seed} seconds={seconds} traced={traced}");
        for (k, v) in &self.notes {
            println!("#   {k}: {v}");
        }
        println!(
            "#   attempted={} failed={} failed_share={} correct={}",
            self.attempted,
            self.failed,
            self.failed_share(),
            self.correct
        );
        for d in table {
            println!("{:<40} {:>20} {}", d.name, self.value_of(d, traced), d.unit);
        }
        println!("{}", info_json(workload, seed, seconds));

        let mut line = String::with_capacity(256 + table.len() * 64);
        let _ = write!(
            line,
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct,
            self.attempted.max(1),
            self.failed
        );
        for (i, d) in table.iter().enumerate() {
            if i > 0 {
                line.push_str(", ");
            }
            let _ = write!(
                line,
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                d.name,
                self.value_of(d, traced),
                d.unit
            );
        }
        line.push_str("}}");
        println!("{line}");
    }

    /// A per-layer metric that does not apply to the workload reads 0;
    /// an end-to-end metric must have been measured.
    fn value_of(&self, d: &MetricDef, traced: bool) -> f64 {
        match self.metrics.get(d.name) {
            Some(v) => v,
            None if traced => 0.0,
            None => panic!("end-to-end metric `{}` was not measured", d.name),
        }
    }
}

/// Host facts, pinned values and frozen constants as one JSON object —
/// what a reader needs to judge whether two result lines are comparable.
pub fn info_json(workload: &str, seed: u64, seconds: f64) -> String {
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let mut out = String::with_capacity(512);
    let _ = write!(
        out,
        concat!(
            "{{\"info\": {{\"workload\": \"{}\", \"seed\": {}, \"seconds\": {}, ",
            "\"host\": {{\"nproc\": {}}}, ",
            "\"pinned\": {{\"TAGNN_COST_MODEL\": \"{}\", \"rayon_threads\": {}, ",
            "\"rayon_threads_effective\": {}, \"model_seed\": {}, \"setup_reps\": {}, ",
            "\"pipeline_lookahead\": {}, \"reference_tolerance\": {}}}"
        ),
        workload,
        seed,
        seconds,
        nproc,
        spec::PINNED_COST_MODEL,
        spec::PINNED_RAYON_THREADS,
        rayon::current_num_threads(),
        spec::MODEL_SEED,
        spec::SETUP_REPS,
        spec::PIPELINE_LOOKAHEAD,
        spec::REFERENCE_TOLERANCE,
    );
    if let Some(s) = spec::serve_spec(workload, false) {
        let _ = write!(
            out,
            concat!(
                ", \"frozen\": {{\"streams\": {}, \"distinct_seeds\": {}, \"connections\": {}, ",
                "\"open_rate_per_s\": {}, \"closed_rate_per_s\": {}, ",
                "\"inflight_per_connection\": {}, \"open_ticks\": {}, \"closed_ticks\": {}}}"
            ),
            s.streams,
            s.distinct_seeds,
            s.connections,
            s.open_rate_per_s,
            s.closed_rate_per_s,
            s.inflight_per_connection,
            s.open_ticks(seconds),
            s.closed_ticks(seconds),
        );
    }
    if let Some(b) = spec::batch_spec(workload, false) {
        let _ = write!(
            out,
            concat!(
                ", \"frozen\": {{\"vertices\": {}, \"edges\": {}, \"feature_dim\": {}, ",
                "\"snapshots\": {}, \"window\": {}, \"hidden\": {}}}"
            ),
            b.graph.num_vertices,
            b.graph.num_edges,
            b.graph.feature_dim,
            b.graph.num_snapshots,
            b.window,
            b.hidden,
        );
    }
    out.push_str("}}");
    out
}

/// Restarts the kernel's peak-RSS watermark at the current resident
/// set (`echo 5 > /proc/self/clear_refs`), so that `peak_rss_mb` covers
/// the timed phases and not the benchmark's own set-up repetitions and
/// reference computations. Where the kernel refuses, the watermark
/// simply keeps covering the whole process.
pub fn reset_peak_rss() {
    let _ = std::fs::write("/proc/self/clear_refs", "5");
}

/// Peak resident set of this process (`VmHWM`) in MB since the last
/// [`reset_peak_rss`]; 0 where `/proc/self/status` is unavailable.
pub fn peak_rss_mb() -> f64 {
    let Ok(status) = std::fs::read_to_string("/proc/self/status") else {
        return 0.0;
    };
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}
