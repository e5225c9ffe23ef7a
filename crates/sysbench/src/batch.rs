//! The offline workloads: one generated graph through the batch front
//! door `ConcurrentEngine::run_pipelined`, then window by window through
//! an `EngineSession` for the per-window latency.

use std::time::{Duration, Instant};

use tagnn_graph::DynamicGraph;
use tagnn_models::{ConcurrentEngine, ReferenceEngine};
use tagnn_obs::Recorder;

use crate::layers::{self, EngineCfg};
use crate::report::{self, Outcome};
use crate::spec::{self, BatchSpec};
use crate::stats;

fn engine_cfg(spec: &BatchSpec) -> EngineCfg {
    EngineCfg {
        model: spec.model,
        hidden: spec.hidden,
        window: spec.window,
    }
}

/// Graph generation plus model/engine construction: everything before
/// the first timed operation.
fn set_up(spec: &BatchSpec, seed: u64) -> (DynamicGraph, ConcurrentEngine) {
    let mut cfg = spec.graph.clone();
    cfg.seed = spec::mix_seed(cfg.seed, seed, 0);
    let graph = cfg.generate();
    let engine = engine_cfg(spec).engine(graph.feature_dim());
    (graph, engine)
}

/// Sets up [`spec::SETUP_REPS`] times, keeps the last instance, and
/// returns the median set-up time in seconds.
fn timed_set_up(spec: &BatchSpec, seed: u64) -> (DynamicGraph, ConcurrentEngine, f64) {
    let mut times = Vec::with_capacity(spec::SETUP_REPS);
    let mut last = None;
    for _ in 0..spec::SETUP_REPS {
        drop(last.take());
        let started = Instant::now();
        let built = set_up(spec, seed);
        times.push(started.elapsed().as_secs_f64());
        last = Some(built);
    }
    let (graph, engine) = last.expect("SETUP_REPS is positive");
    (graph, engine, stats::median(&mut times))
}

/// The untraced run: end-to-end metrics.
pub fn run(spec: &BatchSpec, seed: u64, seconds: f64) -> Outcome {
    let mut out = Outcome {
        correct: true,
        ..Outcome::default()
    };
    let (graph, engine, setup_s) = timed_set_up(spec, seed);
    let windows = graph.num_snapshots().div_ceil(spec.window) as u64;

    // Warm-up pass, and the output gate: pipelined ≡ sequential digest,
    // and the result stays within tolerance of the reference engine.
    let warm = engine.run_pipelined(&graph, None, spec::PIPELINE_LOOKAHEAD);
    let expect = layers::output_digest(&warm, spec.window);
    let sequential = engine.run(&graph);
    if layers::output_digest(&sequential, spec.window) != expect {
        out.correct = false;
        out.note("check", "run_pipelined digest differs from sequential run");
    }
    drop(warm);
    let reference = ReferenceEngine::new(engine.model().clone()).run(&graph);
    let err = sequential.max_final_feature_diff(&reference);
    out.note(
        "max_final_feature_diff vs ReferenceEngine",
        format!("{err} (tolerance {})", spec::REFERENCE_TOLERANCE),
    );
    if err > spec::REFERENCE_TOLERANCE {
        out.correct = false;
    }
    drop((sequential, reference));

    // Timed pipelined passes: throughput.
    report::reset_peak_rss();
    let budget = Duration::from_secs_f64(seconds * spec.pipelined_share);
    let phase = Instant::now();
    let mut pass_s = Vec::new();
    while pass_s.len() < 3 || phase.elapsed() < budget {
        let started = Instant::now();
        let pass = engine.run_pipelined(&graph, None, spec::PIPELINE_LOOKAHEAD);
        pass_s.push(started.elapsed().as_secs_f64());
        out.attempted += windows;
        if layers::output_digest(&pass, spec.window) != expect {
            out.failed += windows;
        }
    }
    out.note("pipelined passes", pass_s.len());

    // Timed window-by-window passes: every pass yields one latency
    // sample per window of the graph.
    let budget = Duration::from_secs_f64(seconds * (1.0 - spec.pipelined_share));
    let _ = layers::driven_pass(&engine, &graph, None);
    let phase = Instant::now();
    let mut per_window: Vec<Vec<f64>> = vec![Vec::new(); windows as usize];
    let mut driven_passes = 0;
    while driven_passes < 3 || phase.elapsed() < budget {
        let pass = layers::driven_pass(&engine, &graph, None);
        out.attempted += windows;
        if pass.digest != expect {
            out.failed += windows;
        }
        for (samples, ns) in per_window.iter_mut().zip(pass.window_ns) {
            samples.push(ns as f64);
        }
        driven_passes += 1;
    }
    out.note("window-by-window passes", driven_passes);
    out.note("window latency samples", driven_passes * per_window.len());
    // Each window's latency is the lower quartile of its repetitions;
    // the percentiles are over the graph's windows.
    let mut window_ns: Vec<u64> = per_window
        .iter_mut()
        .map(|samples| stats::lower_quartile(samples) as u64)
        .collect();
    window_ns.sort_unstable();

    if out.failed > 0 {
        out.correct = false;
    }
    let m = &mut out.metrics;
    m.set("setup_s", setup_s);
    m.set(
        "windows_per_s",
        windows as f64 / stats::lower_quartile(&mut pass_s),
    );
    m.set(
        "window_latency_p50_ms",
        stats::quantile(&window_ns, 0.50) as f64 / 1e6,
    );
    m.set(
        "window_latency_p99_ms",
        stats::quantile(&window_ns, 0.99) as f64 / 1e6,
    );
    m.set("peak_rss_mb", report::peak_rss_mb());
    out
}

/// The traced run: per-layer metrics, spans kept in `rec`.
pub fn run_traced(spec: &BatchSpec, seed: u64, seconds: f64, rec: &Recorder) -> Outcome {
    let mut out = Outcome {
        correct: true,
        ..Outcome::default()
    };
    let (graph, _engine) = set_up(spec, seed);
    let windows = graph.num_snapshots().div_ceil(spec.window) as u64;
    out.attempted = windows;
    let consistent = layers::engine_layers(
        &graph,
        &engine_cfg(spec),
        rec,
        &mut out.metrics,
        Duration::from_secs_f64(seconds * 0.5),
    );
    if !consistent {
        out.correct = false;
        out.failed = windows;
    }
    out.metrics.set("client.window_samples", windows as f64);
    out.metrics.set("client.failed_share", out.failed_share());
    out
}
