//! Engine-side layers measured from outside: timing calls into the
//! public functions of `graph`, `models`, `tensor` and `sim` over one
//! graph. Both batch workloads run this on their own graph; the serving
//! workloads run it on one representative stream's graph.
//!
//! Nothing here is instrumented inside the crates: each call into a
//! layer is wrapped in a span from this file, and counts are read from
//! the values the calls return.

use std::sync::Arc;
use std::time::{Duration, Instant};

use tagnn_graph::delta::diff_snapshots;
use tagnn_graph::{DynamicGraph, PlanMaintainer, Snapshot, WindowPlan, WindowPlanner};
use tagnn_models::rnn::RnnKind;
use tagnn_models::{
    ConcurrentEngine, DgnnModel, ExecutionStats, InferenceOutput, ModelKind, ReferenceEngine,
    ReuseMode, SkipConfig, StatefulModel,
};
use tagnn_obs::{span, Recorder};
use tagnn_serve::{digest_matrices, empty_base, persist};
use tagnn_sim::{AcceleratorConfig, TagnnSimulator, Workload};
use tagnn_tensor::{kernels, DenseMatrix, Scratch};

use crate::report::Metrics;
use crate::spans;
use crate::spec;

/// The model side of a workload: which DGNN, how wide, which window.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EngineCfg {
    /// Model kind.
    pub model: ModelKind,
    /// Hidden width.
    pub hidden: usize,
    /// Window size K.
    pub window: usize,
}

impl EngineCfg {
    /// The model with the benchmark's pinned weight seed.
    pub fn model(&self, feature_dim: usize) -> DgnnModel {
        DgnnModel::new(self.model, feature_dim, self.hidden, spec::MODEL_SEED)
    }

    /// The concurrent engine as the serving core builds it: paper skip
    /// band, window-granularity reuse, default (auto) dispatch.
    pub fn engine(&self, feature_dim: usize) -> ConcurrentEngine {
        ConcurrentEngine::with_options(
            self.model(feature_dim),
            SkipConfig::paper_default(),
            self.window,
            ReuseMode::PaperWindow,
        )
    }
}

/// Order-sensitive fold of per-window digests into one run digest.
pub fn fold_digest(acc: u64, window_digest: u64) -> u64 {
    acc.rotate_left(5) ^ window_digest
}

/// The run digest of a whole-graph output: per-window
/// [`digest_matrices`] (the digest the server reports), folded in order.
pub fn output_digest(out: &InferenceOutput, window: usize) -> u64 {
    out.final_features
        .chunks(window)
        .fold(0, |acc, w| fold_digest(acc, digest_matrices(w)))
}

/// One window-by-window pass over a graph through an `EngineSession`.
#[derive(Debug, Clone)]
pub struct DrivenPass {
    /// Wall time of each window: `plan_window` + `process_window`.
    pub window_ns: Vec<u64>,
    /// Work counters summed over the pass.
    pub stats: ExecutionStats,
    /// Folded digest of the pass's outputs.
    pub digest: u64,
    /// Serialized size of the session's recurrent state after the pass.
    pub state_bytes: usize,
}

/// Drives `graph` window by window: plan, then execute, each under its
/// own span below a `window:<i>` root when `rec` is attached.
pub fn driven_pass(
    engine: &ConcurrentEngine,
    graph: &DynamicGraph,
    rec: Option<&Recorder>,
) -> DrivenPass {
    let k = engine.window();
    let planner = WindowPlanner::new(k);
    let mut session = engine.session(graph.num_vertices());
    let mut pass = DrivenPass {
        window_ns: Vec::new(),
        stats: ExecutionStats::default(),
        digest: 0,
        state_bytes: 0,
    };
    for (i, batch) in graph.batches(k).enumerate() {
        let refs: Vec<&Snapshot> = batch.iter().collect();
        let root = rec.map(|r| r.enter(&format!("window:{i}")));
        let started = Instant::now();
        let plan = {
            let _g = span(rec, "graph.plan_window");
            planner.plan_window(&refs, i)
        };
        let out = {
            let _g = span(rec, "models.process_window");
            session.process_window(&refs, &plan)
        };
        pass.window_ns.push(started.elapsed().as_nanos() as u64);
        if let (Some(r), Some(id)) = (rec, root) {
            r.exit(id);
        }
        pass.digest = fold_digest(pass.digest, digest_matrices(&out.final_features));
    }
    pass.stats = *session.stats();
    pass.state_bytes = persist::encode_engine_state(&session.export_state()).len();
    pass
}

fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

/// Measures every `graph.*`, `models.*`, `tensor.*`, `sim.*` and `obs.*`
/// metric over `graph` and returns the reference-check verdict
/// (`max_final_feature_diff` within [`spec::REFERENCE_TOLERANCE`] and
/// driven ≡ whole-graph digests). `budget` bounds the window-by-window
/// passes: a quarter of it warms up, the rest alternates untraced and
/// traced passes.
pub fn engine_layers(
    graph: &DynamicGraph,
    cfg: &EngineCfg,
    rec: &Recorder,
    m: &mut Metrics,
    budget: Duration,
) -> bool {
    let engine = cfg.engine(graph.feature_dim());
    let windows = graph.num_snapshots().div_ceil(cfg.window).max(1) as f64;

    // Untraced and traced window-by-window passes, alternating: same
    // loop, the difference is what tracing costs.
    let phase = Instant::now();
    let _ = driven_pass(&engine, graph, None);
    while phase.elapsed() < budget / 4 {
        let _ = driven_pass(&engine, graph, None);
    }
    let (mut untraced_ns, mut traced_ns) = (0u64, 0u64);
    let mut traced_first = false;
    let (untraced, traced) = loop {
        // Alternate which side runs first so order effects cancel.
        let first = driven_pass(&engine, graph, traced_first.then_some(rec));
        let second = driven_pass(&engine, graph, (!traced_first).then_some(rec));
        let (untraced, traced) = if traced_first {
            (second, first)
        } else {
            (first, second)
        };
        traced_first = !traced_first;
        untraced_ns += untraced.window_ns.iter().sum::<u64>();
        traced_ns += traced.window_ns.iter().sum::<u64>();
        if phase.elapsed() >= budget {
            break (untraced, traced);
        }
    };
    m.set(
        "obs.trace_overhead_share",
        (traced_ns as f64 - untraced_ns as f64) / untraced_ns.max(1) as f64,
    );
    m.set("obs.span_ns", spans::span_cost_ns());

    // graph: what planning produced, from the plans themselves.
    let plans: &[Arc<WindowPlan>] = &WindowPlanner::new(cfg.window).plan_graph(graph);
    let n_plans = plans.len().max(1) as f64;
    let mean_of =
        |f: &dyn Fn(&WindowPlan) -> f64| plans.iter().map(|p| f(p)).sum::<f64>() / n_plans;
    m.set(
        "graph.unaffected_ratio",
        mean_of(&|p| p.classification().unaffected_ratio()),
    );
    m.set(
        "graph.subgraph_vertices_per_window",
        mean_of(&|p| p.stats().subgraph_vertices as f64),
    );
    m.set(
        "graph.subgraph_edges_per_window",
        mean_of(&|p| p.stats().subgraph_edges as f64),
    );
    m.set(
        "graph.ocsr_bytes_per_window",
        mean_of(&|p| p.ocsr().storage_bytes() as f64),
    );
    maintainer_replay(graph, cfg.window, rec, m);

    // models: counters of the traced pass.
    let s = &traced.stats;
    let cells = s.skip.total();
    m.set("models.macs_per_window", s.total_macs() as f64 / windows);
    m.set("models.rnn_macs_share", ratio(s.rnn_macs, s.total_macs()));
    // Share of per-vertex GNN layer evaluations served from an earlier
    // snapshot instead of recomputed. (`ExecutionStats::reuse_ratio`
    // counts feature-row fetches, where every layer past the first is
    // reuse by definition, so it barely moves with churn.)
    m.set(
        "models.reuse_ratio",
        ratio(
            s.gnn_vertices_reused,
            s.gnn_vertices_reused + s.gnn_vertices_computed,
        ),
    );
    m.set("models.skip_ratio", s.skip.skip_ratio());
    m.set("models.delta_ratio", ratio(s.skip.delta, cells));
    m.set(
        "models.dispatch_spmm_share",
        ratio(s.dispatch.spmm, s.dispatch.dense + s.dispatch.spmm),
    );
    m.set("models.input_density", s.dispatch_density());
    // Roofline numbers are computed by the engine from tensor sizes and
    // work counters, not measured on hardware.
    let r = &s.roofline;
    m.set(
        "models.roofline_bytes_per_window",
        (r.plan_build.bytes + r.gnn.bytes + r.rnn.bytes + r.delta.bytes) as f64 / windows,
    );
    m.set(
        "models.roofline_flops_per_window",
        (r.plan_build.flops + r.gnn.flops + r.rnn.flops + r.delta.flops) as f64 / windows,
    );
    m.set("models.state_bytes_per_stream", traced.state_bytes as f64);

    // Whole-graph runs over a caller-owned arena: the second run must
    // grow no scratch buffer, and its counters feed the simulator.
    let mut scratch = Scratch::new();
    let _ = engine.run_with_plans_scratch(graph, plans, None, &mut scratch);
    scratch.mark_steady();
    let concurrent = engine.run_with_plans_scratch(graph, plans, None, &mut scratch);
    m.set(
        "tensor.scratch_growth_events",
        scratch.steady_growth() as f64,
    );

    let reference = {
        let _g = rec.span("models.reference_run");
        let started = Instant::now();
        let out = ReferenceEngine::new(cfg.model(graph.feature_dim())).run(graph);
        m.set(
            "models.reference_ms_per_window",
            started.elapsed().as_secs_f64() * 1e3 / windows,
        );
        out
    };
    let err = concurrent.max_final_feature_diff(&reference);
    m.set("models.max_abs_err_vs_reference", err as f64);
    let consistent = output_digest(&concurrent, cfg.window) == traced.digest
        && traced.digest == untraced.digest
        && err <= spec::REFERENCE_TOLERANCE;

    // sim: the accelerator model over the counters just measured.
    let model = cfg.model(graph.feature_dim());
    let gates = model.cell().kind().gates();
    let workload = Workload {
        name: "sysbench".to_string(),
        model: cfg.model,
        num_vertices: graph.num_vertices(),
        total_edges: graph.total_edges(),
        feature_dim: graph.feature_dim(),
        hidden: cfg.hidden,
        num_snapshots: graph.num_snapshots(),
        window: cfg.window,
        gnn_layers: model.layers().len(),
        weight_params: model
            .layers()
            .iter()
            .map(|l| (l.in_dim() * l.out_dim()) as u64)
            .sum::<u64>()
            + (model.cell().in_dim() + cfg.hidden + 1) as u64 * (gates * cfg.hidden) as u64,
        concurrent: concurrent.stats,
        reference: reference.stats,
    };
    let sim = {
        let _g = rec.span("sim.simulate");
        let started = Instant::now();
        let report = TagnnSimulator::new(AcceleratorConfig::tagnn_default())
            .simulate_with_plans(graph, &workload, plans);
        m.set("sim.host_ms", started.elapsed().as_secs_f64() * 1e3);
        report
    };
    m.set("sim.time_ms", sim.time_ms);
    m.set("sim.cycles", sim.cycles as f64);
    m.set("sim.dram_bytes", sim.dram.total() as f64);
    m.set("sim.energy_mj", sim.energy_mj);
    m.set("sim.dcu_utilization", sim.dispatch_utilization);
    m.set("sim.compute_stall_cycles", sim.compute_stall_cycles as f64);
    m.set("sim.memory_idle_cycles", sim.memory_idle_cycles as f64);

    tensor_kernels(graph, &model, m);

    // Self times of the spans opened above.
    let totals = spans::self_times(&rec.snapshot());
    let self_ms = |name: &str| totals.get(name).map_or(0.0, |t| t.self_mean_ns() / 1e6);
    m.set("graph.plan_ms_per_window", self_ms("graph.plan_window"));
    m.set(
        "models.execute_ms_per_window",
        self_ms("models.process_window"),
    );
    m.set(
        "graph.absorb_us_per_tick",
        self_ms("graph.maintainer_absorb") * 1e3,
    );
    m.set(
        "graph.seal_us_per_window",
        self_ms("graph.maintainer_seal") * 1e3,
    );
    consistent
}

/// Replays the graph through a `PlanMaintainer` the way a window roller
/// does — per-tick deltas absorbed as they arrive, a seal every K-th
/// tick — and counts the windows it could not vouch for.
fn maintainer_replay(graph: &DynamicGraph, window: usize, rec: &Recorder, m: &mut Metrics) {
    let mut maintainer = PlanMaintainer::new();
    let mut prev = empty_base(graph.num_vertices(), graph.feature_dim());
    let mut sealed: Vec<Snapshot> = Vec::with_capacity(window);
    let last = graph.num_snapshots().saturating_sub(1);
    for (t, snap) in graph.snapshots().iter().enumerate() {
        let updates = diff_snapshots(&prev, snap);
        sealed.push(snap.clone());
        {
            let _g = rec.span("graph.maintainer_absorb");
            maintainer.absorb(&sealed, &updates);
        }
        if sealed.len() == window || t == last {
            let refs: Vec<&Snapshot> = sealed.iter().collect();
            let _g = rec.span("graph.maintainer_seal");
            std::hint::black_box(maintainer.seal(&refs, 0));
            drop(_g);
            sealed.clear();
        }
        prev = snap.clone();
    }
    m.set(
        "graph.incremental_fallbacks",
        maintainer.stats().fallbacks as f64,
    );
}

/// Repeats `f` for at least `budget` (and at least twice after a
/// warm-up call) and returns the mean nanoseconds per call.
fn time_ns(budget: Duration, mut f: impl FnMut()) -> f64 {
    f();
    let started = Instant::now();
    let mut calls = 0u32;
    while calls < 2 || started.elapsed() < budget {
        f();
        calls += 1;
    }
    started.elapsed().as_nanos() as f64 / calls as f64
}

/// Times the kernels the engines funnel through, at this workload's
/// shapes: the layer-0 GEMM over the first snapshot's real features,
/// the row-sparse SpMM at their measured row density, and the RNN gate
/// arithmetic per vertex.
fn tensor_kernels(graph: &DynamicGraph, model: &DgnnModel, m: &mut Metrics) {
    const BUDGET: Duration = Duration::from_millis(60);
    let n = graph.num_vertices();
    let features: &DenseMatrix = graph.snapshot(0).features();
    let layer0 = &model.layers()[0];
    let (k, h) = (layer0.in_dim(), layer0.out_dim());
    let a = features.as_slice();
    let b = layer0.weight().as_slice();
    let mut out = vec![0.0f32; n * h];
    let flops = 2.0 * (n * k * h) as f64;

    let gemm_ns = time_ns(BUDGET, || {
        kernels::gemm_into(n, k, h, a, b, &mut out);
        std::hint::black_box(&mut out);
    });
    m.set("tensor.gemm_gflops", flops / gemm_ns);

    let rows: Vec<u32> = (0..n)
        .filter(|&v| features.row(v).iter().any(|&x| x != 0.0))
        .map(|v| v as u32)
        .collect();
    let spmm_ns = time_ns(BUDGET, || {
        kernels::spmm_csr_into(n, k, h, &rows, a, b, &mut out);
        std::hint::black_box(&mut out);
    });
    // Effective: dense-equivalent flops per second, so skipped rows show
    // up as speed, at the workload's own row density.
    m.set("tensor.spmm_gflops_effective", flops / spmm_ns);

    let cell = model.cell();
    let hidden = cell.hidden();
    let gates = cell.kind().gates();
    let pre: Vec<f32> = (0..n * gates * hidden)
        .map(|i| ((i * 2_654_435_761) % 2_001) as f32 / 1_000.0 - 1.0)
        .collect();
    let mut hs = vec![0.1f32; n * hidden];
    let mut cs = vec![0.1f32; n * hidden];
    let bias = cell.bias();
    let gates_ns = time_ns(BUDGET, || {
        for v in 0..n {
            let x = &pre[v * gates * hidden..(v + 1) * gates * hidden];
            let hv = &mut hs[v * hidden..(v + 1) * hidden];
            match cell.kind() {
                RnnKind::Gru => kernels::gru_gates(hidden, x, x, bias, hv),
                RnnKind::Lstm => {
                    let cv = &mut cs[v * hidden..(v + 1) * hidden];
                    kernels::lstm_gates(hidden, x, x, bias, hv, cv);
                }
            }
        }
        std::hint::black_box(&mut hs);
    });
    m.set("tensor.gates_ns_per_vertex", gates_ns / n as f64);
}
