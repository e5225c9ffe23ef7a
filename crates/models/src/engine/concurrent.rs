//! The topology-aware concurrent engine — TaGNN's execution model in
//! software (called *TaGNN-S* in the paper's evaluation).
//!
//! Snapshots are processed in windows of K (the paper's batches). Per
//! window:
//!
//! 1. vertices are classified (unaffected / stable / affected) and the
//!    affected subgraph is extracted and packed into O-CSR;
//! 2. the GNN runs **once** on the window's first snapshot; for the other
//!    snapshots only vertices whose layer inputs changed are recomputed —
//!    the change set is propagated layer by layer, so multi-layer reuse
//!    stays exact;
//! 3. the RNN applies the similarity-aware cell-skipping strategy: per
//!    vertex, the θ score over consecutive GNN outputs selects a full,
//!    delta (condensed non-zero patch), or skipped cell update.
//!
//! With skipping disabled and a lossless delta tolerance, this engine's
//! outputs are bit-identical to [`crate::ReferenceEngine`] — a property the
//! integration suite checks — while doing strictly less memory traffic.

use crate::dgnn::DgnnModel;
use crate::engine::{plan_layer_choices, ExecutionStats, InferenceOutput};
use crate::gcn;
use crate::rnn::VertexState;
use crate::skip::{CellMode, SkipConfig};
use crate::state::{EngineState, StateError, StatefulModel, VertexStateExport};
use rayon::prelude::*;
use std::sync::Arc;
use tagnn_graph::classify::WindowClassification;
use tagnn_graph::plan::{PlanSource, WindowPlan, WindowPlanner};
use tagnn_graph::stats::neighbor_overlap;
use tagnn_graph::types::{VertexClass, VertexId};
use tagnn_graph::{DynamicGraph, Snapshot};
use tagnn_obs::{span as obs_span, Recorder};
use tagnn_tensor::affinity;
use tagnn_tensor::dispatch::{DispatchMode, Dispatcher, Kernel, LayerChoice};
use tagnn_tensor::kernels;
use tagnn_tensor::similarity::{theta_score, CondensedDelta};
use tagnn_tensor::{ops, DenseMatrix, Scratch};

/// Per-vertex recurrent context: cell state plus the last input the cached
/// pre-activation corresponds to.
#[derive(Debug, Clone)]
struct VertexCtx {
    state: VertexState,
    last_input: Vec<f32>,
    has_input: bool,
}

// Per-vertex cell outcome codes stored in the scratch arena between the
// decision pass and the update/accounting passes.
const MODE_NONE: u8 = 0;
const MODE_NORMAL: u8 = 1;
const MODE_DELTA: u8 = 2;
const MODE_SKIP: u8 = 3;

/// Cross-snapshot GNN reuse granularity.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReuseMode {
    /// Bit-exact reuse: change sets are propagated layer by layer, so a
    /// vertex is recomputed whenever *any* input to its layer could differ.
    /// Outputs equal the reference engine's exactly, but in scale-free
    /// graphs the k-hop closure of a change can cover most vertices.
    Exact,
    /// The paper's window-granularity reuse: unaffected vertices (per the
    /// §3.1 window classification) are computed once per layer per window;
    /// the affected subgraph is recomputed per snapshot. For multi-layer
    /// models this treats stable vertices' intermediate features as
    /// unchanged — the approximation underlying TaGNN's traffic savings,
    /// with accuracy impact measured in the Table 5 reproduction.
    PaperWindow,
}

/// The topology-aware concurrent engine (TaGNN-S).
#[derive(Debug, Clone)]
pub struct ConcurrentEngine {
    model: DgnnModel,
    window: usize,
    skip: SkipConfig,
    reuse: ReuseMode,
    dispatch: Dispatcher,
}

impl ConcurrentEngine {
    /// Builds the engine with the paper's defaults: a window of 4 snapshots
    /// and window-granularity reuse.
    pub fn new(model: DgnnModel, skip: SkipConfig) -> Self {
        Self::with_window(model, skip, 4)
    }

    /// Builds the engine with an explicit window size K (paper reuse mode).
    ///
    /// # Panics
    /// Panics if `window == 0`.
    pub fn with_window(model: DgnnModel, skip: SkipConfig, window: usize) -> Self {
        Self::with_options(model, skip, window, ReuseMode::PaperWindow)
    }

    /// Builds the engine with full control over window and reuse mode.
    ///
    /// # Panics
    /// Panics if `window == 0`.
    pub fn with_options(
        model: DgnnModel,
        skip: SkipConfig,
        window: usize,
        reuse: ReuseMode,
    ) -> Self {
        assert!(window > 0, "window must be positive");
        Self {
            model,
            window,
            skip,
            reuse,
            dispatch: Dispatcher::new(DispatchMode::default()),
        }
    }

    /// Returns this engine with an explicit kernel-dispatch mode
    /// ([`DispatchMode::Dense`] reproduces the pre-dispatch engine —
    /// the serving A/B baseline).
    pub fn with_dispatch_mode(self, mode: DispatchMode) -> Self {
        self.with_dispatcher(Dispatcher::new(mode))
    }

    /// Returns this engine with a fully explicit dispatch policy —
    /// mode *and* cost model (tests and benches pin coefficients this
    /// way instead of depending on probe timing).
    pub fn with_dispatcher(mut self, dispatch: Dispatcher) -> Self {
        self.dispatch = dispatch;
        self
    }

    /// The kernel-dispatch policy this engine runs.
    pub fn dispatcher(&self) -> &Dispatcher {
        &self.dispatch
    }

    /// The reuse mode.
    pub fn reuse_mode(&self) -> ReuseMode {
        self.reuse
    }

    /// The wrapped model.
    pub fn model(&self) -> &DgnnModel {
        &self.model
    }

    /// Window size K.
    pub fn window(&self) -> usize {
        self.window
    }

    /// The skipping configuration.
    pub fn skip_config(&self) -> SkipConfig {
        self.skip
    }

    /// Runs inference over every snapshot of `graph`, planning windows on
    /// the fly. Callers that already hold plans (a pipeline with a shared
    /// [`tagnn_graph::plan::PlanCache`]) should use
    /// [`Self::run_with_plans`] instead.
    pub fn run(&self, graph: &DynamicGraph) -> InferenceOutput {
        self.run_traced(graph, None)
    }

    /// [`Self::run`] with an optional recorder: plans under a `plan` span,
    /// then executes under [`Self::run_with_plans_traced`].
    pub fn run_traced(&self, graph: &DynamicGraph, rec: Option<&Recorder>) -> InferenceOutput {
        let plans = WindowPlanner::new(self.window).plan_graph_traced(graph, rec);
        self.run_with_plans_traced(graph, &plans, rec)
    }

    /// Runs inference over every snapshot of `graph` using prebuilt
    /// window plans (one per `graph.batches(self.window())` window, in
    /// order).
    ///
    /// # Panics
    /// Panics if `plans` does not line up with the graph's windows.
    pub fn run_with_plans(
        &self,
        graph: &DynamicGraph,
        plans: &[Arc<WindowPlan>],
    ) -> InferenceOutput {
        self.run_with_plans_traced(graph, plans, None)
    }

    /// [`Self::run_with_plans`] with an optional recorder. When attached,
    /// every window opens `classify_reuse` / `gnn_window` / `rnn` phase
    /// spans (the GNN span nests `gnn_layer` and `gnn_incremental`
    /// children, the RNN span covers one snapshot each), and the final
    /// [`ExecutionStats`] are published as `engine.concurrent.*`
    /// counters. With `None` the run is byte-identical to the untraced
    /// path.
    ///
    /// # Panics
    /// Panics if `plans` does not line up with the graph's windows.
    pub fn run_with_plans_traced(
        &self,
        graph: &DynamicGraph,
        plans: &[Arc<WindowPlan>],
        rec: Option<&Recorder>,
    ) -> InferenceOutput {
        let mut scratch = Scratch::new();
        self.run_with_plans_scratch(graph, plans, rec, &mut scratch)
    }

    /// [`Self::run_with_plans_traced`] with a caller-provided scratch
    /// arena so repeated runs reuse one set of workspaces. After the
    /// warm-up reservation, the steady-state per-snapshot loop grows no
    /// scratch buffer; the only remaining allocations are per-window
    /// setup (cached layer tables) and the deliverable output matrices.
    ///
    /// # Panics
    /// Panics if `plans` does not line up with the graph's windows.
    pub fn run_with_plans_scratch(
        &self,
        graph: &DynamicGraph,
        plans: &[Arc<WindowPlan>],
        rec: Option<&Recorder>,
        scratch: &mut Scratch,
    ) -> InferenceOutput {
        let started = std::time::Instant::now();
        let n = graph.num_vertices();
        let mut stats = ExecutionStats::default();
        let mut ctxs = self.fresh_ctxs(n);
        let mut final_features = Vec::with_capacity(graph.num_snapshots());
        let mut gnn_outputs: Vec<DenseMatrix> = Vec::with_capacity(graph.num_snapshots());
        self.reserve_scratch(scratch, n);

        assert_eq!(
            plans.len(),
            graph.num_snapshots().div_ceil(self.window),
            "one plan per window expected"
        );
        // Association plan, pinned per run from the first snapshot —
        // the same shared logic (and thus the same decisions) as the
        // reference engine, which is what keeps Exact mode bit-identical
        // (see `plan_layer_choices`). Kernel choices stay per-window.
        let choices: Vec<LayerChoice> = match graph.snapshots().first() {
            Some(snap0) => plan_layer_choices(&self.dispatch, &self.model, snap0),
            None => Vec::new(),
        };
        for (batch, plan) in graph.batches(self.window).zip(plans) {
            let refs: Vec<&Snapshot> = batch.iter().collect();
            self.window_pass(
                &refs,
                plan,
                self.skip,
                &choices,
                &mut ctxs,
                scratch,
                &mut stats,
                rec,
                &mut final_features,
                &mut gnn_outputs,
                None,
            );
        }

        scratch.debug_assert_steady();
        stats.wall_ns = started.elapsed().as_nanos() as u64;
        if let Some(rec) = rec {
            stats.publish(rec, "engine.concurrent");
        }
        InferenceOutput {
            final_features,
            gnn_outputs,
            stats,
        }
    }

    /// Fresh per-vertex recurrent contexts (zero state, no cached input).
    fn fresh_ctxs(&self, n: usize) -> Vec<VertexCtx> {
        let cell = self.model.cell();
        let hidden = self.model.hidden();
        (0..n)
            .map(|_| VertexCtx {
                state: cell.zero_state(),
                last_input: vec![0.0; hidden],
                has_input: false,
            })
            .collect()
    }

    /// Warm-up: reserves every workspace at its maximum size so the
    /// steady-state window loop never grows a scratch buffer, then marks
    /// the arena steady.
    fn reserve_scratch(&self, scratch: &mut Scratch, n: usize) {
        let hidden = self.model.hidden();
        let cell = self.model.cell();
        let gh = cell.kind().gates() * hidden;
        let cell_in = cell.in_dim();
        let max_dim = self
            .model
            .layers()
            .iter()
            .map(|l| l.in_dim().max(l.out_dim()))
            .max()
            .unwrap_or(0);
        scratch.degp1.reserve(n);
        scratch.agg.reserve(n * max_dim);
        scratch.xw.reserve(n * max_dim);
        scratch.layer_a.reserve(n * max_dim);
        scratch.layer_b.reserve(n * max_dim);
        scratch.mask_a.reserve(n);
        scratch.mask_b.reserve(n);
        scratch.mask_changed0.reserve(n);
        scratch.mask_topo.reserve(n);
        scratch.batch_pos.reserve(n);
        scratch.x_batch.reserve(n * cell_in);
        scratch.h_batch.reserve(n * hidden);
        scratch.x_pre.reserve(n * gh);
        scratch.h_pre.reserve(n * gh);
        scratch.cell_mode.reserve(n);
        scratch.cell_nnz.reserve(n);
        scratch.cell_sim.reserve(n);
        scratch.nz_rows.reserve(n);
        scratch.mark_steady();
    }

    /// Executes one window — the classify/GNN/RNN body shared by the
    /// offline batch loop and [`EngineSession`]'s streaming path. Appends
    /// one final-feature and one GNN-output matrix per snapshot and
    /// accumulates work counters into `stats`. Recurrent state threads
    /// through `ctxs`, so consecutive calls over consecutive windows are
    /// bit-identical to one offline run over their concatenation.
    /// `prefetched_nz` carries an already-staged dispatch measurement: a
    /// planner/prefetcher scanned the window's first-snapshot features
    /// into `scratch.nz_rows` ahead of time (the same loop
    /// [`Self::gnn_window`] would run) and reports the nonzero-row
    /// count, so the executor skips the scan but books identical
    /// dispatch counters and makes identical kernel choices.
    #[allow(clippy::too_many_arguments)]
    fn window_pass(
        &self,
        refs: &[&Snapshot],
        plan: &WindowPlan,
        skip_cfg: SkipConfig,
        choices: &[LayerChoice],
        ctxs: &mut [VertexCtx],
        scratch: &mut Scratch,
        stats: &mut ExecutionStats,
        rec: Option<&Recorder>,
        final_features: &mut Vec<DenseMatrix>,
        gnn_outputs: &mut Vec<DenseMatrix>,
        prefetched_nz: Option<usize>,
    ) {
        assert!(!refs.is_empty(), "a window needs at least one snapshot");
        assert_eq!(
            refs[0].num_vertices(),
            ctxs.len(),
            "snapshot universe must match the engine contexts"
        );
        let n = refs[0].num_vertices();
        let hidden = self.model.hidden();
        let cell = self.model.cell();
        let gh = cell.kind().gates() * hidden;
        let cell_in = cell.in_dim();
        // Sampled before any counter moves so the end-of-window roofline
        // fill sees exactly this window's deltas.
        let before = *stats;
        {
            assert_eq!(
                plan.window_len(),
                refs.len(),
                "plan window {} does not match this graph/window-size",
                plan.index()
            );
            let cls = plan.classification();
            // The MSDL path (now precomputed by the planner): the O-CSR
            // footprint is what actually travels off-chip for the
            // recomputed part of the window.
            {
                let _span = obs_span(rec, "classify_reuse");
                let ocsr = plan.ocsr();
                stats.structure_words_loaded +=
                    (2 * ocsr.num_edges() + 2 * ocsr.num_vertices()) as u64;
            }

            // GNN phase with cross-snapshot reuse.
            let zs = {
                let _span = obs_span(rec, "gnn_window");
                self.gnn_window(refs, cls, choices, stats, rec, scratch, prefetched_nz)
            };

            // RNN phase with similarity-aware cell skipping. The first
            // snapshot of every batch runs full cell updates: the paper
            // recalculates similarity scores per batch rather than carrying
            // skip decisions over, precisely to stop error accumulating
            // across prolonged skipping — the refresh bounds a vertex's
            // staleness to K-1 snapshots.
            //
            // Execution is split into a read-only decision pass and an
            // update pass so that every Normal-mode vertex can run through
            // the batched gate GEMMs. A vertex's decision depends only on
            // its own pre-step context, so the split selects exactly the
            // modes the historical single-pass loop did.
            for (i, snap) in refs.iter().enumerate() {
                let _span = obs_span(rec, "rnn");
                let z = &zs[i];
                let prev_pair: Option<(&Snapshot, &DenseMatrix)> =
                    (i > 0).then(|| (refs[i - 1], &zs[i - 1]));

                let cls_ref = cls;

                // Pass 1 (decide): score every vertex, record its mode and
                // similarity-op charge. Reads contexts immutably.
                let cell_mode = scratch.cell_mode.take_uninit(n);
                let cell_sim = scratch.cell_sim.take_uninit(n);
                {
                    let ctxs = &*ctxs;
                    cell_mode
                        .par_iter_mut()
                        .zip(cell_sim.par_iter_mut())
                        .enumerate()
                        .for_each(|(vu, (mode_slot, sim_slot))| {
                            let v = vu as VertexId;
                            *mode_slot = MODE_NONE;
                            *sim_slot = 0;
                            if !snap.is_active(v) {
                                return;
                            }
                            let ctx = &ctxs[vu];
                            let z_cur = z.row(vu);
                            // Similarity scoring (the SCU): needs a previous
                            // snapshot in which the vertex existed. The feature
                            // side compares against the input of the vertex's
                            // *last actual update* (what the cached state being
                            // reused was computed from), so drift cannot
                            // silently accumulate across consecutive skips; the
                            // topology side compares consecutive snapshots.
                            // Similarity op cost: dot + 2 norms over hidden dims
                            // plus the neighbour merge — charged exactly when
                            // the SCU runs, i.e. under the same guard that
                            // selects the mode (a vertex inactive in the
                            // previous snapshot, or without a cached input, is
                            // never scored and must not be billed).
                            let (mode, sim_ops) = match prev_pair {
                                Some((prev_snap, _))
                                    if skip_cfg.enabled
                                        && prev_snap.is_active(v)
                                        && ctx.has_input =>
                                {
                                    let overlap = neighbor_overlap(prev_snap, snap, cls_ref, v);
                                    let theta = theta_score(&ctx.last_input, z_cur, overlap);
                                    (
                                        skip_cfg.select(theta),
                                        (3 * z_cur.len() + snap.csr().degree(v)) as u64,
                                    )
                                }
                                _ => (CellMode::Normal, 0),
                            };
                            *sim_slot = sim_ops;
                            *mode_slot = match mode {
                                CellMode::Normal => MODE_NORMAL,
                                CellMode::Delta => MODE_DELTA,
                                CellMode::Skip => MODE_SKIP,
                            };
                        });
                }

                // Batch every Normal vertex: gather its GNN output row and
                // hidden state, compute both gate pre-activations with two
                // GEMMs instead of one matvec pair per vertex.
                let pos = scratch.batch_pos.take_uninit(n);
                let mut batch = 0usize;
                for vu in 0..n {
                    if cell_mode[vu] == MODE_NORMAL {
                        pos[vu] = batch as u32;
                        batch += 1;
                    } else {
                        pos[vu] = u32::MAX;
                    }
                }
                let x_batch = scratch.x_batch.take_uninit(batch * cell_in);
                let h_batch = scratch.h_batch.take_uninit(batch * hidden);
                for vu in 0..n {
                    if pos[vu] != u32::MAX {
                        let p = pos[vu] as usize;
                        x_batch[p * cell_in..][..cell_in].copy_from_slice(z.row(vu));
                        h_batch[p * hidden..][..hidden].copy_from_slice(&ctxs[vu].state.h);
                    }
                }
                let x_pre = scratch.x_pre.take_uninit(batch * gh);
                let h_pre = scratch.h_pre.take_uninit(batch * gh);
                cell.batch_preactivations(batch, x_batch, h_batch, x_pre, h_pre);

                // Pass 2 (update): Normal vertices scatter their batched
                // pre-activations and apply gates in place; Delta vertices
                // run the condensed-patch path exactly as before; Skip
                // vertices are untouched.
                let cell_nnz = scratch.cell_nnz.take_uninit(n);
                {
                    let (pos, x_pre, h_pre, cell_mode) = (&*pos, &*x_pre, &*h_pre, &*cell_mode);
                    ctxs.par_iter_mut()
                        .zip(cell_nnz.par_iter_mut())
                        .enumerate()
                        .for_each(|(vu, (ctx, nnz_slot))| {
                            *nnz_slot = 0;
                            match cell_mode[vu] {
                                MODE_NORMAL => {
                                    let p = pos[vu] as usize;
                                    let z_cur = z.row(vu);
                                    ctx.state
                                        .x_pre
                                        .copy_from_slice(&x_pre[p * gh..(p + 1) * gh]);
                                    let VertexState { h, c, x_pre } = &mut ctx.state;
                                    cell.apply_gates(x_pre, &h_pre[p * gh..(p + 1) * gh], h, c);
                                    ctx.last_input.copy_from_slice(z_cur);
                                    ctx.has_input = true;
                                }
                                MODE_DELTA => {
                                    let z_cur = z.row(vu);
                                    let dense = ops::sub(z_cur, &ctx.last_input);
                                    let delta = CondensedDelta::from_dense(
                                        &dense,
                                        skip_cfg.delta_tolerance,
                                    );
                                    *nnz_slot = delta.nnz() as u32;
                                    cell.patch_preactivation(&mut ctx.state.x_pre, &delta);
                                    // Track the reconstructed input so lossy
                                    // deltas accumulate like DeltaRNN's.
                                    delta.add_to(&mut ctx.last_input);
                                    cell.step_cached(&mut ctx.state);
                                }
                                _ => {}
                            }
                        });
                }

                for vu in 0..n {
                    stats.similarity_ops += cell_sim[vu];
                    match cell_mode[vu] {
                        MODE_NORMAL => {
                            stats.skip.normal += 1;
                            stats.rnn_macs += cell.full_step_macs();
                        }
                        MODE_DELTA => {
                            stats.skip.delta += 1;
                            // The condensed-delta patch is the third
                            // dispatch outcome: the cell's input GEMV was
                            // routed through the zero-skipping path.
                            stats.dispatch.delta_skip += 1;
                            stats.rnn_macs += cell.delta_step_macs(cell_nnz[vu] as usize);
                        }
                        MODE_SKIP => stats.skip.skipped += 1,
                        _ => {}
                    }
                }

                let mut h = DenseMatrix::zeros(n, hidden);
                for (v, ctx) in ctxs.iter().enumerate() {
                    h.set_row(v, &ctx.state.h);
                }
                final_features.push(h);
                gnn_outputs.push(z.clone());
            }

            // Reuse accounting for the unaffected region: their feature rows
            // travel once per window instead of once per snapshot, saving
            // one fetch per vertex per remaining snapshot.
            stats.unaffected_row_hoists +=
                cls.count(VertexClass::Unaffected) as u64 * (refs.len() as u64 - 1);
        }

        // Per-window roofline fill: deterministic functions of this
        // window's counter deltas and the plan structure (the traffic
        // models live on `RooflineStats`). `before` was sampled ahead of
        // every counter mutation, so `win` is exactly this window.
        let win = stats.delta_since(&before);
        let ps = plan.stats();
        let d = refs[0].features().cols() as u64;
        let h = hidden as u64;
        let roofline = &mut stats.roofline;
        roofline.plan_build.bytes +=
            4 * (2 * ps.classified_vertices + 2 * ps.subgraph_vertices + 2 * ps.subgraph_edges);
        roofline.gnn.flops += 2 * (win.gnn_aggregate_macs + win.gnn_combine_macs);
        roofline.gnn.bytes += 4
            * (win.feature_rows_loaded * d
                + win.structure_words_loaded
                + win.gnn_vertices_computed * h);
        roofline.rnn.flops += 2 * win.rnn_macs;
        roofline.rnn.bytes +=
            4 * (win.skip.normal * (cell_in as u64 + 2 * h) + win.skip.delta * 2 * h);
        roofline.delta.flops += 2 * win.similarity_ops;
        roofline.delta.bytes += 4 * win.similarity_ops;
        if let Some(rec) = rec {
            // Per-window distributions in the trace; the cumulative
            // totals travel as counters via `ExecutionStats::publish`.
            for (stage, s) in [
                (
                    "plan_build",
                    &roofline.plan_build.delta_since(&before.roofline.plan_build),
                ),
                ("gnn", &roofline.gnn.delta_since(&before.roofline.gnn)),
                ("rnn", &roofline.rnn.delta_since(&before.roofline.rnn)),
                ("delta", &roofline.delta.delta_since(&before.roofline.delta)),
            ] {
                rec.record(&format!("window.roofline.{stage}.bytes"), s.bytes);
                rec.record(&format!("window.roofline.{stage}.flops"), s.flops);
            }
        }
    }

    /// GNN forward over a window: snapshot 0 in full, later snapshots only
    /// recompute the change set (per the configured [`ReuseMode`]).
    ///
    /// Traffic convention: layer-0 feature rows travel from backing memory;
    /// a row is *loaded* on its first touch in the window or when its
    /// content changed versus the window's first snapshot, and *reused*
    /// otherwise (it sits in on-chip feature memory). Intermediate-layer
    /// rows are produced and consumed on-chip, so all their touches count
    /// as reuse — unlike the reference engine, which re-gathers every layer
    /// from memory per snapshot.
    #[allow(clippy::too_many_arguments)]
    fn gnn_window(
        &self,
        refs: &[&Snapshot],
        cls: &WindowClassification,
        choices: &[LayerChoice],
        stats: &mut ExecutionStats,
        rec: Option<&Recorder>,
        scratch: &mut Scratch,
        prefetched_nz: Option<usize>,
    ) -> Vec<DenseMatrix> {
        let first = refs[0];
        let n = first.num_vertices();
        let layers = self.model.layers();

        // Density measurement for the window's only potentially sparse
        // operand: the first snapshot's feature rows. The scan is a
        // vanishing fraction of the layer-0 GEMM it informs, and an
        // exact row list is the SpMM's correctness contract. Later
        // layers' inputs are densified by aggregation + activation.
        // A prefetcher may have already run the identical scan into
        // `scratch.nz_rows` (`prefetched_nz` is the count); the counters
        // and the downstream kernel choice are the same either way.
        let auto = self.dispatch.mode() == DispatchMode::Auto;
        let nz_buf = scratch.nz_rows.take_uninit(n);
        let mut nz0 = 0usize;
        if auto {
            match prefetched_nz {
                Some(count) => nz0 = count,
                None => {
                    for v in 0..n {
                        if first.features().row(v).iter().any(|&x| x != 0.0) {
                            nz_buf[nz0] = v as u32;
                            nz0 += 1;
                        }
                    }
                }
            }
            stats.dispatch_nz_rows += nz0 as u64;
            stats.dispatch_rows_seen += n as u64;
        }
        let nz_buf = &*nz_buf;

        // Snapshot 0: full fused forward, keeping every layer's output for
        // reuse. Transform-first layers additionally pin their `X·W` table
        // for the window, so later snapshots can patch individual rows
        // (bit-compatible with the full GEMM) instead of redoing it.
        let mut outputs0: Vec<DenseMatrix> = Vec::with_capacity(layers.len() + 1);
        let mut xw0s: Vec<Option<DenseMatrix>> = Vec::with_capacity(layers.len());
        outputs0.push(first.features().clone());
        {
            let degp1 = scratch.degp1.take_uninit(n);
            gcn::fill_degp1(first, degp1);
            for (l, layer) in layers.iter().enumerate() {
                let _span = obs_span(rec, "gnn_layer");
                let x = outputs0.last().unwrap();
                for v in 0..n as VertexId {
                    if !first.is_active(v) {
                        continue;
                    }
                    let deg = first.csr().degree(v) as u64;
                    stats.gnn_aggregate_macs += (deg + 1) * layer.in_dim() as u64;
                    if l == 0 {
                        // Cold pass: every feature row travels once.
                        stats.feature_rows_loaded += deg + 1;
                        stats.structure_words_loaded += 2 + deg;
                    } else {
                        stats.feature_rows_reused += deg + 1;
                    }
                }
                let active = first.num_active() as u64;
                stats.gnn_combine_macs += active * (layer.in_dim() * layer.out_dim()) as u64;
                stats.gnn_vertices_computed += active;

                let out_dim = layer.out_dim();
                let mut out = DenseMatrix::zeros(n, out_dim);
                // Association is pinned per run (`choices`); the kernel
                // for the GEMM factor is bit-free and re-dispatches per
                // window from the measured density.
                let assoc = choices
                    .get(l)
                    .copied()
                    .unwrap_or_else(|| layer.legacy_choice());
                if assoc.transform_first {
                    // Same operation sequence as `forward_planned_into`'s
                    // transform-first arm, but the X·W table outlives the
                    // call (window-pinned). The SpMM writes skipped rows
                    // as exact +0.0 — bit-identical to the dense GEMM
                    // over the same (truly zero) rows — so the pinned
                    // table is the same bits under either kernel.
                    let (kernel, rows): (Kernel, Option<&[u32]>) = if l == 0 && auto {
                        let gc = self.dispatch.choose_gemm(n, layer.in_dim(), out_dim, nz0);
                        (
                            gc.kernel,
                            (gc.kernel == Kernel::Spmm).then_some(&nz_buf[..nz0]),
                        )
                    } else {
                        (Kernel::Dense, None)
                    };
                    stats.dispatch.count(kernel);
                    let mut xw = DenseMatrix::zeros(n, out_dim);
                    match (kernel, rows) {
                        (Kernel::Spmm, Some(rows)) => kernels::spmm_csr_into(
                            n,
                            layer.in_dim(),
                            out_dim,
                            rows,
                            x.as_slice(),
                            layer.weight().as_slice(),
                            xw.as_mut_slice(),
                        ),
                        _ => kernels::gemm_into(
                            n,
                            layer.in_dim(),
                            out_dim,
                            x.as_slice(),
                            layer.weight().as_slice(),
                            xw.as_mut_slice(),
                        ),
                    }
                    layer.aggregate_rows_into(
                        first,
                        xw.as_slice(),
                        out_dim,
                        degp1,
                        out.as_mut_slice(),
                    );
                    layer.activation().apply(out.as_mut_slice());
                    xw0s.push(Some(xw));
                } else {
                    stats.dispatch.count(Kernel::Dense);
                    layer.forward_planned_into(
                        first,
                        x.as_slice(),
                        degp1,
                        &mut scratch.agg,
                        None,
                        &LayerChoice {
                            kernel: Kernel::Dense,
                            ..assoc
                        },
                        out.as_mut_slice(),
                    );
                    xw0s.push(None);
                }
                outputs0.push(out);
            }
        }

        let mut zs = Vec::with_capacity(refs.len());
        zs.push(outputs0.last().unwrap().clone());

        for snap in &refs[1..] {
            let _span = obs_span(rec, "gnn_incremental");
            let degp1 = scratch.degp1.take_uninit(n);
            gcn::fill_degp1(snap, degp1);
            // Layer-0 change set versus snapshot 0 (content-level, used for
            // traffic accounting in both modes).
            let changed0 = scratch.mask_changed0.take_uninit(n);
            changed0.par_iter_mut().enumerate().for_each(|(vu, c)| {
                let v = vu as VertexId;
                *c = snap.is_active(v) != first.is_active(v)
                    || (snap.is_active(v) && snap.feature(v) != first.feature(v));
            });
            let topo_changed = scratch.mask_topo.take_uninit(n);
            topo_changed.par_iter_mut().enumerate().for_each(|(vu, t)| {
                let v = vu as VertexId;
                *t = snap.neighbors(v) != first.neighbors(v);
            });

            let mut changed_in = scratch.mask_a.take_uninit(n);
            changed_in.copy_from_slice(changed0);
            let mut changed_out = scratch.mask_b.take_uninit(n);
            let mut cur = scratch.layer_a.take_uninit(n * self.model.max_layer_dim());
            let mut next = scratch.layer_b.take_uninit(n * self.model.max_layer_dim());
            let last_dim = layers.last().map_or(0, |l| l.out_dim());
            let mut z = DenseMatrix::zeros(n, last_dim);
            for (l, layer) in layers.iter().enumerate() {
                {
                    let (changed0, topo_changed, changed_in) =
                        (&*changed0, &*topo_changed, &*changed_in);
                    let reuse = self.reuse;
                    changed_out
                        .par_iter_mut()
                        .enumerate()
                        .for_each(|(vu, out)| {
                            let v = vu as VertexId;
                            *out = match reuse {
                                // A vertex's layer output changes when its own
                                // input or neighbour list changed, or any
                                // neighbour's input or neighbour list changed —
                                // the latter because the symmetric GCN
                                // normalisation reads neighbour degrees.
                                ReuseMode::Exact => {
                                    topo_changed[vu]
                                        || changed_in[vu]
                                        || snap.neighbors(v).iter().any(|&u| {
                                            changed_in[u as usize] || topo_changed[u as usize]
                                        })
                                }
                                // The paper recomputes exactly the affected
                                // subgraph (stable + affected vertices) at every
                                // layer.
                                ReuseMode::PaperWindow => {
                                    cls.class(v).in_affected_subgraph() || changed0[vu]
                                }
                            };
                        });
                }

                let (in_dim, out_dim) = (layer.in_dim(), layer.out_dim());
                let input: &[f32] = if l == 0 {
                    snap.features().as_slice()
                } else {
                    &cur[..n * in_dim]
                };
                let reused = &outputs0[l + 1];
                let last = l + 1 == layers.len();
                let out: &mut [f32] = if last {
                    z.as_mut_slice()
                } else {
                    &mut next[..n * out_dim]
                };
                let recompute: &[bool] = &*changed_out;

                if let Some(xw0) = &xw0s[l] {
                    // Transform-first: refresh the window-pinned X·W table
                    // row-wise (recomputed rows are bit-identical to the
                    // full GEMM; rows with unchanged input content need no
                    // recompute because X·W rows depend only on their own
                    // input row), then aggregate only the changed vertices.
                    let xw_cur = scratch.xw.take_uninit(n * out_dim);
                    xw_cur
                        .par_chunks_exact_mut(out_dim)
                        .enumerate()
                        .for_each(|(vu, row)| {
                            let v = vu as VertexId;
                            let content_changed = if l == 0 {
                                snap.feature(v) != first.feature(v)
                            } else {
                                changed_in[vu]
                            };
                            if content_changed {
                                let x_row = &input[vu * in_dim..][..in_dim];
                                layer.transform_row_into(x_row, row);
                            } else {
                                row.copy_from_slice(xw0.row(vu));
                            }
                        });
                    let xw_cur = &*xw_cur;
                    let degp1 = &*degp1;
                    out.par_chunks_exact_mut(out_dim)
                        .enumerate()
                        .for_each(|(vu, row)| {
                            if recompute[vu] {
                                layer.aggregate_row_into(
                                    snap,
                                    xw_cur,
                                    out_dim,
                                    degp1,
                                    vu as VertexId,
                                    row,
                                );
                                layer.activation().apply(row);
                            } else {
                                row.copy_from_slice(reused.row(vu));
                            }
                        });
                } else {
                    // Aggregate-first: stage the changed vertices'
                    // aggregates, then combine them row-wise — the same
                    // additions in the same order as the fused full pass.
                    let agg = scratch.agg.take_uninit(n * in_dim);
                    {
                        let degp1 = &*degp1;
                        agg.par_chunks_exact_mut(in_dim)
                            .enumerate()
                            .for_each(|(vu, row)| {
                                if recompute[vu] {
                                    layer.aggregate_row_into(
                                        snap,
                                        input,
                                        in_dim,
                                        degp1,
                                        vu as VertexId,
                                        row,
                                    );
                                }
                            });
                    }
                    let agg = &*agg;
                    out.par_chunks_exact_mut(out_dim)
                        .enumerate()
                        .for_each(|(vu, row)| {
                            if recompute[vu] {
                                layer.combine_row_into(&agg[vu * in_dim..][..in_dim], row);
                            } else {
                                row.copy_from_slice(reused.row(vu));
                            }
                        });
                }

                // Work and traffic accounting.
                for v in 0..n as VertexId {
                    if !snap.is_active(v) {
                        continue;
                    }
                    let deg = snap.csr().degree(v) as u64;
                    if recompute[v as usize] {
                        stats.gnn_aggregate_macs += (deg + 1) * layer.in_dim() as u64;
                        stats.gnn_combine_macs += (layer.in_dim() * layer.out_dim()) as u64;
                        stats.gnn_vertices_computed += 1;
                        if l == 0 {
                            // Only rows whose content actually changed must
                            // be re-fetched; the rest sit in feature memory
                            // from the cold pass.
                            let mut loaded = u64::from(changed0[v as usize]);
                            for &u in snap.neighbors(v) {
                                loaded += u64::from(changed0[u as usize]);
                            }
                            stats.feature_rows_loaded += loaded;
                            stats.feature_rows_reused += deg + 1 - loaded;
                            stats.structure_words_loaded +=
                                if topo_changed[v as usize] { 2 + deg } else { 0 };
                        } else {
                            stats.feature_rows_reused += deg + 1;
                        }
                    } else {
                        stats.feature_rows_reused += deg + 1;
                        stats.gnn_vertices_reused += 1;
                    }
                }

                if !last {
                    std::mem::swap(&mut cur, &mut next);
                }
                std::mem::swap(&mut changed_in, &mut changed_out);
            }
            zs.push(z);
        }
        zs
    }

    /// Software ping-pong prefetch: runs inference with a background
    /// planner thread building (and prefetching dispatch inputs for)
    /// window W+1..W+`lookahead` while this thread executes window W —
    /// the software analogue of the paper's overlap between the MSDL
    /// frontend and the execution units.
    ///
    /// Adaptive: when the host has no spare core for the planner
    /// (`available_parallelism() < 2`), a background thread can only
    /// time-slice against the executor — every planner slice evicts
    /// the executor's warm state, which measures *slower* than
    /// sequential. In that case this degrades to
    /// [`Self::run_just_in_time`], which keeps the locality benefit of
    /// pipelining (plan built immediately before use, one plan
    /// resident) without the thread. Call
    /// [`Self::run_pipelined_threaded`] directly to force the threaded
    /// executor regardless of core count (the differential tests do,
    /// so both paths stay pinned bit-identical everywhere).
    ///
    /// Both executors stay because neither is dominated. On a 2-core
    /// host under sysbench's pins (1 rayon thread, pinned cost model
    /// and allocator), 10 alternating process pairs of 12 passes each,
    /// lower-quartile windows/s: on `batch_churn` the planner thread won
    /// 9 of 10 pairs, median 7.05 against 6.03 for just-in-time; on
    /// `batch_stable` it won 8 of 10, median 6.62 against 6.26, a gap
    /// inside the threaded runs' quartile spread (6.21–7.05). An
    /// earlier 4-pair series on the same code had just-in-time winning
    /// `batch_stable` 4 of 4, so that workload is unresolved.
    ///
    /// Output is bit-identical to [`Self::run`] either way.
    ///
    /// # Panics
    /// Panics if `lookahead == 0` or the planner thread panics.
    pub fn run_pipelined(
        &self,
        graph: &DynamicGraph,
        rec: Option<&Recorder>,
        lookahead: usize,
    ) -> InferenceOutput {
        assert!(lookahead > 0, "lookahead must be at least 1");
        let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
        if cores < 2 {
            return self.run_just_in_time(graph, rec);
        }
        self.run_pipelined_threaded(graph, rec, lookahead)
    }

    /// Single-thread degeneration of the pipeline: plans each window
    /// immediately before executing it (instead of materialising every
    /// window plan up front as [`Self::run_traced`] does), so each plan
    /// is consumed while hot and at most one plan is ever resident.
    /// On large graphs this beats plan-everything-then-run even without
    /// a second core. Output is bit-identical to [`Self::run`].
    pub fn run_just_in_time(
        &self,
        graph: &DynamicGraph,
        rec: Option<&Recorder>,
    ) -> InferenceOutput {
        let started = std::time::Instant::now();
        let n = graph.num_vertices();
        let mut stats = ExecutionStats::default();
        let mut ctxs = self.fresh_ctxs(n);
        let mut final_features = Vec::with_capacity(graph.num_snapshots());
        let mut gnn_outputs: Vec<DenseMatrix> = Vec::with_capacity(graph.num_snapshots());
        let choices: Vec<LayerChoice> = match graph.snapshots().first() {
            Some(snap0) => plan_layer_choices(&self.dispatch, &self.model, snap0),
            None => Vec::new(),
        };
        let mut scratch = Scratch::new();
        self.reserve_scratch(&mut scratch, n);
        let planner = WindowPlanner::new(self.window);
        for (i, batch) in graph.batches(self.window).enumerate() {
            let refs: Vec<&Snapshot> = batch.iter().collect();
            let plan = planner.plan_window(&refs, i);
            self.window_pass(
                &refs,
                &plan,
                self.skip,
                &choices,
                &mut ctxs,
                &mut scratch,
                &mut stats,
                rec,
                &mut final_features,
                &mut gnn_outputs,
                None,
            );
            scratch.debug_assert_steady();
        }
        stats.wall_ns = started.elapsed().as_nanos() as u64;
        if let Some(rec) = rec {
            stats.publish(rec, "engine.concurrent");
        }
        InferenceOutput {
            final_features,
            gnn_outputs,
            stats,
        }
    }

    /// The threaded pipelined executor behind [`Self::run_pipelined`].
    ///
    /// Mechanics: the executor keeps its single warm [`Scratch`] arena
    /// (rotating full arenas would execute every window from cold
    /// buffers — measurably worse than sequential on large graphs);
    /// what circulates is a ring of `lookahead + 1` small nonzero-row
    /// staging buffers. The planner claims a buffer, builds the
    /// window's plan, runs the dispatch layer's nonzero-row scan into
    /// it (so the density measurement is off the critical path too),
    /// and sends `(plan, rows)` through a bounded channel of depth
    /// `lookahead` — which is the backpressure: once `lookahead`
    /// windows are staged, the planner blocks until the executor
    /// retires one. The executor memcpys the staged rows into its own
    /// arena (a vanishing cost next to the GEMMs they inform) and
    /// returns the buffer to the ring. With `TAGNN_PIN_THREADS` the
    /// planner pins itself to the core after the rayon workers' range.
    ///
    /// Output is bit-identical to [`Self::run`]: plans are
    /// deterministic pure functions of their window, the staged scan is
    /// the exact loop the executor would run, and the sequentially
    /// dependent RNN state never leaves this thread. The integration
    /// suite pins that equality across window sizes, lookahead depths,
    /// and skip modes.
    ///
    /// # Panics
    /// Panics if `lookahead == 0` or the planner thread panics.
    pub fn run_pipelined_threaded(
        &self,
        graph: &DynamicGraph,
        rec: Option<&Recorder>,
        lookahead: usize,
    ) -> InferenceOutput {
        assert!(lookahead > 0, "lookahead must be at least 1");
        let windows = graph.num_snapshots().div_ceil(self.window);
        if windows == 0 {
            return self.run_traced(graph, rec);
        }
        let started = std::time::Instant::now();
        let n = graph.num_vertices();
        let auto = self.dispatch.mode() == DispatchMode::Auto;
        let mut stats = ExecutionStats::default();
        let mut ctxs = self.fresh_ctxs(n);
        let mut final_features = Vec::with_capacity(graph.num_snapshots());
        let mut gnn_outputs: Vec<DenseMatrix> = Vec::with_capacity(graph.num_snapshots());
        let choices: Vec<LayerChoice> = match graph.snapshots().first() {
            Some(snap0) => plan_layer_choices(&self.dispatch, &self.model, snap0),
            None => Vec::new(),
        };

        // The executor's one warm arena — never leaves this thread.
        let mut scratch = Scratch::new();
        self.reserve_scratch(&mut scratch, n);

        // Free ring: lookahead + 1 staging buffers so the planner can
        // hold one while `lookahead` staged windows wait in the work
        // channel. Only needed when dispatch actually measures density.
        let (free_tx, free_rx) = std::sync::mpsc::channel::<Vec<u32>>();
        let (work_tx, work_rx) =
            std::sync::mpsc::sync_channel::<(WindowPlan, Option<Vec<u32>>)>(lookahead);
        if auto {
            for _ in 0..=lookahead {
                free_tx
                    .send(Vec::with_capacity(n))
                    .expect("free ring is open");
            }
        }

        let k = self.window;
        std::thread::scope(|scope| {
            let planner_handle = scope.spawn(move || {
                if affinity::pinning_enabled() {
                    // Rayon workers (when pinned) occupy cores
                    // 0..num_threads; the planner takes the next one so
                    // plan-build never time-slices against a GEMM.
                    let _ = affinity::pin_current_thread(rayon::current_num_threads());
                }
                let planner = WindowPlanner::new(k);
                for (i, batch) in graph.batches(k).enumerate() {
                    // Backpressure point 1 (auto dispatch only): no
                    // free staging buffer until the executor retires
                    // one.
                    let staged = if auto {
                        let Ok(buf) = free_rx.recv() else {
                            return; // executor dropped out early
                        };
                        Some(buf)
                    } else {
                        None
                    };
                    let refs: Vec<&Snapshot> = batch.iter().collect();
                    let plan = planner.plan_window(&refs, i);
                    let staged = staged.map(|mut buf| {
                        buf.clear();
                        for v in 0..n {
                            if refs[0].features().row(v).iter().any(|&x| x != 0.0) {
                                buf.push(v as u32);
                            }
                        }
                        buf
                    });
                    // Backpressure point 2: the bounded work channel
                    // caps the lookahead depth.
                    if work_tx.send((plan, staged)).is_err() {
                        return;
                    }
                }
            });

            for batch in graph.batches(k) {
                let refs: Vec<&Snapshot> = batch.iter().collect();
                let (plan, staged) = work_rx
                    .recv()
                    .expect("planner sends one staged window per batch");
                let prefetched = staged.map(|rows| {
                    let count = rows.len();
                    scratch.nz_rows.take_uninit(n)[..count].copy_from_slice(&rows);
                    let _ = free_tx.send(rows);
                    count
                });
                self.window_pass(
                    &refs,
                    &plan,
                    self.skip,
                    &choices,
                    &mut ctxs,
                    &mut scratch,
                    &mut stats,
                    rec,
                    &mut final_features,
                    &mut gnn_outputs,
                    prefetched,
                );
                scratch.debug_assert_steady();
            }
            planner_handle.join().expect("planner thread panicked");
        });

        stats.wall_ns = started.elapsed().as_nanos() as u64;
        if let Some(rec) = rec {
            stats.publish(rec, "engine.concurrent");
        }
        InferenceOutput {
            final_features,
            gnn_outputs,
            stats,
        }
    }

    /// Opens a stateful streaming session over a vertex universe of
    /// `num_vertices`. The session owns its recurrent contexts and
    /// scratch arena, so windows can be fed one at a time (as a streaming
    /// roller produces them) with outputs bit-identical to one offline
    /// [`Self::run`] over the concatenated windows.
    pub fn session(&self, num_vertices: usize) -> EngineSession {
        let mut scratch = Scratch::new();
        self.reserve_scratch(&mut scratch, num_vertices);
        EngineSession {
            ctxs: self.fresh_ctxs(num_vertices),
            engine: self.clone(),
            scratch,
            stats: ExecutionStats::default(),
            windows: 0,
            choices: None,
        }
    }
}

/// The engine-side state of one logical inference stream: per-vertex
/// recurrent contexts threading across windows, a warm scratch arena, and
/// cumulative work counters. Produced by [`ConcurrentEngine::session`];
/// feed it consecutive windows via [`Self::process_window`].
///
/// Windows of one session are sequentially dependent (the RNN state
/// carries over), so a serving layer must keep each stream's windows in
/// order on one worker; distinct sessions are independent.
#[derive(Debug)]
pub struct EngineSession {
    engine: ConcurrentEngine,
    ctxs: Vec<VertexCtx>,
    scratch: Scratch,
    stats: ExecutionStats,
    windows: u64,
    /// Association plan, pinned from the first window's first snapshot
    /// for the session's lifetime — the streaming equivalent of the
    /// offline run's snapshot-0 pin, so a session over consecutive
    /// windows stays bit-identical to one offline run over their
    /// concatenation. Kernel choices still adapt per window.
    choices: Option<Vec<LayerChoice>>,
}

/// Per-window output of an [`EngineSession`]: one final-feature and one
/// GNN-output matrix per snapshot, plus this window's work-counter delta
/// (`stats.wall_ns` is the window's wall time).
#[derive(Debug, Clone, PartialEq)]
pub struct WindowOutput {
    /// Final features `H_t`, one matrix per snapshot of the window.
    pub final_features: Vec<DenseMatrix>,
    /// GNN-module outputs `Z_t`, one matrix per snapshot of the window.
    pub gnn_outputs: Vec<DenseMatrix>,
    /// Work/traffic accounting for this window only.
    pub stats: ExecutionStats,
    /// How the window's plan was obtained (scratch, cached, or
    /// incrementally maintained) — serving-layer observability.
    pub plan_source: PlanSource,
}

impl EngineSession {
    /// The engine configuration this session runs.
    pub fn engine(&self) -> &ConcurrentEngine {
        &self.engine
    }

    /// Size of the vertex universe this session was opened over.
    pub fn num_vertices(&self) -> usize {
        self.ctxs.len()
    }

    /// Number of windows processed so far.
    pub fn windows_processed(&self) -> u64 {
        self.windows
    }

    /// Cumulative work counters across all processed windows.
    pub fn stats(&self) -> &ExecutionStats {
        &self.stats
    }

    /// Processes one window with the engine's configured skip thresholds.
    pub fn process_window(&mut self, snaps: &[&Snapshot], plan: &WindowPlan) -> WindowOutput {
        self.process_window_with(snaps, plan, self.engine.skip)
    }

    /// Processes one window under an explicit [`SkipConfig`] — the hook a
    /// serving layer uses to widen the skip band under backlog without
    /// rebuilding the session. Passing the engine's own config makes this
    /// identical to [`Self::process_window`].
    ///
    /// # Panics
    /// Panics if the window is empty, the universe does not match the
    /// session, or `plan` does not describe `snaps`.
    pub fn process_window_with(
        &mut self,
        snaps: &[&Snapshot],
        plan: &WindowPlan,
        skip: SkipConfig,
    ) -> WindowOutput {
        let started = std::time::Instant::now();
        let before = self.stats;
        let mut final_features = Vec::with_capacity(snaps.len());
        let mut gnn_outputs = Vec::with_capacity(snaps.len());
        if self.choices.is_none() {
            let snap0 = snaps.first().expect("a window needs at least one snapshot");
            self.choices = Some(plan_layer_choices(
                &self.engine.dispatch,
                &self.engine.model,
                snap0,
            ));
        }
        self.engine.window_pass(
            snaps,
            plan,
            skip,
            self.choices.as_deref().unwrap_or(&[]),
            &mut self.ctxs,
            &mut self.scratch,
            &mut self.stats,
            None,
            &mut final_features,
            &mut gnn_outputs,
            None,
        );
        self.scratch.debug_assert_steady();
        self.stats.wall_ns += started.elapsed().as_nanos() as u64;
        self.windows += 1;
        WindowOutput {
            final_features,
            gnn_outputs,
            stats: self.stats.delta_since(&before),
            plan_source: plan.stats().source,
        }
    }

    /// Resets the recurrent state to a fresh stream (cumulative stats and
    /// the warm scratch arena are kept).
    pub fn reset(&mut self) {
        self.ctxs = self.engine.fresh_ctxs(self.ctxs.len());
    }
}

impl StatefulModel for EngineSession {
    fn export_state(&self) -> EngineState {
        EngineState {
            windows: self.windows,
            vertices: self
                .ctxs
                .iter()
                .map(|ctx| VertexStateExport {
                    h: ctx.state.h.clone(),
                    c: ctx.state.c.clone(),
                    x_pre: ctx.state.x_pre.clone(),
                    last_input: ctx.last_input.clone(),
                    has_input: ctx.has_input,
                })
                .collect(),
            choices: self.choices.clone(),
        }
    }

    fn import_state(&mut self, state: EngineState) -> Result<(), StateError> {
        if state.vertices.len() != self.ctxs.len() {
            return Err(StateError::UniverseMismatch {
                expected: self.ctxs.len(),
                found: state.vertices.len(),
            });
        }
        // Validate every shape against the session's model (the fresh
        // contexts carry the canonical lengths) before touching anything,
        // so a failed import leaves the session unchanged.
        for (vu, (ctx, v)) in self.ctxs.iter().zip(&state.vertices).enumerate() {
            let checks = [
                ("h", ctx.state.h.len(), v.h.len()),
                ("c", ctx.state.c.len(), v.c.len()),
                ("x_pre", ctx.state.x_pre.len(), v.x_pre.len()),
                ("last_input", ctx.last_input.len(), v.last_input.len()),
            ];
            for (field, expected, found) in checks {
                if expected != found {
                    return Err(StateError::ShapeMismatch {
                        vertex: vu,
                        field,
                        expected,
                        found,
                    });
                }
            }
        }
        for (ctx, v) in self.ctxs.iter_mut().zip(state.vertices) {
            ctx.state.h = v.h;
            ctx.state.c = v.c;
            ctx.state.x_pre = v.x_pre;
            ctx.last_input = v.last_input;
            ctx.has_input = v.has_input;
        }
        self.windows = state.windows;
        self.choices = state.choices;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dgnn::ModelKind;
    use crate::engine::reference::ReferenceEngine;
    use tagnn_graph::generate::{DatasetPreset, GeneratorConfig};

    fn tiny_graph() -> DynamicGraph {
        GeneratorConfig::tiny().generate()
    }

    fn model(kind: ModelKind) -> DgnnModel {
        DgnnModel::new(kind, 8, 6, 123)
    }

    #[test]
    fn exact_mode_matches_reference_when_skipping_disabled() {
        let g = tiny_graph();
        for kind in ModelKind::ALL {
            let reference = ReferenceEngine::new(model(kind)).run(&g);
            let concurrent = ConcurrentEngine::with_options(
                model(kind),
                SkipConfig::disabled(),
                3,
                ReuseMode::Exact,
            )
            .run(&g);
            let diff = reference.max_final_feature_diff(&concurrent);
            assert!(
                diff < 1e-5,
                "{kind:?}: exact mode must be bit-faithful, diff {diff}"
            );
        }
    }

    #[test]
    fn exact_mode_gnn_outputs_match_reference_regardless_of_skipping() {
        let g = tiny_graph();
        let reference = ReferenceEngine::new(model(ModelKind::TGcn)).run(&g);
        let concurrent = ConcurrentEngine::with_options(
            model(ModelKind::TGcn),
            SkipConfig::paper_default(),
            4,
            ReuseMode::Exact,
        )
        .run(&g);
        for (a, b) in reference.gnn_outputs.iter().zip(&concurrent.gnn_outputs) {
            assert!(
                a.max_abs_diff(b) < 1e-5,
                "exact mode never approximates the GNN"
            );
        }
    }

    #[test]
    fn paper_window_mode_error_is_bounded() {
        let g = tiny_graph();
        let reference = ReferenceEngine::new(model(ModelKind::TGcn)).run(&g);
        let paper = ConcurrentEngine::with_options(
            model(ModelKind::TGcn),
            SkipConfig::disabled(),
            3,
            ReuseMode::PaperWindow,
        )
        .run(&g);
        let diff = reference.max_final_feature_diff(&paper);
        assert!(
            diff < 0.6,
            "window-granularity reuse error {diff} out of band"
        );
    }

    #[test]
    fn paper_window_mode_reuses_more_than_exact_mode() {
        let g = DatasetPreset::HepPh.config_small(6).generate();
        let mk = || DgnnModel::new(ModelKind::TGcn, g.feature_dim(), 8, 1);
        let exact =
            ConcurrentEngine::with_options(mk(), SkipConfig::disabled(), 3, ReuseMode::Exact)
                .run(&g);
        let paper =
            ConcurrentEngine::with_options(mk(), SkipConfig::disabled(), 3, ReuseMode::PaperWindow)
                .run(&g);
        assert!(paper.stats.gnn_vertices_computed <= exact.stats.gnn_vertices_computed);
        assert!(paper.stats.feature_rows_loaded <= exact.stats.feature_rows_loaded);
    }

    #[test]
    fn reuses_feature_rows() {
        let g = DatasetPreset::HepPh.config_small(6).generate();
        let m = DgnnModel::new(ModelKind::TGcn, g.feature_dim(), 8, 1);
        let out = ConcurrentEngine::with_window(m, SkipConfig::disabled(), 3).run(&g);
        assert!(
            out.stats.feature_rows_reused > 0,
            "window reuse must kick in"
        );
        let reference =
            ReferenceEngine::new(DgnnModel::new(ModelKind::TGcn, g.feature_dim(), 8, 1)).run(&g);
        assert!(
            out.stats.feature_rows_loaded < reference.stats.feature_rows_loaded,
            "concurrent engine must load fewer rows"
        );
    }

    #[test]
    fn skipping_reduces_rnn_work() {
        let g = DatasetPreset::HepPh.config_small(6).generate();
        let mk = || DgnnModel::new(ModelKind::TGcn, g.feature_dim(), 8, 1);
        let without = ConcurrentEngine::with_window(mk(), SkipConfig::disabled(), 3).run(&g);
        let with = ConcurrentEngine::with_window(mk(), SkipConfig::paper_default(), 3).run(&g);
        assert!(
            with.stats.skip.skipped + with.stats.skip.delta > 0,
            "some cells must be skipped"
        );
        assert!(with.stats.rnn_macs < without.stats.rnn_macs);
    }

    #[test]
    fn skipping_error_is_modest() {
        let g = tiny_graph();
        let reference = ReferenceEngine::new(model(ModelKind::TGcn)).run(&g);
        let approx =
            ConcurrentEngine::with_window(model(ModelKind::TGcn), SkipConfig::paper_default(), 3)
                .run(&g);
        let diff = reference.max_final_feature_diff(&approx);
        // Hidden features live in [-1, 1]; skipping error must stay small.
        assert!(diff < 0.6, "skipping error {diff} too large");
    }

    #[test]
    fn window_of_one_equals_reference() {
        let g = tiny_graph();
        let reference = ReferenceEngine::new(model(ModelKind::GcLstm)).run(&g);
        let concurrent =
            ConcurrentEngine::with_window(model(ModelKind::GcLstm), SkipConfig::disabled(), 1)
                .run(&g);
        assert!(reference.max_final_feature_diff(&concurrent) < 1e-6);
    }

    #[test]
    fn first_snapshot_is_always_normal() {
        let g = tiny_graph();
        let out =
            ConcurrentEngine::with_window(model(ModelKind::TGcn), SkipConfig::paper_default(), 3)
                .run(&g);
        // At t=0 no previous Z exists, so no skips can have happened there;
        // total tallies must cover every active vertex of every snapshot.
        let expected: u64 = g.snapshots().iter().map(|s| s.num_active() as u64).sum();
        assert_eq!(out.stats.skip.total(), expected);
    }

    #[test]
    fn similarity_ops_are_charged_only_for_scored_vertices() {
        // Vertex 2 is inactive in snapshot 0 and appears at snapshot 1:
        // at snapshot 1 the SCU must not score it (inactive in the
        // previous snapshot, no cached input), so no similarity ops may
        // be billed for it there. Thresholds of (10, 10) keep every
        // scored vertex on the Normal path, so the expected op count is
        // recomputable from graph structure alone.
        use tagnn_graph::Csr;
        let n = 3;
        let feats = |seed: f32| {
            DenseMatrix::from_vec(n, 2, (0..2 * n).map(|i| seed + i as f32 * 0.1).collect())
        };
        let edges = vec![(0, 1), (1, 0), (1, 2), (2, 1)];
        let snap = |active: Vec<bool>, seed: f32| {
            Snapshot::new(Csr::from_edges(n, &edges), feats(seed), active)
        };
        let g = DynamicGraph::new(vec![
            snap(vec![true, true, false], 0.0),
            snap(vec![true, true, true], 0.5),
            snap(vec![true, true, true], 1.0),
        ]);
        let m = DgnnModel::new(ModelKind::TGcn, 2, 4, 7);
        let hidden = m.hidden();
        let skip = SkipConfig::with_thresholds(10.0, 10.0);
        let out = ConcurrentEngine::with_window(m, skip, 3).run(&g);

        // Scored vertices: active now, active in the previous snapshot of
        // the same window, and updated at least once before (has_input).
        let mut expected = 0u64;
        let mut has_input = vec![false; n];
        for (i, s) in g.snapshots().iter().enumerate() {
            for v in 0..n as VertexId {
                if !s.is_active(v) {
                    continue;
                }
                if i > 0 && g.snapshot(i - 1).is_active(v) && has_input[v as usize] {
                    expected += (3 * hidden + s.csr().degree(v)) as u64;
                }
                has_input[v as usize] = true; // Normal update ran
            }
        }
        assert_eq!(
            out.stats.similarity_ops, expected,
            "similarity ops must match the SCU guard exactly"
        );
    }

    #[test]
    fn is_deterministic() {
        let g = tiny_graph();
        let e =
            ConcurrentEngine::with_window(model(ModelKind::CdGcn), SkipConfig::paper_default(), 4);
        assert_eq!(e.run(&g).final_features, e.run(&g).final_features);
    }

    #[test]
    fn prebuilt_plans_match_on_the_fly_planning() {
        let g = tiny_graph();
        let e =
            ConcurrentEngine::with_window(model(ModelKind::TGcn), SkipConfig::paper_default(), 3);
        let plans = WindowPlanner::new(3).plan_graph(&g);
        let fly = e.run(&g);
        let shared = e.run_with_plans(&g, &plans);
        assert_eq!(fly.final_features, shared.final_features);
        assert_eq!(fly.gnn_outputs, shared.gnn_outputs);
    }

    #[test]
    fn session_streaming_is_bit_identical_to_offline_run() {
        let g = tiny_graph();
        let e =
            ConcurrentEngine::with_window(model(ModelKind::TGcn), SkipConfig::paper_default(), 3);
        let offline = e.run(&g);
        let plans = WindowPlanner::new(3).plan_graph(&g);
        let mut session = e.session(g.num_vertices());
        let mut finals = Vec::new();
        let mut gnns = Vec::new();
        let mut summed = ExecutionStats::default();
        for (batch, plan) in g.batches(3).zip(&plans) {
            let refs: Vec<&Snapshot> = batch.iter().collect();
            let out = session.process_window(&refs, plan);
            assert_eq!(out.final_features.len(), batch.len());
            summed.merge(&out.stats);
            finals.extend(out.final_features);
            gnns.extend(out.gnn_outputs);
        }
        assert_eq!(finals, offline.final_features);
        assert_eq!(gnns, offline.gnn_outputs);
        let mut offline_stats = offline.stats;
        summed.wall_ns = 0;
        offline_stats.wall_ns = 0;
        assert_eq!(summed, offline_stats, "work counters must match exactly");
        assert_eq!(session.windows_processed(), plans.len() as u64);
        assert_eq!(session.stats().skip, offline.stats.skip);
    }

    #[test]
    fn pipelined_run_is_bit_identical_to_sequential() {
        let g = DatasetPreset::HepPh.config_small(6).generate();
        let m = || DgnnModel::new(ModelKind::TGcn, g.feature_dim(), 8, 1);
        for lookahead in [1, 2] {
            let e = ConcurrentEngine::with_window(m(), SkipConfig::paper_default(), 3);
            let seq = e.run(&g);
            let pipe = e.run_pipelined(&g, None, lookahead);
            assert_eq!(seq.final_features, pipe.final_features);
            assert_eq!(seq.gnn_outputs, pipe.gnn_outputs);
            let (mut a, mut b) = (seq.stats, pipe.stats);
            a.wall_ns = 0;
            b.wall_ns = 0;
            assert_eq!(a, b, "work counters must match at lookahead {lookahead}");
        }
    }

    #[test]
    fn pipelined_roofline_counters_fill() {
        let g = tiny_graph();
        let e =
            ConcurrentEngine::with_window(model(ModelKind::TGcn), SkipConfig::paper_default(), 3);
        let out = e.run_pipelined(&g, None, 1);
        assert!(out.stats.roofline.plan_build.bytes > 0);
        assert!(out.stats.roofline.gnn.flops > 0);
        assert!(out.stats.roofline.rnn.flops > 0);
        assert_eq!(out.stats.roofline.plan_build.flops, 0);
    }

    #[test]
    fn session_reset_restarts_the_stream() {
        let g = tiny_graph();
        let e = ConcurrentEngine::with_window(model(ModelKind::GcLstm), SkipConfig::disabled(), 4);
        let plans = WindowPlanner::new(4).plan_graph(&g);
        let refs: Vec<&Snapshot> = g.batches(4).next().unwrap().iter().collect();
        let mut session = e.session(g.num_vertices());
        let first = session.process_window(&refs, &plans[0]);
        let carried = session.process_window(&refs, &plans[0]);
        assert_ne!(
            first.final_features, carried.final_features,
            "recurrent state must thread across windows"
        );
        session.reset();
        let fresh = session.process_window(&refs, &plans[0]);
        assert_eq!(first.final_features, fresh.final_features);
    }

    #[test]
    fn session_accepts_per_window_skip_overrides() {
        let g = DatasetPreset::HepPh.config_small(6).generate();
        let m = || DgnnModel::new(ModelKind::TGcn, g.feature_dim(), 8, 1);
        let e = ConcurrentEngine::with_window(m(), SkipConfig::paper_default(), 3);
        let plans = WindowPlanner::new(3).plan_graph(&g);
        let run = |skip: SkipConfig| {
            let mut s = e.session(g.num_vertices());
            let mut skipped = 0;
            for (batch, plan) in g.batches(3).zip(&plans) {
                let refs: Vec<&Snapshot> = batch.iter().collect();
                skipped += s.process_window_with(&refs, plan, skip).stats.skip.skipped;
            }
            skipped
        };
        let normal = run(SkipConfig::paper_default());
        let widened = run(SkipConfig::with_thresholds(-2.0, -2.0));
        assert!(
            widened >= normal,
            "a wider skip band must not skip fewer cells ({widened} < {normal})"
        );
    }

    #[test]
    #[should_panic(expected = "universe must match")]
    fn session_rejects_mismatched_universe() {
        let g = tiny_graph();
        let e = ConcurrentEngine::with_window(model(ModelKind::TGcn), SkipConfig::disabled(), 3);
        let plans = WindowPlanner::new(3).plan_graph(&g);
        let refs: Vec<&Snapshot> = g.batches(3).next().unwrap().iter().collect();
        let mut session = e.session(g.num_vertices() + 1);
        let _ = session.process_window(&refs, &plans[0]);
    }

    #[test]
    #[should_panic(expected = "one plan per window")]
    fn mismatched_plan_count_panics() {
        let g = tiny_graph();
        let e = ConcurrentEngine::with_window(model(ModelKind::TGcn), SkipConfig::disabled(), 3);
        let plans = WindowPlanner::new(2).plan_graph(&g);
        let _ = e.run_with_plans(&g, &plans);
    }

    #[test]
    fn exported_state_resumes_bit_identically_for_every_model() {
        // A fresh session that imports a mid-stream export must produce
        // exactly the bits the original session would have — the
        // recovery correctness bar, per model kind (GRU has no cell
        // vector; the LSTMs do).
        let g = tiny_graph();
        for kind in ModelKind::ALL {
            let e = ConcurrentEngine::with_window(model(kind), SkipConfig::paper_default(), 3);
            let plans = WindowPlanner::new(3).plan_graph(&g);
            let mut original = e.session(g.num_vertices());
            let windows: Vec<Vec<&Snapshot>> = g.batches(3).map(|b| b.iter().collect()).collect();
            let _ = original.process_window(&windows[0], &plans[0]);

            let exported = original.export_state();
            let mut restored = e.session(g.num_vertices());
            restored.import_state(exported.clone()).unwrap();
            assert_eq!(restored.export_state(), exported, "{kind:?}: round trip");
            assert_eq!(restored.windows_processed(), 1);

            for (win, plan) in windows.iter().zip(&plans).skip(1) {
                let a = original.process_window(win, plan);
                let b = restored.process_window(win, plan);
                assert_eq!(
                    a.final_features, b.final_features,
                    "{kind:?}: restored session must continue bit-identically"
                );
                assert_eq!(a.gnn_outputs, b.gnn_outputs);
            }
        }
    }

    #[test]
    fn import_rejects_mismatched_shapes_without_mutating() {
        let g = tiny_graph();
        let e = ConcurrentEngine::with_window(model(ModelKind::TGcn), SkipConfig::disabled(), 3);
        let mut session = e.session(g.num_vertices());
        let baseline = session.export_state();

        // Wrong universe.
        let mut small = baseline.clone();
        small.vertices.pop();
        assert!(matches!(
            session.import_state(small),
            Err(StateError::UniverseMismatch { .. })
        ));

        // Wrong hidden dim on one vertex.
        let mut bad = baseline.clone();
        bad.vertices[0].h.push(0.0);
        assert!(matches!(
            session.import_state(bad),
            Err(StateError::ShapeMismatch {
                vertex: 0,
                field: "h",
                ..
            })
        ));
        assert_eq!(
            session.export_state(),
            baseline,
            "failed import must not mutate"
        );
    }
}
