//! The high-level pipeline API: dataset → model → window plans →
//! engine/simulator. The builder plans every window once (optionally
//! through a shared [`PlanCache`]) and threads the prebuilt
//! [`WindowPlan`]s into workload measurement, the concurrent engine, and
//! the simulator.

use std::sync::{Arc, Mutex};
use tagnn_graph::plan::{CacheStats, PlanCache, WindowPlan, WindowPlanner};
use tagnn_graph::{DatasetPreset, DynamicGraph, GeneratorConfig};
use tagnn_models::{
    ConcurrentEngine, DgnnModel, InferenceOutput, ModelKind, ReferenceEngine, ReuseMode, SkipConfig,
};
use tagnn_obs::{span as obs_span, Recorder};
use tagnn_sim::{AcceleratorConfig, SimReport, TagnnSimulator, Workload};
use tagnn_tensor::Scratch;

/// Builder for a [`TagnnPipeline`].
#[derive(Debug, Clone)]
pub struct PipelineBuilder {
    dataset: Option<DatasetPreset>,
    generator: Option<GeneratorConfig>,
    model: ModelKind,
    hidden: usize,
    window: usize,
    snapshots: usize,
    scale: f64,
    skip: SkipConfig,
    reuse: ReuseMode,
    seed: u64,
    plan_cache: Option<Arc<PlanCache>>,
    recorder: Option<Arc<Recorder>>,
}

impl Default for PipelineBuilder {
    fn default() -> Self {
        Self {
            dataset: None,
            generator: None,
            model: ModelKind::TGcn,
            hidden: 32,
            window: 4,
            snapshots: 8,
            scale: 0.05,
            skip: SkipConfig::paper_default(),
            reuse: ReuseMode::PaperWindow,
            seed: 0xD6,
            plan_cache: None,
            recorder: None,
        }
    }
}

impl PipelineBuilder {
    /// Uses a Table 2 dataset preset (scaled synthetic equivalent).
    pub fn dataset(mut self, preset: DatasetPreset) -> Self {
        self.dataset = Some(preset);
        self
    }

    /// Uses a fully custom generator instead of a preset.
    pub fn generator(mut self, config: GeneratorConfig) -> Self {
        self.generator = Some(config);
        self
    }

    /// Selects the DGNN model family.
    pub fn model(mut self, model: ModelKind) -> Self {
        self.model = model;
        self
    }

    /// Hidden (= GNN output) dimensionality.
    pub fn hidden(mut self, hidden: usize) -> Self {
        self.hidden = hidden;
        self
    }

    /// Sliding-window / batch size K.
    pub fn window(mut self, window: usize) -> Self {
        self.window = window;
        self
    }

    /// Number of snapshots to generate.
    pub fn snapshots(mut self, snapshots: usize) -> Self {
        self.snapshots = snapshots;
        self
    }

    /// Dataset scale in `(0, 1]` (fraction of Table 2's full size).
    pub fn scale(mut self, scale: f64) -> Self {
        self.scale = scale;
        self
    }

    /// Cell-skipping configuration.
    pub fn skip(mut self, skip: SkipConfig) -> Self {
        self.skip = skip;
        self
    }

    /// GNN reuse mode of the concurrent engine.
    pub fn reuse(mut self, reuse: ReuseMode) -> Self {
        self.reuse = reuse;
        self
    }

    /// RNG seed for weights and workload generation.
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Shares a window-plan cache: pipelines over the same graph content
    /// and window size reuse each other's plans instead of re-running the
    /// MSDL frontend.
    pub fn plan_cache(mut self, cache: Arc<PlanCache>) -> Self {
        self.plan_cache = Some(cache);
        self
    }

    /// Attaches a tagnn-obs recorder: the build (generation, planning,
    /// workload measurement) and every later engine/simulator run on the
    /// built pipeline record phase spans and publish their counters.
    /// Without one, the pipeline behaves exactly as before.
    pub fn recorder(mut self, recorder: Arc<Recorder>) -> Self {
        self.recorder = Some(recorder);
        self
    }

    /// Generates the graph, plans its windows, initialises the model, and
    /// measures the workload.
    pub fn build(self) -> TagnnPipeline {
        let (config, name) = match (&self.generator, self.dataset) {
            (Some(g), _) => (g.clone(), "custom".to_string()),
            (None, Some(preset)) => {
                let mut cfg = preset.config(self.scale.clamp(1e-6, 1.0), self.snapshots);
                // Keep laptop-scale defaults bounded like config_small does.
                cfg.num_vertices = cfg.num_vertices.min(4_000);
                cfg.num_edges = cfg.num_edges.min(24_000);
                cfg.feature_dim = cfg.feature_dim.min(128);
                // Fold the builder seed into the preset's dataset seed so
                // different seeds produce different graph instances.
                cfg.seed = cfg.seed.wrapping_add(self.seed.wrapping_mul(0x9E37_79B9));
                (cfg, preset.abbrev().to_string())
            }
            (None, None) => (GeneratorConfig::tiny(), "tiny".to_string()),
        };
        let rec = self.recorder.as_deref();
        let graph = {
            let _span = obs_span(rec, "generate");
            config.generate()
        };
        let (plans, plan_cache_delta) =
            plan_windows(&graph, self.window, self.plan_cache.as_deref(), rec);
        let model = DgnnModel::new(self.model, graph.feature_dim(), self.hidden, self.seed);
        let workload = {
            let _span = obs_span(rec, "measure");
            Workload::measure_with_plans_traced(
                &graph,
                &name,
                self.model,
                self.hidden,
                self.window,
                self.skip,
                self.seed,
                &plans,
                rec,
            )
        };
        TagnnPipeline {
            name,
            graph,
            model,
            workload,
            plans,
            plan_cache_delta,
            window: self.window,
            skip: self.skip,
            reuse: self.reuse,
            recorder: self.recorder,
            scratch: Arc::new(Mutex::new(Scratch::new())),
        }
    }
}

/// Plans every window of `graph`, through `cache` when one is shared,
/// returning the plans plus the cache hit/miss delta this planning pass
/// produced (zero when uncached).
fn plan_windows(
    graph: &DynamicGraph,
    window: usize,
    cache: Option<&PlanCache>,
    rec: Option<&Recorder>,
) -> (Vec<Arc<WindowPlan>>, CacheStats) {
    let planner = WindowPlanner::new(window);
    match cache {
        Some(cache) => {
            let before = cache.stats();
            let plans = planner.plan_graph_cached_traced(graph, cache, rec);
            (plans, cache.stats().since(before))
        }
        None => (planner.plan_graph_traced(graph, rec), CacheStats::default()),
    }
}

/// A ready-to-run pipeline: generated graph, prebuilt window plans,
/// initialised model, measured workload.
#[derive(Debug, Clone)]
pub struct TagnnPipeline {
    name: String,
    graph: DynamicGraph,
    model: DgnnModel,
    workload: Workload,
    plans: Vec<Arc<WindowPlan>>,
    plan_cache_delta: CacheStats,
    window: usize,
    skip: SkipConfig,
    reuse: ReuseMode,
    recorder: Option<Arc<Recorder>>,
    scratch: Arc<Mutex<Scratch>>,
}

impl TagnnPipeline {
    /// Starts a builder.
    pub fn builder() -> PipelineBuilder {
        PipelineBuilder::default()
    }

    /// Wraps an externally produced dynamic graph (e.g. loaded from a
    /// temporal edge list via `tagnn_graph::io`) into a ready pipeline.
    #[allow(clippy::too_many_arguments)]
    pub fn from_graph(
        graph: DynamicGraph,
        name: &str,
        model_kind: ModelKind,
        hidden: usize,
        window: usize,
        skip: SkipConfig,
        reuse: ReuseMode,
        seed: u64,
    ) -> Self {
        let model = DgnnModel::new(model_kind, graph.feature_dim(), hidden, seed);
        let (plans, plan_cache_delta) = plan_windows(&graph, window, None, None);
        let workload = Workload::measure_with_plans(
            &graph, name, model_kind, hidden, window, skip, seed, &plans,
        );
        Self {
            name: name.to_string(),
            graph,
            model,
            workload,
            plans,
            plan_cache_delta,
            window,
            skip,
            reuse,
            recorder: None,
            scratch: Arc::new(Mutex::new(Scratch::new())),
        }
    }

    /// Attaches (or replaces) the tagnn-obs recorder used by later
    /// engine/simulator runs on this pipeline.
    pub fn with_recorder(mut self, recorder: Arc<Recorder>) -> Self {
        self.recorder = Some(recorder);
        self
    }

    /// The attached recorder, if any.
    pub fn recorder(&self) -> Option<&Arc<Recorder>> {
        self.recorder.as_ref()
    }

    /// Dataset label.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The generated dynamic graph.
    pub fn graph(&self) -> &DynamicGraph {
        &self.graph
    }

    /// The initialised model.
    pub fn model(&self) -> &DgnnModel {
        &self.model
    }

    /// The measured workload (work counters of both execution patterns).
    pub fn workload(&self) -> &Workload {
        &self.workload
    }

    /// Window size K.
    pub fn window(&self) -> usize {
        self.window
    }

    /// The prebuilt window plans (one per non-overlapping window).
    pub fn plans(&self) -> &[Arc<WindowPlan>] {
        &self.plans
    }

    /// Plan-cache hits/misses this pipeline's planning pass produced
    /// (all-zero when no cache was shared).
    pub fn plan_cache_delta(&self) -> CacheStats {
        self.plan_cache_delta
    }

    /// Runs exact snapshot-by-snapshot inference. Repeated runs on the
    /// same pipeline reuse one scratch arena, so only the first run pays
    /// the workspace allocations.
    pub fn run_reference(&self) -> InferenceOutput {
        let mut scratch = self.scratch.lock().expect("scratch arena poisoned");
        ReferenceEngine::new(self.model.clone()).run_traced_scratch(
            &self.graph,
            self.recorder.as_deref(),
            &mut scratch,
        )
    }

    /// Runs topology-aware concurrent inference (TaGNN's execution model)
    /// over the prebuilt plans, reusing the pipeline's scratch arena.
    pub fn run_concurrent(&self) -> InferenceOutput {
        self.run_concurrent_with(self.skip)
    }

    /// Runs the concurrent engine with a different skipping configuration
    /// (the plans are skip-independent and reused as-is).
    pub fn run_concurrent_with(&self, skip: SkipConfig) -> InferenceOutput {
        let mut scratch = self.scratch.lock().expect("scratch arena poisoned");
        ConcurrentEngine::with_options(self.model.clone(), skip, self.window, self.reuse)
            .run_with_plans_scratch(
                &self.graph,
                &self.plans,
                self.recorder.as_deref(),
                &mut scratch,
            )
    }

    /// Simulates the measured workload on an accelerator configuration,
    /// reusing the prebuilt plans and stamping the planning cache delta
    /// into the report's instrumentation.
    pub fn simulate(&self, config: &AcceleratorConfig) -> SimReport {
        let mut report = TagnnSimulator::new(config.clone()).simulate_with_plans_traced(
            &self.graph,
            &self.workload,
            &self.plans,
            self.recorder.as_deref(),
        );
        report.plan = report.plan.with_cache(self.plan_cache_delta);
        report
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pipeline() -> TagnnPipeline {
        TagnnPipeline::builder()
            .dataset(DatasetPreset::Gdelt)
            .model(ModelKind::TGcn)
            .snapshots(6)
            .window(3)
            .hidden(8)
            .build()
    }

    #[test]
    fn builds_with_preset() {
        let p = pipeline();
        assert_eq!(p.name(), "GT");
        assert_eq!(p.graph().num_snapshots(), 6);
        assert_eq!(p.workload().window, 3);
    }

    #[test]
    fn engines_produce_outputs() {
        let p = pipeline();
        let r = p.run_reference();
        let c = p.run_concurrent();
        assert_eq!(r.final_features.len(), 6);
        assert_eq!(c.final_features.len(), 6);
    }

    #[test]
    fn simulation_works_end_to_end() {
        let p = pipeline();
        let report = p.simulate(&AcceleratorConfig::tagnn_default());
        assert!(report.cycles > 0);
        assert_eq!(report.workload, "GT");
    }

    #[test]
    fn custom_generator_is_respected() {
        let p = TagnnPipeline::builder()
            .generator(GeneratorConfig::tiny())
            .model(ModelKind::CdGcn)
            .hidden(4)
            .window(2)
            .build();
        assert_eq!(p.name(), "custom");
        assert_eq!(p.graph().num_vertices(), 64);
    }

    #[test]
    fn default_builder_builds_tiny() {
        let p = TagnnPipeline::builder().build();
        assert_eq!(p.name(), "tiny");
    }

    #[test]
    fn overlap_pipeline_matches_sequential_bits() {
        // The prebuilt-plan path must equal both overlap executors of
        // the engine (planner thread and just-in-time) on the same graph.
        let p = pipeline();
        let engine = ConcurrentEngine::with_options(p.model.clone(), p.skip, p.window, p.reuse);
        let a = p.run_concurrent();
        for b in [
            engine.run_pipelined_threaded(p.graph(), None, 2),
            engine.run_just_in_time(p.graph(), None),
        ] {
            assert_eq!(a.final_features, b.final_features);
            assert_eq!(a.gnn_outputs, b.gnn_outputs);
        }
    }

    #[test]
    fn pipeline_plans_every_window_once() {
        let p = pipeline();
        assert_eq!(p.plans().len(), 2, "6 snapshots / K=3");
        assert_eq!(p.plan_cache_delta(), CacheStats::default());
    }

    #[test]
    fn shared_plan_cache_hits_across_pipelines() {
        let cache = Arc::new(PlanCache::new());
        let mk = |model| {
            TagnnPipeline::builder()
                .dataset(DatasetPreset::Gdelt)
                .model(model)
                .snapshots(6)
                .window(3)
                .hidden(8)
                .plan_cache(Arc::clone(&cache))
                .build()
        };
        let a = mk(ModelKind::TGcn);
        assert_eq!(a.plan_cache_delta().hits, 0);
        assert_eq!(a.plan_cache_delta().misses, 2);
        // Same dataset/scale/snapshots/seed ⇒ identical graph content, so
        // a different model must find every plan already cached.
        let b = mk(ModelKind::CdGcn);
        assert_eq!(b.plan_cache_delta().misses, 0);
        assert_eq!(b.plan_cache_delta().hits, 2);
        assert!(Arc::ptr_eq(&a.plans()[0], &b.plans()[0]));

        let report = b.simulate(&AcceleratorConfig::tagnn_default());
        assert_eq!(report.plan.cache_hits, 2);
        assert_eq!(report.plan.cache_misses, 0);
    }
}
