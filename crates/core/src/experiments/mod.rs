//! Typed experiment runners regenerating every table and figure of the
//! paper's evaluation (§2.2, §5).
//!
//! Each runner consumes an [`ExperimentContext`] (dataset scale, window,
//! hidden size, which datasets/models to cover) and produces an
//! [`ExperimentResult`]: a rendered text table matching the paper's rows
//! plus a flat metric map that the integration tests assert shape
//! properties on (who wins, by roughly what factor).
//!
//! Absolute numbers differ from the paper — the substrate is a simulator
//! over synthetic workloads — but the comparisons are the reproduction
//! target. `EXPERIMENTS.md` records paper-vs-measured for every entry.

pub mod ablation;
pub mod extensions;
pub mod fidelity;
pub mod motivation;
pub mod performance;
pub mod sensitivity;
pub mod tables;

use crate::pipeline::TagnnPipeline;
use crate::report::TextTable;
use serde::Serialize;
use std::collections::BTreeMap;
use std::sync::Arc;
use tagnn_graph::plan::PlanCache;
use tagnn_graph::DatasetPreset;
use tagnn_models::ModelKind;
use tagnn_obs::{span as obs_span, Recorder};

/// Shared configuration for all experiment runners.
#[derive(Debug, Clone)]
pub struct ExperimentContext {
    /// Snapshots generated per dataset.
    pub snapshots: usize,
    /// Window (batch) size K; the paper defaults to 4.
    pub window: usize,
    /// Hidden dimensionality of the models.
    pub hidden: usize,
    /// Dataset scale in `(0, 1]`.
    pub scale: f64,
    /// RNG seed.
    pub seed: u64,
    /// Datasets to cover.
    pub datasets: Vec<DatasetPreset>,
    /// Models to cover.
    pub models: Vec<ModelKind>,
    /// Window-plan cache shared by every pipeline this context builds:
    /// the graph depends only on dataset/scale/snapshots/seed, so the
    /// models × datasets loops of the performance experiments replan each
    /// dataset once instead of once per model. Cloning the context shares
    /// the cache.
    pub plan_cache: Arc<PlanCache>,
    /// Optional tagnn-obs recorder threaded into every pipeline this
    /// context builds: each [`run`] opens an `experiment.<id>` span and
    /// the stages underneath record their phase spans and publish their
    /// counters. `None` (the default) leaves every run untraced and
    /// byte-identical to the pre-observability behaviour.
    pub recorder: Option<Arc<Recorder>>,
}

impl Default for ExperimentContext {
    fn default() -> Self {
        Self {
            snapshots: 8,
            window: 4,
            hidden: 48,
            scale: 0.05,
            seed: 0xD6,
            datasets: DatasetPreset::ALL.to_vec(),
            models: ModelKind::ALL.to_vec(),
            plan_cache: Arc::new(PlanCache::new()),
            recorder: None,
        }
    }
}

impl ExperimentContext {
    /// A reduced context for fast smoke tests: two datasets, one model,
    /// fewer snapshots.
    pub fn quick() -> Self {
        Self {
            snapshots: 6,
            window: 3,
            hidden: 12,
            scale: 0.02,
            seed: 0xD6,
            datasets: vec![DatasetPreset::Gdelt, DatasetPreset::HepPh],
            models: vec![ModelKind::TGcn],
            plan_cache: Arc::new(PlanCache::new()),
            recorder: None,
        }
    }

    /// Attaches a tagnn-obs recorder to every pipeline and experiment run
    /// built from this context.
    pub fn with_recorder(mut self, recorder: Arc<Recorder>) -> Self {
        self.recorder = Some(recorder);
        self
    }

    /// Builds (and measures) a pipeline for one dataset/model pair,
    /// sharing this context's plan cache.
    pub fn pipeline(&self, dataset: DatasetPreset, model: ModelKind) -> TagnnPipeline {
        let mut builder = TagnnPipeline::builder()
            .dataset(dataset)
            .model(model)
            .snapshots(self.snapshots)
            .window(self.window)
            .hidden(self.hidden)
            .scale(self.scale)
            .seed(self.seed)
            .plan_cache(Arc::clone(&self.plan_cache));
        if let Some(rec) = &self.recorder {
            builder = builder.recorder(Arc::clone(rec));
        }
        builder.build()
    }

    /// Builds a pipeline with a doubled snapshot stream for accuracy
    /// experiments: the paper evaluates mid-stream (hundreds of snapshots
    /// in), where the recurrent state has left its cold-start transient —
    /// cell skipping is only meaningful in that converged regime.
    pub fn accuracy_pipeline(&self, dataset: DatasetPreset, model: ModelKind) -> TagnnPipeline {
        let mut builder = TagnnPipeline::builder()
            .dataset(dataset)
            .model(model)
            .snapshots(self.snapshots * 2)
            .window(self.window)
            .hidden(self.hidden)
            .scale(self.scale)
            .seed(self.seed)
            .plan_cache(Arc::clone(&self.plan_cache))
            // Table 5 isolates *RNN* approximation fidelity: every
            // competitor consumes exact GNN outputs, so TaGNN's row runs
            // the GNN in exact reuse mode too.
            .reuse(tagnn_models::ReuseMode::Exact);
        if let Some(rec) = &self.recorder {
            builder = builder.recorder(Arc::clone(rec));
        }
        builder.build()
    }
}

/// The output of one experiment runner.
#[derive(Debug, Clone, Serialize)]
pub struct ExperimentResult {
    /// Paper artefact id, e.g. `fig9` or `table5`.
    pub id: String,
    /// Human-readable title.
    pub title: String,
    /// Rendered rows (serialised as the rendered string).
    #[serde(serialize_with = "serialize_table")]
    pub table: TextTable,
    /// Flat named metrics for assertions and EXPERIMENTS.md.
    pub metrics: BTreeMap<String, f64>,
}

fn serialize_table<S: serde::Serializer>(t: &TextTable, s: S) -> Result<S::Ok, S::Error> {
    s.serialize_str(&t.render())
}

impl ExperimentResult {
    /// Renders header + table.
    pub fn render(&self) -> String {
        format!(
            "== {} — {} ==\n{}",
            self.id,
            self.title,
            self.table.render()
        )
    }

    /// Fetches a metric, panicking with a useful message when missing.
    pub fn metric(&self, key: &str) -> f64 {
        *self
            .metrics
            .get(key)
            .unwrap_or_else(|| panic!("metric `{key}` missing from {}", self.id))
    }
}

/// All experiment ids in paper order.
pub const ALL_EXPERIMENTS: &[&str] = &[
    "table2", "fig2a", "fig2b", "fig2c", "fig2d", "fig3a", "fig3b", "table3", "table4", "fig8a",
    "fig8b", "fig9", "fig10", "fig11", "table5", "fig12", "fig13a", "fig13b", "fig14a", "fig14b",
    "fig14c", "fig14d", "extA", "extB", "extC", "extD",
];

/// Runs one experiment by id, stamping the context's cumulative
/// plan-cache tallies into the result's metrics (so the JSON output of
/// every experiment records how much frontend work the shared cache
/// saved).
///
/// # Panics
/// Panics on an unknown id.
pub fn run(id: &str, ctx: &ExperimentContext) -> ExperimentResult {
    let _span = obs_span(ctx.recorder.as_deref(), &format!("experiment.{id}"));
    let mut result = run_inner(id, ctx);
    let cache = ctx.plan_cache.stats();
    result
        .metrics
        .insert("plan_cache_hits".into(), cache.hits as f64);
    result
        .metrics
        .insert("plan_cache_misses".into(), cache.misses as f64);
    result
}

fn run_inner(id: &str, ctx: &ExperimentContext) -> ExperimentResult {
    match id {
        "table2" => tables::table2(ctx),
        "table3" => tables::table3(ctx),
        "table4" => tables::table4(ctx),
        "fig2a" => motivation::fig2a(ctx),
        "fig2b" => motivation::fig2b(ctx),
        "fig2c" => motivation::fig2c(ctx),
        "fig2d" => motivation::fig2d(ctx),
        "fig3a" => motivation::fig3a(ctx),
        "fig3b" => motivation::fig3b(ctx),
        "fig8a" => performance::fig8a(ctx),
        "fig8b" => performance::fig8b(ctx),
        "fig9" => performance::fig9(ctx),
        "fig10" => performance::fig10(ctx),
        "fig11" => performance::fig11(ctx),
        "table5" => fidelity::table5(ctx),
        "fig12" => ablation::fig12(ctx),
        "fig13a" => ablation::fig13a(ctx),
        "fig13b" => ablation::fig13b(ctx),
        "fig14a" => sensitivity::fig14a(ctx),
        "fig14b" => sensitivity::fig14b(ctx),
        "fig14c" => sensitivity::fig14c(ctx),
        "fig14d" => sensitivity::fig14d(ctx),
        "extA" => extensions::ext_a(ctx),
        "extB" => extensions::ext_b(ctx),
        "extC" => extensions::ext_c(ctx),
        "extD" => extensions::ext_d(ctx),
        other => panic!("unknown experiment id `{other}`"),
    }
}

/// Runs every experiment in paper order.
pub fn run_all(ctx: &ExperimentContext) -> Vec<ExperimentResult> {
    ALL_EXPERIMENTS.iter().map(|id| run(id, ctx)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn context_quick_is_smaller_than_default() {
        let q = ExperimentContext::quick();
        let d = ExperimentContext::default();
        assert!(q.snapshots <= d.snapshots);
        assert!(q.datasets.len() < d.datasets.len());
    }

    #[test]
    fn all_ids_are_unique() {
        let mut ids = ALL_EXPERIMENTS.to_vec();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), ALL_EXPERIMENTS.len());
    }

    #[test]
    #[should_panic(expected = "unknown experiment id")]
    fn unknown_id_panics() {
        let _ = run("fig99", &ExperimentContext::quick());
    }
}
