//! Differential suite for the software-pipelined plan/execute overlap:
//! at every window size, lookahead depth, and skip mode, *both* overlap
//! executors — the threaded pipeline (background planner thread +
//! staged prefetch buffers) and its single-core just-in-time
//! degeneration — must produce bit-identical outputs and identical work
//! counters to the sequential plan-everything-then-run path. Wall-clock
//! is the only permitted difference. `run_pipelined` picks between the
//! two by host core count, so the tests call each path explicitly.

use tagnn::prelude::*;
use tagnn_graph::generate::GeneratorConfig;

fn graph(snapshots: usize) -> DynamicGraph {
    let mut cfg = GeneratorConfig::tiny();
    cfg.num_vertices = 96;
    cfg.num_edges = 400;
    cfg.num_snapshots = snapshots;
    cfg.generate()
}

const HIDDEN: usize = 10;

fn assert_identical(seq: &InferenceOutput, pipe: &InferenceOutput, what: &str) {
    assert_eq!(
        seq.final_features, pipe.final_features,
        "{what}: final features diverged"
    );
    assert_eq!(
        seq.gnn_outputs, pipe.gnn_outputs,
        "{what}: gnn outputs diverged"
    );
    let mut seq_stats = seq.stats;
    let mut pipe_stats = pipe.stats;
    seq_stats.wall_ns = 0;
    pipe_stats.wall_ns = 0;
    assert_eq!(seq_stats, pipe_stats, "{what}: work counters diverged");
}

#[test]
fn pipelined_is_bit_identical_across_window_lookahead_and_skip() {
    let g = graph(7);
    for k in [1usize, 3, 5] {
        for (skip_name, skip) in [
            ("disabled", SkipConfig::disabled()),
            ("paper_default", SkipConfig::paper_default()),
        ] {
            let model = DgnnModel::new(ModelKind::TGcn, g.feature_dim(), HIDDEN, 77);
            let engine = ConcurrentEngine::with_window(model, skip, k);
            let seq = engine.run(&g);
            let jit = engine.run_just_in_time(&g, None);
            assert_identical(&seq, &jit, &format!("K={k} skip={skip_name} jit"));
            for lookahead in [1usize, 2] {
                let pipe = engine.run_pipelined_threaded(&g, None, lookahead);
                assert_identical(
                    &seq,
                    &pipe,
                    &format!("K={k} lookahead={lookahead} skip={skip_name}"),
                );
            }
        }
    }
}

#[test]
fn pipelined_is_bit_identical_for_every_model_kind() {
    let g = graph(6);
    for model_kind in ModelKind::ALL {
        let model = DgnnModel::new(model_kind, g.feature_dim(), HIDDEN, 13);
        let engine = ConcurrentEngine::with_window(model, SkipConfig::paper_default(), 3);
        let seq = engine.run(&g);
        let pipe = engine.run_pipelined_threaded(&g, None, 2);
        assert_identical(&seq, &pipe, model_kind.name());
        let jit = engine.run_just_in_time(&g, None);
        assert_identical(&seq, &jit, &format!("{} jit", model_kind.name()));
    }
}

/// The pipeline runs its prebuilt plans; both overlap executors of the
/// engine, planning on the fly, must reproduce its bits and counters.
#[test]
fn overlap_pipeline_builder_routes_and_matches() {
    let skip = SkipConfig::paper_default();
    let p = TagnnPipeline::builder()
        .dataset(DatasetPreset::Gdelt)
        .model(ModelKind::TGcn)
        .snapshots(6)
        .window(3)
        .hidden(8)
        .skip(skip)
        .reuse(ReuseMode::PaperWindow)
        .build();
    let engine =
        ConcurrentEngine::with_options(p.model().clone(), skip, p.window(), ReuseMode::PaperWindow);
    let plain = p.run_concurrent();
    let threaded = engine.run_pipelined_threaded(p.graph(), None, 2);
    assert_identical(&plain, &threaded, "pipeline vs threaded");
    let jit = engine.run_just_in_time(p.graph(), None);
    assert_identical(&plain, &jit, "pipeline vs jit");
}

/// The overlap path re-derives plans on the planner thread; its roofline
/// accounting must match the sequential run's exactly (same windows,
/// same traffic model).
#[test]
fn pipelined_roofline_counters_match_sequential() {
    let g = graph(7);
    let model = DgnnModel::new(ModelKind::TGcn, g.feature_dim(), HIDDEN, 77);
    let engine = ConcurrentEngine::with_window(model, SkipConfig::paper_default(), 3);
    let seq = engine.run(&g);
    let pipe = engine.run_pipelined_threaded(&g, None, 2);
    assert_eq!(seq.stats.roofline, pipe.stats.roofline);
    let jit = engine.run_just_in_time(&g, None);
    assert_eq!(seq.stats.roofline, jit.stats.roofline);
    assert!(seq.stats.roofline.gnn.flops > 0, "roofline must be filled");
}
