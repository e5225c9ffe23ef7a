//! What the benchmark measures and on what: metric tables, workload
//! sizes, and every pinned value.
//!
//! Sizes and rates are calibrated once for a 2-core shared host and
//! frozen here; nothing adapts at run time. The amount of work follows
//! from `--seconds` alone, so for a given `--seconds` every count
//! repeats exactly. `BENCHMARK.json` lists the same metric names; the
//! self-test under `tests/` fails when the two disagree.

use tagnn_graph::generate::{BurstConfig, ChurnConfig, DatasetPreset, GeneratorConfig};
use tagnn_models::ModelKind;

/// `TAGNN_COST_MODEL` value the runner pins before any kernel dispatch
/// decision is made — the same coefficients `crash-bench` pins — so the
/// dense/SpMM choice never depends on a start-up timing probe.
pub const PINNED_COST_MODEL: &str = "0.25,0.25,16.0,1.0";

/// Rayon pool width the runner asks for.
pub const PINNED_RAYON_THREADS: usize = 1;

/// Seed used when `--seed` is absent.
pub const DEFAULT_SEED: u64 = 20_250_925;

/// Held-out seed: never used while calibrating the constants below;
/// `sysbench aa` runs it next to the default seed.
pub const HELD_OUT_SEED: u64 = 7_919;

/// `--seconds` used when absent (matches `run_seconds` in
/// `BENCHMARK.json`).
pub const DEFAULT_SECONDS: u64 = 20;

/// Set-ups per run; `setup_s` is their median.
pub const SETUP_REPS: usize = 3;

/// A reply later than this counts as failed.
pub const REPLY_DEADLINE_NS: u64 = 5_000_000_000;

/// Lookahead of `ConcurrentEngine::run_pipelined` in the batch workloads.
pub const PIPELINE_LOOKAHEAD: usize = 2;

/// Allowed `max_final_feature_diff` of the concurrent engine against
/// `ReferenceEngine`. Window-granularity reuse plus the paper skip band
/// approximate; outputs are tanh-bounded in [-1, 1], and the measured
/// differences on the four workloads stay below 1.0 — a value above
/// this means the engine is computing something else.
pub const REFERENCE_TOLERANCE: f32 = 1.5;

/// Model-weight seed shared by every workload (`ServeConfig::default`).
pub const MODEL_SEED: u64 = 7;

/// One metric: name and unit exactly as printed, which direction is
/// better, and — for end-to-end metrics — the share of the parent's
/// median by which it may worsen before a change counts as a regression.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MetricDef {
    /// Metric name.
    pub name: &'static str,
    /// Unit string.
    pub unit: &'static str,
    /// Whether a smaller value is the better one.
    pub lower_is_better: bool,
    /// Regression bound (0 for per-layer metrics, which have none).
    pub bound: f64,
}

const fn e2e(name: &'static str, unit: &'static str, lower: bool, bound: f64) -> MetricDef {
    MetricDef {
        name,
        unit,
        lower_is_better: lower,
        bound,
    }
}

const fn lo(name: &'static str, unit: &'static str) -> MetricDef {
    e2e(name, unit, true, 0.0)
}

const fn hi(name: &'static str, unit: &'static str) -> MetricDef {
    e2e(name, unit, false, 0.0)
}

/// End-to-end metrics: what a user of the system sees. Every workload
/// reports every one of them from the untraced run.
///
/// The bounds are about three times the widest spread (interquartile
/// range ÷ median over ten seeds, 2-core shared host) any workload
/// showed when they were fixed: 0.077 for `setup_s`, 0.067 for
/// `windows_per_s`, 0.041 for `window_latency_p50_ms`, 0.027 for
/// `peak_rss_mb`. `window_latency_p99_ms` spread 0.155 on
/// `serve_windows` (0.114 on `serve_fanin_durable`, 0.094 and 0.024 on
/// the batch workloads), so it carries the largest bound a benchmark
/// may declare.
pub const END_TO_END: [MetricDef; 5] = [
    e2e("setup_s", "s", true, 0.25),
    e2e("windows_per_s", "1/s", false, 0.20),
    e2e("window_latency_p50_ms", "ms", true, 0.15),
    e2e("window_latency_p99_ms", "ms", true, 0.25),
    e2e("peak_rss_mb", "MB", true, 0.10),
];

/// Per-layer metrics from the traced run; the prefix is the crate the
/// number belongs to (`client` is the load generator itself). A metric
/// that does not apply to a workload reads 0 there.
pub const PER_LAYER: [MetricDef; 72] = [
    lo("graph.plan_ms_per_window", "ms"),
    lo("graph.absorb_us_per_tick", "us"),
    lo("graph.seal_us_per_window", "us"),
    lo("graph.incremental_fallbacks", "count"),
    hi("graph.unaffected_ratio", "ratio"),
    lo("graph.subgraph_vertices_per_window", "count"),
    lo("graph.subgraph_edges_per_window", "count"),
    lo("graph.ocsr_bytes_per_window", "B"),
    hi("graph.plan_cache_hit_ratio", "ratio"),
    hi("tensor.gemm_gflops", "GFLOP/s"),
    hi("tensor.spmm_gflops_effective", "GFLOP/s"),
    lo("tensor.gates_ns_per_vertex", "ns"),
    lo("tensor.scratch_growth_events", "count"),
    lo("models.execute_ms_per_window", "ms"),
    lo("models.reference_ms_per_window", "ms"),
    lo("models.macs_per_window", "count"),
    lo("models.rnn_macs_share", "ratio"),
    hi("models.reuse_ratio", "ratio"),
    hi("models.skip_ratio", "ratio"),
    hi("models.delta_ratio", "ratio"),
    hi("models.dispatch_spmm_share", "ratio"),
    lo("models.input_density", "ratio"),
    lo("models.roofline_bytes_per_window", "B"),
    lo("models.roofline_flops_per_window", "count"),
    lo("models.max_abs_err_vs_reference", "abs"),
    lo("models.state_bytes_per_stream", "B"),
    lo("sim.time_ms", "ms"),
    lo("sim.cycles", "count"),
    lo("sim.dram_bytes", "B"),
    lo("sim.energy_mj", "mJ"),
    hi("sim.dcu_utilization", "ratio"),
    lo("sim.compute_stall_cycles", "count"),
    lo("sim.memory_idle_cycles", "count"),
    lo("sim.host_ms", "ms"),
    lo("serve.ingest_latency_p50_ms", "ms"),
    lo("serve.wire.encode_req_ns", "ns"),
    lo("serve.wire.decode_req_ns", "ns"),
    lo("serve.wire.encode_reply_ns", "ns"),
    lo("serve.wire.decode_reply_ns", "ns"),
    lo("serve.wire.req_bytes_mean", "B"),
    lo("serve.wire.reply_bytes_mean", "B"),
    lo("serve.roller.apply_ns_per_event", "ns"),
    lo("serve.roller.seal_us_per_window", "us"),
    lo("serve.core.window_latency_p50_ms", "ms"),
    lo("serve.core.ingest_latency_p50_ms", "ms"),
    lo("serve.tcp_share", "ratio"),
    lo("serve.queue_depth_mean", "count"),
    lo("serve.queue_depth_max", "count"),
    lo("serve.shed", "count"),
    lo("serve.max_degrade_level", "count"),
    lo("serve.shard.route_imbalance", "ratio"),
    lo("serve.shard.cross_edges_per_window", "count"),
    hi("serve.plan_source.incremental_share", "ratio"),
    lo("durable.recovery_s", "s"),
    lo("durable.wal_append_ns", "ns"),
    lo("durable.wal_fsync_us", "us"),
    lo("durable.wal_bytes_per_request", "B"),
    lo("durable.checkpoint_write_ms", "ms"),
    lo("durable.checkpoint_bytes", "B"),
    lo("durable.wal_appends", "count"),
    lo("durable.wal_fsyncs", "count"),
    lo("durable.checkpoints_written", "count"),
    lo("durable.replayed_events", "count"),
    lo("durable.replay_ms", "ms"),
    lo("obs.trace_overhead_share", "ratio"),
    lo("obs.span_ns", "ns"),
    lo("client.send_lag_p99_ms", "ms"),
    lo("client.send_lag_max_ms", "ms"),
    hi("client.window_samples", "count"),
    hi("client.ingest_samples", "count"),
    lo("client.bootstrap_ms_per_stream", "ms"),
    lo("client.failed_share", "ratio"),
];

/// Per-layer metrics that are pure functions of the inputs: counts,
/// ratios of counts, byte sizes and simulated quantities. `sysbench aa`
/// requires two runs of the same seed to agree on them bit for bit.
pub const EXACT: [&str; 29] = [
    "graph.incremental_fallbacks",
    "graph.unaffected_ratio",
    "graph.subgraph_vertices_per_window",
    "graph.subgraph_edges_per_window",
    "graph.ocsr_bytes_per_window",
    "tensor.scratch_growth_events",
    "models.macs_per_window",
    "models.rnn_macs_share",
    "models.reuse_ratio",
    "models.skip_ratio",
    "models.delta_ratio",
    "models.dispatch_spmm_share",
    "models.input_density",
    "models.roofline_bytes_per_window",
    "models.roofline_flops_per_window",
    "models.max_abs_err_vs_reference",
    "models.state_bytes_per_stream",
    "sim.time_ms",
    "sim.cycles",
    "sim.dram_bytes",
    "sim.energy_mj",
    "sim.dcu_utilization",
    "sim.compute_stall_cycles",
    "sim.memory_idle_cycles",
    "serve.wire.req_bytes_mean",
    "serve.wire.reply_bytes_mean",
    "durable.wal_bytes_per_request",
    "client.window_samples",
    "client.ingest_samples",
];

/// The four workloads, in the order `sysbench run` executes them.
pub const WORKLOADS: [&str; 4] = [
    "batch_stable",
    "batch_churn",
    "serve_windows",
    "serve_fanin_durable",
];

/// An offline workload: one graph through `ConcurrentEngine`.
#[derive(Debug, Clone, PartialEq)]
pub struct BatchSpec {
    /// Graph shape; `seed` is mixed with `--seed` before generating.
    pub graph: GeneratorConfig,
    /// Model to run.
    pub model: ModelKind,
    /// Hidden width.
    pub hidden: usize,
    /// Window size K.
    pub window: usize,
    /// Share of `--seconds` spent on pipelined passes; the rest goes to
    /// the window-by-window passes that yield the latency samples.
    pub pipelined_share: f64,
}

/// A serving workload: many streams through the TCP frontend.
#[derive(Debug, Clone, PartialEq)]
pub struct ServeSpec {
    /// Per-stream graph shape (`num_snapshots` is filled in from the
    /// run length; `seed` is mixed with `--seed` and the stream's seed
    /// slot).
    pub graph: GeneratorConfig,
    /// Long-lived streams multiplexed over the connections.
    pub streams: usize,
    /// Distinct generator seeds among the streams (streams sharing a
    /// seed must serve identical digests).
    pub distinct_seeds: usize,
    /// Hidden width of the served T-GCN.
    pub hidden: usize,
    /// Window size K.
    pub window: usize,
    /// Client connections, one generator thread each.
    pub connections: usize,
    /// Phase A: fixed open-loop request rate over all connections,
    /// about half of the measured saturation rate. Frozen.
    pub open_rate_per_s: f64,
    /// Share of `--seconds` phase A lasts.
    pub open_share: f64,
    /// Phase B: requests per second the closed loop completed when this
    /// was calibrated; sizes phase B to the rest of `--seconds`. Frozen.
    pub closed_rate_per_s: f64,
    /// Phase B: requests each connection keeps in flight.
    pub inflight_per_connection: usize,
    /// Write-ahead logging and checkpoints on, with this checkpoint
    /// cadence in windows; `None` serves from memory only.
    pub checkpoint_every_windows: Option<u64>,
    /// Ticks per stream served after the restart (durable workloads).
    pub tail_ticks: usize,
    /// Streams replayed layer by layer in the traced run.
    pub replay_streams: usize,
    /// Equal time-slices phase A is cut into for the latency quantiles
    /// (each slice should keep several hundred window samples).
    pub latency_slices: usize,
}

impl ServeSpec {
    /// Per-stream ticks of phase A for a run of `seconds`.
    pub fn open_ticks(&self, seconds: f64) -> usize {
        let requests = self.open_rate_per_s * self.open_share * seconds;
        ((requests / self.streams as f64).round() as usize).max(self.window)
    }

    /// Per-stream ticks of phase B for a run of `seconds`.
    pub fn closed_ticks(&self, seconds: f64) -> usize {
        let requests = self.closed_rate_per_s * (1.0 - self.open_share) * seconds;
        ((requests / self.streams as f64).round() as usize).max(self.window)
    }
}

/// Mixes the run seed into a generator seed (SplitMix64 finaliser), so
/// nearby `--seed` values give unrelated graphs.
pub fn mix_seed(base: u64, seed: u64, slot: u64) -> u64 {
    let mut z =
        base ^ seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ slot.wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The named batch workload, at benchmark or `--smoke` size.
pub fn batch_spec(name: &str, smoke: bool) -> Option<BatchSpec> {
    match name {
        // The paper's favourable case: Epinions-shaped, dense 220-wide
        // rows, low churn, so most vertices are unaffected and the wide
        // dense GEMMs plus reuse/skip carry the pass.
        "batch_stable" => {
            let mut graph = DatasetPreset::Epinions.config(0.02, 16);
            // Half the preset's churn: at K=4 the preset leaves 55 % of
            // the vertices unaffected, this leaves about three quarters.
            graph.churn.feature_mutation_rate /= 2.0;
            graph.churn.edge_rewire_rate /= 2.0;
            if smoke {
                graph.num_vertices = 300;
                graph.num_edges = 2_400;
                graph.feature_dim = 24;
                graph.num_snapshots = 8;
            }
            Some(BatchSpec {
                graph,
                model: ModelKind::TGcn,
                hidden: 32,
                window: 4,
                pipelined_share: 0.55,
            })
        }
        // The hostile case: flash-crowd bursts every third step make
        // nearly every vertex affected, 88 % of feature rows are zero
        // (SpMM dispatch), and GC-LSTM runs full LSTM cells.
        "batch_churn" => {
            let flash = GeneratorConfig::flash_crowd(if smoke { 9 } else { 24 });
            let graph = GeneratorConfig {
                num_vertices: if smoke { 300 } else { 16_000 },
                num_edges: if smoke { 2_400 } else { 384_000 },
                feature_dim: if smoke { 16 } else { 128 },
                feature_row_sparsity: 0.88,
                churn: ChurnConfig {
                    feature_mutation_rate: 0.20,
                    edge_rewire_rate: 0.10,
                    ..flash.churn
                },
                burst: Some(BurstConfig {
                    period: 3,
                    ..flash.burst.expect("flash_crowd carries a burst config")
                }),
                ..flash
            };
            Some(BatchSpec {
                graph,
                model: ModelKind::GcLstm,
                hidden: 32,
                window: 3,
                pipelined_share: 0.55,
            })
        }
        _ => None,
    }
}

/// The named serving workload, at benchmark or `--smoke` size.
pub fn serve_spec(name: &str, smoke: bool) -> Option<ServeSpec> {
    match name {
        // Serving where the engine dominates each window: Gdelt-small
        // streams, so `models`/`graph`/`serve.roller` carry the latency
        // and the wire is a small share.
        "serve_windows" => {
            let mut graph = DatasetPreset::Gdelt.config_small(1);
            if smoke {
                graph.num_vertices = 96;
                graph.num_edges = 400;
                graph.feature_dim = 8;
            }
            Some(ServeSpec {
                graph,
                streams: if smoke { 4 } else { 96 },
                distinct_seeds: if smoke { 2 } else { 16 },
                hidden: if smoke { 8 } else { 32 },
                window: 4,
                connections: 2,
                open_rate_per_s: if smoke { 200.0 } else { 1_400.0 },
                open_share: 0.7,
                closed_rate_per_s: if smoke { 200.0 } else { 2_600.0 },
                inflight_per_connection: 16,
                checkpoint_every_windows: None,
                tail_ticks: 0,
                replay_streams: if smoke { 2 } else { 8 },
                latency_slices: if smoke { 1 } else { 5 },
            })
        }
        // Writes beside reads: tiny streams at a high request rate with
        // durability on, so wire, admission/batching, roller and
        // WAL/checkpoint writes carry everything and engine work per
        // window is microseconds.
        "serve_fanin_durable" => {
            let graph = GeneratorConfig {
                churn: ChurnConfig::default(),
                ..GeneratorConfig::tiny()
            };
            Some(ServeSpec {
                graph,
                streams: if smoke { 4 } else { 64 },
                distinct_seeds: if smoke { 2 } else { 16 },
                hidden: 16,
                window: 4,
                connections: 2,
                open_rate_per_s: if smoke { 400.0 } else { 6_000.0 },
                open_share: 0.7,
                closed_rate_per_s: if smoke { 400.0 } else { 13_000.0 },
                inflight_per_connection: 16,
                checkpoint_every_windows: Some(if smoke { 4 } else { 1_500 }),
                tail_ticks: 8,
                replay_streams: if smoke { 2 } else { 16 },
                latency_slices: if smoke { 1 } else { 8 },
            })
        }
        _ => None,
    }
}
