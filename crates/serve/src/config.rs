//! Server configuration.

use std::path::PathBuf;

use tagnn_models::{ModelKind, ReuseMode, SkipConfig};
use tagnn_tensor::DispatchMode;

use crate::degrade::DegradationPolicy;
use crate::shard::ShardAssignment;

/// Durability envelope. When set on [`ServeConfig::durability`], every
/// accepted request is appended to its execution shard's write-ahead log
/// *before* it mutates stream state, and the engine periodically writes
/// atomic checkpoints of every roller and session; a restarted core
/// recovers from the latest valid checkpoint plus the WAL suffix and
/// resumes with bit-identical digests.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DurabilityConfig {
    /// Directory holding the WAL segments (`wal-<shard>.log`) and
    /// checkpoint files (`ckpt-<seq>.bin`). Created if absent.
    pub dir: PathBuf,
    /// fdatasync every N appended records (1 = sync every record; larger
    /// values amortise the sync across a group commit at the cost of the
    /// tail being re-playable-but-unacknowledged after a crash).
    pub group_commit: usize,
    /// Kick off a checkpoint after this many rolled windows since the
    /// previous one.
    pub checkpoint_every_windows: u64,
    /// Checkpoints retained on disk (older ones are pruned after a new
    /// one lands; keeping ≥2 survives a corrupt newest).
    pub keep_checkpoints: usize,
}

impl DurabilityConfig {
    /// Durability under `dir` with the default cadence: group commits of
    /// 8, a checkpoint every 16 windows, 2 checkpoints retained.
    pub fn new(dir: impl Into<PathBuf>) -> Self {
        Self {
            dir: dir.into(),
            group_commit: 8,
            checkpoint_every_windows: 16,
            keep_checkpoints: 2,
        }
    }
}

/// Everything a [`crate::core::ServeCore`] needs to boot: the vertex
/// universe it serves, the model it runs, and the batching/backpressure
/// envelope.
#[derive(Debug, Clone, PartialEq)]
pub struct ServeConfig {
    /// Vertex universe size every stream shares.
    pub universe: usize,
    /// Feature dimensionality D.
    pub feature_dim: usize,
    /// Window size K (snapshots per rolled window).
    pub window: usize,
    /// Which DGNN model to serve.
    pub model: ModelKind,
    /// Hidden dimensionality of the model.
    pub hidden: usize,
    /// Weight-initialisation seed (deterministic weights).
    pub seed: u64,
    /// Similarity-aware skipping thresholds at zero backlog.
    pub skip: SkipConfig,
    /// Cross-snapshot reuse mode of the engine.
    pub reuse: ReuseMode,
    /// Kernel dispatch mode of the engine: `Auto` measures operand
    /// density and picks dense GEMM vs row-sparse SpMM per window;
    /// `Dense` pins the legacy dense path (A/B baseline). Either way
    /// served bits are identical.
    pub dispatch: DispatchMode,
    /// Engine shards. Each shard owns a partition of the vertex universe
    /// (admission routes events to their owning shard's ingest lane) and
    /// runs one execution worker; streams stick to shards by
    /// `stream % shards` for execution because a stream's windows are
    /// sequentially dependent.
    pub shards: usize,
    /// How the vertex universe partitions across shards.
    pub shard_assignment: ShardAssignment,
    /// Expected per-vertex degree weights for
    /// [`ShardAssignment::DegreeBalanced`] (e.g. from a historical
    /// trace); must be `universe` long. `None` — or a length mismatch —
    /// falls back to hash assignment.
    pub degree_profile: Option<Vec<u64>>,
    /// Admission-queue capacity; requests beyond it are shed.
    pub queue_capacity: usize,
    /// Per-shard window-queue capacity.
    pub worker_queue_capacity: usize,
    /// Most requests the batcher takes from the admission queue at once.
    /// It never waits for a batch to fill: it takes what is queued, so
    /// batches are 1 when idle and reach this cap only under backlog.
    pub max_batch: usize,
    /// LRU capacity of the shared [`tagnn_graph::PlanCache`]
    /// (0 = unbounded).
    pub plan_cache_capacity: usize,
    /// Maintain window plans incrementally per stream: each roller feeds a
    /// [`tagnn_graph::PlanMaintainer`] as events arrive, so the plan is
    /// ready (bit-identical to scratch) when the window seals. Disable to
    /// force the plan-cache/scratch path on every window.
    pub incremental_planning: bool,
    /// Backlog-driven graceful degradation.
    pub degradation: DegradationPolicy,
    /// Write-ahead logging + checkpointing (`None` = in-memory only, the
    /// historical behaviour).
    pub durability: Option<DurabilityConfig>,
}

impl Default for ServeConfig {
    fn default() -> Self {
        Self {
            universe: 64,
            feature_dim: 8,
            window: 4,
            model: ModelKind::TGcn,
            hidden: 16,
            seed: 7,
            skip: SkipConfig::paper_default(),
            reuse: ReuseMode::PaperWindow,
            dispatch: DispatchMode::default(),
            shards: 2,
            shard_assignment: ShardAssignment::Hash,
            degree_profile: None,
            queue_capacity: 256,
            worker_queue_capacity: 64,
            max_batch: 8,
            plan_cache_capacity: 128,
            incremental_planning: true,
            degradation: DegradationPolicy::default(),
            durability: None,
        }
    }
}

impl ServeConfig {
    /// Validates the envelope, panicking on nonsensical values (these are
    /// operator errors at boot, not runtime conditions).
    ///
    /// # Panics
    /// Panics if any sizing field is zero (except `plan_cache_capacity`,
    /// where 0 means unbounded).
    pub fn validated(self) -> Self {
        assert!(self.universe > 0, "universe must be positive");
        assert!(self.feature_dim > 0, "feature_dim must be positive");
        assert!(self.window > 0, "window must be positive");
        assert!(self.hidden > 0, "hidden must be positive");
        assert!(self.shards > 0, "shards must be positive");
        assert!(self.queue_capacity > 0, "queue_capacity must be positive");
        assert!(
            self.worker_queue_capacity > 0,
            "worker_queue_capacity must be positive"
        );
        assert!(self.max_batch > 0, "max_batch must be positive");
        if let Some(d) = &self.durability {
            assert!(d.group_commit > 0, "group_commit must be positive");
            assert!(
                d.checkpoint_every_windows > 0,
                "checkpoint_every_windows must be positive"
            );
            assert!(d.keep_checkpoints > 0, "keep_checkpoints must be positive");
        }
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_config_validates() {
        let cfg = ServeConfig::default().validated();
        assert_eq!(cfg.window, 4);
    }

    #[test]
    #[should_panic(expected = "shards must be positive")]
    fn zero_shards_is_rejected() {
        let _ = ServeConfig {
            shards: 0,
            ..ServeConfig::default()
        }
        .validated();
    }
}
