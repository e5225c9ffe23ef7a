//! The serving core: admission control, micro-batching, and the worker
//! pool.
//!
//! Requests enter through [`ServeCore::submit`], which performs
//! non-blocking admission into a bounded queue (full queue ⇒ typed
//! [`ServeError::Overloaded`], never unbounded memory). A single batcher
//! thread pops opportunistic micro-batches (whatever is queued, never
//! waiting for more), feeds each stream's events through its
//! [`WindowRoller`], and fans completed windows out to the worker pool.
//! Streams shard to workers by `stream % workers` because a stream's
//! windows are sequentially dependent (the RNN state threads through its
//! [`EngineSession`]); distinct streams run concurrently.
//!
//! The batcher also runs the graceful-degradation controller: sustained
//! admission backlog widens the similarity-aware skip band (see
//! [`crate::degrade`]), trading fidelity for throughput, and unwinds when
//! the backlog clears. At zero backlog the served results are
//! bit-identical to an offline [`ConcurrentEngine::run`] over the same
//! stream — the property the integration suite pins down.

use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, AtomicUsize, Ordering};
use std::sync::{mpsc, Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use tagnn_durable::checkpoint::CheckpointStore;
use tagnn_durable::wal::WalWriter;
use tagnn_graph::{CacheStats, PlanCache, PlanSource, WindowPlan, WindowPlanner};
use tagnn_models::{
    ConcurrentEngine, DgnnModel, EngineSession, EngineState, SkipConfig, StatefulModel,
};
use tagnn_obs::Recorder;
use tagnn_tensor::{DenseMatrix, DispatchTally};

use crate::config::{DurabilityConfig, ServeConfig};
use crate::degrade::DegradationState;
use crate::error::ServeError;
use crate::event::EdgeEvent;
use crate::persist::{self, CheckpointBlob, ConfigStamp};
use crate::queue::{BoundedQueue, PushOutcome};
use crate::roller::{RolledWindow, ShardedRoller, ShardedRollerState, WindowRoller};
use crate::server::Waker;
use crate::shard::ShardRouter;

/// One inference request: a slice of a stream's event sequence.
#[derive(Debug, Clone, PartialEq)]
pub struct InferRequest {
    /// Logical stream the events belong to.
    pub stream: u64,
    /// Events, in stream order.
    pub events: Vec<EdgeEvent>,
    /// Flush sealed-but-unrolled snapshots as a short tail window after
    /// applying the events (stream end).
    pub flush: bool,
}

/// The outcome of one executed window.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WindowResult {
    /// The stream the window belongs to.
    pub stream: u64,
    /// 0-based window index within the stream.
    pub seq: u64,
    /// Snapshots in the window (== K except for a flushed tail).
    pub snapshots: usize,
    /// FNV-1a digest over the final-feature matrices (bit-exact
    /// comparison handle for replay tests).
    pub digest: u64,
    /// Total MACs executed for the window.
    pub macs: u64,
    /// RNN cells skipped by the similarity filter.
    pub skipped_cells: u64,
    /// Where this window's plan came from: sealed incrementally by the
    /// stream's maintainer, served from the shared cache, or built from
    /// scratch by the worker.
    pub plan_source: PlanSource,
    /// Request-to-completion latency of this window in microseconds.
    pub latency_us: u64,
}

/// Reply to one [`InferRequest`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Reply {
    /// Events admitted into the stream.
    pub accepted_events: usize,
    /// Windows the request completed, in roll order (often empty — most
    /// events just accumulate).
    pub windows: Vec<WindowResult>,
}

/// A claim on a future [`Reply`].
#[derive(Debug)]
pub struct Ticket {
    rx: mpsc::Receiver<Result<Reply, ServeError>>,
}

impl Ticket {
    /// Blocks until the reply arrives ([`ServeError::Closed`] if the
    /// server shut down first).
    pub fn wait(self) -> Result<Reply, ServeError> {
        self.rx.recv().unwrap_or(Err(ServeError::Closed))
    }

    /// Like [`Self::wait`], bounded by `timeout`.
    pub fn wait_timeout(&self, timeout: Duration) -> Option<Result<Reply, ServeError>> {
        match self.rx.recv_timeout(timeout) {
            Ok(r) => Some(r),
            Err(mpsc::RecvTimeoutError::Timeout) => None,
            Err(mpsc::RecvTimeoutError::Disconnected) => Some(Err(ServeError::Closed)),
        }
    }

    /// Non-blocking poll: `None` while the reply is still in flight.
    /// The event-loop frontend uses this to multiplex many tickets on
    /// one thread.
    pub fn try_wait(&self) -> Option<Result<Reply, ServeError>> {
        match self.rx.try_recv() {
            Ok(r) => Some(r),
            Err(mpsc::TryRecvError::Empty) => None,
            Err(mpsc::TryRecvError::Disconnected) => Some(Err(ServeError::Closed)),
        }
    }
}

/// FNV-1a over the raw f32 bits of `matrices` — the bit-exactness digest
/// used by replies, benches, and the replay tests.
pub fn digest_matrices<'a>(matrices: impl IntoIterator<Item = &'a DenseMatrix>) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for m in matrices {
        for &x in m.as_slice() {
            for b in x.to_bits().to_le_bytes() {
                h ^= b as u64;
                h = h.wrapping_mul(0x0000_0100_0000_01b3);
            }
        }
    }
    h
}

/// Snapshot of the per-source plan counters since boot.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PlanSourceCounts {
    /// Windows planned from scratch by a worker.
    pub scratch: u64,
    /// Windows served from the shared plan cache.
    pub cached: u64,
    /// Windows whose plan was sealed incrementally by the stream's
    /// maintainer.
    pub incremental: u64,
    /// Windows where incremental planning was enabled but the maintainer
    /// could not vouch for the plan (fell back to cache/scratch).
    pub fallbacks: u64,
}

/// Shared atomic backing of [`PlanSourceCounts`].
#[derive(Debug, Default)]
struct PlanCounters {
    scratch: AtomicU64,
    cached: AtomicU64,
    incremental: AtomicU64,
    fallbacks: AtomicU64,
}

impl PlanCounters {
    fn snapshot(&self) -> PlanSourceCounts {
        PlanSourceCounts {
            scratch: self.scratch.load(Ordering::Relaxed),
            cached: self.cached.load(Ordering::Relaxed),
            incremental: self.incremental.load(Ordering::Relaxed),
            fallbacks: self.fallbacks.load(Ordering::Relaxed),
        }
    }
}

/// Point-in-time view of the shard plane.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardStats {
    /// Events routed to each shard's ingest lane since boot.
    pub routed: Vec<u64>,
    /// Edge events sealed whose endpoints live on different shards — the
    /// aggregation traffic a distributed deployment would pay at seal.
    pub cross_shard_edges: u64,
    /// Current depth of each shard's window queue.
    pub queue_depths: Vec<usize>,
}

/// Shared atomic backing of the kernel-dispatch counters: how often the
/// workers' engine sessions chose each kernel, plus the row-density sums
/// behind those choices (see `tagnn_tensor::dispatch`).
#[derive(Debug, Default)]
struct DispatchObs {
    dense: AtomicU64,
    spmm: AtomicU64,
    delta_skip: AtomicU64,
    nz_rows: AtomicU64,
    rows_seen: AtomicU64,
}

impl DispatchObs {
    fn add(&self, stats: &tagnn_models::ExecutionStats) {
        let d = &stats.dispatch;
        if d.dense > 0 {
            self.dense.fetch_add(d.dense, Ordering::Relaxed);
        }
        if d.spmm > 0 {
            self.spmm.fetch_add(d.spmm, Ordering::Relaxed);
        }
        if d.delta_skip > 0 {
            self.delta_skip.fetch_add(d.delta_skip, Ordering::Relaxed);
        }
        if stats.dispatch_rows_seen > 0 {
            self.nz_rows
                .fetch_add(stats.dispatch_nz_rows, Ordering::Relaxed);
            self.rows_seen
                .fetch_add(stats.dispatch_rows_seen, Ordering::Relaxed);
        }
    }

    fn tally(&self) -> DispatchTally {
        DispatchTally {
            dense: self.dense.load(Ordering::Relaxed),
            spmm: self.spmm.load(Ordering::Relaxed),
            delta_skip: self.delta_skip.load(Ordering::Relaxed),
        }
    }

    fn density(&self) -> f64 {
        let seen = self.rows_seen.load(Ordering::Relaxed);
        if seen == 0 {
            return 1.0;
        }
        self.nz_rows.load(Ordering::Relaxed) as f64 / seen as f64
    }
}

/// Shared atomic backing of [`ShardStats`].
#[derive(Debug)]
struct ShardObs {
    routed: Vec<AtomicU64>,
    cross_shard_edges: AtomicU64,
}

impl ShardObs {
    fn new(shards: usize) -> Self {
        Self {
            routed: (0..shards).map(|_| AtomicU64::new(0)).collect(),
            cross_shard_edges: AtomicU64::new(0),
        }
    }
}

/// What recovery did at boot (only present when the core was started
/// with [`ServeConfig::durability`] set).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RecoveryReport {
    /// Sequence number of the checkpoint restored (`None` on a cold
    /// start with no usable checkpoint).
    pub checkpoint_seq: Option<u64>,
    /// WAL-suffix requests replayed through normal ingestion.
    pub replayed_requests: u64,
    /// Events contained in the replayed requests.
    pub replayed_events: u64,
    /// Wall time of the replay phase in microseconds.
    pub replay_us: u64,
    /// Bytes truncated from torn/corrupt WAL tails across all shards.
    pub truncated_tail_bytes: u64,
    /// Per-stream tick position after recovery (checkpoint ticks plus
    /// replayed ticks), sorted by stream id — the resume cursor a
    /// trace-feeding client needs to continue where the crash cut it.
    pub resume_ticks: Vec<(u64, u64)>,
    /// Windows the WAL replay re-served, in replay order. Their replies
    /// went to the recovery path rather than any client, so this is the
    /// only place their digests surface — the crash differential needs
    /// them to prove the re-served bits match the original serve.
    pub replayed_windows: Vec<WindowResult>,
}

/// Point-in-time durability counters since boot.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DurableStats {
    /// Whether durability is configured at all.
    pub enabled: bool,
    /// WAL records appended.
    pub wal_appends: u64,
    /// Group-commit fsyncs issued.
    pub wal_fsyncs: u64,
    /// Checkpoints written since boot.
    pub checkpoints_written: u64,
    /// Events replayed from the WAL at boot.
    pub replayed_events: u64,
    /// Replay wall time at boot in microseconds.
    pub replay_us: u64,
    /// WAL tail bytes truncated at boot.
    pub truncated_tail_bytes: u64,
}

/// Shared atomic backing of [`DurableStats`].
#[derive(Debug, Default)]
struct DurableObs {
    wal_appends: AtomicU64,
    wal_fsyncs: AtomicU64,
    checkpoints_written: AtomicU64,
    replayed_events: AtomicU64,
    replay_us: AtomicU64,
    truncated_tail_bytes: AtomicU64,
}

/// Where a request's outcome goes: the ticket's channel, plus the TCP
/// frontend's doorbell when the request came in over a socket.
struct ReplyTo {
    tx: mpsc::Sender<Result<Reply, ServeError>>,
    waker: Option<Arc<Waker>>,
}

impl ReplyTo {
    /// The one way a request completes. The reply is sent *before* the
    /// doorbell rings, so an I/O thread woken by it finds the ticket
    /// resolved; it blocks in `poll(2)` with no timeout, so a completion
    /// path that bypassed this would strand the connection.
    fn complete(&self, outcome: Result<Reply, ServeError>) {
        let _ = self.tx.send(outcome);
        if let Some(waker) = &self.waker {
            waker.wake();
        }
    }
}

struct Job {
    req: InferRequest,
    enqueued_at: Instant,
    reply: ReplyTo,
    /// `false` for WAL-replayed requests: they were logged before the
    /// crash and must not be logged again.
    log: bool,
}

/// Book-keeping for a request whose windows are in flight: the reply is
/// sent by whichever worker completes the last window.
struct Pending {
    remaining: AtomicUsize,
    results: Mutex<Vec<Option<WindowResult>>>,
    reply: ReplyTo,
    accepted_events: usize,
}

struct WindowItem {
    stream: u64,
    window: RolledWindow,
    skip: SkipConfig,
    slot: usize,
    enqueued_at: Instant,
    pending: Arc<Pending>,
}

/// What flows through a shard's work queue: windows to execute, plus
/// checkpoint markers. A marker makes the worker serialize its sessions
/// *at that point in the queue* — i.e. after exactly the windows the
/// batcher had rolled when it cut the checkpoint — which is what makes
/// the assembled checkpoint a consistent image without stopping the
/// world.
enum WorkItem {
    Window(WindowItem),
    Checkpoint { seq: u64 },
}

/// The batcher's half of a checkpoint: everything it owns (rollers, WAL
/// offsets), captured synchronously when the checkpoint is cut.
struct CheckpointBegin {
    seq: u64,
    stamp: ConfigStamp,
    wal_offsets: Vec<u64>,
    windows_rolled: u64,
    rollers: Vec<(u64, ShardedRollerState)>,
}

/// Messages feeding the checkpoint-writer thread.
enum CkptMsg {
    Begin(Box<CheckpointBegin>),
    Sessions {
        seq: u64,
        parts: Vec<(u64, EngineState)>,
    },
}

/// The batcher's durable state: per-shard WAL writers plus the
/// checkpoint cadence bookkeeping.
struct BatcherDurable {
    wals: Vec<WalWriter>,
    cadence: u64,
    windows_rolled: u64,
    windows_at_ckpt: u64,
    next_seq: u64,
    stamp: ConfigStamp,
    tx: mpsc::Sender<CkptMsg>,
    in_flight: Arc<AtomicBool>,
}

/// Everything recovery hands the booting core: restored rollers for the
/// batcher, restored session states per worker, the batcher's durable
/// half, the checkpoint-writer handle, and the WAL suffix to replay.
#[derive(Default)]
struct DurableBoot {
    batcher: Option<BatcherDurable>,
    rollers: HashMap<u64, ShardedRoller>,
    sessions: Vec<HashMap<u64, EngineState>>,
    ckpt_tx: Option<mpsc::Sender<CkptMsg>>,
    writer: Option<JoinHandle<()>>,
    replay: Vec<InferRequest>,
    report: Option<RecoveryReport>,
}

/// Opens the WALs and checkpoint store, restores the latest valid
/// checkpoint, and stages the WAL suffix for replay. IO failures here
/// are boot-time operator errors (bad path, dead disk) and panic; data
/// corruption never does — torn tails truncate and bad checkpoints fall
/// back to older ones.
fn durable_bootstrap(
    dcfg: &DurabilityConfig,
    cfg: &ServeConfig,
    router: &ShardRouter,
    recorder: &Arc<Recorder>,
    obs: &Arc<DurableObs>,
) -> DurableBoot {
    std::fs::create_dir_all(&dcfg.dir).expect("create durability directory");
    let mut wals = Vec::with_capacity(cfg.shards);
    let mut recoveries = Vec::with_capacity(cfg.shards);
    let mut truncated = 0u64;
    for s in 0..cfg.shards {
        let path = dcfg.dir.join(format!("wal-{s}.log"));
        let (w, rec) = WalWriter::open(&path, dcfg.group_commit)
            .unwrap_or_else(|e| panic!("open WAL {}: {e}", path.display()));
        truncated += rec.truncated_bytes;
        wals.push(w);
        recoveries.push(rec);
    }
    let store =
        CheckpointStore::open(&dcfg.dir, dcfg.keep_checkpoints).expect("open checkpoint store");
    let stamp = ConfigStamp::of(cfg);
    let valid_lens: Vec<u64> = recoveries.iter().map(|r| r.valid_len).collect();
    // A checkpoint is usable when it decodes, was written under this
    // exact serving configuration, and every WAL offset it claims to
    // cover survived tail truncation. A stamp mismatch is an operator
    // error (resuming someone else's state would serve wrong bits), so
    // it panics rather than silently cold-starting; plain corruption
    // falls back to the next-older checkpoint.
    let ckpt = store
        .latest_valid(|c| match persist::decode_checkpoint(&c.payload) {
            Ok(blob) => {
                assert_eq!(
                    blob.stamp,
                    stamp,
                    "durability dir {} holds checkpoints from a different serving \
                     configuration; wipe it or restore the original config",
                    dcfg.dir.display()
                );
                blob.wal_offsets.len() == valid_lens.len()
                    && blob
                        .wal_offsets
                        .iter()
                        .zip(&valid_lens)
                        .all(|(o, l)| o <= l)
            }
            Err(_) => false,
        })
        .expect("scan checkpoints");
    let next_seq = store
        .list()
        .expect("list checkpoints")
        .last()
        .map_or(0, |s| s + 1);

    let mut rollers = HashMap::new();
    let mut sessions: Vec<HashMap<u64, EngineState>> =
        (0..cfg.shards).map(|_| HashMap::new()).collect();
    let mut offsets = vec![0u64; cfg.shards];
    let mut checkpoint_seq = None;
    let mut resume: HashMap<u64, u64> = HashMap::new();
    let mut windows_rolled = 0;
    if let Some(c) = ckpt {
        let blob = persist::decode_checkpoint(&c.payload)
            .expect("checkpoint accepted by the validity scan decodes");
        checkpoint_seq = Some(c.seq);
        offsets = blob.wal_offsets;
        windows_rolled = blob.windows_rolled;
        for (stream, state) in blob.rollers {
            resume.insert(stream, state.inner.ticks);
            let r = ShardedRoller::from_state(state, router.clone())
                .expect("CRC-valid checkpoint roller state matches the config stamp");
            rollers.insert(stream, r);
        }
        for (stream, st) in blob.sessions {
            let shard = (stream % cfg.shards as u64) as usize;
            sessions[shard].insert(stream, st);
        }
    }

    // Stage the WAL suffix: every record past the checkpoint's covered
    // offset, in file order (per-stream order, since a stream maps to
    // exactly one WAL and the batcher is single-threaded).
    let mut replay = Vec::new();
    let mut replayed_events = 0u64;
    for (s, rec) in recoveries.iter().enumerate() {
        for record in &rec.records {
            if record.end_offset <= offsets[s] {
                continue;
            }
            match persist::decode_request(&record.payload) {
                Ok(req) => {
                    replayed_events += req.events.len() as u64;
                    let ticks = req
                        .events
                        .iter()
                        .filter(|e| matches!(e, EdgeEvent::Tick))
                        .count() as u64;
                    *resume.entry(req.stream).or_insert(0) += ticks;
                    replay.push(req);
                }
                Err(_) => recorder.incr("serve.recovery.undecodable_records", 1),
            }
        }
    }

    obs.truncated_tail_bytes.store(truncated, Ordering::Relaxed);
    obs.replayed_events
        .store(replayed_events, Ordering::Relaxed);
    recorder.incr("serve.recovery.truncated_tail_bytes", truncated);
    recorder.incr("serve.recovery.replayed_events", replayed_events);

    let in_flight = Arc::new(AtomicBool::new(false));
    let (tx, rx) = mpsc::channel::<CkptMsg>();
    let writer = {
        let recorder = Arc::clone(recorder);
        let obs = Arc::clone(obs);
        let in_flight = Arc::clone(&in_flight);
        let shards = cfg.shards;
        std::thread::Builder::new()
            .name("tagnn-serve-ckpt".into())
            .spawn(move || ckpt_writer_loop(rx, store, shards, recorder, obs, in_flight))
            .expect("spawn checkpoint writer")
    };

    let mut resume_ticks: Vec<(u64, u64)> = resume.into_iter().collect();
    resume_ticks.sort_unstable_by_key(|(stream, _)| *stream);
    DurableBoot {
        batcher: Some(BatcherDurable {
            wals,
            cadence: dcfg.checkpoint_every_windows,
            windows_rolled,
            windows_at_ckpt: windows_rolled,
            next_seq,
            stamp,
            tx: tx.clone(),
            in_flight,
        }),
        rollers,
        sessions,
        ckpt_tx: Some(tx),
        writer: Some(writer),
        report: Some(RecoveryReport {
            checkpoint_seq,
            replayed_requests: replay.len() as u64,
            replayed_events,
            replay_us: 0,
            truncated_tail_bytes: truncated,
            resume_ticks,
            replayed_windows: Vec::new(),
        }),
        replay,
    }
}

/// Assembles checkpoints from the batcher's Begin and the workers'
/// Sessions parts and writes each one atomically once all `shards`
/// parts have arrived. Exits when every sender is gone (batcher and
/// workers have shut down); an incomplete checkpoint at that point is
/// simply discarded — the previous one stays latest.
fn ckpt_writer_loop(
    rx: mpsc::Receiver<CkptMsg>,
    store: CheckpointStore,
    shards: usize,
    recorder: Arc<Recorder>,
    obs: Arc<DurableObs>,
    in_flight: Arc<AtomicBool>,
) {
    let mut begin: Option<CheckpointBegin> = None;
    let mut parts: Vec<(u64, EngineState)> = Vec::new();
    let mut arrived = 0usize;
    while let Ok(msg) = rx.recv() {
        match msg {
            CkptMsg::Begin(b) => {
                begin = Some(*b);
                parts.clear();
                arrived = 0;
            }
            CkptMsg::Sessions { seq, parts: p } => {
                let Some(b) = &begin else { continue };
                if b.seq != seq {
                    continue;
                }
                parts.extend(p);
                arrived += 1;
                if arrived < shards {
                    continue;
                }
                let b = begin.take().expect("begin present");
                let seq = b.seq;
                parts.sort_unstable_by_key(|(stream, _)| *stream);
                let blob = CheckpointBlob {
                    stamp: b.stamp,
                    wal_offsets: b.wal_offsets,
                    windows_rolled: b.windows_rolled,
                    rollers: b.rollers,
                    sessions: std::mem::take(&mut parts),
                };
                let t0 = Instant::now();
                let payload = persist::encode_checkpoint(&blob);
                match store.write(seq, &payload) {
                    Ok(()) => {
                        obs.checkpoints_written.fetch_add(1, Ordering::Relaxed);
                        recorder.incr("serve.checkpoints", 1);
                        recorder.record("serve.checkpoint_bytes", payload.len() as u64);
                        recorder.record("serve.checkpoint_us", t0.elapsed().as_micros() as u64);
                    }
                    Err(e) => {
                        recorder.incr("serve.checkpoint_errors", 1);
                        eprintln!("tagnn-serve: checkpoint {seq} write failed: {e}");
                    }
                }
                in_flight.store(false, Ordering::Release);
            }
        }
    }
}

/// The in-process serving engine (the TCP frontend in [`crate::server`]
/// is a thin wire adapter over this).
pub struct ServeCore {
    cfg: ServeConfig,
    admission: Arc<BoundedQueue<Job>>,
    worker_queues: Vec<Arc<BoundedQueue<WorkItem>>>,
    recorder: Arc<Recorder>,
    cache: Arc<PlanCache>,
    plan_counters: Arc<PlanCounters>,
    shard_obs: Arc<ShardObs>,
    dispatch_obs: Arc<DispatchObs>,
    shed: Arc<AtomicU64>,
    degrade_level: Arc<AtomicU32>,
    max_degrade_level: Arc<AtomicU32>,
    durable_obs: Arc<DurableObs>,
    recovery: Option<RecoveryReport>,
    batcher: Option<JoinHandle<()>>,
    workers: Vec<JoinHandle<()>>,
    ckpt_writer: Option<JoinHandle<()>>,
}

impl ServeCore {
    /// Boots the core: model weights, plan cache, batcher, and worker
    /// pool. When [`ServeConfig::durability`] is set, recovery runs
    /// first — the latest valid checkpoint is restored and the WAL
    /// suffix is replayed through normal ingestion — and `start` returns
    /// only once the core has caught up to the pre-crash stream
    /// positions. Returns once every thread is running.
    pub fn start(cfg: ServeConfig) -> Self {
        let cfg = cfg.validated();
        let recorder = Arc::new(Recorder::new());
        let cache = Arc::new(PlanCache::with_capacity(cfg.plan_cache_capacity));
        let admission = Arc::new(BoundedQueue::<Job>::new(cfg.queue_capacity));
        let plan_counters = Arc::new(PlanCounters::default());
        let shard_obs = Arc::new(ShardObs::new(cfg.shards));
        let dispatch_obs = Arc::new(DispatchObs::default());
        let durable_obs = Arc::new(DurableObs::default());
        let shed = Arc::new(AtomicU64::new(0));
        let degrade_level = Arc::new(AtomicU32::new(0));
        let max_degrade_level = Arc::new(AtomicU32::new(0));

        let model = DgnnModel::new(cfg.model, cfg.feature_dim, cfg.hidden, cfg.seed);
        let engine = ConcurrentEngine::with_options(model, cfg.skip, cfg.window, cfg.reuse)
            .with_dispatch_mode(cfg.dispatch);

        let router = ShardRouter::new(
            cfg.shard_assignment,
            cfg.universe,
            cfg.shards,
            cfg.degree_profile.as_deref(),
        );

        let mut boot = match &cfg.durability {
            Some(dcfg) => durable_bootstrap(dcfg, &cfg, &router, &recorder, &durable_obs),
            None => DurableBoot::default(),
        };
        if boot.sessions.len() != cfg.shards {
            boot.sessions = (0..cfg.shards).map(|_| HashMap::new()).collect();
        }

        let worker_queues: Vec<Arc<BoundedQueue<WorkItem>>> = (0..cfg.shards)
            .map(|_| Arc::new(BoundedQueue::new(cfg.worker_queue_capacity)))
            .collect();

        let mut initial_sessions = std::mem::take(&mut boot.sessions);
        let workers: Vec<JoinHandle<()>> = worker_queues
            .iter()
            .enumerate()
            .map(|(i, q)| {
                let q = Arc::clone(q);
                let engine = engine.clone();
                let cache = Arc::clone(&cache);
                let recorder = Arc::clone(&recorder);
                let counters = Arc::clone(&plan_counters);
                let dispatch_obs = Arc::clone(&dispatch_obs);
                let ckpt_tx = boot.ckpt_tx.clone();
                let initial = std::mem::take(&mut initial_sessions[i]);
                let universe = cfg.universe;
                let window = cfg.window;
                let incremental = cfg.incremental_planning;
                std::thread::Builder::new()
                    .name(format!("tagnn-serve-shard-{i}"))
                    .spawn(move || {
                        worker_loop(
                            WorkerCtx {
                                queue: &q,
                                engine: &engine,
                                cache: &cache,
                                recorder: &recorder,
                                counters: &counters,
                                dispatch_obs: &dispatch_obs,
                                ckpt_tx,
                                universe,
                                window,
                                incremental,
                            },
                            initial,
                        )
                    })
                    .expect("spawn worker")
            })
            .collect();

        let batcher = {
            let admission = Arc::clone(&admission);
            let queues = worker_queues.clone();
            let recorder = Arc::clone(&recorder);
            let cfg2 = cfg.clone();
            let degrade_level = Arc::clone(&degrade_level);
            let max_degrade_level = Arc::clone(&max_degrade_level);
            let router = router.clone();
            let shard_obs2 = Arc::clone(&shard_obs);
            let durable_obs2 = Arc::clone(&durable_obs);
            let rollers = std::mem::take(&mut boot.rollers);
            let durable = boot.batcher.take();
            std::thread::Builder::new()
                .name("tagnn-serve-batcher".into())
                .spawn(move || {
                    batcher_loop(
                        BatcherCtx {
                            admission: &admission,
                            queues: &queues,
                            recorder: &recorder,
                            cfg: &cfg2,
                            degrade_level: &degrade_level,
                            max_degrade_level: &max_degrade_level,
                            router: &router,
                            shard_obs: &shard_obs2,
                            durable_obs: &durable_obs2,
                        },
                        rollers,
                        durable,
                    )
                })
                .expect("spawn batcher")
        };

        let mut core = Self {
            cfg,
            admission,
            worker_queues,
            recorder,
            cache,
            plan_counters,
            shard_obs,
            dispatch_obs,
            shed,
            degrade_level,
            max_degrade_level,
            durable_obs,
            recovery: None,
            batcher: Some(batcher),
            workers,
            ckpt_writer: boot.writer.take(),
        };

        if let Some(mut report) = boot.report.take() {
            // Replay the WAL suffix through the normal ingestion path,
            // pipelined: up to `queue_capacity` requests in flight (so
            // admission can never shed one), replies collected in submit
            // order. Rejections are counted, not fatal: a record that
            // was admissible pre-crash stays admissible after a faithful
            // state restore, so a rejection here indicates operator
            // tampering — the remaining stream must still come up.
            let t0 = Instant::now();
            let mut in_flight: VecDeque<Ticket> = VecDeque::new();
            let mut collect = |ticket: Ticket| match ticket.wait() {
                Ok(reply) => report.replayed_windows.extend(reply.windows),
                Err(_) => core.recorder.incr("serve.recovery.rejected_requests", 1),
            };
            for req in boot.replay.drain(..) {
                if in_flight.len() == core.cfg.queue_capacity {
                    collect(in_flight.pop_front().expect("window is full"));
                }
                match core.submit_job(req, false, None) {
                    Ok(ticket) => in_flight.push_back(ticket),
                    Err(_) => core.recorder.incr("serve.recovery.rejected_requests", 1),
                }
            }
            in_flight.into_iter().for_each(&mut collect);
            report.replay_us = t0.elapsed().as_micros() as u64;
            core.durable_obs
                .replay_us
                .store(report.replay_us, Ordering::Relaxed);
            core.recorder
                .incr("serve.recovery.replay_us", report.replay_us);
            core.recovery = Some(report);
        }
        core
    }

    /// The configuration the core was booted with.
    pub fn config(&self) -> &ServeConfig {
        &self.cfg
    }

    /// The recorder collecting `serve.*` counters and latency histograms.
    pub fn recorder(&self) -> &Recorder {
        &self.recorder
    }

    /// Plan-cache counters (hits/misses/evictions) since boot.
    pub fn cache_stats(&self) -> CacheStats {
        self.cache.stats()
    }

    /// Per-source plan counters (scratch / cached / incremental, plus
    /// incremental fallbacks) since boot.
    pub fn plan_source_counts(&self) -> PlanSourceCounts {
        self.plan_counters.snapshot()
    }

    /// Kernel-dispatch decisions the workers' engine sessions made since
    /// boot: dense GEMMs, row-sparse SpMMs, and delta-skip cells.
    pub fn dispatch_counts(&self) -> DispatchTally {
        self.dispatch_obs.tally()
    }

    /// Mean measured row density of the dispatch-measured operands
    /// since boot (1.0 when nothing was measured — e.g. `dense` mode).
    pub fn dispatch_density(&self) -> f64 {
        self.dispatch_obs.density()
    }

    /// Requests shed at admission since boot.
    pub fn shed_count(&self) -> u64 {
        self.shed.load(Ordering::Relaxed)
    }

    /// Per-shard routing/seal counters and live queue depths.
    pub fn shard_stats(&self) -> ShardStats {
        ShardStats {
            routed: self
                .shard_obs
                .routed
                .iter()
                .map(|c| c.load(Ordering::Relaxed))
                .collect(),
            cross_shard_edges: self.shard_obs.cross_shard_edges.load(Ordering::Relaxed),
            queue_depths: self.worker_queues.iter().map(|q| q.depth()).collect(),
        }
    }

    /// Current depth of the admission queue.
    pub fn queue_depth(&self) -> usize {
        self.admission.depth()
    }

    /// The degradation level the batcher is currently applying.
    pub fn degrade_level(&self) -> u32 {
        self.degrade_level.load(Ordering::Relaxed)
    }

    /// The highest degradation level reached since boot.
    pub fn max_degrade_level(&self) -> u32 {
        self.max_degrade_level.load(Ordering::Relaxed)
    }

    /// What recovery did at boot; `None` unless the core was started
    /// with durability configured.
    pub fn recovery_report(&self) -> Option<&RecoveryReport> {
        self.recovery.as_ref()
    }

    /// Durability counters (WAL appends/fsyncs, checkpoints, replay cost)
    /// since boot. `enabled` is false when durability is off.
    pub fn durable_stats(&self) -> DurableStats {
        DurableStats {
            enabled: self.cfg.durability.is_some(),
            wal_appends: self.durable_obs.wal_appends.load(Ordering::Relaxed),
            wal_fsyncs: self.durable_obs.wal_fsyncs.load(Ordering::Relaxed),
            checkpoints_written: self.durable_obs.checkpoints_written.load(Ordering::Relaxed),
            replayed_events: self.durable_obs.replayed_events.load(Ordering::Relaxed),
            replay_us: self.durable_obs.replay_us.load(Ordering::Relaxed),
            truncated_tail_bytes: self
                .durable_obs
                .truncated_tail_bytes
                .load(Ordering::Relaxed),
        }
    }

    /// Non-blocking admission. `Err(Overloaded)` when the queue is full;
    /// the caller decides whether to retry, backpressure, or drop.
    pub fn submit(&self, req: InferRequest) -> Result<Ticket, ServeError> {
        self.submit_job(req, true, None)
    }

    /// [`Self::submit`] for the TCP frontend: `waker` is rung once the
    /// ticket has resolved, so the I/O thread can block instead of
    /// polling its tickets.
    pub(crate) fn submit_waking(
        &self,
        req: InferRequest,
        waker: &Arc<Waker>,
    ) -> Result<Ticket, ServeError> {
        self.submit_job(req, true, Some(Arc::clone(waker)))
    }

    fn submit_job(
        &self,
        req: InferRequest,
        log: bool,
        waker: Option<Arc<Waker>>,
    ) -> Result<Ticket, ServeError> {
        let (tx, rx) = mpsc::channel();
        let job = Job {
            req,
            enqueued_at: Instant::now(),
            reply: ReplyTo { tx, waker },
            log,
        };
        match self.admission.try_push(job) {
            (PushOutcome::Queued { .. }, None) => {
                self.recorder.incr("serve.requests", 1);
                Ok(Ticket { rx })
            }
            (PushOutcome::Full, Some(_)) => {
                self.shed.fetch_add(1, Ordering::Relaxed);
                self.recorder.incr("serve.shed", 1);
                Err(ServeError::Overloaded {
                    depth: self.admission.depth(),
                    capacity: self.admission.capacity(),
                })
            }
            _ => Err(ServeError::Closed),
        }
    }

    /// Graceful shutdown: stops admission, drains every queue, and joins
    /// all threads. In-flight requests complete; late `submit`s get
    /// [`ServeError::Closed`].
    pub fn shutdown(mut self) {
        self.stop();
    }

    /// [`Self::shutdown`] that leaves the core in place, so the counters
    /// can be read once nothing moves any more — checkpoints land
    /// asynchronously, and only here is the writer known to be done.
    pub fn stop(&mut self) {
        self.admission.close();
        if let Some(h) = self.batcher.take() {
            let _ = h.join();
        }
        for q in &self.worker_queues {
            q.close();
        }
        for h in self.workers.drain(..) {
            let _ = h.join();
        }
        // The checkpoint writer exits once every CkptMsg sender is gone
        // (batcher + workers above), so this join cannot hang.
        if let Some(h) = self.ckpt_writer.take() {
            let _ = h.join();
        }
    }
}

impl Drop for ServeCore {
    fn drop(&mut self) {
        self.stop();
    }
}

struct BatcherCtx<'a> {
    admission: &'a BoundedQueue<Job>,
    queues: &'a [Arc<BoundedQueue<WorkItem>>],
    recorder: &'a Recorder,
    cfg: &'a ServeConfig,
    degrade_level: &'a AtomicU32,
    max_degrade_level: &'a AtomicU32,
    router: &'a ShardRouter,
    shard_obs: &'a ShardObs,
    durable_obs: &'a DurableObs,
}

fn batcher_loop(
    ctx: BatcherCtx<'_>,
    mut rollers: HashMap<u64, ShardedRoller>,
    mut durable: Option<BatcherDurable>,
) {
    let mut degrade = DegradationState::default();
    // Per-shard metric names, built once (the recorder keys by &str).
    let depth_gauges: Vec<String> = (0..ctx.cfg.shards)
        .map(|s| format!("serve.shard{s}.queue_depth"))
        .collect();
    loop {
        let batch = ctx.admission.pop_batch(ctx.cfg.max_batch);
        if batch.is_empty() {
            // pop_batch returns empty only when closed and drained. Make
            // every appended-but-unsynced WAL byte durable before the
            // core reports a clean shutdown.
            if let Some(d) = &mut durable {
                for wal in &mut d.wals {
                    let _ = wal.sync();
                }
            }
            return;
        }
        ctx.recorder.record("serve.batch_size", batch.len() as u64);

        // The backlog left AFTER taking this batch is the overload
        // signal: it stays high only when arrivals outpace service.
        // Recovery's pipelined WAL replay (which finishes before any
        // client can submit, so a batch is all replay or all live) is
        // backlog of the core's own making: it must re-serve the logged
        // requests at the configured thresholds, not degraded ones.
        let live = batch[0].log;
        let level = if live {
            degrade.observe(ctx.admission.depth(), &ctx.cfg.degradation)
        } else {
            degrade.level()
        };
        ctx.degrade_level.store(level, Ordering::Relaxed);
        ctx.max_degrade_level
            .store(degrade.max_level_seen(), Ordering::Relaxed);
        ctx.recorder.gauge("serve.degrade_level", level as f64);
        for (s, q) in ctx.queues.iter().enumerate() {
            ctx.recorder.gauge(&depth_gauges[s], q.depth() as f64);
        }
        let skip = degrade.skip_config(ctx.cfg.skip, &ctx.cfg.degradation);

        for job in batch {
            dispatch_job(&ctx, job, &mut rollers, skip, &mut durable);
        }

        // No checkpoint mid-replay either: its WAL offsets would claim
        // the whole log while the rollers hold only the replayed part,
        // so a second crash would lose the rest of the suffix.
        if live {
            if let Some(d) = &mut durable {
                maybe_cut_checkpoint(&ctx, d, &rollers);
            }
        }
    }
}

/// Cuts a checkpoint when the cadence says so and none is in flight:
/// syncs the WALs (the captured offsets must be durable — the checkpoint
/// claims to cover everything before them), exports the rollers, hands
/// the batcher's half to the writer thread, and drops a marker into
/// every shard queue so the workers serialize their sessions at the
/// matching point in the work stream.
fn maybe_cut_checkpoint(
    ctx: &BatcherCtx<'_>,
    d: &mut BatcherDurable,
    rollers: &HashMap<u64, ShardedRoller>,
) {
    if d.windows_rolled - d.windows_at_ckpt < d.cadence || d.in_flight.swap(true, Ordering::AcqRel)
    {
        return;
    }
    d.windows_at_ckpt = d.windows_rolled;
    let mut wal_offsets = Vec::with_capacity(d.wals.len());
    for wal in &mut d.wals {
        if let Err(e) = wal.sync() {
            ctx.recorder.incr("serve.wal.sync_errors", 1);
            eprintln!("tagnn-serve: checkpoint aborted, WAL sync failed: {e}");
            d.in_flight.store(false, Ordering::Release);
            return;
        }
        wal_offsets.push(wal.offset());
    }
    let seq = d.next_seq;
    d.next_seq += 1;
    let mut exported: Vec<(u64, ShardedRollerState)> = rollers
        .iter()
        .map(|(&stream, r)| (stream, r.export_state()))
        .collect();
    exported.sort_unstable_by_key(|(stream, _)| *stream);
    let begin = CheckpointBegin {
        seq,
        stamp: d.stamp.clone(),
        wal_offsets,
        windows_rolled: d.windows_rolled,
        rollers: exported,
    };
    if d.tx.send(CkptMsg::Begin(Box::new(begin))).is_err() {
        d.in_flight.store(false, Ordering::Release);
        return;
    }
    for q in ctx.queues {
        if q.push(WorkItem::Checkpoint { seq }).is_err() {
            // A closed queue means shutdown: the writer will never see
            // all parts for this seq and discards it on exit.
            return;
        }
    }
}

/// Runs one job's events through its stream's sharded roller and fans the
/// rolled windows out to the shard workers.
fn dispatch_job(
    ctx: &BatcherCtx<'_>,
    job: Job,
    rollers: &mut HashMap<u64, ShardedRoller>,
    skip: SkipConfig,
    durable: &mut Option<BatcherDurable>,
) {
    let cfg = ctx.cfg;
    let recorder = ctx.recorder;
    // Atomic rejection: a request with any invalid event is refused as a
    // unit, before the stream state is touched.
    for event in &job.req.events {
        if let Err(e) = event.validate(cfg.universe, cfg.feature_dim) {
            recorder.incr("serve.rejected", 1);
            job.reply.complete(Err(ServeError::Rejected(e)));
            return;
        }
    }

    // Log before apply: once the request mutates roller state it must be
    // recoverable. Whole requests are the WAL unit (atomic with the
    // rejection above — a logged record is always fully applicable), and
    // a stream's records all land in one WAL (`stream % shards`, the
    // same mapping as execution stickiness), so per-stream replay order
    // is the file order. Replayed jobs (`log == false`) are already on
    // disk and are not logged twice.
    if let Some(d) = durable {
        if job.log && (!job.req.events.is_empty() || job.req.flush) {
            let shard = (job.req.stream % d.wals.len() as u64) as usize;
            let payload = persist::encode_request(&job.req);
            match d.wals[shard].append(&payload) {
                Ok(fsync) => {
                    ctx.durable_obs.wal_appends.fetch_add(1, Ordering::Relaxed);
                    recorder.incr("serve.wal.appends", 1);
                    if let Some(took) = fsync {
                        ctx.durable_obs.wal_fsyncs.fetch_add(1, Ordering::Relaxed);
                        recorder.record("serve.wal.fsync_us", took.as_micros() as u64);
                    }
                }
                Err(e) => {
                    recorder.incr("serve.wal.append_errors", 1);
                    job.reply
                        .complete(Err(ServeError::Durability(format!("WAL append: {e}"))));
                    return;
                }
            }
        }
    }

    let roller = rollers.entry(job.req.stream).or_insert_with(|| {
        let r = WindowRoller::new(cfg.universe, cfg.feature_dim, cfg.window);
        let r = if cfg.incremental_planning {
            r.with_incremental_planning()
        } else {
            r
        };
        ShardedRoller::new(r, ctx.router.clone())
    });
    // The lanes keep cumulative routing/seal totals; harvest the delta
    // this job contributes into the shared shard counters afterwards.
    let routed_before: Vec<u64> = roller.routed().to_vec();
    let seal_before = roller.seal_totals();
    let mut windows = Vec::new();
    let mut failed = None;
    for event in &job.req.events {
        match roller.apply(event) {
            Ok(Some(w)) => windows.push(w),
            Ok(None) => {}
            Err(e) => {
                // Unreachable after pre-validation, but a tick error must
                // still produce a typed reply rather than a dead ticket.
                failed = Some(e);
                break;
            }
        }
    }
    if failed.is_none() && job.req.flush {
        match roller.flush() {
            Ok(Some(w)) => windows.push(w),
            Ok(None) => {}
            Err(e) => failed = Some(e),
        }
    }
    for (s, (after, before)) in roller.routed().iter().zip(&routed_before).enumerate() {
        ctx.shard_obs.routed[s].fetch_add(after - before, Ordering::Relaxed);
    }
    let cross_delta = roller.seal_totals().cross_shard_edges - seal_before.cross_shard_edges;
    if cross_delta > 0 {
        ctx.shard_obs
            .cross_shard_edges
            .fetch_add(cross_delta, Ordering::Relaxed);
        recorder.incr("serve.shard.cross_seal_edges", cross_delta);
    }
    if let Some(e) = failed {
        recorder.incr("serve.rejected", 1);
        job.reply.complete(Err(ServeError::Rejected(e)));
        return;
    }

    let accepted_events = job.req.events.len();
    if windows.is_empty() {
        job.reply.complete(Ok(Reply {
            accepted_events,
            windows: Vec::new(),
        }));
        return;
    }

    recorder.incr("serve.windows", windows.len() as u64);
    if let Some(d) = durable {
        d.windows_rolled += windows.len() as u64;
    }
    let pending = Arc::new(Pending {
        remaining: AtomicUsize::new(windows.len()),
        results: Mutex::new(vec![None; windows.len()]),
        reply: job.reply,
        accepted_events,
    });
    // Execution stays sticky per stream (a stream's windows thread RNN
    // state through one EngineSession); the vertex-owner sharding above
    // governs admission routing and seal accounting.
    let shard = (job.req.stream % ctx.queues.len() as u64) as usize;
    for (slot, window) in windows.into_iter().enumerate() {
        let item = WorkItem::Window(WindowItem {
            stream: job.req.stream,
            window,
            skip,
            slot,
            enqueued_at: job.enqueued_at,
            pending: Arc::clone(&pending),
        });
        // Blocking push: worker backlog stalls the batcher, which fills
        // the admission queue, which sheds — backpressure end to end.
        if ctx.queues[shard].push(item).is_err() {
            pending.reply.complete(Err(ServeError::Closed));
            return;
        }
    }
}

struct WorkerCtx<'a> {
    queue: &'a BoundedQueue<WorkItem>,
    engine: &'a ConcurrentEngine,
    cache: &'a PlanCache,
    recorder: &'a Recorder,
    counters: &'a PlanCounters,
    dispatch_obs: &'a DispatchObs,
    ckpt_tx: Option<mpsc::Sender<CkptMsg>>,
    universe: usize,
    window: usize,
    incremental: bool,
}

/// Obtains the plan for one rolled window: the incrementally sealed plan
/// when the roller's maintainer vouched for one, else the shared cache,
/// else a from-scratch build (inserted for the next identical window).
/// `serve.plan_build_us` records the plan work actually done on this
/// window (seal or scratch build; a cache hit does none).
fn obtain_plan(
    ctx: &WorkerCtx<'_>,
    item: &WindowItem,
    planner: &WindowPlanner,
) -> (Arc<WindowPlan>, PlanSource) {
    if let Some(sealed) = &item.window.plan {
        ctx.counters.incremental.fetch_add(1, Ordering::Relaxed);
        ctx.recorder
            .record("serve.plan_build_us", sealed.stats().build_ns / 1_000);
        return (Arc::clone(sealed), PlanSource::Incremental);
    }
    if ctx.incremental {
        // The maintainer was enabled but could not vouch for this window.
        ctx.counters.fallbacks.fetch_add(1, Ordering::Relaxed);
        ctx.recorder.incr("serve.plan_incremental_fallbacks", 1);
    }
    let key = (item.window.graph.fingerprint(), 0, ctx.window);
    if let Some(hit) = ctx.cache.get(&key) {
        ctx.counters.cached.fetch_add(1, Ordering::Relaxed);
        return (hit, PlanSource::Cached);
    }
    let refs: Vec<&_> = item.window.graph.snapshots().iter().collect();
    let plan = Arc::new(planner.plan_window(&refs, 0));
    ctx.counters.scratch.fetch_add(1, Ordering::Relaxed);
    ctx.recorder
        .record("serve.plan_build_us", plan.stats().build_ns / 1_000);
    ctx.cache.insert(key, Arc::clone(&plan));
    (plan, PlanSource::Scratch)
}

/// Ships this worker's half of checkpoint `seq` to the writer thread:
/// every live session's exported state, plus the restored-but-untouched
/// states still parked in `initial` (their streams exist durably even if
/// no window arrived for them since boot).
fn emit_sessions(
    ctx: &WorkerCtx<'_>,
    sessions: &HashMap<u64, EngineSession>,
    initial: &HashMap<u64, EngineState>,
    seq: u64,
) {
    let Some(tx) = &ctx.ckpt_tx else { return };
    let mut parts: Vec<(u64, EngineState)> = sessions
        .iter()
        .map(|(&stream, s)| (stream, s.export_state()))
        .collect();
    parts.extend(initial.iter().map(|(&stream, st)| (stream, st.clone())));
    parts.sort_unstable_by_key(|(stream, _)| *stream);
    let _ = tx.send(CkptMsg::Sessions { seq, parts });
}

fn worker_loop(ctx: WorkerCtx<'_>, mut initial: HashMap<u64, EngineState>) {
    let planner = WindowPlanner::new(ctx.window);
    let mut sessions: HashMap<u64, EngineSession> = HashMap::new();
    while let Some(item) = ctx.queue.pop() {
        match item {
            WorkItem::Window(item) => {
                let (plan, plan_source) = obtain_plan(&ctx, &item, &planner);
                execute_item(&ctx, &mut sessions, &mut initial, item, &plan, plan_source);
            }
            WorkItem::Checkpoint { seq } => emit_sessions(&ctx, &sessions, &initial, seq),
        }
    }
}

/// Executes one window on its stream's session and completes the
/// request when this was its last outstanding window.
fn execute_item(
    ctx: &WorkerCtx<'_>,
    sessions: &mut HashMap<u64, EngineSession>,
    initial: &mut HashMap<u64, EngineState>,
    item: WindowItem,
    plan: &WindowPlan,
    plan_source: PlanSource,
) {
    {
        let session = sessions.entry(item.stream).or_insert_with(|| {
            let mut s = ctx.engine.session(ctx.universe);
            // Lazy restore: a checkpointed stream's RNN state is parked
            // until its first post-recovery window shows up here.
            if let Some(state) = initial.remove(&item.stream) {
                s.import_state(state)
                    .expect("checkpoint session state was exported under this config");
            }
            s
        });
        let refs: Vec<&_> = item.window.graph.snapshots().iter().collect();
        let out = session.process_window_with(&refs, plan, item.skip);

        ctx.dispatch_obs.add(&out.stats);
        let d = &out.stats.dispatch;
        if d.dense > 0 {
            ctx.recorder.incr("serve.kernel.dispatch.dense", d.dense);
        }
        if d.spmm > 0 {
            ctx.recorder.incr("serve.kernel.dispatch.spmm", d.spmm);
        }
        if d.delta_skip > 0 {
            ctx.recorder
                .incr("serve.kernel.dispatch.delta_skip", d.delta_skip);
        }
        ctx.recorder
            .gauge("serve.kernel.input_density", ctx.dispatch_obs.density());

        let latency_us = item.enqueued_at.elapsed().as_micros() as u64;
        ctx.recorder.record("serve.window_latency_us", latency_us);
        let result = WindowResult {
            stream: item.stream,
            seq: item.window.seq,
            snapshots: item.window.graph.num_snapshots(),
            digest: digest_matrices(&out.final_features),
            macs: out.stats.gnn_aggregate_macs + out.stats.gnn_combine_macs + out.stats.rnn_macs,
            skipped_cells: out.stats.skip.skipped,
            plan_source,
            latency_us,
        };

        let pending = item.pending;
        pending.results.lock().unwrap()[item.slot] = Some(result);
        if pending.remaining.fetch_sub(1, Ordering::AcqRel) == 1 {
            let results = std::mem::take(&mut *pending.results.lock().unwrap());
            let windows: Vec<WindowResult> = results
                .into_iter()
                .map(|r| r.expect("every slot filled before the last decrement"))
                .collect();
            ctx.recorder.record("serve.request_latency_us", latency_us);
            pending.reply.complete(Ok(Reply {
                accepted_events: pending.accepted_events,
                windows,
            }));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::events_from_graph;
    use tagnn_graph::generate::GeneratorConfig;

    fn tiny_core(cfg_mut: impl FnOnce(&mut ServeConfig)) -> (ServeCore, tagnn_graph::DynamicGraph) {
        let g = GeneratorConfig::tiny().generate();
        let mut cfg = ServeConfig {
            universe: g.num_vertices(),
            feature_dim: g.feature_dim(),
            window: 3,
            ..ServeConfig::default()
        };
        cfg_mut(&mut cfg);
        (ServeCore::start(cfg), g)
    }

    fn replay(core: &ServeCore, g: &tagnn_graph::DynamicGraph, stream: u64) -> Vec<WindowResult> {
        let per_snapshot = events_from_graph(g);
        let total = per_snapshot.len();
        let mut windows = Vec::new();
        for (i, events) in per_snapshot.into_iter().enumerate() {
            let ticket = core
                .submit(InferRequest {
                    stream,
                    events,
                    flush: i + 1 == total,
                })
                .expect("default queue is deep enough");
            windows.extend(ticket.wait().expect("valid trace").windows);
        }
        windows
    }

    #[test]
    fn serves_a_replayed_stream_end_to_end() {
        let (core, g) = tiny_core(|_| {});
        let windows = replay(&core, &g, 0);
        // 6 snapshots, K=3 → two full windows.
        assert_eq!(windows.len(), 2);
        assert_eq!(windows[0].seq, 0);
        assert_eq!(windows[1].seq, 1);
        assert!(windows.iter().all(|w| w.snapshots == 3));
        assert!(windows.iter().all(|w| w.macs > 0));
        let hist = core.recorder().histogram("serve.window_latency_us");
        assert_eq!(hist.expect("latency recorded").count(), 2);
        core.shutdown();
    }

    #[test]
    fn identical_streams_hit_the_plan_cache() {
        // Incremental planning off: every window goes through the shared
        // cache, so the second stream's plans are all hits.
        let (core, g) = tiny_core(|c| {
            c.shards = 2;
            c.incremental_planning = false;
        });
        let strip = |ws: Vec<WindowResult>| {
            ws.into_iter()
                .map(|w| (w.seq, w.snapshots, w.digest, w.macs, w.skipped_cells))
                .collect::<Vec<_>>()
        };
        let a = strip(replay(&core, &g, 0));
        let b = strip(replay(&core, &g, 1));
        assert_eq!(a, b, "same trace, same results (latency aside)");
        let stats = core.cache_stats();
        assert!(
            stats.hits >= 2,
            "second stream must reuse the first stream's plans, got {stats:?}"
        );
        let counts = core.plan_source_counts();
        assert_eq!(counts.incremental, 0, "maintainer disabled");
        assert_eq!(counts.fallbacks, 0, "fallbacks only count when enabled");
        assert!(counts.cached >= 2, "got {counts:?}");
        core.shutdown();
    }

    #[test]
    fn incremental_planning_serves_identical_results() {
        let strip = |ws: Vec<WindowResult>| {
            ws.into_iter()
                .map(|w| (w.seq, w.snapshots, w.digest, w.macs, w.skipped_cells))
                .collect::<Vec<_>>()
        };
        let (on, g) = tiny_core(|_| {});
        let a = strip(replay(&on, &g, 0));
        let on_counts = on.plan_source_counts();
        on.shutdown();
        let (off, _) = tiny_core(|c| c.incremental_planning = false);
        let b = strip(replay(&off, &g, 0));
        let off_counts = off.plan_source_counts();
        off.shutdown();

        assert_eq!(a, b, "plan path must not change served results");
        // 6 snapshots, K=3 → two windows, both sealed incrementally.
        assert_eq!(on_counts.incremental, 2, "got {on_counts:?}");
        assert_eq!(on_counts.fallbacks, 0, "got {on_counts:?}");
        assert_eq!(on_counts.scratch, 0, "got {on_counts:?}");
        assert_eq!(off_counts.incremental, 0, "got {off_counts:?}");
        assert_eq!(off_counts.scratch, 2, "got {off_counts:?}");
    }

    #[test]
    fn window_results_report_their_plan_source() {
        let (core, g) = tiny_core(|_| {});
        let windows = replay(&core, &g, 0);
        assert!(!windows.is_empty());
        assert!(
            windows
                .iter()
                .all(|w| w.plan_source == PlanSource::Incremental),
            "sealed windows of a fresh stream plan incrementally"
        );
        let hist = core.recorder().histogram("serve.plan_build_us");
        assert_eq!(
            hist.expect("seal latency recorded").count(),
            windows.len() as u64
        );
        core.shutdown();
    }

    #[test]
    fn invalid_event_is_rejected_atomically() {
        let (core, g) = tiny_core(|_| {});
        let bad = InferRequest {
            stream: 0,
            events: vec![
                EdgeEvent::AddEdge { src: 0, dst: 1 },
                EdgeEvent::AddEdge {
                    src: 0,
                    dst: u32::MAX,
                },
            ],
            flush: false,
        };
        match core.submit(bad).unwrap().wait() {
            Err(ServeError::Rejected(_)) => {}
            other => panic!("expected Rejected, got {other:?}"),
        }
        // The stream is untouched: a full replay still yields seq 0, 1.
        let windows = replay(&core, &g, 0);
        assert_eq!(windows.first().map(|w| w.seq), Some(0));
        core.shutdown();
    }

    #[test]
    fn empty_event_request_gets_an_empty_reply() {
        let (core, _) = tiny_core(|_| {});
        let reply = core
            .submit(InferRequest {
                stream: 7,
                events: vec![],
                flush: false,
            })
            .unwrap()
            .wait()
            .unwrap();
        assert_eq!(reply.accepted_events, 0);
        assert!(reply.windows.is_empty());
        core.shutdown();
    }

    #[test]
    fn served_digests_are_shard_count_invariant() {
        let strip = |ws: Vec<WindowResult>| {
            ws.into_iter()
                .map(|w| (w.seq, w.snapshots, w.digest, w.macs, w.skipped_cells))
                .collect::<Vec<_>>()
        };
        let mut reference = None;
        for shards in [1usize, 2, 4] {
            let (core, g) = tiny_core(|c| c.shards = shards);
            let got = strip(replay(&core, &g, 0));
            let stats = core.shard_stats();
            assert_eq!(stats.routed.len(), shards);
            assert_eq!(stats.queue_depths.len(), shards);
            assert!(
                stats.routed.iter().sum::<u64>() > 0,
                "events must be routed somewhere"
            );
            if shards == 1 {
                assert_eq!(stats.cross_shard_edges, 0, "one shard owns everything");
            }
            core.shutdown();
            match &reference {
                None => reference = Some(got),
                Some(r) => assert_eq!(&got, r, "{shards} shards diverged"),
            }
        }
    }

    #[test]
    fn degree_balanced_assignment_serves_identically() {
        let strip = |ws: Vec<WindowResult>| ws.into_iter().map(|w| w.digest).collect::<Vec<_>>();
        let (hash_core, g) = tiny_core(|c| c.shards = 4);
        let a = strip(replay(&hash_core, &g, 0));
        hash_core.shutdown();
        // Degree profile from the trace's final snapshot: assignment
        // policy must not change served bits, only lane balance.
        let degrees: Vec<u64> = (0..g.num_vertices())
            .map(|v| g.snapshots().last().unwrap().neighbors(v as u32).len() as u64)
            .collect();
        let (deg_core, _) = tiny_core(|c| {
            c.shards = 4;
            c.shard_assignment = crate::shard::ShardAssignment::DegreeBalanced;
            c.degree_profile = Some(degrees);
        });
        let b = strip(replay(&deg_core, &g, 0));
        deg_core.shutdown();
        assert_eq!(a, b);
    }

    #[test]
    fn dispatch_mode_changes_counters_but_never_served_bits() {
        use tagnn_tensor::DispatchMode;
        let strip = |ws: Vec<WindowResult>| {
            ws.into_iter()
                .map(|w| (w.seq, w.digest, w.macs))
                .collect::<Vec<_>>()
        };
        let (auto_core, g) = tiny_core(|_| {});
        let a = strip(replay(&auto_core, &g, 0));
        let auto_counts = auto_core.dispatch_counts();
        let auto_density = auto_core.dispatch_density();
        auto_core.shutdown();

        let (dense_core, _) = tiny_core(|c| c.dispatch = DispatchMode::Dense);
        let b = strip(replay(&dense_core, &g, 0));
        let dense_counts = dense_core.dispatch_counts();
        let dense_density = dense_core.dispatch_density();
        dense_core.shutdown();

        assert_eq!(a, b, "dispatch mode must not change served bits");
        assert!(
            auto_counts.total() > 0,
            "auto mode must tally its decisions, got {auto_counts:?}"
        );
        assert!(
            (0.0..=1.0).contains(&auto_density),
            "density is a ratio, got {auto_density}"
        );
        assert_eq!(dense_counts.spmm, 0, "dense mode never SpMMs");
        assert_eq!(dense_density, 1.0, "dense mode measures nothing");
    }

    #[test]
    fn digest_distinguishes_matrices() {
        let a = DenseMatrix::zeros(2, 2);
        let mut b = DenseMatrix::zeros(2, 2);
        b.set(1, 1, 1.0);
        assert_ne!(digest_matrices([&a]), digest_matrices([&b]));
        assert_eq!(digest_matrices([&a]), digest_matrices([&a.clone()]));
    }
}
