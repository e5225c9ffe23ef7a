//! Kill-and-recover differentials: a core stopped mid-stream and
//! restarted from its durability directory must finish the stream with
//! window digests bit-identical to an uninterrupted run — across models,
//! shard counts, and cut points — and corrupted durable state (torn WAL
//! tails, flipped checkpoint bytes, stale tmp files) must degrade to an
//! older checkpoint or a longer replay, never to a panic or wrong bits.

use std::collections::HashMap;
use std::fs::OpenOptions;
use std::io::{Read, Seek, SeekFrom, Write};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};

use tagnn_graph::generate::GeneratorConfig;
use tagnn_graph::DynamicGraph;
use tagnn_models::{ModelKind, SkipConfig};
use tagnn_serve::degrade::DegradationPolicy;
use tagnn_serve::event::events_from_graph;
use tagnn_serve::{DurabilityConfig, InferRequest, ServeConfig, ServeCore};

const WINDOW: usize = 3;

static DIR_SEQ: AtomicU64 = AtomicU64::new(0);

/// A fresh scratch directory, removed on drop.
struct ScratchDir(PathBuf);

impl ScratchDir {
    fn new(tag: &str) -> Self {
        let dir = std::env::temp_dir().join(format!(
            "tagnn-recovery-{}-{}-{}",
            tag,
            std::process::id(),
            DIR_SEQ.fetch_add(1, Ordering::Relaxed)
        ));
        std::fs::create_dir_all(&dir).expect("create scratch dir");
        ScratchDir(dir)
    }
}

impl Drop for ScratchDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn graph() -> DynamicGraph {
    let mut cfg = GeneratorConfig::tiny();
    cfg.num_vertices = 64;
    cfg.num_edges = 256;
    cfg.num_snapshots = 8;
    cfg.generate()
}

fn config(g: &DynamicGraph, model: ModelKind, shards: usize, dir: &ScratchDir) -> ServeConfig {
    let mut d = DurabilityConfig::new(dir.0.clone());
    d.group_commit = 1; // every append durable: no tail loss in-process
    d.checkpoint_every_windows = 2;
    ServeConfig {
        universe: g.num_vertices(),
        feature_dim: g.feature_dim(),
        window: WINDOW,
        model,
        hidden: 10,
        seed: 7,
        shards,
        skip: SkipConfig::paper_default(),
        degradation: DegradationPolicy::disabled(),
        durability: Some(d),
        ..ServeConfig::default()
    }
}

/// The canonical trace as per-stream request sequences: every stream
/// replays the same event groups (last request flushes).
fn requests(g: &DynamicGraph, streams: u64) -> Vec<InferRequest> {
    let groups = events_from_graph(g);
    let last = groups.len() - 1;
    let mut reqs = Vec::new();
    for (i, events) in groups.into_iter().enumerate() {
        for stream in 0..streams {
            reqs.push(InferRequest {
                stream,
                events: events.clone(),
                flush: i == last,
            });
        }
    }
    reqs
}

/// Runs `reqs` through `core`, returning `(stream, seq) -> digest`.
fn serve_all(core: &ServeCore, reqs: &[InferRequest]) -> HashMap<(u64, u64), u64> {
    let mut digests = HashMap::new();
    for req in reqs {
        let reply = core
            .submit(req.clone())
            .expect("admitted")
            .wait()
            .expect("served");
        for w in reply.windows {
            assert!(
                digests.insert((w.stream, w.seq), w.digest).is_none(),
                "window (stream {}, seq {}) served twice",
                w.stream,
                w.seq
            );
        }
    }
    digests
}

/// The core differential: serve a prefix, stop, restart from the same
/// durability dir, serve the suffix; the union of digests must equal an
/// uninterrupted run's bit for bit.
fn kill_and_recover(model: ModelKind, shards: usize, cut: usize) {
    let g = graph();
    let streams = shards as u64;
    let reqs = requests(&g, streams);
    assert!(cut < reqs.len(), "cut {cut} out of range {}", reqs.len());

    let baseline_dir = ScratchDir::new("base");
    let baseline = {
        let core = ServeCore::start(config(&g, model, shards, &baseline_dir));
        let d = serve_all(&core, &reqs);
        core.shutdown();
        d
    };

    let dir = ScratchDir::new("cut");
    let mut resumed = {
        let core = ServeCore::start(config(&g, model, shards, &dir));
        let d = serve_all(&core, &reqs[..cut]);
        core.shutdown();
        d
    };
    let core = ServeCore::start(config(&g, model, shards, &dir));
    let report = core.recovery_report().expect("durability was on").clone();
    // Replay must cover exactly the WAL suffix past the last checkpoint;
    // the resume cursor tells the client where to continue.
    let expect_ticks: HashMap<u64, u64> = reqs[..cut]
        .iter()
        .map(|r| {
            (
                r.stream,
                r.events
                    .iter()
                    .filter(|e| matches!(e, tagnn_serve::EdgeEvent::Tick))
                    .count() as u64,
            )
        })
        .fold(HashMap::new(), |mut acc, (s, t)| {
            *acc.entry(s).or_insert(0) += t;
            acc
        });
    for (stream, ticks) in &report.resume_ticks {
        assert_eq!(
            expect_ticks.get(stream),
            Some(ticks),
            "resume cursor for stream {stream} (model {model:?}, shards {shards}, cut {cut})"
        );
    }
    for w in serve_all(&core, &reqs[cut..]) {
        assert!(
            resumed.insert(w.0, w.1).is_none(),
            "window {:?} re-served",
            w.0
        );
    }
    core.shutdown();

    assert_eq!(
        resumed, baseline,
        "recovered digests diverge (model {model:?}, shards {shards}, cut {cut})"
    );
}

#[test]
fn kill_and_recover_across_cut_points() {
    // Early cut (before the first checkpoint), mid-stream cut, and a
    // late cut (checkpoint + short replay) on the reference config.
    for cut in [1, 5, 11] {
        kill_and_recover(ModelKind::TGcn, 2, cut);
    }
}

#[test]
fn kill_and_recover_across_models_and_shards() {
    for model in [ModelKind::CdGcn, ModelKind::GcLstm, ModelKind::TGcn] {
        for shards in [1usize, 2, 4] {
            kill_and_recover(model, shards, 5);
        }
    }
}

#[test]
fn restart_with_no_prior_state_is_a_cold_start() {
    let g = graph();
    let dir = ScratchDir::new("cold");
    let core = ServeCore::start(config(&g, ModelKind::TGcn, 1, &dir));
    let report = core.recovery_report().expect("durability on");
    assert_eq!(report.checkpoint_seq, None);
    assert_eq!(report.replayed_requests, 0);
    assert_eq!(report.truncated_tail_bytes, 0);
    let digests = serve_all(&core, &requests(&g, 1));
    assert!(!digests.is_empty());
    core.shutdown();
}

#[test]
fn torn_wal_tail_is_truncated_not_fatal() {
    let g = graph();
    let reqs = requests(&g, 1);
    let dir = ScratchDir::new("torn");
    {
        let core = ServeCore::start(config(&g, ModelKind::TGcn, 1, &dir));
        serve_all(&core, &reqs[..4]);
        core.shutdown();
    }
    // Simulate a crash mid-append: garbage half-record at the tail.
    let wal = dir.0.join("wal-0.log");
    let mut f = OpenOptions::new()
        .append(true)
        .open(&wal)
        .expect("open wal");
    f.write_all(&[0x55; 7]).expect("append torn tail");
    drop(f);

    let core = ServeCore::start(config(&g, ModelKind::TGcn, 1, &dir));
    let report = core.recovery_report().expect("durability on");
    assert_eq!(report.truncated_tail_bytes, 7, "torn tail measured");
    // The stream still finishes, and durable stats expose the truncation.
    assert!(core.durable_stats().truncated_tail_bytes == 7);
    serve_all(&core, &reqs[4..]);
    core.shutdown();
}

#[test]
fn corrupt_newest_checkpoint_falls_back_to_an_older_one() {
    let g = graph();
    let reqs = requests(&g, 1);
    let dir = ScratchDir::new("ckptflip");
    let baseline = {
        let base = ScratchDir::new("ckptflip-base");
        let core = ServeCore::start(config(&g, ModelKind::TGcn, 1, &base));
        let d = serve_all(&core, &reqs);
        core.shutdown();
        d
    };
    let mut resumed = {
        let mut cfg = config(&g, ModelKind::TGcn, 1, &dir);
        // Cadence 1 with keep 2: several checkpoints on disk at the cut.
        if let Some(d) = &mut cfg.durability {
            d.checkpoint_every_windows = 1;
        }
        let core = ServeCore::start(cfg);
        // A checkpoint that comes due while the previous one is still
        // being written is skipped, and the writer runs behind the
        // replies: let each one land before the next window rolls.
        let mut d = HashMap::new();
        for req in &reqs[..6] {
            d.extend(serve_all(&core, std::slice::from_ref(req)));
            let limit = std::time::Instant::now() + std::time::Duration::from_secs(30);
            while core.durable_stats().checkpoints_written < d.len() as u64 {
                assert!(std::time::Instant::now() < limit, "checkpoint never landed");
                std::thread::sleep(std::time::Duration::from_millis(1));
            }
        }
        core.shutdown();
        d
    };
    let mut ckpts: Vec<PathBuf> = std::fs::read_dir(&dir.0)
        .expect("read dir")
        .filter_map(|e| {
            let p = e.expect("entry").path();
            let name = p.file_name().and_then(|n| n.to_str()).unwrap_or("");
            (name.starts_with("ckpt-") && name.ends_with(".bin")).then_some(p)
        })
        .collect();
    ckpts.sort();
    assert!(
        ckpts.len() >= 2,
        "expected at least two checkpoints on disk"
    );
    // Flip one payload byte in the newest checkpoint: its CRC fails and
    // recovery must fall back to the older one with a longer replay.
    let newest = ckpts.last().expect("newest");
    let mut f = OpenOptions::new()
        .read(true)
        .write(true)
        .open(newest)
        .expect("open ckpt");
    let mut byte = [0u8; 1];
    f.seek(SeekFrom::Start(32)).expect("seek");
    f.read_exact(&mut byte).expect("read");
    byte[0] ^= 0xFF;
    f.seek(SeekFrom::Start(32)).expect("seek back");
    f.write_all(&byte).expect("flip");
    drop(f);

    let mut cfg = config(&g, ModelKind::TGcn, 1, &dir);
    if let Some(d) = &mut cfg.durability {
        d.checkpoint_every_windows = 1;
    }
    let core = ServeCore::start(cfg);
    for w in serve_all(&core, &reqs[6..]) {
        resumed.insert(w.0, w.1);
    }
    core.shutdown();
    assert_eq!(resumed, baseline, "fallback recovery diverged");
}

#[test]
fn stale_tmp_checkpoint_is_ignored() {
    let g = graph();
    let reqs = requests(&g, 1);
    let dir = ScratchDir::new("staletmp");
    {
        let core = ServeCore::start(config(&g, ModelKind::TGcn, 1, &dir));
        serve_all(&core, &reqs[..4]);
        core.shutdown();
    }
    // A crash between tmp write and rename leaves this behind.
    std::fs::write(dir.0.join("ckpt-00000000000000ff.bin.tmp"), b"half-written")
        .expect("plant stale tmp");
    let core = ServeCore::start(config(&g, ModelKind::TGcn, 1, &dir));
    serve_all(&core, &reqs[4..]);
    core.shutdown();
}

/// `(stream, seq, digest)` of `windows`, in the order given.
fn keys(windows: &[tagnn_serve::WindowResult]) -> Vec<(u64, u64, u64)> {
    windows
        .iter()
        .map(|w| (w.stream, w.seq, w.digest))
        .collect()
}

/// Recovery pipelines the WAL suffix with `queue_capacity` requests in
/// flight. A suffix several times that long must replay completely, in
/// log order, without admission shedding or rejecting a record — and
/// the backlog is recovery's own, so it must neither widen the skip
/// band (the default degradation policy is left on, and `max_batch = 1`
/// keeps the backlog above its watermark) nor cut a checkpoint halfway
/// (its WAL offsets would cover records the rollers have not seen: a
/// second restart, here with nothing served in between, would lose
/// them).
#[test]
fn long_wal_suffix_replays_pipelined_in_order() {
    let g = graph();
    let reqs = requests(&g, 6);
    let cut = reqs.len() - 8;
    let config_with = |dir: &ScratchDir, checkpoint_every_windows: u64| {
        let mut cfg = config(&g, ModelKind::TGcn, 2, dir);
        cfg.queue_capacity = 12;
        cfg.max_batch = 1;
        cfg.degradation = DegradationPolicy::default();
        if let Some(d) = &mut cfg.durability {
            d.checkpoint_every_windows = checkpoint_every_windows;
        }
        cfg
    };
    assert!(cut > 2 * 12, "the suffix must outrun the admission queue");

    let baseline_dir = ScratchDir::new("long-base");
    let baseline = {
        let core = ServeCore::start(config_with(&baseline_dir, u64::MAX));
        let d = serve_all(&core, &reqs);
        core.shutdown();
        d
    };

    // No checkpoint in the first life: the whole log is the suffix.
    let dir = ScratchDir::new("long");
    let served_in_order = {
        let core = ServeCore::start(config_with(&dir, u64::MAX));
        let mut windows = Vec::new();
        for req in &reqs[..cut] {
            let reply = core.submit(req.clone()).unwrap().wait().unwrap();
            windows.extend(reply.windows);
        }
        core.shutdown();
        keys(&windows)
    };
    // Replay order is log order: shard 0's WAL, then shard 1's.
    let log_order: Vec<(u64, u64, u64)> = (0..2)
        .flat_map(|shard| served_in_order.iter().filter(move |w| w.0 % 2 == shard))
        .copied()
        .collect();

    // Two restarts back to back, now with a cadence short enough that a
    // checkpoint comes due several times within the replay.
    for life in 0..2 {
        let core = ServeCore::start(config_with(&dir, 2));
        let report = core.recovery_report().expect("durability on");
        assert_eq!(report.replayed_requests, cut as u64, "life {life}");
        assert_eq!(
            keys(&report.replayed_windows),
            log_order,
            "life {life}: replay must re-serve the logged windows in log order"
        );
        let counters = core.recorder().snapshot().counters;
        assert_eq!(counters.get("serve.recovery.rejected_requests"), None);
        assert_eq!(core.shed_count(), 0, "replay must never be shed");
        assert_eq!(core.max_degrade_level(), 0, "replay must not degrade");
        if life == 0 {
            core.shutdown();
            continue;
        }
        let mut resumed: HashMap<(u64, u64), u64> = served_in_order
            .iter()
            .map(|&(stream, seq, digest)| ((stream, seq), digest))
            .collect();
        resumed.extend(serve_all(&core, &reqs[cut..]));
        core.shutdown();
        assert_eq!(resumed, baseline, "recovered digests diverge");
    }
}
