//! The serving workloads: an in-process TCP server, long-lived streams
//! bootstrapped during set-up, then an open-loop phase (latency) and a
//! closed-loop phase (throughput), and — with durability on — a restart
//! on the same directory.
//!
//! Generator hygiene: every frame is encoded during set-up; open-loop
//! requests are timed from their *due* time, so a stall charges the
//! requests queued behind it; latencies are raw nanosecond samples;
//! replies are classified as bootstrap / ingest (no window sealed) /
//! window; and the generator's own lateness is reported beside them.
//! Each connection has one generator thread; a second thread per
//! connection only blocks in `read` and timestamps replies.

use std::io::{self, Write};
use std::net::TcpStream;
use std::path::{Path, PathBuf};
use std::sync::{mpsc, Barrier};
use std::time::{Duration, Instant};

use tagnn_graph::{DynamicGraph, Snapshot, WindowPlanner};
use tagnn_models::ModelKind;
use tagnn_serve::binwire::{self, FrameReader};
use tagnn_serve::{
    digest_matrices, events_from_graph, DegradationPolicy, DurabilityConfig, EdgeEvent,
    InferRequest, ServeConfig, ServeCore, Server, WindowRoller, WireFormat,
};

use crate::layers::{self, EngineCfg};
use crate::report::{self, Metrics, Outcome};
use crate::spec::{self, ServeSpec};
use crate::stats;

/// Request id on the wire: stream in the high half, tick in the low.
pub fn request_id(stream: usize, tick: usize) -> u64 {
    (stream as u64) << 32 | tick as u64
}

/// Everything generated from the seed: per-seed event traces and every
/// request frame, encoded once. The graphs themselves are dropped as
/// soon as their events are derived (hundreds of full snapshots per
/// seed would otherwise dominate the process's peak memory).
pub struct Traffic {
    /// `events[seed_slot][tick]`: the per-tick delta, sealed by a tick.
    pub events: Vec<Vec<Vec<EdgeEvent>>>,
    /// `frames[stream][tick]`: the encoded infer request.
    pub frames: Vec<Vec<Vec<u8>>>,
}

impl Traffic {
    /// Seed slot of `stream`.
    pub fn slot(&self, stream: usize) -> usize {
        stream % self.events.len()
    }
}

/// The graph of seed slot `slot`: what its streams replay.
pub fn stream_graph(spec: &ServeSpec, seed: u64, slot: usize, ticks: Ticks) -> DynamicGraph {
    let mut cfg = spec.graph.clone();
    cfg.num_snapshots = ticks.total();
    cfg.seed = spec::mix_seed(cfg.seed, seed, slot as u64 + 1);
    cfg.generate()
}

/// The tick schedule of one run. Every stream sends one tick per
/// *round*: rounds `1..=open` are phase A, the next `closed` are phase
/// B, the last `tail` are served after the restart. Set-up bootstraps
/// stream `j` with its ticks `0..=j % window`, which staggers the
/// streams' window boundaries: every round, one stream in `window`
/// seals a window, instead of all of them in every `window`-th round.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Ticks {
    /// Window size K.
    pub window: usize,
    /// Phase A rounds.
    pub open: usize,
    /// Phase B rounds.
    pub closed: usize,
    /// Post-restart rounds.
    pub tail: usize,
}

impl Ticks {
    /// The schedule of `spec` for a run of `seconds`.
    pub fn of(spec: &ServeSpec, seconds: f64) -> Self {
        Self {
            window: spec.window,
            open: spec.open_ticks(seconds),
            closed: spec.closed_ticks(seconds),
            tail: spec.tail_ticks,
        }
    }

    /// Last tick of `stream` sent during set-up.
    pub fn offset(&self, stream: usize) -> usize {
        stream % self.window
    }

    /// The tick `stream` sends in `round` (1-based).
    pub fn tick_at(&self, stream: usize, round: usize) -> usize {
        self.offset(stream) + round
    }

    /// Whether the request carrying `tick` seals a window.
    pub fn seals(&self, tick: usize) -> bool {
        (tick + 1).is_multiple_of(self.window)
    }

    /// Snapshots each stream's graph needs.
    pub fn total(&self) -> usize {
        self.window + self.open + self.closed + self.tail
    }
}

fn generate(spec: &ServeSpec, seed: u64, ticks: Ticks) -> Traffic {
    let events: Vec<Vec<Vec<EdgeEvent>>> = (0..spec.distinct_seeds)
        .map(|slot| events_from_graph(&stream_graph(spec, seed, slot, ticks)))
        .collect();
    let frames = (0..spec.streams)
        .map(|stream| {
            events[stream % spec.distinct_seeds]
                .iter()
                .enumerate()
                .map(|(tick, ev)| {
                    let mut frame = Vec::new();
                    binwire::encode_infer(
                        &mut frame,
                        request_id(stream, tick),
                        stream as u64,
                        ev,
                        false,
                    );
                    frame
                })
                .collect()
        })
        .collect();
    Traffic { events, frames }
}

/// Admission-queue capacity the benchmark boots the core with: more
/// than a run ever has outstanding, so the queue cannot fill. A host
/// stall then shows up as latency instead of shedding a request — after
/// which the stream has lost a tick and every later digest of it
/// differs from the reference. (After a stall the frontend submits
/// everything its socket buffers hold at once; a run with the default
/// 256, and one with 1 024, were lost this way during calibration.)
pub const ADMISSION_CAPACITY: usize = 1 << 20;

/// The server configuration of `spec`: `ServeConfig::default()` (two
/// shards, incremental planning, default batching) at the stream shape,
/// plus durability where the workload has it, with the admission queue
/// sized so it cannot shed (see [`ADMISSION_CAPACITY`]).
///
/// Backlog-driven degradation is pinned off: on a shared host one
/// scheduling or fsync stall queues enough requests to widen the skip
/// band, after which every digest of the stream legitimately differs
/// from the offline reference — the bit-identity gate would then report
/// a property of the host, not of the code.
pub fn serve_config(spec: &ServeSpec, durable_dir: Option<&Path>) -> ServeConfig {
    ServeConfig {
        universe: spec.graph.num_vertices,
        feature_dim: spec.graph.feature_dim,
        window: spec.window,
        model: ModelKind::TGcn,
        hidden: spec.hidden,
        seed: spec::MODEL_SEED,
        queue_capacity: ADMISSION_CAPACITY,
        degradation: DegradationPolicy::disabled(),
        durability: spec
            .checkpoint_every_windows
            .zip(durable_dir)
            .map(|(every, dir)| {
                let mut d = DurabilityConfig::new(dir);
                d.group_commit = 8;
                d.checkpoint_every_windows = every;
                d
            }),
        ..ServeConfig::default()
    }
}

/// A booted server with its streams bootstrapped.
pub struct Instance {
    /// The server under test.
    pub server: Server,
    /// Client connections with their frame readers; stream `j` lives on
    /// connection `j % connections`.
    pub conns: Vec<(TcpStream, FrameReader)>,
    /// The generated traffic.
    pub traffic: Traffic,
    /// The configuration the core was booted with.
    pub config: ServeConfig,
    /// Mean bootstrap time per stream, milliseconds.
    pub bootstrap_ms_per_stream: f64,
    /// Requests sent while bootstrapping.
    pub bootstrap_requests: u64,
    /// Bootstrap requests that did not come back as a clean reply.
    pub bootstrap_failed: u64,
    /// `(stream, window seq, digest)` of the windows sealed while
    /// bootstrapping, to be checked once the reference exists.
    pub bootstrap_windows: Vec<(usize, u64, u64)>,
}

impl Instance {
    /// Bootstrap failures: unclean replies plus sealed windows whose
    /// digest differs from `reference`.
    pub fn bootstrap_failures(&self, reference: &[Vec<u64>]) -> u64 {
        let bad_digests = self
            .bootstrap_windows
            .iter()
            .filter(|&&(stream, seq, digest)| {
                reference[self.traffic.slot(stream)].get(seq as usize) != Some(&digest)
            })
            .count();
        self.bootstrap_failed + bad_digests as u64
    }
}

pub(crate) fn io_err(msg: impl Into<String>) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg.into())
}

/// Set-up: generate graphs, encode frames, boot the server, connect,
/// and bootstrap every stream (its tick-0 request carries the whole
/// first snapshot; see [`Ticks`] for the staggering ticks after it).
pub fn set_up(
    spec: &ServeSpec,
    seed: u64,
    ticks: Ticks,
    durable_dir: Option<&Path>,
) -> io::Result<Instance> {
    let traffic = generate(spec, seed, ticks);
    let config = serve_config(spec, durable_dir);
    let server = Server::bind_with(
        ServeCore::start(config.clone()),
        "127.0.0.1:0",
        WireFormat::Binary,
    )?;
    let mut conns = Vec::with_capacity(spec.connections);
    for _ in 0..spec.connections {
        let stream = TcpStream::connect(server.local_addr())?;
        stream.set_nodelay(true)?;
        conns.push((stream, FrameReader::new()));
    }
    let started = Instant::now();
    let (mut bootstrap_requests, mut bootstrap_failed) = (0, 0);
    let mut bootstrap_windows = Vec::new();
    for stream in 0..spec.streams {
        let (sock, reader) = &mut conns[stream % spec.connections];
        for tick in 0..=ticks.offset(stream) {
            sock.write_all(&traffic.frames[stream][tick])?;
            let (kind, id, body) = reader
                .read_frame(sock)?
                .ok_or_else(|| io_err("server hung up during bootstrap"))?;
            bootstrap_requests += 1;
            let reply = (kind == binwire::kind::INFER_REPLY && id == request_id(stream, tick))
                .then(|| binwire::decode_reply(&body).ok())
                .flatten()
                .filter(|r| r.windows.len() == usize::from(ticks.seals(tick)));
            match reply {
                Some(r) => {
                    bootstrap_windows.extend(r.windows.iter().map(|w| (stream, w.seq, w.digest)))
                }
                None => bootstrap_failed += 1,
            }
        }
    }
    let bootstrap_ms_per_stream =
        started.elapsed().as_secs_f64() * 1e3 / spec.streams.max(1) as f64;
    Ok(Instance {
        server,
        conns,
        traffic,
        config,
        bootstrap_ms_per_stream,
        bootstrap_requests,
        bootstrap_failed,
        bootstrap_windows,
    })
}

/// Offline reference: `digests[seed_slot][window]`, computed once per
/// distinct seed with no server involved — the seed's events go through
/// a plain `WindowRoller`, every rolled window is planned from scratch
/// and executed on one `EngineSession`. Streams sharing a seed are all
/// checked against the same sequence, so they must also agree with each
/// other.
pub fn reference_digests(spec: &ServeSpec, traffic: &Traffic) -> Vec<Vec<u64>> {
    let engine = engine_cfg(spec).engine(spec.graph.feature_dim);
    let planner = WindowPlanner::new(spec.window);
    traffic
        .events
        .iter()
        .map(|ticks| {
            let universe = spec.graph.num_vertices;
            let mut roller = WindowRoller::new(universe, spec.graph.feature_dim, spec.window);
            let mut session = engine.session(universe);
            let mut digests = Vec::new();
            for event in ticks.iter().flatten() {
                let rolled = roller.apply(event).expect("generated events are valid");
                if let Some(w) = rolled {
                    let refs: Vec<&Snapshot> = w.graph.snapshots().iter().collect();
                    let out = session.process_window(&refs, &planner.plan_window(&refs, 0));
                    digests.push(digest_matrices(&out.final_features));
                }
            }
            digests
        })
        .collect()
}

/// The engine behind the served model.
pub fn engine_cfg(spec: &ServeSpec) -> EngineCfg {
    EngineCfg {
        model: ModelKind::TGcn,
        hidden: spec.hidden,
        window: spec.window,
    }
}

/// How one reply came back.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Status {
    /// An infer reply carrying this many windows.
    Ok(usize),
    /// Shed with the `overloaded` code.
    Shed,
    /// Any other error frame, a reply out of order, or undecodable.
    Error,
}

/// What a reader thread saw, in reply order.
#[derive(Default)]
struct ReaderLog {
    /// Receive time of each reply, nanoseconds since the epoch.
    recv_ns: Vec<u64>,
    status: Vec<Status>,
    /// `(reply index, stream, window seq, digest)` of every window.
    windows: Vec<(usize, u64, u64, u64)>,
}

/// One request of a connection's schedule.
#[derive(Debug, Clone, Copy)]
struct Planned {
    stream: usize,
    tick: usize,
    /// Phase A: nanoseconds after the phase start the request is due.
    due_offset_ns: u64,
}

/// What a generator thread did.
#[derive(Default)]
struct SenderLog {
    /// Phase A start, nanoseconds since the epoch.
    open_start_ns: u64,
    /// Phase B start (after the barrier), nanoseconds since the epoch.
    closed_start_ns: u64,
    /// How late each phase A request left, nanoseconds.
    lag_ns: Vec<u64>,
    /// Admission-queue depth seen at each phase A send (traced run).
    depths: Vec<usize>,
    /// Requests written to the socket.
    sent: usize,
}

/// Why requests of the live phases failed, by cause.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Failures {
    /// Never answered: I/O error or the server hung up.
    pub unanswered: u64,
    /// Shed with the `overloaded` code.
    pub shed: u64,
    /// Another error frame, a reply out of order, or undecodable.
    pub errors: u64,
    /// A clean reply carrying the wrong number of windows.
    pub wrong_windows: u64,
    /// A window digest different from the offline reference.
    pub bad_digest: u64,
    /// Answered later than [`spec::REPLY_DEADLINE_NS`] (phase A).
    pub late: u64,
}

impl Failures {
    /// All failed requests.
    pub fn total(&self) -> u64 {
        self.unanswered + self.shed + self.errors + self.wrong_windows + self.bad_digest + self.late
    }
}

/// Client-side results of the two live phases.
pub struct LiveResult {
    /// Requests planned over both phases.
    pub requests: u64,
    /// Requests that failed, by cause.
    pub failures: Failures,
    /// `(due time, latency)` in ns of every phase A request that sealed
    /// a window, for the time-sliced quantiles.
    pub window_at: Vec<(u64, u64)>,
    /// Sorted phase A latencies of requests sealing no window, ns.
    pub ingest_ns: Vec<u64>,
    /// Phase A interval `[start, end)` of due times, ns since epoch.
    pub open_span: (u64, u64),
    /// Phase B throughput in windows per second: the upper quartile
    /// over [`CLOSED_CHUNKS`] equal-count chunks of the completion
    /// sequence.
    pub closed_windows_per_s: f64,
    /// Sorted generator lateness samples, ns.
    pub lag_ns: Vec<u64>,
    /// Admission-queue depths polled at phase A sends (traced run).
    pub depths: Vec<usize>,
}

impl LiveResult {
    /// The time-sliced `q` quantile of the window latencies, in ns (see
    /// [`stats::sliced_quantile`]).
    pub fn window_latency_ns(&self, spec: &ServeSpec, q: f64) -> f64 {
        let (from, until) = self.open_span;
        stats::sliced_quantile(&self.window_at, from, until, spec.latency_slices, q)
    }
}

fn sleep_until(epoch: Instant, at_ns: u64) {
    let now = epoch.elapsed().as_nanos() as u64;
    if at_ns > now {
        std::thread::sleep(Duration::from_nanos(at_ns - now));
    }
}

fn read_replies(
    mut sock: TcpStream,
    mut frames: FrameReader,
    plan: &[Planned],
    epoch: Instant,
    tokens: mpsc::Sender<()>,
) -> ReaderLog {
    let mut log = ReaderLog::default();
    for (k, p) in plan.iter().enumerate() {
        let Ok(Some((kind, id, body))) = frames.read_frame(&mut sock) else {
            break;
        };
        log.recv_ns.push(epoch.elapsed().as_nanos() as u64);
        let status = match kind {
            binwire::kind::INFER_REPLY if id == request_id(p.stream, p.tick) => {
                match binwire::decode_reply(&body) {
                    Ok(reply) => {
                        for w in &reply.windows {
                            log.windows.push((k, w.stream, w.seq, w.digest));
                        }
                        Status::Ok(reply.windows.len())
                    }
                    Err(_) => Status::Error,
                }
            }
            binwire::kind::ERROR => match binwire::decode_error(&body) {
                Ok((code, _)) if code == "overloaded" => Status::Shed,
                _ => Status::Error,
            },
            _ => Status::Error,
        };
        log.status.push(status);
        // The generator may already have given up; nothing to do then.
        let _ = tokens.send(());
    }
    log
}

#[allow(clippy::too_many_arguments)]
fn send_requests(
    mut sock: TcpStream,
    frames: &[Vec<Vec<u8>>],
    open: &[Planned],
    closed: &[Planned],
    inflight: usize,
    epoch: Instant,
    tokens: mpsc::Receiver<()>,
    barrier: &Barrier,
    core: Option<&ServeCore>,
) -> SenderLog {
    let mut log = SenderLog::default();
    barrier.wait();
    log.open_start_ns = epoch.elapsed().as_nanos() as u64 + 1_000_000;
    let mut alive = true;
    for p in open {
        let due = log.open_start_ns + p.due_offset_ns;
        sleep_until(epoch, due);
        if let Some(core) = core {
            log.depths.push(core.queue_depth());
        }
        let now = epoch.elapsed().as_nanos() as u64;
        log.lag_ns.push(now.saturating_sub(due));
        if sock.write_all(&frames[p.stream][p.tick]).is_err() {
            alive = false;
            break;
        }
        log.sent += 1;
    }
    // Drain phase A before the closed loop starts, so phase B's wall
    // time covers phase B's requests only.
    for _ in 0..log.sent {
        if tokens.recv().is_err() {
            alive = false;
            break;
        }
    }
    barrier.wait();
    log.closed_start_ns = epoch.elapsed().as_nanos() as u64;
    let mut credits = inflight;
    for p in closed {
        if !alive {
            break;
        }
        if credits == 0 {
            if tokens.recv().is_err() {
                break;
            }
        } else {
            credits -= 1;
        }
        if sock.write_all(&frames[p.stream][p.tick]).is_err() {
            break;
        }
        log.sent += 1;
    }
    log
}

/// Runs phase A (open loop, fixed schedule) and phase B (closed loop,
/// fixed in-flight count) against a set-up instance and checks every
/// reply against the reference digests. `probe` polls the admission
/// queue at every phase A send (traced run only).
pub fn drive(
    spec: &ServeSpec,
    inst: &mut Instance,
    ticks: Ticks,
    reference: &[Vec<u64>],
    probe: bool,
) -> LiveResult {
    let conns = spec.connections;
    let interval_ns = (1e9 / spec.open_rate_per_s) as u64;
    let mut open: Vec<Vec<Planned>> = vec![Vec::new(); conns];
    let mut closed: Vec<Vec<Planned>> = vec![Vec::new(); conns];
    let mut global = 0u64;
    for round in 1..=ticks.open + ticks.closed {
        for stream in 0..spec.streams {
            let plan = if round <= ticks.open {
                &mut open
            } else {
                &mut closed
            };
            plan[stream % conns].push(Planned {
                stream,
                tick: ticks.tick_at(stream, round),
                due_offset_ns: global * interval_ns,
            });
            global += 1;
        }
    }
    let open_requests = (ticks.open * spec.streams) as u64;
    let plans: Vec<Vec<Planned>> = (0..conns)
        .map(|c| open[c].iter().chain(&closed[c]).copied().collect())
        .collect();

    let epoch = Instant::now();
    let barrier = Barrier::new(conns);
    let frames = &inst.traffic.frames;
    let core = probe.then(|| inst.server.core());
    let socks: Vec<(TcpStream, FrameReader)> = std::mem::take(&mut inst.conns);
    let logs: Vec<(SenderLog, ReaderLog)> = std::thread::scope(|scope| {
        let handles: Vec<_> = socks
            .into_iter()
            .enumerate()
            .map(|(c, (sock, reader))| {
                let (tx, rx) = mpsc::channel();
                let read_sock = sock.try_clone().expect("clone a connected socket");
                let plan = &plans[c];
                let r = scope.spawn(move || read_replies(read_sock, reader, plan, epoch, tx));
                let (open, closed, barrier) = (&open[c], &closed[c], &barrier);
                let inflight = spec.inflight_per_connection;
                let s = scope.spawn(move || {
                    send_requests(
                        sock, frames, open, closed, inflight, epoch, rx, barrier, core,
                    )
                });
                (s, r)
            })
            .collect();
        handles
            .into_iter()
            .map(|(s, r)| {
                let sender = s.join().expect("generator thread panicked");
                let reader = r.join().expect("reader thread panicked");
                (sender, reader)
            })
            .collect()
    });

    let mut res = LiveResult {
        requests: global,
        failures: Failures::default(),
        window_at: Vec::new(),
        ingest_ns: Vec::new(),
        open_span: (0, 0),
        closed_windows_per_s: 0.0,
        lag_ns: Vec::new(),
        depths: Vec::new(),
    };
    let open_start = logs.iter().map(|(s, _)| s.open_start_ns).min().unwrap_or(0);
    res.open_span = (open_start, open_start + open_requests * interval_ns);
    let closed_start = logs
        .iter()
        .map(|(s, _)| s.closed_start_ns)
        .min()
        .unwrap_or(0);
    // `(receive time, windows sealed)` of every good phase B reply.
    let mut closed_done: Vec<(u64, u64)> = Vec::new();
    for (c, (sender, reader)) in logs.iter().enumerate() {
        res.lag_ns.extend(&sender.lag_ns);
        res.depths.extend(&sender.depths);
        // Digest check: every window a reply carries must match the
        // reference of its stream's seed.
        let mut bad_window = vec![false; plans[c].len()];
        for &(k, stream, seq, digest) in &reader.windows {
            let slot = inst.traffic.slot(stream as usize);
            let matches = stream as usize == plans[c][k].stream
                && reference[slot].get(seq as usize) == Some(&digest);
            if !matches {
                bad_window[k] = true;
            }
        }
        for (k, p) in plans[c].iter().enumerate() {
            let seals = ticks.seals(p.tick);
            let failures = &mut res.failures;
            let cause = match reader.status.get(k) {
                None => Some(&mut failures.unanswered),
                Some(Status::Shed) => Some(&mut failures.shed),
                Some(Status::Error) => Some(&mut failures.errors),
                Some(&Status::Ok(n)) if n != usize::from(seals) => {
                    Some(&mut failures.wrong_windows)
                }
                Some(Status::Ok(_)) if bad_window[k] => Some(&mut failures.bad_digest),
                Some(Status::Ok(_)) => None,
            };
            if let Some(count) = cause {
                *count += 1;
                continue;
            }
            if k >= open[c].len() {
                closed_done.push((reader.recv_ns[k], u64::from(seals)));
                continue;
            }
            // Open loop: the clock starts when the request was due.
            let due = sender.open_start_ns + p.due_offset_ns;
            let latency = reader.recv_ns[k].saturating_sub(due);
            if latency > spec::REPLY_DEADLINE_NS {
                res.failures.late += 1;
            } else if seals {
                res.window_at.push((due, latency));
            } else {
                res.ingest_ns.push(latency);
            }
        }
    }
    res.ingest_ns.sort_unstable();
    res.lag_ns.sort_unstable();
    res.closed_windows_per_s = chunked_rate(&mut closed_done, closed_start);
    res
}

/// Chunks the closed loop's completion sequence is cut into.
pub const CLOSED_CHUNKS: usize = 9;

/// Upper-quartile per-chunk rate (units per second) of a completion
/// sequence `(time_ns, units)` that started at `start_ns`: the sequence
/// is cut into [`CLOSED_CHUNKS`] equal-count chunks, so a stall slows
/// the chunks it falls in instead of the reported throughput.
pub fn chunked_rate(done: &mut [(u64, u64)], start_ns: u64) -> f64 {
    done.sort_unstable();
    let per_chunk = done.len().div_ceil(CLOSED_CHUNKS).max(1);
    let mut from_ns = start_ns;
    let mut rates: Vec<f64> = Vec::new();
    for chunk in done.chunks(per_chunk) {
        let until_ns = chunk.last().map_or(from_ns, |&(at, _)| at);
        let units: u64 = chunk.iter().map(|&(_, n)| n).sum();
        if until_ns > from_ns {
            rates.push(units as f64 * 1e9 / (until_ns - from_ns) as f64);
        }
        from_ns = until_ns;
    }
    stats::upper_quartile(&mut rates)
}

/// Post-restart service: the remaining ticks of every stream go through
/// `submit` → `wait` on the recovered core, one request outstanding, and
/// their digests must continue the reference sequence bit-identically.
/// Returns `(requests, failed)`.
pub fn serve_tail(
    spec: &ServeSpec,
    core: &ServeCore,
    traffic: &Traffic,
    ticks: Ticks,
    reference: &[Vec<u64>],
) -> (u64, u64) {
    let (mut requests, mut failed) = (0, 0);
    let first = 1 + ticks.open + ticks.closed;
    for round in first..first + ticks.tail {
        for stream in 0..spec.streams {
            let slot = traffic.slot(stream);
            let tick = ticks.tick_at(stream, round);
            requests += 1;
            let reply = core
                .submit(InferRequest {
                    stream: stream as u64,
                    events: traffic.events[slot][tick].clone(),
                    flush: false,
                })
                .and_then(|t| t.wait());
            let ok = reply.is_ok_and(|r| {
                r.windows.len() == usize::from(ticks.seals(tick))
                    && r.windows
                        .iter()
                        .all(|w| reference[slot].get(w.seq as usize) == Some(&w.digest))
            });
            if !ok {
                failed += 1;
            }
        }
    }
    (requests, failed)
}

/// A scratch directory under the current directory (the checkout),
/// created on first use and removed when dropped. Only workloads with
/// durability on ever use it.
pub struct TempRoot(PathBuf);

impl TempRoot {
    /// `./.sysbench_tmp/<pid>`; nothing exists on disk yet.
    pub fn new() -> Self {
        Self(PathBuf::from(".sysbench_tmp").join(std::process::id().to_string()))
    }

    /// Creates the root if needed and returns a path below it.
    pub fn sub(&self, name: &str) -> io::Result<PathBuf> {
        std::fs::create_dir_all(&self.0)?;
        Ok(self.0.join(name))
    }

    /// [`Self::sub`] when `spec` has durability on, `None` otherwise.
    fn durable_dir(&self, spec: &ServeSpec, name: &str) -> io::Result<Option<PathBuf>> {
        spec.checkpoint_every_windows
            .map(|_| self.sub(name))
            .transpose()
    }
}

impl Default for TempRoot {
    fn default() -> Self {
        Self::new()
    }
}

impl Drop for TempRoot {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
        // Only succeeds when no other run is using the parent.
        let _ = std::fs::remove_dir(".sysbench_tmp");
    }
}

/// Stops the server and, for a durable workload, restarts the core on
/// the same directory and serves the tail. Returns the restart time in
/// seconds (0 without durability) and the restarted core, if any.
fn restart(
    spec: &ServeSpec,
    inst: Instance,
    ticks: Ticks,
    reference: &[Vec<u64>],
    out: &mut Outcome,
) -> (f64, Option<ServeCore>, Traffic) {
    let Instance {
        server,
        conns,
        traffic,
        config,
        ..
    } = inst;
    drop(conns);
    server.shutdown();
    if config.durability.is_none() {
        return (0.0, None, traffic);
    }
    let started = Instant::now();
    let core = ServeCore::start(config);
    let recovery_s = started.elapsed().as_secs_f64();
    let (requests, failed) = serve_tail(spec, &core, &traffic, ticks, reference);
    out.attempted += requests;
    out.failed += failed;
    out.note(
        "post-restart requests",
        format!("{requests} ({failed} failed)"),
    );
    (recovery_s, Some(core), traffic)
}

fn note_latencies(out: &mut Outcome, live: &LiveResult) {
    out.note("live-phase failures", format!("{:?}", live.failures));
    out.note("window latency samples", live.window_at.len());
    out.note("ingest latency samples", live.ingest_ns.len());
    out.note(
        "ingest_latency_p50_ms",
        stats::quantile(&live.ingest_ns, 0.5) as f64 / 1e6,
    );
    out.note(
        "client.send_lag_p99_ms / max_ms",
        format!(
            "{} / {}",
            stats::quantile(&live.lag_ns, 0.99) as f64 / 1e6,
            live.lag_ns.last().copied().unwrap_or(0) as f64 / 1e6
        ),
    );
}

/// The untraced run: end-to-end metrics.
pub fn run(spec: &ServeSpec, seed: u64, seconds: f64) -> io::Result<Outcome> {
    let mut out = Outcome {
        correct: true,
        ..Outcome::default()
    };
    let ticks = Ticks::of(spec, seconds);
    let tmp = TempRoot::new();

    let mut setup_s = Vec::with_capacity(spec::SETUP_REPS);
    let mut last: Option<Instance> = None;
    for rep in 0..spec::SETUP_REPS {
        if let Some(prev) = last.take() {
            drop(prev.conns);
            prev.server.shutdown();
        }
        let dir = tmp.durable_dir(spec, &format!("wal-{rep}"))?;
        let started = Instant::now();
        let inst = set_up(spec, seed, ticks, dir.as_deref())?;
        setup_s.push(started.elapsed().as_secs_f64());
        last = Some(inst);
    }
    let mut inst = last.expect("SETUP_REPS is positive");
    out.note(
        "client.bootstrap_ms_per_stream",
        inst.bootstrap_ms_per_stream,
    );

    let reference = reference_digests(spec, &inst.traffic);
    out.attempted += inst.bootstrap_requests;
    out.failed += inst.bootstrap_failures(&reference);
    report::reset_peak_rss();
    let live = drive(spec, &mut inst, ticks, &reference, false);
    out.attempted += live.requests;
    out.failed += live.failures.total();
    note_latencies(&mut out, &live);
    let max_degrade = inst.server.core().max_degrade_level();
    out.note("serve.max_degrade_level", max_degrade);
    out.note("serve.shed", inst.server.core().shed_count());
    if max_degrade != 0 {
        out.correct = false;
    }

    let (recovery_s, core, _traffic) = restart(spec, inst, ticks, &reference, &mut out);
    if let Some(core) = core {
        out.note("recovery_s", recovery_s);
        core.shutdown();
    }
    if out.failed > 0 {
        out.correct = false;
    }

    let m = &mut out.metrics;
    m.set("setup_s", stats::median(&mut setup_s));
    m.set("windows_per_s", live.closed_windows_per_s);
    m.set(
        "window_latency_p50_ms",
        live.window_latency_ns(spec, 0.50) / 1e6,
    );
    m.set(
        "window_latency_p99_ms",
        live.window_latency_ns(spec, 0.99) / 1e6,
    );
    m.set("peak_rss_mb", report::peak_rss_mb());
    Ok(out)
}

/// Sets the per-layer metrics the live phases yield (client, serve
/// counters, durability counters) and returns the end-to-end window p50
/// in nanoseconds for `serve.tcp_share`.
fn live_layer_metrics(
    spec: &ServeSpec,
    inst: &Instance,
    live: &LiveResult,
    m: &mut Metrics,
) -> f64 {
    let ms = |ns: u64| ns as f64 / 1e6;
    m.set(
        "serve.ingest_latency_p50_ms",
        ms(stats::quantile(&live.ingest_ns, 0.5)),
    );
    m.set(
        "client.send_lag_p99_ms",
        ms(stats::quantile(&live.lag_ns, 0.99)),
    );
    m.set(
        "client.send_lag_max_ms",
        ms(live.lag_ns.last().copied().unwrap_or(0)),
    );
    m.set("client.window_samples", live.window_at.len() as f64);
    m.set("client.ingest_samples", live.ingest_ns.len() as f64);
    m.set(
        "client.bootstrap_ms_per_stream",
        inst.bootstrap_ms_per_stream,
    );
    let depth_sum: usize = live.depths.iter().sum();
    m.set(
        "serve.queue_depth_mean",
        depth_sum as f64 / live.depths.len().max(1) as f64,
    );
    m.set(
        "serve.queue_depth_max",
        live.depths.iter().copied().max().unwrap_or(0) as f64,
    );

    let core = inst.server.core();
    m.set("serve.shed", core.shed_count() as f64);
    m.set("serve.max_degrade_level", core.max_degrade_level() as f64);
    let shard = core.shard_stats();
    let routed_mean = shard.routed.iter().sum::<u64>() as f64 / shard.routed.len().max(1) as f64;
    if routed_mean > 0.0 {
        let routed_max = shard.routed.iter().copied().max().unwrap_or(0) as f64;
        m.set("serve.shard.route_imbalance", routed_max / routed_mean);
    }
    let plans = core.plan_source_counts();
    let planned = plans.scratch + plans.cached + plans.incremental;
    if planned > 0 {
        m.set(
            "serve.shard.cross_edges_per_window",
            shard.cross_shard_edges as f64 / planned as f64,
        );
        m.set(
            "serve.plan_source.incremental_share",
            plans.incremental as f64 / planned as f64,
        );
    }
    let cache = core.cache_stats();
    if cache.hits + cache.misses > 0 {
        m.set(
            "graph.plan_cache_hit_ratio",
            cache.hits as f64 / (cache.hits + cache.misses) as f64,
        );
    }
    let durable = core.durable_stats();
    m.set("durable.wal_appends", durable.wal_appends as f64);
    m.set("durable.wal_fsyncs", durable.wal_fsyncs as f64);
    m.set(
        "durable.checkpoints_written",
        durable.checkpoints_written as f64,
    );
    live.window_latency_ns(spec, 0.5)
}

/// The traced run: the live phases (shorter, with the admission queue
/// polled at every send) for the counters only a running server has,
/// then the offline layer-by-layer replay of the same frames.
pub fn run_traced(
    spec: &ServeSpec,
    seed: u64,
    seconds: f64,
    rec: &tagnn_obs::Recorder,
) -> io::Result<Outcome> {
    let mut out = Outcome {
        correct: true,
        ..Outcome::default()
    };
    // Half the run length live; the replays take the rest.
    let ticks = Ticks::of(spec, seconds * 0.5);
    let tmp = TempRoot::new();
    let dir = tmp.durable_dir(spec, "wal-live")?;
    let mut inst = set_up(spec, seed, ticks, dir.as_deref())?;

    let reference = reference_digests(spec, &inst.traffic);
    out.attempted += inst.bootstrap_requests;
    out.failed += inst.bootstrap_failures(&reference);
    let live = drive(spec, &mut inst, ticks, &reference, true);
    out.attempted += live.requests;
    out.failed += live.failures.total();
    note_latencies(&mut out, &live);
    let e2e_window_p50_ns = live_layer_metrics(spec, &inst, &live, &mut out.metrics);
    if inst.server.core().max_degrade_level() != 0 {
        out.correct = false;
    }

    let config = inst.config.clone();
    let (recovery_s, core, traffic) = restart(spec, inst, ticks, &reference, &mut out);
    if let Some(core) = core {
        let m = &mut out.metrics;
        m.set("durable.recovery_s", recovery_s);
        if let Some(r) = core.recovery_report() {
            m.set("durable.replayed_events", r.replayed_events as f64);
            m.set("durable.replay_ms", r.replay_us as f64 / 1e3);
        }
        core.shutdown();
    }

    let replay = crate::replay::Replay {
        spec,
        traffic: &traffic,
        ticks,
        config: &config,
        live_dir: config.durability.as_ref().map(|d| d.dir.as_path()),
        scratch: &tmp,
    };
    let core_window_p50_ns = replay.run(rec, &mut out.metrics)?;
    if e2e_window_p50_ns > 0.0 {
        out.metrics.set(
            "serve.tcp_share",
            1.0 - core_window_p50_ns / e2e_window_p50_ns,
        );
    }

    // Engine-side layers over one representative stream's graph.
    let graph = stream_graph(spec, seed, 0, ticks);
    let budget = Duration::from_secs_f64(seconds * 0.1);
    if !layers::engine_layers(&graph, &engine_cfg(spec), rec, &mut out.metrics, budget) {
        out.correct = false;
    }
    if out.failed > 0 {
        out.correct = false;
    }
    out.metrics.set("client.failed_share", out.failed_share());
    Ok(out)
}
