//! Offline layer-by-layer replay of a serving workload's real frames:
//! `binwire` encode/decode, `WindowRoller` apply/seal, `ServeCore`
//! submit→wait without TCP, `WalWriter` append/sync and
//! `CheckpointStore::write`, each call under a span below a
//! `request:<id>` root. Only the traced run does this.

use std::io;
use std::path::Path;
use std::time::Instant;

use tagnn_durable::{CheckpointStore, WalWriter};
use tagnn_obs::Recorder;
use tagnn_serve::binwire;
use tagnn_serve::wire::WireRequest;
use tagnn_serve::{persist, EdgeEvent, InferRequest, Reply, ServeConfig, ServeCore, WindowRoller};

use crate::report::Metrics;
use crate::serving::{io_err, request_id, TempRoot, Ticks, Traffic};
use crate::spans::{self, SpanTotals};
use crate::spec::ServeSpec;
use crate::stats;

/// Group-commit width of the WAL replay (matches the live server's).
const GROUP_COMMIT: usize = 8;

/// Checkpoint writes timed in the replay.
const CHECKPOINT_WRITES: u64 = 5;

/// What the replay runs over.
pub struct Replay<'a> {
    /// The workload.
    pub spec: &'a ServeSpec,
    /// Its generated traffic (events and encoded frames).
    pub traffic: &'a Traffic,
    /// Schedule of the live run; the replay covers the first
    /// `window + open` ticks of the first `replay_streams` streams.
    pub ticks: Ticks,
    /// The live server's configuration.
    pub config: &'a ServeConfig,
    /// The live server's durable directory (its newest checkpoint is the
    /// payload of the checkpoint-write replay).
    pub live_dir: Option<&'a Path>,
    /// Where the replay may write.
    pub scratch: &'a TempRoot,
}

impl Replay<'_> {
    fn last_tick(&self) -> usize {
        self.ticks.window - 1 + self.ticks.open
    }

    /// `(stream, tick)` of every replayed request, tick-major (streams
    /// interleaved, as the live generator sends them).
    fn requests(&self) -> impl Iterator<Item = (usize, usize)> + '_ {
        let streams = self.spec.replay_streams.min(self.spec.streams);
        (0..=self.last_tick()).flat_map(move |tick| (0..streams).map(move |s| (s, tick)))
    }

    fn events(&self, stream: usize, tick: usize) -> &[EdgeEvent] {
        &self.traffic.events[self.traffic.slot(stream)][tick]
    }

    /// Runs every replay, sets the `serve.wire.*`, `serve.roller.*`,
    /// `serve.core.*` and replay-side `durable.*` metrics, and returns
    /// the core-only window latency p50 in nanoseconds.
    pub fn run(&self, rec: &Recorder, m: &mut Metrics) -> io::Result<f64> {
        self.wire_requests(rec, m)?;
        self.roller(rec);
        let (replies, core_window_p50_ns) = self.core(rec, m)?;
        self.wire_replies(rec, &replies, m)?;
        if self.config.durability.is_some() {
            self.durable(rec, m)?;
        }

        let totals = spans::self_times(&rec.snapshot());
        let get = |name: &str| totals.get(name).copied().unwrap_or_default();
        let mean_ns = |name: &str| get(name).self_mean_ns();
        m.set("serve.wire.decode_req_ns", mean_ns("serve.wire.decode_req"));
        m.set("serve.wire.encode_req_ns", mean_ns("serve.wire.encode_req"));
        m.set(
            "serve.wire.decode_reply_ns",
            mean_ns("serve.wire.decode_reply"),
        );
        m.set(
            "serve.wire.encode_reply_ns",
            mean_ns("serve.wire.encode_reply"),
        );
        let events: usize = self.requests().map(|(s, t)| self.events(s, t).len()).sum();
        let applied: SpanTotals = get("serve.roller.apply");
        let ticked: SpanTotals = get("serve.roller.tick");
        m.set(
            "serve.roller.apply_ns_per_event",
            (applied.self_ns + ticked.self_ns) as f64 / events.max(1) as f64,
        );
        m.set(
            "serve.roller.seal_us_per_window",
            mean_ns("serve.roller.seal") / 1e3,
        );
        m.set("durable.wal_append_ns", mean_ns("durable.wal_append"));
        m.set(
            "durable.checkpoint_write_ms",
            mean_ns("durable.checkpoint_write") / 1e6,
        );
        Ok(core_window_p50_ns)
    }

    /// Decodes every real request frame and re-encodes its events.
    fn wire_requests(&self, rec: &Recorder, m: &mut Metrics) -> io::Result<()> {
        let mut bytes = 0usize;
        let mut count = 0usize;
        let mut buf = Vec::new();
        for (stream, tick) in self.requests() {
            let frame = &self.traffic.frames[stream][tick];
            let id = request_id(stream, tick);
            let _root = rec.span(&format!("request:{id}"));
            let req = {
                let _g = rec.span("serve.wire.decode_req");
                let decoded = binwire::try_decode_frame(frame)
                    .ok()
                    .flatten()
                    .ok_or_else(|| io_err("own request frame does not decode"))?;
                match binwire::decode_request(&decoded) {
                    Ok(WireRequest::Infer { req, .. }) => req,
                    _ => return Err(io_err("own request frame is not an infer request")),
                }
            };
            buf.clear();
            {
                let _g = rec.span("serve.wire.encode_req");
                binwire::encode_infer(&mut buf, id, req.stream, &req.events, req.flush);
            }
            if &buf != frame {
                return Err(io_err("request frame does not round-trip"));
            }
            bytes += frame.len();
            count += 1;
        }
        m.set(
            "serve.wire.req_bytes_mean",
            bytes as f64 / count.max(1) as f64,
        );
        Ok(())
    }

    /// Feeds each replayed stream's events through a `WindowRoller`
    /// with incremental planning, as the batcher does.
    fn roller(&self, rec: &Recorder) {
        let streams = self.spec.replay_streams.min(self.spec.streams);
        for stream in 0..streams {
            let mut roller = WindowRoller::new(
                self.config.universe,
                self.config.feature_dim,
                self.config.window,
            )
            .with_incremental_planning();
            for tick in 0..=self.last_tick() {
                let _root = rec.span(&format!("request:{}", request_id(stream, tick)));
                let events = self.events(stream, tick);
                let (tick_event, updates) = events
                    .split_last()
                    .expect("every request ends with its tick");
                {
                    let _g = rec.span("serve.roller.apply");
                    for e in updates {
                        roller.apply(e).expect("generated events are valid");
                    }
                }
                let seals = roller.sealed_len() + 1 == roller.window();
                let _g = rec.span(if seals {
                    "serve.roller.seal"
                } else {
                    "serve.roller.tick"
                });
                std::hint::black_box(roller.apply(tick_event).expect("ticks are valid"));
            }
        }
    }

    /// Pushes the replayed requests through `ServeCore::submit` →
    /// `Ticket::wait`, one outstanding, on a core configured like the
    /// live one. Returns the replies and the window latency p50 (ns).
    fn core(&self, rec: &Recorder, m: &mut Metrics) -> io::Result<(Vec<(u64, Reply)>, f64)> {
        let mut config = self.config.clone();
        if let Some(d) = &mut config.durability {
            d.dir = self.scratch.sub("wal-core")?;
        }
        let core = ServeCore::start(config);
        let mut replies = Vec::new();
        let (mut window_ns, mut ingest_ns) = (Vec::new(), Vec::new());
        for (stream, tick) in self.requests() {
            let id = request_id(stream, tick);
            let seals = self.ticks.seals(tick);
            let req = InferRequest {
                stream: stream as u64,
                events: self.events(stream, tick).to_vec(),
                flush: false,
            };
            let _root = rec.span(&format!("request:{id}"));
            let _g = rec.span(if seals {
                "serve.core.window"
            } else {
                "serve.core.ingest"
            });
            let started = Instant::now();
            let reply = core
                .submit(req)
                .and_then(|t| t.wait())
                .map_err(|e| io_err(format!("core replay refused a request: {e}")))?;
            let ns = started.elapsed().as_nanos() as u64;
            match (tick, seals) {
                (0, _) => {} // bootstrap: neither class
                (_, true) => window_ns.push(ns),
                (_, false) => ingest_ns.push(ns),
            }
            replies.push((id, reply));
        }
        core.shutdown();
        let window_p50 = stats::quantile_of(&mut window_ns, 0.5) as f64;
        m.set("serve.core.window_latency_p50_ms", window_p50 / 1e6);
        m.set(
            "serve.core.ingest_latency_p50_ms",
            stats::quantile_of(&mut ingest_ns, 0.5) as f64 / 1e6,
        );
        Ok((replies, window_p50))
    }

    /// Encodes and decodes the replies the core replay produced.
    fn wire_replies(
        &self,
        rec: &Recorder,
        replies: &[(u64, Reply)],
        m: &mut Metrics,
    ) -> io::Result<()> {
        let mut bytes = 0usize;
        let mut buf = Vec::new();
        for (id, reply) in replies {
            let _root = rec.span(&format!("request:{id}"));
            buf.clear();
            {
                let _g = rec.span("serve.wire.encode_reply");
                binwire::encode_reply(&mut buf, *id, reply);
            }
            let _g = rec.span("serve.wire.decode_reply");
            let back = binwire::try_decode_frame(&buf)
                .ok()
                .flatten()
                .and_then(|f| binwire::decode_reply(f.body).ok());
            if back.as_ref() != Some(reply) {
                return Err(io_err("reply frame does not round-trip"));
            }
            bytes += buf.len();
        }
        m.set(
            "serve.wire.reply_bytes_mean",
            bytes as f64 / replies.len().max(1) as f64,
        );
        Ok(())
    }

    /// Appends the replayed requests to a scratch WAL (group commit as
    /// live) and rewrites the live server's newest checkpoint.
    fn durable(&self, rec: &Recorder, m: &mut Metrics) -> io::Result<()> {
        let (mut wal, _) = WalWriter::open(&self.scratch.sub("wal-replay.log")?, GROUP_COMMIT)?;
        let mut fsync_us = Vec::new();
        let mut appends = 0usize;
        for (stream, tick) in self.requests() {
            let payload = persist::encode_request(&InferRequest {
                stream: stream as u64,
                events: self.events(stream, tick).to_vec(),
                flush: false,
            });
            let _root = rec.span(&format!("request:{}", request_id(stream, tick)));
            appends += 1;
            // Every GROUP_COMMIT-th append also syncs; keep those apart
            // so `wal_append_ns` is the buffered write alone.
            let _g = rec.span(if appends.is_multiple_of(GROUP_COMMIT) {
                "durable.wal_append_sync"
            } else {
                "durable.wal_append"
            });
            if let Some(took) = wal.append(&payload)? {
                fsync_us.push(took.as_secs_f64() * 1e6);
            }
        }
        m.set(
            "durable.wal_bytes_per_request",
            wal.offset() as f64 / appends.max(1) as f64,
        );
        m.set(
            "durable.wal_fsync_us",
            fsync_us.iter().sum::<f64>() / fsync_us.len().max(1) as f64,
        );

        let Some(live_dir) = self.live_dir else {
            return Ok(());
        };
        let Some(ckpt) = CheckpointStore::open(live_dir, 2)?.latest_valid(|_| true)? else {
            return Ok(()); // the live run never reached its cadence
        };
        m.set("durable.checkpoint_bytes", ckpt.payload.len() as f64);
        let store = CheckpointStore::open(&self.scratch.sub("ckpt-replay")?, 2)?;
        for seq in 0..CHECKPOINT_WRITES {
            let _g = rec.span("durable.checkpoint_write");
            store.write(seq, &ckpt.payload)?;
        }
        Ok(())
    }
}
