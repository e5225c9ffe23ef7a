//! Serving-layer integration: streamed replay must be bit-identical to
//! the offline batch pipeline, and overload must shed with typed errors
//! instead of growing without bound.

use std::time::Duration;

use tagnn_graph::generate::GeneratorConfig;
use tagnn_graph::{DynamicGraph, WindowPlanner};
use tagnn_models::{ConcurrentEngine, DgnnModel, ModelKind, SkipConfig};
use tagnn_serve::core::digest_matrices;
use tagnn_serve::degrade::DegradationPolicy;
use tagnn_serve::event::{events_from_graph, EdgeEvent};
use tagnn_serve::roller::WindowRoller;
use tagnn_serve::{InferRequest, ServeConfig, ServeCore, ServeError};

const WINDOW: usize = 3;

fn graph() -> DynamicGraph {
    let mut cfg = GeneratorConfig::tiny();
    cfg.num_vertices = 96;
    cfg.num_edges = 384;
    cfg.num_snapshots = 6; // two full windows at K=3
    cfg.generate()
}

fn engine(g: &DynamicGraph) -> ConcurrentEngine {
    let model = DgnnModel::new(ModelKind::TGcn, g.feature_dim(), 12, 99);
    ConcurrentEngine::with_window(model, SkipConfig::paper_default(), WINDOW)
}

fn serve_config(g: &DynamicGraph) -> ServeConfig {
    ServeConfig {
        universe: g.num_vertices(),
        feature_dim: g.feature_dim(),
        window: WINDOW,
        model: ModelKind::TGcn,
        hidden: 12,
        seed: 99,
        skip: SkipConfig::paper_default(),
        // Keep results deterministic: never widen the skip band.
        degradation: DegradationPolicy::disabled(),
        ..ServeConfig::default()
    }
}

/// Streamed replay through roller + engine session reproduces the offline
/// run bit for bit: matrices AND work counters.
#[test]
fn streamed_replay_is_bit_identical_to_offline_batch_run() {
    let g = graph();
    let engine = engine(&g);
    let offline = engine.run(&g);

    let planner = WindowPlanner::new(WINDOW);
    let mut roller = WindowRoller::new(g.num_vertices(), g.feature_dim(), WINDOW);
    let mut session = engine.session(g.num_vertices());
    let mut streamed_finals = Vec::new();
    let mut streamed_gnns = Vec::new();
    for events in events_from_graph(&g) {
        for event in &events {
            if let Some(w) = roller.apply(event).expect("canonical trace is valid") {
                let plans = planner.plan_graph_cached(&w.graph, &tagnn_graph::PlanCache::new());
                let refs: Vec<_> = w.graph.snapshots().iter().collect();
                let out = session.process_window(&refs, &plans[0]);
                streamed_finals.extend(out.final_features);
                streamed_gnns.extend(out.gnn_outputs);
            }
        }
    }
    if let Some(w) = roller.flush().expect("flush is clean") {
        let plans = planner.plan_graph_cached(&w.graph, &tagnn_graph::PlanCache::new());
        let refs: Vec<_> = w.graph.snapshots().iter().collect();
        let out = session.process_window(&refs, &plans[0]);
        streamed_finals.extend(out.final_features);
        streamed_gnns.extend(out.gnn_outputs);
    }

    assert_eq!(
        streamed_finals, offline.final_features,
        "H_t must be bit-identical"
    );
    assert_eq!(
        streamed_gnns, offline.gnn_outputs,
        "Z_t must be bit-identical"
    );

    let mut streamed_stats = *session.stats();
    let mut offline_stats = offline.stats;
    streamed_stats.wall_ns = 0;
    offline_stats.wall_ns = 0;
    assert_eq!(streamed_stats, offline_stats, "work counters must match");
}

/// The full serving core (admission → batcher → rollers → worker pool)
/// reproduces the offline digests and MAC totals at zero backlog.
#[test]
fn serve_core_replay_matches_offline_digests_and_macs() {
    let g = graph();
    let offline = engine(&g).run(&g);
    let offline_digests: Vec<u64> = offline
        .final_features
        .chunks(WINDOW)
        .map(digest_matrices)
        .collect();
    let offline_macs =
        offline.stats.gnn_aggregate_macs + offline.stats.gnn_combine_macs + offline.stats.rnn_macs;

    let core = ServeCore::start(serve_config(&g));
    let per_snapshot = events_from_graph(&g);
    let total = per_snapshot.len();
    let mut served = Vec::new();
    for (i, events) in per_snapshot.into_iter().enumerate() {
        let reply = core
            .submit(InferRequest {
                stream: 0,
                events,
                flush: i + 1 == total,
            })
            .expect("no backlog in a closed loop")
            .wait()
            .expect("canonical trace is valid");
        served.extend(reply.windows);
    }
    let plan_counts = core.plan_source_counts();
    core.shutdown();

    assert_eq!(served.len(), offline_digests.len());
    for (w, expect) in served.iter().zip(&offline_digests) {
        assert_eq!(
            w.digest, *expect,
            "window {} digest must match the offline run",
            w.seq
        );
        assert_eq!(
            w.plan_source,
            tagnn_graph::PlanSource::Incremental,
            "default config plans every sealed window incrementally"
        );
    }
    let served_macs: u64 = served.iter().map(|w| w.macs).sum();
    assert_eq!(served_macs, offline_macs, "MAC totals must match");
    assert_eq!(plan_counts.incremental, served.len() as u64);
    assert_eq!(plan_counts.fallbacks, 0, "clean stream never falls back");
}

/// Two independent streams replaying the same trace produce identical
/// results and the second one hits the plan cache.
#[test]
fn concurrent_streams_are_deterministic_and_share_plans() {
    let g = graph();
    let mut cfg = serve_config(&g);
    cfg.shards = 3;
    // Force the cache/scratch path: incrementally sealed plans never
    // consult the shared cache.
    cfg.incremental_planning = false;
    let core = ServeCore::start(cfg);

    let replay = |stream: u64| {
        let per_snapshot = events_from_graph(&g);
        let total = per_snapshot.len();
        let mut tickets = Vec::new();
        for (i, events) in per_snapshot.into_iter().enumerate() {
            tickets.push(
                core.submit(InferRequest {
                    stream,
                    events,
                    flush: i + 1 == total,
                })
                .expect("queue is deep enough"),
            );
        }
        tickets
            .into_iter()
            .flat_map(|t| t.wait().expect("valid trace").windows)
            .map(|w| (w.seq, w.digest, w.macs))
            .collect::<Vec<_>>()
    };

    let a = replay(0);
    let b = replay(1);
    let c = replay(2);
    assert!(!a.is_empty());
    assert_eq!(a, b, "streams must not interfere");
    assert_eq!(a, c);
    let cache = core.cache_stats();
    assert!(
        cache.hits >= a.len() as u64 * 2,
        "repeated traces must hit the plan cache: {cache:?}"
    );
    core.shutdown();
}

/// Overload: a queue of capacity 2 under a burst must shed with the typed
/// Overloaded error while every admitted request still completes, and the
/// server must keep serving afterwards.
#[test]
fn overload_sheds_with_typed_error_and_recovers() {
    let g = graph();
    let mut cfg = serve_config(&g);
    cfg.queue_capacity = 2;
    cfg.shards = 1;
    cfg.max_batch = 1;
    let core = ServeCore::start(cfg);

    // Burst far past the queue depth without waiting for replies. Each
    // request carries a full window of ticks so the worker does real work.
    let events_per_req: Vec<EdgeEvent> = vec![EdgeEvent::Tick; WINDOW];
    let mut tickets = Vec::new();
    let mut shed = 0usize;
    for i in 0..200u64 {
        match core.submit(InferRequest {
            stream: 100 + i, // distinct streams: each request rolls a window
            events: events_per_req.clone(),
            flush: false,
        }) {
            Ok(t) => tickets.push(t),
            Err(ServeError::Overloaded { depth, capacity }) => {
                assert!(capacity == 2 && depth <= capacity + 1);
                shed += 1;
            }
            Err(other) => panic!("unexpected error {other:?}"),
        }
    }
    assert!(shed > 0, "a 200-deep burst into a 2-deep queue must shed");
    assert_eq!(core.shed_count(), shed as u64);

    // Every admitted request completes with a full reply.
    for t in tickets {
        let reply = t
            .wait_timeout(Duration::from_secs(60))
            .expect("admitted work must finish")
            .expect("ticks are valid events");
        assert_eq!(reply.windows.len(), 1);
    }

    // After the burst drains, fresh requests are admitted again.
    let reply = core
        .submit(InferRequest {
            stream: 1,
            events: vec![EdgeEvent::Tick],
            flush: false,
        })
        .expect("queue drained, admission must recover")
        .wait()
        .unwrap();
    assert_eq!(reply.accepted_events, 1);
    core.shutdown();
}

/// Malformed events are rejected with a typed GraphError and leave the
/// stream state untouched.
#[test]
fn malformed_events_get_typed_rejections() {
    let g = graph();
    let core = ServeCore::start(serve_config(&g));
    let bad = InferRequest {
        stream: 0,
        events: vec![EdgeEvent::UpdateFeature {
            v: 0,
            feature: vec![0.0; 3], // wrong dimensionality
        }],
        flush: false,
    };
    match core.submit(bad).unwrap().wait() {
        Err(ServeError::Rejected(e)) => {
            assert!(e.to_string().contains("feature"), "got: {e}");
        }
        other => panic!("expected Rejected, got {other:?}"),
    }
    // The stream still replays cleanly from scratch.
    let per_snapshot = events_from_graph(&g);
    let total = per_snapshot.len();
    let mut windows = 0;
    for (i, events) in per_snapshot.into_iter().enumerate() {
        windows += core
            .submit(InferRequest {
                stream: 0,
                events,
                flush: i + 1 == total,
            })
            .unwrap()
            .wait()
            .unwrap()
            .windows
            .len();
    }
    assert_eq!(windows, 2, "rejection must not corrupt the stream");
    core.shutdown();
}

/// Served results must be bit-identical for ANY shard count: the vertex
/// universe partitions across N ingest lanes, but the arrival-ordered
/// seal merge reconstructs the exact single-engine event order.
#[test]
fn served_results_are_shard_count_invariant() {
    let g = graph();
    let offline = engine(&g).run(&g);
    let offline_digests: Vec<u64> = offline
        .final_features
        .chunks(WINDOW)
        .map(digest_matrices)
        .collect();
    let offline_macs =
        offline.stats.gnn_aggregate_macs + offline.stats.gnn_combine_macs + offline.stats.rnn_macs;

    for shards in [1usize, 2, 4, 8] {
        let mut cfg = serve_config(&g);
        cfg.shards = shards;
        let core = ServeCore::start(cfg);
        let per_snapshot = events_from_graph(&g);
        let total = per_snapshot.len();
        let mut served = Vec::new();
        for (i, events) in per_snapshot.into_iter().enumerate() {
            let reply = core
                .submit(InferRequest {
                    stream: 0,
                    events,
                    flush: i + 1 == total,
                })
                .expect("no backlog in a closed loop")
                .wait()
                .expect("canonical trace is valid");
            served.extend(reply.windows);
        }
        let stats = core.shard_stats();
        core.shutdown();

        let digests: Vec<u64> = served.iter().map(|w| w.digest).collect();
        assert_eq!(
            digests, offline_digests,
            "{shards} shards: served digests must match the single-engine run"
        );
        let macs: u64 = served.iter().map(|w| w.macs).sum();
        assert_eq!(macs, offline_macs, "{shards} shards: MAC totals must match");
        assert_eq!(stats.routed.len(), shards);
        assert!(stats.routed.iter().sum::<u64>() > 0);
        if shards == 1 {
            assert_eq!(stats.cross_shard_edges, 0);
        } else {
            assert!(
                stats.cross_shard_edges > 0,
                "384 hashed edges over {shards} shards must cross somewhere"
            );
        }
    }
}

/// Binary wire round-trip over loopback TCP: the served digests seen by
/// a real client over the default length-prefixed protocol match the
/// offline run exactly (digests travel as raw u64, no precision loss).
#[test]
fn tcp_frontend_round_trips_offline_digests() {
    use std::io::{Read, Write};
    use tagnn_serve::binwire;

    let g = graph();
    let offline = engine(&g).run(&g);
    let offline_digests: Vec<u64> = offline
        .final_features
        .chunks(WINDOW)
        .map(digest_matrices)
        .collect();

    let server =
        tagnn_serve::Server::bind(ServeCore::start(serve_config(&g)), "127.0.0.1:0").unwrap();
    let mut conn = std::net::TcpStream::connect(server.local_addr()).unwrap();

    let read_reply = |conn: &mut std::net::TcpStream| {
        let mut buf = Vec::new();
        let mut chunk = [0u8; 4096];
        loop {
            if let Some(frame) = binwire::try_decode_frame(&buf).expect("well-formed reply") {
                assert_eq!(frame.kind, binwire::kind::INFER_REPLY);
                return binwire::decode_reply(frame.body).expect("valid reply body");
            }
            let n = conn.read(&mut chunk).expect("server open");
            assert!(n > 0, "server closed mid-frame");
            buf.extend_from_slice(&chunk[..n]);
        }
    };

    let per_snapshot = events_from_graph(&g);
    let total = per_snapshot.len();
    let mut digests = Vec::new();
    for (i, events) in per_snapshot.iter().enumerate() {
        let mut out = Vec::new();
        binwire::encode_infer(&mut out, i as u64, 0, events, i + 1 == total);
        conn.write_all(&out).unwrap();
        let reply = read_reply(&mut conn);
        assert_eq!(reply.accepted_events, events.len());
        digests.extend(reply.windows.iter().map(|w| w.digest));
    }
    assert_eq!(digests, offline_digests, "wire digests must match offline");
    drop(conn);
    server.shutdown();
}

/// The JSON-lines debug protocol (behind `--wire json`) still round-trips
/// the same digests — hex-string digests survive JSON's 53-bit numbers.
#[test]
fn json_debug_frontend_round_trips_offline_digests() {
    use std::io::{BufRead, BufReader, Write};
    use tagnn_serve::wire;

    let g = graph();
    let offline = engine(&g).run(&g);
    let offline_digests: Vec<u64> = offline
        .final_features
        .chunks(WINDOW)
        .map(digest_matrices)
        .collect();

    let server = tagnn_serve::Server::bind_with(
        ServeCore::start(serve_config(&g)),
        "127.0.0.1:0",
        tagnn_serve::WireFormat::Json,
    )
    .unwrap();
    let mut conn = std::net::TcpStream::connect(server.local_addr()).unwrap();
    let mut reader = BufReader::new(conn.try_clone().unwrap());

    let per_snapshot = events_from_graph(&g);
    let total = per_snapshot.len();
    let mut digests = Vec::new();
    for (i, events) in per_snapshot.iter().enumerate() {
        let line = wire::encode_infer(i as u64, 0, events, i + 1 == total);
        conn.write_all(line.as_bytes()).unwrap();
        conn.write_all(b"\n").unwrap();
        let mut reply = String::new();
        reader.read_line(&mut reply).unwrap();
        let doc = tagnn_serve::json::parse(reply.trim()).unwrap();
        assert_eq!(
            doc.get("ok").and_then(tagnn_serve::json::Value::as_bool),
            Some(true),
            "line {i}: {reply}"
        );
        for w in doc.get("windows").unwrap().as_array().unwrap() {
            digests.push(wire::parse_digest(w.get("digest").unwrap()).unwrap());
        }
    }
    assert_eq!(digests, offline_digests, "wire digests must match offline");
    drop(conn);
    server.shutdown();
}
