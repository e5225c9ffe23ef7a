//! `experiments serve` / `serve-bench` / `serve-scale` / `serve-ab`:
//! boot the TCP frontend from `tagnn-serve` (binary wire by default,
//! JSON-lines via `--wire json`) and drive it with the built-in load
//! generator. `serve-bench` emits a `BENCH_5.json` report with latency
//! quantiles, throughput, shed counts, and plan-cache behaviour;
//! `serve-scale` sweeps the shard count, checks shard-count
//! bit-identity, and pins the scaling curve in `BENCH_7.json`;
//! `serve-ab` A/Bs the sparsity-adaptive kernel dispatcher
//! (`--dispatch auto` vs `dense`), checks bit-identity across modes,
//! and pins per-run dispatch-decision counts in `BENCH_8.json`.

use std::collections::HashMap;
use std::fmt::Write as _;
use std::time::Duration;

use tagnn_graph::generate::GeneratorConfig;
use tagnn_serve::json;
use tagnn_serve::loadgen::{self, LoadgenConfig, LoadgenSummary};
use tagnn_serve::server::stats_view;
use tagnn_serve::{InferRequest, ServeConfig, ServeCore, Server, ShardAssignment, WireFormat};
use tagnn_tensor::DispatchMode;

use crate::cli::{dataset_of, model_of, num, parse_flags};

/// Everything the serve subcommands share: the trace graph, the serving
/// envelope, and (for the benches) the load shape.
struct ServeArgs {
    addr: String,
    dataset: String,
    graph: GeneratorConfig,
    serve: ServeConfig,
    wire: WireFormat,
    connections: usize,
    rate: f64,
    duration: Duration,
    max_fallback_rate: f64,
    shards_list: Vec<usize>,
    out: Option<String>,
}

fn parse(args: &[String], default_duration_s: f64) -> Result<ServeArgs, String> {
    let flags: HashMap<String, String> = parse_flags(args)?;
    for key in flags.keys() {
        const KNOWN: [&str; 26] = [
            "dispatch",
            "overlap",
            "lookahead",
            "addr",
            "dataset",
            "snapshots",
            "seed",
            "window",
            "model",
            "hidden",
            "shards",
            "shard-assignment",
            "shards-list",
            "wire",
            "queue-capacity",
            "max-batch",
            "connections",
            "rate",
            "duration-s",
            "incremental",
            "max-fallback-rate",
            "out",
            "durable-dir",
            "group-commit",
            "checkpoint-every",
            "keep-checkpoints",
        ];
        if !KNOWN.contains(&key.as_str()) {
            return Err(format!("unknown flag --{key}"));
        }
    }

    let snapshots: usize = num(&flags, "snapshots", 8)?;
    let dataset = flags
        .get("dataset")
        .cloned()
        .unwrap_or_else(|| "tiny".to_string());
    let mut graph = if dataset == "tiny" {
        let mut g = GeneratorConfig::tiny();
        g.num_snapshots = snapshots;
        g
    } else if dataset == "sparse" || dataset == "SP" {
        // High-churn preset with ~12% nonzero feature rows: the operand
        // shape that actually flips the auto dispatcher to SpMM (all
        // Table 2 presets are fully dense, which leaves that A/B dead).
        GeneratorConfig::sparse_high_churn(snapshots)
    } else if dataset == "flash" || dataset == "flash_crowd" {
        // Hostile-churn preset: bursty hub rewires that collapse
        // inter-snapshot similarity — the worst case for incremental
        // planning, delta-skip, and (here) WAL/checkpoint overhead.
        GeneratorConfig::flash_crowd(snapshots)
    } else {
        dataset_of(&flags)?.config_small(snapshots)
    };
    graph.seed = num(&flags, "seed", graph.seed)?;

    let incremental: u64 = num(&flags, "incremental", 1)?;
    let overlap: u64 = num(&flags, "overlap", 0)?;
    let assignment_spelling = flags
        .get("shard-assignment")
        .map(String::as_str)
        .unwrap_or("hash");
    let shard_assignment = ShardAssignment::parse(assignment_spelling).ok_or_else(|| {
        format!("--shard-assignment must be hash or degree, got {assignment_spelling}")
    })?;
    let dispatch_spelling = flags.get("dispatch").map(String::as_str).unwrap_or("auto");
    let dispatch = DispatchMode::parse(dispatch_spelling)
        .ok_or_else(|| format!("--dispatch must be auto or dense, got {dispatch_spelling}"))?;
    let serve = ServeConfig {
        universe: graph.num_vertices,
        dispatch,
        feature_dim: graph.feature_dim,
        window: num(&flags, "window", 4)?,
        model: model_of(&flags)?,
        hidden: num(&flags, "hidden", 16)?,
        shards: num(&flags, "shards", 2)?,
        shard_assignment,
        queue_capacity: num(&flags, "queue-capacity", 256)?,
        max_batch: num(&flags, "max-batch", 8)?,
        incremental_planning: incremental != 0,
        overlap: overlap != 0,
        lookahead: num(&flags, "lookahead", 1)?,
        durability: match flags.get("durable-dir") {
            Some(dir) => {
                let mut d = tagnn_serve::DurabilityConfig::new(dir.as_str());
                d.group_commit = num(&flags, "group-commit", d.group_commit)?;
                d.checkpoint_every_windows =
                    num(&flags, "checkpoint-every", d.checkpoint_every_windows)?;
                d.keep_checkpoints = num(&flags, "keep-checkpoints", d.keep_checkpoints)?;
                Some(d)
            }
            None => None,
        },
        ..ServeConfig::default()
    };

    let wire_spelling = flags.get("wire").map(String::as_str).unwrap_or("binary");
    let wire = WireFormat::parse(wire_spelling)
        .ok_or_else(|| format!("--wire must be binary or json, got {wire_spelling}"))?;

    let shards_list = flags
        .get("shards-list")
        .map(String::as_str)
        .unwrap_or("1,2,4,8")
        .split(',')
        .map(|s| {
            s.trim()
                .parse::<usize>()
                .ok()
                .filter(|&n| n > 0)
                .ok_or_else(|| format!("--shards-list wants positive integers, got {s:?}"))
        })
        .collect::<Result<Vec<_>, _>>()?;

    Ok(ServeArgs {
        addr: flags
            .get("addr")
            .cloned()
            .unwrap_or_else(|| "127.0.0.1:7433".to_string()),
        dataset,
        graph,
        serve,
        wire,
        connections: num(&flags, "connections", 4)?,
        rate: num(&flags, "rate", 0.0)?,
        duration: Duration::from_secs_f64(num(&flags, "duration-s", default_duration_s)?),
        max_fallback_rate: num(&flags, "max-fallback-rate", 0.05)?,
        shards_list,
        out: flags.get("out").cloned(),
    })
}

fn describe(a: &ServeArgs) -> String {
    format!(
        "{} ({} vertices, D={}, {} snapshots) model={} hidden={} K={} shards={} wire={} queue={} plan={} dispatch={}",
        a.dataset,
        a.graph.num_vertices,
        a.graph.feature_dim,
        a.graph.num_snapshots,
        a.serve.model.name(),
        a.serve.hidden,
        a.serve.window,
        a.serve.shards,
        match a.wire {
            WireFormat::Binary => "binary",
            WireFormat::Json => "json",
        },
        a.serve.queue_capacity,
        if a.serve.incremental_planning {
            "incremental"
        } else {
            "cache/scratch"
        },
        a.serve.dispatch.as_str(),
    )
}

/// Fails loudly when the incremental-planning fallback rate (fallbacks
/// over windows that entered the maintainer-enabled path) exceeds the
/// `--max-fallback-rate` threshold.
fn check_fallback_rate(stats: &tagnn_serve::wire::StatsView, max_rate: f64) -> Result<(), String> {
    let attempted = stats.plan_incremental + stats.plan_fallbacks;
    if attempted == 0 {
        return Ok(());
    }
    let rate = stats.plan_fallbacks as f64 / attempted as f64;
    if rate > max_rate {
        return Err(format!(
            "incremental-planning fallback rate {rate:.4} exceeds --max-fallback-rate {max_rate:.4} \
             ({} fallbacks over {attempted} maintainer windows)",
            stats.plan_fallbacks,
        ));
    }
    Ok(())
}

/// `experiments serve`: boot the TCP frontend and block. `--duration-s 0`
/// (the default here) serves until the process is killed; a positive
/// duration serves that long, prints the core's counters, and exits —
/// which is what the CI smoke job uses.
pub fn run_serve(args: &[String]) -> Result<(), String> {
    let a = parse(args, 0.0)?;
    let core = ServeCore::start(a.serve.clone());
    if let Some(r) = core.recovery_report() {
        println!(
            "recovered: checkpoint={} replayed_requests={} replayed_events={} \
             truncated_tail_bytes={} replay_us={}",
            r.checkpoint_seq
                .map_or_else(|| "none".to_string(), |s| s.to_string()),
            r.replayed_requests,
            r.replayed_events,
            r.truncated_tail_bytes,
            r.replay_us,
        );
    }
    let server =
        Server::bind_with(core, &a.addr, a.wire).map_err(|e| format!("bind {}: {e}", a.addr))?;
    println!("tagnn-serve listening on {}", server.local_addr());
    println!("  {}", describe(&a));
    if a.duration.is_zero() {
        loop {
            std::thread::sleep(Duration::from_secs(3600));
        }
    }
    std::thread::sleep(a.duration);
    let stats = stats_view(server.core());
    println!(
        "served for {:?}: shed={} degrade_level={} (max {}) cache hits={} misses={} evictions={}",
        a.duration,
        stats.shed,
        stats.degrade_level,
        stats.max_degrade_level,
        stats.cache_hits,
        stats.cache_misses,
        stats.cache_evictions,
    );
    println!(
        "  plans: incremental={} cached={} scratch={} fallbacks={}",
        stats.plan_incremental, stats.plan_cached, stats.plan_scratch, stats.plan_fallbacks,
    );
    println!(
        "  dispatch: dense={} spmm={} delta_skip={} input_density={:.3}",
        stats.dispatch_dense,
        stats.dispatch_spmm,
        stats.dispatch_delta_skip,
        stats.dispatch_density,
    );
    server.shutdown();
    check_fallback_rate(&stats, a.max_fallback_rate)
}

/// `experiments serve-bench`: boot an in-process server on an ephemeral
/// loopback port, replay the trace through the load generator, and write
/// the combined client/server report to `--out` (default `BENCH_5.json`).
pub fn run_serve_bench(args: &[String]) -> Result<(), String> {
    let a = parse(args, 10.0)?;
    let out = a.out.clone().unwrap_or_else(|| "BENCH_5.json".to_string());
    let core = ServeCore::start(a.serve.clone());
    let server = Server::bind_with(core, "127.0.0.1:0", a.wire)
        .map_err(|e| format!("bind loopback: {e}"))?;
    eprintln!(
        "serve-bench: {} connections ({} loop) for {:?} against {}",
        a.connections,
        if a.rate > 0.0 { "open" } else { "closed" },
        a.duration,
        describe(&a),
    );

    let load = LoadgenConfig {
        addr: server.local_addr().to_string(),
        connections: a.connections,
        rate: a.rate,
        duration: a.duration,
        graph: a.graph.clone(),
        wire: a.wire,
    };
    let summary = loadgen::run(&load).map_err(|e| format!("loadgen: {e}"))?;
    let stats = stats_view(server.core());
    let plan_build_us = server.core().recorder().histogram("serve.plan_build_us");
    server.shutdown();

    let report = render_report(&a, &summary, &stats, plan_build_us.as_ref());
    std::fs::write(&out, &report).map_err(|e| format!("cannot write {out}: {e}"))?;

    println!(
        "serve-bench: {} requests, {} replies ({:.1}/s), {} shed, {} errors, {} windows",
        summary.requests,
        summary.replies,
        summary.replies_per_sec(),
        summary.shed,
        summary.errors,
        summary.windows,
    );
    println!(
        "  latency p50={}us p95={}us p99={}us max={}us | plan cache {}h/{}m/{}e | max degrade level {}",
        summary.latency_us.quantile(0.50),
        summary.latency_us.quantile(0.95),
        summary.latency_us.quantile(0.99),
        summary.latency_us.max(),
        stats.cache_hits,
        stats.cache_misses,
        stats.cache_evictions,
        stats.max_degrade_level,
    );
    println!(
        "  plans: incremental={} cached={} scratch={} fallbacks={}",
        stats.plan_incremental, stats.plan_cached, stats.plan_scratch, stats.plan_fallbacks,
    );
    println!(
        "  dispatch: dense={} spmm={} delta_skip={} input_density={:.3}",
        stats.dispatch_dense,
        stats.dispatch_spmm,
        stats.dispatch_delta_skip,
        stats.dispatch_density,
    );
    if let Some(h) = &plan_build_us {
        println!(
            "  plan build p50={}us p95={}us p99={}us max={}us over {} windows",
            h.quantile(0.50),
            h.quantile(0.95),
            h.quantile(0.99),
            h.max(),
            h.count(),
        );
    }
    println!("report written to {out}");
    if summary.replies == 0 && summary.requests > 0 {
        return Err("no request got a reply".to_string());
    }
    check_fallback_rate(&stats, a.max_fallback_rate)
}

/// Replays the canonical trace synchronously through a fresh core and
/// returns the served window digests — the shard-count bit-identity
/// probe used by `serve-scale`.
fn served_digests(serve: &ServeConfig, graph: &GeneratorConfig) -> Result<Vec<u64>, String> {
    let core = ServeCore::start(serve.clone());
    let g = graph.generate();
    let per_snapshot = tagnn_serve::events_from_graph(&g);
    let total = per_snapshot.len();
    let mut digests = Vec::new();
    for (i, events) in per_snapshot.into_iter().enumerate() {
        let ticket = core
            .submit(InferRequest {
                stream: 0,
                events,
                flush: i + 1 == total,
            })
            .map_err(|e| format!("submit: {e}"))?;
        let reply = ticket.wait().map_err(|e| format!("serve: {e}"))?;
        digests.extend(reply.windows.iter().map(|w| w.digest));
    }
    core.shutdown();
    Ok(digests)
}

/// `experiments serve-scale`: sweep `--shards-list` (default 1,2,4,8).
/// For each shard count, first replay the trace synchronously and check
/// the served digests are bit-identical to the 1-shard baseline, then
/// run the closed/open-loop load for `--duration-s` and record the
/// throughput/latency row. Writes the curve to `--out` (default
/// `BENCH_7.json`) with host metadata — scaling numbers are only
/// meaningful relative to the recorded core count.
pub fn run_serve_scale(args: &[String]) -> Result<(), String> {
    let a = parse(args, 3.0)?;
    let out = a.out.clone().unwrap_or_else(|| "BENCH_7.json".to_string());
    let cpus = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    eprintln!(
        "serve-scale: shards {:?}, {} connections for {:?} each against {} ({} cpus)",
        a.shards_list,
        a.connections,
        a.duration,
        describe(&a),
        cpus,
    );

    let mut baseline: Option<Vec<u64>> = None;
    let mut rows = String::new();
    for (row, &shards) in a.shards_list.iter().enumerate() {
        let mut serve = a.serve.clone();
        serve.shards = shards;

        let digests = served_digests(&serve, &a.graph)?;
        if digests.is_empty() {
            return Err("trace produced no windows; digest check is vacuous".to_string());
        }
        match &baseline {
            None => baseline = Some(digests),
            Some(b) => {
                if *b != digests {
                    return Err(format!(
                        "shard-count invariance violated: {} shards served different digests \
                         than {} shards",
                        shards, a.shards_list[0],
                    ));
                }
            }
        }

        let server = Server::bind_with(ServeCore::start(serve), "127.0.0.1:0", a.wire)
            .map_err(|e| format!("bind loopback: {e}"))?;
        let load = LoadgenConfig {
            addr: server.local_addr().to_string(),
            connections: a.connections,
            rate: a.rate,
            duration: a.duration,
            graph: a.graph.clone(),
            wire: a.wire,
        };
        let summary = loadgen::run(&load).map_err(|e| format!("loadgen: {e}"))?;
        let stats = stats_view(server.core());
        server.shutdown();
        if summary.replies == 0 && summary.requests > 0 {
            return Err(format!("{shards} shards: no request got a reply"));
        }

        println!(
            "  {shards} shards: {:.1} replies/s, p50={}us p95={}us p99={}us, shed={} cross_seal={}",
            summary.replies_per_sec(),
            summary.latency_us.quantile(0.50),
            summary.latency_us.quantile(0.95),
            summary.latency_us.quantile(0.99),
            summary.shed,
            stats.cross_shard_edges,
        );
        if row > 0 {
            rows.push_str(",\n");
        }
        let _ = write!(
            rows,
            r#"    {{"shards": {shards}, "digest_check": "ok", "replies_per_sec": "#
        );
        json::write_f64(&mut rows, summary.replies_per_sec());
        let _ = write!(
            rows,
            concat!(
                r#", "requests": {}, "replies": {}, "shed": {}, "errors": {}, "#,
                r#""windows": {}, "latency_us": {{"p50": {}, "p95": {}, "p99": {}, "max": {}}}, "#,
                r#""cross_seal_edges": {}}}"#
            ),
            summary.requests,
            summary.replies,
            summary.shed,
            summary.errors,
            summary.windows,
            summary.latency_us.quantile(0.50),
            summary.latency_us.quantile(0.95),
            summary.latency_us.quantile(0.99),
            summary.latency_us.max(),
            stats.cross_shard_edges,
        );
    }

    let mut report = String::with_capacity(2048);
    report.push_str("{\n  \"bench\": \"serve-scale\",\n  \"config\": {");
    let _ = write!(report, "\"dataset\": ");
    json::write_string(&mut report, &a.dataset);
    let _ = write!(
        report,
        concat!(
            r#", "vertices": {}, "edges": {}, "feature_dim": {}, "snapshots": {}, "#,
            r#""graph_seed": {}, "model": "{}", "hidden": {}, "window": {}, "#,
            r#""wire": "{}", "connections": {}, "rate": "#
        ),
        a.graph.num_vertices,
        a.graph.num_edges,
        a.graph.feature_dim,
        a.graph.num_snapshots,
        a.graph.seed,
        a.serve.model.name(),
        a.serve.hidden,
        a.serve.window,
        match a.wire {
            WireFormat::Binary => "binary",
            WireFormat::Json => "json",
        },
        a.connections,
    );
    json::write_f64(&mut report, a.rate);
    report.push_str(", \"duration_s\": ");
    json::write_f64(&mut report, a.duration.as_secs_f64());
    let _ = write!(
        report,
        "}},\n  \"host\": {{\"cpus\": {cpus}, \"note\": \"throughput scaling saturates at the \
         host core count; the digest_check column is the load-bearing result on small hosts\"}},\n"
    );
    report.push_str("  \"curve\": [\n");
    report.push_str(&rows);
    report.push_str("\n  ]\n}\n");
    std::fs::write(&out, &report).map_err(|e| format!("cannot write {out}: {e}"))?;
    println!("report written to {out}");
    Ok(())
}

/// `experiments serve-ab`: A/B the sparsity-adaptive kernel dispatcher.
/// Defaults to the sparse high-churn preset — the Table 2 presets are
/// fully dense, so under them the auto dispatcher (correctly) never
/// picks SpMM and the A/B degenerates — `--dataset` overrides. For each
/// mode — `auto` (density-measured dispatch) then `dense` (legacy
/// baseline) — it first replays the trace synchronously and checks the
/// served digests are bit-identical across modes, then runs the
/// closed/open-loop load for `--duration-s` and records the
/// throughput/latency row together with that run's dispatch-decision
/// counts. Writes the pair of rows to `--out` (default `BENCH_8.json`).
pub fn run_serve_ab(args: &[String]) -> Result<(), String> {
    let mut full = vec!["--dataset".to_string(), "sparse".to_string()];
    full.extend_from_slice(args);
    let a = parse(&full, 3.0)?;
    let out = a.out.clone().unwrap_or_else(|| "BENCH_8.json".to_string());
    eprintln!(
        "serve-ab: auto vs dense, {} connections for {:?} each against {}",
        a.connections,
        a.duration,
        describe(&a),
    );

    let mut baseline: Option<Vec<u64>> = None;
    let mut rows = String::new();
    for (row, mode) in [DispatchMode::Auto, DispatchMode::Dense]
        .into_iter()
        .enumerate()
    {
        let mut serve = a.serve.clone();
        serve.dispatch = mode;

        let digests = served_digests(&serve, &a.graph)?;
        if digests.is_empty() {
            return Err("trace produced no windows; digest check is vacuous".to_string());
        }
        match &baseline {
            None => baseline = Some(digests),
            Some(b) => {
                if *b != digests {
                    return Err(format!(
                        "dispatch bit-identity violated: {} mode served different digests \
                         than auto mode",
                        mode.as_str(),
                    ));
                }
            }
        }

        let server = Server::bind_with(ServeCore::start(serve), "127.0.0.1:0", a.wire)
            .map_err(|e| format!("bind loopback: {e}"))?;
        let load = LoadgenConfig {
            addr: server.local_addr().to_string(),
            connections: a.connections,
            rate: a.rate,
            duration: a.duration,
            graph: a.graph.clone(),
            wire: a.wire,
        };
        let summary = loadgen::run(&load).map_err(|e| format!("loadgen: {e}"))?;
        let stats = stats_view(server.core());
        server.shutdown();
        if summary.replies == 0 && summary.requests > 0 {
            return Err(format!("{} mode: no request got a reply", mode.as_str()));
        }
        if mode == DispatchMode::Dense && stats.dispatch_spmm > 0 {
            return Err(format!(
                "dense mode must never dispatch an SpMM, counted {}",
                stats.dispatch_spmm,
            ));
        }

        println!(
            "  {}: {:.1} replies/s, p50={}us p95={}us p99={}us | dispatch dense={} spmm={} \
             delta_skip={} density={:.3}",
            mode.as_str(),
            summary.replies_per_sec(),
            summary.latency_us.quantile(0.50),
            summary.latency_us.quantile(0.95),
            summary.latency_us.quantile(0.99),
            stats.dispatch_dense,
            stats.dispatch_spmm,
            stats.dispatch_delta_skip,
            stats.dispatch_density,
        );
        if row > 0 {
            rows.push_str(",\n");
        }
        let _ = write!(
            rows,
            r#"    {{"dispatch": "{}", "digest_check": "ok", "replies_per_sec": "#,
            mode.as_str(),
        );
        json::write_f64(&mut rows, summary.replies_per_sec());
        let _ = write!(
            rows,
            concat!(
                r#", "requests": {}, "replies": {}, "shed": {}, "errors": {}, "#,
                r#""windows": {}, "latency_us": {{"p50": {}, "p95": {}, "p99": {}, "max": {}}}, "#,
                r#""decisions": {{"dense": {}, "spmm": {}, "delta_skip": {}, "input_density": "#
            ),
            summary.requests,
            summary.replies,
            summary.shed,
            summary.errors,
            summary.windows,
            summary.latency_us.quantile(0.50),
            summary.latency_us.quantile(0.95),
            summary.latency_us.quantile(0.99),
            summary.latency_us.max(),
            stats.dispatch_dense,
            stats.dispatch_spmm,
            stats.dispatch_delta_skip,
        );
        json::write_f64(&mut rows, stats.dispatch_density);
        rows.push_str("}}");
    }

    let mut report = String::with_capacity(2048);
    report.push_str("{\n  \"bench\": \"serve-ab\",\n  \"config\": {");
    let _ = write!(report, "\"dataset\": ");
    json::write_string(&mut report, &a.dataset);
    let _ = write!(
        report,
        concat!(
            r#", "vertices": {}, "edges": {}, "feature_dim": {}, "snapshots": {}, "#,
            r#""graph_seed": {}, "model": "{}", "hidden": {}, "window": {}, "#,
            r#""shards": {}, "wire": "{}", "connections": {}, "rate": "#
        ),
        a.graph.num_vertices,
        a.graph.num_edges,
        a.graph.feature_dim,
        a.graph.num_snapshots,
        a.graph.seed,
        a.serve.model.name(),
        a.serve.hidden,
        a.serve.window,
        a.serve.shards,
        match a.wire {
            WireFormat::Binary => "binary",
            WireFormat::Json => "json",
        },
        a.connections,
    );
    json::write_f64(&mut report, a.rate);
    report.push_str(", \"duration_s\": ");
    json::write_f64(&mut report, a.duration.as_secs_f64());
    report.push_str(
        "},\n  \"note\": \"digest_check pins auto/dense bit-identity; decisions are the \
         per-run kernel dispatch counts\",\n",
    );
    report.push_str("  \"runs\": [\n");
    report.push_str(&rows);
    report.push_str("\n  ]\n}\n");
    std::fs::write(&out, &report).map_err(|e| format!("cannot write {out}: {e}"))?;
    println!("report written to {out}");
    Ok(())
}

fn render_report(
    a: &ServeArgs,
    summary: &LoadgenSummary,
    stats: &tagnn_serve::wire::StatsView,
    plan_build_us: Option<&tagnn_obs::Histogram>,
) -> String {
    let mut out = String::with_capacity(1024);
    out.push_str("{\n  \"bench\": \"serve\",\n  \"config\": {");
    let _ = write!(out, "\"dataset\": ");
    json::write_string(&mut out, &a.dataset);
    let _ = write!(
        out,
        concat!(
            r#", "vertices": {}, "edges": {}, "feature_dim": {}, "snapshots": {}, "#,
            r#""graph_seed": {}, "model": "{}", "hidden": {}, "window": {}, "#,
            r#""shards": {}, "wire": "{}", "queue_capacity": {}, "max_batch": {}, "#,
            r#""connections": {}, "rate": "#
        ),
        a.graph.num_vertices,
        a.graph.num_edges,
        a.graph.feature_dim,
        a.graph.num_snapshots,
        a.graph.seed,
        a.serve.model.name(),
        a.serve.hidden,
        a.serve.window,
        a.serve.shards,
        match a.wire {
            WireFormat::Binary => "binary",
            WireFormat::Json => "json",
        },
        a.serve.queue_capacity,
        a.serve.max_batch,
        a.connections,
    );
    json::write_f64(&mut out, a.rate);
    let _ = write!(
        out,
        r#", "incremental_planning": {}, "dispatch": "{}", "duration_s": "#,
        a.serve.incremental_planning,
        a.serve.dispatch.as_str(),
    );
    json::write_f64(&mut out, a.duration.as_secs_f64());
    out.push_str("},\n  \"load\": ");
    out.push_str(&summary.to_json());
    let _ = write!(
        out,
        concat!(
            ",\n  \"server\": {{\"shed\": {}, \"max_degrade_level\": {}, ",
            "\"plan_cache\": {{\"hits\": {}, \"misses\": {}, \"evictions\": {}}}, ",
            "\"plan_sources\": {{\"scratch\": {}, \"cached\": {}, \"incremental\": {}, ",
            "\"fallbacks\": {}}}"
        ),
        stats.shed,
        stats.max_degrade_level,
        stats.cache_hits,
        stats.cache_misses,
        stats.cache_evictions,
        stats.plan_scratch,
        stats.plan_cached,
        stats.plan_incremental,
        stats.plan_fallbacks,
    );
    let _ = write!(
        out,
        r#", "dispatch": {{"dense": {}, "spmm": {}, "delta_skip": {}, "input_density": "#,
        stats.dispatch_dense, stats.dispatch_spmm, stats.dispatch_delta_skip,
    );
    json::write_f64(&mut out, stats.dispatch_density);
    out.push('}');
    let _ = write!(
        out,
        r#", "shards": {{"count": {}, "cross_seal_edges": {}, "routed": ["#,
        stats.shard_routed.len(),
        stats.cross_shard_edges,
    );
    for (i, n) in stats.shard_routed.iter().enumerate() {
        let _ = write!(out, "{}{n}", if i > 0 { ", " } else { "" });
    }
    out.push_str("]}");
    // Plan work done per window (maintainer seal or scratch build; cache
    // hits do no plan work and record nothing).
    if let Some(h) = plan_build_us {
        let _ = write!(
            out,
            r#", "plan_build_us": {{"count": {}, "p50": {}, "p95": {}, "p99": {}, "max": {}}}"#,
            h.count(),
            h.quantile(0.50),
            h.quantile(0.95),
            h.quantile(0.99),
            h.max(),
        );
    }
    out.push_str("}\n}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use tagnn_models::ModelKind;

    fn args(s: &[&str]) -> Vec<String> {
        s.iter().map(|x| x.to_string()).collect()
    }

    #[test]
    fn parse_defaults_to_tiny_graph_and_matching_universe() {
        let a = parse(&args(&[]), 10.0).unwrap();
        assert_eq!(a.dataset, "tiny");
        assert_eq!(a.serve.universe, a.graph.num_vertices);
        assert_eq!(a.serve.feature_dim, a.graph.feature_dim);
        assert_eq!(a.duration, Duration::from_secs(10));
        assert_eq!(a.out, None, "out defaults per subcommand");
    }

    #[test]
    fn parse_threads_flags_through() {
        let a = parse(
            &args(&[
                "--dataset",
                "GT",
                "--snapshots",
                "6",
                "--window",
                "3",
                "--model",
                "gclstm",
                "--shards",
                "3",
                "--shard-assignment",
                "degree",
                "--wire",
                "json",
                "--shards-list",
                "1, 2,4",
                "--rate",
                "50",
                "--duration-s",
                "0.5",
                "--out",
                "/tmp/x.json",
            ]),
            10.0,
        )
        .unwrap();
        assert_eq!(a.graph.num_snapshots, 6);
        assert_eq!(a.serve.window, 3);
        assert_eq!(a.serve.model, ModelKind::GcLstm);
        assert_eq!(a.serve.shards, 3);
        assert_eq!(a.serve.shard_assignment, ShardAssignment::DegreeBalanced);
        assert_eq!(a.wire, WireFormat::Json);
        assert_eq!(a.shards_list, vec![1, 2, 4]);
        assert!((a.rate - 50.0).abs() < 1e-9);
        assert_eq!(a.out.as_deref(), Some("/tmp/x.json"));
    }

    #[test]
    fn parse_rejects_bad_wire_and_shard_spellings() {
        assert!(parse(&args(&["--wire", "carrier-pigeon"]), 10.0).is_err());
        assert!(parse(&args(&["--shard-assignment", "vibes"]), 10.0).is_err());
        assert!(parse(&args(&["--shards-list", "1,0,4"]), 10.0).is_err());
    }

    #[test]
    fn parse_rejects_unknown_flags() {
        assert!(parse(&args(&["--bogus", "1"]), 10.0).is_err());
    }

    #[test]
    fn serve_bench_report_is_valid_json() {
        let a = parse(&args(&[]), 10.0).unwrap();
        let mut summary = LoadgenSummary {
            requests: 4,
            replies: 4,
            shed: 0,
            errors: 0,
            events: 12,
            windows: 2,
            elapsed: Duration::from_millis(250),
            latency_us: tagnn_obs::Histogram::new(),
        };
        summary.latency_us.record(120);
        summary.latency_us.record(480);
        let stats = tagnn_serve::wire::StatsView {
            max_degrade_level: 1,
            cache_hits: 7,
            cache_misses: 2,
            plan_scratch: 1,
            plan_cached: 7,
            plan_incremental: 12,
            plan_fallbacks: 1,
            dispatch_dense: 20,
            dispatch_spmm: 6,
            dispatch_delta_skip: 15,
            dispatch_density: 0.5,
            shard_routed: vec![5, 9],
            cross_shard_edges: 3,
            ..Default::default()
        };
        let mut build = tagnn_obs::Histogram::new();
        build.record(40);
        build.record(90);
        let report = render_report(&a, &summary, &stats, Some(&build));
        let doc = json::parse(&report).expect("report must parse");
        assert_eq!(
            doc.get("bench").and_then(json::Value::as_str),
            Some("serve")
        );
        assert_eq!(
            doc.get("config")
                .and_then(|c| c.get("vertices"))
                .and_then(json::Value::as_u64),
            Some(a.graph.num_vertices as u64)
        );
        assert_eq!(
            doc.get("config")
                .and_then(|c| c.get("incremental_planning"))
                .and_then(json::Value::as_bool),
            Some(true)
        );
        assert_eq!(
            doc.get("load")
                .and_then(|l| l.get("replies"))
                .and_then(json::Value::as_u64),
            Some(4)
        );
        assert_eq!(
            doc.get("server")
                .and_then(|s| s.get("max_degrade_level"))
                .and_then(json::Value::as_u64),
            Some(1)
        );
        let sources = doc
            .get("server")
            .and_then(|s| s.get("plan_sources"))
            .unwrap();
        assert_eq!(
            sources.get("incremental").and_then(json::Value::as_u64),
            Some(12)
        );
        assert_eq!(
            sources.get("fallbacks").and_then(json::Value::as_u64),
            Some(1)
        );
        let dispatch = doc.get("server").and_then(|s| s.get("dispatch")).unwrap();
        assert_eq!(
            dispatch.get("dense").and_then(json::Value::as_u64),
            Some(20)
        );
        assert_eq!(dispatch.get("spmm").and_then(json::Value::as_u64), Some(6));
        assert_eq!(
            dispatch.get("delta_skip").and_then(json::Value::as_u64),
            Some(15)
        );
        assert_eq!(
            dispatch.get("input_density").and_then(json::Value::as_f64),
            Some(0.5)
        );
        assert_eq!(
            doc.get("config")
                .and_then(|c| c.get("dispatch"))
                .and_then(json::Value::as_str),
            Some("auto"),
            "auto is the default mode"
        );
        let shards = doc.get("server").and_then(|s| s.get("shards")).unwrap();
        assert_eq!(shards.get("count").and_then(json::Value::as_u64), Some(2));
        assert_eq!(
            shards.get("cross_seal_edges").and_then(json::Value::as_u64),
            Some(3)
        );
        assert_eq!(
            shards
                .get("routed")
                .and_then(json::Value::as_array)
                .map(|a| a.len()),
            Some(2)
        );
        let build = doc
            .get("server")
            .and_then(|s| s.get("plan_build_us"))
            .unwrap();
        assert_eq!(build.get("count").and_then(json::Value::as_u64), Some(2));
        // Without a histogram the key is simply absent, still valid JSON.
        let report = render_report(&a, &summary, &stats, None);
        let doc = json::parse(&report).expect("report must parse");
        assert!(doc
            .get("server")
            .and_then(|s| s.get("plan_build_us"))
            .is_none());
    }

    #[test]
    fn parse_threads_incremental_flags() {
        let a = parse(&args(&[]), 10.0).unwrap();
        assert!(a.serve.incremental_planning, "on by default");
        assert!((a.max_fallback_rate - 0.05).abs() < 1e-9);
        let a = parse(
            &args(&["--incremental", "0", "--max-fallback-rate", "0.2"]),
            10.0,
        )
        .unwrap();
        assert!(!a.serve.incremental_planning);
        assert!((a.max_fallback_rate - 0.2).abs() < 1e-9);
    }

    #[test]
    fn fallback_rate_threshold_fails_loudly() {
        let mut stats = tagnn_serve::wire::StatsView {
            plan_incremental: 95,
            plan_fallbacks: 5,
            ..Default::default()
        };
        assert!(check_fallback_rate(&stats, 0.05).is_ok(), "5% at threshold");
        stats.plan_fallbacks = 6;
        let err = check_fallback_rate(&stats, 0.05).unwrap_err();
        assert!(err.contains("max-fallback-rate"), "got: {err}");
        // Disabled or idle servers never trip the check.
        assert!(check_fallback_rate(&tagnn_serve::wire::StatsView::default(), 0.0).is_ok());
    }

    /// End-to-end: the bench harness boots a real server, drives it, and
    /// writes a parseable report.
    #[test]
    fn serve_bench_end_to_end_smoke() {
        let out = std::env::temp_dir().join("tagnn_serve_bench_smoke.json");
        let out_s = out.to_string_lossy().to_string();
        run_serve_bench(&args(&[
            "--connections",
            "2",
            "--duration-s",
            "0.4",
            "--snapshots",
            "4",
            "--out",
            &out_s,
        ]))
        .unwrap();
        let text = std::fs::read_to_string(&out).unwrap();
        let doc = json::parse(&text).unwrap();
        let replies = doc
            .get("load")
            .and_then(|l| l.get("replies"))
            .and_then(json::Value::as_u64)
            .unwrap();
        assert!(replies > 0, "smoke run must complete requests");
        let _ = std::fs::remove_file(&out);
    }

    #[test]
    fn parse_resolves_sparse_dataset_and_overlap_flags() {
        let a = parse(&args(&["--dataset", "sparse"]), 10.0).unwrap();
        assert_eq!(a.graph.num_vertices, 512);
        assert!(a.graph.feature_row_sparsity > 0.0);
        assert_eq!(a.serve.universe, a.graph.num_vertices);
        assert!(!a.serve.overlap, "overlap is opt-in");
        let a = parse(
            &args(&["--dataset", "SP", "--overlap", "1", "--lookahead", "2"]),
            10.0,
        )
        .unwrap();
        assert!(a.graph.feature_row_sparsity > 0.0);
        assert!(a.serve.overlap);
        assert_eq!(a.serve.lookahead, 2);
    }

    /// The dispatch A/B is only meaningful when the auto arm actually
    /// takes the SpMM path sometimes; the sparse default guarantees it.
    #[test]
    fn serve_ab_sparse_default_counts_spmm_decisions() {
        let out = std::env::temp_dir().join("tagnn_serve_ab_sparse.json");
        let out_s = out.to_string_lossy().to_string();
        run_serve_ab(&args(&[
            "--connections",
            "1",
            "--duration-s",
            "0.4",
            "--snapshots",
            "4",
            "--window",
            "2",
            "--out",
            &out_s,
        ]))
        .unwrap();
        let text = std::fs::read_to_string(&out).unwrap();
        let doc = json::parse(&text).unwrap();
        assert_eq!(
            doc.get("config")
                .and_then(|c| c.get("dataset"))
                .and_then(json::Value::as_str),
            Some("sparse")
        );
        let runs = doc.get("runs").and_then(json::Value::as_array).unwrap();
        let auto = runs
            .iter()
            .find(|r| r.get("dispatch").and_then(json::Value::as_str) == Some("auto"))
            .unwrap();
        let decisions = auto.get("decisions").unwrap();
        let spmm = decisions.get("spmm").and_then(json::Value::as_u64).unwrap();
        assert!(spmm > 0, "sparse preset must flip auto dispatch to SpMM");
        let density = decisions
            .get("input_density")
            .and_then(json::Value::as_f64)
            .unwrap();
        assert!(
            density < 0.5,
            "measured input density {density} should reflect the sparse rows"
        );
        let _ = std::fs::remove_file(&out);
    }

    #[test]
    fn parse_threads_dispatch_flag() {
        let a = parse(&args(&[]), 10.0).unwrap();
        assert_eq!(a.serve.dispatch, DispatchMode::Auto, "auto by default");
        let a = parse(&args(&["--dispatch", "dense"]), 10.0).unwrap();
        assert_eq!(a.serve.dispatch, DispatchMode::Dense);
        assert!(parse(&args(&["--dispatch", "vibes"]), 10.0).is_err());
    }

    /// End-to-end: serve-ab runs both dispatch modes, enforces
    /// bit-identity between them, and writes both rows with their
    /// per-run dispatch-decision counts.
    #[test]
    fn serve_ab_end_to_end_smoke() {
        let out = std::env::temp_dir().join("tagnn_serve_ab_smoke.json");
        let out_s = out.to_string_lossy().to_string();
        run_serve_ab(&args(&[
            "--dataset",
            "tiny",
            "--connections",
            "1",
            "--duration-s",
            "0.3",
            "--snapshots",
            "4",
            "--window",
            "2",
            "--out",
            &out_s,
        ]))
        .unwrap();
        let text = std::fs::read_to_string(&out).unwrap();
        let doc = json::parse(&text).unwrap();
        let runs = doc.get("runs").and_then(json::Value::as_array).unwrap();
        assert_eq!(runs.len(), 2, "one row per dispatch mode");
        let modes: Vec<_> = runs
            .iter()
            .map(|r| r.get("dispatch").and_then(json::Value::as_str).unwrap())
            .collect();
        assert_eq!(modes, vec!["auto", "dense"]);
        for row in runs {
            assert_eq!(
                row.get("digest_check").and_then(json::Value::as_str),
                Some("ok")
            );
            let decisions = row.get("decisions").unwrap();
            let dense = decisions
                .get("dense")
                .and_then(json::Value::as_u64)
                .unwrap();
            let spmm = decisions.get("spmm").and_then(json::Value::as_u64).unwrap();
            if row.get("dispatch").and_then(json::Value::as_str) == Some("auto") {
                assert!(dense + spmm > 0, "auto run must tally its decisions");
            } else {
                assert_eq!(spmm, 0, "dense mode never SpMMs");
            }
        }
        let _ = std::fs::remove_file(&out);
    }

    /// End-to-end: serve-scale sweeps shard counts, enforces digest
    /// bit-identity, and writes a parseable curve.
    #[test]
    fn serve_scale_end_to_end_smoke() {
        let out = std::env::temp_dir().join("tagnn_serve_scale_smoke.json");
        let out_s = out.to_string_lossy().to_string();
        run_serve_scale(&args(&[
            "--shards-list",
            "1,2",
            "--connections",
            "1",
            "--duration-s",
            "0.3",
            "--snapshots",
            "4",
            "--window",
            "2",
            "--out",
            &out_s,
        ]))
        .unwrap();
        let text = std::fs::read_to_string(&out).unwrap();
        let doc = json::parse(&text).unwrap();
        let curve = doc.get("curve").and_then(json::Value::as_array).unwrap();
        assert_eq!(curve.len(), 2);
        for row in curve {
            assert_eq!(
                row.get("digest_check").and_then(json::Value::as_str),
                Some("ok")
            );
            assert!(
                row.get("replies").and_then(json::Value::as_u64).unwrap() > 0,
                "each shard count must serve load"
            );
        }
        assert!(
            doc.get("host")
                .and_then(|h| h.get("cpus"))
                .and_then(json::Value::as_u64)
                .unwrap()
                >= 1,
            "host metadata keeps the scaling numbers honest"
        );
        let _ = std::fs::remove_file(&out);
    }
}
