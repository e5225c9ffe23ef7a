//! Regenerates the paper's tables and figures.
//!
//! ```text
//! experiments [all | <id>... | bench-json PATH | serve ... | serve-bench ...
//!              | serve-scale ... | serve-ab ...] [--quick] [--json]
//!              [--trace PATH] [--threads N]
//!
//!   all             run every experiment (default)
//!   <id>            e.g. fig9, table5, fig14a
//!   bench-json PATH run the engine/kernel perf suite on the ML-scale
//!                   preset and write its JSON report to PATH
//!   serve           boot the tagnn-serve TCP frontend (binary wire by
//!                   default; --wire json for the JSON-lines debug mode;
//!                   --addr HOST:PORT, --dataset, --window, --shards,
//!                   --shard-assignment hash|degree, ...;
//!                   --duration-s 0 serves until killed)
//!   serve-bench     boot an in-process server on loopback, replay the
//!                   trace through the load generator, and write the
//!                   latency/throughput report (--out, default BENCH_5.json)
//!   serve-scale     sweep --shards-list (default 1,2,4,8): check served
//!                   digests are shard-count-invariant, measure each
//!                   point, write the curve (--out, default BENCH_7.json)
//!   serve-ab        A/B the sparsity-adaptive kernel dispatcher on the
//!                   sparse high-churn preset: run --dispatch auto vs
//!                   dense, check served digests are bit-identical, and
//!                   write both rows with their per-run dispatch-decision
//!                   counts (--out, default BENCH_8.json)
//!   overlap-bench   ablate the batch plan/execute overlap: time the
//!                   engine with plans built inline vs
//!                   ConcurrentEngine::run_pipelined (--lookahead, the
//!                   only overlap knob), check bit-identity, write both
//!                   wall-clocks with the hidden-plan-time fraction
//!                   (--out, default BENCH_9.json; --smoke skips the
//!                   on-faster-than-off assertion)
//!   crash-bench     fault-injection differential for durable serving:
//!                   spawn crash-child processes hard-killed at
//!                   randomized WAL/checkpoint instants, recover, and
//!                   check the union of served window digests is
//!                   bit-identical to an uninterrupted run across
//!                   models x shard counts; also measures the
//!                   durability overhead and checkpoint-cadence
//!                   ablation (--kills, --seed, --smoke for a reduced
//!                   matrix; --out, default BENCH_10.json)
//!   crash-child     internal: one durable serving run used by
//!                   crash-bench (killed via TAGNN_CRASH_AT)
//!   --quick         reduced context (2 datasets, 1 model) for smoke runs
//!   --json          emit one JSON object per experiment instead of text tables
//!   --trace PATH    record a tagnn-obs trace of the whole run (spans per
//!                   pipeline stage plus every published counter) to PATH
//!                   as JSON, and print its summary table afterwards
//!   --threads N     pin the rayon pool to N workers (TAGNN_THREADS env
//!                   var is the fallback) for reproducible numbers
//! ```

use std::io::Write;
use std::sync::Arc;
use tagnn_obs::Recorder;

fn main() {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    match raw.first().map(String::as_str) {
        Some("serve") => {
            if let Err(e) = tagnn_bench::serve::run_serve(&raw[1..]) {
                eprintln!("error: {e}");
                std::process::exit(1);
            }
            return;
        }
        Some("serve-bench") => {
            if let Err(e) = tagnn_bench::serve::run_serve_bench(&raw[1..]) {
                eprintln!("error: {e}");
                std::process::exit(1);
            }
            return;
        }
        Some("serve-scale") => {
            if let Err(e) = tagnn_bench::serve::run_serve_scale(&raw[1..]) {
                eprintln!("error: {e}");
                std::process::exit(1);
            }
            return;
        }
        Some("serve-ab") => {
            if let Err(e) = tagnn_bench::serve::run_serve_ab(&raw[1..]) {
                eprintln!("error: {e}");
                std::process::exit(1);
            }
            return;
        }
        Some("overlap-bench") => {
            if let Err(e) = tagnn_bench::overlap::run_overlap_bench(&raw[1..]) {
                eprintln!("error: {e}");
                std::process::exit(1);
            }
            return;
        }
        Some("crash-bench") => {
            if let Err(e) = tagnn_bench::crash::run_crash_bench(&raw[1..]) {
                eprintln!("error: {e}");
                std::process::exit(1);
            }
            return;
        }
        Some("crash-child") => {
            if let Err(e) = tagnn_bench::crash::run_crash_child(&raw[1..]) {
                eprintln!("error: {e}");
                std::process::exit(1);
            }
            return;
        }
        _ => {}
    }
    let mut opts = tagnn_bench::parse_args(raw.into_iter());
    let threads = tagnn_bench::init_thread_pool(opts.threads);
    if let Some(path) = &opts.bench_json {
        let mut params = tagnn_bench::perf::SuiteParams::ml_default();
        params.scale = opts.ctx.scale;
        params.hidden = opts.ctx.hidden;
        params.window = opts.ctx.window;
        params.snapshots = opts.ctx.snapshots;
        params.seed = opts.ctx.seed;
        let report = tagnn_bench::perf::run_suite(&params, threads);
        std::fs::write(path, report.to_json()).unwrap_or_else(|e| {
            eprintln!("error: cannot write report to {}: {e}", path.display());
            std::process::exit(1);
        });
        print!("{}", report.summary());
        println!("report written to {}", path.display());
        return;
    }
    let recorder = opts.trace.as_ref().map(|_| Arc::new(Recorder::new()));
    if let Some(rec) = &recorder {
        opts.ctx = opts.ctx.with_recorder(Arc::clone(rec));
    }
    let stdout = std::io::stdout();
    let mut out = stdout.lock();
    for id in &opts.ids {
        let result = tagnn::experiments::run(id, &opts.ctx);
        let rendered = tagnn_bench::render_results(std::slice::from_ref(&result), opts.json);
        writeln!(out, "{rendered}").expect("stdout");
    }
    if let (Some(path), Some(rec)) = (&opts.trace, &recorder) {
        let trace = rec.snapshot();
        std::fs::write(path, trace.to_json()).unwrap_or_else(|e| {
            eprintln!("error: cannot write trace to {}: {e}", path.display());
            std::process::exit(1);
        });
        writeln!(out, "\n{}", trace.summary()).expect("stdout");
        writeln!(out, "trace written to {}", path.display()).expect("stdout");
    }
}
