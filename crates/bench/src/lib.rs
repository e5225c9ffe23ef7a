#![warn(missing_docs)]

//! Benchmark harness support for TaGNN.
//!
//! The `experiments` binary regenerates every table and figure of the
//! paper (see `tagnn::experiments`); the Criterion benches under
//! `benches/` measure the library's own kernels (formats, classification,
//! engines, simulator).

pub mod cli;
pub mod crash;
pub mod overlap;
pub mod perf;
pub mod serve;

use std::path::PathBuf;
use tagnn::experiments::{ExperimentContext, ExperimentResult};

/// Resolved harness CLI options.
#[derive(Debug)]
pub struct CliOptions {
    /// Experiment ids to run, in order.
    pub ids: Vec<String>,
    /// The (possibly overridden) experiment context.
    pub ctx: ExperimentContext,
    /// Emit JSON lines instead of text tables.
    pub json: bool,
    /// Write a tagnn-obs trace of the whole run to this path (and print
    /// its summary table to stdout afterwards).
    pub trace: Option<PathBuf>,
    /// Pin the global rayon pool to this many threads (`--threads N`,
    /// falling back to the `TAGNN_THREADS` env var) for reproducible
    /// bench numbers. `None` keeps rayon's default.
    pub threads: Option<usize>,
    /// `bench-json PATH`: run the perf suite (see [`perf`]) instead of
    /// the paper experiments and write its JSON report to PATH.
    pub bench_json: Option<PathBuf>,
}

/// Parses harness CLI arguments.
///
/// Grammar:
/// `experiments [all | <id>... | bench-json PATH] [--quick] [--json]
/// [--trace PATH] [--threads N] [--scale F] [--hidden N] [--window K]
/// [--snapshots N] [--seed N]`.
///
/// `--threads` falls back to the `TAGNN_THREADS` environment variable
/// when the flag is absent.
pub fn parse_args<I: Iterator<Item = String>>(args: I) -> CliOptions {
    let mut ids: Vec<String> = Vec::new();
    let mut quick = false;
    let mut json = false;
    let mut trace: Option<PathBuf> = None;
    let mut threads: Option<usize> = None;
    let mut bench_json: Option<PathBuf> = None;
    let mut overrides: Vec<(String, String)> = Vec::new();
    let mut iter = args.peekable();
    while let Some(a) = iter.next() {
        match a.as_str() {
            "--quick" => quick = true,
            "--json" => json = true,
            "--trace" => {
                let value = iter.next().unwrap_or_else(|| {
                    eprintln!("error: --trace needs a path");
                    std::process::exit(2);
                });
                trace = Some(PathBuf::from(value));
            }
            "--threads" => {
                let value = iter.next().unwrap_or_else(|| {
                    eprintln!("error: --threads needs a count");
                    std::process::exit(2);
                });
                threads = Some(value.parse().unwrap_or_else(|_| {
                    eprintln!("error: --threads: cannot parse `{value}`");
                    std::process::exit(2);
                }));
            }
            "bench-json" => {
                let value = iter
                    .next()
                    .filter(|v| !v.starts_with("--"))
                    .unwrap_or_else(|| {
                        eprintln!("error: bench-json needs an output path");
                        std::process::exit(2);
                    });
                bench_json = Some(PathBuf::from(value));
            }
            key @ ("--scale" | "--hidden" | "--window" | "--snapshots" | "--seed") => {
                let value = iter.next().unwrap_or_else(|| {
                    eprintln!("error: {key} needs a value");
                    std::process::exit(2);
                });
                overrides.push((key.trim_start_matches('-').to_string(), value));
            }
            "all" => ids.extend(
                tagnn::experiments::ALL_EXPERIMENTS
                    .iter()
                    .map(|s| s.to_string()),
            ),
            other => ids.push(other.to_string()),
        }
    }
    if ids.is_empty() {
        ids.extend(
            tagnn::experiments::ALL_EXPERIMENTS
                .iter()
                .map(|s| s.to_string()),
        );
    }
    let mut ctx = if quick {
        ExperimentContext::quick()
    } else {
        ExperimentContext::default()
    };
    for (key, value) in overrides {
        fn fail(k: &str, v: &str) -> ! {
            eprintln!("error: --{k}: cannot parse `{v}`");
            std::process::exit(2);
        }
        match key.as_str() {
            "scale" => ctx.scale = value.parse().unwrap_or_else(|_| fail("scale", &value)),
            "hidden" => ctx.hidden = value.parse().unwrap_or_else(|_| fail("hidden", &value)),
            "window" => ctx.window = value.parse().unwrap_or_else(|_| fail("window", &value)),
            "snapshots" => {
                ctx.snapshots = value.parse().unwrap_or_else(|_| fail("snapshots", &value))
            }
            "seed" => ctx.seed = value.parse().unwrap_or_else(|_| fail("seed", &value)),
            _ => unreachable!(),
        }
    }
    if threads.is_none() {
        if let Ok(env) = std::env::var("TAGNN_THREADS") {
            threads = Some(env.parse().unwrap_or_else(|_| {
                eprintln!("error: TAGNN_THREADS: cannot parse `{env}`");
                std::process::exit(2);
            }));
        }
    }
    CliOptions {
        ids,
        ctx,
        json,
        trace,
        threads,
        bench_json,
    }
}

/// Pins the global rayon pool to `threads` workers (when given) and
/// returns the effective pool width. Call once, before any parallel
/// work; a second build attempt on an already-initialised pool is
/// reported but non-fatal.
///
/// With `TAGNN_PIN_THREADS=1` each rayon worker is pinned to the core
/// matching its pool index (the batch planner thread of
/// `ConcurrentEngine::run_pipelined_threaded` pins itself one core past
/// the pool), which steadies bench numbers on idle multi-core
/// hosts. Pinning requires an explicit `--threads`/`TAGNN_THREADS`
/// width so the core assignment is deliberate.
pub fn init_thread_pool(threads: Option<usize>) -> usize {
    if let Some(n) = threads {
        let mut builder = rayon::ThreadPoolBuilder::new().num_threads(n.max(1));
        if tagnn_tensor::pinning_enabled() {
            builder = builder.start_handler(|i| {
                let _ = tagnn_tensor::pin_current_thread(i);
            });
        }
        if let Err(e) = builder.build_global() {
            eprintln!("warning: rayon pool already initialised: {e:?}");
        }
    }
    rayon::current_num_threads()
}

/// Renders a batch of results, as text or JSON lines.
pub fn render_results(results: &[ExperimentResult], json: bool) -> String {
    if json {
        results
            .iter()
            .map(|r| serde_json::to_string(r).expect("results serialise"))
            .collect::<Vec<_>>()
            .join("\n")
    } else {
        results
            .iter()
            .map(ExperimentResult::render)
            .collect::<Vec<_>>()
            .join("\n")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_args_select_all() {
        let opts = parse_args(std::iter::empty());
        assert_eq!(opts.ids.len(), tagnn::experiments::ALL_EXPERIMENTS.len());
        assert!(!opts.json);
        assert!(opts.trace.is_none());
    }

    #[test]
    fn quick_flag_shrinks_context() {
        let opts = parse_args(vec!["--quick".to_string()].into_iter());
        assert_eq!(opts.ctx.models.len(), 1);
    }

    #[test]
    fn explicit_ids_pass_through() {
        let opts = parse_args(vec!["fig9".to_string(), "--json".to_string()].into_iter());
        assert_eq!(opts.ids, vec!["fig9"]);
        assert!(opts.json);
    }

    #[test]
    fn context_overrides_apply() {
        let opts = parse_args(
            vec![
                "--quick", "--scale", "0.1", "--hidden", "24", "--window", "2",
            ]
            .into_iter()
            .map(String::from),
        );
        assert_eq!(opts.ctx.scale, 0.1);
        assert_eq!(opts.ctx.hidden, 24);
        assert_eq!(opts.ctx.window, 2);
    }

    #[test]
    fn trace_flag_captures_the_path() {
        let opts = parse_args(
            vec!["fig8a", "--trace", "out/trace.json"]
                .into_iter()
                .map(String::from),
        );
        assert_eq!(
            opts.trace.as_deref(),
            Some(std::path::Path::new("out/trace.json"))
        );
    }

    #[test]
    fn threads_flag_is_parsed() {
        let opts = parse_args(vec!["fig9", "--threads", "3"].into_iter().map(String::from));
        assert_eq!(opts.threads, Some(3));
        assert!(opts.bench_json.is_none());
    }

    #[test]
    fn bench_json_subcommand_captures_the_path() {
        let opts = parse_args(
            vec!["bench-json", "BENCH_4.json", "--threads", "1"]
                .into_iter()
                .map(String::from),
        );
        assert_eq!(
            opts.bench_json.as_deref(),
            Some(std::path::Path::new("BENCH_4.json"))
        );
        assert_eq!(opts.threads, Some(1));
    }

    #[test]
    fn render_json_is_parseable() {
        let ctx = ExperimentContext::quick();
        let r = vec![tagnn::experiments::run("table4", &ctx)];
        let out = render_results(&r, true);
        let v: serde_json::Value = serde_json::from_str(&out).unwrap();
        assert_eq!(v["id"], "table4");
    }
}
