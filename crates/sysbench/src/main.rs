//! `tagnn-sysbench`: the command line.
//!
//! ```text
//! tagnn-sysbench --workload <name> [--seed N] [--seconds S] [--trace 0|1|<path>] [--smoke]
//! tagnn-sysbench run [--seed N] [--seconds S] [--trace <prefix>] [--smoke]
//! tagnn-sysbench aa  [--seconds S] [--smoke]
//! ```
//!
//! The first form runs one workload in this process and prints its
//! result object as the last line of standard output (the form
//! `BENCHMARK.json` names). `run` runs every workload, each in a fresh
//! child process so `VmHWM` is per workload; `aa` runs the full set
//! twice per seed on the same build and fails when two runs of the same
//! code disagree by more than the benchmark's own bounds.

use std::collections::{BTreeMap, HashMap};
use std::process::{Command, ExitCode, Stdio};

use tagnn_obs::Recorder;
use tagnn_serve::json;
use tagnn_sysbench::report::Outcome;
use tagnn_sysbench::{batch, serving, spec, stats};

/// Pins glibc malloc to one regime: allocations up to 32 MiB (the
/// largest threshold glibc accepts) come from the heap, and the heap is
/// never trimmed. By default both thresholds adapt to the allocation
/// history, so whether a pass re-faults its few hundred MB of output
/// and plan buffers depends on the seed's exact vector sizes — runs of
/// one build then fall into two speed classes 25 % apart, and page-fault
/// cost in a shared VM swings further still. After warm-up a pinned run
/// touches no fresh pages, so time measures the code.
#[cfg(all(target_os = "linux", target_env = "gnu"))]
fn pin_allocator() {
    extern "C" {
        fn mallopt(param: i32, value: i32) -> i32;
    }
    const M_TRIM_THRESHOLD: i32 = -1;
    const M_MMAP_THRESHOLD: i32 = -3;
    // SAFETY: `mallopt` only stores allocator tunables; it is called
    // once, first thing in `main`, before any other thread exists.
    unsafe {
        mallopt(M_MMAP_THRESHOLD, 32 << 20);
        mallopt(M_TRIM_THRESHOLD, i32::MAX);
    }
}

#[cfg(not(all(target_os = "linux", target_env = "gnu")))]
fn pin_allocator() {}

fn main() -> ExitCode {
    pin_allocator();
    // Pinned before any thread exists or any kernel dispatch decision
    // is made: the cost model is read once per process.
    std::env::set_var("TAGNN_COST_MODEL", spec::PINNED_COST_MODEL);
    let _ = rayon::ThreadPoolBuilder::new()
        .num_threads(spec::PINNED_RAYON_THREADS)
        .build_global();

    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("run") => parse_flags(&args[1..]).and_then(|f| cmd_run(&f)),
        Some("aa") => parse_flags(&args[1..]).and_then(|f| cmd_aa(&f)),
        // One workload: the result line carries the verdict, so a
        // completed run exits 0 even when `correct` is false.
        _ => parse_flags(&args)
            .and_then(|f| cmd_workload(&f))
            .map(|_| true),
    };
    match result {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(2),
        Err(msg) => {
            eprintln!("tagnn-sysbench: {msg}");
            ExitCode::from(1)
        }
    }
}

type Flags = HashMap<String, String>;

/// `--key value` pairs plus the bare `--smoke`.
fn parse_flags(args: &[String]) -> Result<Flags, String> {
    let mut flags = Flags::new();
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let key = arg
            .strip_prefix("--")
            .ok_or_else(|| format!("unexpected argument `{arg}`"))?;
        if !["workload", "seed", "seconds", "trace", "smoke"].contains(&key) {
            return Err(format!("unknown flag --{key}"));
        }
        let value = if key == "smoke" {
            "1".to_string()
        } else {
            it.next()
                .ok_or_else(|| format!("--{key} needs a value"))?
                .clone()
        };
        flags.insert(key.to_string(), value);
    }
    Ok(flags)
}

fn seed_of(flags: &Flags) -> Result<u64, String> {
    flags.get("seed").map_or(Ok(spec::DEFAULT_SEED), |s| {
        s.parse().map_err(|_| format!("--seed: cannot parse `{s}`"))
    })
}

fn seconds_of(flags: &Flags) -> Result<f64, String> {
    let seconds = flags
        .get("seconds")
        .map_or(Ok(spec::DEFAULT_SECONDS as f64), |s| {
            s.parse::<f64>()
                .map_err(|_| format!("--seconds: cannot parse `{s}`"))
        })?;
    if seconds > 0.0 && seconds <= 600.0 {
        Ok(seconds)
    } else {
        Err(format!("--seconds must be in (0, 600], got {seconds}"))
    }
}

/// Runs one workload in this process and prints its result.
fn cmd_workload(flags: &Flags) -> Result<(), String> {
    let name = flags
        .get("workload")
        .ok_or("--workload <name> is required (or use `run` / `aa`)")?;
    let seed = seed_of(flags)?;
    let seconds = seconds_of(flags)?;
    let smoke = flags.contains_key("smoke");
    let trace = flags.get("trace").map_or("0", String::as_str);
    let traced = trace != "0";

    let rec = Recorder::new();
    let out: Outcome = if let Some(b) = spec::batch_spec(name, smoke) {
        if traced {
            batch::run_traced(&b, seed, seconds, &rec)
        } else {
            batch::run(&b, seed, seconds)
        }
    } else if let Some(s) = spec::serve_spec(name, smoke) {
        if traced {
            serving::run_traced(&s, seed, seconds, &rec)
        } else {
            serving::run(&s, seed, seconds)
        }
        .map_err(|e| format!("{name}: {e}"))?
    } else {
        return Err(format!(
            "unknown workload `{name}` (one of {})",
            spec::WORKLOADS.join(", ")
        ));
    };
    if traced && trace != "1" {
        rec.save_json(std::path::Path::new(trace))
            .map_err(|e| format!("cannot write trace {trace}: {e}"))?;
    }
    out.print(name, seed, seconds, traced);
    Ok(())
}

/// What a child run reported on its last line.
struct ChildResult {
    correct: bool,
    metrics: BTreeMap<String, f64>,
}

/// Runs one workload in a fresh child process, passes its output
/// through, and parses its last line.
fn run_child(
    workload: &str,
    seed: u64,
    seconds: f64,
    trace: &str,
    smoke: bool,
) -> Result<ChildResult, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find own executable: {e}"))?;
    let mut cmd = Command::new(exe);
    cmd.args(["--workload", workload])
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string()])
        .args(["--trace", trace])
        .stdin(Stdio::null())
        .stderr(Stdio::inherit());
    if smoke {
        cmd.arg("--smoke");
    }
    let output = cmd
        .output()
        .map_err(|e| format!("cannot start child for {workload}: {e}"))?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    print!("{stdout}");
    if !output.status.success() {
        return Err(format!("{workload}: child exited with {}", output.status));
    }
    let last = stdout
        .lines()
        .last()
        .ok_or_else(|| format!("{workload}: child printed nothing"))?;
    let doc = json::parse(last).map_err(|e| format!("{workload}: bad result line: {e}"))?;
    let metrics = doc
        .get("metrics")
        .and_then(json::Value::as_object)
        .ok_or_else(|| format!("{workload}: result line has no metrics"))?
        .iter()
        .filter_map(|(k, v)| Some((k.clone(), v.get("value")?.as_f64()?)))
        .collect();
    Ok(ChildResult {
        correct: doc.get("correct").and_then(json::Value::as_bool) == Some(true),
        metrics,
    })
}

/// `run`: every workload once (plus one traced run each with
/// `--trace <prefix>`, spans written to `<prefix>.<workload>.json`).
fn cmd_run(flags: &Flags) -> Result<bool, String> {
    let seed = seed_of(flags)?;
    let seconds = seconds_of(flags)?;
    let smoke = flags.contains_key("smoke");
    let mut all_correct = true;
    let mut summary = Vec::new();
    for workload in spec::WORKLOADS {
        let res = run_child(workload, seed, seconds, "0", smoke)?;
        all_correct &= res.correct;
        summary.push((workload, res));
        if let Some(prefix) = flags.get("trace") {
            let path = format!("{prefix}.{workload}.json");
            all_correct &= run_child(workload, seed, seconds, &path, smoke)?.correct;
        }
    }
    println!("# summary (seed {seed}, {seconds} s per workload)");
    for d in &spec::END_TO_END {
        for (workload, res) in &summary {
            let v = res.metrics.get(d.name).copied().unwrap_or(f64::NAN);
            println!("{:<22} {:<24} {:>20} {}", workload, d.name, v, d.unit);
        }
    }
    println!("# all outputs correct: {all_correct}");
    Ok(all_correct)
}

/// One full set: every workload untraced and traced.
fn run_set(
    seed: u64,
    seconds: f64,
    smoke: bool,
) -> Result<Vec<(ChildResult, ChildResult)>, String> {
    spec::WORKLOADS
        .iter()
        .map(|w| {
            Ok((
                run_child(w, seed, seconds, "0", smoke)?,
                run_child(w, seed, seconds, "1", smoke)?,
            ))
        })
        .collect()
}

/// `aa`: two sets of runs of the same build per seed (default and
/// held-out). Every end-to-end metric must agree within its bound and
/// every exact metric must be identical.
fn cmd_aa(flags: &Flags) -> Result<bool, String> {
    let seconds = seconds_of(flags)?;
    let smoke = flags.contains_key("smoke");
    let mut pass = true;
    let mut lines = Vec::new();
    for seed in [spec::DEFAULT_SEED, spec::HELD_OUT_SEED] {
        let first = run_set(seed, seconds, smoke)?;
        let second = run_set(seed, seconds, smoke)?;
        for ((workload, a), b) in spec::WORKLOADS.iter().zip(&first).zip(&second) {
            pass &= a.0.correct && a.1.correct && b.0.correct && b.1.correct;
            for d in &spec::END_TO_END {
                let (x, y) = (a.0.metrics[d.name], b.0.metrics[d.name]);
                let diff = stats::relative_worsening(x, y, d.lower_is_better).abs();
                let ok = diff <= d.bound;
                pass &= ok;
                lines.push(format!(
                    "{seed:>10} {workload:<20} {:<24} {x:>16.6} {y:>16.6} {:>+8.4} / {:.2} {}",
                    d.name,
                    diff,
                    d.bound,
                    if ok { "ok" } else { "OUTSIDE" }
                ));
            }
            for name in spec::EXACT {
                let (x, y) = (a.1.metrics[name], b.1.metrics[name]);
                if x.to_bits() != y.to_bits() {
                    pass = false;
                    lines.push(format!(
                        "{seed:>10} {workload:<20} {name:<24} {x} != {y} NOT IDENTICAL"
                    ));
                }
            }
        }
    }
    println!("# A/A: seed, workload, metric, first, second, |relative difference| / bound");
    for l in &lines {
        println!("{l}");
    }
    println!(
        "# exact metrics compared per workload and seed: {}",
        spec::EXACT.len()
    );
    println!("# A/A {}", if pass { "passed" } else { "FAILED" });
    Ok(pass)
}
