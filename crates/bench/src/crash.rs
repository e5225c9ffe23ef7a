//! `experiments crash-bench` / `crash-child`: the fault-injection
//! harness behind `BENCH_10.json`.
//!
//! The parent (`crash-bench`) spawns the current executable as
//! `crash-child` processes with `TAGNN_CRASH_AT` set, so each child is
//! hard-killed (`std::process::abort`, no destructors, no flushes) at a
//! randomized durability-critical instant — mid group-commit fsync, mid
//! WAL append (torn record), between checkpoint temp-write and rename,
//! or between rename and prune. A final child without injection recovers
//! and finishes the trace. The differential: the union of every window
//! digest the children emitted must be bit-identical to an uninterrupted
//! run — same `(stream, seq) → digest` map, no extras, no gaps, no
//! conflicting re-serves. `TAGNN_COST_MODEL` is pinned in every child so
//! plan choices cannot drift between processes.
//!
//! The report also carries the price of durability: trace wall-clock
//! with durability off vs on, and a checkpoint-cadence ablation.

use std::collections::HashMap;
use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::process::Command;
use std::time::Instant;

use tagnn_graph::generate::GeneratorConfig;
use tagnn_models::ModelKind;
use tagnn_serve::event::events_from_graph;
use tagnn_serve::{DurabilityConfig, EdgeEvent, InferRequest, ServeConfig, ServeCore};

use crate::cli::{num, parse_flags};

/// Cost-model coefficients pinned into every child process (and the
/// in-process overhead runs) so kernel/plan choices are identical across
/// process boundaries — a prerequisite for bit-identity differentials.
const PINNED_COST_MODEL: &str = "0.25,0.25,16.0,1.0";

/// The durability-critical injection points the harness samples, with
/// the countdown range each one draws from.
const KILL_POINTS: [(&str, u64); 4] = [
    ("wal_fsync", 2), // mid group-commit: acknowledged-but-unsynced tail
    ("wal_torn", 6),  // mid append: torn record for recovery to truncate
    ("ckpt_tmp", 2),  // after tmp write, before rename
    ("ckpt_done", 2), // after rename, before prune
];

/// SplitMix64: deterministic kill-point sampling from `--seed`.
struct SplitMix(u64);

impl SplitMix {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n.max(1)
    }
}

struct TraceSpec {
    graph: GeneratorConfig,
    model: ModelKind,
    shards: usize,
    window: usize,
    hidden: usize,
    group_commit: usize,
    checkpoint_every: u64,
}

impl TraceSpec {
    fn serve_config(&self, dir: Option<&Path>) -> ServeConfig {
        ServeConfig {
            universe: self.graph.num_vertices,
            feature_dim: self.graph.feature_dim,
            window: self.window,
            model: self.model,
            hidden: self.hidden,
            shards: self.shards,
            // Digests must be load-independent across children, so the
            // backlog-driven skip-band widening stays off.
            degradation: tagnn_serve::DegradationPolicy::disabled(),
            durability: dir.map(|d| {
                let mut cfg = DurabilityConfig::new(d.to_path_buf());
                cfg.group_commit = self.group_commit;
                cfg.checkpoint_every_windows = self.checkpoint_every;
                cfg
            }),
            ..ServeConfig::default()
        }
    }

    /// Per-stream request groups: every stream (one per shard) replays
    /// the canonical trace; each group seals exactly one snapshot.
    fn request_groups(&self) -> Vec<Vec<InferRequest>> {
        let g = self.graph.generate();
        let groups = events_from_graph(&g);
        let last = groups.len() - 1;
        let streams = self.shards as u64;
        groups
            .into_iter()
            .enumerate()
            .map(|(i, events)| {
                (0..streams)
                    .map(|stream| InferRequest {
                        stream,
                        events: events.clone(),
                        flush: i == last,
                    })
                    .collect()
            })
            .collect()
    }
}

fn model_spelling(m: ModelKind) -> &'static str {
    match m {
        ModelKind::CdGcn => "cdgcn",
        ModelKind::GcLstm => "gclstm",
        ModelKind::TGcn => "tgcn",
    }
}

/// `experiments crash-child`: serve the spec'd trace with durability on,
/// resuming from whatever the durability directory already holds, and
/// print every served window digest. Killed mid-run by `TAGNN_CRASH_AT`
/// when the parent injected a fault; runs to `DONE` otherwise.
pub fn run_crash_child(args: &[String]) -> Result<(), String> {
    let flags = parse_flags(args)?;
    let model = crate::cli::model_of(&flags)?;
    let dir = PathBuf::from(
        flags
            .get("durable-dir")
            .ok_or("crash-child requires --durable-dir")?,
    );
    let mut graph = GeneratorConfig::tiny();
    graph.num_snapshots = num(&flags, "snapshots", 8)?;
    graph.seed = num(&flags, "seed", graph.seed)?;
    let spec = TraceSpec {
        graph,
        model,
        shards: num(&flags, "shards", 2)?,
        window: num(&flags, "window", 3)?,
        hidden: num(&flags, "hidden", 8)?,
        group_commit: num(&flags, "group-commit", 4)?,
        checkpoint_every: num(&flags, "checkpoint-every", 2)?,
    };

    let core = ServeCore::start(spec.serve_config(Some(&dir)));
    let report = core
        .recovery_report()
        .ok_or("durability must be on in crash-child")?
        .clone();
    println!(
        "REPORT ckpt={} replayed_requests={} replayed_events={} truncated={}",
        report
            .checkpoint_seq
            .map_or(-1i64, |s| i64::try_from(s).unwrap_or(i64::MAX)),
        report.replayed_requests,
        report.replayed_events,
        report.truncated_tail_bytes,
    );
    // Windows re-served by WAL replay never reached a client — their
    // digests only surface through the recovery report, and the
    // differential needs them to prove re-served bits match the
    // original serve.
    for w in &report.replayed_windows {
        println!("W {} {} {}", w.stream, w.seq, w.digest);
    }
    // Continue each stream from its recovered cursor. The WAL logs whole
    // requests, so recovery always lands on a group boundary: a stream's
    // resumed tick count equals the ticks of some prefix of its groups.
    let resume: HashMap<u64, u64> = report.resume_ticks.iter().copied().collect();
    let mut cursor: HashMap<u64, u64> = HashMap::new();
    for group in spec.request_groups() {
        for req in group {
            let ticks = req
                .events
                .iter()
                .filter(|e| matches!(e, EdgeEvent::Tick))
                .count() as u64;
            let pos = cursor.entry(req.stream).or_insert(0);
            let start = *pos;
            *pos += ticks;
            if start + ticks <= resume.get(&req.stream).copied().unwrap_or(0) {
                continue; // already applied before the crash
            }
            let reply = core
                .submit(req)
                .map_err(|e| format!("submit: {e}"))?
                .wait()
                .map_err(|e| format!("serve: {e}"))?;
            for w in reply.windows {
                println!("W {} {} {}", w.stream, w.seq, w.digest);
            }
        }
    }
    let d = core.durable_stats();
    println!(
        "DONE wal_appends={} wal_fsyncs={} checkpoints={}",
        d.wal_appends, d.wal_fsyncs, d.checkpoints_written
    );
    core.shutdown();
    Ok(())
}

/// `experiments crash-bench`: the kill-and-recover differential plus the
/// durability-overhead rows, written to `--out` (default BENCH_10.json).
pub fn run_crash_bench(args: &[String]) -> Result<(), String> {
    let flags = parse_flags(args)?;
    for key in flags.keys() {
        const KNOWN: [&str; 5] = ["out", "smoke", "kills", "seed", "snapshots"];
        if !KNOWN.contains(&key.as_str()) {
            return Err(format!("unknown flag --{key}"));
        }
    }
    let smoke = flags.contains_key("smoke");
    let kills: usize = num(&flags, "kills", 3)?;
    let seed: u64 = num(&flags, "seed", 1)?;
    let snapshots: usize = num(&flags, "snapshots", 8)?;
    let out = flags
        .get("out")
        .cloned()
        .unwrap_or_else(|| "BENCH_10.json".to_string());

    let models: &[ModelKind] = if smoke {
        &[ModelKind::TGcn]
    } else {
        &ModelKind::ALL
    };
    let shard_counts: &[usize] = if smoke { &[2] } else { &[1, 2, 4] };

    let mut rng = SplitMix(seed.wrapping_mul(0x9E37_79B9).wrapping_add(7));
    let mut diff_rows = String::new();
    let mut combos = 0usize;
    for &model in models {
        for &shards in shard_counts {
            let mut graph = GeneratorConfig::tiny();
            graph.num_snapshots = snapshots;
            graph.seed = seed;
            let spec = TraceSpec {
                graph,
                model,
                shards,
                window: 3,
                hidden: 8,
                group_commit: 4,
                checkpoint_every: 2,
            };
            let row = differential(&spec, kills, &mut rng)?;
            if combos > 0 {
                diff_rows.push_str(",\n");
            }
            combos += 1;
            let _ = write!(
                diff_rows,
                concat!(
                    r#"    {{"model": "{}", "shards": {}, "kills": [{}], "#,
                    r#""child_runs": {}, "windows": {}, "bit_identical": true}}"#
                ),
                model.name(),
                shards,
                row.kills.join(", "),
                row.child_runs,
                row.windows,
            );
            println!(
                "crash-bench: {} shards={} — {} windows bit-identical across {} kills",
                model.name(),
                shards,
                row.windows,
                row.kills.len()
            );
        }
    }

    // Durability price: wall-clock with durability off, on at the
    // default cadence, and a cadence ablation — all in-process (no
    // cross-process digest comparison, so no cost-model pinning needed).
    let mut overhead_rows = String::new();
    let cadences: &[(&str, Option<u64>)] = if smoke {
        &[("off", None), ("every_2", Some(2))]
    } else {
        &[
            ("off", None),
            ("every_1", Some(1)),
            ("every_2", Some(2)),
            ("every_8", Some(8)),
            ("every_64", Some(64)),
        ]
    };
    for (i, (label, cadence)) in cadences.iter().enumerate() {
        let mut graph = GeneratorConfig::tiny();
        graph.num_snapshots = snapshots;
        graph.seed = seed;
        let spec = TraceSpec {
            graph,
            model: ModelKind::TGcn,
            shards: 2,
            window: 3,
            hidden: 8,
            group_commit: 4,
            checkpoint_every: cadence.unwrap_or(2),
        };
        let row = overhead_run(&spec, cadence.is_some())?;
        if i > 0 {
            overhead_rows.push_str(",\n");
        }
        let _ = write!(
            overhead_rows,
            concat!(
                r#"    {{"durability": "{}", "wall_us": {}, "wal_appends": {}, "#,
                r#""wal_fsyncs": {}, "checkpoints": {}}}"#
            ),
            label, row.wall_us, row.wal_appends, row.wal_fsyncs, row.checkpoints
        );
        println!(
            "crash-bench: durability={label} wall={}us wal_appends={} fsyncs={} checkpoints={}",
            row.wall_us, row.wal_appends, row.wal_fsyncs, row.checkpoints
        );
    }

    let mut report = String::with_capacity(2048);
    let _ = write!(
        report,
        concat!(
            "{{\n  \"bench\": \"crash\",\n",
            "  \"config\": {{\"snapshots\": {}, \"seed\": {}, \"kills_per_combo\": {}, ",
            "\"smoke\": {}, \"cost_model\": \"{}\"}},\n",
            "  \"note\": \"differential: union of child window digests across randomized ",
            "hard kills equals an uninterrupted run bit for bit\",\n",
            "  \"differential\": [\n{}\n  ],\n",
            "  \"overhead\": [\n{}\n  ]\n}}\n"
        ),
        snapshots, seed, kills, smoke, PINNED_COST_MODEL, diff_rows, overhead_rows
    );
    std::fs::write(&out, &report).map_err(|e| format!("cannot write {out}: {e}"))?;
    println!("report written to {out}");
    Ok(())
}

struct DiffRow {
    kills: Vec<String>,
    child_runs: usize,
    windows: usize,
}

struct OverheadRow {
    wall_us: u64,
    wal_appends: u64,
    wal_fsyncs: u64,
    checkpoints: u64,
}

/// A scratch directory for one differential, removed on drop.
struct Scratch(PathBuf);

impl Scratch {
    fn new(tag: &str) -> Result<Self, String> {
        let dir = std::env::temp_dir().join(format!(
            "tagnn-crash-{}-{}",
            std::process::id(),
            tag.replace(['/', ' '], "_")
        ));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).map_err(|e| format!("mkdir {}: {e}", dir.display()))?;
        Ok(Scratch(dir))
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn child_command(spec: &TraceSpec, dir: &Path, crash_at: Option<&str>) -> Result<Command, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let mut cmd = Command::new(exe);
    cmd.arg("crash-child")
        .arg("--durable-dir")
        .arg(dir)
        .args(["--model", model_spelling(spec.model)])
        .args(["--shards", &spec.shards.to_string()])
        .args(["--snapshots", &spec.graph.num_snapshots.to_string()])
        .args(["--seed", &spec.graph.seed.to_string()])
        .args(["--window", &spec.window.to_string()])
        .args(["--hidden", &spec.hidden.to_string()])
        .args(["--group-commit", &spec.group_commit.to_string()])
        .args(["--checkpoint-every", &spec.checkpoint_every.to_string()])
        .env("TAGNN_COST_MODEL", PINNED_COST_MODEL)
        .env_remove("TAGNN_CRASH_AT");
    if let Some(at) = crash_at {
        cmd.env("TAGNN_CRASH_AT", at);
    }
    Ok(cmd)
}

/// Runs one child, merging its `W stream seq digest` lines into
/// `digests`. A window re-served after recovery must re-serve the SAME
/// bits — a conflicting digest fails the differential immediately.
fn run_child_into(
    spec: &TraceSpec,
    dir: &Path,
    crash_at: Option<&str>,
    digests: &mut HashMap<(u64, u64), u64>,
) -> Result<bool, String> {
    let output = child_command(spec, dir, crash_at)?
        .output()
        .map_err(|e| format!("spawn crash-child: {e}"))?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    let mut finished = false;
    for line in stdout.lines() {
        let mut parts = line.split_whitespace();
        match parts.next() {
            Some("W") => {
                let stream: u64 = parts
                    .next()
                    .and_then(|s| s.parse().ok())
                    .ok_or_else(|| format!("bad W line: {line}"))?;
                let seq: u64 = parts
                    .next()
                    .and_then(|s| s.parse().ok())
                    .ok_or_else(|| format!("bad W line: {line}"))?;
                let digest: u64 = parts
                    .next()
                    .and_then(|s| s.parse().ok())
                    .ok_or_else(|| format!("bad W line: {line}"))?;
                if let Some(old) = digests.insert((stream, seq), digest) {
                    if old != digest {
                        return Err(format!(
                            "window (stream {stream}, seq {seq}) re-served with different bits: \
                             {old:#x} then {digest:#x} (kill {crash_at:?})"
                        ));
                    }
                }
            }
            Some("DONE") => finished = true,
            _ => {}
        }
    }
    if crash_at.is_none() && !finished {
        return Err(format!(
            "uninjected crash-child died (status {:?}): {}",
            output.status,
            String::from_utf8_lossy(&output.stderr)
        ));
    }
    Ok(finished)
}

fn differential(spec: &TraceSpec, kills: usize, rng: &mut SplitMix) -> Result<DiffRow, String> {
    let tag = format!("{}-{}", model_spelling(spec.model), spec.shards);
    // Uninterrupted baseline: one clean child in its own directory.
    let base_dir = Scratch::new(&format!("base-{tag}"))?;
    let mut baseline = HashMap::new();
    run_child_into(spec, &base_dir.0, None, &mut baseline)?;

    // Kill sequence: `kills` children with randomized injection points
    // sharing one durability directory, then a clean child to finish.
    let dir = Scratch::new(&format!("kill-{tag}"))?;
    let mut merged = HashMap::new();
    let mut specs = Vec::new();
    let mut runs = 0usize;
    let mut crashed = 0usize;
    for _ in 0..kills {
        let (point, range) = KILL_POINTS[rng.below(KILL_POINTS.len() as u64) as usize];
        let at = format!("{point}:{}", 1 + rng.below(range));
        let finished = run_child_into(spec, &dir.0, Some(&at), &mut merged)?;
        runs += 1;
        crashed += usize::from(!finished);
        specs.push(format!(
            "\"{at}{}\"",
            if finished { " (ran through)" } else { "" }
        ));
    }
    run_child_into(spec, &dir.0, None, &mut merged)?;
    runs += 1;
    if crashed == 0 {
        // A countdown that never fires yields a clean run — valid, but if
        // every draw missed, the differential would be vacuous. Rerun the
        // trace in a fresh directory with a kill on the very first WAL
        // append (guaranteed to fire), then recover and finish it; the
        // digests merge into the same differential.
        let forced = Scratch::new(&format!("forced-{tag}"))?;
        let finished = run_child_into(spec, &forced.0, Some("wal_torn:1"), &mut merged)?;
        assert!(!finished, "wal_torn:1 must kill the child");
        run_child_into(spec, &forced.0, None, &mut merged)?;
        runs += 2;
        specs.push("\"wal_torn:1 (forced)\"".to_string());
    }

    if merged != baseline {
        let missing = baseline.keys().filter(|k| !merged.contains_key(k)).count();
        let extra = merged.keys().filter(|k| !baseline.contains_key(k)).count();
        let diverged = baseline
            .iter()
            .filter(|(k, v)| merged.get(k).is_some_and(|m| m != *v))
            .count();
        return Err(format!(
            "kill-and-recover differential failed for {} shards={}: \
             {missing} missing, {extra} extra, {diverged} diverged of {} windows",
            spec.model.name(),
            spec.shards,
            baseline.len()
        ));
    }
    Ok(DiffRow {
        kills: specs,
        child_runs: runs,
        windows: baseline.len(),
    })
}

fn overhead_run(spec: &TraceSpec, durable: bool) -> Result<OverheadRow, String> {
    let dir = if durable {
        Some(Scratch::new(&format!("ovh-{}", spec.checkpoint_every))?)
    } else {
        None
    };
    let mut core = ServeCore::start(spec.serve_config(dir.as_ref().map(|d| d.0.as_path())));
    let t0 = Instant::now();
    for group in spec.request_groups() {
        for req in group {
            core.submit(req)
                .map_err(|e| format!("submit: {e}"))?
                .wait()
                .map_err(|e| format!("serve: {e}"))?;
        }
    }
    let wall_us = t0.elapsed().as_micros() as u64;
    // Checkpoints are written behind the replies: count them only once
    // the writer has drained.
    core.stop();
    let d = core.durable_stats();
    Ok(OverheadRow {
        wall_us,
        wal_appends: d.wal_appends,
        wal_fsyncs: d.wal_fsyncs,
        checkpoints: d.checkpoints_written,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn splitmix_is_deterministic_and_bounded() {
        let mut a = SplitMix(42);
        let mut b = SplitMix(42);
        for _ in 0..100 {
            let x = a.below(7);
            assert_eq!(x, b.below(7));
            assert!(x < 7);
        }
    }

    #[test]
    fn crash_bench_rejects_unknown_flags() {
        let args = vec!["--bogus".to_string(), "1".to_string()];
        let err = run_crash_bench(&args).unwrap_err();
        assert!(err.contains("unknown flag"), "got: {err}");
    }

    #[test]
    fn overhead_run_counts_wal_work_only_when_durable() {
        let mut graph = GeneratorConfig::tiny();
        graph.num_snapshots = 4;
        let spec = TraceSpec {
            graph,
            model: ModelKind::TGcn,
            shards: 1,
            window: 2,
            hidden: 6,
            group_commit: 2,
            checkpoint_every: 1,
        };
        let off = overhead_run(&spec, false).expect("durability off");
        assert_eq!(off.wal_appends, 0);
        let on = overhead_run(&spec, true).expect("durability on");
        assert!(on.wal_appends > 0, "durable run must log requests");
        assert!(on.checkpoints > 0, "cadence 1 must cut checkpoints");
    }
}
