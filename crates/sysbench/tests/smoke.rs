//! Runs every workload at `--smoke` size, untraced and traced, and
//! checks the output contract against `BENCHMARK.json`: every metric
//! named there is emitted exactly once, with its unit and a legal name,
//! on the last line of standard output.

use std::process::Command;

use serde_json::Value;
use tagnn_sysbench::spec;

const MANIFEST: &str = include_str!("../../../BENCHMARK.json");

fn manifest() -> Value {
    serde_json::from_str(MANIFEST).expect("BENCHMARK.json parses")
}

fn entries(v: &Value) -> &[(String, Value)] {
    match v {
        Value::Map(entries) => entries,
        other => panic!("expected an object, got {other:?}"),
    }
}

fn str_of<'a>(v: &'a Value, key: &str) -> &'a str {
    v.get(key)
        .and_then(Value::as_str)
        .unwrap_or_else(|| panic!("missing string field `{key}`"))
}

fn legal_name(name: &str) -> bool {
    !name.is_empty()
        && name.len() <= 64
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
}

/// Runs one smoke workload and returns the parsed last line.
fn run(workload: &str, trace: &str) -> Value {
    let out = Command::new(env!("CARGO_BIN_EXE_tagnn-sysbench"))
        .args(["--workload", workload, "--seed", "3", "--seconds", "1"])
        .args(["--trace", trace, "--smoke"])
        .current_dir(env!("CARGO_TARGET_TMPDIR"))
        .output()
        .expect("benchmark binary starts");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "{workload} --trace {trace} failed: {}\n{stdout}",
        String::from_utf8_lossy(&out.stderr)
    );
    let last = stdout.lines().last().expect("a result line");
    serde_json::from_str(last).unwrap_or_else(|e| panic!("bad result line `{last}`: {e}"))
}

/// Checks one result object against the manifest's metric list `key`.
fn check(workload: &str, trace: &str, key: &str) {
    let result = run(workload, trace);
    let keys: Vec<&str> = entries(&result).iter().map(|(k, _)| k.as_str()).collect();
    assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
    assert_eq!(result.get("correct").and_then(Value::as_bool), Some(true));
    assert_eq!(result.get("failed").and_then(Value::as_u64), Some(0));
    assert!(result.get("attempted").and_then(Value::as_u64) >= Some(1));

    let manifest = manifest();
    let wanted = manifest.get(key).and_then(Value::as_array).expect(key);
    let emitted = entries(result.get("metrics").expect("metrics"));
    assert_eq!(emitted.len(), wanted.len(), "{workload}: metric count");
    for want in wanted {
        let name = str_of(want, "name");
        assert!(legal_name(name), "illegal metric name `{name}`");
        let hits: Vec<&Value> = emitted
            .iter()
            .filter(|(k, _)| k == name)
            .map(|(_, v)| v)
            .collect();
        assert_eq!(hits.len(), 1, "{workload}: `{name}` emitted once");
        assert_eq!(str_of(hits[0], "unit"), str_of(want, "unit"), "{name}");
        let value = hits[0].get("value").and_then(Value::as_f64).expect(name);
        assert!(value.is_finite(), "{name} = {value}");
        if key == "end_to_end" {
            assert!(value > 0.0, "{workload}: end-to-end `{name}` must not be 0");
        }
    }
}

#[test]
fn batch_stable_smoke() {
    check("batch_stable", "0", "end_to_end");
    check("batch_stable", "1", "per_layer");
}

#[test]
fn batch_churn_smoke() {
    check("batch_churn", "0", "end_to_end");
    check("batch_churn", "1", "per_layer");
}

#[test]
fn serve_windows_smoke() {
    check("serve_windows", "0", "end_to_end");
    check("serve_windows", "1", "per_layer");
}

#[test]
fn serve_fanin_durable_smoke() {
    check("serve_fanin_durable", "0", "end_to_end");
    check("serve_fanin_durable", "1", "per_layer");
}

/// The tables compiled into the binary and `BENCHMARK.json` are two
/// spellings of one contract.
#[test]
fn manifest_matches_the_compiled_tables() {
    let manifest = manifest();
    let names: Vec<&str> = manifest
        .get("workloads")
        .and_then(Value::as_array)
        .expect("workloads")
        .iter()
        .map(|w| str_of(w, "name"))
        .collect();
    assert_eq!(names, spec::WORKLOADS);
    assert_eq!(
        manifest.get("run_seconds").and_then(Value::as_u64),
        Some(spec::DEFAULT_SECONDS)
    );
    for (key, table) in [
        ("end_to_end", &spec::END_TO_END[..]),
        ("per_layer", &spec::PER_LAYER[..]),
    ] {
        let listed = manifest.get(key).and_then(Value::as_array).expect(key);
        assert_eq!(listed.len(), table.len(), "{key}: metric count");
        for (want, def) in listed.iter().zip(table) {
            assert_eq!(str_of(want, "name"), def.name);
            assert_eq!(str_of(want, "unit"), def.unit, "{}", def.name);
            let better = if def.lower_is_better {
                "lower"
            } else {
                "higher"
            };
            assert_eq!(str_of(want, "better"), better, "{}", def.name);
            if key == "end_to_end" {
                let bound = want.get("bound").and_then(Value::as_f64);
                assert_eq!(bound, Some(def.bound), "{}", def.name);
            }
        }
    }
    for name in spec::EXACT {
        assert!(
            spec::PER_LAYER.iter().any(|d| d.name == name),
            "exact metric `{name}` is not a per-layer metric"
        );
    }
}
