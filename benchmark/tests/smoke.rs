//! Runs every workload at its smoke sizes, untraced and traced, and
//! holds the output to the contract: the last line is one JSON object
//! with every metric `BENCHMARK.json` names for that kind of run, each
//! finite, with its listed unit, and no failed op.

#[path = "../src/json.rs"]
#[allow(dead_code)]
mod json;

use json::Value;
use std::path::Path;
use std::process::Command;

fn manifest() -> Value {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    json::parse(&std::fs::read_to_string(path).expect("BENCHMARK.json")).expect("valid JSON")
}

fn names_and_units(manifest: &Value, key: &str) -> Vec<(String, String)> {
    manifest
        .get(key)
        .and_then(Value::as_arr)
        .expect("metric list")
        .iter()
        .map(|m| {
            let field = |f| {
                m.get(f)
                    .and_then(Value::as_str)
                    .expect("string")
                    .to_string()
            };
            (field("name"), field("unit"))
        })
        .collect()
}

fn run(workload: &str, trace: bool, out: &Path) -> Value {
    let output = Command::new(env!("CARGO_BIN_EXE_irf-benchmark"))
        .args([
            "--workload",
            workload,
            "--seed",
            "11",
            "--seconds",
            "3",
            "--smoke",
        ])
        .args(["--trace", if trace { "1" } else { "0" }])
        .arg("--out")
        .arg(out)
        .output()
        .expect("spawn irf-benchmark");
    assert!(
        output.status.success(),
        "{workload} trace={trace} exited {:?}: {}",
        output.status.code(),
        String::from_utf8_lossy(&output.stderr)
    );
    let stdout = String::from_utf8(output.stdout).expect("utf-8 stdout");
    json::parse(stdout.lines().last().expect("a result line")).expect("result line is JSON")
}

#[test]
fn every_workload_emits_every_named_metric() {
    let manifest = manifest();
    let out = Path::new(env!("CARGO_TARGET_TMPDIR")).join("smoke-out");
    let _ = std::fs::remove_dir_all(&out);
    let workloads: Vec<String> = manifest
        .get("workloads")
        .and_then(Value::as_arr)
        .expect("workloads")
        .iter()
        .map(|w| {
            w.get("name")
                .and_then(Value::as_str)
                .expect("name")
                .to_string()
        })
        .collect();
    assert_eq!(workloads.len(), 4);
    for workload in &workloads {
        for (trace, key) in [(false, "end_to_end"), (true, "per_layer")] {
            let result = run(workload, trace, &out);
            let label = format!("{workload} trace={trace}");
            assert_eq!(result.get("correct"), Some(&Value::Bool(true)), "{label}");
            assert_eq!(
                result.get("failed").and_then(Value::as_f64),
                Some(0.0),
                "{label}"
            );
            // 60 timed ops untraced, three replays per class traced.
            assert_eq!(
                result.get("attempted").and_then(Value::as_f64),
                Some(if trace { 6.0 } else { 60.0 }),
                "{label}"
            );
            let Some(Value::Obj(metrics)) = result.get("metrics") else {
                panic!("{label}: no metrics object");
            };
            let wanted = names_and_units(&manifest, key);
            assert_eq!(metrics.len(), wanted.len(), "{label}: metric count");
            for (name, unit) in wanted {
                let metric = metrics
                    .get(&name)
                    .unwrap_or_else(|| panic!("{label}: no {name}"));
                let value = metric.get("value").and_then(Value::as_f64);
                assert!(
                    value.is_some_and(f64::is_finite),
                    "{label}: {name} = {value:?}"
                );
                assert_eq!(
                    metric.get("unit").and_then(Value::as_str),
                    Some(unit.as_str()),
                    "{label}: {name}"
                );
            }
            if trace {
                let trace_file = out.join(format!("{workload}.trace.json"));
                let spans = json::parse(&std::fs::read_to_string(trace_file).expect("trace file"))
                    .expect("trace is JSON");
                assert!(spans
                    .get("spans")
                    .and_then(Value::as_arr)
                    .is_some_and(|s| s.len() > 10));
            }
        }
    }
    // Both kinds of run of all four workloads left a line for `compare`.
    let recorded = std::fs::read_to_string(out.join("results.jsonl")).expect("results.jsonl");
    assert_eq!(recorded.lines().count(), 8);
}
