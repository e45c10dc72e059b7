//! Runs every workload at smoke size in both modes and checks that the
//! result line carries every metric `BENCHMARK.json` declares, by name
//! and unit, and that every check passed.

use serde_json::Value;
use std::path::Path;
use std::process::Command;

fn benchmark_json() -> Value {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let text = std::fs::read_to_string(&path).expect("BENCHMARK.json sits beside perfbench/");
    serde_json::from_str(&text).expect("BENCHMARK.json parses")
}

/// `(name, unit)` of every metric in one `BENCHMARK.json` list.
fn declared(spec: &Value, list: &str) -> Vec<(String, String)> {
    spec.get(list)
        .and_then(Value::as_array)
        .expect("metric list")
        .iter()
        .map(|m| {
            let field = |k| m.get(k).and_then(Value::as_str).expect("name and unit");
            (field("name").to_string(), field("unit").to_string())
        })
        .collect()
}

fn run(workload: &str, trace: u8) -> Value {
    let spans = Path::new(env!("CARGO_TARGET_TMPDIR")).join(format!("spans-{workload}.csv"));
    let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args(["--workload", workload, "--seed", "5", "--seconds", "0"])
        .args(["--trace", &trace.to_string(), "--smoke", "--spans-out"])
        .arg(&spans)
        .output()
        .expect("perfbench runs");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "{workload} --trace {trace} failed:\n{stdout}\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let last = stdout.lines().last().expect("a result line");
    serde_json::from_str(last).expect("the last line is JSON")
}

#[test]
fn smoke_runs_print_every_declared_metric_with_its_unit() {
    let spec = benchmark_json();
    let workloads: Vec<String> = spec
        .get("workloads")
        .and_then(Value::as_array)
        .expect("workloads")
        .iter()
        .map(|w| {
            w.get("name")
                .and_then(Value::as_str)
                .expect("name")
                .to_string()
        })
        .collect();
    assert!(workloads.len() >= 2);
    for w in &workloads {
        for (trace, list) in [(0, "end_to_end"), (1, "per_layer")] {
            let result = run(w, trace);
            assert_eq!(result.get("correct").and_then(Value::as_bool), Some(true));
            assert_eq!(result.get("failed").and_then(Value::as_u64), Some(0));
            assert!(result.get("attempted").and_then(Value::as_u64) >= Some(1));
            let metrics = result.get("metrics").expect("metrics");
            for (name, unit) in declared(&spec, list) {
                let m = metrics
                    .get(&name)
                    .unwrap_or_else(|| panic!("{w} --trace {trace} lacks {name}"));
                assert_eq!(m.get("unit").and_then(Value::as_str), Some(unit.as_str()));
                assert!(
                    m.get("value")
                        .and_then(Value::as_f64)
                        .is_some_and(f64::is_finite),
                    "{w}: {name} is not a finite number"
                );
            }
        }
    }
}
