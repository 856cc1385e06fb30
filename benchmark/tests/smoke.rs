//! End-to-end tests of the benchmark binary at `--smoke` size: all four
//! workloads run every output check, the result lines keep to the
//! contract, and `results.json` carries every name `BENCHMARK.json`
//! lists.

use serde_json::Value;
use std::path::{Path, PathBuf};
use std::process::{Command, Output};

const BIN: &str = env!("CARGO_BIN_EXE_sift-benchmark");

fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .expect("benchmark/ sits in the repository root")
        .to_owned()
}

/// A scratch output directory under the build's own target directory.
fn out_dir(tag: &str) -> PathBuf {
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join(format!("{tag}-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    dir
}

fn run(args: &[&str], out: &Path) -> Output {
    Command::new(BIN)
        .args(args)
        .arg("--out")
        .arg(out)
        .current_dir(repo_root())
        .output()
        .expect("run the benchmark binary")
}

fn benchmark_json() -> Value {
    let text = std::fs::read_to_string(repo_root().join("BENCHMARK.json")).expect("BENCHMARK.json");
    serde_json::from_str(&text).expect("BENCHMARK.json parses")
}

fn names(spec: &Value, key: &str) -> Vec<String> {
    let Some(Value::Array(items)) = spec.get(key) else {
        panic!("BENCHMARK.json lacks {key}");
    };
    items
        .iter()
        .map(|i| {
            i.get("name")
                .and_then(Value::as_str)
                .expect("name")
                .to_owned()
        })
        .collect()
}

#[test]
fn suite_at_smoke_size_passes_every_check_and_fills_results_json() {
    let out = out_dir("suite");
    let started = std::time::Instant::now();
    let output = run(&["--smoke", "--repeats", "1", "--seconds", "0.5"], &out);
    assert!(
        output.status.success(),
        "suite failed:\n{}\n{}",
        String::from_utf8_lossy(&output.stdout),
        String::from_utf8_lossy(&output.stderr)
    );
    assert!(
        started.elapsed().as_secs() < 30,
        "smoke suite took {:?}",
        started.elapsed()
    );

    let text = std::fs::read_to_string(out.join("results.json")).expect("results.json written");
    let results: Value = serde_json::from_str(&text).expect("results.json parses");
    let spec = benchmark_json();
    for workload in names(&spec, "workloads") {
        let w = results
            .get("workloads")
            .and_then(|ws| ws.get(&workload))
            .unwrap_or_else(|| panic!("results.json lacks workload {workload}"));
        assert_eq!(w.get("correct"), Some(&Value::Bool(true)), "{workload}");
        assert_eq!(
            w.get("failed").and_then(Value::as_u64),
            Some(0),
            "{workload}"
        );
        for name in names(&spec, "end_to_end") {
            let m = w.get("end_to_end").and_then(|m| m.get(&name));
            let median = m.and_then(|m| m.get("median")).and_then(Value::as_f64);
            assert!(
                median.is_some_and(|v| v > 0.0),
                "{workload}: {name} is {median:?}"
            );
        }
        for name in names(&spec, "per_layer") {
            let m = w.get("per_layer").and_then(|m| m.get(&name));
            assert!(
                m.and_then(|m| m.get("value")).is_some(),
                "{workload}: {name} missing"
            );
        }
        assert!(
            out.join(format!("trace-{workload}.json")).exists(),
            "{workload} trace"
        );
    }
    // A workload reports 0 for a layer it does not exercise, so a metric
    // nobody reports any more would read 0 everywhere: each must be above
    // 0 on some workload, bar the failure counts of a healthy run and the
    // recorder's overhead, which noise may put below 0.
    const ZERO_WHEN_HEALTHY: [&str; 6] = [
        "net.non2xx",
        "cluster.regrants",
        "serve.degraded_reads",
        "serve.shed_reads",
        "failed_share",
        "obs.trace_overhead_share",
    ];
    for name in names(&spec, "per_layer") {
        let reported = names(&spec, "workloads").iter().any(|workload| {
            results
                .get("workloads")
                .and_then(|ws| ws.get(workload))
                .and_then(|w| w.get("per_layer"))
                .and_then(|m| m.get(&name))
                .and_then(|m| m.get("value"))
                .and_then(Value::as_f64)
                .is_some_and(|v| v > 0.0)
        });
        assert!(
            reported || ZERO_WHEN_HEALTHY.contains(&name.as_str()),
            "{name} is 0 on every workload"
        );
    }
    assert!(
        !out.join("state").exists()
            || std::fs::read_dir(out.join("state"))
                .expect("state")
                .next()
                .is_none(),
        "state directories are removed"
    );
    std::fs::remove_dir_all(&out).ok();
}

#[test]
fn one_run_prints_the_contract_result_as_its_last_line() {
    let out = out_dir("single");
    let output = run(
        &[
            "--workload",
            "crawl_http",
            "--seed",
            "7",
            "--seconds",
            "1",
            "--trace",
            "0",
            "--smoke",
        ],
        &out,
    );
    assert!(output.status.success());
    let stdout = String::from_utf8_lossy(&output.stdout);
    let last: Value = serde_json::from_str(stdout.lines().last().expect("output")).expect("json");
    let Value::Object(fields) = &last else {
        panic!("result is not an object");
    };
    let keys: Vec<&str> = fields.iter().map(|(k, _)| k.as_str()).collect();
    assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
    assert!(last
        .get("attempted")
        .and_then(Value::as_u64)
        .is_some_and(|n| n >= 1));
    let Some(Value::Object(metrics)) = last.get("metrics") else {
        panic!("metrics is not an object");
    };
    let reported: Vec<&str> = metrics.iter().map(|(k, _)| k.as_str()).collect();
    assert_eq!(reported, names(&benchmark_json(), "end_to_end"));
    std::fs::remove_dir_all(&out).ok();
}

#[test]
fn an_unknown_workload_is_refused_without_a_result() {
    let out = out_dir("unknown");
    let output = run(
        &[
            "--workload",
            "nope",
            "--seed",
            "1",
            "--seconds",
            "1",
            "--trace",
            "0",
        ],
        &out,
    );
    assert!(!output.status.success());
    assert!(output.stdout.is_empty());
}
