//! The suite (every workload, several repeats, one traced run each,
//! `results.json`) and the A/A mode (two sets of runs of the same build,
//! `aa.json`). Every run is a fresh child process of this binary, so the
//! program's global metric registry, its trace ring and the process's
//! memory high-water mark start clean each time.

use crate::spec::{self, END_TO_END, PER_LAYER, WORKLOADS};
use crate::stats::{self, Summary};
use crate::workloads::batch::study_threads;
use serde_json::Value;
use std::collections::BTreeMap;
use std::io::Read;
use std::path::Path;
use std::process::{Command, Stdio};

pub struct SuiteCfg {
    pub only: Option<String>,
    pub repeats: usize,
    pub seed: u64,
    pub seconds: f64,
    pub smoke: bool,
}

/// A/A: runs per set, each with its own seed, as the driver makes them.
const AA_RUNS: usize = 10;

/// One child run's parsed result line.
struct ChildResult {
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: BTreeMap<String, f64>,
}

/// Runs one workload once in a child process and parses the last line
/// of its standard output. The child watches its standard input and
/// exits when it closes, so no child outlives this process.
fn run_child(
    workload: &str,
    seed: u64,
    cfg: &SuiteCfg,
    trace: bool,
    out_dir: &Path,
) -> Result<ChildResult, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut cmd = Command::new(exe);
    cmd.args(["--workload", workload, "--seed", &seed.to_string()])
        .args(["--seconds", &cfg.seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .arg("--out")
        .arg(out_dir)
        .arg("--child");
    if cfg.smoke {
        cmd.arg("--smoke");
    }
    let mut child = cmd
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::inherit())
        .spawn()
        .map_err(|e| format!("spawn {workload}: {e}"))?;
    let mut out = String::new();
    child
        .stdout
        .take()
        .expect("piped stdout")
        .read_to_string(&mut out)
        .map_err(|e| e.to_string())?;
    let status = child.wait().map_err(|e| e.to_string())?;
    let line = out.lines().last().unwrap_or("");
    let parsed: Value = serde_json::from_str(line)
        .map_err(|e| format!("{workload} (seed {seed}) exited with {status} and no result: {e}"))?;
    let field = |name: &str| {
        parsed
            .get(name)
            .ok_or(format!("{workload}: result lacks {name}"))
    };
    let mut metrics = BTreeMap::new();
    if let Value::Object(fields) = field("metrics")? {
        for (name, metric) in fields {
            let value = metric.get("value").and_then(Value::as_f64);
            metrics.insert(name.clone(), value.ok_or(format!("{name} has no value"))?);
        }
    }
    Ok(ChildResult {
        correct: *field("correct")? == Value::Bool(true) && status.success(),
        attempted: field("attempted")?.as_u64().unwrap_or(0),
        failed: field("failed")?.as_u64().unwrap_or(0),
        metrics,
    })
}

fn selected(cfg: &SuiteCfg) -> Vec<&'static spec::Workload> {
    WORKLOADS
        .iter()
        .filter(|w| cfg.only.as_deref().map_or(true, |only| only == w.name))
        .collect()
}

fn command_output(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .stderr(Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_owned())
        .unwrap_or_else(|| "unknown".into())
}

fn obj(fields: Vec<(&str, Value)>) -> Value {
    Value::Object(fields.into_iter().map(|(k, v)| (k.to_owned(), v)).collect())
}

fn text(s: &str) -> Value {
    Value::Str(s.to_owned())
}

/// What every output file records about the machine and the build.
fn machine() -> Value {
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    obj(vec![
        ("nproc", Value::UInt(nproc as u64)),
        ("threads_T", Value::UInt(study_threads() as u64)),
        ("rustc", text(&command_output("rustc", &["-V"]))),
        (
            "git_rev",
            text(&command_output("git", &["rev-parse", "HEAD"])),
        ),
    ])
}

/// Indented JSON, one scalar-only object or array per line.
fn pretty(v: &Value, indent: usize, out: &mut String) {
    let flat = |v: &Value| !matches!(v, Value::Object(_) | Value::Array(_));
    let pad = "  ".repeat(indent + 1);
    match v {
        Value::Object(fields) if !fields.iter().all(|(_, v)| flat(v)) => {
            out.push_str("{\n");
            for (i, (k, val)) in fields.iter().enumerate() {
                out.push_str(&format!(
                    "{pad}{}: ",
                    serde_json::to_string(k).expect("key")
                ));
                pretty(val, indent + 1, out);
                out.push_str(if i + 1 < fields.len() { ",\n" } else { "\n" });
            }
            out.push_str(&format!("{}}}", "  ".repeat(indent)));
        }
        Value::Array(items) if !items.iter().all(flat) => {
            out.push_str("[\n");
            for (i, item) in items.iter().enumerate() {
                out.push_str(&pad);
                pretty(item, indent + 1, out);
                out.push_str(if i + 1 < items.len() { ",\n" } else { "\n" });
            }
            out.push_str(&format!("{}]", "  ".repeat(indent)));
        }
        other => out.push_str(&serde_json::to_string(other).expect("render json")),
    }
}

fn write_json(path: &Path, v: &Value) {
    let mut out = String::new();
    pretty(v, 0, &mut out);
    out.push('\n');
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir).expect("create output directory");
    }
    std::fs::write(path, out).expect("write output file");
    println!("wrote {}", path.display());
}

const COVERAGE_GAPS: [&str; 2] = [
    "fetcher queue: no workload drives CollectionRun (run_study calls the client directly); fetcher.* come from the layers pass only",
    "batch durable path: run_study_durable and the fetcher's DurableStore are covered only through the journal.* primitives",
];

/// Runs every selected workload `repeats` times untraced and once
/// traced, prints every metric by name and unit, writes
/// `results.json`. Returns whether every run was correct.
pub fn run_suite(cfg: &SuiteCfg, out_dir: &Path) -> bool {
    let mut all_correct = true;
    let mut workloads = Vec::new();
    for w in selected(cfg) {
        println!("== {} ==", w.name);
        let mut untraced = Vec::new();
        for repeat in 0..cfg.repeats {
            match run_child(w.name, cfg.seed, cfg, false, out_dir) {
                Ok(r) => untraced.push(r),
                Err(e) => {
                    eprintln!("run failed: {} repeat {repeat}: {e}", w.name);
                    all_correct = false;
                }
            }
        }
        let traced = run_child(w.name, cfg.seed, cfg, true, out_dir)
            .map_err(|e| eprintln!("run failed: {} traced: {e}", w.name))
            .ok();
        let correct = untraced.len() == cfg.repeats
            && untraced.iter().all(|r| r.correct)
            && traced.as_ref().is_some_and(|t| t.correct);
        all_correct &= correct;

        let mut e2e = Vec::new();
        for e in &END_TO_END {
            let values: Vec<f64> = untraced
                .iter()
                .filter_map(|r| r.metrics.get(e.name).copied())
                .collect();
            let s = Summary::of(&values);
            println!(
                "{:<34} {:>16.6} {:<6} (min {:.6} max {:.6} n {}; {} is better, bound {})",
                e.name, s.median, e.unit, s.min, s.max, s.n, e.better, e.bound
            );
            e2e.push((
                e.name,
                obj(vec![
                    ("unit", text(e.unit)),
                    ("better", text(e.better)),
                    ("bound", Value::Float(e.bound)),
                    ("median", Value::Float(s.median)),
                    ("min", Value::Float(s.min)),
                    ("max", Value::Float(s.max)),
                    ("n", Value::UInt(s.n as u64)),
                ]),
            ));
        }
        let mut layers = Vec::new();
        for p in &PER_LAYER {
            let value = traced
                .as_ref()
                .and_then(|t| t.metrics.get(p.name).copied())
                .unwrap_or(0.0);
            println!("{:<34} {:>16.6} {:<6} [{}]", p.name, value, p.unit, p.layer);
            layers.push((
                p.name,
                obj(vec![
                    ("unit", text(p.unit)),
                    ("better", text(p.better)),
                    ("layer", text(p.layer)),
                    ("moves", text(p.moves)),
                    ("value", Value::Float(value)),
                ]),
            ));
        }
        let total = |f: fn(&ChildResult) -> u64| -> u64 {
            untraced.iter().chain(traced.as_ref()).map(f).sum()
        };
        println!(
            "{}: {} of {} operations failed; {}",
            w.name,
            total(|r| r.failed),
            total(|r| r.attempted),
            if correct {
                "all output checks passed"
            } else {
                "OUTPUT CHECKS FAILED"
            }
        );
        workloads.push((
            w.name,
            obj(vec![
                ("why", text(w.why)),
                ("correct", Value::Bool(correct)),
                ("attempted", Value::UInt(total(|r| r.attempted))),
                ("failed", Value::UInt(total(|r| r.failed))),
                ("end_to_end", obj(e2e)),
                ("per_layer", obj(layers)),
            ]),
        ));
    }
    let results = obj(vec![
        ("schema", text("sift-benchmark/1")),
        (
            "supersedes",
            text("sift-bench/1 (BENCH_2026-08-08.json) as the perf reference"),
        ),
        ("seed", Value::UInt(cfg.seed)),
        ("run_seconds", Value::Float(cfg.seconds)),
        ("repeats", Value::UInt(cfg.repeats as u64)),
        ("smoke", Value::Bool(cfg.smoke)),
        ("machine", machine()),
        (
            "coverage_gaps",
            Value::Array(COVERAGE_GAPS.iter().map(|g| text(g)).collect()),
        ),
        ("workloads", obj(workloads)),
    ]);
    write_json(&out_dir.join("results.json"), &results);
    all_correct
}

/// A/A: two complete sets of runs of the same build, back to back. Each
/// set runs every workload `AA_RUNS` times, each time with another seed
/// (the same seeds in both sets). For every end-to-end metric and
/// workload it prints both medians, their relative difference and the
/// bound, and each set's spread (quartile distance over median). Returns
/// whether every gated pairing kept within its bound.
pub fn run_aa(cfg: &SuiteCfg, out_dir: &Path) -> bool {
    let mut ok = true;
    let mut report = Vec::new();
    for w in selected(cfg) {
        println!("== {} ==", w.name);
        let mut sets: Vec<BTreeMap<&str, Vec<f64>>> = Vec::new();
        for set in 0..2 {
            let mut values: BTreeMap<&str, Vec<f64>> = BTreeMap::new();
            for run in 0..AA_RUNS {
                match run_child(w.name, cfg.seed + run as u64, cfg, false, out_dir) {
                    Ok(r) if r.correct => {
                        for e in &END_TO_END {
                            values.entry(e.name).or_default().push(r.metrics[e.name]);
                        }
                    }
                    Ok(_) => {
                        eprintln!("output check failed: {} set {set} run {run}", w.name);
                        ok = false;
                    }
                    Err(e) => {
                        eprintln!("run failed: {} set {set} run {run}: {e}", w.name);
                        ok = false;
                    }
                }
            }
            sets.push(values);
        }
        let mut metrics = Vec::new();
        for e in &END_TO_END {
            let empty = Vec::new();
            let (a, b) = (
                sets[0].get(e.name).unwrap_or(&empty),
                sets[1].get(e.name).unwrap_or(&empty),
            );
            let (ma, mb) = (stats::median(a), stats::median(b));
            // Positive when the second set reads worse than the first.
            let worse = (if e.better == "lower" {
                mb - ma
            } else {
                ma - mb
            }) / ma.abs().max(1e-12);
            let (sa, sb) = (stats::quartile_spread(a), stats::quartile_spread(b));
            let spread_ok = e.name == "setup_s" || sa.max(sb) <= e.bound;
            let within = worse <= e.bound && spread_ok;
            ok &= within;
            // A timing that cannot meet its bound is demoted (printed,
            // not gated) by a later change to BENCHMARK.json, never by
            // widening the bound here.
            let verdict = match (within, sa.max(sb) <= e.bound / 3.0 || e.name == "setup_s") {
                (true, true) => "ok",
                (true, false) => "ok, spread above a third of the bound",
                (false, _) if e.unit == "s" => "OUT OF BOUND: demote this timing to per-layer",
                (false, _) => "OUT OF BOUND",
            };
            println!(
                "{:<16} median {:>14.6} vs {:>14.6} {:<6} worse by {:>+8.4} spread {:.4} / {:.4} bound {:<5} {}",
                e.name, ma, mb, e.unit, worse, sa, sb, e.bound, verdict
            );
            metrics.push((
                e.name,
                obj(vec![
                    ("unit", text(e.unit)),
                    ("bound", Value::Float(e.bound)),
                    ("median_a", Value::Float(ma)),
                    ("median_b", Value::Float(mb)),
                    ("worse_by", Value::Float(worse)),
                    ("spread_a", Value::Float(sa)),
                    ("spread_b", Value::Float(sb)),
                    ("within_bound", Value::Bool(within)),
                    (
                        "values_a",
                        Value::Array(a.iter().map(|v| Value::Float(*v)).collect()),
                    ),
                    (
                        "values_b",
                        Value::Array(b.iter().map(|v| Value::Float(*v)).collect()),
                    ),
                ]),
            ));
        }
        report.push((w.name, obj(metrics)));
    }
    let aa = obj(vec![
        ("schema", text("sift-benchmark-aa/1")),
        ("first_seed", Value::UInt(cfg.seed)),
        ("runs_per_set", Value::UInt(AA_RUNS as u64)),
        ("run_seconds", Value::Float(cfg.seconds)),
        ("smoke", Value::Bool(cfg.smoke)),
        ("machine", machine()),
        ("workloads", obj(report)),
    ]);
    write_json(&out_dir.join("aa.json"), &aa);
    println!(
        "{}",
        if ok {
            "A/A: every gated metric within its bound"
        } else {
            "A/A: FAILED"
        }
    );
    ok
}
