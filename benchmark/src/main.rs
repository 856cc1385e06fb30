//! The repository benchmark: four workloads, end-to-end and per-layer
//! metrics, a traced run, an A/A mode. See `benchmark/README.md`.
//!
//! ```text
//! run.sh --workload W --seed N --seconds S --trace 0|1   one run; last line is the JSON result
//! run.sh [--only W] [--repeats K] [--seed N] [--seconds S]   every workload -> target/results.json
//! run.sh --aa [--only W] [--seed N] [--seconds S]          two sets of runs -> target/aa.json
//! ```
//!
//! `--smoke` shrinks every workload for the tests; `--out <dir>` moves
//! results, traces and durable state away from `benchmark/target`.

mod client;
mod layers;
mod measure;
mod report;
mod spec;
mod stats;
mod suite;
mod trace;
mod workloads;
mod world;

use report::RunCfg;
use std::io::Read;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    smoke: bool,
    child: bool,
    aa: bool,
    only: Option<String>,
    repeats: usize,
    out: PathBuf,
}

fn usage(problem: &str) -> ! {
    eprintln!("{problem}");
    eprintln!("usage: run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>");
    eprintln!(
        "       run.sh [--only <name>] [--repeats <k>] [--seed <n>] [--seconds <s>] [--smoke]"
    );
    eprintln!("       run.sh --aa [--only <name>] [--seed <n>] [--seconds <s>] [--smoke]");
    let names: Vec<&str> = spec::WORKLOADS.iter().map(|w| w.name).collect();
    eprintln!("workloads: {}", names.join(", "));
    std::process::exit(2);
}

fn parse_args() -> Args {
    let mut args = Args {
        workload: None,
        seed: spec::DEFAULT_SEED,
        seconds: spec::RUN_SECONDS as f64,
        trace: false,
        smoke: false,
        child: false,
        aa: false,
        only: None,
        repeats: 3,
        out: PathBuf::from("benchmark/target"),
    };
    let mut it = std::env::args().skip(1);
    fn value<T: std::str::FromStr>(it: &mut impl Iterator<Item = String>, flag: &str) -> T {
        it.next()
            .and_then(|v| v.parse().ok())
            .unwrap_or_else(|| usage(&format!("{flag} needs a value")))
    }
    while let Some(flag) = it.next() {
        match flag.as_str() {
            "--workload" => args.workload = Some(value(&mut it, "--workload")),
            "--only" => args.only = Some(value(&mut it, "--only")),
            "--seed" => args.seed = value(&mut it, "--seed"),
            "--seconds" => args.seconds = value(&mut it, "--seconds"),
            "--trace" => args.trace = value::<u8>(&mut it, "--trace") != 0,
            "--repeats" => args.repeats = value(&mut it, "--repeats"),
            "--out" => args.out = value(&mut it, "--out"),
            "--smoke" => args.smoke = true,
            "--child" => args.child = true,
            "--aa" => args.aa = true,
            "--emit-benchmark-json" => {
                print!("{}", spec::benchmark_json());
                std::process::exit(0);
            }
            other => usage(&format!("unknown argument {other}")),
        }
    }
    if !(args.seconds.is_finite() && args.seconds > 0.0) {
        usage("--seconds must be positive");
    }
    for name in args.workload.iter().chain(&args.only) {
        if spec::workload(name).is_none() {
            usage(&format!("unknown workload {name}"));
        }
    }
    args
}

/// A run's durable-state directory, `<out>/state/<workload>-<pid>/`; the
/// default `<out>` is `benchmark/target` under the repository root (the
/// working directory `run.sh` sets): a real file system, not `/tmp`,
/// where fsync may be free. Removed when dropped, on success and on
/// failure.
struct StateDir(PathBuf);

impl StateDir {
    fn create(out: &Path, workload: &str) -> StateDir {
        let dir = out
            .join("state")
            .join(format!("{workload}-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        std::fs::create_dir_all(&dir).expect("create state directory");
        StateDir(dir)
    }
}

impl Drop for StateDir {
    fn drop(&mut self) {
        std::fs::remove_dir_all(&self.0).ok();
    }
}

/// One run of one workload in this process.
fn run_single(args: &Args, workload: &'static str) -> ExitCode {
    let state = StateDir::create(&args.out, workload);
    if args.child {
        // The suite holds the other end of our standard input and never
        // writes to it: when it closes the parent is gone (Ctrl-C, kill),
        // and so should we be, state directory included.
        let dir = state.0.clone();
        std::thread::spawn(move || {
            let mut sink = [0u8; 64];
            while matches!(std::io::stdin().read(&mut sink), Ok(n) if n > 0) {}
            std::fs::remove_dir_all(&dir).ok();
            std::process::exit(130);
        });
    }
    let cfg = RunCfg {
        workload,
        seed: args.seed,
        seconds: args.seconds,
        trace: args.trace,
        smoke: args.smoke,
        state_dir: state.0.clone(),
        out_dir: args.out.clone(),
    };
    let outcome = std::panic::catch_unwind(|| workloads::run(&cfg));
    drop(state);
    let Ok(report) = outcome else {
        eprintln!("{workload}: the run panicked; no result");
        // Threads of a half-built workload may still be running.
        std::process::exit(3);
    };
    for note in &report.notes {
        println!("# {note}");
    }
    for check in &report.failed_checks {
        eprintln!("check failed: {workload}: {}: {}", check.name, check.detail);
    }
    let metrics = match report.contract_metrics(args.trace) {
        Ok(metrics) => metrics,
        Err(missing) => {
            eprintln!("{workload}: the run broke off before measuring {missing}; no result");
            return ExitCode::FAILURE;
        }
    };
    for (name, unit, value) in &metrics {
        println!("{name:<34} {value:>18.6} {unit}");
    }
    println!("{}", report.result_line(&metrics));
    if report.correct() {
        ExitCode::SUCCESS
    } else {
        eprintln!(
            "{workload}: {} of {} operations failed",
            report.failed, report.attempted
        );
        ExitCode::FAILURE
    }
}

fn main() -> ExitCode {
    let args = parse_args();
    if let Some(name) = &args.workload {
        let workload = spec::workload(name).expect("validated by parse_args").name;
        return run_single(&args, workload);
    }
    // A suite starts from a clean slate: state a killed run left behind
    // is removed. (Do not run two suites in one checkout at once.)
    std::fs::remove_dir_all(args.out.join("state")).ok();
    let cfg = suite::SuiteCfg {
        only: args.only.clone(),
        repeats: args.repeats.max(1),
        seed: args.seed,
        seconds: args.seconds,
        smoke: args.smoke,
    };
    let ok = if args.aa {
        suite::run_aa(&cfg, &args.out)
    } else {
        suite::run_suite(&cfg, &args.out)
    };
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
