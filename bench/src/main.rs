//! `bench` — the benchmark of the PEXESO stack. See `bench/README.md`.
//!
//! ```text
//! bench run --workload <name> --seed <n> --seconds <s> --trace <0|1> [--scale <x>] [--results <file>]
//! bench run --quick [--workload <name>]
//! bench diff <old results> <new results>
//! bench fingerprints
//! ```

mod check;
mod deploy;
mod diff;
mod inputs;
mod json;
mod ladder;
mod report;
mod run;
mod span;
mod spec;
mod stats;

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;

use crate::run::{default_out_dir, RunConfig};
use crate::spec::{workload, WorkloadSpec, DEFAULT_SEED, PINNED_SEEDS, QUICK_SCALE, WORKLOADS};

/// Harness errors are messages for the operator, nothing to match on.
pub type Res<T> = Result<T, String>;

const USAGE: &str = "usage:
  bench run --workload <name> [--seed <n>] [--seconds <s>] [--trace <0|1>] [--scale <x>] [--results <file>]
  bench run --quick [--workload <name>]
  bench diff <old results> <new results>
  bench fingerprints
workloads: wdc_threshold open_threshold wdc_topk wdc_concurrent_rw wdc_routed";

struct RunArgs {
    workload: Option<&'static WorkloadSpec>,
    seed: u64,
    seconds: f64,
    trace: bool,
    scale: f64,
    quick: bool,
    results: Option<PathBuf>,
}

fn parse_run_args(args: &[String]) -> Res<RunArgs> {
    let mut parsed = RunArgs {
        workload: None,
        seed: DEFAULT_SEED,
        seconds: 50.0,
        trace: false,
        scale: 1.0,
        quick: false,
        results: None,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        if flag == "--quick" {
            parsed.quick = true;
            continue;
        }
        let value = it
            .next()
            .ok_or_else(|| format!("{flag} needs a value\n{USAGE}"))?;
        let number = |what: &str| {
            value
                .parse::<f64>()
                .ok()
                .filter(|v| v.is_finite() && *v > 0.0)
                .ok_or_else(|| format!("{flag}: '{value}' is not {what}"))
        };
        match flag.as_str() {
            "--workload" => {
                parsed.workload = Some(
                    workload(value)
                        .ok_or_else(|| format!("unknown workload '{value}'\n{USAGE}"))?,
                );
            }
            "--seed" => {
                parsed.seed = value
                    .parse()
                    .map_err(|_| format!("--seed: '{value}' is not a whole number"))?;
            }
            "--seconds" => parsed.seconds = number("a positive number of seconds")?,
            "--scale" => parsed.scale = number("a positive scale")?,
            "--trace" => {
                parsed.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not '{value}'")),
                };
            }
            "--results" => parsed.results = Some(PathBuf::from(value)),
            _ => return Err(format!("unknown flag '{flag}'\n{USAGE}")),
        }
    }
    Ok(parsed)
}

/// One workload, traced or not: prints everything, returns whether every
/// answer was correct.
fn run_one(cfg: &RunConfig, trace: bool, results: &std::path::Path) -> Res<bool> {
    let (line, correct) = if trace {
        let report = ladder::run_traced(cfg)?;
        (report::emit_trace(cfg, results, &report)?, report.correct)
    } else {
        let report = run::run(cfg)?;
        (report::emit_run(cfg, results, &report)?, report.correct)
    };
    println!("{line}");
    Ok(correct)
}

fn cmd_run(args: &[String], process_start: Instant) -> Res<bool> {
    if cfg!(debug_assertions) {
        return Err(
            "refusing to measure a build with debug assertions; use `cargo run --release`".into(),
        );
    }
    let parsed = parse_run_args(args)?;
    let nproc = std::thread::available_parallelism().map_or(1, usize::from);
    let out_dir = default_out_dir();
    let results = parsed
        .results
        .clone()
        .unwrap_or_else(|| out_dir.join("results.jsonl"));
    let config = |spec, scale, seconds| RunConfig {
        spec,
        seed: parsed.seed,
        seconds,
        scale,
        nproc,
        out_dir: out_dir.clone(),
        process_start,
    };
    if parsed.quick {
        // Schema and correctness only: a tiny lake, a second per run,
        // traced and untraced, nothing worth recording as a baseline.
        let results = parsed
            .results
            .unwrap_or_else(|| out_dir.join("quick-results.jsonl"));
        let mut all_correct = true;
        for spec in WORKLOADS
            .iter()
            .filter(|w| parsed.workload.is_none_or(|p| p.name == w.name))
        {
            for trace in [false, true] {
                let mut cfg = config(spec, QUICK_SCALE, 1.0);
                cfg.process_start = Instant::now();
                all_correct &= run_one(&cfg, trace, &results)?;
            }
        }
        return Ok(all_correct);
    }
    let spec = parsed
        .workload
        .ok_or_else(|| format!("--workload is required\n{USAGE}"))?;
    run_one(
        &config(spec, parsed.scale, parsed.seconds),
        parsed.trace,
        &results,
    )
}

/// Print the fingerprints of the pinned seeds as `fingerprints.json`.
fn cmd_fingerprints() -> Res<()> {
    let mut by_workload: Vec<(String, Vec<(String, json::Json)>)> = WORKLOADS
        .iter()
        .map(|w| (w.name.to_string(), Vec::new()))
        .collect();
    for seed in PINNED_SEEDS {
        let mut lakes: Vec<(spec::Profile, inputs::Inputs)> = Vec::new();
        for (w, (_, seeds)) in WORKLOADS.iter().zip(&mut by_workload) {
            if !lakes.iter().any(|(p, _)| *p == w.profile) {
                lakes.push((w.profile, inputs::Inputs::generate(w.profile, 1.0, seed)));
            }
            let (_, lake) = lakes
                .iter()
                .find(|(p, _)| *p == w.profile)
                .expect("just pushed");
            seeds.push((
                seed.to_string(),
                json::Json::str(inputs::fingerprint(lake, w)),
            ));
        }
    }
    println!("{{");
    let n = by_workload.len();
    for (i, (name, seeds)) in by_workload.into_iter().enumerate() {
        let comma = if i + 1 < n { "," } else { "" };
        println!("  \"{name}\": {}{comma}", json::Json::Obj(seeds).render());
    }
    println!("}}");
    Ok(())
}

fn main() -> ExitCode {
    let process_start = Instant::now();
    let args: Vec<String> = std::env::args().skip(1).collect();
    let outcome = match args.first().map(String::as_str) {
        Some("run") => cmd_run(&args[1..], process_start),
        Some("diff") => match &args[1..] {
            [old, new] => diff::diff(old.as_ref(), new.as_ref()).map(|table| {
                print!("{table}");
                true
            }),
            _ => Err(USAGE.to_string()),
        },
        Some("fingerprints") => cmd_fingerprints().map(|()| true),
        _ => Err(USAGE.to_string()),
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(message) => {
            eprintln!("bench: {message}");
            ExitCode::from(2)
        }
    }
}
