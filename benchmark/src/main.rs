//! `irf-benchmark`: runs one workload once against the program's
//! public API, checks its outputs, and prints every metric by name
//! with its unit; `irf-benchmark compare A B` sets two sets of runs
//! side by side. See `benchmark/README.md`.

mod cold_file;
mod compare;
mod inputs;
mod json;
mod layers;
mod measure;
mod metrics;
mod serve_predict;
mod solve_k24;
mod trace;
mod whatif_edits;

use inputs::{Inputs, Sizes};
use measure::RunReport;
use std::io::Write;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

const USAGE: &str = "usage:
  irf-benchmark --workload <cold_file|whatif_edits|solve_k24|serve_predict> --seed <n>
                [--trace [0|1]] [--out <dir>] [--smoke] [--seconds <ignored>]
  irf-benchmark compare <dir A> <dir B> [--manifest <BENCHMARK.json>]";

/// One run's settings and scratch space.
pub struct Ctx {
    pub workload: String,
    pub inputs: Inputs,
    pub trace: bool,
    pub out: PathBuf,
}

impl Ctx {
    pub fn write_trace(&self, tracer: &trace::Tracer) -> Result<(), String> {
        let path = self.out.join(format!("{}.trace.json", self.workload));
        tracer
            .write_json(&self.workload, &path)
            .map_err(|e| format!("write {}: {e}", path.display()))
    }
}

struct Args {
    workload: String,
    seed: u64,
    trace: bool,
    out: PathBuf,
    smoke: bool,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut parsed = Args {
        workload: String::new(),
        seed: 0,
        trace: false,
        out: PathBuf::from("benchmark/out"),
        smoke: false,
    };
    let mut seed_given = false;
    let mut i = 0;
    while i < args.len() {
        let flag = args[i].as_str();
        let value = args.get(i + 1).map(String::as_str);
        let mut take = || {
            i += 1;
            value.ok_or_else(|| format!("{flag} needs a value"))
        };
        match flag {
            "--workload" => parsed.workload = take()?.to_string(),
            "--seed" => {
                parsed.seed = take()?.parse().map_err(|_| "--seed takes a whole number")?;
                seed_given = true;
            }
            // The driver of `BENCHMARK.json` passes its `run_seconds`.
            // The window is 60 ops whatever it says (`measure::ROUNDS`),
            // so the value is read and not used.
            "--seconds" => {
                take()?
                    .parse::<f64>()
                    .map_err(|_| "--seconds takes a number")?;
            }
            "--out" => parsed.out = PathBuf::from(take()?),
            "--smoke" => parsed.smoke = true,
            // `--trace` alone turns tracing on; `--trace 0|1` sets it.
            "--trace" => match value {
                Some("0") => {
                    i += 1;
                    parsed.trace = false;
                }
                Some("1") => {
                    i += 1;
                    parsed.trace = true;
                }
                _ => parsed.trace = true,
            },
            other => return Err(format!("unknown argument {other}")),
        }
        i += 1;
    }
    if !metrics::WORKLOADS.contains(&parsed.workload.as_str()) {
        return Err(format!(
            "--workload must be one of {:?}",
            metrics::WORKLOADS
        ));
    }
    if !seed_given {
        return Err("--seed is required".into());
    }
    Ok(parsed)
}

fn run_workload(args: &Args) -> Result<RunReport, String> {
    std::fs::create_dir_all(&args.out)
        .map_err(|e| format!("create {}: {e}", args.out.display()))?;
    let work = args.out.join(format!(
        "work-{}-{}-{}",
        args.workload,
        args.seed,
        std::process::id()
    ));
    let sizes = if args.smoke {
        Sizes::SMOKE
    } else {
        Sizes::FULL
    };
    let ctx = Ctx {
        workload: args.workload.clone(),
        inputs: Inputs::new(work.clone(), args.seed, sizes)?,
        trace: args.trace,
        out: args.out.clone(),
    };
    let report = match ctx.workload.as_str() {
        "cold_file" => cold_file::run(&ctx),
        "whatif_edits" => whatif_edits::run(&ctx),
        "solve_k24" => solve_k24::run(&ctx),
        "serve_predict" => serve_predict::run(&ctx),
        other => Err(format!("unknown workload {other}")),
    };
    // The generated inputs are tens of megabytes; only results and
    // traces outlive the run.
    let _ = std::fs::remove_dir_all(&work);
    report
}

/// Appends the run to `<out>/results.jsonl`, which `compare` reads.
fn record(args: &Args, report: &RunReport, line: &str) -> Result<(), String> {
    let path = args.out.join("results.jsonl");
    let mut file = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(&path)
        .map_err(|e| format!("open {}: {e}", path.display()))?;
    let mut prefix = format!(
        "{{\"workload\": \"{}\", \"seed\": {}, \"trace\": {}, ",
        args.workload,
        args.seed,
        u8::from(args.trace)
    );
    if !report.unbounded.is_empty() {
        prefix.push_str(&format!(
            "\"unbounded\": {}, ",
            measure::json_metrics(&report.unbounded)
        ));
    }
    if let Some(window) = &report.raw {
        let ops: Vec<String> = window
            .samples
            .iter()
            .map(|s| format!("[{}, {:?}]", s.class as u8, s.seconds))
            .collect();
        prefix.push_str(&format!(
            "\"setup_seconds\": {:?}, \"op_seconds\": [{}], ",
            window.setup_seconds,
            ops.join(", ")
        ));
    }
    writeln!(file, "{prefix}{}", &line[1..]).map_err(|e| format!("write {}: {e}", path.display()))
}

fn run(args: &Args) -> Result<(), String> {
    let mut report = run_workload(args)?;
    let wanted: &[metrics::Spec] = if args.trace {
        &metrics::PER_LAYER
    } else {
        &metrics::END_TO_END
    };
    let reported: Vec<&str> = report.metrics.iter().map(|m| m.name).collect();
    let listed: Vec<&str> = wanted.iter().map(|spec| spec.0).collect();
    let mut sorted = (reported.clone(), listed.clone());
    sorted.0.sort_unstable();
    sorted.1.sort_unstable();
    if sorted.0 != sorted.1 {
        return Err(format!(
            "reported metrics {reported:?} are not the listed {listed:?}"
        ));
    }
    for metric in &report.metrics {
        if !metric.value.is_finite() {
            eprintln!("metric {} could not be measured", metric.name);
            report.correct = false;
        }
    }
    println!(
        "workload {} seed {} trace {} smoke {}",
        args.workload,
        args.seed,
        u8::from(args.trace),
        args.smoke
    );
    for note in &report.notes {
        println!("note: {note}");
    }
    for spec in wanted {
        let metric = report
            .metrics
            .iter()
            .find(|m| m.name == spec.0)
            .expect("checked above");
        // Six significant digits whatever the magnitude: residuals
        // and byte counts share this column.
        let magnitude = metric.value.abs();
        let value = if magnitude != 0.0 && !(1e-3..1e9).contains(&magnitude) {
            format!("{:.5e}", metric.value)
        } else {
            format!("{:.6}", metric.value)
        };
        println!("{:<30} {value:>16} {}", metric.name, metric.unit());
    }
    for metric in &report.unbounded {
        println!(
            "{:<30} {:>16.6} {} (no bound)",
            metric.name,
            metric.value,
            metric.unit()
        );
    }
    println!(
        "attempted {} failed {} correct {}",
        report.attempted, report.failed, report.correct
    );
    let line = report.json_line();
    record(args, &report, &line)?;
    println!("{line}");
    Ok(())
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let outcome = if args.first().map(String::as_str) == Some("compare") {
        let manifest = match args.get(3).map(String::as_str) {
            Some("--manifest") => args.get(4).map(String::as_str),
            _ => Some("BENCHMARK.json"),
        };
        match (args.get(1), args.get(2), manifest) {
            (Some(a), Some(b), Some(manifest)) => {
                compare::run(Path::new(a), Path::new(b), Path::new(manifest))
            }
            _ => Err(USAGE.to_string()),
        }
    } else {
        // A run that printed its result succeeded as a run, whatever
        // the result says; `correct` and `failed` carry the verdict.
        parse_args(&args).and_then(|args| run(&args)).map(|()| true)
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        // `compare` found a metric worse or unresolved.
        Ok(false) => ExitCode::from(2),
        Err(error) => {
            eprintln!("irf-benchmark: {error}");
            ExitCode::FAILURE
        }
    }
}
