//! `perfbench` — one benchmark for the slicer workspace's three paths:
//! advising (`advise_wide`), serving scans over the wire (`serve_scan`)
//! and ingest beside reads (`ingest_mixed`).
//!
//! ```text
//! perfbench --workload <advise_wide|serve_scan|ingest_mixed|all>
//!           --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Each run sets up its inputs from `--seed`, measures for `--seconds`,
//! checks the program's outputs, and prints as its last line one JSON
//! object: `correct`, `attempted`, `failed`, and the end-to-end metrics
//! (`--trace 0`) or every per-layer metric (`--trace 1`); it exits 1 when
//! an output check failed. Everything the benchmark times is a call into a
//! crate's public API; the program itself is not instrumented.
//! Human-readable notes go to standard error.

mod advise;
mod common;
mod ingest;
mod serve;

use common::{Metric, Report};

const WORKLOADS: [&str; 3] = ["advise_wide", "serve_scan", "ingest_mixed"];

/// The core count: the rayon shim's worker count for every workload.
fn cores() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

fn usage(msg: &str) -> ! {
    eprintln!("perfbench: {msg}");
    eprintln!(
        "usage: perfbench --workload <{}|all> --seed <n> --seconds <s> --trace <0|1>",
        WORKLOADS.join("|")
    );
    std::process::exit(2);
}

fn json_number(v: f64) -> String {
    if v.is_finite() {
        // Shortest round-trip form: every digit as measured.
        format!("{v:?}")
    } else {
        "null".into()
    }
}

fn result_line(report: &Report, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name,
                json_number(m.value),
                m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        report.correct,
        report.attempted,
        report.failed,
        body.join(", ")
    )
}

fn run(workload: &str, seed: u64, seconds: f64, trace: bool) -> Report {
    match workload {
        "advise_wide" => advise::run(seed, seconds, trace),
        "serve_scan" => serve::run(seed, seconds, trace),
        "ingest_mixed" => ingest::run(seed, seconds, trace),
        other => usage(&format!("unknown workload {other}")),
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it
            .next()
            .unwrap_or_else(|| usage(&format!("{flag} needs a value")));
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = value.parse::<u64>().ok(),
            "--seconds" => seconds = value.parse::<f64>().ok().filter(|s| *s > 0.0),
            "--trace" => {
                trace = match value.as_str() {
                    "0" => Some(false),
                    "1" => Some(true),
                    _ => usage("--trace takes 0 or 1"),
                }
            }
            other => usage(&format!("unknown flag {other}")),
        }
    }
    let workload = workload.unwrap_or_else(|| usage("--workload is required"));
    let seed = seed.unwrap_or_else(|| usage("--seed takes a whole number"));
    let seconds = seconds.unwrap_or_else(|| usage("--seconds takes a positive number"));
    let trace = trace.unwrap_or(false);

    let names: Vec<&str> = if workload == "all" {
        WORKLOADS.to_vec()
    } else if WORKLOADS.contains(&workload.as_str()) {
        vec![workload.as_str()]
    } else {
        usage(&format!("unknown workload {workload}"))
    };
    rayon::ThreadPoolBuilder::new()
        .num_threads(cores())
        .build_global()
        .expect("the rayon shim's global pool setup cannot fail");
    eprintln!("perfbench: {} core(s), seed {seed}, {seconds} s", cores());
    let mut all_correct = true;
    for name in names {
        let report = run(name, seed, seconds, trace);
        for n in &report.notes {
            eprintln!("  {n}");
        }
        let metrics = if trace {
            report.layers.metrics()
        } else {
            report.e2e.clone()
        };
        for m in &metrics {
            eprintln!("  {name:<13} {:<32} {:>16.6} {}", m.name, m.value, m.unit);
        }
        eprintln!(
            "  {name:<13} attempted {} failed {} correct {}",
            report.attempted, report.failed, report.correct
        );
        all_correct &= report.correct;
        println!("{}", result_line(&report, &metrics));
    }
    if !all_correct {
        eprintln!("perfbench: an output check failed");
        std::process::exit(1);
    }
}
