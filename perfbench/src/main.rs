//! The end-to-end benchmark of the Backlog engine.
//!
//! ```text
//! perfbench --workload <ingest|relocate|mixed> --seed <n> --seconds <s> --trace <0|1>
//! perfbench selftest   # shows every answer check catches a perturbed answer
//! perfbench fault      # prints the relocate_block clone-override fault's spurious owner
//! ```
//!
//! The path under test is the one a file system using Backlog takes: the
//! paper's synthetic generator drives fsim, fsim calls the engine through a
//! `BackrefProvider`, and the engine stores its tables and journal on a
//! `SimDisk`. The last line of standard output is one JSON object with the
//! operation counts and either the end-to-end metrics (`--trace 0`) or the
//! per-layer metrics of a traced run (`--trace 1`).

mod host;
mod phases;
mod probe;
mod samples;
mod selftest;
mod truth;
mod workloads;

use std::process::ExitCode;
use std::sync::Arc;

use probe::{Probe, Tracer};
use workloads::Outcome;

pub type Res<T> = Result<T, Box<dyn std::error::Error + Send + Sync>>;

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let (mut seed, mut seconds, mut trace) = (None, None, None);
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("{flag}: not a number: {value}"))
        };
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(number()?),
            "--seconds" => seconds = Some(number()?),
            "--trace" => trace = Some(number()? != 0),
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?.max(1),
        trace: trace.unwrap_or(false),
    })
}

fn run(name: &str, seed: u64, seconds: u64, probe: &Probe) -> Res<Outcome> {
    match name {
        "ingest" => workloads::ingest(seed, seconds, probe),
        "relocate" => workloads::relocate(seed, seconds, probe),
        "mixed" => workloads::mixed(seed, seconds, probe),
        other => Err(format!("unknown workload {other}").into()),
    }
}

fn json_metrics(metrics: &[(&str, f64, &str)]) -> Res<String> {
    let mut fields = Vec::with_capacity(metrics.len());
    for (name, value, unit) in metrics {
        if !value.is_finite() {
            return Err(format!("metric {name} is not a finite number: {value}").into());
        }
        fields.push(format!(
            "\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
        ));
    }
    Ok(format!("{{{}}}", fields.join(", ")))
}

fn bench(args: &Args) -> Res<String> {
    let untraced = run(&args.workload, args.seed, args.seconds, &Probe::untraced())?;
    // A traced run is correct only if both of its passes were.
    let mut mismatches = untraced.whole_check_mismatches;
    for line in &untraced.report {
        println!("{line}");
    }
    let (result, metrics) = if args.trace {
        let tracer = Arc::new(Tracer::default());
        let traced = run(
            &args.workload,
            args.seed,
            args.seconds,
            &Probe::traced(tracer.clone()),
        )?;
        // The headline throughput of the two runs gives the tracing cost.
        let overhead = untraced.metrics.ops_per_s / traced.metrics.ops_per_s - 1.0;
        println!(
            "traced run: {:.1}% slower per operation than the untraced run",
            overhead * 100.0
        );
        let layers = tracer.metrics(overhead);
        for (name, value, unit) in &layers {
            println!("  {name} = {value} {unit}");
        }
        let json = json_metrics(&layers)?;
        mismatches += traced.whole_check_mismatches;
        (traced, json)
    } else {
        let named = untraced.metrics.named();
        for (name, value, unit) in &named {
            println!("  {name} = {value} {unit}");
        }
        let json = json_metrics(&named)?;
        (untraced, json)
    };
    if mismatches > 0 {
        println!("whole-database checks found {mismatches} mismatched references");
    }
    println!(
        "{} operations attempted, {} failed",
        result.attempted, result.failed
    );
    Ok(format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        mismatches == 0,
        result.attempted,
        result.failed,
        metrics
    ))
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let outcome = match argv.first().map(String::as_str) {
        Some("selftest") => selftest::run().map(|ok| {
            if ok {
                "every perturbed answer was caught".to_owned()
            } else {
                String::new()
            }
        }),
        Some("fault") => phases::relocation_fault_case().map(|spurious| {
            if spurious.is_empty() {
                "relocate_block kept the owner set: the fault is gone".to_owned()
            } else {
                format!("live_owners(900) after relocate_block(100, 900) also lists {spurious:?}")
            }
        }),
        _ => parse_args(&argv)
            .map_err(Into::into)
            .and_then(|args| bench(&args)),
    };
    match outcome {
        Ok(line) if !line.is_empty() => {
            println!("{line}");
            ExitCode::SUCCESS
        }
        Ok(_) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}
