//! `hmbench --workload <name> [--seed N] [--seconds S] [--trace [0|1]]
//!         [--scale full|smoke] [--out FILE]`
//! `hmbench agree <dirA> <dirB> [--bench BENCHMARK.json]`
//!
//! Runs one workload, prints every metric as `name workload value
//! unit`, a provenance line, and as the last line one JSON object
//! `{"correct", "attempted", "failed", "metrics"}`. Exits non-zero when
//! any check fails. See the crate README.

use hmbench::workload::{RunSpec, Scale, Workload, DEFAULT_SECONDS};
use hmbench::{agree, fleet, report, single};
use std::process::ExitCode;

#[global_allocator]
static ALLOC: hmbench::alloc::Counting = hmbench::alloc::Counting;

const USAGE: &str = "usage: hmbench --workload <mix_soap|mix_binary|vsr_churn|fleet_day> \
[--seed N] [--seconds S] [--trace [0|1]] [--scale full|smoke] [--out FILE]\n       \
hmbench agree <dirA> <dirB> [--bench BENCHMARK.json]";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = if args.first().map(String::as_str) == Some("agree") {
        run_agree(&args[1..])
    } else {
        run(&args)
    };
    match result {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("hmbench: {e}\n{USAGE}");
            ExitCode::from(2)
        }
    }
}

fn run_agree(args: &[String]) -> Result<bool, String> {
    let mut dirs = Vec::new();
    let mut bench = "BENCHMARK.json".to_owned();
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--bench" => bench = it.next().ok_or("--bench needs a path")?.clone(),
            _ => dirs.push(a.clone()),
        }
    }
    let [a, b] = dirs.as_slice() else {
        return Err("agree needs two directories".to_owned());
    };
    agree::run(a, b, &bench)
}

fn run(args: &[String]) -> Result<bool, String> {
    let mut spec = RunSpec {
        workload: Workload::MixSoap,
        seed: 42,
        seconds: DEFAULT_SECONDS as f64,
        trace: false,
        scale: Scale::Full,
    };
    let mut workload = None;
    let mut out = None;
    let mut i = 0;
    while i < args.len() {
        let value = |i: usize| {
            args.get(i + 1)
                .ok_or_else(|| format!("{} needs a value", args[i]))
        };
        match args[i].as_str() {
            "--workload" => {
                let name = value(i)?;
                workload =
                    Some(Workload::parse(name).ok_or_else(|| format!("unknown workload {name}"))?);
                i += 1;
            }
            "--seed" => {
                spec.seed = value(i)?.parse().map_err(|e| format!("--seed: {e}"))?;
                i += 1;
            }
            "--seconds" => {
                spec.seconds = value(i)?.parse().map_err(|e| format!("--seconds: {e}"))?;
                i += 1;
            }
            "--trace" => match args.get(i + 1).map(String::as_str) {
                Some("0") | Some("1") => {
                    spec.trace = args[i + 1] == "1";
                    i += 1;
                }
                _ => spec.trace = true,
            },
            "--scale" => {
                spec.scale = match value(i)?.as_str() {
                    "full" => Scale::Full,
                    "smoke" => Scale::Smoke,
                    other => return Err(format!("unknown scale {other}")),
                };
                i += 1;
            }
            "--out" => {
                out = Some(value(i)?.clone());
                i += 1;
            }
            other => return Err(format!("unknown argument {other}")),
        }
        i += 1;
    }
    spec.workload = workload.ok_or("--workload is required")?;

    let outcome = match (spec.workload, spec.trace) {
        (Workload::FleetDay, false) => fleet::measure(&spec)?,
        (Workload::FleetDay, true) => fleet::trace(&spec)?,
        (_, false) => single::measure(&spec)?,
        (_, true) => single::trace(&spec)?,
    };
    let last = report::emit(&spec, &outcome, out.as_deref())?;
    println!("{last}");
    Ok(outcome.failures.is_empty() && outcome.failed == 0)
}
