//! The repo benchmark: four front-door workloads, end-to-end metrics and an
//! outside-in per-layer ledger. See `README.md` next to this package.
//!
//! ```text
//! hsa-benchmark run --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! hsa-benchmark run [--seed <n>] [--runs <r>] [--traced] [--smoke]
//! hsa-benchmark compare <a.json> <b.json>
//! ```
//!
//! The first form is one run of one workload in this process; its last
//! line of output is the result object `BENCHMARK.json`'s driver reads.
//! The second runs every workload, each run in a child process of its own
//! (so that peak memory is per run), and writes `out/results.json`.

mod check;
mod compare;
mod host;
mod layers;
mod ledger;
mod lib_door;
mod results;
mod runner;
mod serve_door;
mod spans;
mod spec;
mod stats;
mod workloads;

use runner::{Outcome, RunOptions};
use std::path::PathBuf;
use std::process::ExitCode;

const USAGE: &str = "\
usage: hsa-benchmark run --workload <name> --seed <n> --seconds <s> --trace <0|1>
       hsa-benchmark run [--seed <n>] [--runs <r>] [--traced] [--smoke]
       hsa-benchmark compare <a.json> <b.json>";

/// Window length of the smoke run; its numbers are not comparable.
const SMOKE_SECONDS: f64 = 2.0;

#[derive(Debug, Default, PartialEq)]
struct RunArgs {
    workload: Option<String>,
    seed: u64,
    seconds: Option<f64>,
    traced: bool,
    smoke: bool,
    runs: u64,
}

fn parse_run_args(args: &[String]) -> Result<RunArgs, String> {
    let mut parsed = RunArgs { seed: 42, runs: 1, ..RunArgs::default() };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        fn number<T: std::str::FromStr>(flag: &str, v: &str) -> Result<T, String> {
            v.parse().map_err(|_| format!("{flag}: cannot read {v:?}"))
        }
        match flag.as_str() {
            "--workload" => parsed.workload = Some(value()?.clone()),
            "--seed" => parsed.seed = number(flag, value()?)?,
            "--seconds" => {
                let seconds: f64 = number(flag, value()?)?;
                if !(seconds > 0.0 && seconds <= 600.0) {
                    return Err(format!("--seconds {seconds} is outside (0, 600]"));
                }
                parsed.seconds = Some(seconds);
            }
            "--trace" => {
                parsed.traced = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
                }
            }
            "--traced" => parsed.traced = true,
            "--smoke" => parsed.smoke = true,
            "--runs" => {
                parsed.runs = number(flag, value()?)?;
                if parsed.runs == 0 {
                    return Err("--runs needs at least 1".into());
                }
            }
            other => return Err(format!("unknown option {other:?}\n{USAGE}")),
        }
    }
    Ok(parsed)
}

fn out_dir() -> Result<PathBuf, String> {
    let dir = host::bench_dir().join("out");
    std::fs::create_dir_all(&dir).map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
    Ok(dir)
}

/// One run of one workload in this process.
fn run_one(args: &RunArgs, name: &str, seconds: f64) -> Result<Outcome, String> {
    let workload = workloads::find(name).ok_or_else(|| {
        let names: Vec<&str> = workloads::WORKLOADS.iter().map(|w| w.name).collect();
        format!("unknown workload {name:?}; the workloads are {names:?}")
    })?;
    let out_dir = out_dir()?;
    let opts = RunOptions {
        workload,
        seed: args.seed,
        seconds,
        traced: args.traced,
        smoke: args.smoke,
        out_dir: &out_dir,
    };
    let outcome = runner::run(&opts)?;
    println!("# {name}: {}", workload.why);
    println!("# seed {} window {seconds} s traced {}", args.seed, args.traced);
    print!("{}", results::table(&outcome.metrics));
    println!("{}", results::contract_line(&outcome).to_string_compact());
    Ok(outcome)
}

fn run(args: &[String]) -> Result<bool, String> {
    host::refuse_overrides()?;
    let args = parse_run_args(args)?;
    let seconds = match args.seconds {
        Some(s) => s,
        None if args.smoke => SMOKE_SECONDS,
        None => spec::Contract::load(&compare::contract_path())?.run_seconds as f64,
    };
    match &args.workload {
        Some(name) => Ok(run_one(&args, name, seconds)?.correct),
        None => results::run_all(&args, seconds, &out_dir()?),
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let done = match args.split_first() {
        Some((cmd, rest)) if cmd == "run" => run(rest),
        Some((cmd, rest)) if cmd == "compare" => compare::main(rest),
        _ => Err(USAGE.to_string()),
    };
    match done {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(message) => {
            eprintln!("hsa-benchmark: {message}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<RunArgs, String> {
        parse_run_args(&args.iter().map(|s| s.to_string()).collect::<Vec<_>>())
    }

    #[test]
    fn the_drivers_argument_line_parses() {
        let a = parse(&["--workload", "lib_hot", "--seed", "7", "--seconds", "20", "--trace", "1"]);
        let want = RunArgs {
            workload: Some("lib_hot".into()),
            seed: 7,
            seconds: Some(20.0),
            traced: true,
            smoke: false,
            runs: 1,
        };
        assert_eq!(a.unwrap(), want);
        assert_eq!(parse(&[]).unwrap(), RunArgs { seed: 42, runs: 1, ..RunArgs::default() });
        assert!(parse(&["--smoke", "--traced", "--runs", "3"]).unwrap().smoke);
    }

    #[test]
    fn bad_arguments_are_refused() {
        for bad in [
            &["--seed"][..],
            &["--seed", "x"],
            &["--trace", "2"],
            &["--seconds", "0"],
            &["--seconds", "nan"],
            &["--runs", "0"],
            &["--frobnicate"],
        ] {
            assert!(parse(bad).is_err(), "{bad:?}");
        }
    }
}
