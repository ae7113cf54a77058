//! repobench — the repository benchmark.
//!
//! ```text
//! repobench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Runs one workload (see [`workloads`]) for `--seconds` of measured
//! time on inputs generated from `--seed`, checks every operation's
//! output, and prints as its last line one JSON object: `correct`,
//! `attempted`, `failed`, and every end-to-end metric (`--trace 0`) or
//! every per-layer metric (`--trace 1`) with its unit. See README.md in
//! this directory for what each workload and metric is for.

mod calib;
mod gen;
mod metrics;
mod spans;
mod traced;
mod workloads;

use metrics::{END_TO_END, PER_LAYER};
use workloads::{Args, Workload};

const USAGE: &str = "usage: repobench --workload <name> --seed <n> --seconds <s> --trace <0|1>\n\
                     workloads: lab_default, lab_parallel, sensor_replay, campus_service";

fn parse(argv: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value {value:?} for {flag}");
        match flag.as_str() {
            "--workload" => workload = Some(Workload::parse(value).ok_or_else(bad)?),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|_| bad())?),
            "--seconds" => {
                let s = value.parse::<f64>().map_err(|_| bad())?;
                if !(s.is_finite() && s > 0.0) {
                    return Err(bad());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("missing --workload")?,
        seed: seed.ok_or("missing --seed")?,
        seconds: seconds.ok_or("missing --seconds")?,
        trace: trace.ok_or("missing --trace")?,
    })
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse(&argv) {
        Ok(args) => args,
        Err(why) => {
            eprintln!("repobench: {why}\n{USAGE}");
            std::process::exit(2);
        }
    };
    println!(
        "workload {:?}, seed {}, {} s, trace {}, nproc {}",
        args.workload,
        args.seed,
        args.seconds,
        args.trace,
        workloads::nproc()
    );
    let outcome = workloads::run(&args);
    let registry = if args.trace { PER_LAYER } else { END_TO_END };
    println!("{}", outcome.render(registry));
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn parses_a_full_command_line() {
        let a = parse(&argv(
            "--workload lab_parallel --seed 7 --seconds 10 --trace 1",
        ))
        .unwrap();
        assert_eq!(a.workload, Workload::LabParallel);
        assert_eq!(a.seed, 7);
        assert_eq!(a.seconds, 10.0);
        assert!(a.trace);
    }

    #[test]
    fn rejects_bad_command_lines() {
        for bad in [
            "",
            "--workload nope --seed 1 --seconds 1 --trace 0",
            "--workload lab_default --seed x --seconds 1 --trace 0",
            "--workload lab_default --seed 1 --seconds 0 --trace 0",
            "--workload lab_default --seed 1 --seconds 1 --trace 2",
            "--workload lab_default --seed 1 --seconds 1",
            "--workload lab_default --seed 1 --seconds 1 --trace 0 --extra 1",
        ] {
            assert!(parse(&argv(bad)).is_err(), "{bad:?}");
        }
    }
}
