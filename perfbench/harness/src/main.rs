//! `carf-perfbench <detailed|sampled|probe|reference> [options]`: runs one
//! workload (or the cache probe, or the reference loop alone) and prints
//! its report as one JSON line.

use carf_perfbench::inputs::Scale;
use carf_perfbench::report::Report;
use carf_perfbench::timing::{median, quiet_host_factor, reference_s};
use carf_perfbench::{detailed, probe, sampled};
use std::path::PathBuf;
use std::process::ExitCode;

const USAGE: &str = "usage: carf-perfbench detailed|sampled [--seed N] [--seconds S] \
[--trace 0|1] [--scale normal|smallest] [--spans FILE] [--inject-mismatch]\n       \
carf-perfbench probe --cache DIR --scratch DIR\n       \
carf-perfbench reference";

/// Runs of the reference loop behind `reference`'s median.
const REFERENCE_RUNS: usize = 5;

struct Args {
    mode: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    scale: Scale,
    spans: Option<PathBuf>,
    inject_mismatch: bool,
    cache: Option<PathBuf>,
    scratch: Option<PathBuf>,
}

fn parse() -> Result<Args, String> {
    let mut it = std::env::args().skip(1);
    let mode = it.next().ok_or("missing mode")?;
    let mut a = Args {
        mode,
        seed: 1,
        seconds: 10.0,
        trace: false,
        scale: Scale::Normal,
        spans: None,
        inject_mismatch: false,
        cache: None,
        scratch: None,
    };
    while let Some(flag) = it.next() {
        if flag == "--inject-mismatch" {
            a.inject_mismatch = true;
            continue;
        }
        let v = it.next().ok_or_else(|| format!("{flag} expects a value"))?;
        let bad = |what: &str| format!("{flag} expects {what}, got `{v}`");
        match flag.as_str() {
            "--seed" => a.seed = v.parse().map_err(|_| bad("an integer"))?,
            "--seconds" => {
                a.seconds = v
                    .parse()
                    .ok()
                    .filter(|s: &f64| *s > 0.0)
                    .ok_or_else(|| bad("a positive number"))?;
            }
            "--trace" => {
                a.trace = match v.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("0 or 1")),
                }
            }
            "--scale" => a.scale = Scale::parse(&v)?,
            "--spans" => a.spans = Some(PathBuf::from(v)),
            "--cache" => a.cache = Some(PathBuf::from(v)),
            "--scratch" => a.scratch = Some(PathBuf::from(v)),
            _ => return Err(format!("unknown option {flag}")),
        }
    }
    Ok(a)
}

fn main() -> ExitCode {
    let args = match parse() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let root = PathBuf::from(".");
    let report = match args.mode.as_str() {
        "detailed" => detailed::run(
            &detailed::Options {
                seed: args.seed,
                seconds: args.seconds,
                trace: args.trace,
                scale: args.scale,
                inject_mismatch: args.inject_mismatch,
            },
            &root,
        ),
        "sampled" => sampled::run(&sampled::Options {
            seed: args.seed,
            seconds: args.seconds,
            trace: args.trace,
            scale: args.scale,
        }),
        "probe" => match (&args.cache, &args.scratch) {
            (Some(c), Some(s)) => probe::run(c, s),
            _ => Err("probe needs --cache and --scratch".into()),
        },
        "reference" => {
            // For workloads timed from outside this process (`rerun`).
            let mut r = Report::default();
            let runs = (0..REFERENCE_RUNS).map(|_| reference_s());
            let reference = median(runs).unwrap_or(0.0);
            r.set("reference_s", reference);
            r.set("adjust", quiet_host_factor(reference));
            Ok(r)
        }
        other => Err(format!("unknown mode `{other}`\n{USAGE}")),
    };
    match report {
        Ok(r) => {
            if let Some(path) = &args.spans {
                if let Err(e) = std::fs::write(path, &r.span_lines) {
                    eprintln!("error: writing {}: {e}", path.display());
                    return ExitCode::FAILURE;
                }
            }
            println!("{}", r.to_json());
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}
