//! Assemble, link, and run real programs from the corpus.
//!
//! ```text
//! carf-as [paths...] [--machine M] [--dn N] [--unlimited] [--cosim]
//!         [--entry SYM] [--functional] [--disasm] [--timeline N]
//!         [--max N] [--quick|--full] [--jobs N] [--sample]
//! ```
//!
//! Each path is a `.s` file or a directory following the corpus layout
//! (see `carf_bench::corpus`): subdirectories link as multi-unit
//! programs, loose files as single-unit programs; with no paths the
//! workspace `corpus/` is run. Timing runs go through the shared result
//! cache keyed on program *content*, so re-runs of unchanged sources do
//! zero simulation; per-program stats land in `results/corpus_runs.json`.
//! `--timeline N` additionally traces each program's first N commits
//! through a [`TraceRecorder`] and prints their stage cycles.

use carf_bench::cli::{CliSpec, MachineSet, OptSpec};
use carf_bench::{cache, corpus, parallel};
use carf_core::CarfParams;
use carf_isa::Machine;
use carf_sim::{AnySimulator, SimConfig, TraceRecorder};
use carf_workloads::Suite;
use std::path::PathBuf;

const SPEC: CliSpec = CliSpec {
    bin: "carf-as",
    options: &[
        OptSpec {
            name: "--machine",
            value: Some("M"),
            help: "base, carf, both, compressed, ports, or all (default: base; carf with --dn)",
        },
        OptSpec {
            name: "--dn",
            value: Some("N"),
            help: "d+n of the carf machine, 4..=32 (default 20)",
        },
        OptSpec {
            name: "--unlimited",
            value: None,
            help: "replace the base machine with the unlimited-resource comparator",
        },
        OptSpec {
            name: "--cosim",
            value: None,
            help: "check every commit against the functional model",
        },
        OptSpec {
            name: "--entry",
            value: Some("SYM"),
            help: "entry symbol for linking (default: exported _start)",
        },
        OptSpec {
            name: "--functional",
            value: None,
            help: "run the functional executor instead of the timing simulator",
        },
        OptSpec { name: "--disasm", value: None, help: "print each linked program's disassembly" },
        OptSpec {
            name: "--timeline",
            value: Some("N"),
            help: "print the pipeline timeline of each program's first N commits",
        },
        OptSpec { name: "--max", value: Some("N"), help: "per-program instruction budget override" },
    ],
    operands: Some(("path", ".s files or program/corpus directories (default: corpus/)")),
};

fn positive(parsed: &carf_bench::cli::ParsedCli, name: &str) -> Option<u64> {
    parsed.option(name).map(|v| match v.parse::<u64>() {
        Ok(n) if n > 0 => n,
        _ => SPEC.fail(&format!("`{name}` expects a positive integer")),
    })
}

/// The labeled machines to run: the `--machine` set, with `--dn`,
/// `--unlimited`, and `--cosim` applied. A changed machine gets its own
/// label, so its records never overwrite the paper machine's.
fn machines(parsed: &carf_bench::cli::ParsedCli) -> Vec<(String, SimConfig)> {
    let dn = parsed.option("--dn").map(|v| match v.parse::<u32>() {
        Ok(n) if (4..=32).contains(&n) => n,
        _ => SPEC.fail("`--dn` expects an integer in 4..=32"),
    });
    let unlimited = parsed.option("--unlimited").is_some();
    let default_set = if dn.is_some() { "carf" } else { "base" };
    let set = match MachineSet::parse(parsed.option("--machine").unwrap_or(default_set)) {
        Ok(m) => m,
        Err(e) => SPEC.fail(&e),
    };
    if dn.is_some() && !set.includes_carf() {
        SPEC.fail("`--dn` sets the carf machine's d+n, but the machine set has no carf");
    }
    if unlimited && !set.includes_base() {
        SPEC.fail("`--unlimited` replaces the base machine, but the machine set has no base");
    }
    let cosim = parsed.option("--cosim").is_some();
    set.configs()
        .into_iter()
        .map(|(label, config)| {
            let (label, mut config) = match (label, dn) {
                ("base", _) if unlimited => ("unlimited".to_string(), SimConfig::paper_unlimited()),
                ("carf", Some(dn)) => {
                    (format!("carf-dn{dn}"), SimConfig::paper_carf(CarfParams::with_dn(dn)))
                }
                (label, _) => (label.to_string(), config),
            };
            config.cosim = cosim;
            (label, config)
        })
        .collect()
}

/// Prints the stage cycles of `program`'s first `n` commits. The traced
/// run stops once `n` instructions commit: those rows are the same as a
/// run to completion would record.
fn print_timeline(label: &str, program: &corpus::CorpusProgram, config: &SimConfig, n: u64) {
    let recorder = TraceRecorder::with_window(0, u64::MAX);
    let mut sim = AnySimulator::with_tracer(config.clone(), &program.program, recorder);
    if let Err(e) = sim.run(n) {
        eprintln!("error: {}: {e}", program.name);
        std::process::exit(1);
    }
    println!("\n[{label}] {}: first {n} commits", program.name);
    println!("   seq  pc         Dispatch Issue  Exec   Commit");
    for row in sim.tracer().lifetimes().iter().take(n as usize) {
        println!("{row}");
    }
}

fn main() {
    let parsed = SPEC.parse();
    let mut budget = parsed.budget;
    if let Some(n) = positive(&parsed, "--max") {
        budget.max_insts = n;
    }
    let timeline = positive(&parsed, "--timeline");
    let entry = parsed.option("--entry");
    let configs = machines(&parsed);

    let paths: Vec<PathBuf> = if parsed.operands.is_empty() {
        vec![corpus::default_corpus_dir()]
    } else {
        parsed.operands.iter().map(PathBuf::from).collect()
    };

    let mut programs: Vec<corpus::CorpusProgram> = Vec::new();
    for path in &paths {
        match corpus::discover(path, entry) {
            Ok(mut ps) => programs.append(&mut ps),
            Err(e) => {
                eprintln!("error: {e}");
                std::process::exit(1);
            }
        }
    }
    let units: usize = programs.iter().map(|p| p.files.len()).sum();
    println!("carf-as: linked {} program(s) from {units} translation unit(s)", programs.len());

    if parsed.option("--disasm").is_some() {
        for p in &programs {
            println!("; {} ({} insts)", p.name, p.program.len());
            print!("{}", p.program.disassemble());
        }
    }

    if parsed.option("--functional").is_some() {
        for p in &programs {
            let mut m = Machine::load(&p.program);
            match m.run(&p.program, budget.max_insts) {
                Ok(retired) => println!(
                    "{:<12} functional: {retired} retired{}",
                    p.name,
                    if m.is_halted() { "" } else { " (budget reached)" }
                ),
                Err(e) => {
                    eprintln!("error: {}: {e}", p.name);
                    std::process::exit(1);
                }
            }
        }
        return;
    }

    if let Some(n) = timeline {
        for (label, config) in &configs {
            for p in &programs {
                print_timeline(label, p, config, n.min(budget.max_insts));
            }
        }
    }

    // One experiment point per machine, carrying every program; the cache
    // addresses each (machine, program-content, budget) triple.
    let points: Vec<_> = configs
        .iter()
        .map(|(_, config)| {
            (config.clone(), Suite::Int, programs.iter().map(|p| p.to_workload(Suite::Int)).collect())
        })
        .collect();
    let outcome = cache::run_custom_cached(&points, &budget);

    for ((label, _), result) in configs.iter().zip(&outcome.results) {
        println!("\n[{label}] corpus, budget {}", budget.label());
        println!(
            "{:<12} {:>10} {:>10} {:>6}  {:>6} {:>6} {:>6}",
            "program", "committed", "cycles", "ipc", "simple", "short", "long"
        );
        for (name, stats) in &result.runs {
            let writes = &stats.int_rf.writes;
            // Per-class write counters are populated by content-aware
            // organizations only; the monolithic baseline shows dashes.
            let classes = if writes.total() > 0 {
                let total = writes.total() as f64;
                format!(
                    "{:>5.1}% {:>5.1}% {:>5.1}%",
                    writes.simple as f64 / total * 100.0,
                    writes.short as f64 / total * 100.0,
                    writes.long as f64 / total * 100.0,
                )
            } else {
                format!("{:>6} {:>6} {:>6}", "-", "-", "-")
            };
            println!(
                "{:<12} {:>10} {:>10} {:>6.3}  {classes}",
                name,
                stats.committed,
                stats.cycles,
                stats.ipc(),
            );
            let record = format!(
                "{{\"program\": \"{}\", \"machine\": \"{}\", \
                 \"budget\": \"{}\", \"committed\": {}, \"cycles\": {}, \
                 \"ipc\": {:.6}, \"simple\": {}, \"short\": {}, \"long\": {}}}",
                parallel::json_escape(name),
                parallel::json_escape(label),
                parallel::json_escape(budget.label()),
                stats.committed,
                stats.cycles,
                stats.ipc(),
                writes.simple,
                writes.short,
                writes.long,
            );
            parallel::write_merged_record(
                "corpus_runs.json",
                &record,
                &["program", "machine", "budget"],
            );
        }
    }
}
