//! Malformed assembly never panics. Every corpus file is mutated in four
//! deterministic ways: each single-line deletion, each line duplication,
//! each truncation at a token boundary, and a prefix cut every 7th byte.
//! Each mutant, linked with its program's other files unchanged, must
//! either assemble and link or fail with an error. A fixed subsample of
//! the mutants that link then runs on the functional executor and on all
//! four timing machines with co-simulation on: each machine must end where
//! the executor ends, with an error where the executor errs, and never
//! with a co-simulation mismatch.

use std::panic::{catch_unwind, AssertUnwindSafe};

use carf_bench::cli::MachineSet;
use carf_bench::corpus;
use carf_isa::{link_with_entry, parse_object, ExecError, Machine, Program};
use carf_sim::{AnySimulator, SimError};

/// Instructions each sampled mutant runs for, on every machine.
const BUDGET: u64 = 20_000;

/// Every how many linked mutants one runs.
const RUN_STRIDE: usize = 100;

/// One mutated source file of a corpus program.
struct Mutant {
    /// What was done to which file, for failure messages.
    label: String,
    /// The program's files, the mutated one replaced.
    sources: Vec<(String, String)>,
}

/// Byte positions where a whitespace run meets a token.
fn token_boundaries(src: &str) -> Vec<usize> {
    let bytes = src.as_bytes();
    (1..bytes.len())
        .filter(|&i| bytes[i - 1].is_ascii_whitespace() != bytes[i].is_ascii_whitespace())
        .collect()
}

/// The mutations of `src`, each with a label.
fn mutations(src: &str) -> Vec<(String, String)> {
    let lines: Vec<&str> = src.split_inclusive('\n').collect();
    let mut out = Vec::new();
    for i in 0..lines.len() {
        let mut deleted = lines.clone();
        deleted.remove(i);
        out.push((format!("line {} deleted", i + 1), deleted.concat()));
        let mut duplicated = lines.clone();
        duplicated.insert(i, lines[i]);
        out.push((format!("line {} duplicated", i + 1), duplicated.concat()));
    }
    for at in token_boundaries(src) {
        out.push((format!("truncated at byte {at}"), src[..at].to_string()));
    }
    for at in (7..src.len()).step_by(7).filter(|&at| src.is_char_boundary(at)) {
        out.push((format!("first {at} bytes cut"), src[at..].to_string()));
    }
    out
}

/// Every mutant of every corpus file, in corpus order.
fn corpus_mutants() -> Vec<Mutant> {
    let programs = corpus::discover(&corpus::default_corpus_dir(), None)
        .expect("the corpus must assemble and link");
    let mut mutants = Vec::new();
    for program in &programs {
        let sources: Vec<(String, String)> = program
            .files
            .iter()
            .map(|path| {
                let text = std::fs::read_to_string(path)
                    .unwrap_or_else(|e| panic!("{}: {e}", path.display()));
                (path.display().to_string(), text)
            })
            .collect();
        for (fi, (name, text)) in sources.iter().enumerate() {
            for (what, mutated) in mutations(text) {
                let mut mutant_sources = sources.clone();
                mutant_sources[fi].1 = mutated;
                mutants.push(Mutant { label: format!("{name}: {what}"), sources: mutant_sources });
            }
        }
    }
    mutants
}

/// Assembles and links a mutant; `Err` carries the diagnostic.
fn build(mutant: &Mutant) -> Result<Program, String> {
    let units = mutant
        .sources
        .iter()
        .map(|(name, text)| parse_object(text, name).map_err(|e| e.to_string()))
        .collect::<Result<Vec<_>, _>>()?;
    link_with_entry(&units, None).map_err(|e| e.to_string())
}

/// Runs `program` on the executor and the four machines; `Err` says how a
/// machine parted from the executor.
fn run_everywhere(program: &Program) -> Result<(), String> {
    let mut golden = Machine::load(program);
    let outcome = golden.run(program, BUDGET);
    let expected = golden.checkpoint(program).fingerprint();
    for (label, config) in MachineSet::All.configs() {
        let mut cfg = config;
        cfg.cosim = true;
        let mut sim = AnySimulator::new(cfg, program);
        let run = sim.run_exact(BUDGET);
        match (&outcome, run) {
            (_, Err(e @ SimError::CosimMismatch { .. })) => return Err(format!("{label}: {e}")),
            (Ok(_) | Err(ExecError::InstLimit(_)), Ok(_)) => {
                if sim.arch_checkpoint().fingerprint() != expected {
                    return Err(format!("{label}: architectural state differs from the executor's"));
                }
            }
            (Err(ExecError::PcOutOfRange(_)), Err(SimError::RunawayFetch { .. })) => {}
            (exec, sim) => {
                return Err(format!("{label}: executor ended {exec:?}, machine {sim:?}"));
            }
        }
    }
    Ok(())
}

#[test]
fn malformed_assembly_errors_instead_of_panicking() {
    let mutants = corpus_mutants();
    assert!(mutants.len() > 5_000, "only {} mutants", mutants.len());
    let mut failures = Vec::new();
    let mut linked = Vec::new();
    for mutant in &mutants {
        match catch_unwind(AssertUnwindSafe(|| build(mutant))) {
            Ok(Ok(program)) => linked.push((mutant, program)),
            Ok(Err(_)) => {}
            Err(_) => failures.push(format!("{}: assembling or linking panicked", mutant.label)),
        }
    }
    let errors = mutants.len() - linked.len() - failures.len();
    assert!(
        errors > 1_000 && linked.len() > 1_000,
        "{errors} mutants failed to build and {} linked: the mutations miss one side",
        linked.len()
    );
    let sampled: Vec<_> = linked.iter().step_by(RUN_STRIDE).collect();
    for (mutant, program) in &sampled {
        match catch_unwind(AssertUnwindSafe(|| run_everywhere(program))) {
            Ok(Ok(())) => {}
            Ok(Err(e)) => failures.push(format!("{}: {e}", mutant.label)),
            Err(_) => failures.push(format!("{}: running panicked", mutant.label)),
        }
    }
    assert!(
        failures.is_empty(),
        "{} of {} mutants ({} linked, {} run) failed:\n{}",
        failures.len(),
        mutants.len(),
        linked.len(),
        sampled.len(),
        failures.join("\n")
    );
}
