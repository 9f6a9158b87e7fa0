//! The real-program corpus: discover `.s` sources on disk, assemble and
//! link them into [`Program`]s, and adapt them to the suite machinery.
//!
//! The paper's premise is that *real program* value content is dominated
//! by narrow and duplicate values; every headline figure deserves a check
//! against programs that were not synthesized by the workload generators.
//! This module is the bridge: ported kernels live as plain assembly under
//! `corpus/`, and anything [`discover`] finds becomes a fixed-program
//! [`Workload`] (see [`Workload::from_program`]) that rides the standard
//! matrix/cache/sampling paths.
//!
//! Figs. 1 and 2 share their `--corpus` pipeline here: the options
//! ([`CORPUS_OPTIONS`]), why they refuse `--sample`
//! ([`ORACLE_UNSAMPLED`]), the uncached value-oracle runs ([`oracle_suites`],
//! [`oracle_corpus`]) and the `corpus_demographics.json` record
//! ([`write_demographics`]).
//!
//! # Layout convention
//!
//! [`discover`] accepts a file or a directory:
//!
//! * a `.s` **file** is one single-unit program, named after its stem;
//! * a **directory with `.s`-bearing subdirectories** is a *corpus*: each
//!   such subdirectory links as one multi-unit program (named after the
//!   subdirectory), and each loose `.s` file is a single-unit program;
//! * a **directory with no `.s`-bearing subdirectories** is a single
//!   program: all its `.s` files link together as translation units.
//!
//! So `carf-as corpus/` runs every kernel, while `carf-as
//! corpus/quicksort/` links and runs just that kernel. Within a program,
//! units link in filename order (deterministic layout); the entry is the
//! exported `_start` unless overridden.

use crate::cli::{OptSpec, ParsedCli};
use crate::json::Value;
use crate::{parallel, run_custom_with_cache, suite_points, Budget, SuiteResult};
use carf_isa::{link_with_entry, parse_object, LinkError, ObjectUnit, Program, SourceDiag};
use carf_sim::SimConfig;
use carf_workloads::{Suite, Workload};
use std::path::{Path, PathBuf};

/// One assembled and linked corpus program.
#[derive(Debug, Clone)]
pub struct CorpusProgram {
    /// Program name (file stem or directory name).
    pub name: String,
    /// The `.s` translation units, in link order.
    pub files: Vec<PathBuf>,
    /// The linked executable image.
    pub program: Program,
}

impl CorpusProgram {
    /// Adapts this program to a fixed-program [`Workload`] so it can join
    /// matrix runs and the result cache (which keys fixed programs by
    /// content fingerprint, not name).
    pub fn to_workload(&self, suite: Suite) -> Workload {
        // Workload names are `&'static str` across ~30 call sites; corpus
        // names are the only runtime-derived ones, so leak them (bounded
        // by the number of distinct programs per process).
        let name: &'static str = Box::leak(self.name.clone().into_boxed_str());
        Workload::from_program(name, suite, "corpus program", self.program.clone())
    }
}

/// A failure anywhere on the discover → parse → link path, carrying the
/// program or file involved.
#[derive(Debug)]
pub enum CorpusError {
    /// Filesystem trouble on `path`.
    Io(PathBuf, std::io::Error),
    /// A source file failed to parse.
    Parse(SourceDiag),
    /// A program failed to link.
    Link {
        /// The program being linked.
        program: String,
        /// The linker's diagnostic.
        error: LinkError,
    },
    /// The path contained no `.s` sources at all.
    Empty(PathBuf),
}

impl std::fmt::Display for CorpusError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CorpusError::Io(path, e) => write!(f, "{}: {e}", path.display()),
            CorpusError::Parse(diag) => write!(f, "{diag}"),
            CorpusError::Link { program, error } => write!(f, "{program}: {error}"),
            CorpusError::Empty(path) => {
                write!(f, "{}: no .s sources found", path.display())
            }
        }
    }
}

impl std::error::Error for CorpusError {}

/// The default corpus root, `<workspace>/corpus`.
pub fn default_corpus_dir() -> PathBuf {
    crate::parallel::workspace_root().join("corpus")
}

/// Assembles and links the translation units of one program.
pub fn load_program(
    name: &str,
    files: &[PathBuf],
    entry: Option<&str>,
) -> Result<CorpusProgram, CorpusError> {
    let mut units: Vec<ObjectUnit> = Vec::with_capacity(files.len());
    for path in files {
        let source = std::fs::read_to_string(path)
            .map_err(|e| CorpusError::Io(path.clone(), e))?;
        let unit = parse_object(&source, &path.display().to_string())
            .map_err(CorpusError::Parse)?;
        units.push(unit);
    }
    let program = link_with_entry(&units, entry)
        .map_err(|error| CorpusError::Link { program: name.to_string(), error })?;
    Ok(CorpusProgram { name: name.to_string(), files: files.to_vec(), program })
}

fn sorted_entries(dir: &Path) -> Result<Vec<PathBuf>, CorpusError> {
    let rd = std::fs::read_dir(dir).map_err(|e| CorpusError::Io(dir.to_path_buf(), e))?;
    let mut entries: Vec<PathBuf> = Vec::new();
    for e in rd {
        entries.push(e.map_err(|e| CorpusError::Io(dir.to_path_buf(), e))?.path());
    }
    entries.sort();
    Ok(entries)
}

fn is_asm(path: &Path) -> bool {
    path.is_file() && path.extension().is_some_and(|e| e == "s")
}

fn asm_files(dir: &Path) -> Result<Vec<PathBuf>, CorpusError> {
    Ok(sorted_entries(dir)?.into_iter().filter(|p| is_asm(p)).collect())
}

fn stem_name(path: &Path) -> String {
    path.file_stem().map_or_else(|| path.display().to_string(), |s| s.to_string_lossy().into_owned())
}

fn dir_name(path: &Path) -> String {
    path.file_name().map_or_else(|| path.display().to_string(), |s| s.to_string_lossy().into_owned())
}

/// Discovers, assembles, and links every program under `path` (see the
/// module docs for the layout convention). Programs come back sorted by
/// name — the discovery order is deterministic.
pub fn discover(path: &Path, entry: Option<&str>) -> Result<Vec<CorpusProgram>, CorpusError> {
    if is_asm(path) {
        return Ok(vec![load_program(&stem_name(path), &[path.to_path_buf()], entry)?]);
    }
    if !path.is_dir() {
        return Err(CorpusError::Empty(path.to_path_buf()));
    }

    // Partition the directory: subdirectories that hold `.s` units, and
    // loose `.s` files.
    let mut unit_dirs: Vec<(String, Vec<PathBuf>)> = Vec::new();
    let mut loose: Vec<PathBuf> = Vec::new();
    for e in sorted_entries(path)? {
        if e.is_dir() {
            let files = asm_files(&e)?;
            if !files.is_empty() {
                unit_dirs.push((dir_name(&e), files));
            }
        } else if is_asm(&e) {
            loose.push(e);
        }
    }

    let mut programs = Vec::new();
    if unit_dirs.is_empty() {
        // No program subdirectories: the directory itself is one program.
        if loose.is_empty() {
            return Err(CorpusError::Empty(path.to_path_buf()));
        }
        programs.push(load_program(&dir_name(path), &loose, entry)?);
    } else {
        for (name, files) in unit_dirs {
            programs.push(load_program(&name, &files, entry)?);
        }
        for file in loose {
            programs.push(load_program(&stem_name(&file), std::slice::from_ref(&file), entry)?);
        }
    }
    programs.sort_by(|a, b| a.name.cmp(&b.name));
    Ok(programs)
}

/// Discovers the corpus under `dir` and adapts every program to a fixed
/// [`Workload`] on `suite`, in name order.
pub fn workloads(dir: &Path, suite: Suite) -> Result<Vec<Workload>, CorpusError> {
    Ok(discover(dir, None)?.iter().map(|p| p.to_workload(suite)).collect())
}

/// The `--corpus` and `--corpus-dir DIR` options of Figs. 1 and 2.
pub const CORPUS_OPTIONS: &[OptSpec] = &[
    OptSpec {
        name: "--corpus",
        value: None,
        help: "also run the real-program corpus; report the synthetic-vs-real delta",
    },
    OptSpec {
        name: "--corpus-dir",
        value: Some("DIR"),
        help: "corpus root (default: corpus/; implies --corpus)",
    },
];

/// Why Figs. 1 and 2 refuse `--sample` (see
/// [`crate::cli::CliSpec::parse_unsampled`]).
pub const ORACLE_UNSAMPLED: &str =
    "sampled windows do not carry the value oracle's snapshots, so every fraction would read 0";

/// Interprets [`CORPUS_OPTIONS`]: `Some(root)` when corpus mode is
/// requested (an explicit directory implies it), `None` otherwise.
fn corpus_root(parsed: &ParsedCli) -> Option<PathBuf> {
    match parsed.option("--corpus-dir") {
        Some(dir) => Some(PathBuf::from(dir)),
        None => parsed.option("--corpus").map(|_| default_corpus_dir()),
    }
}

/// The machine Figs. 1 and 2 observe: the paper baseline with the value
/// oracle sampling every `budget.oracle_period` cycles.
fn oracle_config(budget: &Budget) -> SimConfig {
    let mut cfg = SimConfig::paper_baseline();
    cfg.oracle_period = Some(budget.oracle_period);
    cfg
}

/// The INT and FP suites, in that order, under the value oracle.
/// Uncached: no other binary stores oracle points.
pub fn oracle_suites(budget: &Budget) -> Vec<SuiteResult> {
    let cfg = oracle_config(budget);
    let points = suite_points(&[(cfg.clone(), Suite::Int), (cfg, Suite::Fp)]);
    run_custom_with_cache(&points, budget, None).results
}

/// Every corpus program under the value oracle, uncached, when
/// [`CORPUS_OPTIONS`] ask for it; `None` otherwise. A corpus that does
/// not load prints `error: …` and exits 1.
pub fn oracle_corpus(parsed: &ParsedCli, budget: &Budget) -> Option<SuiteResult> {
    let root = corpus_root(parsed)?;
    let workloads = workloads(&root, Suite::Int).unwrap_or_else(|e| {
        eprintln!("error: {e}");
        std::process::exit(1);
    });
    let points = [(oracle_config(budget), Suite::Int, workloads)];
    run_custom_with_cache(&points, budget, None).results.pop()
}

/// Group fractions as a JSON array of six-decimal numbers.
pub fn json_fractions(f: &[f64]) -> Value {
    f.iter().map(|x| Value::fixed(*x, 6)).collect()
}

/// Merges a figure's synthetic-vs-corpus `record` into
/// `corpus_demographics.json` (one per figure and budget) and prints
/// where it went; a failed write exits 1.
pub fn write_demographics(record: Value) {
    let path = parallel::exit_on_write_error(parallel::write_records(
        "corpus_demographics.json",
        vec![record],
        &["figure", "budget"],
        1,
    ));
    println!("\ncorpus demographics -> {}", path.display());
}

#[cfg(test)]
mod tests {
    use super::*;

    fn scratch(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("carf-corpus-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    const SINGLE: &str = "li x1, 5\nhalt\n";
    const MAIN: &str = ".globl _start\n_start:\n jal x31, f\n halt\n";
    const LIB: &str = ".globl f\nf:\n li x2, 9\n ret x31\n";

    #[test]
    fn single_file_is_one_program() {
        let dir = scratch("single");
        let f = dir.join("alpha.s");
        std::fs::write(&f, SINGLE).unwrap();
        let ps = discover(&f, None).unwrap();
        assert_eq!(ps.len(), 1);
        assert_eq!(ps[0].name, "alpha");
        assert_eq!(ps[0].files.len(), 1);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn flat_directory_links_as_one_program() {
        let dir = scratch("flat");
        std::fs::write(dir.join("main.s"), MAIN).unwrap();
        std::fs::write(dir.join("util.s"), LIB).unwrap();
        let ps = discover(&dir, None).unwrap();
        assert_eq!(ps.len(), 1);
        assert_eq!(ps[0].files.len(), 2);
        // Filename order: main.s before util.s.
        assert!(ps[0].files[0].ends_with("main.s"));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn corpus_directory_mixes_subdir_programs_and_loose_files() {
        let dir = scratch("mixed");
        std::fs::create_dir_all(dir.join("multi")).unwrap();
        std::fs::write(dir.join("multi/main.s"), MAIN).unwrap();
        std::fs::write(dir.join("multi/lib.s"), LIB).unwrap();
        std::fs::write(dir.join("solo.s"), SINGLE).unwrap();
        let ps = discover(&dir, None).unwrap();
        let names: Vec<&str> = ps.iter().map(|p| p.name.as_str()).collect();
        assert_eq!(names, ["multi", "solo"]);
        assert_eq!(ps[0].files.len(), 2);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn link_errors_name_the_program() {
        let dir = scratch("linkerr");
        std::fs::write(dir.join("a.s"), ".globl f\nf:\n halt\n").unwrap();
        std::fs::write(dir.join("b.s"), ".globl f\nf:\n halt\n").unwrap();
        let e = discover(&dir, None).unwrap_err();
        let msg = e.to_string();
        assert!(msg.contains("duplicate symbol `f`"), "{msg}");
        assert!(msg.contains("a.s") && msg.contains("b.s"), "{msg}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn empty_paths_are_reported() {
        let dir = scratch("empty");
        assert!(matches!(discover(&dir, None), Err(CorpusError::Empty(_))));
        let _ = std::fs::remove_dir_all(&dir);
    }
}
