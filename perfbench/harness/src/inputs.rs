//! Benchmark inputs: seed-sized suite kernels, the linked corpus, and the
//! functional executor's reference outcome for each program.

use crate::spans::Spans;
use carf_isa::{link, parse_object, Checkpoint, DecodedProgram, ExecError, Machine, Program};
use carf_workloads::{all_workloads, SizeClass, Suite};
use std::path::{Path, PathBuf};

/// Each suite kernel's size parameter is drawn uniformly from
/// `calibrated × (1 ± SIZE_BAND)`: wide enough that seeds exercise
/// different inputs, narrow enough that per-seed KIPS and IPC stay
/// comparable.
pub const SIZE_BAND: f64 = 0.10;

/// How large a run's inputs are.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// The benchmark proper: kernels around their calibrated size.
    Normal,
    /// Unit-test sized inputs for the self-tests.
    Smallest,
}

impl Scale {
    /// Parses `normal` or `smallest`.
    pub fn parse(v: &str) -> Result<Self, String> {
        match v {
            "normal" => Ok(Self::Normal),
            "smallest" => Ok(Self::Smallest),
            other => Err(format!("--scale expects normal or smallest, got `{other}`")),
        }
    }
}

/// SplitMix64: the benchmark's only source of randomness, so one seed
/// always yields the same inputs.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A generator for `seed`.
    pub fn new(seed: u64) -> Self {
        Self(seed)
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// One program the simulator runs, with what the checks compare against.
#[derive(Debug, Clone)]
pub struct Kernel {
    /// Suite kernel or corpus program name.
    pub name: String,
    /// `Some` for suite kernels, `None` for corpus programs.
    pub suite: Option<Suite>,
    /// The size parameter the seed chose (1 for corpus programs).
    pub size: u32,
    /// The linked program.
    pub program: Program,
    /// Its decoded form, for the functional executor.
    pub decoded: DecodedProgram,
}

/// Draws every suite kernel's size from `rng` (registry order: INT then
/// FP) and builds and decodes the programs.
pub fn suite_kernels(rng: &mut Rng, class: SizeClass, spans: &mut Spans) -> Vec<Kernel> {
    all_workloads()
        .into_iter()
        .map(|w| {
            let calibrated = f64::from(w.size(class));
            let factor = 1.0 + SIZE_BAND * (2.0 * rng.unit() - 1.0);
            let size = ((calibrated * factor).round() as u32).max(1);
            let program = spans.span("workloads.build", |_| w.build(size));
            let decoded = spans.span("isa.decode", |_| DecodedProgram::decode(&program));
            Kernel {
                name: w.name.to_string(),
                suite: Some(w.suite),
                size,
                program,
                decoded,
            }
        })
        .collect()
}

fn sorted_entries(dir: &Path) -> Result<Vec<PathBuf>, String> {
    let rd = std::fs::read_dir(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let mut out = Vec::new();
    for e in rd {
        out.push(e.map_err(|e| format!("{}: {e}", dir.display()))?.path());
    }
    out.sort();
    Ok(out)
}

fn is_asm(p: &Path) -> bool {
    p.is_file() && p.extension().is_some_and(|e| e == "s")
}

/// One program's translation units: `(file name, source text)`.
pub type Units = Vec<(String, String)>;

/// The translation units of every corpus program, by the corpus layout
/// convention: a `.s` file is a program, a directory of `.s` files is one
/// multi-unit program. Sorted by program name.
pub fn corpus_sources(dir: &Path) -> Result<Vec<(String, Units)>, String> {
    let mut programs = Vec::new();
    for entry in sorted_entries(dir)? {
        let name = entry
            .file_stem()
            .map(|s| s.to_string_lossy().into_owned())
            .unwrap_or_default();
        let files: Vec<PathBuf> = if entry.is_dir() {
            sorted_entries(&entry)?
                .into_iter()
                .filter(|p| is_asm(p))
                .collect()
        } else if is_asm(&entry) {
            vec![entry.clone()]
        } else {
            continue;
        };
        if files.is_empty() {
            continue;
        }
        let mut units = Vec::with_capacity(files.len());
        for f in files {
            let text = std::fs::read_to_string(&f).map_err(|e| format!("{}: {e}", f.display()))?;
            units.push((f.display().to_string(), text));
        }
        programs.push((name, units));
    }
    programs.sort_by(|a, b| a.0.cmp(&b.0));
    if programs.is_empty() {
        return Err(format!("no corpus programs under {}", dir.display()));
    }
    Ok(programs)
}

/// Assembles (`parse_object`), links and decodes one corpus program.
pub fn assemble(name: &str, units: &Units, spans: &mut Spans) -> Result<Kernel, String> {
    let program = spans.span("isa.link", |_| {
        let mut objs = Vec::with_capacity(units.len());
        for (file, text) in units {
            objs.push(parse_object(text, file).map_err(|e| e.to_string())?);
        }
        link(&objs).map_err(|e| format!("{name}: {e}"))
    })?;
    let decoded = spans.span("isa.decode", |_| DecodedProgram::decode(&program));
    Ok(Kernel {
        name: name.to_string(),
        suite: None,
        size: 1,
        program,
        decoded,
    })
}

/// Runs the functional executor for up to `max_insts` instructions and
/// returns its architectural checkpoint: the reference every cycle-level
/// run of the same program must retire to.
pub fn functional_checkpoint(kernel: &Kernel, max_insts: u64) -> Result<Checkpoint, String> {
    let mut m = Machine::load(&kernel.program);
    match m.run_decoded(&kernel.decoded, max_insts) {
        Ok(_) | Err(ExecError::InstLimit(_)) => Ok(m.checkpoint(&kernel.program)),
        Err(e) => Err(format!("{}: functional run failed: {e}", kernel.name)),
    }
}
