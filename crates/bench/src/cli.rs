//! Shared command-line parsing for the experiment binaries.
//!
//! Every binary takes the common budget flags (`--quick`, `--full`,
//! `--jobs N`); a few add extra options (`--suite`, `--machine`,
//! `--window`, `--timeline`) or positional operands. [`CliSpec`]
//! centralizes the scan so each binary declares only what is specific to
//! it and inherits, for free:
//!
//! * both option spellings (`--opt value` and `--opt=value`);
//! * strict rejection of unrecognized flags and stray operands;
//! * a generated usage message (also served by `-h`/`--help`) listing the
//!   budget flags ahead of the binary's own options;
//! * the fold of the budget flags (`--quick`, `--full`, `--jobs N`,
//!   `--sample[=I/P/W]`) into a [`Budget`], in the same scan.
//!
//! Binaries with no extra options call [`budget_for`]; the richer ones
//! (`carf-as`, `carf-trace`) build a [`CliSpec`] and interpret the
//! returned occurrences. A binary whose figures sampled windows cannot
//! supply parses with [`CliSpec::parse_unsampled`], which refuses
//! `--sample`.

use crate::sample::SampleSpec;
use crate::Budget;
use carf_core::{CarfParams, PortReducedParams};
use carf_sim::SimConfig;
use carf_workloads::Suite;

/// Which machine configurations an experiment should run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum MachineSet {
    /// The conventional monolithic baseline only.
    Base,
    /// The content-aware machine only.
    Carf,
    /// Both, baseline first.
    #[default]
    Both,
    /// The compressed (dictionary + overflow) machine only.
    Compressed,
    /// The read-port-reduced machine only.
    PortReduced,
    /// The whole backend zoo: baseline, carf, compressed, port-reduced.
    All,
}

impl MachineSet {
    /// Parses a `--machine` value: `base` (or `baseline`), `carf`, `both`,
    /// `compressed`, `ports` (or `port-reduced`), `all`.
    pub fn parse(v: &str) -> Result<Self, String> {
        match v {
            "base" | "baseline" => Ok(Self::Base),
            "carf" => Ok(Self::Carf),
            "both" => Ok(Self::Both),
            "compressed" => Ok(Self::Compressed),
            "ports" | "port-reduced" => Ok(Self::PortReduced),
            "all" => Ok(Self::All),
            other => Err(format!(
                "`--machine` expects base, carf, both, compressed, ports, or all \
                 (got `{other}`)"
            )),
        }
    }

    /// `true` when the baseline machine is in the set.
    pub fn includes_base(self) -> bool {
        matches!(self, Self::Base | Self::Both | Self::All)
    }

    /// `true` when the content-aware machine is in the set.
    pub fn includes_carf(self) -> bool {
        matches!(self, Self::Carf | Self::Both | Self::All)
    }

    /// The labeled configurations in the set, with the content-aware
    /// machine at the paper-default geometry. New register-file backends
    /// plug in here: add a [`carf_sim::RegFileKind`] arm and extend this
    /// set (the pipeline is generic over the backend already).
    pub fn configs(self) -> Vec<(&'static str, SimConfig)> {
        let mut configs = Vec::new();
        if self.includes_base() {
            configs.push(("base", SimConfig::paper_baseline()));
        }
        if self.includes_carf() {
            configs.push(("carf", SimConfig::paper_carf(CarfParams::paper_default())));
        }
        if matches!(self, Self::Compressed | Self::All) {
            configs.push(("compressed", SimConfig::paper_compressed(CarfParams::paper_default())));
        }
        if matches!(self, Self::PortReduced | Self::All) {
            configs.push(("ports", SimConfig::paper_port_reduced(PortReducedParams::default())));
        }
        configs
    }
}

/// Parses a `--suite` value: `int`, `fp`, or `all` (both, INT first).
pub fn parse_suites(v: &str) -> Result<Vec<Suite>, String> {
    match v {
        "int" => Ok(vec![Suite::Int]),
        "fp" => Ok(vec![Suite::Fp]),
        "all" => Ok(vec![Suite::Int, Suite::Fp]),
        other => Err(format!("`--suite` expects int, fp, or all (got `{other}`)")),
    }
}

/// One extra (non-budget) option a binary accepts.
pub struct OptSpec {
    /// Option name including the dashes, e.g. `"--suite"`.
    pub name: &'static str,
    /// Value metavar for the usage line (`Some("S")`), or `None` for a
    /// bare flag.
    pub value: Option<&'static str>,
    /// One usage line of help text.
    pub help: &'static str,
}

/// A binary's command-line grammar: the common budget flags plus its own
/// options and (optionally) positional operands.
pub struct CliSpec {
    /// Binary name for the usage line.
    pub bin: &'static str,
    /// Extra options beyond `--quick`/`--full`/`--jobs`.
    pub options: &'static [OptSpec],
    /// Positional operands: `Some((metavar, help))` to accept them,
    /// `None` to reject any.
    pub operands: Option<(&'static str, &'static str)>,
}

/// The scan result: the folded budget, each extra-option occurrence in
/// argument order, and the positional operands.
#[derive(Debug)]
pub struct ParsedCli {
    /// Budget folded from `--quick`/`--full`/`--jobs`.
    pub budget: Budget,
    /// `(name, value)` per extra-option occurrence; flags carry `""`.
    pub options: Vec<(&'static str, String)>,
    /// Positional operands, in order.
    pub operands: Vec<String>,
}

impl ParsedCli {
    /// The value of `name`'s last occurrence (options are
    /// last-one-wins, like the budget flags).
    pub fn option(&self, name: &str) -> Option<&str> {
        self.options.iter().rev().find(|(n, _)| *n == name).map(|(_, v)| v.as_str())
    }
}

/// A scan outcome that is not a parsed command line.
#[derive(Debug, PartialEq, Eq)]
pub enum CliError {
    /// `-h`/`--help` was given.
    Help,
    /// A bad argument, with the message to print.
    Bad(String),
}

impl CliSpec {
    /// A grammar with no extra options and no operands — just the budget
    /// flags.
    pub const fn budget_only(bin: &'static str) -> Self {
        Self { bin, options: &[], operands: None }
    }

    /// The generated usage message (multi-line, trailing newline).
    pub fn usage(&self) -> String {
        let mut heads: Vec<String> = vec![
            "--quick".into(),
            "--full".into(),
            "--jobs N".into(),
            "--sample[=I/P/W]".into(),
        ];
        let mut helps: Vec<&str> = vec![
            "quick budget: ~200k instructions per point (default)",
            "full budget: ~1M instructions per point",
            "worker threads (default: CARF_JOBS or available cores)",
            "interval sampling: interval/period/warmup (default 5000/8/2000)",
        ];
        let mut line =
            format!("usage: {} [--quick | --full] [--jobs N] [--sample[=I/P/W]]", self.bin);
        for opt in self.options {
            match opt.value {
                Some(metavar) => {
                    line.push_str(&format!(" [{} {metavar}]", opt.name));
                    heads.push(format!("{} {metavar}", opt.name));
                }
                None => {
                    line.push_str(&format!(" [{}]", opt.name));
                    heads.push(opt.name.to_string());
                }
            }
            helps.push(opt.help);
        }
        if let Some((metavar, help)) = self.operands {
            line.push_str(&format!(" [{metavar}...]"));
            heads.push(format!("{metavar}..."));
            helps.push(help);
        }
        let width = heads.iter().map(String::len).max().unwrap_or(0);
        let mut out = line;
        out.push('\n');
        for (head, help) in heads.iter().zip(helps) {
            out.push_str(&format!("  {head:width$}  {help}\n"));
        }
        out
    }

    /// Prints `msg` and the usage message, then exits with status 2.
    pub fn fail(&self, msg: &str) -> ! {
        eprintln!("error: {msg}");
        eprint!("{}", self.usage());
        std::process::exit(2);
    }

    /// Scans the process arguments; `--help` prints usage and exits 0,
    /// bad arguments print usage and exit 2.
    pub fn parse(&self) -> ParsedCli {
        match self.parse_from(std::env::args().skip(1)) {
            Ok(parsed) => parsed,
            Err(CliError::Help) => {
                print!("{}", self.usage());
                std::process::exit(0);
            }
            Err(CliError::Bad(msg)) => self.fail(&msg),
        }
    }

    /// [`CliSpec::parse`] for a binary whose figures sampled windows
    /// cannot supply: `--sample` fails with exit 2, giving `why`, before
    /// anything runs.
    pub fn parse_unsampled(&self, why: &str) -> ParsedCli {
        let parsed = self.parse();
        if parsed.budget.sample.is_some() {
            self.fail(&format!("`--sample` is not supported: {why}"));
        }
        parsed
    }

    /// [`CliSpec::parse`] on an explicit argument list, without exiting.
    /// `Err` describes the first bad argument.
    pub fn parse_from<I: IntoIterator<Item = String>>(&self, args: I) -> Result<ParsedCli, CliError> {
        let bad = |msg: String| Err(CliError::Bad(msg));
        let positive = |v: &str| v.parse::<usize>().ok().filter(|n| *n >= 1);
        let (mut full, mut jobs, mut sample) = (false, None, None);
        let mut options: Vec<(&'static str, String)> = Vec::new();
        let mut operands: Vec<String> = Vec::new();
        let mut args = args.into_iter();
        while let Some(arg) = args.next() {
            match arg.as_str() {
                "-h" | "--help" => return Err(CliError::Help),
                "--quick" => full = false,
                "--full" => full = true,
                "--sample" => sample = Some(SampleSpec::default()),
                "--jobs" => match args.next().as_deref().and_then(positive) {
                    Some(n) => jobs = Some(n),
                    None => return bad("`--jobs` expects a positive integer".into()),
                },
                s if s.starts_with("--jobs=") => match positive(&s["--jobs=".len()..]) {
                    Some(n) => jobs = Some(n),
                    None => return bad(format!("`{s}` expects a positive integer")),
                },
                s if s.starts_with("--sample=") => {
                    let spec = SampleSpec::parse(&s["--sample=".len()..]).map_err(CliError::Bad)?;
                    sample = Some(spec);
                }
                s if s.starts_with("--") => {
                    let (name, inline) = match s.find('=') {
                        Some(eq) => (&s[..eq], Some(s[eq + 1..].to_string())),
                        None => (s, None),
                    };
                    let Some(spec) = self.options.iter().find(|o| o.name == name) else {
                        return bad(format!("unrecognized argument `{name}`"));
                    };
                    let value = if spec.value.is_some() {
                        match inline.or_else(|| args.next()) {
                            Some(v) if !v.trim().is_empty() => v,
                            _ => return bad(format!("`{name}` expects a value")),
                        }
                    } else {
                        if inline.is_some() {
                            return bad(format!("`{name}` takes no value"));
                        }
                        String::new()
                    };
                    options.push((spec.name, value));
                }
                s if s.starts_with('-') && s.len() > 1 => {
                    return bad(format!("unrecognized argument `{s}`"));
                }
                _ => {
                    if self.operands.is_none() {
                        return bad(format!("unexpected operand `{arg}`"));
                    }
                    operands.push(arg);
                }
            }
        }
        let mut budget = if full { Budget::full() } else { Budget::quick() };
        if let Some(n) = jobs {
            budget.jobs = n;
        }
        budget.sample = sample;
        Ok(ParsedCli { budget, options, operands })
    }
}

/// The [`Budget`] for a binary with no extra options — strict-arg parsing
/// with a usage message naming the binary. `bin` is usually
/// `env!("CARGO_BIN_NAME")`.
pub fn budget_for(bin: &'static str) -> Budget {
    CliSpec::budget_only(bin).parse().budget
}

#[cfg(test)]
mod tests {
    use super::*;

    fn strings(args: &[&str]) -> Vec<String> {
        args.iter().map(|s| s.to_string()).collect()
    }

    const SPEC: CliSpec = CliSpec {
        bin: "demo",
        options: &[
            OptSpec { name: "--suite", value: Some("S"), help: "which suite" },
            OptSpec { name: "--verbose", value: None, help: "more output" },
        ],
        operands: Some(("workload", "kernels to run")),
    };

    #[test]
    fn budget_flags_fold_and_extras_split() {
        let p = SPEC.parse_from(strings(&["--full", "--suite", "fp", "--jobs=3", "w1"])).unwrap();
        assert_eq!(p.budget.label(), "full");
        assert_eq!(p.budget.jobs, 3);
        assert_eq!(p.option("--suite"), Some("fp"));
        assert_eq!(p.operands, vec!["w1"]);
    }

    #[test]
    fn both_option_spellings_and_last_one_wins() {
        let p = SPEC.parse_from(strings(&["--suite=int", "--suite", "all"])).unwrap();
        assert_eq!(p.option("--suite"), Some("all"));
        assert_eq!(p.options.len(), 2);
    }

    #[test]
    fn flags_take_no_value() {
        let p = SPEC.parse_from(strings(&["--verbose"])).unwrap();
        assert_eq!(p.option("--verbose"), Some(""));
        assert!(matches!(
            SPEC.parse_from(strings(&["--verbose=yes"])),
            Err(CliError::Bad(_))
        ));
    }

    #[test]
    fn strictness() {
        assert!(matches!(SPEC.parse_from(strings(&["--bogus"])), Err(CliError::Bad(_))));
        assert!(matches!(SPEC.parse_from(strings(&["--suite"])), Err(CliError::Bad(_))));
        assert!(matches!(SPEC.parse_from(strings(&["--suite", " "])), Err(CliError::Bad(_))));
        assert!(matches!(SPEC.parse_from(strings(&["--jobs", "0"])), Err(CliError::Bad(_))));
        assert!(matches!(SPEC.parse_from(strings(&["--help"])), Err(CliError::Help)));
        let no_operands = CliSpec::budget_only("demo2");
        assert!(matches!(no_operands.parse_from(strings(&["stray"])), Err(CliError::Bad(_))));
    }

    #[test]
    fn usage_names_the_binary_and_every_option() {
        let usage = SPEC.usage();
        assert!(usage
            .starts_with("usage: demo [--quick | --full] [--jobs N] [--sample[=I/P/W]] [--suite S]"));
        for needle in
            ["--quick", "--full", "--jobs N", "--sample[=I/P/W]", "--suite S", "--verbose", "workload..."]
        {
            assert!(usage.contains(needle), "usage missing {needle}:\n{usage}");
        }
    }

    #[test]
    fn machine_sets() {
        assert_eq!(MachineSet::parse("baseline"), Ok(MachineSet::Base));
        assert_eq!(MachineSet::parse("carf"), Ok(MachineSet::Carf));
        assert!(MachineSet::parse("neither").is_err());
        let both = MachineSet::Both.configs();
        assert_eq!(both.len(), 2);
        assert_eq!(both[0].0, "base");
        assert_eq!(both[1].0, "carf");
        assert_eq!(MachineSet::Carf.configs().len(), 1);
        assert!(MachineSet::Base.includes_base() && !MachineSet::Base.includes_carf());
        assert_eq!(MachineSet::parse("ports"), Ok(MachineSet::PortReduced));
        assert_eq!(MachineSet::parse("port-reduced"), Ok(MachineSet::PortReduced));
        assert_eq!(MachineSet::parse("compressed"), Ok(MachineSet::Compressed));
        let all = MachineSet::All.configs();
        assert_eq!(
            all.iter().map(|(n, _)| *n).collect::<Vec<_>>(),
            ["base", "carf", "compressed", "ports"]
        );
        assert_eq!(MachineSet::Compressed.configs()[0].0, "compressed");
        assert!(!MachineSet::Compressed.includes_base());
        assert!(!MachineSet::PortReduced.includes_carf());
    }

    #[test]
    fn suite_sets() {
        assert_eq!(parse_suites("int").unwrap(), vec![Suite::Int]);
        assert_eq!(parse_suites("all").unwrap(), vec![Suite::Int, Suite::Fp]);
        assert!(parse_suites("dsp").is_err());
    }
}
