//! Relocatable translation units and the link pass.
//!
//! [`crate::parse_object`] turns one `.s` source file into an
//! [`ObjectUnit`]: instructions whose symbol-referencing immediates are
//! still zero, a table of the symbols the unit defines (code labels and
//! data labels), the list of symbols it exports (`.globl`), its data
//! segments (relocatable by default, absolute after a `.data <base>`
//! directive), and one [`Reloc`] per unresolved immediate. [`link`] then
//! lays several units out in one address space and patches every
//! relocation, producing an executable [`Program`]:
//!
//! * **code**: units are concatenated in input order starting at
//!   [`DEFAULT_CODE_BASE`](crate::Program::code_base);
//! * **data**: each unit's relocatable segments keep their unit-relative
//!   offsets and the unit regions are placed back to back from
//!   [`DEFAULT_DATA_BASE`](crate::asm::DEFAULT_DATA_BASE), each region
//!   aligned to [`UNIT_DATA_ALIGN`] so units land on separate "pages"
//!   (realistic 64-bit addresses, like the builder's allocator); absolute
//!   segments stay where the source pinned them;
//! * **symbols**: references resolve unit-locally first, then through the
//!   exported-global table. Undefined and doubly-exported symbols are
//!   link errors carrying `file:line` provenance; overlapping data
//!   placements are diagnosed instead of silently clobbering memory.
//!
//! The entry point is the exported `_start` symbol when one exists; a
//! single-unit program falls back to its first instruction (matching
//! [`crate::parse_asm`]); multi-unit programs without `_start` must name
//! an entry explicitly via [`link_with_entry`].
//!
//! # Example
//!
//! ```
//! use carf_isa::{link, parse_object, Machine, x};
//!
//! let lib = parse_object("
//!     .globl double
//! double:
//!     add x10, x10, x10
//!     ret x31
//! ", "lib.s")?;
//! let main = parse_object("
//!     .globl _start
//! _start:
//!     li  x10, 21
//!     jal x31, double
//!     halt
//! ", "main.s")?;
//! let program = link(&[main, lib])?;
//! let mut m = Machine::load(&program);
//! m.run(&program, 1000)?;
//! assert_eq!(m.int_reg(x(10)), 42);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

use crate::asm::DEFAULT_DATA_BASE;
use crate::inst::Inst;
use crate::program::{DataSegment, Program, DEFAULT_CODE_BASE, INST_BYTES};
use std::collections::HashMap;

/// Alignment of each unit's relocatable data region in the linked image.
pub const UNIT_DATA_ALIGN: u64 = 4096;

/// The conventional entry symbol ([`link`] uses it when exported).
pub const ENTRY_SYMBOL: &str = "_start";

/// A diagnostic anchored to a source position (`file:line: message`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SourceDiag {
    /// Source file the diagnostic points into.
    pub file: String,
    /// 1-based line, or 0 when the position is not line-specific.
    pub line: usize,
    /// What went wrong.
    pub message: String,
}

impl std::fmt::Display for SourceDiag {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        if self.line == 0 {
            write!(f, "{}: {}", self.file, self.message)
        } else {
            write!(f, "{}:{}: {}", self.file, self.line, self.message)
        }
    }
}

impl std::error::Error for SourceDiag {}

/// How a relocated immediate is consumed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RelocKind {
    /// A control-flow target: the symbol must be a code label; the
    /// resolved absolute byte address is written into `imm`.
    Branch,
    /// An absolute address materialization (`li rd, symbol`): the symbol
    /// may be a data label or a code label (function pointers).
    Abs,
}

/// One unresolved symbol reference in a unit's instruction stream.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Reloc {
    /// Index of the instruction whose `imm` receives the address.
    pub inst: usize,
    /// The referenced symbol.
    pub symbol: String,
    /// How the address is used.
    pub kind: RelocKind,
    /// 1-based source line of the reference (diagnostics).
    pub line: usize,
}

/// Where a data symbol or segment lives before linking.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DataPlace {
    /// Pinned byte address (`.data <base>` was in effect).
    Absolute(u64),
    /// Offset into the unit's relocatable data region.
    Relative(u64),
}

/// One chunk of initialized data in a unit.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ObjData {
    /// Placement (resolved to an address at link time).
    pub place: DataPlace,
    /// Contents.
    pub bytes: Vec<u8>,
}

/// One assembled-but-unlinked translation unit (see the module docs).
#[derive(Debug, Clone, PartialEq)]
pub struct ObjectUnit {
    /// Source file name (diagnostics only; not part of program identity).
    pub file: String,
    /// The instruction stream; symbol-referencing `imm` fields are 0
    /// until [`link`] patches them.
    pub insts: Vec<Inst>,
    /// Code labels defined in this unit: name → instruction index.
    pub code_defs: HashMap<String, usize>,
    /// Data labels defined in this unit: name → placement.
    pub data_defs: HashMap<String, DataPlace>,
    /// Exported symbols, with the line of their `.globl` directive.
    pub globals: Vec<(String, usize)>,
    /// Initialized data segments, in source order.
    pub data: Vec<ObjData>,
    /// Unresolved symbol references.
    pub relocs: Vec<Reloc>,
    /// Extent (bytes) of the relocatable data region.
    pub rel_size: u64,
}

/// A linking failure; every variant names the symbols and files involved.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LinkError {
    /// A referenced (or exported) symbol has no definition anywhere.
    UndefinedSymbol {
        /// The unresolved name.
        symbol: String,
        /// File containing the reference.
        file: String,
        /// Line of the reference (0 when not line-specific).
        line: usize,
    },
    /// Two units export the same symbol.
    DuplicateSymbol {
        /// The doubly-exported name.
        symbol: String,
        /// File of the first export.
        first: String,
        /// File of the second export.
        second: String,
    },
    /// A branch or jump targets a data symbol.
    BranchToData {
        /// The data symbol used as a control-flow target.
        symbol: String,
        /// File containing the branch.
        file: String,
        /// Line of the branch.
        line: usize,
    },
    /// The requested entry symbol is not defined in any unit.
    UndefinedEntry {
        /// The missing entry symbol.
        symbol: String,
    },
    /// The requested entry symbol is defined (unexported) in several units.
    AmbiguousEntry {
        /// The ambiguous entry symbol.
        symbol: String,
    },
    /// The entry symbol names data, not code.
    EntryNotCode {
        /// The non-code entry symbol.
        symbol: String,
    },
    /// Several units, no exported `_start`, and no explicit entry.
    NoEntry,
    /// No unit contributed any instructions.
    EmptyProgram,
    /// Two data segments claim the same byte address.
    DataOverlap {
        /// File owning the lower segment.
        first: String,
        /// File owning the overlapping segment.
        second: String,
        /// First overlapping byte address.
        addr: u64,
    },
}

impl std::fmt::Display for LinkError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            LinkError::UndefinedSymbol { symbol, file, line } => {
                if *line == 0 {
                    write!(f, "{file}: undefined symbol `{symbol}`")
                } else {
                    write!(f, "{file}:{line}: undefined symbol `{symbol}`")
                }
            }
            LinkError::DuplicateSymbol { symbol, first, second } => write!(
                f,
                "duplicate symbol `{symbol}` exported by both {first} and {second}"
            ),
            LinkError::BranchToData { symbol, file, line } => write!(
                f,
                "{file}:{line}: branch target `{symbol}` is a data symbol"
            ),
            LinkError::UndefinedEntry { symbol } => {
                write!(f, "entry symbol `{symbol}` is not defined by any unit")
            }
            LinkError::AmbiguousEntry { symbol } => write!(
                f,
                "entry symbol `{symbol}` is defined in several units; export one with .globl"
            ),
            LinkError::EntryNotCode { symbol } => {
                write!(f, "entry symbol `{symbol}` names data, not code")
            }
            LinkError::NoEntry => write!(
                f,
                "multi-unit program has no exported `{ENTRY_SYMBOL}`; \
                 add `.globl {ENTRY_SYMBOL}` or name an entry symbol"
            ),
            LinkError::EmptyProgram => write!(f, "linked program has no instructions"),
            LinkError::DataOverlap { first, second, addr } => write!(
                f,
                "data segments from {first} and {second} overlap at {addr:#x}"
            ),
        }
    }
}

impl std::error::Error for LinkError {}

/// A resolved symbol value during linking.
#[derive(Debug, Clone, Copy)]
enum SymVal {
    Code(u64),
    Data(u64),
}

fn round_up(v: u64, align: u64) -> u64 {
    v.div_ceil(align) * align
}

/// Links translation units into an executable [`Program`], entering at
/// the exported `_start` (or, for a single unit, its first instruction).
///
/// # Errors
///
/// See [`LinkError`]; diagnostics carry the involved files and lines.
pub fn link(units: &[ObjectUnit]) -> Result<Program, LinkError> {
    link_with_entry(units, None)
}

/// [`link`] with an explicit entry symbol. The symbol may be exported
/// from any unit, or defined (unexported) in exactly one.
///
/// # Errors
///
/// See [`LinkError`].
pub fn link_with_entry(units: &[ObjectUnit], entry: Option<&str>) -> Result<Program, LinkError> {
    // Code layout: concatenation in input order.
    let mut code_off = Vec::with_capacity(units.len());
    let mut total_insts = 0usize;
    for u in units {
        code_off.push(total_insts);
        total_insts += u.insts.len();
    }
    if total_insts == 0 {
        return Err(LinkError::EmptyProgram);
    }
    let code_addr =
        |ui: usize, idx: usize| DEFAULT_CODE_BASE + (code_off[ui] + idx) as u64 * INST_BYTES;

    // Data layout: one aligned region per unit for relocatable segments.
    let mut data_base = Vec::with_capacity(units.len());
    let mut cursor = DEFAULT_DATA_BASE;
    for u in units {
        data_base.push(cursor);
        cursor += round_up(u.rel_size, UNIT_DATA_ALIGN);
    }
    let data_addr = |ui: usize, place: DataPlace| match place {
        DataPlace::Absolute(a) => a,
        DataPlace::Relative(off) => data_base[ui] + off,
    };

    // Exported-global table: symbol → (defining unit, resolved value).
    let mut exports: HashMap<&str, (usize, SymVal)> = HashMap::new();
    for (ui, u) in units.iter().enumerate() {
        for (name, line) in &u.globals {
            let val = if let Some(idx) = u.code_defs.get(name) {
                SymVal::Code(code_addr(ui, *idx))
            } else if let Some(place) = u.data_defs.get(name) {
                SymVal::Data(data_addr(ui, *place))
            } else {
                return Err(LinkError::UndefinedSymbol {
                    symbol: name.clone(),
                    file: u.file.clone(),
                    line: *line,
                });
            };
            match exports.get(name.as_str()) {
                Some((prev_ui, _)) if *prev_ui != ui => {
                    return Err(LinkError::DuplicateSymbol {
                        symbol: name.clone(),
                        first: units[*prev_ui].file.clone(),
                        second: u.file.clone(),
                    });
                }
                _ => {
                    exports.insert(name.as_str(), (ui, val));
                }
            }
        }
    }

    // Patch every relocation: unit-local definitions first, then globals.
    let mut insts: Vec<Inst> = Vec::with_capacity(total_insts);
    for u in units {
        insts.extend_from_slice(&u.insts);
    }
    for (ui, u) in units.iter().enumerate() {
        for r in &u.relocs {
            let local_code = u.code_defs.get(&r.symbol).map(|idx| SymVal::Code(code_addr(ui, *idx)));
            let local_data = u.data_defs.get(&r.symbol).map(|p| SymVal::Data(data_addr(ui, *p)));
            let global = exports.get(r.symbol.as_str()).map(|(_, v)| *v);
            let resolved = match r.kind {
                RelocKind::Branch => local_code.or(local_data).or(global),
                RelocKind::Abs => local_data.or(local_code).or(global),
            };
            let addr = match resolved {
                Some(SymVal::Code(a)) => a,
                Some(SymVal::Data(a)) if r.kind == RelocKind::Abs => a,
                Some(SymVal::Data(_)) => {
                    return Err(LinkError::BranchToData {
                        symbol: r.symbol.clone(),
                        file: u.file.clone(),
                        line: r.line,
                    });
                }
                None => {
                    return Err(LinkError::UndefinedSymbol {
                        symbol: r.symbol.clone(),
                        file: u.file.clone(),
                        line: r.line,
                    });
                }
            };
            insts[code_off[ui] + r.inst].imm = addr as i64;
        }
    }

    // Entry point.
    let entry_addr = match entry {
        Some(sym) => match exports.get(sym) {
            Some((_, SymVal::Code(a))) => *a,
            Some((_, SymVal::Data(_))) => {
                return Err(LinkError::EntryNotCode { symbol: sym.to_string() })
            }
            None => {
                let mut hits = units.iter().enumerate().filter_map(|(ui, u)| {
                    u.code_defs.get(sym).map(|idx| code_addr(ui, *idx))
                });
                match (hits.next(), hits.next()) {
                    (Some(a), None) => a,
                    (Some(_), Some(_)) => {
                        return Err(LinkError::AmbiguousEntry { symbol: sym.to_string() })
                    }
                    (None, _) => {
                        if units.iter().any(|u| u.data_defs.contains_key(sym)) {
                            return Err(LinkError::EntryNotCode { symbol: sym.to_string() });
                        }
                        return Err(LinkError::UndefinedEntry { symbol: sym.to_string() });
                    }
                }
            }
        },
        None => match exports.get(ENTRY_SYMBOL) {
            Some((_, SymVal::Code(a))) => *a,
            Some((_, SymVal::Data(_))) => {
                return Err(LinkError::EntryNotCode { symbol: ENTRY_SYMBOL.to_string() })
            }
            None if units.len() == 1 => DEFAULT_CODE_BASE,
            None => return Err(LinkError::NoEntry),
        },
    };

    // Final data image, in source order; then prove no two segments clash.
    let mut segments: Vec<DataSegment> = Vec::new();
    let mut owners: Vec<(u64, u64, usize)> = Vec::new(); // (addr, len, unit)
    for (ui, u) in units.iter().enumerate() {
        for d in &u.data {
            let addr = data_addr(ui, d.place);
            if !d.bytes.is_empty() {
                owners.push((addr, d.bytes.len() as u64, ui));
            }
            segments.push(DataSegment { addr, bytes: d.bytes.clone() });
        }
    }
    owners.sort_unstable();
    for pair in owners.windows(2) {
        let (a_addr, a_len, a_ui) = pair[0];
        let (b_addr, _, b_ui) = pair[1];
        // Sorted, so `b_addr >= a_addr`; a sum could pass 2^64.
        if b_addr - a_addr < a_len {
            return Err(LinkError::DataOverlap {
                first: units[a_ui].file.clone(),
                second: units[b_ui].file.clone(),
                addr: b_addr,
            });
        }
    }

    Ok(Program { insts, code_base: DEFAULT_CODE_BASE, entry: entry_addr, data: segments })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse::parse_object;

    fn unit(src: &str, file: &str) -> ObjectUnit {
        parse_object(src, file).expect("parse")
    }

    #[test]
    fn single_unit_entry_defaults_to_first_instruction() {
        let p = link(&[unit("li x1, 1\nhalt\n", "a.s")]).unwrap();
        assert_eq!(p.entry, p.code_base);
        assert_eq!(p.len(), 2);
    }

    #[test]
    fn multi_unit_without_start_is_an_error() {
        let a = unit("halt\n", "a.s");
        let b = unit("halt\n", "b.s");
        assert_eq!(link(&[a, b]), Err(LinkError::NoEntry));
    }

    #[test]
    fn exported_start_wins_over_position() {
        let lib = unit("helper:\n nop\n halt\n", "lib.s");
        let main = unit(".globl _start\n_start:\n halt\n", "main.s");
        let p = link(&[lib, main]).unwrap();
        // _start is instruction 2 (after lib's two instructions).
        assert_eq!(p.entry, p.addr_of(2));
    }

    #[test]
    fn duplicate_export_names_both_files() {
        let a = unit(".globl f\nf:\n halt\n", "a.s");
        let b = unit(".globl f\nf:\n halt\n", "b.s");
        match link(&[a, b]) {
            Err(LinkError::DuplicateSymbol { symbol, first, second }) => {
                assert_eq!(symbol, "f");
                assert_eq!(first, "a.s");
                assert_eq!(second, "b.s");
            }
            other => panic!("expected duplicate-symbol error, got {other:?}"),
        }
    }

    #[test]
    fn undefined_reference_carries_file_and_line() {
        let a = unit("nop\nj nowhere\nhalt\n", "a.s");
        match link(&[a]) {
            Err(LinkError::UndefinedSymbol { symbol, file, line }) => {
                assert_eq!(symbol, "nowhere");
                assert_eq!(file, "a.s");
                assert_eq!(line, 2);
            }
            other => panic!("expected undefined-symbol error, got {other:?}"),
        }
    }

    #[test]
    fn exporting_an_undefined_symbol_is_an_error() {
        let a = unit(".globl ghost\nhalt\n", "a.s");
        match link(&[a]) {
            Err(LinkError::UndefinedSymbol { symbol, file, line }) => {
                assert_eq!(symbol, "ghost");
                assert_eq!(file, "a.s");
                assert_eq!(line, 1);
            }
            other => panic!("expected undefined-symbol error, got {other:?}"),
        }
    }

    #[test]
    fn relocatable_data_regions_do_not_collide() {
        let a = unit(".globl _start\nbuf_a: .zero 16\n_start:\n li x1, buf_a\n halt\n", "a.s");
        let b = unit("buf_b: .zero 16\n", "b.s");
        let p = link(&[a, b]).unwrap();
        assert_eq!(p.data[0].addr, DEFAULT_DATA_BASE);
        assert_eq!(p.data[1].addr, DEFAULT_DATA_BASE + UNIT_DATA_ALIGN);
    }

    #[test]
    fn absolute_overlap_is_diagnosed() {
        let a = unit(".data 0x700000\nx: .words 1 2\n.globl _start\n_start:\n halt\n", "a.s");
        let b = unit(".data 0x700008\ny: .words 3\n", "b.s");
        match link(&[a, b]) {
            Err(LinkError::DataOverlap { first, second, addr }) => {
                assert_eq!(first, "a.s");
                assert_eq!(second, "b.s");
                assert_eq!(addr, 0x700008);
            }
            other => panic!("expected data-overlap error, got {other:?}"),
        }
        // Two blocks ending at the top of the address space.
        let a = unit(".data 0xfffffffffffffff8\nx: .words 1\n.globl _start\n_start:\n halt", "a.s");
        let b = unit(".data 0xfffffffffffffff8\ny: .words 2\n", "b.s");
        assert!(matches!(
            link(&[a, b]),
            Err(LinkError::DataOverlap { addr: 0xffff_ffff_ffff_fff8, .. })
        ));
    }

    #[test]
    fn branch_to_data_is_diagnosed() {
        let a = unit("tbl: .words 1\n j tbl\n halt\n", "a.s");
        match link(&[a]) {
            Err(LinkError::BranchToData { symbol, file, line }) => {
                assert_eq!(symbol, "tbl");
                assert_eq!(file, "a.s");
                assert_eq!(line, 2);
            }
            other => panic!("expected branch-to-data error, got {other:?}"),
        }
    }

    #[test]
    fn explicit_entry_finds_unexported_unique_definition() {
        let a = unit("main:\n halt\n", "a.s");
        let b = unit("other:\n halt\n", "b.s");
        let p = link_with_entry(&[a, b], Some("other")).unwrap();
        assert_eq!(p.entry, p.addr_of(1));
        let a2 = unit("main:\n halt\n", "a.s");
        let b2 = unit("main:\n halt\n", "b.s");
        assert_eq!(
            link_with_entry(&[a2, b2], Some("main")),
            Err(LinkError::AmbiguousEntry { symbol: "main".into() })
        );
    }
}
