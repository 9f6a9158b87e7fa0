//! A text assembler: parse assembly source into object units / programs.
//!
//! Two entry points share one grammar:
//!
//! * [`parse_asm`] — one source string straight to an executable
//!   [`Program`] (quick experiments, single-file `.s` programs);
//! * [`parse_object`] — one source file to a relocatable
//!   [`ObjectUnit`], several of which [`crate::link`] merges into a
//!   program (multi-file corpora; see [`crate::object`] for layout and
//!   symbol-resolution rules).
//!
//! Grammar, by example:
//!
//! ```text
//! ; comments run to end of line (also // and #)
//! .globl _start             ; export a symbol to other units
//! .data 0x7f3a80000000      ; pin the data cursor to an absolute base
//! table:  .words 1 2 0xff   ; 64-bit words; label = base address
//! buf:                      ; a label on its own line binds to the
//!         .zero 64          ;   next data directive or instruction
//! vals:   .doubles 1.5 -2.5 ; f64 constants
//!
//! .text
//! _start: li   x10, table   ; data symbols usable as immediates
//!         li   x2, 3
//! loop:   ld   x1, 0(x10)
//!         add  x3, x3, x1
//!         addi x10, x10, 8
//!         addi x2, x2, -1
//!         bne  x2, x0, loop
//!         jal  x31, helper  ; `helper` may live in another unit
//!         halt
//! ```
//!
//! Registers are `x0`–`x31` and `f0`–`f31`. Branch/jump targets are code
//! labels (or absolute byte addresses, so disassembly output re-parses);
//! loads/stores use `offset(base)` addressing. Immediates are decimal or
//! `0x` hex, optionally negative, from -2^63 to 2^64-1 (a negative value is
//! stored as its two's complement); `.bytes` values lie in -128..=255, and
//! the `.zero` blocks of one file reserve at most 16 MiB together. Labels
//! are identifiers (`[A-Za-z_][A-Za-z0-9_]*`). Data placed before any
//! `.data <base>` directive is *relocatable*: the linker assigns each
//! unit its own region (a single-unit program keeps the traditional
//! [`crate::DEFAULT_DATA_BASE`] addresses).

use crate::inst::{Inst, Opcode};
use crate::object::{link, DataPlace, LinkError, ObjData, ObjectUnit, Reloc, RelocKind, SourceDiag};
use crate::program::Program;
use crate::reg::{FpReg, IntReg};

/// A parse failure, with the 1-based source line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseAsmError {
    /// 1-based line number (0 when the failure is not line-specific).
    pub line: usize,
    /// What went wrong.
    pub message: String,
}

impl std::fmt::Display for ParseAsmError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "line {}: {}", self.line, self.message)
    }
}

impl std::error::Error for ParseAsmError {}

fn err(line: usize, message: impl Into<String>) -> ParseAsmError {
    ParseAsmError { line, message: message.into() }
}

/// Parses assembly text into a linked [`Program`].
///
/// The source forms a single translation unit; undefined symbols,
/// duplicate labels, and entry resolution follow [`crate::link`] for a
/// one-unit link (the entry is the first instruction unless the unit
/// exports `_start`).
///
/// # Errors
///
/// Returns a [`ParseAsmError`] naming the offending line for syntax
/// errors, unknown mnemonics/registers, malformed numbers, duplicate or
/// undefined labels.
///
/// # Example
///
/// ```
/// use carf_isa::{parse_asm, Machine, x};
///
/// let program = parse_asm(r"
///     li   x1, 5
///     li   x2, 0
/// loop:
///     add  x2, x2, x1
///     addi x1, x1, -1
///     bne  x1, x0, loop
///     halt
/// ")?;
/// let mut m = Machine::load(&program);
/// m.run(&program, 1000)?;
/// assert_eq!(m.int_reg(x(2)), 5 + 4 + 3 + 2 + 1);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
pub fn parse_asm(source: &str) -> Result<Program, ParseAsmError> {
    let unit = parse_unit(source)?;
    link(&[unit]).map_err(|e| match e {
        LinkError::UndefinedSymbol { symbol, line, .. } => {
            err(line, format!("undefined symbol `{symbol}`"))
        }
        LinkError::BranchToData { symbol, line, .. } => {
            err(line, format!("branch target `{symbol}` is a data symbol"))
        }
        other => err(0, other.to_string()),
    })
}

/// Parses one source file into a relocatable [`ObjectUnit`] for
/// [`crate::link`]. `file` is recorded for diagnostics only.
///
/// # Errors
///
/// Returns a [`SourceDiag`] (`file:line: message`) for syntax errors,
/// unknown mnemonics/registers, malformed numbers, and duplicate labels.
/// Undefined symbols are *not* errors here — they become relocations the
/// linker resolves (or reports).
pub fn parse_object(source: &str, file: &str) -> Result<ObjectUnit, SourceDiag> {
    match parse_unit(source) {
        Ok(mut unit) => {
            unit.file = file.to_string();
            Ok(unit)
        }
        Err(e) => Err(SourceDiag { file: file.to_string(), line: e.line, message: e.message }),
    }
}

fn parse_unit(source: &str) -> Result<ObjectUnit, ParseAsmError> {
    let mut p = UnitParser::new();
    for (idx, raw) in source.lines().enumerate() {
        let lineno = idx + 1;
        let line = strip_comment(raw).trim();
        if line.is_empty() {
            continue;
        }
        let (label, rest) = split_label(line);
        if let Some(label) = label {
            p.define_label(label, lineno)?;
        }
        let rest = rest.trim();
        if rest.is_empty() {
            continue;
        }
        if let Some(directive) = rest.strip_prefix('.') {
            p.directive(directive, lineno)?;
        } else {
            p.instruction(rest, lineno)?;
        }
    }
    Ok(p.finish())
}

/// Where the next data directive lands.
enum Cursor {
    /// Offset into the unit's relocatable region (linker places it).
    Rel(u64),
    /// Absolute address (a `.data <base>` directive is in effect);
    /// `None` once a block has ended at the top of the address space.
    Abs(Option<u64>),
}

struct UnitParser {
    unit: ObjectUnit,
    /// Labels seen but not yet bound to an instruction or data directive.
    pending: Vec<String>,
    cursor: Cursor,
    /// Bytes reserved by `.zero` so far, at most [`MAX_ZERO_BYTES`].
    zeroed: u64,
}

impl UnitParser {
    fn new() -> Self {
        Self {
            unit: ObjectUnit {
                file: String::new(),
                insts: Vec::new(),
                code_defs: std::collections::HashMap::new(),
                data_defs: std::collections::HashMap::new(),
                globals: Vec::new(),
                data: Vec::new(),
                relocs: Vec::new(),
                rel_size: 0,
            },
            pending: Vec::new(),
            cursor: Cursor::Rel(0),
            zeroed: 0,
        }
    }

    fn define_label(&mut self, name: &str, line: usize) -> Result<(), ParseAsmError> {
        if self.unit.code_defs.contains_key(name)
            || self.unit.data_defs.contains_key(name)
            || self.pending.iter().any(|p| p == name)
        {
            return Err(err(line, format!("duplicate label `{name}`")));
        }
        self.pending.push(name.to_string());
        Ok(())
    }

    /// Binds pending labels to the next instruction slot.
    fn bind_code(&mut self) {
        let at = self.unit.insts.len();
        for name in self.pending.drain(..) {
            self.unit.code_defs.insert(name, at);
        }
    }

    /// Binds pending labels to a data placement.
    fn bind_data(&mut self, place: DataPlace) {
        for name in self.pending.drain(..) {
            self.unit.data_defs.insert(name, place);
        }
    }

    fn instruction(&mut self, text: &str, line: usize) -> Result<(), ParseAsmError> {
        let (inst, reloc) = encode_instruction(text, line)?;
        self.bind_code();
        if let Some((symbol, kind)) = reloc {
            self.unit.relocs.push(Reloc { inst: self.unit.insts.len(), symbol, kind, line });
        }
        self.unit.insts.push(inst);
        Ok(())
    }

    fn emit_data(&mut self, bytes: Vec<u8>, line: usize) -> Result<(), ParseAsmError> {
        let len = bytes.len() as u64;
        // The cursor keeps 8-byte alignment, like the builder's allocator.
        let advance = (len + 7) & !7;
        let place = match &mut self.cursor {
            Cursor::Rel(off) => {
                let place = DataPlace::Relative(*off);
                *off += advance;
                self.unit.rel_size = self.unit.rel_size.max(*off);
                place
            }
            Cursor::Abs(addr) => {
                // The block's last byte must not lie past 2^64 - 1.
                let start = addr
                    .filter(|a| a.checked_add(len.saturating_sub(1)).is_some())
                    .ok_or_else(|| err(line, "data block runs past the top of the address space"))?;
                *addr = start.checked_add(advance);
                DataPlace::Absolute(start)
            }
        };
        self.bind_data(place);
        self.unit.data.push(ObjData { place, bytes });
        Ok(())
    }

    fn directive(&mut self, directive: &str, line: usize) -> Result<(), ParseAsmError> {
        let mut parts = directive.split_whitespace();
        let name = parts.next().unwrap_or_default();
        let args: Vec<&str> = parts.collect();
        match name {
            "data" => {
                if let Some(base) = args.first() {
                    self.cursor = Cursor::Abs(Some(parse_u64(base, line)?));
                }
                Ok(())
            }
            "text" => Ok(()), // sections are implicit; accepted for familiarity
            "globl" | "global" => {
                if args.is_empty() {
                    return Err(err(line, ".globl needs at least one symbol"));
                }
                for a in &args {
                    let sym = a.trim_end_matches(',');
                    match symbol_token(sym) {
                        Some(sym) => self.unit.globals.push((sym, line)),
                        None => return Err(err(line, format!("invalid symbol name `{sym}`"))),
                    }
                }
                Ok(())
            }
            "words" => {
                let words = args
                    .iter()
                    .map(|a| parse_u64(a, line))
                    .collect::<Result<Vec<u64>, _>>()?;
                let mut bytes = Vec::with_capacity(words.len() * 8);
                for w in words {
                    bytes.extend_from_slice(&w.to_le_bytes());
                }
                self.emit_data(bytes, line)
            }
            "doubles" => {
                let vals = args
                    .iter()
                    .map(|a| parse_f64(a, line))
                    .collect::<Result<Vec<f64>, _>>()?;
                let mut bytes = Vec::with_capacity(vals.len() * 8);
                for v in vals {
                    bytes.extend_from_slice(&v.to_bits().to_le_bytes());
                }
                self.emit_data(bytes, line)
            }
            "bytes" => {
                // A byte is written unsigned (0..=255) or signed (-128..=-1).
                let bytes = args
                    .iter()
                    .map(|a| parse_int(a, line, -128..=255).map(|v| v as u8))
                    .collect::<Result<Vec<u8>, _>>()?;
                self.emit_data(bytes, line)
            }
            "zero" => {
                let count = args.first().ok_or_else(|| err(line, ".zero needs a byte count"))?;
                let n = parse_int(count, line, 0..=i128::from(u64::MAX))? as u64;
                self.zeroed = self.zeroed.saturating_add(n);
                if self.zeroed > MAX_ZERO_BYTES {
                    return Err(err(
                        line,
                        format!("`.zero {count}` takes the file past {MAX_ZERO_BYTES} zeroed bytes"),
                    ));
                }
                self.emit_data(vec![0u8; n as usize], line)
            }
            other => Err(err(line, format!("unknown directive `.{other}`"))),
        }
    }

    fn finish(mut self) -> ObjectUnit {
        // Trailing labels bind past the last instruction (like the builder).
        self.bind_code();
        self.unit
    }
}

fn strip_comment(line: &str) -> &str {
    let mut end = line.len();
    for marker in [";", "//", "#"] {
        if let Some(pos) = line.find(marker) {
            end = end.min(pos);
        }
    }
    &line[..end]
}

fn split_label(line: &str) -> (Option<&str>, &str) {
    match line.find(':') {
        Some(pos) if is_ident(&line[..pos]) => (Some(&line[..pos]), &line[pos + 1..]),
        _ => (None, line),
    }
}

fn is_ident(s: &str) -> bool {
    let mut chars = s.chars();
    match chars.next() {
        Some(c) if c.is_alphabetic() || c == '_' => {}
        _ => return false,
    }
    chars.all(|c| c.is_alphanumeric() || c == '_')
}

/// Returns `Some(name)` when `token` (after comma-trimming) is a valid
/// symbol reference.
fn symbol_token(token: &str) -> Option<String> {
    let t = token.trim().trim_end_matches(',');
    if is_ident(t) {
        Some(t.to_string())
    } else {
        None
    }
}

/// The most bytes the `.zero` blocks of one source file may reserve
/// together (16 MiB). The bound is checked before each block is
/// allocated, so no count in the source can exhaust memory; the corpus's
/// largest block is 32,000 bytes.
const MAX_ZERO_BYTES: u64 = 1 << 24;

/// Parses a decimal or `0x` hex integer, optionally negative, that must
/// lie in `range`.
fn parse_int(
    token: &str,
    line: usize,
    range: std::ops::RangeInclusive<i128>,
) -> Result<i128, ParseAsmError> {
    let token = token.trim().trim_end_matches(',');
    let (neg, body) = match token.strip_prefix('-') {
        Some(rest) => (true, rest),
        None => (false, token),
    };
    let magnitude =
        if let Some(hex) = body.strip_prefix("0x").or_else(|| body.strip_prefix("0X")) {
            u64::from_str_radix(hex, 16)
        } else {
            body.parse::<u64>()
        }
        .map_err(|_| err(line, format!("malformed number `{token}`")))?;
    let value = if neg { -i128::from(magnitude) } else { i128::from(magnitude) };
    if !range.contains(&value) {
        return Err(err(
            line,
            format!("number `{token}` is outside {}..={}", range.start(), range.end()),
        ));
    }
    Ok(value)
}

/// Parses a 64-bit word: `-2^63..=2^64-1`, a negative number stored as
/// its two's complement.
fn parse_u64(token: &str, line: usize) -> Result<u64, ParseAsmError> {
    parse_int(token, line, i128::from(i64::MIN)..=i128::from(u64::MAX)).map(|v| v as u64)
}

fn parse_f64(token: &str, line: usize) -> Result<f64, ParseAsmError> {
    token
        .trim()
        .trim_end_matches(',')
        .parse::<f64>()
        .map_err(|_| err(line, format!("malformed float `{token}`")))
}

fn parse_int_reg(token: &str, line: usize) -> Result<IntReg, ParseAsmError> {
    let token = token.trim().trim_end_matches(',');
    token
        .strip_prefix('x')
        .and_then(|n| n.parse::<u8>().ok())
        .filter(|n| *n < 32)
        .map(IntReg::new)
        .ok_or_else(|| err(line, format!("expected integer register, got `{token}`")))
}

fn parse_fp_reg(token: &str, line: usize) -> Result<FpReg, ParseAsmError> {
    let token = token.trim().trim_end_matches(',');
    token
        .strip_prefix('f')
        .and_then(|n| n.parse::<u8>().ok())
        .filter(|n| *n < 32)
        .map(FpReg::new)
        .ok_or_else(|| err(line, format!("expected fp register, got `{token}`")))
}

/// Parses `offset(base)` into `(offset, base)`.
fn parse_mem_operand(token: &str, line: usize) -> Result<(i64, IntReg), ParseAsmError> {
    let token = token.trim().trim_end_matches(',');
    let open = token
        .find('(')
        .ok_or_else(|| err(line, format!("expected offset(base), got `{token}`")))?;
    let close = token
        .rfind(')')
        .filter(|c| *c > open)
        .ok_or_else(|| err(line, format!("unclosed memory operand `{token}`")))?;
    let offset_str = &token[..open];
    let offset = if offset_str.is_empty() { 0 } else { parse_u64(offset_str, line)? as i64 };
    let base = parse_int_reg(&token[open + 1..close], line)?;
    Ok((offset, base))
}

/// A branch/jump target: either an absolute byte address (so disassembly
/// output re-parses) or a symbol for the linker.
enum Target {
    Addr(i64),
    Sym(String),
}

fn parse_target(token: &str, line: usize) -> Result<Target, ParseAsmError> {
    match symbol_token(token) {
        Some(sym) => Ok(Target::Sym(sym)),
        None => parse_u64(token, line).map(|a| Target::Addr(a as i64)),
    }
}

/// Encodes one instruction line. Symbol-referencing immediates come back
/// as a pending relocation with `imm` left at 0.
fn encode_instruction(
    text: &str,
    line: usize,
) -> Result<(Inst, Option<(String, RelocKind)>), ParseAsmError> {
    let mut parts = text.split_whitespace();
    let mnemonic = parts.next().unwrap_or_default().to_lowercase();
    let rest: String = parts.collect::<Vec<&str>>().join(" ");
    let ops: Vec<&str> = rest.split(',').map(str::trim).filter(|s| !s.is_empty()).collect();

    let want = |n: usize| -> Result<(), ParseAsmError> {
        if ops.len() == n {
            Ok(())
        } else {
            Err(err(line, format!("`{mnemonic}` expects {n} operands, got {}", ops.len())))
        }
    };
    let ireg = |i: usize| parse_int_reg(ops[i], line);
    let freg = |i: usize| parse_fp_reg(ops[i], line);
    let imm = |i: usize| parse_u64(ops[i], line).map(|v| v as i64);
    let plain = |inst: Inst| Ok((inst, None));

    match mnemonic.as_str() {
        // Three-register ALU.
        "add" | "sub" | "and" | "or" | "xor" | "sll" | "srl" | "sra" | "slt" | "sltu" | "mul"
        | "div" => {
            want(3)?;
            let (rd, rs1, rs2) = (ireg(0)?, ireg(1)?, ireg(2)?);
            let op = match mnemonic.as_str() {
                "add" => Opcode::Add,
                "sub" => Opcode::Sub,
                "and" => Opcode::And,
                "or" => Opcode::Or,
                "xor" => Opcode::Xor,
                "sll" => Opcode::Sll,
                "srl" => Opcode::Srl,
                "sra" => Opcode::Sra,
                "slt" => Opcode::Slt,
                "sltu" => Opcode::Sltu,
                "mul" => Opcode::Mul,
                _ => Opcode::Div,
            };
            plain(Inst::rrr(op, rd.number(), rs1.number(), rs2.number()))
        }
        // Register-immediate ALU.
        "addi" | "andi" | "ori" | "xori" | "slli" | "srli" | "srai" | "slti" => {
            want(3)?;
            let (rd, rs1, v) = (ireg(0)?, ireg(1)?, imm(2)?);
            let op = match mnemonic.as_str() {
                "addi" => Opcode::Addi,
                "andi" => Opcode::Andi,
                "ori" => Opcode::Ori,
                "xori" => Opcode::Xori,
                "slli" => Opcode::Slli,
                "srli" => Opcode::Srli,
                "srai" => Opcode::Srai,
                _ => Opcode::Slti,
            };
            plain(Inst::rri(op, rd.number(), rs1.number(), v))
        }
        "li" => {
            want(2)?;
            let rd = ireg(0)?;
            // A symbol materializes an address (data or code) at link time.
            match symbol_token(ops[1]) {
                Some(sym) => Ok((
                    Inst::rri(Opcode::Li, rd.number(), 0, 0),
                    Some((sym, RelocKind::Abs)),
                )),
                None => {
                    let v = parse_u64(ops[1], line)? as i64;
                    plain(Inst::rri(Opcode::Li, rd.number(), 0, v))
                }
            }
        }
        "mv" => {
            want(2)?;
            let (rd, rs1) = (ireg(0)?, ireg(1)?);
            plain(Inst::rri(Opcode::Addi, rd.number(), rs1.number(), 0))
        }
        // Memory.
        "ld" | "lw" | "lbu" => {
            want(2)?;
            let rd = ireg(0)?;
            let (off, base) = parse_mem_operand(ops[1], line)?;
            let op = match mnemonic.as_str() {
                "ld" => Opcode::Ld,
                "lw" => Opcode::Lw,
                _ => Opcode::Lbu,
            };
            plain(Inst::rri(op, rd.number(), base.number(), off))
        }
        "st" | "sw" | "sb" => {
            want(2)?;
            let src = ireg(0)?;
            let (off, base) = parse_mem_operand(ops[1], line)?;
            let op = match mnemonic.as_str() {
                "st" => Opcode::St,
                "sw" => Opcode::Sw,
                _ => Opcode::Sb,
            };
            plain(Inst { op, rd: 0, rs1: base.number(), rs2: src.number(), imm: off })
        }
        "fld" => {
            want(2)?;
            let fd = freg(0)?;
            let (off, base) = parse_mem_operand(ops[1], line)?;
            plain(Inst { op: Opcode::Fld, rd: fd.number(), rs1: base.number(), rs2: 0, imm: off })
        }
        "fst" => {
            want(2)?;
            let fs = freg(0)?;
            let (off, base) = parse_mem_operand(ops[1], line)?;
            plain(Inst { op: Opcode::Fst, rd: 0, rs1: base.number(), rs2: fs.number(), imm: off })
        }
        // Control flow.
        "beq" | "bne" | "blt" | "bge" | "bltu" | "bgeu" => {
            want(3)?;
            let (rs1, rs2) = (ireg(0)?, ireg(1)?);
            let op = match mnemonic.as_str() {
                "beq" => Opcode::Beq,
                "bne" => Opcode::Bne,
                "blt" => Opcode::Blt,
                "bge" => Opcode::Bge,
                "bltu" => Opcode::Bltu,
                _ => Opcode::Bgeu,
            };
            let base = Inst { op, rd: 0, rs1: rs1.number(), rs2: rs2.number(), imm: 0 };
            match parse_target(ops[2], line)? {
                Target::Addr(a) => plain(Inst { imm: a, ..base }),
                Target::Sym(s) => Ok((base, Some((s, RelocKind::Branch)))),
            }
        }
        "jal" => {
            want(2)?;
            let rd = ireg(0)?;
            let base = Inst { op: Opcode::Jal, rd: rd.number(), rs1: 0, rs2: 0, imm: 0 };
            match parse_target(ops[1], line)? {
                Target::Addr(a) => plain(Inst { imm: a, ..base }),
                Target::Sym(s) => Ok((base, Some((s, RelocKind::Branch)))),
            }
        }
        "j" => {
            want(1)?;
            let base = Inst { op: Opcode::Jal, rd: 0, rs1: 0, rs2: 0, imm: 0 };
            match parse_target(ops[0], line)? {
                Target::Addr(a) => plain(Inst { imm: a, ..base }),
                Target::Sym(s) => Ok((base, Some((s, RelocKind::Branch)))),
            }
        }
        "jalr" => {
            want(3)?;
            let (rd, rs1, v) = (ireg(0)?, ireg(1)?, imm(2)?);
            plain(Inst::rri(Opcode::Jalr, rd.number(), rs1.number(), v))
        }
        "ret" => {
            want(1)?;
            let rs1 = ireg(0)?;
            plain(Inst::rri(Opcode::Jalr, 0, rs1.number(), 0))
        }
        // Floating point.
        "fadd" | "fsub" | "fmul" | "fdiv" => {
            want(3)?;
            let (fd, f1, f2) = (freg(0)?, freg(1)?, freg(2)?);
            let op = match mnemonic.as_str() {
                "fadd" => Opcode::Fadd,
                "fsub" => Opcode::Fsub,
                "fmul" => Opcode::Fmul,
                _ => Opcode::Fdiv,
            };
            plain(Inst::rrr(op, fd.number(), f1.number(), f2.number()))
        }
        "fmov" => {
            want(2)?;
            let (fd, f1) = (freg(0)?, freg(1)?);
            plain(Inst::rrr(Opcode::Fmov, fd.number(), f1.number(), 0))
        }
        "fcvt.d.l" => {
            want(2)?;
            let (fd, rs1) = (freg(0)?, ireg(1)?);
            plain(Inst::rrr(Opcode::FcvtFI, fd.number(), rs1.number(), 0))
        }
        "fcvt.l.d" => {
            want(2)?;
            let (rd, f1) = (ireg(0)?, freg(1)?);
            plain(Inst::rrr(Opcode::FcvtIF, rd.number(), f1.number(), 0))
        }
        "fcmplt" | "fcmpeq" => {
            want(3)?;
            let (rd, f1, f2) = (ireg(0)?, freg(1)?, freg(2)?);
            let op = if mnemonic == "fcmplt" { Opcode::Fcmplt } else { Opcode::Fcmpeq };
            plain(Inst::rrr(op, rd.number(), f1.number(), f2.number()))
        }
        "nop" => {
            want(0)?;
            plain(Inst::nop())
        }
        "halt" => {
            want(0)?;
            plain(Inst::halt())
        }
        other => Err(err(line, format!("unknown mnemonic `{other}`"))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::asm::Asm;
    use crate::exec::Machine;
    use crate::reg::{f, x};

    fn run(src: &str) -> Machine {
        let p = parse_asm(src).expect("parse");
        let mut m = Machine::load(&p);
        m.run(&p, 1_000_000).expect("run");
        m
    }

    #[test]
    fn parses_a_counting_loop() {
        let m = run(r"
            li x1, 10
            li x2, 0
        loop:
            add x2, x2, x1
            addi x1, x1, -1
            bne x1, x0, loop
            halt
        ");
        assert_eq!(m.int_reg(x(2)), 55);
    }

    #[test]
    fn data_symbols_resolve_to_addresses() {
        let m = run(r"
            .data 0x7f3a80000000
        table: .words 11 22 33
        buf:   .zero 16
            li x10, table
            li x11, buf
            ld x1, 8(x10)
            st x1, 0(x11)
            ld x2, 0(x11)
            halt
        ");
        assert_eq!(m.int_reg(x(1)), 22);
        assert_eq!(m.int_reg(x(2)), 22);
        assert_eq!(m.int_reg(x(11)), 0x7f3a_8000_0000 + 24);
    }

    #[test]
    fn relocatable_data_defaults_to_the_builder_base() {
        // Without `.data <base>`, single-unit data lands where the
        // builder's allocator would put it.
        let m = run(r"
        table: .words 7
            li x1, table
            ld x2, 0(x1)
            halt
        ");
        assert_eq!(m.int_reg(x(1)), crate::asm::DEFAULT_DATA_BASE);
        assert_eq!(m.int_reg(x(2)), 7);
    }

    #[test]
    fn doubles_and_fp_ops() {
        let m = run(r"
        vals: .doubles 1.5 2.5
            li x1, vals
            fld f1, 0(x1)
            fld f2, 8(x1)
            fmul f3, f1, f2
            fcvt.l.d x2, f3
            halt
        ");
        assert_eq!(m.fp_reg(f(3)), 3.75);
        assert_eq!(m.int_reg(x(2)), 3);
    }

    #[test]
    fn comments_and_blank_lines_are_ignored() {
        let m = run(r"
            ; a comment
            li x1, 1   // trailing
            # another style
            halt
        ");
        assert_eq!(m.int_reg(x(1)), 1);
    }

    #[test]
    fn calls_and_returns() {
        let m = run(r"
            li x10, 3
            jal x31, double
            jal x31, double
            halt
        double:
            add x10, x10, x10
            ret x31
        ");
        assert_eq!(m.int_reg(x(10)), 12);
    }

    #[test]
    fn hex_and_negative_immediates() {
        let m = run(r"
            li x1, 0xff
            addi x2, x1, -0x0f
            halt
        ");
        assert_eq!(m.int_reg(x(2)), 0xf0);
    }

    #[test]
    fn immediates_cover_the_i64_boundaries() {
        let m = run(r"
            li x1, -9223372036854775808
            li x2, 9223372036854775807
            li x3, 0xffffffffffffffff
            li x4, -1
            halt
        ");
        assert_eq!(m.int_reg(x(1)), i64::MIN as u64);
        assert_eq!(m.int_reg(x(2)), i64::MAX as u64);
        assert_eq!(m.int_reg(x(3)), u64::MAX);
        assert_eq!(m.int_reg(x(4)), u64::MAX);
    }

    #[test]
    fn immediates_below_minus_two_to_the_63_are_errors() {
        // These used to wrap: the first to 0x7fff_ffff_ffff_ffff, the
        // second to 1.
        for bad in ["-9223372036854775809", "-18446744073709551615", "-0x8000000000000001"] {
            let e = parse_asm(&format!("nop\nli x1, {bad}\nhalt")).unwrap_err();
            assert_eq!(e.line, 2, "{e}");
            assert!(e.message.contains(bad) && e.message.contains("outside"), "{e}");
        }
        let e = parse_asm(".words 1, -9223372036854775809\nhalt").unwrap_err();
        assert_eq!(e.line, 1, "{e}");
    }

    #[test]
    fn byte_values_must_fit_a_byte() {
        for bad in ["256", "300", "0x100", "-129"] {
            let e = parse_asm(&format!("nop\nmsg: .bytes 7, {bad}\nhalt")).unwrap_err();
            assert_eq!(e.line, 2, "{e}");
            assert!(e.message.contains(bad) && e.message.contains("-128..=255"), "{e}");
        }
        let m = run(r"
        msg: .bytes -128, 255, -1
            li x1, msg
            lbu x2, 0(x1)
            lbu x3, 1(x1)
            lbu x4, 2(x1)
            halt
        ");
        assert_eq!([m.int_reg(x(2)), m.int_reg(x(3)), m.int_reg(x(4))], [0x80, 0xff, 0xff]);
    }

    #[test]
    fn zero_counts_past_the_bound_are_errors() {
        // Rejected before the block is allocated: none of these counts
        // reaches `vec![0u8; n]`.
        let past = (MAX_ZERO_BYTES + 1).to_string();
        for bad in [past.as_str(), "9223372036854775808", "0xffffffffffffffff", "-1"] {
            let e = parse_asm(&format!("nop\nbuf: .zero {bad}\nhalt")).unwrap_err();
            assert_eq!(e.line, 2, "{e}");
            assert!(e.message.contains(bad), "{e}");
        }
        // The bound holds for a file's blocks together, so repeating a
        // block cannot exhaust memory either.
        let half = MAX_ZERO_BYTES / 2 + 1;
        let e =
            parse_asm(&format!("a: .zero 8\nb: .zero {half}\nc: .zero {half}\nhalt")).unwrap_err();
        assert_eq!(e.line, 3, "{e}");
        // The corpus's largest block assembles.
        let p = parse_asm("pool: .zero 32000\nhalt").unwrap();
        assert_eq!(p.data.iter().map(|d| d.bytes.len()).sum::<usize>(), 32000);
    }

    #[test]
    fn data_blocks_end_at_the_top_of_the_address_space_at_most() {
        // Running past 2^64 - 1 is a line error (it used to overflow the
        // data cursor).
        let e = parse_asm(".data 0xfffffffffffffff8\nw: .words 1 2\nhalt").unwrap_err();
        assert_eq!(e.line, 2, "{e}");
        assert!(e.message.contains("top of the address space"), "{e}");
        // A block that ends exactly at the top fits and loads.
        let m = run(".data 0xfffffffffffffff8\nw: .words 7\nli x1, w\nld x2, 0(x1)\nhalt");
        assert_eq!(m.int_reg(x(2)), 7);
        // After it the cursor is spent: any further block is the error,
        // until a new `.data` base.
        for next in [".words 1", ".bytes 1", ".zero 0"] {
            let src = format!(".data 0xfffffffffffffff8\n.words 7\n{next}\nhalt");
            assert_eq!(parse_asm(&src).unwrap_err().line, 3, "{next}");
        }
        parse_asm(".data 0xfffffffffffffff8\n.words 7\n.data 0x1000\n.words 1\nhalt").unwrap();
    }

    #[test]
    fn byte_data_and_byte_loads() {
        let m = run(r"
        msg: .bytes 7 8 9
            li x1, msg
            lbu x2, 2(x1)
            halt
        ");
        assert_eq!(m.int_reg(x(2)), 9);
    }

    #[test]
    fn label_on_its_own_line_binds_to_following_data() {
        // Regression: labels used to bind as *code* labels unless the data
        // directive shared their line, breaking `li` of the symbol.
        let m = run(r"
        table:
            .words 42
            li x1, table
            ld x2, 0(x1)
            halt
        ");
        assert_eq!(m.int_reg(x(2)), 42);
    }

    #[test]
    fn errors_carry_line_numbers() {
        let e = parse_asm("li x1, 1\nbogus x1, x2\nhalt").unwrap_err();
        assert_eq!(e.line, 2);
        assert!(e.message.contains("bogus"));

        let e = parse_asm("li x99, 1").unwrap_err();
        assert!(e.message.contains("register"));

        let e = parse_asm("addi x1, x2").unwrap_err();
        assert!(e.message.contains("expects 3"));

        let e = parse_asm("ld x1, 8[x2]").unwrap_err();
        assert!(e.message.contains("offset(base)"));

        let e = parse_asm("li x1, 0xzz").unwrap_err();
        assert!(e.message.contains("malformed number"));
    }

    #[test]
    fn undefined_branch_target_is_reported() {
        let e = parse_asm("bne x1, x0, nowhere\nhalt").unwrap_err();
        assert_eq!(e.line, 1);
        assert!(e.message.contains("nowhere"));
    }

    #[test]
    fn duplicate_data_label_is_reported() {
        let e = parse_asm("a: .words 1\na: .words 2\nhalt").unwrap_err();
        assert_eq!(e.line, 2);
        assert!(e.message.contains("duplicate"));
    }

    #[test]
    fn duplicate_code_label_is_reported_with_its_line() {
        let e = parse_asm("a:\n nop\na:\n halt").unwrap_err();
        assert_eq!(e.line, 3);
        assert!(e.message.contains("duplicate"));
    }

    #[test]
    fn parser_and_builder_agree() {
        let parsed = parse_asm(r"
            li x1, 7
        top:
            addi x1, x1, -1
            bne x1, x0, top
            halt
        ").unwrap();
        let mut asm = Asm::new();
        asm.li(x(1), 7);
        asm.label("top");
        asm.addi(x(1), x(1), -1);
        asm.bne(x(1), x(0), "top");
        asm.halt();
        let built = asm.finish().unwrap();
        assert_eq!(parsed.insts, built.insts);
    }

    #[test]
    fn exported_start_sets_the_entry() {
        let p = parse_asm(r"
        helper:
            nop
            halt
        .globl _start
        _start:
            halt
        ").unwrap();
        assert_eq!(p.entry, p.addr_of(2));
    }

    #[test]
    fn code_symbols_materialize_as_function_pointers() {
        let m = run(r"
            li x1, target
            jalr x31, x1, 0
            halt
        target:
            li x2, 9
            halt
        ");
        assert_eq!(m.int_reg(x(2)), 9);
    }
}
