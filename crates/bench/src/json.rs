//! The one JSON layer behind every cache entry, results record and trace
//! export.
//!
//! * [`Value`] keeps object members in document order and numbers as
//!   their text, so a compact document parses and re-renders to the same
//!   bytes (the bit-exact cache and the committed ledgers rely on it).
//! * [`parse`] accepts exactly RFC 8259; its [`ParseError`] gives the line
//!   and column, and nesting past [`MAX_DEPTH`] is an error, not a stack
//!   overflow.
//! * The one writer (`Display`) is compact. Strings escape `"` and `\`
//!   with a backslash and other characters below U+0020 as `\u00xx`.
//! * [`update_records`] maintains the files holding a JSON array with one
//!   record per line (`results/*.json`). Cache entries are single
//!   compact documents, one per file, and need no merging.

use crate::fsio::{atomic_write, FileLock};
use std::fmt::{self, Write as _};
use std::io;
use std::path::Path;

/// The deepest nesting of arrays and objects [`parse`] accepts.
pub const MAX_DEPTH: usize = 128;

/// One JSON value.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Value {
    /// `null`.
    Null,
    /// `true` or `false`.
    Bool(bool),
    /// A number as its JSON text, written back verbatim; `From` and
    /// [`Value::fixed`] only build valid text.
    Number(String),
    /// A string, unescaped.
    String(String),
    /// An array.
    Array(Vec<Value>),
    /// An object's members in document order.
    Object(Vec<(String, Value)>),
}

impl Value {
    /// An object with `members` in the given order.
    pub fn object<K: Into<String>>(members: impl IntoIterator<Item = (K, Value)>) -> Self {
        Self::Object(members.into_iter().map(|(k, v)| (k.into(), v)).collect())
    }

    /// `v` with `decimals` digits after the point, or `null` when `v` is
    /// not finite (`NaN` and `inf` are not JSON).
    pub fn fixed(v: f64, decimals: usize) -> Self {
        if v.is_finite() {
            Self::Number(format!("{v:.decimals$}"))
        } else {
            Self::Null
        }
    }

    /// The first member named `key` of an object.
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Self::Object(members) => members.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The contents of a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Self::String(s) => Some(s),
            _ => None,
        }
    }

    /// A number that is an integer in `u64`'s range.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Self::Number(text) => text.parse().ok(),
            _ => None,
        }
    }

    /// The elements of an array.
    pub fn as_array(&self) -> Option<&[Value]> {
        match self {
            Self::Array(items) => Some(items),
            _ => None,
        }
    }
}

macro_rules! from_integer {
    ($($t:ty),*) => {$(
        impl From<$t> for Value {
            fn from(v: $t) -> Self {
                Self::Number(v.to_string())
            }
        }
    )*};
}
from_integer!(u32, u64, usize);

impl From<&str> for Value {
    fn from(v: &str) -> Self {
        Self::String(v.to_string())
    }
}

impl From<String> for Value {
    fn from(v: String) -> Self {
        Self::String(v)
    }
}

impl FromIterator<Value> for Value {
    fn from_iter<I: IntoIterator<Item = Value>>(iter: I) -> Self {
        Self::Array(iter.into_iter().collect())
    }
}

fn write_string(f: &mut impl fmt::Write, s: &str) -> fmt::Result {
    f.write_char('"')?;
    let mut plain = 0;
    // Every byte that needs escaping is ASCII, so slicing at it stays on
    // a character boundary.
    for (i, b) in s.bytes().enumerate() {
        if b == b'"' || b == b'\\' || b < 0x20 {
            f.write_str(&s[plain..i])?;
            match b {
                b'"' | b'\\' => write!(f, "\\{}", b as char)?,
                _ => write!(f, "\\u{b:04x}")?,
            }
            plain = i + 1;
        }
    }
    f.write_str(&s[plain..])?;
    f.write_char('"')
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::Null => f.write_str("null"),
            Self::Bool(b) => write!(f, "{b}"),
            Self::Number(text) => f.write_str(text),
            Self::String(s) => write_string(f, s),
            Self::Array(items) => {
                f.write_char('[')?;
                for (i, item) in items.iter().enumerate() {
                    let sep = if i > 0 { "," } else { "" };
                    write!(f, "{sep}{item}")?;
                }
                f.write_char(']')
            }
            Self::Object(members) => {
                f.write_char('{')?;
                for (i, (key, value)) in members.iter().enumerate() {
                    f.write_str(if i > 0 { "," } else { "" })?;
                    write_string(f, key)?;
                    write!(f, ":{value}")?;
                }
                f.write_char('}')
            }
        }
    }
}

/// Why a document is not JSON: the message and the 1-based line and
/// column (in characters) of the offending character or of the end of
/// input. Displays as `line:column: message`, ready for a file prefix.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// 1-based line.
    pub line: usize,
    /// 1-based column, in characters.
    pub column: usize,
    /// What was wrong there.
    pub message: &'static str,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}:{}: {}", self.line, self.column, self.message)
    }
}

/// Parses one JSON document (surrounding whitespace allowed).
///
/// # Errors
///
/// The first violation of RFC 8259, or nesting deeper than [`MAX_DEPTH`].
pub fn parse(text: &str) -> Result<Value, ParseError> {
    let mut p = Parser { text, pos: 0, depth: 0 };
    let value = p.value()?;
    p.skip_ws();
    if p.pos < text.len() {
        return Err(p.error("unexpected text after the document"));
    }
    Ok(value)
}

struct Parser<'a> {
    text: &'a str,
    pos: usize,
    depth: usize,
}

impl Parser<'_> {
    fn error(&self, message: &'static str) -> ParseError {
        let before = &self.text[..self.pos];
        let line_start = before.rfind('\n').map_or(0, |i| i + 1);
        ParseError {
            line: before.matches('\n').count() + 1,
            column: before[line_start..].chars().count() + 1,
            message,
        }
    }

    fn peek(&self) -> Option<u8> {
        self.text.as_bytes().get(self.pos).copied()
    }

    fn eat(&mut self, b: u8) -> bool {
        let hit = self.peek() == Some(b);
        self.pos += usize::from(hit);
        hit
    }

    fn expect(&mut self, b: u8, message: &'static str) -> Result<(), ParseError> {
        self.skip_ws();
        if self.eat(b) {
            Ok(())
        } else {
            Err(self.error(message))
        }
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn value(&mut self) -> Result<Value, ParseError> {
        self.skip_ws();
        match self.peek() {
            None => Err(self.error("unexpected end of input")),
            Some(open @ (b'{' | b'[')) => {
                if self.depth == MAX_DEPTH {
                    return Err(self.error("nested too deeply"));
                }
                self.depth += 1;
                self.pos += 1;
                let value = if open == b'{' { self.object() } else { self.array() };
                self.depth -= 1;
                value
            }
            Some(b'"') => self.string().map(Value::String),
            Some(b't') => self.literal("true", Value::Bool(true)),
            Some(b'f') => self.literal("false", Value::Bool(false)),
            Some(b'n') => self.literal("null", Value::Null),
            Some(b'-' | b'0'..=b'9') => self.number(),
            Some(_) => Err(self.error("expected a value")),
        }
    }

    /// An object's members, after its `{`.
    fn object(&mut self) -> Result<Value, ParseError> {
        let mut members = Vec::new();
        self.skip_ws();
        if !self.eat(b'}') {
            loop {
                self.skip_ws();
                if self.peek() != Some(b'"') {
                    return Err(self.error("expected a string key"));
                }
                let key = self.string()?;
                self.expect(b':', "expected `:`")?;
                members.push((key, self.value()?));
                self.skip_ws();
                if self.eat(b'}') {
                    break;
                }
                self.expect(b',', "expected `,` or `}`")?;
            }
        }
        Ok(Value::Object(members))
    }

    /// An array's elements, after its `[`.
    fn array(&mut self) -> Result<Value, ParseError> {
        let mut items = Vec::new();
        self.skip_ws();
        if !self.eat(b']') {
            loop {
                items.push(self.value()?);
                self.skip_ws();
                if self.eat(b']') {
                    break;
                }
                self.expect(b',', "expected `,` or `]`")?;
            }
        }
        Ok(Value::Array(items))
    }

    fn literal(&mut self, word: &str, value: Value) -> Result<Value, ParseError> {
        if !self.text[self.pos..].starts_with(word) {
            return Err(self.error("expected a value"));
        }
        self.pos += word.len();
        Ok(value)
    }

    /// Consumes a run of digits and returns its length.
    fn digits(&mut self) -> usize {
        let start = self.pos;
        while matches!(self.peek(), Some(b'0'..=b'9')) {
            self.pos += 1;
        }
        self.pos - start
    }

    fn number(&mut self) -> Result<Value, ParseError> {
        let start = self.pos;
        self.eat(b'-');
        if !self.eat(b'0') && self.digits() == 0 {
            return Err(self.error("expected a digit"));
        }
        if self.eat(b'.') && self.digits() == 0 {
            return Err(self.error("expected a digit after `.`"));
        }
        if self.eat(b'e') || self.eat(b'E') {
            let _ = self.eat(b'+') || self.eat(b'-');
            if self.digits() == 0 {
                return Err(self.error("expected a digit in the exponent"));
            }
        }
        Ok(Value::Number(self.text[start..self.pos].to_string()))
    }

    /// A string at its opening quote, unescaped.
    fn string(&mut self) -> Result<String, ParseError> {
        self.pos += 1;
        let mut out = String::new();
        loop {
            let plain = self.pos;
            while matches!(self.peek(), Some(b) if b != b'"' && b != b'\\' && b >= 0x20) {
                self.pos += 1;
            }
            out.push_str(&self.text[plain..self.pos]);
            match self.peek() {
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    out.push(self.escape()?);
                }
                Some(_) => return Err(self.error("control character in string")),
                None => return Err(self.error("unterminated string")),
            }
        }
    }

    /// The character an escape stands for, after its backslash; a `\u`
    /// high surrogate must be followed by its low half.
    fn escape(&mut self) -> Result<char, ParseError> {
        let c = match self.peek() {
            Some(b'u') => {
                self.pos += 1;
                let high = self.hex4()?;
                if !(0xD800..0xE000).contains(&high) {
                    return Ok(char::from_u32(high).expect("not a surrogate"));
                }
                if high >= 0xDC00 || !self.text[self.pos..].starts_with("\\u") {
                    return Err(self.error("unpaired surrogate"));
                }
                self.pos += 2;
                let low = self.hex4()?;
                if !(0xDC00..0xE000).contains(&low) {
                    return Err(self.error("unpaired surrogate"));
                }
                let code = 0x10000 + ((high - 0xD800) << 10) + (low - 0xDC00);
                return Ok(char::from_u32(code).expect("a supplementary-plane code point"));
            }
            Some(b'"') => '"',
            Some(b'\\') => '\\',
            Some(b'/') => '/',
            Some(b'b') => '\u{8}',
            Some(b'f') => '\u{c}',
            Some(b'n') => '\n',
            Some(b'r') => '\r',
            Some(b't') => '\t',
            _ => return Err(self.error("invalid escape")),
        };
        self.pos += 1;
        Ok(c)
    }

    fn hex4(&mut self) -> Result<u32, ParseError> {
        let hex = self.text.get(self.pos..self.pos + 4);
        let code = hex
            .filter(|h| h.bytes().all(|b| b.is_ascii_hexdigit()))
            .ok_or_else(|| self.error("expected four hex digits"))?;
        self.pos += 4;
        Ok(u32::from_str_radix(code, 16).expect("four hex digits"))
    }
}

/// The rows of a records file, which must be a JSON array.
///
/// # Errors
///
/// When the text is not JSON or not an array.
pub fn parse_records(text: &str) -> Result<Vec<Value>, ParseError> {
    match parse(text)? {
        Value::Array(rows) => Ok(rows),
        _ => Err(ParseError { line: 1, column: 1, message: "expected an array of records" }),
    }
}

/// Writes `items` as array elements, one compact element per line.
fn write_lines<T: fmt::Display>(out: &mut String, items: impl IntoIterator<Item = T>) {
    let mut items = items.into_iter().peekable();
    while let Some(item) = items.next() {
        let sep = if items.peek().is_some() { ",\n" } else { "\n" };
        let _ = write!(out, "{item}{sep}");
    }
}

/// `rows` as a records file: a JSON array with one compact row per line.
pub fn render_records(rows: &[Value]) -> String {
    let mut out = String::from("[\n");
    write_lines(&mut out, rows);
    out.push_str("]\n");
    out
}

/// An object of `head`'s members and then `key`, an array of `items` laid
/// out as in a records file. Each item is a [`Value`] or a rendering of
/// one, so a long array (a Chrome trace's events) need not exist as one
/// tree.
pub fn render_object_with_lines<T: fmt::Display>(
    head: &[(&str, Value)],
    key: &str,
    items: impl IntoIterator<Item = T>,
) -> String {
    let mut out = String::from("{");
    for (name, value) in head {
        let _ = write_string(&mut out, name);
        let _ = write!(out, ":{value},");
    }
    let _ = write_string(&mut out, key);
    out.push_str(":[\n");
    write_lines(&mut out, items);
    out.push_str("]}\n");
    out
}

/// Appends `record` to `rows`, first dropping the oldest rows with the
/// same key so that at most `keep` rows (counting `record`) share it. A
/// row's key is its values of `key_fields`; rows missing any of them
/// never match, and a `record` missing one replaces nothing. `keep == 1`
/// is plain replacement.
pub fn merge_record(rows: &mut Vec<Value>, record: Value, key_fields: &[&str], keep: usize) {
    fn key<'a>(row: &'a Value, key_fields: &[&str]) -> Option<Vec<&'a Value>> {
        key_fields.iter().map(|f| row.get(f)).collect()
    }
    let same: Vec<usize> = match key(&record, key_fields) {
        Some(new_key) => (0..rows.len())
            .filter(|&i| key(&rows[i], key_fields).as_ref() == Some(&new_key))
            .collect(),
        None => Vec::new(),
    };
    let excess = same.len().saturating_sub(keep.max(1) - 1);
    for &i in same[..excess].iter().rev() {
        rows.remove(i);
    }
    rows.push(record);
}

/// Merges each of `records` in turn (see [`merge_record`]) into the
/// records file at `path` and rewrites it atomically, all under the
/// file's advisory [`FileLock`]. An absent file starts empty.
///
/// # Errors
///
/// Every error names `path`: `path:line:column: message` for a file that
/// does not parse as a records array (it is left untouched), `path:
/// cause` for an I/O failure.
pub fn update_records(
    path: &Path,
    records: Vec<Value>,
    key_fields: &[&str],
    keep: usize,
) -> io::Result<()> {
    let named = |e: io::Error| io::Error::new(e.kind(), format!("{}: {e}", path.display()));
    let _guard = FileLock::acquire(path).map_err(named)?;
    let mut rows = match std::fs::read_to_string(path) {
        Ok(text) => parse_records(&text).map_err(|e| {
            io::Error::new(io::ErrorKind::InvalidData, format!("{}:{e}", path.display()))
        })?,
        Err(e) if e.kind() == io::ErrorKind::NotFound => Vec::new(),
        Err(e) => return Err(named(e)),
    };
    for record in records {
        merge_record(&mut rows, record, key_fields, keep);
    }
    atomic_write(path, render_records(&rows).as_bytes()).map_err(named)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temp_dir(tag: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("carf-json-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("create temp dir");
        dir
    }

    #[test]
    fn compact_documents_round_trip_byte_identically() {
        for text in [
            r#"{"a":1,"b":[true,false,null],"c":{"d":"e\"f\\g\u001fh"},"n":-0.50e+3}"#,
            r#"[]"#,
            r#"{}"#,
            r#""café ☕""#,
            r#"[1.2500,0.0000,18446744073709551615]"#,
        ] {
            assert_eq!(parse(text).expect(text).to_string(), text);
        }
        // Keys keep document order, not sorted order.
        let v = parse(r#"{"z":1,"a":2}"#).unwrap();
        assert_eq!(v.get("z").and_then(Value::as_u64), Some(1));
        assert_eq!(v.to_string(), r#"{"z":1,"a":2}"#);
    }

    #[test]
    fn the_writer_escapes_only_quotes_backslashes_and_control_characters() {
        let s = "q\" b\\ n\n t\t del\u{7f} é ☕ /";
        assert_eq!(
            Value::from(s).to_string(),
            "\"q\\\" b\\\\ n\\u000a t\\u0009 del\u{7f} é ☕ /\""
        );
        // Every escape the parser accepts decodes to the same string.
        let parsed = parse(r#""q\" b\\ n\n t\t del\u007f \u00e9 \u2615 \/""#).unwrap();
        assert_eq!(parsed.as_str(), Some(s));
        assert_eq!(parse(r#""\ud83d\ude00""#).unwrap().as_str(), Some("😀"));
    }

    #[test]
    fn malformed_documents_are_errors_with_a_position() {
        for (text, line, column) in [
            ("", 1, 1),
            ("{", 1, 2),
            ("{\"a\":1,}", 1, 8),
            ("[1,]", 1, 4),
            ("[1 2]", 1, 4),
            ("{\"a\" 1}", 1, 6),
            ("{a:1}", 1, 2),
            ("[01]", 1, 3),
            ("[1.]", 1, 4),
            ("[-]", 1, 3),
            ("[1e]", 1, 4),
            ("[.5]", 1, 2),
            ("[+1]", 1, 2),
            ("[tru]", 1, 2),
            ("[NaN]", 1, 2),
            ("\"a\nb\"", 1, 3),
            ("\"\\x\"", 1, 3),
            ("\"\\u12\"", 1, 4),
            ("\"\\ud800\"", 1, 8),
            ("\"\\udc00\"", 1, 8),
            ("\"open", 1, 6),
            ("{}\n{}", 2, 1),
            ("[\n  1,\n  é]", 3, 3),
        ] {
            let err = parse(text).expect_err(text);
            assert_eq!((err.line, err.column), (line, column), "{text:?}: {err}");
        }
    }

    #[test]
    fn nesting_past_the_depth_bound_is_an_error() {
        let nested = |depth: usize| format!("{}{}", "[".repeat(depth), "]".repeat(depth));
        assert!(parse(&nested(MAX_DEPTH)).is_ok());
        let err = parse(&nested(MAX_DEPTH + 1)).unwrap_err();
        assert_eq!((err.line, err.column), (1, MAX_DEPTH + 1), "{err}");
        // Far past the bound: an error, not a stack overflow.
        assert!(parse(&"[{\"a\":".repeat(1_000_000)).is_err());
    }

    #[test]
    fn prefixes_and_random_bytes_never_panic() {
        let dir = temp_dir("fuzz");
        let cache = crate::cache::ResultCache::at(dir.clone());
        let stats = carf_sim::SimStats { cycles: 7, long_mean_live: 0.3, ..Default::default() };
        let config = carf_sim::SimConfig::test_small();
        cache.store_point(1, "Int/\"quoted\"", &config, &crate::Budget::quick(), &stats);
        let entry = std::fs::read_to_string(cache.entry_path(1)).expect("stored entry");
        for end in (0..=entry.len()).filter(|&i| entry.is_char_boundary(i)) {
            let parsed = parse(&entry[..end]);
            // Only the whole entry (with or without its newline) parses.
            assert_eq!(parsed.is_ok(), end + 1 >= entry.len(), "prefix of {end} bytes");
        }
        // A fixed-seed batch of random strings, half drawn from JSON's own
        // punctuation so that the parser gets past the first byte.
        let mut state = 0x9e37_79b9_7f4a_7c15_u64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        const ALPHABET: &[u8] = b"{}[]\",:0123456789.eE+-truefalsn\\u \n\tab";
        for case in 0..4_000 {
            let len = (next() % 48) as usize;
            let bytes: Vec<u8> = (0..len)
                .map(|_| match next() {
                    r if case % 2 == 0 => ALPHABET[(r % ALPHABET.len() as u64) as usize],
                    r => r as u8,
                })
                .collect();
            let text = String::from_utf8_lossy(&bytes);
            if let Ok(v) = parse(&text) {
                // Whatever parses re-parses to the same value.
                assert_eq!(parse(&v.to_string()), Ok(v), "{text:?}");
            }
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_pretty_printed_records_file_merges_into_the_canonical_layout() {
        let dir = temp_dir("pretty");
        let path = dir.join("smt_scaling.json");
        let kept = r#"{"bin":"carf-smt","machine":"base","threads":1,"ipc":[2.4842]}"#;
        let pretty = "[\n  {\n    \"bin\": \"carf-smt\",\n    \"machine\": \"base\",\n    \
                      \"threads\": 1,\n    \"ipc\": [\n      2.4842\n    ]\n  }\n]\n";
        std::fs::write(&path, pretty).unwrap();
        let record = r#"{"bin":"carf-smt","machine":"carf","threads":1,"ipc":[2.5]}"#;
        update_records(&path, vec![parse(record).unwrap()], &["bin", "machine", "threads"], 1)
            .expect("merge");
        let text = std::fs::read_to_string(&path).unwrap();
        assert_eq!(text, format!("[\n{kept},\n{record}\n]\n"));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_truncated_records_file_is_left_alone_and_the_error_names_the_spot() {
        let dir = temp_dir("truncated");
        let path = dir.join("backend_compare.json");
        let truncated = "[\n{\"bin\":\"compare_backends\",\"machine\":\"base\"},\n{\"bin\":\"comp";
        std::fs::write(&path, truncated).unwrap();
        let record = parse(r#"{"bin":"compare_backends","machine":"carf"}"#).unwrap();
        let err = update_records(&path, vec![record], &["bin", "machine"], 1).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert!(
            err.to_string().starts_with(&format!("{}:3:13: ", path.display())),
            "{err}"
        );
        assert_eq!(std::fs::read_to_string(&path).unwrap(), truncated);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn committed_ledgers_re_render_byte_identically() {
        let results = crate::parallel::workspace_root().join("results");
        let mut checked = 0;
        for entry in std::fs::read_dir(&results).expect("results/") {
            let path = entry.expect("dir entry").path();
            if path.extension().is_some_and(|e| e == "json") {
                let text = std::fs::read_to_string(&path).expect("ledger");
                let rows = parse_records(&text)
                    .unwrap_or_else(|e| panic!("{}:{e}", path.display()));
                assert_eq!(render_records(&rows), text, "{}", path.display());
                checked += 1;
            }
        }
        assert!(checked >= 5, "only {checked} ledgers under {}", results.display());
    }
}
