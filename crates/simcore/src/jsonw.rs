//! A minimal, dependency-free JSON writer — and the matching reader.
//!
//! The workspace builds in environments with no registry access, so machine-
//! readable output (Chrome traces, `BENCH_*.json`) is produced by this small
//! streaming writer instead of an external serialization crate. Output is
//! deterministic: field order is caller-controlled and float formatting uses
//! Rust's shortest-round-trip representation.
//!
//! [`parse`] is the reader side, used by tooling that validates what the
//! writer emitted (the `benchcheck` binary). It preserves the writer's
//! number split — unsigned integers come back as [`JsonValue::U64`], so a
//! checker can distinguish a real counter from a float that merely rounds —
//! and, being strict JSON, it has no NaN/Infinity literals: a non-finite
//! float can only appear as the `null` the writer substitutes, which is
//! exactly what validators look for.
//!
//! [`Shape`] declares what a report block looks like, once, beside the
//! code that writes it; [`Shape::check`] walks a parsed value against the
//! declaration, which is how `benchcheck` and `expgen` check reports.
//!
//! ```
//! use simcore::jsonw::JsonWriter;
//!
//! let mut w = JsonWriter::new();
//! w.begin_obj();
//! w.field_str("name", "smoke");
//! w.begin_arr_field("values");
//! w.u64_elem(1);
//! w.u64_elem(2);
//! w.end_arr();
//! w.end_obj();
//! assert_eq!(w.finish(), r#"{"name":"smoke","values":[1,2]}"#);
//! ```

use std::fmt::Write as _;

/// Streaming JSON writer with caller-driven structure. Numbers are
/// formatted straight into the output buffer, and strings that need no
/// escaping are copied in one `push_str`, so writing allocates only when
/// the buffer grows.
#[derive(Debug, Default)]
pub struct JsonWriter {
    out: String,
    /// One entry per open container: `true` until the first element lands.
    first: Vec<bool>,
}

/// Bytes JSON strings must escape. Every byte below 0x20 is an ASCII
/// control char: UTF-8 continuation bytes are all ≥ 0x80.
pub(crate) fn needs_escape(b: u8) -> bool {
    b == b'"' || b == b'\\' || b < 0x20
}

/// Appends `s` as a JSON string literal, escaped where it must be.
pub(crate) fn escape_into(out: &mut String, s: &str) {
    out.push('"');
    if !s.bytes().any(needs_escape) {
        out.push_str(s);
    } else {
        for c in s.chars() {
            match c {
                '"' => out.push_str("\\\""),
                '\\' => out.push_str("\\\\"),
                '\n' => out.push_str("\\n"),
                '\r' => out.push_str("\\r"),
                '\t' => out.push_str("\\t"),
                c if (c as u32) < 0x20 => {
                    let _ = write!(out, "\\u{:04x}", c as u32);
                }
                c => out.push(c),
            }
        }
    }
    out.push('"');
}

/// `"00"`, `"01"`, …, `"99"`: two digits per table step.
const DIGIT_PAIRS: [u8; 200] = {
    let mut t = [0u8; 200];
    let mut i = 0;
    while i < 100 {
        t[2 * i] = b'0' + (i / 10) as u8;
        t[2 * i + 1] = b'0' + (i % 10) as u8;
        i += 1;
    }
    t
};

/// Appends an unsigned integer in decimal, two digits per step. Trace
/// exports write millions of integers, and this skips the `fmt` machinery.
pub(crate) fn u64_into(out: &mut String, mut v: u64) {
    let mut buf = [0u8; 20];
    let mut i = buf.len();
    while v >= 100 {
        let pair = (v % 100) as usize * 2;
        v /= 100;
        i -= 2;
        buf[i..i + 2].copy_from_slice(&DIGIT_PAIRS[pair..pair + 2]);
    }
    if v >= 10 {
        let pair = v as usize * 2;
        i -= 2;
        buf[i..i + 2].copy_from_slice(&DIGIT_PAIRS[pair..pair + 2]);
    } else {
        i -= 1;
        buf[i] = b'0' + v as u8;
    }
    out.push_str(std::str::from_utf8(&buf[i..]).expect("ASCII digits"));
}

fn i64_into(out: &mut String, v: i64) {
    if v < 0 {
        out.push('-');
    }
    u64_into(out, v.unsigned_abs());
}

/// Appends a float in Rust's shortest round-trip form (`null` when
/// non-finite). `{}` prints integral floats without a dot; that is still
/// valid JSON.
pub(crate) fn f64_into(out: &mut String, v: f64) {
    if v.is_finite() {
        let _ = write!(out, "{v}");
    } else {
        out.push_str("null");
    }
}

/// Appends `ns as f64 / 1e3` (microseconds from integer nanoseconds) in
/// the same shortest round-trip form as [`f64_into`], straight from the
/// integer. Below 2^52 ns that form is exactly `ns / 1000` with the
/// fraction's trailing zeros trimmed: `ns` is exact as an `f64`, the
/// division rounds once to within half an ulp (at most 2^-11 there), so
/// every other decimal that rounds to the same `f64` lies within 2^-10 <
/// 0.001 of `ns / 1000`, needs at least four fraction digits, and is never
/// the shorter one. Larger values take the float path.
pub(crate) fn micros_into(out: &mut String, ns: u64) {
    if ns >= 1 << 52 {
        return f64_into(out, ns as f64 / 1e3);
    }
    u64_into(out, ns / 1000);
    let frac = (ns % 1000) as usize;
    if frac != 0 {
        let pair = (frac % 100) * 2;
        let digits = [
            b'.',
            b'0' + (frac / 100) as u8,
            DIGIT_PAIRS[pair],
            DIGIT_PAIRS[pair + 1],
        ];
        let zeros = digits.iter().rev().take_while(|&&d| d == b'0').count();
        let digits = &digits[..digits.len() - zeros];
        out.push_str(std::str::from_utf8(digits).expect("ASCII digits"));
    }
}

/// Appends the Chrome trace `dur` of a span from `start_ns` to `end_ns`
/// (`end_ns >= start_ns`): the float `end_ns / 1e3 - start_ns / 1e3` in
/// [`f64_into`]'s form. When that difference is bit-equal to `(end_ns -
/// start_ns) as f64 / 1e3`, the two print alike, so [`micros_into`] writes
/// it from the integer; otherwise (the two roundings of the operands left
/// a trace in the difference) it takes the float path.
pub(crate) fn dur_micros_into(out: &mut String, start_ns: u64, end_ns: u64) {
    let dur = end_ns as f64 / 1e3 - start_ns as f64 / 1e3;
    let ns = end_ns - start_ns;
    if ns < 1 << 52 && (ns as f64 / 1e3).to_bits() == dur.to_bits() {
        micros_into(out, ns);
    } else {
        f64_into(out, dur);
    }
}

impl JsonWriter {
    /// Creates an empty writer.
    pub fn new() -> Self {
        JsonWriter {
            out: String::new(),
            first: vec![true],
        }
    }

    fn comma(&mut self) {
        if let Some(f) = self.first.last_mut() {
            if *f {
                *f = false;
            } else {
                self.out.push(',');
            }
        }
    }

    fn key(&mut self, k: &str) {
        self.comma();
        escape_into(&mut self.out, k);
        self.out.push(':');
    }

    /// Opens an object as an array element (or as the document root).
    pub fn begin_obj(&mut self) {
        self.comma();
        self.out.push('{');
        self.first.push(true);
    }

    /// Opens an object-valued field.
    pub fn begin_obj_field(&mut self, k: &str) {
        self.key(k);
        self.out.push('{');
        self.first.push(true);
    }

    /// Closes the innermost object.
    pub fn end_obj(&mut self) {
        self.out.push('}');
        self.first.pop();
    }

    /// Opens an array as an array element (or as the document root).
    pub fn begin_arr(&mut self) {
        self.comma();
        self.out.push('[');
        self.first.push(true);
    }

    /// Opens an array-valued field.
    pub fn begin_arr_field(&mut self, k: &str) {
        self.key(k);
        self.out.push('[');
        self.first.push(true);
    }

    /// Closes the innermost array.
    pub fn end_arr(&mut self) {
        self.out.push(']');
        self.first.pop();
    }

    /// Writes a string field.
    pub fn field_str(&mut self, k: &str, v: &str) {
        self.key(k);
        escape_into(&mut self.out, v);
    }

    /// Writes an unsigned integer field.
    pub fn field_u64(&mut self, k: &str, v: u64) {
        self.key(k);
        u64_into(&mut self.out, v);
    }

    /// Writes a signed integer field (negative values carry the sign).
    pub fn field_i64(&mut self, k: &str, v: i64) {
        self.key(k);
        i64_into(&mut self.out, v);
    }

    /// Writes a float field (`null` for non-finite values).
    pub fn field_f64(&mut self, k: &str, v: f64) {
        self.key(k);
        f64_into(&mut self.out, v);
    }

    /// Writes a boolean field.
    pub fn field_bool(&mut self, k: &str, v: bool) {
        self.key(k);
        self.out.push_str(if v { "true" } else { "false" });
    }

    /// Writes a string array element.
    pub fn str_elem(&mut self, v: &str) {
        self.comma();
        escape_into(&mut self.out, v);
    }

    /// Writes an unsigned integer array element.
    pub fn u64_elem(&mut self, v: u64) {
        self.comma();
        u64_into(&mut self.out, v);
    }

    /// Writes a float array element (`null` for non-finite values).
    pub fn f64_elem(&mut self, v: f64) {
        self.comma();
        f64_into(&mut self.out, v);
    }

    /// Finishes and returns the accumulated JSON text.
    pub fn finish(self) -> String {
        self.out
    }
}

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum JsonValue {
    /// `null` (also what the writer emits for non-finite floats).
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A number that is lexically a non-negative integer fitting in `u64`.
    U64(u64),
    /// Any other number (negative, fractional, or exponent-form).
    F64(f64),
    /// A string.
    Str(String),
    /// An array, element order preserved.
    Arr(Vec<JsonValue>),
    /// An object, field order preserved (duplicate keys kept as written).
    Obj(Vec<(String, JsonValue)>),
}

impl JsonValue {
    /// Field lookup (first match) on an object; `None` on other variants.
    pub fn get(&self, key: &str) -> Option<&JsonValue> {
        match self {
            JsonValue::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The integer value, if this is a [`JsonValue::U64`].
    pub fn as_u64(&self) -> Option<u64> {
        match *self {
            JsonValue::U64(v) => Some(v),
            _ => None,
        }
    }

    /// The numeric value of either number variant.
    pub fn as_f64(&self) -> Option<f64> {
        match *self {
            JsonValue::U64(v) => Some(v as f64),
            JsonValue::F64(v) => Some(v),
            _ => None,
        }
    }

    /// The string value, if this is a [`JsonValue::Str`].
    pub fn as_str(&self) -> Option<&str> {
        match self {
            JsonValue::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The elements, if this is a [`JsonValue::Arr`].
    pub fn as_arr(&self) -> Option<&[JsonValue]> {
        match self {
            JsonValue::Arr(v) => Some(v),
            _ => None,
        }
    }

    /// The fields, if this is a [`JsonValue::Obj`].
    pub fn as_obj(&self) -> Option<&[(String, JsonValue)]> {
        match self {
            JsonValue::Obj(v) => Some(v),
            _ => None,
        }
    }

    /// The elements of the array field `key` (none when it is absent or
    /// not an array).
    pub fn items(&self, key: &str) -> &[JsonValue] {
        self.get(key)
            .and_then(JsonValue::as_arr)
            .unwrap_or_default()
    }

    /// The value at a path of object keys (`["host", "queue", "pushed"]`).
    pub fn at(&self, path: &[&str]) -> Option<&JsonValue> {
        path.iter().try_fold(self, |v, k| v.get(k))
    }
}

/// An invariant of a value whose [`Shape`] already passed. It gets the
/// value and its dotted path and returns the offending message.
pub type Rule = fn(&JsonValue, &str) -> Result<(), String>;

/// The declared shape of one report value.
///
/// Each report block declares its shape once, next to the code that
/// writes it; checkers and readers walk parsed reports through that
/// declaration with [`Shape::check`], which names the dotted path of the
/// first mismatch (`tail.exemplars[2].stages[0].excess_ns is not a finite
/// number`).
#[derive(Debug, Clone, Copy)]
pub enum Shape {
    /// A non-negative integer.
    Count,
    /// A finite number, integral or not.
    Number,
    /// A finite number above zero.
    Positive,
    /// Any string.
    Str,
    /// `true` or `false`.
    Bool,
    /// A string from a closed list.
    Label(&'static [&'static str]),
    /// A closed object: no undeclared key and every required field
    /// present. Its rule, if any, runs once every field passed.
    Obj(&'static [Field], Option<Rule>),
    /// An object keyed by exactly the listed labels.
    Keyed(&'static [&'static str], &'static Shape),
    /// An object with any keys.
    Map(&'static Shape),
    /// An array.
    Arr(&'static Shape),
}

/// One declared field of a [`Shape::Obj`].
#[derive(Debug, Clone, Copy)]
pub struct Field {
    /// The key.
    pub key: &'static str,
    /// The value's shape.
    pub shape: Shape,
    /// Whether every object carries the field.
    pub required: bool,
}

/// A field every object carries.
pub const fn req(key: &'static str, shape: Shape) -> Field {
    Field {
        key,
        shape,
        required: true,
    }
}

/// A field the writer emits only sometimes.
pub const fn opt(key: &'static str, shape: Shape) -> Field {
    Field {
        key,
        shape,
        required: false,
    }
}

/// `path.key`, or `key` at the root.
pub fn join(path: &str, key: &str) -> String {
    if path.is_empty() {
        key.to_string()
    } else {
        format!("{path}.{key}")
    }
}

impl Shape {
    /// Checks `v` against this shape; `path` names `v` in the message
    /// (`""` at the root).
    pub fn check(&self, v: &JsonValue, path: &str) -> Result<(), String> {
        let is = |what: &str| Err(format!("{} is {what}", subject(path)));
        let number = v.as_f64();
        match *self {
            // The writer emits null for NaN/Inf: a bench leaked a
            // non-finite float.
            Shape::Count | Shape::Number | Shape::Positive if *v == JsonValue::Null => {
                is("null (non-finite value)")
            }
            Shape::Count if v.as_u64().is_none() => is("not a non-negative integer"),
            Shape::Number if !number.is_some_and(f64::is_finite) => is("not a finite number"),
            Shape::Positive => match number {
                Some(n) if n.is_finite() && n > 0.0 => Ok(()),
                Some(n) => Err(format!("{path} = {n} is not a positive finite number")),
                None => is("not a positive finite number"),
            },
            Shape::Str if v.as_str().is_none() => is("not a string"),
            Shape::Bool if !matches!(v, JsonValue::Bool(_)) => is("not a boolean"),
            Shape::Count | Shape::Number | Shape::Str | Shape::Bool => Ok(()),
            Shape::Label(labels) => match v.as_str() {
                None => is("not a string"),
                Some(s) if labels.contains(&s) => Ok(()),
                Some(s) => Err(format!("{path} {s:?} is outside the closed label set")),
            },
            Shape::Arr(each) => match v.as_arr() {
                None => is("not an array"),
                Some(items) => items
                    .iter()
                    .enumerate()
                    .try_for_each(|(i, x)| each.check(x, &format!("{path}[{i}]"))),
            },
            Shape::Obj(decl, rule) => {
                closed(fields(v, path)?, path, |k| decl.iter().any(|f| f.key == k))?;
                for f in decl {
                    match v.get(f.key) {
                        Some(x) => f.shape.check(x, &join(path, f.key))?,
                        None if f.required => {
                            return Err(format!("{} is missing", join(path, f.key)))
                        }
                        None => {}
                    }
                }
                rule.map_or(Ok(()), |rule| rule(v, path))
            }
            Shape::Keyed(labels, each) => {
                closed(fields(v, path)?, path, |k| labels.contains(&k))?;
                labels.iter().try_for_each(|l| match v.get(l) {
                    Some(x) => each.check(x, &join(path, l)),
                    None => Err(format!("{} is missing", join(path, l))),
                })
            }
            Shape::Map(each) => fields(v, path)?
                .iter()
                .try_for_each(|(k, x)| each.check(x, &join(path, k))),
        }
    }
}

/// `path` as the subject of a message.
fn subject(path: &str) -> &str {
    if path.is_empty() {
        "the value"
    } else {
        path
    }
}

/// The fields of an object-shaped value.
fn fields<'a>(v: &'a JsonValue, path: &str) -> Result<&'a [(String, JsonValue)], String> {
    v.as_obj()
        .ok_or_else(|| format!("{} is not an object", subject(path)))
}

/// Rejects the first key `declared` does not accept.
fn closed(
    fields: &[(String, JsonValue)],
    path: &str,
    declared: impl Fn(&str) -> bool,
) -> Result<(), String> {
    match fields.iter().find(|(k, _)| !declared(k)) {
        Some((k, _)) => Err(format!("{} is outside the closed key set", join(path, k))),
        None => Ok(()),
    }
}

/// A parse failure: byte offset and what went wrong there.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonParseError {
    /// Byte offset into the input.
    pub pos: usize,
    /// Human-readable description.
    pub msg: String,
}

impl std::fmt::Display for JsonParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "json parse error at byte {}: {}", self.pos, self.msg)
    }
}

impl std::error::Error for JsonParseError {}

/// Parses one JSON document; trailing non-whitespace is an error.
pub fn parse(text: &str) -> Result<JsonValue, JsonParseError> {
    let mut p = Parser {
        bytes: text.as_bytes(),
        pos: 0,
    };
    p.skip_ws();
    let v = p.value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(p.err("trailing data after document"));
    }
    Ok(v)
}

/// Parses the JSON value `text` opens, returning it with the bytes it
/// spans; whatever follows it is left unread.
pub fn parse_prefix(text: &str) -> Result<(JsonValue, usize), JsonParseError> {
    let mut p = Parser {
        bytes: text.as_bytes(),
        pos: 0,
    };
    let v = p.value()?;
    Ok((v, p.pos))
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
    fn err(&self, msg: &str) -> JsonParseError {
        JsonParseError {
            pos: self.pos,
            msg: msg.to_string(),
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, b: u8) -> Result<(), JsonParseError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(&format!("expected '{}'", b as char)))
        }
    }

    fn literal(&mut self, word: &str, v: JsonValue) -> Result<JsonValue, JsonParseError> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(v)
        } else {
            Err(self.err(&format!("expected '{word}'")))
        }
    }

    fn value(&mut self) -> Result<JsonValue, JsonParseError> {
        match self.peek() {
            Some(b'{') => self.object(),
            Some(b'[') => self.array(),
            Some(b'"') => Ok(JsonValue::Str(self.string()?)),
            Some(b't') => self.literal("true", JsonValue::Bool(true)),
            Some(b'f') => self.literal("false", JsonValue::Bool(false)),
            Some(b'n') => self.literal("null", JsonValue::Null),
            Some(b'-' | b'0'..=b'9') => self.number(),
            _ => Err(self.err("expected a value")),
        }
    }

    fn object(&mut self) -> Result<JsonValue, JsonParseError> {
        self.expect(b'{')?;
        let mut fields = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(JsonValue::Obj(fields));
        }
        loop {
            self.skip_ws();
            let k = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            fields.push((k, self.value()?));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(JsonValue::Obj(fields));
                }
                _ => return Err(self.err("expected ',' or '}'")),
            }
        }
    }

    fn array(&mut self) -> Result<JsonValue, JsonParseError> {
        self.expect(b'[')?;
        let mut elems = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(JsonValue::Arr(elems));
        }
        loop {
            self.skip_ws();
            elems.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(JsonValue::Arr(elems));
                }
                _ => return Err(self.err("expected ',' or ']'")),
            }
        }
    }

    fn hex4(&mut self) -> Result<u32, JsonParseError> {
        let s = self
            .bytes
            .get(self.pos..self.pos + 4)
            .and_then(|b| std::str::from_utf8(b).ok())
            .ok_or_else(|| self.err("truncated \\u escape"))?;
        let v = u32::from_str_radix(s, 16).map_err(|_| self.err("bad \\u escape"))?;
        self.pos += 4;
        Ok(v)
    }

    fn string(&mut self) -> Result<String, JsonParseError> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err(self.err("unterminated string")),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    let esc = self.peek().ok_or_else(|| self.err("truncated escape"))?;
                    self.pos += 1;
                    match esc {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'b' => out.push('\u{8}'),
                        b'f' => out.push('\u{c}'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'u' => {
                            let hi = self.hex4()?;
                            let cp = if (0xD800..0xDC00).contains(&hi) {
                                // Surrogate pair: a following \uXXXX low half.
                                self.expect(b'\\')?;
                                self.expect(b'u')?;
                                let lo = self.hex4()?;
                                if !(0xDC00..0xE000).contains(&lo) {
                                    return Err(self.err("unpaired surrogate"));
                                }
                                0x10000 + ((hi - 0xD800) << 10) + (lo - 0xDC00)
                            } else {
                                hi
                            };
                            out.push(
                                char::from_u32(cp).ok_or_else(|| self.err("invalid codepoint"))?,
                            );
                        }
                        _ => return Err(self.err("unknown escape")),
                    }
                }
                Some(_) => {
                    // Consume one UTF-8 scalar (input is &str, so in-bounds
                    // continuation bytes are guaranteed well-formed).
                    let rest = &self.bytes[self.pos..];
                    let s = next_scalar_str(rest);
                    out.push_str(s);
                    self.pos += s.len();
                }
            }
        }
    }

    fn number(&mut self) -> Result<JsonValue, JsonParseError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(self.peek(), Some(b'0'..=b'9')) {
            self.pos += 1;
        }
        let mut integral = true;
        if self.peek() == Some(b'.') {
            integral = false;
            self.pos += 1;
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            integral = false;
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
        }
        let s = std::str::from_utf8(&self.bytes[start..self.pos]).expect("ascii number");
        if integral && !s.starts_with('-') {
            if let Ok(v) = s.parse::<u64>() {
                return Ok(JsonValue::U64(v));
            }
        }
        s.parse::<f64>()
            .map(JsonValue::F64)
            .map_err(|_| self.err("malformed number"))
    }
}

/// The longest prefix of `rest` that is one UTF-8 scalar. `rest` starts at
/// a char boundary of a `&str`, so the slice is always valid.
fn next_scalar_str(rest: &[u8]) -> &str {
    let len = match rest[0] {
        b if b < 0x80 => 1,
        b if b < 0xE0 => 2,
        b if b < 0xF0 => 3,
        _ => 4,
    };
    std::str::from_utf8(&rest[..len]).expect("input was a str")
}

/// Serializes a parsed [`JsonValue`] tree back to the writer's compact,
/// deterministic format (field order preserved, non-finite floats as
/// `null`). `parse` → `to_string` is the identity on writer output up to
/// float re-formatting — both sides of a canonicalized comparison go
/// through the same path, so the representation is stable where it counts.
pub fn to_string(v: &JsonValue) -> String {
    let mut out = String::new();
    value_into(&mut out, v);
    out
}

fn value_into(out: &mut String, v: &JsonValue) {
    match v {
        JsonValue::Null => out.push_str("null"),
        JsonValue::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
        JsonValue::U64(n) => u64_into(out, *n),
        JsonValue::F64(f) => f64_into(out, *f),
        JsonValue::Str(s) => escape_into(out, s),
        JsonValue::Arr(elems) => {
            out.push('[');
            for (i, e) in elems.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                value_into(out, e);
            }
            out.push(']');
        }
        JsonValue::Obj(fields) => {
            out.push('{');
            let mut first = true;
            for (k, val) in fields {
                if !first {
                    out.push(',');
                }
                first = false;
                escape_into(out, k);
                out.push(':');
                value_into(out, val);
            }
            out.push('}');
        }
    }
}

/// True for object keys the canonicalizer drops: the `host` block itself,
/// any flattened `host.*` key, and bare wall-clock fields — everything
/// that legitimately differs between two same-seed runs.
fn is_volatile_host_key(key: &str) -> bool {
    key == "host"
        || key.starts_with("host.")
        || matches!(
            key,
            "wall_ms" | "wall_ns" | "observed_wall_ms" | "bare_wall_ms"
        )
}

fn strip_volatile(v: JsonValue) -> JsonValue {
    match v {
        JsonValue::Obj(fields) => JsonValue::Obj(
            fields
                .into_iter()
                .filter(|(k, _)| !is_volatile_host_key(k))
                .map(|(k, val)| (k, strip_volatile(val)))
                .collect(),
        ),
        JsonValue::Arr(elems) => JsonValue::Arr(elems.into_iter().map(strip_volatile).collect()),
        other => other,
    }
}

/// The shared report canonicalizer for same-seed byte-identity tests:
/// parses `text`, recursively drops every volatile host-side field (the
/// `host` block of `BENCH_*.json` scenarios, flattened `host.*` keys, bare
/// wall-clock fields), and re-serializes deterministically. Two same-seed
/// reports must canonicalize to identical bytes whether or not host
/// profiling ran — host wall-clock measurements are the *only* fields
/// allowed to differ.
///
/// ```
/// use simcore::jsonw::canonicalize_report;
///
/// let a = r#"{"ops":7,"host":{"wall_ms":3.2},"nested":[{"host.queue.pushed":9,"x":1}]}"#;
/// let b = r#"{"ops":7,"host":{"wall_ms":9.9},"nested":[{"host.queue.pushed":4,"x":1}]}"#;
/// assert_eq!(
///     canonicalize_report(a).unwrap(),
///     canonicalize_report(b).unwrap()
/// );
/// ```
pub fn canonicalize_report(text: &str) -> Result<String, JsonParseError> {
    Ok(to_string(&strip_volatile(parse(text)?)))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_prefix_parse_stops_after_the_first_value() {
        let text = r#"{"ph":"C","args":{"v":"}"}},{"ph":"X"}]}"#;
        let (v, len) = parse_prefix(text).expect("one object");
        assert_eq!(&text[len..], r#",{"ph":"X"}]}"#);
        assert_eq!(v.at(&["args", "v"]).and_then(JsonValue::as_str), Some("}"));
        assert!(
            parse_prefix("{\"ph\":").is_err(),
            "a cut-off value is an error"
        );
    }

    #[test]
    fn nested_structures_and_escaping() {
        let mut w = JsonWriter::new();
        w.begin_obj();
        w.field_str("a\"b", "line\nbreak\t\\");
        w.begin_obj_field("inner");
        w.field_u64("n", 42);
        w.field_bool("ok", true);
        w.end_obj();
        w.begin_arr_field("xs");
        w.f64_elem(1.5);
        w.f64_elem(f64::NAN);
        w.str_elem("s");
        w.end_arr();
        w.end_obj();
        assert_eq!(
            w.finish(),
            r#"{"a\"b":"line\nbreak\t\\","inner":{"n":42,"ok":true},"xs":[1.5,null,"s"]}"#
        );
    }

    #[test]
    fn control_chars_are_escaped() {
        let mut w = JsonWriter::new();
        w.begin_arr();
        w.str_elem("\u{1}");
        w.end_arr();
        assert_eq!(w.finish(), "[\"\\u0001\"]");
    }

    #[test]
    fn reader_round_trips_writer_output() {
        let mut w = JsonWriter::new();
        w.begin_obj();
        w.field_str("name", "smö\"ke\n");
        w.field_u64("count", u64::MAX);
        w.field_f64("mean", 1.25);
        w.field_f64("bad", f64::NAN);
        w.field_bool("ok", true);
        w.begin_arr_field("xs");
        w.u64_elem(3);
        w.f64_elem(-0.5);
        w.end_arr();
        w.begin_obj_field("inner");
        w.end_obj();
        w.end_obj();
        let v = parse(&w.finish()).unwrap();
        assert_eq!(v.get("name").unwrap().as_str(), Some("smö\"ke\n"));
        assert_eq!(v.get("count").unwrap().as_u64(), Some(u64::MAX));
        assert_eq!(v.get("mean").unwrap().as_f64(), Some(1.25));
        // The writer turns non-finite floats into null — the reader keeps
        // that distinction so validators can flag it.
        assert_eq!(v.get("bad"), Some(&JsonValue::Null));
        assert_eq!(v.get("ok"), Some(&JsonValue::Bool(true)));
        let xs = v.get("xs").unwrap().as_arr().unwrap();
        assert_eq!(xs[0].as_u64(), Some(3));
        assert_eq!(xs[1], JsonValue::F64(-0.5));
        assert_eq!(v.get("inner").unwrap().as_obj(), Some(&[][..]));
    }

    #[test]
    fn reader_distinguishes_integers_from_floats() {
        let v = parse(r#"[7, -7, 7.0, 7e0]"#).unwrap();
        let xs = v.as_arr().unwrap();
        assert_eq!(xs[0], JsonValue::U64(7));
        assert_eq!(xs[1], JsonValue::F64(-7.0));
        assert_eq!(xs[2], JsonValue::F64(7.0));
        assert_eq!(xs[3], JsonValue::F64(7.0));
    }

    #[test]
    fn reader_rejects_malformed_documents() {
        for bad in [
            "",
            "{",
            "[1,",
            "{\"a\":}",
            "tru",
            "\"unterminated",
            "{\"a\":1}x",
            "nan",
        ] {
            assert!(parse(bad).is_err(), "accepted malformed input: {bad:?}");
        }
        // Surrogate-pair escapes decode to one scalar.
        let v = parse(r#""\ud83d\ude00""#).unwrap();
        assert_eq!(v.as_str(), Some("😀"));
    }

    #[test]
    fn to_string_round_trips_writer_output_byte_for_byte() {
        let mut w = JsonWriter::new();
        w.begin_obj();
        w.field_str("name", "smö\"ke\n");
        w.field_u64("count", u64::MAX);
        w.field_f64("mean", 1.25);
        w.field_f64("bad", f64::NAN);
        w.field_bool("ok", true);
        w.begin_arr_field("xs");
        w.u64_elem(3);
        w.f64_elem(-0.5);
        w.end_arr();
        w.begin_obj_field("inner");
        w.end_obj();
        w.end_obj();
        let text = w.finish();
        let reserialized = to_string(&parse(&text).unwrap());
        assert_eq!(reserialized, text);
        // Idempotent: canonical text parses back to the same tree.
        assert_eq!(to_string(&parse(&reserialized).unwrap()), reserialized);
    }

    #[test]
    fn canonicalize_strips_host_blocks_everywhere() {
        let a = r#"{"x":1,"host":{"wall_ms":1.5,"ops_per_sec":10},"scenarios":[{"n":"a","host":{"wall_ms":2}},{"host.queue.pushed":7,"wall_ms":3,"keep":true}]}"#;
        let b = r#"{"x":1,"host":{"wall_ms":8.25,"ops_per_sec":99},"scenarios":[{"n":"a","host":{"wall_ms":9}},{"host.queue.pushed":1,"wall_ms":4,"keep":true}]}"#;
        let ca = canonicalize_report(a).unwrap();
        assert_eq!(ca, canonicalize_report(b).unwrap());
        assert!(!ca.contains("host"));
        assert!(!ca.contains("wall_ms"));
        assert!(ca.contains("\"keep\":true"));
        // Non-host content still distinguishes reports.
        let c = canonicalize_report(r#"{"x":2,"host":{"wall_ms":1.5}}"#).unwrap();
        assert_ne!(canonicalize_report(r#"{"x":1}"#).unwrap(), c);
    }

    #[test]
    fn integer_and_micros_fields_match_fmt_output() {
        let micros = |ns: u64| {
            let mut a = String::new();
            micros_into(&mut a, ns);
            let mut b = String::new();
            let _ = write!(b, "{}", ns as f64 / 1e3);
            assert_eq!(a, b, "ns = {ns}");
        };
        let int = |v: u64| {
            let mut a = String::new();
            u64_into(&mut a, v);
            assert_eq!(a, v.to_string());
        };
        for ns in 0..200_000 {
            micros(ns);
            int(ns);
        }
        let mut rng = crate::rng::SimRng::new(7);
        for _ in 0..200_000 {
            let bits = rng.gen_range(1..65);
            let v = rng.next_u64() >> (64 - bits);
            int(v);
            micros(v);
        }
        for p in 0..64 {
            for v in [(1u64 << p) - 1, 1 << p, (1 << p) + 1] {
                int(v);
                micros(v);
            }
        }
        for v in [u64::MAX, u64::MAX - 1, 10u64.pow(19), 10u64.pow(19) - 1] {
            int(v);
            micros(v);
        }
        let mut neg = String::new();
        i64_into(&mut neg, i64::MIN);
        assert_eq!(neg, i64::MIN.to_string());
    }

    #[test]
    fn span_durations_match_the_float_difference() {
        let dur = |a: u64, b: u64| {
            let mut fast = String::new();
            dur_micros_into(&mut fast, a, b);
            let mut float = String::new();
            f64_into(&mut float, b as f64 / 1e3 - a as f64 / 1e3);
            assert_eq!(fast, float, "{a}..{b}");
        };
        let mut rng = crate::rng::SimRng::new(11);
        for _ in 0..200_000 {
            let bits = rng.gen_range(1..60);
            let a = rng.next_u64() >> (64 - bits);
            let gap = rng.next_u64() >> (64 - rng.gen_range(1..40));
            dur(a, a.saturating_add(gap));
        }
        for a in [
            0,
            1,
            999,
            1000,
            1 << 40,
            (1 << 52) - 1,
            1 << 52,
            u64::MAX - 5,
        ] {
            for gap in [0, 1, 7, 1000, 123_456] {
                dur(a, a.saturating_add(gap));
            }
        }
    }

    #[test]
    fn canonicalize_rejects_malformed_reports() {
        assert!(canonicalize_report("{").is_err());
    }

    #[test]
    fn shapes_name_the_dotted_path_of_the_first_mismatch() {
        const ROW: Shape = Shape::Obj(
            &[req("label", Shape::Str), req("excess_ns", Shape::Number)],
            None,
        );
        const BLOCK: Shape = Shape::Obj(
            &[
                req("n", Shape::Count),
                opt("rate", Shape::Positive),
                req("kind", Shape::Label(&["a", "b"])),
                req("by", Shape::Keyed(&["x", "y"], &Shape::Count)),
                req("any", Shape::Map(&Shape::Bool)),
                req("rows", Shape::Arr(&ROW)),
            ],
            Some(|v, path| match v.get("n").and_then(JsonValue::as_u64) {
                Some(13) => Err(format!("{path}.n is unlucky")),
                _ => Ok(()),
            }),
        );
        let ok = r#"{"n":1,"kind":"a","by":{"x":1,"y":2},"any":{"q":true},"rows":[{"label":"s","excess_ns":-3}]}"#;
        BLOCK.check(&parse(ok).unwrap(), "blk").expect("valid");
        for (from, to, msg) in [
            (
                r#""n":1"#,
                r#""n":-1"#,
                "blk.n is not a non-negative integer",
            ),
            (
                r#""n":1"#,
                r#""n":null"#,
                "blk.n is null (non-finite value)",
            ),
            (r#""n":1,"#, "", "blk.n is missing"),
            (r#""n":1"#, r#""n":13"#, "blk.n is unlucky"),
            (
                r#""n":1"#,
                r#""n":1,"rate":0"#,
                "blk.rate = 0 is not a positive finite number",
            ),
            (
                r#""a""#,
                r#""c""#,
                r#"blk.kind "c" is outside the closed label set"#,
            ),
            (r#","y":2"#, "", "blk.by.y is missing"),
            (
                r#""y":2"#,
                r#""y":2,"z":3"#,
                "blk.by.z is outside the closed key set",
            ),
            ("true", "1", "blk.any.q is not a boolean"),
            (
                "-3",
                r#""x""#,
                "blk.rows[0].excess_ns is not a finite number",
            ),
            (
                "-3}",
                r#"-3,"extra":1}"#,
                "blk.rows[0].extra is outside the closed key set",
            ),
            (
                r#"[{"label":"s","excess_ns":-3}]"#,
                "{}",
                "blk.rows is not an array",
            ),
        ] {
            let bad = parse(&ok.replacen(from, to, 1)).unwrap();
            assert_eq!(
                BLOCK.check(&bad, "blk"),
                Err(msg.to_string()),
                "{from} -> {to}"
            );
        }
        assert_eq!(
            BLOCK.check(&JsonValue::U64(3), "blk"),
            Err("blk is not an object".into())
        );
        assert_eq!(
            ROW.check(&JsonValue::Null, ""),
            Err("the value is not an object".into())
        );
    }
}
