//! The workspace's JSON: one value type, one parser, one writer.
//!
//! [`ScenarioSpec::to_json`](crate::ScenarioSpec::to_json) /
//! [`from_json`](crate::ScenarioSpec::from_json) and every `BENCH_*.json`
//! artifact the `bench` harnesses write go through this module. Object
//! members keep their insertion order, and numbers are kept as raw tokens —
//! a `u64` seed or a `{:.3}` figure is written, read back and compared as
//! the exact text it was, never through `f64`.
//!
//! The writer has two outputs and no layout options:
//! [`Value::to_compact`] (one line, no whitespace — the spec form) and
//! [`Value::to_pretty`] (the artifact form: two-space indent, one member per
//! line, except that an object or array whose members are all scalars goes
//! on one line). The parser accepts any whitespace and rejects malformed
//! documents with an error naming the byte or field at fault.

use std::fmt::Write as _;

/// A JSON value.
#[derive(Clone, Debug, PartialEq)]
pub enum Value {
    /// `null`.
    Null,
    /// `true` or `false`.
    Bool(bool),
    /// A number, as its raw token (`2020`, `0.9500`, `1e-9`).
    Num(String),
    /// A string, unescaped.
    Str(String),
    /// An array.
    Arr(Vec<Value>),
    /// An object; members in document order.
    Obj(Vec<(String, Value)>),
}

impl Value {
    /// An object with the given members, in the given order.
    pub fn obj<K: Into<String>>(members: impl IntoIterator<Item = (K, Value)>) -> Value {
        Value::Obj(members.into_iter().map(|(k, v)| (k.into(), v)).collect())
    }

    /// A number written with `decimals` digits after the point (`{:.N}`).
    pub fn fixed(x: f64, decimals: usize) -> Value {
        Value::Num(format!("{x:.decimals$}"))
    }

    /// The member `key` of an object.
    pub fn get(&self, key: &str) -> Result<&Value, String> {
        match self {
            Value::Obj(members) => members
                .iter()
                .find(|(k, _)| k == key)
                .map(|(_, v)| v)
                .ok_or_else(|| format!("missing field `{key}`")),
            _ => Err(format!("expected object around `{key}`")),
        }
    }

    /// This number as a `u64`; `key` names it in the error.
    pub fn as_u64(&self, key: &str) -> Result<u64, String> {
        match self {
            Value::Num(raw) => raw
                .parse::<u64>()
                .map_err(|_| format!("`{key}`: not a u64: {raw}")),
            _ => Err(format!("`{key}`: expected a number")),
        }
    }

    /// This number as an `f64`; `key` names it in the error.
    pub fn as_f64(&self, key: &str) -> Result<f64, String> {
        match self {
            Value::Num(raw) => raw
                .parse::<f64>()
                .map_err(|_| format!("`{key}`: not a number: {raw}")),
            _ => Err(format!("`{key}`: expected a number")),
        }
    }

    /// This bool; `key` names it in the error.
    pub fn as_bool(&self, key: &str) -> Result<bool, String> {
        match self {
            Value::Bool(b) => Ok(*b),
            _ => Err(format!("`{key}`: expected a bool")),
        }
    }

    /// This string; `key` names it in the error.
    pub fn as_str(&self, key: &str) -> Result<&str, String> {
        match self {
            Value::Str(s) => Ok(s),
            _ => Err(format!("`{key}`: expected a string")),
        }
    }

    /// This array's items; `key` names it in the error.
    pub fn as_arr(&self, key: &str) -> Result<&[Value], String> {
        match self {
            Value::Arr(items) => Ok(items),
            _ => Err(format!("`{key}`: expected an array")),
        }
    }

    /// The document on one line with no whitespace.
    pub fn to_compact(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, None);
        out
    }

    /// The document in the artifact layout: two-space indent, one member per
    /// line, except that an object or array whose members are all scalars
    /// goes on one line (`{ "a": 1, "b": 2 }`, `[1, 2]`).
    pub fn to_pretty(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, Some(0));
        out
    }

    /// Appends this value; `indent` is the current depth in spaces, `None`
    /// for the compact form.
    fn write(&self, out: &mut String, indent: Option<usize>) {
        match self {
            Value::Null => out.push_str("null"),
            Value::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Value::Num(raw) => out.push_str(raw),
            Value::Str(s) => write_str(out, s),
            Value::Arr(items) => {
                write_members(out, indent, ['[', ']'], items.iter().map(|v| (None, v)))
            }
            Value::Obj(members) => write_members(
                out,
                indent,
                ['{', '}'],
                members.iter().map(|(k, v)| (Some(k.as_str()), v)),
            ),
        }
    }
}

/// Appends an array's items or an object's members between their brackets.
fn write_members<'a>(
    out: &mut String,
    indent: Option<usize>,
    [open, close]: [char; 2],
    members: impl Iterator<Item = (Option<&'a str>, &'a Value)> + Clone,
) {
    let nested = members
        .clone()
        .any(|(_, v)| matches!(v, Value::Arr(_) | Value::Obj(_)));
    // What goes after the first bracket, between members and before the
    // last bracket, and the depth the members are written at.
    let (lead, sep, trail, depth) = match indent {
        None => (String::new(), ",".to_string(), String::new(), None),
        Some(n) if nested => {
            let line = format!("\n{}", " ".repeat(n + 2));
            let sep = format!(",{line}");
            (line, sep, format!("\n{}", " ".repeat(n)), Some(n + 2))
        }
        Some(n) => {
            let pad = if open == '{' { " " } else { "" };
            (pad.to_string(), ", ".to_string(), pad.to_string(), Some(n))
        }
    };
    out.push(open);
    let mut first = true;
    for (key, value) in members {
        out.push_str(if first { &lead } else { &sep });
        first = false;
        if let Some(key) = key {
            write_str(out, key);
            out.push_str(if indent.is_some() { ": " } else { ":" });
        }
        value.write(out, depth);
    }
    if !first {
        out.push_str(&trail);
    }
    out.push(close);
}

/// Appends `s` as a quoted, escaped JSON string.
fn write_str(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

macro_rules! num_from {
    ($($t:ty),*) => {$(
        impl From<$t> for Value {
            fn from(n: $t) -> Value {
                Value::Num(n.to_string())
            }
        }
    )*};
}
// `f64` through `Display`: the shortest text that reads back as the same
// number (`1500`, `0.4`), which is what the spec form has always written.
num_from!(u32, u64, usize, f64);

impl From<bool> for Value {
    fn from(b: bool) -> Value {
        Value::Bool(b)
    }
}

impl From<&str> for Value {
    fn from(s: &str) -> Value {
        Value::Str(s.to_string())
    }
}

impl FromIterator<Value> for Value {
    fn from_iter<I: IntoIterator<Item = Value>>(items: I) -> Value {
        Value::Arr(items.into_iter().collect())
    }
}

/// Parses one JSON document; anything after it but whitespace is an error.
pub fn parse(text: &str) -> Result<Value, String> {
    let mut parser = Parser { text, pos: 0 };
    let value = parser.value()?;
    parser.skip_ws();
    if parser.pos != text.len() {
        return Err(format!("trailing garbage at byte {}", parser.pos));
    }
    Ok(value)
}

/// A recursive-descent reader; `pos` is a byte offset into `text`, always on
/// a character boundary.
struct Parser<'a> {
    text: &'a str,
    pos: usize,
}

impl<'a> Parser<'a> {
    /// Advances past the longest prefix of the rest made of `accept`
    /// characters and returns it.
    fn take_while(&mut self, accept: impl Fn(char) -> bool) -> &'a str {
        let rest = &self.text[self.pos..];
        let taken = &rest[..rest.len() - rest.trim_start_matches(accept).len()];
        self.pos += taken.len();
        taken
    }

    fn skip_ws(&mut self) {
        self.take_while(|c| matches!(c, ' ' | '\t' | '\n' | '\r'));
    }

    fn peek(&mut self) -> Result<u8, String> {
        self.skip_ws();
        let next = self.text.as_bytes().get(self.pos).copied();
        next.ok_or_else(|| "unexpected end of input".to_string())
    }

    fn expect(&mut self, b: u8) -> Result<(), String> {
        if self.peek()? == b {
            self.pos += 1;
            Ok(())
        } else {
            Err(format!("expected `{}` at byte {}", b as char, self.pos))
        }
    }

    fn value(&mut self) -> Result<Value, String> {
        match self.peek()? {
            b'{' => {
                let mut members = Vec::new();
                self.members(b'}', |p| {
                    let key = p.string()?;
                    p.expect(b':')?;
                    members.push((key, p.value()?));
                    Ok(())
                })?;
                Ok(Value::Obj(members))
            }
            b'[' => {
                let mut items = Vec::new();
                self.members(b']', |p| {
                    items.push(p.value()?);
                    Ok(())
                })?;
                Ok(Value::Arr(items))
            }
            b'"' => Ok(Value::Str(self.string()?)),
            b't' => self.literal("true", Value::Bool(true)),
            b'f' => self.literal("false", Value::Bool(false)),
            b'n' => self.literal("null", Value::Null),
            _ => self.number(),
        }
    }

    /// Reads the comma-separated members of the array or object whose
    /// opening bracket is next, through its `close` bracket.
    fn members(
        &mut self,
        close: u8,
        mut member: impl FnMut(&mut Self) -> Result<(), String>,
    ) -> Result<(), String> {
        self.pos += 1;
        if self.peek()? == close {
            self.pos += 1;
            return Ok(());
        }
        loop {
            member(self)?;
            match self.peek()? {
                b',' => self.pos += 1,
                b if b == close => {
                    self.pos += 1;
                    return Ok(());
                }
                other => {
                    let (close, other) = (close as char, other as char);
                    return Err(format!("expected `,` or `{close}`, got `{other}`"));
                }
            }
        }
    }

    fn literal(&mut self, text: &str, value: Value) -> Result<Value, String> {
        if self.text[self.pos..].starts_with(text) {
            self.pos += text.len();
            Ok(value)
        } else {
            Err(format!("invalid literal at byte {}", self.pos))
        }
    }

    fn number(&mut self) -> Result<Value, String> {
        let start = self.pos;
        let raw =
            self.take_while(|c| c.is_ascii_digit() || matches!(c, '-' | '+' | '.' | 'e' | 'E'));
        if raw.is_empty() {
            return Err(format!("expected a value at byte {start}"));
        }
        raw.parse::<f64>()
            .map_err(|_| format!("malformed number: {raw}"))?;
        Ok(Value::Num(raw.to_string()))
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            let rest = &self.text[self.pos..];
            let end = rest.find(['"', '\\']).ok_or("unterminated string")?;
            out.push_str(&rest[..end]);
            self.pos += end + 1;
            if rest.as_bytes()[end] == b'"' {
                return Ok(out);
            }
            let esc = *self
                .text
                .as_bytes()
                .get(self.pos)
                .ok_or("unterminated escape")?;
            self.pos += 1;
            out.push(match esc {
                b'"' => '"',
                b'\\' => '\\',
                b'/' => '/',
                b'n' => '\n',
                b't' => '\t',
                b'r' => '\r',
                b'u' => {
                    let hex = self.text.get(self.pos..self.pos + 4);
                    let hex = hex.ok_or("truncated \\u escape")?;
                    let code = u32::from_str_radix(hex, 16)
                        .map_err(|_| format!("bad \\u escape: {hex}"))?;
                    self.pos += 4;
                    char::from_u32(code).ok_or_else(|| format!("bad codepoint {code}"))?
                }
                _ => return Err(format!("unknown escape \\{}", esc as char)),
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use proptest::test_runner::TestRng;

    /// Strings the writer must escape and the parser restore exactly.
    const STRINGS: [&str; 6] = [
        "",
        "plain",
        "quote \" and backslash \\",
        "control \n\t\r \u{1} \u{1f}",
        "non-ASCII é 日本 🦀",
        "hostile \"quoted\"\nname",
    ];
    /// Number tokens that must come back as the same text.
    const NUMBERS: [&str; 6] = [
        "0",
        "18446744073709551615",
        "-0.5",
        "1e-9",
        "24.000",
        "0.90",
    ];

    fn below(rng: &mut TestRng, n: usize) -> usize {
        rng.gen_range_usize(0, n)
    }

    /// A random tree at most `depth` containers deep, empty containers
    /// included.
    fn arb_value(rng: &mut TestRng, depth: u32) -> Value {
        match below(rng, if depth == 0 { 4 } else { 6 }) {
            0 => Value::Null,
            1 => Value::Bool(rng.next_u64() & 1 == 1),
            2 => match below(rng, 3) {
                0 => Value::Num(NUMBERS[below(rng, NUMBERS.len())].to_string()),
                1 => rng.next_u64().into(),
                _ => Value::fixed(rng.next_f64() * 1e4, below(rng, 7)),
            },
            3 => STRINGS[below(rng, STRINGS.len())].into(),
            4 => (0..below(rng, 4))
                .map(|_| arb_value(rng, depth - 1))
                .collect(),
            _ => {
                let members: Vec<(String, Value)> = (0..below(rng, 4))
                    .map(|i| {
                        let key = format!("{}{i}", STRINGS[below(rng, STRINGS.len())]);
                        (key, arb_value(rng, depth - 1))
                    })
                    .collect();
                Value::Obj(members)
            }
        }
    }

    proptest! {
        #[test]
        fn both_outputs_parse_back_to_the_same_tree(seed in any::<u64>()) {
            let tree = arb_value(&mut TestRng::new(seed), 4);
            prop_assert_eq!(parse(&tree.to_compact()), Ok(tree.clone()));
            prop_assert_eq!(parse(&tree.to_pretty()), Ok(tree));
        }
    }

    #[test]
    fn malformed_documents_are_errors() {
        for bad in [
            "[1, 2",
            "[1,]",
            r#"{ "a": 1, }"#,
            r#"{ "a" 1 }"#,
            r#"["\b"]"#,
            r#"["\u12"]"#,
            r#"["\ud800"]"#,
            r#"["open"#,
            "[1e]",
            "nul",
            "[] []",
        ] {
            assert!(parse(bad).is_err(), "{bad} parsed");
        }
    }

    #[test]
    fn pretty_puts_a_container_of_scalars_on_one_line() {
        let doc = Value::obj([
            ("flat", Value::obj([("a", 1u64.into()), ("b", "x".into())])),
            ("list", [1u64, 2].into_iter().map(Value::from).collect()),
            ("empty", Value::obj(Vec::<(String, Value)>::new())),
            (
                "rows",
                [Value::obj([("c", true.into())])].into_iter().collect(),
            ),
        ]);
        let expected = r#"{
  "flat": { "a": 1, "b": "x" },
  "list": [1, 2],
  "empty": {},
  "rows": [
    { "c": true }
  ]
}"#;
        assert_eq!(doc.to_pretty(), expected);
        let compact: String = expected.split_whitespace().collect();
        assert_eq!(doc.to_compact(), compact);
    }
}
