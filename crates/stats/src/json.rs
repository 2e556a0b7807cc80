//! The workspace's one JSON codec over [`Metrics`], hand-rolled (no
//! serialization dependency).
//!
//! One writer, two layouts: [`Metrics::to_json`] (pretty) and
//! [`Metrics::to_json_compact`] (one line). Keys keep insertion order,
//! strings are escaped per RFC 8259, and non-finite floats are written
//! as `null`, which JSON has no other way to say.
//!
//! One strict RFC 8259 parser, [`Metrics::from_json`]: a single object,
//! no trailing bytes, no duplicate keys, and at most [`MAX_JSON_DEPTH`]
//! nested containers, so a hostile document cannot overflow the stack.
//! An integer that fits becomes `U64` (`I64` when negative), any other
//! number `F64`, and `null` becomes `F64(NaN)`, the writer's only
//! source of `null`.

use std::collections::HashSet;
use std::fmt::{self, Write as _};

use crate::metrics::{MetricValue, Metrics};

/// Deepest container nesting [`Metrics::from_json`] accepts; the
/// top-level object is depth 1.
pub const MAX_JSON_DEPTH: usize = 128;

/// Why [`Metrics::from_json`] rejected a document, and where.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonError {
    /// Byte offset into the input at which parsing failed.
    pub offset: usize,
    /// What was expected or wrong at that offset.
    pub reason: &'static str,
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid JSON at byte {}: {}", self.offset, self.reason)
    }
}

impl std::error::Error for JsonError {}

impl Metrics {
    /// Serializes to pretty-printed JSON (2-space indent, trailing
    /// newline).
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        let _ = write_map(&mut out, self, Some(0));
        out + "\n"
    }

    /// Serializes to one line of JSON with no whitespace and no
    /// trailing newline.
    pub fn to_json_compact(&self) -> String {
        let mut out = String::new();
        let _ = write_map(&mut out, self, None);
        out
    }

    /// Parses a JSON object strictly (see the module docs): the inverse
    /// of [`Metrics::to_json`] and [`Metrics::to_json_compact`].
    ///
    /// # Errors
    ///
    /// A [`JsonError`] with the byte offset of the first violation.
    pub fn from_json(text: &str) -> Result<Metrics, JsonError> {
        let mut p = Parser { s: text, i: 0 };
        p.ws();
        if p.peek() != Some(b'{') {
            return p.err("expected '{' (the document must be an object)");
        }
        let m = p.object(1)?;
        p.ws();
        if p.i < text.len() {
            return p.err("trailing bytes after the document");
        }
        Ok(m)
    }
}

/// Writes a bracketed, comma-separated container. `level` is the
/// container's indent depth in the pretty layout and `None` in the
/// compact one; `item` receives the level its item is written at.
/// (Writing to a `String` cannot fail; the `fmt::Result`s only let
/// every writer share `write!`.)
fn write_container<I: Iterator>(
    out: &mut String,
    (open, close): (char, char),
    items: I,
    level: Option<usize>,
    mut item: impl FnMut(&mut String, I::Item, Option<usize>) -> fmt::Result,
) -> fmt::Result {
    let (inner, mut empty) = (level.map(|l| l + 1), true);
    out.write_char(open)?;
    for it in items {
        out.write_str(if empty { "" } else { "," })?;
        if let Some(l) = inner {
            write!(out, "\n{}", "  ".repeat(l))?;
        }
        item(out, it, inner)?;
        empty = false;
    }
    if let (Some(l), false) = (level, empty) {
        write!(out, "\n{}", "  ".repeat(l))?;
    }
    out.write_char(close)
}

fn write_map(out: &mut String, m: &Metrics, level: Option<usize>) -> fmt::Result {
    write_container(out, ('{', '}'), m.iter(), level, |out, (k, v), inner| {
        write_string(out, k)?;
        out.write_str(if inner.is_some() { ": " } else { ":" })?;
        write_value(out, v, inner)
    })
}

fn write_value(out: &mut String, v: &MetricValue, level: Option<usize>) -> fmt::Result {
    match v {
        MetricValue::U64(n) => write!(out, "{n}"),
        MetricValue::I64(n) => write!(out, "{n}"),
        // `{:?}` keeps round-trip precision and always includes a
        // decimal point or exponent, so the value re-parses as a float.
        MetricValue::F64(x) if x.is_finite() => write!(out, "{x:?}"),
        MetricValue::F64(_) => out.write_str("null"),
        MetricValue::Bool(b) => write!(out, "{b}"),
        MetricValue::Str(s) => write_string(out, s),
        MetricValue::List(items) => {
            write_container(out, ('[', ']'), items.iter(), level, write_value)
        }
        MetricValue::Map(m) => write_map(out, m, level),
    }
}

/// Escapes and quotes `s` per RFC 8259, appending to `out`.
fn write_string(out: &mut String, s: &str) -> fmt::Result {
    out.write_char('"')?;
    for c in s.chars() {
        match c {
            '"' => out.write_str("\\\"")?,
            '\\' => out.write_str("\\\\")?,
            '\n' => out.write_str("\\n")?,
            '\r' => out.write_str("\\r")?,
            '\t' => out.write_str("\\t")?,
            c if (c as u32) < 0x20 => write!(out, "\\u{:04x}", c as u32)?,
            c => out.write_char(c)?,
        }
    }
    out.write_char('"')
}

/// Recursive-descent parser over one document; `i` is the cursor.
struct Parser<'a> {
    s: &'a str,
    i: usize,
}

fn fail<T>(offset: usize, reason: &'static str) -> Result<T, JsonError> {
    Err(JsonError { offset, reason })
}

impl Parser<'_> {
    fn err<T>(&self, reason: &'static str) -> Result<T, JsonError> {
        fail(self.i, reason)
    }

    fn peek(&self) -> Option<u8> {
        self.s.as_bytes().get(self.i).copied()
    }

    fn ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.i += 1;
        }
    }

    /// Consumes `c` if it is the very next byte.
    fn eat_byte(&mut self, c: u8) -> bool {
        let hit = self.peek() == Some(c);
        self.i += usize::from(hit);
        hit
    }

    /// Skips whitespace, then consumes `c` if it comes next.
    fn eat(&mut self, c: u8) -> bool {
        self.ws();
        self.eat_byte(c)
    }

    /// Parses a value that starts at the cursor, inside a container at
    /// `depth`.
    fn value(&mut self, depth: usize) -> Result<MetricValue, JsonError> {
        let literal = |p: &mut Self, word: &str, v: MetricValue| {
            if !p.s[p.i..].starts_with(word) {
                return p.err("invalid literal");
            }
            p.i += word.len();
            Ok(v)
        };
        match self.peek() {
            Some(b'{') => Ok(MetricValue::Map(self.object(depth + 1)?)),
            Some(b'[') => {
                let mut items = Vec::new();
                self.items(b']', depth + 1, |p| {
                    items.push(p.value(depth + 1)?);
                    Ok(())
                })?;
                Ok(MetricValue::List(items))
            }
            Some(b'"') => Ok(MetricValue::Str(self.string()?)),
            Some(b't') => literal(self, "true", MetricValue::Bool(true)),
            Some(b'f') => literal(self, "false", MetricValue::Bool(false)),
            Some(b'n') => literal(self, "null", MetricValue::F64(f64::NAN)),
            Some(b'-' | b'0'..=b'9') => self.number(),
            _ => self.err("expected a value"),
        }
    }

    fn object(&mut self, depth: usize) -> Result<Metrics, JsonError> {
        let mut m = Metrics::new();
        let mut seen = HashSet::new();
        self.items(b'}', depth, |p| {
            let at = p.i;
            let key = p.string()?;
            if !seen.insert(key.clone()) {
                return fail(at, "duplicate key");
            }
            if !p.eat(b':') {
                return p.err("expected ':'");
            }
            p.ws();
            // `seen` already rules out a duplicate; `Metrics::set` would
            // search linearly and make a hostile many-key body quadratic.
            m.entries.push((key, p.value(depth)?));
            Ok(())
        })?;
        Ok(m)
    }

    /// Parses a container whose opening bracket is at the cursor through
    /// `close`, calling `item` at the start of each element.
    fn items(
        &mut self,
        close: u8,
        depth: usize,
        mut item: impl FnMut(&mut Self) -> Result<(), JsonError>,
    ) -> Result<(), JsonError> {
        if depth > MAX_JSON_DEPTH {
            return self.err("containers nested deeper than MAX_JSON_DEPTH");
        }
        self.i += 1;
        if self.eat(close) {
            return Ok(());
        }
        loop {
            self.ws();
            item(self)?;
            if self.eat(close) {
                return Ok(());
            }
            if !self.eat(b',') {
                return self.err("expected ',' or a closing bracket");
            }
        }
    }

    /// Consumes a run of ASCII digits; false when there was none.
    fn digits(&mut self) -> bool {
        let start = self.i;
        while matches!(self.peek(), Some(b'0'..=b'9')) {
            self.i += 1;
        }
        self.i > start
    }

    fn number(&mut self) -> Result<MetricValue, JsonError> {
        let start = self.i;
        self.i += usize::from(self.peek() == Some(b'-'));
        let int = self.i;
        if !self.digits() || (self.s.as_bytes()[int] == b'0' && self.i > int + 1) {
            return fail(int, "invalid integer part");
        }
        let integer = !matches!(self.peek(), Some(b'.' | b'e' | b'E'));
        if self.eat_byte(b'.') && !self.digits() {
            return self.err("expected a digit after '.'");
        }
        if self.eat_byte(b'e') || self.eat_byte(b'E') {
            let _ = self.eat_byte(b'+') || self.eat_byte(b'-');
            if !self.digits() {
                return self.err("expected an exponent digit");
            }
        }
        let text = &self.s[start..self.i];
        if integer {
            if let Ok(n) = text.parse::<u64>() {
                return Ok(MetricValue::U64(n));
            }
            if let Ok(n) = text.parse::<i64>() {
                // Negative, or `-0`, which is not.
                return Ok(u64::try_from(n).map_or(MetricValue::I64(n), MetricValue::U64));
            }
        }
        match text.parse::<f64>() {
            Ok(x) if x.is_finite() => Ok(MetricValue::F64(x)),
            _ => fail(start, "number out of range"),
        }
    }

    fn string(&mut self) -> Result<String, JsonError> {
        if !self.eat_byte(b'"') {
            return self.err("expected a string");
        }
        let mut out = String::new();
        loop {
            let start = self.i;
            while matches!(self.peek(), Some(c) if c != b'"' && c != b'\\' && c >= 0x20) {
                self.i += 1;
            }
            // The run stops only at ASCII bytes or the end, so both ends
            // are char boundaries.
            out.push_str(&self.s[start..self.i]);
            match self.peek() {
                Some(b'"') => {
                    self.i += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.i += 1;
                    out.push(self.escape()?);
                }
                Some(_) => return self.err("raw control character in string"),
                None => return self.err("unterminated string"),
            }
        }
    }

    /// Decodes the escape after a backslash; a `\u` high surrogate must
    /// be followed by a `\u` low surrogate.
    fn escape(&mut self) -> Result<char, JsonError> {
        let at = self.i - 1;
        let c = match self.peek() {
            Some(b'"') => '"',
            Some(b'\\') => '\\',
            Some(b'/') => '/',
            Some(b'b') => '\u{8}',
            Some(b'f') => '\u{c}',
            Some(b'n') => '\n',
            Some(b'r') => '\r',
            Some(b't') => '\t',
            Some(b'u') => {
                self.i += 1;
                let hi = self.hex4()?;
                let mut cp = hi;
                if (0xD800..0xDC00).contains(&hi) && self.s[self.i..].starts_with("\\u") {
                    self.i += 2;
                    let lo = self.hex4()?;
                    if (0xDC00..0xE000).contains(&lo) {
                        cp = 0x10000 + ((hi - 0xD800) << 10) + (lo - 0xDC00);
                    }
                }
                return char::from_u32(cp).map_or(fail(at, "unpaired surrogate"), Ok);
            }
            _ => return self.err("invalid escape"),
        };
        self.i += 1;
        Ok(c)
    }

    fn hex4(&mut self) -> Result<u32, JsonError> {
        let hex = self
            .s
            .get(self.i..self.i + 4)
            .filter(|h| h.bytes().all(|b| b.is_ascii_hexdigit()));
        let Some(v) = hex.and_then(|h| u32::from_str_radix(h, 16).ok()) else {
            return self.err("expected four hex digits after \\u");
        };
        self.i += 4;
        Ok(v)
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::panic)]
mod tests {
    use super::*;

    /// Nests `depth` containers: objects (`{"a":…}`) or, inside one
    /// top-level object, lists.
    fn nested(depth: usize, lists: bool) -> String {
        if lists {
            format!(
                "{{\"a\":{}{}}}",
                "[".repeat(depth - 1),
                "]".repeat(depth - 1)
            )
        } else {
            format!(
                "{}{{}}{}",
                "{\"a\":".repeat(depth - 1),
                "}".repeat(depth - 1)
            )
        }
    }

    #[test]
    fn parses_nested_documents_and_escapes() {
        let doc = Metrics::from_json(r#"{"a": [1, -2.5e1, "x\n\"yA"], "b": {"c": null}}"#).unwrap();
        let a = doc.get("a").and_then(MetricValue::as_list).unwrap();
        assert_eq!(a[0], MetricValue::U64(1));
        assert_eq!(a[1], MetricValue::F64(-25.0));
        assert_eq!(a[2].as_str(), Some("x\n\"yA"));
        let c = doc
            .get("b")
            .and_then(MetricValue::as_map)
            .and_then(|b| b.get("c"));
        assert!(
            matches!(c, Some(MetricValue::F64(x)) if x.is_nan()),
            "{c:?}"
        );
    }

    #[test]
    fn rejects_trailing_garbage() {
        let e = Metrics::from_json("{} extra").unwrap_err();
        assert_eq!(
            e,
            JsonError {
                offset: 3,
                reason: "trailing bytes after the document"
            }
        );
    }

    #[test]
    fn literals_map_to_variants() {
        let doc = Metrics::from_json(
            r#"{"u": 18446744073709551615, "big": 18446744073709551616, "i": -9223372036854775808,
                "small": -9223372036854775809, "z": -0, "f": 2.0, "e": 1E3, "t": true, "s": "\/\u00e9\ud83d\ude00"}"#,
        )
        .unwrap();
        assert_eq!(doc.get("u"), Some(&MetricValue::U64(u64::MAX)));
        assert_eq!(
            doc.get("big"),
            Some(&MetricValue::F64(18446744073709551616.0))
        );
        assert_eq!(doc.get("i"), Some(&MetricValue::I64(i64::MIN)));
        assert_eq!(
            doc.get("small"),
            Some(&MetricValue::F64(-9223372036854775809.0))
        );
        assert_eq!(doc.get("z"), Some(&MetricValue::U64(0)));
        assert_eq!(doc.get("f"), Some(&MetricValue::F64(2.0)));
        assert_eq!(doc.get("e"), Some(&MetricValue::F64(1000.0)));
        assert_eq!(doc.get("t"), Some(&MetricValue::Bool(true)));
        assert_eq!(doc.get("s").and_then(MetricValue::as_str), Some("/é😀"));
    }

    #[test]
    fn rejection_corpus() {
        let values = [
            "1.",
            ".5",
            "-",
            "01",
            "-01",
            "1e",
            "1e+",
            "+1",
            "1e999",
            "tru",
            "nul",
            "True",
            "NaN",
            "\"abc",
            "\"\\x\"",
            "\"\\u12\"",
            "\"\\u12g4\"",
            "\"\\ud800\"",
            "\"\\udc00\"",
            "\"\\ud800\\u0041\"",
            "\"a\u{1}b\"",
            "\"a\nb\"",
            "[1,]",
            "[1 2]",
            "[",
            "{",
            "{\"b\"}",
            "{\"b\":}",
            "{1:2}",
            "'x'",
        ];
        for v in values {
            let doc = format!("{{\"a\": {v}}}");
            assert!(Metrics::from_json(&doc).is_err(), "accepted {doc:?}");
        }
        for doc in [
            "",
            " ",
            "[]",
            "\"s\"",
            "1",
            "{",
            "{\"a\":1",
            "{\"a\":1,}",
            "{,}",
            "{}}",
            "{}{}",
            "{\"a\":1,\"a\":2}",
            "{\"a\":1}\u{0}",
        ] {
            assert!(Metrics::from_json(doc).is_err(), "accepted {doc:?}");
        }
        let dup = Metrics::from_json("{\"k\": 1, \"k\": 2}").unwrap_err();
        assert_eq!(
            dup,
            JsonError {
                offset: 9,
                reason: "duplicate key"
            }
        );
    }

    #[test]
    fn depth_limit_is_exact() {
        for lists in [false, true] {
            assert!(
                Metrics::from_json(&nested(MAX_JSON_DEPTH, lists)).is_ok(),
                "lists={lists}"
            );
            let e = Metrics::from_json(&nested(MAX_JSON_DEPTH + 1, lists)).unwrap_err();
            assert_eq!(e.reason, "containers nested deeper than MAX_JSON_DEPTH");
        }
        // Hostile depth is rejected at the limit, long before the stack
        // is at risk.
        let deep = "[".repeat(1 << 20);
        assert!(Metrics::from_json(&format!("{{\"a\":{deep}")).is_err());
    }

    #[test]
    fn compact_layout_is_one_line() {
        let mut inner = Metrics::new();
        inner
            .set("x", 1.5f64)
            .set("e", Metrics::new())
            .set("l", Vec::<u64>::new());
        let mut m = Metrics::new();
        m.set("s", "a\"b\n")
            .set("n", vec![1u64, 2])
            .set("in", inner);
        assert_eq!(
            m.to_json_compact(),
            r#"{"s":"a\"b\n","n":[1,2],"in":{"x":1.5,"e":{},"l":[]}}"#
        );
        assert_eq!(Metrics::new().to_json_compact(), "{}");
    }

    /// xorshift64*: the crate takes no dependencies, so the property
    /// test carries its own seeded generator.
    struct Rng(u64);

    impl Rng {
        fn next(&mut self) -> u64 {
            self.0 ^= self.0 >> 12;
            self.0 ^= self.0 << 25;
            self.0 ^= self.0 >> 27;
            self.0.wrapping_mul(0x2545_f491_4f6c_dd1d)
        }

        fn below(&mut self, n: u64) -> u64 {
            self.next() % n
        }

        fn string(&mut self) -> String {
            const POOL: [char; 16] = [
                'a',
                'Z',
                '0',
                ' ',
                '"',
                '\\',
                '/',
                '\n',
                '\t',
                '\u{0}',
                '\u{1f}',
                '\u{7f}',
                'é',
                '\u{2028}',
                '\u{ffff}',
                '\u{1f600}',
            ];
            (0..self.below(8))
                .map(|_| POOL[self.below(POOL.len() as u64) as usize])
                .collect()
        }

        fn value(&mut self, depth: u32) -> MetricValue {
            let kinds = if depth == 0 { 5 } else { 7 };
            match self.below(kinds) {
                0 => MetricValue::U64(match self.below(3) {
                    0 => 0,
                    1 => u64::MAX,
                    _ => self.next() >> self.below(64),
                }),
                1 => MetricValue::I64(match self.below(3) {
                    0 => i64::MIN,
                    1 => -1,
                    _ => (self.next() >> self.below(64)) as i64,
                }),
                2 => loop {
                    let x = f64::from_bits(self.next() >> self.below(3));
                    if x.is_finite() {
                        break MetricValue::F64(x);
                    }
                },
                3 => MetricValue::Bool(self.below(2) == 1),
                4 => MetricValue::Str(self.string()),
                5 => MetricValue::List((0..self.below(4)).map(|_| self.value(depth - 1)).collect()),
                _ => MetricValue::Map(self.map(depth - 1)),
            }
        }

        fn map(&mut self, depth: u32) -> Metrics {
            let mut m = Metrics::new();
            for _ in 0..self.below(5) {
                let key = self.string();
                m.set(&key, self.value(depth));
            }
            m
        }
    }

    /// The parser's reading of a written value: `I64` that is not
    /// negative comes back as `U64`.
    fn normalised(v: &MetricValue) -> MetricValue {
        match v {
            MetricValue::I64(n) if *n >= 0 => MetricValue::U64(*n as u64),
            MetricValue::List(items) => MetricValue::List(items.iter().map(normalised).collect()),
            MetricValue::Map(m) => MetricValue::Map(normalised_map(m)),
            other => other.clone(),
        }
    }

    fn normalised_map(m: &Metrics) -> Metrics {
        let mut out = Metrics::new();
        for (k, v) in m.iter() {
            out.set(k, normalised(v));
        }
        out
    }

    #[test]
    fn random_trees_round_trip_both_layouts() {
        let mut rng = Rng(0x9e37_79b9_7f4a_7c15);
        for case in 0..2000 {
            let m = rng.map(4);
            let want = normalised_map(&m);
            for text in [m.to_json(), m.to_json_compact()] {
                let got = Metrics::from_json(&text)
                    .unwrap_or_else(|e| panic!("case {case}: {e}\n{text}"));
                assert_eq!(got, want, "case {case}:\n{text}");
            }
        }
    }
}
