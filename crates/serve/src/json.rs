//! Hand-rolled JSON: a tree value with a writer and a recursive-descent
//! parser. The repo carries no external dependencies, so the serving
//! layer brings its own (small, strict) JSON implementation.

use std::fmt;

/// A JSON value.
///
/// Objects preserve insertion order (they are association lists, not
/// maps), which keeps rendered responses deterministic.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any number (parsed as `f64`).
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object as an ordered association list.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Member lookup on an object (`None` on other variants).
    #[must_use]
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(members) => members.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The string payload, if this is a string.
    #[must_use]
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The numeric payload, if this is a number.
    #[must_use]
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(v) => Some(*v),
            _ => None,
        }
    }

    /// The numeric payload as a non-negative integer, if it is one.
    #[must_use]
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::Num(v) if *v >= 0.0 && v.fract() == 0.0 && *v <= 2f64.powi(53) => Some(*v as u64),
            _ => None,
        }
    }

    /// The boolean payload, if this is a boolean.
    #[must_use]
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// Renders to compact JSON text.
    #[must_use]
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.write(&mut out);
        out
    }

    fn write(&self, out: &mut String) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Num(v) => write_number(*v, out),
            Json::Str(s) => write_escaped(s, out),
            Json::Arr(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    item.write(out);
                }
                out.push(']');
            }
            Json::Obj(members) => {
                out.push('{');
                for (i, (k, v)) in members.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    write_escaped(k, out);
                    out.push(':');
                    v.write(out);
                }
                out.push('}');
            }
        }
    }
}

/// Writes a number. JSON has no NaN/infinity, so non-finite values
/// render as `null`; finite values use Rust's shortest round-trip
/// formatting, with integral values printed without a fraction.
pub(crate) fn write_number(v: f64, out: &mut String) {
    use fmt::Write as _;
    if !v.is_finite() {
        out.push_str("null");
    } else if v.fract() == 0.0 && v.abs() <= 2f64.powi(53) {
        let _ = write!(out, "{}", v as i64);
    } else {
        let _ = write!(out, "{v}");
    }
}

/// Writes `s` as a quoted JSON string with the mandatory escapes.
pub(crate) fn write_escaped(s: &str, out: &mut String) {
    use fmt::Write as _;
    out.push('"');
    for ch in s.chars() {
        match ch {
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
    out.push('"');
}

/// A parse failure with its byte offset.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonError {
    /// Byte offset of the failure in the input.
    pub pos: usize,
    /// What went wrong.
    pub message: String,
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "json error at byte {}: {}", self.pos, self.message)
    }
}

impl std::error::Error for JsonError {}

/// How deep arrays and objects may nest. The parser recurses once per
/// level on the thread that answers a request, so without a bound a
/// small body of open brackets overflows that thread's stack, which
/// aborts the process.
const MAX_DEPTH: usize = 128;

/// Parses one JSON document (trailing whitespace allowed, trailing
/// content rejected).
///
/// # Errors
///
/// Returns a [`JsonError`] on malformed input, including arrays and
/// objects nested deeper than 128 levels.
pub fn parse(src: &str) -> Result<Json, JsonError> {
    let mut p = Parser {
        bytes: src.as_bytes(),
        pos: 0,
        depth: 0,
    };
    p.skip_ws();
    let value = p.value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(p.err("trailing content after document"));
    }
    Ok(value)
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
    /// Arrays and objects open around the current position.
    depth: usize,
}

impl Parser<'_> {
    fn err(&self, message: &str) -> JsonError {
        JsonError {
            pos: self.pos,
            message: message.to_string(),
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

    fn expect(&mut self, b: u8) -> Result<(), JsonError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(&format!("expected '{}'", b as char)))
        }
    }

    fn literal(&mut self, word: &str, value: Json) -> Result<Json, JsonError> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(self.err(&format!("expected '{word}'")))
        }
    }

    fn value(&mut self) -> Result<Json, JsonError> {
        match self.peek() {
            Some(b'{') => self.nested(Self::object),
            Some(b'[') => self.nested(Self::array),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'n') => self.literal("null", Json::Null),
            Some(b'-' | b'0'..=b'9') => self.number(),
            Some(_) => Err(self.err("unexpected character")),
            None => Err(self.err("unexpected end of input")),
        }
    }

    /// Runs `parse` one nesting level down, refusing a level past
    /// [`MAX_DEPTH`].
    fn nested(
        &mut self,
        parse: fn(&mut Self) -> Result<Json, JsonError>,
    ) -> Result<Json, JsonError> {
        if self.depth == MAX_DEPTH {
            return Err(self.err(&format!("nesting deeper than {MAX_DEPTH} levels")));
        }
        self.depth += 1;
        let value = parse(self);
        self.depth -= 1;
        value
    }

    fn object(&mut self) -> Result<Json, JsonError> {
        self.expect(b'{')?;
        let mut members = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(members));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let value = self.value()?;
            members.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(members));
                }
                _ => return Err(self.err("expected ',' or '}'")),
            }
        }
    }

    fn array(&mut self) -> Result<Json, JsonError> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Arr(items));
                }
                _ => return Err(self.err("expected ',' or ']'")),
            }
        }
    }

    fn string(&mut self) -> Result<String, JsonError> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            // Copy the run of plain bytes up to the next quote,
            // backslash or control byte in one piece. All three
            // delimiters are ASCII, so a run of a `&str` input starts
            // and ends on scalar boundaries and is validated once — the
            // whole string costs time linear in its length.
            let run = self.bytes[self.pos..]
                .iter()
                .position(|&b| b == b'"' || b == b'\\' || b < 0x20)
                .unwrap_or(self.bytes.len() - self.pos);
            let plain = std::str::from_utf8(&self.bytes[self.pos..self.pos + run])
                .map_err(|_| self.err("invalid utf-8"))?;
            out.push_str(plain);
            self.pos += run;
            match self.peek() {
                None => return Err(self.err("unterminated string")),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => self.escape(&mut out)?,
                Some(_) => return Err(self.err("control character in string")),
            }
        }
    }

    /// Decodes the escape sequence at `pos` (a backslash) into `out`.
    fn escape(&mut self, out: &mut String) -> Result<(), JsonError> {
        self.pos += 1;
        let esc = self.peek().ok_or_else(|| self.err("unterminated escape"))?;
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
                let hex = self
                    .bytes
                    .get(self.pos..self.pos + 4)
                    .and_then(|h| std::str::from_utf8(h).ok())
                    .ok_or_else(|| self.err("bad \\u escape"))?;
                let code = u32::from_str_radix(hex, 16).map_err(|_| self.err("bad \\u escape"))?;
                self.pos += 4;
                // Surrogate pairs are out of scope for the
                // serving protocol; replace them.
                out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
            }
            _ => return Err(self.err("unknown escape")),
        }
        Ok(())
    }

    fn number(&mut self) -> Result<Json, JsonError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(
            self.peek(),
            Some(b'0'..=b'9' | b'.' | b'e' | b'E' | b'+' | b'-')
        ) {
            self.pos += 1;
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).expect("ascii digits");
        text.parse::<f64>()
            .map(Json::Num)
            .map_err(|_| self.err("malformed number"))
    }
}

/// Shorthand for building an object.
#[must_use]
pub fn obj(members: Vec<(&str, Json)>) -> Json {
    Json::Obj(
        members
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrips_a_nested_document() {
        let src = r#"{"spec":{"class":"fake","seed":7},"include_map":false,"xs":[1,2.5,-3e2],"note":"a\"b\\c\n"}"#;
        let v = parse(src).expect("valid");
        assert_eq!(
            v.get("spec")
                .and_then(|s| s.get("seed"))
                .and_then(Json::as_u64),
            Some(7)
        );
        assert_eq!(v.get("include_map").and_then(Json::as_bool), Some(false));
        assert_eq!(v.get("note").and_then(Json::as_str), Some("a\"b\\c\n"));
        let reparsed = parse(&v.render()).expect("render is valid json");
        assert_eq!(v, reparsed);
    }

    #[test]
    fn rejects_malformed_input() {
        for bad in ["", "{", "{\"a\":}", "[1,]", "tru", "\"unterminated", "1 2"] {
            assert!(parse(bad).is_err(), "{bad:?} should fail");
        }
    }

    #[test]
    fn nesting_stops_at_128_levels() {
        // Arrays and objects count alike, in any mix.
        let nest = |depth: usize| {
            let open: String = (0..depth)
                .map(|i| if i % 2 == 0 { "[" } else { "{\"k\":" })
                .collect();
            let close: String = (0..depth)
                .rev()
                .map(|i| if i % 2 == 0 { "]" } else { "}" })
                .collect();
            format!("{open}0{close}")
        };
        let deepest = parse(&nest(128)).expect("128 levels parse");
        assert_eq!(parse(&deepest.render()), Ok(deepest));
        let err = parse(&nest(129)).expect_err("129 levels are refused");
        assert_eq!(err.message, "nesting deeper than 128 levels");
        assert_eq!(&nest(129)[err.pos..err.pos + 1], "[", "at the 129th opener");
        // A bomb of openers fails the same way, at the same place.
        let bomb = "[".repeat(10_000);
        assert_eq!(
            parse(&bomb).map_err(|e| (e.pos, e.message)),
            Err((128, err.message))
        );
    }

    #[test]
    fn numbers_render_without_noise() {
        assert_eq!(Json::Num(3.0).render(), "3");
        assert_eq!(Json::Num(0.25).render(), "0.25");
        assert_eq!(Json::Num(f64::NAN).render(), "null");
        assert_eq!(parse("0.25").expect("num"), Json::Num(0.25));
    }

    #[test]
    fn unicode_escapes_decode() {
        let v = parse(r#""Aé""#).expect("valid");
        assert_eq!(v.as_str(), Some("Aé"));
        let esc = parse(r#""\u0041z""#).expect("valid");
        assert_eq!(esc.as_str(), Some("Az"));
    }

    /// The string loop this parser shipped with until the byte-run
    /// rewrite: one scalar per step, re-validating the whole remaining
    /// input each time (quadratic). Kept as the oracle the linear loop
    /// is held to.
    impl Parser<'_> {
        fn string_per_char(&mut self) -> Result<String, JsonError> {
            self.expect(b'"')?;
            let mut out = String::new();
            loop {
                match self.peek() {
                    None => return Err(self.err("unterminated string")),
                    Some(b'"') => {
                        self.pos += 1;
                        return Ok(out);
                    }
                    Some(b'\\') => self.escape(&mut out)?,
                    Some(b) if b < 0x20 => return Err(self.err("control character in string")),
                    Some(_) => {
                        let rest = &self.bytes[self.pos..];
                        let s = std::str::from_utf8(rest).map_err(|_| self.err("invalid utf-8"))?;
                        let ch = s.chars().next().ok_or_else(|| self.err("empty"))?;
                        out.push(ch);
                        self.pos += ch.len_utf8();
                    }
                }
            }
        }
    }

    /// Text after an opening quote, drawn from fragments that reach
    /// every branch of the string routine; about one in eight ends
    /// without a closing quote.
    fn random_string_body(rng: &mut irf_runtime::Xoshiro256pp) -> String {
        const FRAGMENTS: [&str; 24] = [
            "a",
            "net_12 ",
            "R1 n1_m1_0_0 n1_m1_0_2000 0.35",
            "é",
            "€",
            "😀",
            "\\\"",
            "\\\\",
            "\\/",
            "\\b",
            "\\f",
            "\\n",
            "\\r",
            "\\t",
            "\\u0041",
            "\\u00e9",
            "\\ud800",
            "\\u+041",
            "\\u12",
            "\\u12é",
            "\\uzzzz",
            "\\x",
            "\u{1}",
            "\n",
        ];
        let mut text = String::new();
        for _ in 0..rng.random_range(0..12usize) {
            text.push_str(FRAGMENTS[rng.random_range(0..FRAGMENTS.len())]);
        }
        match rng.random_range(0..8u32) {
            0 => {}
            1 => text.push('\\'),
            _ => text.push_str("\" trailing"),
        }
        text
    }

    #[test]
    fn byte_run_strings_match_the_per_character_oracle() {
        let mut rng = irf_runtime::Xoshiro256pp::seed_from_u64(0x5eed_1507);
        let (mut accepted, mut rejected) = (0, 0);
        for case in 0..4000 {
            let src = format!("\"{}", random_string_body(&mut rng));
            let mut fast = Parser {
                bytes: src.as_bytes(),
                pos: 0,
                depth: 0,
            };
            let mut oracle = Parser {
                bytes: src.as_bytes(),
                pos: 0,
                depth: 0,
            };
            let (got, want) = (fast.string(), oracle.string_per_char());
            assert_eq!(got, want, "case {case}: {src:?}");
            match got {
                Ok(_) => {
                    assert_eq!(fast.pos, oracle.pos, "case {case}: {src:?}");
                    accepted += 1;
                }
                Err(_) => rejected += 1,
            }
        }
        assert!(
            accepted > 200 && rejected > 200,
            "generator must reach both outcomes ({accepted} accepted, {rejected} rejected)"
        );
    }

    #[test]
    fn a_body_of_the_maximum_size_parses_in_linear_time() {
        // One inline netlist as large as the HTTP layer admits. The
        // per-character routine needs ~25 CPU-minutes for this body, so
        // the bound below has three orders of magnitude of slack.
        let (head, tail) = ("{\"netlist\":\"", "\"}");
        let line = "R1 n1_m1_0_0 n1_m1_0_2000 0.35\\n";
        let mut body = String::with_capacity(crate::http::MAX_BODY_BYTES);
        body.push_str(head);
        while body.len() + line.len() + tail.len() <= crate::http::MAX_BODY_BYTES {
            body.push_str(line);
        }
        while body.len() + tail.len() < crate::http::MAX_BODY_BYTES {
            body.push('x');
        }
        body.push_str(tail);
        assert_eq!(body.len(), crate::http::MAX_BODY_BYTES);
        let started = std::time::Instant::now();
        let parsed = parse(&body).expect("valid");
        let elapsed = started.elapsed();
        let netlist = parsed
            .get("netlist")
            .and_then(Json::as_str)
            .expect("string");
        assert!(netlist.starts_with("R1 n1_m1_0_0 n1_m1_0_2000 0.35\nR1 "));
        assert!(
            elapsed < std::time::Duration::from_secs(2),
            "8 MiB body took {elapsed:?}"
        );
    }
}
