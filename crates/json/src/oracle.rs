//! The parser oracle: [`crate::parse`] against the parser it replaced.
//!
//! [`parse`] below is that parser, kept verbatim: it decodes a string one
//! scalar at a time, re-validating the rest of the input as UTF-8 for each
//! one, so it costs string characters × input length, and it has no depth
//! bound. It shares no code with the crate's parser. The suites run both
//! on seeded random documents, their truncations and byte flips, and
//! every small-scale answer body `flod` serves, and require identical
//! outcomes: equal trees with numbers compared by bits, and the same
//! error at the same byte wherever the oracle errs.

use crate::{Json, ParseError};
use flo_bench::Scheme;
use flo_core::TargetLayers;
use flo_linalg::SplitMix64;
use flo_serve::protocol::{ok_response_bytes_traced, FaultSpec, Request};
use flo_serve::Service;
use flo_sim::PolicyKind;
use flo_workloads::Scale;

/// Parse a complete JSON document (trailing whitespace allowed).
pub(crate) fn parse(input: &str) -> Result<Json, ParseError> {
    let mut p = Parser {
        bytes: input.as_bytes(),
        pos: 0,
    };
    p.skip_ws();
    let v = p.value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(p.err("trailing characters"));
    }
    Ok(v)
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn err(&self, msg: &'static str) -> ParseError {
        ParseError { pos: self.pos, msg }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, c: u8) -> Result<(), ParseError> {
        if self.peek() == Some(c) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err("unexpected character"))
        }
    }

    fn literal(&mut self, word: &str, v: Json) -> Result<Json, ParseError> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(v)
        } else {
            Err(self.err("invalid literal"))
        }
    }

    fn value(&mut self) -> Result<Json, ParseError> {
        match self
            .peek()
            .ok_or_else(|| self.err("unexpected end of input"))?
        {
            b'n' => self.literal("null", Json::Null),
            b't' => self.literal("true", Json::Bool(true)),
            b'f' => self.literal("false", Json::Bool(false)),
            b'"' => Ok(Json::Str(self.string()?)),
            b'[' => self.array(),
            b'{' => self.object(),
            b'-' | b'0'..=b'9' => self.number(),
            _ => Err(self.err("unexpected character")),
        }
    }

    fn array(&mut self) -> Result<Json, ParseError> {
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

    fn object(&mut self) -> Result<Json, ParseError> {
        self.expect(b'{')?;
        let mut fields = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(fields));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            fields.push((key, self.value()?));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(fields));
                }
                _ => return Err(self.err("expected ',' or '}'")),
            }
        }
    }

    fn string(&mut self) -> Result<String, ParseError> {
        self.expect(b'"')?;
        let mut s = String::new();
        loop {
            match self.peek().ok_or_else(|| self.err("unterminated string"))? {
                b'"' => {
                    self.pos += 1;
                    return Ok(s);
                }
                b'\\' => {
                    self.pos += 1;
                    let esc = self.peek().ok_or_else(|| self.err("unterminated escape"))?;
                    self.pos += 1;
                    match esc {
                        b'"' => s.push('"'),
                        b'\\' => s.push('\\'),
                        b'/' => s.push('/'),
                        b'n' => s.push('\n'),
                        b'r' => s.push('\r'),
                        b't' => s.push('\t'),
                        b'b' => s.push('\u{8}'),
                        b'f' => s.push('\u{c}'),
                        b'u' => {
                            let hex = self
                                .bytes
                                .get(self.pos..self.pos + 4)
                                .and_then(|h| std::str::from_utf8(h).ok())
                                .and_then(|h| u32::from_str_radix(h, 16).ok())
                                .ok_or_else(|| self.err("bad \\u escape"))?;
                            self.pos += 4;
                            // Surrogate pairs are not needed by our artifacts;
                            // lone surrogates map to the replacement char.
                            s.push(char::from_u32(hex).unwrap_or('\u{fffd}'));
                        }
                        _ => return Err(self.err("unknown escape")),
                    }
                }
                _ => {
                    // Consume one UTF-8 scalar. The input came in as &str so
                    // this cannot fail, but the parse path stays panic-free
                    // regardless of what bytes it is handed.
                    let rest = &self.bytes[self.pos..];
                    let c = std::str::from_utf8(rest)
                        .ok()
                        .and_then(|t| t.chars().next())
                        .ok_or_else(|| self.err("invalid UTF-8"))?;
                    s.push(c);
                    self.pos += c.len_utf8();
                }
            }
        }
    }

    fn number(&mut self) -> Result<Json, ParseError> {
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
        std::str::from_utf8(&self.bytes[start..self.pos])
            .ok()
            .and_then(|t| t.parse::<f64>().ok())
            .map(Json::Num)
            .ok_or_else(|| self.err("invalid number"))
    }
}

/// Trees equal, with numbers compared by bits (`-0` is not `0`).
fn same(a: &Json, b: &Json) -> bool {
    match (a, b) {
        (Json::Num(x), Json::Num(y)) => x.to_bits() == y.to_bits(),
        (Json::Arr(x), Json::Arr(y)) => {
            x.len() == y.len() && x.iter().zip(y).all(|(a, b)| same(a, b))
        }
        (Json::Obj(x), Json::Obj(y)) => {
            x.len() == y.len()
                && x.iter()
                    .zip(y)
                    .all(|((ka, a), (kb, b))| ka == kb && same(a, b))
        }
        _ => a == b,
    }
}

/// Parse `doc` with both parsers and require the same outcome. Returns
/// whether it parsed.
fn assert_agrees(doc: &str, what: &str) -> bool {
    match (crate::parse(doc), parse(doc)) {
        (Ok(got), Ok(want)) => {
            assert!(same(&got, &want), "{what}: trees differ on {doc:?}");
            true
        }
        (Err(got), Err(want)) => {
            assert_eq!(got, want, "{what}: errors differ on {doc:?}");
            false
        }
        (got, want) => panic!("{what}: {got:?} where the oracle gives {want:?} on {doc:?}"),
    }
}

/// One of `xs`, uniformly.
fn pick<'a>(rng: &mut SplitMix64, xs: &[&'a str]) -> &'a str {
    xs[rng.below(xs.len() as u64) as usize]
}

/// Number texts: zeros of both signs, 15- and 16-digit integers, 2^53
/// and its neighbours, fractions, exponents and leading zeros.
const NUMBERS: &[&str] = &[
    "0",
    "-0",
    "0.0",
    "-0.0",
    "7",
    "-7",
    "123456789012345",
    "-987654321098765",
    "1234567890123456",
    "-9876543210987654",
    "9007199254740991",
    "9007199254740992",
    "9007199254740993",
    "-9007199254740993",
    "0.5",
    "0.1",
    "-2.25",
    "3.141592653589793",
    "1e10",
    "1E-7",
    "-1.5e+300",
    "2.5e-310",
    "1e400",
    "00",
    "007",
    "-01",
    "0.",
    "1.e5",
];

/// Texts the number scanner takes in but `f64` refuses; rare, as
/// [`BAD_PIECES`] are.
const BAD_NUMBERS: &[&str] = &["1e", "-", "1-2", "1e+-3", "--1"];

/// String pieces: plain text, raw multi-byte and control characters,
/// and every escape, lone and paired surrogates among them. `\u+041`
/// is no JSON, but `from_str_radix` takes the sign, and so has the
/// parser.
const PIECES: &[&str] = &[
    "a",
    "layout",
    " ",
    "é",
    "中",
    "𝄞",
    "\u{0}",
    "\u{1f}",
    "\t",
    "\n",
    "\u{7f}",
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
    "\\u4E2D",
    "\\ud834\\udd1e",
    "\\ud800",
    "\\uDFFF",
    "\\u0000",
    "\\u+041",
];

/// Escapes the parser refuses; rare, so most documents parse.
const BAD_PIECES: &[&str] = &["\\x", "\\u12", "\\uzzzz", "\\"];

const WHITESPACE: &[&str] = &["", "", "", " ", "\t", "\n", "\r", "  "];

fn push_string(rng: &mut SplitMix64, out: &mut String) {
    out.push('"');
    for _ in 0..rng.below(8) {
        match rng.below(50) {
            0 => out.push_str(pick(rng, BAD_PIECES)),
            1..=4 => out.push_str(&format!("\\u{:04x}", rng.below(0x1_0000))),
            _ => out.push_str(pick(rng, PIECES)),
        }
    }
    out.push('"');
}

fn push_number(rng: &mut SplitMix64, out: &mut String) {
    let roll = rng.below(50);
    if roll == 0 {
        out.push_str(pick(rng, BAD_NUMBERS));
    } else if roll < 12 {
        if rng.below(2) == 0 {
            out.push('-');
        }
        for _ in 0..=rng.below(20) {
            out.push(char::from(b'0' + rng.below(10) as u8));
        }
    } else {
        out.push_str(pick(rng, NUMBERS));
    }
}

/// A random value at `depth`. Along the spine every value is a
/// container until `max` levels are open, so documents reach `max`.
fn push_value(rng: &mut SplitMix64, depth: usize, max: usize, spine: bool, out: &mut String) {
    out.push_str(pick(rng, WHITESPACE));
    let container = depth < max && (spine || rng.below(depth as u64 + 3) == 0);
    if container {
        let object = rng.below(2) == 0;
        out.push(if object { '{' } else { '[' });
        let n = rng.below(4) + u64::from(spine);
        for k in 0..n {
            if k > 0 {
                out.push(',');
            }
            if object {
                out.push_str(pick(rng, WHITESPACE));
                push_string(rng, out);
                out.push_str(pick(rng, WHITESPACE));
                out.push(':');
            }
            push_value(rng, depth + 1, max, spine && k == 0, out);
        }
        out.push_str(pick(rng, WHITESPACE));
        out.push(if object { '}' } else { ']' });
    } else {
        match rng.below(5) {
            0 => out.push_str(pick(rng, &["null", "true", "false"])),
            1 | 2 => push_number(rng, out),
            _ => push_string(rng, out),
        }
    }
    out.push_str(pick(rng, WHITESPACE));
}

/// Seeded random documents nested up to 20 deep, whole, cut at char
/// boundaries, and with one byte replaced (lossily re-decoded): both
/// parsers agree on every one.
#[test]
fn random_documents_match_oracle() {
    let mut rng = SplitMix64::new(0x0AC1_E5EED);
    let mut parsed = 0;
    for case in 0..400 {
        let mut doc = String::new();
        let max = rng.below(21) as usize;
        push_value(&mut rng, 0, max, true, &mut doc);
        parsed += usize::from(assert_agrees(&doc, &format!("case {case}")));
        let cuts: Vec<usize> = if doc.len() <= 256 {
            (0..doc.len()).collect()
        } else {
            (0..128)
                .map(|_| rng.below(doc.len() as u64) as usize)
                .collect()
        };
        for cut in cuts.into_iter().filter(|&c| doc.is_char_boundary(c)) {
            assert_agrees(&doc[..cut], &format!("case {case} cut at {cut}"));
        }
        for flip in 0..16 {
            let mut bytes = doc.clone().into_bytes();
            let at = rng.below(bytes.len() as u64) as usize;
            bytes[at] = rng.below(256) as u8;
            let text = String::from_utf8_lossy(&bytes);
            assert_agrees(&text, &format!("case {case} flip {flip}"));
        }
    }
    // Whole documents parse often enough to compare trees, and fail
    // often enough to compare errors.
    assert!(
        (100..350).contains(&parsed),
        "{parsed} of 400 documents parsed"
    );
}

/// Every small-scale answer `flod` serves, in its response envelope: 64
/// `simulate` keys (each app under Default and Inter, LRU and KARMA),
/// the same 64 under a fault spec, and 48 `layout` keys (each app at
/// every target).
#[test]
fn small_scale_answers_match_oracle() {
    let service = Service::with_budget(256 << 20);
    let mut reqs = Vec::new();
    for (k, w) in flo_workloads::all(Scale::Small).iter().enumerate() {
        let app = w.name.to_string();
        for scheme in [Scheme::Default, Scheme::Inter] {
            for policy in [PolicyKind::LruInclusive, PolicyKind::Karma] {
                for fault in [
                    None,
                    Some(FaultSpec {
                        seed: k as u64,
                        intensity: 1.0,
                    }),
                ] {
                    reqs.push(Request::Simulate {
                        app: app.clone(),
                        scale: Scale::Small,
                        scheme,
                        policy,
                        fault,
                    });
                }
            }
        }
        for target in TargetLayers::all() {
            reqs.push(Request::Layout {
                app: app.clone(),
                scale: Scale::Small,
                target,
            });
        }
    }
    assert_eq!(reqs.len(), 176);
    for (id, req) in reqs.iter().enumerate() {
        let body = service
            .execute_bytes(req)
            .expect("small-scale request runs");
        let envelope = ok_response_bytes_traced(id as u64, Some(id as u64), &body);
        let text = std::str::from_utf8(&envelope).expect("answers are UTF-8");
        assert!(
            assert_agrees(text, &format!("{req:?}")),
            "{req:?} did not parse"
        );
    }
}
