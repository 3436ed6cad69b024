//! Fuzz-style robustness tests of the JSON parser: arbitrary byte soup,
//! truncated documents, and deeply broken structures must come back as
//! `Err`, never a panic. Deterministic SplitMix64 case generation
//! replaces `proptest` (unavailable offline).

/// Minimal SplitMix64 (flo-json is dependency-free by design, so the
/// test carries its own generator).
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n.max(1)
    }
}

/// A random well-formed document to mutate.
fn seed_doc(rng: &mut Rng) -> String {
    format!(
        "{{\"a\":[1,2.5,-3e{},\"s\\u00e9\\n\",true,null],\"b\":{{\"n\":{}}}}}",
        rng.below(4),
        rng.below(1_000_000)
    )
}

/// Random bytes, lossily decoded: parse never panics.
#[test]
fn byte_soup_never_panics() {
    let mut rng = Rng(0x50_07);
    for case in 0..500 {
        let len = rng.below(64) as usize;
        let bytes: Vec<u8> = (0..len).map(|_| rng.below(256) as u8).collect();
        let text = String::from_utf8_lossy(&bytes);
        if let Err(e) = flo_json::parse(&text) {
            assert!(!e.to_string().is_empty(), "case {case}");
        }
    }
}

/// Every truncation of a valid document errors (or parses, for the full
/// length) without panicking; prefixes of a complete value are invalid.
#[test]
fn truncations_are_graceful() {
    let mut rng = Rng(0x7121CA7E);
    for case in 0..100 {
        let doc = seed_doc(&mut rng);
        for cut in 0..doc.len() {
            if !doc.is_char_boundary(cut) {
                continue;
            }
            assert!(
                flo_json::parse(&doc[..cut]).is_err(),
                "case {case}: truncated doc at {cut} parsed: {:?}",
                &doc[..cut]
            );
        }
        flo_json::parse(&doc).unwrap_or_else(|e| panic!("case {case}: seed doc invalid: {e}"));
    }
}

/// Single-byte corruption of a valid document never panics the parser.
#[test]
fn corrupted_docs_never_panic() {
    let mut rng = Rng(0xC0_44);
    for case in 0..300 {
        let doc = seed_doc(&mut rng);
        let mut bytes = doc.into_bytes();
        let at = rng.below(bytes.len() as u64) as usize;
        bytes[at] = rng.below(256) as u8;
        let text = String::from_utf8_lossy(&bytes);
        if let Err(e) = flo_json::parse(&text) {
            assert!(!e.to_string().is_empty(), "case {case}");
        }
    }
}

/// `open` repeated `depth` times around `inner`, each level closed by
/// `close`.
fn nested(depth: usize, open: &str, inner: &str, close: &str) -> String {
    format!("{}{inner}{}", open.repeat(depth), close.repeat(depth))
}

/// Nesting is bounded at `MAX_DEPTH`, so no document can recurse the
/// parser off its stack (an overflow aborts the process; it does not
/// unwind). On a thread with a 256 KiB stack, a million levels of `[`
/// and of `{"a":`, closed or not, are errors, and a document nested
/// exactly `MAX_DEPTH` deep still parses.
#[test]
fn deep_nesting_is_bounded() {
    use flo_json::{parse, MAX_DEPTH};
    std::thread::Builder::new()
        .stack_size(256 << 10)
        .spawn(|| {
            for (open, close) in [("[", "]"), ("{\"a\":", "}")] {
                parse(&nested(MAX_DEPTH, open, "0", close))
                    .unwrap_or_else(|e| panic!("{MAX_DEPTH} levels of {open}: {e}"));
                let past = parse(&nested(MAX_DEPTH + 1, open, "0", close));
                assert_eq!(past.map_err(|e| e.msg), Err("nesting too deep"));
                let million = 1_000_000;
                assert!(parse(&nested(million, open, "0", close)).is_err());
                assert!(parse(&open.repeat(million)).is_err());
            }
        })
        .expect("spawn a small-stack thread")
        .join()
        .expect("deep documents are errors, not overflows");
}
