//! The SPICE card parser for the PG subset (`R`, `I`, `V`).
//!
//! Two halves, both driven by the one loop in [`crate::stream`]:
//! `parse_chunk` scans + parses one card-boundary chunk into raw cards
//! with zero-copy `&str` fields (the parallel half), and
//! `ElementNames` checks, card by card in source order, that no element
//! name repeats (the serial half). Because chunk boundaries depend
//! only on the text (never on the thread count) and the names are
//! checked in source order, the cards and the first error — line
//! number included — are those of a fully serial parse.

use crate::error::{ParseError, ParseErrorKind};
use crate::lexer::scan_cards;
use crate::value::parse_spice_number;
use std::collections::HashSet;

/// What a raw card will become once merged.
#[derive(Clone, Copy, PartialEq, Eq)]
pub(crate) enum CardKind {
    Resistor,
    Current,
    Voltage,
}

/// One parsed card with fields still borrowing the source text. The
/// value is pre-parsed in the parallel phase; `None` marks a bad
/// number, surfaced by the serial walk after the name check, so a
/// duplicate-name error on the same line wins.
pub(crate) struct RawCard<'a> {
    pub(crate) kind: CardKind,
    pub(crate) name: &'a str,
    pub(crate) a: &'a str,
    pub(crate) b: &'a str,
    pub(crate) value: Option<f64>,
    pub(crate) value_text: &'a str,
    pub(crate) line: usize,
}

/// Everything one chunk contributes: the cards parsed before the
/// first chunk-local error (if any). The serial walk consumes the
/// cards first, then the error, so an earlier-line error from a
/// previous chunk still wins overall.
pub(crate) struct ChunkParse<'a> {
    pub(crate) cards: Vec<RawCard<'a>>,
    pub(crate) error: Option<ParseError>,
}

/// Scans and parses one chunk: `text` is whole physical lines starting
/// at a card boundary, `first_line` the 1-based source line of the
/// first of them.
pub(crate) fn parse_chunk(text: &str, first_line: usize) -> ChunkParse<'_> {
    let mut cards = Vec::new();
    let mut error = None;
    for card in scan_cards(text, first_line) {
        let [head, a, b, value_text] = card.fields;
        let line = card.line;
        let fail = |kind| Some(ParseError { line, kind });
        if head == "+" {
            error = fail(ParseErrorKind::DanglingContinuation);
            break;
        }
        let kind = match head.as_bytes()[0] {
            b'.' => continue, // control cards (.end, .op, ...) are ignored
            b'R' | b'r' => CardKind::Resistor,
            b'I' | b'i' => CardKind::Current,
            b'V' | b'v' => CardKind::Voltage,
            _ => {
                let prefix = head.chars().next().expect("a card has a first field");
                error = fail(ParseErrorKind::UnsupportedElement(
                    prefix.to_ascii_uppercase(),
                ));
                break;
            }
        };
        if card.count < 4 {
            error = fail(ParseErrorKind::MissingFields {
                element: char::from(head.as_bytes()[0].to_ascii_uppercase()),
                found: card.count,
            });
            break;
        }
        cards.push(RawCard {
            kind,
            name: head,
            a,
            b,
            value: parse_spice_number(value_text),
            value_text,
            line,
        });
    }
    ChunkParse { cards, error }
}

/// Every element name the serial walk has met, for the duplicate
/// check: names compare exactly, ASCII case ignored.
///
/// A name of the form `<prefix><decimal>` — non-empty prefix, a number
/// with no leading zero below [`ElementNames::MAX_DENSE_ID`], a prefix
/// among the first [`ElementNames::MAX_PREFIXES`] admitted — is one bit
/// in its prefix's bitset. Every other name is kept upper-cased in a
/// hash set.
///
/// Where a name lands depends only on the name and on the prefixes
/// admitted before it, and an admitted prefix is never evicted. Two
/// equal names therefore always meet in the same structure, which is
/// what makes the check exact.
///
/// The bitsets exist for speed: netlists name their elements `R1`,
/// `R2`, ..., and a hash set over every name cost a quarter of an
/// ingest (EXPERIMENTS.md, "One ingest path").
#[derive(Debug, Default)]
pub(crate) struct ElementNames {
    /// `(upper-cased prefix, bitset over ids)` per admitted prefix.
    dense: Vec<(Vec<u8>, Vec<u64>)>,
    /// Upper-cased names that are not dense.
    other: HashSet<String>,
}

impl ElementNames {
    /// `R`, `I` and `V`, with one to spare.
    pub(crate) const MAX_PREFIXES: usize = 4;
    /// 2^22 covers the ~2·10^6 resistors of a 10^6-node grid and caps
    /// each bitset at 512 KiB, all of them at 2 MiB.
    pub(crate) const MAX_DENSE_ID: u32 = 1 << 22;

    /// Records `name`; `false` when an equal name was recorded before.
    pub(crate) fn insert(&mut self, name: &str) -> bool {
        if let Some((prefix, id)) = dense_form(name) {
            if let Some(bits) = self.bitset(prefix) {
                let (word, bit) = (id as usize / 64, 1u64 << (id % 64));
                if word >= bits.len() {
                    bits.resize(word + 1, 0);
                }
                let fresh = bits[word] & bit == 0;
                bits[word] |= bit;
                return fresh;
            }
        }
        self.other.insert(name.to_ascii_uppercase())
    }

    /// The bitset of `prefix`, admitting it while the table has room.
    fn bitset(&mut self, prefix: &[u8]) -> Option<&mut Vec<u64>> {
        let at = match self
            .dense
            .iter()
            .position(|(known, _)| known.eq_ignore_ascii_case(prefix))
        {
            Some(at) => at,
            None if self.dense.len() < Self::MAX_PREFIXES => {
                self.dense.push((prefix.to_ascii_uppercase(), Vec::new()));
                self.dense.len() - 1
            }
            None => return None,
        };
        Some(&mut self.dense[at].1)
    }
}

/// `name` split into `(prefix, id)` when it is a non-empty prefix
/// followed by a decimal with no leading zero below
/// [`ElementNames::MAX_DENSE_ID`].
fn dense_form(name: &str) -> Option<(&[u8], u32)> {
    let bytes = name.as_bytes();
    let digits = bytes
        .iter()
        .rev()
        .take_while(|b| b.is_ascii_digit())
        .count();
    let (prefix, number) = bytes.split_at(bytes.len() - digits);
    // Seven digits hold every id below the limit without overflow.
    if prefix.is_empty() || number.is_empty() || number.len() > 7 {
        return None;
    }
    if number[0] == b'0' && number.len() > 1 {
        return None;
    }
    let id = number
        .iter()
        .fold(0u32, |id, &d| id * 10 + u32::from(d - b'0'));
    (id < ElementNames::MAX_DENSE_ID).then_some((prefix, id))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stream::tests::{cards_of, OwnedCard};
    use crate::stream::StreamError;
    use crate::StreamedCardKind;
    use irf_runtime::Xoshiro256pp;

    /// The visitor's cards for `src` at an explicit chunk size (two
    /// chunks per batch, so multi-batch walks are exercised too).
    fn parse_chunked(src: &str, cards_per_chunk: usize) -> Result<Vec<OwnedCard>, ParseError> {
        cards_of(src.as_bytes(), cards_per_chunk, 2).map_err(|e| match e {
            StreamError::Parse(e) => e,
            StreamError::Io(e) => unreachable!("reading a &str cannot fail: {e}"),
        })
    }

    fn parse(src: &str) -> Result<Vec<OwnedCard>, ParseError> {
        parse_chunked(src, 1024)
    }

    fn count(cards: &[OwnedCard], kind: StreamedCardKind) -> usize {
        cards.iter().filter(|card| card.0 == kind).count()
    }

    const TINY: &str = "\
* tiny PG
R1 n1_m1_0_0 n1_m1_1000_0 0.5
R2 n1_m4_0_0 n1_m1_0_0 0.1
I1 n1_m1_1000_0 0 1m
V1 n1_m4_0_0 0 1.1
.end
";

    #[test]
    fn parses_all_element_kinds() {
        let n = parse(TINY).expect("parses");
        assert_eq!(count(&n, StreamedCardKind::Resistor), 2);
        assert_eq!(count(&n, StreamedCardKind::CurrentSource), 1);
        assert_eq!(count(&n, StreamedCardKind::VoltageSource), 1);
        let (_, name, from, to, amps, line) = &n[2];
        assert_eq!(
            (name.as_str(), from.as_str(), to.as_str()),
            ("I1", "n1_m1_1000_0", "0")
        );
        assert_eq!((f64::from_bits(*amps), *line), (1e-3, 4));
    }

    #[test]
    fn lowercase_prefixes_are_accepted() {
        let n = parse("r1 a b 1.0\ni1 a 0 1m\nv1 a 0 1.0\n").expect("parses");
        assert_eq!(count(&n, StreamedCardKind::Resistor), 1);
        assert_eq!(count(&n, StreamedCardKind::CurrentSource), 1);
        assert_eq!(count(&n, StreamedCardKind::VoltageSource), 1);
    }

    #[test]
    fn missing_fields_error_carries_line() {
        let err = parse("R1 a b\n").unwrap_err();
        assert_eq!(err.line, 1);
        assert!(matches!(
            err.kind,
            ParseErrorKind::MissingFields {
                element: 'R',
                found: 3
            }
        ));
    }

    #[test]
    fn bad_value_is_reported() {
        let err = parse("R1 a b zz\n").unwrap_err();
        assert!(matches!(err.kind, ParseErrorKind::InvalidValue(_)));
    }

    #[test]
    fn unsupported_element_is_reported() {
        let err = parse("C1 a b 1p\n").unwrap_err();
        assert!(matches!(err.kind, ParseErrorKind::UnsupportedElement('C')));
    }

    #[test]
    fn duplicate_names_are_rejected() {
        let err = parse("R1 a b 1\nR1 c d 2\n").unwrap_err();
        assert_eq!(err.line, 2);
        assert_eq!(err.kind, ParseErrorKind::DuplicateElement("R1".into()));
    }

    #[test]
    fn duplicate_beats_bad_value_on_the_same_line() {
        // Names are checked before values, although values are parsed
        // eagerly in the chunk phase.
        let err = parse("R1 a b 1\nR1 c d zz\n").unwrap_err();
        assert_eq!(err.line, 2);
        assert!(matches!(err.kind, ParseErrorKind::DuplicateElement(_)));
    }

    #[test]
    fn continuations_apply_to_cards() {
        let n = parse("R1 a\n+ b 1.5\n").expect("parses");
        assert_eq!(f64::from_bits(n[0].4), 1.5);
    }

    #[test]
    fn dangling_continuation_is_an_error() {
        let err = parse("+ b 1.5\n").unwrap_err();
        assert!(matches!(err.kind, ParseErrorKind::DanglingContinuation));
    }

    #[test]
    fn dot_cards_are_ignored() {
        let n = parse(".op\n.end\n").expect("parses");
        assert!(n.is_empty());
    }

    /// Synthesizes a many-card source with a known structure.
    fn big_source(cards: usize) -> String {
        let mut src = String::from("* generated\nV1 n0 0 1.0\n");
        for i in 0..cards {
            src.push_str(&format!("R{i} n{i} n{} 0.5\n", i + 1));
        }
        src.push_str(".end\n");
        src
    }

    #[test]
    fn chunked_parse_matches_single_chunk_parse() {
        let src = big_source(100);
        let whole = parse_chunked(&src, usize::MAX).expect("parses");
        assert_eq!(whole.len(), 101);
        for cards in [1, 7, 32] {
            let chunked = parse_chunked(&src, cards).expect("parses");
            assert_eq!(whole, chunked, "cards_per_chunk={cards}");
        }
    }

    #[test]
    fn error_line_numbers_survive_chunking() {
        // Error deep in a later chunk: the reported line must be the
        // absolute source line, not a chunk-relative one.
        let mut src = big_source(100);
        src.push_str("R_bad x y zz\n");
        let expected_line = src.lines().count(); // the bad card is the last line
        for cards in [3, 16, usize::MAX] {
            let err = parse_chunked(&src, cards).unwrap_err();
            assert_eq!(err.line, expected_line, "cards_per_chunk={cards}");
            assert!(matches!(err.kind, ParseErrorKind::InvalidValue(_)));
        }
    }

    #[test]
    fn duplicates_across_chunks_are_detected() {
        let mut src = big_source(50);
        src.push_str("R7 dup dup2 1.0\n"); // duplicates a card from an earlier chunk
        let expected_line = src.lines().count();
        for cards in [4, 16] {
            let err = parse_chunked(&src, cards).unwrap_err();
            assert_eq!(err.line, expected_line, "cards_per_chunk={cards}");
            assert!(matches!(err.kind, ParseErrorKind::DuplicateElement(_)));
        }
    }

    #[test]
    fn earliest_error_wins_across_chunks() {
        // A missing-fields error in an early chunk must win over a
        // bad value in a later one, as in a serial scan.
        let src = "R1 a b 1\nR2 c\nR3 d e zz\nR4 f g 2\n";
        let err = parse_chunked(src, 1).unwrap_err();
        assert_eq!(err.line, 2);
        assert!(matches!(err.kind, ParseErrorKind::MissingFields { .. }));
    }

    #[test]
    fn dense_names_split_at_their_trailing_decimal() {
        assert_eq!(dense_form("R17"), Some((&b"R"[..], 17)));
        assert_eq!(dense_form("Rvia0"), Some((&b"Rvia"[..], 0)));
        assert_eq!(dense_form("é9"), Some(("é".as_bytes(), 9)));
        assert_eq!(dense_form("R4194303"), Some((&b"R"[..], 4_194_303)));
        for free in ["R", "17", "R017", "R00", "R4194304", "R12345678", "R1a", ""] {
            assert_eq!(dense_form(free), None, "{free:?}");
        }
    }

    #[test]
    fn the_prefix_table_stops_growing_when_full() {
        let mut names = ElementNames::default();
        for prefix in ["R", "i", "V", "Rx", "Ry", "Q"] {
            for id in 0..3 {
                assert!(names.insert(&format!("{prefix}{id}")), "{prefix}{id}");
            }
        }
        let admitted: Vec<&[u8]> = names.dense.iter().map(|(p, _)| p.as_slice()).collect();
        assert_eq!(admitted, [&b"R"[..], b"I", b"V", b"RX"]);
        let mut late: Vec<&str> = names.other.iter().map(String::as_str).collect();
        late.sort_unstable();
        assert_eq!(late, ["Q0", "Q1", "Q2", "RY0", "RY1", "RY2"]);
        // Equal names land where the first of them did.
        for repeat in ["r2", "I0", "v1", "rX2", "rY1", "q0"] {
            assert!(!names.insert(repeat), "{repeat}");
        }
        assert_eq!(names.dense.len(), ElementNames::MAX_PREFIXES);
    }

    /// The card loop `parse_chunk` replaced, over the oracle lexer:
    /// what the differential below holds the shipped pair to.
    fn oracle_parse_chunk(text: &str, first_line: usize) -> ChunkParse<'_> {
        let mut cards = Vec::new();
        let error = |line, kind| Some(ParseError { line, kind });
        for line in crate::lexer::oracle::logical_line_refs(text, first_line) {
            let fields = &line.fields;
            let head = fields[0];
            if head == "+" {
                let error = error(line.line, ParseErrorKind::DanglingContinuation);
                return ChunkParse { cards, error };
            }
            if head.starts_with('.') {
                continue;
            }
            let prefix = head
                .chars()
                .next()
                .expect("logical lines have non-empty fields")
                .to_ascii_uppercase();
            let kind = match prefix {
                'R' => CardKind::Resistor,
                'I' => CardKind::Current,
                'V' => CardKind::Voltage,
                other => {
                    let error = error(line.line, ParseErrorKind::UnsupportedElement(other));
                    return ChunkParse { cards, error };
                }
            };
            if fields.len() < 4 {
                let kind = ParseErrorKind::MissingFields {
                    element: prefix,
                    found: fields.len(),
                };
                let error = error(line.line, kind);
                return ChunkParse { cards, error };
            }
            cards.push(RawCard {
                kind,
                name: head,
                a: fields[1],
                b: fields[2],
                value: crate::value::oracle_parse_spice_number(fields[3]),
                value_text: fields[3],
                line: line.line,
            });
        }
        ChunkParse { cards, error: None }
    }

    /// Everything a sink can see of a run of chunk parses: the cards up
    /// to the first error, then that error.
    type Outcome = (
        Vec<(char, String, String, String, Option<u64>, String, usize)>,
        Option<ParseError>,
    );

    fn outcome<'a>(parses: impl Iterator<Item = ChunkParse<'a>>) -> Outcome {
        let mut cards = Vec::new();
        for parse in parses {
            cards.extend(parse.cards.iter().map(|c| {
                let kind = match c.kind {
                    CardKind::Resistor => 'R',
                    CardKind::Current => 'I',
                    CardKind::Voltage => 'V',
                };
                let text = |s: &str| s.to_string();
                let bits = c.value.map(f64::to_bits);
                (
                    kind,
                    text(c.name),
                    text(c.a),
                    text(c.b),
                    bits,
                    text(c.value_text),
                    c.line,
                )
            }));
            if parse.error.is_some() {
                return (cards, parse.error);
            }
        }
        (cards, None)
    }

    fn pick<'a>(rng: &mut Xoshiro256pp, from: &[&'a str]) -> &'a str {
        from[rng.random_range(0..from.len())]
    }

    /// One generated source: a few physical lines, each a card head, a
    /// continuation, a comment or blank, with separators, comment
    /// marks and line endings drawn at every position.
    fn generated_source(rng: &mut Xoshiro256pp) -> String {
        const SEPARATORS: [&str; 12] = [
            " ", " ", " ", "  ", "\t", "\r", "\x0B", "\x0C", "\u{85}", "\u{A0}", "\u{2003}", " \t ",
        ];
        const HEADS: [&str; 14] = [
            "R1", "R2", "r3", "I1", "i2", "V1", "v2", "C1", ".end", ".op", "Ré", "é1", "R*", "+",
        ];
        const FIELDS: [&str; 22] = [
            "a",
            "b",
            "0",
            "n1_m1_0_0",
            "n1_m4_100_200",
            "nœud",
            "名",
            "x*y",
            "1k",
            "1meg",
            "1MEG",
            "3mil",
            "1e",
            "1e+",
            "-3m",
            "+1",
            "zz",
            "10kohm",
            "1.5",
            "2e3",
            "1é",
            ".5u",
        ];
        const COMMENTS: [&str; 5] = ["$", ";", "$ note", "; R9 a b 1", "$;"];
        let mut src = String::new();
        let lines = 1 + rng.random_range(0..6);
        for line in 0..lines {
            if rng.random_range(0..4) == 0 {
                src.push_str(pick(rng, &SEPARATORS));
            }
            match rng.random_range(0..10) {
                0 => src.push_str("* comment R1 a b 1"),
                1 => {}
                2 | 3 => src.push('+'),
                _ => src.push_str(pick(rng, &HEADS)),
            }
            for _ in 0..rng.random_range(0..7) {
                // A continuation's first field may touch its `+`.
                if rng.random_range(0..8) != 0 {
                    src.push_str(pick(rng, &SEPARATORS));
                }
                match rng.random_range(0..16) {
                    0 => src.push_str(pick(rng, &COMMENTS)),
                    1 => src.push('*'),
                    2 => src.push('+'),
                    _ => src.push_str(pick(rng, &FIELDS)),
                }
            }
            if rng.random_range(0..4) == 0 {
                src.push_str(pick(rng, &SEPARATORS));
            }
            if rng.random_range(0..6) == 0 {
                src.push_str(pick(rng, &COMMENTS));
            }
            let last = line + 1 == lines;
            src.push_str(match rng.random_range(0..if last { 5 } else { 3 }) {
                0 | 1 => "\n",
                2 => "\r\n",
                3 => "\r",
                _ => "",
            });
        }
        src
    }

    #[test]
    fn shipped_scanner_and_chunker_match_the_oracle_on_generated_sources() {
        use crate::lexer::oracle::chunk_source;
        use crate::stream::read_chunks;

        let mut rng = Xoshiro256pp::seed_from_u64(0x1f_2023);
        let mut with_cards = 0usize;
        let mut with_errors = 0usize;
        for case in 0..100_000 {
            let src = generated_source(&mut rng);
            for cards_per_chunk in [1, 2, 1024] {
                let want_chunks = chunk_source(&src, cards_per_chunk);
                let chunks = read_chunks(src.as_bytes(), cards_per_chunk)
                    .expect("reading a &str cannot fail");
                assert_eq!(
                    chunks, want_chunks,
                    "case {case}: chunk bounds of {src:?} at {cards_per_chunk} cards"
                );
                let parses = |parse: fn(&str, usize) -> ChunkParse<'_>| {
                    outcome(chunks.iter().map(|(text, line)| parse(text, *line)))
                };
                let (got, want) = (parses(parse_chunk), parses(oracle_parse_chunk));
                assert_eq!(got, want, "case {case}: {src:?} at {cards_per_chunk} cards");
                if cards_per_chunk == 1 {
                    with_cards += usize::from(!want.0.is_empty());
                    with_errors += usize::from(want.1.is_some());
                }
            }
        }
        // The generator must keep exercising both outcomes.
        assert!(with_cards > 20_000, "{with_cards} sources had cards");
        assert!(with_errors > 20_000, "{with_errors} sources had errors");
    }
}
