//! The SPICE card parser for the PG subset (`R`, `I`, `V`).
//!
//! Two halves, both driven by the one loop in [`crate::stream`]:
//! `parse_chunk` scans + parses one card-boundary chunk into raw cards
//! with zero-copy `&str` fields (the parallel half), and the `Merger`
//! folds chunk parses in source order into a [`Netlist`], interning
//! node names and checking duplicate element names (the serial half).
//! Because chunk boundaries depend only on the text (never on the
//! thread count) and the merge walks chunks in order, the resulting
//! [`Netlist`] — node-id assignment included — is identical to a fully
//! serial parse, and error line numbers are preserved.

use crate::error::{ParseError, ParseErrorKind};
use crate::lexer::scan_cards;
use crate::netlist::{CurrentSource, Netlist, Resistor, VoltageSource};
use crate::stream::{parse_reader, StreamError};
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
/// number, surfaced from the merge pass so a duplicate-name error on
/// the same line wins, exactly as in a serial parse.
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
/// first chunk-local error (if any). Merge consumes the cards first,
/// then the error, so an earlier-line error from a previous chunk
/// still wins overall.
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

/// Incremental serial merge state: absorbs chunk parses in source
/// order, interning node names (identical id assignment to a serial
/// parse) and enforcing unique element names across chunk boundaries.
pub(crate) struct Merger {
    netlist: Netlist,
    seen_names: HashSet<String>,
}

impl Merger {
    pub(crate) fn new() -> Self {
        Merger {
            netlist: Netlist::new(),
            seen_names: HashSet::new(),
        }
    }

    /// Folds one chunk's parse into the netlist. Cards are consumed
    /// before the chunk's own error, so an earlier-line error from a
    /// previous chunk still wins overall — the same priority a serial
    /// scan has.
    pub(crate) fn absorb(&mut self, chunk: ChunkParse<'_>) -> Result<(), ParseError> {
        for card in chunk.cards {
            let name = card.name.to_string();
            if !self.seen_names.insert(name.to_ascii_uppercase()) {
                return Err(ParseError {
                    line: card.line,
                    kind: ParseErrorKind::DuplicateElement(name),
                });
            }
            let Some(value) = card.value else {
                return Err(ParseError {
                    line: card.line,
                    kind: ParseErrorKind::InvalidValue(card.value_text.to_string()),
                });
            };
            let a = self.netlist.intern(card.a);
            let b = self.netlist.intern(card.b);
            match card.kind {
                CardKind::Resistor => self.netlist.add_resistor(Resistor {
                    name,
                    a,
                    b,
                    ohms: value,
                }),
                CardKind::Current => self.netlist.add_current_source(CurrentSource {
                    name,
                    from: a,
                    to: b,
                    amps: value,
                }),
                CardKind::Voltage => self.netlist.add_voltage_source(VoltageSource {
                    name,
                    plus: a,
                    minus: b,
                    volts: value,
                }),
            }
        }
        if let Some(error) = chunk.error {
            return Err(error);
        }
        Ok(())
    }

    pub(crate) fn finish(self) -> Netlist {
        self.netlist
    }
}

/// Parses SPICE source into a [`Netlist`].
///
/// Supported cards:
///
/// - `R<name> <node> <node> <value>` — resistor;
/// - `I<name> <node> <node> <value>` — DC current source;
/// - `V<name> <node> <node> <value>` — DC voltage source;
/// - `.end` / `.op` and other dot-cards are accepted and ignored;
/// - `*` comments, `$`/`;` inline comments, and `+` continuations.
///
/// This is [`parse_reader`] over the bytes of `src`: large sources
/// are parsed in parallel, and the result and any error — line number
/// included — are identical to a serial parse at any thread count.
///
/// # Errors
///
/// Returns a [`ParseError`] with the offending line number for
/// malformed cards, unknown element prefixes, bad numeric values,
/// duplicate element names, or dangling continuations.
///
/// # Example
///
/// ```
/// let n = irf_spice::parse("R1 a b 2.0\nV1 p 0 1.05\n.end\n")?;
/// assert_eq!(n.resistors()[0].ohms, 2.0);
/// assert_eq!(n.voltage_sources()[0].volts, 1.05);
/// # Ok::<(), irf_spice::ParseError>(())
/// ```
pub fn parse(src: &str) -> Result<Netlist, ParseError> {
    parse_reader(src.as_bytes()).map_err(in_memory_error)
}

/// The error of a parse whose source was a `&str`: reading one cannot
/// fail, so only the parse half of [`StreamError`] can occur.
fn in_memory_error(error: StreamError) -> ParseError {
    match error {
        StreamError::Parse(e) => e,
        StreamError::Io(e) => unreachable!("reading a &str cannot fail: {e}"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::netlist::NodeId;
    use crate::stream::parse_reader_chunked;
    use irf_runtime::Xoshiro256pp;

    /// [`parse`] at an explicit chunk size (two chunks per batch, so
    /// multi-batch merges are exercised too).
    fn parse_chunked(src: &str, cards_per_chunk: usize) -> Result<Netlist, ParseError> {
        parse_reader_chunked(src.as_bytes(), cards_per_chunk, 2).map_err(in_memory_error)
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
        assert_eq!(n.resistors().len(), 2);
        assert_eq!(n.current_sources().len(), 1);
        assert_eq!(n.voltage_sources().len(), 1);
        assert_eq!(n.current_sources()[0].amps, 1e-3);
        assert_eq!(n.current_sources()[0].to, NodeId::GROUND);
    }

    #[test]
    fn lowercase_prefixes_are_accepted() {
        let n = parse("r1 a b 1.0\ni1 a 0 1m\nv1 a 0 1.0\n").expect("parses");
        assert_eq!(n.resistors().len(), 1);
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
        assert!(matches!(err.kind, ParseErrorKind::DuplicateElement(_)));
    }

    #[test]
    fn duplicate_beats_bad_value_on_the_same_line() {
        // Serial parsing checked names before values; the parallel
        // parse must keep that priority even though values are parsed
        // eagerly in the chunk phase.
        let err = parse("R1 a b 1\nR1 c d zz\n").unwrap_err();
        assert_eq!(err.line, 2);
        assert!(matches!(err.kind, ParseErrorKind::DuplicateElement(_)));
    }

    #[test]
    fn continuations_apply_to_cards() {
        let n = parse("R1 a\n+ b 1.5\n").expect("parses");
        assert_eq!(n.resistors()[0].ohms, 1.5);
    }

    #[test]
    fn dangling_continuation_is_an_error() {
        let err = parse("+ b 1.5\n").unwrap_err();
        assert!(matches!(err.kind, ParseErrorKind::DanglingContinuation));
    }

    #[test]
    fn dot_cards_are_ignored() {
        let n = parse(".op\n.end\n").expect("parses");
        assert_eq!(n.node_count(), 1); // only ground
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
