//! The parser driver: SPICE bytes from any [`BufRead`] source to
//! parsed cards, without materializing the file.
//!
//! One loop (`drive`) turns bytes into cards for every entry point of
//! this crate:
//!
//! 1. `ChunkReader` cuts the source into owned chunks at card
//!    boundaries: [`BufRead::read_until`] appends each line straight
//!    onto the accumulating chunk, the card-start rule
//!    ([`crate::lexer`]) is decided on those bytes, and UTF-8 is
//!    validated once per chunk, which lives only until it is parsed.
//! 2. A batch of a few dozen chunks is scanned + parsed in parallel
//!    (`parser::parse_chunk`), handed to a sink serially in source
//!    order, and dropped. Peak memory is one batch of source text plus
//!    whatever the sink builds — never the whole file.
//!
//! The loop has one sink, [`visit_cards`]: it checks each card's
//! element name against every name before it (`parser::ElementNames`),
//! then hands the card to a callback — `irf-pg` builds its grid from
//! them with no netlist in memory.
//!
//! # Determinism
//!
//! Chunk boundaries depend only on the bytes and the chunk size —
//! never on the thread count or the reader's buffer size — and the
//! sink runs serially in source order. The card sequence and the first
//! error with its line number are therefore identical at any thread
//! count and any chunk or batch size. Tests assert this.

use crate::error::{ParseError, ParseErrorKind};
use crate::lexer::is_card_start;
use crate::parser::{parse_chunk, CardKind, ChunkParse, ElementNames};
use std::io::{self, BufRead};

/// Cards per parallel parse chunk. Large enough that chunk overhead
/// is negligible, small enough that contest-scale netlists (millions
/// of cards) spread across every worker.
pub const CARDS_PER_CHUNK: usize = 1024;

/// How many chunks a batch holds before it is parsed and dropped.
/// Bounds resident source text to roughly
/// `CHUNKS_PER_BATCH * CARDS_PER_CHUNK` cards (~1–2 MB) while still
/// giving the parallel phase enough independent chunks to spread
/// across workers.
pub const CHUNKS_PER_BATCH: usize = 32;

/// Error from a streaming parse: either the underlying reader failed
/// or the SPICE text was malformed.
#[derive(Debug)]
pub enum StreamError {
    /// The reader returned an I/O error.
    Io(io::Error),
    /// The SPICE text failed to parse.
    Parse(ParseError),
}

impl std::fmt::Display for StreamError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StreamError::Io(e) => write!(f, "i/o error while reading netlist: {e}"),
            StreamError::Parse(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for StreamError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            StreamError::Io(e) => Some(e),
            StreamError::Parse(e) => Some(e),
        }
    }
}

impl From<io::Error> for StreamError {
    fn from(e: io::Error) -> Self {
        StreamError::Io(e)
    }
}

impl From<ParseError> for StreamError {
    fn from(e: ParseError) -> Self {
        StreamError::Parse(e)
    }
}

/// Incremental card-boundary chunker over a [`BufRead`] source.
///
/// Yields owned `(text, first_line)` chunks of whole physical lines,
/// `first_line` being the 1-based source line a chunk starts on: cuts
/// fall only on card-start lines, so comments and `+` continuations
/// travel with their card; the trailing chunk is emitted even when it
/// holds no card, and an empty source yields no chunks.
#[derive(Debug)]
pub(crate) struct ChunkReader<R> {
    reader: R,
    cards_per_chunk: usize,
    /// Bytes of the chunk currently accumulating.
    chunk: Vec<u8>,
    /// 1-based first physical line of the accumulating chunk.
    chunk_first_line: usize,
    cards_in_chunk: usize,
    /// Physical lines read so far.
    line_no: usize,
    done: bool,
}

/// The error `read_line` gives for bytes that are not UTF-8.
fn not_utf8<E>(_: E) -> io::Error {
    let kind = io::ErrorKind::InvalidData;
    io::Error::new(kind, "stream did not contain valid UTF-8")
}

impl<R: BufRead> ChunkReader<R> {
    /// Wraps `reader` cutting chunks of roughly `cards_per_chunk`
    /// cards (minimum 1).
    pub(crate) fn with_chunk_size(reader: R, cards_per_chunk: usize) -> Self {
        ChunkReader {
            reader,
            cards_per_chunk: cards_per_chunk.max(1),
            chunk: Vec::new(),
            chunk_first_line: 1,
            cards_in_chunk: 0,
            line_no: 0,
            done: false,
        }
    }

    /// Pulls the next chunk, or `Ok(None)` at end of input.
    ///
    /// # Errors
    ///
    /// Propagates reader errors, and rejects non-UTF-8 input with an
    /// `InvalidData` error from the call that read the offending line.
    pub(crate) fn next_chunk(&mut self) -> io::Result<Option<(String, usize)>> {
        if self.done {
            return Ok(None);
        }
        loop {
            let line_start = self.chunk.len();
            if self.reader.read_until(b'\n', &mut self.chunk)? == 0 {
                self.done = true;
                if self.chunk.is_empty() {
                    return Ok(None);
                }
                let text = String::from_utf8(std::mem::take(&mut self.chunk)).map_err(not_utf8)?;
                return Ok(Some((text, self.chunk_first_line)));
            }
            self.line_no += 1;
            if is_card_start(&self.chunk[line_start..]) {
                if self.cards_in_chunk >= self.cards_per_chunk {
                    // The line just read opens the next chunk, about
                    // as long as this one. It is validated now as well
                    // as with its chunk: a bad byte fails the call that
                    // read it.
                    let mut next = Vec::with_capacity(self.chunk.len());
                    next.extend_from_slice(&self.chunk[line_start..]);
                    std::str::from_utf8(&next).map_err(not_utf8)?;
                    self.chunk.truncate(line_start);
                    let text = String::from_utf8(std::mem::replace(&mut self.chunk, next))
                        .map_err(not_utf8)?;
                    let first_line = std::mem::replace(&mut self.chunk_first_line, self.line_no);
                    self.cards_in_chunk = 1;
                    return Ok(Some((text, first_line)));
                }
                self.cards_in_chunk += 1;
            }
        }
    }
}

/// Every chunk of `reader`, for tests that compare chunk boundaries.
#[cfg(test)]
pub(crate) fn read_chunks<R: BufRead>(
    reader: R,
    cards_per_chunk: usize,
) -> io::Result<Vec<(String, usize)>> {
    let mut chunker = ChunkReader::with_chunk_size(reader, cards_per_chunk);
    std::iter::from_fn(|| chunker.next_chunk().transpose()).collect()
}

/// The one loop that turns bytes into cards: batches of owned chunks
/// are parsed in parallel, then handed to `sink` serially in source
/// order. A chunk carries the cards parsed before its first error (if
/// any); sinks consume the cards, then surface the error.
fn drive<R: BufRead>(
    reader: R,
    cards_per_chunk: usize,
    chunks_per_batch: usize,
    mut sink: impl FnMut(ChunkParse<'_>) -> Result<(), ParseError>,
) -> Result<(), StreamError> {
    let mut span = irf_trace::span("spice_parse");
    let chunks_per_batch = chunks_per_batch.max(1);
    let mut chunker = ChunkReader::with_chunk_size(reader, cards_per_chunk);
    let mut n_chunks = 0usize;
    let mut n_cards = 0usize;
    let mut n_bytes = 0usize;
    loop {
        let mut batch: Vec<(String, usize)> = Vec::with_capacity(chunks_per_batch);
        while batch.len() < chunks_per_batch {
            match chunker.next_chunk()? {
                Some(c) => batch.push(c),
                None => break,
            }
        }
        if batch.is_empty() {
            break;
        }
        n_chunks += batch.len();
        n_bytes += batch.iter().map(|(text, _)| text.len()).sum::<usize>();
        let tasks: Vec<_> = batch
            .iter()
            .map(|(text, first_line)| move || parse_chunk(text, *first_line))
            .collect();
        for parsed in irf_runtime::par_map(tasks) {
            n_cards += parsed.cards.len();
            sink(parsed)?;
        }
        // `batch` (the only copy of this slice of source text) drops
        // here — resident source stays bounded by one batch.
    }
    irf_trace::registry().counter_add("irf_spice_chunks_total", &[], n_chunks as f64);
    if span.is_recording() {
        span.attr("bytes", n_bytes);
        span.attr("lines", chunker.line_no);
        span.attr("chunks", n_chunks);
        span.attr("cards", n_cards);
    }
    Ok(())
}

/// The element class of a [`StreamedCard`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StreamedCardKind {
    /// An `R` card.
    Resistor,
    /// An `I` card (DC current source).
    CurrentSource,
    /// A `V` card (DC voltage source).
    VoltageSource,
}

/// One validated card handed to a [`visit_cards`] callback, fields
/// borrowing the transient chunk text.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StreamedCard<'a> {
    /// Which element class the card declares.
    pub kind: StreamedCardKind,
    /// The element name (e.g. `R17`), original case.
    pub name: &'a str,
    /// First node name (`plus` / `from` for sources).
    pub a: &'a str,
    /// Second node name (`minus` / `to` for sources).
    pub b: &'a str,
    /// The parsed numeric value (ohms / amps / volts).
    pub value: f64,
    /// 1-based source line the card starts on.
    pub line: usize,
}

/// Streams SPICE text from `reader`, parsing and validating every
/// card, and hands each card to `visit` in source order — the one way
/// SPICE bytes reach a consumer. `irf-pg` builds its grid from these
/// cards as they arrive, so neither the source nor a netlist is ever
/// held in memory.
///
/// Supported cards:
///
/// - `R<name> <node> <node> <value>` — resistor;
/// - `I<name> <node> <node> <value>` — DC current source;
/// - `V<name> <node> <node> <value>` — DC voltage source;
/// - `.end` / `.op` and other dot-cards are accepted and ignored;
/// - `*` comments, `$`/`;` inline comments, and `+` continuations.
///
/// Scanning and parsing run chunk-parallel; only the walk that checks
/// names and calls `visit` is serial, so card order is exactly source
/// order.
///
/// Element names are unique: a card whose name equals an earlier
/// card's, ASCII case ignored (`R1` and `r1` are one name, `R01` and
/// `R1` two), is rejected with its own line and name. On one line a
/// duplicate name wins over a bad value.
///
/// # Errors
///
/// [`StreamError::Io`] when the reader fails (including non-UTF-8
/// input, which wins over a parse error in the same batch of chunks);
/// [`StreamError::Parse`] for the earliest malformed card — bad
/// prefix, missing fields, bad value, dangling continuation, duplicate
/// element name. A `ParseError` returned by `visit` aborts the stream
/// and is surfaced as [`StreamError::Parse`].
///
/// # Example
///
/// ```
/// use irf_spice::{visit_cards, StreamedCardKind};
///
/// let src = "R1 a b 2.0\nV1 a 0 1.05\n.end\n";
/// let mut volts = Vec::new();
/// visit_cards(src.as_bytes(), |card| {
///     if card.kind == StreamedCardKind::VoltageSource {
///         volts.push(card.value);
///     }
///     Ok(())
/// })?;
/// assert_eq!(volts, [1.05]);
///
/// let dup = visit_cards("R1 a b 1\nr1 c d 2\n".as_bytes(), |_| Ok(()));
/// assert!(dup.unwrap_err().to_string().contains("duplicate element name 'r1'"));
/// # Ok::<(), irf_spice::StreamError>(())
/// ```
pub fn visit_cards<R, F>(reader: R, visit: F) -> Result<(), StreamError>
where
    R: BufRead,
    F: FnMut(&StreamedCard<'_>) -> Result<(), ParseError>,
{
    visit_cards_chunked(reader, CARDS_PER_CHUNK, CHUNKS_PER_BATCH, visit)
}

/// [`visit_cards`] with explicit chunk and batch sizes, so tests can
/// force many small chunks and batches on small sources; the cards and
/// the error are identical for every `cards_per_chunk >= 1` and
/// `chunks_per_batch >= 1`.
///
/// # Errors
///
/// See [`visit_cards`].
#[doc(hidden)]
pub fn visit_cards_chunked<R, F>(
    reader: R,
    cards_per_chunk: usize,
    chunks_per_batch: usize,
    mut visit: F,
) -> Result<(), StreamError>
where
    R: BufRead,
    F: FnMut(&StreamedCard<'_>) -> Result<(), ParseError>,
{
    let mut names = ElementNames::default();
    drive(reader, cards_per_chunk, chunks_per_batch, |chunk| {
        for card in &chunk.cards {
            if !names.insert(card.name) {
                return Err(ParseError {
                    line: card.line,
                    kind: ParseErrorKind::DuplicateElement(card.name.to_string()),
                });
            }
            let Some(value) = card.value else {
                return Err(ParseError {
                    line: card.line,
                    kind: ParseErrorKind::InvalidValue(card.value_text.to_string()),
                });
            };
            let kind = match card.kind {
                CardKind::Resistor => StreamedCardKind::Resistor,
                CardKind::Current => StreamedCardKind::CurrentSource,
                CardKind::Voltage => StreamedCardKind::VoltageSource,
            };
            visit(&StreamedCard {
                kind,
                name: card.name,
                a: card.a,
                b: card.b,
                value,
                line: card.line,
            })?;
        }
        match chunk.error {
            Some(error) => Err(error),
            None => Ok(()),
        }
    })
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::lexer::oracle::chunk_source;
    use std::io::{BufReader, Cursor};

    /// A visited card with owned fields and the value's bits, so tests can
    /// compare whole card sequences.
    pub(crate) type OwnedCard = (StreamedCardKind, String, String, String, u64, usize);

    /// Every card [`visit_cards_chunked`] hands out for `src`, or its error.
    pub(crate) fn cards_of(
        src: &[u8],
        cards_per_chunk: usize,
        chunks_per_batch: usize,
    ) -> Result<Vec<OwnedCard>, StreamError> {
        let mut cards = Vec::new();
        visit_cards_chunked(src, cards_per_chunk, chunks_per_batch, |card| {
            let text = |s: &str| s.to_string();
            let (name, a, b) = (text(card.name), text(card.a), text(card.b));
            cards.push((card.kind, name, a, b, card.value.to_bits(), card.line));
            Ok(())
        })?;
        Ok(cards)
    }

    const TRICKY: &str = "\
* header comment
R1 n1_m1_0_0 n1_m1_1000_0 0.5
R2 n1_m4_0_0 n1_m1_0_0 0.1 $ inline comment

I1 n1_m1_1000_0 0 1m ; other comment
V1 n1_m4_0_0 0 1.1
R3 a
+ b 2.5
.end
";

    fn chunker_matches_chunk_source(src: &str, cards: usize) {
        let got = read_chunks(Cursor::new(src), cards).expect("no io errors");
        assert_eq!(chunk_source(src, cards), got, "src={src:?} cards={cards}");
    }

    #[test]
    fn chunk_reader_matches_batch_chunker() {
        for cards in [1, 2, 3, 100] {
            chunker_matches_chunk_source(TRICKY, cards);
            chunker_matches_chunk_source("", cards);
            chunker_matches_chunk_source("* only comments\n* here\n", cards);
            chunker_matches_chunk_source("R1 a b 1\nR2 c d 2", cards); // no trailing newline
            chunker_matches_chunk_source("+ dangling\n", cards);
        }
    }

    #[test]
    fn chunk_reader_is_independent_of_the_read_buffer() {
        let long = format!("R1 {} b 1\n+ 2 $ tail\nR2 c d 2\n", "n".repeat(200));
        let sources = [
            TRICKY,
            long.as_str(),                      // a line longer than every buffer
            "R1 a b 1\nR2 c d 2",               // no trailing newline
            "R1 a b 1\r\nR2 c d 2\r",           // the file ends in a lone `\r`
            "\u{2003}R1 nœud b 1\n\u{85}+ 2\n", // multi-byte across refills
        ];
        for src in sources {
            for cards in [1, 2, 100] {
                let want = chunk_source(src, cards);
                for capacity in [1, 2, 7, 64] {
                    let reader = BufReader::with_capacity(capacity, src.as_bytes());
                    let got = read_chunks(reader, cards).expect("no io errors");
                    assert_eq!(want, got, "src={src:?} cards={cards} capacity={capacity}");
                }
            }
        }
    }

    fn invalid_data(result: Result<impl std::fmt::Debug, StreamError>) {
        match result {
            Err(StreamError::Io(e)) => assert_eq!(e.kind(), io::ErrorKind::InvalidData),
            other => panic!("expected an InvalidData i/o error, got {other:?}"),
        }
    }

    /// The whole source as one chunk: the serial walk every chunking
    /// must reproduce.
    fn whole(src: &[u8]) -> Result<Vec<OwnedCard>, StreamError> {
        cards_of(src, usize::MAX, 1)
    }

    fn parse_error(result: Result<Vec<OwnedCard>, StreamError>) -> ParseError {
        match result {
            Err(StreamError::Parse(e)) => e,
            other => panic!("expected a parse error, got {other:?}"),
        }
    }

    #[test]
    fn non_utf8_input_is_an_io_error_ahead_of_its_batch() {
        let valid = b"R1 a b 1\nR2 c d 2\nR3 \xFF e 3\nR4 f g 4\n";
        // A parse error on an earlier line of the same batch loses.
        let broken = b"R1 a b zz\nR2 c d 2\nR3 \xFF e 3\nR4 f g 4\n";
        for src in [&valid[..], &broken[..]] {
            let mut seen = 0usize;
            invalid_data(visit_cards(src, |_| {
                seen += 1;
                Ok(())
            }));
            assert_eq!(seen, 0, "no card of the batch reaches the sink");
            // One chunk per batch: the bad line is read by the call
            // that emits the chunk before it, so that chunk's batch is
            // the one that fails — line 2 never reaches the sink, and
            // only line 1's error, a batch earlier, can win.
            match cards_of(src, 1, 1) {
                Err(StreamError::Parse(e)) if src == broken => assert_eq!(e.line, 1),
                other => invalid_data(other),
            }
        }
        // The bad byte on the very line that cuts the first chunk.
        invalid_data(cards_of(&b"R1 a b zz\nR2 \xFF d 2\n"[..], 1, 1));
        // Truncated multi-byte sequence at the end of the file.
        invalid_data(visit_cards(&b"R1 a b 1\nR2 c d 2 \xE2\x80"[..], |_| Ok(())));
    }

    #[test]
    fn streamed_netlist_is_bitwise_identical_to_batch() {
        let batch = whole(TRICKY.as_bytes()).expect("parses");
        assert_eq!(batch.len(), 5);
        for (cards, per_batch) in [(1, 1), (2, 3), (1024, 32)] {
            let streamed = cards_of(TRICKY.as_bytes(), cards, per_batch).expect("streams");
            assert_eq!(batch, streamed, "cards={cards} per_batch={per_batch}");
        }
    }

    #[test]
    fn streamed_errors_match_batch_line_numbers() {
        let cases = [
            ("R1 a b 1\nR1 c d 2\n", 2),        // duplicate
            ("R1 a b zz\n", 1),                 // bad value
            ("C1 a b 1p\n", 1),                 // unsupported
            ("R1 a b 1\nR2 c\n", 2),            // missing fields
            ("+ oops\n", 1),                    // dangling continuation
            ("R1 a b 1\nR2 c\nR3 d e zz\n", 2), // earliest error wins
        ];
        for (src, line) in cases {
            let want = parse_error(whole(src.as_bytes()));
            assert_eq!(want.line, line, "src={src:?}");
            let got = parse_error(cards_of(src.as_bytes(), 1, 2));
            assert_eq!(want, got, "src={src:?}");
        }
    }

    #[test]
    fn parse_path_roundtrips_a_file() {
        let dir = std::env::temp_dir();
        let path = dir.join("irf_spice_stream_test.sp");
        std::fs::write(&path, TRICKY).expect("writes");
        let file = std::fs::File::open(&path).expect("opens");
        let mut from_file = Vec::new();
        visit_cards(BufReader::new(file), |card| {
            from_file.push((card.kind, card.name.to_string(), card.value.to_bits()));
            Ok(())
        })
        .expect("parses");
        std::fs::remove_file(&path).ok();
        let in_memory: Vec<_> = whole(TRICKY.as_bytes())
            .expect("parses")
            .into_iter()
            .map(|(kind, name, _, _, bits, _)| (kind, name, bits))
            .collect();
        assert_eq!(from_file, in_memory);
    }

    #[test]
    fn visitor_sees_cards_in_source_order_with_values() {
        let mut seen = Vec::new();
        visit_cards(Cursor::new(TRICKY), |card| {
            seen.push((card.kind, card.name.to_string(), card.value, card.line));
            Ok(())
        })
        .expect("streams");
        assert_eq!(seen.len(), 5);
        assert_eq!(
            seen[0],
            (StreamedCardKind::Resistor, "R1".to_string(), 0.5, 2)
        );
        assert_eq!(seen[2].0, StreamedCardKind::CurrentSource);
        assert_eq!(seen[2].2, 1e-3);
        assert_eq!(seen[3].0, StreamedCardKind::VoltageSource);
        assert_eq!(
            seen[4],
            (StreamedCardKind::Resistor, "R3".to_string(), 2.5, 7)
        );
    }

    #[test]
    fn visitor_surfaces_errors_and_stops() {
        let mut count = 0usize;
        let err = visit_cards(Cursor::new("R1 a b 1\nR2 c d zz\nR3 e f 2\n"), |_| {
            count += 1;
            Ok(())
        })
        .unwrap_err();
        match err {
            StreamError::Parse(e) => {
                assert_eq!(e.line, 2);
                assert!(matches!(e.kind, ParseErrorKind::InvalidValue(_)));
            }
            StreamError::Io(e) => panic!("unexpected io error: {e}"),
        }
        assert_eq!(count, 1, "visitor must stop at the first error");
    }

    #[test]
    fn visitor_can_abort_with_its_own_error() {
        let err = visit_cards(Cursor::new("R1 a b 1\nR2 c d 2\n"), |card| {
            if card.name == "R2" {
                Err(ParseError {
                    line: card.line,
                    kind: ParseErrorKind::InvalidValue("visitor says no".into()),
                })
            } else {
                Ok(())
            }
        })
        .unwrap_err();
        match err {
            StreamError::Parse(e) => assert_eq!(e.line, 2),
            StreamError::Io(e) => panic!("unexpected io error: {e}"),
        }
    }

    #[test]
    fn big_source_streams_identically_across_batch_sizes() {
        let mut src = String::from("* generated\nV1 n0 0 1.0\n");
        for i in 0..500 {
            src.push_str(&format!("R{i} n{i} n{} 0.5\n", i + 1));
            if i % 7 == 0 {
                src.push_str("* interleaved comment\n");
            }
        }
        src.push_str("I1 n250 0 2m\n.end\n");
        let batch = whole(src.as_bytes()).expect("parses");
        assert_eq!(batch.len(), 502);
        for (cards, per_batch) in [(3, 1), (16, 4), (1024, 32)] {
            let streamed = cards_of(src.as_bytes(), cards, per_batch).expect("streams");
            assert_eq!(batch, streamed, "cards={cards} per_batch={per_batch}");
        }
    }

    /// The duplicate the visitor reports for `src` at every chunking,
    /// as `(line, name)`; `None` when it has none.
    fn duplicate(src: &str) -> Option<(usize, String)> {
        let mut found = Vec::new();
        for (cards, per_batch) in [(1, 1), (2, 3), (7, 2), (1024, 32), (usize::MAX, 1)] {
            found.push(match cards_of(src.as_bytes(), cards, per_batch) {
                Ok(_) => None,
                Err(StreamError::Parse(ParseError {
                    line,
                    kind: ParseErrorKind::DuplicateElement(name),
                })) => Some((line, name)),
                Err(other) => panic!("{src:?}: unexpected error {other}"),
            });
        }
        assert!(found.windows(2).all(|w| w[0] == w[1]), "{src:?}: {found:?}");
        found.pop().expect("five chunkings")
    }

    fn dup(line: usize, name: &str) -> Option<(usize, String)> {
        Some((line, name.to_string()))
    }

    #[test]
    fn names_differing_only_in_case_are_duplicates() {
        // Dense names (`<prefix><decimal>`) and a free-form one.
        assert_eq!(duplicate("R1 a b 1\nr1 c d 2\n"), dup(2, "r1"));
        assert_eq!(duplicate("Rvia_a a b 1\nrVIA_A c d 2\n"), dup(2, "rVIA_A"));
        assert_eq!(duplicate("Rx7 a b 1\nrX7 c d 2\n"), dup(2, "rX7"));
        assert_eq!(duplicate("V1 a 0 1\nv1 b 0 1\n"), dup(2, "v1"));
        // The same number under another prefix is another name.
        assert_eq!(duplicate("R1 a b 1\nI1 a 0 1m\n"), None);
    }

    #[test]
    fn a_leading_zero_makes_a_different_name() {
        assert_eq!(duplicate("R01 a b 1\nR1 c d 2\n"), None);
        assert_eq!(duplicate("R1 a b 1\nR01 c d 2\n"), None);
        assert_eq!(duplicate("R0 a b 1\nR00 c d 2\n"), None);
        assert_eq!(duplicate("R01 a b 1\nr01 c d 2\n"), dup(2, "r01"));
        assert_eq!(duplicate("R0 a b 1\nr0 c d 2\n"), dup(2, "r0"));
    }

    #[test]
    fn duplicates_are_caught_across_chunk_boundaries() {
        let mut src = String::new();
        for i in 0..40 {
            src.push_str(&format!("R{i} n{i} n{} 1\nRs_{i} n{i} 0 2\n", i + 1));
        }
        assert_eq!(duplicate(&src), None);
        let lines = src.lines().count();
        for (late, want) in [("r3", "r3"), ("RS_5", "RS_5")] {
            let with_dup = format!("{src}{late} x y 1\nR999 p q 1\n");
            assert_eq!(duplicate(&with_dup), dup(lines + 1, want), "{late}");
        }
    }

    #[test]
    fn ids_past_the_dense_limit_are_checked_by_name() {
        let limit = ElementNames::MAX_DENSE_ID;
        let (at, past, far) = (limit - 1, limit, 10 * u64::from(limit));
        let src = format!(
            "R{at} a b 1\nR{past} a b 1\nR{far} a b 1\nR{} a b 1\n",
            u64::MAX
        );
        assert_eq!(duplicate(&src), None);
        for (name, repeat) in [
            (at.to_string(), "r"),
            (past.to_string(), "r"),
            (far.to_string(), "R"),
        ] {
            let with_dup = format!("{src}{repeat}{name} c d 2\n");
            assert_eq!(duplicate(&with_dup), dup(5, &format!("{repeat}{name}")));
        }
        let overflow = format!("{src}R{}0 c d 2\nr{} e f 3\n", u64::MAX, u64::MAX);
        assert_eq!(duplicate(&overflow), dup(6, &format!("r{}", u64::MAX)));
    }

    #[test]
    fn a_prefix_arriving_after_the_table_is_full_is_checked_by_name() {
        // `Ra`..`Rd` fill the prefix table; `Rz` and `R` arrive after it.
        let mut src = String::new();
        for prefix in ["Ra", "Rb", "Rc", "Rd", "Rz", "R"] {
            for i in 0..5 {
                src.push_str(&format!("{prefix}{i} a b 1\n"));
            }
        }
        assert_eq!(duplicate(&src), None);
        for (late, line) in [("rZ3", 31), ("r4", 31), ("rA0", 31), ("RD4", 31)] {
            assert_eq!(duplicate(&format!("{src}{late} x y 1\n")), dup(line, late));
        }
    }

    #[test]
    fn dense_and_free_form_names_never_collide() {
        // Seven names sharing a prefix or digits: `R7`, `R77` and `RR7`
        // are dense, the rest free-form.
        let src = "R7 a b 1\nR7a a b 1\nR07 a b 1\nR a b 1\nR_7 a b 1\nR77 a b 1\nRR7 a b 1\n";
        assert_eq!(duplicate(src), None);
        for late in ["r", "r7A", "rr7", "r_7", "r07"] {
            assert_eq!(duplicate(&format!("{src}{late} a b 1\n")), dup(8, late));
        }
    }

    #[test]
    fn a_duplicate_name_wins_over_a_bad_value_on_its_line() {
        assert_eq!(duplicate("R1 a b 1\nr1 c d zz\n"), dup(2, "r1"));
        // A bad value on an earlier line still wins.
        let err = parse_error(whole(b"R1 a b zz\nr1 c d 1\n"));
        assert_eq!(err.line, 1);
        assert!(matches!(err.kind, ParseErrorKind::InvalidValue(_)));
    }
}
