//! The parser driver: SPICE bytes from any [`BufRead`] source to
//! parsed cards, without materializing the file.
//!
//! One loop (`drive`) turns bytes into cards for every entry point of
//! this crate:
//!
//! 1. [`ChunkReader`] cuts the source into owned chunks at card
//!    boundaries: [`BufRead::read_until`] appends each line straight
//!    onto the accumulating chunk, the card-start rule
//!    ([`crate::lexer`]) is decided on those bytes, and UTF-8 is
//!    validated once per chunk, which lives only until it is parsed.
//! 2. A batch of a few dozen chunks is scanned + parsed in parallel
//!    (`parser::parse_chunk`), handed to a sink serially in source
//!    order, and dropped. Peak memory is one batch of source text plus
//!    whatever the sink builds — never the whole file.
//!
//! The loop has two sinks. [`parse_reader`] folds the cards into a
//! [`Netlist`] (interning node names, rejecting duplicate element
//! names); [`crate::parse`] is that over the bytes of a `&str`.
//! [`visit_cards`] hands each card to a callback instead, so `irf-pg`
//! can build its grid directly and skip the netlist entirely.
//!
//! # Determinism
//!
//! Chunk boundaries depend only on the bytes and the chunk size —
//! never on the thread count or the reader's buffer size — and the
//! sink runs serially in source order. The [`Netlist`] (node-id
//! assignment, [`Netlist::content_hash`] and all), the card sequence
//! and the first error with its line number are therefore identical
//! at any thread count and any chunk or batch size. Tests assert this.

use crate::error::{ParseError, ParseErrorKind};
use crate::lexer::is_card_start;
use crate::netlist::Netlist;
use crate::parser::{parse_chunk, CardKind, ChunkParse, Merger};
use std::io::{self, BufRead};

/// Cards per parallel parse chunk. Large enough that chunk overhead
/// is negligible, small enough that contest-scale netlists (millions
/// of cards) spread across every worker.
const CARDS_PER_CHUNK: usize = 1024;

/// How many chunks a batch holds before it is parsed and dropped.
/// Bounds resident source text to roughly
/// `CHUNKS_PER_BATCH * CARDS_PER_CHUNK` cards (~1–2 MB) while still
/// giving the parallel phase enough independent chunks to spread
/// across workers.
const CHUNKS_PER_BATCH: usize = 32;

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
pub struct ChunkReader<R> {
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
    /// Wraps `reader` with the default chunk size.
    pub fn new(reader: R) -> Self {
        Self::with_chunk_size(reader, CARDS_PER_CHUNK)
    }

    /// Wraps `reader` cutting chunks of roughly `cards_per_chunk`
    /// cards (minimum 1).
    pub fn with_chunk_size(reader: R, cards_per_chunk: usize) -> Self {
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
    pub fn next_chunk(&mut self) -> io::Result<Option<(String, usize)>> {
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

/// Reads SPICE text from `reader` and builds a [`Netlist`] without
/// ever holding the whole source in memory. See [`crate::parse`] for
/// the supported cards.
///
/// # Errors
///
/// [`StreamError::Io`] when the reader fails (including non-UTF-8
/// input, which wins over a parse error in the same batch of chunks),
/// [`StreamError::Parse`] for malformed SPICE — the earliest offending
/// line, duplicate element names included.
pub fn parse_reader<R: BufRead>(reader: R) -> Result<Netlist, StreamError> {
    parse_reader_chunked(reader, CARDS_PER_CHUNK, CHUNKS_PER_BATCH)
}

/// [`parse_reader`] with explicit chunk and batch sizes, so tests can
/// force many small chunks and batches on small sources; results are
/// identical for every `cards_per_chunk >= 1` and
/// `chunks_per_batch >= 1`.
///
/// # Errors
///
/// See [`parse_reader`].
#[doc(hidden)]
pub fn parse_reader_chunked<R: BufRead>(
    reader: R,
    cards_per_chunk: usize,
    chunks_per_batch: usize,
) -> Result<Netlist, StreamError> {
    let mut merger = Merger::new();
    drive(reader, cards_per_chunk, chunks_per_batch, |chunk| {
        merger.absorb(chunk)
    })?;
    Ok(merger.finish())
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

/// Card-visitor mode: streams `reader`, validating and parsing every
/// card exactly like [`parse_reader`], but hands each card to `visit`
/// in source order instead of building a [`Netlist`]. This lets
/// `irf-pg` build its grid as cards arrive with no netlist in memory
/// at all.
///
/// Scanning/parsing still runs chunk-parallel; only the visitor walk is
/// serial, so card order is exactly source order.
///
/// Malformed cards (bad prefixes, missing fields, bad values,
/// dangling continuations) error with the same line numbers as
/// [`parse_reader`]. **Not** checked here: duplicate element names,
/// which require whole-file state — use [`parse_reader`] when that
/// validation matters, or track names in the visitor.
///
/// # Errors
///
/// [`StreamError::Io`] / [`StreamError::Parse`] as in
/// [`parse_reader`]; a `ParseError` returned by `visit` aborts the
/// stream and is surfaced as [`StreamError::Parse`].
pub fn visit_cards<R, F>(reader: R, mut visit: F) -> Result<(), StreamError>
where
    R: BufRead,
    F: FnMut(&StreamedCard<'_>) -> Result<(), ParseError>,
{
    drive(reader, CARDS_PER_CHUNK, CHUNKS_PER_BATCH, |chunk| {
        for card in &chunk.cards {
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
mod tests {
    use super::*;
    use crate::lexer::oracle::chunk_source;
    use crate::parse;
    use std::io::{BufReader, Cursor};

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

    #[test]
    fn non_utf8_input_is_an_io_error_ahead_of_its_batch() {
        let valid = b"R1 a b 1\nR2 c d 2\nR3 \xFF e 3\nR4 f g 4\n";
        // A parse error on an earlier line of the same batch loses.
        let broken = b"R1 a b zz\nR2 c d 2\nR3 \xFF e 3\nR4 f g 4\n";
        for src in [&valid[..], &broken[..]] {
            invalid_data(parse_reader(src));
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
            match parse_reader_chunked(src, 1, 1) {
                Err(StreamError::Parse(e)) if src == broken => assert_eq!(e.line, 1),
                other => invalid_data(other),
            }
        }
        // The bad byte on the very line that cuts the first chunk.
        invalid_data(parse_reader_chunked(&b"R1 a b zz\nR2 \xFF d 2\n"[..], 1, 1));
        // Truncated multi-byte sequence at the end of the file.
        invalid_data(parse_reader(&b"R1 a b 1\nR2 c d 2 \xE2\x80"[..]));
    }

    #[test]
    fn streamed_netlist_is_bitwise_identical_to_batch() {
        let batch = parse(TRICKY).expect("parses");
        for (cards, per_batch) in [(1, 1), (2, 3), (1024, 32)] {
            let streamed =
                parse_reader_chunked(Cursor::new(TRICKY), cards, per_batch).expect("streams");
            assert_eq!(batch, streamed);
            assert_eq!(batch.content_hash(), streamed.content_hash());
        }
    }

    #[test]
    fn streamed_errors_match_batch_line_numbers() {
        let cases = [
            "R1 a b 1\nR1 c d 2\n",        // duplicate
            "R1 a b zz\n",                 // bad value
            "C1 a b 1p\n",                 // unsupported
            "R1 a b 1\nR2 c\n",            // missing fields
            "+ oops\n",                    // dangling continuation
            "R1 a b 1\nR2 c\nR3 d e zz\n", // earliest error wins
        ];
        for src in cases {
            let want = parse(src).unwrap_err();
            let got = match parse_reader_chunked(Cursor::new(src), 1, 2) {
                Err(StreamError::Parse(e)) => e,
                other => panic!("expected parse error for {src:?}, got {other:?}"),
            };
            assert_eq!(want, got, "src={src:?}");
        }
    }

    #[test]
    fn parse_path_roundtrips_a_file() {
        let dir = std::env::temp_dir();
        let path = dir.join("irf_spice_stream_test.sp");
        std::fs::write(&path, TRICKY).expect("writes");
        let file = std::fs::File::open(&path).expect("opens");
        let streamed = parse_reader(BufReader::new(file)).expect("parses");
        std::fs::remove_file(&path).ok();
        assert_eq!(streamed, parse(TRICKY).expect("parses"));
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
        let batch = parse(&src).expect("parses");
        for (cards, per_batch) in [(3, 1), (16, 4), (1024, 32)] {
            let streamed =
                parse_reader_chunked(Cursor::new(&src), cards, per_batch).expect("streams");
            assert_eq!(batch, streamed, "cards={cards} per_batch={per_batch}");
            assert_eq!(batch.content_hash(), streamed.content_hash());
        }
    }
}
