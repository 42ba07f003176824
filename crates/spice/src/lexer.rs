//! The card scanner: one forward pass over the bytes of a chunk.
//!
//! The line grammar is written down here and nowhere else; the chunker
//! (`stream::ChunkReader`) and the card parser
//! (`parser::parse_chunk`) both read it from this module.
//!
//! # Grammar
//!
//! * **Physical lines** end at `\n` and nowhere else; a `\r` anywhere
//!   is an ordinary separator.
//! * **Separators** are exactly what `char::is_whitespace` accepts:
//!   space, `\t`, `\x0B`, `\x0C`, `\r` on the byte path, and — decoded
//!   in the same loop when a byte `>= 0x80` turns up — U+0085, U+00A0,
//!   U+1680, U+2000–U+200A, U+2028, U+2029, U+202F, U+205F, U+3000.
//!   Fields are the runs between separators.
//! * **Comments**: a line whose content starts with `*` is dropped
//!   whole; a `$` or `;` anywhere (mid-field too) ends the line's
//!   content. A line with no content is skipped.
//! * **Continuations**: a line whose content starts with `+` gives the
//!   fields after the `+` to the card before it, whatever that card is
//!   (a dot-card, one the parser will reject). With no card before it
//!   in the scanned text it is *dangling* and comes out as a card whose
//!   only field is `"+"`.
//! * Every other line **starts a card**. The chunker cuts the source
//!   only at such lines (`is_card_start`), so no continuation reaches
//!   back across a cut and chunks scan independently, in parallel.
//!
//! `scan_cards` hands on each logical card as its first line number,
//! first four fields and field count — all the parser reads — and
//! allocates nothing; fields borrow the chunk text.

const FIELD: u8 = 0;
const SEPARATOR: u8 = 1;
/// `\n`, `$` or `;`: ends a field and a run of separators alike.
const STOP: u8 = 2;
/// A byte of a multi-byte character, which may be a separator.
const WIDE: u8 = 3;

/// What each byte means to the scanner.
const CLASS: [u8; 256] = {
    let mut class = [FIELD; 256];
    class[b' ' as usize] = SEPARATOR;
    class[b'\t' as usize] = SEPARATOR;
    class[0x0B] = SEPARATOR;
    class[0x0C] = SEPARATOR;
    class[b'\r' as usize] = SEPARATOR;
    class[b'\n' as usize] = STOP;
    class[b'$' as usize] = STOP;
    class[b';' as usize] = STOP;
    let mut b = 0x80;
    while b < 256 {
        class[b] = WIDE;
        b += 1;
    }
    class
};

/// Byte length of the multi-byte separator starting at `bytes[0]`
/// (a [`WIDE`] byte), or 0 when the character there belongs to a
/// field. Input that is not UTF-8 gets an arbitrary answer, never a
/// panic: the chunker calls this before its chunk is validated, and
/// such a chunk is rejected whatever its boundaries were.
fn wide_separator_len(bytes: &[u8]) -> usize {
    // No separator needs four bytes.
    let (len, lead_bits) = match bytes[0] {
        lead @ 0xC2..=0xDF => (2, lead & 0x1F),
        lead @ 0xE0..=0xEF => (3, lead & 0x0F),
        _ => return 0,
    };
    let Some(tail) = bytes.get(1..len) else {
        return 0;
    };
    let code = tail.iter().fold(u32::from(lead_bits), |code, &b| {
        (code << 6) | u32::from(b & 0x3F)
    });
    match char::from_u32(code) {
        Some(c) if c.is_whitespace() => len,
        _ => 0,
    }
}

/// Offset of the first byte at or after `i` that is not a separator: a
/// field byte, `\n`, `$`, `;`, or `bytes.len()`.
///
/// The scan's three loops are `inline(always)`: left to the inliner,
/// traced `spice.visit_s` read 6.5–6.9 ms on the 2.4 MB benchmark file;
/// forced, 6.0–6.5 ms (three alternations; EXPERIMENTS.md).
#[inline(always)]
fn skip_separators(bytes: &[u8], mut i: usize) -> usize {
    while i < bytes.len() {
        match CLASS[bytes[i] as usize] {
            SEPARATOR => i += 1,
            WIDE => match wide_separator_len(&bytes[i..]) {
                0 => break,
                len => i += len,
            },
            _ => break,
        }
    }
    i
}

/// Offset one past the field that starts at `i`.
#[inline(always)]
fn field_end(bytes: &[u8], mut i: usize) -> usize {
    while i < bytes.len() {
        match CLASS[bytes[i] as usize] {
            FIELD => i += 1,
            WIDE if wide_separator_len(&bytes[i..]) == 0 => i += 1,
            _ => break,
        }
    }
    i
}

/// `true` when a raw physical line *starts* a card: it has content,
/// and the content starts with neither `*` nor `+`. The one rule chunk
/// boundaries are cut by.
pub(crate) fn is_card_start(line: &[u8]) -> bool {
    !matches!(
        line.get(skip_separators(line, 0)),
        None | Some(b'\n' | b'$' | b';' | b'*' | b'+')
    )
}

/// One logical card: a card-start line merged with its continuations.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct LogicalCard<'a> {
    /// 1-based number of the first physical line.
    pub(crate) line: usize,
    /// The first four fields (`""` past `count`).
    pub(crate) fields: [&'a str; 4],
    /// How many fields the card has, the ones past the fourth included.
    pub(crate) count: usize,
}

impl<'a> LogicalCard<'a> {
    fn new(line: usize, first: &'a str, count: usize) -> Self {
        let fields = [first, "", "", ""];
        LogicalCard {
            line,
            fields,
            count,
        }
    }

    fn push(&mut self, field: &'a str) {
        if let Some(slot) = self.fields.get_mut(self.count) {
            *slot = field;
        }
        self.count += 1;
    }
}

/// The iterator behind [`scan_cards`].
pub(crate) struct Cards<'a> {
    text: &'a str,
    /// Byte offset and line number of the next unread physical line.
    pos: usize,
    line: usize,
}

/// Scans `text` — whole physical lines, the first of them source line
/// `first_line` — into its logical cards; the grammar is in the
/// [module docs](self).
pub(crate) fn scan_cards(text: &str, first_line: usize) -> Cards<'_> {
    let (pos, line) = (0, first_line);
    Cards { text, pos, line }
}

/// Pushes the fields of the line content starting at `i` onto `card`;
/// returns where the content ends (at `\n`, `$`, `;` or the text's end).
#[inline(always)]
fn scan_fields<'a>(text: &'a str, mut i: usize, card: &mut LogicalCard<'a>) -> usize {
    let bytes = text.as_bytes();
    loop {
        i = skip_separators(bytes, i);
        if matches!(bytes.get(i), None | Some(b'\n' | b'$' | b';')) {
            return i;
        }
        let end = field_end(bytes, i);
        card.push(&text[i..end]);
        i = end;
    }
}

impl<'a> Iterator for Cards<'a> {
    type Item = LogicalCard<'a>;

    /// Reads from a card-start line up to (not into) the next one, so
    /// a card is handed on complete, continuations merged.
    fn next(&mut self) -> Option<LogicalCard<'a>> {
        let text = self.text;
        let bytes = text.as_bytes();
        let mut card: Option<LogicalCard<'a>> = None;
        while self.pos < bytes.len() {
            let lead = skip_separators(bytes, self.pos);
            let content_end = match bytes.get(lead) {
                None | Some(b'\n' | b'$' | b';' | b'*') => lead,
                Some(b'+') => match &mut card {
                    Some(card) => scan_fields(text, lead + 1, card),
                    None => {
                        // Dangling: the rest of this line is dropped,
                        // later `+` lines continue it like any card.
                        card = Some(LogicalCard::new(self.line, &text[lead..=lead], 1));
                        lead
                    }
                },
                Some(_) if card.is_some() => return card,
                Some(_) => scan_fields(text, lead, card.insert(LogicalCard::new(self.line, "", 0))),
            };
            self.pos = match bytes[content_end..].iter().position(|&b| b == b'\n') {
                Some(newline) => content_end + newline + 1,
                None => bytes.len(),
            };
            self.line += 1;
        }
        card
    }
}

/// The lexer this module replaced, kept as the oracle the shipped
/// scanner and chunker are tested against: `str::lines`, `split`,
/// `trim` and `split_whitespace`, a `Vec` per line.
#[cfg(test)]
pub(crate) mod oracle {
    /// A logical netlist line after continuation merging.
    #[derive(Debug, Clone, PartialEq, Eq)]
    pub(crate) struct LogicalLine {
        /// 1-based number of the first physical line.
        pub(crate) line: usize,
        /// Whitespace-separated fields of the merged card.
        pub(crate) fields: Vec<String>,
    }

    /// [`LogicalLine`] with fields borrowing the source text.
    #[derive(Debug, Clone, PartialEq, Eq)]
    pub(crate) struct LineRef<'a> {
        /// 1-based number of the first physical line.
        pub(crate) line: usize,
        /// Whitespace-separated fields of the merged card.
        pub(crate) fields: Vec<&'a str>,
    }

    /// The card-start rule on a `&str` line.
    pub(crate) fn is_card_start(raw: &str) -> bool {
        let body = raw.split(['$', ';']).next().unwrap_or("").trim();
        !body.is_empty() && !body.starts_with('*') && !body.starts_with('+')
    }

    /// Whole-source reference chunker, the oracle for
    /// `stream::ChunkReader`: splits `src` into
    /// `(text, first_line)` chunks of roughly `cards_per_chunk` cards,
    /// cutting only at card-start lines so comment and continuation
    /// lines travel with the card they belong to.
    pub(crate) fn chunk_source(src: &str, cards_per_chunk: usize) -> Vec<(String, usize)> {
        let cards_per_chunk = cards_per_chunk.max(1);
        let mut chunks = Vec::new();
        let mut chunk_start_byte = 0usize;
        let mut chunk_start_line = 1usize;
        let mut cards_in_chunk = 0usize;
        let mut offset = 0usize;
        let mut line_no = 0usize;
        for raw in src.split_inclusive('\n') {
            line_no += 1;
            if is_card_start(raw) {
                if cards_in_chunk >= cards_per_chunk {
                    chunks.push((src[chunk_start_byte..offset].to_string(), chunk_start_line));
                    chunk_start_byte = offset;
                    chunk_start_line = line_no;
                    cards_in_chunk = 0;
                }
                cards_in_chunk += 1;
            }
            offset += raw.len();
        }
        if chunk_start_byte < src.len() {
            chunks.push((src[chunk_start_byte..].to_string(), chunk_start_line));
        }
        chunks
    }

    /// Lexes SPICE source into logical lines; physical line numbers
    /// are offset by `first_line`. A leading `+` with no previous card
    /// surfaces as a line whose only field is `"+"`.
    pub(crate) fn logical_line_refs(src: &str, first_line: usize) -> Vec<LineRef<'_>> {
        let mut out: Vec<LineRef<'_>> = Vec::new();
        for (idx, raw) in src.lines().enumerate() {
            let line_no = first_line + idx;
            // Strip inline comments.
            let body = raw.split(['$', ';']).next().unwrap_or("").trim();
            if body.is_empty() || body.starts_with('*') {
                continue;
            }
            if let Some(rest) = body.strip_prefix('+') {
                match out.last_mut() {
                    Some(prev) => {
                        prev.fields.extend(rest.split_whitespace());
                        continue;
                    }
                    None => {
                        // Surface the dangling continuation to the parser.
                        out.push(LineRef {
                            line: line_no,
                            fields: vec!["+"],
                        });
                        continue;
                    }
                }
            }
            out.push(LineRef {
                line: line_no,
                fields: body.split_whitespace().collect(),
            });
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::oracle::{chunk_source, LogicalLine};
    use super::*;
    use crate::stream::read_chunks;

    /// The shipped scanner's cards in the oracle's shape (a card keeps
    /// its first four fields), checked against the oracle's own lexing
    /// of the same text.
    fn scanned(text: &str, first_line: usize) -> Vec<LogicalLine> {
        let cards: Vec<LogicalCard<'_>> = scan_cards(text, first_line).collect();
        let want = oracle::logical_line_refs(text, first_line);
        assert_eq!(
            cards.iter().map(|c| c.count).collect::<Vec<_>>(),
            want.iter().map(|l| l.fields.len()).collect::<Vec<_>>(),
            "text={text:?}"
        );
        let first_four = |line: usize, fields: &[&str]| LogicalLine {
            line,
            fields: fields.iter().take(4).map(|f| (*f).to_string()).collect(),
        };
        let got: Vec<LogicalLine> = cards
            .iter()
            .map(|c| first_four(c.line, &c.fields[..c.count.min(4)]))
            .collect();
        let want: Vec<LogicalLine> = want.iter().map(|l| first_four(l.line, &l.fields)).collect();
        assert_eq!(got, want, "text={text:?}");
        got
    }

    fn logical_lines(src: &str) -> Vec<LogicalLine> {
        scanned(src, 1)
    }

    /// The shipped chunker's chunks, checked against the oracle's.
    fn chunks(src: &str, cards_per_chunk: usize) -> Vec<(String, usize)> {
        let got = read_chunks(src.as_bytes(), cards_per_chunk).expect("reading a &str cannot fail");
        assert_eq!(
            got,
            chunk_source(src, cards_per_chunk),
            "src={src:?} cards_per_chunk={cards_per_chunk}"
        );
        got
    }

    #[test]
    fn comments_and_blanks_are_skipped() {
        let lines = logical_lines("* header\n\nR1 a b 1.0\n");
        assert_eq!(lines.len(), 1);
        assert_eq!(lines[0].fields, vec!["R1", "a", "b", "1.0"]);
        assert_eq!(lines[0].line, 3);
    }

    #[test]
    fn continuations_merge() {
        let lines = logical_lines("R1 a\n+ b\n+ 1.0\n");
        assert_eq!(lines.len(), 1);
        assert_eq!(lines[0].fields, vec!["R1", "a", "b", "1.0"]);
    }

    #[test]
    fn inline_comments_are_stripped() {
        let lines = logical_lines("R1 a b 1.0 $ segment 3\nI1 a 0 1m ; load\n");
        assert_eq!(lines[0].fields.len(), 4);
        assert_eq!(lines[1].fields.len(), 4);
    }

    #[test]
    fn dangling_continuation_is_flagged() {
        let lines = logical_lines("+ oops\n");
        assert_eq!(lines[0].fields[0], "+");
    }

    #[test]
    fn chunks_cut_only_at_card_starts() {
        // The continuation and trailing comment must travel with R2.
        let src = "* hdr\nR1 a b 1\nR2 c\n+ d 2\n* tail\nR3 e f 3\n";
        let chunks = chunks(src, 1);
        assert_eq!(chunks.len(), 3);
        assert_eq!(chunks[0], ("* hdr\nR1 a b 1\n".to_string(), 1));
        assert_eq!(chunks[1], ("R2 c\n+ d 2\n* tail\n".to_string(), 3));
        assert_eq!(chunks[2], ("R3 e f 3\n".to_string(), 6));
    }

    #[test]
    fn chunked_lexing_equals_whole_source_lexing() {
        let src = "* hdr\nR1 a b 1\n\nR2 c\n+ d 2 $ x\nI1 c 0 1m\n.end\n";
        let whole = logical_lines(src);
        for cards in 1..=4 {
            let chunked: Vec<LogicalLine> = chunks(src, cards)
                .iter()
                .flat_map(|(text, first_line)| scanned(text, *first_line))
                .collect();
            assert_eq!(whole, chunked, "cards_per_chunk={cards}");
        }
    }

    #[test]
    fn chunking_handles_missing_trailing_newline() {
        let chunks = chunks("R1 a b 1\nR2 c d 2", 1);
        assert_eq!(chunks.len(), 2);
        assert_eq!(chunks[1], ("R2 c d 2".to_string(), 2));
    }

    #[test]
    fn empty_source_has_no_chunks() {
        assert!(chunks("", 8).is_empty());
    }

    #[test]
    fn separators_are_exactly_char_is_whitespace() {
        let mut buf = [0u8; 4];
        for c in (0..=u32::from(char::MAX)).filter_map(char::from_u32) {
            let encoded = c.encode_utf8(&mut buf).as_bytes();
            let separates = match CLASS[encoded[0] as usize] {
                SEPARATOR => true,
                STOP => c == '\n',
                WIDE => wide_separator_len(encoded) == encoded.len(),
                _ => false,
            };
            assert_eq!(separates, c.is_whitespace(), "U+{:04X}", u32::from(c));
        }
    }

    #[test]
    fn every_separator_splits_fields_and_only_newline_ends_a_line() {
        for sep in [
            " ", "\t", "\x0B", "\x0C", "\r", "\u{85}", "\u{A0}", "\u{1680}", "\u{2003}",
            "\u{2028}", "\u{3000}",
        ] {
            // Leading, between fields, before the comment, after a `+`.
            let src =
                format!("{sep}Ré{sep}a{sep}{sep}b$ x\n{sep}+{sep}1k{sep}extra{sep}\nR2 c d 2");
            let lines = scanned(&src, 5);
            assert_eq!(lines.len(), 2, "sep={sep:?}");
            assert_eq!(lines[0].line, 5);
            assert_eq!(lines[0].fields, vec!["Ré", "a", "b", "1k"], "sep={sep:?}");
            assert_eq!(lines[1].line, 7);
            assert!(is_card_start(format!("{sep}R1 a b 1\n").as_bytes()));
            assert!(!is_card_start(format!("{sep}* R1 a b 1\n").as_bytes()));
            assert!(!is_card_start(format!("{sep}$\n").as_bytes()));
            assert!(!is_card_start(format!("{sep}{sep}").as_bytes()));
        }
        // A multi-byte character that is no separator stays in its field.
        assert_eq!(scanned("R1 n\u{200B}x ñ 1\n", 1)[0].fields[1], "n\u{200B}x");
        // Truncated or stray multi-byte bytes never panic the chunker.
        for bad in [&[0xC2][..], &[0xE2, 0x80], &[0x80, b'R'], &[0xFF, 0xFE]] {
            let _ = is_card_start(bad);
        }
    }
}
