//! Logical-line lexer: comments, blank lines and `+` continuations.
//!
//! [`logical_line_refs`] lexes a run of whole physical lines into
//! zero-copy [`LineRef`]s whose fields borrow the text. The run must
//! start at a card boundary (a line that is neither blank, a comment
//! nor a `+` continuation — the rule [`crate::stream::ChunkReader`]
//! cuts the source by), so that no `+` continuation ever reaches back
//! across a cut and chunks can be lexed independently and in parallel.
//!
//! The owned [`logical_lines`] view is kept for callers that want a
//! self-contained result.

/// A logical netlist line after continuation merging.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LogicalLine {
    /// 1-based number of the first physical line.
    pub line: usize,
    /// Whitespace-separated fields of the merged card.
    pub fields: Vec<String>,
}

/// A logical netlist line whose fields borrow the source text
/// (zero-copy variant of [`LogicalLine`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LineRef<'a> {
    /// 1-based number of the first physical line.
    pub line: usize,
    /// Whitespace-separated fields of the merged card.
    pub fields: Vec<&'a str>,
}

/// `true` when a raw physical line *starts* a card: non-empty after
/// comment stripping, not a `*` comment, and not a `+` continuation.
/// The one rule chunk boundaries are cut by.
pub(crate) fn is_card_start(raw: &str) -> bool {
    let body = raw.split(['$', ';']).next().unwrap_or("").trim();
    !body.is_empty() && !body.starts_with('*') && !body.starts_with('+')
}

/// One chunk of [`chunk_source`]: whole physical lines starting at a
/// card boundary, plus the 1-based number of the first of them.
#[cfg(test)]
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct SourceChunk<'a> {
    pub(crate) text: &'a str,
    pub(crate) first_line: usize,
}

/// Whole-source reference chunker, kept as the test oracle for
/// [`crate::stream::ChunkReader`]: splits `src` into chunks of roughly
/// `cards_per_chunk` cards, cutting only at card-start lines so
/// comment and continuation lines travel with the card they belong
/// to. Lexing each chunk with [`logical_line_refs`] (passing its
/// `first_line`) yields exactly the logical lines of the whole source.
#[cfg(test)]
pub(crate) fn chunk_source(src: &str, cards_per_chunk: usize) -> Vec<SourceChunk<'_>> {
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
                chunks.push(SourceChunk {
                    text: &src[chunk_start_byte..offset],
                    first_line: chunk_start_line,
                });
                chunk_start_byte = offset;
                chunk_start_line = line_no;
                cards_in_chunk = 0;
            }
            cards_in_chunk += 1;
        }
        offset += raw.len();
    }
    if chunk_start_byte < src.len() {
        chunks.push(SourceChunk {
            text: &src[chunk_start_byte..],
            first_line: chunk_start_line,
        });
    }
    chunks
}

/// Lexes SPICE source into zero-copy logical lines; physical line
/// numbers are offset by `first_line` (pass `1` for whole-source
/// lexing, or the chunk's first physical line for a chunk).
///
/// - `*`-prefixed lines and inline `$`/`;` comments are dropped;
/// - blank lines are skipped;
/// - a line starting with `+` continues the previous card.
///
/// A leading `+` with no previous card is reported by the caller
/// ([`crate::parser::parse`]) as
/// [`DanglingContinuation`](crate::error::ParseErrorKind::DanglingContinuation);
/// here it surfaces as a line whose first field is `"+"`.
#[must_use]
pub fn logical_line_refs(src: &str, first_line: usize) -> Vec<LineRef<'_>> {
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

/// Splits SPICE source into owned logical lines (see
/// [`logical_line_refs`] for the zero-copy variant the parallel
/// parser uses).
#[must_use]
pub fn logical_lines(src: &str) -> Vec<LogicalLine> {
    logical_line_refs(src, 1)
        .into_iter()
        .map(|l| LogicalLine {
            line: l.line,
            fields: l.fields.into_iter().map(String::from).collect(),
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

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
        let chunks = chunk_source(src, 1);
        assert_eq!(chunks.len(), 3);
        assert_eq!(chunks[0].text, "* hdr\nR1 a b 1\n");
        assert_eq!(chunks[0].first_line, 1);
        assert_eq!(chunks[1].text, "R2 c\n+ d 2\n* tail\n");
        assert_eq!(chunks[1].first_line, 3);
        assert_eq!(chunks[2].text, "R3 e f 3\n");
        assert_eq!(chunks[2].first_line, 6);
    }

    #[test]
    fn chunked_lexing_equals_whole_source_lexing() {
        let src = "* hdr\nR1 a b 1\n\nR2 c\n+ d 2 $ x\nI1 c 0 1m\n.end\n";
        let whole = logical_lines(src);
        for cards in 1..=4 {
            let chunked: Vec<LogicalLine> = chunk_source(src, cards)
                .iter()
                .flat_map(|c| {
                    logical_line_refs(c.text, c.first_line)
                        .into_iter()
                        .map(|l| LogicalLine {
                            line: l.line,
                            fields: l.fields.into_iter().map(String::from).collect(),
                        })
                })
                .collect();
            assert_eq!(whole, chunked, "cards_per_chunk={cards}");
        }
    }

    #[test]
    fn chunking_handles_missing_trailing_newline() {
        let chunks = chunk_source("R1 a b 1\nR2 c d 2", 1);
        assert_eq!(chunks.len(), 2);
        assert_eq!(chunks[1].text, "R2 c d 2");
        assert_eq!(chunks[1].first_line, 2);
    }

    #[test]
    fn empty_source_has_no_chunks() {
        assert!(chunk_source("", 8).is_empty());
    }
}
