//! Source positions and frontend error types.

use std::fmt;

/// A position in the source text (1-based line and column).
#[derive(Copy, Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Debug, Default)]
pub struct Pos {
    /// 1-based line number.
    pub line: u32,
    /// 1-based column number.
    pub col: u32,
}

impl Pos {
    /// Creates a position.
    pub fn new(line: u32, col: u32) -> Self {
        Pos { line, col }
    }
}

impl fmt::Display for Pos {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}:{}", self.line, self.col)
    }
}

/// A half-open span of source text.
#[derive(Copy, Clone, PartialEq, Eq, Hash, Debug, Default)]
pub struct Span {
    /// First character of the spanned region.
    pub start: Pos,
    /// Position one past the end of the region.
    pub end: Pos,
}

impl Span {
    /// Creates a span from two positions.
    pub fn new(start: Pos, end: Pos) -> Self {
        Span { start, end }
    }

    /// A zero-width span at one position.
    pub fn at(pos: Pos) -> Self {
        Span {
            start: pos,
            end: pos,
        }
    }
}

impl fmt::Display for Span {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.start)
    }
}

/// A half-open byte range of the source text: what tokens and syntax
/// nodes carry instead of line/column positions, which are computed only
/// when an error is built (see [`Span::of`]).
#[derive(Copy, Clone, PartialEq, Eq, Hash, Debug, Default)]
pub struct TextRange {
    /// Byte offset of the first byte.
    pub start: u32,
    /// Byte offset one past the last byte.
    pub end: u32,
}

impl TextRange {
    /// Creates a range; offsets must lie on character boundaries.
    pub fn new(start: u32, end: u32) -> Self {
        TextRange { start, end }
    }
}

/// Line-start table of a source text, built on demand to turn byte
/// offsets into 1-based line and column positions. Columns count
/// characters, not bytes.
struct LineIndex<'s> {
    source: &'s str,
    /// Byte offset of the first byte of each line.
    starts: Vec<u32>,
}

impl<'s> LineIndex<'s> {
    fn new(source: &'s str) -> Self {
        let mut starts = vec![0];
        starts.extend(
            source
                .bytes()
                .enumerate()
                .filter(|&(_, b)| b == b'\n')
                .map(|(i, _)| i as u32 + 1),
        );
        LineIndex { source, starts }
    }

    fn pos(&self, offset: u32) -> Pos {
        let line = self.starts.partition_point(|&s| s <= offset) - 1;
        let start = self.starts[line] as usize;
        let col = self.source[start..offset as usize].chars().count();
        Pos::new(line as u32 + 1, col as u32 + 1)
    }
}

impl Span {
    /// The line/column span of a byte range of `source`.
    pub fn of(source: &str, range: TextRange) -> Span {
        let lines = LineIndex::new(source);
        Span::new(lines.pos(range.start), lines.pos(range.end))
    }
}

/// The phase in which a frontend error was detected.
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub enum Phase {
    /// Tokenization.
    Lex,
    /// Syntactic analysis.
    Parse,
    /// Name resolution and lowering to IR.
    Resolve,
}

impl fmt::Display for Phase {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Phase::Lex => write!(f, "lexical error"),
            Phase::Parse => write!(f, "syntax error"),
            Phase::Resolve => write!(f, "resolution error"),
        }
    }
}

/// An error produced while compiling source text to IR.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct CompileError {
    /// Detection phase.
    pub phase: Phase,
    /// Location of the offending text.
    pub span: Span,
    /// Human-readable description.
    pub message: String,
}

impl CompileError {
    /// Creates an error.
    pub fn new(phase: Phase, span: Span, message: impl Into<String>) -> Self {
        CompileError {
            phase,
            span,
            message: message.into(),
        }
    }

    /// Creates an error at a byte range of `source`.
    pub fn at(phase: Phase, source: &str, range: TextRange, message: impl Into<String>) -> Self {
        CompileError::new(phase, Span::of(source, range), message)
    }
}

impl fmt::Display for CompileError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} at {}: {}", self.phase, self.span, self.message)
    }
}

impl std::error::Error for CompileError {}

/// Frontend result alias.
pub type Result<T> = std::result::Result<T, CompileError>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_formats() {
        let e = CompileError::new(Phase::Parse, Span::at(Pos::new(3, 7)), "expected `;`");
        assert_eq!(e.to_string(), "syntax error at 3:7: expected `;`");
    }

    #[test]
    fn byte_ranges_become_character_columns() {
        let source = "ab\n  é x\r\ny";
        let at = |offset: u32| Span::of(source, TextRange::new(offset, offset)).start;
        assert_eq!(at(0), Pos::new(1, 1));
        assert_eq!(at(3), Pos::new(2, 1));
        // `é` is two bytes but one column.
        assert_eq!(at(8), Pos::new(2, 5));
        assert_eq!(at(source.len() as u32), Pos::new(3, 2));
    }

    #[test]
    fn positions_order() {
        assert!(Pos::new(1, 9) < Pos::new(2, 1));
        assert!(Pos::new(2, 1) < Pos::new(2, 2));
    }
}
