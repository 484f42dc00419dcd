//! Tokenizer for the Java-like surface language.
//!
//! The lexer scans bytes into compact [`Copy`] tokens: a kind plus a byte
//! range of the source. Identifier, number and string text stays in the
//! source; the parser slices it out when it needs it. Line and column
//! positions are computed only when an error is built.

use crate::error::{CompileError, Phase, Result, TextRange};

/// A reserved word.
#[derive(Copy, Clone, PartialEq, Eq, Hash, Debug)]
pub enum Keyword {
    /// `class`
    Class,
    /// `extends`
    Extends,
    /// `library`
    Library,
    /// `static`
    Static,
    /// `if`
    If,
    /// `else`
    Else,
    /// `while`
    While,
    /// `return`
    Return,
    /// `break`
    Break,
    /// `continue`
    Continue,
    /// `new`
    New,
    /// `null`
    Null,
    /// `this`
    This,
    /// `true`
    True,
    /// `false`
    False,
    /// `int`
    Int,
    /// `boolean`
    Boolean,
    /// `void`
    Void,
    /// `nondet`
    Nondet,
    /// `super`
    Super,
}

impl Keyword {
    fn of(text: &[u8]) -> Option<Keyword> {
        Some(match text {
            b"class" => Keyword::Class,
            b"extends" => Keyword::Extends,
            b"library" => Keyword::Library,
            b"static" => Keyword::Static,
            b"if" => Keyword::If,
            b"else" => Keyword::Else,
            b"while" => Keyword::While,
            b"return" => Keyword::Return,
            b"break" => Keyword::Break,
            b"continue" => Keyword::Continue,
            b"new" => Keyword::New,
            b"null" => Keyword::Null,
            b"this" => Keyword::This,
            b"true" => Keyword::True,
            b"false" => Keyword::False,
            b"int" => Keyword::Int,
            b"boolean" => Keyword::Boolean,
            b"void" => Keyword::Void,
            b"nondet" => Keyword::Nondet,
            b"super" => Keyword::Super,
            _ => return None,
        })
    }
}

/// A punctuation or operator token.
#[derive(Copy, Clone, PartialEq, Eq, Hash, Debug)]
pub enum Punct {
    /// `{`
    LBrace,
    /// `}`
    RBrace,
    /// `(`
    LParen,
    /// `)`
    RParen,
    /// `[`
    LBracket,
    /// `]`
    RBracket,
    /// `;`
    Semi,
    /// `,`
    Comma,
    /// `.`
    Dot,
    /// `=`
    Assign,
    /// `<`
    Lt,
    /// `>`
    Gt,
    /// `+`
    Plus,
    /// `-`
    Minus,
    /// `*`
    Star,
    /// `/`
    Slash,
    /// `%`
    Percent,
    /// `!`
    Bang,
    /// `==`
    EqEq,
    /// `!=`
    NotEq,
    /// `<=`
    Le,
    /// `>=`
    Ge,
    /// `&&`
    AndAnd,
    /// `||`
    OrOr,
}

impl Punct {
    /// The token's text.
    pub fn text(self) -> &'static str {
        match self {
            Punct::LBrace => "{",
            Punct::RBrace => "}",
            Punct::LParen => "(",
            Punct::RParen => ")",
            Punct::LBracket => "[",
            Punct::RBracket => "]",
            Punct::Semi => ";",
            Punct::Comma => ",",
            Punct::Dot => ".",
            Punct::Assign => "=",
            Punct::Lt => "<",
            Punct::Gt => ">",
            Punct::Plus => "+",
            Punct::Minus => "-",
            Punct::Star => "*",
            Punct::Slash => "/",
            Punct::Percent => "%",
            Punct::Bang => "!",
            Punct::EqEq => "==",
            Punct::NotEq => "!=",
            Punct::Le => "<=",
            Punct::Ge => ">=",
            Punct::AndAnd => "&&",
            Punct::OrOr => "||",
        }
    }

    /// Maximal munch: the two-byte operators first, then one byte.
    fn of(first: u8, second: Option<u8>) -> Option<(Punct, u32)> {
        let two = match (first, second) {
            (b'=', Some(b'=')) => Some(Punct::EqEq),
            (b'!', Some(b'=')) => Some(Punct::NotEq),
            (b'<', Some(b'=')) => Some(Punct::Le),
            (b'>', Some(b'=')) => Some(Punct::Ge),
            (b'&', Some(b'&')) => Some(Punct::AndAnd),
            (b'|', Some(b'|')) => Some(Punct::OrOr),
            _ => None,
        };
        if let Some(p) = two {
            return Some((p, 2));
        }
        let one = match first {
            b'{' => Punct::LBrace,
            b'}' => Punct::RBrace,
            b'(' => Punct::LParen,
            b')' => Punct::RParen,
            b'[' => Punct::LBracket,
            b']' => Punct::RBracket,
            b';' => Punct::Semi,
            b',' => Punct::Comma,
            b'.' => Punct::Dot,
            b'=' => Punct::Assign,
            b'<' => Punct::Lt,
            b'>' => Punct::Gt,
            b'+' => Punct::Plus,
            b'-' => Punct::Minus,
            b'*' => Punct::Star,
            b'/' => Punct::Slash,
            b'%' => Punct::Percent,
            b'!' => Punct::Bang,
            _ => return None,
        };
        Some((one, 1))
    }
}

/// The kind of a token. Its text is the token's byte range of the source.
#[derive(Copy, Clone, PartialEq, Eq, Hash, Debug)]
pub enum TokenKind {
    /// An identifier that is not a keyword.
    Ident,
    /// A reserved word.
    Keyword(Keyword),
    /// Integer literal (checked to fit an `i64`).
    Int,
    /// String literal, quotes included (only used inside `@fp("...")`).
    Str,
    /// `@`-annotation, `@` included, e.g. `@leak`, `@check`.
    At,
    /// A punctuation / operator token, e.g. `{`, `==`, `&&`.
    Punct(Punct),
    /// End of input (an empty range at the end of the source).
    Eof,
}

/// A token: its kind and where its text lies in the source.
#[derive(Copy, Clone, PartialEq, Eq, Hash, Debug)]
pub struct Token {
    /// What was lexed.
    pub kind: TokenKind,
    /// Byte offset of the token's first byte.
    pub start: u32,
    /// Byte offset one past the token's last byte.
    pub end: u32,
}

impl Token {
    /// The token's byte range.
    pub fn range(&self) -> TextRange {
        TextRange::new(self.start, self.end)
    }

    /// The token's text in `source`.
    pub fn text<'s>(&self, source: &'s str) -> &'s str {
        &source[self.start as usize..self.end as usize]
    }

    /// How error messages name the token: its text in backticks (an
    /// integer by its value), a string by its unescaped contents in
    /// quotes, or `end of input`.
    pub fn describe(&self, source: &str) -> String {
        match self.kind {
            TokenKind::Eof => "end of input".to_string(),
            TokenKind::Str => format!("\"{}\"", unescape(self.text(source))),
            TokenKind::Int => format!("`{}`", int_value(self.text(source))),
            _ => format!("`{}`", self.text(source)),
        }
    }
}

/// The value of an integer token's text (the lexer has checked it fits).
pub fn int_value(text: &str) -> i64 {
    text.bytes().fold(0i64, |v, d| {
        v.wrapping_mul(10).wrapping_add(i64::from(d - b'0'))
    })
}

/// The contents of a string token's text (quotes included): `\n` and
/// `\t` are a newline and a tab, a backslash before any other character
/// stands for that character.
pub fn unescape(text: &str) -> String {
    let inner = &text[1..text.len() - 1];
    let mut out = String::with_capacity(inner.len());
    let mut chars = inner.chars();
    while let Some(c) = chars.next() {
        if c != '\\' {
            out.push(c);
            continue;
        }
        match chars.next() {
            Some('n') => out.push('\n'),
            Some('t') => out.push('\t'),
            Some(other) => out.push(other),
            None => {}
        }
    }
    out
}

/// Tokenizes `source` completely.
///
/// # Errors
///
/// Returns a [`CompileError`] with [`Phase::Lex`] on unterminated comments
/// or strings, malformed numbers, unexpected characters, and sources of
/// 4 GiB or more (offsets are 32-bit).
pub fn tokenize(source: &str) -> Result<Vec<Token>> {
    if u32::try_from(source.len()).is_err() {
        return Err(CompileError::at(
            Phase::Lex,
            source,
            TextRange::default(),
            "source text exceeds 4 GiB",
        ));
    }
    let bytes = source.as_bytes();
    let error = |start: usize, end: usize, message: String| {
        CompileError::at(
            Phase::Lex,
            source,
            TextRange::new(start as u32, end as u32),
            message,
        )
    };
    // Generated subjects average about five source bytes per token.
    let mut tokens = Vec::with_capacity(bytes.len() / 5 + 1);
    let mut i = 0;
    loop {
        i = skip_trivia(source, i)
            .map_err(|start| error(start, bytes.len(), "unterminated block comment".into()))?;
        let start = i;
        let Some(&b) = bytes.get(i) else {
            tokens.push(Token {
                kind: TokenKind::Eof,
                start: start as u32,
                end: start as u32,
            });
            return Ok(tokens);
        };
        let kind = match b {
            b'a'..=b'z' | b'A'..=b'Z' | b'_' | b'$' => {
                i += 1;
                while i < bytes.len()
                    && (bytes[i].is_ascii_alphanumeric() || bytes[i] == b'_' || bytes[i] == b'$')
                {
                    i += 1;
                }
                Keyword::of(&bytes[start..i]).map_or(TokenKind::Ident, TokenKind::Keyword)
            }
            b'0'..=b'9' => {
                let mut value: i64 = 0;
                let mut overflow = false;
                while i < bytes.len() && bytes[i].is_ascii_digit() {
                    let (v, o1) = value.overflowing_mul(10);
                    let (v, o2) = v.overflowing_add(i64::from(bytes[i] - b'0'));
                    overflow |= o1 || o2;
                    value = v;
                    i += 1;
                }
                if overflow {
                    return Err(error(start, i, "integer literal overflows i64".into()));
                }
                if i < bytes.len() && bytes[i].is_ascii_alphabetic() {
                    return Err(error(
                        start,
                        i,
                        "identifier cannot start with a digit".into(),
                    ));
                }
                TokenKind::Int
            }
            b'"' => {
                i += 1;
                loop {
                    match bytes.get(i) {
                        Some(b'"') => break,
                        // A backslash escapes the next character; its
                        // UTF-8 continuation bytes (if any) are never a
                        // quote or a backslash, so skipping one byte is
                        // enough.
                        Some(b'\\') if i + 1 < bytes.len() => i += 2,
                        Some(b'\\') | None => {
                            return Err(error(
                                start,
                                bytes.len(),
                                "unterminated string literal".into(),
                            ))
                        }
                        Some(_) => i += 1,
                    }
                }
                i += 1;
                TokenKind::Str
            }
            b'@' => {
                i += 1;
                while i < bytes.len() && (bytes[i].is_ascii_alphanumeric() || bytes[i] == b'_') {
                    i += 1;
                }
                if i == start + 1 {
                    return Err(error(start, i, "expected annotation name after `@`".into()));
                }
                TokenKind::At
            }
            _ => match Punct::of(b, bytes.get(i + 1).copied()) {
                Some((p, len)) => {
                    i += len as usize;
                    TokenKind::Punct(p)
                }
                None => {
                    let c = source[start..].chars().next().expect("not at end of input");
                    return Err(error(start, start, format!("unexpected character `{c}`")));
                }
            },
        };
        tokens.push(Token {
            kind,
            start: start as u32,
            end: i as u32,
        });
    }
}

/// Skips whitespace (any Unicode whitespace) and comments from byte
/// offset `i`; returns the offset of the next token. An unterminated
/// block comment is an `Err` holding the comment's start.
fn skip_trivia(source: &str, mut i: usize) -> std::result::Result<usize, usize> {
    let bytes = source.as_bytes();
    while let Some(&b) = bytes.get(i) {
        match b {
            b' ' | b'\t' | b'\n' | b'\r' | 0x0B | 0x0C => i += 1,
            b'/' if bytes.get(i + 1) == Some(&b'/') => {
                i += 2;
                while i < bytes.len() && bytes[i] != b'\n' {
                    i += 1;
                }
            }
            b'/' if bytes.get(i + 1) == Some(&b'*') => {
                let start = i;
                i += 2;
                loop {
                    match bytes.get(i) {
                        Some(b'*') if bytes.get(i + 1) == Some(&b'/') => {
                            i += 2;
                            break;
                        }
                        Some(_) => i += 1,
                        None => return Err(start),
                    }
                }
            }
            0x80.. => {
                let c = source[i..].chars().next().expect("on a character boundary");
                if !c.is_whitespace() {
                    break;
                }
                i += c.len_utf8();
            }
            _ => break,
        }
    }
    Ok(i)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::error::Pos;

    fn kinds(src: &str) -> Vec<TokenKind> {
        tokenize(src).unwrap().into_iter().map(|t| t.kind).collect()
    }

    fn texts(src: &str) -> Vec<&str> {
        tokenize(src).unwrap().iter().map(|t| t.text(src)).collect()
    }

    #[test]
    fn tokens_are_twelve_bytes() {
        assert_eq!(std::mem::size_of::<Token>(), 12);
    }

    #[test]
    fn lexes_identifiers_and_keywords() {
        let src = "class Foo extends Bar";
        assert_eq!(
            kinds(src),
            vec![
                TokenKind::Keyword(Keyword::Class),
                TokenKind::Ident,
                TokenKind::Keyword(Keyword::Extends),
                TokenKind::Ident,
                TokenKind::Eof,
            ]
        );
        assert_eq!(texts(src), vec!["class", "Foo", "extends", "Bar", ""]);
    }

    #[test]
    fn lexes_operators_with_maximal_munch() {
        let k = kinds("a <= b == c && d");
        assert!(k.contains(&TokenKind::Punct(Punct::Le)));
        assert!(k.contains(&TokenKind::Punct(Punct::EqEq)));
        assert!(k.contains(&TokenKind::Punct(Punct::AndAnd)));
        let k = kinds("a < = b");
        assert!(k.contains(&TokenKind::Punct(Punct::Lt)));
        assert!(k.contains(&TokenKind::Punct(Punct::Assign)));
    }

    #[test]
    fn lexes_numbers_strings_annotations() {
        let src = "x = 42; @fp(\"singleton\")";
        let toks = tokenize(src).unwrap();
        let int = toks.iter().find(|t| t.kind == TokenKind::Int).unwrap();
        assert_eq!(int_value(int.text(src)), 42);
        let at = toks.iter().find(|t| t.kind == TokenKind::At).unwrap();
        assert_eq!(at.text(src), "@fp");
        let s = toks.iter().find(|t| t.kind == TokenKind::Str).unwrap();
        assert_eq!(unescape(s.text(src)), "singleton");
    }

    #[test]
    fn skips_comments() {
        let src = "a // line comment\n /* block\ncomment */ b";
        assert_eq!(
            kinds(src),
            vec![TokenKind::Ident, TokenKind::Ident, TokenKind::Eof]
        );
        assert_eq!(texts(src), vec!["a", "b", ""]);
    }

    #[test]
    fn tracks_positions() {
        let src = "ab\n  cd";
        let toks = tokenize(src).unwrap();
        let pos = |t: &Token| crate::error::Span::of(src, t.range()).start;
        assert_eq!(pos(&toks[0]), Pos::new(1, 1));
        assert_eq!(pos(&toks[1]), Pos::new(2, 3));
    }

    #[test]
    fn rejects_unterminated_comment() {
        let err = tokenize("/* never closed").unwrap_err();
        assert!(err.message.contains("unterminated"));
        assert_eq!(err.phase, Phase::Lex);
    }

    #[test]
    fn rejects_unterminated_string() {
        assert!(tokenize("\"oops").is_err());
    }

    #[test]
    fn rejects_unknown_character() {
        let err = tokenize("a # b").unwrap_err();
        assert!(err.message.contains("unexpected character"));
    }

    #[test]
    fn rejects_overflowing_int() {
        assert!(tokenize("99999999999999999999999").is_err());
    }

    #[test]
    fn string_escapes() {
        let src = r#""a\nb\"c""#;
        let toks = tokenize(src).unwrap();
        assert_eq!(toks[0].kind, TokenKind::Str);
        assert_eq!(unescape(toks[0].text(src)), "a\nb\"c");
    }
}
