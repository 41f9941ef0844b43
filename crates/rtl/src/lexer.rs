//! Lexer for the Verilog subset.
//!
//! Produces tokens with 1-based line/column positions for error reporting.
//! Supports line (`//`) and block (`/* */`) comments, sized and unsized
//! numeric literals (`8'hff`, `4'b1010`, `16'd255`, `42`), and the
//! operator set of [`crate::op`].
//!
//! The lexer reads the source's bytes in place. Tokens are `Copy` values
//! that borrow from the source: an identifier is a [`Tok::Ident`] slice of
//! it, and a literal's value is accumulated from its digits, so lexing
//! allocates nothing per token. ASCII, which is all the emitter writes,
//! takes a byte-at-a-time fast path; other characters are decoded only
//! where they occur (Unicode whitespace is skipped, anything else outside
//! a comment is an error). Columns count characters, not bytes.
//!
//! Errors are part of the contract: every lexical error keeps its message
//! and its position (the character after a malformed literal, the end of
//! input for an unterminated comment, the offending character itself for
//! one that starts no token). `tests/pinned_parse.rs` pins them over a
//! seeded mutation fuzz loop.
//!
//! The parser pulls tokens from a `Lexer` one at a time; [`tokenize`]
//! collects the whole stream.

use crate::error::{Result, RtlError};
use crate::op::BinaryOp;

/// Token kinds of the Verilog subset.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Tok<'src> {
    /// Identifier or keyword, borrowed from the source.
    Ident(&'src str),
    /// Numeric literal with optional explicit width.
    Number {
        /// Value, masked to `width` bits if sized.
        value: u64,
        /// Bit width when the literal was sized.
        width: Option<u32>,
    },
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
    /// `:`
    Colon,
    /// `?`
    Question,
    /// `@`
    At,
    /// `=`
    Assign,
    /// `<=` — relational *or* non-blocking assign, disambiguated by parser.
    LeOrNonBlocking,
    /// Any other operator token (`+`, `~^`, `<<`, ...).
    Op(&'static str),
    /// End of input.
    Eof,
}

impl Tok<'_> {
    /// The binary operator this token spells in an expression, if any.
    /// [`Tok::LeOrNonBlocking`] is [`BinaryOp::Le`]; the unary-only and
    /// structural operators (`~`, `!`, `.`) are `None`.
    pub(crate) fn binary_op(self) -> Option<BinaryOp> {
        match self {
            Tok::LeOrNonBlocking => Some(BinaryOp::Le),
            Tok::Op(op) => BinaryOp::from_token(op),
            _ => None,
        }
    }
}

/// A token with its source position.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Token<'src> {
    /// Kind and payload.
    pub tok: Tok<'src>,
    /// 1-based source line.
    pub line: usize,
    /// 1-based source column, in characters.
    pub col: usize,
}

/// Tokenizes `src` into a vector ending with [`Tok::Eof`].
///
/// # Errors
///
/// Returns [`RtlError::Parse`] on malformed literals, unterminated block
/// comments, or unknown characters.
pub fn tokenize(src: &str) -> Result<Vec<Token<'_>>> {
    let mut lexer = Lexer::new(src);
    // Emitted Verilog averages about three bytes a token, so this capacity
    // rarely needs to grow.
    let mut out = Vec::with_capacity(src.len() / 2 + 16);
    loop {
        let token = lexer.next_token()?;
        out.push(token);
        if token.tok == Tok::Eof {
            return Ok(out);
        }
    }
}

/// Whether `b` starts a character (is not a UTF-8 continuation byte).
fn starts_char(b: u8) -> bool {
    b & 0xC0 != 0x80
}

/// Length of the longest prefix of `bytes` whose bytes `keep` accepts.
fn span(bytes: &[u8], keep: impl Fn(u8) -> bool) -> usize {
    bytes.iter().position(|&b| !keep(b)).unwrap_or(bytes.len())
}

/// An on-demand token source over borrowed Verilog text.
///
/// The column is derived from the byte offset: the offset into the
/// current line, less the extra bytes of the multi-byte characters seen
/// on it, so stepping over ASCII touches no position counter but `pos`.
#[derive(Debug)]
pub(crate) struct Lexer<'src> {
    src: &'src str,
    /// Byte offset of the next character.
    pos: usize,
    /// 1-based line of `pos`.
    line: usize,
    /// Byte offset at which the current line starts.
    line_start: usize,
    /// Bytes beyond the first of every multi-byte character consumed on
    /// the current line.
    wide: usize,
}

impl<'src> Lexer<'src> {
    /// A lexer positioned at the start of `src`.
    pub(crate) fn new(src: &'src str) -> Self {
        Self {
            src,
            pos: 0,
            line: 1,
            line_start: 0,
            wide: 0,
        }
    }

    /// 1-based column of `pos`, in characters.
    fn col(&self) -> usize {
        self.pos - self.line_start - self.wide + 1
    }

    fn bytes(&self) -> &'src [u8] {
        self.src.as_bytes()
    }

    fn err(&self, msg: impl Into<String>) -> RtlError {
        RtlError::Parse {
            line: self.line,
            col: self.col(),
            msg: msg.into(),
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes().get(self.pos).copied()
    }

    fn peek2(&self) -> Option<u8> {
        self.bytes().get(self.pos + 1).copied()
    }

    /// Steps over the `\n` at `pos`.
    fn newline(&mut self) {
        self.pos += 1;
        self.line += 1;
        self.line_start = self.pos;
        self.wide = 0;
    }

    /// Steps over the `len`-byte character at `pos`, other than `\n`.
    fn skip_char(&mut self, len: usize) {
        self.pos += len;
        self.wide += len - 1;
    }

    /// Consumes the next character, whatever its encoded length.
    fn bump_char(&mut self) -> Option<char> {
        let c = self.src[self.pos..].chars().next()?;
        if c == '\n' {
            self.newline();
        } else {
            self.skip_char(c.len_utf8());
        }
        Some(c)
    }

    /// Lexes the next token; at the end of input, returns [`Tok::Eof`]
    /// (again on every further call).
    ///
    /// # Errors
    ///
    /// Same conditions as [`tokenize`].
    pub(crate) fn next_token(&mut self) -> Result<Token<'src>> {
        self.skip_trivia()?;
        let (line, col) = (self.line, self.col());
        let tok = match self.peek() {
            None => Tok::Eof,
            Some(b) if b.is_ascii_alphabetic() || b == b'_' => self.lex_ident(),
            Some(b) if b.is_ascii_digit() => self.lex_number()?,
            Some(_) => self.lex_symbol()?,
        };
        Ok(Token { tok, line, col })
    }

    fn skip_trivia(&mut self) -> Result<()> {
        loop {
            match self.peek() {
                Some(b'\n') => self.newline(),
                // The ASCII characters `char::is_whitespace` accepts.
                Some(b' ' | b'\t' | b'\r' | b'\x0B' | b'\x0C') => self.pos += 1,
                Some(b'/') if self.peek2() == Some(b'/') => {
                    let comment = &self.bytes()[self.pos..];
                    let comment = &comment[..span(comment, |b| b != b'\n')];
                    self.pos += comment.len();
                    self.wide += comment.iter().filter(|&&b| !starts_char(b)).count();
                }
                Some(b'/') if self.peek2() == Some(b'*') => self.skip_block_comment()?,
                Some(b) if b.is_ascii() => return Ok(()),
                Some(_) => {
                    let c = self.src[self.pos..].chars().next().expect("not at end");
                    if !c.is_whitespace() {
                        return Ok(());
                    }
                    self.skip_char(c.len_utf8());
                }
                None => return Ok(()),
            }
        }
    }

    fn skip_block_comment(&mut self) -> Result<()> {
        self.pos += 2;
        let bytes = self.bytes();
        while let Some(&b) = bytes.get(self.pos) {
            if b == b'*' && bytes.get(self.pos + 1) == Some(&b'/') {
                self.pos += 2;
                return Ok(());
            }
            if b == b'\n' {
                self.newline();
            } else {
                self.pos += 1;
                self.wide += usize::from(!starts_char(b));
            }
        }
        Err(self.err("unterminated block comment"))
    }

    fn lex_ident(&mut self) -> Tok<'src> {
        Tok::Ident(self.take_while(|b| b.is_ascii_alphanumeric() || b == b'_' || b == b'$'))
    }

    /// Consumes a run of bytes accepted by `keep` (all ASCII) and returns
    /// it, underscores included.
    fn take_while(&mut self, keep: impl Fn(u8) -> bool) -> &'src str {
        let start = self.pos;
        self.pos += span(&self.bytes()[start..], keep);
        &self.src[start..self.pos]
    }

    fn lex_number(&mut self) -> Result<Tok<'src>> {
        let digits = self.take_while(|b| b.is_ascii_digit() || b == b'_');
        if self.peek() != Some(b'\'') {
            let value = accumulate(digits, 10)
                .ok_or_else(|| self.err(format!("bad decimal literal `{}`", strip(digits))))?;
            return Ok(Tok::Number { value, width: None });
        }
        self.pos += 1;
        let width = accumulate(digits, 10)
            .and_then(|w| u32::try_from(w).ok())
            .ok_or_else(|| self.err(format!("bad literal width `{}`", strip(digits))))?;
        if width == 0 || width > 64 {
            return Err(self.err(format!("literal width {width} outside 1..=64")));
        }
        let base = self
            .bump_char()
            .ok_or_else(|| self.err("missing base after `'` in literal"))?;
        let radix = match base.to_ascii_lowercase() {
            'b' => 2,
            'o' => 8,
            'd' => 10,
            'h' => 16,
            other => return Err(self.err(format!("unknown literal base `{other}`"))),
        };
        let body = self.take_while(|b| b.is_ascii_alphanumeric() || b == b'_');
        if body.bytes().all(|b| b == b'_') {
            return Err(self.err("empty literal body"));
        }
        let value = accumulate(body, radix)
            .ok_or_else(|| self.err(format!("bad base-{radix} literal `{}`", strip(body))))?;
        let mask = if width >= 64 {
            u64::MAX
        } else {
            (1u64 << width) - 1
        };
        Ok(Tok::Number {
            value: value & mask,
            width: Some(width),
        })
    }

    fn lex_symbol(&mut self) -> Result<Tok<'src>> {
        let c = self.peek().expect("caller checked peek");
        if !c.is_ascii() {
            let c = self.bump_char().expect("not at end");
            return Err(self.unexpected(c));
        }
        self.pos += 1;
        let next = self.peek();
        let two = |this: &mut Self, tok: Tok<'src>| {
            this.pos += 1;
            Ok(tok)
        };
        match (c, next) {
            (b'(', _) => Ok(Tok::LParen),
            (b')', _) => Ok(Tok::RParen),
            (b'[', _) => Ok(Tok::LBracket),
            (b']', _) => Ok(Tok::RBracket),
            (b';', _) => Ok(Tok::Semi),
            (b',', _) => Ok(Tok::Comma),
            (b'?', _) => Ok(Tok::Question),
            (b'@', _) => Ok(Tok::At),
            (b':', _) => Ok(Tok::Colon),
            (b'.', _) => Ok(Tok::Op(".")),
            (b'*', Some(b'*')) => two(self, Tok::Op("**")),
            (b'*', _) => Ok(Tok::Op("*")),
            (b'+', _) => Ok(Tok::Op("+")),
            (b'-', _) => Ok(Tok::Op("-")),
            (b'/', _) => Ok(Tok::Op("/")),
            (b'%', _) => Ok(Tok::Op("%")),
            (b'~', Some(b'^')) => two(self, Tok::Op("~^")),
            (b'~', _) => Ok(Tok::Op("~")),
            (b'^', Some(b'~')) => two(self, Tok::Op("~^")),
            (b'^', _) => Ok(Tok::Op("^")),
            (b'&', Some(b'&')) => two(self, Tok::Op("&&")),
            (b'&', _) => Ok(Tok::Op("&")),
            (b'|', Some(b'|')) => two(self, Tok::Op("||")),
            (b'|', _) => Ok(Tok::Op("|")),
            (b'<', Some(b'<')) => two(self, Tok::Op("<<")),
            (b'<', Some(b'=')) => two(self, Tok::LeOrNonBlocking),
            (b'<', _) => Ok(Tok::Op("<")),
            (b'>', Some(b'>')) => two(self, Tok::Op(">>")),
            (b'>', Some(b'=')) => two(self, Tok::Op(">=")),
            (b'>', _) => Ok(Tok::Op(">")),
            (b'=', Some(b'=')) => two(self, Tok::Op("==")),
            (b'=', _) => Ok(Tok::Assign),
            (b'!', Some(b'=')) => two(self, Tok::Op("!=")),
            (b'!', _) => Ok(Tok::Op("!")),
            _ => Err(self.unexpected(char::from(c))),
        }
    }

    /// The error for a character `c` just consumed that starts no token.
    fn unexpected(&self, c: char) -> RtlError {
        RtlError::Parse {
            line: self.line,
            col: self.col() - 1,
            msg: format!("unexpected character `{c}` (source: {:.40})", self.src),
        }
    }
}

/// `text` without its digit-group underscores, for error messages.
fn strip(text: &str) -> String {
    text.chars().filter(|&c| c != '_').collect()
}

/// The value of the digits in `text` (ASCII alphanumerics and ignored
/// underscores) in `radix`, or `None` if a digit is out of range or the
/// value overflows `u64` — the cases `u64::from_str_radix` rejects.
fn accumulate(text: &str, radix: u32) -> Option<u64> {
    let mut value = 0u64;
    for b in text.bytes().filter(|&b| b != b'_') {
        let digit = char::from(b).to_digit(radix)?;
        value = value
            .checked_mul(u64::from(radix))?
            .checked_add(u64::from(digit))?;
    }
    Some(value)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn toks(src: &str) -> Vec<Tok<'_>> {
        tokenize(src).unwrap().into_iter().map(|t| t.tok).collect()
    }

    fn number(value: u64, width: Option<u32>) -> Tok<'static> {
        Tok::Number { value, width }
    }

    #[test]
    fn lexes_identifiers_and_numbers() {
        assert_eq!(
            toks("foo 42 8'hff"),
            vec![
                Tok::Ident("foo"),
                number(42, None),
                number(255, Some(8)),
                Tok::Eof
            ]
        );
    }

    #[test]
    fn sized_literals_mask_to_width() {
        assert_eq!(toks("4'hff")[0], number(15, Some(4)));
        assert_eq!(toks("4'b1101")[0], number(13, Some(4)));
        assert_eq!(toks("6'o17")[0], number(15, Some(6)));
    }

    #[test]
    fn operators_two_char_before_one_char() {
        assert_eq!(
            toks("a ** b << c ~^ d && e"),
            vec![
                Tok::Ident("a"),
                Tok::Op("**"),
                Tok::Ident("b"),
                Tok::Op("<<"),
                Tok::Ident("c"),
                Tok::Op("~^"),
                Tok::Ident("d"),
                Tok::Op("&&"),
                Tok::Ident("e"),
                Tok::Eof
            ]
        );
    }

    #[test]
    fn le_and_nonblocking_share_a_token() {
        assert_eq!(toks("a <= b")[1], Tok::LeOrNonBlocking);
    }

    #[test]
    fn comments_are_skipped() {
        assert_eq!(
            toks("a // line\n /* block \n comment */ b"),
            vec![Tok::Ident("a"), Tok::Ident("b"), Tok::Eof]
        );
    }

    #[test]
    fn unterminated_block_comment_errors() {
        assert!(matches!(tokenize("/* oops"), Err(RtlError::Parse { .. })));
    }

    #[test]
    fn positions_are_tracked() {
        let ts = tokenize("a\n  b").unwrap();
        assert_eq!((ts[0].line, ts[0].col), (1, 1));
        assert_eq!((ts[1].line, ts[1].col), (2, 3));
    }

    #[test]
    fn bad_width_rejected() {
        assert!(tokenize("0'd1").is_err());
        assert!(tokenize("65'd1").is_err());
        assert!(tokenize("8'z123").is_err());
    }

    #[test]
    fn underscores_in_literals() {
        assert_eq!(toks("1_000")[0], number(1000, None));
        assert_eq!(toks("8'b1010_1010")[0], number(0xAA, Some(8)));
        assert_eq!(toks("32'hdead_beef")[0], number(0xdead_beef, Some(32)));
    }

    #[test]
    fn unicode_whitespace_is_skipped() {
        let ts = tokenize("a\u{a0}b\u{2028}c").unwrap();
        let got: Vec<_> = ts.iter().map(|t| (t.tok, t.line, t.col)).collect();
        assert_eq!(
            got,
            vec![
                (Tok::Ident("a"), 1, 1),
                (Tok::Ident("b"), 1, 3),
                (Tok::Ident("c"), 1, 5),
                (Tok::Eof, 1, 6),
            ]
        );
    }

    #[test]
    fn columns_count_characters_after_non_ascii_comments() {
        let ts = tokenize("// é€\u{2028}\nx /* €é */ y // ü").unwrap();
        let got: Vec<_> = ts.iter().map(|t| (t.tok, t.line, t.col)).collect();
        assert_eq!(
            got,
            vec![
                (Tok::Ident("x"), 2, 1),
                (Tok::Ident("y"), 2, 12),
                (Tok::Eof, 2, 18),
            ]
        );
        // The column of an error after the comment counts characters too.
        let err = tokenize("/* é€ */ #").unwrap_err();
        assert!(matches!(
            err,
            RtlError::Parse {
                line: 1,
                col: 10,
                ..
            }
        ));
    }

    #[test]
    fn non_ascii_characters_outside_comments_are_rejected_at_their_column() {
        let err = tokenize("ab é").unwrap_err();
        assert_eq!(
            err.to_string(),
            "syntax error at 1:4: unexpected character `é` (source: ab é)"
        );
    }

    #[test]
    fn dollar_continues_identifiers() {
        assert_eq!(toks("q$2 a$")[..2], [Tok::Ident("q$2"), Tok::Ident("a$")]);
        // `$` cannot start one.
        assert!(tokenize("$a").is_err());
    }

    #[test]
    fn literal_errors_keep_their_messages() {
        let msg = |src: &str| tokenize(src).unwrap_err().to_string();
        assert_eq!(
            msg("99999999999'd1"),
            "syntax error at 1:13: bad literal width `99999999999`"
        );
        assert_eq!(
            msg("18446744073709551616"),
            "syntax error at 1:21: bad decimal literal `18446744073709551616`"
        );
        assert_eq!(
            msg("8'h_1g_"),
            "syntax error at 1:8: bad base-16 literal `1g`"
        );
        assert_eq!(msg("8'h__"), "syntax error at 1:6: empty literal body");
        assert_eq!(
            msg("8'\nd1"),
            "syntax error at 2:1: unknown literal base `\n`"
        );
        assert_eq!(
            msg("8'"),
            "syntax error at 1:3: missing base after `'` in literal"
        );
    }

    #[test]
    fn operator_tokens_map_like_from_str() {
        let spellings = [
            "+", "-", "*", "/", "%", "**", "&", "|", "^", "~^", "^~", "<<", ">>", "<", ">", "<=",
            ">=", "==", "!=", "&&", "||", "~", "!", ".",
        ];
        for s in spellings {
            let ts = toks(s);
            assert_eq!(ts.len(), 2, "`{s}` is one token");
            assert_eq!(ts[0].binary_op(), s.parse::<BinaryOp>().ok(), "`{s}`");
        }
        assert_eq!(Tok::Ident("a").binary_op(), None);
    }
}
