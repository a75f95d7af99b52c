//! Token definitions for the minicuda lexer.
//!
//! A token borrows its text from the source it was lexed from, so
//! lexing allocates nothing but the token vector; the parser copies a
//! name out once, when it builds the AST node that keeps it.

use crate::diag::Pos;

/// A lexical token with its source position.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Token<'src> {
    /// Token kind and payload.
    pub kind: Tok<'src>,
    /// Position of the first character.
    pub pos: Pos,
}

/// Token kinds.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Tok<'src> {
    /// Identifier or keyword (keywords are distinguished by the parser,
    /// which keeps the lexer trivial and error messages contextual).
    Ident(&'src str),
    /// Integer literal.
    Int(i64),
    /// Float literal (a trailing `f` suffix is accepted and dropped).
    Float(f32),
    /// String literal: the text between the quotes as written, its
    /// escapes checked by the lexer and resolved by the parser.
    Str(&'src str),

    // Punctuation and operators.
    /// `(`
    LParen,
    /// `)`
    RParen,
    /// `{`
    LBrace,
    /// `}`
    RBrace,
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
    /// `&`
    Amp,
    /// `&&`
    AmpAmp,
    /// `|`
    Pipe,
    /// `||`
    PipePipe,
    /// `^`
    Caret,
    /// `!`
    Bang,
    /// `~`
    Tilde,
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
    /// `=`
    Eq,
    /// `==`
    EqEq,
    /// `!=`
    NotEq,
    /// `<`
    Lt,
    /// `<=`
    Le,
    /// `>`
    Gt,
    /// `>=`
    Ge,
    /// `<<`
    Shl,
    /// `>>`
    Shr,
    /// `+=`
    PlusEq,
    /// `-=`
    MinusEq,
    /// `*=`
    StarEq,
    /// `/=`
    SlashEq,
    /// `%=`
    PercentEq,
    /// `&=`
    AmpEq,
    /// `|=`
    PipeEq,
    /// `^=`
    CaretEq,
    /// `<<=`
    ShlEq,
    /// `>>=`
    ShrEq,
    /// `++`
    PlusPlus,
    /// `--`
    MinusMinus,
    /// `?`
    Question,
    /// `:`
    Colon,
    /// `<<<` opening a kernel launch configuration
    LaunchOpen,
    /// `>>>` closing a kernel launch configuration
    LaunchClose,
    /// A `#pragma acc parallel loop` line (OpenACC front end).
    PragmaAccParallelLoop,
    /// End of input.
    Eof,
}

/// Resolve the escapes of a [`Tok::Str`] payload, which the lexer has
/// already checked: every `\\` is followed by one of `n t \\ " 0`,
/// appending the text to `out`.
pub(crate) fn unescape(raw: &str, out: &mut String) {
    let mut rest = raw;
    while let Some(k) = rest.find('\\') {
        out.push_str(&rest[..k]);
        let escaped = rest.as_bytes().get(k + 1).copied();
        out.push(match escaped {
            Some(b'n') => '\n',
            Some(b't') => '\t',
            Some(b'0') => '\0',
            Some(b'"') => '"',
            _ => '\\',
        });
        rest = rest.get(k + 2..).unwrap_or("");
    }
    out.push_str(rest);
}

impl Tok<'_> {
    /// Human-readable description for diagnostics.
    pub fn describe(&self) -> String {
        match self {
            Tok::Ident(s) => format!("identifier `{s}`"),
            Tok::Int(v) => format!("integer `{v}`"),
            Tok::Float(v) => format!("float `{v}`"),
            Tok::Str(_) => "string literal".to_string(),
            Tok::Eof => "end of input".to_string(),
            Tok::PragmaAccParallelLoop => "`#pragma acc parallel loop`".to_string(),
            other => format!("`{}`", other.glyph()),
        }
    }

    fn glyph(&self) -> &'static str {
        match self {
            Tok::LParen => "(",
            Tok::RParen => ")",
            Tok::LBrace => "{",
            Tok::RBrace => "}",
            Tok::LBracket => "[",
            Tok::RBracket => "]",
            Tok::Semi => ";",
            Tok::Comma => ",",
            Tok::Dot => ".",
            Tok::Amp => "&",
            Tok::AmpAmp => "&&",
            Tok::Pipe => "|",
            Tok::PipePipe => "||",
            Tok::Caret => "^",
            Tok::Bang => "!",
            Tok::Tilde => "~",
            Tok::Plus => "+",
            Tok::Minus => "-",
            Tok::Star => "*",
            Tok::Slash => "/",
            Tok::Percent => "%",
            Tok::Eq => "=",
            Tok::EqEq => "==",
            Tok::NotEq => "!=",
            Tok::Lt => "<",
            Tok::Le => "<=",
            Tok::Gt => ">",
            Tok::Ge => ">=",
            Tok::Shl => "<<",
            Tok::Shr => ">>",
            Tok::PlusEq => "+=",
            Tok::MinusEq => "-=",
            Tok::StarEq => "*=",
            Tok::SlashEq => "/=",
            Tok::PercentEq => "%=",
            Tok::AmpEq => "&=",
            Tok::PipeEq => "|=",
            Tok::CaretEq => "^=",
            Tok::ShlEq => "<<=",
            Tok::ShrEq => ">>=",
            Tok::PlusPlus => "++",
            Tok::MinusMinus => "--",
            Tok::Question => "?",
            Tok::Colon => ":",
            Tok::LaunchOpen => "<<<",
            Tok::LaunchClose => ">>>",
            _ => "?",
        }
    }
}
