//! Hand-written lexer.
//!
//! Nothing exotic: maximal-munch operators (including the CUDA launch
//! brackets `<<<` / `>>>`), C numeric literals with optional `f`
//! suffixes, and `#pragma acc parallel loop` lines folded into a single
//! token for the OpenACC front end. Identifiers and string literals
//! borrow their text from the source, so the only allocation is the
//! token vector. Columns count bytes of the source.

use crate::diag::{Diag, Phase, Pos};
use crate::token::{Tok, Token};

/// Tokenize preprocessed source.
pub fn lex(source: &str) -> Result<Vec<Token<'_>>, Diag> {
    // The lab solutions average 3.57 bytes per token, and the densest
    // (sgemm) has 3.11: a third of the length holds each in one
    // allocation, where an empty vector grows about seven times.
    let mut tokens = Vec::with_capacity(source.len() / 3 + 1);
    let bytes = source.as_bytes();
    let mut i = 0usize;
    let mut line = 1u32;
    let mut col = 1u32;

    macro_rules! push {
        ($kind:expr, $len:expr) => {{
            tokens.push(Token {
                kind: $kind,
                pos: Pos::new(line, col),
            });
            i += $len;
            col += $len as u32;
        }};
    }

    while i < bytes.len() {
        let c = bytes[i];
        match c {
            b'\n' => {
                i += 1;
                line += 1;
                col = 1;
            }
            b' ' | b'\t' | b'\r' => {
                i += 1;
                col += 1;
            }
            b'#' => {
                // Only `#pragma` survives preprocessing.
                let eol = bytes[i..]
                    .iter()
                    .position(|&b| b == b'\n')
                    .map_or(bytes.len(), |k| i + k);
                let text = &source[i..eol];
                if text.contains("acc") && text.contains("parallel") && text.contains("loop") {
                    tokens.push(Token {
                        kind: Tok::PragmaAccParallelLoop,
                        pos: Pos::new(line, col),
                    });
                } else {
                    return Err(Diag::new(
                        Phase::Lex,
                        Pos::new(line, col),
                        format!("unsupported pragma: {text:?} (only `#pragma acc parallel loop`)"),
                    ));
                }
                col += (eol - i) as u32;
                i = eol;
            }
            b'"' => {
                let start_pos = Pos::new(line, col);
                let mut k = i + 1;
                loop {
                    match bytes.get(k) {
                        None | Some(b'\n') => {
                            return Err(Diag::new(Phase::Lex, start_pos, "unterminated string"))
                        }
                        Some(b'"') => break,
                        Some(b'\\') => match bytes.get(k + 1) {
                            None => {
                                return Err(Diag::new(Phase::Lex, start_pos, "unterminated string"))
                            }
                            Some(b'n' | b't' | b'\\' | b'"' | b'0') => k += 2,
                            Some(_) => {
                                let other = source[k + 1..].chars().next().unwrap_or('?');
                                return Err(Diag::new(
                                    Phase::Lex,
                                    start_pos,
                                    format!("unknown escape \\{other}"),
                                ));
                            }
                        },
                        Some(_) => k += 1,
                    }
                }
                let len = k + 1 - i;
                push!(Tok::Str(&source[i + 1..k]), len);
            }
            _ if c.is_ascii_digit()
                || (c == b'.' && bytes.get(i + 1).is_some_and(u8::is_ascii_digit)) =>
            {
                let (tok, len) = lex_number(&source[i..], Pos::new(line, col))?;
                push!(tok, len);
            }
            _ if c.is_ascii_alphabetic() || c == b'_' => {
                let len = bytes[i..]
                    .iter()
                    .position(|&b| !(b.is_ascii_alphanumeric() || b == b'_'))
                    .unwrap_or(bytes.len() - i);
                push!(Tok::Ident(&source[i..i + len]), len);
            }
            _ => {
                let (tok, len) = operator(&bytes[i..]).ok_or_else(|| {
                    let other = source[i..].chars().next().unwrap_or('?');
                    Diag::new(
                        Phase::Lex,
                        Pos::new(line, col),
                        format!("unexpected character {other:?}"),
                    )
                })?;
                push!(tok, len);
            }
        }
    }
    tokens.push(Token {
        kind: Tok::Eof,
        pos: Pos::new(line, col),
    });
    Ok(tokens)
}

/// The operator at the start of `rest`, by maximal munch, and its
/// length; `None` when `rest` starts with no operator.
fn operator(rest: &[u8]) -> Option<(Tok<'static>, usize)> {
    let at = |k: usize| rest.get(k).copied().unwrap_or(0);
    let (c, d, e) = (at(0), at(1), at(2));
    Some(match (c, d, e) {
        (b'<', b'<', b'<') => (Tok::LaunchOpen, 3),
        (b'>', b'>', b'>') => (Tok::LaunchClose, 3),
        (b'<', b'<', b'=') => (Tok::ShlEq, 3),
        (b'>', b'>', b'=') => (Tok::ShrEq, 3),
        (b'=', b'=', _) => (Tok::EqEq, 2),
        (b'!', b'=', _) => (Tok::NotEq, 2),
        (b'<', b'=', _) => (Tok::Le, 2),
        (b'>', b'=', _) => (Tok::Ge, 2),
        (b'<', b'<', _) => (Tok::Shl, 2),
        (b'>', b'>', _) => (Tok::Shr, 2),
        (b'&', b'&', _) => (Tok::AmpAmp, 2),
        (b'|', b'|', _) => (Tok::PipePipe, 2),
        (b'+', b'=', _) => (Tok::PlusEq, 2),
        (b'-', b'=', _) => (Tok::MinusEq, 2),
        (b'*', b'=', _) => (Tok::StarEq, 2),
        (b'/', b'=', _) => (Tok::SlashEq, 2),
        (b'%', b'=', _) => (Tok::PercentEq, 2),
        (b'&', b'=', _) => (Tok::AmpEq, 2),
        (b'|', b'=', _) => (Tok::PipeEq, 2),
        (b'^', b'=', _) => (Tok::CaretEq, 2),
        (b'+', b'+', _) => (Tok::PlusPlus, 2),
        (b'-', b'-', _) => (Tok::MinusMinus, 2),
        (b'(', _, _) => (Tok::LParen, 1),
        (b')', _, _) => (Tok::RParen, 1),
        (b'{', _, _) => (Tok::LBrace, 1),
        (b'}', _, _) => (Tok::RBrace, 1),
        (b'[', _, _) => (Tok::LBracket, 1),
        (b']', _, _) => (Tok::RBracket, 1),
        (b';', _, _) => (Tok::Semi, 1),
        (b',', _, _) => (Tok::Comma, 1),
        (b'.', _, _) => (Tok::Dot, 1),
        (b'&', _, _) => (Tok::Amp, 1),
        (b'|', _, _) => (Tok::Pipe, 1),
        (b'^', _, _) => (Tok::Caret, 1),
        (b'!', _, _) => (Tok::Bang, 1),
        (b'~', _, _) => (Tok::Tilde, 1),
        (b'+', _, _) => (Tok::Plus, 1),
        (b'-', _, _) => (Tok::Minus, 1),
        (b'*', _, _) => (Tok::Star, 1),
        (b'/', _, _) => (Tok::Slash, 1),
        (b'%', _, _) => (Tok::Percent, 1),
        (b'=', _, _) => (Tok::Eq, 1),
        (b'<', _, _) => (Tok::Lt, 1),
        (b'>', _, _) => (Tok::Gt, 1),
        (b'?', _, _) => (Tok::Question, 1),
        (b':', _, _) => (Tok::Colon, 1),
        _ => return None,
    })
}

/// Lex one numeric literal starting at the beginning of `s`.
fn lex_number(s: &str, pos: Pos) -> Result<(Tok<'static>, usize), Diag> {
    let bytes = s.as_bytes();
    let mut k = 0;
    let mut is_float = false;
    // Hex integers.
    if s.starts_with("0x") || s.starts_with("0X") {
        k = 2;
        while k < bytes.len() && (bytes[k] as char).is_ascii_hexdigit() {
            k += 1;
        }
        let v = i64::from_str_radix(&s[2..k], 16)
            .map_err(|_| Diag::new(Phase::Lex, pos, "invalid hex literal"))?;
        return Ok((Tok::Int(v), k));
    }
    while k < bytes.len() && bytes[k].is_ascii_digit() {
        k += 1;
    }
    if k < bytes.len() && bytes[k] == b'.' {
        is_float = true;
        k += 1;
        while k < bytes.len() && bytes[k].is_ascii_digit() {
            k += 1;
        }
    }
    if k < bytes.len() && (bytes[k] == b'e' || bytes[k] == b'E') {
        let mut j = k + 1;
        if j < bytes.len() && (bytes[j] == b'+' || bytes[j] == b'-') {
            j += 1;
        }
        if j < bytes.len() && bytes[j].is_ascii_digit() {
            is_float = true;
            k = j;
            while k < bytes.len() && bytes[k].is_ascii_digit() {
                k += 1;
            }
        }
    }
    let text = &s[..k];
    let mut len = k;
    if k < bytes.len() && (bytes[k] == b'f' || bytes[k] == b'F') {
        is_float = true;
        len += 1;
    }
    if is_float {
        let v: f32 = text
            .parse()
            .map_err(|_| Diag::new(Phase::Lex, pos, format!("invalid float literal {text:?}")))?;
        Ok((Tok::Float(v), len))
    } else {
        let v: i64 = text
            .parse()
            .map_err(|_| Diag::new(Phase::Lex, pos, format!("invalid integer literal {text:?}")))?;
        Ok((Tok::Int(v), len))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn kinds(src: &str) -> Vec<Tok<'_>> {
        lex(src).unwrap().into_iter().map(|t| t.kind).collect()
    }

    #[test]
    fn basic_tokens() {
        assert_eq!(
            kinds("int x = 42;"),
            vec![
                Tok::Ident("int"),
                Tok::Ident("x"),
                Tok::Eq,
                Tok::Int(42),
                Tok::Semi,
                Tok::Eof
            ]
        );
    }

    #[test]
    fn launch_brackets_lex_greedily() {
        let k = kinds("k<<<1, 2>>>();");
        assert!(k.contains(&Tok::LaunchOpen));
        assert!(k.contains(&Tok::LaunchClose));
    }

    #[test]
    fn shift_operators_still_work() {
        assert_eq!(kinds("a >> 1")[1], Tok::Shr);
        assert_eq!(kinds("a >>= 1")[1], Tok::ShrEq);
        assert_eq!(kinds("a << 1")[1], Tok::Shl);
    }

    #[test]
    fn float_literals() {
        assert_eq!(kinds("1.5")[0], Tok::Float(1.5));
        assert_eq!(kinds("2.0f")[0], Tok::Float(2.0));
        assert_eq!(kinds("1e3")[0], Tok::Float(1000.0));
        assert_eq!(kinds("1.5e-2")[0], Tok::Float(0.015));
        assert_eq!(kinds(".25")[0], Tok::Float(0.25));
        assert_eq!(kinds("3f")[0], Tok::Float(3.0));
    }

    #[test]
    fn int_literals() {
        assert_eq!(kinds("0x10")[0], Tok::Int(16));
        assert_eq!(kinds("007")[0], Tok::Int(7));
    }

    #[test]
    fn dot_member_access() {
        assert_eq!(
            kinds("threadIdx.x")[..3],
            [Tok::Ident("threadIdx"), Tok::Dot, Tok::Ident("x")]
        );
    }

    #[test]
    fn string_escapes() {
        let raw = kinds("\"a\\n\\\"b\\\"\"")[0];
        assert_eq!(raw, Tok::Str("a\\n\\\"b\\\""));
        let Tok::Str(raw) = raw else { unreachable!() };
        let mut text = String::new();
        crate::token::unescape(raw, &mut text);
        assert_eq!(text, "a\n\"b\"");
    }

    #[test]
    fn unterminated_string_is_error() {
        assert!(lex("\"abc").is_err());
    }

    #[test]
    fn unknown_char_is_error() {
        let err = lex("int x = $;").unwrap_err();
        assert_eq!(err.phase, Phase::Lex);
        assert_eq!(err.pos.col, 9);
    }

    #[test]
    fn positions_track_lines() {
        let toks = lex("int\nx").unwrap();
        assert_eq!(toks[0].pos, Pos::new(1, 1));
        assert_eq!(toks[1].pos, Pos::new(2, 1));
    }

    #[test]
    fn acc_pragma_folds_to_token() {
        let k = kinds("#pragma acc parallel loop\nfor(;;) {}");
        assert_eq!(k[0], Tok::PragmaAccParallelLoop);
    }

    #[test]
    fn other_pragma_rejected() {
        assert!(lex("#pragma omp parallel\n").is_err());
    }

    #[test]
    fn increment_and_compound_assign() {
        assert_eq!(kinds("i++")[1], Tok::PlusPlus);
        assert_eq!(kinds("i += 2")[1], Tok::PlusEq);
        assert_eq!(kinds("i <<= 2")[1], Tok::ShlEq);
    }
}
