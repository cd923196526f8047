//! SQL lexer.

use crate::error::SqlError;

/// A lexical token with its byte offset.
#[derive(Clone, Debug, PartialEq)]
pub struct Token {
    /// Token kind/payload.
    pub kind: TokenKind,
    /// Byte offset of the token start in the source.
    pub offset: usize,
}

/// Token kinds. Identifiers keep their original case; keyword matching is
/// case-insensitive at the parser level.
#[derive(Clone, Debug, PartialEq)]
pub enum TokenKind {
    /// Identifier or keyword.
    Ident(String),
    /// Integer literal.
    Int(i64),
    /// Float literal.
    Float(f64),
    /// Single-quoted string literal (quotes stripped, `''` unescaped).
    Str(String),
    /// `(`
    LParen,
    /// `)`
    RParen,
    /// `,`
    Comma,
    /// `.`
    Dot,
    /// `*`
    Star,
    /// `+`
    Plus,
    /// `-`
    Minus,
    /// `/`
    Slash,
    /// `%`
    Percent,
    /// `=`
    Eq,
    /// `<>` or `!=`
    Ne,
    /// `<`
    Lt,
    /// `<=`
    Le,
    /// `>`
    Gt,
    /// `>=`
    Ge,
}

/// Tokenizes SQL text. Comments (`-- …`) are skipped.
pub fn lex(input: &str) -> Result<Vec<Token>, SqlError> {
    let bytes = input.as_bytes();
    let mut tokens = Vec::new();
    let mut i = 0usize;
    while i < bytes.len() {
        // Tokens outside string literals are ASCII: a byte ≥ 0x80 here is
        // the first byte of a multibyte character (every arm below stops on
        // a character boundary) and falls through to the error arm.
        let c = bytes[i] as char;
        if c.is_ascii_whitespace() {
            i += 1;
            continue;
        }
        if c == '-' && bytes.get(i + 1) == Some(&b'-') {
            while i < bytes.len() && bytes[i] != b'\n' {
                i += 1;
            }
            continue;
        }
        let start = i;
        let kind = match c {
            '(' => {
                i += 1;
                TokenKind::LParen
            }
            ')' => {
                i += 1;
                TokenKind::RParen
            }
            ',' => {
                i += 1;
                TokenKind::Comma
            }
            '.' => {
                i += 1;
                TokenKind::Dot
            }
            '*' => {
                i += 1;
                TokenKind::Star
            }
            '+' => {
                i += 1;
                TokenKind::Plus
            }
            '-' => {
                i += 1;
                TokenKind::Minus
            }
            '/' => {
                i += 1;
                TokenKind::Slash
            }
            '%' => {
                i += 1;
                TokenKind::Percent
            }
            '=' => {
                i += 1;
                TokenKind::Eq
            }
            '!' => {
                if bytes.get(i + 1) == Some(&b'=') {
                    i += 2;
                    TokenKind::Ne
                } else {
                    return Err(SqlError::parse("stray '!'", i));
                }
            }
            '<' => match bytes.get(i + 1) {
                Some(&b'=') => {
                    i += 2;
                    TokenKind::Le
                }
                Some(&b'>') => {
                    i += 2;
                    TokenKind::Ne
                }
                _ => {
                    i += 1;
                    TokenKind::Lt
                }
            },
            '>' => {
                if bytes.get(i + 1) == Some(&b'=') {
                    i += 2;
                    TokenKind::Ge
                } else {
                    i += 1;
                    TokenKind::Gt
                }
            }
            '\'' => {
                i += 1;
                let mut s = String::new();
                loop {
                    match bytes.get(i) {
                        Some(&b'\'') => {
                            if bytes.get(i + 1) == Some(&b'\'') {
                                s.push('\'');
                                i += 2;
                            } else {
                                i += 1;
                                break;
                            }
                        }
                        Some(&b) => {
                            // Multi-byte chars: copy the whole char.
                            let ch_len = utf8_len(b);
                            s.push_str(&input[i..i + ch_len]);
                            i += ch_len;
                        }
                        None => return Err(SqlError::parse("unterminated string literal", start)),
                    }
                }
                TokenKind::Str(s)
            }
            c if c.is_ascii_digit() => {
                let mut end = i;
                let mut is_float = false;
                while end < bytes.len() {
                    let b = bytes[end] as char;
                    if b.is_ascii_digit() {
                        end += 1;
                    } else if b == '.'
                        && !is_float
                        && bytes.get(end + 1).is_some_and(|n| n.is_ascii_digit())
                    {
                        is_float = true;
                        end += 1;
                    } else if (b == 'e' || b == 'E')
                        && bytes
                            .get(end + 1)
                            .is_some_and(|n| n.is_ascii_digit() || *n == b'-' || *n == b'+')
                    {
                        is_float = true;
                        end += 2;
                    } else {
                        break;
                    }
                }
                let text = &input[i..end];
                i = end;
                if is_float {
                    TokenKind::Float(
                        text.parse()
                            .map_err(|_| SqlError::parse(format!("bad float {text}"), start))?,
                    )
                } else {
                    TokenKind::Int(
                        text.parse()
                            .map_err(|_| SqlError::parse(format!("bad integer {text}"), start))?,
                    )
                }
            }
            c if c.is_ascii_alphabetic() || c == '_' => {
                let mut end = i;
                while end < bytes.len() {
                    let b = bytes[end] as char;
                    if b.is_ascii_alphanumeric() || b == '_' {
                        end += 1;
                    } else {
                        break;
                    }
                }
                let ident = input[i..end].to_string();
                i = end;
                TokenKind::Ident(ident)
            }
            _ => {
                let other = input[i..].chars().next().unwrap_or(c);
                return Err(SqlError::parse(
                    format!("unexpected character {other:?}"),
                    i,
                ));
            }
        };
        tokens.push(Token {
            kind,
            offset: start,
        });
    }
    Ok(tokens)
}

fn utf8_len(first_byte: u8) -> usize {
    match first_byte {
        b if b < 0x80 => 1,
        b if b >> 5 == 0b110 => 2,
        b if b >> 4 == 0b1110 => 3,
        _ => 4,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn kinds(sql: &str) -> Vec<TokenKind> {
        lex(sql).unwrap().into_iter().map(|t| t.kind).collect()
    }

    /// Regression: bytes were classified as Latin-1 chars, so the first
    /// byte of `é` opened an identifier that ended inside the character and
    /// the slice panicked. Non-ASCII outside a string literal is an error;
    /// inside one it is data.
    #[test]
    fn non_ascii_outside_literals_is_an_error_not_a_panic() {
        for sql in [
            "SELECT cé FROM t",
            "SELECT a FROM t WHERE é = 1",
            "é",
            "a\u{2005}b",
        ] {
            assert!(matches!(lex(sql), Err(SqlError::Parse { .. })), "{sql}");
        }
        assert_eq!(
            kinds("'é\u{2005}€'"),
            vec![TokenKind::Str("é\u{2005}€".into())]
        );
    }

    #[test]
    fn basic_tokens() {
        assert_eq!(
            kinds("SELECT a, b FROM t WHERE x >= 1.5"),
            vec![
                TokenKind::Ident("SELECT".into()),
                TokenKind::Ident("a".into()),
                TokenKind::Comma,
                TokenKind::Ident("b".into()),
                TokenKind::Ident("FROM".into()),
                TokenKind::Ident("t".into()),
                TokenKind::Ident("WHERE".into()),
                TokenKind::Ident("x".into()),
                TokenKind::Ge,
                TokenKind::Float(1.5),
            ]
        );
    }

    #[test]
    fn string_escapes() {
        assert_eq!(kinds("'it''s'"), vec![TokenKind::Str("it's".into())]);
    }

    #[test]
    fn comments_skipped() {
        assert_eq!(
            kinds("a -- comment\n b"),
            vec![TokenKind::Ident("a".into()), TokenKind::Ident("b".into())]
        );
    }

    #[test]
    fn ne_forms() {
        assert_eq!(kinds("a <> b"), kinds("a != b"));
    }

    #[test]
    fn scientific_float() {
        assert_eq!(kinds("1e3"), vec![TokenKind::Float(1000.0)]);
        assert_eq!(kinds("2.5e-2"), vec![TokenKind::Float(0.025)]);
    }

    #[test]
    fn unterminated_string_errors() {
        assert!(matches!(lex("'abc"), Err(SqlError::Parse { .. })));
    }

    #[test]
    fn offsets_recorded() {
        let toks = lex("SELECT x").unwrap();
        assert_eq!(toks[1].offset, 7);
    }

    #[test]
    fn unicode_in_string() {
        assert_eq!(kinds("'türbine'"), vec![TokenKind::Str("türbine".into())]);
    }
}
