//! The tokenizer for SPARQL and STARQL, with line/column tracking.
//!
//! STARQL is SPARQL plus a header, so one lexer serves both. The header's
//! few tokens (`[`, `]`, `->`) mean nothing to SPARQL's grammar, and `$name`
//! lexes as [`TokenKind::Param`]: a variable to SPARQL, a macro parameter
//! to STARQL.

use crate::error::{Position, SparqlError};

/// A token plus where it starts.
#[derive(Clone, Debug, PartialEq)]
pub struct Token {
    /// Kind and payload.
    pub kind: TokenKind,
    /// 1-based source position of the first character.
    pub position: Position,
}

/// Token kinds.
#[derive(Clone, Debug, PartialEq)]
pub enum TokenKind {
    /// Bare word: keyword (`SELECT`), `a`, or aggregate name. A word has no
    /// `-`: `NOW-"PT10S"` is `NOW`, `-`, a string.
    Word(String),
    /// Prefixed name `prefix:local` (either part may be empty: `:MonInc`,
    /// `sie:`, and a lone `:`, which STARQL reads as a colon).
    PName(String),
    /// `?name` variable.
    Var(String),
    /// `$name`: a variable to SPARQL, a macro parameter to STARQL.
    Param(String),
    /// `<…>` IRI reference.
    IriRef(String),
    /// String literal, escapes decoded (datatype arrives as `^^` +
    /// PName/IriRef).
    Str(String),
    /// Integer literal.
    Int(i64),
    /// Decimal/double literal.
    Float(f64),
    /// `{`
    LBrace,
    /// `}`
    RBrace,
    /// `[`
    LBracket,
    /// `]`
    RBracket,
    /// `(`
    LParen,
    /// `)`
    RParen,
    /// `.`
    Dot,
    /// `,`
    Comma,
    /// `;`
    Semicolon,
    /// `*`
    Star,
    /// `/`
    Slash,
    /// `+`
    Plus,
    /// `-`
    Minus,
    /// `->`
    Arrow,
    /// `=`
    Eq,
    /// `!=`
    Ne,
    /// `<` (when not an IRI ref)
    Lt,
    /// `<=`
    Le,
    /// `>`
    Gt,
    /// `>=`
    Ge,
    /// `&&`
    AndAnd,
    /// `||`
    OrOr,
    /// `!`
    Bang,
    /// `^^`
    Carets,
}

struct Cursor<'a> {
    text: &'a str,
    /// Byte offset of the next character.
    pos: usize,
    line: u32,
    column: u32,
}

impl<'a> Cursor<'a> {
    fn position(&self) -> Position {
        Position {
            line: self.line,
            column: self.column,
        }
    }

    fn peek(&self) -> Option<char> {
        self.text[self.pos..].chars().next()
    }

    fn peek2(&self) -> Option<char> {
        self.text[self.pos..].chars().nth(1)
    }

    fn bump(&mut self) -> Option<char> {
        let c = self.peek()?;
        self.pos += c.len_utf8();
        if c == '\n' {
            self.line += 1;
            self.column = 1;
        } else {
            self.column += 1;
        }
        Some(c)
    }

    fn eat(&mut self, c: char) -> bool {
        let hit = self.peek() == Some(c);
        if hit {
            self.bump();
        }
        hit
    }

    /// Consumes characters while `keep` holds; never crosses a line.
    fn take_while(&mut self, keep: impl Fn(char) -> bool) -> &'a str {
        let start = self.pos;
        while self.peek().is_some_and(|c| c != '\n' && keep(c)) {
            self.bump();
        }
        &self.text[start..self.pos]
    }

    /// Steps back to `to`, an earlier offset on the current line.
    fn rewind(&mut self, to: usize) {
        self.column -= self.text[to..self.pos].chars().count() as u32;
        self.pos = to;
    }
}

fn is_name_char(c: char) -> bool {
    c.is_alphanumeric() || c == '_' || c == '-'
}

/// SPARQL's VARNAME: no `-`, so `?v-1` is `?v`, `-`, `1`.
fn is_var_char(c: char) -> bool {
    c.is_alphanumeric() || c == '_'
}

/// Tokenizes SPARQL or STARQL text.
pub fn lex(text: &str) -> Result<Vec<Token>, SparqlError> {
    let mut cursor = Cursor {
        text,
        pos: 0,
        line: 1,
        column: 1,
    };
    let mut tokens = Vec::new();

    loop {
        // Skip whitespace and `# …` comments.
        loop {
            match cursor.peek() {
                Some(c) if c.is_whitespace() => {
                    cursor.bump();
                }
                Some('#') => {
                    cursor.take_while(|_| true);
                }
                _ => break,
            }
        }
        let position = cursor.position();
        let start = cursor.pos;
        let Some(c) = cursor.bump() else { break };

        let kind = match c {
            '{' => TokenKind::LBrace,
            '}' => TokenKind::RBrace,
            '[' => TokenKind::LBracket,
            ']' => TokenKind::RBracket,
            '(' => TokenKind::LParen,
            ')' => TokenKind::RParen,
            ',' => TokenKind::Comma,
            ';' => TokenKind::Semicolon,
            '*' => TokenKind::Star,
            '/' => TokenKind::Slash,
            '+' => TokenKind::Plus,
            '=' => TokenKind::Eq,
            '.' => TokenKind::Dot,
            '^' if cursor.eat('^') => TokenKind::Carets,
            '&' if cursor.eat('&') => TokenKind::AndAnd,
            '|' if cursor.eat('|') => TokenKind::OrOr,
            '^' | '&' | '|' => {
                return Err(SparqlError::lex(
                    format!("lone '{c}' (expected '{c}{c}')"),
                    position,
                ))
            }
            '!' if cursor.eat('=') => TokenKind::Ne,
            '!' => TokenKind::Bang,
            '>' if cursor.eat('=') => TokenKind::Ge,
            '>' => TokenKind::Gt,
            '-' if cursor.eat('>') => TokenKind::Arrow,
            '-' => TokenKind::Minus,
            '<' => {
                // `<…>` IRI vs `<` / `<=` comparison: an IRI ref never
                // contains whitespace, and comparison operands start with
                // whitespace, a variable, a number, a negation, or a
                // parenthesized/quoted expression (`?x<5`, `?x<(…)`).
                match cursor.peek() {
                    Some('=') => {
                        cursor.bump();
                        TokenKind::Le
                    }
                    None => TokenKind::Lt,
                    Some(c2)
                        if c2.is_whitespace()
                            || c2.is_ascii_digit()
                            || matches!(c2, '?' | '$' | '(' | '"' | '\'' | '-' | '+' | '!') =>
                    {
                        TokenKind::Lt
                    }
                    _ => {
                        let iri = cursor.take_while(|c2| c2 != '>' && !c2.is_whitespace());
                        match cursor.bump() {
                            Some('>') => TokenKind::IriRef(iri.to_string()),
                            Some(_) => {
                                return Err(SparqlError::lex(
                                    "whitespace inside IRI reference",
                                    position,
                                ))
                            }
                            None => {
                                return Err(SparqlError::lex(
                                    "unterminated IRI reference",
                                    position,
                                ))
                            }
                        }
                    }
                }
            }
            '?' | '$' => {
                let name = cursor.take_while(is_var_char).to_string();
                if name.is_empty() {
                    return Err(SparqlError::lex("empty variable name", position));
                }
                if c == '?' {
                    TokenKind::Var(name)
                } else {
                    TokenKind::Param(name)
                }
            }
            '"' | '\'' => {
                let literal = lex_string(&mut cursor, c, position)?;
                if cursor.peek() == Some('@') {
                    return Err(SparqlError::lex(
                        "language tags are not supported",
                        cursor.position(),
                    ));
                }
                TokenKind::Str(literal)
            }
            c if c.is_ascii_digit() => lex_number(&mut cursor, start, position)?,
            c if c.is_alphabetic() || c == '_' || c == ':' => {
                if c != ':' {
                    cursor.take_while(is_name_char);
                }
                // `prefix:local` / `:local` / `prefix:` become prefixed
                // names; a bare word (keyword or `a`) stops at its first `-`.
                if c == ':' || cursor.eat(':') {
                    cursor.take_while(|c2| is_name_char(c2) || c2 == '/');
                    TokenKind::PName(text[start..cursor.pos].to_string())
                } else {
                    let word = &text[start..cursor.pos];
                    if let Some(cut) = word.find('-') {
                        cursor.rewind(start + cut);
                    }
                    TokenKind::Word(text[start..cursor.pos].to_string())
                }
            }
            other => {
                return Err(SparqlError::lex(
                    format!("unexpected character {other:?}"),
                    position,
                ))
            }
        };
        tokens.push(Token { kind, position });
    }
    Ok(tokens)
}

/// The rest of a string literal opened by `quote` at `position`, with
/// ECHAR (`\t \b \n \r \f \" \' \\`) and UCHAR (`\uXXXX`, `\UXXXXXXXX`)
/// escapes decoded.
fn lex_string(
    cursor: &mut Cursor<'_>,
    quote: char,
    position: Position,
) -> Result<String, SparqlError> {
    let mut s = String::new();
    loop {
        let escape = cursor.position();
        match cursor.bump() {
            Some(c) if c == quote => return Ok(s),
            Some('\\') => s.push(unescape(cursor, escape)?),
            Some(c) => s.push(c),
            None => return Err(SparqlError::lex("unterminated string", position)),
        }
    }
}

/// The character a `\` at `escape` stands for.
fn unescape(cursor: &mut Cursor<'_>, escape: Position) -> Result<char, SparqlError> {
    let digits = match cursor.bump() {
        Some('t') => return Ok('\t'),
        Some('b') => return Ok('\u{8}'),
        Some('n') => return Ok('\n'),
        Some('r') => return Ok('\r'),
        Some('f') => return Ok('\u{c}'),
        Some(c @ ('"' | '\'' | '\\')) => return Ok(c),
        Some('u') => 4,
        Some('U') => 8,
        Some(other) => {
            return Err(SparqlError::lex(
                format!("unknown escape '\\{other}'"),
                escape,
            ))
        }
        None => return Err(SparqlError::lex("unterminated escape", escape)),
    };
    let hex = cursor.take_while(|c| c.is_ascii_hexdigit());
    let decoded = hex
        .get(..digits)
        .and_then(|h| u32::from_str_radix(h, 16).ok())
        .and_then(char::from_u32);
    match decoded {
        Some(c) => {
            cursor.rewind(cursor.pos - (hex.len() - digits));
            Ok(c)
        }
        None => Err(SparqlError::lex(
            format!(
                "invalid code point escape '\\{}'",
                &hex[..hex.len().min(digits)]
            ),
            escape,
        )),
    }
}

/// A number whose first digit, at byte `start`, is already consumed.
fn lex_number(
    cursor: &mut Cursor<'_>,
    start: usize,
    position: Position,
) -> Result<TokenKind, SparqlError> {
    cursor.take_while(|c| c.is_ascii_digit());
    let mut float = false;
    // `1.` followed by a non-digit ends a triple (`?x :p 1.`) instead.
    if cursor.peek() == Some('.') && cursor.peek2().is_some_and(|c| c.is_ascii_digit()) {
        cursor.bump();
        cursor.take_while(|c| c.is_ascii_digit());
        float = true;
    }
    if matches!(cursor.peek(), Some('e' | 'E')) {
        cursor.bump();
        if matches!(cursor.peek(), Some('+' | '-')) {
            cursor.bump();
        }
        cursor.take_while(|c| c.is_ascii_digit());
        float = true;
    }
    let text = &cursor.text[start..cursor.pos];
    if float {
        text.parse::<f64>()
            .map(TokenKind::Float)
            .map_err(|_| SparqlError::lex(format!("bad numeric literal {text:?}"), position))
    } else {
        text.parse::<i64>()
            .map(TokenKind::Int)
            .map_err(|_| SparqlError::lex(format!("bad integer literal {text:?}"), position))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn kinds(text: &str) -> Vec<TokenKind> {
        lex(text).unwrap().into_iter().map(|t| t.kind).collect()
    }

    #[test]
    fn basic_query_tokens() {
        let toks = kinds("SELECT ?x WHERE { ?x a sie:Sensor . }");
        assert_eq!(
            toks,
            vec![
                TokenKind::Word("SELECT".into()),
                TokenKind::Var("x".into()),
                TokenKind::Word("WHERE".into()),
                TokenKind::LBrace,
                TokenKind::Var("x".into()),
                TokenKind::Word("a".into()),
                TokenKind::PName("sie:Sensor".into()),
                TokenKind::Dot,
                TokenKind::RBrace,
            ]
        );
    }

    #[test]
    fn iri_vs_comparison() {
        assert_eq!(
            kinds("<http://x/p> ?a < ?b ?c <= 4"),
            vec![
                TokenKind::IriRef("http://x/p".into()),
                TokenKind::Var("a".into()),
                TokenKind::Lt,
                TokenKind::Var("b".into()),
                TokenKind::Var("c".into()),
                TokenKind::Le,
                TokenKind::Int(4),
            ]
        );
    }

    #[test]
    fn numbers_and_strings() {
        assert_eq!(
            kinds(r#"42 -7 3.5 1e3 "hi" 'there'"#),
            vec![
                TokenKind::Int(42),
                TokenKind::Minus,
                TokenKind::Int(7),
                TokenKind::Float(3.5),
                TokenKind::Float(1000.0),
                TokenKind::Str("hi".into()),
                TokenKind::Str("there".into()),
            ]
        );
    }

    #[test]
    fn trailing_dot_after_integer_stays_a_dot() {
        assert_eq!(
            kinds("?x sie:hasValue 4 . }"),
            vec![
                TokenKind::Var("x".into()),
                TokenKind::PName("sie:hasValue".into()),
                TokenKind::Int(4),
                TokenKind::Dot,
                TokenKind::RBrace,
            ]
        );
    }

    #[test]
    fn comparison_without_spaces() {
        assert_eq!(
            kinds("?x<5 && ?y<(2+1)"),
            vec![
                TokenKind::Var("x".into()),
                TokenKind::Lt,
                TokenKind::Int(5),
                TokenKind::AndAnd,
                TokenKind::Var("y".into()),
                TokenKind::Lt,
                TokenKind::LParen,
                TokenKind::Int(2),
                TokenKind::Plus,
                TokenKind::Int(1),
                TokenKind::RParen,
            ]
        );
    }

    #[test]
    fn operators() {
        assert_eq!(
            kinds("&& || ! != = >= > ^^"),
            vec![
                TokenKind::AndAnd,
                TokenKind::OrOr,
                TokenKind::Bang,
                TokenKind::Ne,
                TokenKind::Eq,
                TokenKind::Ge,
                TokenKind::Gt,
                TokenKind::Carets,
            ]
        );
    }

    #[test]
    fn comments_skipped_and_positions_tracked() {
        let toks = lex("# header\nSELECT ?x").unwrap();
        assert_eq!(toks[0].kind, TokenKind::Word("SELECT".into()));
        assert_eq!(toks[0].position, Position { line: 2, column: 1 });
        assert_eq!(toks[1].position, Position { line: 2, column: 8 });
    }

    #[test]
    fn default_prefix_pname() {
        assert_eq!(kinds(":MonInc"), vec![TokenKind::PName(":MonInc".into())]);
    }

    #[test]
    fn error_positions() {
        let err = lex("SELECT @x").unwrap_err();
        assert_eq!(err.position, Some(Position { line: 1, column: 8 }));
        assert!(lex("\"unterminated").is_err());
        assert!(lex("<http://x /p>").is_err());
    }
    // ---- STARQL's header and HAVING through the one lexer --------------

    #[test]
    fn curies_and_vars() {
        assert_eq!(
            kinds("?c1 a sie:Assembly"),
            vec![
                TokenKind::Var("c1".into()),
                TokenKind::Word("a".into()),
                TokenKind::PName("sie:Assembly".into()),
            ]
        );
    }

    #[test]
    fn leading_colon_curie() {
        assert_eq!(kinds(":MonInc"), vec![TokenKind::PName(":MonInc".into())]);
    }

    /// `?y:` and `IN seq:` end a STARQL quantifier header: the colon stays
    /// out of the variable and closes the prefixed name.
    #[test]
    fn colon_not_absorbed_before_space() {
        assert_eq!(
            kinds("?y: GRAPH seq: seq :"),
            vec![
                TokenKind::Var("y".into()),
                TokenKind::PName(":".into()),
                TokenKind::Word("GRAPH".into()),
                TokenKind::PName("seq:".into()),
                TokenKind::Word("seq".into()),
                TokenKind::PName(":".into()),
            ]
        );
    }

    #[test]
    fn window_tokens() {
        assert_eq!(
            kinds("[NOW-\"PT10S\"^^xsd:duration, NOW]->\"PT1S\"^^xsd:duration"),
            vec![
                TokenKind::LBracket,
                TokenKind::Word("NOW".into()),
                TokenKind::Minus,
                TokenKind::Str("PT10S".into()),
                TokenKind::Carets,
                TokenKind::PName("xsd:duration".into()),
                TokenKind::Comma,
                TokenKind::Word("NOW".into()),
                TokenKind::RBracket,
                TokenKind::Arrow,
                TokenKind::Str("PT1S".into()),
                TokenKind::Carets,
                TokenKind::PName("xsd:duration".into()),
            ]
        );
    }

    #[test]
    fn iriref_vs_comparison() {
        assert_eq!(
            kinds("<http://x/a> ?x <= ?y ?i < ?j"),
            vec![
                TokenKind::IriRef("http://x/a".into()),
                TokenKind::Var("x".into()),
                TokenKind::Le,
                TokenKind::Var("y".into()),
                TokenKind::Var("i".into()),
                TokenKind::Lt,
                TokenKind::Var("j".into()),
            ]
        );
    }

    #[test]
    fn params_and_macro_dots() {
        assert_eq!(
            kinds("MONOTONIC.HAVING($var,$attr)"),
            vec![
                TokenKind::Word("MONOTONIC".into()),
                TokenKind::Dot,
                TokenKind::Word("HAVING".into()),
                TokenKind::LParen,
                TokenKind::Param("var".into()),
                TokenKind::Comma,
                TokenKind::Param("attr".into()),
                TokenKind::RParen,
            ]
        );
    }

    #[test]
    fn macro_colon_name_is_single_curie() {
        assert_eq!(
            kinds("MONOTONIC:HAVING"),
            vec![TokenKind::PName("MONOTONIC:HAVING".into())]
        );
    }

    #[test]
    fn comments_skipped() {
        assert_eq!(
            kinds("a # rest\n b"),
            vec![TokenKind::Word("a".into()), TokenKind::Word("b".into())]
        );
    }

    #[test]
    fn no_le_inside_compact_comparison() {
        assert_eq!(
            kinds("?x<=?y"),
            vec![
                TokenKind::Var("x".into()),
                TokenKind::Le,
                TokenKind::Var("y".into())
            ]
        );
    }

    #[test]
    fn errors_have_offsets() {
        let err = lex("abc\n  ^def").unwrap_err();
        assert_eq!(err.position, Some(Position { line: 2, column: 3 }));
    }

    // ---- one literal syntax ---------------------------------------------

    #[test]
    fn variable_names_stop_at_a_minus() {
        assert_eq!(
            kinds("?v-1 > 3"),
            vec![
                TokenKind::Var("v".into()),
                TokenKind::Minus,
                TokenKind::Int(1),
                TokenKind::Gt,
                TokenKind::Int(3),
            ]
        );
        // A prefixed name keeps its inner `-`; a bare word stops at it.
        assert_eq!(
            kinds("x-y:a-b NOW-1"),
            vec![
                TokenKind::PName("x-y:a-b".into()),
                TokenKind::Word("NOW".into()),
                TokenKind::Minus,
                TokenKind::Int(1),
            ]
        );
    }

    #[test]
    fn carriage_return_escape_decodes() {
        assert_eq!(kinds(r#""A\r""#), vec![TokenKind::Str("A\r".into())]);
    }

    #[test]
    fn unicode_escape_decodes() {
        assert_eq!(kinds(r#""\u0041""#), vec![TokenKind::Str("A".into())]);
        assert_eq!(
            kinds(r#"'\U0001F600\u00e9x'"#),
            vec![TokenKind::Str("\u{1F600}\u{e9}x".into())]
        );
    }

    #[test]
    fn every_echar_decodes() {
        assert_eq!(
            kinds(r#""\t\b\n\r\f\"\'\\""#),
            vec![TokenKind::Str("\t\u{8}\n\r\u{c}\"'\\".into())]
        );
    }

    #[test]
    fn bad_escapes_are_positioned_lex_errors() {
        for (text, column) in [
            (r#"?x "ab\q""#, 7),
            (r#"?x "\u00""#, 5),
            (r#"?x "\uD800""#, 5),
            (r#"?x "\U00110000""#, 5),
            (r#"?x "ab\"#, 7),
        ] {
            let err = lex(text).unwrap_err();
            assert_eq!(err.kind, crate::error::ErrorKind::Lex, "{text}");
            assert_eq!(err.position, Some(Position { line: 1, column }), "{text}");
        }
    }
}
