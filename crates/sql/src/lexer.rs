//! SQL tokenizer.

use qprog_types::{QError, QResult};

/// A lexical token.
#[derive(Debug, Clone, PartialEq)]
pub enum Token {
    /// Keyword or identifier (unquoted; stored as written).
    Ident(String),
    /// Integer literal.
    Int(i64),
    /// Float literal.
    Float(f64),
    /// Single-quoted string literal (quotes stripped, `''` unescaped).
    Str(String),
    /// Punctuation / operators.
    LParen,
    RParen,
    Comma,
    Dot,
    Star,
    Plus,
    Minus,
    Slash,
    Eq,
    NotEq,
    Lt,
    LtEq,
    Gt,
    GtEq,
    Semicolon,
}

impl Token {
    /// Whether this token is the given keyword (case-insensitive).
    pub fn is_keyword(&self, kw: &str) -> bool {
        matches!(self, Token::Ident(s) if s.eq_ignore_ascii_case(kw))
    }
}

/// Tokenize SQL text.
pub fn tokenize(input: &str) -> QResult<Vec<Token>> {
    let mut tokens = Vec::new();
    let bytes = input.as_bytes();
    let mut i = 0;
    while i < bytes.len() {
        let c = bytes[i] as char;
        match c {
            c if c.is_ascii_whitespace() => i += 1,
            '(' => {
                tokens.push(Token::LParen);
                i += 1;
            }
            ')' => {
                tokens.push(Token::RParen);
                i += 1;
            }
            ',' => {
                tokens.push(Token::Comma);
                i += 1;
            }
            '.' => {
                tokens.push(Token::Dot);
                i += 1;
            }
            '*' => {
                tokens.push(Token::Star);
                i += 1;
            }
            '+' => {
                tokens.push(Token::Plus);
                i += 1;
            }
            '-' => {
                // line comment support: `-- ...`
                if bytes.get(i + 1) == Some(&b'-') {
                    while i < bytes.len() && bytes[i] != b'\n' {
                        i += 1;
                    }
                } else {
                    tokens.push(Token::Minus);
                    i += 1;
                }
            }
            '/' => {
                tokens.push(Token::Slash);
                i += 1;
            }
            ';' => {
                tokens.push(Token::Semicolon);
                i += 1;
            }
            '=' => {
                tokens.push(Token::Eq);
                i += 1;
            }
            '<' => match bytes.get(i + 1) {
                Some(b'=') => {
                    tokens.push(Token::LtEq);
                    i += 2;
                }
                Some(b'>') => {
                    tokens.push(Token::NotEq);
                    i += 2;
                }
                _ => {
                    tokens.push(Token::Lt);
                    i += 1;
                }
            },
            '>' => {
                if bytes.get(i + 1) == Some(&b'=') {
                    tokens.push(Token::GtEq);
                    i += 2;
                } else {
                    tokens.push(Token::Gt);
                    i += 1;
                }
            }
            '!' => {
                if bytes.get(i + 1) == Some(&b'=') {
                    tokens.push(Token::NotEq);
                    i += 2;
                } else {
                    return Err(QError::parse("unexpected `!`"));
                }
            }
            '\'' => {
                // Copy the text between quotes as `str` slices: a `'` byte
                // never occurs inside a multi-byte UTF-8 sequence, so every
                // cut below is a char boundary.
                let mut s = String::new();
                i += 1;
                loop {
                    let Some(len) = input[i..].find('\'') else {
                        return Err(QError::parse("unterminated string literal"));
                    };
                    s.push_str(&input[i..i + len]);
                    i += len + 1;
                    if bytes.get(i) != Some(&b'\'') {
                        break;
                    }
                    s.push('\''); // `''` is an escaped quote
                    i += 1;
                }
                tokens.push(Token::Str(s));
            }
            c if c.is_ascii_digit() => {
                let start = i;
                while i < bytes.len() && (bytes[i] as char).is_ascii_digit() {
                    i += 1;
                }
                let is_float = i < bytes.len()
                    && bytes[i] == b'.'
                    && bytes
                        .get(i + 1)
                        .is_some_and(|b| (*b as char).is_ascii_digit());
                if is_float {
                    i += 1;
                    while i < bytes.len() && (bytes[i] as char).is_ascii_digit() {
                        i += 1;
                    }
                    let text = &input[start..i];
                    tokens.push(Token::Float(text.parse().map_err(|e| {
                        QError::parse(format!("bad float literal `{text}`: {e}"))
                    })?));
                } else {
                    let text = &input[start..i];
                    tokens.push(Token::Int(text.parse().map_err(|e| {
                        QError::parse(format!("bad integer literal `{text}`: {e}"))
                    })?));
                }
            }
            c if c.is_ascii_alphabetic() || c == '_' => {
                let start = i;
                while i < bytes.len()
                    && ((bytes[i] as char).is_ascii_alphanumeric() || bytes[i] == b'_')
                {
                    i += 1;
                }
                tokens.push(Token::Ident(input[start..i].to_string()));
            }
            _ => {
                let other = input[i..].chars().next().unwrap_or_default();
                return Err(QError::parse(format!("unexpected character `{other}`")));
            }
        }
    }
    Ok(tokens)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn basic_query_tokens() {
        let toks = tokenize("SELECT a, count(*) FROM t WHERE a <= 5").unwrap();
        assert!(toks[0].is_keyword("select"));
        assert_eq!(toks[1], Token::Ident("a".into()));
        assert_eq!(toks[2], Token::Comma);
        assert!(toks.contains(&Token::LtEq));
        assert!(toks.contains(&Token::Star));
        assert_eq!(*toks.last().unwrap(), Token::Int(5));
    }

    #[test]
    fn numbers_and_strings() {
        let toks = tokenize("42 3.25 'it''s' 'x'").unwrap();
        assert_eq!(
            toks,
            vec![
                Token::Int(42),
                Token::Float(3.25),
                Token::Str("it's".into()),
                Token::Str("x".into()),
            ]
        );
    }

    #[test]
    fn qualified_names_and_operators() {
        let toks = tokenize("t.a <> u.b >= 1 != 2").unwrap();
        assert_eq!(toks[1], Token::Dot);
        assert_eq!(toks[3], Token::NotEq);
        assert_eq!(toks[7], Token::GtEq);
        assert_eq!(toks[9], Token::NotEq);
    }

    #[test]
    fn comments_skipped() {
        let toks = tokenize("SELECT a -- trailing comment\nFROM t").unwrap();
        assert_eq!(toks.len(), 4);
        assert!(toks[2].is_keyword("from"));
    }

    #[test]
    fn minus_and_division() {
        let toks = tokenize("a - 1 / 2").unwrap();
        assert_eq!(toks[1], Token::Minus);
        assert_eq!(toks[3], Token::Slash);
    }

    #[test]
    fn string_literals_keep_non_ascii_text() {
        let toks = tokenize("WHERE name = 'Zürich' OR name = '東京 🎯''s'").unwrap();
        assert_eq!(toks[3], Token::Str("Zürich".into()));
        assert_eq!(toks[7], Token::Str("東京 🎯's".into()));
        assert_eq!(tokenize("''''").unwrap(), vec![Token::Str("'".into())]);
        assert!(tokenize("'Zürich").is_err());
    }

    #[test]
    fn errors() {
        assert!(tokenize("'unterminated").is_err());
        assert!(tokenize("a ! b").is_err());
        let err = tokenize("héllo").unwrap_err().to_string();
        assert!(err.contains("`é`"), "{err}");
    }
}
