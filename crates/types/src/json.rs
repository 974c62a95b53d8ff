//! The flat-JSON wire format, once: journal lines, trace lines, corpus
//! index records, submit bodies and SSE frames are one-line JSON objects
//! written with [`escape`]/[`num`] and read back through one tokenizer,
//! [`members`]: a decoder that needs the whole line walks it once, and the
//! getters [`raw`], [`str`], [`u64`] and [`f64`] walk it up to their key.
//!
//! The walk goes over the object's top-level members in order, so `"sql":`
//! text inside a string value, or a key of a nested object, never shadows
//! the real member. Whitespace between tokens is tolerated; anything that
//! is not a `{`…`}` object (a truncated line included) reads as `None`.

use std::fmt::Write as _;

/// Append `s` to `out`, escaped for embedding in a JSON string literal.
pub fn escape_into(out: &mut String, s: &str) {
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
}

/// Escape a string for embedding in a JSON string literal.
pub fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    escape_into(&mut out, s);
    out
}

/// Decode a JSON string literal's body (the text between the quotes).
/// Strict: an unknown escape, a truncated `\u` sequence or an unpaired
/// surrogate is `None`, never passed through.
pub fn unescape(s: &str) -> Option<String> {
    let mut out = String::with_capacity(s.len());
    let mut rest = s;
    while let Some(at) = rest.find('\\') {
        out.push_str(&rest[..at]);
        let code = *rest.as_bytes().get(at + 1)?;
        rest = rest.get(at + 2..)?; // `None`: the escaped byte opens a multi-byte character
        out.push(match code {
            b'"' | b'\\' | b'/' => code as char,
            b'n' => '\n',
            b'r' => '\r',
            b't' => '\t',
            b'b' => '\u{8}',
            b'f' => '\u{c}',
            b'u' => {
                let mut unit = hex4(&mut rest)?;
                if (0xD800..0xDC00).contains(&unit) {
                    // A high surrogate must be followed by `\uDC00..=DFFF`.
                    rest = rest.strip_prefix("\\u")?;
                    let low = hex4(&mut rest)?
                        .checked_sub(0xDC00)
                        .filter(|l| *l < 0x400)?;
                    unit = 0x10000 + ((unit - 0xD800) << 10) + low;
                }
                char::from_u32(unit)?
            }
            _ => return None,
        });
    }
    out.push_str(rest);
    Some(out)
}

/// Take four hex digits off the front of `rest`.
fn hex4(rest: &mut &str) -> Option<u32> {
    // Checked digit by digit: `from_str_radix` alone also accepts a sign.
    let hex = rest
        .get(..4)
        .filter(|h| h.bytes().all(|b| b.is_ascii_hexdigit()))?;
    *rest = &rest[4..];
    u32::from_str_radix(hex, 16).ok()
}

/// A finite float as a JSON number; NaN/inf become `null` (JSON has no
/// representation for them).
pub fn num(x: f64) -> String {
    if x.is_finite() {
        format!("{x}")
    } else {
        "null".to_string()
    }
}

/// Length of the JSON value at the head of `s`: a string literal, a
/// balanced (string-aware) array or object, or a bare scalar running to
/// the next comma or (ASCII, as JSON's is) whitespace.
fn value_len(s: &str) -> Option<usize> {
    let bytes = s.as_bytes();
    if !matches!(bytes.first()?, b'"' | b'{' | b'[') {
        let end = |b: &u8| *b == b',' || b.is_ascii_whitespace();
        let len = bytes.iter().position(end).unwrap_or(s.len());
        return (len > 0).then_some(len);
    }
    // The head byte opens a string or a nesting level, so `depth` cannot
    // underflow: the scan returns the moment both are closed again.
    let (mut depth, mut in_string, mut i) = (0usize, false, 0);
    while i < bytes.len() {
        match bytes[i] {
            b'\\' if in_string => i += 1, // escapes exactly one following byte
            b'"' => in_string = !in_string,
            b'{' | b'[' if !in_string => depth += 1,
            b'}' | b']' if !in_string => depth -= 1,
            _ => {}
        }
        i += 1;
        if depth == 0 && !in_string {
            return Some(i);
        }
    }
    None
}

/// A member's value token as it stands in the line: a string with its
/// quotes, a number or literal, or a nested value verbatim.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Token<'a>(&'a str);

impl<'a> Token<'a> {
    /// The value text: a string as the escaped text between its quotes
    /// (pass through [`unescape`] to decode it), anything else verbatim.
    pub fn raw(self) -> &'a str {
        let quote = usize::from(self.0.starts_with('"'));
        &self.0[quote..self.0.len() - quote]
    }

    /// The string, decoded; `None` when not a string, or malformed.
    pub fn str(self) -> Option<String> {
        unescape(self.0.strip_prefix('"')?.strip_suffix('"')?)
    }

    /// The non-negative integer.
    pub fn u64(self) -> Option<u64> {
        self.0.parse().ok()
    }

    /// The float. `null` (how [`num`] writes NaN/inf) reads back as NaN;
    /// finite values round-trip exactly through `Display`.
    pub fn f64(self) -> Option<f64> {
        match self.0 {
            "null" => Some(f64::NAN),
            v => v.parse().ok(),
        }
    }
}

/// What [`members`] yields for a member it cannot read; the walk ends there.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Malformed;

/// The one tokenizer: the top-level members of a one-line JSON object, in
/// order, as `(key, value)` with the key as the escaped text between its
/// quotes. Nested values are skipped whole (string-aware) and whitespace
/// between tokens is tolerated. A text that is not a `{`…`}` object, a
/// torn line included, or a member that does not read yields one
/// [`Malformed`] and ends the walk.
pub fn members(obj: &str) -> impl Iterator<Item = Result<(&str, Token<'_>), Malformed>> {
    let inner = obj
        .trim_ascii()
        .strip_prefix('{')
        .and_then(|s| s.strip_suffix('}'));
    // The unread text between the braces; `None` once the walk has ended.
    let mut rest = Some(inner.ok_or(Malformed));
    let mut after_member = false;
    std::iter::from_fn(move || {
        let text = match rest.take()? {
            Ok(text) => text.trim_ascii_start(),
            Err(malformed) => return Some(Err(malformed)),
        };
        if text.is_empty() {
            return None;
        }
        let text = match after_member {
            true => text.strip_prefix(','),
            false => Some(text),
        };
        after_member = true;
        let Some((key, value, text)) = text.and_then(member) else {
            return Some(Err(Malformed));
        };
        rest = Some(Ok(text));
        Some(Ok((key, value)))
    })
}

/// One `"key": value` off the front of `s`, and the text behind it.
fn member(s: &str) -> Option<(&str, Token<'_>, &str)> {
    let s = s.trim_ascii_start();
    let key_len = value_len(s).filter(|_| s.starts_with('"'))?;
    let key = &s[1..key_len - 1];
    let s = s[key_len..].trim_ascii_start().strip_prefix(':')?;
    let s = s.trim_ascii_start();
    let len = value_len(s)?;
    Some((key, Token(&s[..len]), &s[len..]))
}

/// The value of the first top-level member `key`: a lazy find over
/// [`members`], so it stops at its key and a malformed member behind the
/// key does not hide it.
fn find<'a>(obj: &'a str, key: &str) -> Option<Token<'a>> {
    let (_, value) = members(obj)
        .map_while(Result::ok)
        .find(|(name, _)| *name == key)?;
    Some(value)
}

/// Raw value text of member `key` ([`Token::raw`]).
pub fn raw<'a>(obj: &'a str, key: &str) -> Option<&'a str> {
    find(obj, key).map(Token::raw)
}

/// String member `key`, decoded ([`Token::str`]).
pub fn str(obj: &str, key: &str) -> Option<String> {
    find(obj, key)?.str()
}

/// Non-negative integer member `key`.
pub fn u64(obj: &str, key: &str) -> Option<u64> {
    find(obj, key)?.u64()
}

/// Float member `key` ([`Token::f64`]).
pub fn f64(obj: &str, key: &str) -> Option<f64> {
    find(obj, key)?.f64()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn escape_handles_specials() {
        assert_eq!(escape("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
        assert_eq!(escape("\u{1}"), "\\u0001");
        // \b and \f are read in their short form but written as \u00XX, as
        // every writer always has: emitted bytes do not change.
        assert_eq!(escape("\u{8}\u{c}"), "\\u0008\\u000c");
        let mut out = String::from("x=");
        escape_into(&mut out, "a\tb");
        assert_eq!(out, "x=a\\tb");
    }

    #[test]
    fn escape_unescape_round_trips_control_chars_and_non_ascii() {
        let cases = [
            "plain",
            "quote\" backslash\\ newline\n tab\t cr\r",
            "\u{0}\u{1}\u{1f}",        // control chars → \u00XX
            "héllo wörld — ünïcode ✓", // non-ASCII passes through raw
            "emoji 🎯 and \u{7}bell",
            "trailing backslash in source \\",
            "line1\nline2\t\\end",
        ];
        for s in cases {
            let escaped = escape(s);
            assert_eq!(unescape(&escaped).as_deref(), Some(s), "escaped: {escaped}");
        }
    }

    #[test]
    fn unescape_decodes_every_json_escape_and_rejects_the_rest() {
        assert_eq!(unescape("\\u0041").as_deref(), Some("A"));
        assert_eq!(unescape("a\\/b").as_deref(), Some("a/b"));
        assert_eq!(unescape("\\b\\f").as_deref(), Some("\u{8}\u{c}"));
        assert_eq!(unescape("\\u00e9\\u65E5").as_deref(), Some("é日"));
        // Non-BMP text as `json.dumps` writes it: a surrogate pair.
        assert_eq!(unescape("\\ud83d\\ude00!").as_deref(), Some("😀!"));
        assert_eq!(unescape("\\uD83C\\uDFAF").as_deref(), Some("🎯"));
        // Strict: what the tolerant trace decoder used to pass through.
        for bad in [
            "\\u12",          // truncated \u
            "\\q",            // unknown escape
            "\\",             // lone trailing backslash
            "\\u+041",        // sign is not a hex digit
            "\\ud83d",        // high surrogate, nothing after
            "\\ud83dx",       // high surrogate, no \u after
            "\\ud83d\\u0041", // high surrogate, non-surrogate after
            "\\ude00",        // lone low surrogate
            "\\é",            // escaped multi-byte character
            "\\u00é",         // multi-byte character inside the digits
        ] {
            assert_eq!(unescape(bad), None, "{bad}");
        }
    }

    #[test]
    fn num_writes_non_finite_as_null() {
        assert_eq!(num(500.0), "500");
        assert_eq!(num(0.125), "0.125");
        assert_eq!(num(f64::NAN), "null");
        assert_eq!(num(f64::INFINITY), "null");
    }

    #[test]
    fn raw_handles_escaped_quotes_in_string_values() {
        let line = "{\"seq\":0,\"op_name\":\"a\\\"b\\\\\",\"rows\":7}";
        assert_eq!(raw(line, "op_name"), Some("a\\\"b\\\\"));
        assert_eq!(str(line, "op_name").as_deref(), Some("a\"b\\"));
        assert_eq!(raw(line, "rows"), Some("7"));
        assert_eq!(raw(line, "seq"), Some("0"));
        // An unterminated string or object yields None rather than garbage.
        assert_eq!(raw("{\"op_name\":\"oops", "op_name"), None);
        assert_eq!(raw("{\"op_name\":\"oops\"", "op_name"), None);
        assert_eq!(u64("{\"rows\":70", "rows"), None);
    }

    #[test]
    fn getters_read_journal_lines() {
        let line = "{\"op\":\"submit\",\"sql\":\"a \\\"b\\\" \\\\ c\",\"id\":7}";
        assert_eq!(str(line, "sql").unwrap(), "a \"b\" \\ c");
        assert_eq!(u64(line, "id"), Some(7));
        assert_eq!(str(line, "missing"), None);
    }

    #[test]
    fn getters_handle_escapes_embedded_keys_and_whitespace() {
        let body = "{\"tenant\":\"acme\",\"sql\":\"select \\\"x\\\" from t where s='\\\"sql\\\": 1'\",\"deadline_ms\":2500}";
        assert_eq!(str(body, "tenant").unwrap(), "acme");
        assert_eq!(
            str(body, "sql").unwrap(),
            "select \"x\" from t where s='\"sql\": 1'"
        );
        assert_eq!(u64(body, "deadline_ms"), Some(2500));
        assert_eq!(str(body, "label"), None);
        assert_eq!(u64(body, "sql"), None);
        assert_eq!(str(body, "deadline_ms"), None);
        // a key-looking token inside a string value is not a field
        let tricky = "{\"sql\":\"x \\\"label\\\": y\"}";
        assert_eq!(str(tricky, "label"), None);
        // … not even one the old boundary check (`,` before, `:` after) let
        // through, and it does not shadow the real member behind it
        let shadow = "{\"label\":\"a,\\\"id\\\":9,\",\"id\":4}";
        assert_eq!(u64(shadow, "id"), Some(4));
        // whitespace-tolerant
        let spaced = " { \"sql\" : \"select 1\" , \"tenant\" : \"t\" , \"n\" : 3 } \n";
        assert_eq!(str(spaced, "sql").unwrap(), "select 1");
        assert_eq!(str(spaced, "tenant").unwrap(), "t");
        assert_eq!(u64(spaced, "n"), Some(3));
    }

    #[test]
    fn members_split_a_line_once_and_stop_at_the_first_fault() {
        let walk = |obj| members(obj).collect::<Vec<_>>();
        let spaced = " { \"a\" : 1 , \"s\" : \"x,\\\"y\" , \"n\":[{\"a\":2}] , \"a\":3 } ";
        let split = walk(spaced);
        let keys: Vec<&str> = split.iter().map(|m| m.unwrap().0).collect();
        assert_eq!(keys, ["a", "s", "n", "a"]);
        assert_eq!(split[1].unwrap().1.str().as_deref(), Some("x,\"y"));
        assert_eq!(split[2].unwrap().1.raw(), "[{\"a\":2}]");
        // A duplicate key: the getters keep the first value.
        assert_eq!(u64(spaced, "a"), Some(1));
        assert!(walk("{}").is_empty() && walk(" { } ").is_empty());
        for bad in ["", "[1]", "{\"a\":1", "{,}", "{\"a\"}", "{\"a\":}", "{a:1}"] {
            assert_eq!(walk(bad), [Err(Malformed)], "{bad}");
        }
        // A fault ends the walk where it stands; getters before it still read.
        for bad in ["{\"a\":1,}", "{\"a\":1 \"b\":2}", "{\"a\":1,\"b\"}"] {
            assert_eq!(walk(bad).last(), Some(&Err(Malformed)), "{bad}");
            assert_eq!(u64(bad, "a"), Some(1), "{bad}");
            assert_eq!(raw(bad, "b"), None, "{bad}");
        }
    }

    #[test]
    fn getters_see_top_level_members_only() {
        let doc =
            "{\"id\":3,\"ops\":[{\"name\":\"j}\",\"lo\":1},{\"lo\":2}],\"lo\":0.5,\"eta_us\":null}";
        assert_eq!(f64(doc, "lo"), Some(0.5));
        assert_eq!(raw(doc, "name"), None);
        assert_eq!(
            raw(doc, "ops"),
            Some("[{\"name\":\"j}\",\"lo\":1},{\"lo\":2}]")
        );
        assert!(f64(doc, "eta_us").unwrap().is_nan());
        assert_eq!(u64(doc, "eta_us"), None);
        assert_eq!(u64(doc, "lo"), None);
        assert_eq!(raw("{}", "id"), None);
        assert_eq!(raw("[1,2]", "id"), None);
        assert_eq!(raw("{\"id\":}", "id"), None);
    }
}
