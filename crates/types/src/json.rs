//! The workspace's one JSON string codec and flat-object field reader.
//!
//! Every JSON document the workspace writes by hand (trace JSONL, the
//! service journal, the corpus index, monitor responses) escapes strings
//! with [`escape`]; every one it reads back locates values with
//! [`raw_field`] and decodes strings with [`unescape`]. There is no serde:
//! the shapes are small, flat and fixed.

/// Escape `s` for embedding in a JSON string literal: quotes, backslashes
/// and control characters are escaped, everything else passes through.
pub fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// Decode the body of a JSON string literal (the text between the quotes).
///
/// Every RFC 8259 escape is decoded, including UTF-16 surrogate pairs.
/// Returns `None` for an unknown escape, bad or truncated hex, a lone
/// surrogate, or a trailing backslash, so outside input is checked rather
/// than guessed at.
pub fn unescape(s: &str) -> Option<String> {
    let mut out = String::with_capacity(s.len());
    let mut chars = s.chars();
    while let Some(c) = chars.next() {
        if c != '\\' {
            out.push(c);
            continue;
        }
        out.push(match chars.next()? {
            '"' => '"',
            '\\' => '\\',
            '/' => '/',
            'b' => '\u{8}',
            'f' => '\u{c}',
            'n' => '\n',
            'r' => '\r',
            't' => '\t',
            'u' => match hex4(&mut chars)? {
                hi @ 0xD800..=0xDBFF => {
                    if chars.next()? != '\\' || chars.next()? != 'u' {
                        return None;
                    }
                    let lo = hex4(&mut chars)?;
                    if !(0xDC00..=0xDFFF).contains(&lo) {
                        return None;
                    }
                    char::from_u32(0x10000 + ((hi - 0xD800) << 10) + (lo - 0xDC00))?
                }
                code => char::from_u32(code)?,
            },
            _ => return None,
        });
    }
    Some(out)
}

/// The four hex digits of a `\u` escape.
fn hex4(chars: &mut std::str::Chars<'_>) -> Option<u32> {
    (0..4).try_fold(0, |acc, _| Some(acc * 16 + chars.next()?.to_digit(16)?))
}

/// Where field `key`'s value sits in the flat JSON object `obj`: the raw
/// value text, and whether it was a string. A key counts only at a
/// structural boundary (after `{` or `,`), so key-like text inside a string
/// value is never mistaken for a field; whitespace around `:` is allowed.
fn locate<'a>(obj: &'a str, key: &str) -> Option<(&'a str, bool)> {
    for (at, _) in obj.match_indices(key) {
        let (before, after) = (&obj[..at], &obj[at + key.len()..]);
        let Some(before) = before.strip_suffix('"') else {
            continue;
        };
        let Some(after) = after.strip_prefix('"') else {
            continue;
        };
        if !matches!(before.trim_end().chars().last(), Some('{' | ',')) {
            continue;
        }
        let Some(value) = after.trim_start().strip_prefix(':') else {
            continue;
        };
        let value = value.trim_start();
        if let Some(body) = value.strip_prefix('"') {
            // A backslash always escapes exactly one following character.
            let bytes = body.as_bytes();
            let mut i = 0;
            while i < bytes.len() {
                match bytes[i] {
                    b'\\' => i += 2,
                    b'"' => return Some((&body[..i], true)),
                    _ => i += 1,
                }
            }
            return None;
        }
        let end = value.find([',', '}']).unwrap_or(value.len());
        return Some((value[..end].trim_end(), false));
    }
    None
}

/// The raw text of field `key` in the flat JSON object `obj`: a string
/// value's escaped body (pass it to [`unescape`]), or any other value's
/// literal text (`7`, `null`, `true`). `None` when the key is absent or
/// its string value is unterminated.
pub fn raw_field<'a>(obj: &'a str, key: &str) -> Option<&'a str> {
    locate(obj, key).map(|(raw, _)| raw)
}

/// String field `key` of the flat JSON object `obj`, decoded. `None` when
/// the field is absent, is not a string, or does not [`unescape`].
pub fn str_field(obj: &str, key: &str) -> Option<String> {
    match locate(obj, key)? {
        (raw, true) => unescape(raw),
        (_, false) => None,
    }
}

/// Non-negative integer field `key` of the flat JSON object `obj`.
pub fn u64_field(obj: &str, key: &str) -> Option<u64> {
    match locate(obj, key)? {
        (raw, false) => raw.parse().ok(),
        (_, true) => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn escape_handles_specials() {
        assert_eq!(escape("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
        assert_eq!(escape("\u{1}"), "\\u0001");
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
        ];
        for s in cases {
            let escaped = escape(s);
            assert_eq!(unescape(&escaped).as_deref(), Some(s), "escaped: {escaped}");
        }
        assert_eq!(unescape("\\u0041").as_deref(), Some("A"));
    }

    #[test]
    fn unescape_decodes_every_rfc8259_escape() {
        assert_eq!(
            unescape("\\\"\\\\\\/\\b\\f\\n\\r\\t").as_deref(),
            Some("\"\\/\u{8}\u{c}\n\r\t")
        );
        assert_eq!(unescape("\\u00e9\\u00E9").as_deref(), Some("éé"));
        assert_eq!(unescape("x\\ud83d\\ude00y").as_deref(), Some("x😀y"));
        assert_eq!(unescape("\\uD834\\uDD1E").as_deref(), Some("𝄞"));
    }

    #[test]
    fn unescape_refuses_malformed_escapes() {
        for bad in [
            "\\q",            // unknown escape
            "\\",             // trailing backslash
            "\\u12",          // truncated hex
            "\\u12g4",        // bad hex
            "\\ud83d",        // lone high surrogate
            "\\ud83dx",       // high surrogate not followed by an escape
            "\\ud83d\\n",     // high surrogate followed by another escape
            "\\ud83d\\u0041", // high surrogate followed by a non-surrogate
            "\\ude00",        // lone low surrogate
        ] {
            assert_eq!(unescape(bad), None, "{bad:?}");
        }
    }

    #[test]
    fn raw_field_reads_flat_objects() {
        let line = "{\"seq\":7,\"event\":\"estimate_refined\",\"old\":null,\"new\":500}";
        assert_eq!(raw_field(line, "seq"), Some("7"));
        assert_eq!(raw_field(line, "event"), Some("estimate_refined"));
        assert_eq!(raw_field(line, "old"), Some("null"));
        assert_eq!(raw_field(line, "new"), Some("500"));
        assert_eq!(raw_field(line, "missing"), None);
        // A key that also appears as a value is found at its key position.
        let line = "{\"op\":\"sql\",\"sql\":\"select 1\"}";
        assert_eq!(raw_field(line, "sql"), Some("select 1"));
    }

    #[test]
    fn raw_field_handles_escaped_quotes_in_string_values() {
        let line = "{\"seq\":0,\"op_name\":\"a\\\"b\\\\\",\"rows\":7}";
        assert_eq!(raw_field(line, "op_name"), Some("a\\\"b\\\\"));
        assert_eq!(str_field(line, "op_name").as_deref(), Some("a\"b\\"));
        assert_eq!(raw_field(line, "rows"), Some("7"));
        // An unterminated string yields None rather than garbage.
        assert_eq!(raw_field("{\"op_name\":\"oops", "op_name"), None);
        let line = "{\"op\":\"submit\",\"sql\":\"a \\\"b\\\" \\\\ c\",\"id\":7}";
        assert_eq!(str_field(line, "sql").unwrap(), "a \"b\" \\ c");
        assert_eq!(u64_field(line, "id"), Some(7));
        assert_eq!(str_field(line, "missing"), None);
    }

    #[test]
    fn body_fields_handle_escapes_and_embedded_keys() {
        let body = "{\"tenant\":\"acme\",\"sql\":\"select \\\"x\\\" from t where s='\\\"sql\\\": 1'\",\"deadline_ms\":2500}";
        assert_eq!(str_field(body, "tenant").unwrap(), "acme");
        assert_eq!(
            str_field(body, "sql").unwrap(),
            "select \"x\" from t where s='\"sql\": 1'"
        );
        assert_eq!(u64_field(body, "deadline_ms"), Some(2500));
        assert_eq!(str_field(body, "label"), None);
        assert_eq!(u64_field(body, "sql"), None);
        // a key-looking token inside a string value is not a field
        let tricky = "{\"sql\":\"x \\\"label\\\": y\"}";
        assert_eq!(str_field(tricky, "label"), None);
        // whitespace-tolerant
        let spaced = "{ \"sql\" : \"select 1\" , \"tenant\" : \"t\" }";
        assert_eq!(str_field(spaced, "sql").unwrap(), "select 1");
        assert_eq!(str_field(spaced, "tenant").unwrap(), "t");
    }

    #[test]
    fn typed_fields_check_the_value_kind() {
        let body = "{\"sql\":5,\"id\":\"7\",\"n\":12}";
        assert_eq!(str_field(body, "sql"), None, "a number is not a string");
        assert_eq!(u64_field(body, "id"), None, "a string is not a number");
        assert_eq!(u64_field(body, "n"), Some(12));
        // A string field that does not decode is refused, not guessed.
        assert_eq!(str_field("{\"sql\":\"bad \\q\"}", "sql"), None);
        assert_eq!(
            str_field("{\"sql\":\"\\f \\ud83d\\ude00\"}", "sql").as_deref(),
            Some("\u{c} 😀")
        );
    }
}
