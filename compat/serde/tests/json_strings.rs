//! String coding in the JSON document model: megabyte strings of mixed
//! UTF-8 and escapes round-trip in linear time, the encoder's output is
//! the char-by-char reference encoding, and string errors keep their
//! messages and byte offsets.

use serde::json::{parse, Value};

/// One piece of every kind of content a string can hold: ASCII, 2-, 3-
/// and 4-byte UTF-8, every short escape, every other control character,
/// and the solidus (which decodes from `\/` but is written bare).
fn mixed_piece() -> String {
    let mut piece = String::from("plain ascii é © € 中 😀 𝄞 \" \\ / \n \r \t \u{8} \u{c} ");
    piece.extend((0u8..0x20).map(char::from));
    piece.push('\u{7f}');
    piece
}

fn repeated_to_mib(piece: &str) -> String {
    piece.repeat((1 << 20) / piece.len() + 1)
}

fn to_string(value: &Value) -> String {
    let mut out = String::new();
    value.write_compact(&mut out);
    out
}

/// The reference encoding, one char at a time.
fn reference_escape(s: &str) -> String {
    let mut out = String::from("\"");
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
    out.push('"');
    out
}

#[test]
fn mebibyte_mixed_strings_round_trip() {
    let text = repeated_to_mib(&mixed_piece());
    assert!(text.len() >= 1 << 20);
    let value = Value::String(text.clone());
    let encoded = to_string(&value);
    assert_eq!(encoded, reference_escape(&text), "encoder bytes changed");
    assert_eq!(parse(&encoded).unwrap(), value);

    // The same string as an object key and inside an array.
    let doc = format!("{{{encoded}:[{encoded},1]}}");
    let parsed = parse(&doc).unwrap();
    let object = parsed.as_object().unwrap();
    let (key, items) = object.single_entry().unwrap();
    assert_eq!(key, text);
    assert_eq!(items.as_array().unwrap()[0].as_str(), Some(text.as_str()));
    assert_eq!(to_string(&parsed), doc);
}

#[test]
fn mebibyte_escape_heavy_input_decodes() {
    // Every escape the decoder accepts, including `\/`, `\b`, `\f`,
    // upper- and lower-case `\u` digits and surrogate pairs, between runs
    // of multi-byte UTF-8.
    let json_piece = r#"é€😀\"\\\/\b\f\n\r\t\u0000\u001F\u00e9\u20AC\ud83d\ude00\uD834\uDD1E中"#;
    let decoded_piece = "é€😀\"\\/\u{8}\u{c}\n\r\t\u{0}\u{1f}é€😀𝄞中";
    let reps = (1 << 20) / json_piece.len() + 1;
    let doc = format!("\"{}\"", json_piece.repeat(reps));
    assert!(doc.len() >= 1 << 20);
    let parsed = parse(&doc).unwrap();
    assert_eq!(parsed.as_str(), Some(decoded_piece.repeat(reps).as_str()));
}

#[test]
fn short_strings_encode_like_the_reference() {
    for s in [
        "",
        "a",
        "\"",
        "\\",
        "\u{0}",
        "é",
        "😀\n",
        "x\u{1f}y",
        "ab\"cd\\ef",
    ] {
        assert_eq!(
            to_string(&Value::String(s.to_string())),
            reference_escape(s)
        );
    }
}

#[test]
fn string_errors_keep_their_messages_and_offsets() {
    let cases = [
        ("\"abc", "unterminated string at byte 4"),
        ("\"é€😀", "unterminated string at byte 10"),
        ("\"", "unterminated string at byte 1"),
        ("{\"key", "unterminated string at byte 5"),
        ("[\"a\\\"", "unterminated string at byte 5"),
        ("\"ab\\q\"", "invalid escape at byte 4"),
        ("\"é\\x\"", "invalid escape at byte 4"),
        ("\"ab\\", "invalid escape at byte 4"),
        ("\"\\u12\"", "expected 4 hex digits at byte 5"),
        ("\"\\ud83d\"", "unpaired surrogate at byte 7"),
        ("\"\\ud83d\\u0041\"", "invalid low surrogate at byte 13"),
        ("\"\\udc00\"", "invalid \\u escape at byte 7"),
    ];
    for (doc, message) in cases {
        let err = parse(doc).unwrap_err();
        assert_eq!(err.to_string(), message, "document {doc:?}");
    }
}
