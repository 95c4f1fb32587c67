//! Source masking: the lexical pre-pass every rule runs on.
//!
//! The rules are substring/token scans, so anything that could make a
//! pattern appear where no code is — comments, string/char literals and
//! `#[cfg(test)]` regions — is blanked out first. The mask is
//! *length-preserving*: every masked byte becomes a space (newlines are
//! kept), so byte offsets, line numbers and columns in the masked text
//! map 1:1 onto the original source.

/// Replaces comments and string/char literals with spaces.
///
/// Handles line comments, nested block comments, plain and raw (byte)
/// strings, char literals, and distinguishes lifetimes (`'a`) from char
/// literals (`'a'`) the way rustc's lexer does: a quote opens a char
/// literal only if it closes as one.
#[must_use]
pub fn mask_source(src: &str) -> String {
    let bytes = src.as_bytes();
    let mut out = bytes.to_vec();
    let mut i = 0;
    while i < bytes.len() {
        match bytes[i] {
            b'/' if bytes.get(i + 1) == Some(&b'/') => {
                while i < bytes.len() && bytes[i] != b'\n' {
                    out[i] = b' ';
                    i += 1;
                }
            }
            b'/' if bytes.get(i + 1) == Some(&b'*') => {
                let mut depth = 0usize;
                while i < bytes.len() {
                    if bytes[i] == b'/' && bytes.get(i + 1) == Some(&b'*') {
                        depth += 1;
                        out[i] = b' ';
                        out[i + 1] = b' ';
                        i += 2;
                    } else if bytes[i] == b'*' && bytes.get(i + 1) == Some(&b'/') {
                        depth -= 1;
                        out[i] = b' ';
                        out[i + 1] = b' ';
                        i += 2;
                        if depth == 0 {
                            break;
                        }
                    } else {
                        if bytes[i] != b'\n' {
                            out[i] = b' ';
                        }
                        i += 1;
                    }
                }
            }
            b'"' => i = mask_string(bytes, &mut out, i),
            b'r' | b'b' if !prev_is_ident(bytes, i) => {
                if let Some(next) = raw_or_byte_string_end(bytes, i) {
                    blank(&mut out, i, next);
                    i = next;
                } else {
                    i += 1;
                }
            }
            b'\'' => {
                if let Some(end) = char_literal_end(bytes, i) {
                    blank(&mut out, i, end);
                    i = end;
                } else {
                    // A lifetime: skip the quote and its identifier.
                    i += 1;
                    while i < bytes.len() && is_ident(bytes[i]) {
                        i += 1;
                    }
                }
            }
            _ => i += 1,
        }
    }
    // The mask only rewrites ASCII bytes in place, so it stays valid UTF-8
    // everywhere except inside literals — where every byte became a space.
    String::from_utf8(out).unwrap_or_default()
}

/// Blanks `#[cfg(test)]` items (in this codebase: the test modules) from an
/// already-masked source, so "non-test code" rules skip them. The
/// attribute, any attributes after it, and the braced body of the item
/// that follows are all blanked.
#[must_use]
pub fn strip_test_regions(masked: &str) -> String {
    let mut out = masked.as_bytes().to_vec();
    let bytes = masked.as_bytes();
    let mut from = 0;
    while let Some(pos) = find(bytes, CFG_TEST, from) {
        let i = test_item_start(bytes, pos);
        // Blank through the item's braced body (or to `;` for a
        // body-less declaration).
        let mut end = i;
        let mut depth = 0usize;
        while end < bytes.len() {
            match bytes[end] {
                b'{' => depth += 1,
                b'}' => {
                    if depth == 0 {
                        break; // Malformed input: stop before underflow.
                    }
                    depth -= 1;
                    if depth == 0 {
                        end += 1;
                        break;
                    }
                }
                b';' if depth == 0 => {
                    end += 1;
                    break;
                }
                _ => {}
            }
            end += 1;
        }
        blank(&mut out, pos, end);
        from = end.max(pos + 1);
    }
    String::from_utf8(out).unwrap_or_default()
}

/// Blanks every byte of `masked` but its newlines: the mask of a file that
/// is test code throughout.
#[must_use]
pub fn blank_all(masked: &str) -> String {
    let mut out = masked.as_bytes().to_vec();
    blank(&mut out, 0, masked.len());
    String::from_utf8(out).unwrap_or_default()
}

/// Names of the `#[cfg(test)] mod name;` declarations in a masked source:
/// test modules kept in a file of their own, which
/// [`strip_test_regions`] cannot see into.
#[must_use]
pub fn out_of_line_test_modules(masked: &str) -> Vec<&str> {
    let bytes = masked.as_bytes();
    let mut names = Vec::new();
    let mut from = 0;
    while let Some(pos) = find(bytes, CFG_TEST, from) {
        from = pos + CFG_TEST.len();
        let item = &masked[test_item_start(bytes, pos)..];
        let item = ["pub(crate)", "pub"]
            .iter()
            .find_map(|vis| item.strip_prefix(vis))
            .unwrap_or(item)
            .trim_start();
        let Some(rest) = item.strip_prefix("mod") else {
            continue;
        };
        if !rest.starts_with(|c: char| c.is_ascii_whitespace()) {
            continue;
        }
        let name = rest.trim_start();
        let len = name.bytes().take_while(|&b| is_ident(b)).count();
        if len > 0 && name[len..].trim_start().starts_with(';') {
            names.push(&name[..len]);
        }
    }
    names
}

const CFG_TEST: &[u8] = b"#[cfg(test)]";

/// Start of the item a `#[cfg(test)]` at `pos` annotates: past the
/// attribute, whitespace and any further attributes.
fn test_item_start(bytes: &[u8], pos: usize) -> usize {
    let mut i = pos + CFG_TEST.len();
    loop {
        while i < bytes.len() && bytes[i].is_ascii_whitespace() {
            i += 1;
        }
        if bytes.get(i) == Some(&b'#') && bytes.get(i + 1) == Some(&b'[') {
            while i < bytes.len() && bytes[i] != b']' {
                i += 1;
            }
            i += 1;
        } else {
            return i.min(bytes.len());
        }
    }
}

fn blank(out: &mut [u8], from: usize, to: usize) {
    for b in out.iter_mut().take(to).skip(from) {
        if *b != b'\n' {
            *b = b' ';
        }
    }
}

fn is_ident(b: u8) -> bool {
    b.is_ascii_alphanumeric() || b == b'_'
}

fn prev_is_ident(bytes: &[u8], i: usize) -> bool {
    i > 0 && is_ident(bytes[i - 1])
}

fn find(haystack: &[u8], needle: &[u8], from: usize) -> Option<usize> {
    if from >= haystack.len() {
        return None;
    }
    haystack[from..]
        .windows(needle.len())
        .position(|w| w == needle)
        .map(|p| p + from)
}

/// End (exclusive) of a plain string literal starting at `i` (masking as
/// it goes). Returns the index after the closing quote.
fn mask_string(bytes: &[u8], out: &mut [u8], start: usize) -> usize {
    let mut i = start;
    out[i] = b' ';
    i += 1;
    while i < bytes.len() {
        match bytes[i] {
            b'\\' => {
                out[i] = b' ';
                if i + 1 < bytes.len() && bytes[i + 1] != b'\n' {
                    out[i + 1] = b' ';
                }
                i += 2;
            }
            b'"' => {
                out[i] = b' ';
                return i + 1;
            }
            b'\n' => i += 1,
            _ => {
                out[i] = b' ';
                i += 1;
            }
        }
    }
    i
}

/// If `i` starts a raw/byte string (`r"…"`, `r#"…"#`, `b"…"`, `br#"…"#`),
/// returns the index just past its closing delimiter.
fn raw_or_byte_string_end(bytes: &[u8], start: usize) -> Option<usize> {
    let mut i = start;
    let mut raw = false;
    if bytes[i] == b'b' {
        i += 1;
    }
    if bytes.get(i) == Some(&b'r') {
        raw = true;
        i += 1;
    }
    let mut hashes = 0usize;
    while raw && bytes.get(i) == Some(&b'#') {
        hashes += 1;
        i += 1;
    }
    if bytes.get(i) != Some(&b'"') {
        return None;
    }
    i += 1;
    if !raw {
        // A byte string: plain string escape rules.
        while i < bytes.len() {
            match bytes[i] {
                b'\\' => i += 2,
                b'"' => return Some(i + 1),
                _ => i += 1,
            }
        }
        return Some(i);
    }
    // A raw string: ends at `"` followed by the right number of `#`s.
    while i < bytes.len() {
        if bytes[i] == b'"'
            && bytes[i + 1..]
                .iter()
                .take(hashes)
                .filter(|&&b| b == b'#')
                .count()
                == hashes
        {
            return Some(i + 1 + hashes);
        }
        i += 1;
    }
    Some(i)
}

/// If the quote at `i` opens a char literal, returns the index after its
/// closing quote; `None` means it is a lifetime.
fn char_literal_end(bytes: &[u8], start: usize) -> Option<usize> {
    let mut i = start + 1;
    if i >= bytes.len() {
        return None;
    }
    if bytes[i] == b'\\' {
        // Escape: scan to the closing quote (handles \n, \u{…}, \x7f).
        i += 2;
        while i < bytes.len() && bytes[i] != b'\'' && bytes[i] != b'\n' {
            i += 1;
        }
        return (bytes.get(i) == Some(&b'\'')).then_some(i + 1);
    }
    // One character (possibly multi-byte) followed by a closing quote.
    let width = utf8_width(bytes[i]);
    let close = i + width;
    (bytes.get(close) == Some(&b'\'') && bytes[i] != b'\'').then_some(close + 1)
}

fn utf8_width(first: u8) -> usize {
    match first {
        b if b < 0x80 => 1,
        b if b >= 0xF0 => 4,
        b if b >= 0xE0 => 3,
        _ => 2,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn masks_comments_and_strings() {
        let src = "let x = \"HashMap\"; // HashMap\nlet y = 1; /* HashMap */";
        let masked = mask_source(src);
        assert!(!masked.contains("HashMap"));
        assert!(masked.contains("let x ="));
        assert!(masked.contains("let y = 1;"));
        assert_eq!(masked.len(), src.len());
    }

    #[test]
    fn masks_nested_block_comments_and_raw_strings() {
        let src = "/* outer /* HashMap */ still */ let s = r#\"HashSet\"#;";
        let masked = mask_source(src);
        assert!(!masked.contains("HashMap"));
        assert!(!masked.contains("HashSet"));
        assert!(masked.contains("let s ="));
    }

    #[test]
    fn lifetimes_survive_but_char_literals_are_masked() {
        let src = "fn f<'a>(x: &'a str) -> char { 'x' }";
        let masked = mask_source(src);
        assert!(masked.contains("<'a>"));
        assert!(masked.contains("&'a str"));
        assert!(!masked.contains("'x'"));
    }

    #[test]
    fn escaped_quotes_do_not_end_strings() {
        let src = "let s = \"a\\\"HashMap\\\"b\"; HashSet";
        let masked = mask_source(src);
        assert!(!masked.contains("HashMap"));
        assert!(masked.contains("HashSet"));
    }

    #[test]
    fn test_modules_are_stripped() {
        let src =
            "fn live() { unwrap_me(); }\n#[cfg(test)]\nmod tests {\n    fn t() { x.unwrap() }\n}\n";
        let stripped = strip_test_regions(&mask_source(src));
        assert!(stripped.contains("unwrap_me"));
        assert!(!stripped.contains(".unwrap()"));
    }

    #[test]
    fn out_of_line_test_modules_are_named() {
        let src = "#[cfg(test)]\nmod tests;\n#[cfg(test)]\n#[allow(dead_code)]\npub(crate) mod \
                   helpers ;\n#[cfg(test)]\nmod inline {}\nmod plain;\n#[cfg(test)]\nfn modx() {}\n";
        assert_eq!(
            out_of_line_test_modules(&mask_source(src)),
            ["tests", "helpers"]
        );
    }

    #[test]
    fn newlines_survive_masking_for_line_numbers() {
        let src = "a\n/* b\nc */\nd\n";
        let masked = mask_source(src);
        assert_eq!(masked.matches('\n').count(), src.matches('\n').count());
    }
}
