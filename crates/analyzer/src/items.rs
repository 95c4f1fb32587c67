//! Lightweight item extraction on top of the masked lexer.
//!
//! The v2 graph passes (PURE/PANIC/LAYER) need to know *which function*
//! a pattern occurs in and *who calls whom* — per-file substring scans
//! cannot answer either. This module parses the masked, test-stripped
//! source (see [`crate::mask`]) into a flat list of items:
//!
//! * `fn` items, with their enclosing `impl`/`trait` owner type, module
//!   path, visibility, and exact body byte-span;
//! * `use` declarations (raw path text, for the purity rules);
//! * inline and file `mod` declarations (for the module graph).
//!
//! Masked input makes the parser robust by construction: braces, quotes
//! and item keywords inside comments, strings and `#[cfg(test)]` regions
//! were already blanked, so brace matching and keyword scans cannot be
//! fooled by literals. The parser is intentionally approximate where the
//! rules do not need precision (e.g. generic bounds are skipped, not
//! modeled) but exact where they do (body spans, owner types, names).

/// One parsed `fn` item.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FnItem {
    /// The function's name.
    pub name: String,
    /// Enclosing `impl` type or `trait` name, if any.
    pub owner: Option<String>,
    /// Module path inside the file (inline `mod` nesting), outermost first.
    pub module: Vec<String>,
    /// Whether the declaration carries any `pub` qualifier.
    pub is_pub: bool,
    /// Byte offset of the `fn` keyword in the (masked) source.
    pub offset: usize,
    /// Byte span of the body including braces; `None` for a bodiless
    /// trait-method declaration.
    pub body: Option<(usize, usize)>,
}

/// One `use` declaration, with whitespace collapsed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct UseDecl {
    /// Byte offset of the `use` keyword.
    pub offset: usize,
    /// The path text between `use` and `;`, single-spaced.
    pub path: String,
}

/// Everything extracted from one file.
#[derive(Debug, Clone, Default)]
pub struct FileItems {
    /// Functions, in source order.
    pub fns: Vec<FnItem>,
    /// `use` declarations, in source order.
    pub uses: Vec<UseDecl>,
    /// Names declared by `mod name;` (file modules).
    pub file_mods: Vec<String>,
}

#[derive(Debug)]
enum Scope {
    Mod(String),
    Impl(String),
    Trait(String),
    /// Index into `FileItems::fns` whose body this scope is.
    Fn(usize),
    Other,
}

fn is_ident(b: u8) -> bool {
    b.is_ascii_alphanumeric() || b == b'_'
}

/// Parses `masked` (output of `mask_source` + `strip_test_regions`).
#[must_use]
pub fn parse_items(masked: &str) -> FileItems {
    let bytes = masked.as_bytes();
    let mut out = FileItems::default();
    let mut scopes: Vec<Scope> = Vec::new();
    let mut pending: Option<Scope> = None;
    // `pub` seen since the last item boundary (`;`, `{`, `}`).
    let mut saw_pub = false;
    // `[...]` nesting, so the `;` inside `-> [u8; 4]` or `[0u8; N]` is
    // not mistaken for an item boundary.
    let mut square = 0i32;
    let mut i = 0;
    while i < bytes.len() {
        let b = bytes[i];
        if is_ident(b) && (i == 0 || !is_ident(bytes[i - 1])) {
            let start = i;
            while i < bytes.len() && is_ident(bytes[i]) {
                i += 1;
            }
            match &masked[start..i] {
                "pub" => saw_pub = true,
                "mod" => {
                    if let Some((name, after)) = read_ident(bytes, masked, i) {
                        // `mod name {` opens an inline module; `mod name;`
                        // declares a file module.
                        match next_significant(bytes, after) {
                            Some((b'{', _)) => pending = Some(Scope::Mod(name)),
                            Some((b';', _)) => out.file_mods.push(name),
                            _ => {}
                        }
                        i = after;
                    }
                }
                "impl" if opens_impl_block(masked, start) => {
                    let brace = find_byte_at_depth0(bytes, i, b'{').unwrap_or(bytes.len());
                    pending = Some(Scope::Impl(impl_type_name(&masked[i..brace])));
                    i = brace;
                }
                "trait" => {
                    if let Some((name, after)) = read_ident(bytes, masked, i) {
                        pending = Some(Scope::Trait(name));
                        i = after;
                    }
                }
                "fn" => {
                    if let Some((name, after)) = read_ident(bytes, masked, i) {
                        let owner = scopes.iter().rev().find_map(|s| match s {
                            Scope::Impl(t) | Scope::Trait(t) => Some(t.clone()),
                            _ => None,
                        });
                        let module = scopes
                            .iter()
                            .filter_map(|s| match s {
                                Scope::Mod(m) => Some(m.clone()),
                                _ => None,
                            })
                            .collect();
                        out.fns.push(FnItem {
                            name,
                            owner,
                            module,
                            is_pub: saw_pub,
                            offset: start,
                            body: None,
                        });
                        pending = Some(Scope::Fn(out.fns.len() - 1));
                        i = after;
                    }
                    // `fn(` with no name is a fn-pointer type: ignore.
                }
                "use" => {
                    let end = find_byte_at_depth0(bytes, i, b';').unwrap_or(bytes.len());
                    let path: String = masked[i..end]
                        .split_whitespace()
                        .collect::<Vec<_>>()
                        .join(" ");
                    out.uses.push(UseDecl {
                        offset: start,
                        path,
                    });
                    i = end;
                }
                _ => {}
            }
            continue;
        }
        match b {
            b'{' => {
                let scope = pending.take().unwrap_or(Scope::Other);
                if let Scope::Fn(idx) = scope {
                    out.fns[idx].body = Some((i, i)); // end patched on pop
                }
                scopes.push(scope);
                saw_pub = false;
            }
            b'}' => {
                if let Some(Scope::Fn(idx)) = scopes.pop() {
                    if let Some((open, _)) = out.fns[idx].body {
                        out.fns[idx].body = Some((open, i + 1));
                    }
                }
                saw_pub = false;
            }
            b';' if square == 0 => {
                // A bodiless `fn` declaration (trait method) ends here.
                pending = None;
                saw_pub = false;
            }
            b'[' => square += 1,
            b']' => square = (square - 1).max(0),
            _ => {}
        }
        i += 1;
    }
    out
}

/// Whether the `impl` at `at` opens an impl block rather than naming an
/// `impl Trait` argument or return type: a block header starts an item,
/// so only an item boundary (`{`, `}`, `;`, an attribute's `]`, the file
/// start) or `unsafe` precedes it.
fn opens_impl_block(masked: &str, at: usize) -> bool {
    let before = masked[..at].trim_end();
    before.is_empty()
        || before.ends_with(['{', '}', ';', ']'])
        || before
            .strip_suffix("unsafe")
            .is_some_and(|b| !b.bytes().last().is_some_and(is_ident))
}

/// Reads the next identifier after `from`, skipping whitespace. Returns
/// `(name, index_after)`.
fn read_ident(bytes: &[u8], masked: &str, from: usize) -> Option<(String, usize)> {
    let mut i = from;
    while i < bytes.len() && bytes[i].is_ascii_whitespace() {
        i += 1;
    }
    let start = i;
    while i < bytes.len() && is_ident(bytes[i]) {
        i += 1;
    }
    (i > start).then(|| (masked[start..i].to_string(), i))
}

/// The next non-whitespace byte at or after `from`, with its index.
fn next_significant(bytes: &[u8], from: usize) -> Option<(u8, usize)> {
    let mut i = from;
    while i < bytes.len() {
        if !bytes[i].is_ascii_whitespace() {
            return Some((bytes[i], i));
        }
        i += 1;
    }
    None
}

/// First occurrence of `target` at angle/paren/bracket depth 0, starting
/// from `from`. Used to find the `{` that opens an impl block (skipping
/// generic bounds which may contain braces only inside const generics —
/// rare enough to ignore) and the `;` ending a `use`.
fn find_byte_at_depth0(bytes: &[u8], from: usize, target: u8) -> Option<usize> {
    let mut angle = 0i32;
    let mut round = 0i32;
    let mut square = 0i32;
    let mut i = from;
    while i < bytes.len() {
        let b = bytes[i];
        if b == target && angle <= 0 && round == 0 && square == 0 {
            return Some(i);
        }
        match b {
            b'<' => angle += 1,
            b'>' if i > 0 && bytes[i - 1] != b'-' => angle -= 1, // `->` is not a close
            b'(' => round += 1,
            b')' => round -= 1,
            b'[' => square += 1,
            b']' => square -= 1,
            _ => {}
        }
        i += 1;
    }
    None
}

/// The self-type name of an `impl` header (the text between `impl` and
/// `{`): `impl<T> Trait for Type<T>` → `Type`; `impl Type` → `Type`.
fn impl_type_name(header: &str) -> String {
    let header = header.strip_prefix("impl").unwrap_or(header);
    // Skip the generic parameter list, if any.
    let header = skip_leading_generics(header);
    let after_for = match split_on_word(header, "for") {
        Some((_, rest)) => rest,
        None => header,
    };
    let after_for = match split_on_word(after_for, "where") {
        Some((head, _)) => head,
        None => after_for,
    };
    first_type_segment(after_for)
}

/// Drops a leading `<...>` (balanced) from `s`.
fn skip_leading_generics(s: &str) -> &str {
    let t = s.trim_start();
    if !t.starts_with('<') {
        return t;
    }
    let mut depth = 0i32;
    for (i, b) in t.bytes().enumerate() {
        match b {
            b'<' => depth += 1,
            b'>' if i > 0 && t.as_bytes()[i - 1] != b'-' => {
                depth -= 1;
                if depth == 0 {
                    return &t[i + 1..];
                }
            }
            _ => {}
        }
    }
    t
}

/// Splits `s` on the first whole-word occurrence of `word` at angle
/// depth 0.
fn split_on_word<'a>(s: &'a str, word: &str) -> Option<(&'a str, &'a str)> {
    let bytes = s.as_bytes();
    let mut depth = 0i32;
    let mut i = 0;
    while i + word.len() <= bytes.len() {
        match bytes[i] {
            b'<' => depth += 1,
            b'>' if i > 0 && bytes[i - 1] != b'-' => depth -= 1,
            _ => {}
        }
        if depth == 0
            && s[i..].starts_with(word)
            && (i == 0 || !is_ident(bytes[i - 1]))
            && (i + word.len() >= bytes.len() || !is_ident(bytes[i + word.len()]))
        {
            return Some((&s[..i], &s[i + word.len()..]));
        }
        i += 1;
    }
    None
}

/// The last path segment of the first type in `s`, generics stripped:
/// `&mut crate::router::Router<'a>` → `Router`.
fn first_type_segment(s: &str) -> String {
    let s = s.trim().trim_start_matches(['&', '*']).trim_start();
    let s = s.strip_prefix("mut ").unwrap_or(s).trim_start();
    let s = s.strip_prefix("dyn ").unwrap_or(s).trim_start();
    // Cut at the generic argument list of the type itself.
    let head = match s.find('<') {
        Some(p) => &s[..p],
        None => s,
    };
    head.trim()
        .rsplit("::")
        .next()
        .unwrap_or(head)
        .trim()
        .to_string()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mask::{mask_source, strip_test_regions};

    fn parse(src: &str) -> FileItems {
        parse_items(&strip_test_regions(&mask_source(src)))
    }

    #[test]
    fn extracts_free_and_method_fns_with_owners() {
        let src = r#"
            pub fn free(x: u32) -> u32 { x + 1 }
            struct S;
            impl S {
                pub(crate) fn method(&self) { helper(); }
                fn private_method(&self) {}
            }
            impl std::fmt::Display for S {
                fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result { Ok(()) }
            }
            trait T {
                fn required(&self);
                fn defaulted(&self) { self.required(); }
            }
        "#;
        let items = parse(src);
        let names: Vec<(&str, Option<&str>, bool)> = items
            .fns
            .iter()
            .map(|f| (f.name.as_str(), f.owner.as_deref(), f.is_pub))
            .collect();
        assert_eq!(
            names,
            vec![
                ("free", None, true),
                ("method", Some("S"), true),
                ("private_method", Some("S"), false),
                ("fmt", Some("S"), false),
                ("required", Some("T"), false),
                ("defaulted", Some("T"), false),
            ]
        );
        // The bodiless trait method has no body span; the others do.
        assert!(items.fns[4].body.is_none());
        assert!(items.fns[5].body.is_some());
    }

    #[test]
    fn impl_headers_resolve_to_the_self_type() {
        for (header, ty) in [
            ("impl Router {", "Router"),
            ("impl<'a> Router<'a> {", "Router"),
            ("impl RoutingStrategy for Router {", "Router"),
            ("impl<T: Clone> Wrapper<T> {", "Wrapper"),
            (
                "impl Iterator for paths::Walker where u32: Copy {",
                "Walker",
            ),
            ("impl From<u32> for NodeId {", "NodeId"),
        ] {
            let src = format!("{header} fn probe(&self) {{}} }}");
            let items = parse(&src);
            assert_eq!(items.fns[0].owner.as_deref(), Some(ty), "header: {header}");
        }
    }

    /// `impl Trait` in argument or return position is a type, not an
    /// impl block: the fns after it keep their owner and their bodies.
    #[test]
    fn impl_trait_types_do_not_open_impl_blocks() {
        let src = "impl S {\n\
                   fn note(&mut self, f: impl FnOnce(&mut u32)) { f(&mut 0); }\n\
                   fn iter(&self) -> impl Iterator<Item = u32> { 0..1 }\n\
                   fn after(&self) {}\n\
                   }\n\
                   #[cfg(feature = \"x\")]\nimpl T {}\n\
                   unsafe impl Send for S {}\n";
        let items = parse(src);
        let fns: Vec<(&str, Option<&str>, bool)> = items
            .fns
            .iter()
            .map(|f| (f.name.as_str(), f.owner.as_deref(), f.body.is_some()))
            .collect();
        assert_eq!(
            fns,
            vec![
                ("note", Some("S"), true),
                ("iter", Some("S"), true),
                ("after", Some("S"), true),
            ]
        );
    }

    #[test]
    fn modules_nest_and_file_mods_are_recorded() {
        let src = "mod outer { mod inner { fn deep() {} } }\nmod filemod;\nfn top() {}";
        let items = parse(src);
        assert_eq!(items.fns[0].module, vec!["outer", "inner"]);
        assert!(items.fns[1].module.is_empty());
        assert_eq!(items.file_mods, vec!["filemod"]);
    }

    #[test]
    fn use_decls_are_captured_and_collapsed() {
        let src = "use std::collections::BTreeMap;\nuse std::sync::{\n    Arc,\n};\nfn f() {}";
        let items = parse(src);
        assert_eq!(items.uses.len(), 2);
        assert_eq!(items.uses[0].path, "std::collections::BTreeMap");
        assert_eq!(items.uses[1].path, "std::sync::{ Arc, }");
    }

    #[test]
    fn body_spans_cover_the_braces() {
        let src = "fn f() { let x = { 1 }; }";
        let items = parse(src);
        let (open, close) = items.fns[0].body.expect("body span");
        assert_eq!(&src[open..close], "{ let x = { 1 }; }");
    }

    #[test]
    fn fn_pointer_types_and_test_modules_are_ignored() {
        let src =
            "type Cb = fn(u32) -> u32;\n#[cfg(test)]\nmod tests { fn hidden() {} }\nfn live() {}";
        let items = parse(src);
        let names: Vec<&str> = items.fns.iter().map(|f| f.name.as_str()).collect();
        assert_eq!(names, vec!["live"]);
    }

    #[test]
    fn return_types_with_brackets_do_not_confuse_body_detection() {
        let src = "fn f() -> [u8; 4] { [0; 4] }\nfn g(x: (u32, u32)) -> (u32, u32) { x }";
        let items = parse(src);
        assert_eq!(items.fns.len(), 2);
        assert!(items.fns.iter().all(|f| f.body.is_some()));
    }
}
