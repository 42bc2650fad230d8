//! A lightweight item-level parser on top of [`crate::lexer`].
//!
//! Builds a per-file item tree: functions, structs, enums (with variants),
//! traits, impls, modules, consts/statics, type aliases, `use` declarations,
//! and `macro_rules!` definitions. Each item records its line, whether it
//! lives in test code, and (for functions/impls/mods) the token range of its
//! body so later passes can analyse call sites without re-lexing.
//!
//! This is deliberately not a full Rust grammar: it recognises just enough
//! item structure for the call graph of the flow analyses, and it degrades
//! gracefully — tokens it does not understand are skipped, never fatal.

use crate::lexer::{Lexed, Tok, TokKind};
use crate::lints::Marks;

/// What kind of item a node in the tree is.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ItemKind {
    /// `fn` (free, impl method, or trait method).
    Fn,
    /// `struct` definition.
    Struct,
    /// `enum` definition (variants are child items).
    Enum,
    /// One enum variant.
    Variant,
    /// `trait` definition (members are child items).
    Trait,
    /// `impl` block (members are child items; `name` is the self type).
    Impl,
    /// `mod` (inline or file; inline members are child items).
    Mod,
    /// `const` item.
    Const,
    /// `static` item.
    Static,
    /// `type` alias.
    TypeAlias,
    /// `use` declaration (`name` is the joined path).
    Use,
    /// `macro_rules!` definition.
    Macro,
}

/// One node of the per-file item tree.
#[derive(Clone, Debug)]
pub struct Item {
    /// Item kind.
    pub kind: ItemKind,
    /// Item name (self type for impls, joined path for uses).
    pub name: String,
    /// 1-based line of the defining keyword.
    pub line: usize,
    /// True when the item sits inside `#[cfg(test)]` / `#[test]` code.
    pub in_test: bool,
    /// Token index range `[start, end)` of the body block including braces,
    /// for items that have one.
    pub body: Option<(usize, usize)>,
    /// Members, for containers (impl/trait/mod) and enums (variants).
    pub children: Vec<Item>,
}

/// Parses the item tree of one lexed file.
pub fn parse_items(lexed: &Lexed, marks: &Marks) -> Vec<Item> {
    let mut cursor = Cursor { toks: &lexed.toks, marks };
    let mut i = 0;
    cursor.parse_container(&mut i, lexed.toks.len())
}

struct Cursor<'a> {
    toks: &'a [Tok],
    marks: &'a Marks,
}

/// Keywords that can never be a callee or item name.
const ITEM_MODIFIERS: &[&str] = &["unsafe", "async", "extern", "default"];

impl Cursor<'_> {
    fn kind(&self, i: usize) -> Option<&TokKind> {
        self.toks.get(i).map(|t| &t.kind)
    }

    fn ident(&self, i: usize) -> Option<&str> {
        self.kind(i).and_then(TokKind::ident)
    }

    fn is_punct(&self, i: usize, p: &str) -> bool {
        self.kind(i).is_some_and(|k| k.is_punct(p))
    }

    /// Skips a balanced `open`/`close` group with the cursor on `open`;
    /// returns the index just past the matching closer.
    fn skip_group(&self, mut i: usize, open: &str, close: &str) -> usize {
        let mut depth = 0usize;
        while let Some(t) = self.toks.get(i) {
            if t.kind.is_punct(open) {
                depth += 1;
            } else if t.kind.is_punct(close) {
                depth = depth.saturating_sub(1);
                if depth == 0 {
                    return i + 1;
                }
            }
            i += 1;
        }
        i
    }

    /// Parses items until `end` (exclusive) or an unmatched `}`.
    fn parse_container(&mut self, i: &mut usize, end: usize) -> Vec<Item> {
        let mut items = Vec::new();

        while *i < end {
            match &self.toks[*i].kind {
                TokKind::Punct(p) if p == "#" => {
                    // Attribute: `#[...]` or `#![...]`.
                    let mut j = *i + 1;
                    if self.is_punct(j, "!") {
                        j += 1;
                    }
                    if self.is_punct(j, "[") {
                        *i = self.skip_group(j, "[", "]");
                    } else {
                        *i += 1;
                    }
                }
                TokKind::Punct(p) if p == "}" => {
                    // Container body closed; caller consumes the brace.
                    break;
                }
                TokKind::Punct(p) if p == "{" => {
                    // Stray block (macro body, const block): skip wholesale.
                    *i = self.skip_group(*i, "{", "}");
                }
                TokKind::Ident(id) if id == "pub" => {
                    // Visibility, restricted (`pub(crate)`) or not.
                    *i += 1;
                    if self.is_punct(*i, "(") {
                        *i = self.skip_group(*i, "(", ")");
                    }
                }
                TokKind::Ident(id) if ITEM_MODIFIERS.contains(&id.as_str()) => {
                    *i += 1;
                    // `extern "C"` ABI string.
                    if id == "extern" && matches!(self.kind(*i), Some(TokKind::Lit)) {
                        *i += 1;
                    }
                }
                TokKind::Ident(id) => {
                    let kw = id.clone();
                    let in_test = self.marks.in_test.get(*i).copied().unwrap_or(false);
                    match self.parse_item(&kw, i, end, in_test) {
                        Some(item) => items.push(item),
                        None => *i += 1,
                    }
                }
                _ => *i += 1,
            }
        }
        items
    }

    /// Parses one item whose keyword is at `*i`; advances past it.
    fn parse_item(&mut self, kw: &str, i: &mut usize, end: usize, in_test: bool) -> Option<Item> {
        let line = self.toks[*i].line;
        let item =
            |kind, name, body, children| Some(Item { kind, name, line, in_test, body, children });
        match kw {
            "fn" => {
                let name = self.ident(*i + 1)?.to_string();
                *i += 2;
                // Signature: everything to the body `{` or a `;` (trait
                // method without default body) at paren depth 0.
                let mut paren = 0usize;
                while *i < end {
                    match &self.toks[*i].kind {
                        TokKind::Punct(p) if p == "(" || p == "[" => paren += 1,
                        TokKind::Punct(p) if p == ")" || p == "]" => {
                            paren = paren.saturating_sub(1);
                        }
                        TokKind::Punct(p) if p == ";" && paren == 0 => {
                            *i += 1;
                            return item(ItemKind::Fn, name, None, Vec::new());
                        }
                        TokKind::Punct(p) if p == "{" && paren == 0 => {
                            let start = *i;
                            *i = self.skip_group(*i, "{", "}");
                            return item(ItemKind::Fn, name, Some((start, *i)), Vec::new());
                        }
                        _ => {}
                    }
                    *i += 1;
                }
                item(ItemKind::Fn, name, None, Vec::new())
            }
            "struct" => {
                let name = self.ident(*i + 1)?.to_string();
                *i += 2;
                // Unit/tuple structs end with `;`; record structs have a
                // brace body we skip (fields are not items).
                let mut paren = 0usize;
                while *i < end {
                    match &self.toks[*i].kind {
                        TokKind::Punct(p) if p == "(" => paren += 1,
                        TokKind::Punct(p) if p == ")" => paren = paren.saturating_sub(1),
                        TokKind::Punct(p) if p == ";" && paren == 0 => {
                            *i += 1;
                            break;
                        }
                        TokKind::Punct(p) if p == "{" && paren == 0 => {
                            *i = self.skip_group(*i, "{", "}");
                            break;
                        }
                        _ => {}
                    }
                    *i += 1;
                }
                item(ItemKind::Struct, name, None, Vec::new())
            }
            "enum" => {
                let name = self.ident(*i + 1)?.to_string();
                *i += 2;
                while *i < end && !self.is_punct(*i, "{") {
                    *i += 1;
                }
                let start = *i;
                let body_end = self.skip_group(*i, "{", "}");
                let variants = self.parse_variants(start + 1, body_end.saturating_sub(1));
                *i = body_end;
                item(ItemKind::Enum, name, Some((start, body_end)), variants)
            }
            "trait" | "mod" | "impl" => {
                let (kind, name) = match kw {
                    "trait" => (ItemKind::Trait, self.ident(*i + 1)?.to_string()),
                    "mod" => (ItemKind::Mod, self.ident(*i + 1)?.to_string()),
                    _ => (ItemKind::Impl, String::new()),
                };
                let name = if kw == "impl" {
                    *i += 1;
                    self.impl_self_type(i, end)
                } else {
                    *i += 2;
                    name
                };
                // `mod name;` — no body.
                if self.is_punct(*i, ";") {
                    *i += 1;
                    return item(kind, name, None, Vec::new());
                }
                while *i < end && !self.is_punct(*i, "{") {
                    *i += 1;
                }
                let start = *i;
                *i += 1; // past `{`
                let children = self.parse_container(i, end);
                if self.is_punct(*i, "}") {
                    *i += 1;
                }
                item(kind, name, Some((start, *i)), children)
            }
            "const" | "static" => {
                // `const fn` is a function; `const NAME: T = ...;` an item.
                if self.ident(*i + 1) == Some("fn") {
                    *i += 1;
                    return self.parse_item("fn", i, end, in_test);
                }
                let mut j = *i + 1;
                if self.ident(j) == Some("mut") {
                    j += 1;
                }
                let name = self.ident(j)?.to_string();
                *i = j + 1;
                self.skip_to_semi(i, end);
                let kind = if kw == "const" { ItemKind::Const } else { ItemKind::Static };
                item(kind, name, None, Vec::new())
            }
            "type" => {
                let name = self.ident(*i + 1)?.to_string();
                *i += 2;
                self.skip_to_semi(i, end);
                item(ItemKind::TypeAlias, name, None, Vec::new())
            }
            "use" => {
                *i += 1;
                let mut path = String::new();
                while *i < end && !self.is_punct(*i, ";") {
                    match &self.toks[*i].kind {
                        TokKind::Ident(s) => path.push_str(s),
                        TokKind::Punct(p) => path.push_str(p),
                        TokKind::Num | TokKind::Lit => {}
                    }
                    *i += 1;
                }
                *i += 1; // past `;`
                item(ItemKind::Use, path, None, Vec::new())
            }
            "macro_rules" => {
                // `macro_rules ! name { ... }`
                let name = self.ident(*i + 2)?.to_string();
                *i += 3;
                while *i < end && !self.is_punct(*i, "{") {
                    *i += 1;
                }
                *i = self.skip_group(*i, "{", "}");
                item(ItemKind::Macro, name, None, Vec::new())
            }
            _ => None,
        }
    }

    /// With the cursor just past `impl`, returns the self type's last path
    /// segment (`Bar` for `impl<T> Foo for pricing::Bar<T> where ...`) and
    /// leaves the cursor on the body `{` (or `;`).
    fn impl_self_type(&self, i: &mut usize, end: usize) -> String {
        let mut angle = 0i32;
        let mut name = String::new();
        let mut in_where = false;
        while *i < end {
            match &self.toks[*i].kind {
                TokKind::Punct(p) if p == "{" || p == ";" => break,
                TokKind::Punct(p) if p == "<" => angle += 1,
                TokKind::Punct(p) if p == ">" => angle -= 1,
                TokKind::Punct(p) if p == "<<" => angle += 2,
                TokKind::Punct(p) if p == ">>" => angle -= 2,
                TokKind::Ident(id) if angle == 0 => match id.as_str() {
                    "where" => in_where = true,
                    // `for` restarts collection: the self type follows it.
                    "for" => name.clear(),
                    "dyn" | "mut" => {}
                    _ if !in_where => name = id.clone(),
                    _ => {}
                },
                _ => {}
            }
            *i += 1;
        }
        name
    }

    /// Skips to just past the next `;` at brace/paren depth 0.
    fn skip_to_semi(&self, i: &mut usize, end: usize) {
        let mut depth = 0usize;
        while *i < end {
            match &self.toks[*i].kind {
                TokKind::Punct(p) if p == "{" || p == "(" || p == "[" => depth += 1,
                TokKind::Punct(p) if p == "}" || p == ")" || p == "]" => {
                    depth = depth.saturating_sub(1);
                }
                TokKind::Punct(p) if p == ";" && depth == 0 => {
                    *i += 1;
                    return;
                }
                _ => {}
            }
            *i += 1;
        }
    }

    /// Collects variant names from an enum body token range.
    fn parse_variants(&self, start: usize, end: usize) -> Vec<Item> {
        let mut out = Vec::new();
        let mut j = start;
        let mut expect_variant = true;
        while j < end {
            match &self.toks[j].kind {
                TokKind::Punct(p) if p == "#" && self.is_punct(j + 1, "[") => {
                    j = self.skip_group(j + 1, "[", "]");
                }
                TokKind::Punct(p) if p == "(" => j = self.skip_group(j, "(", ")"),
                TokKind::Punct(p) if p == "{" => j = self.skip_group(j, "{", "}"),
                TokKind::Punct(p) if p == "," => {
                    expect_variant = true;
                    j += 1;
                }
                TokKind::Ident(name) if expect_variant => {
                    out.push(Item {
                        kind: ItemKind::Variant,
                        name: name.clone(),
                        line: self.toks[j].line,
                        in_test: false,
                        body: None,
                        children: Vec::new(),
                    });
                    expect_variant = false;
                    j += 1;
                }
                _ => j += 1,
            }
        }
        out
    }
}

/// Depth-first iterator over an item tree (pre-order).
pub fn walk_items<'a>(items: &'a [Item], f: &mut impl FnMut(&'a Item, &[&'a Item])) {
    fn rec<'a>(
        items: &'a [Item],
        stack: &mut Vec<&'a Item>,
        f: &mut impl FnMut(&'a Item, &[&'a Item]),
    ) {
        for item in items {
            f(item, stack);
            stack.push(item);
            rec(&item.children, stack, f);
            stack.pop();
        }
    }
    rec(items, &mut Vec::new(), f);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;
    use crate::lints::mark_regions;

    fn parse(src: &str) -> Vec<Item> {
        let lexed = lex(src);
        let marks = mark_regions(&lexed.toks);
        parse_items(&lexed, &marks)
    }

    #[test]
    fn parses_free_functions_and_docs() {
        let src = "/// Documented.\npub fn a() -> u8 { 1 }\nfn b() {}\n";
        let items = parse(src);
        assert_eq!(items.len(), 2);
        assert_eq!(items[0].kind, ItemKind::Fn);
        assert_eq!(items[0].name, "a");
        assert!(items[0].body.is_some());
        assert_eq!(items[1].name, "b");
    }

    #[test]
    fn attributes_above_items_are_skipped() {
        let src =
            "/// Doc.\n#[derive(Debug)]\npub struct S { x: u8 }\n#[derive(Debug)]\npub struct T;\n";
        let items = parse(src);
        assert_eq!(items.len(), 2, "{items:?}");
        for (item, name, line) in [(&items[0], "S", 3), (&items[1], "T", 5)] {
            assert_eq!((item.kind, item.name.as_str(), item.line), (ItemKind::Struct, name, line));
        }
    }

    #[test]
    fn impl_blocks_nest_methods_under_self_type() {
        let src = r"
            impl<T: Clone> Foo for bar::Baz<T> where T: Copy {
                /// Doc.
                pub fn m(&self) {}
                fn n() {}
            }
            impl Plain {
                pub const fn k() -> u8 { 0 }
            }
        ";
        let items = parse(src);
        assert_eq!(items.len(), 2);
        assert_eq!(items[0].kind, ItemKind::Impl);
        assert_eq!(items[0].name, "Baz");
        assert_eq!(items[0].children.len(), 2);
        assert_eq!(items[0].children[0].name, "m");
        assert_eq!(items[1].name, "Plain");
        assert_eq!(items[1].children[0].name, "k");
        assert_eq!(items[1].children[0].kind, ItemKind::Fn);
    }

    #[test]
    fn enums_record_variants() {
        let src = "pub enum Tier { Hot = 0, Cool(u8), Archive { x: u8 } }";
        let items = parse(src);
        assert_eq!(items[0].kind, ItemKind::Enum);
        let names: Vec<&str> = items[0].children.iter().map(|v| v.name.as_str()).collect();
        assert_eq!(names, vec!["Hot", "Cool", "Archive"]);
    }

    #[test]
    fn uses_consts_types_mods_are_items() {
        let src = r"
            use std::collections::{HashMap, HashSet};
            pub const N: usize = 3;
            static mut G: u8 = 0;
            type Pair = (u8, u8);
            mod inner { pub fn f() {} }
            mod file_mod;
        ";
        let items = parse(src);
        let kinds: Vec<ItemKind> = items.iter().map(|i| i.kind).collect();
        assert_eq!(
            kinds,
            vec![
                ItemKind::Use,
                ItemKind::Const,
                ItemKind::Static,
                ItemKind::TypeAlias,
                ItemKind::Mod,
                ItemKind::Mod,
            ]
        );
        assert!(items[0].name.contains("HashMap"));
        assert_eq!(items[4].children.len(), 1);
    }

    #[test]
    fn test_modules_are_marked() {
        let src = r"
            pub fn real() {}
            #[cfg(test)]
            mod tests {
                fn helper() {}
            }
        ";
        let items = parse(src);
        assert!(!items[0].in_test);
        let tests_mod = &items[1];
        assert_eq!(tests_mod.kind, ItemKind::Mod);
        assert!(tests_mod.children[0].in_test, "{tests_mod:?}");
    }

    #[test]
    fn trait_methods_without_bodies_parse() {
        let src = "pub trait F { fn forecast(&self) -> u8; fn name(&self) -> u8 { 0 } }";
        let items = parse(src);
        assert_eq!(items[0].kind, ItemKind::Trait);
        assert_eq!(items[0].children.len(), 2);
        assert!(items[0].children[0].body.is_none());
        assert!(items[0].children[1].body.is_some());
    }

    #[test]
    fn restricted_visibility_is_skipped() {
        let src = "pub(crate) fn f() {}\npub(in crate::x) struct S;";
        let items = parse(src);
        assert_eq!(items.len(), 2, "{items:?}");
        assert_eq!((items[0].kind, items[0].name.as_str()), (ItemKind::Fn, "f"));
        assert_eq!((items[1].kind, items[1].name.as_str()), (ItemKind::Struct, "S"));
    }

    #[test]
    fn walk_visits_nested_items_with_stack() {
        let src = "impl A { fn m() {} }\nmod b { fn g() {} }";
        let items = parse(src);
        let mut seen = Vec::new();
        walk_items(&items, &mut |item, stack| {
            seen.push((item.name.clone(), stack.len()));
        });
        assert!(seen.contains(&("m".to_string(), 1)));
        assert!(seen.contains(&("g".to_string(), 1)));
        assert!(seen.contains(&("A".to_string(), 0)));
    }
}
