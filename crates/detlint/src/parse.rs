//! Offline recursive-descent *item* parser.
//!
//! This is not a Rust parser — it is the smallest grammar that yields a
//! usable symbol table for flow analysis: `mod`/`impl`/`trait` nesting,
//! `fn` items with their body extents, `struct` items with their field
//! types and derives. Everything else (expressions, patterns, types) is
//! skipped by bracket matching. Three properties matter more than
//! grammar coverage:
//!
//! 1. **Totality** — any token soup parses to *some* table without
//!    panicking (property-tested);
//! 2. **Determinism** — the same source always yields the same table;
//! 3. **Conservatism** — when the parser is unsure whether tokens form a
//!    call or a panic source, it records one. Over-approximating keeps
//!    the reachability rules sound (they may warn too much, never too
//!    little); the ratchet and waivers absorb the noise.
//!
//! `#[cfg(test)]` modules and `tests/` files are excluded from the table:
//! test helpers share names with production functions (`apply`, `setup`),
//! and letting them into the call graph would wire every test's panics
//! into the hot path.

use crate::token::{Tok, TokKind};

/// How a function can panic (or touch ambient state), as recorded at a
/// specific site inside its body.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SiteKind {
    /// `.unwrap()` on an Option/Result.
    Unwrap,
    /// `.expect("…")` whose message does *not* document an invariant
    /// (messages starting with `invariant` are sanctioned assertions).
    Expect,
    /// `panic!`, `unreachable!`, `todo!`, `unimplemented!`.
    PanicMacro(String),
    /// Postfix `expr[…]` indexing (slice/array/map) that can panic.
    Index,
    /// `.partial_cmp(..).unwrap()/.expect(..)` — float-ordering panic.
    PartialCmpUnwrap,
    /// A call into ambient state (`std::fs`, `std::net`, `std::env`,
    /// `std::process`, stdio), carrying the matched pattern.
    Ambient(String),
}

impl SiteKind {
    /// Short stable label used in diagnostics and lock fingerprints.
    pub fn label(&self) -> String {
        match self {
            SiteKind::Unwrap => "unwrap".to_owned(),
            SiteKind::Expect => "expect".to_owned(),
            SiteKind::PanicMacro(m) => format!("{m}!"),
            SiteKind::Index => "index".to_owned(),
            SiteKind::PartialCmpUnwrap => "partial_cmp-unwrap".to_owned(),
            SiteKind::Ambient(p) => p.clone(),
        }
    }

    /// True for the panic-source kinds (everything but `Ambient`).
    pub fn is_panic(&self) -> bool {
        !matches!(self, SiteKind::Ambient(_))
    }
}

/// One recorded site inside a function body.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Site {
    /// 1-based line.
    pub line: usize,
    /// What happens there.
    pub kind: SiteKind,
}

/// One call site inside a function body.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CallSite {
    /// Callee name (last path segment / method name).
    pub name: String,
    /// Qualifier, when the call was written `Qualifier::name(…)`.
    /// `.name(…)` method calls and bare `name(…)` calls have none.
    pub qualifier: Option<String>,
    /// True for `.name(…)` method-call syntax.
    pub method: bool,
    /// 1-based line.
    pub line: usize,
}

/// One function in the symbol table.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FnSym {
    /// Function name (method name for impl/trait fns).
    pub name: String,
    /// Enclosing impl/trait type name, if any (`Journal` for
    /// `impl Journal { fn append … }`).
    pub container: Option<String>,
    /// Enclosing module path inside the file (`a::b` for nested mods),
    /// empty at file top level.
    pub module: String,
    /// Crate directory name (`storage` for `crates/storage/...`).
    pub krate: String,
    /// Workspace-relative file path, forward slashes.
    pub file: String,
    /// 1-based line of the `fn` keyword.
    pub line: usize,
    /// Calls made in the body, in source order.
    pub calls: Vec<CallSite>,
    /// Panic/ambient sites in the body, in source order.
    pub sites: Vec<Site>,
}

impl FnSym {
    /// The stable qualified name used in entry-point patterns, DOT
    /// output and lock fingerprints: `Container::name` for methods,
    /// `module::name` (file-stem module) for free functions, plain
    /// `name` at crate root.
    pub fn qualified(&self) -> String {
        match (&self.container, self.module.is_empty()) {
            (Some(c), _) => format!("{c}::{}", self.name),
            (None, false) => format!("{}::{}", self.module, self.name),
            (None, true) => {
                // A free fn at file top level is addressed by its file-stem
                // module (`engine::persist`); crate roots stay bare.
                let stem = self
                    .file
                    .rsplit('/')
                    .next()
                    .and_then(|f| f.strip_suffix(".rs"))
                    .unwrap_or("");
                if stem.is_empty() || stem == "lib" || stem == "main" || stem == "mod" {
                    self.name.clone()
                } else {
                    format!("{stem}::{}", self.name)
                }
            }
        }
    }
}

/// One struct in the symbol table (enough for `float_ordering`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StructSym {
    /// Type name.
    pub name: String,
    /// Workspace-relative file path.
    pub file: String,
    /// 1-based line of the `struct` keyword.
    pub line: usize,
    /// Derives from the immediately preceding `#[derive(…)]` attributes.
    pub derives: Vec<String>,
    /// Lines of fields whose type mentions `f32`/`f64`.
    pub float_field_lines: Vec<usize>,
}

/// The per-file parse result; [`crate::graph::SymbolTable`] merges these.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FileSymbols {
    /// All non-test functions.
    pub fns: Vec<FnSym>,
    /// All non-test structs.
    pub structs: Vec<StructSym>,
    /// `impl Ord for T` / `impl PartialOrd for T` target type names with
    /// the impl's line.
    pub ord_impls: Vec<(String, usize, bool)>, // (type, line, is_total_ord)
}

/// Ambient-state patterns recognized for `sim_purity`. Module heads are
/// matched as `head::…` path prefixes; the rest as qualified calls.
const AMBIENT_MODULE_HEADS: [&str; 4] = ["fs", "net", "process", "env"];
const AMBIENT_CALLS: [(&str, &str); 7] = [
    ("File", "open"),
    ("File", "create"),
    ("OpenOptions", "new"),
    ("Command", "new"),
    ("TcpStream", "connect"),
    ("TcpListener", "bind"),
    ("UdpSocket", "bind"),
];
const AMBIENT_STDIO: [&str; 3] = ["stdin", "stdout", "stderr"];

/// Parse one file's token stream into its symbol table. `file` is the
/// workspace-relative path; `krate` the crate directory name.
pub fn parse_file(file: &str, krate: &str, toks: &[Tok]) -> FileSymbols {
    let mut out = FileSymbols::default();
    let module = String::new();
    parse_items(toks, &mut Cursor { i: 0 }, file, krate, &module, None, &mut out, 0);
    out
}

struct Cursor {
    i: usize,
}

/// Parse a run of items until `toks` is exhausted or an unmatched `}`
/// closes the enclosing block. `depth` caps pathological nesting so the
/// parser stays linear on adversarial input.
#[allow(clippy::too_many_arguments)]
fn parse_items(
    toks: &[Tok],
    cur: &mut Cursor,
    file: &str,
    krate: &str,
    module: &str,
    container: Option<&str>,
    out: &mut FileSymbols,
    depth: u32,
) {
    // Derives/cfg(test) state from attributes seen since the last item.
    let mut pending_derives: Vec<String> = Vec::new();
    let mut pending_cfg_test = false;

    while cur.i < toks.len() {
        let t = &toks[cur.i];

        // End of the enclosing block.
        if t.is_punct('}') {
            cur.i += 1;
            return;
        }

        // Attribute: `#[…]` or `#![…]` — record derive(...) contents and
        // cfg(test), then skip the balanced bracket group.
        if t.is_punct('#') {
            cur.i += 1;
            if toks.get(cur.i).is_some_and(|t| t.is_punct('!')) {
                cur.i += 1;
            }
            if toks.get(cur.i).is_some_and(|t| t.is_punct('[')) {
                let start = cur.i;
                let end = match_bracket(toks, cur.i, '[', ']');
                let inner = &toks[start + 1..end.min(toks.len())];
                if inner.first().is_some_and(|t| t.is_kw("derive")) {
                    pending_derives.extend(
                        inner
                            .iter()
                            .skip(1)
                            .filter_map(|t| t.ident().map(str::to_owned)),
                    );
                }
                if inner.first().is_some_and(|t| t.is_kw("cfg"))
                    && inner.iter().any(|t| t.is_kw("test"))
                {
                    pending_cfg_test = true;
                }
                cur.i = end + 1;
            }
            continue;
        }

        // mod NAME { … } — recurse with an extended module path, unless
        // the mod is cfg(test)-gated (skip entirely).
        if t.is_kw("mod") {
            let name = toks.get(cur.i + 1).and_then(|t| t.ident()).unwrap_or("");
            let name = name.to_owned();
            cur.i += 2;
            // `mod name;` — nothing to do.
            if toks.get(cur.i).is_some_and(|t| t.is_punct(';')) {
                cur.i += 1;
            } else if toks.get(cur.i).is_some_and(|t| t.is_punct('{')) {
                if pending_cfg_test || depth > 64 {
                    cur.i = match_bracket(toks, cur.i, '{', '}') + 1;
                } else {
                    let sub = if module.is_empty() {
                        name
                    } else {
                        format!("{module}::{name}")
                    };
                    cur.i += 1;
                    parse_items(toks, cur, file, krate, &sub, container, out, depth + 1);
                }
            }
            pending_derives.clear();
            pending_cfg_test = false;
            continue;
        }

        // impl [<…>] Type [for Trait] { items } — methods get the TARGET
        // type as container (`impl Ord for Foo` puts fns under Foo).
        if t.is_kw("impl") {
            cur.i += 1;
            skip_generics(toks, cur);
            let first = read_type_name(toks, cur);
            let mut target = first.clone();
            let mut trait_name: Option<String> = None;
            if toks.get(cur.i).is_some_and(|t| t.is_kw("for")) {
                cur.i += 1;
                trait_name = Some(first.clone());
                target = read_type_name(toks, cur);
            }
            // Skip any where clause up to the opening brace.
            while cur.i < toks.len()
                && !toks[cur.i].is_punct('{')
                && !toks[cur.i].is_punct(';')
            {
                cur.i += 1;
            }
            if let Some(tr) = &trait_name {
                if tr == "Ord" || tr == "PartialOrd" {
                    out.ord_impls.push((target.clone(), t.line, tr == "Ord"));
                }
            }
            if toks.get(cur.i).is_some_and(|t| t.is_punct('{')) {
                if pending_cfg_test || depth > 64 {
                    cur.i = match_bracket(toks, cur.i, '{', '}') + 1;
                } else {
                    cur.i += 1;
                    let cont = if target.is_empty() { None } else { Some(target.as_str()) };
                    parse_items(toks, cur, file, krate, module, cont, out, depth + 1);
                }
            }
            pending_derives.clear();
            pending_cfg_test = false;
            continue;
        }

        // trait NAME { items } — default method bodies parse like impls,
        // with the trait name as container.
        if t.is_kw("trait") {
            let name = toks.get(cur.i + 1).and_then(|t| t.ident()).unwrap_or("").to_owned();
            cur.i += 2;
            while cur.i < toks.len()
                && !toks[cur.i].is_punct('{')
                && !toks[cur.i].is_punct(';')
            {
                cur.i += 1;
            }
            if toks.get(cur.i).is_some_and(|t| t.is_punct('{')) {
                if pending_cfg_test || depth > 64 {
                    cur.i = match_bracket(toks, cur.i, '{', '}') + 1;
                } else {
                    cur.i += 1;
                    let cont = if name.is_empty() { None } else { Some(name.as_str()) };
                    parse_items(toks, cur, file, krate, module, cont, out, depth + 1);
                }
            }
            pending_derives.clear();
            pending_cfg_test = false;
            continue;
        }

        // struct NAME — record fields' float-ness and pending derives.
        if t.is_kw("struct") && !pending_cfg_test {
            let line = t.line;
            let name = toks.get(cur.i + 1).and_then(|t| t.ident()).unwrap_or("").to_owned();
            cur.i += 2;
            skip_generics(toks, cur);
            let mut float_lines = Vec::new();
            // Tuple struct `( … );`, unit `;`, or braced `{ … }`.
            if toks.get(cur.i).is_some_and(|t| t.is_punct('(')) {
                let end = match_bracket(toks, cur.i, '(', ')');
                for tk in &toks[cur.i..end.min(toks.len())] {
                    if tk.is_kw("f32") || tk.is_kw("f64") {
                        float_lines.push(tk.line);
                    }
                }
                cur.i = end + 1;
            } else {
                while cur.i < toks.len()
                    && !toks[cur.i].is_punct('{')
                    && !toks[cur.i].is_punct(';')
                {
                    cur.i += 1;
                }
                if toks.get(cur.i).is_some_and(|t| t.is_punct('{')) {
                    let end = match_bracket(toks, cur.i, '{', '}');
                    for tk in &toks[cur.i..end.min(toks.len())] {
                        if tk.is_kw("f32") || tk.is_kw("f64") {
                            float_lines.push(tk.line);
                        }
                    }
                    cur.i = end + 1;
                }
            }
            if !name.is_empty() {
                out.structs.push(StructSym {
                    name,
                    file: file.to_owned(),
                    line,
                    derives: std::mem::take(&mut pending_derives),
                    float_field_lines: float_lines,
                });
            }
            pending_derives.clear();
            pending_cfg_test = false;
            continue;
        }

        // fn NAME — the payload item.
        if t.is_kw("fn") {
            let line = t.line;
            let name = toks.get(cur.i + 1).and_then(|t| t.ident()).unwrap_or("").to_owned();
            cur.i += 2;
            // Signature: scan to the body `{` (or `;` for bodyless trait
            // fns), tracking (), [] and <> nesting so a `{` inside a
            // const-generic expression never terminates the signature.
            let mut paren = 0i32;
            let mut square = 0i32;
            let mut angle = 0i32;
            let mut prev_dash = false;
            while cur.i < toks.len() {
                let tk = &toks[cur.i];
                match tk.kind {
                    TokKind::Punct('(') => paren += 1,
                    TokKind::Punct(')') => paren -= 1,
                    TokKind::Punct('[') => square += 1,
                    TokKind::Punct(']') => square -= 1,
                    TokKind::Punct('<') if !prev_dash => angle += 1,
                    TokKind::Punct('>') if !prev_dash => angle = (angle - 1).max(0),
                    TokKind::Punct('{') if paren <= 0 && square <= 0 && angle <= 0 => break,
                    TokKind::Punct(';') if paren <= 0 && square <= 0 && angle <= 0 => break,
                    _ => {}
                }
                prev_dash = tk.is_punct('-');
                cur.i += 1;
            }
            let mut sym = FnSym {
                name,
                container: container.map(str::to_owned),
                module: module.to_owned(),
                krate: krate.to_owned(),
                file: file.to_owned(),
                line,
                calls: Vec::new(),
                sites: Vec::new(),
            };
            if toks.get(cur.i).is_some_and(|t| t.is_punct('{')) {
                let end = match_bracket(toks, cur.i, '{', '}');
                scan_body(&toks[cur.i + 1..end.min(toks.len())], &mut sym);
                cur.i = end + 1;
            } else if toks.get(cur.i).is_some_and(|t| t.is_punct(';')) {
                cur.i += 1;
            }
            if !sym.name.is_empty() && !pending_cfg_test {
                out.fns.push(sym);
            }
            pending_derives.clear();
            pending_cfg_test = false;
            continue;
        }

        // Any other brace-bearing construct (use, const, static, enum,
        // extern blocks, stray expressions): advance one token; braces
        // encountered outside a recognized item just nest the item loop.
        if t.is_punct('{') {
            cur.i += 1;
            parse_items(toks, cur, file, krate, module, container, out, depth + 1);
            continue;
        }
        cur.i += 1;
        // Keep derives pending across doc-comment gaps but drop them once
        // real non-attribute tokens intervene (e.g. `pub`, `pub(crate)`).
        if !(t.is_kw("pub")
            || t.is_punct('(')
            || t.is_punct(')')
            || t.ident().is_some_and(|n| n == "crate" || n == "super"))
        {
            pending_derives.clear();
            pending_cfg_test = false;
        }
    }
}

/// Index of the bracket matching `toks[open]` (which must be `open_c`),
/// or `toks.len()` when unterminated.
fn match_bracket(toks: &[Tok], open: usize, open_c: char, close_c: char) -> usize {
    let mut depth = 0i32;
    let mut i = open;
    while i < toks.len() {
        if toks[i].is_punct(open_c) {
            depth += 1;
        } else if toks[i].is_punct(close_c) {
            depth -= 1;
            if depth == 0 {
                return i;
            }
        }
        i += 1;
    }
    toks.len()
}

/// Skip a `<…>` generics group if the cursor is on `<`.
fn skip_generics(toks: &[Tok], cur: &mut Cursor) {
    if !toks.get(cur.i).is_some_and(|t| t.is_punct('<')) {
        return;
    }
    let mut depth = 0i32;
    let mut prev_dash = false;
    while cur.i < toks.len() {
        let t = &toks[cur.i];
        if t.is_punct('<') && !prev_dash {
            depth += 1;
        } else if t.is_punct('>') && !prev_dash {
            depth -= 1;
            if depth == 0 {
                cur.i += 1;
                return;
            }
        }
        prev_dash = t.is_punct('-');
        cur.i += 1;
    }
}

/// Read a type's head name at the cursor: the last identifier of a
/// leading path (`a::b::Type` → `Type`), skipping `&`, lifetimes and a
/// trailing generics group. Empty when the next token is not a path
/// (tuple/slice/fn-pointer types — the parser does not need those).
fn read_type_name(toks: &[Tok], cur: &mut Cursor) -> String {
    while toks
        .get(cur.i)
        .is_some_and(|t| t.is_punct('&') || t.kind == TokKind::Lifetime || t.is_kw("mut") || t.is_kw("dyn"))
    {
        cur.i += 1;
    }
    let mut name = String::new();
    while let Some(t) = toks.get(cur.i) {
        if let Some(id) = t.ident() {
            name = id.to_owned();
            cur.i += 1;
            skip_generics(toks, cur);
            if toks.get(cur.i).is_some_and(|t| t.is_punct(':'))
                && toks.get(cur.i + 1).is_some_and(|t| t.is_punct(':'))
            {
                cur.i += 2;
                continue;
            }
        }
        break;
    }
    name
}

/// Scan a function body's tokens for calls, panic sources and ambient
/// touches. Flat (closures and nested blocks are part of the enclosing
/// fn — a panic inside a closure the fn builds is still a panic the fn
/// can reach), except nested `fn` items, whose bodies belong to
/// themselves and are skipped here (the item parser has already claimed
/// them? no — nested fns inside bodies are rare and conservative
/// attribution to the outer fn is sound, so they stay).
fn scan_body(body: &[Tok], sym: &mut FnSym) {
    let mut i = 0usize;
    while i < body.len() {
        let t = &body[i];

        // Attribute groups inside bodies (`#[allow]`, `#[cfg]`): skip, so
        // their bracket never reads as indexing.
        if t.is_punct('#') {
            let mut j = i + 1;
            if body.get(j).is_some_and(|t| t.is_punct('!')) {
                j += 1;
            }
            if body.get(j).is_some_and(|t| t.is_punct('[')) {
                i = match_bracket(body, j, '[', ']') + 1;
                continue;
            }
            i += 1;
            continue;
        }

        if let Some(name) = t.ident() {
            let line = t.line;

            // Macro invocation: `name!(…)` / `name![…]` / `name!{…}`.
            if body.get(i + 1).is_some_and(|t| t.is_punct('!'))
                && body.get(i + 2).is_some_and(|t| {
                    t.is_punct('(') || t.is_punct('[') || t.is_punct('{')
                })
            {
                if matches!(name, "panic" | "unreachable" | "todo" | "unimplemented") {
                    sym.sites.push(Site {
                        line,
                        kind: SiteKind::PanicMacro(name.to_owned()),
                    });
                }
                // Do not skip the macro body: arguments may contain real
                // calls and panic sources (`format!("{}", x.unwrap())`).
                i += 2;
                continue;
            }

            // Method call `.name(…)` / `.name::<…>(…)`.
            let is_method = i > 0 && body[i - 1].is_punct('.');
            // Qualified path call `Qual::name(…)`.
            let qualifier = if i >= 3
                && body[i - 1].is_punct(':')
                && body[i - 2].is_punct(':')
            {
                body[i - 3].ident().map(str::to_owned)
            } else {
                None
            };

            // Where does the potential argument list start? Straight `(`
            // or a turbofish `::<…>(`.
            let mut j = i + 1;
            if body.get(j).is_some_and(|t| t.is_punct(':'))
                && body.get(j + 1).is_some_and(|t| t.is_punct(':'))
                && body.get(j + 2).is_some_and(|t| t.is_punct('<'))
            {
                let mut c = Cursor { i: j + 2 };
                skip_generics(body, &mut c);
                j = c.i;
            }
            let is_call = body.get(j).is_some_and(|t| t.is_punct('('));

            if is_call {
                match name {
                    "unwrap" if is_method => {
                        // `.partial_cmp(..).unwrap()` is the float-ordering
                        // hazard; look back past the closed arg list.
                        if prev_call_is(body, i, "partial_cmp") {
                            sym.sites.push(Site {
                                line,
                                kind: SiteKind::PartialCmpUnwrap,
                            });
                        }
                        sym.sites.push(Site {
                            line,
                            kind: SiteKind::Unwrap,
                        });
                    }
                    "expect" if is_method => {
                        let msg = body.get(j + 1).and_then(|t| match &t.kind {
                            TokKind::Str(s) => Some(s.as_str()),
                            _ => None,
                        });
                        let sanctioned =
                            msg.is_some_and(|m| m.trim_start().starts_with("invariant"));
                        if prev_call_is(body, i, "partial_cmp") {
                            sym.sites.push(Site {
                                line,
                                kind: SiteKind::PartialCmpUnwrap,
                            });
                        }
                        if !sanctioned {
                            sym.sites.push(Site {
                                line,
                                kind: SiteKind::Expect,
                            });
                        }
                    }
                    _ => {}
                }
                // Ambient calls.
                if let Some(q) = &qualifier {
                    if AMBIENT_CALLS
                        .iter()
                        .any(|(ty, m)| q == ty && name == *m)
                    {
                        sym.sites.push(Site {
                            line,
                            kind: SiteKind::Ambient(format!("{q}::{name}")),
                        });
                    }
                }
                if !is_method
                    && AMBIENT_STDIO.contains(&name)
                    && matches!(qualifier.as_deref(), Some("io") | Some("std"))
                {
                    sym.sites.push(Site {
                        line,
                        kind: SiteKind::Ambient(format!("io::{name}")),
                    });
                }
                sym.calls.push(CallSite {
                    name: name.to_owned(),
                    qualifier,
                    method: is_method,
                    line,
                });
                i = j; // continue at the argument list
                continue;
            }

            // Ambient module path use: `fs::…`, `std::fs`, `env::var` —
            // an identifier head followed by `::`.
            if body.get(i + 1).is_some_and(|t| t.is_punct(':'))
                && body.get(i + 2).is_some_and(|t| t.is_punct(':'))
            {
                let head = if name == "std" {
                    body.get(i + 3).and_then(|t| t.ident())
                } else {
                    Some(name)
                };
                if let Some(h) = head {
                    if AMBIENT_MODULE_HEADS.contains(&h) {
                        sym.sites.push(Site {
                            line,
                            kind: SiteKind::Ambient(format!("{h}::")),
                        });
                        // Avoid double-reporting `std::fs` via both arms.
                        if name == "std" {
                            i += 4;
                            continue;
                        }
                    }
                }
            }
            i += 1;
            continue;
        }

        // Postfix indexing: `[` directly after an ident, `)`, or `]` is
        // an index expression (array types `[u8; N]`, array literals and
        // attribute groups all sit after non-postfix tokens; after a
        // keyword the bracket opens a slice pattern or an array literal —
        // `let [a, b] = pair`, `for x in [1, 2]`, `&mut [0; 4]`). A bare
        // full-range slice `[..]` cannot panic and is ignored.
        if t.is_punct('[') {
            const NOT_A_VALUE: [&str; 9] =
                ["let", "mut", "ref", "in", "return", "break", "match", "if", "while"];
            let postfix = i > 0
                && (body[i - 1].ident().is_some() && !NOT_A_VALUE.iter().any(|kw| body[i - 1].is_kw(kw))
                    || body[i - 1].is_punct(')')
                    || body[i - 1].is_punct(']'));
            if postfix {
                let end = match_bracket(body, i, '[', ']');
                let inner = &body[i + 1..end.min(body.len())];
                let full_range =
                    inner.len() == 2 && inner[0].is_punct('.') && inner[1].is_punct('.');
                if !inner.is_empty() && !full_range {
                    sym.sites.push(Site {
                        line: t.line,
                        kind: SiteKind::Index,
                    });
                }
            }
            i += 1;
            continue;
        }

        i += 1;
    }
}

/// Is the token before the `.` at `dot_idx - 1` the close of a call to
/// `callee`? Used to spot `.partial_cmp(…).unwrap()` chains.
fn prev_call_is(body: &[Tok], method_idx: usize, callee: &str) -> bool {
    // body[method_idx] is the method name; body[method_idx-1] is `.`.
    if method_idx < 2 || !body[method_idx - 1].is_punct('.') {
        return false;
    }
    let mut i = method_idx - 2;
    if !body[i].is_punct(')') {
        return false;
    }
    // Walk back to the matching `(`.
    let mut depth = 0i32;
    loop {
        if body[i].is_punct(')') {
            depth += 1;
        } else if body[i].is_punct('(') {
            depth -= 1;
            if depth == 0 {
                break;
            }
        }
        if i == 0 {
            return false;
        }
        i -= 1;
    }
    i > 0 && body[i - 1].ident() == Some(callee)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::token::tokenize;

    fn parse(src: &str) -> FileSymbols {
        parse_file("crates/demo/src/lib.rs", "demo", &tokenize(src))
    }

    #[test]
    fn free_fns_and_methods_get_qualified_names() {
        let s = parse(
            "pub fn top() {}\n\
             impl Journal { pub fn append(&mut self) {} }\n\
             trait Pump { fn kick(&self) { self.run(); } }\n",
        );
        let names: Vec<String> = s.fns.iter().map(|f| f.qualified()).collect();
        assert_eq!(names, ["top", "Journal::append", "Pump::kick"]);
    }

    #[test]
    fn impl_trait_for_type_uses_target_type() {
        let s = parse("impl Event for StorageOp { fn dispatch(self) { run(); } }");
        assert_eq!(s.fns[0].qualified(), "StorageOp::dispatch");
        assert_eq!(s.fns[0].calls[0].name, "run");
    }

    #[test]
    fn cfg_test_mods_are_excluded() {
        let s = parse(
            "pub fn real() {}\n\
             #[cfg(test)]\nmod tests { fn helper() { x.unwrap(); } }\n",
        );
        assert_eq!(s.fns.len(), 1);
        assert_eq!(s.fns[0].name, "real");
    }

    #[test]
    fn panic_sites_are_classified() {
        let s = parse(
            "fn f(v: Vec<u32>, i: usize) -> u32 {\n\
                 let a = v.get(i).unwrap();\n\
                 let b = v.first().expect(\"oops\");\n\
                 let c = v.first().expect(\"invariant: non-empty by admission\");\n\
                 if i > 9 { panic!(\"no\"); }\n\
                 v[i] + a + b + c\n\
             }\n",
        );
        let kinds: Vec<String> = s.fns[0].sites.iter().map(|s| s.kind.label()).collect();
        assert_eq!(kinds, ["unwrap", "expect", "panic!", "index"]);
    }

    #[test]
    fn full_range_slices_and_attributes_are_not_indexing() {
        let s = parse(
            "fn f(v: &[u8]) -> &[u8] {\n\
                 #[allow(dead_code)]\n\
                 let w = &v[..];\n\
                 let x: [u8; 4] = [0, 1, 2, 3];\n\
                 let _ = x;\n\
                 w\n\
             }\n",
        );
        assert!(
            s.fns[0].sites.iter().all(|s| s.kind != SiteKind::Index),
            "sites: {:?}",
            s.fns[0].sites
        );
        let s2 = parse("fn g(v: &[u8], a: usize) -> &[u8] { &v[a..] }");
        assert!(s2.fns[0].sites.iter().any(|s| s.kind == SiteKind::Index));
        // A slice pattern or an array literal after a keyword is not one
        // either; an index after a raw identifier spelled like one is.
        let s3 = parse(
            "fn h(s: &mut [u64; 4]) -> u64 {\n\
                 let [a, _, c, _] = s;\n\
                 for x in [1u64, 2] { *a += x; }\n\
                 let t = &mut [0u64; 2];\n\
                 *a + *c + t.len() as u64\n\
             }\n",
        );
        assert!(s3.fns[0].sites.is_empty(), "sites: {:?}", s3.fns[0].sites);
        let s4 = parse("fn k(r#in: &[u8]) -> u8 { r#in[3] }");
        assert!(s4.fns[0].sites.iter().any(|s| s.kind == SiteKind::Index));
    }

    #[test]
    fn turbofish_calls_resolve_to_the_callee() {
        let s = parse("fn f() { frob::<Vec<BTreeMap<u32, Vec<u8>>>>(1); g.h::<u8>(); }");
        let calls: Vec<&str> = s.fns[0].calls.iter().map(|c| c.name.as_str()).collect();
        assert_eq!(calls, ["frob", "h"]);
        assert_eq!(s.fns[0].calls[0].qualifier, None);
        assert!(s.fns[0].calls[1].method);
    }

    #[test]
    fn qualified_calls_carry_their_qualifier() {
        let s = parse("fn f() { Journal::append(j); engine::persist(s); }");
        assert_eq!(s.fns[0].calls[0].qualifier.as_deref(), Some("Journal"));
        assert_eq!(s.fns[0].calls[1].qualifier.as_deref(), Some("engine"));
    }

    #[test]
    fn ambient_sites_are_recorded() {
        let s = parse(
            "fn f() {\n\
                 let d = std::fs::read_to_string(\"x\");\n\
                 let e = env::var(\"HOME\");\n\
                 let c = Command::new(\"ls\");\n\
             }\n",
        );
        let labels: Vec<String> = s.fns[0]
            .sites
            .iter()
            .filter(|s| !s.kind.is_panic())
            .map(|s| s.kind.label())
            .collect();
        assert_eq!(labels, ["fs::", "env::", "Command::new"]);
    }

    #[test]
    fn partial_cmp_unwrap_is_flagged() {
        let s = parse("fn f(a: f64, b: f64) { v.sort_by(|x, y| x.partial_cmp(y).unwrap()); }");
        assert!(s.fns[0]
            .sites
            .iter()
            .any(|s| s.kind == SiteKind::PartialCmpUnwrap));
    }

    #[test]
    fn structs_record_derives_and_float_fields() {
        let s = parse(
            "#[derive(Debug, PartialOrd, Clone)]\n\
             pub struct Score { pub value: f64, pub name: String }\n\
             #[derive(Ord)]\nstruct T(f32);\n\
             struct Plain { x: u32 }\n",
        );
        assert_eq!(s.structs.len(), 3);
        assert_eq!(s.structs[0].derives, ["Debug", "PartialOrd", "Clone"]);
        assert_eq!(s.structs[0].float_field_lines.len(), 1);
        assert_eq!(s.structs[1].float_field_lines.len(), 1);
        assert!(s.structs[2].float_field_lines.is_empty());
    }

    #[test]
    fn ord_impls_are_recorded() {
        let s = parse(
            "impl Ord for Score { fn cmp(&self, o: &Self) -> Ordering { todo!() } }\n\
             impl PartialOrd for Score {}\n",
        );
        assert_eq!(s.ord_impls.len(), 2);
        assert_eq!(s.ord_impls[0], ("Score".to_owned(), 1, true));
        assert!(!s.ord_impls[1].2);
    }

    #[test]
    fn raw_identifiers_and_shadowed_names_parse() {
        let s = parse(
            "fn r#match() { r#type(); }\n\
             fn shadow() { let shadow = 1; shadow2(shadow); }\n",
        );
        assert_eq!(s.fns[0].name, "match");
        assert_eq!(s.fns[0].calls[0].name, "type");
        assert_eq!(s.fns[1].calls[0].name, "shadow2");
    }

    #[test]
    fn parser_is_total_on_unbalanced_soup() {
        for junk in [
            "fn f( {",
            "impl {",
            "mod",
            "struct",
            "fn",
            "impl Ord for {}",
            "fn x() { [ }",
            "trait T { fn a(&self)",
            "#[derive(]",
        ] {
            let a = parse(junk);
            let b = parse(junk);
            assert_eq!(a, b);
        }
    }
}
