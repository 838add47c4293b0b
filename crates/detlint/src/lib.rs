//! # detlint — the call-graph half of the determinism lint
//!
//! The repo's core claim — byte-identical experiment output at any thread
//! count, and prefix-consistent backup images — rests on discipline that no
//! type system enforces. Where the rule is about *which item a path
//! names* — no wall-clock reads, no ambient randomness, no hash-ordered
//! collections, no threads outside the trial harness, no `unsafe` without a
//! `// SAFETY:` comment — clippy enforces it on resolved paths, configured
//! by the root `clippy.toml` and `[workspace.lints]` (DESIGN.md §7). This
//! crate keeps the rules that need to know what *reaches* what: whether a
//! panic or an ambient-state touch lies within K call edges of a hot-path
//! entry point, and whether a float sits in an ordering position.
//!
//! Everything is hand-rolled — no `syn`, no dependencies — so the lint
//! builds fully offline and can never be broken by a vendored-dep change.
//! One lexer ([`token`]) feeds an item parser ([`parse`]) that builds a
//! per-crate symbol table and a conservative name-resolved **call graph**
//! ([`graph`], queryable via `detlint graph --dot`), on which three flow
//! rules run ([`flow`]). The lexer also sets each line's comment text
//! aside: that is where waivers are read.
//!
//! ## Rules
//!
//! | rule | invariant |
//! |------|-----------|
//! | `panic_reachable` | no panic source (`unwrap`, non-invariant `expect`, `panic!`, indexing, …) within K call edges of a replication entry point |
//! | `sim_purity` | nothing reachable from a kernel event handler touches `std::fs`/`io`/`net`/`process`/`env` |
//! | `float_ordering` | no `f32`/`f64` in `Ord` impls, `BTreeMap` keys, or digest/export-reachable state |
//!
//! `.expect("invariant: …")` — a message that *names the invariant* — is
//! the sanctioned way to assert unreachable states on the hot path;
//! `panic_reachable` accepts it and flags everything else. Every finding
//! ratchets against `detlint.lock` (see [`lock`]).
//!
//! ## Waivers
//!
//! A finding is waived by a comment on the same line or the line above:
//!
//! ```text
//! // detlint: allow(panic_reachable) — index bounded by the check above
//! ```
//!
//! The reason after the closing paren is mandatory; a reasonless waiver is
//! itself reported. Findings that are accepted debt live in `detlint.lock`
//! instead — fingerprinted by rule + path + symbol (never line numbers)
//! and burned down monotonically via `--update-lock`.

#![forbid(unsafe_code)]

use std::collections::BTreeMap;
use std::fmt;
use std::path::{Path, PathBuf};

pub mod flow;
pub mod graph;
pub mod lock;
pub mod parse;
pub mod token;

pub use graph::CallGraph;
pub use lock::{ratchet, Lock, RatchetReport};

/// The three rule identifiers, in reporting order.
pub const RULE_NAMES: [&str; 3] = ["panic_reachable", "sim_purity", "float_ordering"];

/// One diagnostic.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    /// Workspace-relative path, forward slashes.
    pub file: String,
    /// 1-based line number.
    pub line: usize,
    /// Rule identifier (one of [`RULE_NAMES`]).
    pub rule: &'static str,
    /// Enclosing symbol (qualified fn or type name); `None` for a
    /// reasonless waiver, which belongs to no symbol. Part of the lock
    /// fingerprint, so it must be stable under unrelated line edits.
    pub symbol: Option<String>,
    /// Human-readable explanation.
    pub message: String,
}

impl fmt::Display for Finding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}: {} — {}",
            self.file, self.line, self.rule, self.message
        )
    }
}

/// Lint configuration, loaded from `detlint.toml` (see [`parse_config`]
/// and [`Config::default_repo`]).
#[derive(Debug, Clone)]
pub struct Config {
    /// Crates (directory names under `crates/`) whose `src/` state
    /// `float_ordering` polices: those whose ordering can reach experiment
    /// output or backup images.
    pub deterministic_crates: Vec<String>,
    /// `panic_reachable` entry-point patterns (see
    /// [`CallGraph::match_pattern`] for the pattern grammar).
    pub panic_entry_points: Vec<String>,
    /// Maximum call-edge distance `panic_reachable` explores (the K in
    /// "reachable within K call edges").
    pub panic_max_depth: usize,
    /// `sim_purity` entry-point patterns (kernel event handlers).
    pub purity_entry_points: Vec<String>,
    /// Maximum call-edge distance `sim_purity` explores.
    pub purity_max_depth: usize,
}

impl Config {
    /// An empty configuration (nothing scoped, no entry points).
    pub fn empty() -> Self {
        Config {
            deterministic_crates: Vec::new(),
            panic_entry_points: Vec::new(),
            panic_max_depth: 12,
            purity_entry_points: Vec::new(),
            purity_max_depth: 16,
        }
    }

    /// The shipped `detlint.toml`, compiled in. Used when no config file
    /// is present so the binary is useful standalone; being the same file,
    /// it cannot drift from the config the repository is checked under.
    pub fn default_repo() -> Self {
        parse_config(include_str!("../../../detlint.toml"))
            .expect("invariant: the shipped detlint.toml parses")
    }

    /// Is `path` in the `src/` of a crate `float_ordering` polices?
    pub(crate) fn polices_floats(&self, path: &str) -> bool {
        path.contains("/src/")
            && crate_of(path).is_some_and(|c| self.deterministic_crates.iter().any(|d| d == c))
    }
}

/// A waiver parsed from a comment: `detlint: allow(rule, ...) — reason`.
#[derive(Debug, Clone)]
struct Waiver {
    line: usize,
    rules: Vec<String>,
    has_reason: bool,
}

/// Every waiver in a file's comments.
fn parse_waivers(comments: &[token::Comment]) -> Vec<Waiver> {
    const MARKER: &str = "detlint: allow(";
    let mut out = Vec::new();
    for c in comments {
        let mut from = 0;
        while let Some(pos) = c.text[from..].find(MARKER) {
            let start = from + pos + MARKER.len();
            let Some(close) = c.text[start..].find(')') else {
                break;
            };
            // The reason is whatever follows the closing paren, minus
            // decorative separators. It must say *something*.
            let reason = c.text[start + close + 1..]
                .trim_start_matches([' ', '\t', '—', '-', '–', ':'])
                .trim();
            out.push(Waiver {
                line: c.line,
                rules: c.text[start..start + close]
                    .split(',')
                    .map(|r| r.trim().to_owned())
                    .filter(|r| !r.is_empty())
                    .collect(),
                has_reason: !reason.is_empty(),
            });
            from = start + close + 1;
        }
    }
    out
}

/// Is `f` waived by a reasoned waiver on its own line or the line above?
fn is_waived(f: &Finding, waivers: &[Waiver]) -> bool {
    waivers.iter().any(|w| {
        w.has_reason
            && (w.line == f.line || w.line + 1 == f.line)
            && w.rules.iter().any(|r| r == f.rule)
    })
}

/// Reasonless waivers are findings in their own right — otherwise the
/// waiver syntax silently degrades into a no-questions-asked off switch.
fn reasonless_waivers(path: &str, waivers: &[Waiver]) -> Vec<Finding> {
    waivers
        .iter()
        .filter(|w| !w.has_reason)
        .filter_map(|w| {
            let rule = RULE_NAMES
                .into_iter()
                .find(|r| w.rules.iter().any(|x| x == r))?;
            Some(Finding {
                file: path.to_owned(),
                line: w.line,
                rule,
                symbol: None,
                message: format!(
                    "waiver `allow({})` has no reason; write \
                     `// detlint: allow(rule) — why this is sound`",
                    w.rules.join(", ")
                ),
            })
        })
        .collect()
}

/// Crate directory name for a `crates/<name>/...` path, if any.
pub(crate) fn crate_of(path: &str) -> Option<&str> {
    path.strip_prefix("crates/")?.split('/').next()
}

// ---------------------------------------------------------------------------
// Workspace walk
// ---------------------------------------------------------------------------

/// Collect every `.rs` file under `crates/*/src` of the workspace at
/// `root`, sorted, so output order — like everything else in this repo —
/// is deterministic. The graph models production code: `tests/` trees
/// never feed the symbol table (test helpers share names like `apply` with
/// hot-path fns and would pollute reachability), and `#[cfg(test)]` mods
/// are dropped by the parser itself.
pub fn source_files(root: &Path) -> std::io::Result<Vec<PathBuf>> {
    let mut out = Vec::new();
    let crates = root.join("crates");
    if crates.is_dir() {
        for entry in std::fs::read_dir(&crates)? {
            collect_rs(&entry?.path().join("src"), &mut out)?;
        }
    }
    out.sort();
    Ok(out)
}

fn collect_rs(dir: &Path, out: &mut Vec<PathBuf>) -> std::io::Result<()> {
    if !dir.is_dir() {
        return Ok(());
    }
    for entry in std::fs::read_dir(dir)? {
        let p = entry?.path();
        if p.is_dir() {
            collect_rs(&p, out)?;
        } else if p.extension().is_some_and(|e| e == "rs") {
            out.push(p);
        }
    }
    Ok(())
}

/// The result of a full analysis: the call graph (queryable via
/// `detlint graph`) plus every finding.
pub struct Analysis {
    /// The workspace call graph over production (`src/`) code.
    pub graph: CallGraph,
    /// All findings, sorted and deduped, with inline waivers already
    /// applied. Callers diff them against `detlint.lock` via
    /// [`lock::ratchet`].
    pub findings: Vec<Finding>,
}

/// Run the full analysis: the item parser + call graph over every
/// `crates/*/src` file, feeding the three flow rules (`panic_reachable`,
/// `sim_purity`, `float_ordering`), then the inline waivers.
pub fn analyze_workspace(root: &Path, config: &Config) -> std::io::Result<Analysis> {
    let mut fns = Vec::new();
    let mut parsed: Vec<(String, parse::FileSymbols)> = Vec::new();
    let mut findings: Vec<Finding> = Vec::new();
    let mut waivers: BTreeMap<String, Vec<Waiver>> = BTreeMap::new();
    for file in source_files(root)? {
        let rel = file
            .strip_prefix(root)
            .unwrap_or(&file)
            .to_string_lossy()
            .replace('\\', "/");
        let source = std::fs::read_to_string(&file)?;
        let krate = crate_of(&rel).unwrap_or("workspace").to_owned();
        let (toks, comments) = token::tokenize_with_comments(&source);
        findings.extend(flow::float_keyed_collections(&rel, &toks, config));
        let syms = parse::parse_file(&rel, &krate, &toks);
        fns.extend(syms.fns.clone());
        parsed.push((rel.clone(), syms));
        waivers.insert(rel, parse_waivers(&comments));
    }
    let graph = CallGraph::build(fns);
    findings.extend(flow::panic_reachable(&graph, config));
    findings.extend(flow::sim_purity(&graph, config));
    findings.extend(flow::float_ordering(&parsed, config));

    findings.retain(|f| !waivers.get(&f.file).is_some_and(|ws| is_waived(f, ws)));
    for (path, ws) in &waivers {
        findings.extend(reasonless_waivers(path, ws));
    }
    findings.sort_by(|a, b| {
        (&a.file, a.line, a.rule, &a.symbol).cmp(&(&b.file, b.line, b.rule, &b.symbol))
    });
    findings.dedup();
    Ok(Analysis { graph, findings })
}

// ---------------------------------------------------------------------------
// Config file (TOML subset)
// ---------------------------------------------------------------------------

/// Parse `detlint.toml`. Supported subset: `[section.name]` headers,
/// `key = ["a", "b"]` string arrays (single- or multi-line), bare
/// `key = 12` integers, `#` comments. Sections map onto [`Config`]:
///
/// - `[rules.float_ordering]` / `crates = [...]` — the crates it polices;
/// - `[rules.panic_reachable]` / `entry_points = [...]`, `max_depth = K`;
/// - `[rules.sim_purity]` / `entry_points = [...]`, `max_depth = K`.
pub fn parse_config(text: &str) -> Result<Config, String> {
    let mut cfg = Config::empty();
    let mut section = String::new();
    let mut pending_key: Option<String> = None;
    let mut pending_val = String::new();

    let mut apply = |section: &str, key: &str, value: TomlValue| -> Result<(), String> {
        let strings = |value: TomlValue| -> Result<Vec<String>, String> {
            match value {
                TomlValue::Strings(v) => Ok(v),
                TomlValue::Int(_) => Err(format!("[{section}] `{key}` expects a string array")),
            }
        };
        let int = |value: TomlValue| -> Result<usize, String> {
            match value {
                TomlValue::Int(n) => Ok(n),
                TomlValue::Strings(_) => Err(format!("[{section}] `{key}` expects an integer")),
            }
        };
        if section == "rules.float_ordering" && key == "crates" {
            cfg.deterministic_crates = strings(value)?;
        } else if section == "rules.panic_reachable" && key == "entry_points" {
            cfg.panic_entry_points = strings(value)?;
        } else if section == "rules.panic_reachable" && key == "max_depth" {
            cfg.panic_max_depth = int(value)?;
        } else if section == "rules.sim_purity" && key == "entry_points" {
            cfg.purity_entry_points = strings(value)?;
        } else if section == "rules.sim_purity" && key == "max_depth" {
            cfg.purity_max_depth = int(value)?;
        } else {
            return Err(format!("unrecognized `{key}` in [{section}]"));
        }
        Ok(())
    };

    for raw in text.lines() {
        let line = strip_toml_comment(raw);
        let t = line.trim();
        if let Some(key) = pending_key.clone() {
            pending_val.push_str(line.trim());
            if balanced(&pending_val) {
                apply(
                    &section,
                    &key,
                    TomlValue::Strings(parse_string_array(&pending_val)?),
                )?;
                pending_key = None;
                pending_val.clear();
            }
            continue;
        }
        if t.is_empty() {
            continue;
        }
        if let Some(name) = t.strip_prefix('[').and_then(|s| s.strip_suffix(']')) {
            section = name.trim().to_owned();
            continue;
        }
        let Some((k, v)) = t.split_once('=') else {
            return Err(format!("unparseable line: `{t}`"));
        };
        let (k, v) = (k.trim().to_owned(), v.trim().to_owned());
        if let Ok(n) = v.parse::<usize>() {
            apply(&section, &k, TomlValue::Int(n))?;
        } else if balanced(&v) {
            apply(&section, &k, TomlValue::Strings(parse_string_array(&v)?))?;
        } else {
            pending_key = Some(k);
            pending_val = v;
        }
    }
    if pending_key.is_some() {
        return Err("unterminated array at end of file".to_owned());
    }
    Ok(cfg)
}

/// A parsed TOML-subset value: a string array or a bare integer.
enum TomlValue {
    Strings(Vec<String>),
    Int(usize),
}

/// Strip a `#` comment, respecting double-quoted strings.
fn strip_toml_comment(line: &str) -> &str {
    let mut in_str = false;
    for (i, c) in line.char_indices() {
        match c {
            '"' => in_str = !in_str,
            '#' if !in_str => return &line[..i],
            _ => {}
        }
    }
    line
}

fn balanced(v: &str) -> bool {
    let mut depth = 0i32;
    let mut in_str = false;
    for c in v.chars() {
        match c {
            '"' => in_str = !in_str,
            '[' if !in_str => depth += 1,
            ']' if !in_str => depth -= 1,
            _ => {}
        }
    }
    depth == 0 && !in_str
}

fn parse_string_array(v: &str) -> Result<Vec<String>, String> {
    let t = v.trim();
    let inner = t
        .strip_prefix('[')
        .and_then(|s| s.strip_suffix(']'))
        .ok_or_else(|| format!("expected a string array, got `{t}`"))?;
    let mut out = Vec::new();
    let mut rest = inner.trim();
    while !rest.is_empty() {
        let Some(stripped) = rest.strip_prefix('"') else {
            return Err(format!("expected a quoted string at `{rest}`"));
        };
        let Some(end) = stripped.find('"') else {
            return Err(format!("unterminated string at `{rest}`"));
        };
        out.push(stripped[..end].to_owned());
        rest = stripped[end + 1..]
            .trim_start_matches([',', ' ', '\t'])
            .trim();
    }
    Ok(out)
}

// ---------------------------------------------------------------------------
// Reports
// ---------------------------------------------------------------------------

/// Render findings as the `--fix-list` machine-readable JSON report.
pub fn render_json(findings: &[Finding]) -> String {
    let mut s = String::from("{\n  \"total\": ");
    s.push_str(&findings.len().to_string());
    s.push_str(",\n  \"findings\": [");
    for (i, f) in findings.iter().enumerate() {
        if i > 0 {
            s.push(',');
        }
        s.push_str("\n    {\"file\": \"");
        json_escape(&mut s, &f.file);
        s.push_str("\", \"line\": ");
        s.push_str(&f.line.to_string());
        s.push_str(", \"rule\": \"");
        json_escape(&mut s, f.rule);
        s.push_str("\", \"symbol\": ");
        match &f.symbol {
            Some(sym) => {
                s.push('"');
                json_escape(&mut s, sym);
                s.push('"');
            }
            None => s.push_str("null"),
        }
        s.push_str(", \"message\": \"");
        json_escape(&mut s, &f.message);
        s.push_str("\"}");
    }
    if !findings.is_empty() {
        s.push_str("\n  ");
    }
    s.push_str("]\n}\n");
    s
}

fn json_escape(out: &mut String, v: &str) {
    for c in v.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::token::tokenize_with_comments;

    /// The waivers the one lexer finds in `src`.
    fn waivers_of(src: &str) -> Vec<Waiver> {
        parse_waivers(&tokenize_with_comments(src).1)
    }

    fn finding(line: usize, rule: &'static str) -> Finding {
        Finding {
            file: "crates/storage/src/x.rs".to_owned(),
            line,
            rule,
            symbol: Some("x::f".to_owned()),
            message: "m".to_owned(),
        }
    }

    #[test]
    fn lexer_strips_string_contents() {
        // A waiver spelled inside a string literal is not a comment.
        let src = r#"let s = "detlint: allow(panic_reachable) — in a string"; f(s);"#;
        assert!(waivers_of(src).is_empty());
        let src = "let s = \"x\"; // detlint: allow(panic_reachable) — after a string\n";
        assert_eq!(waivers_of(src).len(), 1);
    }

    #[test]
    fn lexer_strips_raw_and_byte_strings() {
        let src = "let a = r#\"// detlint: allow(sim_purity) \"quoted\" inside\"#; \
                   let b = br\"/* detlint: allow(sim_purity) */\"; g(a, b);";
        assert!(waivers_of(src).is_empty());
    }

    #[test]
    fn lexer_routes_line_comments_to_comment_channel() {
        let src = "let x = 1;\nlet y = v[x]; // detlint: allow(panic_reachable) — bounded above\n";
        let ws = waivers_of(src);
        assert_eq!(ws.len(), 1);
        assert_eq!(ws[0].line, 2);
        assert_eq!(ws[0].rules, ["panic_reachable"]);
        assert!(ws[0].has_reason);
    }

    #[test]
    fn lexer_handles_nested_block_comments() {
        let src = "a(); /* outer /* inner */\n detlint: allow(sim_purity) — config load */ b();";
        let ws = waivers_of(src);
        assert_eq!(ws.len(), 1);
        assert_eq!(ws[0].line, 2, "a block comment's text keeps its own line");
        assert!(ws[0].has_reason);
    }

    #[test]
    fn lexer_distinguishes_char_literals_from_lifetimes() {
        // A quote char literal must not open a string state that would
        // swallow the comment after it.
        let src = "let q = '\"'; fn f<'a>(x: &'a str) -> &'a str { x } \
                   // detlint: allow(float_ordering) — r";
        assert_eq!(waivers_of(src).len(), 1);
    }

    #[test]
    fn strings_and_comments_are_never_findings() {
        // Panic sources and ambient calls spelled in comments and strings
        // of a reachable fn are not sites.
        let src = "//! docs mention x.unwrap() and std::fs::read\n\
                   pub fn persist() -> &'static str {\n\
                       /* panic!(\"in a block comment\") */\n\
                       \"v[0].unwrap() std::process::exit(1)\"\n\
                   }\n";
        let syms = parse::parse_file(
            "crates/storage/src/engine.rs",
            "storage",
            &token::tokenize(src),
        );
        let graph = CallGraph::build(syms.fns);
        let cfg = Config::default_repo();
        assert!(flow::panic_reachable(&graph, &cfg).is_empty());
        assert!(flow::sim_purity(&graph, &cfg).is_empty());
    }

    #[test]
    fn waiver_requires_reason() {
        let with_reason =
            waivers_of("// detlint: allow(panic_reachable) — bounded\nlet y = v[0];\n");
        assert!(is_waived(&finding(2, "panic_reachable"), &with_reason));
        assert!(reasonless_waivers("crates/storage/src/x.rs", &with_reason).is_empty());

        let reasonless = waivers_of("// detlint: allow(panic_reachable)\nlet y = v[0];\n");
        // The original finding survives AND the empty waiver is reported.
        assert!(!is_waived(&finding(2, "panic_reachable"), &reasonless));
        let reported = reasonless_waivers("crates/storage/src/x.rs", &reasonless);
        assert_eq!(reported.len(), 1);
        assert_eq!((reported[0].line, reported[0].rule), (1, "panic_reachable"));
        assert!(reported[0].message.contains("no reason"));
    }

    #[test]
    fn waiver_covers_same_line_and_next_line_only() {
        let same = waivers_of("let y = v[0]; // detlint: allow(panic_reachable) — bounded\n");
        assert!(is_waived(&finding(1, "panic_reachable"), &same));
        assert!(
            !is_waived(&finding(1, "sim_purity"), &same),
            "waives only the rule it names"
        );

        let too_far = waivers_of("// detlint: allow(panic_reachable) — bounded\n\nlet y = v[0];\n");
        assert!(
            !is_waived(&finding(3, "panic_reachable"), &too_far),
            "two lines up must not apply"
        );
    }

    #[test]
    fn float_rule_scopes_to_deterministic_crate_src() {
        let cfg = Config::default_repo();
        let toks = token::tokenize("pub type M = BTreeMap<f64, u64>;\n");
        let at = |path| flow::float_keyed_collections(path, &toks, &cfg).len();
        assert_eq!(at("crates/storage/src/x.rs"), 1);
        // tests/ of a deterministic crate: out of scope.
        assert_eq!(at("crates/storage/tests/x.rs"), 0);
        // src/ of a crate outside the list: out of scope.
        assert_eq!(at("crates/bench/src/x.rs"), 0);
    }

    #[test]
    fn the_built_in_config_is_the_shipped_file() {
        let cfg = Config::default_repo();
        assert!(
            cfg.polices_floats("crates/ecom/src/x.rs"),
            "ecom is a deterministic crate in detlint.toml: {:?}",
            cfg.deterministic_crates
        );
        assert!(cfg
            .panic_entry_points
            .iter()
            .any(|e| e == "engine::persist"));
        assert!(cfg.purity_entry_points.iter().any(|e| e == "*::dispatch"));
    }

    #[test]
    fn config_roundtrip_parses_every_section() {
        let toml = r##"
            # comment
            [rules.float_ordering]
            crates = ["sim", "storage", "core", "minidb", "plugin", "chaos"]

            [rules.panic_reachable]
            entry_points = ["engine::persist", "Journal::*"]
            max_depth = 7

            [rules.sim_purity]
            entry_points = ["*::dispatch"]
            max_depth = 9
        "##;
        let cfg = parse_config(toml).expect("parses");
        assert_eq!(
            cfg.deterministic_crates,
            ["sim", "storage", "core", "minidb", "plugin", "chaos"].map(str::to_owned)
        );
        assert_eq!(
            cfg.panic_entry_points,
            ["engine::persist", "Journal::*"].map(str::to_owned)
        );
        assert_eq!(cfg.panic_max_depth, 7);
        assert_eq!(cfg.purity_entry_points, ["*::dispatch"].map(str::to_owned));
        assert_eq!(cfg.purity_max_depth, 9);
    }

    #[test]
    fn config_rejects_unknown_rules_and_keys() {
        assert!(parse_config("[allow.made_up]\npaths = [\"x\"]\n").is_err());
        assert!(parse_config("[rules.float_ordering]\nbogus = [\"x\"]\n").is_err());
        assert!(parse_config("[rules.float_ordering]\ncrates = [\"x\"\n").is_err());
        // Sections for rules detlint does not run are refused, not
        // silently ignored.
        assert!(parse_config("[allow.wall_clock]\npaths = [\"x\"]\n").is_err());
        assert!(parse_config("[rules.hash_collections]\ncrates = [\"x\"]\n").is_err());
        assert!(parse_config("[rules.hot_path_unwrap]\npaths = [\"x\"]\n").is_err());
        assert!(parse_config("[rules.panic_reachable]\nmax_depth = [\"x\"]\n").is_err());
        assert!(parse_config("[rules.sim_purity]\nentry_points = 3\n").is_err());
    }

    #[test]
    fn json_report_shape() {
        let findings = vec![
            Finding {
                file: "a/b.rs".to_owned(),
                line: 3,
                rule: "panic_reachable",
                symbol: None,
                message: "a \"quoted\" message".to_owned(),
            },
            Finding {
                file: "a/c.rs".to_owned(),
                line: 9,
                rule: "panic_reachable",
                symbol: Some("Engine::persist".to_owned()),
                message: "m".to_owned(),
            },
        ];
        let json = render_json(&findings);
        assert!(json.contains("\"total\": 2"));
        assert!(json.contains("\"file\": \"a/b.rs\""));
        assert!(json.contains("\"line\": 3"));
        assert!(json.contains("\"symbol\": null"));
        assert!(json.contains("\"symbol\": \"Engine::persist\""));
        assert!(json.contains("\\\"quoted\\\""));
        assert!(render_json(&[]).contains("\"total\": 0"));
    }
}
