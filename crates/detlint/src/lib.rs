//! # detlint — workspace-wide determinism & safety lint
//!
//! The repo's core claim — byte-identical experiment output at any thread
//! count, and prefix-consistent backup images — rests on discipline that no
//! type system enforces: no wall-clock reads inside simulated code, no
//! ambient randomness, no hash-order iteration where it can reach output,
//! no stray threads, no unexplained `unsafe`, no bare `unwrap()` on
//! replication hot paths. This crate encodes that discipline as
//! machine-checked rules so CI fails the moment a PR reintroduces a
//! nondeterministic input (DESIGN.md "Determinism invariants").
//!
//! Everything is hand-rolled — no `syn`, no dependencies — so the lint
//! builds fully offline and can never be broken by a vendored-dep change.
//! Two analysis layers share one front end:
//!
//! - a per-line **lexer** ([`lex`]) feeding six token rules (string/char
//!   literal contents blanked, comments routed to their own channel, so
//!   `"Instant::now"` in a string or comment is never flagged);
//! - a full **tokenizer** ([`token`]) + **item parser** ([`parse`])
//!   building a per-crate symbol table and a conservative name-resolved
//!   **call graph** ([`graph`], queryable via `detlint graph --dot`),
//!   feeding three flow rules ([`flow`]).
//!
//! ## Rules
//!
//! Token rules (hard-fail — the tree is clean and stays clean):
//!
//! | rule | invariant |
//! |------|-----------|
//! | `wall_clock` | no `Instant::now` / `SystemTime` outside the sim clock |
//! | `ambient_rng` | no `thread_rng` / `from_entropy` / `OsRng` — all randomness flows from `DetRng` |
//! | `hash_collections` | no `HashMap`/`HashSet` in deterministic crates' `src/` — use `BTreeMap`/`BTreeSet` |
//! | `thread_spawn` | no `thread::spawn` outside the trial harness |
//! | `unsafe_safety` | every `unsafe` is preceded by a `// SAFETY:` comment |
//! | `hot_path_unwrap` | legacy file-list unwrap ban (superseded by `panic_reachable`) |
//!
//! Flow rules (ratcheted against `detlint.lock` — see [`lock`]):
//!
//! | rule | invariant |
//! |------|-----------|
//! | `panic_reachable` | no panic source (`unwrap`, non-invariant `expect`, `panic!`, indexing, …) within K call edges of a replication entry point |
//! | `sim_purity` | nothing reachable from a kernel event handler touches `std::fs`/`io`/`net`/`process`/`env` |
//! | `float_ordering` | no `f32`/`f64` in `Ord` impls, `BTreeMap` keys, or digest/export-reachable state |
//!
//! `.expect("invariant: …")` — a message that *names the invariant* — is
//! the sanctioned way to assert unreachable states on the hot path;
//! `panic_reachable` accepts it and flags everything else.
//!
//! ## Waivers
//!
//! A finding is waived by a comment on the same line or the line above:
//!
//! ```text
//! // detlint: allow(wall_clock) — batch wall-clock is reporting-only
//! ```
//!
//! The reason after the closing paren is mandatory; a reasonless waiver is
//! itself reported. File-level allowlists live in `detlint.toml` at the
//! workspace root. Flow-rule findings that are accepted debt live in
//! `detlint.lock` instead — fingerprinted by rule + path + symbol (never
//! line numbers) and burned down monotonically via `--update-lock`.

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

// ---------------------------------------------------------------------------
// Lexer
// ---------------------------------------------------------------------------

/// One source line, split into its code text and its comment text.
///
/// String/char literal *contents* are blanked out of `code` (each literal
/// collapses to a single space), so pattern scans can never match inside
/// them. Comment text — line comments, doc comments, and each line's share
/// of a (possibly nested) block comment — lands in `comment`, where the
/// waiver and `SAFETY:` scanners look.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Line {
    /// Code with literal contents removed.
    pub code: String,
    /// Comment text on this line.
    pub comment: String,
}

/// Split `source` into per-line code/comment channels.
pub fn lex(source: &str) -> Vec<Line> {
    #[derive(Clone, Copy, PartialEq)]
    enum State {
        Normal,
        LineComment,
        /// Nested block comment at the given depth.
        Block(u32),
        /// Ordinary (escaped) string literal.
        Str,
        /// Raw string terminated by `"` followed by this many `#`.
        RawStr(u32),
    }

    let chars: Vec<char> = source.chars().collect();
    let mut lines: Vec<Line> = vec![Line::default()];
    let mut st = State::Normal;
    let mut i = 0usize;

    // Can `chars[idx]` start a raw-string prefix? `r` / `br` only count when
    // not glued onto a preceding identifier (`for"x"` is not valid Rust, but
    // `r#raw_ident` is, and must not be read as a raw string).
    let prev_is_ident = |idx: usize, chars: &[char]| -> bool {
        idx > 0 && (chars[idx - 1].is_alphanumeric() || chars[idx - 1] == '_')
    };

    while i < chars.len() {
        let c = chars[i];
        if c == '\n' {
            if st == State::LineComment {
                st = State::Normal;
            }
            lines.push(Line::default());
            i += 1;
            continue;
        }
        let cur = lines.last_mut().expect("lines is never empty");
        match st {
            State::Normal => {
                if c == '/' && chars.get(i + 1) == Some(&'/') {
                    st = State::LineComment;
                    i += 2;
                    continue;
                }
                if c == '/' && chars.get(i + 1) == Some(&'*') {
                    st = State::Block(1);
                    i += 2;
                    continue;
                }
                if c == '"' {
                    cur.code.push(' ');
                    st = State::Str;
                    i += 1;
                    continue;
                }
                // Raw strings: r"..." / r#"..."# / br"..." / br#"..."#.
                if c == 'r' {
                    let raw_ok = !prev_is_ident(i, &chars)
                        || (chars[i - 1] == 'b' && !prev_is_ident(i - 1, &chars));
                    if raw_ok {
                        let mut j = i + 1;
                        let mut hashes = 0u32;
                        while chars.get(j) == Some(&'#') {
                            hashes += 1;
                            j += 1;
                        }
                        if chars.get(j) == Some(&'"') {
                            cur.code.push(' ');
                            st = State::RawStr(hashes);
                            i = j + 1;
                            continue;
                        }
                    }
                }
                // Char literal vs lifetime.
                if c == '\'' {
                    match chars.get(i + 1) {
                        // Escaped char: '\n', '\'', '\u{..}' — scan to the
                        // closing quote, skipping escape pairs.
                        Some('\\') => {
                            let mut j = i + 1;
                            while j < chars.len() {
                                if chars[j] == '\\' {
                                    j += 2;
                                } else if chars[j] == '\'' {
                                    break;
                                } else {
                                    j += 1;
                                }
                            }
                            cur.code.push(' ');
                            i = (j + 1).min(chars.len());
                            continue;
                        }
                        // Simple one-char literal 'a' (the middle char may
                        // itself be anything, including '"').
                        Some(_) if chars.get(i + 2) == Some(&'\'') => {
                            cur.code.push(' ');
                            i += 3;
                            continue;
                        }
                        // A lifetime ('a, 'static): the quote is plain code.
                        _ => {}
                    }
                }
                cur.code.push(c);
                i += 1;
            }
            State::LineComment => {
                cur.comment.push(c);
                i += 1;
            }
            State::Block(depth) => {
                if c == '/' && chars.get(i + 1) == Some(&'*') {
                    st = State::Block(depth + 1);
                    cur.comment.push_str("/*");
                    i += 2;
                } else if c == '*' && chars.get(i + 1) == Some(&'/') {
                    st = if depth == 1 {
                        State::Normal
                    } else {
                        cur.comment.push_str("*/");
                        State::Block(depth - 1)
                    };
                    i += 2;
                } else {
                    cur.comment.push(c);
                    i += 1;
                }
            }
            State::Str => {
                if c == '\\' {
                    i += 2; // skip the escaped char (may be a quote)
                } else if c == '"' {
                    st = State::Normal;
                    i += 1;
                } else {
                    i += 1;
                }
            }
            State::RawStr(hashes) => {
                if c == '"' {
                    let mut j = i + 1;
                    let mut seen = 0u32;
                    while seen < hashes && chars.get(j) == Some(&'#') {
                        seen += 1;
                        j += 1;
                    }
                    if seen == hashes {
                        st = State::Normal;
                        i = j;
                        continue;
                    }
                }
                i += 1;
            }
        }
    }
    lines
}

/// Does `haystack` contain `needle` with identifier boundaries on both
/// sides? (`HashMap` matches in `std::collections::HashMap<K, V>` but not
/// in `FxHashMap` or `HashMapLike`; `unsafe` does not match `unsafe_code`.)
pub fn find_word(haystack: &str, needle: &str) -> bool {
    let is_ident = |c: char| c.is_alphanumeric() || c == '_';
    let mut from = 0;
    while let Some(pos) = haystack[from..].find(needle) {
        let start = from + pos;
        let end = start + needle.len();
        let ok_before = start == 0
            || !haystack[..start].chars().next_back().is_some_and(is_ident);
        let ok_after = end == haystack.len()
            || !haystack[end..].chars().next().is_some_and(is_ident);
        if ok_before && ok_after {
            return true;
        }
        from = start + 1;
    }
    false
}

// ---------------------------------------------------------------------------
// Rules
// ---------------------------------------------------------------------------

/// The nine rule identifiers, in reporting order: the six token rules,
/// then the three flow rules (which ratchet against `detlint.lock`).
pub const RULE_NAMES: [&str; 9] = [
    "wall_clock",
    "ambient_rng",
    "hash_collections",
    "thread_spawn",
    "unsafe_safety",
    "hot_path_unwrap",
    "panic_reachable",
    "sim_purity",
    "float_ordering",
];

/// One diagnostic.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    /// Workspace-relative path, forward slashes.
    pub file: String,
    /// 1-based line number.
    pub line: usize,
    /// Rule identifier (one of [`RULE_NAMES`]).
    pub rule: &'static str,
    /// Enclosing symbol (qualified fn or type name) for flow-rule
    /// findings; `None` for the token rules. Part of the lock
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

/// Lint configuration: per-rule file allowlists plus rule scoping, loaded
/// from `detlint.toml` (see [`parse_config`]) or built-in defaults.
#[derive(Debug, Clone)]
pub struct Config {
    /// rule name → workspace-relative paths where findings are allowed.
    pub allow: BTreeMap<String, Vec<String>>,
    /// Crates (directory names under `crates/`) whose `src/` must not use
    /// hash collections (and whose state `float_ordering` polices).
    pub deterministic_crates: Vec<String>,
    /// Files whose bare `unwrap()`s are hot-path findings. Legacy: the
    /// shipped `detlint.toml` no longer lists any — `panic_reachable`
    /// covers the hot path by reachability, not by file list.
    pub hot_paths: Vec<String>,
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
    /// An empty configuration (nothing scoped, nothing allowed).
    pub fn empty() -> Self {
        Config {
            allow: BTreeMap::new(),
            deterministic_crates: Vec::new(),
            hot_paths: Vec::new(),
            panic_entry_points: Vec::new(),
            panic_max_depth: 12,
            purity_entry_points: Vec::new(),
            purity_max_depth: 16,
        }
    }

    /// The built-in defaults, mirroring the shipped `detlint.toml`. Used
    /// when no config file is present so the binary is useful standalone.
    /// (`hot_paths` keeps the pre-v2 file list here for standalone use,
    /// even though the shipped config has retired it in favor of
    /// `panic_reachable`.)
    pub fn default_repo() -> Self {
        let mut allow = BTreeMap::new();
        allow.insert(
            "wall_clock".to_owned(),
            vec!["crates/sim/src/time.rs".to_owned()],
        );
        allow.insert(
            "thread_spawn".to_owned(),
            vec!["crates/core/src/harness.rs".to_owned()],
        );
        Config {
            allow,
            deterministic_crates: [
                "sim", "storage", "core", "minidb", "plugin", "chaos", "telemetry", "history",
            ]
            .map(str::to_owned)
            .to_vec(),
            hot_paths: [
                "crates/storage/src/journal.rs",
                "crates/storage/src/array.rs",
                "crates/storage/src/acklog.rs",
                "crates/minidb/src/wal.rs",
                "crates/plugin/src/replication.rs",
            ]
            .map(str::to_owned)
            .to_vec(),
            panic_entry_points: [
                "engine::persist",
                "engine::host_write",
                "engine::sdc_leg_send",
                "engine::sdc_leg_arrive",
                "engine::sdc_leg_done",
                "engine::kick_transfer",
                "engine::run_transfer",
                "engine::receive_batch",
                "engine::kick_apply",
                "engine::link_wake",
                "engine::finish_apply",
                "engine::release_primary_upto",
                "Journal::*",
                "AckLog::append",
                "WalWriter::append",
                "WalWriter::flush",
                "LogFlusher::*",
                "WalWriter::resume",
                "wal::scan_wal",
                "StorageOp::dispatch",
            ]
            .map(str::to_owned)
            .to_vec(),
            panic_max_depth: 12,
            purity_entry_points: ["*::dispatch", "Sim::step", "Sim::run", "Sim::run_until"]
                .map(str::to_owned)
                .to_vec(),
            purity_max_depth: 16,
        }
    }

    fn is_allowed(&self, rule: &str, path: &str) -> bool {
        self.allow
            .get(rule)
            .is_some_and(|paths| paths.iter().any(|p| p == path))
    }
}

/// A waiver parsed from a comment: `detlint: allow(rule, ...) — reason`.
#[derive(Debug, Clone, Default)]
struct Waiver {
    rules: Vec<String>,
    has_reason: bool,
}

fn parse_waivers(comment: &str) -> Vec<Waiver> {
    const MARKER: &str = "detlint: allow(";
    let mut out = Vec::new();
    let mut from = 0;
    while let Some(pos) = comment[from..].find(MARKER) {
        let start = from + pos + MARKER.len();
        let Some(close) = comment[start..].find(')') else {
            break;
        };
        let inner = &comment[start..start + close];
        let rest = &comment[start + close + 1..];
        // The reason is whatever follows the closing paren, minus
        // decorative separators. It must say *something*.
        let reason = rest
            .trim_start_matches([' ', '\t', '—', '-', '–', ':'])
            .trim();
        out.push(Waiver {
            rules: inner
                .split(',')
                .map(|r| r.trim().to_owned())
                .filter(|r| !r.is_empty())
                .collect(),
            has_reason: !reason.is_empty(),
        });
        from = start + close + 1;
    }
    out
}

/// Crate directory name for a `crates/<name>/...` path, if any.
pub(crate) fn crate_of(path: &str) -> Option<&str> {
    path.strip_prefix("crates/")?.split('/').next()
}

/// Lint one file. `path` is the workspace-relative path with forward
/// slashes — it drives rule scoping (deterministic crates, hot paths,
/// allowlists); `source` is the file's contents.
pub fn check_file(path: &str, source: &str, config: &Config) -> Vec<Finding> {
    let lines = lex(source);
    let waivers: Vec<Vec<Waiver>> =
        lines.iter().map(|l| parse_waivers(&l.comment)).collect();

    let in_det_crate_src = path.contains("/src/")
        && crate_of(path)
            .is_some_and(|c| config.deterministic_crates.iter().any(|d| d == c));
    let is_hot_path = config.hot_paths.iter().any(|p| p == path);

    let mut found: Vec<Finding> = Vec::new();
    let mut push = |line: usize, rule: &'static str, message: String| {
        found.push(Finding {
            file: path.to_owned(),
            line,
            rule,
            symbol: None,
            message,
        });
    };

    for (idx, line) in lines.iter().enumerate() {
        let n = idx + 1;
        let code = line.code.as_str();
        if code.trim().is_empty() {
            continue;
        }

        if !config.is_allowed("wall_clock", path) {
            for pat in ["Instant::now", "SystemTime"] {
                if find_word(code, pat) {
                    push(
                        n,
                        "wall_clock",
                        format!(
                            "`{pat}` reads the wall clock; simulated code must \
                             use the sim clock (tsuru_sim::SimTime)"
                        ),
                    );
                }
            }
        }

        if !config.is_allowed("ambient_rng", path) {
            for pat in ["thread_rng", "from_entropy", "OsRng"] {
                if find_word(code, pat) {
                    push(
                        n,
                        "ambient_rng",
                        format!(
                            "`{pat}` draws ambient randomness; all randomness \
                             must flow from a seeded DetRng"
                        ),
                    );
                }
            }
        }

        if in_det_crate_src && !config.is_allowed("hash_collections", path) {
            for (pat, fix) in [("HashMap", "BTreeMap"), ("HashSet", "BTreeSet")] {
                if find_word(code, pat) {
                    push(
                        n,
                        "hash_collections",
                        format!(
                            "`{pat}` iteration order is nondeterministic; use \
                             `{fix}` in deterministic crates"
                        ),
                    );
                }
            }
        }

        if !config.is_allowed("thread_spawn", path) && code.contains("thread::spawn") {
            push(
                n,
                "thread_spawn",
                "raw thread spawn; all parallelism must go through the \
                 trial harness (crates/core/src/harness.rs)"
                    .to_owned(),
            );
        }

        if !config.is_allowed("unsafe_safety", path) && find_word(code, "unsafe") {
            // Accept a SAFETY: comment on the same line or on the run of
            // comment-only lines immediately above.
            let mut justified = line.comment.contains("SAFETY:");
            let mut k = idx;
            while !justified && k > 0 {
                k -= 1;
                if !lines[k].code.trim().is_empty() {
                    break;
                }
                justified = lines[k].comment.contains("SAFETY:");
            }
            if !justified {
                push(
                    n,
                    "unsafe_safety",
                    "`unsafe` without a preceding `// SAFETY:` comment \
                     explaining why it is sound"
                        .to_owned(),
                );
            }
        }

        if is_hot_path && !config.is_allowed("hot_path_unwrap", path) {
            let mut at = 0;
            while let Some(pos) = code[at..].find(".unwrap()") {
                push(
                    n,
                    "hot_path_unwrap",
                    "bare `unwrap()` on a replication/journal/WAL hot path; \
                     propagate a typed error or use `expect(\"invariant: ...\")`"
                        .to_owned(),
                );
                at += pos + ".unwrap()".len();
            }
        }
    }

    // Apply waivers: a waiver covers its own line and the line below it.
    found.retain(|f| {
        let mut lines_to_check = vec![f.line - 1];
        if f.line >= 2 {
            lines_to_check.push(f.line - 2);
        }
        for li in lines_to_check {
            for w in &waivers[li] {
                if w.rules.iter().any(|r| r == f.rule) {
                    return !w.has_reason; // reasonless waivers do not count
                }
            }
        }
        true
    });

    // Reasonless waivers are findings in their own right — otherwise the
    // waiver syntax silently degrades into a no-questions-asked off switch.
    for (idx, ws) in waivers.iter().enumerate() {
        for w in ws {
            if !w.has_reason && !w.rules.is_empty() {
                found.push(Finding {
                    file: path.to_owned(),
                    line: idx + 1,
                    rule: RULE_NAMES
                        .iter()
                        .find(|r| w.rules.iter().any(|x| x == **r))
                        .copied()
                        .unwrap_or("wall_clock"),
                    symbol: None,
                    message: format!(
                        "waiver `allow({})` has no reason; write \
                         `// detlint: allow(rule) — why this is sound`",
                        w.rules.join(", ")
                    ),
                });
            }
        }
    }

    found.sort_by(|a, b| (a.line, a.rule).cmp(&(b.line, b.rule)));
    found
}

// ---------------------------------------------------------------------------
// Workspace walk
// ---------------------------------------------------------------------------

/// Collect every lintable `.rs` file under `root`: `crates/*/src`,
/// `crates/*/tests` and the workspace-level `tests/`, skipping any
/// `fixtures` directory (detlint's own test corpus intentionally violates
/// every rule). Returns workspace-relative paths, sorted, so output order —
/// like everything else in this repo — is deterministic.
pub fn workspace_files(root: &Path) -> std::io::Result<Vec<PathBuf>> {
    let mut out = Vec::new();
    let crates = root.join("crates");
    if crates.is_dir() {
        let mut crate_dirs: Vec<PathBuf> = std::fs::read_dir(&crates)?
            .filter_map(|e| e.ok().map(|e| e.path()))
            .filter(|p| p.is_dir())
            .collect();
        crate_dirs.sort();
        for dir in crate_dirs {
            for sub in ["src", "tests"] {
                collect_rs(&dir.join(sub), &mut out)?;
            }
        }
    }
    collect_rs(&root.join("tests"), &mut out)?;
    out.sort();
    Ok(out)
}

fn collect_rs(dir: &Path, out: &mut Vec<PathBuf>) -> std::io::Result<()> {
    if !dir.is_dir() {
        return Ok(());
    }
    let mut entries: Vec<PathBuf> = std::fs::read_dir(dir)?
        .filter_map(|e| e.ok().map(|e| e.path()))
        .collect();
    entries.sort();
    for p in entries {
        if p.is_dir() {
            if p.file_name().is_some_and(|n| n == "fixtures") {
                continue;
            }
            collect_rs(&p, out)?;
        } else if p.extension().is_some_and(|e| e == "rs") {
            out.push(p);
        }
    }
    Ok(())
}

/// Lint a whole workspace rooted at `root` with the token rules only.
/// Paths in findings are `root`-relative with forward slashes.
pub fn check_workspace(root: &Path, config: &Config) -> std::io::Result<Vec<Finding>> {
    let mut findings = Vec::new();
    for file in workspace_files(root)? {
        let rel = file
            .strip_prefix(root)
            .unwrap_or(&file)
            .to_string_lossy()
            .replace('\\', "/");
        let source = std::fs::read_to_string(&file)?;
        findings.extend(check_file(&rel, &source, config));
    }
    findings.sort_by(|a, b| (&a.file, a.line, a.rule).cmp(&(&b.file, b.line, b.rule)));
    Ok(findings)
}

/// The result of a full v2 analysis: the call graph (queryable via
/// `detlint graph`) plus every finding from all nine rules.
pub struct Analysis {
    /// The workspace call graph over production (`src/`) code.
    pub graph: CallGraph,
    /// All findings — token rules and flow rules — sorted and deduped,
    /// with allowlists and inline waivers already applied. Callers diff
    /// the ratcheted subset against `detlint.lock` via [`lock::ratchet`].
    pub findings: Vec<Finding>,
}

/// Run the full analysis: the six token rules over every lintable file,
/// then the item parser + call graph over production `src/` code feeding
/// the three flow rules (`panic_reachable`, `sim_purity`,
/// `float_ordering`). Inline waivers and `[allow.<rule>]` lists apply to
/// flow findings exactly as they do to token findings.
pub fn analyze_workspace(root: &Path, config: &Config) -> std::io::Result<Analysis> {
    let mut findings = check_workspace(root, config)?;

    let mut fns = Vec::new();
    let mut parsed: Vec<(String, parse::FileSymbols)> = Vec::new();
    let mut flow_findings: Vec<Finding> = Vec::new();
    let mut waiver_tables: BTreeMap<String, Vec<Vec<Waiver>>> = BTreeMap::new();
    for file in workspace_files(root)? {
        let rel = file
            .strip_prefix(root)
            .unwrap_or(&file)
            .to_string_lossy()
            .replace('\\', "/");
        // The graph models production code: `tests/` never feeds the
        // symbol table (test helpers share names like `apply` with hot-path
        // fns and would pollute reachability). `#[cfg(test)]` mods are
        // dropped by the parser itself.
        if !rel.contains("/src/") {
            continue;
        }
        let source = std::fs::read_to_string(&file)?;
        let krate = crate_of(&rel).unwrap_or("workspace").to_owned();
        let toks = token::tokenize(&source);
        flow_findings.extend(flow::float_keyed_collections(&rel, &toks, config));
        let syms = parse::parse_file(&rel, &krate, &toks);
        fns.extend(syms.fns.clone());
        parsed.push((rel.clone(), syms));
        waiver_tables.insert(
            rel,
            lex(&source).iter().map(|l| parse_waivers(&l.comment)).collect(),
        );
    }
    let graph = CallGraph::build(fns);
    flow_findings.extend(flow::panic_reachable(&graph, config));
    flow_findings.extend(flow::sim_purity(&graph, config));
    flow_findings.extend(flow::float_ordering(&parsed, config));

    flow_findings.retain(|f| {
        if config.is_allowed(f.rule, &f.file) {
            return false;
        }
        let Some(waivers) = waiver_tables.get(&f.file) else {
            return true;
        };
        let mut lines_to_check = vec![f.line - 1];
        if f.line >= 2 {
            lines_to_check.push(f.line - 2);
        }
        for li in lines_to_check {
            let Some(ws) = waivers.get(li) else { continue };
            for w in ws {
                if w.rules.iter().any(|r| r == f.rule) {
                    return !w.has_reason; // reasonless waivers do not count
                }
            }
        }
        true
    });

    findings.extend(flow_findings);
    findings.sort_by(|a, b| (&a.file, a.line, a.rule, &a.symbol).cmp(&(&b.file, b.line, b.rule, &b.symbol)));
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
/// - `[allow.<rule>]` / `paths = [...]` — per-rule file allowlist;
/// - `[rules.hash_collections]` / `crates = [...]` — deterministic crates;
/// - `[rules.hot_path_unwrap]` / `paths = [...]` — legacy hot-path files;
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
                TomlValue::Int(_) => {
                    Err(format!("[{section}] `{key}` expects a string array"))
                }
            }
        };
        let int = |value: TomlValue| -> Result<usize, String> {
            match value {
                TomlValue::Int(n) => Ok(n),
                TomlValue::Strings(_) => {
                    Err(format!("[{section}] `{key}` expects an integer"))
                }
            }
        };
        if let Some(rule) = section.strip_prefix("allow.") {
            if key != "paths" {
                return Err(format!("[{section}] supports only `paths`, got `{key}`"));
            }
            if !RULE_NAMES.contains(&rule) {
                return Err(format!("unknown rule `{rule}` in [{section}]"));
            }
            cfg.allow
                .entry(rule.to_owned())
                .or_default()
                .extend(strings(value)?);
        } else if section == "rules.hash_collections" && key == "crates" {
            cfg.deterministic_crates = strings(value)?;
        } else if section == "rules.hot_path_unwrap" && key == "paths" {
            cfg.hot_paths = strings(value)?;
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
                apply(&section, &key, TomlValue::Strings(parse_string_array(&pending_val)?))?;
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
        rest = stripped[end + 1..].trim_start_matches([',', ' ', '\t']).trim();
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

    fn code_of(src: &str) -> String {
        lex(src).iter().map(|l| l.code.clone()).collect::<Vec<_>>().join("\n")
    }

    fn comment_of(src: &str) -> String {
        lex(src).iter().map(|l| l.comment.clone()).collect::<Vec<_>>().join("\n")
    }

    #[test]
    fn lexer_strips_string_contents() {
        let src = r#"let s = "call Instant::now here"; f(s);"#;
        let code = code_of(src);
        assert!(!code.contains("Instant::now"), "string content leaked: {code}");
        assert!(code.contains("let s ="));
        assert!(code.contains("f(s);"));
    }

    #[test]
    fn lexer_strips_raw_and_byte_strings() {
        let src = "let a = r#\"Instant::now \"quoted\" inside\"#; let b = br\"thread_rng\"; g(a, b);";
        let code = code_of(src);
        assert!(!code.contains("Instant::now"));
        assert!(!code.contains("thread_rng"));
        assert!(code.contains("g(a, b);"));
    }

    #[test]
    fn lexer_routes_line_comments_to_comment_channel() {
        let src = "let x = 1; // Instant::now is banned";
        assert!(!code_of(src).contains("Instant::now"));
        assert!(comment_of(src).contains("Instant::now is banned"));
    }

    #[test]
    fn lexer_handles_nested_block_comments() {
        let src = "a(); /* outer /* inner Instant::now */ still comment */ b();";
        let code = code_of(src);
        assert!(!code.contains("Instant::now"));
        assert!(code.contains("a();"));
        assert!(code.contains("b();"));
        assert!(comment_of(src).contains("inner Instant::now"));
    }

    #[test]
    fn lexer_distinguishes_char_literals_from_lifetimes() {
        // A quote char literal must not open a string state that would
        // swallow the following code.
        let src = "let q = '\"'; let esc = '\\''; fn f<'a>(x: &'a str) -> &'a str { x }";
        let code = code_of(src);
        assert!(code.contains("fn f<'a>(x: &'a str)"));
        // And a real string after the char literals is still stripped.
        let src2 = "let c = 'x'; let s = \"Instant::now\"; h(c, s);";
        let code2 = code_of(src2);
        assert!(!code2.contains("Instant::now"));
        assert!(code2.contains("h(c, s);"));
    }

    #[test]
    fn find_word_respects_identifier_boundaries() {
        assert!(find_word("std::collections::HashMap<K, V>", "HashMap"));
        assert!(!find_word("FxHashMap<K, V>", "HashMap"));
        assert!(!find_word("HashMapLike", "HashMap"));
        assert!(find_word("unsafe { x }", "unsafe"));
        assert!(!find_word("#![forbid(unsafe_code)]", "unsafe"));
    }

    #[test]
    fn strings_and_comments_are_never_findings() {
        let cfg = Config::default_repo();
        let src = "//! docs mention Instant::now and thread_rng\n\
                   pub fn f() -> &'static str {\n\
                       /* HashMap in a block comment */\n\
                       \"SystemTime thread::spawn .unwrap() unsafe\"\n\
                   }\n";
        let findings = check_file("crates/storage/src/journal.rs", src, &cfg);
        assert!(findings.is_empty(), "false positives: {findings:?}");
    }

    #[test]
    fn waiver_requires_reason() {
        let cfg = Config::default_repo();
        let with_reason = "// detlint: allow(wall_clock) — reporting only\nlet t = Instant::now();\n";
        assert!(check_file("crates/core/src/x.rs", with_reason, &cfg).is_empty());

        let reasonless = "// detlint: allow(wall_clock)\nlet t = Instant::now();\n";
        let findings = check_file("crates/core/src/x.rs", reasonless, &cfg);
        // The original finding survives AND the empty waiver is reported.
        assert!(findings.iter().any(|f| f.rule == "wall_clock" && f.line == 2));
        assert!(findings.iter().any(|f| f.message.contains("no reason")));
    }

    #[test]
    fn waiver_covers_same_line_and_next_line_only() {
        let cfg = Config::default_repo();
        let same = "let t = Instant::now(); // detlint: allow(wall_clock) — metric\n";
        assert!(check_file("crates/core/src/x.rs", same, &cfg).is_empty());

        let too_far = "// detlint: allow(wall_clock) — metric\n\nlet t = Instant::now();\n";
        let findings = check_file("crates/core/src/x.rs", too_far, &cfg);
        assert_eq!(findings.len(), 1, "waiver two lines up must not apply");
    }

    #[test]
    fn hash_rule_scopes_to_deterministic_crate_src() {
        let cfg = Config::default_repo();
        let src = "use std::collections::HashMap;\n";
        assert!(!check_file("crates/storage/src/x.rs", src, &cfg).is_empty());
        // tests/ of a deterministic crate: out of scope.
        assert!(check_file("crates/storage/tests/x.rs", src, &cfg).is_empty());
        // src/ of a non-deterministic crate: out of scope.
        assert!(check_file("crates/bench/src/x.rs", src, &cfg).is_empty());
    }

    #[test]
    fn hot_path_rule_scopes_to_configured_files() {
        let cfg = Config::default_repo();
        let src = "let x = maybe().unwrap();\n";
        assert!(!check_file("crates/storage/src/journal.rs", src, &cfg).is_empty());
        assert!(check_file("crates/storage/src/world.rs", src, &cfg).is_empty());
    }

    #[test]
    fn allowlists_suppress_findings() {
        let cfg = Config::default_repo();
        let src = "let t = Instant::now();\n";
        assert!(check_file("crates/sim/src/time.rs", src, &cfg).is_empty());
        assert!(!check_file("crates/sim/src/kernel.rs", src, &cfg).is_empty());
    }

    #[test]
    fn unsafe_requires_safety_comment() {
        let cfg = Config::default_repo();
        let bad = "let y = unsafe { f(x) };\n";
        assert_eq!(check_file("crates/core/src/x.rs", bad, &cfg).len(), 1);

        let same_line = "let y = unsafe { f(x) }; // SAFETY: f is total\n";
        assert!(check_file("crates/core/src/x.rs", same_line, &cfg).is_empty());

        let above = "// SAFETY: f is total on u32\nlet y = unsafe { f(x) };\n";
        assert!(check_file("crates/core/src/x.rs", above, &cfg).is_empty());
    }

    #[test]
    fn config_roundtrip_parses_every_section() {
        let toml = r##"
            # comment
            [allow.wall_clock]
            paths = ["crates/sim/src/time.rs"]

            [allow.thread_spawn]
            paths = ["crates/core/src/harness.rs"]

            [rules.hash_collections]
            crates = ["sim", "storage", "core", "minidb", "plugin", "chaos"]

            [rules.hot_path_unwrap]
            paths = [
                "crates/storage/src/journal.rs",
                "crates/minidb/src/wal.rs",
            ]

            [rules.panic_reachable]
            entry_points = ["engine::persist", "Journal::*"]
            max_depth = 7

            [rules.sim_purity]
            entry_points = ["*::dispatch"]
            max_depth = 9
        "##;
        let cfg = parse_config(toml).expect("parses");
        let def = Config::default_repo();
        assert_eq!(cfg.allow, def.allow);
        assert_eq!(
            cfg.deterministic_crates,
            ["sim", "storage", "core", "minidb", "plugin", "chaos"].map(str::to_owned)
        );
        assert_eq!(
            cfg.hot_paths,
            ["crates/storage/src/journal.rs", "crates/minidb/src/wal.rs"].map(str::to_owned)
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
        assert!(parse_config("[allow.wall_clock]\nbogus = [\"x\"]\n").is_err());
        assert!(parse_config("[rules.hot_path_unwrap]\npaths = [\"x\"\n").is_err());
        assert!(parse_config("[rules.panic_reachable]\nmax_depth = [\"x\"]\n").is_err());
        assert!(parse_config("[rules.sim_purity]\nentry_points = 3\n").is_err());
    }

    #[test]
    fn json_report_shape() {
        let findings = vec![
            Finding {
                file: "a/b.rs".to_owned(),
                line: 3,
                rule: "wall_clock",
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
