//! `detlint` CLI: analyze the workspace's call graph, print
//! `file:line: rule — message` diagnostics, diff the findings against
//! `detlint.lock`, exit nonzero when anything new (or stale) remains.
//! Path rules (wall clock, ambient randomness, hash collections, threads,
//! `unsafe`) are clippy's, not this binary's: `cargo clippy --workspace`.
//!
//! ```text
//! cargo run -p detlint                      # full analysis + ratchet, exit 1 on new findings
//! cargo run -p detlint -- --fix-list        # JSON report on stdout
//! cargo run -p detlint -- --update-lock     # burn fixed debt out of detlint.lock
//! cargo run -p detlint -- graph --dot       # call graph as DOT on stdout
//! cargo run -p detlint -- graph --symbols   # symbol table, one line per fn
//! cargo run -p detlint -- --root DIR        # analyze a different workspace root
//! cargo run -p detlint -- --config F        # explicit config file
//! cargo run -p detlint -- --lock F          # explicit lock file
//! ```
//!
//! Exit codes: 0 clean, 1 findings/stale lock, 2 usage/config/IO error.

#![forbid(unsafe_code)]

use std::path::PathBuf;
use std::process::ExitCode;

use detlint::lock::{self, Lock};
use detlint::{analyze_workspace, parse_config, render_json, Config};

struct Args {
    /// `detlint graph …` subcommand: emit the call graph instead of linting.
    graph: Option<GraphMode>,
    fix_list: bool,
    update_lock: bool,
    root: Option<PathBuf>,
    config: Option<PathBuf>,
    lock: Option<PathBuf>,
    out: Option<PathBuf>,
}

enum GraphMode {
    Dot,
    Symbols,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        graph: None,
        fix_list: false,
        update_lock: false,
        root: None,
        config: None,
        lock: None,
        out: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(a) = it.next() {
        match a.as_str() {
            "graph" => {
                // Default to DOT; `--symbols` switches.
                if args.graph.is_none() {
                    args.graph = Some(GraphMode::Dot);
                }
            }
            "--dot" => args.graph = Some(GraphMode::Dot),
            "--symbols" => args.graph = Some(GraphMode::Symbols),
            "--out" => {
                args.out = Some(PathBuf::from(
                    it.next().ok_or("--out requires a file argument")?,
                ))
            }
            "--fix-list" => args.fix_list = true,
            "--update-lock" => args.update_lock = true,
            "--root" => {
                args.root = Some(PathBuf::from(
                    it.next().ok_or("--root requires a directory argument")?,
                ))
            }
            "--config" => {
                args.config = Some(PathBuf::from(
                    it.next().ok_or("--config requires a file argument")?,
                ))
            }
            "--lock" => {
                args.lock = Some(PathBuf::from(
                    it.next().ok_or("--lock requires a file argument")?,
                ))
            }
            "--help" | "-h" => {
                println!(
                    "detlint — call-graph determinism & safety analysis (the path rules are\n\
                     clippy's: cargo clippy --workspace --all-targets)\n\n\
                     USAGE: detlint [graph --dot|--symbols] [--fix-list] [--update-lock]\n\
                            [--root DIR] [--config FILE] [--lock FILE] [--out FILE]\n\n\
                     (no subcommand)  the three call-graph rules; findings ratchet against detlint.lock\n\
                     graph --dot      emit the workspace call graph as Graphviz DOT\n\
                     graph --symbols  emit the symbol table, one `fn` per line\n\
                     --fix-list       emit a machine-readable JSON report on stdout\n\
                     --update-lock    rewrite detlint.lock from current findings (shrink-only)\n\
                     --root DIR       workspace root (default: auto-discover)\n\
                     --config F       config file (default: <root>/detlint.toml)\n\
                     --lock F         lock file (default: <root>/detlint.lock)\n\
                     --out F          write graph output to F instead of stdout"
                );
                std::process::exit(0);
            }
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    Ok(args)
}

/// Find the workspace root: walk up from the current directory looking for
/// `detlint.toml`, falling back to the source checkout this binary was
/// built from (`CARGO_MANIFEST_DIR/../..`).
fn discover_root() -> PathBuf {
    let mut dir = std::env::current_dir().unwrap_or_else(|_| PathBuf::from("."));
    loop {
        if dir.join("detlint.toml").is_file() {
            return dir;
        }
        if !dir.pop() {
            break;
        }
    }
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .canonicalize()
        .unwrap_or_else(|_| PathBuf::from("."))
}

fn run() -> Result<bool, String> {
    let args = parse_args()?;
    let root = args.root.clone().unwrap_or_else(discover_root);
    if !root.is_dir() {
        return Err(format!(
            "workspace root `{}` is not a directory",
            root.display()
        ));
    }

    let config_path = args
        .config
        .clone()
        .unwrap_or_else(|| root.join("detlint.toml"));
    let config = if config_path.is_file() {
        let text = std::fs::read_to_string(&config_path)
            .map_err(|e| format!("reading `{}`: {e}", config_path.display()))?;
        parse_config(&text).map_err(|e| format!("`{}`: {e}", config_path.display()))?
    } else if args.config.is_some() {
        return Err(format!("config file `{}` not found", config_path.display()));
    } else {
        Config::default_repo()
    };

    let analysis = analyze_workspace(&root, &config)
        .map_err(|e| format!("analyzing `{}`: {e}", root.display()))?;

    if let Some(mode) = &args.graph {
        let rendered = match mode {
            GraphMode::Dot => analysis.graph.render_dot(),
            GraphMode::Symbols => analysis.graph.render_symbols(),
        };
        match &args.out {
            Some(path) => std::fs::write(path, rendered)
                .map_err(|e| format!("writing `{}`: {e}", path.display()))?,
            None => print!("{rendered}"),
        }
        return Ok(true);
    }

    let lock_path = args
        .lock
        .clone()
        .unwrap_or_else(|| root.join("detlint.lock"));
    let lock = if lock_path.is_file() {
        let text = std::fs::read_to_string(&lock_path)
            .map_err(|e| format!("reading `{}`: {e}", lock_path.display()))?;
        lock::parse_lock(&text).map_err(|e| format!("`{}`: {e}", lock_path.display()))?
    } else if args.lock.is_some() {
        return Err(format!("lock file `{}` not found", lock_path.display()));
    } else {
        Lock::default()
    };

    if args.update_lock {
        let entries = lock::updated_lock(&analysis.findings, &lock)?;
        let burned = lock.entries.len().saturating_sub(entries.len());
        std::fs::write(&lock_path, lock::render_lock(&entries))
            .map_err(|e| format!("writing `{}`: {e}", lock_path.display()))?;
        eprintln!(
            "detlint: wrote `{}` — {} entr{}{}",
            lock_path.display(),
            entries.len(),
            if entries.len() == 1 { "y" } else { "ies" },
            if burned > 0 {
                format!(" ({burned} burned down)")
            } else {
                String::new()
            }
        );
        return Ok(true);
    }

    let report = lock::ratchet(&analysis.findings, &lock);

    if args.fix_list {
        print!("{}", render_json(&report.new));
        return Ok(report.is_clean());
    }

    for f in &report.new {
        println!("{f}");
    }
    for fp in &report.stale {
        println!("detlint.lock: stale entry `{}`", fp.replace('\t', " "));
    }
    if report.is_clean() {
        eprintln!(
            "detlint: clean ({} baselined finding{} in detlint.lock)",
            report.baselined,
            if report.baselined == 1 { "" } else { "s" }
        );
    } else {
        if !report.new.is_empty() {
            eprintln!(
                "detlint: {} new finding{} — fix, or waive with \
                 `// detlint: allow(rule) — reason`",
                report.new.len(),
                if report.new.len() == 1 { "" } else { "s" }
            );
        }
        if !report.stale.is_empty() {
            eprintln!(
                "detlint: {} stale lock entr{} — run `detlint --update-lock` \
                 to burn fixed debt out of detlint.lock",
                report.stale.len(),
                if report.stale.len() == 1 { "y" } else { "ies" }
            );
        }
    }
    Ok(report.is_clean())
}

fn main() -> ExitCode {
    match run() {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("detlint: error: {e}");
            ExitCode::from(2)
        }
    }
}
