//! Flow-aware rules on top of the call graph: `panic_reachable`,
//! `sim_purity`, `float_ordering`.
//!
//! These rules (DESIGN.md §12) reason about what clippy's path lints
//! cannot see, *reachability*: a panic source is only a finding when the
//! replication hot path can actually arrive at it, and an ambient-state
//! touch is only a finding when a kernel event handler can. Because the
//! resolution is conservative (see [`crate::graph`]), findings carry the
//! shortest call chain from the entry point so a reviewer can judge the
//! edge that got them there.
//!
//! Findings from these rules are fingerprinted by **rule + file + symbol**
//! (never line numbers) and ratcheted against `detlint.lock` — see
//! [`crate::lock`].

use crate::graph::CallGraph;
use crate::parse::{FileSymbols, SiteKind};
use crate::{Config, Finding};

/// Run `panic_reachable`: any panic source within `max_depth` call edges
/// of a configured replication entry point is a finding.
pub fn panic_reachable(graph: &CallGraph, config: &Config) -> Vec<Finding> {
    let mut roots = Vec::new();
    for pat in &config.panic_entry_points {
        roots.extend(graph.match_pattern(pat));
    }
    roots.sort_unstable();
    roots.dedup();
    let reach = graph.reach(&roots, config.panic_max_depth);
    let mut out = Vec::new();
    for (&node, &(depth, _)) in &reach {
        let f = &graph.fns[node];
        for site in &f.sites {
            if !site.kind.is_panic() {
                continue;
            }
            // `.expect("invariant: …")` never reaches here (the parser
            // drops sanctioned expects); PartialCmpUnwrap is reported by
            // float_ordering, not twice.
            if site.kind == SiteKind::PartialCmpUnwrap {
                continue;
            }
            out.push(Finding {
                file: f.file.clone(),
                line: site.line,
                rule: "panic_reachable",
                symbol: Some(f.qualified()),
                message: format!(
                    "`{}` can panic on the replication hot path — {} call edge{} \
                     from an entry point ({}); return a typed error or assert the \
                     invariant with `expect(\"invariant: …\")`",
                    site.kind.label(),
                    depth,
                    if depth == 1 { "" } else { "s" },
                    graph.chain(&reach, node),
                ),
            });
        }
    }
    out
}

/// Run `sim_purity`: functions reachable from kernel event handlers must
/// not touch ambient state (`std::fs`/`net`/`process`/`env`, stdio) —
/// the sim world stays hermetic, so identical seeds give identical runs.
pub fn sim_purity(graph: &CallGraph, config: &Config) -> Vec<Finding> {
    let mut roots = Vec::new();
    for pat in &config.purity_entry_points {
        roots.extend(graph.match_pattern(pat));
    }
    roots.sort_unstable();
    roots.dedup();
    let reach = graph.reach(&roots, config.purity_max_depth);
    let mut out = Vec::new();
    for (&node, &(depth, _)) in &reach {
        let f = &graph.fns[node];
        for site in &f.sites {
            let SiteKind::Ambient(pat) = &site.kind else {
                continue;
            };
            out.push(Finding {
                file: f.file.clone(),
                line: site.line,
                rule: "sim_purity",
                symbol: Some(f.qualified()),
                message: format!(
                    "`{pat}` touches ambient state {depth} call edge{} from a \
                     kernel event handler ({}); the sim world must stay hermetic — \
                     thread the effect through the world state instead",
                    if depth == 1 { "" } else { "s" },
                    graph.chain(&reach, node),
                ),
            });
        }
    }
    out
}

/// Run `float_ordering` over per-file parses: no `f32`/`f64` in `Ord`
/// ordering positions or digest/export-reachable state.
///
/// - a struct with float fields deriving `Ord`/`PartialOrd`/`Hash`;
/// - a manual `impl Ord`/`impl PartialOrd` for a struct with float fields;
/// - `BTreeMap`/`BTreeSet` keyed by `f32`/`f64`;
/// - `.partial_cmp(…).unwrap()/.expect(…)` comparison chains (NaN panics
///   *and* unstable ordering in one expression).
///
/// Scope: the crates `detlint.toml` lists under `[rules.float_ordering]`
/// — float state elsewhere (report formatting, benches) is fine.
pub fn float_ordering(files: &[(String, FileSymbols)], config: &Config) -> Vec<Finding> {
    let mut out = Vec::new();
    for (path, syms) in files {
        if !config.polices_floats(path) {
            continue;
        }
        for st in &syms.structs {
            if st.float_field_lines.is_empty() {
                continue;
            }
            for d in &st.derives {
                if d == "Ord" || d == "PartialOrd" || d == "Hash" {
                    out.push(Finding {
                        file: path.clone(),
                        line: st.line,
                        rule: "float_ordering",
                        symbol: Some(st.name.clone()),
                        message: format!(
                            "struct `{}` has float fields but derives `{d}`; float \
                             ordering is partial (NaN) and bit-unstable across \
                             targets — key on integers or fixed-point",
                            st.name
                        ),
                    });
                }
            }
            for (ty, line, total) in &syms.ord_impls {
                if ty == &st.name {
                    out.push(Finding {
                        file: path.clone(),
                        line: *line,
                        rule: "float_ordering",
                        symbol: Some(st.name.clone()),
                        message: format!(
                            "`impl {}` for `{}`, which has float fields; digest/\
                             export-reachable ordering must not depend on float \
                             comparison",
                            if *total { "Ord" } else { "PartialOrd" },
                            st.name
                        ),
                    });
                }
            }
        }
        for f in &syms.fns {
            for site in &f.sites {
                if site.kind == SiteKind::PartialCmpUnwrap {
                    out.push(Finding {
                        file: path.clone(),
                        line: site.line,
                        rule: "float_ordering",
                        symbol: Some(f.qualified()),
                        message: "`.partial_cmp(…).unwrap()` panics on NaN and \
                                  encodes a partial order; use `total_cmp` or \
                                  integer keys"
                            .to_owned(),
                    });
                }
            }
        }
    }
    out
}

/// Scan token streams for float-keyed ordered collections
/// (`BTreeMap<f64, …>` / `BTreeSet<f32>`). Token-level, not parser-level:
/// these appear in type positions the item parser skips.
pub fn float_keyed_collections(
    path: &str,
    toks: &[crate::token::Tok],
    config: &Config,
) -> Vec<Finding> {
    if !config.polices_floats(path) {
        return Vec::new();
    }
    let mut out = Vec::new();
    for (i, t) in toks.iter().enumerate() {
        let Some(name) = t.ident() else { continue };
        if name != "BTreeMap" && name != "BTreeSet" {
            continue;
        }
        // `BTreeMap < f64` — the first generic parameter is the key.
        if toks.get(i + 1).is_some_and(|t| t.is_punct('<'))
            && toks
                .get(i + 2)
                .and_then(|t| t.ident())
                .is_some_and(|k| k == "f32" || k == "f64")
        {
            out.push(Finding {
                file: path.to_owned(),
                line: t.line,
                rule: "float_ordering",
                symbol: Some(name.to_owned()),
                message: format!(
                    "`{name}` keyed by a float; float keys have no total order — \
                     use integer or fixed-point keys"
                ),
            });
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::CallGraph;
    use crate::parse::parse_file;
    use crate::token::tokenize;

    fn cfg() -> Config {
        let mut c = Config::default_repo();
        c.panic_entry_points = vec!["engine::persist".to_owned()];
        c.purity_entry_points = vec!["*::dispatch".to_owned()];
        c.deterministic_crates = vec!["demo".to_owned()];
        c
    }

    fn build(files: &[(&str, &str)]) -> (CallGraph, Vec<(String, FileSymbols)>) {
        let mut fns = Vec::new();
        let mut parsed = Vec::new();
        for (path, src) in files {
            let syms = parse_file(path, "demo", &tokenize(src));
            fns.extend(syms.fns.clone());
            parsed.push((path.to_string(), syms));
        }
        (CallGraph::build(fns), parsed)
    }

    #[test]
    fn panic_outside_reach_is_not_reported() {
        let (g, _) = build(&[(
            "crates/demo/src/engine.rs",
            "pub fn persist() { safe(); }\n\
             fn safe() {}\n\
             fn cold() { x.unwrap(); }\n",
        )]);
        assert!(panic_reachable(&g, &cfg()).is_empty());
    }

    #[test]
    fn panic_within_reach_is_reported_with_chain() {
        let (g, _) = build(&[(
            "crates/demo/src/engine.rs",
            "pub fn persist() { step(); }\n\
             fn step() { deep(); }\n\
             fn deep() { x.unwrap(); }\n",
        )]);
        let f = panic_reachable(&g, &cfg());
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].symbol.as_deref(), Some("engine::deep"));
        assert!(
            f[0].message
                .contains("persist -> engine::step -> engine::deep"),
            "chain missing: {}",
            f[0].message
        );
    }

    #[test]
    fn invariant_expects_are_sanctioned() {
        let (g, _) = build(&[(
            "crates/demo/src/engine.rs",
            "pub fn persist() { j.space().expect(\"invariant: space was checked in pass 1\"); }\n",
        )]);
        assert!(panic_reachable(&g, &cfg()).is_empty());
    }

    #[test]
    fn depth_limit_is_respected() {
        let mut src = String::from("pub fn persist() { f0(); }\n");
        for i in 0..20 {
            src.push_str(&format!("fn f{i}() {{ f{}(); }}\n", i + 1));
        }
        src.push_str("fn f20() { x.unwrap(); }\n");
        let (g, _) = build(&[("crates/demo/src/engine.rs", src.as_str())]);
        let mut c = cfg();
        c.panic_max_depth = 5;
        assert!(panic_reachable(&g, &c).is_empty());
        c.panic_max_depth = 30;
        assert_eq!(panic_reachable(&g, &c).len(), 1);
    }

    #[test]
    fn ambient_touch_from_dispatch_is_reported() {
        let (g, _) = build(&[(
            "crates/demo/src/event.rs",
            "impl StorageOp { pub fn dispatch(self) { helper(); } }\n\
             fn helper() { let _ = std::fs::read_to_string(\"x\"); }\n",
        )]);
        let f = sim_purity(&g, &cfg());
        assert_eq!(f.len(), 1);
        assert!(f[0].message.contains("fs::"));
    }

    #[test]
    fn float_struct_rules_fire() {
        let (_, parsed) = build(&[(
            "crates/demo/src/state.rs",
            "#[derive(PartialOrd)]\npub struct Lag { pub secs: f64 }\n\
             impl Ord for Score { fn cmp(&self) {} }\n\
             pub struct Score { v: f32 }\n\
             fn f() { v.sort_by(|a, b| a.partial_cmp(b).unwrap()); }\n",
        )]);
        let f = float_ordering(&parsed, &cfg());
        let rules: Vec<&str> = f.iter().filter_map(|x| x.symbol.as_deref()).collect();
        assert!(rules.contains(&"Lag"));
        assert!(rules.contains(&"Score"));
        assert!(f.iter().any(|x| x.message.contains("partial_cmp")));
    }

    #[test]
    fn float_keyed_btreemap_is_flagged() {
        let toks = tokenize("pub type M = BTreeMap<f64, u64>;\npub type S = BTreeSet<u64>;\n");
        let f = float_keyed_collections("crates/demo/src/m.rs", &toks, &cfg());
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].line, 1);
    }
}
