//! Workspace symbol table and conservative name-resolved call graph.
//!
//! Resolution is *by name*, deliberately over-approximate (DESIGN.md §12):
//!
//! - `Qual::name(…)` resolves to fns whose container is `Qual` plus free
//!   fns in a module named `Qual` (so `engine::persist` works);
//! - `Self::name(…)` resolves within the calling fn's own container;
//! - `.name(…)` resolves to **every** method named `name` in the
//!   workspace (the analyzer knows no receiver types) except the methods
//!   of `impl GlobalAlloc` blocks, which only the runtime calls;
//! - bare `name(…)` resolves to every free fn named `name`.
//!
//! Calls into std or vendored crates resolve to nothing and vanish. The
//! over-approximation direction is the sound one for reachability rules:
//! an edge too many can only produce a finding too many — never hide one
//! — and the ratchet (`detlint.lock`) plus waivers absorb the noise.
//!
//! The graph is a queryable artifact: `detlint graph --dot` renders it
//! for Graphviz, `detlint graph --symbols` lists the table.

use std::collections::{BTreeMap, BTreeSet};

use crate::parse::FnSym;

/// The merged workspace symbol table plus its call graph.
#[derive(Debug, Default)]
pub struct CallGraph {
    /// All functions, sorted by (file, line) — the node list. Indices
    /// into this vector are the node ids used everywhere below.
    pub fns: Vec<FnSym>,
    /// node → resolved callee nodes (sorted, deduped).
    pub edges: Vec<Vec<usize>>,
}

impl CallGraph {
    /// Build the graph from per-file parses (any order — the table is
    /// sorted internally so the result is deterministic).
    pub fn build(mut fns: Vec<FnSym>) -> Self {
        fns.sort_by(|a, b| (&a.file, a.line, &a.name).cmp(&(&b.file, b.line, &b.name)));

        // Name indices for resolution.
        let mut methods: BTreeMap<&str, Vec<usize>> = BTreeMap::new();
        let mut free_fns: BTreeMap<&str, Vec<usize>> = BTreeMap::new();
        let mut by_container: BTreeMap<(&str, &str), Vec<usize>> = BTreeMap::new();
        let mut by_module: BTreeMap<(&str, &str), Vec<usize>> = BTreeMap::new();
        for (i, f) in fns.iter().enumerate() {
            match &f.container {
                Some(c) => {
                    if !f.allocator {
                        methods.entry(&f.name).or_default().push(i);
                    }
                    by_container
                        .entry((c.as_str(), &f.name))
                        .or_default()
                        .push(i);
                }
                None => {
                    free_fns.entry(&f.name).or_default().push(i);
                }
            }
            // The *last* module segment is the qualifier people write
            // (`engine::persist`, not `crate::engine::persist`).
            let last_mod = f.module.rsplit("::").next().unwrap_or("");
            let file_mod = f
                .file
                .rsplit('/')
                .next()
                .and_then(|n| n.strip_suffix(".rs"))
                .unwrap_or("");
            if f.container.is_none() {
                if !last_mod.is_empty() {
                    by_module.entry((last_mod, &f.name)).or_default().push(i);
                }
                if !file_mod.is_empty() && file_mod != last_mod {
                    by_module.entry((file_mod, &f.name)).or_default().push(i);
                }
            }
        }

        let mut edges: Vec<Vec<usize>> = vec![Vec::new(); fns.len()];
        for (i, f) in fns.iter().enumerate() {
            let mut out: BTreeSet<usize> = BTreeSet::new();
            for call in &f.calls {
                match (&call.qualifier, call.method) {
                    (Some(q), _) => {
                        let q = if q == "Self" {
                            f.container.as_deref().unwrap_or("")
                        } else {
                            q.as_str()
                        };
                        if let Some(v) = by_container.get(&(q, call.name.as_str())) {
                            out.extend(v.iter().copied());
                        }
                        if let Some(v) = by_module.get(&(q, call.name.as_str())) {
                            out.extend(v.iter().copied());
                        }
                    }
                    (None, true) => {
                        if let Some(v) = methods.get(call.name.as_str()) {
                            out.extend(v.iter().copied());
                        }
                    }
                    (None, false) => {
                        if let Some(v) = free_fns.get(call.name.as_str()) {
                            out.extend(v.iter().copied());
                        }
                        // A bare call inside an impl may be a plain-path
                        // call to a sibling method taken by UFCS — rare;
                        // ignored (would wire every `new()` everywhere).
                    }
                }
            }
            out.remove(&i); // self-recursion adds nothing to reachability
            edges[i] = out.into_iter().collect();
        }
        CallGraph { fns, edges }
    }

    /// Node ids matching an entry-point pattern. Patterns:
    ///
    /// - `name` — free fn of that name (any module);
    /// - `module::name` or `Type::name` — qualified fn;
    /// - `Type::*` — every method of `Type`;
    /// - `*::name` — every method of that name regardless of container.
    pub fn match_pattern(&self, pattern: &str) -> Vec<usize> {
        let mut out = Vec::new();
        let (qual, name) = match pattern.rsplit_once("::") {
            Some((q, n)) => (Some(q), n),
            None => (None, pattern),
        };
        for (i, f) in self.fns.iter().enumerate() {
            let matches = match qual {
                None => f.container.is_none() && f.name == name,
                Some("*") => f.container.is_some() && f.name == name,
                Some(q) => {
                    let container_ok = f.container.as_deref() == Some(q);
                    let module_ok = f.container.is_none()
                        && (f.module.rsplit("::").next() == Some(q)
                            || f.file
                                .rsplit('/')
                                .next()
                                .and_then(|n| n.strip_suffix(".rs"))
                                == Some(q));
                    (container_ok || module_ok) && (name == "*" || f.name == name)
                }
            };
            if matches {
                out.push(i);
            }
        }
        out
    }

    /// BFS from `roots` up to `max_depth` call edges. Returns, for every
    /// reached node, `(depth, predecessor)` — predecessor is the node it
    /// was first reached from (roots point at themselves), which lets
    /// diagnostics print a shortest call chain back to an entry point.
    pub fn reach(&self, roots: &[usize], max_depth: usize) -> BTreeMap<usize, (usize, usize)> {
        let mut seen: BTreeMap<usize, (usize, usize)> = BTreeMap::new();
        let mut frontier: Vec<usize> = Vec::new();
        for &r in roots {
            if r < self.fns.len() && !seen.contains_key(&r) {
                seen.insert(r, (0, r));
                frontier.push(r);
            }
        }
        let mut depth = 0usize;
        while !frontier.is_empty() && depth < max_depth {
            depth += 1;
            let mut next = Vec::new();
            for &n in &frontier {
                for &m in &self.edges[n] {
                    if let std::collections::btree_map::Entry::Vacant(e) = seen.entry(m) {
                        e.insert((depth, n));
                        next.push(m);
                    }
                }
            }
            frontier = next;
        }
        seen
    }

    /// The shortest call chain from an entry point to `node`, as
    /// qualified names (`entry -> … -> node`), given a `reach` result.
    pub fn chain(&self, reach: &BTreeMap<usize, (usize, usize)>, node: usize) -> String {
        let name = |i: usize| -> String {
            self.fns
                .get(i)
                .expect("invariant: reach nodes index self.fns")
                .qualified()
        };
        let mut parts = vec![name(node)];
        let mut cur = node;
        let mut guard = 0usize;
        while let Some(&(_, pred)) = reach.get(&cur) {
            if pred == cur || guard > 64 {
                break;
            }
            parts.push(name(pred));
            cur = pred;
            guard += 1;
        }
        parts.reverse();
        parts.join(" -> ")
    }

    /// Render the graph in Graphviz DOT, clustered by crate. Nodes are
    /// qualified names; panic-source-bearing fns are marked.
    pub fn render_dot(&self) -> String {
        let mut s = String::from(
            "digraph detlint_callgraph {\n  rankdir=LR;\n  node [shape=box, fontsize=9];\n",
        );
        let mut by_crate: BTreeMap<&str, Vec<usize>> = BTreeMap::new();
        for (i, f) in self.fns.iter().enumerate() {
            by_crate.entry(&f.krate).or_default().push(i);
        }
        for (krate, nodes) in &by_crate {
            s.push_str(&format!(
                "  subgraph \"cluster_{krate}\" {{\n    label=\"{krate}\";\n"
            ));
            for &i in nodes {
                let f = &self.fns[i];
                let panics = f.sites.iter().any(|s| s.kind.is_panic());
                let style = if panics {
                    ", style=filled, fillcolor=\"#ffdddd\""
                } else {
                    ""
                };
                s.push_str(&format!(
                    "    n{i} [label=\"{}\"{style}];\n",
                    f.qualified().replace('"', "'")
                ));
            }
            s.push_str("  }\n");
        }
        for (i, outs) in self.edges.iter().enumerate() {
            for &j in outs {
                s.push_str(&format!("  n{i} -> n{j};\n"));
            }
        }
        s.push_str("}\n");
        s
    }

    /// Render the symbol table as one line per fn:
    /// `crate file:line qualified-name [labels…]`.
    pub fn render_symbols(&self) -> String {
        let mut s = String::new();
        for f in &self.fns {
            let labels: Vec<String> = f.sites.iter().map(|x| x.kind.label()).collect();
            s.push_str(&format!(
                "{} {}:{} {}{}{}\n",
                f.krate,
                f.file,
                f.line,
                f.qualified(),
                if labels.is_empty() { "" } else { " " },
                labels.join(",")
            ));
        }
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse::parse_file;
    use crate::token::tokenize;

    fn graph(files: &[(&str, &str, &str)]) -> CallGraph {
        let mut fns = Vec::new();
        for (file, krate, src) in files {
            fns.extend(parse_file(file, krate, &tokenize(src)).fns);
        }
        CallGraph::build(fns)
    }

    #[test]
    fn qualified_and_method_calls_resolve() {
        let g = graph(&[
            (
                "crates/a/src/engine.rs",
                "a",
                "pub fn persist() { Journal::append(j); helper(); }\n\
                 fn helper() { x.push_arrived(e); }\n",
            ),
            (
                "crates/a/src/journal.rs",
                "a",
                "impl Journal {\n\
                     pub fn append(&mut self) { self.grow(); }\n\
                     fn grow(&mut self) {}\n\
                     pub fn push_arrived(&mut self) {}\n\
                 }\n",
            ),
        ]);
        let persist = g.match_pattern("engine::persist");
        assert_eq!(persist.len(), 1);
        let reach = g.reach(&persist, 10);
        let reached: Vec<String> = reach.keys().map(|&i| g.fns[i].qualified()).collect();
        assert_eq!(
            reached,
            [
                "engine::persist",
                "engine::helper",
                "Journal::append",
                "Journal::grow",
                "Journal::push_arrived"
            ]
        );
    }

    #[test]
    fn depth_limit_bounds_reachability() {
        let g = graph(&[(
            "crates/a/src/lib.rs",
            "a",
            "fn a() { b(); }\nfn b() { c(); }\nfn c() { d(); }\nfn d() {}\n",
        )]);
        let roots = g.match_pattern("a");
        assert_eq!(g.reach(&roots, 1).len(), 2); // a, b
        assert_eq!(g.reach(&roots, 3).len(), 4); // all
    }

    #[test]
    fn wildcard_patterns_match_methods() {
        let g = graph(&[(
            "crates/a/src/ev.rs",
            "a",
            "impl StorageOp { fn dispatch(self) {} }\n\
             impl EcomOp { fn dispatch(self) {} }\n\
             impl StorageOp { fn other(self) {} }\n",
        )]);
        assert_eq!(g.match_pattern("*::dispatch").len(), 2);
        assert_eq!(g.match_pattern("StorageOp::*").len(), 2);
        assert_eq!(g.match_pattern("StorageOp::dispatch").len(), 1);
    }

    #[test]
    fn chains_trace_back_to_entry() {
        let g = graph(&[(
            "crates/a/src/lib.rs",
            "a",
            "fn a() { b(); }\nfn b() { c(); }\nfn c() { v.unwrap(); }\n",
        )]);
        let roots = g.match_pattern("a");
        let reach = g.reach(&roots, 10);
        let c = g.match_pattern("c")[0];
        assert_eq!(g.chain(&reach, c), "a -> b -> c");
    }

    #[test]
    fn graph_is_deterministic_under_file_order() {
        let files = [
            ("crates/a/src/x.rs", "a", "fn f() { g(); }"),
            ("crates/b/src/y.rs", "b", "fn g() { h.unwrap(); }"),
        ];
        let g1 = graph(&files);
        let rev: Vec<_> = files.iter().rev().cloned().collect();
        let g2 = graph(&rev);
        assert_eq!(g1.render_dot(), g2.render_dot());
        assert_eq!(g1.render_symbols(), g2.render_symbols());
    }

    #[test]
    fn dot_marks_panicking_nodes() {
        let g = graph(&[(
            "crates/a/src/x.rs",
            "a",
            "fn f() { x.unwrap(); }\nfn ok() {}",
        )]);
        let dot = g.render_dot();
        assert!(dot.contains("fillcolor"));
        assert!(dot.contains("cluster_a"));
    }
}
