//! Parser & call-graph corpus: the item parser against the Rust shapes
//! that show up in this workspace (impl blocks, trait default methods,
//! closures, macro invocations, raw identifiers, shadowed names), plus
//! property tests that the front end is total and the graph build is
//! deterministic on arbitrary input.
//!
//! The corpus here is inline (not `fixtures/`) because these sources are
//! *valid* Rust the walker may safely see; the fixtures directory is for
//! rule-violating material.

#![forbid(unsafe_code)]

use detlint::graph::CallGraph;
use detlint::parse::{parse_file, SiteKind};
use detlint::token::tokenize;
use proptest::prelude::*;

fn parse(src: &str) -> detlint::parse::FileSymbols {
    parse_file("crates/demo/src/engine.rs", "demo", &tokenize(src))
}

fn graph_of(files: &[(&str, &str)]) -> CallGraph {
    let mut fns = Vec::new();
    for (path, src) in files {
        fns.extend(parse_file(path, "demo", &tokenize(src)).fns);
    }
    CallGraph::build(fns)
}

// ---------------------------------------------------------------------------
// Corpus
// ---------------------------------------------------------------------------

#[test]
fn impl_blocks_attribute_methods_to_their_type() {
    let s = parse(
        "pub struct Journal { seq: u64 }\n\
         impl Journal {\n\
             pub fn append(&mut self) { self.grow(); }\n\
             fn grow(&mut self) {}\n\
         }\n\
         impl Default for Journal {\n\
             fn default() -> Self { Journal { seq: 0 } }\n\
         }\n",
    );
    let names: Vec<String> = s.fns.iter().map(|f| f.qualified()).collect();
    assert_eq!(
        names,
        ["Journal::append", "Journal::grow", "Journal::default"]
    );
}

#[test]
fn trait_default_methods_belong_to_the_trait() {
    let s = parse(
        "trait Pump {\n\
             fn kick(&self) { self.run_once(); }\n\
             fn run_once(&self);\n\
         }\n",
    );
    // The default body is parsed; the bodiless signature is still a symbol
    // (it can be a call target) with no calls of its own.
    let kick = s
        .fns
        .iter()
        .find(|f| f.name == "kick")
        .expect("kick parsed");
    assert_eq!(kick.qualified(), "Pump::kick");
    assert_eq!(kick.calls.len(), 1);
    assert_eq!(kick.calls[0].name, "run_once");
}

#[test]
fn closure_bodies_are_attributed_to_the_enclosing_fn() {
    let s = parse(
        "fn drain(xs: Vec<Option<u64>>) -> Vec<u64> {\n\
             xs.into_iter().map(|x| x.unwrap()).collect()\n\
         }\n",
    );
    assert_eq!(s.fns.len(), 1);
    assert!(
        s.fns[0].sites.iter().any(|st| st.kind == SiteKind::Unwrap),
        "unwrap inside the closure must land on `drain`: {:?}",
        s.fns[0].sites
    );
}

#[test]
fn macro_invocations_flag_panics_and_keep_scanning_arguments() {
    let s = parse(
        "fn f() {\n\
             if broken() { panic!(\"boom {}\", 1); }\n\
             let v = vec![build_entry()];\n\
             drop(v);\n\
         }\n",
    );
    let f = &s.fns[0];
    assert!(
        f.sites
            .iter()
            .any(|st| st.kind == SiteKind::PanicMacro("panic".to_owned())),
        "panic! not flagged: {:?}",
        f.sites
    );
    // Calls inside macro arguments still count as edges.
    let calls: Vec<&str> = f.calls.iter().map(|c| c.name.as_str()).collect();
    assert!(calls.contains(&"broken"));
    assert!(calls.contains(&"build_entry"));
}

#[test]
fn raw_identifiers_parse_as_their_bare_name() {
    let s = parse(
        "pub fn r#type() -> u64 { 1 }\n\
         fn caller() -> u64 { r#type() }\n",
    );
    let names: Vec<&str> = s.fns.iter().map(|f| f.name.as_str()).collect();
    assert_eq!(names, ["type", "caller"]);
    assert_eq!(s.fns[1].calls[0].name, "type");
}

#[test]
fn shadowed_names_resolve_by_container() {
    // Two `apply` symbols: a free fn and a method. A qualified call picks
    // the container's; a bare call links the free fns; a method call links
    // the methods.
    let g = graph_of(&[
        (
            "crates/demo/src/engine.rs",
            "pub fn persist() { Batch::apply(b); }\n\
             pub fn flush() { apply(); }\n\
             pub fn drain(b: Batch) { b.apply(); }\n\
             fn apply() {}\n",
        ),
        (
            "crates/demo/src/batch.rs",
            "impl Batch { pub fn apply(&self) {} }\n",
        ),
    ]);
    let method = g.match_pattern("Batch::apply");
    assert_eq!(method.len(), 1);
    let free = g.match_pattern("engine::apply");
    assert_eq!(free.len(), 1);
    assert_ne!(method[0], free[0]);

    // persist -> Batch::apply (qualified), not the free fn.
    let persist = g.match_pattern("engine::persist");
    let reach = g.reach(&persist, 5);
    assert!(
        reach.contains_key(&method[0]),
        "qualified call missed the method"
    );
    assert!(
        !reach.contains_key(&free[0]),
        "qualified call leaked to the free fn"
    );

    // flush -> free apply (bare call).
    let flush = g.match_pattern("engine::flush");
    let reach = g.reach(&flush, 5);
    assert!(reach.contains_key(&free[0]), "bare call missed the free fn");

    // drain -> Batch::apply (method call, conservative over all methods of
    // that name — here there is exactly one).
    let drain = g.match_pattern("engine::drain");
    let reach = g.reach(&drain, 5);
    assert!(
        reach.contains_key(&method[0]),
        "method call missed the method"
    );
}

#[test]
fn method_calls_never_reach_the_global_allocator() {
    // The runtime calls an allocator's methods; no `.alloc(` call site
    // does. Linking one to `CountingAlloc::alloc` by name would make every
    // allocating path reach whatever the allocator calls — here a `.load(`
    // that resolves to an unrelated `BTree::load` with a panic in it.
    let g = graph_of(&[
        (
            "crates/allocs/src/lib.rs",
            "pub struct CountingAlloc;\n\
             unsafe impl GlobalAlloc for CountingAlloc {\n\
                 unsafe fn alloc(&self, l: Layout) -> *mut u8 {\n\
                     INSTALLED.load(Ordering::Relaxed);\n\
                     unsafe { System.alloc(l) }\n\
                 }\n\
             }\n",
        ),
        (
            "crates/telemetry/src/trace.rs",
            "impl Tracer { pub fn span_complete(&mut self) { self.arena.alloc(); } }\n\
             impl Arena { pub fn alloc(&mut self) {} }\n",
        ),
        (
            "crates/minidb/src/btree.rs",
            "impl BTree { pub fn load(&self) { self.root.unwrap(); } }\n",
        ),
    ]);
    let counting = g.match_pattern("CountingAlloc::alloc");
    let arena = g.match_pattern("Arena::alloc");
    let load = g.match_pattern("BTree::load");
    assert_eq!((counting.len(), arena.len(), load.len()), (1, 1, 1));
    assert!(g.fns[counting[0]].allocator && !g.fns[arena[0]].allocator);

    let reach = g.reach(&g.match_pattern("Tracer::span_complete"), 8);
    assert!(
        reach.contains_key(&arena[0]),
        "a method call still reaches every ordinary method of its name"
    );
    assert!(
        !reach.contains_key(&counting[0]),
        "a `.alloc(` call site reached the global allocator"
    );
    assert!(
        !reach.contains_key(&load[0]),
        "an allocating path reached `BTree::load` through the allocator"
    );
    // The allocator's own calls resolve as before.
    assert!(g.reach(&counting, 1).contains_key(&load[0]));
}

#[test]
fn test_modules_never_reach_the_symbol_table() {
    let s = parse(
        "pub fn real() {}\n\
         #[cfg(test)]\n\
         mod tests {\n\
             pub fn apply() { x.unwrap(); }\n\
         }\n",
    );
    let names: Vec<&str> = s.fns.iter().map(|f| f.name.as_str()).collect();
    assert_eq!(names, ["real"], "test helpers must not pollute the graph");
}

#[test]
fn dot_output_is_stable_and_names_panic_nodes() {
    let g = graph_of(&[(
        "crates/demo/src/engine.rs",
        "pub fn persist() { step(); }\n\
         fn step() { x.unwrap(); }\n",
    )]);
    let dot = g.render_dot();
    assert_eq!(dot, g.render_dot(), "DOT render must be deterministic");
    assert!(dot.contains("digraph"));
    assert!(dot.contains("engine::persist"));
    assert!(dot.contains("engine::step"));
    // Panic-site nodes are visually marked.
    assert!(dot.contains("#ffdddd"), "panic fill missing:\n{dot}");
}

// ---------------------------------------------------------------------------
// Properties
// ---------------------------------------------------------------------------

/// Arbitrary unicode text (the vendored proptest has no string strategies,
/// so text is assembled from raw code points; invalid ones map to U+FFFD).
fn any_text() -> impl Strategy<Value = String> {
    prop::collection::vec(any::<u32>(), 0..200).prop_map(|cps| {
        cps.into_iter()
            .map(|cp| char::from_u32(cp).unwrap_or('\u{fffd}'))
            .collect()
    })
}

/// Rust-ish token soup: denser in the punctuation that drives the
/// parser's state machine (generics, attributes, strings, macros).
fn rustish_soup(max_len: usize) -> impl Strategy<Value = String> {
    const ALPHABET: &[u8] = b"abcdefgXYZ0189_:;(){}[]<>.,#\"'!&|=/* \n-";
    prop::collection::vec(0usize..ALPHABET.len(), 0..max_len)
        .prop_map(|ix| ix.into_iter().map(|i| ALPHABET[i] as char).collect())
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 128 })]

    /// The tokenizer and parser are total: any string — not just valid
    /// Rust — parses without panicking, and parsing is a pure function.
    #[test]
    fn parser_is_total_and_deterministic_on_arbitrary_text(src in any_text()) {
        let a = parse_file("crates/demo/src/soup.rs", "demo", &tokenize(&src));
        let b = parse_file("crates/demo/src/soup.rs", "demo", &tokenize(&src));
        prop_assert_eq!(a, b);
    }

    #[test]
    fn parser_survives_rustish_token_soup(src in rustish_soup(400)) {
        let syms = parse_file("crates/demo/src/soup.rs", "demo", &tokenize(&src));
        // Graph construction on whatever came out is total and stable too.
        let g1 = CallGraph::build(syms.fns.clone());
        let g2 = CallGraph::build(syms.fns.clone());
        prop_assert_eq!(g1.fns, g2.fns);
        prop_assert_eq!(g1.edges, g2.edges);
    }

    /// Reachability never escapes its depth bound and never invents nodes.
    #[test]
    fn reach_respects_bounds_on_arbitrary_soup(
        src in rustish_soup(300),
        depth in 0usize..6,
    ) {
        let syms = parse_file("crates/demo/src/soup.rs", "demo", &tokenize(&src));
        let g = CallGraph::build(syms.fns);
        let roots: Vec<usize> = (0..g.fns.len().min(3)).collect();
        let reach = g.reach(&roots, depth);
        for (&node, &(d, _)) in &reach {
            prop_assert!(node < g.fns.len());
            prop_assert!(d <= depth);
        }
    }
}
