//! The serializability checker against the one it replaced.
//!
//! `reference` is the checker as it stood before the version chains
//! became sorted flat arrays (DESIGN.md §25), kept verbatim: one
//! `BTreeMap` per chain, a reverse linear scan for each version's
//! predecessor, an adjacency `Vec` per transaction. The property runs
//! both over random committed footprints — version-0 installs, duplicate
//! installs, reads of versions nobody wrote, pending transactions — and
//! asserts equal reports: kinds, details, ops, their order and
//! `ops_checked`.

use proptest::prelude::*;
use tsuru_history::check::serial;
use tsuru_history::{KeyVer, OpData, Recorder, TxnOps};
use tsuru_sim::SimTime;

mod reference {
    use std::collections::BTreeMap;

    use tsuru_history::{Anomaly, AnomalyKind, CheckReport, History, OpData, OpId, Phase, TxnOps};

    #[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
    enum EdgeKind {
        Ww,
        Wr,
        Rw,
    }

    impl EdgeKind {
        fn label(self) -> &'static str {
            match self {
                EdgeKind::Ww => "ww",
                EdgeKind::Wr => "wr",
                EdgeKind::Rw => "rw",
            }
        }
    }

    /// Iterative Tarjan SCC; returns components in discovery order. Node
    /// ids are dense indices into the transaction list.
    fn tarjan(n: usize, adj: &[Vec<usize>]) -> Vec<Vec<usize>> {
        let mut index = vec![u32::MAX; n];
        let mut low = vec![0u32; n];
        let mut on_stack = vec![false; n];
        let mut stack: Vec<usize> = Vec::new();
        let mut next_index = 0u32;
        let mut sccs = Vec::new();
        // Explicit DFS frames: (node, next-edge-offset).
        let mut frames: Vec<(usize, usize)> = Vec::new();

        for root in 0..n {
            if index[root] != u32::MAX {
                continue;
            }
            frames.push((root, 0));
            while !frames.is_empty() {
                let (v, ei) = *frames.last().expect("frame exists");
                if ei == 0 {
                    index[v] = next_index;
                    low[v] = next_index;
                    next_index += 1;
                    stack.push(v);
                    on_stack[v] = true;
                }
                if let Some(&w) = adj[v].get(ei) {
                    frames.last_mut().expect("frame exists").1 += 1;
                    if index[w] == u32::MAX {
                        frames.push((w, 0));
                    } else if on_stack[w] {
                        low[v] = low[v].min(index[w]);
                    }
                } else {
                    if low[v] == index[v] {
                        let mut comp = Vec::new();
                        while let Some(w) = stack.pop() {
                            on_stack[w] = false;
                            comp.push(w);
                            if w == v {
                                break;
                            }
                        }
                        sccs.push(comp);
                    }
                    frames.pop();
                    if let Some(&(parent, _)) = frames.last() {
                        low[parent] = low[parent].min(low[v]);
                    }
                }
            }
        }
        sccs
    }

    /// Check the committed transactions of `h` for dependency cycles.
    pub fn check(h: &History) -> CheckReport {
        // Committed txns: op id → footprint, in invoke order.
        let mut txns: Vec<(OpId, TxnOps)> = Vec::new();
        for r in &h.records {
            if r.phase == Phase::Ok {
                if let OpData::Txn(ops) = &r.data {
                    txns.push((r.op, ops.clone()));
                }
            }
        }
        let mut anomalies = Vec::new();

        // Version chains: who installed / read each (space, key, version).
        let mut writer: BTreeMap<(u32, u64, u64), usize> = BTreeMap::new();
        let mut readers: BTreeMap<(u32, u64, u64), Vec<usize>> = BTreeMap::new();
        let mut written: BTreeMap<(u32, u64), Vec<u64>> = BTreeMap::new();
        for (i, (op, ops)) in txns.iter().enumerate() {
            for w in &ops.writes {
                let slot = (w.space, w.key, w.version);
                if let Some(&prev) = writer.get(&slot) {
                    anomalies.push(Anomaly {
                        kind: AnomalyKind::ConflictingWrite,
                        detail: format!(
                            "two txns installed space={} key={} version={}",
                            w.space, w.key, w.version
                        ),
                        ops: vec![txns[prev].0, *op],
                    });
                } else {
                    writer.insert(slot, i);
                    written.entry((w.space, w.key)).or_default().push(w.version);
                }
            }
            for rd in &ops.reads {
                readers
                    .entry((rd.space, rd.key, rd.version))
                    .or_default()
                    .push(i);
            }
        }
        for versions in written.values_mut() {
            versions.sort_unstable();
        }

        // Dependency edges, deduplicated, self-edges dropped.
        let n = txns.len();
        let mut edges: BTreeMap<(usize, usize), Vec<EdgeKind>> = BTreeMap::new();
        let add = |from: usize,
                   to: usize,
                   kind: EdgeKind,
                   edges: &mut BTreeMap<(usize, usize), Vec<EdgeKind>>| {
            if from == to {
                return;
            }
            let kinds = edges.entry((from, to)).or_default();
            if !kinds.contains(&kind) {
                kinds.push(kind);
            }
        };
        for (&(space, key), versions) in &written {
            for pair in versions.windows(2) {
                let (a, b) = (
                    writer[&(space, key, pair[0])],
                    writer[&(space, key, pair[1])],
                );
                add(a, b, EdgeKind::Ww, &mut edges);
            }
            for &v in versions {
                let w = writer[&(space, key, v)];
                if let Some(rs) = readers.get(&(space, key, v)) {
                    for &r in rs {
                        add(w, r, EdgeKind::Wr, &mut edges);
                    }
                }
                // Anti-dependency: whoever read the version *before* v must
                // precede v's writer in any serial order.
                let prev = versions
                    .iter()
                    .rev()
                    .find(|&&p| p < v)
                    .copied()
                    .unwrap_or(0);
                if let Some(rs) = readers.get(&(space, key, prev)) {
                    for &r in rs {
                        add(r, w, EdgeKind::Rw, &mut edges);
                    }
                }
            }
        }

        let mut adj = vec![Vec::new(); n];
        for &(from, to) in edges.keys() {
            adj[from].push(to);
        }

        for scc in tarjan(n, &adj) {
            if scc.len() < 2 {
                continue;
            }
            let mut members = scc.clone();
            members.sort_unstable();
            let in_scc = |i: usize| members.binary_search(&i).is_ok();

            // Edge kinds and keys internal to the cycle.
            let mut kinds: Vec<EdgeKind> = Vec::new();
            for (&(from, to), ks) in &edges {
                if in_scc(from) && in_scc(to) {
                    for k in ks {
                        if !kinds.contains(k) {
                            kinds.push(*k);
                        }
                    }
                }
            }
            kinds.sort_unstable();
            let pure_info_flow = kinds.iter().all(|k| *k != EdgeKind::Rw);

            // Lost update: two cycle members read the same version of a key
            // they both also wrote.
            let mut lost_update = false;
            'outer: for (&(space, key, _v), rs) in &readers {
                let contenders: Vec<usize> = rs
                    .iter()
                    .copied()
                    .filter(|&r| {
                        in_scc(r)
                            && txns[r]
                                .1
                                .writes
                                .iter()
                                .any(|w| w.space == space && w.key == key)
                    })
                    .collect();
                if contenders.len() >= 2 {
                    lost_update = true;
                    break 'outer;
                }
            }

            let kind = if pure_info_flow {
                AnomalyKind::WriteCycle
            } else if lost_update {
                AnomalyKind::LostUpdate
            } else {
                AnomalyKind::NonSerializable
            };
            let kind_labels: Vec<&str> = kinds.iter().map(|k| k.label()).collect();
            let mut ops: Vec<OpId> = members.iter().map(|&i| txns[i].0).collect();
            ops.sort_unstable();
            anomalies.push(Anomaly {
                kind,
                detail: format!(
                    "dependency cycle of {} committed txns (edges: {})",
                    members.len(),
                    kind_labels.join(",")
                ),
                ops,
            });
        }

        // Deterministic report order: by first op id in the anomaly.
        anomalies.sort_by_key(|a| (a.ops.first().copied().unwrap_or(OpId::NONE), a.kind.label()));
        CheckReport {
            checker: "serializable",
            ops_checked: n as u64,
            anomalies,
        }
    }
}

fn keyver() -> impl Strategy<Value = KeyVer> {
    (1u32..=3, 0u64..4, 0u64..=5).prop_map(|(space, key, version)| KeyVer {
        space,
        key,
        version,
    })
}

/// One transaction: its footprint, and whether it committed (one in
/// seven stays pending: invoked and never answered).
fn txn() -> impl Strategy<Value = (TxnOps, bool)> {
    (
        prop::collection::vec(keyver(), 0..4),
        prop::collection::vec(keyver(), 0..4),
        0u8..7,
    )
        .prop_map(|(reads, writes, roll)| (TxnOps { reads, writes }, roll != 0))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(1024))]

    #[test]
    fn sorted_chains_judge_as_the_maps_did(txns in prop::collection::vec(txn(), 0..=12)) {
        let r = Recorder::enabled();
        for (i, (ops, committed)) in txns.into_iter().enumerate() {
            let t = SimTime::from_micros(i as u64);
            let op = r.invoke(1, t, OpData::Transfer { from: 0, to: 1, amount: 1 });
            if committed {
                r.ok(1, op, t, OpData::Txn(ops));
            }
        }
        let h = r.history();
        prop_assert_eq!(serial::check(&h), reference::check(&h));
    }
}
