//! Serializability cycle detection over transactional histories.
//!
//! Committed transactions declare their footprint as per-key version
//! chains ([`crate::TxnOps`]): a read observes the version that was
//! current, a write installs the next one. From those chains the
//! checker derives the classic dependency edges —
//!
//! * **ww** — writer of version *v* → writer of the next version,
//! * **wr** — writer of version *v* → every reader of *v*,
//! * **rw** — reader of version *v* → writer of the next version
//!   (the anti-dependency),
//!
//! — and runs Tarjan's SCC over the transaction graph. Any strongly
//! connected component larger than one transaction is a dependency
//! cycle no serial order can explain. Cycles made only of ww/wr edges
//! are Adya's G1c (circular information flow); cycles where two
//! members read the same version of a key they both wrote are lost
//! updates; anything else is reported as plain non-serializability.
//!
//! Pending transactions (invoke without completion) are excluded: the
//! system never acked them, so the client has no claim about them.
//!
//! The chains are two flat arrays — every version installed and every
//! version read, each sorted by `(space, key, version)` and then by the
//! order the footprints were recorded in — so a version's writer is the
//! first entry of its run, its readers are one run of the other array,
//! and its predecessor is the previous installed version of the same
//! key (DESIGN.md §25). The edges are one sorted, deduplicated array, and
//! a transaction's successors are one range of it.

use crate::check::{Anomaly, AnomalyKind, CheckReport};
use crate::record::{KeyVer, OpData, OpId, Phase, Record, TxnOps};

/// Edge kind bits, in the order a cycle's detail lists them.
const KINDS: [(u8, &str); 3] = [(WW, "ww"), (WR, "wr"), (RW, "rw")];
/// Writer of a version → writer of the next version of its key.
const WW: u8 = 1;
/// Writer of a version → a reader of it.
const WR: u8 = 2;
/// Reader of a version → writer of the next version (anti-dependency).
const RW: u8 = 4;

/// `(space, key, version)`: one version of one key.
type Slot = (u32, u64, u64);

/// One version a committed transaction read or installed. The derived
/// order is the sort the chains need: by slot, then by `seq`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
struct Touch {
    space: u32,
    key: u64,
    version: u64,
    /// Position in recording order (transaction, then footprint order):
    /// within a slot, the earlier entry sorts first.
    seq: u32,
    /// Index of the transaction in commit-record order.
    txn: u32,
}

impl Touch {
    fn slot(&self) -> Slot {
        (self.space, self.key, self.version)
    }
}

/// The dependency graph: `edges` sorted by `(from, to)`, one entry per
/// pair with its kind bits OR-ed, and `offsets[v]..offsets[v + 1]` the
/// range of `v`'s successors (ascending).
struct Graph {
    offsets: Vec<usize>,
    edges: Vec<(u32, u32, u8)>,
}

impl Graph {
    fn out(&self, v: usize) -> &[(u32, u32, u8)] {
        &self.edges[self.offsets[v]..self.offsets[v + 1]]
    }
}

/// Iterative Tarjan SCC over `g`'s `n` nodes; returns the components of
/// more than one node — the dependency cycles — in discovery order, each
/// sorted ascending.
fn cycles(n: usize, g: &Graph) -> Vec<Vec<usize>> {
    let mut index = vec![u32::MAX; n];
    let mut low = vec![0u32; n];
    let mut on_stack = vec![false; n];
    let mut stack: Vec<usize> = Vec::with_capacity(n);
    let mut next_index = 0u32;
    let mut sccs = Vec::new();
    // Explicit DFS frames: (node, next-edge-offset).
    let mut frames: Vec<(usize, usize)> = Vec::with_capacity(n);

    for root in 0..n {
        if index[root] != u32::MAX {
            continue;
        }
        frames.push((root, 0));
        while let Some(&(v, ei)) = frames.last() {
            if ei == 0 {
                index[v] = next_index;
                low[v] = next_index;
                next_index += 1;
                stack.push(v);
                on_stack[v] = true;
            }
            if let Some(&(_, w, _)) = g.out(v).get(ei) {
                let w = w as usize;
                frames.last_mut().expect("frame exists").1 += 1;
                if index[w] == u32::MAX {
                    frames.push((w, 0));
                } else if on_stack[w] {
                    low[v] = low[v].min(index[w]);
                }
            } else {
                if low[v] == index[v] {
                    let at = stack.iter().rposition(|&w| w == v).expect("v is on the stack");
                    for &w in &stack[at..] {
                        on_stack[w] = false;
                    }
                    if stack.len() - at > 1 {
                        let mut comp = stack[at..].to_vec();
                        comp.sort_unstable();
                        sccs.push(comp);
                    }
                    stack.truncate(at);
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

/// The committed transactions of `records`: op id and footprint, in
/// commit-record order.
fn committed(records: &[Record]) -> impl Iterator<Item = (OpId, &TxnOps)> {
    records.iter().filter_map(|r| match (&r.phase, &r.data) {
        (Phase::Ok, OpData::Txn(ops)) => Some((r.op, ops)),
        _ => None,
    })
}

/// Check the committed transactions of `records` for dependency cycles.
pub fn check(records: &[Record]) -> CheckReport {
    let (mut n, mut n_writes, mut n_reads) = (0, 0, 0);
    for (_, ops) in committed(records) {
        n += 1;
        n_writes += ops.writes.len();
        n_reads += ops.reads.len();
    }
    let mut txns: Vec<(OpId, &TxnOps)> = Vec::with_capacity(n);
    let mut writes: Vec<Touch> = Vec::with_capacity(n_writes);
    let mut reads: Vec<Touch> = Vec::with_capacity(n_reads);
    let touch = |kv: &KeyVer, seq: usize, txn: usize| Touch {
        space: kv.space,
        key: kv.key,
        version: kv.version,
        seq: seq as u32,
        txn: txn as u32,
    };
    for (op, ops) in committed(records) {
        let txn = txns.len();
        txns.push((op, ops));
        for w in &ops.writes {
            writes.push(touch(w, writes.len(), txn));
        }
        for rd in &ops.reads {
            reads.push(touch(rd, reads.len(), txn));
        }
    }
    writes.sort_unstable();
    reads.sort_unstable();

    // The first installer of a slot wins; every later one is a conflict,
    // reported in the order it was recorded.
    let mut anomalies = Vec::new();
    let mut conflicts: Vec<(u32, u32, u32, Slot)> = Vec::new();
    let mut winner = 0;
    for (i, w) in writes.iter().enumerate() {
        if i > 0 && w.slot() == writes[winner].slot() {
            conflicts.push((w.seq, writes[winner].txn, w.txn, w.slot()));
        } else {
            winner = i;
        }
    }
    conflicts.sort_unstable();
    for (_, first, second, (space, key, version)) in conflicts {
        anomalies.push(Anomaly {
            kind: AnomalyKind::ConflictingWrite,
            detail: format!("two txns installed space={space} key={key} version={version}"),
            ops: vec![txns[first as usize].0, txns[second as usize].0],
        });
    }
    writes.dedup_by_key(|w| w.slot());

    // Dependency edges, self-edges dropped. Readers of version 0 of a key
    // whose first install is version 0 take both that writer's wr edge and
    // an rw edge to it: the predecessor of the first version is 0.
    let readers = |slot: Slot| {
        let lo = reads.partition_point(|r| r.slot() < slot);
        let len = reads[lo..].partition_point(|r| r.slot() == slot);
        &reads[lo..lo + len]
    };
    let mut edges: Vec<(u32, u32, u8)> = Vec::with_capacity(writes.len() + 3 * reads.len());
    let mut edge = |from: u32, to: u32, kind: u8| {
        if from != to {
            edges.push((from, to, kind));
        }
    };
    for (i, w) in writes.iter().enumerate() {
        let prev = i
            .checked_sub(1)
            .map(|j| &writes[j])
            .filter(|p| (p.space, p.key) == (w.space, w.key));
        if let Some(p) = prev {
            edge(p.txn, w.txn, WW);
        }
        for r in readers(w.slot()) {
            edge(w.txn, r.txn, WR);
        }
        // Anti-dependency: whoever read the version *before* w's must
        // precede w's writer in any serial order.
        for r in readers((w.space, w.key, prev.map_or(0, |p| p.version))) {
            edge(r.txn, w.txn, RW);
        }
    }
    edges.sort_unstable();
    edges.dedup_by(|next, kept| {
        let same = (next.0, next.1) == (kept.0, kept.1);
        if same {
            kept.2 |= next.2;
        }
        same
    });
    let mut offsets = vec![0usize; n + 1];
    for &(from, _, _) in &edges {
        offsets[from as usize + 1] += 1;
    }
    for v in 0..n {
        offsets[v + 1] += offsets[v];
    }
    let g = Graph { offsets, edges };

    for members in cycles(n, &g) {
        let in_scc = |i: u32| members.binary_search(&(i as usize)).is_ok();

        // Edge kinds internal to the cycle.
        let mut kinds = 0u8;
        for &m in &members {
            for &(_, to, k) in g.out(m) {
                if in_scc(to) {
                    kinds |= k;
                }
            }
        }
        let pure_info_flow = kinds & RW == 0;

        // Lost update: two cycle members' reads of one version of a key
        // they also wrote.
        let contends = |r: &Touch| {
            in_scc(r.txn)
                && txns[r.txn as usize]
                    .1
                    .writes
                    .iter()
                    .any(|w| w.space == r.space && w.key == r.key)
        };
        let lost_update = !pure_info_flow && {
            let mut contenders = reads.iter().filter(|r| contends(r));
            let mut last = contenders.next().map(Touch::slot);
            contenders.any(|r| {
                let repeat = last == Some(r.slot());
                last = Some(r.slot());
                repeat
            })
        };

        let kind = if pure_info_flow {
            AnomalyKind::WriteCycle
        } else if lost_update {
            AnomalyKind::LostUpdate
        } else {
            AnomalyKind::NonSerializable
        };
        let kind_labels: Vec<&str> = KINDS
            .iter()
            .filter(|(bit, _)| kinds & bit != 0)
            .map(|&(_, label)| label)
            .collect();
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::Recorder;
    use tsuru_sim::SimTime;

    fn kv(space: u32, key: u64, version: u64) -> KeyVer {
        KeyVer { space, key, version }
    }

    fn commit(r: &Recorder, process: u32, t_us: u64, reads: Vec<KeyVer>, writes: Vec<KeyVer>) {
        let op = r.invoke(
            process,
            SimTime::from_micros(t_us),
            OpData::Transfer { from: 0, to: 1, amount: 1 },
        );
        r.ok(
            process,
            op,
            SimTime::from_micros(t_us + 1),
            OpData::Txn(TxnOps { reads, writes }),
        );
    }

    #[test]
    fn serial_chain_is_clean() {
        let r = Recorder::enabled();
        // T1 reads v0 writes v1; T2 reads v1 writes v2; a reader of v2.
        commit(&r, 1, 10, vec![kv(3, 7, 0)], vec![kv(3, 7, 1)]);
        commit(&r, 2, 20, vec![kv(3, 7, 1)], vec![kv(3, 7, 2)]);
        commit(&r, 1, 30, vec![kv(3, 7, 2)], vec![kv(3, 8, 1)]);
        let report = check(&r.history());
        assert!(report.is_clean(), "{:?}", report.anomalies);
        assert_eq!(report.ops_checked, 3);
    }

    #[test]
    fn write_cycle_is_g1c() {
        let r = Recorder::enabled();
        // T1 writes x1 and reads y1 (written by T2); T2 writes y1 and
        // reads x1 (written by T1): wr edges both ways.
        commit(&r, 1, 10, vec![kv(1, 2, 1)], vec![kv(1, 1, 1)]);
        commit(&r, 2, 11, vec![kv(1, 1, 1)], vec![kv(1, 2, 1)]);
        let report = check(&r.history());
        assert_eq!(report.anomalies.len(), 1, "{:?}", report.anomalies);
        assert_eq!(report.anomalies[0].kind, AnomalyKind::WriteCycle);
        assert_eq!(report.anomalies[0].ops.len(), 2);
    }

    #[test]
    fn lost_update_is_classified() {
        let r = Recorder::enabled();
        // Both read v0 of the same key, both write it: classic lost
        // update (rw edges both ways through versions 1 and 2).
        commit(&r, 1, 10, vec![kv(3, 5, 0)], vec![kv(3, 5, 1)]);
        commit(&r, 2, 11, vec![kv(3, 5, 0)], vec![kv(3, 5, 2)]);
        let report = check(&r.history());
        assert_eq!(report.anomalies.len(), 1, "{:?}", report.anomalies);
        assert_eq!(report.anomalies[0].kind, AnomalyKind::LostUpdate);
    }

    #[test]
    fn a_version_zero_install_is_its_own_predecessor() {
        let r = Recorder::enabled();
        // T1 installs x@0 and reads y@1; T2 reads x@0 and installs y@1.
        // T2 read the version before T1's install (0), so T2 → T1 is an
        // anti-dependency beside the two wr edges: not a pure write cycle.
        commit(&r, 1, 10, vec![kv(1, 2, 1)], vec![kv(1, 1, 0)]);
        commit(&r, 2, 11, vec![kv(1, 1, 0)], vec![kv(1, 2, 1)]);
        let report = check(&r.history());
        assert_eq!(report.anomalies.len(), 1, "{:?}", report.anomalies);
        assert_eq!(report.anomalies[0].kind, AnomalyKind::NonSerializable);
        assert!(report.anomalies[0].detail.ends_with("(edges: wr,rw)"));
    }

    #[test]
    fn conflicting_installs_are_flagged() {
        let r = Recorder::enabled();
        commit(&r, 1, 10, vec![], vec![kv(1, 1, 1)]);
        commit(&r, 2, 11, vec![], vec![kv(1, 1, 1)]);
        let report = check(&r.history());
        assert!(report
            .anomalies
            .iter()
            .any(|a| a.kind == AnomalyKind::ConflictingWrite));
    }

    #[test]
    fn pending_txns_are_ignored() {
        let r = Recorder::enabled();
        // A pending (unacked) txn that would close a cycle must not.
        commit(&r, 1, 10, vec![kv(1, 2, 1)], vec![kv(1, 1, 1)]);
        r.invoke(2, SimTime::from_micros(11), OpData::Transfer { from: 0, to: 1, amount: 1 });
        let report = check(&r.history());
        assert!(report.is_clean(), "{:?}", report.anomalies);
        assert_eq!(report.ops_checked, 1);
    }

    #[test]
    fn long_chain_does_not_overflow() {
        let r = Recorder::enabled();
        for v in 0..5_000u64 {
            commit(&r, 1, 10 + v, vec![kv(1, 1, v)], vec![kv(1, 1, v + 1)]);
        }
        let report = check(&r.history());
        assert!(report.is_clean());
        assert_eq!(report.ops_checked, 5_000);
    }
}
