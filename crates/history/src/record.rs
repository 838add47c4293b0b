//! The op-history recorder: invoke/ok/fail/info records in an
//! append-only arena.
//!
//! A [`Recorder`] is a cheap cloneable handle, mirroring the telemetry
//! tracer: [`Recorder::disabled`] is a no-op — every method returns
//! immediately — so instrumented client paths cost one branch when
//! history recording is off. [`Recorder::enabled`] appends into a
//! shared arena; all clones of one handle build the same history.
//!
//! Op ids are allocated in emission order starting at 1, records carry
//! the sim time they describe, and the arena never reorders, so a
//! history is a pure function of the simulated run: same seed, same
//! bytes.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::fmt;
use std::rc::Rc;

use tsuru_sim::SimTime;

use crate::check::{check_history, CheckConfig, Verdict};

/// Identifier of one logical operation within a history.
///
/// The invoke record allocates the id; its completion (ok / fail)
/// reuses it, which is how the checker pairs intent with outcome.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct OpId(pub u64);

impl OpId {
    /// The null id: emitted while recording was disabled.
    pub const NONE: OpId = OpId(0);

    /// True for [`OpId::NONE`].
    pub fn is_none(self) -> bool {
        self.0 == 0
    }
}

impl fmt::Display for OpId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "op{}", self.0)
    }
}

/// Which edge of an operation a [`Record`] describes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Phase {
    /// The client issued the operation. Until a completion record with
    /// the same op id appears, the operation is *pending*: it may or
    /// may not have taken effect, and the checkers must accept both.
    Invoke,
    /// The operation definitely took effect and the client saw the ack.
    Ok,
    /// The operation definitely did not take effect.
    Fail,
    /// An informational observation outside the invoke/complete
    /// protocol (e.g. an operator annotation).
    Info,
}

impl Phase {
    /// Stable lower-case label, used by the JSONL export.
    pub fn label(self) -> &'static str {
        match self {
            Phase::Invoke => "invoke",
            Phase::Ok => "ok",
            Phase::Fail => "fail",
            Phase::Info => "info",
        }
    }
}

/// Where a read observation was served from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Site {
    /// The live primary (business) database: the freshest client view.
    Primary,
    /// A recovered backup image read mid-run, racing replication: must
    /// be a *prefix* of the primary history, but may lag arbitrarily.
    Backup,
    /// The recovered backup image after every fault healed and the
    /// journal fully drained: must match the primary exactly.
    BackupFinal,
}

impl Site {
    /// Stable lower-case label, used by the JSONL export.
    pub fn label(self) -> &'static str {
        match self {
            Site::Primary => "primary",
            Site::Backup => "backup",
            Site::BackupFinal => "backup-final",
        }
    }
}

/// One key read or written at a specific version.
///
/// Versions are per-key install counters (see
/// [`Recorder::install_version`]): version 0 is the initial state, and
/// each committed write bumps the counter by one. The serializability
/// checker reconstructs ww/wr/rw edges from these chains.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub struct KeyVer {
    /// Key namespace (see [`space`]); disambiguates tables/databases.
    pub space: u32,
    /// Row key within the space.
    pub key: u64,
    /// Version read (the version that was current) or installed (the
    /// new version this write created).
    pub version: u64,
}

/// The read and write footprint of one committed transaction.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct TxnOps {
    /// Versions this transaction read.
    pub reads: Vec<KeyVer>,
    /// Versions this transaction installed.
    pub writes: Vec<KeyVer>,
}

/// Well-known key namespaces used by the workload drivers.
pub mod space {
    /// Stock rows in the stock database (`item → quantity`).
    pub const STOCK: u32 = 1;
    /// Order rows in the sales database (`order_id → order`).
    pub const ORDERS: u32 = 2;
    /// Account rows for the bank-transfer workload.
    pub const ACCOUNTS: u32 = 3;
    /// Per-key append lists for the append-list workload.
    pub const LISTS: u32 = 4;
}

/// Well-known process ids for non-client observers.
pub mod process {
    /// The analytics reader scanning recovered backup images mid-run.
    pub const BACKUP_READER: u32 = 1_000;
    /// The post-quiesce judge reading final primary state.
    pub const JUDGE: u32 = 1_001;
}

/// The payload of one record: the client's intent (on invoke) or the
/// observed outcome (on completion).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum OpData {
    /// Invoke: place an order (the e-commerce workload).
    Order {
        /// Order id the client will write.
        order_id: u64,
        /// Item purchased.
        item: u64,
        /// Units purchased.
        quantity: u32,
    },
    /// Invoke: move `amount` between accounts (the bank workload).
    Transfer {
        /// Debited account.
        from: u64,
        /// Credited account.
        to: u64,
        /// Units moved.
        amount: u64,
    },
    /// Invoke: append `value` to the list at `key`.
    Append {
        /// List key.
        key: u64,
        /// Value appended; unique per key within a run.
        value: u64,
    },
    /// Invoke: read every account balance.
    ReadBalances {
        /// Where the read is served from.
        site: Site,
    },
    /// Invoke: read the list at `key`.
    ReadList {
        /// List key.
        key: u64,
        /// Where the read is served from.
        site: Site,
    },
    /// Invoke: scan orders and stock of one shop image.
    ReadShop {
        /// Where the read is served from.
        site: Site,
    },
    /// Completion: the transaction committed with this footprint.
    Txn(TxnOps),
    /// Completion of [`OpData::ReadBalances`].
    Balances {
        /// Number of account rows observed.
        accounts: u64,
        /// Sum of all balances observed.
        total: u64,
    },
    /// Completion of [`OpData::ReadList`].
    List {
        /// List key (repeated for self-contained records).
        key: u64,
        /// The observed list, in list order.
        values: Vec<u64>,
    },
    /// Completion of [`OpData::ReadShop`]: the raw observation the
    /// cross-database rule is checked against.
    Shop {
        /// Order ids visible in the image.
        orders: Vec<u64>,
        /// Per-item `(item, units_sold)` pairs: initial stock minus the
        /// observed quantity, i.e. the stock decrement visible in the
        /// image.
        deltas: Vec<(u64, u64)>,
    },
    /// No payload (e.g. a failed completion).
    None,
}

/// One entry in a recorded history.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Record {
    /// Global record index in emission order, from 0.
    pub seq: u64,
    /// The operation this record belongs to (completions reuse the id
    /// allocated by their invoke).
    pub op: OpId,
    /// The client (or observer, see [`process`]) that emitted it.
    pub process: u32,
    /// Sim time of the event.
    pub t: SimTime,
    /// Which edge of the operation this is.
    pub phase: Phase,
    /// Intent or observation payload.
    pub data: OpData,
}

#[derive(Debug, Default)]
struct HistoryCore {
    /// Every record in emission order: appended, never moved or reordered.
    records: Vec<Record>,
    next_op: u64,
    /// Per-(space, key) install counters backing [`KeyVer`] chains.
    versions: BTreeMap<(u32, u64), u64>,
}

impl HistoryCore {
    fn push(&mut self, op: OpId, process: u32, t: SimTime, phase: Phase, data: OpData) {
        let seq = self.records.len() as u64;
        self.records.push(Record {
            seq,
            op,
            process,
            t,
            phase,
            data,
        });
    }

    fn alloc(&mut self) -> OpId {
        self.next_op += 1;
        OpId(self.next_op)
    }
}

/// A complete recorded history, flattened for the checkers.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct History {
    /// All records in emission order.
    pub records: Vec<Record>,
}

impl History {
    /// Build a history directly from records (used by fixtures); seq
    /// numbers are rewritten to emission order, op ids are kept as given.
    pub fn from_records(records: Vec<Record>) -> Self {
        let mut records = records;
        for (i, r) in records.iter_mut().enumerate() {
            r.seq = i as u64;
        }
        History { records }
    }

    /// Render as JSON Lines (the format is the module docs of
    /// `history/src/export.rs`).
    pub fn export_jsonl(&self) -> String {
        crate::export::export_jsonl(&self.records)
    }
}

/// A history reads as its records: the checkers take `&[Record]`, so a
/// snapshot and a [`Recorder`]'s own arena are judged by the same code.
impl std::ops::Deref for History {
    type Target = [Record];

    fn deref(&self) -> &[Record] {
        &self.records
    }
}

/// Cheap cloneable handle onto one recorded history (or a no-op).
#[derive(Debug, Clone, Default)]
pub struct Recorder(Option<Rc<RefCell<HistoryCore>>>);

impl Recorder {
    /// A recorder that drops everything: one branch per call.
    pub fn disabled() -> Self {
        Recorder(None)
    }

    /// A recorder that appends into a fresh shared arena.
    pub fn enabled() -> Self {
        Recorder(Some(Rc::new(RefCell::new(HistoryCore::default()))))
    }

    /// True when records are being kept.
    pub fn is_enabled(&self) -> bool {
        self.0.is_some()
    }

    /// Record an invoke: the client issued `data` at `t`. Returns the
    /// op id its completion must carry ([`OpId::NONE`] when disabled).
    pub fn invoke(&self, process: u32, t: SimTime, data: OpData) -> OpId {
        match &self.0 {
            None => OpId::NONE,
            Some(core) => {
                let mut core = core.borrow_mut();
                let op = core.alloc();
                core.push(op, process, t, Phase::Invoke, data);
                op
            }
        }
    }

    /// Record a successful completion of `op`.
    pub fn ok(&self, process: u32, op: OpId, t: SimTime, data: OpData) {
        if let Some(core) = &self.0 {
            core.borrow_mut().push(op, process, t, Phase::Ok, data);
        }
    }

    /// Record a definite failure of `op` (the op did not take effect).
    pub fn fail(&self, process: u32, op: OpId, t: SimTime, data: OpData) {
        if let Some(core) = &self.0 {
            core.borrow_mut().push(op, process, t, Phase::Fail, data);
        }
    }

    /// Record a free-standing observation outside the invoke/complete
    /// protocol.
    pub fn info(&self, process: u32, t: SimTime, data: OpData) -> OpId {
        match &self.0 {
            None => OpId::NONE,
            Some(core) => {
                let mut core = core.borrow_mut();
                let op = core.alloc();
                core.push(op, process, t, Phase::Info, data);
                op
            }
        }
    }

    /// Current version of `(space, key)` — what a read observes. 0 when
    /// the key was never written (the initial state) or when disabled.
    pub fn read_version(&self, space: u32, key: u64) -> u64 {
        match &self.0 {
            None => 0,
            Some(core) => *core
                .borrow()
                .versions
                .get(&(space, key))
                .unwrap_or(&0),
        }
    }

    /// Bump and return the version installed by a committed write to
    /// `(space, key)`. Call at the synchronous commit point so the
    /// version chain follows the database's serialization order.
    pub fn install_version(&self, space: u32, key: u64) -> u64 {
        match &self.0 {
            None => 0,
            Some(core) => {
                let mut core = core.borrow_mut();
                let v = core.versions.entry((space, key)).or_insert(0);
                *v += 1;
                *v
            }
        }
    }

    /// Number of records kept so far.
    pub fn len(&self) -> u64 {
        self.0.as_ref().map_or(0, |c| c.borrow().records.len() as u64)
    }

    /// True when no records were kept (always true when disabled).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Snapshot the history recorded so far: a deep copy, for tests and
    /// for callers that keep the history past the recorder. Judging and
    /// exporting read the arena in place ([`Self::check`],
    /// [`Self::export_jsonl`]).
    pub fn history(&self) -> History {
        match &self.0 {
            None => History::default(),
            Some(core) => History {
                records: core.borrow().records.clone(),
            },
        }
    }

    /// Run every applicable checker over the history recorded so far,
    /// straight from the arena: no snapshot is taken. A disabled recorder
    /// yields the empty (clean) verdict.
    pub fn check(&self, cfg: &CheckConfig) -> Verdict {
        match &self.0 {
            None => check_history(&[], cfg),
            Some(core) => check_history(&core.borrow().records, cfg),
        }
    }

    /// Render the history recorded so far as JSON Lines, straight from
    /// the arena: no snapshot is taken.
    pub fn export_jsonl(&self) -> String {
        match &self.0 {
            None => String::new(),
            Some(core) => crate::export::export_jsonl(&core.borrow().records),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_recorder_is_a_no_op() {
        let r = Recorder::disabled();
        assert!(!r.is_enabled());
        let op = r.invoke(1, SimTime::ZERO, OpData::ReadBalances { site: Site::Primary });
        assert!(op.is_none());
        r.ok(1, op, SimTime::ZERO, OpData::None);
        assert_eq!(r.read_version(space::STOCK, 7), 0);
        assert_eq!(r.install_version(space::STOCK, 7), 0);
        assert_eq!(r.len(), 0);
        assert!(r.history().is_empty());
    }

    #[test]
    fn clones_share_one_arena() {
        let r = Recorder::enabled();
        let r2 = r.clone();
        let op = r.invoke(3, SimTime::from_micros(1), OpData::Append { key: 1, value: 10 });
        r2.ok(3, op, SimTime::from_micros(2), OpData::Txn(TxnOps::default()));
        let h = r.history();
        assert_eq!(h.len(), 2);
        assert_eq!(h.records[0].op, h.records[1].op);
        assert_eq!(h.records[0].phase, Phase::Invoke);
        assert_eq!(h.records[1].phase, Phase::Ok);
        assert_eq!(h.records[0].seq, 0);
        assert_eq!(h.records[1].seq, 1);
    }

    #[test]
    fn version_chains_count_per_key() {
        let r = Recorder::enabled();
        assert_eq!(r.read_version(space::LISTS, 5), 0);
        assert_eq!(r.install_version(space::LISTS, 5), 1);
        assert_eq!(r.install_version(space::LISTS, 5), 2);
        assert_eq!(r.install_version(space::LISTS, 6), 1);
        assert_eq!(r.read_version(space::LISTS, 5), 2);
        assert_eq!(r.read_version(space::STOCK, 5), 0, "spaces are disjoint");
    }

    #[test]
    fn arena_keeps_emission_order() {
        let r = Recorder::enabled();
        for i in 0..2_058u64 {
            r.info(0, SimTime::from_nanos(i), OpData::None);
        }
        let h = r.history();
        assert_eq!(h.len(), 2_058);
        for (i, rec) in h.records.iter().enumerate() {
            assert_eq!(rec.seq, i as u64);
            assert_eq!(rec.op, OpId(i as u64 + 1));
        }
    }
}
