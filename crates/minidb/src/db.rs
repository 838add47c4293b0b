//! The database façade: transactions, commit, checkpoint, recovery.
//!
//! MiniDB stands in for the paper's Oracle 23c instances. It is a
//! redo-only, no-steal engine over two volumes (WAL + data), whose entire
//! durability discipline is expressed as ordered [`IoPlan`] phases — see
//! `io.rs`. Crash recovery (`MiniDb::recover`) is the behavioural oracle of
//! the whole reproduction: it succeeds on every prefix-consistent backup
//! image and reports precisely which consistency property a collapsed image
//! violates.

use crate::btree::{BTree, PageAllocator};
use crate::io::{DbVol, IoPlan, IoRequest};
use crate::node::PageError;
use crate::superblock::Superblock;
use crate::wal::{scan_wal, LogRecord, OpList, WalScan, WalWriter};
use tsuru_storage::BlockDevice;

/// A table identifier chosen by the application (folded into tree keys).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TableId(pub u16);

/// A transaction handle.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct TxId(pub u64);

const KEY_BITS: u32 = 48;
const KEY_MASK: u64 = (1 << KEY_BITS) - 1;

/// Fold the table id into the key's high bits; user keys have 48.
fn tree_key(table: TableId, key: u64) -> u64 {
    assert!(key <= KEY_MASK, "user key {key} exceeds 48 bits");
    ((table.0 as u64) << KEY_BITS) | key
}

/// Static configuration of one database instance.
#[derive(Debug, Clone)]
pub struct DbConfig {
    /// Data volume size in blocks (pages).
    pub data_blocks: u64,
    /// WAL volume size in blocks.
    pub wal_blocks: u64,
    /// Checkpoint when WAL usage exceeds this fraction of capacity.
    pub checkpoint_threshold: f64,
}

impl Default for DbConfig {
    fn default() -> Self {
        DbConfig {
            data_blocks: 4096,
            wal_blocks: 1024,
            checkpoint_threshold: 0.8,
        }
    }
}

/// Operation counters.
#[derive(Debug, Default, Clone)]
pub struct DbStats {
    /// Committed transactions.
    pub commits: u64,
    /// Aborted transactions.
    pub aborts: u64,
    /// Checkpoints taken.
    pub checkpoints: u64,
    /// WAL bytes appended.
    pub wal_bytes_written: u64,
    /// Data-page writes emitted.
    pub page_writes: u64,
    /// Log flushes that carried at least one commit.
    pub flushes: u64,
    /// Commits those flushes carried (`flushed_commits / flushes` is the
    /// group-commit factor).
    pub flushed_commits: u64,
    /// Most commits carried by one flush.
    pub max_group: u64,
}

/// Why recovery failed — each variant is a distinct way a backup image can
/// betray write-order infidelity.
#[derive(Debug, Clone)]
pub enum RecoveryError {
    /// Superblock unreadable (missing / torn / corrupt).
    BadSuperblock(String),
    /// A tree page referenced by the superblock is missing or damaged.
    Page(PageError),
    /// A data page carries an LSN newer than anything the WAL can account
    /// for: the data volume ran ahead of the WAL volume — the smoking gun
    /// of a collapsed multi-volume backup.
    DataAheadOfWal {
        /// The offending page LSN.
        page_lsn: u64,
        /// Highest LSN the recovered WAL accounts for.
        wal_end: u64,
    },
    /// WAL records out of order or overlapping the checkpoint (engine bug
    /// or forged image).
    BadWal(String),
}

impl std::fmt::Display for RecoveryError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RecoveryError::BadSuperblock(why) => write!(f, "bad superblock: {why}"),
            RecoveryError::Page(e) => write!(f, "damaged tree page: {e}"),
            RecoveryError::DataAheadOfWal { page_lsn, wal_end } => write!(
                f,
                "data volume ahead of WAL (page lsn {page_lsn} > wal end {wal_end})"
            ),
            RecoveryError::BadWal(why) => write!(f, "bad WAL: {why}"),
        }
    }
}

impl std::error::Error for RecoveryError {}

/// What recovery found and did.
#[derive(Debug, Clone)]
pub struct RecoveryReport {
    /// WAL epoch recovered into.
    pub epoch: u32,
    /// LSN covered by the checkpointed tree.
    pub ckpt_lsn: u64,
    /// Highest LSN made durable by the WAL (== recovered state).
    pub wal_end: u64,
    /// Committed transactions re-applied from the WAL.
    pub redo_records: usize,
    /// Tree pages loaded from the data volume.
    pub pages_loaded: usize,
}

/// An open transaction. Its write-set is stated once, in call order: the
/// redo record is these ops, and a read of its own writes scans them newest
/// first. Linear, because transactions are small where they read: `ecom`'s
/// order, transfer and append write one or two rows; `seed_stock` writes one
/// per item and reads none (DESIGN.md §24). The values sit back to back in
/// the list's one byte buffer, which the database hands from one
/// transaction to the next (DESIGN.md §26).
#[derive(Debug)]
struct ActiveTx {
    id: u64,
    ops: OpList,
}

/// A transaction's write-set as the redo record it becomes: the log encodes
/// it in place.
struct Staged<'a> {
    lsn: u64,
    txid: u64,
    ops: &'a OpList,
}

impl LogRecord for Staged<'_> {
    fn lsn(&self) -> u64 {
        self.lsn
    }

    fn txid(&self) -> u64 {
        self.txid
    }

    fn ops(&self) -> impl Iterator<Item = (u64, Option<&[u8]>)> {
        self.ops.iter()
    }
}

/// A MiniDB instance (fully memory-resident; durability via emitted I/O).
#[derive(Debug)]
pub struct MiniDb {
    name: String,
    config: DbConfig,
    tree: BTree,
    alloc: PageAllocator,
    wal: WalWriter,
    next_lsn: u64,
    next_txid: u64,
    ckpt_lsn: u64,
    // Open transactions, oldest first (a handful at most).
    active: Vec<ActiveTx>,
    // The emptied write-set of the last staged transaction, for the next one.
    spare_ops: OpList,
    // Checkpoint phases taken since the last flush; they go out ahead of
    // the log written after them. Between flushes, the phase list the
    // driver handed back (`recycle_plan`) for the next flush to fill.
    pending: IoPlan,
    // The buffer `catch_up` scans the log into, kept from one call to the
    // next.
    follow: WalScan,
    // Commits staged since the last flush.
    staged: u64,
    stats: DbStats,
    // What `recover` read off the data volume: the ids of the tree pages it
    // loaded (ascending) and the newest LSN any of them carried. Empty for
    // a database that was created, not opened.
    loaded_pages: Vec<u64>,
    loaded_page_lsn: u64,
}

impl MiniDb {
    /// Create and format a new database. The returned [`IoPlan`] carries
    /// the initial image (root page, then superblock) that must be written
    /// to the volumes before the database is considered durable.
    pub fn create(name: impl Into<String>, config: DbConfig) -> (MiniDb, IoPlan) {
        assert!(config.data_blocks >= 8, "data volume too small");
        assert!(config.wal_blocks >= 2, "wal volume too small");
        assert!(
            (0.1..=0.95).contains(&config.checkpoint_threshold),
            "checkpoint threshold out of range"
        );
        let mut alloc = PageAllocator::new(1);
        let tree = BTree::new(&mut alloc);
        let mut db = MiniDb {
            name: name.into(),
            wal: WalWriter::new(config.wal_blocks, 0),
            config,
            tree,
            alloc,
            next_lsn: 1,
            next_txid: 1,
            ckpt_lsn: 0,
            active: Vec::new(),
            spare_ops: OpList::default(),
            pending: IoPlan::empty(),
            follow: WalScan::default(),
            staged: 0,
            stats: DbStats::default(),
            loaded_pages: Vec::new(),
            loaded_page_lsn: 0,
        };
        // The initial image is checkpoint #1 of an empty tree.
        let plan = db.checkpoint();
        (db, plan)
    }

    /// Database name (for operator consoles and reports).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Configuration.
    pub fn config(&self) -> &DbConfig {
        &self.config
    }

    /// Counters.
    pub fn stats(&self) -> &DbStats {
        &self.stats
    }

    /// LSN of the last committed transaction (0 if none).
    pub fn last_lsn(&self) -> u64 {
        self.next_lsn - 1
    }

    /// Current WAL usage as a fraction of capacity.
    pub fn wal_usage(&self) -> f64 {
        self.wal.used_bytes() as f64 / self.wal.capacity_bytes() as f64
    }

    // ----- transactions ---------------------------------------------------------

    /// Start a transaction.
    pub fn begin(&mut self) -> TxId {
        let id = self.next_txid;
        self.next_txid += 1;
        let ops = std::mem::take(&mut self.spare_ops);
        self.active.push(ActiveTx { id, ops });
        TxId(id)
    }

    /// The open transaction `tx`; the id is the caller's to get right.
    ///
    /// # Panics
    /// Panics if `tx` is not active: never begun, already staged or aborted.
    fn tx_mut(&mut self, tx: TxId) -> &mut ActiveTx {
        let open = self.active.iter_mut().find(|t| t.id == tx.0);
        assert!(open.is_some(), "transaction {} is not active", tx.0);
        open.expect("invariant: asserted on the line above")
    }

    /// Retire `tx` and hand out its write-set.
    fn take_tx(&mut self, tx: TxId) -> OpList {
        let ops = std::mem::take(&mut self.tx_mut(tx).ops);
        self.active.retain(|t| t.id != tx.0);
        ops
    }

    /// Buffer a put in the transaction's write-set: `value` is copied into
    /// the write-set's byte buffer, the log encodes from there, and the
    /// tree copies it into its leaf at [`MiniDb::stage`].
    ///
    /// # Panics
    /// Panics if `tx` is not active or `key` exceeds 48 bits.
    pub fn put(&mut self, tx: TxId, table: TableId, key: u64, value: &[u8]) {
        let key = tree_key(table, key);
        self.tx_mut(tx).ops.put(key, value);
    }

    /// Buffer a delete in the transaction's write-set.
    ///
    /// # Panics
    /// Panics if `tx` is not active or `key` exceeds 48 bits.
    pub fn delete(&mut self, tx: TxId, table: TableId, key: u64) {
        let key = tree_key(table, key);
        self.tx_mut(tx).ops.delete(key);
    }

    /// Read through the transaction: its newest write to the key, else
    /// committed state; the bytes stay where they are kept (write-set or
    /// tree). A `tx` that is not active has no writes and reads committed
    /// state, like [`MiniDb::get_committed`].
    ///
    /// # Panics
    /// Panics if `key` exceeds 48 bits.
    pub fn get(&self, tx: TxId, table: TableId, key: u64) -> Option<&[u8]> {
        let tk = tree_key(table, key);
        let open = self.active.iter().find(|t| t.id == tx.0);
        match open.and_then(|t| t.ops.iter().rev().find(|(k, _)| *k == tk)) {
            Some((_, value)) => value,
            None => self.tree.get(tk),
        }
    }

    /// Read committed state only.
    ///
    /// # Panics
    /// Panics if `key` exceeds 48 bits.
    pub fn get_committed(&self, table: TableId, key: u64) -> Option<&[u8]> {
        self.tree.get(tree_key(table, key))
    }

    /// All committed `(key, value)` pairs of a table, in key order, the
    /// values borrowed from the tree.
    pub fn scan_table(&self, table: TableId) -> Vec<(u64, &[u8])> {
        let (lo, hi) = (tree_key(table, 0), tree_key(table, KEY_MASK));
        let mut rows = self.tree.scan_range(lo, hi);
        rows.iter_mut().for_each(|(k, _)| *k &= KEY_MASK);
        rows
    }

    /// Drop a transaction without any durable effect.
    ///
    /// # Panics
    /// Panics if `tx` is not active.
    pub fn abort(&mut self, tx: TxId) {
        self.take_tx(tx);
        self.stats.aborts += 1;
    }

    /// Stage a commit: apply the write-set to the tree and append its redo
    /// record to the in-memory end of the log. Returns the record's LSN —
    /// the transaction is durable once a [`MiniDb::flush`] issued after
    /// this call has been written — or `None` for an empty transaction,
    /// which logs nothing and has nothing to wait for. A commit whose
    /// record would cross the WAL threshold takes a checkpoint first; its
    /// phases go out ahead of the record in the next flush.
    ///
    /// # Panics
    /// Panics if `tx` is not active or its record outsizes the WAL volume.
    pub fn stage(&mut self, tx: TxId) -> Option<u64> {
        let mut ops = self.take_tx(tx);
        self.stats.commits += 1;
        if ops.is_empty() {
            self.spare_ops = ops;
            return None;
        }
        let lsn = self.next_lsn;
        let record = Staged {
            lsn,
            txid: tx.0,
            ops: &ops,
        };
        let len = record.encoded_len();
        let threshold =
            (self.wal.capacity_bytes() as f64 * self.config.checkpoint_threshold) as usize;
        if !self.wal.fits(&record) || self.wal.used_bytes() + len > threshold {
            self.stage_checkpoint();
            assert!(
                self.wal.fits(&record),
                "single transaction larger than the WAL volume"
            );
        }
        self.next_lsn += 1;
        self.wal.append(&record);
        self.stats.wal_bytes_written += len as u64;
        self.staged += 1;
        // Apply to the in-memory tree, each value copied into its leaf;
        // recovery redoes this from the WAL.
        for (key, value) in ops.iter() {
            apply(&mut self.tree, &mut self.alloc, key, value);
        }
        ops.clear();
        self.spare_ops = ops;
        Some(lsn)
    }

    /// The ordered writes that make everything staged so far durable, in
    /// one plan: the phases of any checkpoint taken since the last flush,
    /// then one phase holding the log blocks touched since (sealed blocks
    /// and one image of the tail, however many records share it). Empty
    /// when nothing was staged. The plan covers every commit up to
    /// [`MiniDb::last_lsn`] at the time of the call, and plans must reach
    /// the volumes one at a time, in the order they were taken: a later
    /// plan's tail image supersedes an earlier one's.
    pub fn flush(&mut self) -> IoPlan {
        let mut plan = std::mem::take(&mut self.pending);
        let log = self.wal.flush();
        if log.is_empty() {
            self.wal.recycle(log);
        } else {
            plan.phases.push(log);
        }
        if self.staged > 0 {
            self.stats.flushes += 1;
            self.stats.flushed_commits += self.staged;
            self.stats.max_group = self.stats.max_group.max(self.staged);
            self.staged = 0;
        }
        plan
    }

    /// Take back a plan a flush handed out, once the driver has taken its
    /// phases out: the next flush fills its phase list instead of
    /// allocating one. Phases still in it go to [`MiniDb::recycle_phase`].
    pub fn recycle_plan(&mut self, mut plan: IoPlan) {
        for phase in plan.phases.drain(..) {
            self.recycle_phase(phase);
        }
        if self.pending.is_empty() && plan.phases.capacity() > self.pending.phases.capacity() {
            self.pending = plan;
        }
    }

    /// Take back a phase of a flushed plan once its writes were issued: the
    /// next flush's log phase fills it instead of allocating a vector.
    pub fn recycle_phase(&mut self, phase: Vec<IoRequest>) {
        self.wal.recycle(phase);
    }

    /// Commit synchronously: [`MiniDb::stage`] then [`MiniDb::flush`], a
    /// group of one. Returns the ordered writes that make the transaction
    /// (and anything staged before it) durable.
    pub fn commit(&mut self, tx: TxId) -> IoPlan {
        self.stage(tx);
        self.flush()
    }

    /// Take a checkpoint now (also taken automatically when a staged
    /// commit crosses the WAL threshold) and flush it.
    pub fn checkpoint(&mut self) -> IoPlan {
        self.stage_checkpoint();
        self.flush()
    }

    /// Rebuild the tree densely and checkpoint: reclaims the space that
    /// deletions leave in underfilled pages. Returns the ordered writes of
    /// the compact image.
    pub fn vacuum(&mut self) -> IoPlan {
        assert!(
            self.active.is_empty(),
            "vacuum requires no active transactions"
        );
        self.tree.rebuild(&mut self.alloc);
        self.checkpoint()
    }

    /// Number of B+tree nodes currently resident (== pages the next full
    /// image would occupy).
    pub fn tree_nodes(&self) -> usize {
        self.tree.node_count()
    }

    /// Checkpoint the tree as of the last staged commit and queue the
    /// phases `[pages][superblock]` for the next flush. Log staged in the
    /// old epoch and not flushed yet is dropped: the tree image covers it,
    /// and its commits become durable with the superblock.
    fn stage_checkpoint(&mut self) {
        let lsn = self.last_lsn();
        let data_ios = self.tree.checkpoint_flush(&mut self.alloc, lsn);
        self.stats.page_writes += data_ios.len() as u64;
        // Pages freed by this checkpoint become reusable once the
        // superblock is durable; the driver's phase barrier guarantees that
        // ordering, so promote before persisting the free list.
        self.alloc.promote_pending();
        let epoch = self.wal.epoch() + 1;
        let sb = Superblock {
            epoch,
            root: self.tree.root(),
            next_page: self.alloc.next_page(),
            ckpt_lsn: lsn,
            next_txid: self.next_txid,
            wal_blocks: self.config.wal_blocks,
            free_list: self.alloc.free_list().to_vec(),
        };
        assert!(
            self.alloc.next_page() <= self.config.data_blocks,
            "database outgrew its data volume ({} pages > {} blocks)",
            self.alloc.next_page(),
            self.config.data_blocks
        );
        let page = sb.serialize();
        let image = page
            .get(..sb.serialized_size())
            .expect("invariant: a superblock fits its page");
        let sb_io = IoRequest {
            vol: DbVol::Data,
            lba: 0,
            data: tsuru_storage::block_from(image),
        };
        self.wal.reset(epoch);
        self.ckpt_lsn = lsn;
        self.stats.checkpoints += 1;
        self.pending.push_phase(data_ios);
        self.pending.push_phase(vec![sb_io]);
    }

    // ----- recovery ---------------------------------------------------------------

    /// Open a database from the images of its two volumes (live volumes at
    /// the backup site, snapshot views, or test devices). Applies redo and
    /// verifies physical integrity.
    pub fn recover(
        name: impl Into<String>,
        wal_dev: &dyn BlockDevice,
        data_dev: &dyn BlockDevice,
        config: DbConfig,
    ) -> Result<(MiniDb, RecoveryReport), RecoveryError> {
        let sb_img = data_dev
            .read_block(0)
            .ok_or_else(|| RecoveryError::BadSuperblock("missing".into()))?;
        let sb = Superblock::deserialize(&sb_img).map_err(RecoveryError::BadSuperblock)?;
        // Page ids index the tree's node table, so the allocator state read
        // off the disk must stay inside the volume it describes.
        if sb.next_page > data_dev.size_blocks() || sb.free_list.iter().any(|&p| p >= sb.next_page)
        {
            return Err(RecoveryError::BadSuperblock(
                "page allocator state outside the data volume".into(),
            ));
        }
        // The log's length sizes every scan of it and the writer that
        // resumes it: at least the two blocks `create` asks for, and no
        // more than the volume it lies on.
        if !(2..=wal_dev.size_blocks()).contains(&sb.wal_blocks) {
            return Err(RecoveryError::BadSuperblock(format!(
                "a {}-block WAL on a {}-block volume",
                sb.wal_blocks,
                wal_dev.size_blocks()
            )));
        }

        let (tree, max_page_lsn) = BTree::load(data_dev, sb.root).map_err(RecoveryError::Page)?;
        let loaded_pages = tree.page_ids();
        let pages_loaded = loaded_pages.len();

        // Every record is decoded and checked before the first is applied.
        let mut scan = scan_wal(wal_dev, sb.wal_blocks, sb.epoch);
        // Records must be strictly newer than the checkpoint they follow.
        let wal_end = lsns_increase_past(sb.ckpt_lsn, scan.lsns())?;
        if max_page_lsn > wal_end {
            return Err(RecoveryError::DataAheadOfWal {
                page_lsn: max_page_lsn,
                wal_end,
            });
        }

        let redo_records = scan.len();
        let mut db = MiniDb {
            name: name.into(),
            config: DbConfig {
                wal_blocks: sb.wal_blocks,
                ..config
            },
            tree,
            alloc: PageAllocator::restore(sb.next_page, sb.free_list),
            // Resume the log where the scan found it ending, so a promoted
            // backup continues service exactly there.
            wal: WalWriter::resume(sb.wal_blocks, sb.epoch, scan.end, scan.take_tail()),
            next_lsn: wal_end + 1,
            next_txid: sb.next_txid,
            ckpt_lsn: sb.ckpt_lsn,
            active: Vec::new(),
            spare_ops: OpList::default(),
            pending: IoPlan::empty(),
            follow: WalScan::default(),
            staged: 0,
            stats: DbStats::default(),
            loaded_pages,
            loaded_page_lsn: max_page_lsn,
        };
        db.redo(&scan, None)?;
        let report = RecoveryReport {
            epoch: sb.epoch,
            ckpt_lsn: sb.ckpt_lsn,
            wal_end,
            redo_records,
            pages_loaded,
        };
        Ok((db, report))
    }

    /// Re-apply the records of `scan` (already checked for LSN order) to
    /// the tree, each value copied from the scan's buffer into its leaf,
    /// then verify it. `on_redo` sees every operation just before it lands.
    fn redo(
        &mut self,
        scan: &WalScan,
        mut on_redo: Option<&mut RedoHook<'_>>,
    ) -> Result<(), RecoveryError> {
        for (key, value) in scan.ops() {
            if let Some(hook) = on_redo.as_deref_mut() {
                let table = TableId((key >> KEY_BITS) as u16);
                hook(table, key & KEY_MASK, self.tree.get(key), value);
            }
            apply(&mut self.tree, &mut self.alloc, key, value);
        }
        for txid in scan.txids() {
            self.next_txid = self.next_txid.max(txid + 1);
        }
        self.tree
            .validate()
            .map_err(|e| RecoveryError::BadWal(format!("post-redo validation: {e}")))
    }

    /// Did [`MiniDb::recover`] read block `lba` of the data volume to open
    /// this database — the superblock or a tree page it loaded? A write to
    /// any other data block cannot change what a fresh `recover` would load.
    pub fn opened_from(&self, lba: u64) -> bool {
        lba == 0 || self.loaded_pages.binary_search(&lba).is_ok()
    }

    /// Byte offset at which this database's log ends on the WAL volume:
    /// what `recover` (or the last [`MiniDb::catch_up`]) scanned up to.
    pub fn log_end(&self) -> usize {
        self.wal.used_bytes()
    }

    /// Follow the log: redo the records that reached `wal_dev` since this
    /// database was opened from it (or last caught up), leaving it exactly
    /// as a fresh [`MiniDb::recover`] of the same volumes would — provided
    /// the caller vouches for everything `recover` reads that this does
    /// not: no block of the data volume this database was
    /// [`opened_from`](MiniDb::opened_from) and no WAL block that lies
    /// wholly before [`log_end`](MiniDb::log_end) was written since. The
    /// block the log ends in is re-read and its bytes before the end
    /// compared, and the new records pass the checks `recover` applies
    /// (strictly increasing LSNs, no loaded page newer than the log,
    /// post-redo tree validation); nothing is skipped, it is only not
    /// repeated. `on_redo(table, key, old, new)` sees every re-applied
    /// operation just before it lands.
    ///
    /// The new records are decoded into a buffer the database keeps from
    /// one call to the next, and all of them pass those checks before the
    /// first is applied: on `Err`, `on_redo` has seen nothing.
    ///
    /// `Ok(Some(n))`: `n` records were re-applied. `Ok(None)`: the log this
    /// database was opened from is no prefix of the volume any more, the
    /// database is untouched and the caller must `recover`. `Err`: what
    /// `recover` would return; the database is not usable afterwards.
    ///
    /// For a database that only follows a volume: one that staged commits of
    /// its own since it was opened has a log end the volume never saw.
    pub fn catch_up(
        &mut self,
        wal_dev: &dyn BlockDevice,
        on_redo: &mut RedoHook<'_>,
    ) -> Result<Option<usize>, RecoveryError> {
        let mut scan = std::mem::take(&mut self.follow);
        let (end, tail) = self.wal.log_end();
        if !scan.scan_from(wal_dev, self.config.wal_blocks, self.wal.epoch(), end, tail) {
            self.follow = scan;
            return Ok(None);
        }
        let prev = lsns_increase_past(self.last_lsn(), scan.lsns())?;
        if self.loaded_page_lsn > prev {
            return Err(RecoveryError::DataAheadOfWal {
                page_lsn: self.loaded_page_lsn,
                wal_end: prev,
            });
        }
        self.wal.advance(scan.end, scan.tail());
        self.next_lsn = prev + 1;
        let redone = self.redo(&scan, Some(on_redo)).map(|()| Some(scan.len()));
        self.follow = scan;
        redone
    }
}

/// Land one logged operation in the tree, copying a put's value into its
/// leaf.
fn apply(tree: &mut BTree, alloc: &mut PageAllocator, key: u64, value: Option<&[u8]>) {
    match value {
        Some(v) => tree.put(alloc, key, v),
        None => drop(tree.delete(key)),
    }
}

/// The LSN records with these `lsns` end at, starting after `prev`: they
/// must be strictly increasing from there.
fn lsns_increase_past(
    mut prev: u64,
    lsns: impl Iterator<Item = u64>,
) -> Result<u64, RecoveryError> {
    for lsn in lsns {
        if lsn <= prev {
            return Err(RecoveryError::BadWal(format!(
                "record lsn {lsn} not increasing past {prev}"
            )));
        }
        prev = lsn;
    }
    Ok(prev)
}

/// What [`MiniDb::catch_up`] shows its caller per re-applied operation:
/// table, key, the value the key held and the value it takes (`None`:
/// absent / deleted).
pub type RedoHook<'a> = dyn FnMut(TableId, u64, Option<&[u8]>, Option<&[u8]>) + 'a;

#[cfg(test)]
mod tests {
    use super::*;
    use tsuru_storage::{BlockDeviceMut, MemDevice};

    /// Apply a plan to devices immediately (a perfectly faithful "storage").
    fn apply(plan: &IoPlan, wal: &mut MemDevice, data: &mut MemDevice) {
        for phase in &plan.phases {
            for io in phase {
                match io.vol {
                    DbVol::Wal => wal.write_block(io.lba, &io.data),
                    DbVol::Data => data.write_block(io.lba, &io.data),
                }
            }
        }
    }

    fn fresh() -> (MiniDb, MemDevice, MemDevice) {
        let cfg = DbConfig {
            data_blocks: 2048,
            wal_blocks: 64,
            checkpoint_threshold: 0.8,
        };
        let (db, plan) = MiniDb::create("t", cfg.clone());
        let mut wal = MemDevice::new(cfg.wal_blocks);
        let mut data = MemDevice::new(cfg.data_blocks);
        apply(&plan, &mut wal, &mut data);
        (db, wal, data)
    }

    const T: TableId = TableId(1);

    #[test]
    fn commit_makes_data_visible() {
        let (mut db, _, _) = fresh();
        let tx = db.begin();
        db.put(tx, T, 1, b"hello");
        assert_eq!(db.get(tx, T, 1), Some(b"hello".as_slice()));
        assert_eq!(db.get_committed(T, 1), None, "not visible before commit");
        let _ = db.commit(tx);
        assert_eq!(db.get_committed(T, 1), Some(b"hello".as_slice()));
        assert_eq!(db.stats().commits, 1);
    }

    #[test]
    fn abort_discards_writes() {
        let (mut db, _, _) = fresh();
        let tx = db.begin();
        db.put(tx, T, 1, b"x");
        db.abort(tx);
        assert_eq!(db.get_committed(T, 1), None);
        assert_eq!(db.stats().aborts, 1);
    }

    #[test]
    fn transaction_reads_its_own_writes_and_deletes() {
        let (mut db, _, _) = fresh();
        let t0 = db.begin();
        db.put(t0, T, 5, b"committed");
        let _ = db.commit(t0);
        let tx = db.begin();
        assert_eq!(db.get(tx, T, 5), Some(b"committed".as_slice()));
        db.delete(tx, T, 5);
        assert_eq!(db.get(tx, T, 5), None, "own delete visible");
        assert_eq!(db.get_committed(T, 5), Some(b"committed".as_slice()));
        db.put(tx, T, 5, b"again");
        assert_eq!(db.get(tx, T, 5), Some(b"again".as_slice()));
        let _ = db.commit(tx);
        assert_eq!(db.get_committed(T, 5), Some(b"again".as_slice()));
    }

    #[test]
    fn tables_are_disjoint() {
        let (mut db, _, _) = fresh();
        let tx = db.begin();
        db.put(tx, TableId(1), 7, b"a");
        db.put(tx, TableId(2), 7, b"b");
        let _ = db.commit(tx);
        assert_eq!(db.get_committed(TableId(1), 7), Some(b"a".as_slice()));
        assert_eq!(db.get_committed(TableId(2), 7), Some(b"b".as_slice()));
        assert_eq!(db.scan_table(TableId(1)).len(), 1);
    }

    #[test]
    fn empty_commit_is_free() {
        let (mut db, _, _) = fresh();
        let tx = db.begin();
        let plan = db.commit(tx);
        assert!(plan.is_empty());
    }

    #[test]
    fn recover_empty_database() {
        let (db, wal, data) = fresh();
        let (rec, report) = MiniDb::recover("r", &wal, &data, db.config().clone()).unwrap();
        assert_eq!(report.redo_records, 0);
        assert!(rec.scan_table(T).is_empty());
    }

    #[test]
    fn recover_replays_committed_transactions() {
        let (mut db, mut wal, mut data) = fresh();
        for i in 0..50u64 {
            let tx = db.begin();
            db.put(tx, T, i, format!("value-{i}").as_bytes());
            let plan = db.commit(tx);
            apply(&plan, &mut wal, &mut data);
        }
        let (rec, report) = MiniDb::recover("r", &wal, &data, db.config().clone()).unwrap();
        assert_eq!(report.redo_records, 50);
        for i in 0..50u64 {
            assert_eq!(
                rec.get_committed(T, i),
                Some(format!("value-{i}").as_bytes())
            );
        }
        assert_eq!(rec.last_lsn(), db.last_lsn());
    }

    #[test]
    fn recover_across_checkpoints() {
        let (mut db, mut wal, mut data) = fresh();
        // Enough volume to force several automatic checkpoints (64-block
        // WAL at 0.8 threshold).
        for i in 0..1200u64 {
            let tx = db.begin();
            db.put(tx, T, i % 100, vec![(i % 251) as u8; 300].as_slice());
            let plan = db.commit(tx);
            apply(&plan, &mut wal, &mut data);
        }
        assert!(db.stats().checkpoints > 1, "expected automatic checkpoints");
        let (rec, _) = MiniDb::recover("r", &wal, &data, db.config().clone()).unwrap();
        for i in 0..100u64 {
            assert_eq!(rec.get_committed(T, i), db.get_committed(T, i), "key {i}");
        }
    }

    #[test]
    fn recovery_drops_uncommitted_tail() {
        let (mut db, mut wal, mut data) = fresh();
        let tx = db.begin();
        db.put(tx, T, 1, b"durable");
        apply(&db.commit(tx), &mut wal, &mut data);
        // Second commit's plan is produced but never reaches storage
        // (crash before the WAL write completed).
        let tx = db.begin();
        db.put(tx, T, 2, b"lost");
        let _unwritten = db.commit(tx);
        let (rec, report) = MiniDb::recover("r", &wal, &data, db.config().clone()).unwrap();
        assert_eq!(rec.get_committed(T, 1), Some(b"durable".as_slice()));
        assert_eq!(rec.get_committed(T, 2), None);
        assert_eq!(report.redo_records, 1);
    }

    #[test]
    fn recovered_database_can_continue_service() {
        let (mut db, mut wal, mut data) = fresh();
        for i in 0..20u64 {
            let tx = db.begin();
            db.put(tx, T, i, b"first-life");
            apply(&db.commit(tx), &mut wal, &mut data);
        }
        let (mut rec, _) = MiniDb::recover("r", &wal, &data, db.config().clone()).unwrap();
        // Continue committing on the recovered instance.
        for i in 20..40u64 {
            let tx = rec.begin();
            rec.put(tx, T, i, b"second-life");
            apply(&rec.commit(tx), &mut wal, &mut data);
        }
        let (rec2, _) = MiniDb::recover("r2", &wal, &data, rec.config().clone()).unwrap();
        assert_eq!(rec2.scan_table(T).len(), 40);
        assert_eq!(rec2.get_committed(T, 0), Some(b"first-life".as_slice()));
        assert_eq!(rec2.get_committed(T, 39), Some(b"second-life".as_slice()));
    }

    #[test]
    fn torn_wal_tail_recovers_prefix() {
        let (mut db, mut wal, mut data) = fresh();
        for i in 0..5u64 {
            let tx = db.begin();
            db.put(tx, T, i, b"v");
            apply(&db.commit(tx), &mut wal, &mut data);
        }
        let used_before = (db.wal_usage() * db.config().wal_blocks as f64 * 4096.0) as u64;
        let tx = db.begin();
        db.put(tx, T, 99, b"torn");
        let plan = db.commit(tx);
        // Corrupt the WAL write: apply, then flip a byte inside the new
        // record (14 bytes past its start, i.e. in the payload).
        apply(&plan, &mut wal, &mut data);
        let victim = used_before + 14;
        wal.corrupt(victim / 4096, (victim % 4096) as usize);
        let (rec, _) = MiniDb::recover("r", &wal, &data, db.config().clone()).unwrap();
        // The damaged record (and only it) is lost.
        assert_eq!(rec.get_committed(T, 99), None);
        assert_eq!(rec.get_committed(T, 4), Some(b"v".as_slice()));
    }

    #[test]
    fn missing_superblock_is_reported() {
        let (db, wal, mut data) = fresh();
        data.drop_block(0);
        match MiniDb::recover("r", &wal, &data, db.config().clone()) {
            Err(RecoveryError::BadSuperblock(w)) => assert!(w.contains("missing")),
            other => panic!("expected BadSuperblock, got {other:?}"),
        }
    }

    /// Page ids index the tree's node table: a checksummed superblock
    /// whose allocator state points outside the data volume is refused
    /// before any id from it is used.
    #[test]
    fn superblock_allocator_state_must_fit_the_data_volume() {
        let (db, wal, data) = fresh();
        let good = Superblock::deserialize(&data.read_block(0).unwrap()).unwrap();
        let forged = [
            Superblock {
                next_page: data.size_blocks() + 1,
                ..good.clone()
            },
            Superblock {
                free_list: vec![good.next_page],
                ..good.clone()
            },
            Superblock {
                next_page: u64::MAX,
                free_list: vec![1 << 60],
                ..good.clone()
            },
        ];
        for sb in forged {
            let mut data = data.clone();
            data.write_block(0, &sb.serialize());
            match MiniDb::recover("r", &wal, &data, db.config().clone()) {
                Err(RecoveryError::BadSuperblock(w)) => assert!(w.contains("allocator"), "{w}"),
                other => panic!("expected BadSuperblock, got {other:?}"),
            }
        }
        assert!(MiniDb::recover("r", &wal, &data, db.config().clone()).is_ok());
    }

    #[test]
    fn damaged_tree_page_is_reported() {
        let (mut db, mut wal, mut data) = fresh();
        for i in 0..300u64 {
            let tx = db.begin();
            db.put(tx, T, i, vec![0u8; 200].as_slice());
            apply(&db.commit(tx), &mut wal, &mut data);
        }
        apply(&db.checkpoint(), &mut wal, &mut data);
        // Find a data page other than the superblock and corrupt it.
        let sb = Superblock::deserialize(&data.read_block(0).unwrap()).unwrap();
        data.corrupt(sb.root, 50);
        match MiniDb::recover("r", &wal, &data, db.config().clone()) {
            Err(RecoveryError::Page(PageError::BadChecksum(p))) => assert_eq!(p, sb.root),
            other => panic!("expected BadChecksum, got {other:?}"),
        }
    }

    #[test]
    fn data_ahead_of_wal_is_detected() {
        // Build a database, checkpoint, commit more, checkpoint again —
        // then present the NEW data volume with the OLD wal volume, with a
        // forged superblock pointing at new pages but the old epoch... The
        // honest equivalent: replay data-volume writes fully but hold the
        // WAL volume at an earlier state *within the same epoch*. Since
        // epochs change at checkpoints, the in-epoch skew is: WAL blocks of
        // the current epoch missing while data pages (flushed at the *next*
        // checkpoint) present. Construct it directly: take the final image,
        // then erase the current epoch's WAL records.
        let (mut db, mut wal, mut data) = fresh();
        for i in 0..10u64 {
            let tx = db.begin();
            db.put(tx, T, i, b"a");
            apply(&db.commit(tx), &mut wal, &mut data);
        }
        apply(&db.checkpoint(), &mut wal, &mut data); // epoch bump, pages have lsn 10
        for i in 10..20u64 {
            let tx = db.begin();
            db.put(tx, T, i, b"b");
            apply(&db.commit(tx), &mut wal, &mut data);
        }
        apply(&db.checkpoint(), &mut wal, &mut data); // pages now carry lsn 20
                                                      // Forge the collapse: superblock+pages of the last checkpoint, WAL
                                                      // truncated to nothing, superblock epoch rolled back by hand is not
                                                      // possible without breaking the CRC — so emulate the skewed cut by
                                                      // rolling the superblock back to the previous checkpoint while the
                                                      // data pages have already been recycled... Simplest honest vector:
                                                      // pages with lsn 20 + superblock(epoch N) requires wal_end >= 20.
                                                      // Wipe the WAL volume entirely: wal_end collapses to ckpt_lsn=20,
                                                      // which is still consistent. So instead corrupt the page LSN path:
                                                      // feed recover() a *stale* superblock with fresh pages.
        let stale_sb = {
            // Reconstruct the previous superblock (epoch-1) from history:
            // easiest is to recover the current image and then write a
            // superblock with ckpt_lsn rolled back.
            let cur = Superblock::deserialize(&data.read_block(0).unwrap()).unwrap();
            Superblock {
                ckpt_lsn: 5, // pretends the tree only covers lsn 5
                ..cur
            }
        };
        data.write_block(0, &stale_sb.serialize());
        // Erase the WAL so nothing can account for lsns 6..20.
        for b in 0..db.config().wal_blocks {
            wal.drop_block(b);
        }
        match MiniDb::recover("r", &wal, &data, db.config().clone()) {
            Err(RecoveryError::DataAheadOfWal { page_lsn, wal_end }) => {
                assert!(page_lsn > wal_end);
                assert_eq!(wal_end, 5);
            }
            other => panic!("expected DataAheadOfWal, got {other:?}"),
        }
    }

    #[test]
    fn deletes_survive_recovery() {
        let (mut db, mut wal, mut data) = fresh();
        let tx = db.begin();
        db.put(tx, T, 1, b"x");
        db.put(tx, T, 2, b"y");
        apply(&db.commit(tx), &mut wal, &mut data);
        let tx = db.begin();
        db.delete(tx, T, 1);
        apply(&db.commit(tx), &mut wal, &mut data);
        let (rec, _) = MiniDb::recover("r", &wal, &data, db.config().clone()).unwrap();
        assert_eq!(rec.get_committed(T, 1), None);
        assert_eq!(rec.get_committed(T, 2), Some(b"y".as_slice()));
    }

    /// A transaction id that was staged (or aborted, or never handed out)
    /// is the caller's to keep track of: every mutator refuses it with the
    /// same words.
    fn retired() -> (MiniDb, TxId) {
        let (mut db, _, _) = fresh();
        let tx = db.begin();
        db.put(tx, T, 1, b"kept");
        let _ = db.commit(tx);
        (db, tx)
    }

    #[test]
    #[should_panic(expected = "transaction 1 is not active")]
    fn put_on_a_retired_transaction_is_refused() {
        let (mut db, tx) = retired();
        db.put(tx, T, 2, b"late");
    }

    #[test]
    #[should_panic(expected = "transaction 1 is not active")]
    fn delete_on_a_retired_transaction_is_refused() {
        let (mut db, tx) = retired();
        db.delete(tx, T, 1);
    }

    #[test]
    #[should_panic(expected = "transaction 1 is not active")]
    fn stage_of_a_retired_transaction_is_refused() {
        let (mut db, tx) = retired();
        db.stage(tx);
    }

    #[test]
    #[should_panic(expected = "transaction 1 is not active")]
    fn abort_of_a_retired_transaction_is_refused() {
        let (mut db, tx) = retired();
        db.abort(tx);
    }

    #[test]
    #[should_panic(expected = "transaction 77 is not active")]
    fn a_transaction_id_never_handed_out_is_refused() {
        let (mut db, _, _) = fresh();
        db.put(TxId(77), T, 1, b"forged");
    }

    /// A read has nothing to refuse: an id with no open transaction has no
    /// writes of its own, so it sees committed state.
    #[test]
    fn get_on_a_retired_transaction_reads_committed_state() {
        let (mut db, tx) = retired();
        let other = db.begin();
        db.put(other, T, 1, b"pending");
        assert_eq!(db.get(tx, T, 1), Some(b"kept".as_slice()));
        assert_eq!(db.get(TxId(77), T, 1), db.get_committed(T, 1));
        assert_eq!(db.get(other, T, 1), Some(b"pending".as_slice()));
    }

    #[test]
    #[should_panic(expected = "48 bits")]
    fn oversized_user_key_rejected() {
        let (mut db, _, _) = fresh();
        let tx = db.begin();
        db.put(tx, T, 1 << 48, b"nope");
    }

    #[test]
    fn vacuum_reclaims_deleted_space() {
        let (mut db, mut wal, mut data) = fresh();
        for i in 0..3000u64 {
            let tx = db.begin();
            db.put(tx, T, i, &[7u8; 64]);
            apply(&db.commit(tx), &mut wal, &mut data);
        }
        apply(&db.checkpoint(), &mut wal, &mut data);
        let before = db.tree_nodes();
        // Delete 95% of the rows.
        for i in 0..2850u64 {
            let tx = db.begin();
            db.delete(tx, T, i);
            apply(&db.commit(tx), &mut wal, &mut data);
        }
        apply(&db.checkpoint(), &mut wal, &mut data);
        // Without merge, the tree stays bloated after deletions...
        assert!(db.tree_nodes() > before / 2);
        // ...until a vacuum rebuilds it densely.
        apply(&db.vacuum(), &mut wal, &mut data);
        assert!(
            db.tree_nodes() < before / 5,
            "vacuum should shrink {before} nodes to a handful, got {}",
            db.tree_nodes()
        );
        // The compact image recovers correctly.
        let (rec, _) = MiniDb::recover("r", &wal, &data, db.config().clone()).unwrap();
        assert_eq!(rec.scan_table(T).len(), 150);
        for i in 2850..3000u64 {
            assert_eq!(rec.get_committed(T, i), Some([7u8; 64].as_slice()));
        }
    }

    #[test]
    fn vacuum_then_continue_service() {
        let (mut db, mut wal, mut data) = fresh();
        for i in 0..100u64 {
            let tx = db.begin();
            db.put(tx, T, i, b"x");
            apply(&db.commit(tx), &mut wal, &mut data);
        }
        apply(&db.vacuum(), &mut wal, &mut data);
        let tx = db.begin();
        db.put(tx, T, 1000, b"after-vacuum");
        apply(&db.commit(tx), &mut wal, &mut data);
        let (rec, _) = MiniDb::recover("r", &wal, &data, db.config().clone()).unwrap();
        assert_eq!(rec.scan_table(T).len(), 101);
        assert_eq!(rec.get_committed(T, 1000), Some(b"after-vacuum".as_slice()));
    }

    #[test]
    #[should_panic(expected = "active transactions")]
    fn vacuum_rejects_active_transactions() {
        let (mut db, _, _) = fresh();
        let _tx = db.begin();
        let _ = db.vacuum();
    }

    #[test]
    fn wal_usage_reports_fill_level() {
        let (mut db, _, _) = fresh();
        assert_eq!(db.wal_usage(), 0.0);
        let tx = db.begin();
        db.put(tx, T, 1, &[0u8; 500]);
        let _ = db.commit(tx);
        assert!(db.wal_usage() > 0.0);
    }
}
