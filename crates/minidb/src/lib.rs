//! # tsuru-minidb — a WAL-based transactional storage engine
//!
//! The stand-in for the paper's Oracle 23c databases: a redo-only, no-steal
//! key-value engine over two volumes (WAL + data), with CRC-protected pages,
//! a shadow-paging B+tree, epoch-tagged log records and automatic
//! checkpoints.
//!
//! MiniDB executes logically in memory and expresses its durability
//! discipline as ordered [`IoPlan`] phases that a driver pushes through the
//! simulated storage array (DESIGN.md §5.2), one plan at a time per
//! database: commits are staged ([`MiniDb::stage`]), everything staged goes
//! out in one flush ([`MiniDb::flush`]), and a [`LogFlusher`] keeps at most
//! one flush in flight and releases waiters at durability (DESIGN.md §20). Its crash recovery
//! ([`MiniDb::recover`]) is the behavioural oracle of the reproduction: it
//! succeeds on every prefix-consistent backup image and surfaces exactly
//! which physical property a collapsed image violates
//! ([`RecoveryError::DataAheadOfWal`], torn pages, missing pages).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod btree;
mod checksum;
mod db;
mod flush;
mod io;
mod node;
mod superblock;
mod wal;

pub use btree::{BTree, PageAllocator};
pub use checksum::{crc32, crc32_update};
pub use db::{
    DbConfig, DbStats, MiniDb, RecoveryError, RecoveryReport, RedoHook, TableId, TxId,
};
pub use flush::{LogFlusher, Progress};
pub use io::{DbVol, IoPlan, IoRequest};
pub use node::{Node, PageError, MAX_VALUE, PAGE_SIZE};
pub use superblock::{Superblock, MAX_FREE_LIST};
pub use wal::{encode_record, scan_wal, scan_wal_from, WalOp, WalRecord, WalScan, WalWriter};
