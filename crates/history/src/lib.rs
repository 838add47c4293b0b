//! Client-visible operation histories and the checkers that judge them.
//!
//! Every oracle built so far — the chaos auditor's six invariants, trace
//! spans, per-volume write tickets — judges *internal* state. This crate
//! judges what a **client observed**: a [`Recorder`] collects
//! invoke/ok/fail/info records (Jepsen's history model) into an
//! append-only arena, and a checker suite decides whether that history
//! is explainable by a correct system:
//!
//! * [`check::serial`] — serializability cycle detection over
//!   transactional histories: ww/wr/rw edges from per-key version
//!   chains, Tarjan SCC, G1c / lost-update classification.
//! * [`check::bank`] — a total-balance invariant: every observed
//!   snapshot of the accounts, on any site, must conserve the total.
//! * [`check::append`] — an elle-style append-list checker: per-key
//!   ordered appends must read as prefix-comparable lists everywhere,
//!   monotone per observer, with no acked append lost after the backup
//!   journal drains.
//! * [`check::shop`] — the e-commerce cross-database rule stated over
//!   raw client observations: an order visible in an image without its
//!   stock decrement is a client-visible collapse.
//!
//! Everything is deterministic: records carry sim-time stamps, ids are
//! allocated in emission order, exports are built by hand from integers
//! (no floats, no map iteration over unordered containers), so the
//! JSONL bytes and checker verdicts are a pure function of the seed.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod check;
mod export;
mod record;

pub use check::{
    check_history, Anomaly, AnomalyKind, CheckConfig, CheckReport, OpTable, Verdict,
};
pub use record::{
    process, space, History, OpData, OpId, Phase, Record, Recorder, Site,
    TxnOps, KeyVer,
};
