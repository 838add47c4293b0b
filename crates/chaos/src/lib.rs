//! # tsuru-chaos — deterministic fault injection + whole-system auditing
//!
//! The repo's individual tests hand-roll single faults (a link cut here,
//! an array crash there); this crate exercises the *composition* of
//! faults, which is where the paper's central claims actually live: a
//! consistency-group backup must be a prefix-consistent cut of the
//! primary's ack order **no matter what combination of failures is in
//! flight** (C2/C3), while the naive per-volume configuration collapses
//! under exactly those conditions.
//!
//! Three pieces:
//!
//! - [`FaultPlan`] — a typed, seed-generatable schedule of fault events
//!   (link flap/partition/jitter-spike, array crash & heal, journal
//!   squeeze, pump stall, operator restart, snapshot-during-fault);
//! - the injector ([`run_chaos_trial`]) — replays a plan against a
//!   [`TwoSiteRig`](tsuru_core::TwoSiteRig) through the public fault
//!   seams (`simnet` outages, `storage` array failure, fabric
//!   suspend/resync, `heal_link` pump kicks);
//! - the [`Auditor`] — checks global invariants at every fault start,
//!   every heal and on a periodic sample grid, and a stricter set at
//!   final quiesce (journals drained, databases recover on every
//!   secondary image, snapshot groups crash-consistent).
//!
//! Everything derives from `DetRng` seeds: the same seed produces a
//! byte-identical [`ChaosReport`] at any harness thread count.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod alert;
mod audit;
mod converge;
mod e11;
mod inject;
mod judge;
mod plan;
mod run;

pub use alert::{match_incidents, AlertSummary, KindDetection};
pub use audit::{Auditor, ChaosReport, HistorySummary, SupervisorSummary, Violation};
pub use converge::{
    convergence_sweep, recovery_policies, render_convergence_table, ConvergeRow, ConvergeTrial,
};
pub use e11::{alert_sweep, render_alert_table, AlertRow, AlertTrial};
pub use plan::{FaultEvent, FaultKind, FaultPlan};
pub use run::{
    chaos_sweep, history_sweep, render_chaos_table, render_history_table, run_chaos_trial,
    run_chaos_trial_alerts, run_chaos_trial_history, run_chaos_trial_stepped,
    run_chaos_trial_traced, shrink_plan, ChaosConfig, ChaosPair, EachStep, HistoryRow,
    HistoryTrial, TraceExport,
};
