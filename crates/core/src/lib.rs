//! # tsuru-core — the demonstration system
//!
//! Assembles every substrate into the paper's two-site deployment:
//!
//! - [`TwoSiteRig`] — storage + databases + workload, for the quantitative
//!   experiments (E1–E4);
//! - [`DemoSystem`] — the full system including both container platforms,
//!   the CSI plugins and the namespace operator, driving the paper's
//!   three-step demonstration (backup configuration by tagging, snapshot
//!   development, analytics) plus a disaster/failover drill;
//! - [`experiments`] — the runners behind every reproduced figure/claim
//!   (see DESIGN.md §4 and EXPERIMENTS.md).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod event;
pub mod experiments;
mod harness;
mod report;
mod rig;
mod system;
pub mod tenants;
mod world;

pub use event::{ControlOp, DemoEvent, DemoSim};
pub use harness::{HarnessStats, TrialCtx, TrialHarness, TrialSet};
pub use report::{f2, f3, render_table};
pub use rig::{BackupMode, RigConfig, TwoSiteRig};
pub use system::{DemoConfig, DemoSystem, FailoverReport, DRIVER_NAME, STORAGE_CLASS};
pub use tenants::{e12_scale, E12Row, TenantParams, TenantWorld};
pub use tsuru_ecom::{Recovered, RecoveryOutcome};
pub use world::{DemoWorld, VOLUME_NAMES};
