//! The single module through which the benchmark calls repo crates.
//!
//! Everything the benchmark depends on is re-exported here, grouped by
//! layer (= crate), so the public surface it needs is one reviewable list
//! (copied into README.md). A refactor that keeps or shims exactly these
//! names leaves the benchmark untouched. Typed events only: no `DynEvent`,
//! no `schedule_at` / `schedule_in` closures — ROADMAP item 2 deletes them.
//! (`EventFn` appears only because `Event::from_fn` is still a required
//! trait method; the benchmark's two event types implement it as
//! `unreachable!` and never call it.)

// sim — kernel, time, randomness, measurement
pub use tsuru_sim::{DetRng, Event, EventFn, Histogram, Sim, SimDuration, SimTime};

// simnet — links
pub use tsuru_simnet::{Link, LinkConfig};

// storage — world, engine, journal, shards, devices
pub use tsuru_storage::engine::host_write;
pub use tsuru_storage::{
    block_from, metric_names, span_names, ArrayPerf, BlockBuf, BlockDeviceMut, EngineConfig,
    GroupId, HasStorage, Journal, JournalId, MemDevice, PairId, StorageEvents, StorageOp,
    StorageWorld, VolRef, BLOCK_SIZE,
};

// telemetry — tracer and registry
pub use tsuru_telemetry::{MetricsRegistry, RecordKind, TraceRecord, Tracer};

// minidb
pub use tsuru_minidb::{DbConfig, DbVol, IoPlan, MiniDb, TableId};

// ecom — workload shapes and the DB-image oracle
pub use tsuru_ecom::{check_cross_db, WorkloadConfig, WorkloadKind};

// history — recorder, checker, export
pub use tsuru_history::{check_history, CheckConfig, OpData, Recorder, Site as HistorySite};

// chaos — plans, trials, sweeps
pub use tsuru_chaos::{
    alert_sweep, chaos_sweep, convergence_sweep, run_chaos_trial_history, ChaosConfig, ChaosReport,
    FaultKind, FaultPlan,
};

// core — rigs, the demo system, the tenant world, the trial harness, E5
pub use tsuru_core::experiments::e5_operator;
pub use tsuru_core::tenants::build_tenant_world;
pub use tsuru_core::{
    BackupMode, DemoConfig, DemoSystem, RigConfig, TenantParams, TrialHarness, TwoSiteRig,
};
