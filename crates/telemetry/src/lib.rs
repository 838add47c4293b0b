//! # tsuru-telemetry — deterministic observability for the simulated stack
//!
//! The paper's central claims (no host slowdown, prefix-consistent backup
//! cuts) are *temporal* claims about the journey of one write: acked at
//! the primary, journaled, shipped over the WAN, applied at the backup.
//! This crate makes that journey visible without perturbing it:
//!
//! - a **causal span tracer** ([`Tracer`]) records sim-time-stamped spans
//!   with parent links, forming a per-write lifecycle
//!   `host_write → journal_append → wan_transfer → backup_apply` plus
//!   `snapshot`, `pump_stall` and `fault` spans (see [`spans`]);
//! - a **metrics registry** ([`MetricsRegistry`]) holds named counters,
//!   gauges, histograms and time series behind stable `BTreeMap` keys
//!   (see [`names`]), with serializable point-in-time snapshots;
//! - **exporters** render a recorded trace as JSONL
//!   ([`Tracer::export_jsonl`]) or Chrome `trace_event` JSON
//!   ([`Tracer::export_chrome`]) for `chrome://tracing` / Perfetto.
//!
//! Everything is keyed to [`SimTime`](tsuru_sim::SimTime) — no wall clock,
//! no ambient randomness — so two runs of the same seed produce
//! byte-identical exports at any harness thread count. The
//! [`Tracer::disabled`] handle is a no-op whose emit methods never build
//! their attributes (they take closures), keeping the hot path free when
//! tracing is off.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod alert;
mod export;
pub mod incident;
mod registry;
mod tracer;

pub use alert::{AlertEngine, AlertProfile, AlertRule, RuleKind, Signal};
pub use incident::{FaultRef, Incident, IncidentLog};
pub use registry::{MetricsRegistry, MetricsSnapshot, SeriesSummary};
pub use tracer::{AttrVal, Attrs, RecordKind, SpanId, TraceRecord, Tracer};

/// Stable span and instant names emitted by the instrumented stack.
pub mod spans {
    /// Root span of one host write: submit to host acknowledgement.
    pub const HOST_WRITE: &str = "host_write";
    /// Zero-width span: the write entered a primary-side journal.
    pub const JOURNAL_APPEND: &str = "journal_append";
    /// One journal entry crossing the inter-site link (send → arrival).
    pub const WAN_TRANSFER: &str = "wan_transfer";
    /// One journal entry applied to its secondary volume (admit → done).
    pub const BACKUP_APPLY: &str = "backup_apply";
    /// Instant: a write parked by the per-volume ordering gate.
    pub const TICKET_WAIT: &str = "ticket_wait";
    /// Instant: a write stalled by a full journal (Block policy).
    pub const JOURNAL_STALL: &str = "journal_stall";
    /// Instant: a transfer pump backing off (loss, outage) or parking on
    /// its link's wait list (flow control; once per park).
    pub const PUMP_STALL: &str = "pump_stall";
    /// Span: a transfer pump parked on its link's wait list, park → admit;
    /// its parent is the oldest write that waited behind it.
    pub const LANE_WAIT: &str = "lane_wait";
    /// Instant: an in-flight batch discarded at the receive path.
    pub const FRAME_DISCARD: &str = "frame_discard";
    /// Instant: an array snapshot (or snapshot group) was taken.
    pub const SNAPSHOT: &str = "snapshot";
    /// Span: an injected fault window (start → heal).
    pub const FAULT: &str = "fault";
    /// Instant: a frame delivered by a link.
    pub const LINK_FRAME: &str = "link_frame";
    /// Instant: a frame lost by a link.
    pub const LINK_LOSS: &str = "link_loss";
    /// Instant: a frame refused because the link is down.
    pub const LINK_DOWN: &str = "link_down";
    /// Span: one controller reconcile pass.
    pub const RECONCILE: &str = "reconcile";
    /// Span: one supervisor recovery attempt window (suspension → healthy).
    pub const RECOVERY: &str = "recovery";
    /// Instant: the supervisor circuit breaker parked a group.
    pub const SUPERVISOR_ALARM: &str = "supervisor_alarm";
}

/// Stable metric names used by the instrumented stack.
pub mod names {
    /// Host writes rejected because the target array failed.
    pub const WRITES_FAILED: &str = "writes.failed";
    /// Host reads rejected at admission (failed array, unknown volume,
    /// address past the end of the volume).
    pub const READS_FAILED: &str = "reads.failed";
    /// Host write attempts stalled by a full journal (Block policy).
    pub const JOURNAL_STALL_RETRIES: &str = "writes.journal_stall_retries";
    /// Host write attempts parked by the per-volume ordering gate.
    pub const WRITE_ORDER_WAITS: &str = "writes.order_waits";
    /// Snapshots taken (single or group members).
    pub const SNAPSHOTS_TAKEN: &str = "snapshots.taken";
    /// Time series: total primary-journal occupancy in bytes, sampled at
    /// transfer and apply edges.
    pub const JOURNAL_OCCUPANCY: &str = "journal.occupancy_bytes";
    /// Time series: acked-but-unapplied writes across all pairs (the RPO
    /// lag), sampled at transfer and apply edges.
    pub const RPO_LAG: &str = "rpo.lag_writes";
    /// Journal appends refused (or stalled) because the journal was full.
    pub const JOURNAL_OVERFLOW: &str = "journal.overflow_hits";
    /// Supervisor resync attempts (delta and full).
    pub const SUPERVISOR_ATTEMPTS: &str = "supervisor.attempts";
    /// Time series: supervisor time-to-heal per recovered group, in
    /// nanoseconds of sim-time.
    pub const SUPERVISOR_TIME_TO_HEAL: &str = "supervisor.time_to_heal_ns";
    /// Histogram: sampled supervisor backoff waits, in nanoseconds of
    /// sim-time (one sample per backoff the supervisor begins).
    pub const SUPERVISOR_BACKOFF_WAIT: &str = "supervisor.backoff_wait_ns";
    /// Histogram: recovery-stage duration per healed group (suspension
    /// to healthy), in nanoseconds of sim-time.
    pub const SUPERVISOR_RECOVERY_STAGE: &str = "supervisor.recovery_stage_ns";
    /// Health series, sampled only on SLO ticks while the alert engine
    /// is armed: acked-but-unapplied writes across all pairs.
    pub const HEALTH_RPO_LAG: &str = "health.rpo_lag";
    /// Health series: total primary-journal occupancy in bytes.
    pub const HEALTH_JOURNAL_OCCUPANCY: &str = "health.journal_occupancy_bytes";
    /// Health series: links currently refusing frames (down).
    pub const HEALTH_LINKS_DOWN: &str = "health.links_down";
    /// Health series: arrays currently failed.
    pub const HEALTH_ARRAYS_FAILED: &str = "health.arrays_failed";
    /// Health series: replication groups whose pair state is degraded
    /// (any member not PAIR).
    pub const HEALTH_GROUPS_DEGRADED: &str = "health.groups_degraded";
    /// Histogram: how long a database commit waited on its log flusher,
    /// stage to durable, in nanoseconds of sim-time — the wait for the
    /// flush in flight plus the flush that carried it (whose writes are
    /// `host_write` spans).
    pub const DB_FLUSH_WAIT: &str = "db.flush_wait";
    /// Per-shard series: primary-journal occupancy in bytes across the
    /// shard's groups (sampled via [`super::MetricsRegistry::sample_shard`]).
    pub const SHARD_JOURNAL_OCCUPANCY: &str = "shard.journal_occupancy_bytes";
    /// Per-shard series: acked-but-unapplied writes across the shard's
    /// pairs (the shard's apply lag).
    pub const SHARD_APPLY_LAG: &str = "shard.apply_lag_writes";
}
