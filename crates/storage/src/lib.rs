//! # tsuru-storage — a two-site block-storage array simulator
//!
//! The storage substrate of the Tsuru reproduction: everything the paper's
//! Hitachi VSP G370 pair provides, built from scratch on the deterministic
//! simulation kernel:
//!
//! - volumes with per-volume FIFO service stations ([`StorageArray`]);
//! - **asynchronous data copy** through journal volumes, with transfer and
//!   apply pumps ([`engine`]);
//! - **consistency groups** — pairs sharing one journal and one sequence
//!   space ([`ReplicationFabric`]);
//! - **synchronous data copy** as the latency baseline;
//! - **copy-on-write snapshots** and atomic snapshot groups;
//! - failure injection (array/site failure, link outages) and failover;
//! - a formal **write-order-fidelity checker** ([`AckLog`]) that decides
//!   whether a backup image is a prefix-consistent cut of the primary's
//!   acknowledgement order — the property the paper's consistency groups
//!   exist to protect.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod acklog;
pub mod arena;
mod array;
mod block;
mod config;
mod device;
pub mod engine;
pub mod event;
mod fabric;
pub mod hot;
mod journal;
pub mod lanewait;
mod pool;
pub mod shard;
mod snapshot;
mod status;
pub mod supervisor;
mod volume;
mod world;

pub use acklog::{AckEntry, AckLog, PrefixReport};
pub use arena::DenseArena;
pub use array::{ArrayPerf, FeedEntry, StorageArray, WriteError, DEFAULT_POOL_CAPACITY};
pub use block::{
    block_from, content_hash, ArrayId, BlockBuf, BlockWriter, GroupId, JournalId, PairId,
    SnapshotId, VolRef, VolumeId, BLOCK_SIZE,
};
pub use config::{EngineConfig, JournalFullPolicy};
pub use device::{BlockDevice, BlockDeviceMut, MemDevice, SnapshotView, VolumeView};
pub use engine::{
    heal_all_links, heal_link, host_read, host_read_snapshot, host_write, kick_all_pumps, LegDone,
    WriteAck,
};
pub use event::{LegCb, ReadCb, StorageEvents, StorageOp, WriteCb, OP_KINDS};
pub use fabric::{
    Group, GroupMode, GroupState, GroupStats, Pair, ReplicationFabric, ReplicationTotals,
    SuspendReason,
};
pub use journal::{Journal, JournalEntry};
pub use lanewait::{LaneWaits, Waiter};
pub use pool::{Pool, PoolId};
pub use shard::{ShardLane, ShardLayout};
pub use status::{group_status, render_pool_status, render_replication_status, GroupStatus};
pub use snapshot::Snapshot;
pub use supervisor::{RecoveryStage, Supervisor, SupervisorPolicy, SupervisorStats};
pub use volume::{Volume, VolumeRole};
pub use world::{ConsistencyReport, HasStorage, RpoReport, StorageWorld};

// The observability layer this crate reports through, re-exported so
// downstream crates read metrics/spans without naming tsuru-telemetry.
pub use tsuru_telemetry::names as metric_names;
pub use tsuru_telemetry::spans as span_names;
pub use tsuru_telemetry::{
    AlertEngine, AlertProfile, FaultRef, Incident, IncidentLog, MetricsRegistry, RecordKind,
    SpanId, TraceRecord, Tracer,
};
