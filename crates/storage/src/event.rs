//! Typed kernel events for the storage data plane.
//!
//! Every hop of a write's lifecycle — front-end service completion,
//! journal-batch WAN arrival, apply service, SDC leg frames, pump cycles —
//! is a [`StorageOp`] variant dispatched by `match`. Scheduling one costs
//! **zero heap allocations** (the op moves by value into the timer wheel),
//! where the old kernel boxed a fresh closure per hop.
//!
//! The engine stays generic over the world's event type through
//! [`StorageEvents`]: any kernel event enum that can absorb a `StorageOp`
//! gets the allocation-free path; the boxed-closure default kernel
//! ([`DynEvent`]) gets a blanket impl that wraps the op in one closure, so
//! every existing `Sim<World>` test world keeps working unmodified.
//!
//! Host-facing completion callbacks ([`WriteCb`], [`ReadCb`]) are still
//! boxed — once, at submit — and then ride through however many typed hops
//! the write takes (stall retries, SDC leg chains) without re-boxing.

use tsuru_sim::{DynEvent, Event, Sim, SimTime};
use tsuru_simnet::LinkId;
use tsuru_telemetry::SpanId;

use crate::block::{ArrayId, BlockBuf, GroupId, PairId, SnapshotId, VolRef};
use crate::engine::{self, LegDone, WriteAck};
use crate::journal::JournalEntry;
use crate::world::HasStorage;

/// Boxed host-write completion callback (allocated once per write, at
/// submit; moved through every subsequent typed hop).
pub type WriteCb<S, E> = Box<dyn FnOnce(&mut S, &mut Sim<S, E>, WriteAck)>;

/// Boxed host-read completion callback.
pub type ReadCb<S, E> = Box<dyn FnOnce(&mut S, &mut Sim<S, E>, Option<BlockBuf>)>;

/// Boxed SDC leg completion callback (allocated once per leg).
pub type LegCb<S, E> = Box<dyn FnOnce(&mut S, &mut Sim<S, E>, LegDone)>;

/// One scheduled step of the storage data plane.
///
/// Variants mirror the engine's continuation functions one-to-one; the
/// schedule-call order (and therefore the kernel's deterministic `seq`
/// tie-breaking) is exactly the order the closure kernel produced.
pub enum StorageOp<S, E> {
    /// Deliver a write acknowledgement on the next tick (admission-failure
    /// path: the array rejected the write at submit).
    AckNow {
        /// The acknowledgement to deliver.
        ack: WriteAck,
        /// Host completion callback.
        cb: WriteCb<S, E>,
    },
    /// Front-end service completed: journal-append, persist the primary
    /// copy and drive the replication legs.
    Persist {
        /// Target volume.
        vol: VolRef,
        /// Target block address.
        lba: u64,
        /// Block payload.
        data: BlockBuf,
        /// Submit instant (latency accounting).
        issued: SimTime,
        /// Per-volume ordering ticket.
        ticket: u64,
        /// Root trace span of the write lifecycle.
        span: SpanId,
        /// Host completion callback.
        cb: WriteCb<S, E>,
    },
    /// Deliver `None` to a read whose array was already failed at submit.
    ReadFail {
        /// Host completion callback.
        cb: ReadCb<S, E>,
    },
    /// Read service completed: deliver the block content.
    ReadDone {
        /// Source volume.
        vol: VolRef,
        /// Block address.
        lba: u64,
        /// Host completion callback.
        cb: ReadCb<S, E>,
    },
    /// Snapshot read service completed: deliver the point-in-time content.
    SnapReadDone {
        /// Owning array.
        array: ArrayId,
        /// Snapshot image.
        snap: SnapshotId,
        /// Block address.
        lba: u64,
        /// Host completion callback.
        cb: ReadCb<S, E>,
    },
    /// (Re)send one synchronous-replication frame (loss retry path).
    SdcSend {
        /// Replication group.
        gid: GroupId,
        /// Replication pair.
        pid: PairId,
        /// Primary volume.
        vol: VolRef,
        /// Block address.
        lba: u64,
        /// Block payload.
        data: BlockBuf,
        /// Leg completion callback.
        cb: LegCb<S, E>,
    },
    /// An SDC frame reached the backup array.
    SdcArrive {
        /// Replication group.
        gid: GroupId,
        /// Replication pair.
        pid: PairId,
        /// Block address.
        lba: u64,
        /// Block payload.
        data: BlockBuf,
        /// Leg completion callback.
        cb: LegCb<S, E>,
    },
    /// The backup array's service completed: persist the SDC block and
    /// send the acknowledgement back across the reverse link.
    SdcPersisted {
        /// Replication group.
        gid: GroupId,
        /// Replication pair.
        pid: PairId,
        /// Block address.
        lba: u64,
        /// Block payload.
        data: BlockBuf,
        /// Leg completion callback.
        cb: LegCb<S, E>,
    },
    /// The SDC acknowledgement frame crossed the reverse link.
    SdcAck {
        /// Replication pair.
        pid: PairId,
        /// Leg completion callback.
        cb: LegCb<S, E>,
    },
    /// Run one transfer-pump cycle (journal drain → WAN frame depart).
    RunTransfer {
        /// Replication group.
        gid: GroupId,
        /// Replication generation the pump was armed in.
        gen: u32,
    },
    /// A link's backlog has drained to the flow-control threshold: admit
    /// the transfer pumps parked on its wait list, in arrival order.
    LinkWake {
        /// The link whose wait list to serve.
        link: LinkId,
    },
    /// A journal batch's WAN frame arrived at the backup site.
    ReceiveBatch {
        /// Replication group.
        gid: GroupId,
        /// The entries (moved, not copied, from the transfer pump).
        batch: Vec<JournalEntry>,
        /// Instant the frame's last bit left the main site.
        serialized: SimTime,
        /// Replication generation the frame was sent in.
        gen: u32,
    },
    /// Apply service completed for the backup journal's front entry.
    FinishApply {
        /// Replication group.
        gid: GroupId,
        /// Replication generation the apply was armed in.
        gen: u32,
        /// Instant the apply service began (span accounting).
        started: SimTime,
    },
    /// The applied-ack frame arrived back at the main site: release
    /// primary journal entries up to the acknowledged sequence.
    ReleaseUpto {
        /// Replication group.
        gid: GroupId,
        /// Replication generation the ack belongs to.
        gen: u32,
        /// Highest applied sequence number.
        upto: u64,
    },
}

/// Names of the [`StorageOp`] kinds, in declaration order — the index
/// space of [`StorageWorld::op_counts`](crate::StorageWorld::op_counts).
pub const OP_KINDS: [&str; 14] = [
    "ack_now",
    "persist",
    "read_fail",
    "read_done",
    "snap_read_done",
    "sdc_send",
    "sdc_arrive",
    "sdc_persisted",
    "sdc_ack",
    "run_transfer",
    "link_wake",
    "receive_batch",
    "finish_apply",
    "release_upto",
];

/// One dispatch counter per [`OP_KINDS`] entry.
pub type OpCounts = [u64; OP_KINDS.len()];

impl<S, E> StorageOp<S, E> {
    /// This step's index into [`OP_KINDS`].
    pub fn kind(&self) -> usize {
        match self {
            StorageOp::AckNow { .. } => 0,
            StorageOp::Persist { .. } => 1,
            StorageOp::ReadFail { .. } => 2,
            StorageOp::ReadDone { .. } => 3,
            StorageOp::SnapReadDone { .. } => 4,
            StorageOp::SdcSend { .. } => 5,
            StorageOp::SdcArrive { .. } => 6,
            StorageOp::SdcPersisted { .. } => 7,
            StorageOp::SdcAck { .. } => 8,
            StorageOp::RunTransfer { .. } => 9,
            StorageOp::LinkWake { .. } => 10,
            StorageOp::ReceiveBatch { .. } => 11,
            StorageOp::FinishApply { .. } => 12,
            StorageOp::ReleaseUpto { .. } => 13,
        }
    }
}

impl<S, E> StorageOp<S, E>
where
    S: HasStorage + 'static,
    E: StorageEvents<S>,
{
    /// Fire this step: the typed-event analogue of the closure the old
    /// kernel would have boxed.
    pub fn dispatch(self, state: &mut S, sim: &mut Sim<S, E>) {
        state.storage_mut().count_op(self.kind());
        match self {
            StorageOp::AckNow { ack, cb } => cb(state, sim, ack),
            StorageOp::Persist {
                vol,
                lba,
                data,
                issued,
                ticket,
                span,
                cb,
            } => engine::persist(state, sim, vol, lba, data, issued, ticket, span, cb),
            StorageOp::ReadFail { cb } => cb(state, sim, None),
            StorageOp::ReadDone { vol, lba, cb } => {
                let data = state
                    .storage()
                    .array(vol.array)
                    .read_block(vol.volume, lba)
                    .cloned();
                cb(state, sim, data)
            }
            StorageOp::SnapReadDone {
                array,
                snap,
                lba,
                cb,
            } => {
                let data = state
                    .storage()
                    .array(array)
                    .read_snapshot_block(snap, lba)
                    .cloned();
                cb(state, sim, data)
            }
            StorageOp::SdcSend {
                gid,
                pid,
                vol,
                lba,
                data,
                cb,
            } => engine::sdc_leg_send(state, sim, gid, pid, vol, lba, data, cb),
            StorageOp::SdcArrive {
                gid,
                pid,
                lba,
                data,
                cb,
            } => engine::sdc_leg_arrive(state, sim, gid, pid, lba, data, cb),
            StorageOp::SdcPersisted {
                gid,
                pid,
                lba,
                data,
                cb,
            } => engine::sdc_leg_done(state, sim, gid, pid, lba, data, cb),
            StorageOp::SdcAck { pid, cb } => {
                state
                    .storage_mut()
                    .fabric
                    .update_pair(pid, |p| p.acked_writes += 1);
                cb(state, sim, LegDone::Ok)
            }
            StorageOp::RunTransfer { gid, gen } => engine::run_transfer(state, sim, gid, gen),
            StorageOp::LinkWake { link } => engine::link_wake(state, sim, link),
            StorageOp::ReceiveBatch {
                gid,
                batch,
                serialized,
                gen,
            } => engine::receive_batch(state, sim, gid, batch, serialized, gen),
            StorageOp::FinishApply { gid, gen, started } => {
                engine::finish_apply(state, sim, gid, gen, started)
            }
            StorageOp::ReleaseUpto { gid, gen, upto } => {
                engine::release_primary_upto(state, gid, gen, upto)
            }
        }
    }
}

/// A kernel event type that can carry storage data-plane steps.
///
/// World-level event enums implement this with a plain wrapping variant
/// (zero-allocation); the boxed-closure kernel gets the blanket impl
/// below, which costs the one box the old kernel paid anyway.
pub trait StorageEvents<S>: Event<S> {
    /// Wrap a storage step as a kernel event.
    fn storage(op: StorageOp<S, Self>) -> Self;
}

impl<S: HasStorage + 'static> StorageEvents<S> for DynEvent<S> {
    fn storage(op: StorageOp<S, Self>) -> Self {
        DynEvent::from_fn(Box::new(move |s, sim| op.dispatch(s, sim)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every pending event is moved once per wheel level it cascades
    /// through and once into the ready run, so the event's size is a
    /// per-event cost: `Persist`, the largest variant, is 72 bytes of
    /// fields (the payload handle is one pointer) plus the tag.
    #[test]
    fn storage_op_stays_within_eighty_bytes() {
        assert!(std::mem::size_of::<StorageOp<(), ()>>() <= 80);
    }
}
