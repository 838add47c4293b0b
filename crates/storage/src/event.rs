//! Typed kernel events for the storage data plane.
//!
//! Every hop of a write's lifecycle — front-end service completion,
//! journal-batch WAN arrival, apply service, SDC leg frames, pump cycles —
//! is a [`StorageOp`] variant dispatched by `match`. Scheduling one costs
//! **zero heap allocations** (the op moves by value into the timer wheel),
//! where the old kernel boxed a fresh closure per hop.
//!
//! The engine stays generic over the world's event type through
//! [`StorageEvents`]: a world's kernel event enum absorbs a `StorageOp` in
//! one wrapping variant.
//!
//! The host-facing completion ([`HostDone`]) is the only function an op
//! carries: a plain `fn` pointer, or one with a caller's `u64` tag — two
//! words, `Copy`, never boxed — it rides through however many typed hops
//! the write takes (stall retries, SDC legs) and is called inline where
//! the write or read completes. A write's SDC legs share its completion
//! through one [`SdcJoin`] record.

use std::rc::Rc;

use tsuru_sim::{Event, Sim, SimTime};
use tsuru_simnet::LinkId;
use tsuru_telemetry::SpanId;

use crate::block::{ArrayId, BlockBuf, GroupId, PairId, SnapshotId, VolRef};
use crate::engine::{self, LegDone, SdcJoin, WriteAck};
use crate::journal::JournalEntry;
use crate::world::HasStorage;

/// A host I/O's completion, delivered a `T` ([`WriteAck`] for a write,
/// `Option<BlockBuf>` for a read): a plain function, or a function and a
/// word of the caller's context. Two words and `Copy` — nothing is
/// allocated to carry it, and what a caller needs to know about the I/O
/// (ecom's database and flush generation) is packed into the tag.
pub enum HostDone<S, E, T> {
    /// Call `f(state, sim, outcome)`.
    Plain(fn(&mut S, &mut Sim<S, E>, T)),
    /// Call `f(state, sim, tag, outcome)`.
    Tagged(fn(&mut S, &mut Sim<S, E>, u64, T), u64),
}

impl<S, E, T> Clone for HostDone<S, E, T> {
    fn clone(&self) -> Self {
        *self
    }
}

impl<S, E, T> Copy for HostDone<S, E, T> {}

impl<S, E, T> HostDone<S, E, T> {
    /// Deliver `outcome`.
    pub(crate) fn call(self, state: &mut S, sim: &mut Sim<S, E>, outcome: T) {
        match self {
            HostDone::Plain(f) => f(state, sim, outcome),
            HostDone::Tagged(f, tag) => f(state, sim, tag, outcome),
        }
    }
}

/// One scheduled step of the storage data plane.
///
/// Variants mirror the engine's continuation functions one-to-one.
pub enum StorageOp<S, E> {
    /// Deliver a write acknowledgement on the next tick (admission-failure
    /// path: the array rejected the write at submit).
    AckNow {
        /// The acknowledgement to deliver.
        ack: WriteAck,
        /// Host completion.
        done: HostDone<S, E, WriteAck>,
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
        /// Host completion.
        done: HostDone<S, E, WriteAck>,
    },
    /// Deliver `None` to a read whose array was already failed at submit.
    ReadFail {
        /// Host completion.
        done: HostDone<S, E, Option<BlockBuf>>,
    },
    /// Read service completed: deliver the block content.
    ReadDone {
        /// Source volume.
        vol: VolRef,
        /// Block address.
        lba: u64,
        /// Host completion.
        done: HostDone<S, E, Option<BlockBuf>>,
    },
    /// Snapshot read service completed: deliver the point-in-time content.
    SnapReadDone {
        /// Owning array.
        array: ArrayId,
        /// Snapshot image.
        snap: SnapshotId,
        /// Block address.
        lba: u64,
        /// Host completion.
        done: HostDone<S, E, Option<BlockBuf>>,
    },
    /// (Re)send one synchronous-replication frame (loss retry path).
    SdcSend {
        /// Replication group.
        gid: GroupId,
        /// Replication pair.
        pid: PairId,
        /// Block payload.
        data: BlockBuf,
        /// The write's join of synchronous legs.
        join: Rc<SdcJoin<S, E>>,
    },
    /// An SDC frame reached the backup array.
    SdcArrive {
        /// Replication group.
        gid: GroupId,
        /// Replication pair.
        pid: PairId,
        /// Block payload.
        data: BlockBuf,
        /// The write's join of synchronous legs.
        join: Rc<SdcJoin<S, E>>,
    },
    /// The backup array's service completed: persist the SDC block and
    /// send the acknowledgement back across the reverse link.
    SdcPersisted {
        /// Replication group.
        gid: GroupId,
        /// Replication pair.
        pid: PairId,
        /// Block payload.
        data: BlockBuf,
        /// The write's join of synchronous legs.
        join: Rc<SdcJoin<S, E>>,
    },
    /// The SDC acknowledgement frame crossed the reverse link.
    SdcAck {
        /// Replication pair.
        pid: PairId,
        /// The write's join of synchronous legs.
        join: Rc<SdcJoin<S, E>>,
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
    /// Fire this step.
    pub fn dispatch(self, state: &mut S, sim: &mut Sim<S, E>) {
        state.storage_mut().count_op(self.kind());
        match self {
            StorageOp::AckNow { ack, done } => done.call(state, sim, ack),
            StorageOp::Persist {
                vol,
                lba,
                data,
                issued,
                ticket,
                span,
                done,
            } => engine::persist(state, sim, vol, lba, data, issued, ticket, span, done),
            StorageOp::ReadFail { done } => done.call(state, sim, None),
            StorageOp::ReadDone { vol, lba, done } => {
                let data = state
                    .storage()
                    .array(vol.array)
                    .read_block(vol.volume, lba)
                    .cloned();
                done.call(state, sim, data)
            }
            StorageOp::SnapReadDone {
                array,
                snap,
                lba,
                done,
            } => {
                let data = state
                    .storage()
                    .array(array)
                    .read_snapshot_block(snap, lba)
                    .cloned();
                done.call(state, sim, data)
            }
            StorageOp::SdcSend {
                gid,
                pid,
                data,
                join,
            } => engine::sdc_leg_send(state, sim, gid, pid, data, join),
            StorageOp::SdcArrive {
                gid,
                pid,
                data,
                join,
            } => engine::sdc_leg_arrive(state, sim, gid, pid, data, join),
            StorageOp::SdcPersisted {
                gid,
                pid,
                data,
                join,
            } => engine::sdc_leg_done(state, sim, gid, pid, data, join),
            StorageOp::SdcAck { pid, join } => {
                state
                    .storage_mut()
                    .fabric
                    .update_pair(pid, |p| p.acked_writes += 1);
                engine::sdc_leg_finished(state, sim, join, LegDone::Ok)
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

/// A kernel event type that can carry storage data-plane steps: world-level
/// event enums implement this with a plain wrapping variant.
pub trait StorageEvents<S>: Event<S> {
    /// Wrap a storage step as a kernel event.
    fn storage(op: StorageOp<S, Self>) -> Self;
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every pending event is moved once per wheel level it cascades
    /// through and once into the ready run, so the event's size is a
    /// per-event cost: `Persist`, the largest variant, is 72 bytes of
    /// fields (the payload handle is one pointer, the host completion two
    /// words) plus the tag.
    #[test]
    fn storage_op_stays_within_eighty_bytes() {
        assert!(std::mem::size_of::<StorageOp<(), ()>>() <= 80);
    }

    /// A host completion is a function pointer and a tag, the plain form
    /// fitting in the tagged form's niche: two words, as the boxed
    /// closure it replaced was.
    #[test]
    fn host_completion_is_two_words() {
        let word = std::mem::size_of::<usize>();
        assert_eq!(std::mem::size_of::<HostDone<(), (), WriteAck>>(), 2 * word);
        assert_eq!(
            std::mem::size_of::<HostDone<(), (), Option<BlockBuf>>>(),
            2 * word
        );
    }
}
