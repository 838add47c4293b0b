//! The timed data plane: host I/O, ADC journal transfer/apply, SDC.
//!
//! Every function here is generic over the simulation state `S:
//! [`HasStorage`]`, so higher layers can embed the
//! [`StorageWorld`](crate::StorageWorld) in a
//! larger world struct, and over the kernel event type `E:
//! [`StorageEvents`]`, so every scheduled hop is a typed
//! [`StorageOp`](crate::event::StorageOp) dispatched by match — zero
//! allocations per event — while closure-kernel worlds (`Sim<World>`)
//! keep working through the boxed escape hatch. The flow for one
//! asynchronously replicated write (the paper's §III-A1):
//!
//! ```text
//! host_write ──service──▶ persist: journal.append + volume write + ACK
//!                                   │ (host already acknowledged)
//!                      transfer pump▼ (batches, link bandwidth+latency)
//!                         backup-site journal ──apply pump──▶ secondary
//!                                   │ volumes, strictly in seq order
//!                     applied-ack ◀─┘ (frees main-site journal space)
//! ```
//!
//! SDC instead holds the host acknowledgement until the backup site has
//! persisted the block and the acknowledgement frame has crossed back —
//! which is exactly why SDC latency carries the WAN round trip (§V).

use std::cell::{Cell, RefCell};
use std::rc::Rc;

use tsuru_sim::{Sim, SimDuration, SimTime};
use tsuru_simnet::{LinkId, TransferOutcome};
use tsuru_telemetry::{names, spans, SpanId};

use crate::array::WriteError;
use crate::block::{BlockBuf, GroupId, PairId, VolRef};
use crate::config::JournalFullPolicy;
use crate::event::{LegCb, ReadCb, StorageEvents, StorageOp, WriteCb};
use crate::fabric::{GroupMode, SuspendReason};
use crate::journal::JournalEntry;
use crate::world::{HasStorage, StorageWorld};

/// Host-visible completion of a write.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WriteAck {
    /// Persisted with full replication protection.
    Ok {
        /// Submit-to-ack latency.
        latency: SimDuration,
        /// Position in the global ack order.
        global: u64,
    },
    /// Persisted locally, but the replication group is suspended — the
    /// backup is not advancing.
    Degraded {
        /// Submit-to-ack latency.
        latency: SimDuration,
        /// Position in the global ack order.
        global: u64,
    },
    /// Rejected.
    Failed(WriteError),
}

impl WriteAck {
    /// True for `Ok` and `Degraded`.
    pub fn is_persisted(&self) -> bool {
        !matches!(self, WriteAck::Failed(_))
    }

    /// The latency, if the write was persisted.
    pub fn latency(&self) -> Option<SimDuration> {
        match self {
            WriteAck::Ok { latency, .. } | WriteAck::Degraded { latency, .. } => Some(*latency),
            WriteAck::Failed(_) => None,
        }
    }

    fn trace_label(&self) -> &'static str {
        match self {
            WriteAck::Ok { .. } => "ok",
            WriteAck::Degraded { .. } => "degraded",
            WriteAck::Failed(_) => "failed",
        }
    }
}

/// Outcome of one synchronous replication leg.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LegDone {
    /// The backup array persisted the block and acknowledged in time.
    Ok,
    /// The leg degraded (suspended group, down link, failed array); the
    /// host write completes as [`WriteAck::Degraded`].
    Degraded,
}

/// Submit a block write from a host. `cb` fires when the array
/// acknowledges (or rejects) the write.
pub fn host_write<S, E, F>(
    state: &mut S,
    sim: &mut Sim<S, E>,
    vol: VolRef,
    lba: u64,
    data: BlockBuf,
    cb: F,
) where
    S: HasStorage + 'static,
    E: StorageEvents<S>,
    F: FnOnce(&mut S, &mut Sim<S, E>, WriteAck) + 'static,
{
    let now = sim.now();
    let st = state.storage_mut();
    // Root of the write's lifecycle trace: every downstream span
    // (journal_append → wan_transfer → backup_apply) parents back here.
    let span = st.tracer.span_start(spans::HOST_WRITE, now, SpanId::NONE, || {
        vec![("vol", vol.to_string().into()), ("lba", lba.into())]
    });
    if let Err(e) = st.check_host_write(vol, lba) {
        st.metrics.inc(names::WRITES_FAILED);
        st.tracer
            .span_end(spans::HOST_WRITE, span, now, || vec![("ack", "failed".into())]);
        sim.schedule_event_in(
            SimDuration::ZERO,
            E::storage(StorageOp::AckNow {
                ack: WriteAck::Failed(e),
                cb: Box::new(cb),
            }),
        );
        return;
    }
    let service = st.array(vol.array).perf().write_service;
    let done = st.array_mut(vol.array).admit(vol.volume, now, service);
    let ticket = st.issue_write_ticket(vol);
    sim.schedule_event_at(
        done,
        E::storage(StorageOp::Persist {
            vol,
            lba,
            data,
            issued: now,
            ticket,
            span,
            cb: Box::new(cb),
        }),
    );
}

/// Submit a block read from a host; `cb` receives the content (`None` for a
/// never-written block, and for a read rejected at admission — failed
/// array, unknown volume, address past the end of the volume — which also
/// counts as `reads.failed`).
pub fn host_read<S, E, F>(state: &mut S, sim: &mut Sim<S, E>, vol: VolRef, lba: u64, cb: F)
where
    S: HasStorage + 'static,
    E: StorageEvents<S>,
    F: FnOnce(&mut S, &mut Sim<S, E>, Option<BlockBuf>) + 'static,
{
    let now = sim.now();
    let st = state.storage_mut();
    if !st.array(vol.array).admits_read(vol.volume, lba) {
        return reject_read(st, sim, Box::new(cb));
    }
    let service = st.array(vol.array).perf().read_service;
    let done = st.array_mut(vol.array).admit(vol.volume, now, service);
    sim.schedule_event_at(
        done,
        E::storage(StorageOp::ReadDone {
            vol,
            lba,
            cb: Box::new(cb),
        }),
    );
}

/// A read refused at admission: counted, and `None` delivered on the next
/// tick.
fn reject_read<S, E>(st: &mut StorageWorld, sim: &mut Sim<S, E>, cb: ReadCb<S, E>)
where
    S: HasStorage + 'static,
    E: StorageEvents<S>,
{
    st.metrics.inc(names::READS_FAILED);
    sim.schedule_event_in(SimDuration::ZERO, E::storage(StorageOp::ReadFail { cb }));
}

/// Submit a block read against a snapshot image; timing is charged to the
/// base volume's station (the snapshot shares the base's spindles). `cb`
/// receives the point-in-time content; admission rejects what
/// [`host_read`] rejects.
pub fn host_read_snapshot<S, E, F>(
    state: &mut S,
    sim: &mut Sim<S, E>,
    array: crate::block::ArrayId,
    snap: crate::block::SnapshotId,
    lba: u64,
    cb: F,
) where
    S: HasStorage + 'static,
    E: StorageEvents<S>,
    F: FnOnce(&mut S, &mut Sim<S, E>, Option<BlockBuf>) + 'static,
{
    let now = sim.now();
    let st = state.storage_mut();
    let base = st.array(array).snapshot(snap).base_volume();
    if !st.array(array).admits_read(base, lba) {
        return reject_read(st, sim, Box::new(cb));
    }
    let service = st.array(array).perf().read_service;
    let done = st.array_mut(array).admit(base, now, service);
    sim.schedule_event_at(
        done,
        E::storage(StorageOp::SnapReadDone {
            array,
            snap,
            lba,
            cb: Box::new(cb),
        }),
    );
}

/// The follow-ups one persisted write hands on per kind of leg: the first
/// inline, the rest — multi-target volumes only — on the heap, so the
/// common single-leg write allocates nothing here. Order is push order.
struct Legs<T> {
    first: Option<T>,
    rest: Vec<T>,
}

impl<T> Legs<T> {
    fn new() -> Self {
        Legs {
            first: None,
            rest: Vec::new(),
        }
    }

    fn push(&mut self, leg: T) {
        if self.first.is_none() {
            self.first = Some(leg);
        } else {
            self.rest.push(leg);
        }
    }

    fn is_empty(&self) -> bool {
        self.first.is_none()
    }

    fn len(&self) -> usize {
        usize::from(self.first.is_some()) + self.rest.len()
    }
}

impl<T> IntoIterator for Legs<T> {
    type Item = T;
    type IntoIter = std::iter::Chain<std::option::IntoIter<T>, std::vec::IntoIter<T>>;

    fn into_iter(self) -> Self::IntoIter {
        self.first.into_iter().chain(self.rest)
    }
}

enum PersistNext {
    Ack(WriteAck),
    Stall(SimDuration, BlockBuf),
    Legs {
        data: BlockBuf,
        adc_kicks: Legs<GroupId>,
        sdc_legs: Legs<(GroupId, PairId)>,
        any_degraded: bool,
    },
}

/// Replication leg `i` of `vol`, read from the fabric at each use:
/// [`persist`] walks the legs by index so that it holds neither a borrow
/// nor a copy of the list while it updates pairs, groups and journals.
fn leg_of(st: &StorageWorld, vol: VolRef, i: usize) -> PairId {
    st.fabric
        .pairs_by_primary(vol)
        .get(i)
        .copied()
        .expect("invariant: legs are neither attached nor detached while a write persists")
}

/// The array's cache-persist step, at the end of the front-end service
/// time. A volume may have several replication legs (multi-target
/// topologies: metro SDC plus WAN ADC); the host acknowledgement waits for
/// every synchronous leg, while asynchronous legs only journal.
#[allow(clippy::too_many_arguments)]
pub(crate) fn persist<S, E>(
    state: &mut S,
    sim: &mut Sim<S, E>,
    vol: VolRef,
    lba: u64,
    data: BlockBuf,
    issued: SimTime,
    ticket: u64,
    span: SpanId,
    cb: WriteCb<S, E>,
) where
    S: HasStorage + 'static,
    E: StorageEvents<S>,
{
    let now = sim.now();
    let hash = data.fingerprint();
    let next = {
        let st = state.storage_mut();
        // Pass 0 — per-volume ordering: apply strictly in issue order. A
        // write stalled by a full journal (Block policy) self-retries on an
        // independent timer, so without this gate a *stale* retry could
        // apply after newer writes to the same block and roll its content
        // back — the auditor catches that as a truncated WAL tail.
        if !st.is_write_turn(vol, ticket) {
            st.metrics.inc(names::WRITE_ORDER_WAITS);
            st.tracer
                .instant(spans::TICKET_WAIT, now, span, || vec![("ticket", ticket.into())]);
            PersistNext::Stall(st.config.journal_stall_retry, data)
        } else if st.array(vol.array).is_failed() {
            st.retire_write_ticket(vol);
            st.metrics.inc(names::WRITES_FAILED);
            PersistNext::Ack(WriteAck::Failed(WriteError::ArrayFailed))
        } else if st.fabric.pairs_by_primary(vol).is_empty() {
            st.retire_write_ticket(vol);
            let global = st.commit_local(now, vol, lba, data, hash);
            PersistNext::Ack(WriteAck::Ok {
                latency: now - issued,
                global,
            })
        } else {
            let legs = st.fabric.pairs_by_primary(vol).len();
            // Pass 1 — admission: under the Block policy, every active
            // ADC leg must have journal space before ANY side effect
            // happens, so a stalled write can retry without
            // double-appending.
            let mut stall = false;
            if st.journal_full_policy() == JournalFullPolicy::Block {
                for i in 0..legs {
                    let gid = st.fabric.pair(leg_of(st, vol, i)).group;
                    let g = st.fabric.group(gid);
                    if g.is_active() && g.mode == GroupMode::Adc {
                        let jid = g.primary_jnl.expect("invariant: active ADC groups always carry a primary journal");
                        if !st.fabric.journal(jid).has_space(data.len()) {
                            stall = true;
                        }
                    }
                }
            }
            if stall {
                st.metrics.inc(names::JOURNAL_STALL_RETRIES);
                st.metrics.inc(names::JOURNAL_OVERFLOW);
                st.tracer.instant(spans::JOURNAL_STALL, now, span, || {
                    vec![("ticket", ticket.into())]
                });
                for i in 0..legs {
                    let gid = st.fabric.pair(leg_of(st, vol, i)).group;
                    st.fabric.group_mut(gid).stats.journal_stalls += 1;
                }
                PersistNext::Stall(st.config.journal_stall_retry, data)
            } else {
                // Pass 2 — persist the primary copy once. The write is
                // past admission, so the volume's turn advances.
                st.retire_write_ticket(vol);
                st.array_mut(vol.array).write_block(vol.volume, lba, data.clone());
                // Pass 3 — drive each leg.
                let mut adc_kicks = Legs::new();
                let mut sdc_legs = Legs::new();
                let mut any_degraded = false;
                for i in 0..legs {
                    let pid = leg_of(st, vol, i);
                    let gid = st.fabric.pair(pid).group;
                    let (mode, active) = {
                        let g = st.fabric.group(gid);
                        (g.mode, g.is_active())
                    };
                    if !active {
                        st.fabric.group_mut(gid).stats.writes_while_suspended += 1;
                        st.fabric.pair_mut(pid).dirty_since_suspend.insert(lba);
                        any_degraded = true;
                        continue;
                    }
                    match mode {
                        GroupMode::Adc => {
                            let jid = {
                                let g = st.fabric.group(gid);
                                g.primary_jnl.expect("invariant: active ADC groups always carry a primary journal")
                            };
                            if st.fabric.journal(jid).has_space(data.len()) {
                                let seq = st
                                    .fabric
                                    .update_primary_journal(gid, |j| {
                                        j.append(pid, lba, data.clone(), hash)
                                    })
                                    .expect("invariant: space was checked immediately above");
                                if st.tracer.is_enabled() {
                                    let jspan = st.tracer.span_complete(
                                        spans::JOURNAL_APPEND,
                                        now,
                                        now,
                                        span,
                                        || {
                                            vec![
                                                ("seq", seq.into()),
                                                ("group", (gid.0 as u64).into()),
                                            ]
                                        },
                                    );
                                    st.fabric.journal_mut(jid).set_last_span(jspan);
                                }
                                st.fabric.update_pair(pid, |p| p.acked_writes += 1);
                                adc_kicks.push(gid);
                            } else {
                                // Suspend policy (Block was handled in
                                // pass 1).
                                st.metrics.inc(names::JOURNAL_OVERFLOW);
                                st.fabric
                                    .group_mut(gid)
                                    .suspend(now, SuspendReason::JournalFull);
                                st.fabric.pair_mut(pid).dirty_since_suspend.insert(lba);
                                any_degraded = true;
                            }
                        }
                        GroupMode::Sdc => sdc_legs.push((gid, pid)),
                    }
                }
                PersistNext::Legs {
                    data,
                    adc_kicks,
                    sdc_legs,
                    any_degraded,
                }
            }
        }
    };
    match next {
        PersistNext::Ack(ack) => {
            let label = ack.trace_label();
            state
                .storage_mut()
                .tracer
                .span_end(spans::HOST_WRITE, span, now, || vec![("ack", label.into())]);
            cb(state, sim, ack)
        }
        PersistNext::Stall(d, data) => {
            // The callback box rides along: a stalled retry costs zero
            // allocations, where the closure kernel re-boxed the whole
            // capture per attempt.
            sim.schedule_event_in(
                d,
                E::storage(StorageOp::Persist {
                    vol,
                    lba,
                    data,
                    issued,
                    ticket,
                    span,
                    cb,
                }),
            );
        }
        PersistNext::Legs {
            data,
            adc_kicks,
            sdc_legs,
            any_degraded,
        } => {
            if sdc_legs.is_empty() {
                // Asynchronous-only protection: acknowledge now.
                let st = state.storage_mut();
                let global = st.ack_log.append(vol, lba, hash, now);
                let ack = if any_degraded {
                    WriteAck::Degraded {
                        latency: now - issued,
                        global,
                    }
                } else {
                    WriteAck::Ok {
                        latency: now - issued,
                        global,
                    }
                };
                let label = ack.trace_label();
                st.tracer.span_end(spans::HOST_WRITE, span, now, || {
                    vec![("ack", label.into()), ("global", global.into())]
                });
                cb(state, sim, ack);
            } else {
                // Synchronous legs hold the host acknowledgement.
                let remaining = Rc::new(Cell::new(sdc_legs.len()));
                let degraded = Rc::new(Cell::new(any_degraded));
                let host_cb: Rc<RefCell<Option<WriteCb<S, E>>>> =
                    Rc::new(RefCell::new(Some(cb)));
                for (gid, pid) in sdc_legs {
                    let remaining = Rc::clone(&remaining);
                    let degraded = Rc::clone(&degraded);
                    let host_cb = Rc::clone(&host_cb);
                    sdc_leg_send(
                        state,
                        sim,
                        gid,
                        pid,
                        vol,
                        lba,
                        data.clone(),
                        Box::new(move |s, sim, done| {
                            if done == LegDone::Degraded {
                                degraded.set(true);
                            }
                            remaining.set(remaining.get() - 1);
                            if remaining.get() == 0 {
                                let st = s.storage_mut();
                                let at = sim.now();
                                let global = st.ack_log.append(vol, lba, hash, at);
                                let ack = if degraded.get() {
                                    WriteAck::Degraded {
                                        latency: at - issued,
                                        global,
                                    }
                                } else {
                                    WriteAck::Ok {
                                        latency: at - issued,
                                        global,
                                    }
                                };
                                let label = ack.trace_label();
                                st.tracer.span_end(spans::HOST_WRITE, span, at, || {
                                    vec![("ack", label.into()), ("global", global.into())]
                                });
                                let cb = host_cb
                                    .borrow_mut()
                                    .take()
                                    .expect("invariant: the host callback fires exactly once");
                                cb(s, sim, ack);
                            }
                        }),
                    );
                }
            }
            for gid in adc_kicks {
                kick_transfer(state, sim, gid, None);
            }
        }
    }
}

/// Send one synchronous leg's frame (retrying on loss); the leg callback
/// fires exactly once when the leg completes or degrades.
#[allow(clippy::too_many_arguments)]
pub(crate) fn sdc_leg_send<S, E>(
    state: &mut S,
    sim: &mut Sim<S, E>,
    gid: GroupId,
    pid: PairId,
    vol: VolRef,
    lba: u64,
    data: BlockBuf,
    leg_cb: LegCb<S, E>,
) where
    S: HasStorage + 'static,
    E: StorageEvents<S>,
{
    let now = sim.now();
    enum R {
        Arrive(SimTime),
        Retry(SimDuration),
        Degraded,
    }
    let r = {
        let st = state.storage_mut();
        if !st.fabric.group(gid).is_active() {
            st.fabric.update_pair(pid, |p| p.acked_writes += 1);
            st.fabric.pair_mut(pid).dirty_since_suspend.insert(lba);
            R::Degraded
        } else {
            let link = st.fabric.group(gid).link;
            let bytes = data.len() as u64 + st.config.frame_overhead;
            match st.offer_link(link, now, bytes) {
                TransferOutcome::DeliveredAt { at, .. } => R::Arrive(at),
                TransferOutcome::Lost => R::Retry(st.config.loss_retry),
                TransferOutcome::Down(_) => {
                    st.fabric
                        .group_mut(gid)
                        .suspend(now, SuspendReason::LinkDown);
                    st.fabric.pair_mut(pid).dirty_since_suspend.insert(lba);
                    st.fabric.update_pair(pid, |p| p.acked_writes += 1);
                    R::Degraded
                }
            }
        }
    };
    match r {
        R::Arrive(at) => {
            sim.schedule_event_at(
                at,
                E::storage(StorageOp::SdcArrive {
                    gid,
                    pid,
                    lba,
                    data,
                    cb: leg_cb,
                }),
            );
        }
        R::Retry(d) => {
            sim.schedule_event_in(
                d,
                E::storage(StorageOp::SdcSend {
                    gid,
                    pid,
                    vol,
                    lba,
                    data,
                    cb: leg_cb,
                }),
            );
        }
        R::Degraded => leg_cb(state, sim, LegDone::Degraded),
    }
}

/// An SDC frame reached the backup array.
pub(crate) fn sdc_leg_arrive<S, E>(
    state: &mut S,
    sim: &mut Sim<S, E>,
    gid: GroupId,
    pid: PairId,
    lba: u64,
    data: BlockBuf,
    leg_cb: LegCb<S, E>,
) where
    S: HasStorage + 'static,
    E: StorageEvents<S>,
{
    let now = sim.now();
    enum A {
        Persist(SimTime),
        Degraded,
    }
    let a = {
        let st = state.storage_mut();
        let sec = st.fabric.pair(pid).secondary;
        if st.array(sec.array).is_failed() {
            st.fabric
                .group_mut(gid)
                .suspend(now, SuspendReason::LinkDown);
            st.fabric.pair_mut(pid).dirty_since_suspend.insert(lba);
            st.fabric.update_pair(pid, |p| p.acked_writes += 1);
            A::Degraded
        } else {
            let service = st.array(sec.array).perf().apply_service;
            let done = st.array_mut(sec.array).admit(sec.volume, now, service);
            A::Persist(done)
        }
    };
    match a {
        A::Persist(done) => {
            sim.schedule_event_at(
                done,
                E::storage(StorageOp::SdcPersisted {
                    gid,
                    pid,
                    lba,
                    data,
                    cb: leg_cb,
                }),
            );
        }
        A::Degraded => leg_cb(state, sim, LegDone::Degraded),
    }
}

/// The backup array persisted an SDC block; acknowledge across the reverse
/// link.
pub(crate) fn sdc_leg_done<S, E>(
    state: &mut S,
    sim: &mut Sim<S, E>,
    gid: GroupId,
    pid: PairId,
    lba: u64,
    data: BlockBuf,
    leg_cb: LegCb<S, E>,
) where
    S: HasStorage + 'static,
    E: StorageEvents<S>,
{
    let now = sim.now();
    enum D {
        AckAt(SimTime),
        Degraded,
    }
    let d = {
        let st = state.storage_mut();
        let sec = st.fabric.pair(pid).secondary;
        let remote = st.array_mut(sec.array);
        remote.write_block(sec.volume, lba, data);
        remote.end_boundary(Some(now));
        st.fabric.update_pair(pid, |p| p.applied_writes += 1);
        let g = st.fabric.group_mut(gid);
        g.stats.entries_applied += 1;
        g.stats.last_applied_at = now;
        let reverse = g.reverse;
        let ack_bytes = st.config.ack_frame_bytes;
        match st.offer_link(reverse, now, ack_bytes) {
            TransferOutcome::DeliveredAt { at, .. } => D::AckAt(at),
            // A lost or undeliverable acknowledgement suspends the pair
            // (the array cannot distinguish the two within the timeout).
            TransferOutcome::Lost | TransferOutcome::Down(_) => {
                st.fabric
                    .group_mut(gid)
                    .suspend(now, SuspendReason::LinkDown);
                D::Degraded
            }
        }
    };
    match d {
        D::AckAt(at) => {
            sim.schedule_event_at(at, E::storage(StorageOp::SdcAck { pid, cb: leg_cb }));
        }
        D::Degraded => {
            state
                .storage_mut()
                .fabric
                .update_pair(pid, |p| p.acked_writes += 1);
            leg_cb(state, sim, LegDone::Degraded);
        }
    }
}

/// Schedule a transfer-pump cycle for an ADC group if one is not already
/// pending. `delay` overrides the jittered pump interval.
pub fn kick_transfer<S, E>(state: &mut S, sim: &mut Sim<S, E>, gid: GroupId, delay: Option<SimDuration>)
where
    S: HasStorage + 'static,
    E: StorageEvents<S>,
{
    let st = state.storage_mut();
    {
        let g = st.fabric.group_mut(gid);
        if g.pump_scheduled || g.mode != GroupMode::Adc || !g.is_active() {
            return;
        }
        g.pump_scheduled = true;
    }
    let gen = st.fabric.group(gid).generation;
    let d = match delay {
        Some(d) => d,
        None => st.pump_delay(gid),
    };
    sim.schedule_event_in(d, E::storage(StorageOp::RunTransfer { gid, gen }));
}

pub(crate) fn run_transfer<S, E>(state: &mut S, sim: &mut Sim<S, E>, gid: GroupId, gen: u32)
where
    S: HasStorage + 'static,
    E: StorageEvents<S>,
{
    let now = sim.now();
    if state.storage().fabric.group(gid).generation != gen {
        return; // stale epoch: a resync/promote superseded this pump
    }
    enum T {
        Idle,
        Sent {
            batch: Vec<JournalEntry>,
            arrive_at: SimTime,
            serialized: SimTime,
        },
        /// Parked on `link`'s wait list; schedule the link's wake at
        /// `wake`, if none was pending.
        Parked { link: LinkId, wake: Option<SimTime> },
        RetryIn(SimDuration),
        RetryAt(SimTime),
    }
    let t = {
        let st = state.storage_mut();
        st.fabric.group_mut(gid).pump_scheduled = false;
        let (active, jid, link, first_pair) = {
            let g = st.fabric.group(gid);
            (g.is_active(), g.primary_jnl, g.link, g.pairs.first().copied())
        };
        let primary_failed = first_pair
            .map(|pid| {
                let arr = st.fabric.pair(pid).primary.array;
                st.array(arr).is_failed()
            })
            .unwrap_or(false);
        if !active || primary_failed {
            T::Idle
        } else {
            let jid = jid.expect("invariant: active ADC groups always carry a primary journal");
            // Flow control: while the sender-side serialization backlog is
            // deep, hold back — bits not yet on the wire die with the site.
            // The pump waits on the link's list for the wake that fires
            // when the backlog has drained (`link_wake`); it does not poll.
            if st.net.link(link).backlog(now) > st.config.max_link_backlog {
                T::Parked { link, wake: st.park_transfer(gid, gen, link, now) }
            } else {
            let (max_e, max_b) = (st.config.batch_max_entries, st.config.batch_max_bytes);
            let batch = st.fabric.journal(jid).peek_unsent(max_e, max_b);
            if batch.is_empty() {
                T::Idle
            } else {
                let payload: u64 = batch
                    .iter()
                    .map(|e| st.fabric.journal(jid).entry_size(e.data.len()))
                    .sum::<u64>()
                    + st.config.frame_overhead;
                match st.offer_link(link, now, payload) {
                    TransferOutcome::DeliveredAt { at, serialized } => {
                        let mut batch = batch;
                        let last = batch.last().expect("invariant: batch checked non-empty above").seq;
                        st.fabric.journal_mut(jid).mark_sent(last);
                        let g = st.fabric.group_mut(gid);
                        g.stats.frames_sent += 1;
                        g.stats.entries_transferred += batch.len() as u64;
                        g.stats.bytes_transferred += payload;
                        if st.tracer.is_enabled() {
                            for e in &mut batch {
                                let seq = e.seq;
                                let w = st.tracer.span_complete(
                                    spans::WAN_TRANSFER,
                                    now,
                                    at,
                                    e.span,
                                    || {
                                        vec![
                                            ("seq", seq.into()),
                                            ("group", (gid.0 as u64).into()),
                                        ]
                                    },
                                );
                                e.span = w;
                            }
                        }
                        st.sample_replication_series(now);
                        T::Sent {
                            batch,
                            arrive_at: at,
                            serialized,
                        }
                    }
                    TransferOutcome::Lost => {
                        st.tracer.instant(spans::PUMP_STALL, now, SpanId::NONE, || {
                            vec![("group", (gid.0 as u64).into()), ("reason", "loss".into())]
                        });
                        T::RetryIn(st.config.loss_retry)
                    }
                    TransferOutcome::Down(Some(up)) => {
                        st.tracer.instant(spans::PUMP_STALL, now, SpanId::NONE, || {
                            vec![("group", (gid.0 as u64).into()), ("reason", "down".into())]
                        });
                        T::RetryAt(up.max(now + SimDuration::from_nanos(1)))
                    }
                    // Indefinite outage: the pump goes idle; a new append or
                    // an explicit kick_all_pumps after healing restarts it.
                    TransferOutcome::Down(None) => {
                        st.tracer.instant(spans::PUMP_STALL, now, SpanId::NONE, || {
                            vec![
                                ("group", (gid.0 as u64).into()),
                                ("reason", "down-parked".into()),
                            ]
                        });
                        T::Idle
                    }
                }
            }
            }
        }
    };
    match t {
        T::Idle => {}
        T::Sent {
            batch,
            arrive_at,
            serialized,
        } => {
            // The batch vector moves into the event — no per-frame copy.
            sim.schedule_event_at(
                arrive_at,
                E::storage(StorageOp::ReceiveBatch {
                    gid,
                    batch,
                    serialized,
                    gen,
                }),
            );
            let d = state.storage_mut().pump_delay(gid);
            kick_transfer(state, sim, gid, Some(d));
        }
        T::Parked { link, wake } => {
            if let Some(at) = wake {
                sim.schedule_event_at(at, E::storage(StorageOp::LinkWake { link }));
            }
        }
        T::RetryIn(d) => {
            state.storage_mut().fabric.group_mut(gid).pump_scheduled = true;
            sim.schedule_event_in(d, E::storage(StorageOp::RunTransfer { gid, gen }));
        }
        T::RetryAt(t) => {
            state.storage_mut().fabric.group_mut(gid).pump_scheduled = true;
            sim.schedule_event_at(t, E::storage(StorageOp::RunTransfer { gid, gen }));
        }
    }
}

/// `link`'s backlog has drained to the flow-control threshold: run the
/// transfer cycle of every pump parked on it, in arrival order, until the
/// backlog is over the threshold again, then re-arm the wake for the rest.
///
/// The wake is a hint, re-validated here: frames that are not
/// flow-controlled (SDC legs, applied-acks) may have deepened the backlog
/// since it was armed, and an entry whose group was resynced or promoted
/// since it parked is stale and dropped.
pub(crate) fn link_wake<S, E>(state: &mut S, sim: &mut Sim<S, E>, link: LinkId)
where
    S: HasStorage + 'static,
    E: StorageEvents<S>,
{
    let now = sim.now();
    state.storage_mut().lane_waits.disarm(link);
    loop {
        let st = state.storage_mut();
        if st.net.link(link).backlog(now) > st.config.max_link_backlog {
            break;
        }
        let Some(w) = st.lane_waits.pop(link) else {
            break;
        };
        if st.fabric.group(w.gid).generation != w.gen {
            continue;
        }
        st.fabric.group_mut(w.gid).pump_parked = false;
        st.tracer.span_complete(spans::LANE_WAIT, w.since, now, w.span, || {
            vec![("group", (w.gid.0 as u64).into()), ("link", (link.0 as u64).into())]
        });
        run_transfer(state, sim, w.gid, w.gen);
    }
    if let Some(at) = state.storage_mut().arm_lane_wake(link, now) {
        sim.schedule_event_at(at, E::storage(StorageOp::LinkWake { link }));
    }
}

/// A batch of journal entries reached the backup-site journal volume.
/// `serialized` is the instant the frame's last bit left the main site: if
/// the main site failed before then, the frame never really made it out and
/// is discarded here.
pub(crate) fn receive_batch<S, E>(
    state: &mut S,
    sim: &mut Sim<S, E>,
    gid: GroupId,
    batch: Vec<JournalEntry>,
    serialized: SimTime,
    gen: u32,
) where
    S: HasStorage + 'static,
    E: StorageEvents<S>,
{
    let now = sim.now();
    {
        let st = state.storage_mut();
        if st.fabric.group(gid).generation != gen {
            let n = batch.len() as u64;
            st.tracer.instant(spans::FRAME_DISCARD, now, SpanId::NONE, || {
                vec![
                    ("group", (gid.0 as u64).into()),
                    ("entries", n.into()),
                    ("reason", "stale-generation".into()),
                ]
            });
            return; // frame from a superseded replication epoch
        }
        let (active, sjid, remote_failed, primary_lost_frame) = {
            let g = st.fabric.group(gid);
            let remote_failed = g
                .pairs
                .first()
                .map(|&pid| {
                    let arr = st.fabric.pair(pid).secondary.array;
                    st.array(arr).is_failed()
                })
                .unwrap_or(false);
            let primary_lost_frame = g
                .pairs
                .first()
                .and_then(|&pid| {
                    let arr = st.fabric.pair(pid).primary.array;
                    st.array(arr).failed_at()
                })
                .is_some_and(|failed_at| failed_at < serialized);
            (
                g.is_active(),
                g.secondary_jnl,
                remote_failed,
                primary_lost_frame,
            )
        };
        if !active || remote_failed || primary_lost_frame {
            let n = batch.len() as u64;
            st.tracer.instant(spans::FRAME_DISCARD, now, SpanId::NONE, || {
                let reason = if primary_lost_frame {
                    "primary-lost-frame"
                } else if remote_failed {
                    "remote-failed"
                } else {
                    "inactive"
                };
                vec![
                    ("group", (gid.0 as u64).into()),
                    ("entries", n.into()),
                    ("reason", reason.into()),
                ]
            });
            return; // in-flight data discarded on promote/suspend/disaster
        }
        let sjid = sjid.expect("invariant: active ADC groups always carry a secondary journal");
        for e in batch {
            st.fabric.journal_mut(sjid).push_arrived(e);
        }
    }
    kick_apply(state, sim, gid);
}

/// Start an apply-pump cycle for an ADC group unless one is in flight:
/// admit the backup journal's front entry to its secondary volume's
/// station and schedule the completion. The cycle starts in the caller's
/// event — an arrival or a completed apply — not in an event of its own.
pub fn kick_apply<S, E>(state: &mut S, sim: &mut Sim<S, E>, gid: GroupId)
where
    S: HasStorage + 'static,
    E: StorageEvents<S>,
{
    let now = sim.now();
    let st = state.storage_mut();
    let (gen, sjid) = {
        let g = st.fabric.group(gid);
        if g.apply_scheduled || g.mode != GroupMode::Adc || !g.is_active() {
            return;
        }
        (g.generation, g.secondary_jnl)
    };
    let sjid = sjid.expect("invariant: active ADC groups always carry a secondary journal");
    let Some(e) = st.fabric.journal(sjid).peek_front() else {
        return;
    };
    let sec = st.fabric.pair(e.pair).secondary;
    let lba = e.lba;
    if st.array(sec.array).is_failed() {
        return;
    }
    let cow = st.array(sec.array).cow_would_save(sec.volume, lba);
    let perf = st.array(sec.array).perf();
    let service = perf.apply_service + perf.cow_penalty.saturating_mul(cow as u64);
    let done = st.array_mut(sec.array).admit(sec.volume, now, service);
    st.fabric.group_mut(gid).apply_scheduled = true;
    sim.schedule_event_at(
        done,
        E::storage(StorageOp::FinishApply {
            gid,
            gen,
            started: now,
        }),
    );
}

pub(crate) fn finish_apply<S, E>(
    state: &mut S,
    sim: &mut Sim<S, E>,
    gid: GroupId,
    gen: u32,
    started: SimTime,
) where
    S: HasStorage + 'static,
    E: StorageEvents<S>,
{
    let now = sim.now();
    if state.storage().fabric.group(gid).generation != gen {
        return;
    }
    let ack = {
        let st = state.storage_mut();
        st.fabric.group_mut(gid).apply_scheduled = false;
        if !st.fabric.group(gid).is_active() {
            None
        } else {
            let sjid = st
                .fabric
                .group(gid)
                .secondary_jnl
                .expect("invariant: active ADC groups always carry a secondary journal");
            let e = st
                .fabric
                .journal_mut(sjid)
                .pop_front()
                .expect("invariant: an apply completion always has a queued journal entry");
            let sec = st.fabric.pair(e.pair).secondary;
            let parent = e.span;
            let backup = st.array_mut(sec.array);
            backup.write_block(sec.volume, e.lba, e.data);
            backup.end_boundary(Some(now));
            st.fabric.update_pair(e.pair, |p| p.applied_writes += 1);
            let drained = st.fabric.journal(sjid).is_empty();
            let seq = e.seq;
            st.tracer.span_complete(spans::BACKUP_APPLY, started, now, parent, || {
                vec![("seq", seq.into()), ("group", (gid.0 as u64).into())]
            });
            st.sample_replication_series(now);
            let (reverse, ack_due) = {
                let g = st.fabric.group_mut(gid);
                g.stats.entries_applied += 1;
                g.stats.last_applied_at = now;
                (
                    g.reverse,
                    seq - g.applied_ack_sent >= st.config.applied_ack_every || drained,
                )
            };
            if ack_due {
                let bytes = st.config.ack_frame_bytes;
                match st.offer_link(reverse, now, bytes) {
                    TransferOutcome::DeliveredAt { at, .. } => {
                        st.fabric.group_mut(gid).applied_ack_sent = seq;
                        Some((seq, at))
                    }
                    // Ack loss is tolerated: the next apply retries.
                    TransferOutcome::Lost | TransferOutcome::Down(_) => None,
                }
            } else {
                None
            }
        }
    };
    if let Some((upto, t)) = ack {
        sim.schedule_event_at(t, E::storage(StorageOp::ReleaseUpto { gid, gen, upto }));
    }
    kick_apply(state, sim, gid);
}

/// The applied-ack frame arrived: free primary-journal entries up to the
/// acknowledged sequence (unless a resync/promote superseded the epoch).
pub(crate) fn release_primary_upto<S: HasStorage>(state: &mut S, gid: GroupId, gen: u32, upto: u64) {
    let st = state.storage_mut();
    if st.fabric.group(gid).generation != gen {
        return;
    }
    if st.fabric.group(gid).primary_jnl.is_some() {
        st.fabric
            .update_primary_journal(gid, |j| j.release_upto(upto));
    }
}

/// Restart every idle pump (after healing links or resuming groups). A
/// pump waiting on a lane's wait list is not idle — it holds its
/// `pump_scheduled` claim and the lane's wake admits it — so the kick
/// passes it by.
pub fn kick_all_pumps<S, E>(state: &mut S, sim: &mut Sim<S, E>)
where
    S: HasStorage + 'static,
    E: StorageEvents<S>,
{
    for gid in state.storage().fabric.group_ids() {
        kick_transfer(state, sim, gid, Some(SimDuration::ZERO));
        kick_apply(state, sim, gid);
    }
}

/// Bring one link back up and restart every parked pump.
///
/// An indefinite outage ([`TransferOutcome::Down`] with no scheduled end)
/// parks the transfer pump of any group whose journal drains over that
/// link; nothing restarts it until a new append arrives. Healing through
/// this function — rather than calling `Link::set_up` directly — is what
/// guarantees a group that went silent during the outage resumes draining.
pub fn heal_link<S, E>(state: &mut S, sim: &mut Sim<S, E>, link: tsuru_simnet::LinkId)
where
    S: HasStorage + 'static,
    E: StorageEvents<S>,
{
    state.storage_mut().net.link_mut(link).set_up();
    kick_all_pumps(state, sim);
}

/// Bring every link back up and restart every parked pump (cluster-wide
/// heal after a full network partition).
pub fn heal_all_links<S, E>(state: &mut S, sim: &mut Sim<S, E>)
where
    S: HasStorage + 'static,
    E: StorageEvents<S>,
{
    state.storage_mut().net.heal_all();
    kick_all_pumps(state, sim);
}
