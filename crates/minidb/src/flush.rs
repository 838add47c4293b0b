//! The log flusher: one per database, the only way a commit or a read
//! result leaves it.
//!
//! [`MiniDb::stage`](crate::MiniDb::stage) applies a commit in memory and
//! returns its LSN; [`MiniDb::flush`](crate::MiniDb::flush) returns one
//! [`IoPlan`] for everything staged since the last flush. Those plans are
//! only correct if they reach the volumes *one at a time, in order*: every
//! plan re-images the log's tail block, so of two plans in flight together
//! the older image may land last and cut the log short, and a checkpoint's
//! `[pages][superblock]` phases must be durable before the new epoch's
//! first log block is written. [`LogFlusher`] is that discipline and
//! nothing else — pure bookkeeping, no clock, no I/O:
//!
//! - **at most one plan in flight**, its phases issued one after the other,
//!   the next only when every write of the current one was acknowledged —
//!   so a checkpoint is a barrier by construction;
//! - **waiters** `(lsn, W)` in one FIFO, released in LSN order when the
//!   flush that covers them is acknowledged — a commit waits on its own
//!   LSN, a read on the last LSN its answer reflects;
//! - **a failed write kills the log**: every waiter, staged or in flight,
//!   is failed and no later plan may start, since the log on the volume may
//!   now have a hole;
//! - **a generation**, bumped by [`LogFlusher::restart`]: acknowledgements
//!   carrying an older one belong to a previous life of the database and
//!   are dropped.
//!
//! The driver owns the loop: enqueue a waiter, start a flush when
//! [`LogFlusher::idle`], feed every write acknowledgement to
//! [`LogFlusher::write_done`], pop what [`LogFlusher::pop_released`]
//! hands back.

use std::collections::VecDeque;

use crate::io::{IoPlan, IoRequest};

/// The plan in flight.
#[derive(Debug)]
struct InFlight {
    /// Every commit up to this LSN is durable once the plan is written.
    upto: u64,
    /// Writes of the current phase not acknowledged yet.
    outstanding: usize,
    /// Whether every write so far succeeded.
    ok: bool,
}

/// What one write acknowledgement meant for the plan in flight.
#[derive(Debug)]
pub enum Progress {
    /// The acknowledgement belongs to an earlier life of the database
    /// (older generation): ignore it.
    Stale,
    /// The current phase has writes outstanding.
    Pending,
    /// The phase is complete: issue these writes next.
    Phase(Vec<IoRequest>),
    /// The plan is complete (`true`) or failed (`false`); waiters are
    /// ready to be popped and, if it succeeded, the next flush may start.
    Done(bool),
}

/// Group-commit bookkeeping for one database; see the module docs of
/// `minidb/src/flush.rs`.
#[derive(Debug)]
pub struct LogFlusher<W> {
    generation: u64,
    durable_lsn: u64,
    failed: bool,
    in_flight: Option<InFlight>,
    // The phases of the plan in flight not issued yet; kept, emptied,
    // from one plan to the next.
    rest: VecDeque<Vec<IoRequest>>,
    waiters: VecDeque<(u64, W)>,
}

impl<W> LogFlusher<W> {
    /// A flusher for a database whose commits up to `durable_lsn` are on
    /// its volumes ([`MiniDb::last_lsn`](crate::MiniDb::last_lsn) right
    /// after `create` or `recover`).
    pub fn new(durable_lsn: u64) -> Self {
        LogFlusher {
            generation: 0,
            durable_lsn,
            failed: false,
            in_flight: None,
            rest: VecDeque::new(),
            waiters: VecDeque::new(),
        }
    }

    /// Start a new life after the database was recovered from its volumes:
    /// waiters of the previous life are dropped unanswered (their outcome
    /// is indeterminate) and its acknowledgements, should any still
    /// arrive, no longer match the generation.
    pub fn restart(&mut self, durable_lsn: u64) {
        self.generation += 1;
        self.durable_lsn = durable_lsn;
        self.failed = false;
        self.in_flight = None;
        self.rest.clear();
        self.waiters.clear();
    }

    /// Every commit up to this LSN has been acknowledged by the volumes.
    pub fn durable_lsn(&self) -> u64 {
        self.durable_lsn
    }

    /// A plan is in flight. (With [`LogFlusher::waiting`], for assertions
    /// and tests; the driver's loop asks only [`LogFlusher::idle`].)
    pub fn in_flight(&self) -> bool {
        self.in_flight.is_some()
    }

    /// Waiters not released yet.
    pub fn waiting(&self) -> usize {
        self.waiters.len()
    }

    /// A flush may start: nothing is in flight and the log is alive.
    pub fn idle(&self) -> bool {
        self.in_flight.is_none() && !self.failed
    }

    /// Queue `waiter` until every commit up to `lsn` is durable. LSNs must
    /// not decrease from one call to the next (commits stage in LSN order,
    /// a read waits on the last LSN staged), which is what makes the FIFO
    /// release order LSN order. A waiter with nothing to wait for is handed
    /// back by the next [`LogFlusher::pop_released`].
    pub fn enqueue(&mut self, lsn: u64, waiter: W) {
        debug_assert!(
            self.waiters.back().map_or(true, |(last, _)| *last <= lsn),
            "waiters must arrive in LSN order"
        );
        self.waiters.push_back((lsn, waiter));
    }

    /// Put `plan` — a [`MiniDb::flush`](crate::MiniDb::flush) covering every
    /// commit up to `upto` — in flight and return the generation to stamp
    /// on its writes together with its first phase. The phases are taken
    /// out of `plan`; its emptied phase list stays with the caller, for
    /// [`MiniDb::recycle_plan`](crate::MiniDb::recycle_plan).
    ///
    /// # Panics
    /// Panics if the flusher is not [`idle`](LogFlusher::idle) or the plan
    /// is empty: two plans of one database must never be in flight
    /// together.
    pub fn begin_flush(&mut self, upto: u64, plan: &mut IoPlan) -> (u64, Vec<IoRequest>) {
        assert!(self.idle(), "one flush in flight per database");
        let mut phases = plan.phases.drain(..);
        let first = phases.next().expect("invariant: a flush plan has a phase");
        self.rest.extend(phases);
        self.in_flight = Some(InFlight {
            upto,
            outstanding: first.len(),
            ok: true,
        });
        (self.generation, first)
    }

    /// Account one write acknowledgement of the plan started under
    /// `generation`. A failed write fails the plan once the phase it
    /// belongs to has drained; no later phase is issued.
    pub fn write_done(&mut self, generation: u64, ok: bool) -> Progress {
        if generation != self.generation {
            return Progress::Stale;
        }
        let Some(plan) = self.in_flight.as_mut() else {
            return Progress::Stale;
        };
        plan.ok &= ok;
        plan.outstanding -= 1;
        if plan.outstanding > 0 {
            return Progress::Pending;
        }
        if plan.ok {
            if let Some(next) = self.rest.pop_front() {
                plan.outstanding = next.len();
                return Progress::Phase(next);
            }
            self.durable_lsn = self.durable_lsn.max(plan.upto);
        } else {
            self.rest.clear();
            self.failed = true;
        }
        let ok = plan.ok;
        self.in_flight = None;
        Progress::Done(ok)
    }

    /// The next waiter to answer, oldest first, with its verdict: `true`
    /// when everything it waits for is durable, `false` when the log died
    /// first. `None` when the head of the queue is still waiting.
    pub fn pop_released(&mut self) -> Option<(W, bool)> {
        let (lsn, _) = self.waiters.front()?;
        let ok = *lsn <= self.durable_lsn;
        if !ok && !self.failed {
            return None;
        }
        self.waiters.pop_front().map(|(_, w)| (w, ok))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::io::DbVol;
    use tsuru_storage::block_from;

    fn io(lba: u64) -> IoRequest {
        IoRequest {
            vol: DbVol::Wal,
            lba,
            data: block_from(b"x"),
        }
    }

    fn plan(phases: &[usize]) -> IoPlan {
        let mut p = IoPlan::empty();
        for &n in phases {
            p.push_phase((0..n as u64).map(io).collect());
        }
        p
    }

    fn released(f: &mut LogFlusher<u32>) -> Vec<(u32, bool)> {
        std::iter::from_fn(|| f.pop_released()).collect()
    }

    #[test]
    fn waiters_release_in_lsn_order_when_their_flush_is_acknowledged() {
        let mut f = LogFlusher::new(0);
        f.enqueue(1, 10);
        f.enqueue(2, 20);
        let (gen, first) = f.begin_flush(2, &mut plan(&[1]));
        assert_eq!(first.len(), 1);
        f.enqueue(2, 21); // a read of the state commit 2 produced
        f.enqueue(3, 30); // staged while the flush is in flight
        assert!(released(&mut f).is_empty());
        assert!(matches!(f.write_done(gen, true), Progress::Done(true)));
        assert_eq!(released(&mut f), [(10, true), (20, true), (21, true)]);
        assert_eq!((f.durable_lsn(), f.waiting(), f.idle()), (2, 1, true));
    }

    #[test]
    fn phases_are_barriers() {
        let mut f = LogFlusher::<u32>::new(0);
        let (gen, first) = f.begin_flush(1, &mut plan(&[2, 1, 1]));
        assert_eq!(first.len(), 2);
        assert!(matches!(f.write_done(gen, true), Progress::Pending));
        assert!(matches!(f.write_done(gen, true), Progress::Phase(p) if p.len() == 1));
        assert!(matches!(f.write_done(gen, true), Progress::Phase(p) if p.len() == 1));
        assert!(f.in_flight());
        assert!(matches!(f.write_done(gen, true), Progress::Done(true)));
        assert_eq!(f.durable_lsn(), 1);
    }

    #[test]
    fn a_failed_write_fails_every_waiter_and_kills_the_log() {
        let mut f = LogFlusher::new(4);
        f.enqueue(5, 50);
        let (gen, _) = f.begin_flush(5, &mut plan(&[2, 1]));
        f.enqueue(6, 60);
        // The phase drains before the plan fails; its second phase is
        // never issued.
        assert!(matches!(f.write_done(gen, false), Progress::Pending));
        assert!(matches!(f.write_done(gen, true), Progress::Done(false)));
        assert_eq!(released(&mut f), [(50, false), (60, false)]);
        assert!(f.failed && !f.idle());
        assert_eq!(f.durable_lsn(), 4);
        // What was durable before the failure still is; nothing else ever
        // will be.
        f.enqueue(4, 40);
        f.enqueue(7, 70);
        assert_eq!(released(&mut f), [(40, true), (70, false)]);
    }

    #[test]
    fn acknowledgements_of_an_earlier_life_are_dropped() {
        let mut f = LogFlusher::new(0);
        f.enqueue(1, 10);
        let (old, _) = f.begin_flush(1, &mut plan(&[1]));
        f.restart(0);
        assert_eq!((f.waiting(), f.idle()), (0, true));
        f.enqueue(1, 11);
        let (gen, _) = f.begin_flush(1, &mut plan(&[1]));
        assert_ne!(old, gen);
        assert!(matches!(f.write_done(old, true), Progress::Stale));
        assert!(
            released(&mut f).is_empty(),
            "a stale ack must not release the new life's commit"
        );
        assert!(matches!(f.write_done(gen, true), Progress::Done(true)));
        assert_eq!(released(&mut f), [(11, true)]);
        // ...nor once nothing is in flight.
        assert!(matches!(f.write_done(old, false), Progress::Stale));
        assert!(f.idle());
    }

    #[test]
    #[should_panic(expected = "one flush in flight")]
    fn a_second_plan_in_flight_is_refused() {
        let mut f = LogFlusher::<u32>::new(0);
        let _ = f.begin_flush(1, &mut plan(&[1]));
        let _ = f.begin_flush(2, &mut plan(&[1]));
    }
}
