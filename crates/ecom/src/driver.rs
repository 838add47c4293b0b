//! The discrete-event transaction driver.
//!
//! Runs the paper's business process on the simulated storage: closed-loop
//! clients issue order transactions, each of which commits to the *stock*
//! database first and the *sales* database second (app-level ordering).
//! A commit is *staged* in its database and then waits, with every other
//! client's, on that database's one log flusher (DESIGN.md §20): one
//! [`IoPlan`](tsuru_minidb::IoPlan) at a time is pushed through the array
//! with real timing and phase barriers, and everything it covers is
//! acknowledged when its last write is — a database with one serial log
//! writer, as the paper's Oracle instances have. So the transaction
//! latency a client sees is the storage acknowledgement latency of the
//! flush that carries it, plus the wait for the flush before — the
//! quantity ADC is supposed to keep flat and SDC inflates (claims C1/C2).
//! Primary reads are answered the same way, once the state they observed
//! is durable.

use tsuru_history::{space, KeyVer, OpData, OpId, TxnOps};
use tsuru_minidb::{IoRequest, Progress};
use tsuru_sim::{Sim, SimDuration, SimTime};
use tsuru_storage::{engine::host_write, metric_names, HasStorage, WriteAck};

use crate::app::HasEcom;
use crate::event::{EcomEvents, EcomOp};
use crate::model::{OrderRow, StockRow, ORDERS_TABLE, STOCK_TABLE};
use crate::workload::OrderSpec;

/// Which database a flush or a waiter belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Which {
    /// The sales (orders) database.
    Sales,
    /// The stock (inventory) database.
    Stock,
}

/// A client operation parked on a database's log flusher until the log
/// position it depends on is durable.
#[derive(Debug)]
pub struct Waiter {
    /// The client to resume.
    pub(crate) client: u32,
    /// Its open history op.
    pub(crate) op: OpId,
    /// When it joined the queue.
    pub(crate) since: SimTime,
    /// What it does next.
    pub(crate) then: Then,
}

/// What a [`Waiter`] resumes into: one variant per commit site and per
/// primary read, carrying what the continuation needs.
#[derive(Debug)]
pub(crate) enum Then {
    /// Order: the stock decrement is durable, record the order row.
    OrderStock {
        spec: OrderSpec,
        started: SimTime,
        txn: TxnOps,
    },
    /// Order: the order row is durable, the order is committed.
    OrderSales {
        spec: OrderSpec,
        started: SimTime,
        txn: TxnOps,
    },
    /// Bank or append-list: a commit is durable (`committed`), or
    /// everything a read observed is; answer the op with this.
    Answer {
        workload: Workload,
        answer: OpData,
        committed: bool,
    },
}

/// The two single-database workloads whose ops end in [`Then::Answer`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Workload {
    /// Bank transfers and balance reads ([`crate::bank`]).
    Bank,
    /// List appends and list reads ([`crate::append`]).
    AppendList,
}

impl Waiter {
    /// The log position is durable: carry on. (When the log died instead,
    /// [`write_acked`] has stopped the application and the op stays
    /// pending — its outcome is indeterminate.)
    fn resume<S, E>(self, state: &mut S, sim: &mut Sim<S, E>)
    where
        S: HasStorage + HasEcom + 'static,
        E: EcomEvents<S>,
    {
        let Waiter {
            client,
            op,
            since,
            then,
        } = self;
        let now = sim.now();
        let read = matches!(
            then,
            Then::Answer {
                committed: false,
                ..
            }
        );
        if !read {
            state
                .storage_mut()
                .metrics
                .record(metric_names::DB_FLUSH_WAIT, (now - since).as_nanos());
        }
        match then {
            Then::OrderStock { spec, started, txn } => {
                order_sales(state, sim, client, op, spec, started, txn)
            }
            Then::OrderSales { spec, started, txn } => {
                state
                    .storage()
                    .history
                    .ok(client, op, now, OpData::Txn(txn));
                let e = state.ecom_mut();
                e.metrics.txn_latency.record_duration(now - started);
                e.metrics.committed_orders += 1;
                e.metrics.committed_log.push((spec.order_id, now));
                let think = e.gen.think_time();
                sim.schedule_event_in(think, E::ecom(EcomOp::ClientThink { client }));
            }
            Then::Answer {
                workload,
                answer,
                committed,
            } => {
                state.storage().history.ok(client, op, now, answer);
                let e = state.ecom_mut();
                let next = match workload {
                    Workload::Bank => {
                        e.bank
                            .as_mut()
                            .expect("invariant: bank events are only scheduled once BankState is installed")
                            .committed += u64::from(committed);
                        EcomOp::BankThink { client }
                    }
                    Workload::AppendList => {
                        e.append
                            .as_mut()
                            .expect("invariant: append events are only scheduled once AppendState is installed")
                            .committed += u64::from(committed);
                        EcomOp::AppendThink { client }
                    }
                };
                let think = e.gen.think_time();
                sim.schedule_event_in(think, E::ecom(next));
            }
        }
    }
}

/// Park `waiter` on `which` database's flusher until every commit up to
/// `lsn` is durable — `lsn` is what [`MiniDb::stage`](tsuru_minidb::MiniDb::stage)
/// returned for a commit, the database's last LSN for a read — and start a
/// flush if none is in flight. A waiter with nothing to wait for (an empty
/// transaction, a read of durable state) resumes before this returns,
/// without touching the queue.
pub(crate) fn await_durable<S, E>(
    state: &mut S,
    sim: &mut Sim<S, E>,
    which: Which,
    lsn: Option<u64>,
    waiter: Waiter,
) where
    S: HasStorage + HasEcom + 'static,
    E: EcomEvents<S>,
{
    // Nothing logged, nothing to wait for: LSN 0 is always durable.
    let lsn = lsn.unwrap_or(0);
    let flusher = &mut state.ecom_mut().instance_mut(which).flusher;
    if lsn <= flusher.durable_lsn() {
        // Not behind the queue: it depends on nothing the queue waits for.
        return waiter.resume(state, sim);
    }
    flusher.enqueue(lsn, waiter);
    pump(state, sim, which);
}

/// Start the next flush if the flusher is idle and anything is staged, then
/// resume every waiter it has released, in LSN order.
fn pump<S, E>(state: &mut S, sim: &mut Sim<S, E>, which: Which)
where
    S: HasStorage + HasEcom + 'static,
    E: EcomEvents<S>,
{
    let inst = state.ecom_mut().instance_mut(which);
    if inst.flusher.idle() {
        let plan = inst.db.flush();
        if plan.is_empty() {
            // Idle with nothing staged: the volumes hold the whole log. A
            // commit written behind the flusher's back (`db.commit` on an
            // instance in service) would leave its waiters parked forever.
            assert_eq!(
                inst.flusher.durable_lsn(),
                inst.db.last_lsn(),
                "every commit of a database in service goes through its flusher"
            );
        } else {
            let (generation, phase) = inst.flusher.begin_flush(inst.db.last_lsn(), plan);
            issue(state, sim, which, generation, phase);
        }
    }
    while let Some((waiter, ok)) = state.ecom_mut().instance_mut(which).flusher.pop_released() {
        if ok {
            waiter.resume(state, sim);
        }
    }
}

/// Issue one phase of the plan in flight: its writes go to the array
/// concurrently; [`write_acked`] starts the next phase only after every
/// one of them was acknowledged.
fn issue<S, E>(
    state: &mut S,
    sim: &mut Sim<S, E>,
    which: Which,
    generation: u64,
    phase: Vec<IoRequest>,
) where
    S: HasStorage + HasEcom + 'static,
    E: EcomEvents<S>,
{
    for io in phase {
        let vol = state.ecom().instance(which).volref(io.vol);
        host_write(state, sim, vol, io.lba, io.data, move |s, sim, ack| {
            write_acked(s, sim, which, generation, ack)
        });
    }
}

fn write_acked<S, E>(
    state: &mut S,
    sim: &mut Sim<S, E>,
    which: Which,
    generation: u64,
    ack: WriteAck,
) where
    S: HasStorage + HasEcom + 'static,
    E: EcomEvents<S>,
{
    let e = state.ecom_mut();
    let ok = match ack {
        WriteAck::Failed(_) => {
            e.metrics.failed_writes += 1;
            false
        }
        WriteAck::Degraded { .. } => {
            e.metrics.degraded_acks += 1;
            true
        }
        WriteAck::Ok { .. } => true,
    };
    match e.instance_mut(which).flusher.write_done(generation, ok) {
        Progress::Stale | Progress::Pending => {}
        Progress::Phase(next) => issue(state, sim, which, generation, next),
        Progress::Done(ok) => {
            if !ok {
                // Site disaster: the clients park.
                e.stopped = true;
            }
            pump(state, sim, which);
        }
    }
}

/// Start the closed-loop clients; each runs until the app is stopped or the
/// order cap is reached. Clients are staggered by a few microseconds so
/// their first transactions do not collide artificially.
pub fn start_clients<S, E>(state: &mut S, sim: &mut Sim<S, E>)
where
    S: HasStorage + HasEcom + 'static,
    E: EcomEvents<S>,
{
    let n = state.ecom().gen.config.clients as u32;
    for client in 0..n {
        sim.schedule_event_in(
            SimDuration::from_micros(client as u64 * 13),
            E::ecom(EcomOp::ClientThink { client }),
        );
    }
}

/// Start whichever closed-loop workload is installed on the state:
/// bank-transfer or append-list when present, the order workload
/// otherwise. Fault injectors use this to restart clients after a main
/// site recovery without knowing which workload a trial runs.
pub fn start_workload_clients<S, E>(state: &mut S, sim: &mut Sim<S, E>)
where
    S: HasStorage + HasEcom + 'static,
    E: EcomEvents<S>,
{
    if state.ecom().bank.is_some() {
        crate::bank::start_bank_clients(state, sim);
    } else if state.ecom().append.is_some() {
        crate::append::start_append_clients(state, sim);
    } else {
        start_clients(state, sim);
    }
}

/// Execute one order transaction for `client`, then reschedule.
pub fn client_txn<S, E>(state: &mut S, sim: &mut Sim<S, E>, client: u32)
where
    S: HasStorage + HasEcom + 'static,
    E: EcomEvents<S>,
{
    {
        let e = state.ecom();
        if e.stopped {
            return;
        }
        if let Some(cap) = e.stop_after_orders {
            if e.gen.orders_generated() >= cap {
                return;
            }
        }
    }
    let started = sim.now();
    let spec = state.ecom_mut().gen.next_order(client);

    // History: record the client's intent; the op stays *pending* (its
    // outcome indeterminate) until the final storage ack. Versions are
    // taken at the synchronous in-memory commit points, so the recorded
    // chains follow the databases' serialization order.
    let hist = state.storage().history.clone();
    let op = hist.invoke(
        client,
        started,
        OpData::Order {
            order_id: spec.order_id,
            item: spec.item,
            quantity: spec.quantity,
        },
    );
    let mut txn = TxnOps::default();

    // Phase 1: decrement inventory in the stock database.
    if hist.is_enabled() {
        txn.reads.push(KeyVer {
            space: space::STOCK,
            key: spec.item,
            version: hist.read_version(space::STOCK, spec.item),
        });
    }
    let lsn = {
        let e = state.ecom_mut();
        let tx = e.stock.db.begin();
        let held = e.stock.db.get(tx, STOCK_TABLE, spec.item);
        let row = held
            .and_then(StockRow::decode)
            .expect("invariant: order specs draw items from the seeded catalog");
        let updated = StockRow {
            quantity: row.quantity.saturating_sub(spec.quantity as u64),
        };
        e.stock
            .db
            .put(tx, STOCK_TABLE, spec.item, &updated.encode());
        e.stock.db.stage(tx)
    };
    if hist.is_enabled() {
        txn.writes.push(KeyVer {
            space: space::STOCK,
            key: spec.item,
            version: hist.install_version(space::STOCK, spec.item),
        });
    }
    let waiter = Waiter {
        client,
        op,
        since: started,
        then: Then::OrderStock { spec, started, txn },
    };
    await_durable(state, sim, Which::Stock, lsn, waiter);
}

/// Phase 2 of an order, once its stock decrement is durable: record the
/// order in the sales database. The app-level ordering (stock before
/// sales) is what makes "order present but stock not decremented"
/// impossible in any write-order-faithful backup — and exactly what a
/// collapsed backup violates.
fn order_sales<S, E>(
    state: &mut S,
    sim: &mut Sim<S, E>,
    client: u32,
    op: OpId,
    spec: OrderSpec,
    started: SimTime,
    mut txn: TxnOps,
) where
    S: HasStorage + HasEcom + 'static,
    E: EcomEvents<S>,
{
    let lsn = {
        let e = state.ecom_mut();
        let tx = e.sales.db.begin();
        let row = OrderRow {
            item: spec.item,
            quantity: spec.quantity,
            client: spec.client,
        };
        e.sales
            .db
            .put(tx, ORDERS_TABLE, spec.order_id, &row.encode());
        e.sales.db.stage(tx)
    };
    let hist = &state.storage().history;
    if hist.is_enabled() {
        txn.writes.push(KeyVer {
            space: space::ORDERS,
            key: spec.order_id,
            version: hist.install_version(space::ORDERS, spec.order_id),
        });
    }
    let waiter = Waiter {
        client,
        op,
        since: sim.now(),
        then: Then::OrderSales { spec, started, txn },
    };
    await_durable(state, sim, Which::Sales, lsn, waiter);
}

/// Re-export for tests and higher layers needing to inspect specs.
pub type Order = OrderSpec;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::app::EcomState;
    use crate::workload::WorkloadConfig;
    use tsuru_minidb::{DbConfig, MiniDb, Superblock};
    use tsuru_sim::DetRng;
    use tsuru_storage::{
        ArrayId, ArrayPerf, BlockDevice, EngineConfig, StorageWorld, VolumeView,
    };

    struct World {
        st: StorageWorld,
        ecom: EcomState,
    }

    impl HasStorage for World {
        fn storage(&self) -> &StorageWorld {
            &self.st
        }
        fn storage_mut(&mut self) -> &mut StorageWorld {
            &mut self.st
        }
    }

    impl HasEcom for World {
        fn ecom(&self) -> &EcomState {
            &self.ecom
        }
        fn ecom_mut(&mut self) -> &mut EcomState {
            &mut self.ecom
        }
    }

    /// A two-block WAL: ~120 stock commits to the next in-load checkpoint.
    const DB: DbConfig = DbConfig {
        data_blocks: 256,
        wal_blocks: 2,
        checkpoint_threshold: 0.8,
    };

    /// One array, no replication, eight fast clients.
    fn world() -> (World, Sim<World>, ArrayId) {
        let mut st = StorageWorld::new(11, EngineConfig::default());
        let main = st.add_array("main", ArrayPerf::default());
        let vols = [("sw", 2), ("sd", 256), ("tw", 2), ("td", 256)]
            .map(|(name, blocks)| st.create_volume(main, name, blocks));
        let wl = WorkloadConfig {
            think_time_mean: SimDuration::from_micros(300),
            items: 20,
            ..WorkloadConfig::default()
        };
        let ecom = EcomState::install(&mut st, vols, DB, wl, DetRng::new(11).derive(1));
        (World { st, ecom }, Sim::new(), main)
    }

    fn stock_epoch_on_volume(w: &World) -> u32 {
        let vol = w.ecom.stock.data_vol;
        let block = VolumeView::new(w.st.array(vol.array), vol.volume)
            .read_block(0)
            .expect("formatted");
        Superblock::deserialize(&block)
            .expect("valid superblock")
            .epoch
    }

    fn waiter(client: u32, then: Then) -> Waiter {
        Waiter {
            client,
            op: OpId::NONE,
            since: SimTime::ZERO,
            then,
        }
    }

    /// The array dies between the superblock phase and the WAL phase of a
    /// checkpointing flush: every waiter — those the plan in flight covers
    /// and those staged behind it — is failed, none is acknowledged, and
    /// the log takes no further flush.
    #[test]
    fn a_flush_failing_mid_plan_fails_every_waiter_and_acknowledges_none() {
        let (mut w, mut sim, main) = world();
        let epoch = stock_epoch_on_volume(&w);
        start_clients(&mut w, &mut sim);
        // To the event in which the in-load checkpoint's superblock lands:
        // its acknowledgement has just issued the new epoch's first block.
        while stock_epoch_on_volume(&w) == epoch {
            assert!(sim.step(&mut w), "the workload must reach a checkpoint");
        }
        let stock = &w.ecom.stock;
        assert!(stock.flusher.in_flight() && stock.flusher.waiting() >= 2);
        let durable = stock.flusher.durable_lsn();
        assert!(
            stock.db.last_lsn() > durable + 1,
            "commits are staged behind the plan in flight"
        );
        let committed = w.ecom.metrics.committed_orders;
        assert!(committed > 0);

        w.st.fail_array(main, sim.now());
        sim.run(&mut w);

        assert!(w.ecom.stopped && w.ecom.metrics.failed_writes > 0);
        assert_eq!(
            w.ecom.metrics.committed_orders, committed,
            "nothing acknowledged"
        );
        let stock = &w.ecom.stock.flusher;
        assert!(
            !stock.idle() && !stock.in_flight(),
            "the log takes no further flush"
        );
        assert_eq!(stock.durable_lsn(), durable);
        assert_eq!(stock.waiting(), 0, "every waiter was answered");
        assert_eq!(w.ecom.sales.flusher.waiting(), 0);
        // What was acknowledged is on the volumes (the checkpoint is, too:
        // durable but never acknowledged, which is allowed).
        let arr = w.st.array(main);
        let recover = |inst: &crate::DbInstance| {
            MiniDb::recover(
                "r",
                &VolumeView::new(arr, inst.wal_vol.volume),
                &VolumeView::new(arr, inst.data_vol.volume),
                DB,
            )
            .expect("the main volumes recover")
            .0
        };
        assert!(recover(&w.ecom.stock).last_lsn() >= durable);
        let sales = recover(&w.ecom.sales);
        for (order, _) in &w.ecom.metrics.committed_log {
            assert!(
                sales.get_committed(ORDERS_TABLE, *order).is_some(),
                "order {order}"
            );
        }
    }

    fn balances(total: u64) -> Then {
        Then::Answer {
            workload: Workload::Bank,
            answer: OpData::Balances {
                accounts: 20,
                total,
            },
            committed: false,
        }
    }

    /// Nothing to wait for, nothing waited for: an empty transaction and a
    /// read of durable state resume in the calling event, start no flush
    /// and leave the queue empty.
    #[test]
    fn an_empty_transaction_and_a_read_of_durable_state_return_in_the_calling_event() {
        let (mut w, mut sim, _) = world();
        w.ecom.bank = Some(crate::BankState::new(DetRng::new(3)));
        let tx = w.ecom.stock.db.begin();
        let lsn = w.ecom.stock.db.stage(tx);
        assert_eq!(lsn, None);
        await_durable(&mut w, &mut sim, Which::Stock, lsn, waiter(0, balances(0)));
        let durable = w.ecom.stock.db.last_lsn();
        await_durable(
            &mut w,
            &mut sim,
            Which::Stock,
            Some(durable),
            waiter(1, balances(1)),
        );
        let f = &w.ecom.stock.flusher;
        assert_eq!((f.waiting(), f.in_flight()), (0, false));
        // Both resumed: each client's next think is scheduled, nothing else.
        assert_eq!(sim.pending(), 2);
        assert_eq!(w.st.ack_log.len(), 0, "no write was issued");
    }

    /// The same with commits queued and a flush in flight: the empty
    /// transaction depends on none of them and does not queue behind them.
    #[test]
    fn an_empty_transaction_does_not_wait_behind_a_flush_in_flight() {
        let (mut w, mut sim, _) = world();
        w.ecom.bank = Some(crate::BankState::new(DetRng::new(3)));
        start_clients(&mut w, &mut sim);
        while !(w.ecom.stock.flusher.in_flight() && w.ecom.stock.flusher.waiting() >= 2) {
            assert!(sim.step(&mut w), "the workload must queue commits");
        }
        let waiting = w.ecom.stock.flusher.waiting();
        let pending = sim.pending();

        let tx = w.ecom.stock.db.begin();
        let lsn = w.ecom.stock.db.stage(tx);
        assert_eq!(lsn, None);
        await_durable(&mut w, &mut sim, Which::Stock, lsn, waiter(99, balances(0)));

        assert_eq!(w.ecom.stock.flusher.waiting(), waiting, "queue untouched");
        assert_eq!(sim.pending(), pending + 1, "client 99 thinks next");
    }
}
