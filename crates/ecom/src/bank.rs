//! The bank-transfer workload: money moves between accounts, the total
//! never changes.
//!
//! Accounts reuse the stock catalogue — each item row *is* an account,
//! its quantity the balance, seeded by [`crate::EcomState::install`] — so the
//! invariant total is `items × initial_stock`. Closed-loop clients move
//! random amounts between random account pairs in single stock-database
//! transactions (read both balances, write both), and periodically read
//! the whole table as one [`OpData::ReadBalances`] observation. Because
//! every transfer is atomic, *any* write-order-faithful image of the
//! database conserves the total — which is exactly what the history
//! checker verifies across failover and failback.

use tsuru_history::{space, KeyVer, OpData, Site, TxnOps};
use tsuru_minidb::MiniDb;
use tsuru_sim::{DetRng, Sim, SimDuration};
use tsuru_storage::HasStorage;

use crate::app::HasEcom;
use crate::driver::{await_durable, Then, Waiter, Which, Workload};
use crate::event::{EcomEvents, EcomOp};
use crate::model::{StockRow, STOCK_TABLE};

/// Largest single transfer (before clamping to the source balance).
const MAX_AMOUNT: u64 = 10;

/// Mutable state of the bank-transfer workload.
#[derive(Debug)]
pub struct BankState {
    rng: DetRng,
    /// Transfers fully committed (storage-acked).
    pub committed: u64,
    /// Every `read_every`-th client op is a balance read.
    read_every: u64,
    ops_started: u64,
}

impl BankState {
    /// A new workload state; `rng` must come from a dedicated stream of
    /// the trial seed.
    pub fn new(rng: DetRng) -> Self {
        BankState {
            rng,
            committed: 0,
            read_every: 8,
            ops_started: 0,
        }
    }
}

/// Start the closed-loop bank clients (staggered like the order
/// clients). The state's [`crate::EcomState::bank`] must be `Some`.
pub fn start_bank_clients<S, E>(state: &mut S, sim: &mut Sim<S, E>)
where
    S: HasStorage + HasEcom + 'static,
    E: EcomEvents<S>,
{
    assert!(
        state.ecom().bank.is_some(),
        "install BankState before starting bank clients"
    );
    let n = state.ecom().gen.config.clients as u32;
    for client in 0..n {
        sim.schedule_event_in(
            SimDuration::from_micros(client as u64 * 13),
            E::ecom(EcomOp::BankThink { client }),
        );
    }
}

/// Execute one bank operation for `client` (a transfer, or every
/// `read_every`-th op a full balance read), then reschedule.
pub fn bank_txn<S, E>(state: &mut S, sim: &mut Sim<S, E>, client: u32)
where
    S: HasStorage + HasEcom + 'static,
    E: EcomEvents<S>,
{
    if state.ecom().stopped {
        return;
    }
    let now = sim.now();
    let hist = state.storage().history.clone();
    let accounts = state.ecom().gen.config.items as u64;

    let (is_read, from, to, want) = {
        let bank = state
            .ecom_mut()
            .bank
            .as_mut()
            .expect("invariant: bank events are only scheduled once BankState is installed");
        let is_read = bank.ops_started % bank.read_every == bank.read_every - 1;
        bank.ops_started += 1;
        let from = bank.rng.gen_range(accounts);
        let mut to = bank.rng.gen_range(accounts - 1);
        if to >= from {
            to += 1;
        }
        let want = 1 + bank.rng.gen_range(MAX_AMOUNT);
        (is_read, from, to, want)
    };

    if is_read {
        // A read is served from the in-memory state — no storage I/O —
        // but answered only once every transfer it observed is durable
        // (at once when they all are): a client must never be shown a
        // balance that a crash of the main array then un-happens.
        let op = hist.invoke(
            client,
            now,
            OpData::ReadBalances {
                site: Site::Primary,
            },
        );
        let (accounts, total) = balances(&state.ecom().stock.db);
        let lsn = state.ecom().stock.db.last_lsn();
        let waiter = Waiter {
            client,
            op,
            since: now,
            then: Then::Answer {
                workload: Workload::Bank,
                answer: OpData::Balances { accounts, total },
                committed: false,
            },
        };
        await_durable(state, sim, Which::Stock, Some(lsn), waiter);
        return;
    }

    // Transfer: one atomic stock-database transaction over both rows,
    // clamped so balances never go negative.
    let balance = |s: &S, key: u64| -> u64 {
        let row = s.ecom().stock.db.get_committed(STOCK_TABLE, key);
        row.and_then(StockRow::decode).map_or(0, |r| r.quantity)
    };
    let amount = want.min(balance(state, from));
    let op = hist.invoke(client, now, OpData::Transfer { from, to, amount });
    let mut txn = TxnOps::default();
    if hist.is_enabled() {
        let endpoints = [from, to];
        for key in endpoints {
            txn.reads.push(KeyVer {
                space: space::ACCOUNTS,
                key,
                version: hist.read_version(space::ACCOUNTS, key),
            });
        }
    }
    let lsn = {
        let from_balance = balance(state, from);
        let to_balance = balance(state, to);
        let e = state.ecom_mut();
        let tx = e.stock.db.begin();
        e.stock.db.put(
            tx,
            STOCK_TABLE,
            from,
            &StockRow {
                quantity: from_balance - amount,
            }
            .encode(),
        );
        e.stock.db.put(
            tx,
            STOCK_TABLE,
            to,
            &StockRow {
                quantity: to_balance + amount,
            }
            .encode(),
        );
        e.stock.db.stage(tx)
    };
    if hist.is_enabled() {
        let endpoints = [from, to];
        for key in endpoints {
            txn.writes.push(KeyVer {
                space: space::ACCOUNTS,
                key,
                version: hist.install_version(space::ACCOUNTS, key),
            });
        }
    }
    let waiter = Waiter {
        client,
        op,
        since: now,
        then: Then::Answer {
            workload: Workload::Bank,
            answer: OpData::Txn(txn),
            committed: true,
        },
    };
    await_durable(state, sim, Which::Stock, lsn, waiter);
}

/// Count and sum every committed account balance.
pub(crate) fn balances(stock: &MiniDb) -> (u64, u64) {
    let rows = stock.scan_table(STOCK_TABLE);
    let total = rows
        .iter()
        .filter_map(|(_, b)| StockRow::decode(b))
        .map(|r| r.quantity)
        .sum();
    (rows.len() as u64, total)
}
