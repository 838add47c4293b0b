//! The append-list workload: per-key ordered appends racing
//! replication.
//!
//! Each client appends globally unique values to one of a small set of
//! per-key lists held in the sales database ([`crate::LISTS_TABLE`]),
//! one atomic read-modify-write transaction per append, and
//! periodically reads a list back from the committed primary state.
//! Meanwhile the chaos judge scans recovered backup images mid-run —
//! the long analytics read of the paper's use case — so the recorded
//! history interleaves live appends with lagging image reads. The
//! elle-style checker then demands a single append order, prefix views
//! everywhere, and no acked append lost once the journal drains.

use tsuru_history::{space, KeyVer, OpData, Site, TxnOps};
use tsuru_minidb::MiniDb;
use tsuru_sim::{DetRng, Sim, SimDuration};
use tsuru_storage::HasStorage;

use crate::app::HasEcom;
use crate::driver::{await_durable, Then, Waiter, Which, Workload};
use crate::event::{EcomEvents, EcomOp};
use crate::model::{decode_list, encode_list, LISTS_TABLE};

/// Distinct list keys. Few enough that lists grow and interleave,
/// many enough that no row approaches the storage row-size cap.
pub const LIST_KEYS: u64 = 16;

/// Stop appending to a list at this length: the row stays well below
/// the database's value-size limit (128 × 8 bytes).
const MAX_LIST: usize = 120;

/// Mutable state of the append-list workload.
#[derive(Debug)]
pub struct AppendState {
    rng: DetRng,
    /// Next value to append; globally unique within a run.
    next_value: u64,
    /// Appends fully committed (storage-acked).
    pub committed: u64,
    /// Every `read_every`-th client op is a list read.
    read_every: u64,
    ops_started: u64,
}

impl AppendState {
    /// A new workload state; `rng` must come from a dedicated stream of
    /// the trial seed.
    pub fn new(rng: DetRng) -> Self {
        AppendState {
            rng,
            next_value: 1,
            committed: 0,
            read_every: 8,
            ops_started: 0,
        }
    }
}

/// Start the closed-loop append clients (staggered like the order
/// clients). The state's [`crate::EcomState::append`] must be `Some`.
pub fn start_append_clients<S, E>(state: &mut S, sim: &mut Sim<S, E>)
where
    S: HasStorage + HasEcom + 'static,
    E: EcomEvents<S>,
{
    assert!(
        state.ecom().append.is_some(),
        "install AppendState before starting append clients"
    );
    let n = state.ecom().gen.config.clients as u32;
    for client in 0..n {
        sim.schedule_event_in(
            SimDuration::from_micros(client as u64 * 13),
            E::ecom(EcomOp::AppendThink { client }),
        );
    }
}

/// Execute one append-list operation for `client` (an append, or every
/// `read_every`-th op a list read), then reschedule.
pub fn append_txn<S, E>(state: &mut S, sim: &mut Sim<S, E>, client: u32)
where
    S: HasStorage + HasEcom + 'static,
    E: EcomEvents<S>,
{
    if state.ecom().stopped {
        return;
    }
    let now = sim.now();
    let hist = state.storage().history.clone();

    let (is_read, key, value) = {
        let ap =
            state.ecom_mut().append.as_mut().expect(
                "invariant: append events are only scheduled once AppendState is installed",
            );
        let is_read = ap.ops_started % ap.read_every == ap.read_every - 1;
        ap.ops_started += 1;
        let key = ap.rng.gen_range(LIST_KEYS);
        let value = ap.next_value;
        if !is_read {
            ap.next_value += 1;
        }
        (is_read, key, value)
    };

    if is_read {
        let op = hist.invoke(
            client,
            now,
            OpData::ReadList {
                key,
                site: Site::Primary,
            },
        );
        // Served from the in-memory state, answered once every append it
        // observed is durable (at once when they all are): a list shown to
        // a client must survive a crash of the main array.
        let values = list_at(&state.ecom().sales.db, key);
        let lsn = state.ecom().sales.db.last_lsn();
        let waiter = Waiter {
            client,
            op,
            since: now,
            then: Then::Answer {
                workload: Workload::AppendList,
                answer: OpData::List { key, values },
                committed: false,
            },
        };
        await_durable(state, sim, Which::Sales, Some(lsn), waiter);
        return;
    }

    let mut values = list_at(&state.ecom().sales.db, key);
    if values.len() >= MAX_LIST {
        // List full: skip the append (the value is not consumed) and
        // come back later — deterministic, and the row never outgrows
        // the storage value cap.
        let think = state.ecom_mut().gen.think_time();
        sim.schedule_event_in(think, E::ecom(EcomOp::AppendThink { client }));
        return;
    }

    let op = hist.invoke(client, now, OpData::Append { key, value });
    let mut txn = TxnOps::default();
    if hist.is_enabled() {
        txn.reads.push(KeyVer {
            space: space::LISTS,
            key,
            version: hist.read_version(space::LISTS, key),
        });
    }
    values.push(value);
    let lsn = {
        let e = state.ecom_mut();
        let tx = e.sales.db.begin();
        e.sales.db.put(tx, LISTS_TABLE, key, &encode_list(&values));
        e.sales.db.stage(tx)
    };
    if hist.is_enabled() {
        txn.writes.push(KeyVer {
            space: space::LISTS,
            key,
            version: hist.install_version(space::LISTS, key),
        });
    }
    let waiter = Waiter {
        client,
        op,
        since: now,
        then: Then::Answer {
            workload: Workload::AppendList,
            answer: OpData::Txn(txn),
            committed: true,
        },
    };
    await_durable(state, sim, Which::Sales, lsn, waiter);
}

/// The committed append list under `key` (an absent row is the empty list).
pub(crate) fn list_at(sales: &MiniDb, key: u64) -> Vec<u64> {
    sales
        .get_committed(LISTS_TABLE, key)
        .map(decode_list)
        .unwrap_or_default()
}
