//! Opening the shop from an image — four block devices that hold the two
//! databases as some site, snapshot group or restored volume set has them.
//!
//! [`EcomState`] knows everything an opener needs: both database
//! geometries, the initial stock level and the primary's commit log. So
//! this is the one place a shop image is opened ([`EcomState::open_image`])
//! and the one place the business-level verdict on it is derived
//! ([`EcomState::recover_image`]); every experiment, auditor, judge and
//! demo step that opens an image *once* goes through one of the two.
//!
//! An image that keeps changing — the backup site's replicas while
//! replication runs — is *followed* instead ([`ImageFollower`]): opened
//! once, then kept current from the array's change feed, so that it can be
//! read and judged after every step the backup takes without being
//! recovered again each time (DESIGN.md §22).

use std::collections::{BTreeMap, BTreeSet};

use tsuru_history::check::shop::oversold;
use tsuru_minidb::{DbConfig, MiniDb, RecoveryError, RecoveryReport, RedoHook};
use tsuru_sim::SimTime;
use tsuru_storage::{BlockDevice, FeedEntry, StorageArray, Volume, VolumeId, BLOCK_SIZE};

use crate::app::EcomState;
use crate::checker::{
    check_cross_db, decrement_of, order_rpo, units_decremented, units_sold, InvariantReport,
    OrderRpo, Oversold,
};
use crate::model::{OrderRow, ORDERS_TABLE, STOCK_TABLE};

/// One database opened from an image: the engine and what crash recovery
/// found, or why the image would not open.
pub type Recovered = Result<(MiniDb, RecoveryReport), RecoveryError>;

/// Everything a recovery attempt can report.
#[derive(Debug)]
pub struct RecoveryOutcome {
    /// Sales database recovery.
    pub sales: Recovered,
    /// Stock database recovery.
    pub stock: Recovered,
    /// Cross-database invariant, if both recovered.
    pub invariant: Option<InvariantReport>,
    /// Business-level RPO, if sales recovered.
    pub orders: Option<OrderRpo>,
}

impl RecoveryOutcome {
    /// Did both databases recover *and* pass the cross-DB check?
    pub fn fully_consistent(&self) -> bool {
        self.invariant.as_ref().is_some_and(|i| i.consistent())
    }

    /// Did either database hard-fail recovery?
    pub fn hard_failure(&self) -> bool {
        self.sales.is_err() || self.stock.is_err()
    }
}

impl EcomState {
    /// Crash-recover the sales and the stock database from `devs` — sales
    /// WAL, sales data, stock WAL, stock data, the order the shop was
    /// [installed](EcomState::install) in. Opens, judges nothing: callers
    /// that only read or adopt the databases (analytics, an application
    /// restart) stop here.
    pub fn open_image<D: BlockDevice>(&self, devs: [D; 4]) -> (Recovered, Recovered) {
        let [sales_wal, sales_data, stock_wal, stock_data] = &devs;
        let (sales, stock) = (self.sales.db.config(), self.stock.db.config());
        (
            MiniDb::recover("sales", sales_wal, sales_data, sales.clone()),
            MiniDb::recover("stock", stock_wal, stock_data, stock.clone()),
        )
    }

    /// [`open_image`](EcomState::open_image), then the business-level
    /// verdict: the cross-database invariant when both databases
    /// recovered, and which of this primary's committed orders the image
    /// holds whenever sales did.
    pub fn recover_image<D: BlockDevice>(&self, devs: [D; 4]) -> RecoveryOutcome {
        let (sales, stock) = self.open_image(devs);
        let invariant = match (&sales, &stock) {
            (Ok((s, _)), Ok((t, _))) => Some(self.check_image(s, t)),
            _ => None,
        };
        let orders = sales
            .as_ref()
            .ok()
            .map(|(s, _)| order_rpo(&self.metrics.committed_log, s));
        RecoveryOutcome {
            sales,
            stock,
            invariant,
            orders,
        }
    }

    /// The cross-database invariant on an opened pair, against this shop's
    /// initial stock level.
    pub fn check_image(&self, sales: &MiniDb, stock: &MiniDb) -> InvariantReport {
        check_cross_db(sales, stock, self.gen.config.initial_stock)
    }
}

/// One database of a followed image.
#[derive(Debug)]
struct Followed {
    name: &'static str,
    config: DbConfig,
    /// The database as a from-scratch [`MiniDb::recover`] of the shadow
    /// volumes would return it, as of the last settled step.
    db: Recovered,
    /// A block `recover` read to produce `db` was written since (or `db`
    /// is an error and anything was): only a fresh `recover` will do.
    stale: bool,
    /// The log volume took a write at or after the block `db`'s log ends
    /// in: [`MiniDb::catch_up`] is due.
    log_grew: bool,
}

impl Followed {
    fn opened(name: &'static str, config: &DbConfig, wal: &Volume, data: &Volume) -> Self {
        Followed {
            name,
            config: config.clone(),
            db: MiniDb::recover(name, wal, data, config.clone()),
            stale: false,
            log_grew: false,
        }
    }

    /// The exactness rule, per written block. `recover` reads the
    /// superblock, the tree pages it names and the log from block zero to
    /// where the scan stops; a write anywhere else cannot change what it
    /// returns. Of the blocks it does read, only the log from the scan's
    /// end on can be taken incrementally — the parse runs left to right,
    /// so bytes at or after `end` decide nothing about the records before
    /// it. Everything else, and any write under an image that did not
    /// open, sends the database back through `recover`.
    fn touch(&mut self, is_wal: bool, lba: u64) {
        match &self.db {
            Err(_) => self.stale = true,
            Ok((db, _)) if is_wal => {
                if lba < (db.log_end() / BLOCK_SIZE) as u64 {
                    self.stale = true;
                } else {
                    self.log_grew = true;
                }
            }
            Ok((db, _)) => self.stale |= db.opened_from(lba),
        }
    }

    /// Bring `db` to what `recover(wal, data)` would return now. True when
    /// that took opening it again (or it no longer opens): `on_redo` saw
    /// nothing of it and whatever was derived from the old `db` is void.
    fn settle(&mut self, wal: &Volume, data: &Volume, on_redo: &mut RedoHook<'_>) -> bool {
        let stale = std::mem::take(&mut self.stale);
        let log_grew = std::mem::take(&mut self.log_grew);
        let caught_up = match &mut self.db {
            Ok(_) if !stale && !log_grew => return false,
            Ok((db, report)) if !stale => db.catch_up(wal, on_redo).map(|redone| {
                let redone = redone?;
                report.wal_end = db.last_lsn();
                report.redo_records += redone;
                Some(())
            }),
            // Nothing to continue from.
            _ => Ok(None),
        };
        match caught_up {
            Ok(Some(())) => return false,
            // No scan to continue — or the tail block's earlier bytes changed
            // under it.
            Ok(None) => self.db = MiniDb::recover(self.name, wal, data, self.config.clone()),
            Err(e) => self.db = Err(e),
        }
        true
    }
}

/// The per-item tallies the cross-database rule is stated over
/// ([`tsuru_history::check::shop::oversold`]), kept current per redone
/// operation so that judging a step costs what the step changed.
#[derive(Debug, Default)]
struct Tallies {
    /// Units sold per item by the order rows of the sales image.
    sold: BTreeMap<u64, u64>,
    /// Order rows in the sales image.
    orders: u64,
    /// Stock decrement per item row of the stock image.
    decremented: BTreeMap<u64, u64>,
    /// Items whose `sold` exceeds their `decremented` right now.
    oversold: BTreeSet<u64>,
}

impl Tallies {
    fn judge(&mut self, item: u64) {
        let sold = self.sold.get(&item).copied().unwrap_or(0);
        if sold > self.decremented.get(&item).copied().unwrap_or(0) {
            self.oversold.insert(item);
        } else {
            self.oversold.remove(&item);
        }
    }

    fn judge_all(&mut self) {
        let decremented = |item| self.decremented.get(&item).copied().unwrap_or(0);
        self.oversold = oversold(self.sold.iter().map(|(&i, &u)| (i, u)), decremented)
            .into_iter()
            .map(|o| o.item)
            .collect();
    }

    /// One redone operation on the orders table: `old` row out, `new` in.
    fn order_op(&mut self, old: Option<&[u8]>, new: Option<&[u8]>) {
        self.orders = self.orders + u64::from(new.is_some()) - u64::from(old.is_some());
        for (row, entering) in [(old, false), (new, true)] {
            let Some(row) = row.and_then(OrderRow::decode) else {
                continue;
            };
            let units = self.sold.entry(row.item).or_default();
            if entering {
                *units += row.quantity as u64;
            } else {
                *units -= row.quantity as u64;
            }
            self.judge(row.item);
        }
    }

    /// One redone operation on the stock table: item `key` now reads `new`.
    fn stock_op(&mut self, item: u64, new: Option<&[u8]>, initial_stock: u64) {
        match new.and_then(|row| decrement_of(row, initial_stock)) {
            Some(d) => self.decremented.insert(item, d),
            None => self.decremented.remove(&item),
        };
        self.judge(item);
    }
}

/// What [`ImageFollower::follow`] shows after every step: the follower,
/// current, and the step's instant.
pub type StepObserver<'a> = dyn FnMut(&ImageFollower, SimTime) + 'a;

/// The backup image, followed: a pure fold over one array's change feed
/// ([`StorageArray::drain_feed`]) that keeps the shop *open* on the four
/// watched volumes — both databases and the tallies of the cross-database
/// rule — current after every step the array closes, and equal at each of
/// them to what [`EcomState::recover_image`] would find from scratch.
///
/// It holds a shadow of the four volumes (reference counts on the blocks
/// the array holds anyway, no bytes copied), because a drained batch
/// carries many steps and each must be judged on the state *it* left, not
/// on the live volumes that already hold the whole batch.
#[derive(Debug)]
pub struct ImageFollower {
    /// The four volumes as of the entries folded so far, in install order.
    shadow: [Volume; 4],
    sales: Followed,
    stock: Followed,
    initial_stock: u64,
    tallies: Tallies,
    entries: u64,
    last_boundary: Option<SimTime>,
}

impl ImageFollower {
    /// Watch `vols` of `array` — sales WAL, sales data, stock WAL, stock
    /// data, where replication lands the shop `state` runs — and open the
    /// image they hold now.
    pub fn watching(state: &EcomState, array: &mut StorageArray, vols: [VolumeId; 4]) -> Self {
        let shadow = vols.map(|v| {
            array.watch(v);
            let live = array.volume(v);
            let mut copy = Volume::new(v, live.name(), live.size_blocks());
            copy.clone_content_from(live);
            copy
        });
        let [sales_wal, sales_data, stock_wal, stock_data] = &shadow;
        let sales = Followed::opened("sales", state.sales.db.config(), sales_wal, sales_data);
        let stock = Followed::opened("stock", state.stock.db.config(), stock_wal, stock_data);
        let mut follower = ImageFollower {
            shadow,
            sales,
            stock,
            initial_stock: state.gen.config.initial_stock,
            tallies: Tallies::default(),
            entries: 0,
            last_boundary: None,
        };
        follower.retally(true, true);
        follower
    }

    /// Fold `feed` (the watched array's, oldest first) into the image.
    ///
    /// With an observer, the view is brought current after every step the
    /// feed closes and `at_boundary` is shown the follower and the step's
    /// instant — the mark's own, or `now` where the array did not know it.
    /// Entries a drain cut off before their mark are a step too: the
    /// caller is looking at the array at `now`. Without one, nobody looks
    /// at the steps in between and the view is brought current once, at
    /// the end: the same records are redone, each once, in one go.
    pub fn follow(
        &mut self,
        feed: impl IntoIterator<Item = FeedEntry>,
        now: SimTime,
        mut at_boundary: Option<&mut StepObserver<'_>>,
    ) {
        let mut unsettled = None;
        for entry in feed {
            self.entries += 1;
            let (vol, write) = match entry {
                FeedEntry::Write { vol, lba, data } => (vol, Some((lba, data))),
                FeedEntry::Wipe { vol } => (vol, None),
                FeedEntry::Boundary { at } => {
                    unsettled = Some(at.unwrap_or(now));
                    if let (Some(at), Some(observer)) = (unsettled, at_boundary.as_deref_mut()) {
                        self.settle(at);
                        observer(self, at);
                        unsettled = None;
                    }
                    continue;
                }
            };
            let ours = self.shadow.iter_mut().zip(0..).find(|(s, _)| s.id() == vol);
            let Some((shadow, i)) = ours else {
                continue; // someone else's watch on the same array
            };
            let db = if i < 2 { &mut self.sales } else { &mut self.stock };
            match write {
                Some((lba, data)) => {
                    db.touch(i % 2 == 0, lba);
                    shadow.write(lba, data);
                }
                None => {
                    db.stale = true;
                    shadow.wipe();
                }
            }
            unsettled = Some(now);
        }
        if let Some(at) = unsettled {
            self.settle(at);
            if let Some(observer) = at_boundary {
                observer(self, at);
            }
        }
    }

    /// Bring both databases and the tallies to what the shadow holds.
    fn settle(&mut self, at: SimTime) {
        let [sales_wal, sales_data, stock_wal, stock_data] = &self.shadow;
        let tallies = &mut self.tallies;
        let sales = self.sales.settle(sales_wal, sales_data, &mut |table, _, old, new| {
            if table == ORDERS_TABLE {
                tallies.order_op(old, new);
            }
        });
        let initial_stock = self.initial_stock;
        let stock = self.stock.settle(stock_wal, stock_data, &mut |table, item, _, new| {
            if table == STOCK_TABLE {
                tallies.stock_op(item, new, initial_stock);
            }
        });
        self.retally(sales, stock);
        self.last_boundary = Some(at);
    }

    /// Rebuild the tallies of a database that was opened from scratch (an
    /// image that does not open has none).
    fn retally(&mut self, sales: bool, stock: bool) {
        if sales {
            let db = self.sales.db.as_ref().ok();
            (self.tallies.sold, self.tallies.orders) =
                db.map(|(db, _)| units_sold(db)).unwrap_or_default();
        }
        if stock {
            let db = self.stock.db.as_ref().ok();
            self.tallies.decremented = db
                .map(|(db, _)| units_decremented(db, self.initial_stock).0)
                .unwrap_or_default();
        }
        if sales || stock {
            self.tallies.judge_all();
        }
    }

    /// The image as of the last step: the sales and the stock database,
    /// each as [`EcomState::open_image`] would return it.
    pub fn view(&self) -> (&Recovered, &Recovered) {
        (&self.sales.db, &self.stock.db)
    }

    /// The cross-database rule on the image as of the last step: the items
    /// whose orders exceed their stock decrement, ascending — `None` while
    /// either database does not open.
    pub fn oversold(&self) -> Option<Vec<Oversold>> {
        if self.sales.db.is_err() || self.stock.db.is_err() {
            return None;
        }
        let units = |of: &BTreeMap<u64, u64>, item| of.get(item).copied().unwrap_or(0);
        Some(
            self.tallies
                .oversold
                .iter()
                .map(|item| Oversold {
                    item: *item,
                    sold: units(&self.tallies.sold, item),
                    decremented: units(&self.tallies.decremented, item),
                })
                .collect(),
        )
    }

    /// Order rows in the followed sales database (0 while it does not
    /// open).
    pub fn orders(&self) -> u64 {
        self.tallies.orders
    }

    /// How far the image has been followed: feed entries folded, and the
    /// instant of the last step settled.
    pub fn watermark(&self) -> (u64, Option<SimTime>) {
        (self.entries, self.last_boundary)
    }
}
