//! Opening the shop from an image — four block devices that hold the two
//! databases as some site, snapshot group or restored volume set has them.
//!
//! [`EcomState`] knows everything an opener needs: both database
//! geometries, the initial stock level and the primary's commit log. So
//! this is the one place a shop image is opened ([`EcomState::open_image`])
//! and the one place the business-level verdict on it is derived
//! ([`EcomState::recover_image`]); every experiment, auditor, judge and
//! demo step goes through one of the two.

use tsuru_minidb::{MiniDb, RecoveryError, RecoveryReport};
use tsuru_storage::BlockDevice;

use crate::app::EcomState;
use crate::checker::{check_cross_db, order_rpo, InvariantReport, OrderRpo};

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
