//! Application state: two databases, metrics, setup helpers.

use tsuru_minidb::{DbConfig, DbVol, IoPlan, LogFlusher, MiniDb};
use tsuru_sim::{DetRng, Histogram, SimTime};
use tsuru_storage::{StorageWorld, VolRef};

use crate::append::AppendState;
use crate::bank::BankState;
use crate::driver::{Waiter, Which};
use crate::model::{StockRow, STOCK_TABLE};
use crate::workload::{WorkloadConfig, WorkloadGen};

/// One database instance, its log flusher and the volumes backing it.
#[derive(Debug)]
pub struct DbInstance {
    /// The engine.
    pub db: MiniDb,
    /// The database's one log flusher: every storage-timed commit and
    /// every primary read waits here until the log position it depends on
    /// is durable (see [`crate::driver`]).
    pub flusher: LogFlusher<Waiter>,
    /// The WAL volume.
    pub wal_vol: VolRef,
    /// The data volume.
    pub data_vol: VolRef,
}

impl DbInstance {
    /// A database whose in-memory state is exactly what its volumes hold
    /// (freshly created and written, or just recovered).
    pub fn new(db: MiniDb, wal_vol: VolRef, data_vol: VolRef) -> Self {
        DbInstance {
            flusher: LogFlusher::new(db.last_lsn()),
            db,
            wal_vol,
            data_vol,
        }
    }

    /// Replace the engine with one just recovered from the volumes (the
    /// application restarting after a crash). The flusher starts a new
    /// generation, so an acknowledgement still on its way from before the
    /// crash can never release a commit of the new life.
    pub fn restart(&mut self, db: MiniDb) {
        self.flusher.restart(db.last_lsn());
        self.db = db;
    }

    /// Map a database-relative I/O target to the backing array volume.
    pub fn volref(&self, vol: DbVol) -> VolRef {
        match vol {
            DbVol::Wal => self.wal_vol,
            DbVol::Data => self.data_vol,
        }
    }
}

/// Runtime metrics of the transactional application.
#[derive(Debug, Default)]
pub struct EcomMetrics {
    /// End-to-end order-transaction latency (ns).
    pub txn_latency: Histogram,
    /// Orders fully committed (stock + sales durable).
    pub committed_orders: u64,
    /// Host writes that failed (site disaster observed by the app).
    pub failed_writes: u64,
    /// Degraded (suspended-replication) acknowledgements observed.
    pub degraded_acks: u64,
    /// `(order id, commit-ack instant)` log — the oracle for business-level
    /// RPO (which committed orders survived at the backup).
    pub committed_log: Vec<(u64, SimTime)>,
}

/// The full application state embedded in the simulation world.
#[derive(Debug)]
pub struct EcomState {
    /// The sales (orders) database.
    pub sales: DbInstance,
    /// The stock (inventory) database.
    pub stock: DbInstance,
    /// Order generator.
    pub gen: WorkloadGen,
    /// Metrics.
    pub metrics: EcomMetrics,
    /// Set on site failure (clients park).
    pub stopped: bool,
    /// Optional cap on generated orders (experiments with a fixed count).
    pub stop_after_orders: Option<u64>,
    /// Present when the bank-transfer workload drives this state instead
    /// of the order workload (see [`crate::bank`]).
    pub bank: Option<BankState>,
    /// Present when the append-list workload drives this state instead
    /// of the order workload (see [`crate::append`]).
    pub append: Option<AppendState>,
}

impl EcomState {
    /// Install the shop on four volumes — sales WAL, sales data, stock
    /// WAL, stock data: format both databases with geometry `db`, seed the
    /// stock catalogue `workload` describes and put the order generator on
    /// `rng`. Setup time: everything is written directly, before any
    /// replication pair exists.
    pub fn install(
        st: &mut StorageWorld,
        vols: [VolRef; 4],
        db: DbConfig,
        workload: WorkloadConfig,
        rng: DetRng,
    ) -> Self {
        let sales = install_db(st, "sales", vols[0], vols[1], db.clone());
        let mut stock = install_db(st, "stock", vols[2], vols[3], db);
        seed_stock(st, &mut stock, workload.items, workload.initial_stock);
        EcomState {
            sales,
            stock,
            gen: WorkloadGen::new(workload, rng),
            metrics: EcomMetrics::default(),
            stopped: false,
            stop_after_orders: None,
            bank: None,
            append: None,
        }
    }

    /// The instance of `which` database.
    pub fn instance(&self, which: Which) -> &DbInstance {
        match which {
            Which::Sales => &self.sales,
            Which::Stock => &self.stock,
        }
    }

    /// The instance of `which` database, mutably.
    pub fn instance_mut(&mut self, which: Which) -> &mut DbInstance {
        match which {
            Which::Sales => &mut self.sales,
            Which::Stock => &mut self.stock,
        }
    }

    /// Commits per log flush over both databases — the group-commit factor
    /// (1 when every commit found its flusher idle; 0 before any flush).
    pub fn commits_per_flush(&self) -> f64 {
        let (sales, stock) = (self.sales.db.stats(), self.stock.db.stats());
        let flushes = sales.flushes + stock.flushes;
        if flushes == 0 {
            return 0.0;
        }
        (sales.flushed_commits + stock.flushed_commits) as f64 / flushes as f64
    }
}

/// Access to the application state from an arbitrary simulation world.
pub trait HasEcom {
    /// Borrow the application.
    fn ecom(&self) -> &EcomState;
    /// Mutably borrow the application.
    fn ecom_mut(&mut self) -> &mut EcomState;
}

/// Apply an [`IoPlan`] to volumes instantly, bypassing the data path —
/// setup only (database formatting and seeding before replication starts).
fn apply_plan_direct(st: &mut StorageWorld, plan: &IoPlan, wal: VolRef, data: VolRef) {
    for phase in &plan.phases {
        for io in phase {
            let vol = match io.vol {
                DbVol::Wal => wal,
                DbVol::Data => data,
            };
            st.write_direct(vol, io.lba, &io.data);
        }
    }
}

/// Create and format a database onto the given volumes (setup time).
fn install_db(
    st: &mut StorageWorld,
    name: &str,
    wal_vol: VolRef,
    data_vol: VolRef,
    config: DbConfig,
) -> DbInstance {
    let (db, plan) = MiniDb::create(name, config);
    apply_plan_direct(st, &plan, wal_vol, data_vol);
    DbInstance::new(db, wal_vol, data_vol)
}

/// Seed the stock catalogue with `items` rows of `initial_stock` units
/// (setup time; written directly).
fn seed_stock(st: &mut StorageWorld, stock: &mut DbInstance, items: usize, initial: u64) {
    let tx = stock.db.begin();
    for item in 0..items as u64 {
        stock
            .db
            .put(tx, STOCK_TABLE, item, &StockRow { quantity: initial }.encode());
    }
    let plan = stock.db.commit(tx);
    apply_plan_direct(st, &plan, stock.wal_vol, stock.data_vol);
    // Checkpoint so the seeded catalogue is in the tree image, not a giant
    // WAL tail.
    let plan = stock.db.checkpoint();
    apply_plan_direct(st, &plan, stock.wal_vol, stock.data_vol);
    // Written directly, not through the flusher: it starts from here.
    stock.flusher = LogFlusher::new(stock.db.last_lsn());
}

#[cfg(test)]
mod tests {
    use super::*;
    use tsuru_minidb::TableId;
    use tsuru_storage::{ArrayPerf, EngineConfig, VolumeView};

    #[test]
    fn install_and_seed_then_recover_from_volumes() {
        let mut st = StorageWorld::new(5, EngineConfig::default());
        let a = st.add_array("m", ArrayPerf::default());
        let wal = st.create_volume(a, "stock-wal", 256);
        let data = st.create_volume(a, "stock-data", 2048);
        let mut inst = install_db(
            &mut st,
            "stock",
            wal,
            data,
            DbConfig {
                data_blocks: 2048,
                wal_blocks: 256,
                checkpoint_threshold: 0.8,
            },
        );
        seed_stock(&mut st, &mut inst, 50, 1000);
        // Recover straight from the volumes.
        let array = st.array(a);
        let wal_dev = VolumeView::new(array, wal.volume);
        let data_dev = VolumeView::new(array, data.volume);
        let (rec, _) =
            MiniDb::recover("r", &wal_dev, &data_dev, inst.db.config().clone()).unwrap();
        assert_eq!(rec.scan_table(TableId(1)).len(), 50);
        let row = StockRow::decode(rec.get_committed(TableId(1), 7).unwrap()).unwrap();
        assert_eq!(row.quantity, 1000);
    }

    #[test]
    fn ecom_state_wiring() {
        let mut st = StorageWorld::new(5, EngineConfig::default());
        let a = st.add_array("m", ArrayPerf::default());
        let sw = st.create_volume(a, "sw", 64);
        let sd = st.create_volume(a, "sd", 512);
        let tw = st.create_volume(a, "tw", 64);
        let td = st.create_volume(a, "td", 512);
        let cfg = DbConfig {
            data_blocks: 512,
            wal_blocks: 64,
            checkpoint_threshold: 0.8,
        };
        let state = EcomState::install(
            &mut st,
            [sw, sd, tw, td],
            cfg,
            WorkloadConfig::default(),
            DetRng::new(1),
        );
        assert_eq!(state.sales.volref(DbVol::Wal), sw);
        assert_eq!(state.sales.volref(DbVol::Data), sd);
        assert_eq!(state.stock.volref(DbVol::Data), td);
    }
}
