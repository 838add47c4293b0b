//! The simulation world: storage + application state under one roof.

use tsuru_ecom::{EcomState, HasEcom, ImageFollower, WorkloadConfig};
use tsuru_minidb::DbConfig;
use tsuru_sim::DetRng;
use tsuru_simnet::{LinkConfig, LinkId};
use tsuru_storage::{
    ArrayId, ArrayPerf, EngineConfig, HasStorage, StorageWorld, VolRef, VolumeId,
};

/// Volume roles of the shop, in the fixed order every four-volume array
/// in this crate uses (and [`EcomState::install`] expects).
pub const VOLUME_NAMES: [&str; 4] = ["sales-wal", "sales-data", "stock-wal", "stock-data"];

/// Block counts of the shop's volumes for a database geometry, in
/// [`VOLUME_NAMES`] order.
pub(crate) fn volume_sizes(db: &DbConfig) -> [u64; 4] {
    [db.wal_blocks, db.data_blocks, db.wal_blocks, db.data_blocks]
}

/// What every deployment starts from: a main and a backup array and the
/// link pair between them. The rig, the demo system and E5 all build on
/// this and differ only in who creates the volumes.
pub(crate) struct Sites {
    pub st: StorageWorld,
    pub main: ArrayId,
    pub backup: ArrayId,
    pub link: LinkId,
    pub reverse: LinkId,
}

impl Sites {
    pub(crate) fn new(seed: u64, engine: EngineConfig, perf: &ArrayPerf, link: &LinkConfig) -> Self {
        let mut st = StorageWorld::new(seed, engine);
        Sites {
            main: st.add_array("vsp-main", perf.clone()),
            backup: st.add_array("vsp-backup", perf.clone()),
            link: st.add_link(link.clone()),
            reverse: st.add_link(link.clone()),
            st,
        }
    }
}

/// The discrete-event state of the whole demonstration: the storage layer
/// and the business process installed on it.
#[derive(Debug)]
pub struct DemoWorld {
    /// Arrays, links, replication fabric, ack log.
    pub st: StorageWorld,
    app: EcomState,
}

impl DemoWorld {
    /// The world of a deployment whose shop lives on `vols` (main-site
    /// volumes in [`VOLUME_NAMES`] order): databases formatted and seeded,
    /// order generator on the `0xEC0` stream of `seed`.
    pub(crate) fn with_shop(
        mut st: StorageWorld,
        vols: [VolRef; 4],
        seed: u64,
        db: DbConfig,
        workload: WorkloadConfig,
    ) -> Self {
        let rng = DetRng::new(seed).derive(0xEC0);
        let app = EcomState::install(&mut st, vols, db, workload, rng);
        DemoWorld { st, app }
    }

    /// The business process (sales + stock databases, clients, metrics).
    pub fn app(&self) -> &EcomState {
        &self.app
    }

    /// The business process, mutably.
    pub fn app_mut(&mut self) -> &mut EcomState {
        &mut self.app
    }

    /// Start following the image of the shop that `vols` of `array` hold
    /// (in [`VOLUME_NAMES`] order) — see [`ImageFollower`].
    pub fn follow_image(&mut self, array: ArrayId, vols: [VolumeId; 4]) -> ImageFollower {
        ImageFollower::watching(&self.app, self.st.array_mut(array), vols)
    }
}

impl HasStorage for DemoWorld {
    fn storage(&self) -> &StorageWorld {
        &self.st
    }
    fn storage_mut(&mut self) -> &mut StorageWorld {
        &mut self.st
    }
}

impl HasEcom for DemoWorld {
    fn ecom(&self) -> &EcomState {
        self.app()
    }
    fn ecom_mut(&mut self) -> &mut EcomState {
        self.app_mut()
    }
}
