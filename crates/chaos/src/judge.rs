//! The client-visible judge: observe images as a client would, then
//! run the [`tsuru_history`] checker suite over the recorded history.
//!
//! The auditor (`audit.rs`) checks the system from the *inside* —
//! journals, ack logs, byte-level prefix cuts. The judge checks it
//! from the *outside*: only what a client could actually read. Mid-run
//! it plays the paper's long analytics scan (read the backup image the
//! auditor keeps open on the replicas, record the observation as
//! [`Site::Backup`]); at quiesce it reads the final primary state and the
//! fully drained backup image, opened from scratch ([`Site::Primary`] /
//! [`Site::BackupFinal`]), and judges the whole history where the
//! recorder keeps it ([`Recorder::check`](tsuru_history::Recorder::check)).
//! Every anomaly becomes a chaos violation carrying the offending op
//! subsequence.

use tsuru_core::TwoSiteRig;
use tsuru_ecom::scan::{record_bank_scan, record_list_scan, record_shop_scan};
use tsuru_ecom::{Recovered, WorkloadKind};
use tsuru_history::{process, CheckConfig, OpData, Site, Verdict};
use tsuru_minidb::MiniDb;

/// Record one image observation appropriate to the workload.
fn record_image(
    rig: &TwoSiteRig,
    kind: WorkloadKind,
    proc_id: u32,
    site: Site,
    sales: &MiniDb,
    stock: &MiniDb,
) {
    let hist = &rig.world.st.history;
    let now = rig.sim.now();
    match kind {
        WorkloadKind::Ecom => record_shop_scan(
            hist,
            proc_id,
            now,
            site,
            sales,
            stock,
            rig.config.workload.initial_stock,
        ),
        WorkloadKind::Bank => record_bank_scan(hist, proc_id, now, site, stock),
        WorkloadKind::AppendList => record_list_scan(hist, proc_id, now, site, sales),
    }
}

/// Record what a client reading the backup image at the current instant
/// would see. `image` is that image, opened: the followed one mid-run,
/// the from-scratch open of the drained replicas at quiesce.
///
/// Deterministically skipped while the backup array is failed (a real
/// reader's mount would error — no observation happens). When the
/// array is healthy but either database fails to crash-recover from
/// the image, the observation is recorded as a [`Phase::Fail`]: the
/// reader definitively saw an unusable backup, which the image checker
/// flags as the strongest client-visible collapse.
///
/// [`Phase::Fail`]: tsuru_history::Phase::Fail
pub(crate) fn scan_backup(
    rig: &TwoSiteRig,
    image: (&Recovered, &Recovered),
    kind: WorkloadKind,
    proc_id: u32,
    site: Site,
) {
    if !rig.world.st.history.is_enabled() {
        return;
    }
    if rig.world.st.array(rig.backup).is_failed() {
        return;
    }
    if let (Ok((sales, _)), Ok((stock, _))) = image {
        record_image(rig, kind, proc_id, site, sales, stock);
    } else {
        let hist = &rig.world.st.history;
        let now = rig.sim.now();
        let data = match kind {
            WorkloadKind::Ecom => OpData::ReadShop { site },
            WorkloadKind::Bank => OpData::ReadBalances { site },
            WorkloadKind::AppendList => OpData::ReadList { key: 0, site },
        };
        let op = hist.invoke(proc_id, now, data);
        hist.fail(proc_id, op, now, OpData::None);
    }
}

/// Final judgement at quiesce: read the live primary state and the
/// drained backup image (`drained`, opened from scratch) as
/// [`process::JUDGE`], then run every applicable checker over the full
/// history.
pub(crate) fn judge(
    rig: &TwoSiteRig,
    drained: (&Recovered, &Recovered),
    kind: WorkloadKind,
) -> Verdict {
    let app = rig.world.app();
    record_image(
        rig,
        kind,
        process::JUDGE,
        Site::Primary,
        &app.sales.db,
        &app.stock.db,
    );
    scan_backup(rig, drained, kind, process::JUDGE, Site::BackupFinal);
    // The bank invariant total is knowable from the outside: the seeded
    // accounts are `items` rows of `initial_stock` each.
    let expected_total = matches!(kind, WorkloadKind::Bank)
        .then(|| rig.config.workload.items as u64 * rig.config.workload.initial_stock);
    rig.world.st.history.check(&CheckConfig { expected_total })
}
