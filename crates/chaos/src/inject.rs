//! The injector: applies fault starts and heals to a live rig through
//! the public fault seams — `simnet` outages and shaping, `storage`
//! array failure, fabric suspend/resync, and the `heal_link` pump kick.
//!
//! Semantics under overlap (the generator schedules at most one event per
//! kind, but windows freely overlap):
//!
//! - link faults all target the data link; a heal that brings the link up
//!   early simply shortens any other link fault still in its window
//!   ("last action wins" — deterministic either way);
//! - array-crash heals always recover-then-resync: in-flight batches are
//!   dropped by the receive path while an array is failed, so `set_up`
//!   alone would leave permanent sequence gaps;
//! - a main-array heal additionally restarts the application: both
//!   databases crash-recover from the primary images and the client
//!   workload resumes (a database continuing from in-memory state would
//!   leave a torn WAL tail on disk forever, poisoning later backups).

use std::collections::BTreeMap;

use tsuru_core::TwoSiteRig;
use tsuru_ecom::driver::start_workload_clients;
use tsuru_simnet::{LinkConfig, LinkId};
use tsuru_storage::engine::{heal_link, kick_all_pumps};
use tsuru_storage::{span_names, GroupId, SpanId, VolumeView};

use crate::audit::Auditor;
use crate::plan::{FaultEvent, FaultKind};

/// Journal capacity floor during a squeeze: small enough to stall a busy
/// group within a few pump intervals, large enough to admit single blocks.
const SQUEEZE_FLOOR_BYTES: u64 = 64 * 1024;

/// Pristine shapes captured at trial start, restored by heals.
pub(crate) struct Injector {
    data_link: LinkId,
    orig_link: LinkConfig,
    /// Original primary-journal capacity per *group* — not per journal id:
    /// a resync (operator or supervisor) replaces a group's journals, so a
    /// squeeze heal must resolve the group's *current* primary journal or
    /// it would restore an orphaned journal and leave the live one
    /// squeezed forever.
    orig_journal_caps: Vec<(GroupId, u64)>,
    /// With a supervisor armed on the rig, heals only repair the physical
    /// fault (array recovery, app restart); the logical recovery —
    /// suspend, resync, pump kicks — is the supervisor's job.
    supervised: bool,
    /// Open fault spans by kind (the generator schedules at most one event
    /// per kind). While open, the tracer stamps every record with the
    /// fault's span id, causally linking faults to write lifecycles.
    fault_spans: BTreeMap<crate::plan::FaultKind, SpanId>,
}

impl Injector {
    pub(crate) fn new(rig: &TwoSiteRig, supervised: bool) -> Self {
        let data_link = rig.world.st.fabric.group(rig.groups[0]).link;
        let orig_link = rig.world.st.net.link(data_link).config().clone();
        let orig_journal_caps = rig
            .groups
            .iter()
            .filter_map(|&g| {
                rig.world
                    .st
                    .fabric
                    .group(g)
                    .primary_jnl
                    .map(|j| (g, rig.world.st.fabric.journal(j).capacity_bytes()))
            })
            .collect();
        Injector {
            data_link,
            orig_link,
            orig_journal_caps,
            supervised,
            fault_spans: BTreeMap::new(),
        }
    }

    /// Apply a fault start at the current sim instant.
    pub(crate) fn start(&mut self, rig: &mut TwoSiteRig, auditor: &mut Auditor, ev: &FaultEvent) {
        let now = rig.sim.now();
        let tracer = rig.world.st.tracer.clone();
        let kind = ev.kind.label();
        if ev.kind == FaultKind::SnapshotDuringFault {
            // Instantaneous: no window, nothing to stamp.
            tracer.instant(span_names::FAULT, now, SpanId::NONE, || {
                vec![("kind", kind.into())]
            });
        } else {
            let span = tracer.span_start(span_names::FAULT, now, SpanId::NONE, || {
                vec![("kind", kind.into())]
            });
            tracer.push_fault(span);
            self.fault_spans.insert(ev.kind, span);
        }
        match ev.kind {
            FaultKind::LinkFlap => {
                rig.world
                    .st
                    .net
                    .link_mut(self.data_link)
                    .set_down(now, Some(ev.heal_at()));
            }
            FaultKind::LinkPartition => {
                rig.world
                    .st
                    .net
                    .link_mut(self.data_link)
                    .set_down(now, None);
            }
            FaultKind::JitterSpike => {
                let l = rig.world.st.net.link_mut(self.data_link);
                l.set_jitter(tsuru_sim::SimDuration::from_millis(2));
                l.set_loss_probability(0.05);
            }
            FaultKind::PumpStall => {
                let bw = self.orig_link.bandwidth_bytes_per_sec / 50;
                rig.world
                    .st
                    .net
                    .link_mut(self.data_link)
                    .set_bandwidth(bw.max(1));
            }
            FaultKind::BackupArrayCrash => {
                let backup = rig.backup;
                rig.world.st.fail_array(backup, now);
            }
            FaultKind::MainArrayCrash => {
                let main = rig.main;
                rig.world.st.fail_array(main, now);
            }
            FaultKind::JournalSqueeze => {
                for &(gid, _) in &self.orig_journal_caps {
                    if let Some(jid) = rig.world.st.fabric.group(gid).primary_jnl {
                        let j = rig.world.st.fabric.journal_mut(jid);
                        let cap = j.used_bytes().max(SQUEEZE_FLOOR_BYTES);
                        j.set_capacity_bytes(cap);
                    }
                }
            }
            FaultKind::OperatorRestart => {
                for &g in &rig.groups.clone() {
                    rig.world.st.suspend_group(g, now);
                }
            }
            FaultKind::SnapshotDuringFault => {
                // Deterministically skipped while the backup array is
                // failed (a real scheduler's snapshot request would error).
                if !rig.world.st.array(rig.backup).is_failed() {
                    let snaps = rig.snapshot_backup_group("chaos-snap");
                    auditor.record_snapshot_group(now, snaps);
                }
            }
        }
    }

    /// Apply the heal for `ev` at the current sim instant.
    pub(crate) fn heal(&mut self, rig: &mut TwoSiteRig, auditor: &mut Auditor, ev: &FaultEvent) {
        // Close the fault window first: repair work triggered by the heal
        // (pump kicks, resyncs) runs outside the fault's span.
        if let Some(span) = self.fault_spans.remove(&ev.kind) {
            let tracer = rig.world.st.tracer.clone();
            let kind = ev.kind.label();
            tracer.pop_fault(span);
            tracer.span_end(span_names::FAULT, span, rig.sim.now(), || {
                vec![("kind", kind.into())]
            });
        }
        match ev.kind {
            FaultKind::LinkFlap => {
                // The outage end was scheduled; senders retry on their own.
                // Kick anyway: a pump parked by an overlapping indefinite
                // fault must not rely on new appends to restart.
                kick_all_pumps(&mut rig.world, &mut rig.sim);
            }
            FaultKind::LinkPartition => {
                heal_link(&mut rig.world, &mut rig.sim, self.data_link);
            }
            FaultKind::JitterSpike => {
                let l = rig.world.st.net.link_mut(self.data_link);
                l.set_jitter(self.orig_link.jitter);
                l.set_loss_probability(self.orig_link.loss_probability);
            }
            FaultKind::PumpStall => {
                rig.world
                    .st
                    .net
                    .link_mut(self.data_link)
                    .set_bandwidth(self.orig_link.bandwidth_bytes_per_sec);
            }
            FaultKind::BackupArrayCrash => {
                let backup = rig.backup;
                rig.world.st.array_mut(backup).recover();
                // Supervised: by now the supervisor has suspended the
                // group (dead secondary), so recovery is its job — the
                // next probe sees an unblocked suspension and resyncs.
                if !self.supervised {
                    self.resync_all(rig);
                }
            }
            FaultKind::MainArrayCrash => {
                let main = rig.main;
                rig.world.st.array_mut(main).recover();
                self.restart_app(rig, auditor);
                if self.supervised {
                    // Array firmware restarts its own pumps on recovery
                    // (same semantic as `heal_link`); journal entries from
                    // before the crash are still intact and simply resume
                    // draining — no resync needed for a dead *sender*.
                    kick_all_pumps(&mut rig.world, &mut rig.sim);
                } else {
                    self.resync_all(rig);
                }
            }
            FaultKind::JournalSqueeze => {
                for &(gid, cap) in &self.orig_journal_caps {
                    if let Some(jid) = rig.world.st.fabric.group(gid).primary_jnl {
                        rig.world.st.fabric.journal_mut(jid).set_capacity_bytes(cap);
                    }
                }
            }
            FaultKind::OperatorRestart => {
                // Supervised: an operator suspension is exactly what the
                // supervisor exists to heal; it may even have resynced
                // before this heal edge.
                if !self.supervised {
                    self.resync_all(rig);
                }
            }
            FaultKind::SnapshotDuringFault => {}
        }
    }

    /// Suspend (idempotent) and delta-resync every group, then kick the
    /// pumps. Unapplied journal entries are always part of the resync
    /// working set, so this is a correct heal for dropped in-flight
    /// batches as well as for operator suspension windows.
    fn resync_all(&mut self, rig: &mut TwoSiteRig) {
        let now = rig.sim.now();
        for &g in &rig.groups.clone() {
            rig.world.st.suspend_group(g, now);
            rig.world.st.resync_group(g);
        }
        kick_all_pumps(&mut rig.world, &mut rig.sim);
    }

    /// Restart the business after a main-array heal: crash-recover both
    /// databases from the (recovered) primary images, swap them into the
    /// app state and resume the closed-loop clients.
    ///
    /// The restarted WAL writer continues exactly where the surviving log
    /// ends, overwriting any torn tail the crash left; per-volume FIFO
    /// service guarantees the torn region is always a suffix, never a
    /// hole, so recovery of any later backup image stays well-defined.
    fn restart_app(&mut self, rig: &mut TwoSiteRig, auditor: &mut Auditor) {
        let now = rig.sim.now();
        let recovered = {
            let arr = rig.world.st.array(rig.main);
            let vols = rig.vols.map(|v| VolumeView::new(arr, v.volume));
            rig.world.app().open_image(vols)
        };
        match recovered {
            (Ok((sales, _)), Ok((stock, _))) => {
                let app = rig.world.app_mut();
                app.sales.restart(sales);
                app.stock.restart(stock);
                app.stopped = false;
                start_workload_clients(&mut rig.world, &mut rig.sim);
            }
            (sales, stock) => {
                // A primary image that cannot crash-recover is itself an
                // invariant violation: the business is unrecoverable at
                // its own site. Leave the app stopped.
                for (name, r) in [("sales", sales), ("stock", stock)] {
                    if let Err(e) = r {
                        auditor.violate(now, "primary-recovery-failed", format!("{name}: {e:?}"));
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tsuru_core::{BackupMode, RigConfig};
    use tsuru_sim::{SimDuration, SimTime};

    /// Under SDC a flush's write is on the main volume after 100 µs and its
    /// acknowledgement comes back a WAN round trip later. Crash and restart
    /// the main site inside that round trip and the acknowledgements of the
    /// first life arrive while the second life's first flush is in flight:
    /// they carry the old generation and must release nothing. What a
    /// flusher calls durable must be on the *backup* at every instant —
    /// the synchronous copy's whole contract.
    ///
    /// Mutation check (done by hand): with the generation comparison taken
    /// out of `LogFlusher::write_done`, the durability assertion fails at
    /// t = 10.184 ms ("stock: durable to 3, the backup holds 2").
    #[test]
    fn a_completion_from_before_the_crash_never_acknowledges_a_commit_after_it() {
        let mut rig = TwoSiteRig::new(RigConfig {
            seed: 5,
            mode: BackupMode::Sdc,
            // 5 ms one way: a flush started at t is acknowledged at t + 10.2 ms.
            link: LinkConfig::with(SimDuration::from_millis(5), 1_000_000_000 / 8),
            ..RigConfig::default()
        });
        let mut auditor = Auditor::new(&mut rig);
        let mut injector = Injector::new(&rig, false);
        start_workload_clients(&mut rig.world, &mut rig.sim);

        // First life: flushes go out at t = 0; the array dies at 1 ms with
        // their acknowledgements crossing the WAN and is back at 8 ms.
        rig.sim.run_until(&mut rig.world, SimTime::from_millis(1));
        assert!(rig.world.app().stock.flusher.in_flight());
        let now = rig.sim.now();
        let main = rig.main;
        rig.world.st.fail_array(main, now);
        rig.sim.run_until(&mut rig.world, SimTime::from_millis(8));
        rig.world.st.array_mut(main).recover();
        injector.restart_app(&mut rig, &mut auditor);
        let app = rig.world.app();
        assert!(!app.stopped && app.stock.flusher.waiting() == 0);

        // Second life, event by event.
        let state = |rig: &TwoSiteRig| {
            let app = rig.world.app();
            [&app.stock, &app.sales].map(|inst| {
                let f = &inst.flusher;
                (
                    f.durable_lsn(),
                    f.in_flight(),
                    f.waiting(),
                    inst.db.last_lsn(),
                )
            })
        };
        let mut dropped = 0;
        while rig.sim.now() < SimTime::from_millis(30) {
            let (before, acks) = (state(&rig), rig.world.st.ack_log.len());
            assert!(rig.sim.step(&mut rig.world));
            let on_backup = rig.recover_from_backup();
            let app = rig.world.app();
            for (name, inst, image) in [
                ("stock", &app.stock, &on_backup.stock),
                ("sales", &app.sales, &on_backup.sales),
            ] {
                let held = image
                    .as_ref()
                    .expect("the backup image recovers")
                    .0
                    .last_lsn();
                assert!(
                    inst.flusher.durable_lsn() <= held,
                    "t = {}: {name}: durable to {}, the backup holds {held}",
                    rig.sim.now(),
                    inst.flusher.durable_lsn(),
                );
            }
            // An acknowledgement reached the host and no flusher moved.
            if rig.world.st.ack_log.len() > acks && state(&rig) == before {
                dropped += 1;
            }
        }
        assert!(
            dropped >= 1,
            "the first life's acknowledgements must arrive, and be dropped"
        );
        assert!(
            rig.world.app().stock.flusher.durable_lsn() > 1,
            "the second life commits"
        );
        assert!(
            auditor.violations.is_empty(),
            "the primary images recovered"
        );
    }
}
