//! The whole-system consistency auditor.
//!
//! Mid-run (every fault start, every heal, and a periodic sample grid)
//! the auditor checks invariants that must hold at *any* instant:
//!
//! 1. **Write-order fidelity** — the backup image of every group is a
//!    prefix-consistent cut of the primary ack log, and the secondary
//!    bytes match that prefix exactly (`StorageWorld::verify_consistency`).
//! 2. **No stuck pump** — an `Active` ADC group whose link is up and whose
//!    primary journal holds unsent entries must have a scheduled transfer
//!    pump (a parked pump after a heal is the regression the `heal_link`
//!    API exists to prevent).
//! 3. **Lifecycle legality** — observed group-state transitions respect
//!    [`GroupState::can_transition_to`] (e.g. a promoted group never
//!    silently reactivates).
//! 8. **Running totals** — the fabric's O(1) replication totals (journal
//!    occupancy, RPO lag) equal a full rescan of groups, journals and
//!    pairs, whatever the faults and recoveries did in between.
//! 9. **Parked pumps are woken** — a pump waiting out link backlog holds
//!    `pump_scheduled` (so check 2 skips it) without owning an event:
//!    every such group has exactly one current-generation entry on its
//!    link's wait list, and every non-empty wait list has a wake armed at
//!    or after now (`StorageWorld::lane_wait_violations`).
//!
//! And at every step the backup image takes — each applied journal entry,
//! each resync, promote drain or initial copy as one step, hundreds per
//! trial where the grid above has tens:
//!
//! 10. **Backup image at every apply boundary** — the shop stays *open* on
//!     the replicas (an [`ImageFollower`] fed from the backup array's
//!     change feed, equal at every step to a from-scratch
//!     `EcomState::recover_image`): after each step both databases must
//!     recover and no item may be oversold. The first step that breaks
//!     this is one `backup-image` violation stamped with that step's
//!     instant; the image is followed on (the judge reads it) but not
//!     judged again. At quiesce the followed image must equal the
//!     from-scratch open check 5 makes (`image-follower` otherwise).
//!
//! At final quiescence it additionally checks:
//!
//! 4. **Journal drain** — both journals of every group empty, every pair's
//!    acked count equals its applied count (RPO drains to zero once all
//!    faults heal).
//! 5. **Business recovery** — both databases recover from the backup-site
//!    replicas, the cross-database invariant holds, and no order committed
//!    at the main site is missing from the drained backup.
//! 6. **Snapshot crash consistency** — every snapshot group taken during a
//!    fault window recovers into consistent databases.
//!
//! Supervised trials (`ChaosConfig::supervisor`) add:
//!
//! 7. **Convergence** — after the last heal plus the grace window, every
//!    group that still owns pairs must be back to PAIR (`Active`), or
//!    explicitly parked by the supervisor's circuit breaker (which also
//!    raised a telemetry alarm). Anything else — still suspended, still
//!    promoted — is a recovery the supervisor failed to finish.

use std::collections::BTreeMap;

use tsuru_core::TwoSiteRig;
use tsuru_ecom::{ImageFollower, Recovered, RecoveryOutcome};
use tsuru_sim::SimTime;
use tsuru_storage::{GroupId, GroupState, SnapshotId, Tracer};

use crate::alert::AlertSummary;

/// How many trailing trace records the auditor attaches to a violation.
const TRACE_WINDOW: usize = 8;

/// One invariant violation, timestamped in simulated time.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Violation {
    /// When the audit observed it.
    pub at: SimTime,
    /// Which invariant (stable short label).
    pub invariant: &'static str,
    /// Human-readable specifics.
    pub detail: String,
    /// Trailing window of the causal trace at observation time, rendered
    /// one record per line with span ids (`#N`). Empty when the trial ran
    /// without tracing.
    pub trace: Vec<String>,
}

/// Summary of the armed supervisor's recovery work for one trial.
/// Present only on trials that ran with the supervisor armed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SupervisorSummary {
    /// Groups still owning pairs at quiesce.
    pub groups_total: u64,
    /// Of those, groups that converged back to PAIR (`Active`).
    pub groups_pair: u64,
    /// Of those, groups parked by the circuit breaker.
    pub groups_parked: u64,
    /// Probe passes executed.
    pub probes: u64,
    /// Resync attempts issued.
    pub attempts: u64,
    /// Attempts that ran as delta resyncs.
    pub delta_resyncs: u64,
    /// Attempts degraded to full initial copies (journal debt over
    /// threshold).
    pub full_resyncs: u64,
    /// Parked pumps restarted by probes.
    pub pump_kicks: u64,
    /// Recovery episodes closed healthy.
    pub heals: u64,
    /// Automatic failovers performed.
    pub failovers: u64,
    /// Automatic failbacks completed.
    pub failbacks: u64,
    /// Slowest suspension-to-healthy episode, in microseconds of
    /// sim-time.
    pub tth_max_us: u64,
}

/// Summary of the client-visible history judgement for one trial.
/// Present only on trials that ran with history recording enabled.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HistorySummary {
    /// Records in the judged history.
    pub records: u64,
    /// Operations judged across every applicable checker.
    pub ops_checked: u64,
    /// Client-visible anomalies found (each is also a `client-history`
    /// violation in the report).
    pub anomalies: u64,
}

/// The auditor's verdict for one chaos trial.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ChaosReport {
    /// Backup-mode label (`adc-cg` / `adc-naive`).
    pub mode: String,
    /// Trial seed.
    pub seed: u64,
    /// Distinct fault kinds injected.
    pub kinds: Vec<String>,
    /// Fault events in the plan.
    pub events: usize,
    /// Audit points evaluated (mid-run + final).
    pub audits: u64,
    /// Orders committed by the workload.
    pub committed_orders: u64,
    /// Client-visible history judgement (history trials only).
    pub history: Option<HistorySummary>,
    /// Supervisor recovery summary (supervised trials only).
    pub supervisor: Option<SupervisorSummary>,
    /// SLO incidents scored against the injected ground truth (alert
    /// trials only).
    pub alerts: Option<AlertSummary>,
    /// Every violation observed, in audit order.
    pub violations: Vec<Violation>,
}

impl ChaosReport {
    /// Zero violations across every audit point?
    pub fn is_clean(&self) -> bool {
        self.violations.is_empty()
    }

    /// Deterministic multi-line rendering — byte-identical for identical
    /// (seed, plan, mode) regardless of harness thread count.
    pub fn render(&self) -> String {
        let mut out = format!(
            "chaos mode={} seed={} events={} kinds=[{}] audits={} orders={} violations={}\n",
            self.mode,
            self.seed,
            self.events,
            self.kinds.join(","),
            self.audits,
            self.committed_orders,
            self.violations.len(),
        );
        // The history line only appears on history-judged trials, so
        // plain chaos renders stay byte-identical to the pre-history
        // format.
        if let Some(h) = &self.history {
            out.push_str(&format!(
                "  history records={} ops_checked={} anomalies={}\n",
                h.records, h.ops_checked, h.anomalies
            ));
        }
        // Likewise the supervisor line only appears on supervised trials.
        if let Some(s) = &self.supervisor {
            out.push_str(&format!(
                "  supervisor pair={}/{} parked={} probes={} attempts={} delta={} full={} \
                 kicks={} heals={} failovers={} failbacks={} tth_max_us={}\n",
                s.groups_pair,
                s.groups_total,
                s.groups_parked,
                s.probes,
                s.attempts,
                s.delta_resyncs,
                s.full_resyncs,
                s.pump_kicks,
                s.heals,
                s.failovers,
                s.failbacks,
                s.tth_max_us,
            ));
        }
        // And the alerts block only appears on alert trials.
        if let Some(a) = &self.alerts {
            out.push_str(&format!(
                "  alerts profile={} evals={} incidents={} open={} tp={} fp={} recall={}/{}\n",
                a.profile,
                a.evals,
                a.incidents,
                a.open_at_quiesce,
                a.true_positives,
                a.false_positives,
                a.kinds_detected(),
                a.kinds.len(),
            ));
            for k in &a.kinds {
                if k.detected {
                    out.push_str(&format!(
                        "    fault {:<18} detected latency_us={}\n",
                        k.kind, k.latency_us
                    ));
                } else {
                    out.push_str(&format!("    fault {:<18} missed\n", k.kind));
                }
            }
        }
        for v in &self.violations {
            out.push_str(&format!(
                "  {:>12} {:<22} {}\n",
                v.at.to_string(),
                v.invariant,
                v.detail
            ));
            // Trace lines only appear on traced trials, so untraced
            // renders stay byte-identical to the pre-telemetry format.
            for line in &v.trace {
                out.push_str(&format!("      trace {line}\n"));
            }
        }
        out
    }
}

/// Incremental auditor state for one trial.
pub struct Auditor {
    groups: Vec<GroupId>,
    prev_states: BTreeMap<GroupId, GroupState>,
    /// Snapshot groups taken during fault windows, for the final audit.
    snapshots: Vec<(SimTime, Vec<SnapshotId>)>,
    /// Handle on the rig's tracer: violations attach the trailing trace
    /// window so a report references the span ids that led up to it.
    tracer: Tracer,
    /// Audit points evaluated so far.
    pub audits: u64,
    /// Violations collected so far.
    pub violations: Vec<Violation>,
    /// Client-visible history judgement, once the judge has run.
    history: Option<HistorySummary>,
    /// Incidents scored against the injected plan, once the alert
    /// harvest has run.
    alerts: Option<AlertSummary>,
    /// Demand convergence at quiesce (check 7, supervised trials).
    expect_convergence: bool,
    /// The backup image, kept current from the backup array's change feed.
    image: ImageFollower,
    /// Check 10 has convicted: the image is followed on, not judged again.
    image_convicted: bool,
}

/// What breaks check 10 in the followed image right now, if anything.
fn image_offence(image: &ImageFollower) -> Option<String> {
    let (sales, stock) = image.view();
    for (name, db) in [("sales", sales), ("stock", stock)] {
        if let Err(e) = db {
            return Some(format!("{name} does not open: {e}"));
        }
    }
    let oversold = image.oversold()?;
    (!oversold.is_empty()).then(|| format!("oversold: {oversold:?}"))
}

impl Auditor {
    /// An auditor over the rig's groups. The backup-site replicas are
    /// watched from here on (check 10).
    pub fn new(rig: &mut TwoSiteRig) -> Self {
        let prev_states = rig
            .groups
            .iter()
            .map(|&g| (g, rig.world.st.fabric.group(g).state))
            .collect();
        Auditor {
            groups: rig.groups.clone(),
            prev_states,
            snapshots: Vec::new(),
            tracer: rig.world.st.tracer.clone(),
            audits: 0,
            violations: Vec::new(),
            history: None,
            alerts: None,
            expect_convergence: false,
            image: rig.follow_backup(),
            image_convicted: false,
        }
    }

    /// The followed backup image, current as of the last
    /// [`Auditor::follow`].
    pub fn image(&self) -> &ImageFollower {
        &self.image
    }

    /// Drain the backup array's change feed into the followed image and
    /// apply check 10 after every step in it. Call at every timeline step,
    /// so the feed never holds more than one step's worth.
    pub fn follow(&mut self, rig: &mut TwoSiteRig) {
        let now = rig.sim.now();
        let feed = rig.world.st.array_mut(rig.backup).drain_feed();
        if self.image_convicted {
            // Followed on for the judge's reads, no longer judged: nobody
            // looks between two timeline steps.
            return self.image.follow(feed, now, None);
        }
        let mut offence = None;
        self.image.follow(
            feed,
            now,
            Some(&mut |image, at| {
                if offence.is_none() {
                    offence = image_offence(image).map(|detail| (at, detail));
                }
            }),
        );
        if let Some((at, detail)) = offence {
            self.image_convicted = true;
            self.violate(at, "backup-image", detail);
        }
    }

    /// Attach the client-visible history judgement to the final report.
    pub(crate) fn set_history(&mut self, summary: HistorySummary) {
        self.history = Some(summary);
    }

    /// Attach the ground-truth-scored alert verdict to the final report.
    pub(crate) fn set_alerts(&mut self, summary: AlertSummary) {
        self.alerts = Some(summary);
    }

    /// Demand convergence at quiesce: every group still owning pairs must
    /// end `Active` or circuit-breaker parked (check 7).
    pub fn expect_convergence(&mut self) {
        self.expect_convergence = true;
    }

    /// Record a snapshot group taken mid-fault (audited at quiesce).
    pub fn record_snapshot_group(&mut self, at: SimTime, snaps: Vec<SnapshotId>) {
        self.snapshots.push((at, snaps));
    }

    pub(crate) fn violate(&mut self, at: SimTime, invariant: &'static str, detail: String) {
        self.violations.push(Violation {
            at,
            invariant,
            detail,
            trace: self.tracer.tail(TRACE_WINDOW),
        });
    }

    /// The mid-run invariant set (checks 1–3, 8 and 9, after bringing
    /// check 10 up to now). Call at fault starts, heals, and on the periodic
    /// sample grid.
    pub fn audit_point(&mut self, rig: &mut TwoSiteRig) {
        self.follow(rig);
        let rig = &*rig;
        self.audits += 1;
        let now = rig.sim.now();
        let st = &rig.world.st;
        let groups = self.groups.clone();

        // 1. Write-order fidelity of every backup image.
        let report = st.verify_consistency(&groups);
        if !report.prefix.consistent {
            for v in &report.prefix.violations {
                self.violate(now, "prefix-cut", v.clone());
            }
        }
        for m in &report.content_mismatches {
            self.violate(now, "content-mismatch", m.clone());
        }

        // 2. No parked pump with work, an up link, live arrays and an
        // Active group. A failed member array exempts the group: the pump
        // is *supposed* to park then (kicking it would churn), and the
        // array heal resyncs and restarts it.
        for &gid in &groups {
            let g = st.fabric.group(gid);
            if g.state != GroupState::Active || g.pump_scheduled {
                continue;
            }
            if !st.net.link(g.link).is_up(now) {
                continue;
            }
            let any_array_failed = g.pairs.iter().any(|&pid| {
                let p = st.fabric.pair(pid);
                st.array(p.primary.array).is_failed() || st.array(p.secondary.array).is_failed()
            });
            if any_array_failed {
                continue;
            }
            let has_backlog = g
                .primary_jnl
                .map(|j| st.fabric.journal(j).has_unsent())
                .unwrap_or(false);
            if has_backlog {
                self.violate(
                    now,
                    "parked-pump",
                    format!("group g{} has unsent backlog, link up, pump idle", gid.0),
                );
            }
        }

        // 3. Lifecycle legality of observed state transitions.
        for &gid in &groups {
            let cur = st.fabric.group(gid).state;
            let prev = self.prev_states.insert(gid, cur).unwrap_or(cur);
            if !prev.can_transition_to(cur) {
                self.violate(
                    now,
                    "illegal-transition",
                    format!("group g{}: {prev:?} -> {cur:?}", gid.0),
                );
            }
        }

        // 8. The incrementally maintained totals match a full rescan.
        let (running, scanned) = (
            st.fabric.replication_totals(),
            st.fabric.scan_replication_totals(),
        );
        if running != scanned {
            self.violate(
                now,
                "replication-totals",
                format!("running {running:?} != rescanned {scanned:?}"),
            );
        }

        // 9. Every pump parked on link backlog is on a list that will wake.
        for v in st.lane_wait_violations(now) {
            self.violate(now, "lane-wait", v);
        }
    }

    /// The final-quiescence invariant set (checks 4–6) plus a last
    /// mid-run pass. `drained` is the from-scratch open of the drained
    /// backup image (`rig.recover_from_backup()`, made once per trial and
    /// shared with the judge's final read). Consumes the auditor and
    /// produces the report.
    pub fn finish(
        mut self,
        rig: &mut TwoSiteRig,
        drained: &RecoveryOutcome,
        seed: u64,
        kinds: Vec<String>,
        events: usize,
    ) -> ChaosReport {
        self.audit_point(rig);
        let rig = &*rig;
        let now = rig.sim.now();
        let st = &rig.world.st;
        let groups = self.groups.clone();

        // 4. Journals drained, acked == applied for every pair.
        for &gid in &groups {
            let g = st.fabric.group(gid);
            for jid in [g.primary_jnl, g.secondary_jnl].into_iter().flatten() {
                let j = st.fabric.journal(jid);
                if !j.is_empty() {
                    self.violate(
                        now,
                        "journal-not-drained",
                        format!("group g{}: {} entries left", gid.0, j.len()),
                    );
                }
            }
            for &pid in &g.pairs {
                let p = st.fabric.pair(pid);
                if p.acked_writes != p.applied_writes {
                    self.violate(
                        now,
                        "rpo-not-zero",
                        format!(
                            "pair {}: acked {} != applied {}",
                            p.id.0, p.acked_writes, p.applied_writes
                        ),
                    );
                }
            }
        }

        // 5. Business recovery from the drained backup replicas.
        let outcome = drained;
        if let Err(e) = &outcome.sales {
            self.violate(now, "recovery-failed", format!("sales: {e:?}"));
        }
        if let Err(e) = &outcome.stock {
            self.violate(now, "recovery-failed", format!("stock: {e:?}"));
        }
        if let Some(inv) = &outcome.invariant {
            if !inv.consistent() {
                self.violate(now, "cross-db", format!("{inv:?}"));
            }
        }
        if let Some(orders) = &outcome.orders {
            if orders.lost != 0 {
                self.violate(
                    now,
                    "orders-lost-after-drain",
                    format!(
                        "{} of {} committed orders missing",
                        orders.lost, orders.committed
                    ),
                );
            }
        }

        // 10, anchored: what the follower holds after the last step is what
        // opening the drained image from scratch finds.
        // (The recovery reports, not the trees: comparing every row at
        // every step is `tests/follower.rs`.)
        let brief = |db: &Recovered| match db {
            Ok((_, report)) => format!("{report:?}"),
            Err(e) => format!("{e:?}"),
        };
        let (sales, stock) = self.image.view();
        let followed = (brief(sales), brief(stock), self.image.oversold());
        let opened = (
            brief(&outcome.sales),
            brief(&outcome.stock),
            outcome.invariant.as_ref().map(|i| i.violations.clone()),
        );
        if followed != opened {
            self.violate(
                now,
                "image-follower",
                format!("followed {followed:?} != opened {opened:?}"),
            );
        }

        // 6. Crash consistency of every snapshot group taken mid-fault.
        let snapshots = std::mem::take(&mut self.snapshots);
        for (taken_at, snaps) in &snapshots {
            self.audit_snapshot_group(rig, *taken_at, snaps);
        }

        // 7. Convergence (supervised trials): every group still owning
        // pairs is back to PAIR, or explicitly circuit-breaker parked.
        // Fold the supervisor's recovery work into the report.
        let supervisor = st.supervisor().map(|sv| {
            let stats = sv.stats();
            let mut summary = SupervisorSummary {
                groups_total: 0,
                groups_pair: 0,
                groups_parked: 0,
                probes: stats.probes,
                attempts: stats.attempts,
                delta_resyncs: stats.delta_resyncs,
                full_resyncs: stats.full_resyncs,
                pump_kicks: stats.pump_kicks,
                heals: stats.heals,
                failovers: stats.failovers,
                failbacks: stats.failbacks,
                tth_max_us: stats.time_to_heal_max.as_micros(),
            };
            for &gid in &groups {
                let g = st.fabric.group(gid);
                if g.pairs.is_empty() {
                    // A failed-over group hands its pairs to the reverse
                    // group; the husk has nothing left to converge.
                    continue;
                }
                summary.groups_total += 1;
                if g.state == GroupState::Active {
                    summary.groups_pair += 1;
                } else if sv.is_parked(gid) {
                    summary.groups_parked += 1;
                }
            }
            summary
        });
        if self.expect_convergence {
            let sv = st.supervisor().expect("convergence demands a supervisor");
            for &gid in &groups {
                let g = st.fabric.group(gid);
                if g.pairs.is_empty() || g.state == GroupState::Active || sv.is_parked(gid) {
                    continue;
                }
                self.violate(
                    now,
                    "unconverged-group",
                    format!(
                        "group g{} ended {:?} (supervisor stage {:?})",
                        gid.0,
                        g.state,
                        sv.stage(gid)
                    ),
                );
            }
        }

        ChaosReport {
            mode: rig.config.mode.label().to_string(),
            seed,
            kinds,
            events,
            audits: self.audits,
            committed_orders: rig.committed_orders(),
            history: self.history,
            supervisor,
            alerts: self.alerts.take(),
            violations: self.violations,
        }
    }

    /// Recover both databases from a 4-volume snapshot group and check the
    /// cross-database invariant (the snapshot must be crash-consistent).
    fn audit_snapshot_group(&mut self, rig: &TwoSiteRig, taken_at: SimTime, snaps: &[SnapshotId]) {
        let now = rig.sim.now();
        if snaps.len() != 4 {
            self.violate(
                now,
                "snapshot-group-short",
                format!("snapshot group at {taken_at} has {} members", snaps.len()),
            );
            return;
        }
        match rig.open_snapshots(snaps) {
            (Ok((s, _)), Ok((t, _))) => {
                let inv = rig.world.app().check_image(&s, &t);
                if !inv.consistent() {
                    self.violate(
                        now,
                        "snapshot-cross-db",
                        format!("snapshot group at {taken_at}: {inv:?}"),
                    );
                }
            }
            (sales, stock) => {
                for (name, r) in [("sales", sales), ("stock", stock)] {
                    if let Err(e) = r {
                        self.violate(
                            now,
                            "snapshot-recovery-failed",
                            format!("snapshot group at {taken_at}, {name}: {e:?}"),
                        );
                    }
                }
            }
        }
    }
}
