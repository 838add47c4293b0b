//! Link-fault regression tests: parked transfer pumps across indefinite
//! outages, lossy/flapping links never reordering journal apply, and
//! pumps parked on a saturated lane's wait list while the control plane
//! moves under them.
//!
//! These cover the seams the chaos engine leans on hardest:
//!
//! - `TransferOutcome::Down(None)` parks the transfer pump, and only a new
//!   append or an explicit kick restarts it — every heal path must go
//!   through [`heal_link`]/[`heal_all_links`] or a silent group stays
//!   silent forever;
//! - random frame loss and scheduled outages force retransmissions, which
//!   must never let a later journal entry overtake an earlier one (the
//!   backup journal asserts contiguous sequence numbers on arrival);
//! - a pump waiting out link backlog owns no kernel event, only an entry
//!   on the link's wait list: outages, heals, bandwidth changes, resyncs,
//!   suspends, promotes and array failures while it waits must leave it
//!   either woken by the lane's one wake or dropped as stale — never lost,
//!   never doubled, nothing sent twice.

#![allow(
    clippy::field_reassign_with_default,
    reason = "a test starts from the default config and sets the fields under test one line each"
)]

mod common;

use common::{at, Ev};
use proptest::prelude::*;
use tsuru_sim::{Sim, SimDuration, SimTime};
use tsuru_simnet::LinkConfig;
use tsuru_storage::engine::{heal_link, host_write, MAX_LINK_BACKLOG};
use tsuru_storage::{
    block_from, ArrayId, ArrayPerf, EngineConfig, GroupId, GroupState, HasStorage, StorageWorld,
    VolRef, VolumeRole,
};

struct World {
    st: StorageWorld,
}

impl HasStorage for World {
    fn storage(&self) -> &StorageWorld {
        &self.st
    }
    fn storage_mut(&mut self) -> &mut StorageWorld {
        &mut self.st
    }
}

struct Rig {
    world: World,
    sim: Sim<World, Ev<World>>,
    group: GroupId,
    link: tsuru_simnet::LinkId,
    primaries: Vec<VolRef>,
}

/// Two arrays, one ADC consistency group with two pairs over `link_cfg`.
fn rig(seed: u64, config: EngineConfig, link_cfg: LinkConfig) -> Rig {
    let mut st = StorageWorld::new(seed, config);
    let main = st.add_array("vsp-main", ArrayPerf::default());
    let backup = st.add_array("vsp-backup", ArrayPerf::default());
    let link = st.add_link(link_cfg);
    let reverse = st.add_link(LinkConfig::metro());
    let group = st.create_adc_group("g", link, reverse, 1 << 24);
    let mut primaries = Vec::new();
    for i in 0..2u64 {
        let p = st.create_volume(main, format!("p{i}"), 64);
        let s = st.create_volume(backup, format!("s{i}"), 64);
        st.add_pair(group, p, s);
        primaries.push(p);
    }
    Rig {
        world: World { st },
        sim: Sim::new(),
        group,
        link,
        primaries,
    }
}

fn write_at(sim: &mut Sim<World, Ev<World>>, t: SimTime, vol: VolRef, lba: u64, tag: u64) {
    at(sim, t, move |w: &mut World, sim| {
        host_write(
            w,
            sim,
            vol,
            lba,
            block_from(&tag.to_le_bytes()),
            |_, _, _| {},
        );
    });
}

fn assert_group_consistent(r: &Rig) {
    let report = r.world.st.verify_consistency(&[r.group]);
    assert!(
        report.prefix.consistent,
        "prefix violations: {:?}",
        report.prefix.violations
    );
    assert!(
        report.content_mismatches.is_empty(),
        "content mismatches: {:?}",
        report.content_mismatches
    );
}

/// Regression for the parked-pump path: a group that goes completely
/// silent during an indefinite outage (no further appends) must resume
/// draining when the link heals — `heal_link` kicks the parked pump.
#[test]
fn silent_group_resumes_after_indefinite_outage_heal() {
    let mut r = rig(7, EngineConfig::default(), LinkConfig::metro());
    let [p0, p1] = [r.primaries[0], r.primaries[1]];

    // A few replicated writes, fully drained.
    for i in 0..4 {
        write_at(&mut r.sim, SimTime::from_millis(i), p0, i, 100 + i);
        write_at(&mut r.sim, SimTime::from_millis(i), p1, i, 200 + i);
    }
    r.sim.run_until(&mut r.world, SimTime::from_millis(20));

    // Indefinite partition, then more writes while down. The transfer
    // pump observes Down(None) and parks; after the last ack the group is
    // silent.
    let now = r.sim.now();
    r.world.st.net.link_mut(r.link).set_down(now, None);
    for i in 4..8 {
        write_at(&mut r.sim, SimTime::from_millis(16 + i), p0, i, 100 + i);
        write_at(&mut r.sim, SimTime::from_millis(16 + i), p1, i, 200 + i);
    }
    r.sim.run_until(&mut r.world, SimTime::from_millis(200));
    assert_eq!(r.sim.pending(), 0, "group should be fully silent (parked)");

    let g = r.world.st.fabric.group(r.group);
    assert!(!g.pump_scheduled, "pump must be parked during the outage");
    let jnl = r.world.st.fabric.journal(g.primary_jnl.unwrap());
    assert!(
        jnl.has_unsent(),
        "outage-era writes must be stuck in the primary journal"
    );

    // Heal through the public API: link up + kick. The backlog drains with
    // no new appends needed.
    heal_link(&mut r.world, &mut r.sim, r.link);
    r.sim.run(&mut r.world);

    let jnl = r
        .world
        .st
        .fabric
        .journal(r.world.st.fabric.group(r.group).primary_jnl.unwrap());
    assert!(jnl.is_empty(), "journal must drain after heal");
    assert_group_consistent(&r);
    for i in 0..8u64 {
        assert_eq!(
            &r.world.st.read_direct(r.primaries[0], i).unwrap()[..8],
            &(100 + i).to_le_bytes(),
        );
    }
}

/// Without the kick a parked pump really does stay parked — this pins the
/// hazard the heal API exists to fix (and documents why `Link::set_up`
/// alone is not a heal).
#[test]
fn set_up_alone_leaves_pump_parked() {
    let mut r = rig(8, EngineConfig::default(), LinkConfig::metro());
    let p0 = r.primaries[0];
    write_at(&mut r.sim, SimTime::ZERO, p0, 0, 1);
    r.sim.run_until(&mut r.world, SimTime::from_millis(20));
    let now = r.sim.now();
    r.world.st.net.link_mut(r.link).set_down(now, None);
    write_at(&mut r.sim, SimTime::from_millis(21), p0, 1, 2);
    r.sim.run_until(&mut r.world, SimTime::from_millis(200));

    r.world.st.net.link_mut(r.link).set_up();
    r.sim.run(&mut r.world);
    let g = r.world.st.fabric.group(r.group);
    assert!(
        !r.world.st.fabric.journal(g.primary_jnl.unwrap()).is_empty(),
        "set_up without a kick must leave the backlog stuck (parked pump)"
    );
}

// ---------------------------------------------------------------------
// Pumps parked on a saturated lane's wait list
// ---------------------------------------------------------------------

struct LaneRig {
    world: World,
    sim: Sim<World, Ev<World>>,
    main: ArrayId,
    link: tsuru_simnet::LinkId,
    groups: Vec<GroupId>,
    vols: Vec<VolRef>,
}

const LANE_BYTES_PER_SEC: u64 = 1_000_000;

/// `n` single-pair ADC groups sharing one 1 MB/s data link. A one-block
/// frame (4 224 B) takes 4.2 ms to serialise against the 5 ms backlog cap,
/// so the first two groups to send fill the lane and the rest park. No
/// pump jitter: the pumps run in the order of the writes that kick them.
fn lane_rig(seed: u64, n: usize) -> LaneRig {
    lane_rig_at(seed, n, LANE_BYTES_PER_SEC)
}

fn lane_rig_at(seed: u64, n: usize, bytes_per_sec: u64) -> LaneRig {
    let mut config = EngineConfig::default();
    config.pump_jitter = SimDuration::ZERO;
    let mut st = StorageWorld::new(seed, config);
    let main = st.add_array("vsp-main", ArrayPerf::default());
    let backup = st.add_array("vsp-backup", ArrayPerf::default());
    let link = st.add_link(LinkConfig::with(SimDuration::from_millis(1), bytes_per_sec));
    let reverse = st.add_link(LinkConfig::metro());
    let (mut groups, mut vols) = (Vec::new(), Vec::new());
    for i in 0..n {
        let g = st.create_adc_group(format!("g{i}"), link, reverse, 1 << 24);
        let p = st.create_volume(main, format!("p{i}"), 16);
        let s = st.create_volume(backup, format!("s{i}"), 16);
        st.add_pair(g, p, s);
        groups.push(g);
        vols.push(p);
    }
    LaneRig {
        world: World { st },
        sim: Sim::new(),
        main,
        link,
        groups,
        vols,
    }
}

impl LaneRig {
    /// One write per group at t ≈ 0, then run to t = 2 ms: groups 0 and 1
    /// have sent, groups 2.. are parked behind the backlog with their entry
    /// unsent — and behind them groups 0 and 1, whose next cycle found the
    /// lane over the cap before it looked for work (the backlog check
    /// comes first, as it did when the pump polled).
    fn saturate(&mut self) {
        for (i, &v) in self.vols.iter().enumerate() {
            write_at(
                &mut self.sim,
                SimTime::from_micros(i as u64),
                v,
                0,
                100 + i as u64,
            );
        }
        self.sim.run_until(&mut self.world, SimTime::from_millis(2));
        let mut expect = self.groups[2..].to_vec();
        expect.extend(&self.groups[..2]);
        assert_eq!(self.parked(), expect);
        for (i, &g) in self.groups.iter().enumerate() {
            assert_eq!(self.sent(g), if i < 2 { (1, 1) } else { (0, 0) });
        }
        self.assert_lane_invariant();
    }

    /// Groups with a live (current-generation) entry on the wait list, in
    /// list order.
    fn parked(&self) -> Vec<GroupId> {
        let st = &self.world.st;
        st.lane_waits()
            .waiters(self.link)
            .filter(|w| st.fabric.group(w.gid).generation == w.gen)
            .map(|w| w.gid)
            .collect()
    }

    /// The chaos auditor's check 9.
    fn assert_lane_invariant(&self) {
        let violations = self.world.st.lane_wait_violations(self.sim.now());
        assert!(violations.is_empty(), "{violations:?}");
    }

    fn sent(&self, g: GroupId) -> (u64, u64) {
        let s = &self.world.st.fabric.group(g).stats;
        (s.frames_sent, s.entries_transferred)
    }

    /// Quiescent end state: no event, no waiter, no wake, clean backup.
    fn assert_quiescent_and_consistent(&self) {
        let st = &self.world.st;
        assert_eq!(self.sim.pending(), 0);
        assert_eq!(st.lane_waits().waiters(self.link).count(), 0);
        assert_eq!(st.lane_waits().wake_at(self.link), None);
        self.assert_lane_invariant();
        // One group per volume: write order is promised within a group.
        for &g in &self.groups {
            let report = st.verify_consistency(&[g]);
            assert!(report.is_consistent(), "g{}: {report:?}", g.0);
        }
    }

    fn assert_drained(&self, g: GroupId) {
        let grp = self.world.st.fabric.group(g);
        for j in [grp.primary_jnl.unwrap(), grp.secondary_jnl.unwrap()] {
            assert!(
                self.world.st.fabric.journal(j).is_empty(),
                "g{} journal",
                g.0
            );
        }
    }
}

/// A definite outage opens while pumps are parked: the wake fires into the
/// outage, every waiter learns the up instant from the link and retries
/// then (exactly what a poller would have learnt on its next tick), and
/// each entry crosses the link once.
#[test]
fn parked_pumps_ride_out_a_definite_outage() {
    let mut r = lane_rig(21, 6);
    r.saturate();
    let now = r.sim.now();
    let up = now + SimDuration::from_millis(30);
    r.world.st.net.link_mut(r.link).set_down(now, Some(up));

    r.sim.run_until(&mut r.world, SimTime::from_millis(10));
    assert!(
        r.parked().is_empty(),
        "the wake hands every waiter to its RetryAt"
    );
    for &g in &r.groups[2..] {
        assert!(r.world.st.fabric.group(g).pump_scheduled);
        assert_eq!(r.sent(g), (0, 0));
    }
    r.assert_lane_invariant();

    r.sim.run(&mut r.world);
    for &g in &r.groups {
        assert_eq!(r.sent(g), (1, 1), "g{} sent exactly once", g.0);
        r.assert_drained(g);
    }
    r.assert_quiescent_and_consistent();
}

/// An indefinite outage opens while pumps are parked: the wake finds the
/// link down with no end, the pumps go idle (as after any `Down(None)`),
/// and `heal_link` restarts them.
#[test]
fn parked_pumps_go_idle_in_an_indefinite_outage_and_heal_restarts_them() {
    let mut r = lane_rig(22, 6);
    r.saturate();
    let now = r.sim.now();
    r.world.st.net.link_mut(r.link).set_down(now, None);
    r.sim.run_until(&mut r.world, SimTime::from_millis(200));
    assert_eq!(r.sim.pending(), 0, "every pump is silent");
    assert!(r.parked().is_empty());
    for &g in &r.groups[2..] {
        let grp = r.world.st.fabric.group(g);
        assert!(!grp.pump_scheduled && !grp.pump_parked);
        assert_eq!(r.sent(g), (0, 0));
    }

    heal_link(&mut r.world, &mut r.sim, r.link);
    r.sim.run(&mut r.world);
    for &g in &r.groups {
        assert_eq!(r.sent(g), (1, 1), "g{} sent exactly once", g.0);
        r.assert_drained(g);
    }
    r.assert_quiescent_and_consistent();
}

/// The chaos `PumpStall` fault — bandwidth to 1/50 and back — while pumps
/// are parked. A bandwidth change prices later admissions only, so the
/// armed wake stays exact through both edges; the one frame admitted at
/// the slow rate holds the lane for its whole serialisation time and the
/// waiters behind it stay parked, woken one frame at a time.
#[test]
fn parked_pumps_keep_an_exact_wake_across_a_bandwidth_stall() {
    let mut r = lane_rig(23, 6);
    r.saturate();
    let wake = r.world.st.lane_waits().wake_at(r.link).expect("armed");
    r.world
        .st
        .net
        .link_mut(r.link)
        .set_bandwidth(LANE_BYTES_PER_SEC / 50);
    assert_eq!(
        r.world
            .st
            .net
            .link(r.link)
            .backlog_clears_at(r.sim.now(), MAX_LINK_BACKLOG),
        wake,
        "a bandwidth drop does not move the instant the backlog clears"
    );
    // The head is admitted at the armed instant and sends at the slow rate.
    r.sim.run_until(&mut r.world, wake);
    assert_eq!(r.sent(r.groups[2]), (1, 1));
    assert_eq!(r.parked().len(), 5);
    let slow_wake = r.world.st.lane_waits().wake_at(r.link).expect("re-armed");
    assert!(
        slow_wake > wake + SimDuration::from_millis(200),
        "211 ms frame ahead"
    );

    r.world
        .st
        .net
        .link_mut(r.link)
        .set_bandwidth(LANE_BYTES_PER_SEC);
    assert_eq!(r.world.st.lane_waits().wake_at(r.link), Some(slow_wake));
    r.sim
        .run_until(&mut r.world, SimTime::from_nanos(slow_wake.as_nanos() - 1));
    // (Six again: the group that sent is back in line for its next cycle.)
    assert_eq!(
        r.parked().len(),
        6,
        "restoring bandwidth frees no admitted bits"
    );
    r.assert_lane_invariant();

    r.sim.run(&mut r.world);
    for &g in &r.groups {
        assert_eq!(r.sent(g), (1, 1), "g{} sent exactly once", g.0);
        r.assert_drained(g);
    }
    r.assert_quiescent_and_consistent();
}

/// A parked group is resynced: the generation bump strands its entry as
/// stale. A later append parks the group again under the new generation —
/// one live entry, never two — and the wake drops the stale one unserved.
#[test]
fn resync_while_parked_leaves_one_live_entry_and_drops_the_stale_one() {
    let mut r = lane_rig(24, 6);
    r.saturate();
    let (g, vol) = (r.groups[5], r.vols[5]);

    r.world.st.resync_group(g);
    assert!(!r.world.st.fabric.group(g).pump_parked);
    assert!(!r.parked().contains(&g), "the old entry is stale");
    r.assert_lane_invariant();

    let now = r.sim.now();
    write_at(&mut r.sim, now + SimDuration::from_micros(10), vol, 1, 777);
    r.sim.run_until(&mut r.world, SimTime::from_millis(3));
    let entries = |r: &LaneRig| {
        r.world
            .st
            .lane_waits()
            .waiters(r.link)
            .filter(|w| w.gid == g)
            .count()
    };
    assert_eq!(entries(&r), 2, "stale + live");
    assert_eq!(r.parked().iter().filter(|&&w| w == g).count(), 1);
    r.assert_lane_invariant();

    r.sim.run(&mut r.world);
    // The pre-resync entry went with the old journal (its block reached
    // the backup through the resync copy); only the new write is shipped.
    assert_eq!(r.sent(g), (1, 1));
    for &other in r.groups.iter().filter(|&&o| o != g) {
        assert_eq!(r.sent(other), (1, 1));
    }
    for &g in &r.groups {
        r.assert_drained(g);
    }
    r.assert_quiescent_and_consistent();
    assert_eq!(
        &r.world.st.read_direct(vol, 1).unwrap()[..8],
        &777u64.to_le_bytes()
    );
}

/// Suspend and promote while parked: the suspended group is popped by the
/// wake and goes idle with its entry unsent; the promoted group's entry is
/// stale (promotion bumps the generation) and is dropped. Neither blocks
/// the waiters behind it.
#[test]
fn suspend_and_promote_while_parked_release_the_lane() {
    let mut r = lane_rig(25, 6);
    r.saturate();
    let parked = r.parked();
    let (suspended, promoted) = (parked[0], parked[1]);
    let now = r.sim.now();
    r.world.st.suspend_group(suspended, now);
    r.world.st.promote_group(promoted);
    r.assert_lane_invariant();

    r.sim.run(&mut r.world);
    let st = &r.world.st;
    let sg = st.fabric.group(suspended);
    assert!(matches!(sg.state, GroupState::Suspended { .. }));
    assert!(!sg.pump_scheduled && !sg.pump_parked);
    assert_eq!(r.sent(suspended), (0, 0));
    assert_eq!(st.fabric.group(promoted).state, GroupState::Promoted);
    assert_eq!(r.sent(promoted), (0, 0));
    let psec = st.fabric.pair(st.fabric.group(promoted).pairs[0]).secondary;
    assert_eq!(
        st.array(psec.array).volume(psec.volume).role(),
        VolumeRole::Primary
    );
    for &g in r
        .groups
        .iter()
        .filter(|&&g| g != suspended && g != promoted)
    {
        assert_eq!(r.sent(g), (1, 1));
        r.assert_drained(g);
    }
    r.assert_quiescent_and_consistent();
}

/// The main site dies while pumps are parked: the wake still fires, finds
/// the primary failed and lets every waiter go idle — nothing is sent
/// after the failure instant, and the backup stays a consistent prefix.
#[test]
fn primary_failure_while_parked_sends_nothing_more() {
    let mut r = lane_rig(26, 6);
    r.saturate();
    let now = r.sim.now();
    r.world.st.fail_array(r.main, now);
    r.sim.run(&mut r.world);
    for &g in &r.groups[2..] {
        let grp = r.world.st.fabric.group(g);
        assert!(!grp.pump_scheduled && !grp.pump_parked);
        assert_eq!(r.sent(g), (0, 0));
    }
    r.assert_quiescent_and_consistent();
}

/// The auditor's check is not vacuous: a group that claims to be parked
/// with no entry behind the claim — a pump nothing will ever wake — and an
/// entry nobody claims are both reported.
#[test]
fn lane_wait_check_reports_a_lost_pump() {
    let mut r = lane_rig(27, 6);
    r.saturate();
    let now = r.sim.now();
    let (head, idle) = (r.parked()[0], r.groups[0]);
    r.world.st.fabric.group_mut(head).pump_parked = false;
    assert_eq!(
        r.world.st.lane_wait_violations(now).len(),
        1,
        "unclaimed entry"
    );
    r.world.st.fabric.group_mut(head).pump_parked = true;

    r.world.st.resync_group(idle); // strands its entry as stale
    r.world.st.fabric.group_mut(idle).pump_parked = true;
    let v = r.world.st.lane_wait_violations(now);
    assert_eq!(v.len(), 1, "claim without entry: {v:?}");
}

/// The transport costs what it ships, not what waits: on one saturated
/// lane, kernel events per acked write with 8 000 groups stay within 10 %
/// of the figure with 1 000 (4.21 and 4.25). A pump that polls the
/// backlog every `pump_interval` measured 12.1 and 109.7 here — each
/// blocked group re-arms an event per tick for as long as the queue ahead
/// of it lasts.
#[test]
fn events_per_write_do_not_grow_with_groups_on_a_saturated_lane() {
    let events_per_write = |n: usize| {
        // Four blocks per group in its first 150 µs, so every group ships
        // one four-entry frame at either scale; n × 16 KiB against
        // 500 MB/s is 33 ms of lane time at n = 1 000.
        let mut r = lane_rig_at(28, n, 500_000_000);
        for (i, &v) in r.vols.iter().enumerate() {
            for k in 0..4u64 {
                let at = SimTime::from_nanos(i as u64 * 211 + k * 50_000);
                write_at(&mut r.sim, at, v, k, k);
            }
        }
        r.sim.run(&mut r.world);
        for &g in &r.groups {
            assert_eq!(r.sent(g), (1, 4));
        }
        assert_eq!(r.sim.pending(), 0);
        r.assert_lane_invariant();
        r.sim.events_executed() as f64 / (4 * n) as f64
    };
    let (small, large) = (events_per_write(1_000), events_per_write(8_000));
    assert!(
        (large / small - 1.0).abs() < 0.10,
        "events per acked write: {small:.2} at 1 000 groups, {large:.2} at 8 000"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Random frame loss plus a scheduled mid-run outage: retransmitted
    /// frames must never reorder journal apply (the backup journal panics
    /// on any out-of-order arrival), and the backup converges to an exact
    /// consistent copy once the backlog drains.
    #[test]
    fn lossy_flapping_link_never_reorders_apply(
        seed in 0u64..64,
        loss in 0.0f64..0.4,
        outage_at_ms in 2u64..20,
        outage_len_ms in 1u64..30,
    ) {
        let mut link_cfg = LinkConfig::wan_lossy();
        link_cfg.loss_probability = loss;
        let mut r = rig(seed, EngineConfig::default(), link_cfg);
        let [p0, p1] = [r.primaries[0], r.primaries[1]];

        for i in 0..24u64 {
            write_at(&mut r.sim, SimTime::from_micros(i * 700), p0, i % 8, 1000 + i);
            write_at(&mut r.sim, SimTime::from_micros(i * 700 + 350), p1, i % 8, 2000 + i);
        }
        // Scheduled outage with an auto-expiring end: Down(Some) paths
        // retry at the advertised up instant, no manual heal needed.
        let start = SimTime::from_millis(outage_at_ms);
        let end = start + SimDuration::from_millis(outage_len_ms);
        at(&mut r.sim, start, move |w: &mut World, _| {
            let link = w.st.fabric.group(GroupId(0)).link;
            w.st.net.link_mut(link).set_down(start, Some(end));
        });

        r.sim.run(&mut r.world);

        let g = r.world.st.fabric.group(r.group);
        prop_assert!(r.world.st.fabric.journal(g.primary_jnl.unwrap()).is_empty());
        prop_assert!(r.world.st.fabric.journal(g.secondary_jnl.unwrap()).is_empty());
        let report = r.world.st.verify_consistency(&[r.group]);
        prop_assert!(report.prefix.consistent, "{:?}", report.prefix.violations);
        prop_assert!(report.content_mismatches.is_empty(), "{:?}", report.content_mismatches);
    }
}
