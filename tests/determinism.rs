//! Workspace-wide determinism: identical seeds produce bit-identical runs
//! across every layer, and different seeds genuinely differ.

use tsuru_core::experiments::{e1_slowdown, e2_collapse, e3_rpo, e5_operator, e6_demo};
use tsuru_core::{BackupMode, RigConfig, TrialHarness, TwoSiteRig};
use tsuru_sim::{SimDuration, SimTime};

fn fingerprint(seed: u64, mode: BackupMode) -> (u64, u64, Vec<(u64, SimTime)>) {
    let mut cfg = RigConfig {
        seed,
        mode,
        ..Default::default()
    };
    cfg.engine.pump_jitter = SimDuration::from_millis(1);
    let mut rig = TwoSiteRig::new(cfg);
    let fail_at = SimTime::from_millis(90);
    rig.schedule_main_failure(fail_at);
    tsuru_ecom::driver::start_clients(&mut rig.world, &mut rig.sim);
    rig.sim
        .run_until(&mut rig.world, fail_at + SimDuration::from_millis(120));
    let (_, rpo) = rig.failover(fail_at);
    (
        rig.world.st.ack_log.len() as u64,
        rpo.lost_writes,
        rig.world.app().metrics.committed_log.clone(),
    )
}

#[test]
fn same_seed_bit_identical_across_modes() {
    for mode in [
        BackupMode::AdcConsistencyGroup,
        BackupMode::AdcPerVolume,
        BackupMode::Sdc,
    ] {
        let a = fingerprint(1234, mode);
        let b = fingerprint(1234, mode);
        assert_eq!(a, b, "mode {} not deterministic", mode.label());
    }
}

#[test]
fn different_seeds_differ() {
    let a = fingerprint(1, BackupMode::AdcConsistencyGroup);
    let b = fingerprint(2, BackupMode::AdcConsistencyGroup);
    assert_ne!(a.2, b.2, "different seeds should produce different runs");
}

#[test]
fn experiment_tables_are_reproducible() {
    let serial = TrialHarness::serial();
    let a = e1_slowdown(&serial, 5, 8, &[2, 10], SimDuration::from_millis(100)).rows;
    let b = e1_slowdown(&serial, 5, 8, &[2, 10], SimDuration::from_millis(100)).rows;
    let key = |rows: &[tsuru_core::experiments::E1Row]| -> Vec<(String, u64, u64)> {
        rows.iter()
            .map(|r| (r.mode.clone(), r.tps as u64, (r.p50_ms * 1e6) as u64))
            .collect()
    };
    assert_eq!(key(&a), key(&b));

    let ea = e5_operator(&[10]);
    let eb = e5_operator(&[10]);
    assert_eq!(ea[0].api_mutations, eb[0].api_mutations);
    assert_eq!(ea[0].rounds, eb[0].rounds);
}

/// The tentpole guarantee: the E2 table out of the trial harness is
/// **byte-identical** at every thread count. Debug-formatting the rows
/// compares every field bit-for-bit (floats included, since identical
/// bits render identically).
#[test]
fn e2_rows_byte_identical_across_thread_counts() {
    let jitter = SimDuration::from_millis(2);
    let serial = e2_collapse(&TrialHarness::new(1), 1000, 6, jitter);
    let reference = format!("{:?}", serial.rows);
    for threads in [2usize, 8] {
        let par = e2_collapse(&TrialHarness::new(threads), 1000, 6, jitter);
        assert_eq!(par.stats.threads, threads);
        assert_eq!(
            format!("{:?}", par.rows),
            reference,
            "E2 rows diverged at {threads} threads"
        );
    }
}

/// Same guarantee for a grid-shaped experiment (cells, not drills).
#[test]
fn e3_rows_byte_identical_across_thread_counts() {
    let serial = e3_rpo(&TrialHarness::new(1), 7, &[100, 500], &[1, 64]);
    let par = e3_rpo(&TrialHarness::new(8), 7, &[100, 500], &[1, 64]);
    assert_eq!(format!("{:?}", serial.rows), format!("{:?}", par.rows));
}

#[test]
fn demo_transcript_is_reproducible() {
    let a = e6_demo(77);
    let b = e6_demo(77);
    assert_eq!(a.transcript, b.transcript);
    assert_eq!(a.committed_orders, b.committed_orders);
    assert_eq!(a.lost_orders, b.lost_orders);
}
