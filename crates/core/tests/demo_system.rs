//! End-to-end tests of the full demonstration system (container platforms,
//! operator, plugins) and the experiment runners.

#![allow(clippy::field_reassign_with_default)]

use tsuru_core::experiments::{e1_slowdown, e2_collapse, e5_operator, e6_demo, manual_steps};
use tsuru_core::{BackupMode, DemoConfig, DemoSystem, RigConfig, TrialHarness, TwoSiteRig};
use tsuru_nso::NsoConfig;
use tsuru_sim::{SimDuration, SimTime};

#[test]
fn demo_step1_tagging_configures_everything() {
    let mut demo = DemoSystem::new(DemoConfig::default());
    // Before tagging: no pairs, no claims at the backup site.
    assert!(demo.groups().is_empty());
    assert_eq!(demo.backup_api.pvcs.len(), 0);

    let (main, backup) = demo.step1_configure_backup();
    assert!(main.converged, "{main:?}");
    assert!(backup.converged, "{backup:?}");

    // One consistency group with four pairs.
    let groups = demo.groups();
    assert_eq!(groups.len(), 1, "one CG for the namespace");
    assert_eq!(demo.world.st.fabric.group(groups[0]).pairs.len(), 4);

    // Fig. 4: claims appeared at the backup site.
    assert_eq!(demo.backup_api.pvcs.len(), 4);
    assert!(demo.backup_api.pvcs.contains("shop/sales-wal"));

    // The ReplicationGroup CR rolled up to Replicating.
    let rg = demo
        .main_api
        .replication_groups
        .get("shop/shop-backup")
        .expect("CR exists");
    assert_eq!(rg.state, tsuru_container::ReplicationState::Replicating);
    assert_eq!(rg.member_pvcs.len(), 4);

    // The console screen shows both sites (Fig. 2).
    let screen = demo.console_screen();
    assert!(screen.iter().any(|l| l.contains("sales-wal")));
}

#[test]
fn demo_full_three_steps_and_disaster() {
    let out = e6_demo(21);
    assert!(out.committed_orders > 100, "workload ran");
    assert!(out.analytics_orders > 0, "analytics saw the snapshot");
    assert!(
        out.analytics_orders <= out.committed_orders,
        "snapshot is a past image"
    );
    assert!(out.failover_consistent, "CG failover must be consistent");
    assert!(out.business_recovered, "business process recovers");
    assert!(out.rto > SimDuration::ZERO);
    // Transcript reproduces the demo narration.
    let text = out.transcript.join("\n");
    assert!(text.contains("step 1"), "{text}");
    assert!(text.contains("step 2"));
    assert!(text.contains("step 3"));
    assert!(text.contains("failover"));
}

#[test]
fn demo_naive_policy_creates_per_volume_groups() {
    let mut cfg = DemoConfig::default();
    cfg.nso = NsoConfig {
        consistency_group: false,
        ..Default::default()
    };
    let mut demo = DemoSystem::new(cfg);
    demo.step1_configure_backup();
    assert_eq!(demo.groups().len(), 4, "one group per volume");
}

#[test]
fn e1_shape_adc_flat_sdc_grows_with_rtt() {
    let serial = TrialHarness::serial();
    let rows = e1_slowdown(&serial, 3, 8, &[2, 20], SimDuration::from_millis(150)).rows;
    assert_eq!(rows.len(), 6);
    let find = |mode: &str, rtt: f64| {
        rows.iter()
            .find(|r| r.mode == mode && r.rtt_ms == rtt)
            .unwrap()
    };
    // ADC stays within 20% of no-backup at both distances.
    for rtt in [2.0, 20.0] {
        let none = find("none", rtt);
        let adc = find("adc-cg", rtt);
        assert!(
            adc.p50_ms < none.p50_ms * 1.2 + 0.05,
            "rtt={rtt}: adc {} vs none {}",
            adc.p50_ms,
            none.p50_ms
        );
    }
    // SDC pays at least one RTT per transaction phase and grows with RTT.
    let sdc2 = find("sdc", 2.0);
    let sdc20 = find("sdc", 20.0);
    assert!(sdc2.p50_ms > 2.0, "SDC at 2ms RTT: {}", sdc2.p50_ms);
    assert!(sdc20.p50_ms > 20.0, "SDC at 20ms RTT: {}", sdc20.p50_ms);
    assert!(sdc20.p50_ms > sdc2.p50_ms * 4.0);
    // And throughput collapses accordingly (closed loop).
    assert!(find("adc-cg", 20.0).tps > sdc20.tps * 3.0);
}

#[test]
fn e2_shape_cg_never_collapses_naive_often_does() {
    // A naive drill collapses when the failure catches the per-volume
    // sessions apart, a coin weighted about 0.6 per drill. The bars are the
    // counts measured on this seed, as the old ones were: eight drills
    // collapsed 6 times and the bar was 6; since commits share log flushes
    // (DESIGN.md §20) fewer dependent writes are in flight and the same
    // eight collapse 3 times, so the test takes sixteen — 8 storage and 4
    // business collapses now, 9 and 6 before — to be clear of one short
    // run's luck without asking less of naive mode than it delivers.
    let rows = e2_collapse(&TrialHarness::serial(), 100, 16, SimDuration::from_millis(2)).rows;
    let cg = rows.iter().find(|r| r.mode == "adc-cg").unwrap();
    let naive = rows.iter().find(|r| r.mode == "adc-naive").unwrap();
    assert_eq!(cg.storage_collapses, 0, "{cg:?}");
    assert_eq!(cg.business_collapses, 0, "{cg:?}");
    assert!(
        naive.storage_collapses >= 8,
        "naive should violate fidelity in at least half the drills: {naive:?}"
    );
    assert!(
        naive.business_collapses >= 4,
        "and corrupt the business state in a quarter of them: {naive:?}"
    );
    // Both lose a tail of orders (ADC), but only naive corrupts.
    assert!(cg.avg_lost_orders >= 0.0);
}

#[test]
fn e5_operator_is_one_action_regardless_of_scale() {
    let rows = e5_operator(&[2, 10, 50]);
    assert_eq!(rows.len(), 3);
    for row in &rows {
        assert!(row.converged, "{row:?}");
        assert_eq!(row.user_actions_operator, 1);
        assert_eq!(row.pairs, row.volumes as u64);
        assert_eq!(row.backup_claims, row.volumes);
        assert_eq!(row.user_actions_manual, manual_steps(row.volumes as u64));
        assert!(row.user_actions_manual > row.user_actions_operator as u64);
    }
    // Manual effort grows linearly; operator effort stays constant.
    assert!(rows[2].user_actions_manual > rows[0].user_actions_manual * 5);
}

#[test]
fn rig_sdc_loses_nothing_on_failover() {
    let mut cfg = RigConfig::default();
    cfg.mode = BackupMode::Sdc;
    cfg.seed = 5;
    let mut rig = TwoSiteRig::new(cfg);
    let fail_at = SimTime::from_millis(100);
    rig.schedule_main_failure(fail_at);
    tsuru_ecom::driver::start_clients(&mut rig.world, &mut rig.sim);
    rig.sim
        .run_until(&mut rig.world, fail_at + SimDuration::from_millis(100));
    rig.failover(fail_at);
    let outcome = rig.recover_from_backup();
    assert!(!outcome.hard_failure());
    let orders = outcome.orders.as_ref().expect("sales recovered");
    // SDC: every acknowledged order is at the backup site.
    assert_eq!(orders.lost, 0, "{orders:?}");
    assert!(outcome.fully_consistent());
}

#[test]
fn a1_lag_grows_with_pump_interval_but_host_unaffected() {
    use tsuru_core::experiments::a1_backup_lag;
    let rows = a1_backup_lag(&TrialHarness::serial(), 19, &[200, 5000], &[8]).rows;
    let fast = rows.iter().find(|r| r.pump_interval_us == 200).unwrap();
    let slow = rows.iter().find(|r| r.pump_interval_us == 5000).unwrap();
    assert!(
        slow.mean_lag_writes > fast.mean_lag_writes * 5.0,
        "fast {fast:?} slow {slow:?}"
    );
    // The host path is untouched by pump pacing.
    assert!((slow.p99_ms - fast.p99_ms).abs() < 0.05);
}

#[test]
fn a2_block_bounds_loss_suspend_bounds_latency() {
    use tsuru_core::experiments::a2_journal_policy;
    let rows = a2_journal_policy(&TrialHarness::serial(), 23, &[256]).rows;
    let block = rows.iter().find(|r| r.policy == "block").unwrap();
    let suspend = rows.iter().find(|r| r.policy == "suspend").unwrap();
    assert!(block.stalls > 0, "{block:?}");
    assert!(block.p99_ms > suspend.p99_ms * 10.0);
    assert!(suspend.degraded_acks > 0, "{suspend:?}");
    assert!(
        block.lost_orders * 5 < suspend.lost_orders,
        "Block must bound loss: {block:?} vs {suspend:?}"
    );
}

#[test]
fn e7_three_dc_combines_low_latency_with_zero_loss() {
    use tsuru_core::experiments::e7_three_dc;
    let rows = e7_three_dc(29);
    let adc = rows.iter().find(|r| r.mode == "adc-cg").unwrap();
    let sdc = rows.iter().find(|r| r.mode == "sdc").unwrap();
    let tdc = rows.iter().find(|r| r.mode == "3dc").unwrap();
    // Latency: 3DC sits at metro-SDC level, far below WAN SDC.
    assert!(tdc.p50_ms < sdc.p50_ms / 5.0, "{tdc:?} vs {sdc:?}");
    assert!(tdc.p50_ms > adc.p50_ms, "3DC still pays the metro RTT");
    // Loss: the 3DC metro copy is complete.
    assert_eq!(tdc.best_copy_lost, 0, "{tdc:?}");
    assert_eq!(tdc.metro_recovered, Some(tdc.committed));
    assert_eq!(sdc.best_copy_lost, 0);
}

#[test]
fn scheduled_snapshots_accumulate_and_prune_in_the_demo_system() {
    let mut demo = DemoSystem::new(DemoConfig::default());
    demo.step1_configure_backup();
    demo.enable_snapshot_schedule(SimDuration::from_millis(100), 3);
    // Business runs; the backup site reconciles periodically (as a real
    // cluster's controllers would on their sync interval).
    for _ in 0..8 {
        demo.run_workload_for(SimDuration::from_millis(110));
        demo.reconcile_backup();
    }
    let catalogue = demo.snapshot_catalogue();
    assert_eq!(catalogue.len(), 3, "retention keeps three: {catalogue:?}");
    assert!(catalogue.iter().all(|n| n.starts_with("auto-")));
    // The newest generation is a usable, consistent analytics image.
    let handles = demo
        .backup_api
        .group_snapshots
        .get(&format!("shop/{}", catalogue.last().unwrap()))
        .unwrap()
        .snapshot_handles
        .clone();
    let report = demo.step3_analytics(&handles, 3).expect("consistent image");
    assert!(report.order_count > 0);
}
