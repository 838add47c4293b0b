//! The log flusher seen from the outside (DESIGN.md §20): waiters released
//! at one instant come out in LSN order, whatever the harness thread count.

use tsuru_core::{BackupMode, RigConfig, TrialHarness, TwoSiteRig};
use tsuru_ecom::driver::start_workload_clients;
use tsuru_ecom::AppendState;
use tsuru_history::{OpData, OpTable, Phase};
use tsuru_sim::{DetRng, SimDuration, SimTime};

/// `(instant, values)` for every instant at which the sales database
/// acknowledged more than one append, in acknowledgement order. An append's
/// value is minted when it is staged, so value order is LSN order.
fn shared_releases(seed: u64) -> Vec<(SimTime, Vec<u64>)> {
    let mut cfg = RigConfig {
        seed,
        mode: BackupMode::AdcConsistencyGroup,
        history: true,
        ..RigConfig::default()
    };
    cfg.workload.clients = 32;
    cfg.workload.think_time_mean = SimDuration::from_millis(1);
    let mut rig = TwoSiteRig::new(cfg);
    rig.world.app_mut().append = Some(AppendState::new(DetRng::new(seed).derive(0xA99E)));
    start_workload_clients(&mut rig.world, &mut rig.sim);
    rig.sim.run_until(&mut rig.world, SimTime::from_millis(40));

    let history = rig.world.st.history.history();
    let ops = OpTable::new(&history);
    let mut groups: Vec<(SimTime, Vec<u64>)> = Vec::new();
    for r in history.records.iter().filter(|r| r.phase == Phase::Ok) {
        let Some(OpData::Append { value, .. }) = ops.invoke_of(r.op).map(|i| &i.data) else {
            continue; // a list read
        };
        match groups.last_mut() {
            Some((t, values)) if *t == r.t => values.push(*value),
            _ => groups.push((r.t, vec![*value])),
        }
    }
    groups.retain(|(_, values)| values.len() > 1);
    groups
}

#[test]
fn release_order_at_one_instant_is_lsn_order_at_any_thread_count() {
    let run = |threads: usize| {
        TrialHarness::new(threads)
            .run(0xF1u64, 4, |ctx| shared_releases(ctx.seed))
            .rows
    };
    let baseline = run(1);
    for groups in &baseline {
        assert!(
            groups.len() >= 10,
            "32 clients must share flushes: {} shared instants",
            groups.len()
        );
        for (t, values) in groups {
            assert!(
                values.windows(2).all(|w| w[0] < w[1]),
                "t = {t}: acknowledged out of LSN order: {values:?}"
            );
        }
    }
    for threads in [2, 4, 8] {
        assert_eq!(
            run(threads),
            baseline,
            "thread count {threads} changed the release order"
        );
    }
}
