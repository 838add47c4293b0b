//! `oltp_rig`: the paper's two-site deployment under closed-loop load.
//!
//! 64 ecom clients drive the sales + stock databases for 10 simulated
//! seconds over a 10 ms-RTT link, once each with no backup, with the
//! paper's ADC consistency group, and with SDC; then a main-site failure
//! at the end of load, settle, failover and recovery from the backup.
//! minidb (B+tree, WAL, CRC) and ecom dominate host time here — `none`
//! and `adc-cg` differ by only ~10 % — so storage-engine speed-ups should
//! barely move it and minidb ones should move it most. It also carries
//! the paper's headline (C1): simulated ack latency adc-cg vs none vs sdc.

use crate::spans::Spans;
use crate::surface::{BackupMode, LinkConfig, RigConfig, SimDuration, TwoSiteRig, WorkloadConfig};
use crate::workloads::{time_build, timed, Digest, Outcome, Phases, Size};

const MODES: [BackupMode; 3] = [
    BackupMode::None,
    BackupMode::AdcConsistencyGroup,
    BackupMode::Sdc,
];

/// One rig per mode.
fn build(seed: u64, size: Size, traced: bool) -> Vec<TwoSiteRig> {
    MODES
        .iter()
        .map(|&mode| {
            TwoSiteRig::new(RigConfig {
                seed,
                mode,
                // 5 ms one way = 10 ms RTT, 1 Gbit/s.
                link: LinkConfig::with(SimDuration::from_millis(5), 1_000_000_000 / 8),
                workload: WorkloadConfig {
                    clients: size.pick(64, 8),
                    ..WorkloadConfig::default()
                },
                trace: traced,
                ..RigConfig::default()
            })
        })
        .collect()
}

/// Set-up of `oltp_rig`.
pub fn setup(seed: u64, size: Size) -> f64 {
    time_build(|| build(seed, size, false))
}

/// One iteration: three rigs built, loaded, failed and recovered.
pub fn iterate(seed: u64, size: Size, traced: bool, spans: &mut Spans) -> (Phases, Outcome) {
    let load = SimDuration::from_millis(size.pick(10_000, 150));
    let mut ph = Phases::default();
    let mut out = Outcome::default();
    let mut d = Digest::default();

    let mut rigs = timed(&mut ph.build_s, || {
        spans.scope("core", "TwoSiteRig::new x3", |_| build(seed, size, traced))
    });

    timed(&mut ph.run_s, || {
        for rig in &mut rigs {
            spans.scope("ecom", "run_workload_for", |_| rig.run_workload_for(load));
        }
    });

    let mut p50 = [0u64; 3];
    let mut aborted = 0u64;
    for (i, rig) in rigs.iter_mut().enumerate() {
        let mode = rig.config.mode;
        let label = mode.label();
        let committed = rig.committed_orders();
        let lat = rig.latency_summary();
        p50[i] = lat.p50;
        // Read before the disaster: writes in flight when the array dies
        // fail by design and are not the workload's failures.
        let app = &rig.world.app().metrics;
        let failed_before = app.failed_writes + app.degraded_acks;
        aborted +=
            rig.world.app().sales.db.stats().aborts + rig.world.app().stock.db.stats().aborts;
        out.units += committed;
        d.u64(committed);
        d.u64(lat.count);
        d.u64(lat.p50);
        d.u64(lat.p99);
        d.u64(failed_before);
        out.check(
            format!("{label}: no failed or degraded write under load"),
            failed_before == 0,
        );

        if mode != BackupMode::None {
            let fail_at = rig.sim.now();
            let (consistency, rpo) = timed(&mut ph.drain_s, || {
                spans.scope("storage", "fail+settle+failover", |_| {
                    rig.world.st.fail_array(rig.main, fail_at);
                    rig.settle(fail_at + SimDuration::from_millis(100));
                    rig.failover(fail_at)
                })
            });
            let outcome = timed(&mut ph.verify_s, || {
                spans.scope("minidb", "recover_from_backup", |_| {
                    rig.recover_from_backup()
                })
            });
            let lost = outcome.orders.as_ref().map_or(committed, |o| o.lost);
            let hard = outcome.hard_failure();
            out.ops_failed += hard as u64;
            d.bool(consistency.is_consistent());
            d.bool(outcome.fully_consistent());
            d.u64(lost);
            d.u64(rpo.lost_writes);
            out.check(
                format!("{label}: backup image prefix-consistent"),
                consistency.is_consistent(),
            );
            out.check(
                format!("{label}: recovery fully consistent"),
                outcome.fully_consistent(),
            );
            if mode == BackupMode::Sdc {
                out.check("sdc: loses 0 orders", lost == 0);
            } else {
                out.reading(&mut d, "sim_ack_p50_us", lat.p50 as f64 / 1e3, lat.count);
                out.reading(&mut d, "sim_ack_p99_us", lat.p99 as f64 / 1e3, lat.count);
                out.reading(&mut d, "sim_rpo_ms", rpo.rpo.as_nanos() as f64 / 1e6, 1);
                out.reading(&mut d, "sim_lost_orders", lost as f64, 1);
            }
        }
        out.counters.absorb(
            &rig.world.st,
            &rig.groups,
            rig.sim.events_executed(),
            rig.sim.peak_pending(),
        );
    }
    // Paper C1: the consistency group adds nothing to the host's ack path.
    out.reading(
        &mut d,
        "sim_slowdown_adc",
        p50[1] as f64 / p50[0].max(1) as f64,
        1,
    );
    d.u64(p50[2]);

    out.ops_attempted = out.units + aborted;
    out.ops_failed += aborted;
    out.sim_work = out.units;
    out.sim_seconds = load.as_secs_f64() * MODES.len() as f64;
    out.counters.digest(&mut d);
    out.digest = d.finish();
    (ph, out)
}
