//! `demo_dr`: the paper's D1 → D2 → D3 demonstration plus a disaster
//! drill, 16 seeds.
//!
//! The only workload that crosses container / plugin / nso reconcile,
//! snapshot-group copy-on-write, analytics on a snapshot and business
//! recovery: ROADMAP item 3 (O(1) DB snapshots) should win here and must
//! not pay for it on `oltp_rig`.

use crate::spans::Spans;
use crate::surface::{
    DemoConfig, DemoSystem, DetRng, Histogram, SimDuration, Tracer, WorkloadConfig,
};
use crate::workloads::{time_build, timed, Digest, Outcome, Phases, Size};

/// Demonstrations per iteration.
fn demos(size: Size) -> u64 {
    size.pick(16, 2)
}

/// The system demonstration `i` runs on.
fn build(seed: u64, size: Size, i: u64, traced: bool) -> DemoSystem {
    let mut demo = DemoSystem::new(DemoConfig {
        seed: DetRng::trial_seed(seed, i),
        workload: WorkloadConfig {
            clients: size.pick(32, 8),
            ..WorkloadConfig::default()
        },
        ..DemoConfig::default()
    });
    if traced {
        demo.world.st.set_tracer(Tracer::enabled());
    }
    demo
}

/// Set-up of `demo_dr`: the systems of all its demonstrations, one at a
/// time as the iteration builds them.
pub fn setup(seed: u64, size: Size) -> f64 {
    (0..demos(size))
        .map(|i| time_build(|| build(seed, size, i, false)))
        .sum()
}

/// One iteration: `demos` full demonstrations, each on its own system.
pub fn iterate(seed: u64, size: Size, traced: bool, spans: &mut Spans) -> (Phases, Outcome) {
    let demos = demos(size);
    let load = SimDuration::from_millis(size.pick(1000, 100));
    let mut ph = Phases::default();
    let mut out = Outcome::default();
    let mut d = Digest::default();
    let mut latency = Histogram::new();
    let (mut rpo_ms, mut rto_ms, mut lost) = (0f64, 0f64, 0u64);
    let (mut images_ok, mut analytics_ok) = (true, true);

    for i in 0..demos {
        let mut demo = timed(&mut ph.build_s, || {
            spans.scope("core", "DemoSystem::new", |_| build(seed, size, i, traced))
        });

        let analytics = timed(&mut ph.run_s, || {
            spans.scope("operator", "step1_configure_backup", |_| {
                demo.step1_configure_backup()
            });
            spans.scope("ecom", "run_workload_for", |_| demo.run_workload_for(load));
            let handles = spans.scope("storage", "step2_develop_snapshot", |_| {
                demo.step2_develop_snapshot("pit-1")
            });
            spans.scope("analytics", "step3_analytics", |_| {
                demo.step3_analytics(&handles, 5)
            })
        });

        let fail_at = demo.sim.now();
        let failover = timed(&mut ph.drain_s, || {
            spans.scope("storage", "fail+settle+failover", |_| {
                demo.fail_main_site();
                let horizon = fail_at + SimDuration::from_millis(100);
                demo.sim.run_until(&mut demo.world, horizon);
                demo.failover(fail_at)
            })
        });
        let business = timed(&mut ph.verify_s, || {
            spans.scope("minidb", "recover_business", |_| demo.recover_business())
        });

        let m = &demo.world.app().metrics;
        latency.merge(&m.txn_latency);
        let this_lost = business
            .orders
            .as_ref()
            .map_or(m.committed_orders, |o| o.lost);
        let ok = failover.consistency.is_consistent() && business.fully_consistent();
        out.units += 1;
        out.ops_attempted += 1;
        out.ops_failed += !ok as u64;
        out.sim_work += m.committed_orders;
        images_ok &= ok;
        lost += this_lost;
        rpo_ms += failover.rpo.rpo.as_nanos() as f64 / 1e6;
        rto_ms += failover.rto.as_nanos() as f64 / 1e6;
        d.u64(m.committed_orders);
        d.bool(ok);
        d.u64(this_lost);
        d.u64(failover.rpo.lost_writes);
        d.u64(failover.entries_applied_at_promote);
        match &analytics {
            // An image that recovers into both databases and holds orders:
            // the snapshot group was usable while replication continued (C4).
            Ok(report) => {
                analytics_ok &= report.order_count > 0;
                d.u64(report.order_count);
                d.u64(report.total_revenue);
            }
            Err(_) => analytics_ok = false,
        }
        let groups = demo.groups();
        out.counters.absorb(
            &demo.world.st,
            &groups,
            demo.sim.events_executed(),
            demo.sim.peak_pending(),
        );
    }

    let s = latency.summary();
    out.sim_seconds = load.as_secs_f64() * demos as f64;
    out.reading(&mut d, "sim_ack_p50_us", s.p50 as f64 / 1e3, s.count);
    out.reading(&mut d, "sim_ack_p99_us", s.p99 as f64 / 1e3, s.count);
    out.reading(&mut d, "sim_rpo_ms", rpo_ms / demos as f64, demos);
    out.reading(&mut d, "sim_lost_orders", lost as f64 / demos as f64, demos);
    out.reading(&mut d, "sim_rto_ms", rto_ms / demos as f64, demos);
    out.check(
        "every failover image and business recovery consistent",
        images_ok,
    );
    out.check("analytics ran on a usable snapshot image", analytics_ok);
    out.counters.digest(&mut d);
    out.digest = d.finish();
    (ph, out)
}
