//! `metro_burst` and `metro_steady`: the sharded multi-tenant world (E12).
//!
//! Same builder, same engine code, same order of magnitude of writes — but
//! `metro_burst` packs 5000 tenants' 80k writes into ~25 ms of simulated
//! time so the 8 lanes saturate (probe backlog ≈ 59k), while
//! `metro_steady` spreads 256k writes from 1000 tenants over ~260 ms so
//! the lanes keep up (backlog ≈ 4k). A fix for an O(backlog) / O(groups)
//! scan must move the first and leave the second flat; a cheaper per-write
//! path moves both.

use crate::spans::Spans;
use crate::surface::{
    build_tenant_world, metric_names, SimDuration, SimTime, TenantParams, Tracer,
};
use crate::workloads::{time_build, timed, Digest, Outcome, Phases, Size};

/// 5000 tenants × 8 orders: the lanes saturate.
fn burst_params(size: Size) -> TenantParams {
    params(size.pick(5000, 48), 8, 300)
}

/// 1000 tenants × 128 orders: the lanes keep up. The sampler covers the
/// ~260 ms the orders take to submit, so the drain reading is a
/// measurement and not the end of the sample chain.
fn steady_params(size: Size) -> TenantParams {
    params(size.pick(1000, 12), size.pick(128, 32), 400)
}

/// Set-up of `metro_burst`.
pub fn burst_setup(seed: u64, size: Size) -> f64 {
    time_build(|| build_tenant_world(seed, &burst_params(size)))
}

/// Set-up of `metro_steady`.
pub fn steady_setup(seed: u64, size: Size) -> f64 {
    time_build(|| build_tenant_world(seed, &steady_params(size)))
}

/// One iteration of `metro_burst`.
pub fn burst(seed: u64, size: Size, traced: bool, spans: &mut Spans) -> (Phases, Outcome) {
    run(seed, burst_params(size), traced, spans)
}

/// One iteration of `metro_steady`.
pub fn steady(seed: u64, size: Size, traced: bool, spans: &mut Spans) -> (Phases, Outcome) {
    run(seed, steady_params(size), traced, spans)
}

/// `TenantParams::for_scale` with the per-shard sampler at 1 ms instead of
/// 5 ms and running for `sample_ms`, so `sim_drain_ms` resolves ~1 % of
/// the burst's drain and not 6 % (a sample over 5000 groups costs ~30 µs
/// of host time: 300 of them are 0.2 % of an iteration).
fn params(tenants: u32, orders_per_tenant: u32, sample_ms: u32) -> TenantParams {
    let mut p = TenantParams::for_scale(tenants);
    p.orders_per_tenant = orders_per_tenant;
    p.sample_every = SimDuration::from_millis(1);
    p.samples = sample_ms;
    p
}

fn run(seed: u64, p: TenantParams, traced: bool, spans: &mut Spans) -> (Phases, Outcome) {
    let mut ph = Phases::default();
    let mut out = Outcome::default();
    let mut d = Digest::default();

    let (mut w, mut sim) = timed(&mut ph.build_s, || {
        spans.scope("core", "build_tenant_world", |_| {
            build_tenant_world(seed, &p)
        })
    });
    if traced {
        w.st.set_tracer(Tracer::enabled());
    }

    let probe = timed(&mut ph.run_s, || {
        spans.scope("sim", "run_until(probe)", |_| {
            sim.run_until(&mut w, p.probe_at)
        });
        spans.scope("storage", "rpo_report", |_| {
            w.st.rpo_report(&w.groups, p.probe_at)
        })
    });

    timed(&mut ph.drain_s, || {
        spans.scope("sim", "run(drain)", |_| sim.run(&mut w));
    });

    let (consistent, peak_lag, drain) = timed(&mut ph.verify_s, || {
        let consistent = spans.scope("storage", "verify_consistency", |_| {
            w.st.verify_consistency(&w.groups).is_consistent()
        });
        let mut peak_lag = 0f64;
        let mut drain = SimTime::ZERO;
        spans.scope("telemetry", "shard_lanes", |_| {
            for (_, ts) in w.st.metrics.shard_lanes(metric_names::SHARD_APPLY_LAG) {
                peak_lag = peak_lag.max(ts.max().unwrap_or(0.0));
                for &(t, v) in ts.points() {
                    if v > 0.0 {
                        drain = drain.max(t);
                    }
                }
            }
        });
        (consistent, peak_lag, drain)
    });

    let expected = p.tenants as u64 * p.orders_per_tenant as u64 * 2;
    out.units = w.acked;
    out.ops_attempted = expected;
    out.ops_failed = w.failed + w.degraded;
    out.sim_work = w.acked;
    // The drain reading resolves no finer than one sample interval.
    out.sim_seconds = drain.max(SimTime::ZERO + p.sample_every).as_secs_f64();
    d.u64(w.acked);
    d.u64(w.degraded);
    d.u64(w.failed);
    d.u64(probe.lost_writes);
    d.bool(consistent);
    out.reading(&mut d, "sim_rpo_ms", probe.rpo.as_nanos() as f64 / 1e6, 1);
    out.reading(&mut d, "sim_drain_ms", drain.as_nanos() as f64 / 1e6, 1);
    out.reading(&mut d, "sim_apply_lag_peak", peak_lag, 1);
    out.check("acked == tenants x orders x 2", w.acked == expected);
    out.check("degraded == failed == 0", w.degraded == 0 && w.failed == 0);
    out.check("every group prefix-consistent", consistent);

    out.counters
        .absorb(&w.st, &w.groups, sim.events_executed(), sim.peak_pending());
    out.counters.digest(&mut d);
    out.digest = d.finish();
    (ph, out)
}
