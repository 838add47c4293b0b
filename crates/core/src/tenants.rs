//! E12: the metro-scale multi-tenant world (deterministic tenant
//! generator + sharded replication + the tenant-scaling sweep).
//!
//! The paper's "no impact on business processing" claim is only ever
//! demonstrated on a handful of volumes; this module is the scale test.
//! A deterministic generator spins up `N` tenant namespaces — one data
//! volume, one backup volume and one single-pair consistency group each —
//! and partitions the groups across [`ShardLayout`] lanes: per-shard WAN
//! link pairs that the member groups' transfer pumps share. Every tenant
//! then runs a heavy-traffic ecom-shaped population (order-row write +
//! commit-log write per order, open loop, jittered per-tenant streams),
//! and the sweep measures what the metro actually cares about as tenant
//! count scales:
//!
//! - **RPO at a probe instant** mid-run (main-site failure thought
//!   experiment: how stale would the promoted image be?);
//! - **journal occupancy** per shard lane (peak bytes queued main-side);
//! - **apply lag** per shard lane (acked-but-unapplied writes);
//! - **transfer batching** (journal entries per WAN frame);
//! - **drain time** (when the backup site fully catches up).
//!
//! Everything is seeded from `(base_seed, trial_index)` through the trial
//! harness, so `repro e12` output is byte-identical at any `--threads`.

use tsuru_sim::{DetRng, Event, Sim, SimDuration, SimTime};
use tsuru_simnet::LinkConfig;
use tsuru_storage::engine::host_write;
use tsuru_storage::{
    block_from, metric_names, ArrayPerf, BlockBuf, EngineConfig, GroupId, HasStorage, ShardLayout,
    StorageEvents, StorageOp, StorageWorld, VolRef, WriteAck,
};

use crate::harness::{TrialHarness, TrialSet};

/// Blocks per tenant volume.
const VOL_BLOCKS: u64 = 64;
/// Bandwidth of each shard's WAN data lane, bytes/sec (4 Gbit/s).
const LANE_BANDWIDTH: u64 = 500_000_000;
/// One-way propagation delay of the shard lanes.
const LANE_PROPAGATION: SimDuration = SimDuration::from_millis(2);

/// Knobs of one tenant-world build. [`TenantParams::for_scale`] gives the
/// E12 defaults; tests shrink them.
#[derive(Debug, Clone)]
pub struct TenantParams {
    /// Tenant namespaces (= consistency groups) to generate.
    pub tenants: u32,
    /// Shard lanes to partition the groups across.
    pub shards: u32,
    /// Orders each tenant submits (each order = 2 block writes).
    pub orders_per_tenant: u32,
    /// Per-group journal capacity in bytes.
    pub journal_capacity: u64,
    /// Base think time between a tenant's orders.
    pub think_base: SimDuration,
    /// Max extra uniform jitter added per order.
    pub think_jitter: SimDuration,
    /// Instant of the RPO probe (the thought-experiment failure time).
    pub probe_at: SimTime,
    /// Interval of the per-shard series sampler.
    pub sample_every: SimDuration,
    /// Samples taken after the first (bounds the sampler chain).
    pub samples: u32,
}

impl TenantParams {
    /// E12 defaults for a sweep point of `tenants` namespaces: 8 shard
    /// lanes (fewer when there are fewer tenants) of 4 Gbit/s each, so the
    /// 10k-tenant point saturates the lanes while 100 tenants barely
    /// notice them — the contrast the tenant-scaling table shows.
    pub fn for_scale(tenants: u32) -> Self {
        TenantParams {
            tenants,
            shards: 8.min(tenants.max(1)),
            orders_per_tenant: 8,
            journal_capacity: 4 << 20,
            think_base: SimDuration::from_millis(1),
            think_jitter: SimDuration::from_millis(2),
            probe_at: SimTime::from_millis(25),
            sample_every: SimDuration::from_millis(5),
            samples: 60,
        }
    }
}

/// Per-tenant hot state (kept SoA-adjacent: one dense `Vec` indexed by the
/// tenant id that events carry).
#[derive(Debug)]
pub struct TenantState {
    /// The tenant's primary data volume.
    pub data: VolRef,
    /// The tenant's consistency group.
    pub group: GroupId,
    /// Per-tenant jitter stream (derived, deterministic).
    pub rng: DetRng,
    /// Orders still to submit.
    pub orders_left: u32,
    /// Monotonic order counter (drives LBA choice and payload pick).
    pub cursor: u64,
}

/// The multi-tenant simulation state: a sharded [`StorageWorld`] plus the
/// tenant table and ack counters.
pub struct TenantWorld {
    /// The storage substrate.
    pub st: StorageWorld,
    /// The shard partition of the groups.
    pub shards: ShardLayout,
    /// Dense tenant table.
    pub tenants: Vec<TenantState>,
    /// Every generated group, in tenant order.
    pub groups: Vec<GroupId>,
    /// Host writes acknowledged with full protection.
    pub acked: u64,
    /// Host writes acknowledged degraded (suspended group).
    pub degraded: u64,
    /// Host writes rejected.
    pub failed: u64,
    /// Payload templates; orders clone (refcount) instead of allocating.
    payloads: Vec<BlockBuf>,
    think_base: SimDuration,
    think_jitter: SimDuration,
    sample_every: SimDuration,
}

impl HasStorage for TenantWorld {
    fn storage(&self) -> &StorageWorld {
        &self.st
    }
    fn storage_mut(&mut self) -> &mut StorageWorld {
        &mut self.st
    }
}

impl TenantWorld {
    fn count(&mut self, ack: WriteAck) {
        match ack {
            WriteAck::Ok { .. } => self.acked += 1,
            WriteAck::Degraded { .. } => self.degraded += 1,
            WriteAck::Failed(_) => self.failed += 1,
        }
    }
}

/// The tenant world's kernel event.
pub enum TenantOp {
    /// A storage data-plane hop.
    Storage(StorageOp<TenantWorld, TenantOp>),
    /// One tenant submits one order (two block writes) and re-arms.
    Order {
        /// Dense tenant index.
        tenant: u32,
    },
    /// Per-shard series sample; re-arms `remaining` more times.
    Sample {
        /// Re-arms left after this sample.
        remaining: u32,
    },
}

impl Event<TenantWorld> for TenantOp {
    fn dispatch(self, w: &mut TenantWorld, sim: &mut Sim<TenantWorld, Self>) {
        match self {
            TenantOp::Storage(op) => op.dispatch(w, sim),
            TenantOp::Order { tenant } => submit_order(w, sim, tenant),
            TenantOp::Sample { remaining } => {
                let now = sim.now();
                w.st.sample_shard_series(&w.shards, now);
                if remaining > 0 {
                    sim.schedule_event_in(
                        w.sample_every,
                        TenantOp::Sample {
                            remaining: remaining - 1,
                        },
                    );
                }
            }
        }
    }
}

impl StorageEvents<TenantWorld> for TenantOp {
    fn storage(op: StorageOp<TenantWorld, Self>) -> Self {
        TenantOp::Storage(op)
    }
}

/// One order: an order-row write into the data region plus a commit-log
/// write into the tail region of the same volume, then re-arm the tenant.
fn submit_order(w: &mut TenantWorld, sim: &mut Sim<TenantWorld, TenantOp>, tenant: u32) {
    let (vol, row_lba, log_lba, payload, next_in) = {
        let blocks = {
            let t = w
                .tenants
                .get(tenant as usize)
                .expect("invariant: Order events carry tenant ids minted at build time");
            w.st.array(t.data.array).volume(t.data.volume).size_blocks()
        };
        let t = w
            .tenants
            .get_mut(tenant as usize)
            .expect("invariant: Order events carry tenant ids minted at build time");
        if t.orders_left == 0 {
            return;
        }
        t.orders_left -= 1;
        let log_region = 8.min(blocks / 2);
        let row_lba = t.cursor % (blocks - log_region);
        let log_lba = blocks - log_region + (t.cursor % log_region);
        let payload = w
            .payloads
            .get((t.cursor as usize) % w.payloads.len())
            .expect("invariant: the index is reduced modulo the payload count")
            .clone();
        t.cursor += 1;
        let next_in = if t.orders_left > 0 {
            Some(
                w.think_base
                    + SimDuration::from_nanos(t.rng.gen_range(w.think_jitter.as_nanos() + 1)),
            )
        } else {
            None
        };
        (t.data, row_lba, log_lba, payload, next_in)
    };
    host_write(w, sim, vol, row_lba, payload.clone(), |w, _, ack| {
        w.count(ack)
    });
    host_write(w, sim, vol, log_lba, payload, |w, _, ack| w.count(ack));
    if let Some(d) = next_in {
        sim.schedule_event_in(d, TenantOp::Order { tenant });
    }
}

/// Build the sharded multi-tenant world and arm traffic + sampling.
///
/// Deterministic in `seed`: tenant rng streams derive from it, shard
/// assignment is round-robin, and every volume/group id is minted in
/// tenant order.
pub fn build_tenant_world(
    seed: u64,
    p: &TenantParams,
) -> (TenantWorld, Sim<TenantWorld, TenantOp>) {
    assert!(
        p.tenants > 0 && p.shards > 0,
        "need at least one tenant and shard"
    );
    let mut st = StorageWorld::new(seed, EngineConfig::default());
    st.metrics.enable_sampling();
    let main = st.add_array("metro-main", ArrayPerf::default());
    let backup = st.add_array("metro-backup", ArrayPerf::default());

    let mut shards = ShardLayout::new();
    for _ in 0..p.shards {
        let lane = LinkConfig::with(LANE_PROPAGATION, LANE_BANDWIDTH);
        let link = st.add_link(lane.clone());
        let reverse = st.add_link(lane);
        shards.add_lane(link, reverse);
    }

    let base = DetRng::new(seed).derive(0xE12);
    let mut tenants = Vec::with_capacity(p.tenants as usize);
    let mut groups = Vec::with_capacity(p.tenants as usize);
    for t in 0..p.tenants {
        let shard = t % p.shards;
        let (link, reverse) = {
            let lane = shards.lane(shard);
            (lane.link, lane.reverse)
        };
        let pvol = st.create_volume(main, format!("tn{t}-data"), VOL_BLOCKS);
        let svol = st.create_volume(backup, format!("tn{t}-data-r"), VOL_BLOCKS);
        let gid = st.create_adc_group(format!("tn{t}-cg"), link, reverse, p.journal_capacity);
        st.add_pair(gid, pvol, svol);
        shards.assign(gid, shard);
        groups.push(gid);
        tenants.push(TenantState {
            data: pvol,
            group: gid,
            rng: base.derive(t as u64),
            orders_left: p.orders_per_tenant,
            cursor: 0,
        });
    }

    let payloads = (0u8..4).map(|i| block_from(&[0x40 + i; 64])).collect();
    let mut w = TenantWorld {
        st,
        shards,
        tenants,
        groups,
        acked: 0,
        degraded: 0,
        failed: 0,
        payloads,
        think_base: p.think_base,
        think_jitter: p.think_jitter,
        sample_every: p.sample_every,
    };

    let mut sim: Sim<TenantWorld, TenantOp> = Sim::new();
    for t in 0..p.tenants {
        // Staggered admission: tenants ramp in over the first think window.
        let jitter = w.tenants[t as usize]
            .rng
            .gen_range(p.think_jitter.as_nanos() + 1);
        let at = SimTime::from_nanos(1 + (t as u64) * 311 + jitter);
        sim.schedule_event_at(at, TenantOp::Order { tenant: t });
    }
    sim.schedule_event_at(
        SimTime::from_nanos(2),
        TenantOp::Sample {
            remaining: p.samples,
        },
    );
    (w, sim)
}

/// One row of the E12 tenant-scaling table.
#[derive(Debug, Clone)]
pub struct E12Row {
    /// Tenant namespaces (= consistency groups).
    pub tenants: u32,
    /// Shard lanes.
    pub shards: u32,
    /// Host writes acknowledged with full protection.
    pub writes_acked: u64,
    /// Acked-but-unapplied writes at the probe instant.
    pub backlog_at_probe: u64,
    /// RPO at the probe instant, in milliseconds.
    pub rpo_at_probe_ms: f64,
    /// Peak per-shard journal occupancy, KiB (max over lanes and time).
    pub peak_shard_jnl_kib: f64,
    /// Peak per-shard apply lag, writes (max over lanes and time).
    pub peak_shard_lag: f64,
    /// Journal entries shipped per WAN frame (batching efficiency).
    pub entries_per_frame: f64,
    /// Sim time at which the backup site had fully caught up, ms (the
    /// instant of the last backup apply, exact — not a sampled reading).
    pub drain_ms: f64,
    /// Storage data-plane events dispatched per acked host write.
    pub events_per_write: f64,
    /// Did every group's backup image verify prefix-consistent at the end?
    pub consistent: bool,
}

/// Run one sweep point: build the world for `tenants`, run to the probe,
/// take the RPO thought-experiment reading, then run to quiescence and
/// collect the per-shard peaks.
pub fn run_e12_trial(seed: u64, tenants: u32) -> E12Row {
    let p = TenantParams::for_scale(tenants);
    let (mut w, mut sim) = build_tenant_world(seed, &p);
    sim.run_until(&mut w, p.probe_at);
    let probe = w.st.rpo_report(&w.groups, p.probe_at);
    sim.run(&mut w);

    let mut peak_jnl = 0f64;
    for (_, ts) in
        w.st.metrics
            .shard_lanes(metric_names::SHARD_JOURNAL_OCCUPANCY)
    {
        peak_jnl = peak_jnl.max(ts.max().unwrap_or(0.0));
    }
    let mut peak_lag = 0f64;
    for (_, ts) in w.st.metrics.shard_lanes(metric_names::SHARD_APPLY_LAG) {
        peak_lag = peak_lag.max(ts.max().unwrap_or(0.0));
    }
    let (mut entries, mut frames, mut drained_at) = (0u64, 0u64, SimTime::ZERO);
    for &gid in &w.groups {
        let s = &w.st.fabric.group(gid).stats;
        entries += s.entries_transferred;
        frames += s.frames_sent;
        drained_at = drained_at.max(s.last_applied_at);
    }
    let events: u64 = w.st.op_counts().map(|(_, n)| n).sum();
    let consistent = w.st.verify_consistency(&w.groups).is_consistent();
    E12Row {
        tenants,
        shards: p.shards,
        writes_acked: w.acked,
        backlog_at_probe: probe.lost_writes,
        rpo_at_probe_ms: probe.rpo.as_nanos() as f64 / 1e6,
        peak_shard_jnl_kib: peak_jnl / 1024.0,
        peak_shard_lag: peak_lag,
        entries_per_frame: entries as f64 / (frames.max(1)) as f64,
        drain_ms: drained_at.as_nanos() as f64 / 1e6,
        events_per_write: events as f64 / w.acked.max(1) as f64,
        consistent,
    }
}

/// The E12 tenant-scaling sweep: one harness trial per tenant count.
/// Byte-identical rows at any worker count (each sweep point is an
/// independent world seeded from `(seed, index)`).
pub fn e12_scale(harness: &TrialHarness, seed: u64, tenants: &[u32]) -> TrialSet<E12Row> {
    harness.run(seed, tenants.len(), |ctx| {
        run_e12_trial(ctx.seed, tenants[ctx.index])
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> TenantParams {
        let mut p = TenantParams::for_scale(6);
        p.orders_per_tenant = 3;
        p.probe_at = SimTime::from_millis(4);
        p.samples = 20;
        p
    }

    #[test]
    fn generator_is_deterministic() {
        let (a, _) = build_tenant_world(7, &small());
        let (b, _) = build_tenant_world(7, &small());
        assert_eq!(a.groups, b.groups);
        assert_eq!(a.tenants.len(), 6);
        assert_eq!(a.shards.num_shards(), 6);
        for (i, t) in a.tenants.iter().enumerate() {
            assert_eq!(a.shards.shard_of(t.group), Some(i as u32 % 6));
            assert_eq!(t.data, b.tenants[i].data);
        }
    }

    #[test]
    fn small_world_runs_acks_and_stays_consistent() {
        let p = small();
        let (mut w, mut sim) = build_tenant_world(11, &p);
        sim.run(&mut w);
        assert_eq!(w.acked, 6 * 3 * 2, "every order is two protected writes");
        assert_eq!(w.degraded, 0);
        assert_eq!(w.failed, 0);
        assert!(w.st.verify_consistency(&w.groups).is_consistent());
        // Per-shard lanes were sampled for every lane.
        let lanes: Vec<u32> =
            w.st.metrics
                .shard_lanes(metric_names::SHARD_APPLY_LAG)
                .map(|(s, _)| s)
                .collect();
        assert_eq!(lanes, vec![0, 1, 2, 3, 4, 5]);
    }

    #[test]
    fn trial_rows_are_thread_count_invariant() {
        let counts = [4, 9];
        let serial = TrialHarness::serial();
        let a = e12_scale(&serial, 5, &counts);
        let b = e12_scale(&TrialHarness::new(4), 5, &counts);
        for (ra, rb) in a.rows.iter().zip(&b.rows) {
            assert_eq!(format!("{ra:?}"), format!("{rb:?}"));
        }
        assert_eq!(a.rows[0].tenants, 4);
        assert_eq!(a.rows[1].tenants, 9);
        assert!(a.rows.iter().all(|r| r.consistent));
    }
}
