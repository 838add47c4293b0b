//! Layer drivers: a loop in the benchmark's own files around one layer's
//! public functions at a stated size, timed from outside. They run only
//! in the traced run and give the per-layer metrics that do not depend on
//! the workload (`PerLayer::per_workload` is false); each takes a fraction
//! of a second. Sizes are constants, stated beside each driver.

use std::hint::black_box;
use std::time::Instant;

use crate::spans::Spans;
use crate::surface::{
    alert_sweep, block_from, build_tenant_world, chaos_sweep, check_cross_db, check_history,
    convergence_sweep, e5_operator, host_write, span_names, ArrayPerf, BackupMode, BlockBuf,
    BlockDeviceMut, ChaosConfig, CheckConfig, DbConfig, DbVol, DemoConfig, DemoSystem, DetRng,
    EngineConfig, Event, EventFn, FaultPlan, GroupId, HasStorage, HistorySite, IoPlan, Journal,
    JournalId, Link, LinkConfig, MemDevice, MetricsRegistry, MiniDb, OpData, PairId, RecordKind,
    Recorder, RigConfig, Sim, SimDuration, SimTime, StorageEvents, StorageOp, StorageWorld,
    TableId, TenantParams, TraceRecord, Tracer, TrialHarness, TwoSiteRig, VolRef, WorkloadConfig,
    BLOCK_SIZE,
};
use crate::workloads::Size;

/// Driver results: `(metric name, value)`.
pub type Rows = Vec<(&'static str, f64)>;

fn secs<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let t0 = Instant::now();
    let out = f();
    (out, t0.elapsed().as_secs_f64().max(1e-9))
}

type Driver = fn(seed: u64, size: Size, rows: &mut Rows);

/// `(layer, driver)` in report order.
const DRIVERS: [(&str, Driver); 14] = [
    ("sim", sim_kernel),
    ("simnet", simnet_link),
    ("storage", storage_engine),
    ("storage", storage_journal),
    ("storage", storage_reports),
    ("storage", storage_snapshots),
    ("minidb", minidb),
    ("ecom", ecom),
    ("history", history),
    ("chaos", chaos),
    ("telemetry", telemetry_registry),
    ("core", core_harness),
    ("operator", operator),
    ("analytics", analytics),
];

/// Run every layer driver, each inside a host span, and return their rows.
pub fn run_all(seed: u64, size: Size, spans: &mut Spans) -> Rows {
    let mut rows = Rows::new();
    for (layer, driver) in DRIVERS {
        spans.scope(layer, "layer driver", |_| driver(seed, size, &mut rows));
    }
    rows
}

// ----- sim ---------------------------------------------------------------

/// Typed self-rescheduling chain event (the shape of `repro bench`'s
/// kernel workload: delays spread over several wheel levels).
enum Tick {
    Step { left: u32 },
}

impl Event<u64> for Tick {
    fn from_fn(_: EventFn<u64, Self>) -> Self {
        unreachable!("the benchmark schedules typed events only")
    }
    fn dispatch(self, state: &mut u64, sim: &mut Sim<u64, Self>) {
        let Tick::Step { left } = self;
        *state += 1;
        if left > 0 {
            let d = 1 + (*state % 9973) * 101 + (*state % 31) * 32_768;
            sim.schedule_event_in(SimDuration::from_nanos(d), Tick::Step { left: left - 1 });
        }
    }
}

/// 4096 chains, 4M events (quick: 64 chains, 16k events).
fn sim_kernel(_seed: u64, size: Size, rows: &mut Rows) {
    let chains = size.pick(4096u64, 64);
    let per_chain = size.pick(1024u32, 256);
    let mut sim: Sim<u64, Tick> = Sim::new();
    for c in 0..chains {
        sim.schedule_event_at(
            SimTime::from_nanos(1 + c),
            Tick::Step {
                left: per_chain - 1,
            },
        );
    }
    let mut state = 0u64;
    let ((), t) = secs(|| sim.run(&mut state));
    let events = sim.events_executed();
    assert_eq!(events, black_box(state));
    rows.push(("sim.events_per_s", events as f64 / t));
    rows.push((
        "sim.allocs_per_event",
        sim.alloc_events() as f64 / events as f64,
    ));
}

// ----- simnet ------------------------------------------------------------

/// 1M frames of one block each offered at advancing simulated time on a
/// 10 Gbit/s, 1 ms link (quick: 10k).
fn simnet_link(seed: u64, size: Size, rows: &mut Rows) {
    let frames = size.pick(1_000_000u64, 10_000);
    let mut link = Link::new(
        LinkConfig::with(SimDuration::from_millis(1), 10_000_000_000 / 8),
        DetRng::new(seed),
    );
    let ((), t) = secs(|| {
        for i in 0..frames {
            black_box(link.offer(SimTime::from_nanos(i * 4_000), BLOCK_SIZE as u64));
        }
    });
    assert_eq!(link.frames_sent(), frames);
    rows.push(("simnet.offers_per_s", frames as f64 / t));
}

// ----- storage: engine ---------------------------------------------------

/// The storage driver's world: a `StorageWorld` plus what the open-loop
/// submitter needs. Nothing else — no databases, no application.
struct Bare {
    st: StorageWorld,
    vols: [VolRef; 4],
    blocks: u64,
    every: SimDuration,
    payload: BlockBuf,
    submitted: u64,
    acked: u64,
}

impl HasStorage for Bare {
    fn storage(&self) -> &StorageWorld {
        &self.st
    }
    fn storage_mut(&mut self) -> &mut StorageWorld {
        &mut self.st
    }
}

/// The benchmark's own kernel event: the storage data plane plus the
/// submitter.
enum BareOp {
    Storage(StorageOp<Bare, BareOp>),
    /// Submit one host write and re-arm `every` later while `left > 1`.
    Submit {
        left: u32,
    },
}

impl Event<Bare> for BareOp {
    fn from_fn(_: EventFn<Bare, Self>) -> Self {
        unreachable!("the benchmark schedules typed events only")
    }
    fn dispatch(self, w: &mut Bare, sim: &mut Sim<Bare, Self>) {
        match self {
            BareOp::Storage(op) => op.dispatch(w, sim),
            BareOp::Submit { left } => {
                let i = w.submitted;
                w.submitted += 1;
                let vol = w.vols[(i % 4) as usize];
                let (lba, payload) = ((i / 4) % w.blocks, w.payload.clone());
                host_write(w, sim, vol, lba, payload, |w, _, ack| {
                    w.acked += ack.is_persisted() as u64
                });
                if left > 1 {
                    sim.schedule_event_in(w.every, BareOp::Submit { left: left - 1 });
                }
            }
        }
    }
}

impl StorageEvents<Bare> for BareOp {
    fn storage(op: StorageOp<Bare, Self>) -> Self {
        BareOp::Storage(op)
    }
}

struct StorageRun {
    writes: u64,
    events: u64,
    host_s: f64,
    tracer: Tracer,
}

/// One 4-volume deployment in `mode`, `writes` open-loop host writes (one
/// every 60 µs of simulated time, round-robin over the volumes) run to
/// quiescence.
fn storage_run(seed: u64, mode: BackupMode, writes: u32, traced: bool) -> StorageRun {
    let mut st = StorageWorld::new(seed, EngineConfig::default());
    let main = st.add_array("main", ArrayPerf::default());
    let backup = st.add_array("backup", ArrayPerf::default());
    let link = st.add_link(LinkConfig::metro());
    let reverse = st.add_link(LinkConfig::metro());
    let blocks = 1024u64;
    let vols: Vec<VolRef> = (0..4)
        .map(|i| st.create_volume(main, format!("v{i}"), blocks))
        .collect();
    let reps: Vec<VolRef> = (0..4)
        .map(|i| st.create_volume(backup, format!("v{i}-r"), blocks))
        .collect();
    let mut groups: Vec<GroupId> = Vec::new();
    match mode {
        BackupMode::AdcConsistencyGroup => {
            groups.push(st.create_adc_group("cg", link, reverse, 256 << 20))
        }
        BackupMode::Sdc => groups.push(st.create_sdc_group("sdc", link, reverse)),
        _ => {
            for i in 0..4 {
                groups.push(st.create_adc_group(format!("solo-{i}"), link, reverse, 256 << 20));
            }
        }
    }
    for i in 0..4 {
        st.add_pair(groups[i % groups.len()], vols[i], reps[i]);
    }
    if traced {
        st.set_tracer(Tracer::enabled());
    }
    let mut w = Bare {
        st,
        vols: [vols[0], vols[1], vols[2], vols[3]],
        blocks,
        every: SimDuration::from_micros(60),
        payload: block_from(&[0x5a; 64]),
        submitted: 0,
        acked: 0,
    };
    let mut sim: Sim<Bare, BareOp> = Sim::new();
    sim.schedule_event_at(SimTime::from_nanos(1), BareOp::Submit { left: writes });
    let ((), host_s) = secs(|| sim.run(&mut w));
    assert_eq!(w.acked, writes as u64, "every driver write is acknowledged");
    assert!(
        w.st.verify_consistency(&groups).is_consistent(),
        "driver backup image is consistent"
    );
    StorageRun {
        writes: writes as u64,
        events: sim.events_executed(),
        host_s,
        tracer: w.st.tracer.clone(),
    }
}

/// 40k writes per mode (quick: 400), plus one traced adc-cg run whose
/// `Tracer::records()` give the per-stage simulated latencies.
fn storage_engine(seed: u64, size: Size, rows: &mut Rows) {
    let writes = size.pick(40_000u32, 400);
    for (mode, rate, events) in [
        (
            BackupMode::AdcConsistencyGroup,
            "storage.writes_per_s.adc_cg",
            "storage.events_per_write.adc_cg",
        ),
        (
            BackupMode::Sdc,
            "storage.writes_per_s.sdc",
            "storage.events_per_write.sdc",
        ),
        (
            BackupMode::AdcPerVolume,
            "storage.writes_per_s.adc_naive",
            "storage.events_per_write.adc_naive",
        ),
    ] {
        let r = storage_run(seed, mode, writes, false);
        rows.push((rate, r.writes as f64 / r.host_s));
        rows.push((events, r.events as f64 / r.writes as f64));
    }

    let traced = storage_run(seed, BackupMode::AdcConsistencyGroup, writes, true);
    let records = traced.tracer.records();
    rows.push((
        "telemetry.records_per_write",
        records.len() as f64 / traced.writes as f64,
    ));
    let (jsonl, t) = secs(|| traced.tracer.export_jsonl());
    rows.push((
        "telemetry.export_jsonl_mb_per_s",
        jsonl.len() as f64 / 1e6 / t,
    ));
    stage_latencies(&records, traced.writes, rows);
}

/// Per-stage simulated latency of a write, from the span tree
/// `host_write → ticket_wait → journal_append → wan_transfer →
/// backup_apply`. Spans carry their own duration; `journal_append` is
/// zero-width, so its stage is the time from submit to the append; a
/// write that never waited for its ticket counts as a zero wait.
fn stage_latencies(records: &[TraceRecord], writes: u64, rows: &mut Rows) {
    use std::collections::BTreeMap;
    let mut start: BTreeMap<u64, SimTime> = BTreeMap::new();
    let mut first_wait: BTreeMap<u64, SimTime> = BTreeMap::new();
    let (mut host, mut wait, mut append, mut wan, mut apply) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new(), Vec::new());
    for r in records {
        match (&r.kind, r.name) {
            (RecordKind::Start, span_names::HOST_WRITE) => {
                start.insert(r.id.0, r.t);
            }
            (RecordKind::End, span_names::HOST_WRITE) => {
                let t0 = start[&r.id.0];
                host.push(r.t.saturating_since(t0).as_nanos());
                if let Some(w) = first_wait.get(&r.id.0) {
                    wait.push(r.t.saturating_since(*w).as_nanos());
                }
            }
            (RecordKind::Instant, span_names::TICKET_WAIT) => {
                first_wait.entry(r.parent.0).or_insert(r.t);
            }
            (RecordKind::Span { .. }, span_names::JOURNAL_APPEND) => {
                if let Some(t0) = start.get(&r.parent.0) {
                    append.push(r.t.saturating_since(*t0).as_nanos());
                }
            }
            (RecordKind::Span { end }, span_names::WAN_TRANSFER) => {
                wan.push(end.saturating_since(r.t).as_nanos())
            }
            (RecordKind::Span { end }, span_names::BACKUP_APPLY) => {
                apply.push(end.saturating_since(r.t).as_nanos())
            }
            _ => {}
        }
    }
    wait.resize(writes as usize, 0);
    let us = |v: &mut Vec<u64>, q: f64| -> f64 {
        v.sort_unstable();
        if v.is_empty() {
            return 0.0;
        }
        v[((v.len() - 1) as f64 * q).round() as usize] as f64 / 1e3
    };
    rows.push(("storage.sim.host_write_p50_us", us(&mut host, 0.50)));
    rows.push(("storage.sim.host_write_p99_us", us(&mut host, 0.99)));
    rows.push(("storage.sim.ticket_wait_p99_us", us(&mut wait, 0.99)));
    rows.push(("storage.sim.journal_append_p50_us", us(&mut append, 0.50)));
    rows.push(("storage.sim.wan_transfer_p50_us", us(&mut wan, 0.50)));
    rows.push(("storage.sim.wan_transfer_p99_us", us(&mut wan, 0.99)));
    rows.push(("storage.sim.backup_apply_p50_us", us(&mut apply, 0.50)));
    rows.push(("storage.sim.backup_apply_p99_us", us(&mut apply, 0.99)));
}

// ----- storage: journal --------------------------------------------------

/// `append ×64 → peek_unsent(64) → mark_sent → release_upto` cycles, 500k
/// entries (quick: 6.4k), on an empty journal and on one holding a
/// standing depth of 100k unreleased entries (quick: 1k) — the regime the
/// saturated lanes of `metro_burst` put it in.
fn storage_journal(_seed: u64, size: Size, rows: &mut Rows) {
    let cycles = size.pick(500_000u64, 6_400) / 64;
    let payload = block_from(&[7; 64]);
    for (name, depth) in [
        ("storage.journal_ops_per_s", 0u64),
        ("storage.journal_ops_per_s_deep", size.pick(100_000, 1_000)),
    ] {
        let mut j = Journal::new(JournalId(0), u64::MAX / 2, 64);
        for i in 0..depth {
            j.append(PairId(0), i, payload.clone(), i)
                .expect("journal has space");
        }
        let ((), t) = secs(|| {
            for _ in 0..cycles {
                let mut last = 0;
                for k in 0..64u64 {
                    last = j
                        .append(PairId(0), k, payload.clone(), k)
                        .expect("journal has space");
                }
                // The standing depth stays unsent-but-unreleased: ship and
                // release only as many entries as were just appended.
                let batch = j.peek_unsent(64, 1 << 20);
                let shipped = batch.last().expect("unsent entries exist").seq;
                j.mark_sent(shipped);
                j.release_upto(last - depth);
                black_box(batch);
            }
        });
        assert_eq!(j.len() as u64, depth);
        rows.push((name, (cycles * 64) as f64 / t));
    }
}

// ----- storage: reports at 5000 groups -----------------------------------

/// A 5000-group tenant world (quick: 50) with one order per tenant run to
/// quiescence, then `verify_consistency`, `rpo_report` and
/// `sample_shard_series` over all groups, 20 / 50 / 50 calls.
fn storage_reports(seed: u64, size: Size, rows: &mut Rows) {
    let mut p = TenantParams::for_scale(size.pick(5000, 50));
    p.orders_per_tenant = 1;
    p.samples = 4;
    let (mut w, mut sim) = build_tenant_world(seed, &p);
    sim.run(&mut w);
    let now = sim.now();
    let (ok, t) = secs(|| (0..20).all(|_| w.st.verify_consistency(&w.groups).is_consistent()));
    assert!(ok);
    rows.push(("storage.verify_writes_per_s", (20 * w.acked) as f64 / t));
    let ((), t) = secs(|| {
        for _ in 0..50 {
            black_box(w.st.rpo_report(&w.groups, now));
        }
    });
    rows.push(("storage.rpo_report_per_s", 50.0 / t));
    let ((), t) = secs(|| {
        for i in 0..50 {
            w.st.sample_shard_series(&w.shards, now + SimDuration::from_micros(i));
        }
    });
    rows.push(("storage.sample_shard_series_per_s", 50.0 / t));
}

// ----- storage: snapshots ------------------------------------------------

fn small_rig(seed: u64, mode: BackupMode, clients: usize, history: bool) -> TwoSiteRig {
    TwoSiteRig::new(RigConfig {
        seed,
        mode,
        workload: WorkloadConfig {
            clients,
            ..WorkloadConfig::default()
        },
        history,
        ..RigConfig::default()
    })
}

/// An adc-cg rig under load: 200 atomic 4-volume snapshot groups of the
/// backup replicas (quick: 5), then 200 ms more load (quick: 20 ms)
/// to count the copy-on-write saves the retained snapshots cause.
fn storage_snapshots(seed: u64, size: Size, rows: &mut Rows) {
    let load = SimDuration::from_millis(size.pick(200, 20));
    let groups = size.pick(200u32, 5);
    let mut rig = small_rig(seed, BackupMode::AdcConsistencyGroup, 16, false);
    rig.run_workload_for(load);
    let ((), t) = secs(|| {
        for i in 0..groups {
            black_box(rig.snapshot_backup_group(&format!("s{i}")));
        }
    });
    rows.push(("storage.snapshot_group_per_s", groups as f64 / t));
    let applied = |rig: &TwoSiteRig| -> u64 {
        rig.groups
            .iter()
            .map(|&g| rig.world.st.fabric.group(g).stats.entries_applied)
            .sum()
    };
    let before = applied(&rig);
    let horizon = rig.sim.now() + load;
    rig.sim.run_until(&mut rig.world, horizon);
    let writes = (applied(&rig) - before).max(1);
    let cow = rig.world.st.array(rig.backup).cow_saves();
    rows.push(("storage.cow_saves_per_write", cow as f64 / writes as f64));
}

// ----- minidb ------------------------------------------------------------

fn apply_plan(plan: &IoPlan, wal: &mut MemDevice, data: &mut MemDevice) -> (u64, u64) {
    let mut writes = 0;
    for io in plan.phases.iter().flatten() {
        match io.vol {
            DbVol::Wal => wal.write_block(io.lba, &io.data),
            DbVol::Data => data.write_block(io.lba, &io.data),
        }
        writes += 1;
    }
    (writes, writes * BLOCK_SIZE as u64)
}

/// 25k two-row commits into one table pair (quick: 250) written through
/// to in-memory devices, 200k point reads, a full scan of both tables,
/// and `recover` of the resulting 50k-row image with its WAL tail.
fn minidb(_seed: u64, size: Size, rows: &mut Rows) {
    let commits = size.pick(25_000u64, 250);
    let cfg = DbConfig {
        data_blocks: 16_384,
        wal_blocks: 1024,
        checkpoint_threshold: 0.8,
    };
    let (orders, stock) = (TableId(1), TableId(2));
    let mut wal = MemDevice::new(cfg.wal_blocks);
    let mut data = MemDevice::new(cfg.data_blocks);
    let (mut db, plan) = MiniDb::create("bench", cfg.clone());
    apply_plan(&plan, &mut wal, &mut data);
    let value = [0xabu8; 48];
    let (mut block_writes, mut bytes) = (0u64, 0u64);
    let ((), t) = secs(|| {
        for i in 0..commits {
            let tx = db.begin();
            db.put(tx, orders, i, &value);
            db.put(tx, stock, i, &value);
            let (w, b) = apply_plan(&db.commit(tx), &mut wal, &mut data);
            block_writes += w;
            bytes += b;
        }
    });
    rows.push(("minidb.commits_per_s", commits as f64 / t));
    rows.push((
        "minidb.block_writes_per_commit",
        block_writes as f64 / commits as f64,
    ));
    let user_bytes = commits * 2 * (8 + value.len() as u64);
    rows.push((
        "minidb.bytes_written_per_user_byte",
        bytes as f64 / user_bytes as f64,
    ));
    rows.push(("minidb.checkpoints", db.stats().checkpoints as f64));
    rows.push(("minidb.tree_nodes", db.tree_nodes() as f64));

    let gets = size.pick(200_000u64, 2_000);
    let (hits, t) = secs(|| {
        (0..gets)
            .filter(|i| db.get_committed(orders, (i * 7919) % commits).is_some())
            .count() as u64
    });
    assert_eq!(hits, gets);
    rows.push(("minidb.gets_per_s", gets as f64 / t));

    let (scanned, t) = secs(|| db.scan_table(orders).len() + db.scan_table(stock).len());
    assert_eq!(scanned as u64, 2 * commits);
    rows.push(("minidb.scan_rows_per_s", scanned as f64 / t));

    let reps = 3;
    let (recovered, t) = secs(|| {
        (0..reps)
            .map(|_| {
                let (r, _) =
                    MiniDb::recover("bench-r", &wal, &data, cfg.clone()).expect("image recovers");
                r.scan_table(orders).len() as u64
            })
            .sum::<u64>()
    });
    assert_eq!(
        recovered,
        reps * commits,
        "every committed row survives recovery"
    );
    rows.push(("minidb.recover_per_s", reps as f64 / t));
}

// ----- ecom --------------------------------------------------------------

/// The application + database floor: 64 closed-loop clients, no backup,
/// 1 s of simulated load (quick: 8 clients, 50 ms); then the DB-image
/// oracle on the main site's recovered image, 20 checks (quick: 2).
fn ecom(seed: u64, size: Size, rows: &mut Rows) {
    let mut rig = small_rig(seed, BackupMode::None, size.pick(64, 8), false);
    let ((), t) = secs(|| rig.run_workload_for(SimDuration::from_millis(size.pick(1000, 50))));
    rows.push(("ecom.orders_per_s.none", rig.committed_orders() as f64 / t));

    let image = rig.recover_from(rig.main, &rig.vols);
    let (sales, stock) = match (&image.sales, &image.stock) {
        (Ok((s, _)), Ok((t, _))) => (s, t),
        _ => panic!("the main site's own image recovers"),
    };
    let checks = size.pick(20u32, 2);
    let initial = rig.config.workload.initial_stock;
    let (ok, t) = secs(|| (0..checks).all(|_| check_cross_db(sales, stock, initial).consistent()));
    assert!(ok);
    rows.push(("ecom.check_images_per_s", checks as f64 / t));
}

// ----- history -----------------------------------------------------------

/// Recorder throughput on 100k invoke/ok pairs (quick: 1k); checker and
/// JSONL export on the real history of 64 adc-cg clients over 3 s of
/// simulated load (≈ 30k ops; quick: 8 clients, 50 ms).
fn history(seed: u64, size: Size, rows: &mut Rows) {
    let pairs = size.pick(100_000u64, 1_000);
    let rec = Recorder::enabled();
    let ((), t) = secs(|| {
        for i in 0..pairs {
            let now = SimTime::from_nanos(i);
            let op = rec.invoke(
                1,
                now,
                OpData::ReadShop {
                    site: HistorySite::Backup,
                },
            );
            rec.ok(1, op, now, OpData::None);
        }
    });
    assert_eq!(rec.len(), 2 * pairs);
    rows.push(("history.records_per_s", (2 * pairs) as f64 / t));

    let mut rig = small_rig(
        seed,
        BackupMode::AdcConsistencyGroup,
        size.pick(64, 8),
        true,
    );
    rig.run_workload_for(SimDuration::from_millis(size.pick(3000, 50)));
    let h = rig.world.st.history.history();
    let (verdict, t) = secs(|| check_history(&h, &CheckConfig::default()));
    assert!(
        verdict.is_clean(),
        "an adc-cg history without faults is clean"
    );
    rows.push(("history.check_ops_per_s", verdict.ops_checked() as f64 / t));
    let (jsonl, t) = secs(|| h.export_jsonl());
    rows.push(("history.export_mb_per_s", jsonl.len() as f64 / 1e6 / t));
}

// ----- chaos -------------------------------------------------------------

/// 2 plain paired trials (4 runs), 1 supervised trial (4 policies), 1
/// alert trial (3 profiles), serial harness; 20k random plans (quick: 200).
fn chaos(seed: u64, size: Size, rows: &mut Rows) {
    let cfg = ChaosConfig::default();
    let serial = TrialHarness::serial();
    let trials = size.pick(2usize, 1);
    let (set, t) = secs(|| chaos_sweep(&serial, seed, trials, &cfg));
    let runs = (2 * set.rows.len()) as f64;
    let audits: u64 = set.rows.iter().map(|p| p.cg.audits + p.naive.audits).sum();
    assert!(
        set.rows.iter().all(|p| p.cg.is_clean()),
        "adc-cg survives the plain sweep"
    );
    rows.push(("chaos.trials_per_s", runs / t));
    rows.push(("chaos.audits_per_trial", audits as f64 / runs));

    let (set, t) = secs(|| convergence_sweep(&serial, seed, 1, &cfg));
    rows.push((
        "chaos.supervised_trials_per_s",
        set.rows[0].rows.len() as f64 / t,
    ));
    let (set, t) = secs(|| alert_sweep(&serial, seed, 1, &cfg));
    rows.push((
        "chaos.alert_trials_per_s",
        set.rows[0].rows.len() as f64 / t,
    ));

    let plans = size.pick(20_000u64, 200);
    let (events, t) = secs(|| {
        (0..plans)
            .map(|i| {
                FaultPlan::random(DetRng::trial_seed(seed, i), cfg.horizon)
                    .events
                    .len()
            })
            .sum::<usize>()
    });
    black_box(events);
    rows.push(("chaos.plan_gen_per_s", plans as f64 / t));
}

// ----- telemetry ---------------------------------------------------------

/// 1M samples into one registry series (quick: 10k).
fn telemetry_registry(_seed: u64, size: Size, rows: &mut Rows) {
    let samples = size.pick(1_000_000u64, 10_000);
    let mut reg = MetricsRegistry::new();
    reg.enable_sampling();
    let ((), t) = secs(|| {
        for i in 0..samples {
            reg.sample("bench.series", SimTime::from_nanos(i), i as f64);
        }
    });
    assert_eq!(
        reg.series("bench.series").map(|s| s.len() as u64),
        Some(samples)
    );
    rows.push(("telemetry.registry_samples_per_s", samples as f64 / t));
}

// ----- core --------------------------------------------------------------

/// 4 plain paired chaos trials on `TrialHarness::new(2)` against
/// `serial()` (quick: 2). The only place the benchmark uses a second
/// thread; the box has 2 cores.
fn core_harness(seed: u64, size: Size, rows: &mut Rows) {
    let cfg = ChaosConfig::default();
    let trials = size.pick(4usize, 2);
    let (a, serial_s) = secs(|| chaos_sweep(&TrialHarness::serial(), seed, trials, &cfg));
    let (b, two_s) = secs(|| chaos_sweep(&TrialHarness::new(2), seed, trials, &cfg));
    assert!(
        a.rows
            .iter()
            .zip(&b.rows)
            .all(|(x, y)| x.cg == y.cg && x.naive == y.naive),
        "harness rows are identical at any thread count"
    );
    rows.push(("core.harness_speedup_2t", serial_s / two_s));
}

// ----- operator ----------------------------------------------------------

/// `e5_operator` (tag → pairs on the array → claims at the backup site)
/// at 200 and 2000 volumes (quick: 8 and 32).
fn operator(_seed: u64, size: Size, rows: &mut Rows) {
    let (small, large) = size.pick((200usize, 2000usize), (8, 32));
    let (r, t) = secs(|| e5_operator(&[small]));
    assert!(r[0].converged && r[0].pairs == small as u64);
    rows.push(("operator.reconcile_volumes_per_s.200", small as f64 / t));
    rows.push((
        "operator.api_mutations_per_volume",
        r[0].api_mutations as f64 / small as f64,
    ));
    rows.push(("operator.rounds", r[0].rounds as f64));
    let (r, t) = secs(|| e5_operator(&[large]));
    assert!(r[0].converged);
    rows.push(("operator.reconcile_volumes_per_s.2000", large as f64 / t));
}

// ----- analytics ---------------------------------------------------------

/// One demo system: tag, 1 s of 32-client load (quick: 50 ms, 8 clients),
/// snapshot group, then `step3_analytics` on the snapshot volumes.
fn analytics(seed: u64, size: Size, rows: &mut Rows) {
    let mut demo = DemoSystem::new(DemoConfig {
        seed,
        workload: WorkloadConfig {
            clients: size.pick(32, 8),
            ..WorkloadConfig::default()
        },
        ..DemoConfig::default()
    });
    demo.step1_configure_backup();
    demo.run_workload_for(SimDuration::from_millis(size.pick(1000, 50)));
    let handles = demo.step2_develop_snapshot("pit");
    let (report, t) = secs(|| {
        demo.step3_analytics(&handles, 5)
            .expect("snapshot image recovers")
    });
    assert!(report.order_count > 0);
    rows.push(("analytics.rows_per_s", report.order_count as f64 / t));
}
