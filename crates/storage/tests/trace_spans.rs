//! Causal trace coverage: a traced host write under ADC with a consistency
//! group must leave a well-formed span tree whose lifecycle chain is
//! `host_write → journal_append → wan_transfer → backup_apply`.

mod common;

use common::{at, Ev};
use tsuru_sim::{Sim, SimDuration, SimTime};
use tsuru_simnet::LinkConfig;
use tsuru_storage::engine::host_write;
use tsuru_storage::{
    block_from, span_names, ArrayPerf, EngineConfig, HasStorage, RecordKind, SpanId, StorageWorld,
    Tracer,
};

struct World {
    st: StorageWorld,
    acks: u64,
}

impl HasStorage for World {
    fn storage(&self) -> &StorageWorld {
        &self.st
    }
    fn storage_mut(&mut self) -> &mut StorageWorld {
        &mut self.st
    }
}

/// One ADC consistency group with two pairs, tracing enabled, two writes.
fn traced_run() -> (World, Tracer) {
    let mut st = StorageWorld::new(7, EngineConfig::default());
    let tracer = Tracer::enabled();
    st.set_tracer(tracer.clone());
    let main = st.add_array("main", ArrayPerf::default());
    let backup = st.add_array("backup", ArrayPerf::default());
    let link = st.add_link(LinkConfig::metro());
    let reverse = st.add_link(LinkConfig::metro());
    let p0 = st.create_volume(main, "p0", 64);
    let s0 = st.create_volume(backup, "s0", 64);
    let p1 = st.create_volume(main, "p1", 64);
    let s1 = st.create_volume(backup, "s1", 64);
    let g = st.create_adc_group("cg", link, reverse, 1 << 24);
    st.add_pair(g, p0, s0);
    st.add_pair(g, p1, s1);

    let mut world = World { st, acks: 0 };
    let mut sim: Sim<World, Ev<World>> = Sim::new();
    for (i, vol) in [p0, p1].into_iter().enumerate() {
        at(
            &mut sim,
            SimTime::from_micros(i as u64 * 10),
            move |w: &mut World, sim| {
                host_write(w, sim, vol, 3, block_from(b"traced"), |w, _sim, _ack| {
                    w.acks += 1;
                });
            },
        );
    }
    sim.run(&mut world);
    (world, tracer)
}

#[test]
fn traced_adc_write_yields_lifecycle_chain_ending_in_backup_apply() {
    let (world, tracer) = traced_run();
    assert_eq!(world.acks, 2);

    let records = tracer.records();
    assert!(!records.is_empty());

    // Every parent id must reference an earlier record (ids are dense and
    // allocated in emission order), so the records form a forest.
    for r in &records {
        assert!(r.id.0 >= 1, "record ids start at 1");
        if !r.parent.is_none() {
            assert!(
                r.parent.0 < r.id.0,
                "parent #{} not before #{}",
                r.parent.0,
                r.id.0
            );
        }
    }

    // Walk one lifecycle: host_write root → journal_append → wan_transfer
    // → backup_apply, linked by parent ids.
    let root = records
        .iter()
        .find(|r| r.name == span_names::HOST_WRITE)
        .expect("host_write span recorded");
    assert!(matches!(root.kind, RecordKind::Start));
    assert!(root.parent.is_none(), "host_write is a root span");

    let find_child = |name: &str, parent: SpanId| {
        records
            .iter()
            .find(|r| r.name == name && r.parent == parent)
            .unwrap_or_else(|| panic!("no {name} span with parent #{}", parent.0))
    };
    let append = find_child(span_names::JOURNAL_APPEND, root.id);
    let transfer = find_child(span_names::WAN_TRANSFER, append.id);
    let apply = find_child(span_names::BACKUP_APPLY, transfer.id);

    // The lifecycle's edges are causally ordered in sim time.
    let apply_end = match apply.kind {
        RecordKind::Span { end } => end,
        ref k => panic!("backup_apply should be a complete span, got {k:?}"),
    };
    assert!(append.t >= root.t);
    assert!(transfer.t >= append.t);
    assert!(apply_end >= apply.t && apply.t >= transfer.t);

    // The root span closed with an ack: a matching End record exists.
    assert!(
        records.iter().any(|r| r.name == span_names::HOST_WRITE
            && r.id == root.id
            && matches!(r.kind, RecordKind::End)),
        "host_write span must be closed by its ack"
    );

    // Both writes completed the chain: two backup_apply spans in total.
    let applies = records
        .iter()
        .filter(|r| r.name == span_names::BACKUP_APPLY)
        .count();
    assert_eq!(applies, 2);
}

#[test]
fn traced_run_samples_replication_series_and_counts_metrics() {
    let (world, _tracer) = traced_run();
    let snap = world.st.metrics.snapshot();
    // RPO-lag and journal-occupancy series are sampled at transfer/apply
    // edges once tracing is installed.
    for name in [
        tsuru_storage::metric_names::JOURNAL_OCCUPANCY,
        tsuru_storage::metric_names::RPO_LAG,
    ] {
        assert!(
            snap.series.iter().any(|(n, _)| n == name),
            "series {name} missing from snapshot"
        );
    }
    // The final samples see a drained journal and zero lag.
    let last_lag = snap
        .series
        .iter()
        .rfind(|(n, _)| n == tsuru_storage::metric_names::RPO_LAG)
        .map(|(_, s)| s.last)
        .expect("at least one rpo.lag_writes sample");
    assert_eq!(last_lag, 0.0);
}

/// A write that waits out a saturated lane gains its missing stage: one
/// `pump_stall` instant when its group parks and one `lane_wait` span park
/// → admit, both parented on the write's `journal_append`, the span ending
/// the instant the write's `wan_transfer` begins — and no per-tick stall
/// records in between.
#[test]
fn traced_lane_wait_fills_the_gap_between_append_and_transfer() {
    let mut st = StorageWorld::new(7, EngineConfig::default());
    let tracer = Tracer::enabled();
    st.set_tracer(tracer.clone());
    let main = st.add_array("main", ArrayPerf::default());
    let backup = st.add_array("backup", ArrayPerf::default());
    // One block per frame, 4.2 ms per frame at 1 MB/s against the 5 ms cap:
    // the third group to send parks.
    let link = st.add_link(LinkConfig::with(SimDuration::from_millis(1), 1_000_000));
    let reverse = st.add_link(LinkConfig::metro());
    let mut world = World { st, acks: 0 };
    let mut sim: Sim<World, Ev<World>> = Sim::new();
    for i in 0..4u64 {
        let g = world
            .st
            .create_adc_group(format!("g{i}"), link, reverse, 1 << 24);
        let p = world.st.create_volume(main, format!("p{i}"), 16);
        let s = world.st.create_volume(backup, format!("s{i}"), 16);
        world.st.add_pair(g, p, s);
        at(
            &mut sim,
            SimTime::from_micros(i),
            move |w: &mut World, sim| {
                host_write(w, sim, p, 0, block_from(b"queued"), |w, _, _| w.acks += 1);
            },
        );
    }
    sim.run(&mut world);
    assert_eq!(world.acks, 4);

    let records = tracer.records();
    let waits: Vec<_> = records
        .iter()
        .filter(|r| r.name == span_names::LANE_WAIT && !r.parent.is_none())
        .collect();
    assert!(!waits.is_empty(), "someone waited with a write behind it");
    for w in &waits {
        let RecordKind::Span { end } = w.kind else {
            panic!("lane_wait is a complete span, got {:?}", w.kind);
        };
        let append = records
            .iter()
            .find(|r| r.id == w.parent)
            .expect("parent recorded");
        assert_eq!(append.name, span_names::JOURNAL_APPEND);
        assert!(append.t <= w.t && w.t < end);
        let transfer = records
            .iter()
            .find(|r| r.name == span_names::WAN_TRANSFER && r.parent == append.id)
            .expect("the waiting write is shipped");
        assert_eq!(transfer.t, end, "admitted and sent in the same instant");
        let stalls = records
            .iter()
            .filter(|r| r.name == span_names::PUMP_STALL && r.parent == append.id)
            .count();
        assert_eq!(stalls, 1, "one stall instant per park, not one per tick");
    }
}
