//! Regression: journal-full stall retries must not reorder host writes.
//!
//! Under the Block policy a stalled write re-attempts `persist` on its own
//! retry timer. Before the per-volume ordering gate, two stalled writes to
//! the same LBA could apply in retry-phase order rather than issue order
//! when the journal freed up, so the *older* content could land last. For
//! a database WAL, whose tail block is rewritten by every commit, that
//! rolls the tail back in time and permanently truncates the record
//! stream — the chaos auditor caught this as a stale recovered database.

mod common;

use common::{at, Ev};
use tsuru_sim::{Sim, SimTime};
use tsuru_simnet::LinkConfig;
use tsuru_storage::engine::host_write;
use tsuru_storage::{
    block_from, ArrayPerf, EngineConfig, HasStorage, StorageWorld, VolRef, BLOCK_SIZE,
    JOURNAL_ENTRY_OVERHEAD,
};

struct World {
    st: StorageWorld,
    /// The two same-LBA writes acknowledged so far.
    acked: u32,
}

impl HasStorage for World {
    fn storage(&self) -> &StorageWorld {
        &self.st
    }
    fn storage_mut(&mut self) -> &mut StorageWorld {
        &mut self.st
    }
}

/// Two same-LBA writes stall on a squeezed journal with retry phases
/// arranged so the *second* write's retry fires first after the squeeze
/// heals. The volume must still end up holding the second write's bytes.
#[test]
fn stalled_writes_apply_in_issue_order() {
    let mut st = StorageWorld::new(3, EngineConfig::default());
    let main = st.add_array("vsp-main", ArrayPerf::default());
    let backup = st.add_array("vsp-backup", ArrayPerf::default());
    let link = st.add_link(LinkConfig::metro());
    let reverse = st.add_link(LinkConfig::metro());
    let group = st.create_adc_group("g", link, reverse, 1 << 24);
    let p = st.create_volume(main, "p", 16);
    let s = st.create_volume(backup, "s", 16);
    st.add_pair(group, p, s);
    let filler = st.create_volume(main, "f", 16);
    let filler_r = st.create_volume(backup, "f-r", 16);
    st.add_pair(group, filler, filler_r);

    // Squeeze the journal to one entry and fill it with a write to a
    // second member volume, persisted at 100 µs on that volume's own
    // station: every later append stalls (Block policy) until the heal.
    // The entry is released only once its applied-ack has crossed the
    // 2 ms metro link back, long after the heal.
    let jid = st.fabric.group(group).primary_jnl.unwrap();
    let one_entry = BLOCK_SIZE as u64 + JOURNAL_ENTRY_OVERHEAD;
    st.fabric.journal_mut(jid).set_capacity_bytes(one_entry);

    let mut world = World { st, acked: 0 };
    let mut sim: Sim<World, Ev<World>> = Sim::new();
    at(&mut sim, SimTime::ZERO, move |w: &mut World, sim| {
        host_write(w, sim, filler, 0, block_from(b"filler"), |_, _, ack| {
            assert!(ack.is_persisted(), "{ack:?}");
        });
    });

    // write_service = 100 µs, stall retry = 200 µs. Issue order: OLD then
    // NEW. Service completes at 100 µs / 200 µs, so the retry grids are
    // OLD @ {300, 500, …} and NEW @ {400, 600, …}.
    for (t, tag) in [
        (SimTime::ZERO, 0xDEAD_0001u64),
        (SimTime::from_micros(1), 0xDEAD_0002),
    ] {
        at(&mut sim, t, move |w: &mut World, sim| {
            host_write(w, sim, p, 0, block_from(&tag.to_le_bytes()), |w, _, ack| {
                assert!(ack.is_persisted(), "{ack:?}");
                w.acked += 1;
            });
        });
    }

    // Heal between the two retry phases: the NEW write's retry at 400 µs
    // finds space *before* the OLD write's retry at 500 µs.
    at(
        &mut sim,
        SimTime::from_micros(350),
        move |w: &mut World, _| {
            w.st.fabric.journal_mut(jid).set_capacity_bytes(1 << 24);
        },
    );

    sim.run(&mut world);

    assert_eq!(world.acked, 2, "both writes must eventually persist");
    assert!(
        world
            .st
            .metrics
            .counter(tsuru_storage::metric_names::JOURNAL_STALL_RETRIES)
            > 0,
        "the squeeze must actually stall the writes"
    );
    assert!(
        world
            .st
            .metrics
            .counter(tsuru_storage::metric_names::WRITE_ORDER_WAITS)
            > 0,
        "the ordering gate must park the overtaking retry"
    );
    let newest = |vol: VolRef| {
        let b = world.st.read_direct(vol, 0).unwrap();
        u64::from_le_bytes(b[..8].try_into().unwrap())
    };
    assert_eq!(
        newest(p),
        0xDEAD_0002,
        "primary must hold the later-issued write"
    );
    let report = world.st.verify_consistency(&[group]);
    assert!(report.prefix.consistent, "{:?}", report.prefix.violations);
    assert!(
        report.content_mismatches.is_empty(),
        "{:?}",
        report.content_mismatches
    );
    assert_eq!(
        newest(s),
        0xDEAD_0002,
        "backup must converge to the same bytes"
    );
}
