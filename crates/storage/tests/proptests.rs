//! Property-based tests of the storage layer.
//!
//! The headline property is the paper's central guarantee, checked over
//! randomized workloads and failure times: **a consistency-group backup is
//! a prefix-consistent cut of the primary's ack order, no matter when the
//! site dies.**

#![allow(clippy::field_reassign_with_default)]

use std::collections::{BTreeMap, VecDeque};

use proptest::prelude::*;
use tsuru_sim::{Sim, SimDuration, SimTime};
use tsuru_simnet::LinkConfig;
use tsuru_storage::engine::host_write;
use tsuru_storage::{
    block_from, content_hash, AckLog, ArrayId, ArrayPerf, BlockBuf, BlockDevice, BlockDeviceMut,
    DenseArena, EngineConfig, GroupId, HasStorage, MemDevice, PairId, PoolId, SnapshotId,
    StorageArray, StorageWorld, VolRef, Volume, VolumeId, WriteAck, WriteError,
};

// ---------------------------------------------------------------------
// AckLog prefix checker vs a brute-force reference
// ---------------------------------------------------------------------

/// Reference implementation: a cut (k_v per volume) is prefix-consistent
/// iff it equals the per-volume counts of some global prefix.
fn prefix_reference(order: &[usize], counts: &BTreeMap<usize, u64>) -> bool {
    let nvol = counts.keys().max().map(|m| m + 1).unwrap_or(0);
    let mut running = vec![0u64; nvol];
    let target: Vec<u64> = (0..nvol)
        .map(|v| counts.get(&v).copied().unwrap_or(0))
        .collect();
    let matches = |running: &[u64]| running == target.as_slice();
    if matches(&running) {
        return true;
    }
    for &v in order {
        running[v] += 1;
        if matches(&running) {
            return true;
        }
    }
    false
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn prefix_checker_matches_reference(
        order in prop::collection::vec(0usize..4, 1..60),
        cut_fracs in prop::collection::vec(0.0f64..=1.0, 4),
    ) {
        let mut log = AckLog::new();
        let volref = |v: usize| VolRef::new(
            tsuru_storage::ArrayId(0),
            tsuru_storage::VolumeId(v as u64),
        );
        let mut per_vol_total = [0u64; 4];
        for (i, &v) in order.iter().enumerate() {
            log.append(volref(v), i as u64, i as u64, SimTime::from_nanos(i as u64));
            per_vol_total[v] += 1;
        }
        // Build an arbitrary cut (not necessarily a prefix).
        let mut counts = BTreeMap::new();
        let mut ref_counts = BTreeMap::new();
        for v in 0..4usize {
            let k = (per_vol_total[v] as f64 * cut_fracs[v]).round() as u64;
            counts.insert(volref(v), k);
            ref_counts.insert(v, k);
        }
        let verdict = log.check_prefix(&counts).consistent;
        let reference = prefix_reference(&order, &ref_counts);
        prop_assert_eq!(verdict, reference, "order={:?} cut={:?}", order, ref_counts);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Every true prefix cut of the ack order is accepted, and a cut
    /// derived from a randomly *reordered* copy of the same write
    /// sequence is rejected whenever it is not also a prefix of the
    /// original order (checked against the brute-force reference).
    #[test]
    fn prefix_cuts_accepted_reordered_cuts_rejected(
        order in prop::collection::vec(0usize..4, 2..60),
        cut_at in any::<prop::sample::Index>(),
        take_at in any::<prop::sample::Index>(),
        seed in any::<u64>(),
    ) {
        let volref = |v: usize| VolRef::new(
            tsuru_storage::ArrayId(0),
            tsuru_storage::VolumeId(v as u64),
        );
        let mut log = AckLog::new();
        for (i, &v) in order.iter().enumerate() {
            log.append(volref(v), i as u64, i as u64, SimTime::from_nanos(i as u64));
        }
        let counts_of = |prefix: &[usize]| -> (BTreeMap<VolRef, u64>, BTreeMap<usize, u64>) {
            let mut counts = BTreeMap::new();
            let mut ref_counts = BTreeMap::new();
            for v in 0..4usize {
                let k = prefix.iter().filter(|&&x| x == v).count() as u64;
                counts.insert(volref(v), k);
                ref_counts.insert(v, k);
            }
            (counts, ref_counts)
        };

        // Any prefix of the true ack order must be accepted.
        let k = cut_at.index(order.len() + 1);
        let (prefix_cut, _) = counts_of(&order[..k]);
        prop_assert!(
            log.check_prefix(&prefix_cut).consistent,
            "true prefix of length {} rejected", k
        );

        // A cut taken from a shuffled replay of the same writes models a
        // backup that applied writes out of order. Unless the shuffled
        // prefix happens to also be a prefix of the real order (the
        // reference decides), the checker must reject it.
        let mut shuffled = order.clone();
        tsuru_sim::DetRng::new(seed).shuffle(&mut shuffled);
        let m = 1 + take_at.index(order.len());
        let (reordered_cut, ref_counts) = counts_of(&shuffled[..m]);
        let is_genuine_prefix = prefix_reference(&order, &ref_counts);
        prop_assert_eq!(
            log.check_prefix(&reordered_cut).consistent,
            is_genuine_prefix,
            "order={:?} shuffled-cut={:?}", order, ref_counts
        );
    }
}

// ---------------------------------------------------------------------
// The engine property: CG backups are always prefix-consistent cuts
// ---------------------------------------------------------------------

struct World {
    st: StorageWorld,
}
impl HasStorage for World {
    fn storage(&self) -> &StorageWorld {
        &self.st
    }
    fn storage_mut(&mut self) -> &mut StorageWorld {
        &mut self.st
    }
}

/// One randomized write: (volume index, lba, issue-time offset ns).
#[derive(Debug, Clone)]
struct W {
    vol: usize,
    lba: u64,
    at_ns: u64,
}

fn writes_strategy() -> impl Strategy<Value = Vec<W>> {
    prop::collection::vec(
        (0usize..3, 0u64..64, 0u64..20_000_000u64)
            .prop_map(|(vol, lba, at_ns)| W { vol, lba, at_ns }),
        10..150,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn cg_backup_is_always_a_prefix_cut(
        writes in writes_strategy(),
        fail_frac in 0.1f64..1.0,
        seed in any::<u64>(),
        jitter_us in 0u64..3000,
    ) {
        let mut cfg = EngineConfig::default();
        cfg.pump_jitter = SimDuration::from_micros(jitter_us);
        let mut st = StorageWorld::new(seed, cfg);
        let main = st.add_array("m", ArrayPerf::default());
        let backup = st.add_array("b", ArrayPerf::default());
        let link = st.add_link(LinkConfig::metro());
        let rev = st.add_link(LinkConfig::metro());
        let g = st.create_adc_group("cg", link, rev, 1 << 24);
        let mut vols = Vec::new();
        for i in 0..3 {
            let p = st.create_volume(main, format!("p{i}"), 64);
            let s = st.create_volume(backup, format!("s{i}"), 64);
            st.add_pair(g, p, s);
            vols.push(p);
        }
        let mut world = World { st };
        let mut sim: Sim<World> = Sim::new();
        let max_t = writes.iter().map(|w| w.at_ns).max().unwrap_or(0);
        for (i, w) in writes.iter().enumerate() {
            let vol = vols[w.vol];
            let lba = w.lba;
            let tag = i as u64;
            sim.schedule_at(SimTime::from_nanos(w.at_ns), move |s: &mut World, sim| {
                host_write(s, sim, vol, lba, block_from(&tag.to_le_bytes()), |_, _, _| {});
            });
        }
        let fail_at = SimTime::from_nanos((max_t as f64 * fail_frac) as u64 + 1);
        sim.schedule_at(fail_at, move |w: &mut World, sim| {
            w.st.fail_array(main, sim.now());
        });
        // Let everything settle (bounded: failed primary stops the flow).
        sim.run_until(&mut world, fail_at + SimDuration::from_millis(200));
        world.st.promote_group(g);
        // The checker must accept the backup image's cut vector directly…
        let cut = world.st.applied_counts(&[g]);
        prop_assert!(
            world.st.ack_log.check_prefix(&cut).consistent,
            "checker rejected a CG-ADC backup image: {:?}",
            cut
        );
        // …and the full report (cut + byte content) must also pass.
        let rep = world.st.verify_consistency(&[g]);
        prop_assert!(
            rep.is_consistent(),
            "CG backup must be prefix-consistent: {:?}",
            rep
        );
    }

    /// Without failures, the backup converges to an exact copy, and the
    /// number of applied entries equals the number of acked writes.
    #[test]
    fn cg_drains_to_exact_copy(
        writes in writes_strategy(),
        seed in any::<u64>(),
    ) {
        let mut st = StorageWorld::new(seed, EngineConfig::default());
        let main = st.add_array("m", ArrayPerf::default());
        let backup = st.add_array("b", ArrayPerf::default());
        let link = st.add_link(LinkConfig::metro());
        let rev = st.add_link(LinkConfig::metro());
        let g = st.create_adc_group("cg", link, rev, 1 << 24);
        let mut pairs = Vec::new();
        for i in 0..3 {
            let p = st.create_volume(main, format!("p{i}"), 64);
            let s = st.create_volume(backup, format!("s{i}"), 64);
            st.add_pair(g, p, s);
            pairs.push((p, s));
        }
        let mut world = World { st };
        let mut sim: Sim<World> = Sim::new();
        for (i, w) in writes.iter().enumerate() {
            let vol = pairs[w.vol].0;
            let lba = w.lba;
            let tag = i as u64;
            sim.schedule_at(SimTime::from_nanos(w.at_ns), move |s: &mut World, sim| {
                host_write(s, sim, vol, lba, block_from(&tag.to_le_bytes()), |_, _, _| {});
            });
        }
        sim.run(&mut world);
        for (p, s) in pairs {
            let pc = world.st.array(main).volume(p.volume).content_hashes();
            let sc = world.st.array(backup).volume(s.volume).content_hashes();
            prop_assert_eq!(pc, sc);
        }
        let grp = world.st.fabric.group(g);
        prop_assert_eq!(grp.stats.entries_applied, writes.len() as u64);
        let rep = world.st.verify_consistency(&[g]);
        prop_assert!(rep.is_consistent());
    }
}

// ---------------------------------------------------------------------
// Id-indexed tables: the array's volume/snapshot tables and the volume's
// paged LBA index, against ordered-map models
// ---------------------------------------------------------------------

/// One control- or data-plane call on a [`StorageArray`]. Targets are drawn
/// over every id ever minted plus one, so deleted and never-minted ids are
/// probed as often as live ones.
#[derive(Debug, Clone)]
enum TOp {
    Create(u8),
    Delete(prop::sample::Index),
    Snapshot(prop::sample::Index),
    DeleteSnapshot(prop::sample::Index),
    Write(prop::sample::Index, u8, u16),
    HostCheck(prop::sample::Index, u8),
}

fn top_strategy() -> impl Strategy<Value = TOp> {
    prop_oneof![
        3 => (1u8..=32).prop_map(TOp::Create),
        2 => any::<prop::sample::Index>().prop_map(TOp::Delete),
        2 => any::<prop::sample::Index>().prop_map(TOp::Snapshot),
        1 => any::<prop::sample::Index>().prop_map(TOp::DeleteSnapshot),
        5 => (any::<prop::sample::Index>(), 0u8..32, any::<u16>())
            .prop_map(|(v, lba, tag)| TOp::Write(v, lba, tag)),
        3 => (any::<prop::sample::Index>(), 0u8..40).prop_map(|(v, lba)| TOp::HostCheck(v, lba)),
    ]
}

/// What the model knows of one live volume.
#[derive(Debug, Default)]
struct ModelVolume {
    size: u64,
    blocks: BTreeMap<u64, u16>,
}

/// What the model knows of one live snapshot: its base, the base's content
/// when it was taken, and the LBAs overwritten (hence preserved) since.
#[derive(Debug)]
struct ModelSnapshot {
    base: u64,
    image: BTreeMap<u64, u16>,
    preserved: std::collections::BTreeSet<u64>,
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// The array's slot tables agree with `BTreeMap` models keyed by the
    /// ids the array mints: ids are never reused, a dead or unminted id
    /// resolves to nothing (`NoSuchVolume`, not a panic and not a
    /// neighbour), deleting a volume takes its snapshots along, the id
    /// listings stay ascending, and every snapshot keeps reading the image
    /// of its creation instant while charging each LBA's copy-on-write
    /// exactly once.
    #[test]
    fn array_tables_match_map_models(ops in prop::collection::vec(top_strategy(), 1..120)) {
        let mut a = StorageArray::new(ArrayId(0), "model", ArrayPerf::default());
        let mut vols: BTreeMap<u64, ModelVolume> = BTreeMap::new();
        let mut snaps: BTreeMap<u64, ModelSnapshot> = BTreeMap::new();
        let (mut minted_vols, mut minted_snaps) = (0u64, 0u64);
        for op in ops {
            match op {
                TOp::Create(size) => {
                    let id = a.create_volume("v", size as u64);
                    prop_assert_eq!(id.0, minted_vols, "ids are minted densely, never reused");
                    minted_vols += 1;
                    vols.insert(id.0, ModelVolume { size: size as u64, ..Default::default() });
                }
                TOp::Delete(ix) => {
                    let id = ix.index(minted_vols as usize + 1) as u64;
                    a.delete_volume(VolumeId(id));
                    vols.remove(&id);
                    snaps.retain(|_, s| s.base != id);
                }
                TOp::Snapshot(ix) => {
                    let id = ix.index(minted_vols as usize + 1) as u64;
                    if let Some(m) = vols.get(&id) {
                        let sid = a.create_snapshot(VolumeId(id), "s", SimTime::ZERO);
                        prop_assert_eq!(sid.0, minted_snaps);
                        minted_snaps += 1;
                        snaps.insert(sid.0, ModelSnapshot {
                            base: id,
                            image: m.blocks.clone(),
                            preserved: Default::default(),
                        });
                    }
                }
                TOp::DeleteSnapshot(ix) => {
                    let sid = ix.index(minted_snaps as usize + 1) as u64;
                    a.delete_snapshot(SnapshotId(sid));
                    snaps.remove(&sid);
                }
                TOp::Write(ix, lba, tag) => {
                    let id = ix.index(minted_vols as usize + 1) as u64;
                    if let Some(m) = vols.get_mut(&id) {
                        let lba = lba as u64 % m.size;
                        let due = snaps
                            .values_mut()
                            .filter(|s| s.base == id)
                            .map(|s| s.preserved.insert(lba))
                            .filter(|&first| first)
                            .count() as u32;
                        prop_assert_eq!(a.cow_would_save(VolumeId(id), lba), due);
                        let cow = a.write_block(VolumeId(id), lba, block_from(&tag.to_le_bytes()));
                        prop_assert_eq!(cow, due);
                        prop_assert_eq!(a.cow_would_save(VolumeId(id), lba), 0);
                        m.blocks.insert(lba, tag);
                    }
                }
                TOp::HostCheck(ix, lba) => {
                    let id = ix.index(minted_vols as usize + 1) as u64;
                    let want = match vols.get(&id) {
                        None => Err(WriteError::NoSuchVolume),
                        Some(m) if lba as u64 >= m.size => Err(WriteError::OutOfRange),
                        Some(_) => Ok(()),
                    };
                    prop_assert_eq!(a.check_host_write(VolumeId(id), lba as u64), want);
                }
            }
            let ids: Vec<u64> = a.volume_ids().iter().map(|v| v.0).collect();
            prop_assert_eq!(ids, vols.keys().copied().collect::<Vec<_>>());
            let sids: Vec<u64> = a.snapshot_ids().iter().map(|s| s.0).collect();
            prop_assert_eq!(sids, snaps.keys().copied().collect::<Vec<_>>());
            for id in 0..=minted_vols {
                prop_assert_eq!(a.has_volume(VolumeId(id)), vols.contains_key(&id));
                if !vols.contains_key(&id) {
                    prop_assert_eq!(a.cow_would_save(VolumeId(id), 0), 0);
                }
            }
            for (&id, m) in &vols {
                let got: Vec<(u64, u16)> = a
                    .volume(VolumeId(id))
                    .iter_blocks()
                    .map(|(lba, b)| (lba, u16::from_le_bytes([b[0], b[1]])))
                    .collect();
                let want: Vec<(u64, u16)> = m.blocks.iter().map(|(&l, &t)| (l, t)).collect();
                prop_assert_eq!(got, want, "volume {} content diverged", id);
            }
            // Pool accounting follows the tables: written blocks plus
            // data-bearing copy-on-write saves, released on delete.
            let charged: usize = vols.values().map(|m| m.blocks.len()).sum::<usize>()
                + snaps
                    .values()
                    .map(|s| s.preserved.iter().filter(|l| s.image.contains_key(l)).count())
                    .sum::<usize>();
            prop_assert_eq!(a.pool(PoolId(0)).allocated_blocks(), charged as u64);
            for (&sid, m) in &snaps {
                let snap = a.snapshot(SnapshotId(sid));
                prop_assert_eq!(snap.base_volume(), VolumeId(m.base));
                prop_assert_eq!(snap.cow_blocks(), m.preserved.len());
                let saved = m.preserved.iter().filter(|l| m.image.contains_key(l)).count();
                prop_assert_eq!(snap.saved_blocks(), saved);
                for lba in 0..vols[&m.base].size {
                    let got = a
                        .read_snapshot_block(SnapshotId(sid), lba)
                        .map(|b| u16::from_le_bytes([b[0], b[1]]));
                    prop_assert_eq!(got, m.image.get(&lba).copied(), "snapshot {} lba {}", sid, lba);
                }
            }
        }
    }
}

/// One operation on a pair of volumes sharing an address space that spans
/// several index pages and ends in a short one.
#[derive(Debug, Clone)]
enum VOp {
    Write(u16, u16),
    Wipe,
    CloneToOther,
    Swap,
}

fn vop_strategy() -> impl Strategy<Value = VOp> {
    prop_oneof![
        12 => (0u16..VOL_BLOCKS as u16, any::<u16>()).prop_map(|(l, t)| VOp::Write(l, t)),
        1 => Just(VOp::Wipe),
        1 => Just(VOp::CloneToOther),
        1 => Just(VOp::Swap),
    ]
}

/// Two full index pages and a 176-slot tail.
const VOL_BLOCKS: u64 = 1200;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// A volume's paged LBA index agrees with a `BTreeMap<lba, tag>` model
    /// through first writes, overwrites (which return the replaced block),
    /// wipes and whole-content copies; unwritten addresses read as `None`
    /// and iteration is ascending by LBA.
    #[test]
    fn volume_index_matches_map_model(ops in prop::collection::vec(vop_strategy(), 1..300)) {
        let blk = |tag: u16| block_from(&tag.to_le_bytes());
        let tag_of = |b: &tsuru_storage::BlockBuf| u16::from_le_bytes([b[0], b[1]]);
        let mut vols = [
            Volume::new(VolumeId(0), "a", VOL_BLOCKS),
            Volume::new(VolumeId(1), "b", VOL_BLOCKS),
        ];
        let mut models: [BTreeMap<u64, u16>; 2] = [BTreeMap::new(), BTreeMap::new()];
        let mut cur = 0usize;
        for op in ops {
            match op {
                VOp::Write(lba, tag) => {
                    let old = vols[cur].write(lba as u64, blk(tag));
                    prop_assert_eq!(old.as_ref().map(tag_of), models[cur].insert(lba as u64, tag));
                }
                VOp::Wipe => {
                    vols[cur].wipe();
                    models[cur].clear();
                    prop_assert_eq!(vols[cur].index_pages(), 0);
                }
                VOp::CloneToOther => {
                    let (src, dst) = if cur == 0 {
                        let (a, b) = vols.split_at_mut(1);
                        (&a[0], &mut b[0])
                    } else {
                        let (a, b) = vols.split_at_mut(1);
                        (&b[0], &mut a[0])
                    };
                    dst.clone_content_from(src);
                    models[1 - cur] = models[cur].clone();
                }
                VOp::Swap => cur = 1 - cur,
            }
            for (v, m) in vols.iter().zip(&models) {
                prop_assert_eq!(v.allocated_blocks(), m.len());
                let got: Vec<(u64, u16)> = v.iter_blocks().map(|(l, b)| (l, tag_of(b))).collect();
                let want: Vec<(u64, u16)> = m.iter().map(|(&l, &t)| (l, t)).collect();
                prop_assert_eq!(got, want, "iteration order or content diverged");
                prop_assert!(v.index_pages() <= 3);
            }
            // Point reads across the page seams and the short tail.
            for lba in [0, 1, 511, 512, 1023, 1024, VOL_BLOCKS - 1] {
                prop_assert_eq!(vols[cur].read(lba).map(tag_of), models[cur].get(&lba).copied());
            }
        }
    }
}

// ---------------------------------------------------------------------
// DenseArena model test
// ---------------------------------------------------------------------

/// One randomized arena operation. `Remove`/`Get` pick from the live
/// handles (or probe a dead/out-of-range one when none fit), so long
/// sequences exercise the LIFO free list, not just append.
#[derive(Debug, Clone)]
enum AOp {
    Insert(u16),
    Remove(prop::sample::Index),
    Get(prop::sample::Index),
}

fn aop_strategy() -> impl Strategy<Value = AOp> {
    prop_oneof![
        5 => any::<u16>().prop_map(AOp::Insert),
        3 => any::<prop::sample::Index>().prop_map(AOp::Remove),
        2 => any::<prop::sample::Index>().prop_map(AOp::Get),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// The arena agrees with a `BTreeMap<u32, u16>` model under every
    /// insert/remove/get interleaving: same occupants, same lengths, same
    /// vacancy answers, and iteration yields exactly the model's entries
    /// in ascending handle order. Handle reuse is LIFO, so the handle
    /// sequence itself is a pure function of the op sequence — the model
    /// re-derives it and the test would fail on any divergence.
    #[test]
    fn dense_arena_matches_btreemap_model(ops in prop::collection::vec(aop_strategy(), 1..200)) {
        let mut arena: DenseArena<u16> = DenseArena::new();
        let mut model: BTreeMap<u32, u16> = BTreeMap::new();
        let mut high_water = 0u32;
        for op in ops {
            match op {
                AOp::Insert(v) => {
                    let h = arena.insert(v);
                    prop_assert!(
                        model.insert(h, v).is_none(),
                        "insert handed out a live handle {h}"
                    );
                    high_water = high_water.max(h + 1);
                }
                AOp::Remove(ix) => {
                    if model.is_empty() {
                        // Nothing live: removal must refuse any probe.
                        prop_assert_eq!(arena.remove(high_water + 1), None);
                    } else {
                        let &h = model
                            .keys()
                            .nth(ix.index(model.len()))
                            .expect("index < len");
                        prop_assert_eq!(arena.remove(h), model.remove(&h));
                        // A freed handle is dead until reissued.
                        prop_assert_eq!(arena.get(h), None);
                        prop_assert_eq!(arena.remove(h), None);
                    }
                }
                AOp::Get(ix) => {
                    // Probe across [0, high_water]: hits live slots,
                    // vacant (freed) slots and the never-allocated edge.
                    let h = ix.index(high_water as usize + 1) as u32;
                    prop_assert_eq!(arena.get(h), model.get(&h));
                    prop_assert_eq!(arena.contains(h), model.contains_key(&h));
                }
            }
            prop_assert_eq!(arena.len(), model.len());
            prop_assert_eq!(arena.is_empty(), model.is_empty());
            // Slots are only ever appended, never shrunk.
            prop_assert!(arena.capacity_slots() <= high_water as usize);
            let live: Vec<(u32, u16)> = arena.iter().map(|(h, &v)| (h, v)).collect();
            let expect: Vec<(u32, u16)> = model.iter().map(|(&h, &v)| (h, v)).collect();
            prop_assert_eq!(live, expect, "iteration order or occupancy diverged");
        }
    }
}

// ---------------------------------------------------------------------
// Journal model test
// ---------------------------------------------------------------------

#[derive(Debug, Clone)]
enum JOp {
    Append(u8),
    MarkSentUpTo,
    Release(u8),
}

fn jop_strategy() -> impl Strategy<Value = JOp> {
    prop_oneof![
        4 => (0u8..255).prop_map(JOp::Append),
        2 => Just(JOp::MarkSentUpTo),
        2 => (0u8..255).prop_map(JOp::Release),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn journal_accounting_never_desyncs(ops in prop::collection::vec(jop_strategy(), 1..80)) {
        use tsuru_storage::{Journal, JournalId, PairId};
        let mut j = Journal::new(JournalId(0), 20 * (4096 + 64), 64);
        let mut model_len = 0usize;
        let mut appended = 0u64;
        let mut released = 0u64;
        for op in ops {
            match op {
                JOp::Append(x) => {
                    let fits = j.has_space(4096);
                    let got = j.append(PairId(0), x as u64, block_from(&[x]), x as u64);
                    prop_assert_eq!(fits, got.is_some());
                    if let Some(seq) = got {
                        appended += 1;
                        model_len += 1;
                        prop_assert_eq!(seq, appended);
                    }
                }
                JOp::MarkSentUpTo => {
                    if appended > 0 {
                        j.mark_sent(appended);
                        prop_assert!(j.peek_unsent(100, u64::MAX).is_empty());
                    }
                }
                JOp::Release(n) => {
                    let upto = released + (n as u64 % 8);
                    let upto = upto.min(appended);
                    j.release_upto(upto);
                    if upto > released {
                        model_len -= (upto - released) as usize;
                        released = upto;
                    }
                }
            }
            prop_assert_eq!(j.len(), model_len);
            prop_assert_eq!(
                j.used_bytes(),
                model_len as u64 * (4096 + 64),
                "byte accounting drifted"
            );
            if let Some(front) = j.peek_front() {
                prop_assert_eq!(front.seq, released + 1);
            }
        }
    }
}

// ---------------------------------------------------------------------
// The lane wait list vs a reference model of one saturated lane
// ---------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// N groups with random append schedules share one slow lane. The run
    /// is stepped event by event beside a reference model — the link as a
    /// single `busy_until` advanced by the bytes each step put on it, the
    /// wait list as a plain FIFO fed by the groups' observed park and
    /// admit edges — and after every event:
    ///
    /// (a) work-conserving: while anyone waits the lane's wake is armed no
    ///     later than the instant the reference backlog reaches the
    ///     threshold, and a waiter that sends is admitted at exactly that
    ///     instant — the link never idles under the threshold with a
    ///     sender parked, and nobody is let in early;
    /// (b) admission order equals park order;
    /// (c) the backlog never exceeds the threshold plus one maximal frame;
    /// (d) at most one wake is pending per link: every `link_wake` that
    ///     fires is the one the table had armed, for that instant.
    #[test]
    fn lane_wait_list_matches_reference_lane(
        schedules in prop::collection::vec(
            prop::collection::vec(0u64..20_000_000, 1..7), 2..11),
        seed in any::<u64>(),
        jitter_us in 0u64..800,
    ) {
        const NS_PER_BYTE: u64 = 1_000; // 1 MB/s: serialisation time is exact
        let mut cfg = EngineConfig::default();
        cfg.pump_jitter = SimDuration::from_micros(jitter_us);
        cfg.batch_max_entries = 4;
        let thr = cfg.max_link_backlog;
        let max_frame = SimDuration::from_nanos(
            (4 * (4096 + cfg.journal_entry_overhead) + cfg.frame_overhead) * NS_PER_BYTE,
        );
        let mut st = StorageWorld::new(seed, cfg);
        let main = st.add_array("m", ArrayPerf::default());
        let backup = st.add_array("b", ArrayPerf::default());
        let link = st.add_link(LinkConfig::with(SimDuration::from_millis(1), 1_000_000));
        let rev = st.add_link(LinkConfig::metro());
        let mut groups = Vec::new();
        let mut sim: Sim<World> = Sim::new();
        for (i, appends) in schedules.iter().enumerate() {
            let g = st.create_adc_group(format!("g{i}"), link, rev, 1 << 24);
            let p = st.create_volume(main, format!("p{i}"), 16);
            let s = st.create_volume(backup, format!("s{i}"), 16);
            st.add_pair(g, p, s);
            groups.push(g);
            for (k, &at_ns) in appends.iter().enumerate() {
                let (lba, tag) = (k as u64, (i * 100 + k) as u64);
                sim.schedule_at(SimTime::from_nanos(at_ns), move |w: &mut World, sim| {
                    host_write(w, sim, p, lba, block_from(&tag.to_le_bytes()), |_, _, _| {});
                });
            }
        }
        let mut world = World { st };
        let wakes = |w: &World| {
            w.st.op_counts().find(|(kind, _)| *kind == "link_wake").map_or(0, |(_, n)| n)
        };

        let mut ref_busy_until = SimTime::ZERO;
        let mut ref_fifo: VecDeque<GroupId> = VecDeque::new();
        let mut was_parked = vec![false; groups.len()];
        let mut bytes_seen = 0u64;
        loop {
            let armed = world.st.lane_waits().wake_at(link);
            let wakes_before = wakes(&world);
            if !sim.step(&mut world) {
                break;
            }
            let now = sim.now();
            let st = &world.st;
            let woke = wakes(&world) > wakes_before;
            if woke {
                prop_assert_eq!(armed, Some(now), "(d) an unarmed wake fired");
            }
            let backlog_before = ref_busy_until.saturating_since(now);

            let mut admitted = Vec::new();
            for (i, &g) in groups.iter().enumerate() {
                let parked = st.fabric.group(g).pump_parked;
                if was_parked[i] && !parked {
                    admitted.push(g);
                } else if !was_parked[i] && parked {
                    prop_assert!(backlog_before > thr, "parked under the threshold");
                    ref_fifo.push_back(g);
                }
                was_parked[i] = parked;
            }
            prop_assert!(admitted.is_empty() || woke, "admitted outside a wake");
            let mut heads: Vec<GroupId> = ref_fifo.drain(..admitted.len()).collect();
            heads.sort();
            prop_assert_eq!(&admitted, &heads, "(b) admission order is park order");

            let bytes = st.net.link(link).bytes_delivered();
            if bytes > bytes_seen {
                prop_assert!(backlog_before <= thr, "sent over the threshold");
                if woke {
                    prop_assert_eq!(backlog_before, thr, "(a) a waiter sends the instant the backlog clears");
                }
                let sent = SimDuration::from_nanos((bytes - bytes_seen) * NS_PER_BYTE);
                ref_busy_until = ref_busy_until.max(now) + sent;
                bytes_seen = bytes;
            }
            let backlog = ref_busy_until.saturating_since(now);
            prop_assert_eq!(st.net.link(link).backlog(now), backlog, "reference link drifted");
            prop_assert!(backlog <= thr + max_frame, "(c) backlog {} over cap + frame", backlog);

            let violations = st.lane_wait_violations(now);
            prop_assert!(violations.is_empty(), "{:?}", violations);
            if !ref_fifo.is_empty() {
                let clears = now + backlog.saturating_sub(thr);
                let wake = st.lane_waits().wake_at(link);
                prop_assert!(wake.is_some_and(|at| at <= clears), "(a) wake {:?} after {}", wake, clears);
            }
        }

        prop_assert!(ref_fifo.is_empty());
        prop_assert_eq!(world.st.lane_waits().wake_at(link), None);
        for (g, appends) in groups.iter().zip(&schedules) {
            let grp = world.st.fabric.group(*g);
            prop_assert_eq!(grp.stats.entries_transferred, appends.len() as u64);
            prop_assert_eq!(grp.stats.entries_applied, appends.len() as u64);
            prop_assert!(world.st.verify_consistency(&[*g]).is_consistent());
        }
    }
}

// ---------------------------------------------------------------------
// The fingerprint that travels with the buffer vs the hash of the bytes
// ---------------------------------------------------------------------

/// One step of the fingerprint oracle's script.
#[derive(Debug, Clone)]
enum FOp {
    /// Host write to business volume `vol`: one of four payload buffers
    /// every writer shares (`Some`, as the tenant worlds do — the cell is
    /// filled once and read through every clone) or a fresh one.
    Write { vol: usize, lba: u64, shared: Option<usize>, tag: u16 },
    /// Let the data plane run.
    Run { us: u64 },
    /// Snapshot backup volume `vol`: later applies copy-on-write into it.
    Snapshot { vol: usize },
    /// `Volume::clone_content_from` of primary `vol` into a scratch volume.
    CloneOut { vol: usize },
    Suspend,
    Resync { full: bool },
    /// Overwrite a block of backup volume `vol` behind replication's back,
    /// so the consistency verdict takes both values.
    Tamper { vol: usize, lba: u64 },
    /// Fail the main array and promote the backup; ends the script.
    Failover,
}

fn fop_strategy() -> impl Strategy<Value = FOp> {
    prop_oneof![
        12 => (0usize..3, 0u64..16, prop::option::of(0usize..4), any::<u16>())
            .prop_map(|(vol, lba, shared, tag)| FOp::Write { vol, lba, shared, tag }),
        6 => (0u64..3_000).prop_map(|us| FOp::Run { us }),
        2 => (0usize..3).prop_map(|vol| FOp::Snapshot { vol }),
        1 => (0usize..3).prop_map(|vol| FOp::CloneOut { vol }),
        1 => Just(FOp::Suspend),
        2 => any::<bool>().prop_map(|full| FOp::Resync { full }),
        1 => (0usize..3, 0u64..16).prop_map(|(vol, lba)| FOp::Tamper { vol, lba }),
        1 => Just(FOp::Failover),
    ]
}

/// The fingerprint's definition (DESIGN.md §23), from the bytes alone:
/// `content_hash` of the block up to and including its last non-zero byte.
/// Every comparison below goes through this one function.
fn reference_fingerprint(block: &[u8]) -> u64 {
    let extent = block.iter().rposition(|&b| b != 0).map_or(0, |last| last + 1);
    content_hash(&block[..extent])
}

/// `lba → reference_fingerprint(bytes)` from the bytes alone.
fn recomputed(v: &Volume) -> BTreeMap<u64, u64> {
    v.iter_blocks().map(|(lba, b)| (lba, reference_fingerprint(b))).collect()
}

/// Everything the oracle compares against, kept outside the storage world
/// and built from payload *bytes* only.
#[derive(Default)]
struct Recomputed {
    /// Global ack index → hash of the payload the host handed in.
    acked: BTreeMap<u64, u64>,
    /// Pair → hashes of the primary's bytes at its last initial copy.
    initial: BTreeMap<PairId, BTreeMap<u64, u64>>,
}

/// `verify_consistency`'s verdict, from recomputed hashes only: the cut is
/// a prefix, and every backup volume holds its pair's initial image
/// overlaid with the first `applied_writes` acked payloads.
fn recomputed_verdict(st: &StorageWorld, re: &Recomputed, g: GroupId) -> bool {
    let prefix = st.ack_log.check_prefix(&st.applied_counts(&[g])).consistent;
    prefix
        && st.fabric.group(g).pairs.iter().all(|&pid| {
            let p = st.fabric.pair(pid);
            let mut expect = re.initial[&pid].clone();
            let replayed = st.ack_log.writes_for(p.primary).iter();
            for &global in replayed.skip(p.ack_offset as usize).take(p.applied_writes as usize) {
                expect.insert(st.ack_log.entries()[global as usize].lba, re.acked[&global]);
            }
            expect == recomputed(st.array(p.secondary.array).volume(p.secondary.volume))
        })
}

/// A block's fingerprint is the reference's over its bytes, on the handle
/// and on every clone of it.
fn fingerprint_is_hash(b: &BlockBuf) -> bool {
    let h = reference_fingerprint(b);
    b.fingerprint() == h && b.clone().fingerprint() == h
}

/// The oracle's after-every-step comparison; returns the (agreed)
/// consistency verdict.
fn check_fingerprints(
    st: &StorageWorld,
    re: &Recomputed,
    g: GroupId,
    pairs: &[(PairId, VolRef, VolRef)],
    snapshots: &[SnapshotId],
) -> Result<bool, String> {
    for &(_, p, s) in pairs {
        for v in [st.array(p.array).volume(p.volume), st.array(s.array).volume(s.volume)] {
            prop_assert_eq!(v.content_hashes(), recomputed(v), "{}", v.name());
            prop_assert!(v.iter_blocks().all(|(_, b)| fingerprint_is_hash(b)));
        }
    }
    let backup = st.array(pairs[0].2.array);
    for &snap in snapshots {
        for lba in 0..16 {
            let block = backup.read_snapshot_block(snap, lba);
            prop_assert!(block.map_or(true, fingerprint_is_hash), "snapshot {:?} lba {}", snap, lba);
        }
    }
    for e in st.ack_log.entries() {
        prop_assert_eq!(e.hash, re.acked[&e.global], "ack {} carries a stale fingerprint", e.global);
    }
    let verdict = st.verify_consistency(&[g]).is_consistent();
    prop_assert_eq!(verdict, recomputed_verdict(st, re, g));
    Ok(verdict)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Over random host writes (shared and fresh payload buffers),
    /// overwrites, snapshots + copy-on-write, `clone_content_from`,
    /// suspend / delta and full resync, tampering and failover, after
    /// every step: every volume's `content_hashes()` equals the reference
    /// fingerprint recomputed from `iter_blocks()`' bytes; every block reachable
    /// through a volume, a snapshot or a copy carries the fingerprint of
    /// its bytes; every ack-log entry holds the hash of the payload the
    /// host handed in; and `verify_consistency`'s verdict equals the
    /// verdict recomputed from bytes.
    #[test]
    fn fingerprints_equal_recomputed_hashes(
        ops in prop::collection::vec(fop_strategy(), 1..120),
        seed in any::<u64>(),
    ) {
        use std::cell::RefCell;
        use std::rc::Rc;

        let mut st = StorageWorld::new(seed, EngineConfig::default());
        let main = st.add_array("m", ArrayPerf::default());
        let backup = st.add_array("b", ArrayPerf::default());
        let (link, rev) = (st.add_link(LinkConfig::metro()), st.add_link(LinkConfig::metro()));
        let g = st.create_adc_group("cg", link, rev, 1 << 24);
        let re = Rc::new(RefCell::new(Recomputed::default()));
        let mut pairs = Vec::new();
        for i in 0..3u64 {
            let p = st.create_volume(main, format!("p{i}"), 16);
            let s = st.create_volume(backup, format!("s{i}"), 16);
            // A non-empty initial image, one block of it shared.
            st.write_direct(p, i, &i.to_le_bytes());
            st.write_direct(p, 15, b"everywhere");
            let pid = st.add_pair(g, p, s);
            re.borrow_mut().initial.insert(pid, recomputed(st.array(main).volume(p.volume)));
            pairs.push((pid, p, s));
        }
        let shared: Vec<BlockBuf> = (0..4u8).map(|i| block_from(&[i; 32])).collect();
        let mut world = World { st };
        let mut sim: Sim<World> = Sim::new();
        let mut snapshots: Vec<SnapshotId> = Vec::new();
        // Both verdicts must occur or the last comparison checks nothing:
        // the initial copy is consistent, a tampered backup is not (a script
        // that does not end in a failover is tampered with at its end).
        let mut verdicts = [0usize; 2];
        let mut failed_over = false;
        verdicts[check_fingerprints(&world.st, &re.borrow(), g, &pairs, &snapshots)? as usize] += 1;

        for op in &ops {
            match *op {
                FOp::Write { vol, lba, shared: which, tag } => {
                    let data = match which {
                        Some(i) => shared[i].clone(),
                        None => block_from(&tag.to_le_bytes()),
                    };
                    let (hash, re) = (reference_fingerprint(&data), Rc::clone(&re));
                    host_write(&mut world, &mut sim, pairs[vol].1, lba, data, move |_, _, ack| {
                        if let WriteAck::Ok { global, .. } | WriteAck::Degraded { global, .. } = ack {
                            re.borrow_mut().acked.insert(global, hash);
                        }
                    });
                }
                FOp::Run { us } => sim.run_for(&mut world, SimDuration::from_micros(us)),
                FOp::Snapshot { vol } => {
                    let id = world.st.array_mut(backup).create_snapshot(pairs[vol].2.volume, "snap", sim.now());
                    snapshots.push(id);
                }
                FOp::CloneOut { vol } => {
                    let src = world.st.array(main).volume(pairs[vol].1.volume);
                    let mut copy = Volume::new(VolumeId(99), "copy", 16);
                    copy.clone_content_from(src);
                    prop_assert_eq!(copy.content_hashes(), recomputed(src));
                    prop_assert!(copy.iter_blocks().all(|(_, b)| fingerprint_is_hash(b)));
                }
                FOp::Suspend => world.st.suspend_group(g, sim.now()),
                FOp::Resync { full } => {
                    world.st.resync_group_with(g, full);
                    for &(pid, p, _) in &pairs {
                        let image = recomputed(world.st.array(main).volume(p.volume));
                        prop_assert_eq!(&world.st.fabric.pair(pid).initial_hashes, &image);
                        re.borrow_mut().initial.insert(pid, image);
                    }
                }
                FOp::Tamper { vol, lba } => world.st.write_direct(pairs[vol].2, lba, b"not what was acked"),
                FOp::Failover => {
                    world.st.fail_array(main, sim.now());
                    sim.run_for(&mut world, SimDuration::from_millis(20));
                    world.st.promote_group(g);
                }
            }

            let verdict = check_fingerprints(&world.st, &re.borrow(), g, &pairs, &snapshots)?;
            verdicts[verdict as usize] += 1;
            if matches!(op, FOp::Failover) {
                failed_over = true;
                break;
            }
        }
        prop_assert!(verdicts[1] > 0);
        if !failed_over {
            world.st.write_direct(pairs[0].2, 3, b"not what was acked");
            prop_assert!(!check_fingerprints(&world.st, &re.borrow(), g, &pairs, &snapshots)?);
        }
    }
}

/// `MemDevice::corrupt` builds a new buffer, so the damaged block carries
/// the fingerprint of the damaged bytes — and readers that cloned the
/// block before keep the old one.
#[test]
fn corrupting_a_block_changes_its_fingerprint() {
    let mut dev = MemDevice::new(4);
    dev.write_block(2, b"intact");
    let before = dev.read_block(2).unwrap();
    let fp = before.fingerprint();
    dev.corrupt(2, 3);
    let after = dev.read_block(2).unwrap();
    assert_ne!(after.fingerprint(), fp);
    assert!(fingerprint_is_hash(&after));
    assert_eq!(before.fingerprint(), fp);
    assert!(fingerprint_is_hash(&before));
}
