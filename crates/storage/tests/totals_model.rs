//! Model check of the fabric's running replication totals.
//!
//! `ReplicationFabric::replication_totals()` is maintained incrementally at
//! the few places pair progress and primary-journal bytes change; the
//! sampled `journal.occupancy_bytes` / `rpo.lag_writes` series read it on
//! every transfer and apply edge. This drives a small mixed world — an ADC
//! consistency group, an SDC group and a volume with a leg in each —
//! through random data-plane and control-plane steps and demands that the
//! running totals equal a full rescan after every step and at quiescence.
//! Sampling is on, so in debug builds the same equality is also asserted
//! inside the engine at every edge between the steps.

use proptest::prelude::*;
use tsuru_sim::{Sim, SimDuration};
use tsuru_simnet::{LinkConfig, LinkId};
use tsuru_storage::engine::{heal_all_links, host_write, kick_all_pumps};
use tsuru_storage::{
    block_from, ArrayId, ArrayPerf, EngineConfig, GroupId, GroupState, HasStorage,
    JournalFullPolicy, ReplicationTotals, StorageWorld, VolRef,
};

const JOURNAL_BYTES: u64 = 1 << 20;
/// Room for two entries: the next few writes overflow.
const SQUEEZED_BYTES: u64 = 2 * (4096 + 64);

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

#[derive(Debug, Clone)]
enum Step {
    /// A burst of host writes to one of the four business volumes.
    Write {
        vol: usize,
        lba: u64,
        burst: u8,
    },
    LinkLoss {
        link: usize,
        lossy: bool,
    },
    LinkDown {
        link: usize,
    },
    HealLinks,
    Squeeze {
        squeezed: bool,
    },
    Suspend {
        group: usize,
    },
    Resync {
        group: usize,
        force_full: bool,
    },
    /// `remove_pair` (unfences the secondary) or the bare `detach_pair`.
    Detach {
        pair: usize,
        unfence: bool,
    },
    Promote {
        group: usize,
    },
    ReverseProtect {
        group: usize,
    },
    CompleteFailback,
}

fn step() -> impl Strategy<Value = Step> {
    prop_oneof![
        12 => (0usize..4, 0u64..8, 1u8..6).prop_map(|(vol, lba, burst)| Step::Write { vol, lba, burst }),
        2 => (0usize..4, any::<bool>()).prop_map(|(link, lossy)| Step::LinkLoss { link, lossy }),
        2 => (0usize..4).prop_map(|link| Step::LinkDown { link }),
        3 => Just(Step::HealLinks),
        2 => any::<bool>().prop_map(|squeezed| Step::Squeeze { squeezed }),
        2 => (0usize..2).prop_map(|group| Step::Suspend { group }),
        3 => (0usize..2, any::<bool>()).prop_map(|(group, force_full)| Step::Resync { group, force_full }),
        1 => (0usize..5, any::<bool>()).prop_map(|(pair, unfence)| Step::Detach { pair, unfence }),
        2 => (0usize..2).prop_map(|group| Step::Promote { group }),
        1 => (0usize..2).prop_map(|group| Step::ReverseProtect { group }),
        1 => Just(Step::CompleteFailback),
    ]
}

fn short_link() -> LinkConfig {
    LinkConfig::with(SimDuration::from_micros(200), 1_000_000_000 / 8)
}

struct Rig {
    world: World,
    sim: Sim<World>,
    main: ArrayId,
    vols: [VolRef; 4],
    links: [LinkId; 4],
    /// The ADC consistency group and the SDC group.
    groups: [GroupId; 2],
    /// Reverse groups created by `ReverseProtect`, awaiting failback.
    reversed: Vec<GroupId>,
    seq: u64,
}

impl Rig {
    fn new(policy: JournalFullPolicy) -> Rig {
        let config = EngineConfig {
            journal_full_policy: policy,
            ..EngineConfig::default()
        };
        let mut st = StorageWorld::new(13, config);
        st.metrics.enable_sampling();
        let main = st.add_array("main", ArrayPerf::default());
        let backup = st.add_array("backup", ArrayPerf::default());
        let metro = st.add_array("metro", ArrayPerf::default());
        // Short links, so a write's whole append → transfer → apply →
        // release cycle fits between two steps' worth of advance.
        let links = [(); 4].map(|()| st.add_link(short_link()));
        let cg = st.create_adc_group("cg", links[0], links[1], JOURNAL_BYTES);
        let sg = st.create_sdc_group("sg", links[2], links[3]);
        let vols = [
            st.create_volume(main, "adc-1", 16),
            st.create_volume(main, "adc-2", 16),
            st.create_volume(main, "sdc-1", 16),
            st.create_volume(main, "both", 16),
        ];
        for (i, &(vol, site, group)) in [
            (vols[0], backup, cg),
            (vols[1], backup, cg),
            (vols[2], metro, sg),
            // The multi-target volume: metro SDC plus WAN ADC.
            (vols[3], backup, cg),
            (vols[3], metro, sg),
        ]
        .iter()
        .enumerate()
        {
            let secondary = st.create_volume(site, format!("r{i}"), 16);
            st.add_pair(group, vol, secondary);
        }
        Rig {
            world: World { st },
            sim: Sim::new(),
            main,
            vols,
            links,
            groups: [cg, sg],
            reversed: Vec::new(),
            seq: 0,
        }
    }

    fn set_capacity(&mut self, bytes: u64) {
        let fabric = &mut self.world.st.fabric;
        let jids: Vec<_> = fabric
            .group_ids()
            .filter_map(|g| fabric.group(g).primary_jnl)
            .collect();
        for jid in jids {
            fabric.journal_mut(jid).set_capacity_bytes(bytes);
        }
    }

    fn apply(&mut self, step: &Step) {
        let now = self.sim.now();
        let st = &mut self.world.st;
        match *step {
            Step::Write { vol, lba, burst } => {
                for i in 0..burst as u64 {
                    self.seq += 1;
                    let data = block_from(&self.seq.to_le_bytes());
                    let (vol, lba) = (self.vols[vol], (lba + i) % 16);
                    host_write(&mut self.world, &mut self.sim, vol, lba, data, |_, _, _| {});
                }
            }
            Step::LinkLoss { link, lossy } => st
                .net
                .link_mut(self.links[link])
                .set_loss_probability(if lossy { 0.3 } else { 0.0 }),
            Step::LinkDown { link } => st.net.link_mut(self.links[link]).set_down(now, None),
            Step::HealLinks => heal_all_links(&mut self.world, &mut self.sim),
            Step::Squeeze { squeezed } => self.set_capacity(if squeezed {
                SQUEEZED_BYTES
            } else {
                JOURNAL_BYTES
            }),
            Step::Suspend { group } => st.suspend_group(self.groups[group], now),
            Step::Resync { group, force_full } => {
                let gid = self.groups[group];
                if st.fabric.group(gid).state != GroupState::Promoted {
                    st.resync_group_with(gid, force_full);
                    kick_all_pumps(&mut self.world, &mut self.sim);
                }
            }
            Step::Detach { pair, unfence } => {
                let pid = tsuru_storage::PairId(pair as u32);
                if unfence {
                    st.remove_pair(pid);
                } else {
                    st.fabric.detach_pair(pid);
                }
            }
            Step::Promote { group } => {
                st.promote_group(self.groups[group]);
            }
            Step::ReverseProtect { group } => {
                let gid = self.groups[group];
                let promoted = st.fabric.group(gid).state == GroupState::Promoted;
                if promoted
                    && !st.fabric.group(gid).pairs.is_empty()
                    && !st.array(self.main).is_failed()
                {
                    let (l, r) = (st.add_link(short_link()), st.add_link(short_link()));
                    self.reversed
                        .push(st.establish_reverse_group(gid, l, r, JOURNAL_BYTES));
                }
            }
            Step::CompleteFailback => {
                let Some(&rg) = self.reversed.last() else {
                    return;
                };
                let g = st.fabric.group(rg);
                let caught_up = g.is_active()
                    && g.primary_jnl
                        .into_iter()
                        .chain(g.secondary_jnl)
                        .all(|j| st.fabric.journal(j).is_empty())
                    && g.pairs.iter().all(|&p| st.fabric.pair(p).lag_writes() == 0);
                if caught_up {
                    self.reversed.pop();
                    st.complete_failback(rg, JOURNAL_BYTES);
                }
            }
        }
    }

    /// (running, rescanned) totals.
    fn totals(&self) -> (ReplicationTotals, ReplicationTotals) {
        let fabric = &self.world.st.fabric;
        (
            fabric.replication_totals(),
            fabric.scan_replication_totals(),
        )
    }
}

macro_rules! check {
    ($rig:expr, $($at:tt)*) => {{
        let (running, rescanned) = $rig.totals();
        prop_assert_eq!(running, rescanned, $($at)*);
    }};
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn running_totals_equal_a_full_rescan(
        block_policy in any::<bool>(),
        steps in prop::collection::vec((step(), 0u64..3000), 1..60),
    ) {
        let policy = if block_policy { JournalFullPolicy::Block } else { JournalFullPolicy::Suspend };
        let mut rig = Rig::new(policy);
        check!(rig, "after setup");
        for (i, (step, advance_us)) in steps.iter().enumerate() {
            rig.apply(step);
            check!(rig, "right after step {i} {step:?}");
            let until = rig.sim.now() + SimDuration::from_micros(*advance_us);
            rig.sim.run_until(&mut rig.world, until);
            check!(rig, "{advance_us} us after step {i} {step:?}");
        }
        // Quiescence: heal everything, lift the squeeze, let it all drain.
        for link in rig.links {
            rig.world.st.net.link_mut(link).set_loss_probability(0.0);
        }
        rig.set_capacity(JOURNAL_BYTES);
        heal_all_links(&mut rig.world, &mut rig.sim);
        let until = rig.sim.now() + SimDuration::from_secs(2);
        rig.sim.run_until(&mut rig.world, until);
        check!(rig, "at quiescence");
    }
}
