//! Operator-facing status reporting — the array's `pairdisplay`.
//!
//! Renders replication groups, pairs, journals and pools as the text
//! tables a storage administrator would read on the console, and exposes
//! the same data structurally for the demo system's screens.

use crate::block::GroupId;
use crate::fabric::{GroupMode, GroupState};
use crate::world::StorageWorld;

/// Structured status of one replication group.
#[derive(Debug, Clone)]
pub struct GroupStatus {
    /// Group id.
    pub id: GroupId,
    /// Group name.
    pub name: String,
    /// `ADC` / `SDC`.
    pub mode: &'static str,
    /// Lifecycle state rendered for the console.
    pub state: String,
    /// Member pair count.
    pub pairs: usize,
    /// Acked-but-unapplied writes across the group (backup lag).
    pub lag_writes: u64,
    /// Primary journal usage `(used, capacity)` bytes, ADC only.
    pub journal: Option<(u64, u64)>,
    /// Replication epoch.
    pub generation: u32,
}

/// Snapshot the status of every group.
pub fn group_status(st: &StorageWorld) -> Vec<GroupStatus> {
    st.fabric
        .group_ids()
        .map(|gid| {
            let g = st.fabric.group(gid);
            let lag: u64 = g
                .pairs
                .iter()
                .map(|&pid| {
                    let p = st.fabric.pair(pid);
                    p.acked_writes - p.applied_writes
                })
                .sum();
            let journal = g.primary_jnl.map(|jid| {
                let j = st.fabric.journal(jid);
                (j.used_bytes(), j.capacity_bytes())
            });
            GroupStatus {
                id: gid,
                name: g.name.clone(),
                mode: match g.mode {
                    GroupMode::Adc => "ADC",
                    GroupMode::Sdc => "SDC",
                },
                state: match g.state {
                    GroupState::Active => "Active".to_owned(),
                    GroupState::Suspended { reason, .. } => format!("Suspended({reason:?})"),
                    GroupState::Promoted => "Promoted".to_owned(),
                },
                pairs: g.pairs.len(),
                lag_writes: lag,
                journal,
                generation: g.generation,
            }
        })
        .collect()
}

/// Render the replication status table (one line per group).
pub fn render_replication_status(st: &StorageWorld) -> Vec<String> {
    let mut out = vec![format!(
        "{:<4} {:<20} {:<4} {:<22} {:>5} {:>10} {:>18}",
        "GRP", "NAME", "MODE", "STATE", "PAIRS", "LAG", "JOURNAL"
    )];
    for g in group_status(st) {
        let journal = match g.journal {
            Some((used, cap)) => format!("{used}/{cap}"),
            None => "—".to_owned(),
        };
        out.push(format!(
            "g{:<3} {:<20} {:<4} {:<22} {:>5} {:>10} {:>18}",
            g.id.0, g.name, g.mode, g.state, g.pairs, g.lag_writes, journal
        ));
    }
    out
}

/// Render pool utilization for every array.
pub fn render_pool_status(st: &StorageWorld) -> Vec<String> {
    let mut out = vec![format!(
        "{:<12} {:<12} {:>12} {:>12} {:>6} {:>10}",
        "ARRAY", "POOL", "ALLOCATED", "CAPACITY", "USE%", "REJECTIONS"
    )];
    for i in 0..st.array_count() {
        let array = st.array(crate::block::ArrayId(i as u32));
        for pool in array.pools() {
            out.push(format!(
                "{:<12} {:<12} {:>12} {:>12} {:>5.1}% {:>10}",
                array.name(),
                pool.name(),
                pool.allocated_blocks(),
                pool.capacity_blocks(),
                pool.utilization() * 100.0,
                pool.rejections()
            ));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::array::ArrayPerf;
    use crate::config::EngineConfig;
    use tsuru_simnet::LinkConfig;

    fn world() -> StorageWorld {
        let mut st = StorageWorld::new(1, EngineConfig::default());
        let main = st.add_array("vsp-main", ArrayPerf::default());
        let backup = st.add_array("vsp-backup", ArrayPerf::default());
        let link = st.add_link(LinkConfig::metro());
        let rev = st.add_link(LinkConfig::metro());
        let g = st.create_adc_group("cg-shop", link, rev, 1 << 20);
        let p = st.create_volume(main, "p", 32);
        let s = st.create_volume(backup, "s", 32);
        st.add_pair(g, p, s);
        let sg = st.create_sdc_group("sdc-metro", link, rev);
        let p2 = st.create_volume(main, "p2", 32);
        let s2 = st.create_volume(backup, "s2", 32);
        st.add_pair(sg, p2, s2);
        st
    }

    #[test]
    fn group_status_reflects_fabric() {
        let st = world();
        let gs = group_status(&st);
        assert_eq!(gs.len(), 2);
        assert_eq!(gs[0].name, "cg-shop");
        assert_eq!(gs[0].mode, "ADC");
        assert!(gs[0].journal.is_some());
        assert_eq!(gs[0].state, "Active");
        assert_eq!(gs[1].mode, "SDC");
        assert!(gs[1].journal.is_none());
        assert_eq!(gs[0].lag_writes, 0);
    }

    #[test]
    fn tables_render_with_headers() {
        let st = world();
        let rep = render_replication_status(&st);
        assert_eq!(rep.len(), 3);
        assert!(rep[0].contains("GRP"));
        assert!(rep[1].contains("cg-shop"));
        assert!(rep[2].contains("SDC"));
        let pools = render_pool_status(&st);
        assert_eq!(pools.len(), 3, "header + one default pool per array");
        assert!(pools[1].contains("vsp-main"));
        assert!(pools[2].contains("vsp-backup"));
    }

    #[test]
    fn suspended_state_is_visible() {
        let mut st = world();
        st.suspend_group(GroupId(0), tsuru_sim::SimTime::from_secs(1));
        let gs = group_status(&st);
        assert!(gs[0].state.contains("Suspended"));
        assert!(gs[0].state.contains("Operator"));
    }
}
