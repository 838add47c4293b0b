//! The image-readability checker: every attempted observation of an
//! image must succeed.
//!
//! A reader records [`Phase::Fail`] against a `ReadShop` /
//! `ReadBalances` / `ReadList` invoke when it mounted an image that
//! could not crash-recover. For a consistency-group backup this must
//! never happen while the backup array itself is healthy — the image
//! is crash-consistent at *every* instant — so a failed observation is
//! the strongest client-visible form of the collapse: the backup is
//! not merely behind, it is unusable.

use crate::check::{Anomaly, AnomalyKind, CheckReport};
use crate::record::{OpData, OpId, Phase, Record, Site};

/// Check every image observation in `records` for outright failures.
pub fn check(records: &[Record]) -> CheckReport {
    // (op, record index, site) of every attempted observation, sorted:
    // an op's last invoke is the last entry of its run.
    let observed = |(i, r): (usize, &Record)| match &r.data {
        OpData::ReadShop { site }
        | OpData::ReadBalances { site }
        | OpData::ReadList { site, .. }
            if r.phase == Phase::Invoke =>
        {
            Some((r.op, i, *site))
        }
        _ => None,
    };
    let mut observations: Vec<(OpId, usize, Site)> =
        Vec::with_capacity(records.iter().enumerate().filter_map(observed).count());
    observations.extend(records.iter().enumerate().filter_map(observed));
    let ops_checked = observations.len() as u64;
    observations.sort_unstable_by_key(|&(op, i, _)| (op, i));

    let mut anomalies = Vec::new();
    for r in records {
        if r.phase != Phase::Fail {
            continue;
        }
        let end = observations.partition_point(|o| o.0 <= r.op);
        if let Some(&(_, _, site)) = observations[..end].last().filter(|o| o.0 == r.op) {
            anomalies.push(Anomaly {
                kind: AnomalyKind::UnreadableImage,
                detail: format!(
                    "{} image observation failed: image did not crash-recover",
                    site.label()
                ),
                ops: vec![r.op],
            });
        }
    }

    anomalies.sort_by_key(|a| a.ops.first().copied().unwrap_or(OpId::NONE));
    CheckReport {
        checker: "image",
        ops_checked,
        anomalies,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tsuru_sim::SimTime;

    use crate::record::Recorder;

    #[test]
    fn successful_observations_pass() {
        let r = Recorder::enabled();
        let op = r.invoke(
            1_000,
            SimTime::from_micros(10),
            OpData::ReadList {
                key: 0,
                site: Site::Backup,
            },
        );
        r.ok(
            1_000,
            op,
            SimTime::from_micros(10),
            OpData::List {
                key: 0,
                values: vec![],
            },
        );
        let report = check(&r.history());
        assert!(report.is_clean());
        assert_eq!(report.ops_checked, 1);
    }

    #[test]
    fn failed_observation_is_an_unreadable_image() {
        let r = Recorder::enabled();
        let op = r.invoke(
            1_000,
            SimTime::from_micros(10),
            OpData::ReadShop { site: Site::Backup },
        );
        r.fail(1_000, op, SimTime::from_micros(11), OpData::None);
        let report = check(&r.history());
        assert_eq!(report.anomalies.len(), 1);
        let a = &report.anomalies[0];
        assert_eq!(a.kind, AnomalyKind::UnreadableImage);
        assert!(a.detail.contains("backup"), "{}", a.detail);
        assert_eq!(a.ops, vec![op]);
    }

    #[test]
    fn failed_writes_are_not_image_failures() {
        let r = Recorder::enabled();
        let op = r.invoke(
            1,
            SimTime::from_micros(10),
            OpData::Append { key: 0, value: 1 },
        );
        r.fail(1, op, SimTime::from_micros(11), OpData::None);
        assert!(check(&r.history()).is_clean());
    }
}
