//! The total-balance invariant: money moves, it is never created or
//! destroyed.
//!
//! Every acked [`OpData::ReadBalances`] observation — whether served
//! from the live primary, a mid-run recovered backup image, or the
//! fully drained backup — must show the same total. A transactional
//! backup image taken at *any* write-order-faithful prefix conserves
//! the total because each transfer is atomic; a torn image (naive
//! per-volume replication mid-fault) splits a transfer across the cut
//! and the total drifts. This is the paper's consistency-group claim
//! restated as a client-visible property.

use crate::check::{Anomaly, AnomalyKind, CheckReport, OpTable};
use crate::record::{History, OpData, Phase};

/// Check every balance observation in `h` against the expected total.
///
/// When `expected_total` is `None` the first observation defines it
/// (the seeded state is the baseline).
pub fn check(h: &History, ops: &OpTable<'_>, expected_total: Option<u64>) -> CheckReport {
    let mut anomalies = Vec::new();
    let mut expected = expected_total;
    let mut transfers = 0u64;
    let mut reads = 0u64;

    for r in &h.records {
        match (&r.phase, &r.data) {
            (Phase::Ok, OpData::Txn(_)) => {}
            (Phase::Invoke, OpData::Transfer { .. }) => transfers += 1,
            (Phase::Ok, OpData::Balances { accounts, total })
            | (Phase::Info, OpData::Balances { accounts, total }) => {
                reads += 1;
                // The matching invoke names the site for the detail line.
                let site = ops.invoke_of(r.op).map(|inv| match &inv.data {
                    OpData::ReadBalances { site } => site.label(),
                    _ => "unknown",
                });
                match expected {
                    None => expected = Some(*total),
                    Some(want) if *total != want => anomalies.push(Anomaly {
                        kind: AnomalyKind::BalanceViolation,
                        detail: format!(
                            "observed total {} over {} accounts on {}, expected {}",
                            total,
                            accounts,
                            site.unwrap_or("unknown"),
                            want
                        ),
                        ops: vec![r.op],
                    }),
                    Some(_) => {}
                }
            }
            _ => {}
        }
    }

    CheckReport {
        checker: "bank",
        ops_checked: transfers + reads,
        anomalies,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::{OpData, Recorder, Site};
    use tsuru_sim::SimTime;

    fn check_all(h: &History, expected_total: Option<u64>) -> CheckReport {
        check(h, &OpTable::new(h), expected_total)
    }

    fn read(r: &Recorder, site: Site, t_us: u64, accounts: u64, total: u64) {
        let op = r.invoke(9, SimTime::from_micros(t_us), OpData::ReadBalances { site });
        r.ok(
            9,
            op,
            SimTime::from_micros(t_us),
            OpData::Balances { accounts, total },
        );
    }

    #[test]
    fn conserved_totals_pass() {
        let r = Recorder::enabled();
        read(&r, Site::Primary, 1, 10, 1_000);
        read(&r, Site::Backup, 2, 10, 1_000);
        read(&r, Site::BackupFinal, 3, 10, 1_000);
        let report = check_all(&r.history(), Some(1_000));
        assert!(report.is_clean(), "{:?}", report.anomalies);
        assert_eq!(report.ops_checked, 3);
    }

    #[test]
    fn drifted_total_is_flagged_with_the_offending_read() {
        let r = Recorder::enabled();
        read(&r, Site::Primary, 1, 10, 1_000);
        read(&r, Site::Backup, 2, 10, 993);
        let report = check_all(&r.history(), Some(1_000));
        assert_eq!(report.anomalies.len(), 1);
        let a = &report.anomalies[0];
        assert_eq!(a.kind, AnomalyKind::BalanceViolation);
        assert!(a.detail.contains("993"), "{}", a.detail);
        assert!(a.detail.contains("backup"), "{}", a.detail);
        assert_eq!(a.ops.len(), 1);
    }

    #[test]
    fn first_read_defines_the_total_when_unconfigured() {
        let r = Recorder::enabled();
        read(&r, Site::Primary, 1, 4, 400);
        read(&r, Site::Backup, 2, 4, 390);
        let report = check_all(&r.history(), None);
        assert_eq!(report.anomalies.len(), 1);
    }
}
