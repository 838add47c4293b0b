//! Telemetry acceptance for the chaos engine:
//!
//! - traced trials export byte-identical JSONL/Chrome traces at any
//!   harness thread count;
//! - fault spans are causally linked to write-lifecycle spans (records
//!   emitted inside a fault window carry the fault's span id);
//! - the naive mode's write-order violations (the overtaking regression
//!   that `storage/tests/write_order.rs` pins at the engine level) attach
//!   a trace window that shows the stale-retry (`journal_stall`) spans.

use tsuru_core::{BackupMode, TrialHarness};
use tsuru_chaos::{
    run_chaos_trial, run_chaos_trial_traced, ChaosConfig, FaultEvent, FaultKind, FaultPlan,
};
use tsuru_sim::{SimDuration, SimTime};

const SEED: u64 = 0xC0FFEE;

#[test]
fn traced_exports_identical_at_any_thread_count() {
    let cfg = ChaosConfig::default();
    let render = |threads: usize| {
        let set = TrialHarness::new(threads).run(SEED, 2, |ctx| {
            let plan = FaultPlan::random(ctx.seed, cfg.horizon);
            let (report, export) =
                run_chaos_trial_traced(ctx.seed, BackupMode::AdcConsistencyGroup, &plan, &cfg);
            (report.render(), export)
        });
        set.rows
            .into_iter()
            .flat_map(|(render, export)| [render, export.jsonl, export.chrome])
            .collect::<String>()
    };
    let baseline = render(1);
    assert!(baseline.contains("\"ev\":"), "jsonl export should be present");
    assert!(baseline.contains("traceEvents"), "chrome export should be present");
    for threads in [2, 4, 8] {
        assert_eq!(
            render(threads),
            baseline,
            "thread count {threads} changed traced export bytes"
        );
    }
}

#[test]
fn fault_spans_causally_link_to_write_lifecycles() {
    let cfg = ChaosConfig::default();
    let plan = FaultPlan::random(SEED, cfg.horizon);
    let (report, export) =
        run_chaos_trial_traced(SEED, BackupMode::AdcConsistencyGroup, &plan, &cfg);
    assert!(report.is_clean(), "{}", report.render());

    // Collect every fault span id from the export.
    let fault_ids: Vec<u64> = export
        .jsonl
        .lines()
        .filter(|l| l.contains("\"name\":\"fault\"") && l.contains("\"ev\":\"start\""))
        .map(|l| parse_field(l, "\"id\":"))
        .collect();
    assert!(!fault_ids.is_empty(), "traced chaos trial must record fault spans");

    // At least one write-lifecycle record was emitted inside a fault
    // window: the tracer stamps it with the open fault's span id.
    let lifecycle = ["host_write", "journal_append", "wan_transfer", "backup_apply"];
    let linked = export.jsonl.lines().any(|l| {
        lifecycle.iter().any(|n| l.contains(&format!("\"name\":\"{n}\"")))
            && l.contains("\"fault\":")
            && fault_ids.contains(&parse_field(l, "\"fault\":"))
    });
    assert!(
        linked,
        "no write-lifecycle record carries a fault span id; fault windows \
         are not causally linked to write lifecycles"
    );
}

#[test]
fn naive_violation_trace_window_shows_stale_retry_spans() {
    // A plan built for the purpose: the journals are squeezed while the
    // link is browned out but alive. Writes stall on the full journals
    // (stale retries) *and* the backup keeps applying what trickles
    // through, so the per-volume sessions are visibly apart at the audits
    // inside the window — the retries sit in the trailing records of the
    // violations they cause. (A random plan's squeeze usually overlaps a
    // partition or a backup crash, during which nothing new is applied and
    // no new violation is seen: there a stall lands in some violation's
    // window only by luck, 3 of 14 seeds.)
    let cfg = ChaosConfig::default();
    let plan = FaultPlan {
        horizon: cfg.horizon,
        events: [FaultKind::PumpStall, FaultKind::JournalSqueeze]
            .map(|kind| FaultEvent {
                kind,
                at: SimTime::from_millis(20),
                duration: SimDuration::from_millis(120),
            })
            .to_vec(),
    };
    let (report, export) = run_chaos_trial_traced(SEED, BackupMode::AdcPerVolume, &plan, &cfg);
    assert!(!report.is_clean(), "naive mode must violate under this plan");

    // Every violation on a traced trial attaches a non-empty trailing
    // trace window whose lines reference span ids.
    for v in &report.violations {
        assert!(!v.trace.is_empty(), "traced violation without a trace window: {v:?}");
        assert!(
            v.trace.iter().all(|l| l.starts_with('#')),
            "trace lines must lead with their span id: {:?}",
            v.trace
        );
    }

    // The squeeze produced stale-retry spans, and at least one violation's
    // attached window captures them — the auditor report points straight
    // at the retries that reordered the writes.
    assert!(
        export.jsonl.contains("\"name\":\"journal_stall\""),
        "journal squeeze must produce stall-retry spans"
    );
    assert!(
        report
            .violations
            .iter()
            .any(|v| v.trace.iter().any(|l| l.contains("journal_stall"))),
        "no violation trace window shows the stale-retry span:\n{}",
        report.render()
    );

    // The rendered report carries the windows (untraced renders don't).
    assert!(report.render().contains("      trace #"));
    let untraced = run_chaos_trial(SEED, BackupMode::AdcPerVolume, &plan, &cfg);
    assert!(!untraced.render().contains("trace #"));
}

/// Extract the integer following `key` in a JSONL line.
fn parse_field(line: &str, key: &str) -> u64 {
    let at = line.find(key).expect("key present") + key.len();
    line[at..]
        .chars()
        .take_while(|c| c.is_ascii_digit())
        .collect::<String>()
        .parse()
        .expect("integer field")
}
