//! The experiment reproduction harness.
//!
//! Regenerates every table/figure reproduction from DESIGN.md §4:
//!
//! ```text
//! cargo run -p tsuru-bench --release --bin repro           # everything
//! cargo run -p tsuru-bench --release --bin repro e1 e5     # a subset
//! cargo run -p tsuru-bench --release --bin repro e2 --threads 8
//! cargo run -p tsuru-bench --release --bin repro --chaos    # chaos sweep (E8)
//! cargo run -p tsuru-bench --release --bin repro trace      # traced chaos trials
//! cargo run -p tsuru-bench --release --bin repro history    # history sweep (E9)
//! cargo run -p tsuru-bench --release --bin repro e10        # convergence sweep (E10)
//! cargo run -p tsuru-bench --release --bin repro e11        # alert sweep (E11)
//! cargo run -p tsuru-bench --release --bin repro e12        # tenant scaling (E12)
//! ```
//!
//! `--threads N` sets the trial-harness worker count for the multi-trial
//! experiments (E1, E2, E3, A1, A2); `--threads 0` (the default) uses one
//! worker per available CPU, `--threads 1` is the serial reference. Tables
//! are **byte-identical at any thread count** — trials are seeded purely
//! from `(base_seed, trial_index)` and re-sorted by index. Wall-clock
//! stats (`[harness] …`) go to stderr so stdout stays comparable.
//!
//! `--trace DIR` writes causal trace exports (JSONL + Chrome
//! `trace_event`) under `DIR`: a representative traced rig run alongside
//! the experiments, per-trial chaos traces with `chaos`/`trace`. The
//! `trace` subcommand runs traced chaos trials and always exports.
//!
//! The `history` subcommand runs the workload-diversity sweep (E9):
//! every chaos plan replayed under the order, bank-transfer and
//! append-list workloads in both backup modes, each judged by the
//! client-visible history checkers. `--history DIR` additionally writes
//! every trial's op history as JSONL under `DIR` — byte-identical at
//! any `--threads` value.

#![forbid(unsafe_code)]

use std::env;
use std::fs;
use std::path::{Path, PathBuf};

use tsuru_bench::{
    render_a1, render_a2, render_e1, render_e2, render_e3, render_e4, render_e5, render_e7,
    render_e12,
};
use tsuru_core::tenants::e12_scale_with;
use tsuru_core::experiments::{
    a1_backup_lag_with, a2_journal_policy_with, e1_slowdown_with, e2_collapse_with, e3_rpo_with,
    e4_snapshot, e5_operator, e6_demo, e7_three_dc,
};
use tsuru_chaos::{
    alert_sweep, chaos_sweep, convergence_sweep, history_sweep, render_alert_table,
    render_chaos_table, render_convergence_table, render_history_table, run_chaos_trial_traced,
    ChaosConfig, FaultPlan,
};
use tsuru_core::{BackupMode, HarnessStats, RigConfig, TrialHarness, TwoSiteRig};
use tsuru_sim::SimDuration;

/// Every command-line option, parsed once in `main` (single source of
/// truth — no function re-scans `env::args`).
struct Options {
    /// Positional selectors: experiment names, `all`, `chaos`, `trace`.
    names: Vec<String>,
    /// `--chaos` (alias for the `chaos` selector).
    chaos: bool,
    /// `--csv`: also write each table under `repro_out/`.
    csv: bool,
    /// `--threads N` / `--threads=N`; `0` = one worker per CPU.
    threads: usize,
    /// `--trace DIR` / `--trace=DIR`: write trace exports under `DIR`.
    trace_dir: Option<PathBuf>,
    /// `--history DIR` / `--history=DIR`: write op-history JSONL exports
    /// under `DIR` (used by the `history` subcommand).
    history_dir: Option<PathBuf>,
    /// `--alerts DIR` / `--alerts=DIR`: write incident-log JSONL exports
    /// under `DIR` (used by the `e11` subcommand).
    alerts_dir: Option<PathBuf>,
    /// `--json PATH` (bench): write the machine-readable `BENCH.json` here.
    json: Option<PathBuf>,
    /// `--baseline PATH` (bench): compare against a checked-in baseline and
    /// exit nonzero if typed events/sec regresses more than 20 %.
    baseline: Option<PathBuf>,
    /// `--tenants N,N,…` (e12): override the tenant-count sweep (the
    /// default is 100,1000,10000). CI smoke uses small counts here.
    tenants: Option<Vec<u32>>,
}

impl Options {
    /// Parse from an iterator over the raw arguments (program name
    /// already skipped). Unknown `--flags` are ignored, as before.
    fn parse(args: impl Iterator<Item = String>) -> Options {
        let mut opts = Options {
            names: Vec::new(),
            chaos: false,
            csv: false,
            threads: 0,
            trace_dir: None,
            history_dir: None,
            alerts_dir: None,
            json: None,
            baseline: None,
            tenants: None,
        };
        let args: Vec<String> = args.collect();
        let mut i = 0;
        while i < args.len() {
            let a = &args[i];
            if a == "--chaos" {
                opts.chaos = true;
            } else if a == "--csv" {
                opts.csv = true;
            } else if a == "--threads" {
                if let Some(n) = args.get(i + 1).and_then(|v| v.parse().ok()) {
                    opts.threads = n;
                    i += 1;
                }
            } else if let Some(v) = a.strip_prefix("--threads=") {
                if let Ok(n) = v.parse() {
                    opts.threads = n;
                }
            } else if a == "--trace" {
                if let Some(dir) = args.get(i + 1) {
                    opts.trace_dir = Some(PathBuf::from(dir));
                    i += 1;
                }
            } else if let Some(v) = a.strip_prefix("--trace=") {
                opts.trace_dir = Some(PathBuf::from(v));
            } else if a == "--history" {
                if let Some(dir) = args.get(i + 1) {
                    opts.history_dir = Some(PathBuf::from(dir));
                    i += 1;
                }
            } else if let Some(v) = a.strip_prefix("--history=") {
                opts.history_dir = Some(PathBuf::from(v));
            } else if a == "--alerts" {
                if let Some(dir) = args.get(i + 1) {
                    opts.alerts_dir = Some(PathBuf::from(dir));
                    i += 1;
                }
            } else if let Some(v) = a.strip_prefix("--alerts=") {
                opts.alerts_dir = Some(PathBuf::from(v));
            } else if a == "--json" {
                if let Some(p) = args.get(i + 1) {
                    opts.json = Some(PathBuf::from(p));
                    i += 1;
                }
            } else if let Some(v) = a.strip_prefix("--json=") {
                opts.json = Some(PathBuf::from(v));
            } else if a == "--baseline" {
                if let Some(p) = args.get(i + 1) {
                    opts.baseline = Some(PathBuf::from(p));
                    i += 1;
                }
            } else if let Some(v) = a.strip_prefix("--baseline=") {
                opts.baseline = Some(PathBuf::from(v));
            } else if a == "--tenants" {
                if let Some(v) = args.get(i + 1) {
                    opts.tenants = parse_tenants(v);
                    i += 1;
                }
            } else if let Some(v) = a.strip_prefix("--tenants=") {
                opts.tenants = parse_tenants(v);
            } else if !a.starts_with("--") {
                opts.names.push(a.clone());
            }
            i += 1;
        }
        opts
    }

    /// No selector at all ⇒ run every default experiment; `all` forces it.
    /// `chaos` and `trace` are opt-in and never part of the default set.
    fn all(&self) -> bool {
        self.names.iter().any(|n| n == "all") || (self.names.is_empty() && !self.chaos)
    }

    fn want(&self, name: &str) -> bool {
        self.all() || self.names.iter().any(|n| n == name)
    }
}

/// When `--csv` is passed, tables are also written under `repro_out/`.
fn maybe_csv(opts: &Options, name: &str, table: &str) {
    if opts.csv {
        let dir = Path::new("repro_out");
        let _ = fs::create_dir_all(dir);
        let path = dir.join(format!("{name}.csv"));
        if fs::write(&path, tsuru_bench::table_to_csv(table)).is_ok() {
            println!("   (series written to {})", path.display());
        }
    }
}

/// The single stderr reporting path: every diagnostic line — harness
/// wall-clock stats, worker counts, bench measurements — goes through here,
/// so stdout stays byte-identical at any `--threads` value and the bench
/// output can never interleave with the comparable tables.
fn note(tag: &str, msg: &str) {
    eprintln!("[{tag}] {msg}");
}

/// Wall-clock stats go to stderr so stdout is identical at any `--threads`.
fn report(label: &str, stats: &HarnessStats) {
    note("harness", &format!("{label}: {}", stats.display()));
}

fn run_e1(harness: &TrialHarness, opts: &Options) {
    println!("== E1: no system slowdown (claim C1) — latency/throughput vs backup mode ==");
    println!("   closed-loop order workload, 8 clients; link 1 Gbit/s; 400 ms simulated\n");
    let rtts = [1, 2, 10, 25, 50];
    let set = e1_slowdown_with(harness, 42, 8, &rtts, SimDuration::from_millis(400));
    report("e1", &set.stats);
    let table = render_e1(&set.rows);
    println!("{table}");
    maybe_csv(opts, "e1", &table);
    println!(
        "expect: adc-cg ≈ none at every RTT; sdc pays one to two log flushes (each a WAN\n\
         round trip) per commit, two commits per order: p50 ≳ 2×RTT, and tps collapses.\n"
    );
    println!("   under load: 64 clients, 10 ms RTT, 10 s simulated (the ledger's oltp_rig)\n");
    let set = e1_slowdown_with(harness, 42, 64, &[10], SimDuration::from_millis(10_000));
    report("e1 (64 clients)", &set.stats);
    let table = render_e1(&set.rows);
    println!("{table}");
    maybe_csv(opts, "e1_loaded", &table);
    println!(
        "expect: none = adc-cg, client-bound, a flush shared by ~1.5 commits; sdc groups\n\
         ~20 commits per flush and still waits a WAN round trip or two for each.\n"
    );
}

fn run_e2(harness: &TrialHarness, opts: &Options) {
    println!("== E2: backup collapse (claims C2/C3) — consistency group vs naive ADC ==");
    println!("   30 surprise-failure drills per mode; 2 ms replication-session skew\n");
    let set = e2_collapse_with(harness, 1000, 30, SimDuration::from_millis(2));
    report("e2", &set.stats);
    let table = render_e2(&set.rows);
    println!("{table}");
    maybe_csv(opts, "e2", &table);
    println!(
        "expect: adc-cg collapses 0/30 (both checks); adc-naive violates write-order\n\
         fidelity in most drills and corrupts the business state in many.\n"
    );
}

fn run_e3(harness: &TrialHarness, opts: &Options) {
    println!("== E3: recovery point vs link bandwidth and journal capacity (§III-A1) ==");
    println!("   main-site failure at t=150 ms; ADC journal Block policy; SDC reference\n");
    let set = e3_rpo_with(harness, 7, &[50, 100, 500, 1000], &[1, 64]);
    report("e3", &set.stats);
    let table = render_e3(&set.rows);
    println!("{table}");
    maybe_csv(opts, "e3", &table);
    println!(
        "expect: lost orders and RPO shrink as bandwidth grows; a tiny journal on a\n\
         slow link stalls the host (stalls > 0, p99 inflated); sdc loses nothing.\n"
    );
}

fn run_e4(opts: &Options) {
    println!("== E4: snapshot groups make backup data usable (§III-A2, Figs. 5–6) ==");
    println!("   snapshots taken at the backup site at t=150 ms, workload continues\n");
    let rows = e4_snapshot(11);
    let table = render_e4(&rows);
    println!("{table}");
    maybe_csv(opts, "e4", &table);
    println!(
        "expect: the atomic group snapshot yields a consistent analytics image while\n\
         replication keeps running (cow_saves > 0); non-atomic per-volume snapshots\n\
         can interleave with apply and break the cross-DB invariant.\n"
    );
}

fn run_e5(opts: &Options) {
    println!("== E5: namespace-operator automation (§III-B1, Figs. 3–4) ==");
    println!("   tag one namespace; measure configuration effort as volumes scale\n");
    let rows = e5_operator(&[2, 4, 10, 50, 100, 200]);
    let table = render_e5(&rows);
    println!("{table}");
    maybe_csv(opts, "e5", &table);
    println!(
        "expect: with the operator the user performs exactly 1 action at any scale;\n\
         the manual procedure grows linearly (4 + 3·volumes console steps).\n"
    );
}

fn run_e6() {
    println!("== E6: the full demonstration (§IV) — three steps + disaster drill ==\n");
    let out = e6_demo(2026);
    for line in &out.transcript {
        println!("{line}");
    }
    println!();
    println!(
        "summary: committed={} analytics_orders={} failover_consistent={} \
         business_recovered={} lost_orders={} rto={}",
        out.committed_orders,
        out.analytics_orders,
        out.failover_consistent,
        out.business_recovered,
        out.lost_orders,
        out.rto
    );
    println!("expect: consistent failover, recovered business process, bounded loss.\n");
}

fn run_e7(opts: &Options) {
    println!("== E7 (extension): three-data-centre — metro SDC + WAN ADC combined ==");
    println!("   far link 25 ms one way; metro link 1 ms; disaster at t=200 ms\n");
    let rows = e7_three_dc(29);
    let table = render_e7(&rows);
    println!("{table}");
    maybe_csv(opts, "e7", &table);
    println!(
        "expect: 3dc latency ≈ metro SDC (~2 ms), far below WAN SDC (~50 ms); its\n\
         metro copy loses nothing while the far copy stays a consistent prefix —\n\
         the best of both of the paper's §V alternatives.\n"
    );
}

fn run_chaos(harness: &TrialHarness, opts: &Options) {
    println!("== E8 (extension): deterministic chaos sweep — CG vs naive under fault ==");
    println!("   seeded random plans, core quartet overlapping ≥4 fault kinds; each plan");
    println!("   replayed against both backup modes and audited at every fault edge\n");
    let cfg = ChaosConfig::default();
    let set = chaos_sweep(harness, 0xC0FFEE, 5, &cfg);
    report("chaos", &set.stats);
    let table = render_chaos_table(&set.rows);
    println!("{table}");
    maybe_csv(opts, "chaos", &table);
    println!("-- auditor reports --");
    for pair in &set.rows {
        print!("{}", pair.cg.render());
        print!("{}", pair.naive.render());
    }
    println!(
        "\nexpect: adc-cg reports zero violations in every trial; adc-naive is caught\n\
         violating write-order fidelity mid-fault. Reports are byte-identical for a\n\
         given seed at any --threads value.\n"
    );
    if let Some(dir) = &opts.trace_dir {
        write_traced_chaos_trials(harness, dir, 1);
    }
}

/// The `history` subcommand: the E9 workload-diversity sweep. Every
/// seeded chaos plan replays under all three workloads in both backup
/// modes with the client-visible history judge on; `--history DIR`
/// additionally writes each trial's full op history as JSONL.
fn run_history(harness: &TrialHarness, opts: &Options) {
    println!("== E9 (extension): workload-diversity history sweep — client-visible oracle ==");
    println!("   each plan × {{ecom, bank, append-list}} × {{adc-cg, adc-naive}}; the judge");
    println!("   reads backup images mid-run and checks the recorded client history\n");
    let cfg = ChaosConfig::default();
    let set = history_sweep(harness, 0xC0FFEE, 3, &cfg);
    report("history", &set.stats);
    let table = render_history_table(&set.rows);
    println!("{table}");
    maybe_csv(opts, "history", &table);
    println!("-- judge reports --");
    for trial in &set.rows {
        for row in &trial.rows {
            print!("{}", row.cg.render());
            print!("{}", row.naive.render());
        }
    }
    println!(
        "\nexpect: adc-cg histories are clean for every workload; the ecom workload\n\
         catches adc-naive's collapse *client-visibly* (order-without-stock in a\n\
         mid-run backup read), while bank totals and append-list prefixes survive\n\
         single-database tears. Byte-identical at any --threads value.\n"
    );
    if let Some(dir) = &opts.history_dir {
        let _ = fs::create_dir_all(dir);
        for (i, trial) in set.rows.iter().enumerate() {
            for row in &trial.rows {
                for (mode, jsonl) in [("cg", &row.cg_export), ("naive", &row.naive_export)] {
                    let path =
                        dir.join(format!("history_t{i}_{}_{mode}.jsonl", row.workload.label()));
                    match fs::write(&path, jsonl) {
                        Ok(()) => println!(
                            "  trial {i} {} {mode}: {} records -> {}",
                            row.workload.label(),
                            jsonl.lines().count(),
                            path.display()
                        ),
                        Err(_) => eprintln!(
                            "  trial {i}: failed to write export under {}",
                            dir.display()
                        ),
                    }
                }
            }
        }
        println!();
    }
}

/// The `e10` subcommand: the chaos-convergence sweep. Every seeded
/// core-quartet plan replays against the consistency-group rig with the
/// replication supervisor armed under each recovery policy; the auditor
/// demands every paired group ends back at PAIR (or circuit-breaker
/// parked, with an alarm) with zero violations.
fn run_e10(harness: &TrialHarness, opts: &Options) {
    println!("== E10 (extension): self-healing convergence — fault plans x recovery policies ==");
    println!("   core-quartet plans, supervisor armed; staged backoff, delta->full degradation,");
    println!("   circuit breaker; auditor demands convergence to PAIR after the last heal\n");
    let cfg = ChaosConfig::default();
    let set = convergence_sweep(harness, 0xC0FFEE, 4, &cfg);
    report("e10", &set.stats);
    let table = render_convergence_table(&set.rows);
    println!("{table}");
    maybe_csv(opts, "e10", &table);
    println!("-- supervised auditor reports (default policy) --");
    for trial in &set.rows {
        if let Some(row) = trial.rows.iter().find(|r| r.policy == "default") {
            print!("{}", row.report.render());
        }
    }
    println!(
        "\nexpect: every policy converges each trial to pair=1/1 parked=0 with zero\n\
         violations; eager's tiny debt threshold degrades it to a full initial copy\n\
         (full=1) and its short stage timeout closes the episode earliest; one\n\
         attempt suffices even for fragile. Byte-identical at any --threads value.\n"
    );
}

/// The `e11` subcommand: the SLO-alerting sweep. Every seeded
/// core-quartet plan replays against the consistency-group rig with the
/// supervisor armed (default policy) and the alert engine armed under
/// each rule profile; incidents are scored against the injected plan
/// (the ground truth) for precision, recall and detection latency.
/// `--alerts DIR` additionally writes each trial's incident log as
/// JSONL.
fn run_e11(harness: &TrialHarness, opts: &Options) {
    println!("== E11 (extension): SLO alerting vs injected ground truth — plans x profiles ==");
    println!("   core-quartet plans; declarative rules (threshold, sustained, rate, absence)");
    println!("   evaluated on the SloTick grid; incidents carry the faults they observed\n");
    let cfg = ChaosConfig::default();
    let set = alert_sweep(harness, 0xC0FFEE, 3, &cfg);
    report("e11", &set.stats);
    let table = render_alert_table(&set.rows);
    println!("{table}");
    maybe_csv(opts, "e11", &table);
    println!("-- alert-armed auditor reports (default profile) --");
    for trial in &set.rows {
        if let Some(row) = trial.rows.iter().find(|r| r.profile == "default") {
            print!("{}", row.report.render());
        }
    }
    println!(
        "\nexpect: the default profile detects every injected kind (recall=4/4) in every\n\
         trial with zero auditor violations; tight detects earliest (and may open\n\
         extra incidents), lenient trades latency for quiet. Byte-identical at any\n\
         --threads value.\n"
    );
    if let Some(dir) = &opts.alerts_dir {
        let _ = fs::create_dir_all(dir);
        for (i, trial) in set.rows.iter().enumerate() {
            for row in &trial.rows {
                let path = dir.join(format!("incidents_t{i}_{}.jsonl", row.profile));
                match fs::write(&path, &row.export) {
                    Ok(()) => println!(
                        "  trial {i} {}: {} incidents -> {}",
                        row.profile,
                        row.export.lines().count(),
                        path.display()
                    ),
                    Err(_) => eprintln!(
                        "  trial {i}: failed to write export under {}",
                        dir.display()
                    ),
                }
            }
        }
        println!();
    }
}

/// The `e12` subcommand: the metro-scale tenant-scaling sweep. Each
/// trial builds an independent sharded multi-tenant world (one
/// consistency group per tenant, groups partitioned across 8 WAN shard
/// lanes), drives the ecom-shaped open-loop order traffic, probes RPO
/// mid-run (the main-site-failure thought experiment) and then drains to
/// quiescence, reading the per-shard journal-occupancy and apply-lag
/// series peaks.
fn run_e12(harness: &TrialHarness, opts: &Options) {
    println!("== E12 (extension): metro-scale tenant scaling — sharded StorageWorld ==");
    println!("   one CG per tenant on 8 shard lanes; 2 writes/order, open loop;");
    println!("   RPO probed at t=25ms, per-shard series peaks over the full run\n");
    let counts = opts
        .tenants
        .clone()
        .unwrap_or_else(|| vec![100, 1_000, 10_000]);
    let set = e12_scale_with(harness, 0xC0FFEE, &counts);
    report("e12", &set.stats);
    let table = render_e12(&set.rows);
    println!("{table}");
    maybe_csv(opts, "e12", &table);
    println!(
        "\nexpect: 100 tenants keep the lanes idle (tiny probe backlog, sub-ms drain\n\
         tail); 10k tenants contend for the same 8 lanes, so probe backlog, peak\n\
         journal occupancy and apply lag all rise while entries/frame shows the\n\
         transfer pumps batching harder — and ev/write (data-plane events per acked\n\
         write) falls with it: a pump blocked by lane backlog parks on the lane's wait\n\
         list, it does not poll. Every row must verify prefix-consistent.\n\
         Byte-identical at any --threads value.\n"
    );
}

/// Parse a `--tenants` list (`"100,1000"`); `None` on any bad element.
fn parse_tenants(v: &str) -> Option<Vec<u32>> {
    let counts: Vec<u32> = v
        .split(',')
        .filter(|s| !s.is_empty())
        .filter_map(|s| s.trim().parse().ok())
        .collect();
    if counts.is_empty() {
        None
    } else {
        Some(counts)
    }
}

/// The `trace` subcommand: replay seeded chaos plans with the causal
/// tracer on and export each trial's trace (JSONL + Chrome
/// `trace_event`). Exports are byte-identical at any `--threads` value.
fn run_trace(harness: &TrialHarness, opts: &Options) {
    println!("== trace: traced chaos trials — causal write-lifecycle spans ==");
    println!("   fault spans stamp concurrent write lifecycles; load the .chrome.json");
    println!("   files in chrome://tracing or https://ui.perfetto.dev\n");
    let dir = opts
        .trace_dir
        .clone()
        .unwrap_or_else(|| PathBuf::from("repro_out"));
    write_traced_chaos_trials(harness, &dir, 2);
}

/// Run `trials` traced consistency-group chaos trials through the
/// harness and write per-trial exports under `dir`.
fn write_traced_chaos_trials(harness: &TrialHarness, dir: &Path, trials: usize) {
    let cfg = ChaosConfig::default();
    let set = harness.run(0xC0FFEE, trials, |ctx| {
        let plan = FaultPlan::random(ctx.seed, cfg.horizon);
        run_chaos_trial_traced(ctx.seed, BackupMode::AdcConsistencyGroup, &plan, &cfg)
    });
    report("trace", &set.stats);
    let _ = fs::create_dir_all(dir);
    for (i, (rep, export)) in set.rows.iter().enumerate() {
        print!("{}", rep.render());
        let spans = export.jsonl.lines().count();
        let jsonl = dir.join(format!("trace_t{i}_cg.jsonl"));
        let chrome = dir.join(format!("trace_t{i}_cg.chrome.json"));
        match (
            fs::write(&jsonl, &export.jsonl),
            fs::write(&chrome, &export.chrome),
        ) {
            (Ok(()), Ok(())) => println!(
                "  trial {i}: {spans} records -> {} / {}",
                jsonl.display(),
                chrome.display()
            ),
            _ => eprintln!("  trial {i}: failed to write exports under {}", dir.display()),
        }
    }
    println!();
}

/// `--trace DIR` alongside the experiments: export one representative
/// traced run of the paper rig (ADC consistency group, default workload)
/// so the write lifecycle can be inspected without a chaos plan.
fn write_rig_trace(dir: &Path) {
    let cfg = RigConfig {
        trace: true,
        ..RigConfig::default()
    };
    let mut rig = TwoSiteRig::new(cfg);
    rig.run_workload_for(SimDuration::from_millis(50));
    let tracer = rig.world.st.tracer.clone();
    let _ = fs::create_dir_all(dir);
    let jsonl = dir.join("trace_rig.jsonl");
    let chrome = dir.join("trace_rig.chrome.json");
    match (
        fs::write(&jsonl, tracer.export_jsonl()),
        fs::write(&chrome, tracer.export_chrome()),
    ) {
        (Ok(()), Ok(())) => println!(
            "traced rig run: {} records -> {} / {}\n",
            tracer.len(),
            jsonl.display(),
            chrome.display()
        ),
        _ => eprintln!("failed to write rig trace under {}\n", dir.display()),
    }
}

fn main() {
    let opts = Options::parse(env::args().skip(1));
    let harness = TrialHarness::new(opts.threads);

    println!("Tsuru experiment reproduction (see DESIGN.md §4, EXPERIMENTS.md)\n");
    note("harness", &format!("trial workers: {}", harness.threads()));
    if opts.want("e1") {
        run_e1(&harness, &opts);
    }
    if opts.want("e2") {
        run_e2(&harness, &opts);
    }
    if opts.want("e3") {
        run_e3(&harness, &opts);
    }
    if opts.want("e4") {
        run_e4(&opts);
    }
    if opts.want("e5") {
        run_e5(&opts);
    }
    if opts.want("e6") {
        run_e6();
    }
    if opts.want("e7") {
        run_e7(&opts);
    }
    // Opt-in only (`repro chaos` or `repro --chaos`): a full sweep replays
    // every plan twice, so it is not part of the default `all` set.
    if opts.names.iter().any(|n| n == "chaos") || opts.chaos {
        run_chaos(&harness, &opts);
    }
    if opts.names.iter().any(|n| n == "trace") {
        run_trace(&harness, &opts);
    }
    // Opt-in only (`repro history`): every plan replays 6× (3 workloads ×
    // 2 modes), so it is not part of the default `all` set either.
    if opts.names.iter().any(|n| n == "history") {
        run_history(&harness, &opts);
    }
    // Opt-in only (`repro e10`): every plan replays once per recovery
    // policy with the supervisor armed.
    if opts.names.iter().any(|n| n == "e10") {
        run_e10(&harness, &opts);
    }
    // Opt-in only (`repro e11`): every plan replays once per rule profile
    // with the supervisor and the alert engine armed.
    if opts.names.iter().any(|n| n == "e11") {
        run_e11(&harness, &opts);
    }
    // Opt-in only (`repro e12`): builds worlds up to 10k consistency
    // groups — seconds of wall-clock, so not part of the default set.
    if opts.names.iter().any(|n| n == "e12") {
        run_e12(&harness, &opts);
    }
    // Opt-in only (`repro bench`): wall-clock kernel microbenchmarks and
    // per-experiment timings. Everything goes to stderr / `--json`; exits
    // nonzero if `--baseline` shows a >20 % events/sec regression.
    if opts.names.iter().any(|n| n == "bench") && !run_bench(&harness, &opts) {
        std::process::exit(1);
    }
    if opts.want("a1") {
        run_a1(&harness, &opts);
    }
    if opts.want("a2") {
        run_a2(&harness, &opts);
    }
    // `--trace DIR` with experiments (not just chaos/trace): also export
    // a representative traced rig run.
    if let Some(dir) = opts.trace_dir.clone() {
        let ran_experiments = ["e1", "e2", "e3", "e4", "e5", "e6", "e7", "a1", "a2"]
            .iter()
            .any(|e| opts.want(e));
        if ran_experiments {
            write_rig_trace(&dir);
        }
    }
}

/// The `bench` subcommand: wall-clock microbenchmarks of the event kernel
/// (typed wheel vs the preserved boxed-closure reference kernel) plus
/// per-experiment wall-clock timings and the rig's peak event-queue depth.
///
/// All human-readable output rides the shared stderr reporter ([`note`]),
/// never stdout; `--json PATH` writes the machine-readable `BENCH.json`;
/// `--baseline PATH` compares against a checked-in baseline and returns
/// `false` (⇒ exit 1) if typed events/sec regressed by more than 20 %.
fn run_bench(harness: &TrialHarness, opts: &Options) -> bool {
    use tsuru_bench::kernelbench::{measure_boxed, measure_typed, time_secs, KernelRate};

    const EVENTS: u64 = 4_000_000;
    note(
        "bench",
        &format!(
            "kernel microbench: {} self-rescheduling chains, delays spread over wheel levels",
            tsuru_bench::kernelbench::CHAINS
        ),
    );
    // Warm-up primes the allocator and the wheel's slot capacities so the
    // measured runs see steady state.
    let _ = measure_typed(EVENTS / 40);
    let _ = measure_boxed(EVENTS / 40);
    let typed = measure_typed(EVENTS);
    let boxed = measure_boxed(EVENTS);
    let speedup = typed.events_per_sec / boxed.events_per_sec;
    let show = |r: &KernelRate| {
        note(
            "bench",
            &format!(
                "{:<11} {} events in {:.3} s -> {:.3e} events/s (peak queue depth {}, \
                 {:.6} allocs/event, peak slab {}, {:.4} rehomes/event)",
                r.kernel,
                r.events,
                r.secs,
                r.events_per_sec,
                r.peak_pending,
                r.allocs_per_event,
                r.peak_slab,
                r.rehomes_per_event
            ),
        );
    };
    show(&typed);
    show(&boxed);
    note("bench", &format!("typed/boxed speedup: {speedup:.2}x"));

    // Peak queue depth of the real workload, not just the microbench: one
    // representative rig run (ADC consistency group, default config).
    let (rig_peak, rig_secs) = time_secs(|| {
        let mut rig = TwoSiteRig::new(RigConfig::default());
        rig.run_workload_for(SimDuration::from_millis(50));
        rig.sim.peak_pending()
    });
    note(
        "bench",
        &format!("rig 50 ms workload: peak queue depth {rig_peak} ({rig_secs:.3} s wall)"),
    );

    // Wall-clock per experiment, same parameters as the repro run itself.
    let mut experiments: Vec<(&str, f64)> = Vec::new();
    let mut time_exp = |name: &'static str, secs: f64| {
        note("bench", &format!("experiment {name}: {secs:.3} s wall"));
        experiments.push((name, secs));
    };
    time_exp(
        "e1",
        time_secs(|| {
            e1_slowdown_with(harness, 42, 8, &[1, 2, 10, 25, 50], SimDuration::from_millis(400))
        })
        .1,
    );
    time_exp(
        "e2",
        time_secs(|| e2_collapse_with(harness, 1000, 30, SimDuration::from_millis(2))).1,
    );
    time_exp(
        "e3",
        time_secs(|| e3_rpo_with(harness, 7, &[50, 100, 500, 1000], &[1, 64])).1,
    );
    time_exp("e4", time_secs(|| e4_snapshot(11)).1);
    time_exp("e5", time_secs(|| e5_operator(&[2, 4, 10, 50, 100, 200])).1);
    time_exp("e6", time_secs(|| e6_demo(2026)).1);
    time_exp("e7", time_secs(|| e7_three_dc(29)).1);
    time_exp(
        "a1",
        time_secs(|| a1_backup_lag_with(harness, 19, &[200, 500, 2000, 5000], &[8, 64])).1,
    );
    time_exp(
        "a2",
        time_secs(|| a2_journal_policy_with(harness, 23, &[256, 1024, 16384])).1,
    );

    if let Some(path) = &opts.json {
        let json = bench_json(&typed, &boxed, speedup, rig_peak, &experiments);
        match fs::write(path, json) {
            Ok(()) => note("bench", &format!("wrote {}", path.display())),
            Err(e) => {
                note("bench", &format!("failed to write {}: {e}", path.display()));
                return false;
            }
        }
    }

    if let Some(path) = &opts.baseline {
        let base = match fs::read_to_string(path).ok().as_deref().and_then(baseline_events_per_sec)
        {
            Some(b) => b,
            None => {
                note(
                    "bench",
                    &format!("baseline {} missing or unparsable", path.display()),
                );
                return false;
            }
        };
        let floor = base * 0.8;
        let mut ok = typed.events_per_sec >= floor;
        note(
            "bench",
            &format!(
                "baseline gate: typed {:.3e} events/s vs floor {:.3e} (0.8 x baseline {:.3e}) -> {}",
                typed.events_per_sec,
                floor,
                base,
                if ok { "pass" } else { "FAIL" }
            ),
        );
        // Allocation ratchet: allocs/event is deterministic (schedule-only),
        // so any growth over the checked-in baseline is a real regression.
        // Baselines predating the field skip the ratchet (additive schema).
        if let Some(base_alloc) = fs::read_to_string(path)
            .ok()
            .as_deref()
            .and_then(baseline_allocs_per_event)
        {
            let ceil = base_alloc * 1.1 + 1e-9;
            let alloc_ok = typed.allocs_per_event <= ceil;
            note(
                "bench",
                &format!(
                    "alloc ratchet: typed {:.8} allocs/event vs ceiling {:.8} (1.1 x baseline {:.8}) -> {}",
                    typed.allocs_per_event,
                    ceil,
                    base_alloc,
                    if alloc_ok { "pass" } else { "FAIL" }
                ),
            );
            ok = ok && alloc_ok;
        } else {
            note("bench", "alloc ratchet: baseline has no allocs_per_event, skipped");
        }
        return ok;
    }
    true
}

/// Hand-rolled `BENCH.json` (the workspace vendors no JSON serializer; the
/// format is flat enough that string assembly is the honest tool).
fn bench_json(
    typed: &tsuru_bench::kernelbench::KernelRate,
    boxed: &tsuru_bench::kernelbench::KernelRate,
    speedup: f64,
    rig_peak: usize,
    experiments: &[(&str, f64)],
) -> String {
    // `allocs_per_event` / `peak_slab` / `rehomes_per_event` are additive
    // to the schema: the baseline reader scans for named keys, so older
    // BENCH.json baselines (without them) still parse and newer files gain
    // the ratchet.
    let rate = |r: &tsuru_bench::kernelbench::KernelRate| {
        format!(
            "{{\"events\": {}, \"secs\": {:.6}, \"events_per_sec\": {:.1}, \"peak_pending\": {}, \
             \"allocs_per_event\": {:.8}, \"peak_slab\": {}, \"rehomes_per_event\": {:.6}}}",
            r.events,
            r.secs,
            r.events_per_sec,
            r.peak_pending,
            r.allocs_per_event,
            r.peak_slab,
            r.rehomes_per_event
        )
    };
    let exps: Vec<String> = experiments
        .iter()
        .map(|(n, s)| format!("    {{\"name\": \"{n}\", \"secs\": {s:.3}}}"))
        .collect();
    format!(
        "{{\n  \"schema\": \"tsuru-bench/1\",\n  \"kernel\": {{\n    \"typed_wheel\": {},\n    \"boxed_heap\": {},\n    \"speedup\": {:.2}\n  }},\n  \"rig_peak_pending\": {},\n  \"experiments\": [\n{}\n  ]\n}}\n",
        rate(typed),
        rate(boxed),
        speedup,
        rig_peak,
        exps.join(",\n")
    )
}

/// Pull a numeric field of the `typed_wheel` object out of a `BENCH.json`
/// without a JSON parser: locate `typed_wheel`, then the first `key` after
/// it. Unknown keys simply return `None`, so the schema can grow fields
/// without breaking older readers (and vice versa).
fn typed_wheel_field(text: &str, key: &str) -> Option<f64> {
    let obj = &text[text.find("\"typed_wheel\"")?..];
    let marker = format!("\"{key}\":");
    let rest = &obj[obj.find(&marker)? + marker.len()..];
    let end = rest.find(|c: char| c == ',' || c == '}')?;
    rest[..end].trim().parse().ok()
}

/// `kernel.typed_wheel.events_per_sec` from a `BENCH.json`.
fn baseline_events_per_sec(text: &str) -> Option<f64> {
    typed_wheel_field(text, "events_per_sec")
}

/// `kernel.typed_wheel.allocs_per_event` from a `BENCH.json`; `None` for
/// baselines predating the field.
fn baseline_allocs_per_event(text: &str) -> Option<f64> {
    typed_wheel_field(text, "allocs_per_event")
}

fn run_a1(harness: &TrialHarness, opts: &Options) {
    println!("== A1 (ablation): backup lag vs transfer-pump parameters ==");
    println!("   acked-but-unapplied backlog sampled every 5 ms over a 300 ms run\n");
    let set = a1_backup_lag_with(harness, 19, &[200, 500, 2000, 5000], &[8, 64]);
    report("a1", &set.stats);
    let table = render_a1(&set.rows);
    println!("{table}");
    maybe_csv(opts, "a1", &table);
    println!(
        "expect: lag grows with the pump interval (staleness is the price of\n\
         decoupling) while host p99 stays flat — the pump never touches the host path.\n"
    );
}

fn run_a2(harness: &TrialHarness, opts: &Options) {
    println!("== A2 (ablation): journal-full policy — Block vs Suspend ==");
    println!("   undersized journal over a 20 Mbit/s link; failure at t=200 ms\n");
    let set = a2_journal_policy_with(harness, 23, &[256, 1024, 16384]);
    report("a2", &set.stats);
    let table = render_a2(&set.rows);
    println!("{table}");
    maybe_csv(opts, "a2", &table);
    println!(
        "expect: Block back-pressures the host (stalls > 0, p99 up) but keeps the\n\
         backup advancing; Suspend keeps the host fast but abandons the backup\n\
         (degraded acks, far larger loss at failover).\n"
    );
}
