//! The experiment reproduction harness: regenerates every table/figure
//! reproduction from DESIGN.md §4.
//!
//! ```text
//! cargo run -p tsuru-bench --release --bin repro           # the default set
//! cargo run -p tsuru-bench --release --bin repro e2 --threads 8
//! cargo run -p tsuru-bench --release --bin repro --help    # every experiment and option
//! ```
//!
//! What can be run is one table, [`EXPERIMENTS`]: `main`, `--help` and
//! argument validation all read it. Anything `repro` does not know — an
//! option, an experiment name, a value it cannot parse — is an error:
//! usage on stderr, exit status 2, nothing on stdout.
//!
//! Tables are **byte-identical at any `--threads` value** — trials are
//! seeded purely from `(base_seed, trial_index)` and re-sorted by index —
//! and so is every export (`--trace`, `--history`, `--alerts`). Wall-clock
//! stats (`[harness] …`) go to stderr so stdout stays comparable.

#![forbid(unsafe_code)]

use std::env;
use std::fs;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

use tsuru_bench::{
    render_a1, render_a2, render_e1, render_e12, render_e2, render_e3, render_e4, render_e5,
    render_e7,
};
use tsuru_chaos::{
    alert_sweep, chaos_sweep, convergence_sweep, history_sweep, render_alert_table,
    render_chaos_table, render_convergence_table, render_history_table, run_chaos_trial,
    ChaosConfig, FaultPlan,
};
use tsuru_core::experiments::{
    a1_backup_lag, a2_journal_policy, e1_slowdown, e2_collapse, e3_rpo, e4_snapshot, e5_operator,
    e6_demo, e7_three_dc,
};
use tsuru_core::tenants::e12_scale;
use tsuru_core::{BackupMode, HarnessStats, RigConfig, TrialHarness, TwoSiteRig};
use tsuru_sim::SimDuration;

/// One experiment `repro` can run.
struct Experiment {
    /// The selector on the command line.
    name: &'static str,
    /// [`DEFAULT`] or [`OPT_IN`].
    default: bool,
    /// One line for `--help`.
    about: &'static str,
    run: fn(&TrialHarness, &Options),
}

/// Part of the default set: plain `repro`, or `all`.
const DEFAULT: bool = true;
/// Runs only when named — each of these replays its fault plans several
/// times over, or builds worlds of thousands of consistency groups.
const OPT_IN: bool = false;

/// Every experiment, in the order a run prints them.
const EXPERIMENTS: &[Experiment] = &[
    exp(
        "e1",
        DEFAULT,
        "no system slowdown (C1): latency/throughput vs backup mode",
        run_e1,
    ),
    exp(
        "e2",
        DEFAULT,
        "backup collapse (C2/C3): consistency group vs naive ADC",
        run_e2,
    ),
    exp(
        "e3",
        DEFAULT,
        "recovery point vs link bandwidth and journal capacity",
        run_e3,
    ),
    exp(
        "e4",
        DEFAULT,
        "snapshot groups make backup data usable",
        run_e4,
    ),
    exp("e5", DEFAULT, "namespace-operator automation", run_e5),
    exp(
        "e6",
        DEFAULT,
        "the full demonstration: three steps + disaster drill",
        run_e6,
    ),
    exp(
        "e7",
        DEFAULT,
        "three-data-centre: metro SDC + WAN ADC",
        run_e7,
    ),
    exp(
        "chaos",
        OPT_IN,
        "E8: seeded fault plans, CG vs naive, audited (--trace DIR)",
        run_chaos,
    ),
    exp(
        "trace",
        OPT_IN,
        "traced chaos trials, exports under --trace DIR",
        run_trace,
    ),
    exp(
        "history",
        OPT_IN,
        "E9: client-visible history sweep (--history DIR)",
        run_history,
    ),
    exp(
        "e10",
        OPT_IN,
        "self-healing convergence: plans x recovery policies",
        run_e10,
    ),
    exp(
        "e11",
        OPT_IN,
        "SLO alerting vs injected ground truth (--alerts DIR)",
        run_e11,
    ),
    exp(
        "e12",
        OPT_IN,
        "metro-scale tenant scaling (--tenants N,N,...)",
        run_e12,
    ),
    exp(
        "a1",
        DEFAULT,
        "ablation: backup lag vs transfer-pump parameters",
        run_a1,
    ),
    exp(
        "a2",
        DEFAULT,
        "ablation: journal-full policy, Block vs Suspend",
        run_a2,
    ),
];

const fn exp(
    name: &'static str,
    default: bool,
    about: &'static str,
    run: fn(&TrialHarness, &Options),
) -> Experiment {
    Experiment {
        name,
        default,
        about,
        run,
    }
}

/// The `--help` text; after an error it goes to stderr instead.
fn usage() -> String {
    let mut out = String::from(
        "usage: repro [EXPERIMENT...] [OPTIONS]\n\n\
         With no EXPERIMENT (or `all`) the default set runs.\n\n\
         experiments:\n",
    );
    for e in EXPERIMENTS {
        let set = if e.default { "default" } else { "opt-in" };
        out.push_str(&format!("  {:<8} {:<8} {}\n", e.name, set, e.about));
    }
    out.push_str(
        "\noptions:\n  \
         --threads N     trial-harness workers; 0 = one per CPU (default), 1 = serial\n  \
         --csv           also write each table under repro_out/\n  \
         --trace DIR     write trace exports (JSONL + Chrome trace_event) under DIR\n  \
         --history DIR   history: write each trial's op history as JSONL under DIR\n  \
         --alerts DIR    e11: write each trial's incident log as JSONL under DIR\n  \
         --tenants N,..  e12: tenant counts to sweep (default 100,1000,10000)\n  \
         --chaos         same as naming `chaos`\n  \
         -h, --help      print this and exit\n\n\
         A valued option is written `--opt V` or `--opt=V`.\n",
    );
    out
}

/// Every command-line option, parsed and validated once in `main`.
#[derive(Debug, Default, PartialEq)]
struct Options {
    /// `--help` / `-h`: print [`usage`] and exit.
    help: bool,
    /// Experiments named on the command line (`--chaos` names `chaos`),
    /// and `all` if it was.
    names: Vec<String>,
    /// `--csv`: also write each table under `repro_out/`.
    csv: bool,
    /// `--threads N`; `0` = one worker per CPU.
    threads: usize,
    /// `--trace DIR`: write trace exports under `DIR`.
    trace_dir: Option<PathBuf>,
    /// `--history DIR`: write op-history JSONL exports under `DIR`.
    history_dir: Option<PathBuf>,
    /// `--alerts DIR`: write incident-log JSONL exports under `DIR`.
    alerts_dir: Option<PathBuf>,
    /// `--tenants N,N,…`: the E12 sweep (default 100,1000,10000).
    tenants: Option<Vec<u32>>,
}

impl Options {
    /// Parse the raw arguments (program name already skipped). `Err` says
    /// what was wrong; nothing is ignored and nothing falls back.
    fn parse(args: impl IntoIterator<Item = String>) -> Result<Options, String> {
        let mut opts = Options::default();
        let mut args = args.into_iter().peekable();
        while let Some(arg) = args.next() {
            let (flag, inline) = match arg.split_once('=') {
                Some((flag, v)) if flag.starts_with("--") => (flag, Some(v.to_string())),
                _ => (arg.as_str(), None),
            };
            // The value of a valued option: `--opt=V`, or the next argument.
            let mut value = || {
                inline
                    .clone()
                    .or_else(|| args.next_if(|next| !next.starts_with('-')))
                    .filter(|v| !v.is_empty())
                    .ok_or_else(|| format!("{flag} needs a value"))
            };
            match (arg.as_str(), flag) {
                ("--help" | "-h", _) => opts.help = true,
                ("--csv", _) => opts.csv = true,
                ("--chaos", _) => opts.names.push("chaos".into()),
                (_, "--threads") => {
                    let v = value()?;
                    opts.threads = v
                        .parse()
                        .map_err(|_| format!("--threads: `{v}` is not a worker count"))?;
                }
                (_, "--trace") => opts.trace_dir = Some(PathBuf::from(value()?)),
                (_, "--history") => opts.history_dir = Some(PathBuf::from(value()?)),
                (_, "--alerts") => opts.alerts_dir = Some(PathBuf::from(value()?)),
                (_, "--tenants") => opts.tenants = Some(parse_tenants(&value()?)?),
                (option, _) if option.starts_with('-') => {
                    return Err(format!("unknown option `{option}`"))
                }
                (name, _) if name == "all" || EXPERIMENTS.iter().any(|e| e.name == name) => {
                    opts.names.push(arg.clone())
                }
                _ => return Err(format!("unknown experiment `{arg}`")),
            }
        }
        Ok(opts)
    }

    /// Does this run include `e`? No selector at all means the default
    /// set, `all` forces it, and opt-in experiments run only when named.
    fn selects(&self, e: &Experiment) -> bool {
        let named = |name: &str| self.names.iter().any(|n| n == name);
        named(e.name) || (e.default && (named("all") || self.names.is_empty()))
    }
}

/// Parse a `--tenants` list (`"100,1000"`): every element a positive
/// tenant count.
fn parse_tenants(v: &str) -> Result<Vec<u32>, String> {
    v.split(',')
        .map(|s| match s.trim().parse() {
            Ok(n) if n > 0 => Ok(n),
            _ => Err(format!("--tenants: `{s}` is not a positive tenant count")),
        })
        .collect()
}

/// Print one table; with `--csv` its series is also written under
/// `repro_out/`.
fn print_table(opts: &Options, name: &str, table: &str) {
    println!("{table}");
    if opts.csv {
        let dir = Path::new("repro_out");
        let _ = fs::create_dir_all(dir);
        let path = dir.join(format!("{name}.csv"));
        if fs::write(&path, tsuru_bench::table_to_csv(table)).is_ok() {
            println!("   (series written to {})", path.display());
        }
    }
}

/// Write `files` (name, content) under `dir`, created if need be: the
/// written paths joined by `" / "`, or `None` when one could not be.
fn write_exports(dir: &Path, files: &[(String, &str)]) -> Option<String> {
    let _ = fs::create_dir_all(dir);
    let mut paths = Vec::new();
    for (name, content) in files {
        let path = dir.join(name);
        fs::write(&path, content).ok()?;
        paths.push(path.display().to_string());
    }
    Some(paths.join(" / "))
}

/// The single stderr reporting path: every diagnostic line — harness
/// wall-clock stats, worker counts — goes through here, so stdout stays
/// byte-identical at any `--threads` value.
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
    let set = e1_slowdown(harness, 42, 8, &rtts, SimDuration::from_millis(400));
    report("e1", &set.stats);
    print_table(opts, "e1", &render_e1(&set.rows));
    println!(
        "expect: adc-cg ≈ none at every RTT; sdc pays one to two log flushes (each a WAN\n\
         round trip) per commit, two commits per order: p50 ≳ 2×RTT, and tps collapses.\n"
    );
    println!("   under load: 64 clients, 10 ms RTT, 10 s simulated (the ledger's oltp_rig)\n");
    let set = e1_slowdown(harness, 42, 64, &[10], SimDuration::from_millis(10_000));
    report("e1 (64 clients)", &set.stats);
    print_table(opts, "e1_loaded", &render_e1(&set.rows));
    println!(
        "expect: none = adc-cg, client-bound, a flush shared by ~1.5 commits; sdc groups\n\
         ~20 commits per flush and still waits a WAN round trip or two for each.\n"
    );
}

fn run_e2(harness: &TrialHarness, opts: &Options) {
    println!("== E2: backup collapse (claims C2/C3) — consistency group vs naive ADC ==");
    println!("   30 surprise-failure drills per mode; 2 ms replication-session skew\n");
    let set = e2_collapse(harness, 1000, 30, SimDuration::from_millis(2));
    report("e2", &set.stats);
    print_table(opts, "e2", &render_e2(&set.rows));
    println!(
        "expect: adc-cg collapses 0/30 (both checks); adc-naive violates write-order\n\
         fidelity in most drills and corrupts the business state in many.\n"
    );
}

fn run_e3(harness: &TrialHarness, opts: &Options) {
    println!("== E3: recovery point vs link bandwidth and journal capacity (§III-A1) ==");
    println!("   main-site failure at t=150 ms; ADC journal Block policy; SDC reference\n");
    let set = e3_rpo(harness, 7, &[50, 100, 500, 1000], &[1, 64]);
    report("e3", &set.stats);
    print_table(opts, "e3", &render_e3(&set.rows));
    println!(
        "expect: lost orders and RPO shrink as bandwidth grows; a tiny journal on a\n\
         slow link stalls the host (stalls > 0, p99 inflated); sdc loses nothing.\n"
    );
}

fn run_e4(_: &TrialHarness, opts: &Options) {
    println!("== E4: snapshot groups make backup data usable (§III-A2, Figs. 5–6) ==");
    println!("   snapshots taken at the backup site at t=150 ms, workload continues\n");
    let rows = e4_snapshot(11);
    print_table(opts, "e4", &render_e4(&rows));
    println!(
        "expect: the atomic group snapshot yields a consistent analytics image while\n\
         replication keeps running (cow_saves > 0); non-atomic per-volume snapshots\n\
         can interleave with apply and break the cross-DB invariant.\n"
    );
}

fn run_e5(_: &TrialHarness, opts: &Options) {
    println!("== E5: namespace-operator automation (§III-B1, Figs. 3–4) ==");
    println!("   tag one namespace; measure configuration effort as volumes scale\n");
    let rows = e5_operator(&[2, 4, 10, 50, 100, 200]);
    print_table(opts, "e5", &render_e5(&rows));
    println!(
        "expect: with the operator the user performs exactly 1 action at any scale;\n\
         the manual procedure grows linearly (4 + 3·volumes console steps).\n"
    );
}

fn run_e6(_: &TrialHarness, _: &Options) {
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

fn run_e7(_: &TrialHarness, opts: &Options) {
    println!("== E7 (extension): three-data-centre — metro SDC + WAN ADC combined ==");
    println!("   far link 25 ms one way; metro link 1 ms; disaster at t=200 ms\n");
    let rows = e7_three_dc(29);
    print_table(opts, "e7", &render_e7(&rows));
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
    print_table(opts, "chaos", &render_chaos_table(&set.rows));
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
    print_table(opts, "history", &render_history_table(&set.rows));
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
        for (i, trial) in set.rows.iter().enumerate() {
            for row in &trial.rows {
                let workload = row.workload.label();
                for (mode, jsonl) in [("cg", &row.cg_export), ("naive", &row.naive_export)] {
                    let file = format!("history_t{i}_{workload}_{mode}.jsonl");
                    match write_exports(dir, &[(file, jsonl)]) {
                        Some(path) => println!(
                            "  trial {i} {workload} {mode}: {} records -> {path}",
                            jsonl.lines().count()
                        ),
                        None => eprintln!(
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
    print_table(opts, "e10", &render_convergence_table(&set.rows));
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
    print_table(opts, "e11", &render_alert_table(&set.rows));
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
        for (i, trial) in set.rows.iter().enumerate() {
            for row in &trial.rows {
                let file = format!("incidents_t{i}_{}.jsonl", row.profile);
                match write_exports(dir, &[(file, &row.export)]) {
                    Some(path) => println!(
                        "  trial {i} {}: {} incidents -> {path}",
                        row.profile,
                        row.export.lines().count()
                    ),
                    None => eprintln!(
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
    let counts = opts.tenants.as_deref().unwrap_or(&[100, 1_000, 10_000]);
    let set = e12_scale(harness, 0xC0FFEE, counts);
    report("e12", &set.stats);
    print_table(opts, "e12", &render_e12(&set.rows));
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

/// The `trace` subcommand: replay seeded chaos plans with the causal
/// tracer on and export each trial's trace (JSONL + Chrome
/// `trace_event`). Exports are byte-identical at any `--threads` value.
fn run_trace(harness: &TrialHarness, opts: &Options) {
    println!("== trace: traced chaos trials — causal write-lifecycle spans ==");
    println!("   fault spans stamp concurrent write lifecycles; load the .chrome.json");
    println!("   files in chrome://tracing or https://ui.perfetto.dev\n");
    let dir = opts.trace_dir.as_deref().unwrap_or(Path::new("repro_out"));
    write_traced_chaos_trials(harness, dir, 2);
}

/// Run `trials` traced consistency-group chaos trials through the
/// harness and write per-trial exports under `dir`.
fn write_traced_chaos_trials(harness: &TrialHarness, dir: &Path, trials: usize) {
    let cfg = ChaosConfig {
        trace: true,
        ..ChaosConfig::default()
    };
    let set = harness.run(0xC0FFEE, trials, |ctx| {
        let plan = FaultPlan::random(ctx.seed, cfg.horizon);
        run_chaos_trial(ctx.seed, BackupMode::AdcConsistencyGroup, &plan, &cfg)
    });
    report("trace", &set.stats);
    for (i, trial) in set.rows.iter().enumerate() {
        print!("{}", trial.report.render());
        let export = trial
            .trace
            .as_ref()
            .expect("traced trial carries its exports");
        let spans = export.jsonl.lines().count();
        let files = [
            (format!("trace_t{i}_cg.jsonl"), export.jsonl.as_str()),
            (format!("trace_t{i}_cg.chrome.json"), export.chrome.as_str()),
        ];
        match write_exports(dir, &files) {
            Some(paths) => println!("  trial {i}: {spans} records -> {paths}"),
            None => eprintln!(
                "  trial {i}: failed to write exports under {}",
                dir.display()
            ),
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
    let tracer = &rig.world.st.tracer;
    let (jsonl, chrome) = (tracer.export_jsonl(), tracer.export_chrome());
    let files = [
        ("trace_rig.jsonl".to_string(), jsonl.as_str()),
        ("trace_rig.chrome.json".to_string(), chrome.as_str()),
    ];
    match write_exports(dir, &files) {
        Some(paths) => println!("traced rig run: {} records -> {paths}\n", tracer.len()),
        None => eprintln!("failed to write rig trace under {}\n", dir.display()),
    }
}

fn main() -> ExitCode {
    let opts = match Options::parse(env::args().skip(1)) {
        Ok(opts) => opts,
        Err(msg) => {
            eprintln!("repro: {msg}\n\n{}", usage());
            return ExitCode::from(2);
        }
    };
    if opts.help {
        print!("{}", usage());
        return ExitCode::SUCCESS;
    }
    let harness = TrialHarness::new(opts.threads);

    println!("Tsuru experiment reproduction (see DESIGN.md §4, EXPERIMENTS.md)\n");
    note("harness", &format!("trial workers: {}", harness.threads()));
    for e in EXPERIMENTS.iter().filter(|e| opts.selects(e)) {
        (e.run)(&harness, &opts);
    }
    // `--trace DIR` with experiments (not just chaos/trace): also export
    // a representative traced rig run.
    if let Some(dir) = &opts.trace_dir {
        if EXPERIMENTS.iter().any(|e| e.default && opts.selects(e)) {
            write_rig_trace(dir);
        }
    }
    ExitCode::SUCCESS
}

fn run_a1(harness: &TrialHarness, opts: &Options) {
    println!("== A1 (ablation): backup lag vs transfer-pump parameters ==");
    println!("   acked-but-unapplied backlog sampled every 5 ms over a 300 ms run\n");
    let set = a1_backup_lag(harness, 19, &[200, 500, 2000, 5000], &[8, 64]);
    report("a1", &set.stats);
    print_table(opts, "a1", &render_a1(&set.rows));
    println!(
        "expect: lag grows with the pump interval (staleness is the price of\n\
         decoupling) while host p99 stays flat — the pump never touches the host path.\n"
    );
}

fn run_a2(harness: &TrialHarness, opts: &Options) {
    println!("== A2 (ablation): journal-full policy — Block vs Suspend ==");
    println!("   undersized journal over a 20 Mbit/s link; failure at t=200 ms\n");
    let set = a2_journal_policy(harness, 23, &[256, 1024, 16384]);
    report("a2", &set.stats);
    print_table(opts, "a2", &render_a2(&set.rows));
    println!(
        "expect: Block back-pressures the host (stalls > 0, p99 up) but keeps the\n\
         backup advancing; Suspend keeps the host fast but abandons the backup\n\
         (degraded acks, far larger loss at failover).\n"
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<Options, String> {
        Options::parse(args.iter().map(|a| a.to_string()))
    }

    #[test]
    fn both_spellings_of_every_valued_option_parse_alike() {
        let spaced = parse(&[
            "e2",
            "--threads",
            "8",
            "--trace",
            "t",
            "--history",
            "h",
            "--alerts",
            "a",
            "--tenants",
            "64, 256",
        ]);
        let inline = parse(&[
            "e2",
            "--threads=8",
            "--trace=t",
            "--history=h",
            "--alerts=a",
            "--tenants=64, 256",
        ]);
        assert_eq!(spaced, inline);
        let opts = spaced.expect("valid");
        assert_eq!((opts.threads, opts.names), (8, vec!["e2".to_string()]));
        assert_eq!(opts.trace_dir, Some(PathBuf::from("t")));
        assert_eq!(opts.tenants, Some(vec![64, 256]));
    }

    #[test]
    fn the_default_set_is_the_table_s_and_opt_ins_run_only_when_named() {
        let selected = |args: &[&str]| -> Vec<&str> {
            let opts = parse(args).expect("valid");
            EXPERIMENTS
                .iter()
                .filter(|e| opts.selects(e))
                .map(|e| e.name)
                .collect()
        };
        let defaults = ["e1", "e2", "e3", "e4", "e5", "e6", "e7", "a1", "a2"];
        assert_eq!(selected(&[]), defaults);
        assert_eq!(selected(&["all"]), defaults);
        assert_eq!(selected(&["--threads", "1"]), defaults);
        assert_eq!(selected(&["--chaos"]), ["chaos"]);
        assert_eq!(selected(&["chaos"]), ["chaos"]);
        // Table order, whatever the order on the command line.
        assert_eq!(selected(&["a1", "e12", "e3"]), ["e3", "e12", "a1"]);
        assert_eq!(selected(&["all", "history"]).len(), defaults.len() + 1);
        assert!(
            parse(&["-h"]).expect("valid").help && parse(&["e1", "--help"]).expect("valid").help
        );
    }

    #[test]
    fn what_repro_does_not_know_is_an_error() {
        for (args, complaint) in [
            (&["--bogus"][..], "unknown option `--bogus`"),
            (&["--thread", "8"], "unknown option `--thread`"),
            (&["-x"], "unknown option `-x`"),
            (&["--csv=yes"], "unknown option `--csv=yes`"),
            (&["e13"], "unknown experiment `e13`"),
            (&["bench"], "unknown experiment `bench`"),
            (&["e1", "8"], "unknown experiment `8`"),
            (&["--threads"], "--threads needs a value"),
            (&["--threads", "--csv"], "--threads needs a value"),
            (&["--trace"], "--trace needs a value"),
            (&["--history="], "--history needs a value"),
            (&["--threads", "abc"], "`abc` is not a worker count"),
            (&["--threads=-1"], "`-1` is not a worker count"),
            (
                &["--tenants", "100,abc"],
                "`abc` is not a positive tenant count",
            ),
            (&["--tenants", "0"], "`0` is not a positive tenant count"),
            (
                &["--tenants", "100,,200"],
                "`` is not a positive tenant count",
            ),
            (&["--tenants="], "--tenants needs a value"),
        ] {
            match parse(args) {
                Err(msg) => assert!(msg.contains(complaint), "{args:?}: {msg}"),
                Ok(opts) => panic!("{args:?} parsed: {opts:?}"),
            }
        }
    }
}
