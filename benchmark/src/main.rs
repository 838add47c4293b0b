//! The layered performance ledger (see README.md).
//!
//! ```text
//! ledger [--seed N] [--seconds N] [--quick]            every workload, end-to-end metrics
//! ledger --trace [...]                                 every workload, per-layer metrics + span files
//! ledger --agree [...]                                 two end-to-end sets back to back, compared
//! ledger --workload NAME --seed N --seconds N --trace 0|1
//!                                                      one workload in this process; the last line of
//!                                                      stdout is the result object the pipeline reads
//! ```
//!
//! With one `--workload` the workload runs in this process, single-threaded.
//! Otherwise each workload runs in its own child process, one at a time.

use std::process::{Command, ExitCode, Stdio};

use tsuru_benchmark::report::{exit_code, fmt, Report, LEDGER_LINE};
use tsuru_benchmark::run::{self, RunOpts};
use tsuru_benchmark::workloads::{self, Size, WORKLOADS};
use tsuru_benchmark::{alloc, metrics};

#[global_allocator]
static GLOBAL: alloc::Counting = alloc::Counting;

/// `run_seconds` of `BENCHMARK.json`: the default when `--seconds` is absent.
const DEFAULT_SECONDS: u64 = 10;

struct Cli {
    workloads: Vec<String>,
    opts: RunOpts,
    agree: bool,
}

fn usage() -> String {
    let names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
    format!(
        "usage: ledger [--workload NAME[,NAME]]... [--seed N] [--seconds N] [--trace [0|1]] [--quick] [--agree]\n\
         workloads: {}",
        names.join(", ")
    )
}

/// Input from outside the program is checked where it enters.
fn parse_cli(args: &[String]) -> Result<Cli, String> {
    let mut cli = Cli {
        workloads: Vec::new(),
        opts: RunOpts {
            seed: 1,
            seconds: DEFAULT_SECONDS,
            size: Size::Full,
            traced: false,
            inject_failure: false,
        },
        agree: false,
    };
    let mut i = 0;
    let value = |i: &mut usize, flag: &str| -> Result<String, String> {
        *i += 1;
        args.get(*i).cloned().ok_or(format!("{flag} needs a value"))
    };
    while i < args.len() {
        match args[i].as_str() {
            "--workload" => {
                for name in value(&mut i, "--workload")?.split(',') {
                    if workloads::find(name).is_none() {
                        return Err(format!("unknown workload {name:?}"));
                    }
                    cli.workloads.push(name.to_string());
                }
            }
            "--seed" => {
                cli.opts.seed = value(&mut i, "--seed")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?
            }
            "--seconds" => {
                cli.opts.seconds = value(&mut i, "--seconds")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(1..=60).contains(&cli.opts.seconds) {
                    return Err("--seconds must be between 1 and 60".into());
                }
            }
            // `--trace` alone means a traced run; the pipeline passes 0 or 1.
            "--trace" => match args.get(i + 1).map(String::as_str) {
                Some("0") => {
                    cli.opts.traced = false;
                    i += 1;
                }
                Some("1") => {
                    cli.opts.traced = true;
                    i += 1;
                }
                _ => cli.opts.traced = true,
            },
            "--quick" => cli.opts.size = Size::Quick,
            "--agree" => cli.agree = true,
            "--self-test-fail" => cli.opts.inject_failure = true,
            "--help" | "-h" => return Err(String::new()),
            other => return Err(format!("unknown argument {other:?}")),
        }
        i += 1;
    }
    if cli.agree && cli.opts.traced {
        return Err("--agree compares end-to-end sets; it takes no --trace".into());
    }
    Ok(cli)
}

fn main() -> ExitCode {
    alloc::pin_mmap_threshold();
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cli = match parse_cli(&args) {
        Ok(cli) => cli,
        Err(why) => {
            if !why.is_empty() {
                eprintln!("error: {why}");
            }
            eprintln!("{}", usage());
            return ExitCode::from(2);
        }
    };

    // One named workload: run it here, in this process.
    if let [name] = cli.workloads.as_slice() {
        if !cli.agree {
            let w = workloads::find(name).expect("invariant: names were checked by parse_cli");
            let (report, notes) = if cli.opts.traced {
                run::traced(w, &cli.opts)
            } else {
                (run::end_to_end(w, &cli.opts), String::new())
            };
            print!("{}{notes}", report.render());
            println!("{LEDGER_LINE}{}", report.to_json());
            println!("{}", report.contract_line());
            return ExitCode::from(exit_code(&[report]));
        }
    }

    let names: Vec<String> = if cli.workloads.is_empty() {
        WORKLOADS.iter().map(|w| w.name.to_string()).collect()
    } else {
        cli.workloads.clone()
    };
    let result = if cli.agree {
        agree(&names, &cli.opts)
    } else {
        run_set(&names, &cli.opts, true).map(|reports| {
            summary(&reports);
            exit_code(&reports)
        })
    };
    match result {
        Ok(code) => ExitCode::from(code),
        Err(why) => {
            eprintln!("error: {why}");
            ExitCode::from(1)
        }
    }
}

/// Run each workload in its own child process, one at a time.
fn run_set(names: &[String], o: &RunOpts, echo: bool) -> Result<Vec<Report>, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find own executable: {e}"))?;
    let mut reports = Vec::new();
    for name in names {
        let mut cmd = Command::new(&exe);
        cmd.args([
            "--workload",
            name,
            "--seed",
            &o.seed.to_string(),
            "--seconds",
            &o.seconds.to_string(),
        ])
        .args(["--trace", if o.traced { "1" } else { "0" }])
        .stdin(Stdio::null())
        .stderr(Stdio::inherit());
        if o.size == Size::Quick {
            cmd.arg("--quick");
        }
        if o.inject_failure {
            cmd.arg("--self-test-fail");
        }
        // `output` waits for the child to end before returning.
        let out = cmd
            .output()
            .map_err(|e| format!("cannot start {name}: {e}"))?;
        let stdout = String::from_utf8_lossy(&out.stdout);
        let mut report = None;
        let lines: Vec<&str> = stdout.lines().collect();
        for (i, line) in lines.iter().enumerate() {
            if let Some(json) = line.strip_prefix(LEDGER_LINE) {
                report = Some(
                    Report::from_json(json).map_err(|e| format!("{name}: bad report line: {e}"))?,
                );
            }
            // Everything but the child's last line (the pipeline's result
            // object, which only means something for a single workload).
            if echo && i + 1 != lines.len() {
                println!("{line}");
            }
        }
        let report = report.ok_or(format!(
            "{name}: child exited with {} and no report",
            out.status
        ))?;
        if out.status.success() != report.correct() {
            return Err(format!(
                "{name}: exit status {} disagrees with its verdict",
                out.status
            ));
        }
        reports.push(report);
    }
    Ok(reports)
}

fn summary(reports: &[Report]) {
    let failed: Vec<String> = reports
        .iter()
        .flat_map(|r| {
            r.checks
                .iter()
                .filter(|(_, ok)| !ok)
                .map(move |(what, _)| format!("{}: {what}", r.workload))
        })
        .collect();
    println!("== summary");
    for r in reports {
        println!(
            "  {:<14} ops_attempted={:<8} ops_failed={:<4} checks {}/{} ok",
            r.workload,
            r.attempted,
            r.failed,
            r.checks.iter().filter(|(_, ok)| *ok).count(),
            r.checks.len()
        );
    }
    if failed.is_empty() {
        println!("  all output checks hold");
    } else {
        for f in &failed {
            println!("  FAILED {f}");
        }
    }
}

/// Two full end-to-end sets back to back: per metric × workload both
/// readings, the relative difference and the bound. Host metrics must stay
/// within their bound, exact ones must match to the last digit.
fn agree(names: &[String], o: &RunOpts) -> Result<u8, String> {
    println!("== set A");
    let a = run_set(names, o, false)?;
    println!("== set B");
    let b = run_set(names, o, false)?;
    let mut bad = 0u32;
    println!(
        "{:<14} {:<20} {:>16} {:>16} {:>9}  {:<16} verdict",
        "workload", "metric", "A", "B", "diff", "bound"
    );
    for (ra, rb) in a.iter().zip(&b) {
        for x in &ra.readings {
            let m =
                metrics::end_to_end(&x.name).expect("invariant: reports carry declared metrics");
            let Some(y) = rb.reading(&x.name) else {
                return Err(format!("{}: set B lacks {}", ra.workload, x.name));
            };
            // Host readings at the smoke-test size are microseconds of
            // noise: shown, not judged.
            let judged = !(o.size == Size::Quick && m.clock == metrics::Clock::Host);
            let ok = !judged
                || (m.bound.holds(m.better, x.value, y.value)
                    && m.bound.holds(m.better, y.value, x.value));
            bad += u32::from(!ok);
            println!(
                "{:<14} {:<20} {:>16} {:>16} {:>8.2}%  {:<16} {}",
                ra.workload,
                x.name,
                fmt(x.value),
                fmt(y.value),
                if x.value == 0.0 {
                    0.0
                } else {
                    (y.value - x.value) / x.value * 100.0
                },
                m.bound.label(),
                if !judged {
                    "not judged (quick)"
                } else if ok {
                    "agree"
                } else {
                    "DISAGREE"
                }
            );
        }
        let same = ra.digest == rb.digest && ra.attempted == rb.attempted && ra.failed == rb.failed;
        bad += u32::from(!same);
        println!(
            "{:<14} {:<20} {:>16x} {:>16x} {:>9}  {:<16} {}",
            ra.workload,
            "sim digest",
            ra.digest,
            rb.digest,
            "",
            "exact",
            if same { "agree" } else { "DISAGREE" }
        );
    }
    let incorrect = exit_code(&a) | exit_code(&b);
    println!(
        "== {bad} disagreement(s); output checks {}",
        if incorrect == 0 { "hold" } else { "FAILED" }
    );
    Ok(u8::from(bad > 0) | incorrect)
}
