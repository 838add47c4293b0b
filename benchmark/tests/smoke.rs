//! Smoke test of the whole ledger at `--quick` sizes: every workload and
//! metric named in `BENCHMARK.json` is emitted, every "should move"
//! reference resolves, names are well-formed, simulated and exact values
//! repeat exactly whatever order the workloads run in, and a failing
//! check fails the command.

use std::collections::BTreeMap;
use std::process::Command;

use tsuru_benchmark::json::{self, Value};
use tsuru_benchmark::metrics::{self, Bound, END_TO_END, PER_LAYER};
use tsuru_benchmark::report::{Report, LEDGER_LINE};
use tsuru_benchmark::workloads::WORKLOADS;

const LEDGER: &str = env!("CARGO_BIN_EXE_ledger");

fn benchmark_json() -> Value {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    json::parse(&std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root"))
        .expect("valid JSON")
}

fn names(doc: &Value, section: &str) -> Vec<String> {
    doc.get(section)
        .and_then(Value::as_arr)
        .unwrap_or_else(|| panic!("BENCHMARK.json has no {section}"))
        .iter()
        .map(|m| {
            m.get("name")
                .and_then(Value::as_str)
                .expect("entry has a name")
                .to_string()
        })
        .collect()
}

fn well_formed(name: &str) -> bool {
    name.len() <= 64
        && name.starts_with(|c: char| c.is_ascii_alphanumeric())
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
}

/// Run the ledger over `workloads` (parent mode: one child per workload)
/// and return the children's reports.
fn run(workloads: &[&str], extra: &[&str]) -> (bool, Vec<Report>, String) {
    let out = Command::new(LEDGER)
        .args(["--quick", "--seed", "7", "--workload", &workloads.join(",")])
        .args(extra)
        .output()
        .expect("ledger starts");
    let stdout = String::from_utf8(out.stdout).expect("utf-8 output");
    let reports = stdout
        .lines()
        .filter_map(|l| l.strip_prefix(LEDGER_LINE))
        .map(|l| Report::from_json(l).expect("report line parses"))
        .collect();
    (out.status.success(), reports, stdout)
}

#[test]
fn benchmark_json_matches_the_declarations() {
    let doc = benchmark_json();
    let declared: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
    assert_eq!(names(&doc, "workloads"), declared);
    for (entry, w) in doc
        .get("workloads")
        .and_then(Value::as_arr)
        .unwrap()
        .iter()
        .zip(&WORKLOADS)
    {
        assert_eq!(entry.get("why").and_then(Value::as_str), Some(w.why));
    }
    assert_eq!(metrics::ALL, declared.as_slice());

    let universal: Vec<&str> = END_TO_END
        .iter()
        .filter(|m| m.on_every_workload())
        .map(|m| m.name)
        .collect();
    assert_eq!(names(&doc, "end_to_end"), universal);
    assert_eq!(
        names(&doc, "per_layer"),
        PER_LAYER.iter().map(|m| m.name).collect::<Vec<_>>()
    );
    assert!(PER_LAYER.len() <= 128);

    for (section, unit_and_better) in [
        (
            "end_to_end",
            END_TO_END
                .iter()
                .map(|m| (m.name, m.unit, m.better.label()))
                .collect::<Vec<_>>(),
        ),
        (
            "per_layer",
            PER_LAYER
                .iter()
                .map(|m| (m.name, m.unit, m.better.label()))
                .collect::<Vec<_>>(),
        ),
    ] {
        for entry in doc.get(section).and_then(Value::as_arr).unwrap() {
            let name = entry.get("name").and_then(Value::as_str).unwrap();
            let (_, unit, better) = unit_and_better.iter().find(|(n, _, _)| *n == name).unwrap();
            assert_eq!(
                entry.get("unit").and_then(Value::as_str),
                Some(*unit),
                "{name}"
            );
            assert_eq!(
                entry.get("better").and_then(Value::as_str),
                Some(*better),
                "{name}"
            );
        }
    }
    // The pipeline's relative bounds are the ledger's own (an exact
    // metric gets a share there: across seeds it is no longer exact).
    for entry in doc.get("end_to_end").and_then(Value::as_arr).unwrap() {
        let name = entry.get("name").and_then(Value::as_str).unwrap();
        let bound = entry.get("bound").and_then(Value::as_f64).unwrap();
        assert!(bound > 0.0 && bound <= 0.25, "{name}");
        match metrics::end_to_end(name).unwrap().bound {
            Bound::Rel(r) | Bound::RelOrAbs(r, _) => assert_eq!(bound, r, "{name}"),
            Bound::Exact => {}
        }
    }
    let setup = doc
        .get("end_to_end")
        .and_then(Value::as_arr)
        .unwrap()
        .iter()
        .find(|m| m.get("name").and_then(Value::as_str) == Some("setup_s"));
    assert_eq!(
        setup.and_then(|m| m.get("unit")).and_then(Value::as_str),
        Some("s")
    );
}

#[test]
fn names_are_well_formed_and_unique_and_every_should_move_resolves() {
    let mut seen = BTreeMap::new();
    for name in END_TO_END
        .iter()
        .map(|m| m.name)
        .chain(PER_LAYER.iter().map(|m| m.name))
        .chain(WORKLOADS.iter().map(|w| w.name))
    {
        assert!(well_formed(name), "{name}");
        assert!(seen.insert(name, ()).is_none(), "{name} is declared twice");
    }
    for m in END_TO_END {
        assert!(!m.workloads.is_empty() && !m.what.is_empty(), "{}", m.name);
        for w in m.workloads {
            assert!(metrics::ALL.contains(w), "{}: unknown workload {w}", m.name);
        }
    }
    for layer in PER_LAYER {
        assert!(
            layer.name.starts_with(layer.layer()) && layer.name.contains('.'),
            "{}",
            layer.name
        );
        for (target, workloads) in layer.moves {
            let e2e = metrics::end_to_end(target)
                .unwrap_or_else(|| panic!("{} should move undeclared metric {target}", layer.name));
            assert!(!workloads.is_empty());
            for w in *workloads {
                assert!(
                    e2e.workloads.contains(w),
                    "{} should move {target} on {w}, where it is not emitted",
                    layer.name
                );
            }
        }
    }
}

#[test]
fn quick_runs_emit_everything_and_repeat_exactly_in_any_order() {
    let forward: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
    let backward: Vec<&str> = forward.iter().rev().copied().collect();

    for trace in [false, true] {
        let extra: &[&str] = if trace { &["--trace"] } else { &[] };
        let (ok_a, a, text) = run(&forward, extra);
        let (ok_b, b, _) = run(&backward, extra);
        assert!(ok_a && ok_b, "quick run failed:\n{text}");
        assert_eq!(a.len(), WORKLOADS.len());
        assert!(text.contains("all output checks hold"));

        for ra in &a {
            assert!(ra.correct() && ra.attempted >= 1 && ra.traced == trace);
            // Everything declared for this workload is there, and nothing else.
            let expected: Vec<&str> = if trace {
                PER_LAYER.iter().map(|m| m.name).collect()
            } else {
                END_TO_END
                    .iter()
                    .filter(|m| m.workloads.contains(&ra.workload.as_str()))
                    .map(|m| m.name)
                    .collect()
            };
            let mut got: Vec<&str> = ra.readings.iter().map(|r| r.name.as_str()).collect();
            let mut want = expected.clone();
            got.sort_unstable();
            want.sort_unstable();
            assert_eq!(got, want, "{}", ra.workload);

            // The pipeline's result line carries exactly the BENCHMARK.json set.
            let line = json::parse(&ra.contract_line()).unwrap();
            let emitted: Vec<&str> = line
                .get("metrics")
                .and_then(Value::as_obj)
                .unwrap()
                .iter()
                .map(|(k, _)| k.as_str())
                .collect();
            let listed = names(
                &benchmark_json(),
                if trace { "per_layer" } else { "end_to_end" },
            );
            assert_eq!(emitted, listed, "{}", ra.workload);
            if !trace {
                for r in &ra.readings {
                    assert!(
                        r.value.is_finite() && r.value != 0.0 || !listed.contains(&r.name),
                        "{} {} is zero",
                        ra.workload,
                        r.name
                    );
                }
            }

            // Simulated-clock values and exact counts agree to the last
            // digit between the two orders; host readings need not.
            let rb = b
                .iter()
                .find(|r| r.workload == ra.workload)
                .expect("same workloads both ways");
            assert_eq!(ra.digest, rb.digest, "{}", ra.workload);
            assert_eq!((ra.attempted, ra.failed), (rb.attempted, rb.failed));
            let mut exact = 0;
            for x in ra.readings.iter().filter(|r| r.clock != "host") {
                let y = rb.reading(&x.name).unwrap();
                assert_eq!(
                    x.value.to_bits(),
                    y.value.to_bits(),
                    "{} {}",
                    ra.workload,
                    x.name
                );
                exact += 1;
            }
            assert!(exact >= 1, "{} has no exact metric", ra.workload);
        }
        if trace {
            for w in &forward {
                let span_file = tsuru_benchmark::run::out_dir_of(std::path::Path::new(LEDGER))
                    .join(format!("trace-{w}.json"));
                let spans =
                    json::parse(&std::fs::read_to_string(&span_file).expect("span file written"))
                        .unwrap();
                assert!(spans
                    .as_arr()
                    .unwrap()
                    .iter()
                    .any(|s| s.get("parent").and_then(Value::as_f64).is_some()));
                assert!(text.contains(&format!("tracing overhead on {w}")));
            }
        }
    }
}

#[test]
fn a_failing_check_makes_the_command_exit_non_zero() {
    let (ok, reports, text) = run(&["demo_dr"], &["--self-test-fail"]);
    assert!(!ok, "exit status must be non-zero:\n{text}");
    assert!(reports.is_empty() || !reports[0].correct());
    // Single-workload mode (what the pipeline runs) behaves the same and
    // still prints its result line.
    let out = Command::new(LEDGER)
        .args([
            "--quick",
            "--workload",
            "demo_dr",
            "--seed",
            "7",
            "--seconds",
            "1",
            "--trace",
            "0",
            "--self-test-fail",
        ])
        .output()
        .unwrap();
    assert!(!out.status.success());
    let stdout = String::from_utf8(out.stdout).unwrap();
    let last = json::parse(stdout.lines().last().unwrap()).unwrap();
    assert_eq!(last.get("correct").and_then(Value::as_bool), Some(false));
}

#[test]
fn agree_compares_two_sets_and_exact_metrics_match() {
    let (ok, _, text) = run(&["metro_burst", "demo_dr"], &["--agree"]);
    assert!(ok, "{text}");
    assert!(
        text.contains("sim_drain_ms")
            && text.contains("sim_rto_ms")
            && text.contains("0 disagreement(s)")
    );
}

#[test]
fn bad_arguments_are_refused() {
    for args in [
        &["--workload", "nope"][..],
        &["--seconds", "0"],
        &["--frobnicate"],
        &["--agree", "--trace"],
    ] {
        let out = Command::new(LEDGER).args(args).output().unwrap();
        assert_eq!(out.status.code(), Some(2), "{args:?}");
    }
}
