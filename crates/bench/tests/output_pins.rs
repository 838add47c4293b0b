//! Every `repro` output, pinned: each `== … ==` section of stdout and each
//! file a run writes (`--csv` tables, `--trace` / `--history` / `--alerts`
//! exports) has an FNV-1a 64-bit digest in the table below, at
//! `--threads 1` and at `--threads 2`. The `[harness]` lines carry the host
//! clock and are dropped before hashing.
//!
//! A change that means to move a simulated byte edits the pins it moves,
//! in plain sight; a failing run prints its whole table, ready to paste.
//! E12's default sweep (up to 10 000 tenants) takes minutes in a debug
//! build, so its pins are `#[ignore]`d here and checked in the optimized CI
//! run (`--include-ignored`); a 100- and 1 000-tenant sweep runs with the
//! other opt-ins.

use std::path::{Path, PathBuf};
use std::process::Command;

/// One pinned output: the run it comes from, the section header (or the
/// file's path relative to the run's directory), and its digest.
type Pin = (&'static str, &'static str, u64);

/// FNV-1a, 64-bit.
fn fnv64(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// Digest of each stdout section: the banner before the first `== `
/// header, then one per header. `[harness]` lines are skipped.
fn section_digests(stdout: &str) -> Vec<(String, u64)> {
    let mut sections: Vec<(String, String)> = vec![("banner".into(), String::new())];
    for line in stdout.lines().filter(|l| !l.starts_with("[harness]")) {
        if line.starts_with("== ") {
            sections.push((line.to_string(), String::new()));
        }
        let body = &mut sections.last_mut().expect("the banner is always there").1;
        body.push_str(line);
        body.push('\n');
    }
    sections
        .into_iter()
        .map(|(name, body)| (name, fnv64(body.as_bytes())))
        .collect()
}

/// Digest of every file under `dir`, keyed by its path relative to `root`,
/// in path order.
fn file_digests(root: &Path, dir: &Path, out: &mut Vec<(String, u64)>) {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return;
    };
    let mut paths: Vec<PathBuf> = entries.map(|e| e.expect("readable entry").path()).collect();
    paths.sort();
    for path in paths {
        if path.is_dir() {
            file_digests(root, &path, out);
        } else {
            let bytes = std::fs::read(&path).expect("readable export");
            let name = path.strip_prefix(root).expect("under the run directory");
            out.push((name.display().to_string(), fnv64(&bytes)));
        }
    }
}

/// Run `repro ARGS --csv --threads N` in a fresh directory, so every
/// relative export path it prints and writes is the same at any thread
/// count, and digest what it printed and wrote.
fn digests(run: &str, args: &[&str], threads: u32) -> Vec<(String, u64)> {
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR"))
        .join("output_pins")
        .join(format!("{run}-t{threads}"));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("fresh run directory");
    let output = Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(args)
        .args(["--csv", "--threads", &threads.to_string()])
        .current_dir(&dir)
        .output()
        .expect("the built repro binary runs");
    assert!(output.status.success(), "repro {args:?} failed: {output:?}");
    let stdout = String::from_utf8(output.stdout).expect("utf-8 stdout");
    let mut all = section_digests(&stdout);
    file_digests(&dir, &dir, &mut all);
    all
}

/// Check one run at `threads` against its pins; on a mismatch, fail with
/// the run's whole table.
fn check(run: &str, args: &[&str], threads: u32) {
    let got = digests(run, args, threads);
    let want: Vec<(String, u64)> = PINS
        .iter()
        .filter(|(r, _, _)| *r == run)
        .map(|&(_, name, d)| (name.to_string(), d))
        .collect();
    if got != want {
        let table: String = got
            .iter()
            .map(|(name, d)| format!("    ({run:?}, {name:?}, 0x{d:016x}),\n"))
            .collect();
        panic!("repro {args:?} --threads {threads}: outputs moved; its pins now read\n{table}");
    }
}

/// The runs: the name their pins go by, and the arguments.
const DEFAULT_SET: (&str, &[&str]) = ("default", &["--trace", "out"]);
const OPT_INS: [(&str, &[&str]); 6] = [
    ("chaos", &["chaos", "--trace", "out"]),
    ("trace", &["trace", "--trace", "out"]),
    ("history", &["history", "--history", "out"]),
    ("e10", &["e10"]),
    ("e11", &["e11", "--alerts", "out"]),
    ("e12-small", &["e12", "--tenants", "100,1000"]),
];
const E12: (&str, &[&str]) = ("e12", &["e12"]);

#[test]
fn default_set_matches_its_pins_at_one_thread() {
    check(DEFAULT_SET.0, DEFAULT_SET.1, 1);
}

#[test]
fn default_set_matches_its_pins_at_two_threads() {
    check(DEFAULT_SET.0, DEFAULT_SET.1, 2);
}

#[test]
fn opt_ins_match_their_pins_at_one_thread() {
    for (run, args) in OPT_INS {
        check(run, args, 1);
    }
}

#[test]
fn opt_ins_match_their_pins_at_two_threads() {
    for (run, args) in OPT_INS {
        check(run, args, 2);
    }
}

#[test]
#[ignore = "minutes in a debug build; CI runs it optimized"]
fn e12_matches_its_pins_at_both_thread_counts() {
    check(E12.0, E12.1, 1);
    check(E12.0, E12.1, 2);
}

#[test]
fn digests_split_sections_and_skip_the_harness() {
    assert_eq!(fnv64(b""), 0xcbf2_9ce4_8422_2325);
    assert_eq!(fnv64(b"a"), 0xaf63_dc4c_8601_ec8c);
    let a = section_digests("Banner\n\n== A ==\nrow\n[harness] wall=1.0s\n== B ==\n");
    let b = section_digests("Banner\n\n[harness] wall=2.0s\n== A ==\nrow\n== B ==\n");
    assert_eq!(a, b);
    let names: Vec<&str> = a.iter().map(|(n, _)| n.as_str()).collect();
    assert_eq!(names, ["banner", "== A ==", "== B =="]);
    assert_eq!(a[1].1, fnv64(b"== A ==\nrow\n"));
}

/// The pins, per run in output order: stdout sections, then files.
const PINS: &[Pin] = &[
    ("default", "banner", 0x731d2b8a71e5bb7e),
    (
        "default",
        "== E1: no system slowdown (claim C1) — latency/throughput vs backup mode ==",
        0x4e3b35ed6bcf5485,
    ),
    (
        "default",
        "== E2: backup collapse (claims C2/C3) — consistency group vs naive ADC ==",
        0xe131e36b7209493f,
    ),
    (
        "default",
        "== E3: recovery point vs link bandwidth and journal capacity (§III-A1) ==",
        0x107530e068bbff57,
    ),
    (
        "default",
        "== E4: snapshot groups make backup data usable (§III-A2, Figs. 5–6) ==",
        0x7b09e25f07e43704,
    ),
    (
        "default",
        "== E5: namespace-operator automation (§III-B1, Figs. 3–4) ==",
        0x77aa8c6f8fb1db9f,
    ),
    (
        "default",
        "== E6: the full demonstration (§IV) — three steps + disaster drill ==",
        0x389acca452899a94,
    ),
    (
        "default",
        "== E7 (extension): three-data-centre — metro SDC + WAN ADC combined ==",
        0xa6c1ce3d6748f3e4,
    ),
    (
        "default",
        "== A1 (ablation): backup lag vs transfer-pump parameters ==",
        0x1d10f7b7f81d88d2,
    ),
    (
        "default",
        "== A2 (ablation): journal-full policy — Block vs Suspend ==",
        0x73c81c3c759f4380,
    ),
    ("default", "out/trace_rig.chrome.json", 0x7ce12669a76d7ee6),
    ("default", "out/trace_rig.jsonl", 0xf733adf6d257b53d),
    ("default", "repro_out/a1.csv", 0xe2266f6f197e2935),
    ("default", "repro_out/a2.csv", 0x702eb71357e366c6),
    ("default", "repro_out/e1.csv", 0x389cbdbed06a5c42),
    ("default", "repro_out/e1_loaded.csv", 0x148e1eba8f5ea5ef),
    ("default", "repro_out/e2.csv", 0xbcf52fa62cbf9db0),
    ("default", "repro_out/e3.csv", 0xe7c6509cd8eb5f1b),
    ("default", "repro_out/e4.csv", 0x576cd4fe67a66932),
    ("default", "repro_out/e5.csv", 0xbbf27fd0ad253447),
    ("default", "repro_out/e7.csv", 0x8ec6e62613b2b693),
    ("chaos", "banner", 0x731d2b8a71e5bb7e),
    (
        "chaos",
        "== E8 (extension): deterministic chaos sweep — CG vs naive under fault ==",
        0x4d36fea35a0a67ef,
    ),
    ("chaos", "out/trace_t0_cg.chrome.json", 0xd187c26bfca21f51),
    ("chaos", "out/trace_t0_cg.jsonl", 0x305ac49f4d1b6daa),
    ("chaos", "repro_out/chaos.csv", 0xa53f459d85d9e72f),
    ("trace", "banner", 0x731d2b8a71e5bb7e),
    (
        "trace",
        "== trace: traced chaos trials — causal write-lifecycle spans ==",
        0x93766b5099b48bd7,
    ),
    ("trace", "out/trace_t0_cg.chrome.json", 0xd187c26bfca21f51),
    ("trace", "out/trace_t0_cg.jsonl", 0x305ac49f4d1b6daa),
    ("trace", "out/trace_t1_cg.chrome.json", 0x6b9402f7f22cb3d9),
    ("trace", "out/trace_t1_cg.jsonl", 0xae7a0a35bb0ae347),
    ("history", "banner", 0x731d2b8a71e5bb7e),
    (
        "history",
        "== E9 (extension): workload-diversity history sweep — client-visible oracle ==",
        0xb9afef8386f9394c,
    ),
    (
        "history",
        "out/history_t0_append-list_cg.jsonl",
        0x1e08ac9da7ce23f4,
    ),
    (
        "history",
        "out/history_t0_append-list_naive.jsonl",
        0x1e08ac9da7ce23f4,
    ),
    (
        "history",
        "out/history_t0_bank_cg.jsonl",
        0x288469bdc85c72bf,
    ),
    (
        "history",
        "out/history_t0_bank_naive.jsonl",
        0x8e9dcd8863ec3b66,
    ),
    (
        "history",
        "out/history_t0_ecom_cg.jsonl",
        0xcfbb8a21346e8700,
    ),
    (
        "history",
        "out/history_t0_ecom_naive.jsonl",
        0xc9a31348094b2f21,
    ),
    (
        "history",
        "out/history_t1_append-list_cg.jsonl",
        0x649f0063c2b87bc3,
    ),
    (
        "history",
        "out/history_t1_append-list_naive.jsonl",
        0x649f0063c2b87bc3,
    ),
    (
        "history",
        "out/history_t1_bank_cg.jsonl",
        0xbe38ee575f1164f9,
    ),
    (
        "history",
        "out/history_t1_bank_naive.jsonl",
        0x786cc9cedc9ecab4,
    ),
    (
        "history",
        "out/history_t1_ecom_cg.jsonl",
        0x69ba88ff48d0c111,
    ),
    (
        "history",
        "out/history_t1_ecom_naive.jsonl",
        0x1db9b562927f711c,
    ),
    (
        "history",
        "out/history_t2_append-list_cg.jsonl",
        0xe5d60d5e06eaed59,
    ),
    (
        "history",
        "out/history_t2_append-list_naive.jsonl",
        0xe5d60d5e06eaed59,
    ),
    (
        "history",
        "out/history_t2_bank_cg.jsonl",
        0x89ab4384a2a37c1f,
    ),
    (
        "history",
        "out/history_t2_bank_naive.jsonl",
        0x01f17c28eec3b95f,
    ),
    (
        "history",
        "out/history_t2_ecom_cg.jsonl",
        0xc8915c10ecb5c9d0,
    ),
    (
        "history",
        "out/history_t2_ecom_naive.jsonl",
        0xaffb5dfc216ce285,
    ),
    ("history", "repro_out/history.csv", 0xdb0da224f9d11974),
    ("e10", "banner", 0x731d2b8a71e5bb7e),
    (
        "e10",
        "== E10 (extension): self-healing convergence — fault plans x recovery policies ==",
        0x32e7eda17d37134b,
    ),
    ("e10", "repro_out/e10.csv", 0xc311535fd35084bc),
    ("e11", "banner", 0x731d2b8a71e5bb7e),
    (
        "e11",
        "== E11 (extension): SLO alerting vs injected ground truth — plans x profiles ==",
        0xd4c74c70362713e7,
    ),
    ("e11", "out/incidents_t0_default.jsonl", 0x2976c73e5fc058b8),
    ("e11", "out/incidents_t0_lenient.jsonl", 0xeec6ace4d8c4b4a5),
    ("e11", "out/incidents_t0_tight.jsonl", 0xee2e0c33b1c7e262),
    ("e11", "out/incidents_t1_default.jsonl", 0xb1f1d0ee518b0e63),
    ("e11", "out/incidents_t1_lenient.jsonl", 0xfe8fb008cc628bfa),
    ("e11", "out/incidents_t1_tight.jsonl", 0xeeaf3f35202993f9),
    ("e11", "out/incidents_t2_default.jsonl", 0xd40e8bae2d04efe4),
    ("e11", "out/incidents_t2_lenient.jsonl", 0x3aa7f41661698801),
    ("e11", "out/incidents_t2_tight.jsonl", 0x83f15f959f09d019),
    ("e11", "repro_out/e11.csv", 0xc0b67ed7ff0ae302),
    ("e12-small", "banner", 0x731d2b8a71e5bb7e),
    (
        "e12-small",
        "== E12 (extension): metro-scale tenant scaling — sharded StorageWorld ==",
        0xcec7359d99dfe216,
    ),
    ("e12-small", "repro_out/e12.csv", 0x980ee525c0e1d90b),
    ("e12", "banner", 0x731d2b8a71e5bb7e),
    (
        "e12",
        "== E12 (extension): metro-scale tenant scaling — sharded StorageWorld ==",
        0xb5bd7b6bc00947e3,
    ),
    ("e12", "repro_out/e12.csv", 0x06837a79253dfd6f),
];
