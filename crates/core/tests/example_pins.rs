//! The six `examples/` binaries' stdout, pinned: an FNV-1a 64-bit digest of
//! each one's whole stdout. The examples are deterministic end-to-end
//! walks of the system (none reads a clock or writes a file), so a change
//! that moves one simulated byte they print shows here.
//!
//! `cargo test` builds a package's examples next to its test binaries, in
//! `target/<profile>/examples/`. Run alone (`cargo test --test
//! example_pins`), it checks whatever examples the last build left there,
//! so build them first (`cargo build --examples`). A failing run prints
//! its whole table, ready to paste.

use std::path::PathBuf;
use std::process::Command;

/// Each example and the digest of its stdout.
const PINS: [(&str, u64); 6] = [
    ("analytics_on_snapshot", 0x5dae_556a_465d_2926),
    ("disaster_recovery", 0xcbe3_7fe0_98cd_b532),
    ("ecommerce_backup", 0x4b10_8e37_4154_6b8c),
    ("operations", 0x7d61_d306_5d5b_74e2),
    ("quickstart", 0xa163_4018_1bf5_2104),
    ("three_dc", 0xcbe4_f910_ed03_5559),
];

/// FNV-1a, 64-bit.
fn fnv64(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// `target/<profile>/examples/`: this test runs from
/// `target/<profile>/deps/`.
fn examples_dir() -> PathBuf {
    let exe = std::env::current_exe().expect("the test binary has a path");
    let deps = exe.parent().expect("the test binary sits in deps/");
    deps.parent()
        .expect("deps/ sits in the profile directory")
        .join("examples")
}

#[test]
fn every_example_prints_what_it_is_pinned_to() {
    let dir = examples_dir();
    let got: Vec<(&str, u64)> = PINS
        .iter()
        .map(|&(name, _)| {
            let path = dir.join(name);
            let output = Command::new(&path).output().unwrap_or_else(|e| {
                panic!(
                    "running {}: {e} (build the examples: `cargo build --examples`)",
                    path.display()
                )
            });
            assert!(output.status.success(), "{name} failed: {output:?}");
            (name, fnv64(&output.stdout))
        })
        .collect();
    if got != PINS {
        let table: String = got
            .iter()
            .map(|(name, d)| format!("    ({name:?}, 0x{d:016x}),\n"))
            .collect();
        panic!("example stdout moved; the pins now read\n{table}");
    }
}
