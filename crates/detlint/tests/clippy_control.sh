#!/bin/sh
# Negative control for clippy.toml and [workspace.lints.clippy].
#
# Clippy skips a disallowed path that resolves to nothing without a word,
# so a typo in clippy.toml would switch a rule off and the clippy gate
# would still pass. This script compiles each path rule's fixtures under
# tests/fixtures/<rule>/ with the repository's clippy configuration:
# flagged.rs must be convicted of each disallowed path (or lint) listed
# for it below, and clean.rs and waived.rs (a reasoned `#[allow]`) must
# draw nothing. Every path clippy.toml disallows must be listed here,
# except the `rand` entries, which stay dormant while no workspace crate
# depends on `rand`. The call-graph rules' fixtures are detlint's own
# (tests/rules.rs).
#
#   sh crates/detlint/tests/clippy_control.sh      # from anywhere; exit 1 on a miss
set -eu

here=$(cd "$(dirname "$0")" && pwd)
root=$(cd "$here/../../.." && pwd)
out=$(mktemp -d)
trap 'rm -rf "$out"' EXIT

# The levels every member takes from [workspace.lints.clippy]; the
# disallowed_* lints warn by default.
levels=$(awk '/^\[/ { on = ($0 == "[workspace.lints.clippy]"); next }
              on && /=/ { gsub(/[ "]/, ""); split($0, kv, "=")
                          printf "%s clippy::%s ", (kv[2] == "deny" ? "-D" : "-W"), kv[1] }' \
         "$root/Cargo.toml")

lint() { # fixture, then extra flags
    file=$1
    shift
    # shellcheck disable=SC2086 # $levels is a flag list
    CLIPPY_CONF_DIR="$root" clippy-driver --edition 2021 --crate-type lib \
        --emit=metadata --out-dir "$out" $levels "$@" "$file" 2> "$out/diagnostics"
}

status=0
listed=""
# check RULE EXPECTED... — each EXPECTED is `method:PATH`, `type:PATH` or
# `lint:NAME`, something flagged.rs must be convicted of.
check() {
    rule=$1
    shift
    dir=$here/fixtures/$rule
    lint "$dir/flagged.rs" --error-format=json || true
    for want in "$@"; do
        kind=${want%%:*}
        what=${want#*:}
        case $kind in
        lint) needle="\"code\":\"clippy::$what\"" ;;
        *)
            needle="use of a disallowed $kind \`$what\`"
            listed="$listed $what"
            ;;
        esac
        if ! grep -qF "$needle" "$out/diagnostics"; then
            echo "$rule/flagged.rs: not convicted of $want"
            status=1
        fi
    done
    for kind in clean waived; do
        if [ -f "$dir/$kind.rs" ] && ! lint "$dir/$kind.rs" -D warnings; then
            echo "$rule/$kind.rs: expected no diagnostics, got:"
            cat "$out/diagnostics"
            status=1
        fi
    done
}

check wall_clock method:std::time::Instant::now method:std::time::SystemTime::now \
    type:std::time::SystemTime
check ambient_rng type:std::hash::RandomState
check hash_collections type:std::collections::HashMap type:std::collections::HashSet
check thread_spawn method:std::thread::spawn method:std::thread::scope \
    method:std::thread::Builder::spawn
check unsafe_safety lint:undocumented_unsafe_blocks
check allow_reason lint:allow_attributes_without_reason

for path in $(sed -n 's/.*path = "\([^"]*\)".*/\1/p' "$root/clippy.toml"); do
    case " $listed " in
    *" $path "*) ;;
    *)
        case $path in
        rand::*) echo "dormant: $path (no workspace crate depends on rand)" ;;
        *)
            echo "clippy.toml disallows $path, but no fixture here is convicted of it"
            status=1
            ;;
        esac
        ;;
    esac
done

if [ "$status" -eq 0 ]; then
    echo "clippy convicts every flagged fixture and passes every clean and waived one"
fi
exit "$status"
