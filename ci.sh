#!/usr/bin/env bash
# Offline CI gate for the nemscmos workspace.
#
# Everything runs with --offline: the workspace has no external
# dependencies (see DESIGN.md, "Offline / no-external-deps policy"),
# so a network-less container must be able to build, test, lint, and
# regenerate the paper's figures end to end.
set -euo pipefail
cd "$(dirname "$0")"

echo "== build (release, offline) =="
cargo build --release --offline

echo "== tests (offline) =="
cargo test -q --offline --workspace

echo "== rustfmt =="
cargo fmt --all --check

echo "== clippy (-D warnings, perf lints) =="
cargo clippy --offline --workspace --all-targets -- -D warnings -W clippy::perf

# API docs: any rustdoc warning fails here — a link to a renamed,
# removed or private item, or a redundant explicit link target.
echo "== rustdoc (warnings denied) =="
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps --offline --workspace

# The repository benchmark lives outside the workspace (perfbench/ is a
# workspace of its own), so the workspace build above never compiles
# it: an API change that breaks the benchmark must fail here.
echo "== perfbench (build + tests) =="
cargo build --release --offline --manifest-path perfbench/Cargo.toml
cargo test -q --offline --manifest-path perfbench/Cargo.toml

# The workspace fmt and clippy steps above do not reach perfbench/ either.
echo "== perfbench (rustfmt + clippy) =="
cargo fmt --check --manifest-path perfbench/Cargo.toml
cargo clippy --offline --manifest-path perfbench/Cargo.toml --all-targets -- -D warnings -W clippy::perf

# Golden-reference verification (DESIGN.md §11): oracle/differential/
# snapshot suites, then an explicit snapshot drift check — a solver
# change that moves committed waveforms must re-bless them (--bless)
# and justify the move in review, never slip through.
echo "== verify suites (oracles, differential, goldens) =="
cargo test -q --offline -p nemscmos-verify

echo "== golden snapshot drift check =="
cargo run --release --offline -q -p nemscmos-verify --bin golden

# Fill-reducing ordering smoke (DESIGN.md §15): on generated SRAM /
# domino decks the minimum-degree ordering must never worsen fill,
# both factorization paths must solve to small residual, and a
# transient above the ordering threshold must record the fill and
# ordering attribution counters. The ordered_vs_natural differential
# (run in the verify suites above) proves solution equivalence on the
# golden fleet, and the goldens check pins the incremental fast path
# (DESIGN.md §12) to the committed waveforms byte for byte.
echo "== perfbase ordering scaling smoke =="
cargo run --release --offline -q -p nemscmos-bench --bin perfbase -- --smoke

# SPICE netlist frontend smoke: a textual deck (with a .MODEL alias
# resolved through the standard factory) must run end to end through
# the spicerun binary and print the exact divider operating point.
echo "== spicerun netlist smoke =="
deck=$(mktemp /tmp/nemscmos-smoke-XXXXXX.cir)
cat > "$deck" <<'EOF'
* resistive divider observed by a .MODEL-aliased NMOS
V1 in 0 DC 2.0
R1 in out 1k
R2 out 0 1k
.model pulldown nmos90 W=1u
M1 d out 0 pulldown
R3 in d 10k
.op
EOF
spice_out=$(cargo run --release --offline -q -p nemscmos-bench --bin spicerun -- "$deck")
rm -f "$deck"
echo "$spice_out" | head -n 5
if ! echo "$spice_out" | grep -q 'v(out) = 1.000000 V'; then
    echo "FAIL: spicerun divider operating point wrong" >&2
    exit 1
fi

# Hostile-deck smoke: each deck below once panicked spicerun (a ')'
# before the '(' of a waveform, an E card whose gain overflows to
# infinity) or exhausted memory (exponential .subckt expansion, a .dc
# step too small to move the sweep). Each must now be refused as a
# parse error, exit 1, within the time and address-space limits — never
# a panic (101) or an abort (134).
echo "== spicerun hostile-deck smoke =="
bad_decks=(
    $'V1 a 0 PULSE) (\nR1 a 0 1k\n.op\n'
    $'.subckt a p\nX1 p a\nX2 p a\n.ends\nX0 n a\nR1 n 0 1k\n.op\n'
    $'V1 in 0 DC 1\nR1 in 0 1k\n.dc V1 1 2 1e-20\n'
    $'V1 a 0 DC 1\nE1 b 0 a 0 1e400\nR1 b 0 1k\n.op\n'
)
deck=$(mktemp /tmp/nemscmos-bad-XXXXXX.cir)
for text in "${bad_decks[@]}"; do
    printf '%s' "$text" > "$deck"
    status=0
    bad_out=$( (ulimit -v 1048576; timeout 60 target/release/spicerun "$deck") 2>&1) || status=$?
    if [ "$status" -ne 1 ] || ! echo "$bad_out" | grep -q 'parse error'; then
        echo "FAIL: spicerun exited $status on a hostile deck: $bad_out" >&2
        rm -f "$deck"
        exit 1
    fi
    echo "refused (exit 1): $bad_out"
done
rm -f "$deck"

# Paper-claims conformance: re-measure every claim in
# crates/verify/claims.toml and fail on any regression against the
# paper's accepted bands (scoreboard printed either way).
echo "== paper-claims conformance scoreboard =="
cargo run --release --offline -q -p nemscmos-bench --bin conformance

# Smoke-run the full figure regeneration through the harness cache:
# the first pass populates target/harness-cache, the second pass must
# be served almost entirely from it (ISSUE acceptance: >= 90% hits).
echo "== bench smoke run 1 (cold cache) =="
rm -rf target/harness-cache
cargo run --release --offline -q -p nemscmos-bench --bin all > /dev/null

echo "== bench smoke run 2 (warm cache) =="
out=$(cargo run --release --offline -q -p nemscmos-bench --bin all)
total=$(echo "$out" | grep -oE 'total: [0-9]+ jobs' | grep -oE '[0-9]+' | awk '{s+=$1} END {print s+0}')
cached=$(echo "$out" | grep -oE '\([0-9]+ cached' | grep -oE '[0-9]+' | awk '{s+=$1} END {print s+0}')
echo "cache: $cached/$total jobs served from target/harness-cache"
if [ "$total" -eq 0 ] || [ $((cached * 10)) -lt $((total * 9)) ]; then
    echo "FAIL: warm-cache hit rate below 90%" >&2
    exit 1
fi

# Seeded fault-injection soak: every injected fault must be rescued by
# the retry ladder or surfaced as a typed diagnostic (never a panic,
# never a silently-wrong number), unfaulted jobs must stay bitwise
# identical to the clean baseline, and the failure taxonomy must be
# exercised. Small plan count + fixed seed keeps it a smoke test.
echo "== fault-injection soak (smoke) =="
soak_out=$(cargo run --release --offline -q -p nemscmos-bench --bin soak -- --plans 3 --seed 3405691582)
echo "$soak_out" | tail -n 3
if ! echo "$soak_out" | grep -q "soak OK"; then
    echo "FAIL: fault-injection soak did not pass" >&2
    exit 1
fi
if ! echo "$soak_out" | grep -qE "surfaced typed \[.+\]"; then
    echo "FAIL: soak failure taxonomy is empty" >&2
    exit 1
fi

# Kill/resume smoke: a journaled batch under a tight per-job deadline
# loses its wedged jobs as typed DeadlineExceeded failures (never a
# panic); resuming the same run id must recover every journaled job
# without re-execution and finish bitwise identical to an uninterrupted
# baseline.
echo "== kill/resume smoke =="
resume_out=$(cargo run --release --offline -q -p nemscmos-bench --bin soak -- --resume-smoke)
echo "$resume_out" | tail -n 3
if ! echo "$resume_out" | grep -q "resume smoke OK"; then
    echo "FAIL: kill/resume smoke did not pass" >&2
    exit 1
fi

# Job-server chaos smoke: spawn the real nemscmos-server binary,
# SIGKILL it mid-batch, restart on the same run id, and demand zero
# panics, zero lost acks, bitwise-identical merged results, plus typed
# rejections / watermark degradation / priority shedding / per-client
# quota kills visible both in-band and in the health counters.
echo "== job-server chaos drill (smoke) =="
chaos_out=$(cargo run --release --offline -q -p nemscmos-bench --bin chaos -- --smoke)
echo "$chaos_out" | tail -n 3
if ! echo "$chaos_out" | grep -q "chaos OK"; then
    echo "FAIL: job-server chaos drill did not pass" >&2
    exit 1
fi

echo "== ci OK =="
