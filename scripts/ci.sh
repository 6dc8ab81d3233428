#!/usr/bin/env bash
# Repo CI gate: formatting, lints, and the tier-1 verify command.
#
# Everything runs offline — external dependencies resolve to the
# API-subset stand-ins under vendor/ (see DESIGN.md §7).
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== cargo fmt --check"
cargo fmt --all --check

echo "== cargo clippy (workspace, all targets, warnings are errors)"
cargo clippy --workspace --all-targets -- -D warnings

echo "== cargo doc (workspace, no deps, rustdoc warnings are errors)"
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps --workspace --quiet

# perfbench/ is its own Cargo workspace, so the workspace-wide gates
# above never see it; an API change in ptb-serve or ptb-cluster must not
# silently break the benchmark.
echo "== perfbench: fmt, clippy, release build"
cargo fmt --check --manifest-path perfbench/Cargo.toml
cargo clippy --manifest-path perfbench/Cargo.toml --all-targets -- -D warnings
cargo build --release --manifest-path perfbench/Cargo.toml

echo "== tier-1: cargo build --release && cargo test -q"
cargo build --release
cargo test -q

# The root package is also a workspace member, so the plain build above
# compiles only it; the stages below run the other crates' binaries.
echo "== release binaries (whole workspace)"
cargo build --release --workspace

echo "== full workspace test suite"
cargo test --workspace -q

echo "== structured fuzz (time-boxed; exit nonzero on any panic or audit finding)"
./target/release/fuzz_pipeline --seconds 20

echo "== audited sweep (PTB_VERIFY=sample over the three workloads, zero findings)"
PTB_QUICK=1 ./target/release/verify_sweep --level sample

echo "== serial-reference oracle (PTB_VERIFY=full gates the bit-parallel kernel)"
PTB_QUICK=1 PTB_VERIFY=full ./target/release/verify_sweep --level full

echo "== bench smoke (bit-parallel kernel path must actually be exercised)"
# The binary asserts word_kernel_calls() advanced and that the scalar
# reference, word-serial, and word-threaded reports are bit-identical;
# PTB_BENCH_OUT keeps the checked-in full-fidelity recording untouched.
BENCH_TMP="$(mktemp)"
PTB_QUICK=1 PTB_BENCH_OUT="$BENCH_TMP" ./target/release/bench_sim_parallel
rm -f "$BENCH_TMP"

echo "== injected corruption must be caught (cache_load_flip + --expect-findings)"
ROOT="$(pwd)"
CACHE_TMP="$(mktemp -d)"
# Warm a disk cache, then replay the same sweep with every disk load
# delivering one flipped bit: the audit must report findings (the flag
# inverts the exit code, so a silent pass fails CI).
(cd "$CACHE_TMP" && PTB_QUICK=1 PTB_CACHE=disk \
    "$ROOT/target/release/verify_sweep" --level off >/dev/null)
(cd "$CACHE_TMP" && PTB_QUICK=1 PTB_CACHE=disk PTB_FAILPOINTS="cache_load_flip=err" \
    "$ROOT/target/release/verify_sweep" --level sample --expect-findings >/dev/null)
rm -rf "$CACHE_TMP"

echo "== ptb-serve smoke (ephemeral port, ptb-load --smoke, clean shutdown)"
PORT_FILE="$(mktemp)"
trap 'rm -f "$PORT_FILE"' EXIT
PTB_VERIFY=sample \
    ./target/release/ptb-serve --addr 127.0.0.1:0 --workers 2 --job-dir off --port-file "$PORT_FILE" &
SERVE_PID=$!
for _ in $(seq 1 100); do
    [ -s "$PORT_FILE" ] && break
    sleep 0.1
done
[ -s "$PORT_FILE" ] || { echo "ptb-serve never wrote its port"; kill "$SERVE_PID" 2>/dev/null; exit 1; }
PORT="$(cat "$PORT_FILE")"
./target/release/ptb-load --addr "127.0.0.1:$PORT" --smoke

echo "== cross-codec check (JSON vs PTBW1 over one kept-alive connection, bit-identical)"
./target/release/ptb-load --addr "127.0.0.1:$PORT" --xcheck

echo "== chaos load (dropped/short-written connections must converge via retries)"
# ptb-load --chaos also asserts the daemon's audit_mismatches stayed 0.
./target/release/ptb-load --addr "127.0.0.1:$PORT" --requests 8 --concurrency 2 --chaos
# Same contract through the binary codec on kept-alive connections,
# with checksum-corrupted PTBW1 frames among the injected disruptions.
./target/release/ptb-load --addr "127.0.0.1:$PORT" --requests 8 --concurrency 2 \
    --codec bin --keepalive --chaos
./target/release/ptb-load --addr "127.0.0.1:$PORT" --shutdown
wait "$SERVE_PID"

# The fleet and fault drills (cluster sweeps and worker kills, saturation,
# the governance soak, coordinator failover and fencing, crash recovery)
# are integration tests under crates/ptb-cluster/tests/, run by the
# workspace test stages.

echo "== release tests with debug assertions (overflow checks on the hot paths)"
# A separate target dir keeps the main release artifacts (used by the
# stages above) untouched.
RUSTFLAGS="-C debug-assertions" CARGO_TARGET_DIR=target/debug-assert \
    cargo test -q --release --workspace

echo "CI gate passed."
