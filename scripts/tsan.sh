#!/usr/bin/env bash
# Runs the minispark test suite under ThreadSanitizer.
#
# The executor's workers share one claim lock per stage: a worker takes it to
# hand in its last result and claim the next task, and runs the task outside
# it. Besides that lock, TSan watches the engine's atomics — the stats
# counters and the spill counters — and every other mutex and thread scope.
# It is the tool that would catch a regression there, e.g. a task result
# handed over outside the claim lock, or a mutex replaced with an
# insufficiently-ordered atomic.
#
# Requires a nightly toolchain with the rust-src component
# (`rustup toolchain install nightly --component rust-src`), because
# `-Zsanitizer=thread` must rebuild std with instrumentation (`-Zbuild-std`).
#
# Usage: scripts/tsan.sh [extra cargo test args...]
set -euo pipefail

cd "$(dirname "$0")/.."

HOST_TARGET=$(rustc +nightly -vV | sed -n 's/^host: //p')

# TSAN_OPTIONS: the executor intentionally leaks nothing, but libtest's
# harness threads can outlive the leak checker; keep the signal focused on
# races.
export TSAN_OPTIONS="halt_on_error=1"
export RUSTFLAGS="-Zsanitizer=thread"

# Arm the scheduler's yield points (executor claim, shuffle flush, spill
# runs, kernel group boundaries) with a plain thread::yield_now so TSan
# sees denser interleavings at exactly the boundaries that matter.
export MINISPARK_YIELD=1

exec cargo +nightly test -p minispark \
    -Zbuild-std \
    --target "$HOST_TARGET" \
    "$@"
