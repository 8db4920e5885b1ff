#!/bin/sh
# Configure sanitizer builds and run the tier-1 test suite under them.
# Uses separate build trees so the regular build directory keeps its
# cache. Any sanitizer finding aborts the offending test
# (-fno-sanitize-recover=all), so a green run means a clean suite.
#
# Two passes (TSan cannot be combined with ASan):
#   1. ASan/UBSan over the full tier-1 ctest suite
#   2. ThreadSanitizer over the concurrency-bearing binaries (the
#      portfolio scheduler, the mc facade it replaced, the sharded
#      Houdini prune) - zero races is a hard requirement for the
#      first-winner cancellation protocol.
#
# Usage: tools/check.sh [build-dir]   (default: build-san; the TSan
#        tree is <build-dir>-tsan)
set -eu

repo=$(cd "$(dirname "$0")/.." && pwd)
build=${1:-"$repo/build-san"}
tsan_build="${build}-tsan"
jobs=$(nproc 2>/dev/null || echo 4)

cmake -B "$build" -S "$repo" \
    -DCMAKE_BUILD_TYPE=RelWithDebInfo \
    -DCSL_SANITIZE=address,undefined
cmake --build "$build" -j "$jobs"
# The wall-clock bench smokes (ctest label `bench`) are excluded here:
# their runtime under a sanitizer is dominated by verification runs
# burning their full (real-time) budgets, which tells us nothing the
# plain-build ctest entries don't. resilience_smoke still runs under
# ASan below, without a ctest timeout; the portfolio's concurrency is
# the TSan pass's job.
ctest --test-dir "$build" --output-on-failure -j "$jobs" -LE bench

# The fault-injection matrix exercises the runtime's recovery paths
# (degraded solver, interrupted Houdini, SIGKILL + resume); run it under
# the sanitizers explicitly so those paths stay memory-clean too. It is
# also a ctest entry, but a direct run keeps its output visible and
# fails loudly on its own exit code.
"$build/bench/resilience_smoke"

# Reduction-pipeline gates, explicitly under ASan/UBSan: the randomized
# original-vs-reduced lockstep equivalence suite (the property-based
# soundness argument for every pass), then the --no-reduce vs default
# verdict-identity smoke over the Table-2 cells. The trimmed budget
# absorbs the sanitizer slowdown; a TIMEOUT side downgrades the verdict
# comparison to a warning, but CNF-shrink and depth identity still gate.
"$build/tests/test_transform"
"$build/bench/reduction_bench" --budget 45

# The campaign supervisor's fork/poll/rlimit containment paths, under
# the sanitizers: a crash-injected worker and a SIGKILLed supervisor
# must both leave a campaign that still reports every cell. (The
# RLIMIT_AS unit tests skip themselves in sanitized builds - shadow
# memory and a shrunken address space do not coexist.)
"$build/bench/campaign_smoke"

# --- ThreadSanitizer pass -------------------------------------------------
# Build only the threaded targets (plus their deps) and run the test
# binaries directly: gtest discovery needs no ctest here, and a partial
# build keeps the pass fast.
cmake -B "$tsan_build" -S "$repo" \
    -DCMAKE_BUILD_TYPE=RelWithDebInfo \
    -DCSL_SANITIZE=thread
cmake --build "$tsan_build" -j "$jobs" \
    --target test_portfolio test_mc
TSAN_OPTIONS="halt_on_error=1" "$tsan_build/tests/test_portfolio"
TSAN_OPTIONS="halt_on_error=1" "$tsan_build/tests/test_mc"
