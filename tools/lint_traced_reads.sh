#!/usr/bin/env bash
# Traced-read lint: trial and scenario code must observe machine state
# through the Machine's traced accessors (Machine::contextStats,
# Machine::cacheMisses, Machine::probeLevel, Machine::peek), never by
# reaching into the hierarchy directly. Raw hierarchy reads bypass the
# record/replay trace, so a batched follower replaying a leader's
# trace would read live (wrong) state instead of the memoized value —
# exactly the class of bug the lockstep batching contract forbids.
#
# Config reads (hierarchy().l1().config(), setIndex, numSets, ...)
# are immutable and legitimately read everywhere, so the lint matches
# only the stateful accessors.
#
# Usage: tools/lint_traced_reads.sh  (run from the repo root; exits
# nonzero listing every violation)
set -u

root="$(cd "$(dirname "$0")/.." && pwd)"
cd "$root"

# Directories whose code runs inside trials/scenarios and therefore
# must stay replay-safe. Core simulator internals (src/sim, src/cache,
# src/core) legitimately touch the hierarchy: they implement it.
# examples/ ships copy-paste starting points, so it must model the
# traced idiom too — a raw read there propagates into user code.
# src/attacks runs inside trials (tab_evset, tab_spectreback).
scan_dirs="bench examples src/attacks src/gadgets src/channel src/detect src/timer src/exp src/analysis tests"

# Stateful reads that have traced Machine equivalents.
pattern='hierarchy\(\)\.(contextStats|cacheMisses|probeLevel|peek)\('

violations=$(grep -rnE "$pattern" $scan_dirs --include='*.cc' --include='*.hh' --include='*.cpp' 2>/dev/null)

if [ -n "$violations" ]; then
    echo "traced-read lint: raw hierarchy state reads in trial/scenario code:" >&2
    echo "$violations" >&2
    echo >&2
    echo "Use the traced accessors instead (they replay correctly in" >&2
    echo "batched trials): machine.contextStats(ctx), machine.cacheMisses(level)," >&2
    echo "machine.probeLevel(addr), machine.peek(addr)." >&2
    exit 1
fi

echo "traced-read lint: clean"
