#!/usr/bin/env bash
# escapecheck.sh — escape-analysis guardrail for the streaming hot path.
#
# The streaming pipeline's zero-alloc claim rests on the compiler keeping
# per-request state on the stack or in pooled scratch. This script compiles
# the three pipeline packages with -gcflags=-m and fails if any heap escape
# appears in the streaming hot-path files (and the cached exponential draw's
# file, mechanism/cdf.go) beyond the known-benign allowlist:
#
#   - pool New constructors (&T{} / func literal): run once per pool miss,
#     not per request;
#   - the cached exponential CDF's constructor (Exponential.SparseCDF):
#     runs once per cache miss, and the entry it builds serves every hit;
#   - error-path boxing (fmt.Errorf arguments): requests that fail
#     validation may allocate;
#   - intentional O(k) result slices of the top-k entry points and the
#     cold Stats()/grow paths.
#
# Anything else — an accidental closure over a loop variable, a scorer
# that stopped fitting its pool, an interface conversion on the per-entry
# path — shows up as a new line and fails CI.
#
# Usage: escapecheck.sh [-v]
#   -v  print every hot-path escape line along with the name of the
#       allowlist rule that waived it (or NEW for unmatched lines).
set -euo pipefail
cd "$(dirname "$0")/.."

verbose=0
while getopts 'v' opt; do
    case "$opt" in
    v) verbose=1 ;;
    *)
        echo "usage: $0 [-v]" >&2
        exit 2
        ;;
    esac
done

HOT_FILES='internal/(stream/(stream|pool)|utility/stream|mechanism/(stream|heap|cdf))\.go'

# The allowlist is a list of "name<TAB>regexp" rules so that -v can report
# which rule matched a given escape line. Order matters only for -v
# attribution (first match wins); any match waives the line.
ALLOW_RULES=(
    $'pool-constructor\t&(Slice|accScorer|degreeScorer|peelScratch)\\{(\\.\\.\\.)?\\} escapes|&stream\\.Pool\\[.* escapes|func literal escapes'
    $'cdf-constructor\tmechanism/cdf\\.go:[0-9:]+ (&SparseCDF\\{\\.\\.\\.\\}|make\\(\\[\\]float64, 0, .*\\)) escapes'
    $'cold-result-slice\tmake\\(\\[\\](PoolStat|topEntry|StreamPick|uint64|int|float64)'
    $'errorpath-boxing\t: (out|nnz|n|k|s\\.Base\\.Name\\(\\)) escapes'
    $'stats-receiver\tmoved to heap: s$'
)

# Guard against the checked files being renamed out from under the regexp:
# a HOT_FILES pattern that matches nothing silently turns the whole script
# into a no-op "pass". Demand at least one tracked file still matches.
hot_matches=$(git ls-files 'internal/*.go' | grep -cE "$HOT_FILES" || true)
if [ "$hot_matches" -eq 0 ]; then
    echo "escapecheck: FATAL — HOT_FILES pattern matches zero tracked files;" >&2
    echo "  the streaming hot-path files were renamed or removed. Update" >&2
    echo "  HOT_FILES in scripts/escapecheck.sh instead of letting the" >&2
    echo "  guardrail rot into a no-op." >&2
    exit 1
fi

# match_rule LINE — echoes the name of the first allowlist rule matching
# LINE, or nothing if no rule matches.
match_rule() {
    local line=$1 name re
    for rule in "${ALLOW_RULES[@]}"; do
        name=${rule%%$'\t'*}
        re=${rule#*$'\t'}
        if printf '%s\n' "$line" | grep -qE "$re"; then
            printf '%s' "$name"
            return 0
        fi
    done
    return 1
}

fail=0
for pkg in ./internal/stream ./internal/utility ./internal/mechanism; do
    # -m output goes to stderr; forcing a rebuild keeps cached builds from
    # suppressing it.
    escapes=$(go build -a -gcflags='-m' "$pkg" 2>&1 |
        grep -E 'escapes to heap|moved to heap' |
        grep -E "$HOT_FILES" || true)
    new=''
    while IFS= read -r line; do
        [ -z "$line" ] && continue
        if rule=$(match_rule "$line"); then
            if [ "$verbose" -eq 1 ]; then
                printf 'escapecheck: allow[%s] %s\n' "$rule" "$line"
            fi
        else
            if [ "$verbose" -eq 1 ]; then
                printf 'escapecheck: NEW %s\n' "$line"
            fi
            new+="$line"$'\n'
        fi
    done <<<"$escapes"
    if [ -n "$new" ]; then
        echo "escapecheck: new heap escapes in $pkg streaming hot path:" >&2
        printf '%s' "$new" >&2
        fail=1
    fi
done
if [ "$fail" -ne 0 ]; then
    echo "escapecheck: FAIL — either restore stack allocation or, if the escape is genuinely benign, extend the allowlist in scripts/escapecheck.sh" >&2
    exit 1
fi
echo "escapecheck: streaming hot paths clean"
