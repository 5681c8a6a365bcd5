#!/bin/sh
# A/A test: two full runs of the same commit must agree within the
# benchmark's own bounds. Fails if `compare` finds a metric worse, a higher
# failed share, an unresolved metric or a differing sim_digest. Extra
# arguments go to both runs (e.g. --quick, --seed 2).
set -eu
cd "$(dirname "$0")/.."
bench() {
    cargo run --release --offline --quiet --manifest-path benchmark/Cargo.toml -- "$@"
}
bench run --out benchmark/results/selfcheck-a.json "$@"
bench run --out benchmark/results/selfcheck-b.json "$@"
table=$(bench compare benchmark/results/selfcheck-a.json benchmark/results/selfcheck-b.json) || {
    echo "$table"
    echo "selfcheck: FAILED (regression between two runs of one commit)"
    exit 1
}
echo "$table"
if echo "$table" | grep -Eq 'unresolved|sim_digest different'; then
    echo "selfcheck: FAILED (unresolved metric or differing digest)"
    exit 1
fi
echo "selfcheck: ok"
