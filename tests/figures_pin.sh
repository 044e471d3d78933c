#!/bin/sh
# Holds the paper's figures at `paper_claims`' sample count (500) to the
# golden files in tests/golden/figures/, as the release `figures` binary
# prints them with `--json`:
#
#   cargo build --release -p teemon-bench --bin figures
#   sh tests/figures_pin.sh target/release/figures
#
# * Figures 6-11 are held byte for byte (`fig8` prints Figures 8 and 9).
# * Figure 5 is held row by row, keyed by (app, configuration): each of the
#   nine rows of fig5.rows must be printed once and unchanged; rows for a
#   configuration it does not name may be added beside them.
# * Figure 4 is not held: beside the paper stack's frozen reference rows it
#   prints a timed run of teemon's own stack, whose CPU figures vary.
#
# A change that is meant to alter a figure regenerates the files from the
# binary's output (fig5.rows through `rows` below) and says so.
set -eu

bin=$1
golden=$(dirname "$0")/golden/figures
samples=500
status=0

for fig in fig6 fig7 fig8 fig10 fig11; do
    if ! "$bin" "$fig" --samples "$samples" --json | diff -u "$golden/$fig.json" -; then
        echo "figures_pin: $fig changed" >&2
        status=1
    fi
done

# One line per row: the lines of each pretty-printed object joined.
rows() {
    awk '/^  \{$/ { row = "" }
         /^    / { sub(/^ +/, ""); row = row $0 }
         /^  \},?$/ { print "{" row "}" }'
}

now=$("$bin" fig5 --samples "$samples" --json | rows)
pinned=0
while IFS= read -r row; do
    pinned=$((pinned + 1))
    key=${row%%\"throughput_iops\"*}
    count=$(printf '%s\n' "$now" | grep -cF -- "$key" || true)
    if [ "$count" -ne 1 ] || ! printf '%s\n' "$now" | grep -qxF -- "$row"; then
        echo "figures_pin: Figure 5 row changed, missing or repeated: $row" >&2
        status=1
    fi
done < "$golden/fig5.rows"
if [ "$pinned" -ne 9 ]; then
    echo "figures_pin: fig5.rows holds $pinned rows, not 3 apps x 3 configurations" >&2
    status=1
fi

exit "$status"
