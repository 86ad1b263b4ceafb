#!/bin/sh
# Runs the registry matrix through the ebound CLI and writes, for each
# command, its report tree, stdout, stderr and exit code under OUT/<case>/,
# so that two checkouts can be compared with one `diff -r`:
#
#   tools/registry_matrix.sh OUT [CHECKOUT]
#
#   tools/registry_matrix.sh /tmp/change
#   tools/registry_matrix.sh /tmp/parent ../parent-checkout
#   diff -r /tmp/parent /tmp/change
#   tools/registry_matrix_diff.py /tmp/parent /tmp/change --rtol 1e-9
#
# The last one compares the trees number by number, so rounding differences
# up to --rtol pass (see the script's docstring).
#
# CHECKOUT (default: the one holding this script) is the tree whose src/ is
# run; the custom configs always come from tools/registry_matrix/ beside this
# script.  The commands: `list`; every registry experiment but custom with
# no seed and with --seed 0, 1 and 2; noncompact --x-range=-5..-40 --y 1; and
# custom on each tools/registry_matrix/*.json with no seed and seeds 0, 1, 2.
# The checkout's path is replaced by CHECKOUT in stderr (warnings, tracebacks).
set -u
[ $# -ge 1 ] || { echo "usage: $0 OUT [CHECKOUT]" >&2; exit 2; }
here=$(cd "$(dirname "$0")" && pwd)
checkout=$(cd "${2:-$here/..}" && pwd)
out=$1
mkdir -p "$out"

ebound() {  # ebound CASE ARGS...: one CLI command, recorded under OUT/CASE
    dir=$out/$1
    shift
    mkdir -p "$dir"
    PYTHONPATH="$checkout/src" python3 -m ebound.cli "$@" >"$dir/stdout" 2>"$dir/stderr.raw"
    echo $? >"$dir/exit"
    sed "s#$checkout#CHECKOUT#g" "$dir/stderr.raw" >"$dir/stderr"
    rm "$dir/stderr.raw"
}

ebound list list
for name in $(cat "$out/list/stdout"); do
    [ "$name" = custom ] && continue
    ebound "$name" run "$name" --out "$out/$name/reports"
    for seed in 0 1 2; do
        ebound "$name-seed$seed" run "$name" --seed $seed --out "$out/$name-seed$seed/reports"
    done
done
ebound noncompact-ray run noncompact --x-range=-5..-40 --y 1 --out "$out/noncompact-ray/reports"
for config in "$here"/registry_matrix/*.json; do
    case=custom-$(basename "$config" .json)
    ebound "$case" run custom --config "$config" --out "$out/$case/reports"
    for seed in 0 1 2; do
        ebound "$case-seed$seed" run custom --config "$config" --seed $seed \
            --out "$out/$case-seed$seed/reports"
    done
done
