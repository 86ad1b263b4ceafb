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
# run; the command list (`list`, then what `tools/registry_matrix.py
# commands` prints for the names it lists) and the custom configs always come
# from beside this script.  The checkout's path is replaced by CHECKOUT in
# stderr (warnings, tracebacks).  tools/registry_matrix_digest.json holds the
# sha256 of every file this writes for this checkout; tier-1 checks it.
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
    PYTHONPATH="$checkout/src" python3 -m ebound.cli "$@" </dev/null >"$dir/stdout" 2>"$dir/stderr.raw"
    echo $? >"$dir/exit"
    sed "s#$checkout#CHECKOUT#g" "$dir/stderr.raw" >"$dir/stderr"
    rm "$dir/stderr.raw"
}

ebound list list
python3 "$here/registry_matrix.py" commands <"$out/list/stdout" | while read -r case args; do
    # shellcheck disable=SC2086  # args is one command line, split into words
    ebound "$case" $args --out "$out/$case/reports"
done
