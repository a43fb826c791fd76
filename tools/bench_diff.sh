#!/bin/sh
# Guard committed bench numbers: re-run a bench record and compare its
# per-row figures against the committed BENCH_<name>.json, flagging
# regressions beyond the tolerance.
#
#   tools/bench_diff.sh                      # scale, quick subset: 1e3 and 1e4
#   tools/bench_diff.sh scale 1000,50000     # scale, chosen sizes
#   tools/bench_diff.sh backend              # cross-technology sweep
#   tools/bench_diff.sh serve                # daemon throughput (lower = worse)
#   tools/bench_diff.sh all                  # every guarded BENCH_*.json present
#
# The tolerance is a ratio (default 1.20 = +20%); override with
# BENCH_DIFF_TOLERANCE.  Exit 1 when anything regresses.  Absolute
# wall-clock is machine-dependent, so this is a same-machine check:
# run it before and after a change, not across hardware.
set -eu

cd "$(dirname "$0")/.."

TOL="${BENCH_DIFF_TOLERANCE:-1.20}"

BENCH="${1:-scale}"
ARG="${2:-}"
# historical spelling: a bare size list implies the scale bench
case "$BENCH" in
  *[0-9]*) ARG="$BENCH"; BENCH=scale ;;
esac
# only the scale record reads this
export STTC_SCALE_SIZES="${ARG:-1000,10000}"

dune build bench/main.exe
BENCH_BIN="$PWD/_build/default/bench/main.exe"

workdir=$(mktemp -d)
trap 'rm -rf "$workdir"' EXIT

status=0

# rows <file> <metric> <key-field>...
# Every record is pretty-printed one field per line, with each row's key
# fields ahead of its metrics, so one line-oriented scrape reads them
# all: it prints "<key>/.../<metric> <value>" for every row.
rows() {
  rows_src=$1
  rows_metric=$2
  shift 2
  awk -v metric="$rows_metric" -v keys="$*" '
    BEGIN { n = split(keys, key, " ") }
    match($0, /^ *"[^"]*": /) {
      name = substr($0, RSTART, RLENGTH); gsub(/[ ":]/, "", name)
      value = substr($0, RSTART + RLENGTH); gsub(/[",]/, "", value)
      for (i = 1; i <= n; i++) if (name == key[i]) seen[i] = value
      if (name == metric) {
        label = ""
        for (i = 1; i <= n; i++) label = label seen[i] "/"
        print label metric, value
      }
    }' "$rows_src"
}

# compare <label> <committed.rows> <fresh.rows> <direction>
# direction is "higher-bad" for seconds, "lower-bad" for throughput.
compare() {
  label=$1
  committed_f=$2
  fresh_f=$3
  dir=$4
  while read -r key fresh; do
    committed=$(awk -v k="$key" '$1 == k { print $2 }' "$committed_f")
    if [ -z "$committed" ]; then
      echo "bench_diff: $label $key: not in committed file, skipping"
      continue
    fi
    verdict=$(awk -v f="$fresh" -v c="$committed" -v tol="$TOL" -v d="$dir" 'BEGIN {
      if (d == "lower-bad") ratio = (f > 0) ? c / f : 0
      else                  ratio = (c > 0) ? f / c : 0
      printf "%.2f %s", ratio, (ratio > tol) ? "REGRESSION" : "ok"
    }')
    ratio=${verdict% *}
    word=${verdict#* }
    printf '  %-26s %14s committed vs %14s fresh  (x%s %s)\n' \
      "$key" "$committed" "$fresh" "$ratio" "$word"
    if [ "$word" = "REGRESSION" ]; then
      status=1
    fi
  done < "$fresh_f"
}

# run_bench <name> <direction> <metrics> <key-field>...
run_bench() {
  name=$1
  dir=$2
  metrics=$3
  shift 3
  file="BENCH_$name.json"
  if ! [ -f "$file" ]; then
    echo "bench_diff: no committed $file to compare against" >&2
    status=1
    return
  fi
  echo "== fresh $name bench"
  (cd "$workdir" && "$BENCH_BIN" "$name")
  for metric in $metrics; do
    rows "$file" "$metric" "$@" > "$workdir/$name.committed"
    rows "$workdir/$file" "$metric" "$@" > "$workdir/$name.fresh"
    compare "$name" "$workdir/$name.committed" "$workdir/$name.fresh" "$dir"
  done
}

guard() {
  case "$1" in
    scale)   run_bench scale higher-bad protect_s gates ;;
    backend) run_bench backend higher-bad "protect_s sat_s" circuit backend ;;
    serve)   run_bench serve lower-bad req_per_s cache ;;
    *)
      echo "bench_diff: unknown bench '$1' (expected scale, backend, serve or all)" >&2
      exit 2
      ;;
  esac
}

if [ "$BENCH" = all ]; then
  for b in scale backend serve; do
    [ -f "BENCH_$b.json" ] && guard "$b"
  done
else
  guard "$BENCH"
fi

if [ "$status" -ne 0 ]; then
  echo "bench_diff: wall-clock regressed beyond x$TOL on at least one row" >&2
fi
exit $status
