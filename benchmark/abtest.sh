#!/usr/bin/env bash
# Paired A/B run of the benchmark: a parent revision against the working
# tree, with identical benchmark code and settings, then one verdict per
# workload and end-to-end metric (`uwbbench compare`).
#
# Usage, from anywhere inside the repository:
#   benchmark/abtest.sh <rev> [--pairs N] [--seconds S] [--seed N]
#                       [--workload NAME]... [--claim WORKLOAD:METRIC]...
#
# The parent's sources come from `git archive <rev>`, with this tree's
# `benchmark/` and `BENCHMARK.json` copied over them, so both sides run the
# same benchmark code, run length and bounds. Without --seconds each run
# measures `run_seconds` of `BENCHMARK.json`. Each side builds into its own
# target directory under $ABTEST_DIR (default benchmark/results/abtest).
# Pairs alternate which side runs first. Exit status is compare's:
# non-zero on a regression, an unshown claim, or more failed or missing
# runs than the parent.
set -euo pipefail

usage() { sed -n '2,17p' "$0" >&2; exit 2; }
[ $# -ge 1 ] || usage
rev=$1; shift
pairs=10 seed=20050307
seconds=() workloads=() claims=()
while [ $# -gt 0 ]; do
  case $1 in
    --pairs) pairs=$2; shift 2 ;;
    --seconds) seconds=(--seconds "$2"); shift 2 ;;
    --seed) seed=$2; shift 2 ;;
    --workload) workloads+=("$2"); shift 2 ;;
    --claim) claims+=(--claim "$2"); shift 2 ;;
    *) usage ;;
  esac
done

root=$(git rev-parse --show-toplevel)
work=${ABTEST_DIR:-$root/benchmark/results/abtest}
if [ ${#workloads[@]} -eq 0 ]; then
  workloads=(link_full_awgn link_ber_cm1 net_city_1k mac_ring8_saturated mac_city_1k)
fi

rm -rf "$work/base-src" "$work/base" "$work/head"
mkdir -p "$work/base-src" "$work/base" "$work/head"
git -C "$root" archive "$rev" | tar -x -C "$work/base-src"
rm -rf "$work/base-src/benchmark"
tar -C "$root" --exclude=benchmark/results --exclude=benchmark/target -cf - benchmark BENCHMARK.json |
  tar -x -C "$work/base-src"

build() { # <source root> <target dir> <copy to>
  cargo build --release --quiet --offline --manifest-path "$1/benchmark/Cargo.toml" --target-dir "$2"
  cp "$2/release/uwbbench" "$3"
}
(cd "$work/base-src" && build "$work/base-src" "$work/base-target" "$work/uwbbench-base")
(cd "$root" && build "$root" "$work/head-target" "$work/uwbbench-head")

run() { # <side> <pair> <workload>
  (cd "$root" && "$work/uwbbench-$1" --workload "$3" --seed "$seed" "${seconds[@]}" \
    --out "$work/$1/$(printf %03d "$2")-$3.json" > "$work/$1/$(printf %03d "$2")-$3.log")
}
for ((i = 0; i < pairs; i++)); do
  for w in "${workloads[@]}"; do
    if ((i % 2 == 0)); then first=base second=head; else first=head second=base; fi
    echo "pair $((i + 1))/$pairs $w: $first then $second" >&2
    run "$first" "$i" "$w" || echo "  $first run failed (see its log)" >&2
    run "$second" "$i" "$w" || echo "  $second run failed (see its log)" >&2
  done
done

cd "$root"
"$work/uwbbench-head" compare "$work/base" "$work/head" "${claims[@]}"
