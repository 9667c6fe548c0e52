#!/usr/bin/env bash
# Alternated parent-vs-change runs of the benchmark (BENCHMARK.json).
#
#   scripts/ab.sh <parent-rev> <workload>[,<workload>…] [pairs] [seed]
#
# Copies <parent-rev> (git archive) and the working tree (its tracked and
# untracked, not ignored, files) into one temporary directory each, so the
# main tree's benchmark/Cargo.lock and target/ stay as they are, and builds
# the benchmark in both. Then, per workload, runs `pairs` (default 10) pairs
# with BENCHMARK.json's command, `seed` (default 1; another one checks a
# claim on inputs it was not tuned on), its run_seconds and `--out`,
# alternating which side runs first. Prints each side's median and
# quartiles per end-to-end metric, the share of pairs the change won, each
# side's failed ÷ attempted operations (flagging any run whose "correct" is
# not true), and `compare`'s verdicts (parent as A, change as B).
#
# Keep the host otherwise idle while it runs. The copies and the run files
# live under a `mktemp -d` directory (set TMPDIR to move it), removed on
# exit. Needs python3 (as scripts/smoke.sh does).
set -euo pipefail
[ $# -ge 2 ] || { sed -n '2,19p' "$0"; exit 2; }
parent_rev=$1
IFS=, read -r -a workloads <<<"$2"
pairs=${3:-10}
seed=${4:-1}

repo=$(git -C "$(dirname "$0")/.." rev-parse --show-toplevel)
spec="$repo/BENCHMARK.json"
work=$(mktemp -d)
trap 'rm -rf "$work"' EXIT

read_spec() { python3 -c "import json,sys; print($1)" <"$spec"; }
mapfile -t command < <(read_spec 'chr(10).join(json.load(sys.stdin)["command"])')
seconds=$(read_spec 'json.load(sys.stdin)["run_seconds"]')

mkdir -p "$work/parent" "$work/change"
git -C "$repo" archive "$parent_rev" | tar -x -C "$work/parent"
(cd "$repo" && git ls-files -z --cached --others --exclude-standard |
  tar --null --ignore-failed-read -T - -cf - 2>/dev/null) | tar -x -C "$work/change"

for side in parent change; do
  echo "building $side…" >&2
  (cd "$work/$side" && cargo build --release --offline --quiet \
    --manifest-path benchmark/Cargo.toml)
done

run() { # side workload
  (cd "$work/$1" && "${command[@]}" --workload "$2" --seed "$seed" --seconds "$seconds" \
    --out "$work/$2.$1.jsonl" | tail -n 1 | tee -a "$work/$2.$1.last")
}

for workload in "${workloads[@]}"; do
  for ((i = 0; i < pairs; i++)); do
    if ((i % 2 == 0)); then order="parent change"; else order="change parent"; fi
    for side in $order; do
      echo "[$workload $((i + 1))/$pairs] $side: $(run "$side" "$workload")" >&2
    done
  done

  python3 - "$spec" "$work/$workload".{parent,change}.{jsonl,last} <<'EOF'
import json, statistics, sys
spec = json.load(open(sys.argv[1]))
parent, parent_last, change, change_last = ([json.loads(l) for l in open(p)] for p in sys.argv[2:6])
def quartiles(xs):
    xs = sorted(xs)
    q = statistics.quantiles(xs, n=4, method="inclusive") if len(xs) > 1 else xs * 3
    return q[0], statistics.median(xs), q[2]
print(f"{parent[0]['workload']}: {len(parent)} pairs")
print(f"{'metric':<18}{'parent q1/med/q3':>30}{'change q1/med/q3':>30}{'won':>8}")
for m in spec["end_to_end"]:
    name, lower = m["name"], m["better"] == "lower"
    a = [r["metrics"][name]["value"] for r in parent if name in r["metrics"]]
    b = [r["metrics"][name]["value"] for r in change if name in r["metrics"]]
    if not a or not b:
        continue
    won = sum((y < x) if lower else (y > x) for x, y in zip(a, b))
    fa = "/".join(f"{v:.4g}" for v in quartiles(a))
    fb = "/".join(f"{v:.4g}" for v in quartiles(b))
    print(f"{name:<18}{fa:>30}{fb:>30}{won:>5}/{min(len(a), len(b))}")
for side, runs in (("parent", parent_last), ("change", change_last)):
    failed, attempted = (sum(r[key] for r in runs) for key in ("failed", "attempted"))
    wrong = [i + 1 for i, r in enumerate(runs) if r.get("correct") is not True]
    flag = f"; NOT CORRECT in run(s) {wrong}" if wrong else ""
    print(f"{side}: failed/attempted {failed}/{attempted} = {failed / max(attempted, 1):.3g}{flag}")
EOF
  (cd "$work/change" && "${command[@]}" compare "$work/$workload.parent.jsonl" \
    "$work/$workload.change.jsonl" --spec "$spec") || true
done
