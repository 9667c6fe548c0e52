#!/usr/bin/env bash
# End-to-end smoke runs of the release binaries, each re-validated with an
# independent parser (python's json / urllib, curl). CI's `smoke` job builds
# once and runs this; locally:
#
#   cargo build --release --workspace --bin experiments --bin topk-serve
#   scripts/smoke.sh                 # all four sections
#   scripts/smoke.sh serving rs      # only the named ones
#
# Sections: observability, telemetry, rs, serving. Everything they write
# lands under results/ (git-ignored). Ports 9898 and 7979 must be free.
set -euo pipefail
cd "$(dirname "$0")/.."
mkdir -p results

# Tiny-scale run with tracing and run-report capture on: the binary
# self-validates both documents before exiting; this re-validates them.
observability() {
  target/release/experiments fig6 --scale 0.02 \
    --trace-out results/fig6.trace.json \
    --report-out results/fig6.report.json
  python3 - <<'EOF'
import json
trace = json.load(open("results/fig6.trace.json"))
events = trace["traceEvents"]
phases = {e["name"] for e in events if e.get("tid") == 0}
for label in ("vj", "vj-nl", "cl", "cl-p"):
    assert f"{label}/run" in phases, f"missing {label}/run"
    assert f"{label}/phase/ordering" in phases, f"missing {label} phases"
assert any(e.get("ph") == "X" and e.get("tid", 0) > 0 for e in events), \
    "no per-slot task spans"
report = json.load(open("results/fig6.report.json"))
assert report["schema"] == "topk-simjoin/run-report/v1"
assert report["runs"], "no runs captured"
for run in report["runs"]:
    stats = run["stats"]
    assert "overlap_pruned" in stats, f"{run['algorithm']}: no overlap_pruned"
    funnel = stats["position_pruned"] + stats["overlap_pruned"] + stats["verified"]
    assert stats["candidates"] == funnel, f"{run['algorithm']}: funnel {stats}"
    # The flat joins count each result pair once, in its owning group.
    if run["algorithm"] in ("VJ", "VJ-NL"):
        assert stats["result_pairs"] == run["pairs"], \
            f"{run['algorithm']}: {stats['result_pairs']} results for {run['pairs']} pairs"
print(f"{len(events)} trace events, {len(report['runs'])} run reports")
EOF
}

# Live metrics plane: a scaled-down run with the registry, heartbeat sampler
# and HTTP endpoint on. /metrics is scraped over TCP *while* the run is in
# flight, then the exposition and the run report with its embedded heartbeat
# time series (ending in a sample of the whole registry) are validated.
telemetry() {
  python3 - <<'EOF'
import subprocess, time, urllib.request

proc = subprocess.Popen([
    "target/release/experiments", "fig8",
    "--scale", "0.3",
    "--live-port", "9898",
    "--report-out", "results/fig8.report.json",
])
best = None
while proc.poll() is None:
    try:
        with urllib.request.urlopen(
            "http://127.0.0.1:9898/metrics", timeout=2
        ) as resp:
            body = resp.read().decode()
            ctype = resp.headers["Content-Type"]
        assert ctype.startswith("text/plain; version=0.0.4"), ctype
        best = body
        counters = [
            l for l in body.splitlines()
            if l.startswith("minispark_tasks_completed_total ")
        ]
        if counters and float(counters[0].split()[-1]) > 0:
            break
    except (urllib.error.URLError, ConnectionError, TimeoutError):
        pass
    time.sleep(0.05)
assert proc.wait() == 0, "experiments run failed"
assert best is not None, "no successful mid-run scrape"
# Valid exposition: every non-comment line is `series value`.
for line in best.splitlines():
    if line and not line.startswith("#"):
        float(line.rsplit(None, 1)[1])
types = [l for l in best.splitlines() if l.startswith("# TYPE ")]
assert types, "exposition carries no TYPE metadata"
open("results/midrun.metrics.prom", "w").write(best)
print(f"mid-run scrape: {len(best.splitlines())} lines, "
      f"{len(types)} series types")
EOF
  python3 - <<'EOF'
import json
report = json.load(open("results/fig8.report.json"))
runs = report["runs"]
assert runs, "no run reports captured"
samples = 0
for run in runs:
    hb = run.get("heartbeat")
    assert hb, f"{run['algorithm']}: no heartbeat time series"
    assert hb["schema"] == "minispark/heartbeat/v1"
    assert hb["samples"], "heartbeat collected no samples"
    ts = [s["t_ms"] for s in hb["samples"]]
    assert ts == sorted(ts), "heartbeat timestamps not monotonic"
    # The final sample is the flush of the whole registry at capture time.
    final = hb["samples"][-1]["metrics"]
    assert final.get("minispark_tasks_completed_total", 0) > 0, \
        f"{run['algorithm']}: final heartbeat sample lacks the task counter"
    samples += len(hb["samples"])
print(f"{len(runs)} run reports, {samples} heartbeat samples")
EOF
}

# Two-relation joins and arrival streaming: a small external rankings file
# through the `rs` experiment (every R-S driver, brute-force parity asserted
# inside the harness) and the `arrivals` experiment (one-shot equivalence
# asserted inside the harness); inconsistent flags are hard usage errors.
rs() {
  # `id item1 … itemk` per line, k = 10 to match the ORKU corpus. Ids start
  # at 10_000_000 — the generated corpora are 0-based, and the arrivals
  # experiment requires globally unique ids.
  python3 - <<'EOF'
import random
rng = random.Random(0x2517)
for name, n in [("results/right.txt", 80), ("results/arrivals.txt", 60)]:
    with open(name, "w") as f:
        f.write("# smoke rankings, k = 10\n")
        for i in range(n):
            items = rng.sample(range(200), 10)
            f.write(f"{10_000_000 + i} " +
                    " ".join(map(str, items)) + "\n")
EOF
  target/release/experiments rs --right results/right.txt --scale 0.02
  target/release/experiments arrivals --arrivals results/arrivals.txt \
    --batch-size 25 --scale 0.02
  for f in results/rs.csv results/arrivals.csv; do
    test -f "$f" || { echo "missing $f" >&2; exit 1; }
    lines=$(wc -l < "$f")
    test "$lines" -ge 2 || { echo "$f has no data rows" >&2; exit 1; }
  done
  # Each combination must be rejected before any work happens.
  (
    set +e
    fail() { echo "$1 should have been rejected" >&2; exit 1; }
    target/release/experiments rs \
      && fail "rs without --right"
    target/release/experiments arrivals \
      && fail "arrivals without --arrivals"
    target/release/experiments fig6 --right results/right.txt \
      && fail "--right without the rs experiment"
    target/release/experiments rs --right results/right.txt --arrivals results/arrivals.txt \
      && fail "--right with --arrivals"
    target/release/experiments fig6 --batch-size 8 \
      && fail "--batch-size without --arrivals"
    exit 0
  )
}

# Online serving layer: starts `topk-serve` with a durable state directory,
# drives upserts/replacements/deletes over live HTTP, kills the process with
# SIGKILL (no shutdown hook runs), restarts it against the same directory and
# proves the recovered server answers the same queries byte-identically —
# WAL + snapshot recovery across a real process boundary, complementing the
# in-process `serving_live` tests. On the way it checks with curl that
# connections are reused.
serving() {
  rm -rf results/serving-state
  python3 - <<'EOF'
import json, signal, subprocess, time, urllib.error, urllib.request

BASE = "http://127.0.0.1:7979"

def start():
    proc = subprocess.Popen(
        ["target/release/topk-serve", "--dir", "results/serving-state",
         "--port", "7979"])
    for _ in range(200):
        try:
            with urllib.request.urlopen(f"{BASE}/stats", timeout=1) as r:
                json.load(r)
            return proc
        except (urllib.error.URLError, ConnectionError, TimeoutError):
            time.sleep(0.05)
    raise SystemExit("topk-serve did not come up")

def req(method, path, body=None):
    data = body.encode() if body is not None else None
    r = urllib.request.Request(f"{BASE}{path}", data=data, method=method)
    with urllib.request.urlopen(r, timeout=5) as resp:
        return resp.status, resp.read().decode()

proc = start()
rankings = [{"id": i, "items": [(i + d) % 8 for d in range(6)]}
            for i in range(12)]
status, body = req("POST", "/rankings", json.dumps(rankings))
assert status == 200 and json.loads(body)["inserted"] == 12, body
status, body = req("POST", "/rankings", json.dumps(rankings[:3]))
assert json.loads(body)["replaced"] == 3, body
status, body = req("DELETE", "/rankings/7")
assert status == 200, body
queries = ["/query?theta=0.25&items=0,1,2,3,4,5",
           "/nearest?items=2,3,4,5,6,7&n=5"]
before = [req("GET", q)[1] for q in queries]
assert json.loads(before[0])["count"] > 0, before[0]

# Connections persist: curl fetches two URLs over one socket, and
# a request that asks for `Connection: close` still gets it.
def curl(*args):
    done = subprocess.run(
        ["curl", "-sv", *args, f"{BASE}/stats", f"{BASE}/stats"],
        capture_output=True, text=True, check=True)
    return done.stderr
trace = curl()
assert "Re-using existing connection" in trace, trace
assert trace.count("< Connection: keep-alive") == 2, trace
trace = curl("-H", "Connection: close")
assert "Re-using existing connection" not in trace, trace
assert trace.count("< Connection: close") == 2, trace

proc.send_signal(signal.SIGKILL)
proc.wait()

proc = start()
stats = json.loads(req("GET", "/stats")[1])
assert stats["live"] == 11, stats
after = [req("GET", q)[1] for q in queries]
assert after == before, f"answers changed across restart: {after}"
try:
    req("GET", "/rankings/7")
    raise SystemExit("deleted ranking resurrected by the restart")
except urllib.error.HTTPError as e:
    assert e.code == 404, e.code
proc.kill()
proc.wait()
print(f"restart answered identically, {stats['live']} live rankings")
EOF
}

[ $# -gt 0 ] || set -- observability telemetry rs serving
for section in "$@"; do
  echo "== smoke: $section ==" >&2
  "$section"
done
