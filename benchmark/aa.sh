#!/usr/bin/env bash
# A/A comparison: runs every workload twice N times on the same build —
# set A with seeds 1..N, set B with seeds N+1..2N — and prints, per
# end-to-end metric and workload, each set's median and quartiles, the
# spread (interquartile range over median) and how much worse B's median
# is than A's. It fails when a gap exceeds the metric's bound in
# BENCHMARK.json, or when two traced runs of one seed disagree on a
# counter that should repeat exactly. The bounds in BENCHMARK.json come
# from this script's output, committed as AA.md:
#
#   benchmark/aa.sh 10 > benchmark/AA.md
set -euo pipefail
runs="${1:-5}"
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
cd "$root"
seconds="$(python3 -c 'import json; print(json.load(open("BENCHMARK.json"))["run_seconds"])')"
workloads="$(python3 -c 'import json; print(" ".join(w["name"] for w in json.load(open("BENCHMARK.json"))["workloads"]))')"
log=.bench_build/aa # the raw result lines stay here for a closer look
rm -rf "$log"
mkdir -p "$log"

for w in $workloads; do
  for seed in $(seq 1 $((2 * runs))); do
    echo "run $w seed $seed" >&2
    bash benchmark/run.sh --workload "$w" --seed "$seed" --seconds "$seconds" --trace 0 | tail -n 1 >>"$log/$w.e2e"
  done
  for rep in 1 2; do
    echo "traced run $w seed 1 ($rep)" >&2
    bash benchmark/run.sh --workload "$w" --seed 1 --seconds "$seconds" --trace 1 | tail -n 1 >>"$log/$w.layers"
  done
done

python3 - "$log" "$runs" <<'EOF'
import json, statistics, sys
log, runs = sys.argv[1], int(sys.argv[2])
bench = json.load(open("BENCHMARK.json"))
failed = []

def quartiles(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3

print(f"# A/A comparison: {runs} + {runs} runs of {bench['run_seconds']} s per workload, one build\n")
print("Set A uses seeds 1..%d, set B seeds %d..%d. Spread is (q3 - q1) / median;" % (runs, runs + 1, 2 * runs))
print("gap is how much worse B's median is than A's, as a share of A's (negative = better).\n")
print("| workload | metric | A q1 / median / q3 | A spread | B q1 / median / q3 | B spread | gap | bound | verdict |")
print("|---|---|---|---|---|---|---|---|---|")
for w in bench["workloads"]:
    rows = [json.loads(l) for l in open(f"{log}/{w['name']}.e2e")]
    for r in rows:
        if not r["correct"]:
            failed.append(f"{w['name']}: a run reported {r['failed']} failed operations")
    for m in bench["end_to_end"]:
        vals = [r["metrics"][m["name"]]["value"] for r in rows]
        a, b = quartiles(vals[:runs]), quartiles(vals[runs:])
        gap = (b[1] - a[1]) / a[1]
        if m["better"] == "higher":
            gap = -gap
        ok = gap <= m["bound"]
        if not ok:
            failed.append(f"{w['name']} {m['name']}: gap {gap:.3f} exceeds bound {m['bound']}")
        fmt = lambda q: " / ".join(f"{x:.4g}" for x in q)
        print(f"| {w['name']} | {m['name']} ({m['unit']}) | {fmt(a)} | {(a[2]-a[0])/a[1]:.3f} | {fmt(b)} | {(b[2]-b[0])/b[1]:.3f} | {gap:+.3f} | {m['bound']} | {'ok' if ok else 'FAIL'} |")

exact_units = {"count", "bytes"}
exact_names = {"core.advise_cost_ratio", "colfile.stored_bytes_per_xml_byte", "colfile.bytes_per_row",
               "engine.tuples_read_per_row_out", "plan.block_sharing_ratio",
               "core.query_cache_hit_ratio", "core.cost_cache_hit_ratio"}
# Counts taken while two clients race (shed, timeouts, backlog, bytes of
# timing-bearing answers) are reported, not required to repeat.
racing = {"server.shed_n", "server.timeouts_n", "client.open_backlog_n", "server.response_bytes"}
print("\n## Counters that must repeat exactly (two traced runs of seed 1)\n")
print("| workload | counter | first | second | verdict |")
print("|---|---|---|---|---|")
for w in bench["workloads"]:
    first, second = [json.loads(l)["metrics"] for l in open(f"{log}/{w['name']}.layers")]
    for m in bench["per_layer"]:
        if (m["unit"] in exact_units or m["name"] in exact_names) and m["name"] not in racing:
            x, y = first[m["name"]]["value"], second[m["name"]]["value"]
            if x != y:
                failed.append(f"{w['name']} {m['name']}: {x!r} then {y!r}")
            print(f"| {w['name']} | {m['name']} | {x!r} | {y!r} | {'ok' if x == y else 'FAIL'} |")

print()
for f in failed:
    print("FAIL:", f)
print("result:", "FAIL" if failed else "every gap within its bound, every exact counter repeated")
sys.exit(1 if failed else 0)
EOF
