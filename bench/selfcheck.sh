#!/usr/bin/env bash
# A/A check of the benchmark against its own bounds: SETS sets (default
# 2) of RUNS runs (default 10) of every workload on the current tree. The
# runs of a set use the seeds 1..RUNS, the same in every set, so the sets
# differ by nothing but the machine.
#
#   bash bench/selfcheck.sh [SETS] [RUNS]
#
# For every (workload, end-to-end metric) pair it prints each set's
# spread — (Q3 - Q1) / median over the set's runs, statistics.quantiles
# n=4 — and the gap: by how much a later set's median is worse than an
# earlier one's, at most, beside the metric's bound. It fails if a spread
# or the gap exceeds the bound, and with 3 or more sets also if a bound is
# less than twice the gap, or if any operation of any run failed. Two traced runs per workload check that the
# exact per-layer counts repeat. Results are kept in bench/out/selfcheck.json.
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."
exec python3 - "${1:-2}" "${2:-10}" <<'EOF'
import json, os, statistics, subprocess, sys, time

sets, runs = int(sys.argv[1]), int(sys.argv[2])
bm = json.load(open("BENCHMARK.json"))
bounds = {m["name"]: m["bound"] for m in bm["end_to_end"]}
worse = {m["name"]: (1 if m["better"] == "lower" else -1) for m in bm["end_to_end"]}
workloads = [w["name"] for w in bm["workloads"]]
exact = ["sim.msgs", "sim.bytes_per_msg", "serve.sse_events", "fleet.records_merged"]

def run(workload, seed, trace):
    cmd = bm["command"] + ["--workload", workload, "--seed", str(seed),
                           "--seconds", str(bm["run_seconds"]), "--trace", str(trace)]
    start = time.time()
    proc = subprocess.run(cmd, capture_output=True, text=True)
    if proc.returncode != 0:
        sys.exit(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr}")
    res = json.loads(proc.stdout.strip().splitlines()[-1])
    global failed_ops
    failed_ops += res["failed"]
    for line in proc.stdout.splitlines():
        if "INVALID" in line:
            print("  " + line)
    values = {k: v["value"] for k, v in res["metrics"].items()}
    shown = " ".join(f"{k}={v:.4g}" for k, v in sorted(values.items())) if not trace else ""
    print(f"  {workload} seed {seed} trace {trace}: {time.time() - start:.1f} s  failed {res['failed']}/{res['attempted']}  {shown}", flush=True)
    return values

failed_ops = 0
values = {}  # (workload, metric) -> [set][run]
for s in range(sets):
    for w in workloads:
        for r in range(runs):
            for name, v in run(w, 1 + r, 0).items():
                values.setdefault((w, name), [[] for _ in range(sets)])[s].append(v)
traced = {w: [run(w, 1, 1) for _ in range(2)] for w in workloads}

failed = failed_ops > 0
print(f"\nfailed operations: {failed_ops}")
rows = []
print(f"\n{'workload':<18}{'metric':<13}{'medians':<32}{'spreads':<24}{'gap':>7}{'bound':>7}")
for (w, name), per_set in sorted(values.items()):
    meds = [statistics.median(v) for v in per_set]
    spreads = []
    for v in per_set:
        q = statistics.quantiles(v, n=4) if len(v) > 1 else [v[0]] * 3
        spreads.append((q[2] - q[0]) / statistics.median(v))
    gap = max([worse[name] * (meds[t] - meds[s]) / meds[s] for s in range(sets) for t in range(s + 1, sets)] + [0.0])
    bound = bounds[name]
    bad = gap > bound or max(spreads) > bound or (sets >= 3 and bound < 2 * gap)
    failed |= bad
    rows.append({"workload": w, "metric": name, "medians": meds, "spreads": spreads, "gap": gap, "bound": bound})
    print(f"{w:<18}{name:<13}{' '.join(f'{m:.4g}' for m in meds):<32}"
          f"{' '.join(f'{x:.3f}' for x in spreads):<24}{gap:>7.3f}{bound:>7.2f}{'  FAIL' if bad else ''}")
for w, (a, b) in traced.items():
    for name in exact:
        if a[name] != b[name]:
            failed = True
            print(f"{w}: exact count {name} differs between traced runs: {a[name]} vs {b[name]}")
os.makedirs("bench/out", exist_ok=True)
json.dump({"sets": sets, "runs": runs, "rows": rows}, open("bench/out/selfcheck.json", "w"), indent=1)
sys.exit("selfcheck: FAILED" if failed else None)
EOF
