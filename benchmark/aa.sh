#!/usr/bin/env bash
# A/A check: the same commit measured twice, the way the driver does it.
#
#   benchmark/aa.sh [RUNS] [SECONDS]
#
# Two sets of RUNS runs (default 10) of every workload, each run on its
# own seed, the second set on seeds the first never saw. For every
# workload x end-to-end metric it takes the spread of each set — the
# distance between the quartiles of the runs' values as a share of their
# median — and compares the two sets' medians against the metric's bound
# in BENCHMARK.json. One more run repeats the first seed, and must give
# bit-identical exact metrics. Every run's values go to benchmark/AA.md.
#
# Run it from the root of the repository. Exits non-zero if any pair
# breaks its bound. AA_REPORT_ONLY=1 rewrites AA.md from the runs already
# in benchmark/out/aa (after a change of bounds, say).
set -euo pipefail

runs="${1:-10}"
seconds="${2:-$(python3 -c 'import json; print(json.load(open("BENCHMARK.json"))["run_seconds"])')}"
out=benchmark/out/aa
if [ -z "${AA_REPORT_ONLY:-}" ]; then
rm -rf "$out"
mkdir -p "$out"

cargo build --release --manifest-path benchmark/Cargo.toml
bin="${CARGO_TARGET_DIR:-benchmark/target}/release/pod-bench"
workloads=$(python3 -c 'import json; print(" ".join(w["name"] for w in json.load(open("BENCHMARK.json"))["workloads"]))')

run() { # set seed workload
    "$bin" run --workload "$3" --seed "$2" --seconds "$seconds" --trace 0 \
        > "$out/$1-$3-$2.log" 2> "$out/$1-$3-$2.err" ||
        echo "aa.sh: $3 seed $2 (set $1) exited $?" >&2
}

# The sets interleave, so a slow hour of the box falls on both.
for i in $(seq 1 "$runs"); do
    for w in $workloads; do
        run a "$i" "$w"
        run b "$((100 + i))" "$w"
    done
done
for w in $workloads; do
    run again 1 "$w"
done
fi

python3 - "$out" "$runs" "$seconds" <<'PY'
import json, statistics, subprocess, sys
from pathlib import Path

out, runs, seconds = Path(sys.argv[1]), int(sys.argv[2]), sys.argv[3]
bench = json.load(open("BENCHMARK.json"))
metrics = bench["end_to_end"]
exact = {"heap_bytes_per_live_byte"}

def result(tag, workload, seed):
    lines = (out / f"{tag}-{workload}-{seed}.log").read_text().strip().splitlines()
    if not lines:
        raise SystemExit(f"{tag} {workload} seed {seed}: no result (see the .err file)")
    detail, last = json.loads(lines[-2]), json.loads(lines[-1])
    if not last["correct"] or last["failed"]:
        raise SystemExit(f"{tag} {workload} seed {seed}: correct={last['correct']} failed={last['failed']}")
    return detail, {name: m["value"] for name, m in last["metrics"].items()}

def spread(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)

machine = None
ok = True
summary, tables = [], []
for w in [x["name"] for x in bench["workloads"]]:
    sets = {}
    for tag, base in (("a", 0), ("b", 100)):
        rows = []
        for i in range(1, runs + 1):
            detail, values = result(tag, w, base + i)
            machine = machine or detail["machine"]
            rows.append((base + i, detail["rounds"], values))
        sets[tag] = rows
    _, again = result("again", w, 1)
    first = sets["a"][0][2]
    for m in metrics:
        name, bound = m["name"], m["bound"]
        a = [r[2][name] for r in sets["a"]]
        b = [r[2][name] for r in sets["b"]]
        ma, mb = statistics.median(a), statistics.median(b)
        worse = (mb - ma) / ma if m["better"] == "lower" else (ma - mb) / ma
        drift = max(worse, -worse * ma / mb)  # either set may be the "second"
        sa, sb = spread(a), spread(b)
        verdict = "ok"
        if name != "setup_s" and max(sa, sb) > bound:
            verdict = "SPREAD"
        if drift > bound:
            verdict = "DRIFT"
        if name in exact and again[name] != first[name]:
            verdict = "NOT EXACT"
        ok &= verdict == "ok"
        summary.append(f"| {w} | {name} | {ma:.6g} | {mb:.6g} | {drift:+.2%} | {sa:.2%} | {sb:.2%} | {bound:.0%} | {verdict} |")
    for tag in ("a", "b"):
        tables.append(f"\n### {w}, set {tag.upper()}\n")
        tables.append("| seed | rounds | " + " | ".join(m["name"] for m in metrics) + " |")
        tables.append("|---|---|" + "---|" * len(metrics))
        for seed, rounds, values in sets[tag]:
            tables.append(f"| {seed} | {rounds} | " + " | ".join(f"{values[m['name']]:.6g}" for m in metrics) + " |")

commit = subprocess.run(["git", "rev-parse", "--short", "HEAD"], capture_output=True, text=True).stdout.strip() or "none"
doc = [
    "# A/A: the same code measured twice",
    "",
    f"Written by `benchmark/aa.sh {runs} {seconds}`: two interleaved sets of {runs} runs per workload,",
    f"{seconds} s each, set A on seeds 1..{runs}, set B on seeds 101..{100 + runs}. Parent commit `{commit}`.",
    f"Machine: `{json.dumps(machine)}`.",
    "",
    "`drift` is how much worse the worse set's median is than the other's; `spread` is",
    "(q3 - q1) / median of a set's runs, quartiles as `statistics.quantiles(n=4)` gives them.",
    "A pair passes when both spreads (except `setup_s`'s) and the drift stay within the bound,",
    "and, for the exact metric, when seed 1 run twice gives the same bits.",
    "",
    "| workload | metric | median A | median B | drift | spread A | spread B | bound | |",
    "|---|---|---|---|---|---|---|---|---|",
    *summary,
    "",
    "## Every run",
    *tables,
    "",
]
Path("benchmark/AA.md").write_text("\n".join(doc))
print("\n".join(summary))
print("A/A", "passed" if ok else "FAILED", "- see benchmark/AA.md")
sys.exit(0 if ok else 1)
PY
