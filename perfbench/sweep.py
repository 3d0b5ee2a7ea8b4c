"""Run every workload over several seeds and summarize the spread.

Usage, from the root of a checkout::

    python3 perfbench/sweep.py --seeds 10 --traced 2 --out perfbench/BENCH_1.json

Runs ``perfbench/run.py`` one process at a time, for seeds 1 to
``--seeds``, seed by seed across every workload of ``BENCHMARK.json``,
for its ``run_seconds``.  For each workload it prints every end-to-end
metric with its unit: the median, the quartiles and the spread
``(q3 - q1) / median`` of the runs, next to the metric's bound, and the
error rate over all steps.  ``--traced N`` adds N traced runs per
workload, with seeds 1 to N, and reports whether their per-step counts
agree exactly.  ``--out`` writes the summary with provenance.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

from run import HERE, ROOT, record_stem


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    """One benchmark process; returns its record, which holds every
    metric of the result line and the unbounded ones besides."""
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    with open(record_stem(workload, seed, trace) + ".json", encoding="utf-8") as fh:
        record = json.load(fh)
    if (result["attempted"], result["failed"]) != (record["attempted"], record["failed"]):
        raise RuntimeError(f"{' '.join(cmd)}: result line and record disagree")
    return record


def summarize(values: list[float]) -> dict:
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return {"median": q2, "q1": q1, "q3": q3, "spread": (q3 - q1) / q2, "values": values}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--seeds", type=int, default=10, help="untraced runs per workload")
    p.add_argument("--traced", type=int, default=0, help="traced runs per workload")
    p.add_argument("--out", help="write the summary JSON here")
    args = p.parse_args(argv)
    if args.seeds < 2:
        p.error("--seeds must be at least 2 to give quartiles")

    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    names = [w["name"] for w in spec["workloads"]]
    seconds = spec["run_seconds"]
    seeds = range(1, args.seeds + 1)

    runs: dict[str, list[dict]] = {n: [] for n in names}
    for seed in seeds:
        for name in names:
            runs[name].append(run_once(name, seed, seconds, 0))
            print(f"{name} seed {seed}: done", file=sys.stderr)

    # provenance comes from the run records: the benchmark process pins its threads
    summary: dict = {"run_seconds": seconds, "seeds": list(seeds), "workloads": {}}
    for name in names:
        rows = runs[name]
        attempted = sum(r["attempted"] for r in rows)
        failed = sum(r["failed"] for r in rows)
        entry = {key: rows[0][key] for key in ("model", "points", "layers")}
        entry.update(attempted=attempted, failed=failed, error_rate=failed / attempted,
                     end_to_end={})
        summary["host"] = rows[0]["host"]
        print(f"\n{name}  ({len(rows)} runs of {seconds} s; error_rate "
              f"{failed / attempted:.3g} = {failed}/{attempted})")
        print(f"  {'metric':14s} {'unit':5s} {'median':>12s} {'q1':>12s} {'q3':>12s} "
              f"{'spread':>8s} {'bound':>6s}")
        bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
        for key, first in rows[0]["metrics"].items():
            stats = summarize([r["metrics"][key]["value"] for r in rows])
            stats["unit"] = first["unit"]
            stats["bound"] = bounds.get(key)
            entry["end_to_end"][key] = stats
            bound = f"{bounds[key]:6.3f}" if key in bounds else "  none"
            print(f"  {key:14s} {first['unit']:5s} {stats['median']:12.6g} "
                  f"{stats['q1']:12.6g} {stats['q3']:12.6g} {stats['spread']:8.4f} {bound}")
        if args.traced:
            traced = [run_once(name, seed, seconds, 1) for seed in range(1, args.traced + 1)]
            layer = {}
            for key, first in traced[0]["metrics"].items():
                layer[key] = {"unit": first["unit"],
                              "values": [r["metrics"][key]["value"] for r in traced]}
            counts_agree = all(
                len(set(v["values"])) == 1
                for k, v in layer.items() if v["unit"] == "count" and k != "trace.steps"
            )
            entry["per_layer"] = layer
            entry["traced_counts_identical"] = counts_agree
            entry["traced_failed"] = sum(r["failed"] for r in traced)
            print(f"  traced runs: {args.traced}, per-step counts identical: {counts_agree}")
            for key, v in layer.items():
                print(f"    {key:42s} {' '.join(f'{x:.6g}' for x in v['values'])} {v['unit']}")
        summary["workloads"][name] = entry

    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(summary, fh, indent=1)
            fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
