"""Run the benchmark over several seeds and summarize the spread of each metric.

    python3 perfbench/collect.py --seeds 0-9 [--workloads a,b] [--trace-seed N]
                                 [--baseline perfbench/baseline.json] [--out FILE]

For every workload and seed this runs ``perfbench/run.py`` once, one process
at a time, with the ``run_seconds`` of ``BENCHMARK.json``.  Per end-to-end
metric it reports the median, the quartiles (``statistics.quantiles(n=4)``)
and the spread ``(q3 - q1) / median``, and flags a spread that is not below
a third of the metric's bound.  With ``--trace-seed`` it adds one traced run
per workload.  The summary, with the environment block of the runs, is
printed and optionally written to ``--out``; a committed copy is the baseline
that a later change is compared against.  With ``--baseline`` each
end-to-end median is compared with that file's (``change``, the relative
difference, is flagged when worse than the metric's bound), and the exact
counts (tree shape per seed, and the traced counts of the same trace seed)
are compared too; a changed count means the program changed, and is listed
under ``count_changes``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

from spans import EXACT

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def _seeds(text: str) -> list[int]:
    out = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        out += range(int(lo), int(hi or lo) + 1)
    return out


def run_once(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, dict, dict]:
    """One benchmark process: (environment, workload summary, result line)."""
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, check=False)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or len(lines) < 3:
        raise RuntimeError(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    env, summary, result = (json.loads(line) for line in lines[-3:])
    return env["environment"], summary, result


def count_changes(entry: dict, base: dict) -> list[str]:
    """Exact counts that differ from the baseline entry of the same workload."""
    out = []
    for seed, shape in entry["tree_by_seed"].items():
        old = base.get("tree_by_seed", {}).get(seed)
        if old is not None and old != shape:
            out.append(f"seed {seed}: tree {old} -> {shape}")
    new_t, old_t = entry.get("traced"), base.get("traced")
    if new_t and old_t and new_t["seed"] == old_t["seed"]:
        for metric in EXACT:
            if new_t["per_layer"].get(metric) != old_t["per_layer"].get(metric):
                out.append(f"traced seed {new_t['seed']}: {metric} "
                           f"{old_t['per_layer'].get(metric)} -> {new_t['per_layer'].get(metric)}")
    return out


def spread(values: list[float]) -> dict:
    q1, _, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "spread": (q3 - q1) / statistics.median(values), "values": values}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", default="0-9")
    parser.add_argument("--workloads", default=None)
    parser.add_argument("--trace-seed", type=int, default=None)
    parser.add_argument("--baseline", default=None)
    parser.add_argument("--out", default=None)
    args = parser.parse_args(argv)
    baseline = {}
    if args.baseline:
        with open(args.baseline, encoding="utf-8") as fh:
            baseline = json.load(fh)["workloads"]

    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    names = (args.workloads.split(",") if args.workloads
             else [w["name"] for w in bench["workloads"]])
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    better = {m["name"]: m["better"] for m in bench["end_to_end"]}
    seeds = _seeds(args.seeds)
    report: dict = {"run_seconds": bench["run_seconds"], "seeds": seeds, "workloads": {}}
    steady = True
    for name in names:
        runs = []
        for seed in seeds:
            env, summary, result = run_once(name, seed, bench["run_seconds"], 0)
            report["environment"] = env
            runs.append((summary, result))
            print(f"{name} seed {seed}: correct={result['correct']} "
                  f"jobs={summary['attempted']} "
                  + " ".join(f"{m}={v['value']:.4f}" for m, v in result["metrics"].items()),
                  file=sys.stderr, flush=True)
        entry: dict = {"correct": all(r["correct"] for _, r in runs),
                       "attempted": sum(r["attempted"] for _, r in runs),
                       "failed": sum(r["failed"] for _, r in runs),
                       "end_to_end": {}, "detail": {}}
        for metric in bounds:
            stats = spread([r["metrics"][metric]["value"] for _, r in runs])
            stats["bound"] = bounds[metric]
            entry["end_to_end"][metric] = stats
            if stats["spread"] >= bounds[metric] / 3:
                steady = False
                print(f"{name}: {metric} spread {stats['spread']:.3f} is not below "
                      f"a third of its bound {bounds[metric]}", file=sys.stderr)
            old = baseline.get(name, {}).get("end_to_end", {}).get(metric)
            if old is not None:
                stats["change"] = stats["median"] / old["median"] - 1.0
                if stats["change"] * (1 if better[metric] == "lower" else -1) > bounds[metric]:
                    steady = False
                    print(f"{name}: {metric} median {stats['median']:.4g} is worse than "
                          f"the baseline's {old['median']:.4g} by more than its bound",
                          file=sys.stderr)
        for key in ("fail_ratio", "iters_per_s", "regret_mean", "bound_hold_frac",
                    "claims_failed_3se"):
            if key in runs[0][0]:
                entry["detail"][key] = statistics.median(s[key] for s, _ in runs)
        entry["tree_by_seed"] = {str(seed): s.get("tree") for seed, (s, _) in zip(seeds, runs)}
        if args.trace_seed is not None:
            _, summary, result = run_once(name, args.trace_seed, bench["run_seconds"], 1)
            entry["traced"] = {"seed": args.trace_seed, "correct": result["correct"],
                               "errors": summary["errors"],
                               "per_layer": {m: v["value"]
                                             for m, v in result["metrics"].items()}}
            entry["correct"] = entry["correct"] and result["correct"]
        if name in baseline:
            entry["count_changes"] = count_changes(entry, baseline[name])
            for change in entry["count_changes"]:
                print(f"{name}: changed program: {change}", file=sys.stderr)
        report["workloads"][name] = entry
    text = json.dumps(report, indent=1)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    print(text)
    ok = steady and all(e["correct"] for e in report["workloads"].values())
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
