"""Run a chainopt benchmark workload and print its metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the library is imported from
``src/``.  The run repeats the workload's job on the same seeded inputs
until ``--seconds`` would be exceeded (at least once) and reports medians
over the jobs.  With ``--trace 0`` the jobs are timed only from outside and
the end-to-end metrics are printed.  With ``--trace 1`` the run alternates
plain and traced jobs, prints the per-layer metrics of the traced
ones, checks that every per-layer metric the workload should move fired,
and writes the spans to ``perfbench/out/``.  The last line of standard
output is one JSON object: ``correct``, ``attempted``, ``failed``, ``metrics``.
``--workload all`` runs the four workloads one after another, each in a
child process of this one, so that each ``peak_rss_mb`` is its own, and
prints every workload's metrics prefixed with its name.

The benchmark sets no BLAS thread variable; the environment line records
the setting the run saw.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")
OUT = os.path.join(HERE, "out")
BENCHMARK = os.path.join(os.path.dirname(HERE), "BENCHMARK.json")


def environment() -> dict:
    """Core count, interpreter and library versions, BLAS build and thread setting."""
    import numpy
    import scipy
    try:
        deps = numpy.show_config(mode="dicts").get("Build Dependencies", {})
    except TypeError:                       # numpy before 1.25 only prints
        deps = {}
    blas = deps.get("blas", {})
    threads = {k: os.environ[k] for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")
               if k in os.environ}
    return {"nproc": len(os.sched_getaffinity(0)), "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__,
            "blas": {"name": blas.get("name", "unknown"),
                     "version": blas.get("version", "unknown"),
                     "build": blas.get("openblas configuration", "unknown")},
            "blas_threads": threads or "default"}


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def measure(workload: str, seed: int, seconds: float, traced: bool) -> dict:
    """Repeat one workload's job for about ``seconds`` and summarize the jobs."""
    import workloads
    from spans import EXACT, Tracer

    inputs = workloads.make_inputs(workload, seed)
    os.makedirs(OUT, exist_ok=True)
    tracer = Tracer() if traced else None
    plain, traced_jobs, errors = [], [], []
    fired: set[str] = set()
    attempted = failed = 0
    start = time.perf_counter()
    walls: list[float] = []
    while True:
        use_trace = traced and attempted % 2 == 1
        job_start = time.perf_counter()
        out_dir = tempfile.mkdtemp(dir=OUT)
        attempted += 1
        try:
            if use_trace:
                tracer.reset(attempted)
                res = workloads.run_job(workload, inputs, out_dir, tracer.active)
            else:
                res = workloads.run_job(workload, inputs, out_dir)
            files, nbytes = workloads.output_size(out_dir)
        except Exception as exc:            # a raising job counts as failed; keep measuring
            res = None
            errors.append(f"job {attempted} raised {exc!r}")
        finally:
            shutil.rmtree(out_dir, ignore_errors=True)
        if res is None or res.errors:
            failed += 1
            errors += res.errors if res is not None else []
        else:
            if use_trace:
                if tracer.tree != res.counts:
                    errors.append(f"traced tree {tracer.tree} is not the job's tree {res.counts}")
                layer = tracer.job_metrics(files, nbytes)
                fired |= tracer.fired()
                if files:
                    fired |= {"harness.files_written", "harness.bytes_written"}
                traced_jobs.append((res, layer))
            else:
                plain.append(res)
        gc.collect()
        walls.append(time.perf_counter() - job_start)
        elapsed = time.perf_counter() - start
        enough = bool(plain) and (not traced or bool(traced_jobs))
        if enough and elapsed + statistics.median(walls) > seconds:
            break
        if not enough and elapsed >= seconds and attempted >= 2 * (1 + traced):
            break                           # jobs keep failing

    summary = {"workload": workload, "seed": seed, "attempted": attempted,
               "failed": failed, "errors": errors}
    if plain:
        summary["jobs_total_s"] = [round(r.total_s, 4) for r in plain]
        summary["end_to_end"] = {
            "total_s": statistics.median(r.total_s for r in plain),
            "setup_s": statistics.median(r.setup_s for r in plain),
            "peak_rss_mb": _peak_rss_mb()}
        summary["fail_ratio"] = failed / attempted
        for key in plain[0].extras:
            summary[key] = statistics.median(r.extras[key] for r in plain)
        summary["tree"] = plain[0].counts
        if any(r.counts != plain[0].counts for r in plain):
            errors.append("tree shape changed between identical jobs")
    if traced and traced_jobs:
        layers = [layer for _, layer in traced_jobs]
        per_layer = {m: statistics.median(layer[m] for layer in layers) for m in layers[0]}
        if plain:
            per_layer["trace.overhead_s"] = (
                statistics.median(r.total_s for r, _ in traced_jobs)
                - summary["end_to_end"]["total_s"])
        summary["per_layer"] = per_layer
        for m in EXACT:
            if len({layer[m] for layer in layers}) > 1:
                errors.append(f"exact count {m} changed between identical jobs")
        expected = {m for moved in workloads.MOVES[workload].values()
                    for m in moved}
        missing = sorted(expected - fired)
        if missing:
            errors.append("per-layer metrics that never fired: " + ", ".join(missing))
        with open(os.path.join(OUT, f"trace-{workload}-seed{seed}.json"), "w",
                  encoding="utf-8") as fh:
            json.dump({"fields": ["job", "name", "start", "end", "parent"],
                       "spans": tracer.spans}, fh)
    summary["correct"] = not errors and failed == 0 and bool(plain) and (
        not traced or bool(traced_jobs))
    return summary


def _result_metrics(summary: dict, declared: list[dict], traced: bool) -> dict:
    """The declared metrics of this mode, with their units; a missing one is an error."""
    values = summary.get("per_layer" if traced else "end_to_end", {})
    missing = [m["name"] for m in declared if m["name"] not in values]
    if missing:
        summary["errors"].append("metrics not measured: " + ", ".join(missing))
        summary["correct"] = False
    return {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
            for m in declared if m["name"] in values}


def _child(name: str, args) -> tuple[dict, dict]:
    """Run one workload in a child process; return its summary and result lines."""
    cmd = [sys.executable, os.path.abspath(__file__), "--workload", name,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace)]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, check=False)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or len(lines) < 3:
        raise RuntimeError(f"workload {name} exited with status {proc.returncode}")
    return json.loads(lines[-2]), json.loads(lines[-1])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "chainopt", "__init__.py")):
        print(f"error: no chainopt source under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import workloads
    names = sorted(workloads.MOVES) if args.workload == "all" else [args.workload]
    if any(name not in workloads.MOVES for name in names):
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{', '.join(sorted(workloads.MOVES))} or all", file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("error: --seconds must be positive", file=sys.stderr)
        return 2

    traced = bool(args.trace)
    with open(BENCHMARK, encoding="utf-8") as fh:
        declared = json.load(fh)["per_layer" if traced else "end_to_end"]
    print(json.dumps({"environment": environment()}), flush=True)
    if args.workload != "all":
        summary = measure(args.workload, args.seed, args.seconds, traced)
        metrics = _result_metrics(summary, declared, traced)
        for err in summary["errors"]:
            print(f"{args.workload}: {err}", file=sys.stderr)
        print(json.dumps(summary), flush=True)
        print(json.dumps({"correct": summary["correct"], "attempted": summary["attempted"],
                          "failed": summary["failed"], "metrics": metrics}))
        return 0
    metrics: dict = {}
    attempted = failed = 0
    correct = True
    for name in names:
        summary, result = _child(name, args)
        print(json.dumps(summary), flush=True)
        metrics.update({f"{name}.{m}": v for m, v in result["metrics"].items()})
        attempted += result["attempted"]
        failed += result["failed"]
        correct = correct and result["correct"]
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
