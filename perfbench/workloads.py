"""The benchmark's four workloads: seeded inputs, one timed job each, output checks.

A job calls only chainopt's public functions and is timed from outside.
Its *set-up* is building the metric space and the chaining tree (forward
pass, pruning and, where the job uses it, the omega table).  On
``optimize-grid4096`` and ``tree-cloud4096`` the job does this itself, so
set-up is the first phase of the job's time.  On ``replicates-grid64`` and
``validate-mix`` the library calls build their trees internally; there the
job first times the same build through the public functions, apart from
its timed part, which is only the library calls: the extra builds are not in
``total_s``, and the tree's shape can be checked from outside.

Every function of the library is looked up on its module at call time, so
the tracer's wrappers see the calls the jobs make.
"""

from __future__ import annotations

import contextlib
import math
import os
import time
from dataclasses import dataclass, field

import numpy as np

from chainopt import bandit, chaining, gp, harness, metric
from chainopt.smoothness import SmoothnessModel
from spans import tree_shape

REPLICATES = 20             # replicates-grid64: about 1.2 s per job on 2 cores
OPT_T = 500                 # optimize-grid4096 iterations
UPPER_TRIALS = 100_000      # validate-mix: validate_upper sampled paths
LOWER_TRIALS = 1_000        # validate-mix: validate_lower sampled paths
LEMMA_DRAWS = 1_000_000     # validate-mix: validate_lemmas draws per cell
# The 18 two-sided oracle-match claims of validate_lemmas each fail by chance
# with probability 0.27% at the suite's 3 standard errors, so about one seed
# in 40 fails one of them.  The output check holds those claims to 5 standard
# errors instead (a family-wise false-alarm rate near 1e-5); a wrong oracle
# or sampler misses by far more at 1e6 draws.
MATCH_SE = 5.0
LATTICE = 2048              # tree-cloud4096: coordinate resolution per axis
# A set-up timed apart from the job is repeated back to back for at least this
# long and reported as the mean per build.  One build takes 8 ms on
# replicates-grid64 and 0.16 s on validate-mix; on a shared 2-core machine
# single builds that short land in the fast or the slow one of the machine's
# speed states (1.7x apart), and their median over a run jumps between them.
SETUP_SAMPLE_S = 0.25


@dataclass
class JobResult:
    total_s: float
    setup_s: float
    errors: list[str] = field(default_factory=list)
    extras: dict[str, float] = field(default_factory=dict)    # workload-specific results
    counts: dict[str, int] = field(default_factory=dict)      # last tree's shape, seen from outside


# -- workload table -------------------------------------------------------------

# name -> which per-layer metrics should move which end-to-end metric on it
# (why each workload is in the benchmark is recorded in BENCHMARK.json).  The
# traced run checks that every per-layer metric named here fires at least
# once on the workload.
MOVES = {
    "replicates-grid64": {
        "total_s": ["bandit.loop_s", "bandit.loop_calls", "bandit.iters",
                    "bandit.refactor_s", "bandit.refactors", "bandit.bound_s",
                    "bandit.csv_s", "chaining.omega_s", "chaining.omega_calls",
                    "harness.experiment_s", "harness.files_written",
                    "harness.bytes_written", "gp.sample_s", "gp.sample_calls",
                    "gp.chol_s", "gp.chol_calls", "gp.gram_s", "gp.gram_calls",
                    "smoothness.u_i_calls", "smoothness.psi_calls"],
        "setup_s": ["chaining.forward_s", "chaining.prune_s",
                    "gp.canonical_space_s"],
    },
    "optimize-grid4096": {
        "setup_s": ["gp.canonical_space_s", "gp.gram_s", "gp.gram_calls",
                    "metric.space_s", "metric.space_calls", "metric.greedy_cover_s",
                    "metric.greedy_cover_calls", "chaining.forward_s",
                    "chaining.prune_s", "chaining.omega_s", "chaining.omega_calls",
                    "chaining.nodes", "chaining.depth", "chaining.restarts",
                    "chaining.pruned_nodes"],
        "total_s": ["gp.sample_s", "gp.sample_calls", "gp.chol_s", "gp.chol_calls",
                    "gp.jitter_retries", "gp.chol_first_try_ratio",
                    "bandit.loop_s", "bandit.loop_calls", "bandit.iters",
                    "bandit.refactor_s", "bandit.refactors", "bandit.bound_s",
                    "bandit.csv_s", "smoothness.u_i_calls", "smoothness.psi_calls"],
    },
    "tree-cloud4096": {
        "setup_s": ["metric.space_s", "metric.space_calls", "metric.greedy_cover_s",
                    "metric.greedy_cover_calls", "chaining.forward_s",
                    "chaining.prune_s", "chaining.omega_s", "chaining.omega_calls",
                    "chaining.nodes", "chaining.depth", "chaining.restarts",
                    "chaining.pruned_nodes", "smoothness.u_i_calls",
                    "smoothness.psi_calls"],
        "total_s": ["chaining.validate_s", "chaining.write_s",
                    "harness.files_written", "harness.bytes_written"],
    },
    "validate-mix": {
        "total_s": ["harness.validate_upper_s", "harness.validate_lower_s",
                    "harness.validate_lemmas_s", "harness.files_written",
                    "harness.bytes_written", "metric.space_s", "metric.space_calls",
                    "metric.greedy_cover_s", "metric.greedy_cover_calls",
                    "gp.canonical_space_s", "gp.gram_s", "gp.gram_calls",
                    "gp.sample_s", "gp.sample_calls", "gp.chol_s", "gp.chol_calls",
                    "gp.jitter_retries", "gp.chol_first_try_ratio",
                    "chaining.omega_s", "chaining.omega_calls",
                    "smoothness.u_i_calls", "smoothness.psi_calls"],
        "setup_s": ["chaining.forward_s", "chaining.prune_s", "chaining.nodes",
                    "chaining.depth", "chaining.restarts", "chaining.pruned_nodes"],
    },
}


def make_inputs(workload: str, seed: int) -> dict:
    """Generate the job's inputs from the workload seed (same seed, same inputs)."""
    rng = np.random.default_rng([seed, sorted(MOVES).index(workload)])

    def draw_seed() -> int:
        return int(rng.integers(0, 2**31 - 1))

    if workload == "replicates-grid64":
        return {"seed_base": draw_seed()}
    if workload == "optimize-grid4096":
        return {"coords": harness.make_grid(2, 64), "prior_seed": [draw_seed(), 0],
                "loop_seed": [draw_seed(), 1]}
    if workload == "tree-cloud4096":
        # Distinct uniform sites of a 2048 x 2048 lattice on the unit square.  The
        # tree's depth is set by the closest pair; with continuous coordinates it
        # swings between 12 and 14 levels (27k to 35k nodes) from seed to seed,
        # while on the lattice the closest pair is one step apart on every seed.
        sites = rng.choice(LATTICE * LATTICE, size=4096, replace=False)
        return {"coords": np.stack([sites // LATTICE, sites % LATTICE], axis=1)
                / (LATTICE - 1.0)}
    if workload == "validate-mix":
        return {"upper_seed": draw_seed(), "lower_seed": draw_seed(),
                "lemma_seed": draw_seed()}
    raise KeyError(workload)


def run_job(workload: str, inputs: dict, out_dir: str,
            scope=contextlib.nullcontext) -> JobResult:
    """Run one job, writing its files under ``out_dir``, and check its outputs.

    ``scope()`` is entered around the part of the job that ``total_s`` times
    (the tracer uses it, so set-up builds done apart from the job are not
    traced).
    """
    return _JOBS[workload](inputs, out_dir, scope)


def output_size(out_dir: str) -> tuple[int, int]:
    """Number of files and bytes a job left in its output directory."""
    names = os.listdir(out_dir)
    return len(names), sum(os.path.getsize(os.path.join(out_dir, n)) for n in names)


def _timed_setup(build):
    """Mean time of ``build()`` over ``SETUP_SAMPLE_S`` of repeats, and the last tree."""
    builds = 0
    t0 = time.perf_counter()
    while True:
        tree = build()
        builds += 1
        elapsed = time.perf_counter() - t0
        if elapsed >= SETUP_SAMPLE_S:
            return elapsed / builds, tree


def _read_csv(path: str) -> tuple[list[str], list[list[str]]]:
    with open(path, "r", encoding="utf-8") as fh:
        rows = [line.rstrip("\n").split(",") for line in fh]
    return rows[0], rows[1:]


# -- jobs -----------------------------------------------------------------------

def _replicates(inputs: dict, out_dir: str, scope) -> JobResult:
    cfg = harness.ExperimentConfig(space="grid:dim=1,per_dim=64", kernel="se:ls=0.2",
                                   u=2.0, a=2.0, eta2=0.01, t_max=200,
                                   replicates=REPLICATES, seed_base=inputs["seed_base"],
                                   out_dir=out_dir)
    setup, tree = _timed_setup(
        lambda: chaining.prune_backward(chaining.build_forward(cfg.build_space()), cfg.u))
    with scope():
        t1 = time.perf_counter()
        files = harness.run_experiment(cfg)
        t2 = time.perf_counter()

    res = JobResult(t2 - t1, setup, counts=tree_shape(tree))
    if files["all_pass"] != "1":
        res.errors.append("run_experiment reported a failed claim")
    finals = []
    for r in range(cfg.replicates):
        header, rows = _read_csv(files[f"replicate_{r}"])
        col = header.index("cum_regret")
        cum = np.array([float(row[col]) for row in rows])
        if len(rows) != cfg.t_max or not np.all(np.isfinite(cum)):
            res.errors.append(f"replicate {r}: {len(rows)} rows or non-finite regret")
            continue
        finals.append(cum[-1] / cfg.t_max)
    _, rows = _read_csv(files["validation"])
    freq = next(row for row in rows if row[0] == "regret-bound-freq")
    iters = cfg.replicates * cfg.t_max
    res.extras = {"iters_per_s": iters / (t2 - t1),
                  "regret_mean": float(np.mean(finals)) if finals else math.nan,
                  "bound_hold_frac": 1.0 - int(freq[2]) / int(freq[1])}
    return res


def _optimize(inputs: dict, out_dir: str, scope) -> JobResult:
    kernel = gp.parse_kernel("se:ls=0.1")
    cfg = bandit.OptimizerConfig(u=2.0, a=2.0, eta2=0.01, t_max=OPT_T)
    model = SmoothnessModel.gaussian()
    coords = inputs["coords"]
    with scope():
        t0 = time.perf_counter()
        space = gp.canonical_metric_space(kernel, coords)
        tree = chaining.prune_backward(chaining.build_forward(space), cfg.u)
        omega = chaining.omega_table(tree, cfg.u, cfg.a, model)
        t1 = time.perf_counter()
        truth = gp.sample_prior(kernel, coords, inputs["prior_seed"])
        record = bandit.run_gp_ucb(space, kernel, cfg, truth, seed=inputs["loop_seed"],
                                   tree=tree)
        series = bandit.regret_bound_rhs(record, tree, model, cfg)
        record.to_csv(os.path.join(out_dir, "regret.csv"))
        t2 = time.perf_counter()

    res = JobResult(t2 - t0, t1 - t0, counts=tree_shape(tree))
    if not (np.all(np.isfinite(omega)) and omega[-1] == 0.0):
        res.errors.append("omega table is not finite or does not end at 0")
    if not np.all(np.isfinite(truth)):
        res.errors.append("prior sample is not finite")
    if len(record) != cfg.t_max or not np.all(np.isfinite(record.cum_regret)):
        res.errors.append(f"{len(record)} iterations or non-finite regret")
    if not np.all(np.isfinite(series.per_step)):
        res.errors.append("regret bound is not finite")
    res.extras = {"iters_per_s": len(record) / (t2 - t1),
                  "regret_mean": float(record.cum_regret[-1] / cfg.t_max),
                  "bound_hold_frac": float(np.all(record.cum_regret
                                                  <= series.per_step + 1e-9))}
    return res


def _tree_cloud(inputs: dict, out_dir: str, scope) -> JobResult:
    model = SmoothnessModel.gaussian()
    path = os.path.join(out_dir, "tree.csv")
    with scope():
        t0 = time.perf_counter()
        space = metric.FiniteMetricSpace.from_coordinates(inputs["coords"])
        tree = chaining.prune_backward(chaining.build_forward(space), 2.0)
        omega = chaining.omega_table(tree, 2.0, 2.0, model)
        t1 = time.perf_counter()
        check = chaining.validate_tree(tree)
        chaining.write_tree(tree, path)
        t2 = time.perf_counter()

    res = JobResult(t2 - t0, t1 - t0, counts=tree_shape(tree))
    if not check.ok:
        res.errors.append("validate_tree: " + "; ".join(check.errors[:3]))
    if not (np.all(np.isfinite(omega)) and omega[-1] == 0.0):
        res.errors.append("omega table is not finite or does not end at 0")
    with open(path, "r", encoding="utf-8") as fh:
        lines = sum(1 for _ in fh)
    if lines != len(tree.nodes) + 4:             # three header lines and the columns
        res.errors.append(f"tree file has {lines} lines for {len(tree.nodes)} nodes")
    return res


def _claim_ok(claim) -> bool:
    if claim.kind == "match":
        return abs(claim.rate - claim.bound) <= MATCH_SE * claim.se + 1e-12
    return claim.passed


def _validate_mix(inputs: dict, out_dir: str, scope) -> JobResult:
    upper = harness.ExperimentConfig(space="grid:dim=1,per_dim=256", kernel="se:ls=0.2",
                                     u=2.0, a=2.0, schedule="entropy",
                                     trials=UPPER_TRIALS, seed_base=inputs["upper_seed"])
    lower = harness.ExperimentConfig(space="star:n=1024", u=1.0, schedule="geometric",
                                     trials=LOWER_TRIALS, seed_base=inputs["lower_seed"])
    lemmas = harness.ExperimentConfig(trials=LEMMA_DRAWS, seed_base=inputs["lemma_seed"])

    def build():
        chaining.build_forward(upper.build_space(), schedule="entropy")
        return chaining.prune_backward(
            chaining.build_forward(lower.build_space(canonical=False)), lower.u)

    setup, tree = _timed_setup(build)
    with scope():
        t1 = time.perf_counter()
        reports = {"upper": harness.validate_upper(upper),
                   "lower": harness.validate_lower(lower),
                   "lemmas": harness.validate_lemmas(lemmas)}
        for name, report in reports.items():
            report.write_csv(os.path.join(out_dir, f"validate_{name}.csv"))
        t2 = time.perf_counter()

    res = JobResult(t2 - t1, setup, counts=tree_shape(tree))
    claims = [c for report in reports.values() for c in report.claims]
    res.errors += [f"claim {c.claim} failed: rate {c.rate:.6g} vs {c.bound:.6g}"
                   for c in claims if not _claim_ok(c)]
    res.extras = {"claims": len(claims),
                  "claims_failed_3se": sum(not c.passed for c in claims)}
    return res


_JOBS = {"replicates-grid64": _replicates, "optimize-grid4096": _optimize,
         "tree-cloud4096": _tree_cloud, "validate-mix": _validate_mix}
