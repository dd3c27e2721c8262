"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -s`` to see the per-criterion
lines.  Monte Carlo thresholds allow three (null) standard errors around
the theoretical bound, matching the validation suites.
"""

import math
import time

import numpy as np
import pytest

import chainopt as co
from chainopt import (ExperimentConfig, FiniteMetricSpace, Kernel,
                      OptimizerConfig)
from chainopt.gp import gram, kernel_eval
from chainopt.smoothness import SmoothnessModel


def _report(num, ok, detail):
    print(f"\n[{'PASS' if ok else 'FAIL'}] criterion {num}: {detail}")
    assert ok, f"criterion {num}: {detail}"


def _three_se(bound, trials):
    return 3.0 * math.sqrt(bound * (1.0 - bound) / trials)


@pytest.fixture(scope="module")
def gp_suite():
    """500 seeded runs on the 64-point grid shared by criteria 6, 7 and 8."""
    kernel = Kernel("se", 0.2)
    space = co.canonical_metric_space(kernel, co.make_grid(1, 64, 1.0))
    config = OptimizerConfig(u=2.0, a=2.0, eta2=0.01, t_max=200)
    tree = co.prune_backward(co.build_forward(space), config.u)
    model = SmoothnessModel.gaussian()
    start = time.perf_counter()
    records, bound_hold = [], []
    for s in range(500):
        truth = co.sample_paths(space, kernel, 1, seed=[7, s, 0])[0]
        rec = co.run_gp_ucb(space, kernel, config, truth, seed=[7, s, 1], tree=tree)
        series = co.regret_bound_rhs(rec, tree, model, config)
        records.append(rec)
        bound_hold.append(bool(np.all(rec.cum_regret <= series.per_step + 1e-9)))
    elapsed = time.perf_counter() - start
    return {"records": records, "bound_hold": bound_hold, "config": config,
            "tree": tree, "elapsed": elapsed}


@pytest.fixture(scope="module")
def squared_suite():
    """50 seeded squared-process runs on the 32-point grid (criterion 9)."""
    kernel = Kernel("se", 0.2)
    space = co.canonical_metric_space(kernel, co.make_grid(1, 32, 1.0))
    config = OptimizerConfig(u=2.0, a=2.0, eta2=0.01, t_max=50)
    tree = co.prune_backward(co.build_forward(space), config.u)
    records = []
    for s in range(50):
        truth = co.sample_paths(space, kernel, 4, seed=[9, s, 0])
        records.append(co.run_squared_gp_ucb(space, kernel, 4, config, truth,
                                             seed=[9, s, 1], tree=tree))
    return {"records": records, "config": config, "tree": tree}


def test_criterion_1_discretization_upper_bound():
    start = time.perf_counter()
    cfg = ExperimentConfig(space="grid:dim=1,per_dim=100", kernel="se:ls=0.2",
                           u=2.0, a=2.0, schedule="entropy", trials=2000,
                           seed_base=1)
    report = co.validate_upper(cfg)
    elapsed = time.perf_counter() - start
    joint = report.claims[0]
    bound = math.exp(-2.0)
    ok = (joint.rate <= bound + _three_se(bound, joint.trials)
          and report.all_pass and elapsed < 300)
    _report(1, ok, f"joint violation rate {joint.rate:.4f} <= "
                   f"{bound:.4f}+3se over {joint.trials} paths ({elapsed:.1f}s)")


def test_criterion_2_lower_bound_certificates():
    start = time.perf_counter()
    cfg = ExperimentConfig(space="star:n=64", u=1.0, schedule="geometric",
                           trials=1000, seed_base=2)
    report = co.validate_lower(cfg)
    elapsed = time.perf_counter() - start
    depth_rows = [c for c in report.claims if c.claim.startswith("lower-depth")]
    q05 = report.extras.get("ratio_q05", -1.0)
    ok = (all(c.passed for c in depth_rows) and len(depth_rows) > 0
          and q05 > 0.0 and elapsed < 300)
    _report(2, ok, f"{len(depth_rows)} pruned-depth rows pass, "
                   f"ratio 5th percentile {q05:.4f} > 0 ({elapsed:.1f}s)")


@pytest.fixture(scope="module")
def tails_report():
    cfg = ExperimentConfig(trials=1_000_000, seed_base=3)
    start = time.perf_counter()
    report = co.validate_lemmas(cfg)
    report.extras["elapsed"] = time.perf_counter() - start
    return report


def test_criterion_3_squared_gaussian_tails(tails_report):
    tails = [c for c in tails_report.claims
             if c.claim.startswith("sq-tail") and not c.claim.endswith("oracle")]
    oracles = [c for c in tails_report.claims if c.claim.endswith("oracle")]
    elapsed = tails_report.extras["elapsed"]
    ok = (len(tails) == 18 and len(oracles) == 18
          and all(c.passed for c in tails)
          and all(c.passed for c in oracles)
          and elapsed < 120)
    worst = max(c.rate - c.bound for c in tails)
    _report(3, ok, f"18 cells x 1e6 draws, worst excess over bound {worst:.2e}; "
                   f"erf oracle matches within 3se ({elapsed:.1f}s)")


def test_criterion_4_independent_maximum(tails_report):
    rows = [c for c in tails_report.claims if c.claim.startswith("max-normal")]
    ok = len(rows) == 2 and all(c.passed for c in rows) and \
        all(c.trials == 100_000 for c in rows)
    detail = "; ".join(f"{c.claim} fail rate {c.rate:.4f} <= {c.bound:.4f}+3se"
                       for c in rows)
    _report(4, ok, detail)


def test_criterion_5_posterior_oracle_equivalence():
    rng = np.random.default_rng(55)
    families = ("se", "matern12", "matern32", "matern52", "linear")
    worst = 0.0
    for trial in range(100):
        fam = families[int(rng.integers(len(families)))]
        kernel = Kernel(fam, lengthscale=float(rng.uniform(0.3, 2.0)))
        t = int(rng.integers(1, 21))
        X = rng.normal(size=(t, 2))
        Y = rng.normal(size=t)
        eta2 = float(rng.uniform(0.05, 1.0))
        x = rng.normal(size=2)
        post = co.GPPosterior(kernel, eta2, np.vstack([X, x]), t)  # query row last
        for j, yi in enumerate(Y):
            post.add(j, yi)
        mu_all, sig_all = post.predict()
        mu, sig = mu_all[t, 0], sig_all[t]
        K = gram(kernel, X)
        C_inv = np.linalg.inv(K + eta2 * np.eye(t))
        kvec = np.array([kernel_eval(kernel, xi, x) for xi in X])
        mu_o = float(kvec @ C_inv @ Y)
        var_o = max(kernel_eval(kernel, x, x) - float(kvec @ C_inv @ kvec), 0.0)
        worst = max(worst, abs(mu - mu_o), abs(sig * sig - var_o))
    ok = worst <= 1e-8
    _report(5, ok, f"100 designs <= 20 points: max |mu|/|sigma^2| error {worst:.2e} <= 1e-8")


def test_criterion_6_information_gain_inequality(gp_suite, squared_suite):
    ceta = co.c_eta(gp_suite["config"].eta2)
    worst = -math.inf
    runs = gp_suite["records"] + squared_suite["records"]
    for rec in runs:
        excess = rec.sigma_sq_cum - ceta * rec.info_gain
        worst = max(worst, float(excess.max()))
    ok = worst <= 1e-9
    _report(6, ok, f"sum of variances <= c_eta * I(X_t) on {len(runs)} runs "
                   f"(max excess {worst:.2e} <= 1e-9)")


def test_criterion_7_regret_bound_frequency(gp_suite):
    held = sum(gp_suite["bound_hold"])
    n = len(gp_suite["bound_hold"])
    bound = 2.0 * math.exp(-2.0)
    need = 1.0 - bound - _three_se(bound, n)
    ok = held / n >= need and gp_suite["elapsed"] < 600
    _report(7, ok, f"bound held in {held}/{n} runs ({held / n:.3f} >= {need:.3f}) "
                   f"({gp_suite['elapsed']:.1f}s for the suite)")


def test_criterion_8_sublinearity(gp_suite):
    records = gp_suite["records"]
    r50 = np.median([rec.cum_regret[49] / 50.0 for rec in records])
    r200 = np.median([rec.cum_regret[199] / 200.0 for rec in records])
    exact = all(np.all(rec.simple_regret <= rec.cum_regret /
                       np.arange(1, len(rec) + 1) + 1e-12)
                for rec in records)
    ok = r200 < r50 and exact
    _report(8, ok, f"median R_200/200 = {r200:.4f} < median R_50/50 = {r50:.4f}; "
                   f"S_t <= R_t/t exact on all records")


def test_criterion_9_squared_process_coverage(squared_suite):
    records = squared_suite["records"]
    total = sum(len(rec) for rec in records)
    covered = sum(int(rec.channel_covered.sum()) for rec in records)
    bound = math.exp(-2.0)
    need = 1.0 - bound - _three_se(bound, total)
    rate = covered / total
    finite = all(np.all(np.isfinite(rec.cum_regret)) for rec in records)
    monotone = all(np.all(np.diff(rec.simple_regret) <= 1e-12) for rec in records)
    ok = rate >= need and finite and monotone
    _report(9, ok, f"interval coverage {rate:.4f} >= {need:.4f} over {total} queries; "
                   f"regret finite, simple regret non-increasing")


def test_criterion_10_cover_optimality():
    start = time.perf_counter()
    rng = np.random.default_rng(10)
    worst_ratio = 0.0
    for _ in range(200):
        n = int(rng.integers(2, 13))
        dim = int(rng.integers(1, 4))
        sp = FiniteMetricSpace.from_coordinates(rng.uniform(size=(n, dim)))
        eps = float(rng.uniform(0.1, 1.0))
        greedy = co.greedy_cover(sp, eps)
        assert co.is_cover(sp, greedy.centers, eps)
        best = co.brute_force_min_cover(sp, eps)
        ball = sp.pairwise(np.arange(n)) <= eps
        d_max = int(ball.sum(axis=1).max())
        limit = (1.0 + math.log(d_max)) * len(best)
        worst_ratio = max(worst_ratio, len(greedy) / limit)
        assert len(greedy) <= limit + 1e-9
    elapsed = time.perf_counter() - start
    ok = worst_ratio <= 1.0 + 1e-9 and elapsed < 60
    _report(10, ok, f"200 spaces <= 12 points: greedy valid, worst "
                    f"greedy/(1+ln d_max)/optimal ratio {worst_ratio:.3f} <= 1 "
                    f"({elapsed:.1f}s)")


def test_criterion_11_tree_invariants_and_complexity(gp_suite, squared_suite):
    for tree in (gp_suite["tree"], squared_suite["tree"]):
        result = co.validate_tree(tree)
        assert result.ok, result.errors
    times = {}
    rng = np.random.default_rng(7)
    for n in (256, 512, 1024):
        sp = FiniteMetricSpace.from_coordinates(rng.uniform(size=(n, 2)))
        best = math.inf
        for _ in range(3):
            t0 = time.perf_counter()
            tree = co.build_forward(sp)
            pruned = co.prune_backward(tree, 2.0)
            best = min(best, time.perf_counter() - t0)
        result = co.validate_tree(pruned)
        assert result.ok, result.errors
        times[n] = best
    ratios = [times[512] / times[256], times[1024] / times[512]]
    ok = all(r <= 8.0 for r in ratios)  # doubling n: quadratic predicts 4x, allow 2x slack
    _report(11, ok, f"all trees validate; build times "
                    f"{times[256]:.3f}/{times[512]:.3f}/{times[1024]:.3f}s, "
                    f"doubling ratios {ratios[0]:.2f}, {ratios[1]:.2f} <= 8")
