"""Optimistic optimization over tree discretization levels, with regret accounting.

Each iteration picks a discretization depth, forms upper confidence bounds
over the non-pruned tree nodes at that depth or above, queries the argmax,
and records cumulative and simple regret against the sampled ground truth.
The bounds come from one incremental GP posterior over the space's points.
A squared-process variant gives that posterior one output channel per
process and combines per-channel squared confidence intervals into
objective bounds.  Both run functions also take a stack of R sampled
objectives and run them as R replicates through one loop, whose posterior
arrays carry a leading replicate axis.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg import solve_triangular

from .chaining import _SCHEDULES, ChainingTree, build_tree, omega_table
from .errors import ArgumentError, CapacityError, NumericError, is_int
from .gp import Kernel, _kernel_diag, _kernel_rows, c_eta, information_gain, squared_gp_bounds
from .metric import FiniteMetricSpace, _as_points, _point_ids
from .smoothness import SmoothnessModel, confidence_level_u_i

_DEPTH_RULES = ("halflog2", "omega")
_REBUILD_EVERY = 64       # full refactorization cadence for incremental updates
_REFACTOR_BYTES = 1 << 20  # t x t stack factored per call in a refactorization
_BATCH_BYTES = 1 << 25     # V of the replicates one run loop batch carries
_VAR_CLAMP_TOL = 1e-10


@dataclass(frozen=True)
class OptimizerConfig:
    """Knobs of one optimization run."""

    u: float = 2.0
    a: float = 2.0
    eta2: float = 0.01
    t_max: int = 100
    depth_rule: str = "halflog2"
    schedule: str = "geometric"
    shift: int = 1

    def __post_init__(self):
        if not 0 < self.u < math.inf:
            raise ArgumentError("u must be positive and finite")
        if not 1 < self.a < math.inf:
            raise ArgumentError("a must exceed 1 and be finite")
        if not 0 < self.eta2 < math.inf:
            raise ArgumentError("eta2 must be positive and finite")
        if not is_int(self.t_max) or self.t_max < 0:
            raise ArgumentError("t_max must be a nonnegative integer")
        if self.depth_rule not in _DEPTH_RULES:
            raise ArgumentError(f"depth_rule must be one of {_DEPTH_RULES}, "
                                f"got {self.depth_rule!r}")
        if self.schedule not in _SCHEDULES:
            raise ArgumentError(f"schedule must be one of {_SCHEDULES}, got {self.schedule!r}")
        if not is_int(self.shift) or self.shift not in (0, 1):
            raise ArgumentError("shift must be 0 or 1")


def depth_half_log2(i: int, max_depth: int | None = None) -> int:
    """Depth rule ceil(log2(i) / 2), optionally clamped to the tree depth."""
    if i < 1:
        raise ArgumentError("iteration index must be positive")
    h = math.ceil(0.5 * math.log2(i))
    return h if max_depth is None else min(h, max_depth)


def depth_omega_threshold(tree: ChainingTree, model: SmoothnessModel, u: float,
                          a: float, i: int,
                          omega_values: np.ndarray | None = None) -> int:
    """Smallest depth whose discretization error is below sqrt(log(i)/i)."""
    if i < 2:
        raise ArgumentError("the threshold rule needs i >= 2")
    thr = math.sqrt(math.log(i) / i)
    if omega_values is None:
        omega_values = omega_table(tree, u, a, model)
    for h in range(tree.max_depth + 1):
        val = float(omega_values[h]) if h < len(omega_values) else 0.0
        if val <= thr:
            return h
    return tree.max_depth


class GPPosterior:
    """Incrementally factored GP posteriors of R replicates over one point set.

    Replicate r observes noisy values at points of ``coords`` (by row id),
    with noise variance ``eta2``; at most ``capacity`` of them, one per
    replicate in each :meth:`add`.  The arrays carry a leading replicate
    axis: ``V[r] = L_r^{-1} K(queries_r, points)`` and ``B[r] = L_r^{-1} Y_r``,
    where L_r factors K + eta2 I over replicate r's queries, and ``mean[r] =
    V[r]^T B[r]`` is kept by rank-one updates, so one update costs O(t n)
    per replicate instead of O(t^2 n).  Every ``_REBUILD_EVERY`` updates the
    factors are rebuilt from scratch to cap round-off drift.  Several output
    channels share the queries.  ``replicates=1`` is a single posterior.  To
    predict at other locations, include them in ``coords``.

    No Gram matrix is kept: each update computes the kernel rows of the R
    points just queried, in one call, and a rebuild recomputes the rows of
    every query, so memory is O(R t n) rather than O(n^2).
    """

    def __init__(self, kernel: Kernel, eta2: float, coords, capacity: int,
                 n_outputs: int = 1, replicates: int = 1):
        if not 0 < eta2 < math.inf:
            raise ArgumentError("noise variance must be positive and finite")
        if not is_int(replicates) or replicates < 1:
            raise ArgumentError("replicates must be an integer of at least 1")
        if not is_int(capacity) or capacity < 0:
            raise ArgumentError(f"capacity must be nonnegative and integral, got {capacity!r}")
        self.kernel = kernel
        self.X = _as_points(coords)
        self.diag = _kernel_diag(kernel, self.X)
        self.eta2 = float(eta2)
        n = self.X.shape[0]
        self.V = np.zeros((replicates, capacity, n))
        self.B = np.zeros((replicates, capacity, n_outputs))
        self.Yraw = np.zeros((replicates, capacity, n_outputs))
        self.q = np.zeros((replicates, capacity), dtype=int)
        self.sumsq = np.zeros((replicates, n))
        self.mean = np.zeros((replicates, n, n_outputs))
        self.t = 0

    def variance(self) -> np.ndarray:
        """Posterior variance of the latent process at every point, shape (R, n)."""
        return np.clip(self.diag - self.sumsq, 0.0, None)

    def predict(self, r: int = 0) -> tuple[np.ndarray, np.ndarray]:
        """Replicate r's posterior means, shape (n, channels), and deviations, shape (n,)."""
        return self.mean[r].copy(), np.sqrt(self.variance()[r])

    def add(self, j, y_row) -> None:
        """Condition replicate r on a noisy observation ``y_row[r]`` (one value per
        channel) at point ``j[r]``, or at ``j`` if it is one id; with one replicate,
        ``y_row`` may be one row."""
        t = self.t
        R = self.V.shape[0]
        if t == self.V.shape[1]:
            raise ArgumentError(f"posterior capacity {t} exhausted")
        js = _point_ids(j, self.X.shape[0])
        if js.size not in (1, R):
            raise ArgumentError(f"need one point id or {R}, got {js.size}")
        js = np.broadcast_to(js, (R,))
        y = np.asarray(y_row, dtype=float)
        width = self.B.shape[2]
        if y.size != R * width:
            raise ArgumentError(f"need {R * width} observations ({R} replicates x {width} "
                                f"channels), got {y.size}")
        y = y.reshape(R, width)
        reps = np.arange(R)
        w = self.V[reps, :t, js]                             # (R, t)
        wm = w[:, None, :]
        ww = np.matmul(wm, w[:, :, None])[:, 0, 0]
        dj = self.diag[js]
        var = dj - ww
        bad = np.flatnonzero(var < -_VAR_CLAMP_TOL * np.maximum(dj, 1.0))
        if bad.size:
            r = bad[0]
            raise NumericError(f"negative posterior variance {var[r]:g} at point "
                               f"{js[r]} (replicate {r})")
        d2 = dj + self.eta2 - ww
        bad = np.flatnonzero(d2 <= 0)
        if bad.size:
            r = bad[0]
            raise NumericError(f"posterior factor extension failed (pivot {d2[r]:g}, "
                               f"replicate {r})")
        d = np.sqrt(d2)[:, None]
        v = self.V[:, t]
        v[:] = (_kernel_rows(self.kernel, self.X[js], self.X)
                - np.matmul(wm, self.V[:, :t])[:, 0]) / d
        b = self.B[:, t]
        b[:] = (y - np.matmul(wm, self.B[:, :t])[:, 0]) / d
        self.Yraw[:, t] = y
        self.q[:, t] = js
        self.sumsq += v * v
        self.mean += v[:, :, None] * b[:, None, :]
        self.t += 1
        if self.t % _REBUILD_EVERY == 0:
            self._rebuild()

    def _rebuild(self) -> None:
        t = self.t
        step = max(1, _REFACTOR_BYTES // (8 * t * t))    # replicates per factorization call
        for lo in range(0, self.q.shape[0], step):
            sel = self.q[lo:lo + step, :t]
            rows = _kernel_rows(self.kernel, self.X[sel.reshape(-1)], self.X)
            rows = rows.reshape(len(sel), t, -1)            # k(queries, points)
            C = np.take_along_axis(rows, sel[:, None, :], axis=2)
            C.reshape(len(sel), t * t)[:, ::t + 1] += self.eta2
            try:
                L = np.linalg.cholesky(C)
            except np.linalg.LinAlgError as exc:
                raise NumericError("posterior refactorization failed") from exc
            self.V[lo:lo + step, :t] = solve_triangular(L, rows, lower=True)
            self.B[lo:lo + step, :t] = solve_triangular(L, self.Yraw[lo:lo + step, :t],
                                                        lower=True)
        V = self.V[:, :t]
        self.sumsq = np.einsum("rij,rij->rj", V, V)
        self.mean = np.matmul(V.transpose(0, 2, 1), self.B[:, :t])


def gamma_t(kernel: Kernel, space: FiniteMetricSpace, t: int, eta2: float,
            mode: str = "greedy") -> float:
    """Maximum information gain over t-point designs: exact search or greedy.

    Exact mode enumerates all subsets (capped at 1e6 combinations) and is
    meant as a test oracle; greedy runs the sequential argmax of marginal
    gain and never exceeds the exact value.
    """
    if space.coords is None:
        raise ArgumentError("gamma_t needs a coordinate-backed space")
    if t < 1 or t > space.n:
        raise ArgumentError(f"t must lie in 1..{space.n}")
    coords = space.coords
    if mode == "exact":
        if math.comb(space.n, t) > 1_000_000:
            raise CapacityError("exact gamma_t limited to 1e6 subsets")
        best = -math.inf
        for combo in itertools.combinations(range(space.n), t):
            best = max(best, information_gain(kernel, coords[list(combo)], eta2))
        return best
    if mode != "greedy":
        raise ArgumentError(f"mode must be 'exact' or 'greedy', got {mode!r}")
    post = GPPosterior(kernel, eta2, coords, t)
    total = 0.0
    for _ in range(t):
        gains = 0.5 * np.log1p(post.variance()[0] / eta2)
        j = int(np.argmax(gains))            # first max = smallest id
        total += float(gains[j])
        post.add(j, 0.0)                     # variance ignores Y
    return total


def _select_depth(tree: ChainingTree, config: OptimizerConfig, model: SmoothnessModel,
                  omega_values: np.ndarray | None, i: int, last_depth: int) -> int:
    """Depth h(i) under the configured rule, never below the previous depth."""
    if config.depth_rule == "halflog2":
        h = depth_half_log2(i, tree.max_depth)
    else:
        h = 0 if i < 2 else depth_omega_threshold(tree, model, config.u, config.a, i,
                                                  omega_values=omega_values)
    # the recorded depth schedule must be non-decreasing in i
    return max(h, last_depth)


@dataclass
class RegretRecord:
    """Per-iteration trace of one optimization run."""

    sup_f: float | None
    tree_signature: tuple
    iters: np.ndarray
    depths: np.ndarray
    u_is: np.ndarray
    points: np.ndarray
    ucbs: np.ndarray
    ys: np.ndarray
    inst_regret: np.ndarray
    cum_regret: np.ndarray
    simple_regret: np.ndarray
    sigma_before: np.ndarray
    widths: np.ndarray
    info_gain: np.ndarray        # I(X_t) after each iteration
    sigma_sq_cum: np.ndarray     # running sum of posterior variances at queries
    y_channels: np.ndarray | None = None
    channel_covered: np.ndarray | None = None

    def __len__(self) -> int:
        return int(self.iters.size)

    def to_csv(self, path: str) -> None:
        cols = (self.iters, self.depths, self.u_is, self.points, self.ucbs, self.ys,
                self.inst_regret, self.cum_regret, self.simple_regret)
        rows = zip(*(np.asarray(col).tolist() for col in cols))
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("iter,depth,u_i,point_id,ucb,y,inst_regret,cum_regret,simple_regret\n")
            if not np.isnan(cols[6:]).any():
                fh.write("".join(_CSV_ROW % row for row in rows))
                return
            for row in rows:         # live mode: regrets are blank
                fh.write(_CSV_HEAD % row[:6] + "".join(
                    "," if math.isnan(v) else f",{v:.12g}" for v in row[6:]) + "\n")


_CSV_HEAD = "%d,%d,%.12g,%d,%.12g,%.12g"     # iter .. y; the three regrets follow
_CSV_ROW = _CSV_HEAD + ",%.12g,%.12g,%.12g\n"


def _tree_signature(tree: ChainingTree) -> tuple:
    return (tree.space.n, tree.schedule, tree.shift, tree.max_depth,
            int(tree.alive.sum()), tree.restart_count, tree.u)


def _plain_ucb(cand: np.ndarray, mu: np.ndarray, sig: np.ndarray, u_i: float,
               truth: np.ndarray | None = None):
    """GP-UCB ``mu + sigma sqrt(2 u_i)`` on the candidate rows, with its widths.

    ``mu`` and ``sig`` may carry a leading replicate axis.
    """
    beta = math.sqrt(2.0 * u_i)
    return mu[..., cand, 0] + sig[..., cand] * beta, 2.0 * sig[..., cand] * beta, None


def _squared_ucb(cand: np.ndarray, mu: np.ndarray, sig: np.ndarray, u_i: float,
                 truth: np.ndarray):
    """Bound for f = -(sum of squared channels) on the candidate rows.

    With n channels, each channel's squared interval at level ``u_i + log n``
    is negated and swapped: the UCB is minus the sum of the lower ends, and
    the width runs down to minus the sum of the upper ends.  The third output
    says whether every latent squared channel lies inside its interval.
    ``truth`` has shape (R, channels, points); every output has shape (R, |cand|).
    """
    lo, hi = squared_gp_bounds(mu[:, cand], sig[:, cand, None], u_i, truth.shape[1])
    ucb = -lo.sum(axis=2)
    g_sq = truth[:, :, cand].transpose(0, 2, 1) ** 2
    covered = np.all((g_sq >= lo - 1e-12) & (g_sq <= hi + 1e-12), axis=2)
    return ucb, ucb + hi.sum(axis=2), covered


def _stack(truth, seed, shape: tuple):
    """``truth`` and ``seed`` as R replicates: (R,) + shape truths, R seeds, and
    whether they came stacked.  One unstacked truth is one replicate."""
    truth = np.asarray(truth, dtype=float)
    stacked = truth.ndim == len(shape) + 1
    if not stacked:
        truth, seed = truth[None], [seed]
    if truth.shape[1:] != shape:
        raise ArgumentError(f"truth must have shape {shape}, or (R,) + {shape} "
                            "for R replicates")
    if not isinstance(seed, (list, tuple, np.ndarray)) or len(seed) != truth.shape[0]:
        raise ArgumentError(f"stacked truth of {truth.shape[0]} replicates needs "
                            "a sequence of as many seeds")
    bad = np.flatnonzero(~np.isfinite(truth).reshape(truth.shape[0], -1).all(axis=1))
    if bad.size:
        raise NumericError("truth holds NaN or inf"
                           + (f" (replicate {bad[0]})" if stacked else ""))
    return truth, list(seed), stacked


def _run_loop(space: FiniteMetricSpace, kernel: Kernel, config: OptimizerConfig,
              seeds: list, tree: ChainingTree | None, model: SmoothnessModel, acquire,
              objective, truth: np.ndarray | None,
              observe=None) -> list[RegretRecord]:
    """The UCB loop behind both run functions, over R = len(seeds) replicates.

    ``truth`` holds each replicate's latent channels, shape (R, channels, n);
    each query observes all of them with noise from the replicate's own
    generator ``default_rng(seeds[r])``.  Without it, R is 1 and
    ``observe(point_id, rng)`` returns the single channel; regrets are left
    blank.  ``acquire(cand, mu, sig, u_i, truth)`` scores every replicate's
    candidate rows and returns the UCBs, their widths and per-row channel
    coverage (or None), each of shape (R, |cand|); ``objective`` maps channel
    values, channels on axis 1, to f.  Replicates run in batches whose
    posterior factors stay under a fixed memory budget.
    """
    if space.coords is None:
        raise ArgumentError("optimization needs a coordinate-backed space")
    if tree is None:
        tree = build_tree(space, config.schedule, config.shift, config.u)
    omega_vals = None
    if config.depth_rule == "omega":
        omega_vals = omega_table(tree, config.u, config.a, model)
    step = max(1, _BATCH_BYTES // (8 * max(config.t_max, 1) * space.n))
    records = []
    for lo in range(0, len(seeds), step):
        records += _run_batch(space, kernel, config, seeds[lo:lo + step], tree, model,
                              omega_vals, acquire, objective,
                              None if truth is None else truth[lo:lo + step], observe)
    return records


def _run_batch(space, kernel, config, seeds, tree, model, omega_vals, acquire,
               objective, truth, observe) -> list[RegretRecord]:
    """One batch of :func:`_run_loop`: the replicates share h(i), u_i and the
    candidate set of every iteration, and each takes its own argmax.  Only the
    posterior and the last depth carry across iterations: the loop records the
    facts of each query (depth, u_i, point, channels, variance, UCB, width,
    coverage), and the running columns and regrets are computed from them after."""
    R = len(seeds)
    t_max = config.t_max
    rngs = [np.random.default_rng(s) for s in seeds]
    n_out = 1 if truth is None else truth.shape[1]
    post = GPPosterior(kernel, config.eta2, space.coords, t_max, n_out, R)
    if truth is not None:
        # one draw per replicate, the same numbers as a draw per iteration
        noise = np.stack([rng.normal(0.0, math.sqrt(config.eta2), size=(t_max, n_out))
                          for rng in rngs])
    depths = np.zeros(t_max, dtype=int)
    u_is = np.zeros(t_max)
    points = np.zeros((R, t_max), dtype=int)
    y_channels = np.zeros((R, t_max, n_out))
    var_q, ucbs, widths = np.zeros((3, R, t_max))
    covered = np.zeros((R, t_max), dtype=bool)

    reps = np.arange(R)
    h = 0
    for k in range(t_max):
        i = k + 1
        h = _select_depth(tree, config, model, omega_vals, i, h)
        u_i = confidence_level_u_i(config.u, tree.capacity(h), i, config.a)
        cand = tree.candidate_locations(h)
        var = post.variance()
        ucb, width, cover = acquire(cand, post.mean, np.sqrt(var), u_i, truth)
        j = np.argmax(ucb, axis=1)               # first maximum = smallest id
        x = cand[j]
        if truth is not None:
            y = truth[reps, :, x] + noise[:, k]
        else:
            y = np.array([[float(observe(int(x[0]), rngs[0]))]])
        bad = np.flatnonzero(~np.isfinite(y).all(axis=1))
        if bad.size:
            r = bad[0]
            raise NumericError(f"non-finite observation at point {x[r]} "
                               f"(iteration {i}, replicate {r})")
        post.add(x, y)

        depths[k] = h
        u_is[k] = u_i
        points[:, k] = x
        y_channels[:, k] = y
        var_q[:, k] = var[reps, x]
        ucbs[:, k] = ucb[reps, j]
        widths[:, k] = width[reps, j]
        if cover is not None:
            covered[:, k] = cover[reps, j]

    info = np.cumsum(0.5 * np.log1p(var_q / config.eta2), axis=1)
    ssq = np.cumsum(var_q, axis=1)
    ys = objective(y_channels.transpose(0, 2, 1))
    if truth is None:
        sup_f = [None] * R
        inst, cum, simple = np.full((3, R, t_max), math.nan)
    else:
        f = objective(truth)
        top = f.max(axis=1, keepdims=True)
        fx = f[reps[:, None], points]
        inst = top - fx
        cum = np.cumsum(inst, axis=1)
        simple = top - np.maximum.accumulate(fx, axis=1)
        sup_f = top[:, 0].tolist()
    return [RegretRecord(sup_f[r], _tree_signature(tree),
                         np.arange(1, t_max + 1), depths.copy(), u_is.copy(), points[r],
                         ucbs[r], ys[r], inst[r], cum[r], simple[r], np.sqrt(var_q[r]),
                         widths[r], info[r], ssq[r], y_channels=y_channels[r],
                         channel_covered=covered[r])
            for r in range(R)]


def run_gp_ucb(space: FiniteMetricSpace, kernel: Kernel, config: OptimizerConfig,
               truth: np.ndarray | None = None, seed=0,
               tree: ChainingTree | None = None,
               observe=None) -> RegretRecord | list[RegretRecord]:
    """Run the optimizer for ``t_max`` iterations on one sampled objective.

    ``truth`` holds f over the point set (simulation mode: noisy values are
    drawn internally and regrets are exact).  Alternatively pass an
    ``observe(point_id, rng) -> y`` callback for live mode, where regrets
    against the unknown optimum are left blank.

    A stacked ``truth`` of shape (R, n), with ``seed`` a sequence of R
    seeds, runs R replicates through one loop and returns a list of R
    records; record r equals the call on ``truth[r]`` with ``seed[r]``.
    """
    if truth is None and observe is None:
        raise ArgumentError("need either a truth vector or an observe callback")
    if truth is None:
        seeds, stacked = [seed], False
    else:
        truth, seeds, stacked = _stack(truth, seed, (space.n,))
        truth = truth[:, None, :]
    records = _run_loop(space, kernel, config, seeds, tree, SmoothnessModel.gaussian(),
                        _plain_ucb, lambda g: g[:, 0], truth, observe)
    for record in records:
        record.y_channels = record.channel_covered = None   # single-channel run
    return records if stacked else records[0]


def run_squared_gp_ucb(space: FiniteMetricSpace, kernel: Kernel, n_channels: int,
                       config: OptimizerConfig, truth: np.ndarray, seed=0,
                       tree: ChainingTree | None = None
                       ) -> RegretRecord | list[RegretRecord]:
    """Optimize f = -(sum of squared channels) from separated noisy observations.

    ``truth`` has shape (n_channels, n): per-channel latent values.  All
    channels are observed at the chosen point each iteration.  Objective
    bounds negate and swap the per-channel squared intervals.  A stacked
    ``truth`` of shape (R, n_channels, n), with ``seed`` a sequence of R
    seeds, returns a list of R records, as in :func:`run_gp_ucb`.
    """
    if kernel.family == "linear":
        raise ArgumentError("squared-process optimization needs a stationary kernel")
    if n_channels < 1:
        raise ArgumentError("n_channels must be at least 1")
    truth, seeds, stacked = _stack(truth, seed, (n_channels, space.n))
    model = SmoothnessModel.squared_gp(n_channels)
    records = _run_loop(space, kernel, config, seeds, tree, model, _squared_ucb,
                        lambda g: -np.sum(g * g, axis=1), truth)
    return records if stacked else records[0]


@dataclass
class RegretBoundSeries:
    """Computable right-hand sides of the regret guarantee, per iteration."""

    per_step: np.ndarray      # running sum of depth bounds plus interval widths
    closed_form: np.ndarray   # information-gain form with the realized gain


def regret_bound_rhs(record: RegretRecord | list[RegretRecord], tree: ChainingTree,
                     model: SmoothnessModel, config: OptimizerConfig
                     ) -> RegretBoundSeries | list[RegretBoundSeries]:
    """Evaluate both regret-bound forms along a recorded run.

    The per-step form adds the depth-h(i) discretization bound to the
    recorded confidence width at each query.  The closed form uses the
    realized information gain in place of its maximum, which preserves
    validity of the chain of inequalities.  A list of records (the
    replicates of one experiment, all run on ``tree``) shares one omega
    table and returns a list of series, as :func:`run_gp_ucb` does.
    """
    records = record if isinstance(record, list) else [record]
    signature = _tree_signature(tree)
    for rec in records:
        if rec.tree_signature != signature:
            raise ArgumentError("record was produced with a different tree")
    omega_vals = omega_table(tree, config.u, config.a, model)
    ceta = c_eta(config.eta2)
    series = []
    for rec in records:
        om_seq = omega_vals[rec.depths]
        per_step = np.cumsum(om_seq + rec.widths)
        om_cum = np.cumsum(om_seq)
        ts = np.arange(1, len(rec) + 1, dtype=float)
        closed = 2.0 * np.sqrt(2.0 * ceta * ts * rec.u_is * rec.info_gain) + om_cum
        series.append(RegretBoundSeries(per_step, closed))
    return series if isinstance(record, list) else series[0]
