"""Optimistic optimization over tree discretization levels, with regret accounting.

Each iteration picks a discretization depth, forms upper confidence bounds
over the non-pruned tree nodes at that depth or above, queries the argmax,
and records cumulative and simple regret against the sampled ground truth.
The bounds come from one incremental GP posterior over the space's points.
A squared-process variant gives that posterior one output channel per
process and combines per-channel squared confidence intervals into
objective bounds.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

import numpy as np
from scipy.linalg import solve_triangular

from .chaining import ChainingTree, build_tree, omega_table
from .errors import ArgumentError, CapacityError, NumericError
from .gp import Kernel, c_eta, gram, information_gain
from .metric import FiniteMetricSpace
from .smoothness import SmoothnessModel, confidence_level_u_i

_DEPTH_RULES = ("halflog2", "omega")
_REBUILD_EVERY = 64       # full refactorization cadence for incremental updates
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
        if self.u <= 0:
            raise ArgumentError("u must be positive")
        if self.a <= 1:
            raise ArgumentError("a must exceed 1")
        if self.eta2 <= 0:
            raise ArgumentError("eta2 must be positive")
        if self.t_max < 0:
            raise ArgumentError("t_max must be nonnegative")
        if self.depth_rule not in _DEPTH_RULES:
            raise ArgumentError(f"depth_rule must be one of {_DEPTH_RULES}")
        if self.schedule not in ("geometric", "entropy"):
            raise ArgumentError("schedule must be 'geometric' or 'entropy'")


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
    """Incrementally factored GP posterior over a fixed point set.

    The observations are noisy values at points of ``coords`` (by row id),
    with noise variance ``eta2``; at most ``capacity`` of them.  Keeps
    ``V = L^{-1} K(queries, points)`` and ``B = L^{-1} Y``, where L factors
    K + eta2 I over the queried points, so one update costs O(t n) instead
    of O(t^2 n); refactored from scratch every ``_REBUILD_EVERY`` updates
    to cap round-off drift.  Several output channels share the queries.
    To predict at other locations, include them in ``coords``.
    """

    def __init__(self, kernel: Kernel, eta2: float, coords, capacity: int,
                 n_outputs: int = 1):
        if eta2 <= 0:
            raise ArgumentError("noise variance must be positive")
        self.Kcc = gram(kernel, coords)
        self.diag = np.diag(self.Kcc).copy()
        self.eta2 = float(eta2)
        n = self.Kcc.shape[0]
        self.V = np.zeros((capacity, n))
        self.B = np.zeros((capacity, n_outputs))
        self.Yraw = np.zeros((capacity, n_outputs))
        self.q = np.zeros(capacity, dtype=int)
        self.sumsq = np.zeros(n)
        self.t = 0

    def variance(self) -> np.ndarray:
        """Posterior variance of the latent process at every point, shape (n,)."""
        return np.clip(self.diag - self.sumsq, 0.0, None)

    def predict(self) -> tuple[np.ndarray, np.ndarray]:
        """Posterior means, shape (n, channels), and deviations, shape (n,)."""
        return self.V[: self.t].T @ self.B[: self.t], np.sqrt(self.variance())

    def add(self, j: int, y_row) -> None:
        """Condition on a noisy observation ``y_row`` (one value per channel) at point j."""
        t = self.t
        if t == self.V.shape[0]:
            raise ArgumentError(f"posterior capacity {t} exhausted")
        w = self.V[:t, j]
        ww = float(w @ w)
        var = self.diag[j] - ww
        if var < -_VAR_CLAMP_TOL * max(self.diag[j], 1.0):
            raise NumericError(f"negative posterior variance {var:g} at point {j}")
        d2 = self.diag[j] + self.eta2 - ww
        if d2 <= 0:
            raise NumericError(f"posterior factor extension failed (pivot {d2:g})")
        d = math.sqrt(d2)
        self.V[t] = (self.Kcc[j] - w @ self.V[:t]) / d
        self.B[t] = (np.asarray(y_row, dtype=float) - w @ self.B[:t]) / d
        self.Yraw[t] = y_row
        self.q[t] = j
        self.sumsq += self.V[t] * self.V[t]
        self.t += 1
        if self.t % _REBUILD_EVERY == 0:
            self._rebuild()

    def _rebuild(self) -> None:
        t = self.t
        sel = self.q[:t]
        C = self.Kcc[np.ix_(sel, sel)] + self.eta2 * np.eye(t)
        try:
            L = np.linalg.cholesky(C)
        except np.linalg.LinAlgError as exc:
            raise NumericError("posterior refactorization failed") from exc
        self.V[:t] = solve_triangular(L, self.Kcc[sel, :], lower=True)
        self.B[:t] = solve_triangular(L, self.Yraw[:t], lower=True)
        self.sumsq = np.einsum("ij,ij->j", self.V[:t], self.V[:t])


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
        gains = 0.5 * np.log1p(post.variance() / eta2)
        j = int(np.argmax(gains))            # first max = smallest id
        total += float(gains[j])
        post.add(j, 0.0)                     # variance ignores Y
    return total


@dataclass
class StepChoice:
    point: int
    u_i: float
    depth: int
    ucb: float


@dataclass
class BanditState:
    """State consumed by :func:`gp_ucb_step`: posterior, tree and config.

    ``posterior`` is over the coordinates of ``tree.space``, in point order.
    """

    posterior: GPPosterior
    tree: ChainingTree
    config: OptimizerConfig
    model: SmoothnessModel = field(default_factory=SmoothnessModel.gaussian)
    last_depth: int = 0
    omega_values: np.ndarray | None = None


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


def gp_ucb_step(state: BanditState, i: int) -> StepChoice:
    """One optimistic selection over the candidate nodes at the current depth.

    Returns the argmax of ``mu + sigma sqrt(2 u_i)`` over the non-pruned
    node locations at depth <= h(i), breaking ties toward the smallest
    point id.
    """
    if i < 1:
        raise ArgumentError("iteration index must be positive")
    tree, cfg = state.tree, state.config
    if cfg.depth_rule == "omega" and state.omega_values is None:
        state.omega_values = omega_table(tree, cfg.u, cfg.a, state.model)
    h = state.last_depth = _select_depth(tree, cfg, state.model, state.omega_values,
                                         i, state.last_depth)
    u_i = confidence_level_u_i(cfg.u, tree.capacity(h), i, cfg.a)
    cand = tree.candidate_locations(h)
    mu, sig = state.posterior.predict()
    if mu.shape[0] != tree.space.n:
        raise ArgumentError("the posterior's point set must be the tree's space")
    ucb = _plain_ucb(cand, mu, sig, u_i)[0]
    j = int(np.argmax(ucb))                  # first maximum = smallest id
    return StepChoice(int(cand[j]), u_i, h, float(ucb[j]))


@dataclass
class RegretRecord:
    """Per-iteration trace of one optimization run."""

    config: OptimizerConfig
    space_n: int
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
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("iter,depth,u_i,point_id,ucb,y,inst_regret,cum_regret,simple_regret\n")
            for k in range(len(self)):
                fields = [f"{int(self.iters[k])}", f"{int(self.depths[k])}",
                          f"{self.u_is[k]:.12g}", f"{int(self.points[k])}",
                          f"{self.ucbs[k]:.12g}", f"{self.ys[k]:.12g}"]
                for arr in (self.inst_regret, self.cum_regret, self.simple_regret):
                    v = arr[k]
                    fields.append("" if np.isnan(v) else f"{v:.12g}")
                fh.write(",".join(fields) + "\n")


def _tree_signature(tree: ChainingTree) -> tuple:
    return (tree.space.n, tree.schedule, tree.shift, tree.max_depth,
            len(tree.nodes), tree.restart_count, tree.u)


def _plain_ucb(cand: np.ndarray, mu: np.ndarray, sig: np.ndarray, u_i: float):
    """GP-UCB ``mu + sigma sqrt(2 u_i)`` on the candidate rows, with its widths."""
    beta = math.sqrt(2.0 * u_i)
    return mu[cand, 0] + sig[cand] * beta, 2.0 * sig[cand] * beta, None


def _squared_ucb(truth: np.ndarray):
    """Bound for f = -(sum of squared channels) on the candidate rows.

    Each channel's squared interval at level ``u_i + log n`` is negated and
    swapped: the UCB is minus the sum of the lower ends, and the width runs
    down to minus the sum of the upper ends.  The third output says whether
    every latent squared channel lies inside its interval.
    """
    log_n = math.log(truth.shape[0])

    def acquire(cand: np.ndarray, mu: np.ndarray, sig: np.ndarray, u_i: float):
        spread = math.sqrt(2.0 * (u_i + log_n)) * sig[cand, None]
        hi = (np.abs(mu[cand]) + spread) ** 2
        lo = np.clip(np.abs(mu[cand]) - spread, 0.0, None) ** 2
        ucb = -lo.sum(axis=1)
        g_sq = truth[:, cand].T ** 2
        covered = np.all((g_sq >= lo - 1e-12) & (g_sq <= hi + 1e-12), axis=1)
        return ucb, ucb + hi.sum(axis=1), covered
    return acquire


def _check_truth(truth, shape: tuple) -> np.ndarray:
    truth = np.asarray(truth, dtype=float)
    if truth.shape != shape:
        raise ArgumentError(f"truth must have shape {shape}")
    if not np.all(np.isfinite(truth)):
        raise NumericError("truth holds NaN or inf")
    return truth


def _run_loop(space: FiniteMetricSpace, kernel: Kernel, config: OptimizerConfig,
              seed, tree: ChainingTree | None, model: SmoothnessModel, acquire,
              objective, truth: np.ndarray | None, observe=None) -> RegretRecord:
    """The UCB loop behind both run functions.

    ``truth`` holds the latent channels, shape (channels, n); each query
    observes all of them with noise.  Without it, ``observe(point_id, rng)``
    returns the single channel and regrets are left blank.
    ``acquire(cand, mu, sig, u_i)`` scores the candidate rows and returns the
    UCBs, their widths and per-row channel coverage (or None);
    ``objective`` maps channel values to f.
    """
    if space.coords is None:
        raise ArgumentError("optimization needs a coordinate-backed space")
    if tree is None:
        tree = build_tree(space, config.schedule, config.shift, config.u)
    rng = np.random.default_rng(seed)
    n_out = 1 if truth is None else truth.shape[0]
    post = GPPosterior(kernel, config.eta2, space.coords, config.t_max, n_out)
    f = None if truth is None else objective(truth)
    sup_f = None if f is None else float(np.max(f))
    omega_vals = None
    if config.depth_rule == "omega":
        omega_vals = omega_table(tree, config.u, config.a, model)

    t_max = config.t_max
    cols = {name: np.zeros(t_max) for name in
            ("u_is", "ucbs", "ys", "inst", "cum", "simple", "sigma", "width",
             "info", "ssq")}
    iters = np.arange(1, t_max + 1)
    depths = np.zeros(t_max, dtype=int)
    points = np.zeros(t_max, dtype=int)
    y_channels = np.zeros((t_max, n_out))
    covered = np.zeros(t_max, dtype=bool)

    noise_sd = math.sqrt(config.eta2)
    h = 0
    cum = 0.0
    best_f = -math.inf
    info = 0.0
    ssq = 0.0
    for k in range(t_max):
        i = k + 1
        h = _select_depth(tree, config, model, omega_vals, i, h)
        u_i = confidence_level_u_i(config.u, tree.capacity(h), i, config.a)
        cand = tree.candidate_locations(h)
        mu, sig = post.predict()
        ucb, width, cover = acquire(cand, mu, sig, u_i)
        j = int(np.argmax(ucb))                  # first maximum = smallest id
        x = int(cand[j])

        sigma_b = float(sig[x])
        var_b = float(post.variance()[x])
        if truth is not None:
            y_row = truth[:, x] + rng.normal(0.0, noise_sd, size=n_out)
        else:
            y_row = np.array([float(observe(x, rng))])
        if not np.all(np.isfinite(y_row)):
            raise NumericError(f"non-finite observation at point {x} (iteration {i})")
        info += 0.5 * math.log1p(var_b / config.eta2)
        ssq += var_b
        post.add(x, y_row)

        depths[k] = h
        points[k] = x
        y_channels[k] = y_row
        covered[k] = cover is not None and cover[j]
        cols["u_is"][k] = u_i
        cols["ucbs"][k] = ucb[j]
        cols["ys"][k] = objective(y_row)
        cols["sigma"][k] = sigma_b
        cols["width"][k] = width[j]
        cols["info"][k] = info
        cols["ssq"][k] = ssq
        if f is not None:
            inst = sup_f - float(f[x])
            cum += inst
            best_f = max(best_f, float(f[x]))
            cols["inst"][k] = inst
            cols["cum"][k] = cum
            cols["simple"][k] = sup_f - best_f
        else:
            cols["inst"][k] = cols["cum"][k] = cols["simple"][k] = math.nan

    return RegretRecord(config, space.n, sup_f, _tree_signature(tree),
                        iters, depths, cols["u_is"], points, cols["ucbs"],
                        cols["ys"], cols["inst"], cols["cum"], cols["simple"],
                        cols["sigma"], cols["width"], cols["info"], cols["ssq"],
                        y_channels=y_channels, channel_covered=covered)


def run_gp_ucb(space: FiniteMetricSpace, kernel: Kernel, config: OptimizerConfig,
               truth: np.ndarray | None = None, seed=0,
               tree: ChainingTree | None = None, observe=None) -> RegretRecord:
    """Run the optimizer for ``t_max`` iterations on one sampled objective.

    ``truth`` holds f over the point set (simulation mode: noisy values are
    drawn internally and regrets are exact).  Alternatively pass an
    ``observe(point_id, rng) -> y`` callback for live mode, where regrets
    against the unknown optimum are left blank.
    """
    if truth is None and observe is None:
        raise ArgumentError("need either a truth vector or an observe callback")
    if truth is not None:
        truth = _check_truth(truth, (space.n,))[None, :]
    record = _run_loop(space, kernel, config, seed, tree, SmoothnessModel.gaussian(),
                       _plain_ucb, lambda g: g[0], truth, observe)
    record.y_channels = record.channel_covered = None   # single-channel run
    return record


def run_squared_gp_ucb(space: FiniteMetricSpace, kernel: Kernel, n_channels: int,
                       config: OptimizerConfig, truth: np.ndarray, seed=0,
                       tree: ChainingTree | None = None) -> RegretRecord:
    """Optimize f = -(sum of squared channels) from separated noisy observations.

    ``truth`` has shape (n_channels, n): per-channel latent values.  All
    channels are observed at the chosen point each iteration.  Objective
    bounds negate and swap the per-channel squared intervals.
    """
    if kernel.family == "linear":
        raise ArgumentError("squared-process optimization needs a stationary kernel")
    if n_channels < 1:
        raise ArgumentError("n_channels must be at least 1")
    truth = _check_truth(truth, (n_channels, space.n))
    model = SmoothnessModel.squared_gp(n_channels, kernel.variance)
    return _run_loop(space, kernel, config, seed, tree, model, _squared_ucb(truth),
                     lambda g: -np.sum(g * g, axis=0), truth)


@dataclass
class RegretBoundSeries:
    """Computable right-hand sides of the regret guarantee, per iteration."""

    per_step: np.ndarray      # running sum of depth bounds plus interval widths
    closed_form: np.ndarray   # information-gain form with the realized gain


def regret_bound_rhs(record: RegretRecord, tree: ChainingTree,
                     model: SmoothnessModel, config: OptimizerConfig
                     ) -> RegretBoundSeries:
    """Evaluate both regret-bound forms along a recorded run.

    The per-step form adds the depth-h(i) discretization bound to the
    recorded confidence width at each query.  The closed form uses the
    realized information gain in place of its maximum, which preserves
    validity of the chain of inequalities.
    """
    if record.space_n != tree.space.n or record.tree_signature != _tree_signature(tree):
        raise ArgumentError("record was produced with a different tree")
    omega_vals = omega_table(tree, config.u, config.a, model)

    def om(h: int) -> float:
        return float(omega_vals[h]) if h < len(omega_vals) else 0.0

    t = len(record)
    om_seq = np.array([om(int(h)) for h in record.depths])
    per_step = np.cumsum(om_seq + record.widths)
    om_cum = np.cumsum(om_seq)
    ceta = c_eta(config.eta2)
    ts = np.arange(1, t + 1, dtype=float)
    closed = 2.0 * np.sqrt(2.0 * ceta * ts * record.u_is * record.info_gain) + om_cum
    return RegretBoundSeries(per_step, closed)
