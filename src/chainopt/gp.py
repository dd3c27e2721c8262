"""Gaussian process machinery: kernels, prior sampling, information gain.

Provides covariance kernels, the canonical process metric, prior draws
through a lower-triangular factorization with escalating jitter, and the
squared-Gaussian confidence intervals used by the squared-process
optimizer, together with their exact tail probability as an erf-based
oracle for tests.  The posterior over a point set lives in
:mod:`chainopt.bandit`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.spatial.distance import cdist

from .errors import ArgumentError, NumericError
from .metric import FiniteMetricSpace

_JITTER_START = 1e-10
_JITTER_LIMIT = 1e-6

_MATERN_P = {"matern12": 0.5, "matern32": 1.5, "matern52": 2.5}


@dataclass(frozen=True)
class Kernel:
    """Stationary or linear covariance with lengthscale and variance scale.

    Families: ``se`` (squared exponential), ``matern12``/``matern32``/
    ``matern52`` (``ou`` is accepted as an alias of ``matern12``), and
    ``linear``.  The Matern forms use the closed expressions
    ``h_p(sqrt(2p) r) exp(-sqrt(2p) r)`` with h constant, affine or
    quadratic for p = 1/2, 3/2, 5/2.
    """

    family: str
    lengthscale: float = 1.0
    variance: float = 1.0

    def __post_init__(self):
        fam = self.family
        if fam == "ou":
            object.__setattr__(self, "family", "matern12")
        elif fam not in ("se", "linear") and fam not in _MATERN_P:
            raise ArgumentError(f"unknown kernel family {fam!r}")
        if self.lengthscale <= 0:
            raise ArgumentError("lengthscale must be positive")
        if self.variance <= 0:
            raise ArgumentError("variance scale must be positive")


def parse_kernel(spec: str) -> Kernel:
    """Parse a kernel spec string such as ``se:ls=1.0`` or ``linear``."""
    spec = spec.strip()
    if not spec:
        raise ArgumentError("empty kernel spec")
    head, _, rest = spec.partition(":")
    kwargs: dict[str, float] = {}
    if rest:
        for item in rest.split(","):
            key, _, val = item.partition("=")
            key = key.strip()
            if key not in ("ls", "var"):
                raise ArgumentError(f"unknown kernel option {key!r} in {spec!r}")
            try:
                kwargs["lengthscale" if key == "ls" else "variance"] = float(val)
            except ValueError as exc:
                raise ArgumentError(f"bad numeric value in kernel spec {spec!r}") from exc
    return Kernel(head, **kwargs)


def _as_points(X) -> np.ndarray:
    """Coerce to an (n, D) coordinate array; 1-D input means n scalar points."""
    X = np.asarray(X, dtype=float)
    if X.ndim == 1:
        return X[:, None]
    if X.ndim != 2:
        raise ArgumentError(f"coordinates must be 1-D or 2-D, got shape {X.shape}")
    return X


def _scaled_dist(kernel: Kernel, r: np.ndarray) -> np.ndarray:
    r = r / kernel.lengthscale
    if kernel.family == "se":
        return kernel.variance * np.exp(-0.5 * r * r)
    p = _MATERN_P[kernel.family]
    d = math.sqrt(2.0 * p) * r
    if kernel.family == "matern12":
        h = 1.0
    elif kernel.family == "matern32":
        h = 1.0 + d
    else:
        h = 1.0 + d + d * d / 3.0
    return kernel.variance * h * np.exp(-d)


def kernel_eval(kernel: Kernel, x, y) -> float:
    """Covariance value k(x, y) for coordinate vectors of matching dimension."""
    x = np.atleast_1d(np.asarray(x, dtype=float))
    y = np.atleast_1d(np.asarray(y, dtype=float))
    if x.shape != y.shape:
        raise ArgumentError(f"dimension mismatch: {x.shape} vs {y.shape}")
    if kernel.family == "linear":
        return float(kernel.variance * (x @ y))
    return float(_scaled_dist(kernel, np.linalg.norm(x - y)))


def gram(kernel: Kernel, X) -> np.ndarray:
    """Covariance matrix over a coordinate array of shape (n, D)."""
    X = _as_points(X)
    if kernel.family == "linear":
        return kernel.variance * (X @ X.T)
    return _scaled_dist(kernel, cdist(X, X))


def canonical_metric_space(kernel: Kernel, coords) -> FiniteMetricSpace:
    """Space whose metric is the process distance sqrt(k(x,x) - 2k(x,y) + k(y,y))."""
    coords = _as_points(coords)
    K = gram(kernel, coords)
    diag = np.diag(K)
    d2 = np.maximum(diag[:, None] + diag[None, :] - 2.0 * K, 0.0)
    D = np.sqrt(d2)
    return FiniteMetricSpace.from_distance_matrix(D, coords=coords)


def chol_with_jitter(M: np.ndarray) -> np.ndarray:
    """Lower-triangular factor of M + jitter I, the smallest jitter that works.

    The jitter starts at 1e-10 and grows tenfold per failure up to 1e-6.
    There is no unjittered attempt: it always fails on the centered Gram
    matrix of a matrix space (whose first row is zero) and on the
    squared-exponential Gram matrix of a fine grid, so it would cost one
    wasted factorization per draw.  ``M`` is left unchanged: the jitter is
    added to the diagonal of one private copy.
    """
    A = np.array(M, dtype=float)
    base = A.diagonal().copy()
    jitter = _JITTER_START
    while jitter <= _JITTER_LIMIT * (1 + 1e-12):
        np.fill_diagonal(A, base + jitter)
        try:
            return np.linalg.cholesky(A)
        except np.linalg.LinAlgError:
            jitter *= 10.0
    raise NumericError(f"factorization failed even with jitter {_JITTER_LIMIT:g}")


def _draw(K: np.ndarray, n_paths: int, seed) -> np.ndarray:
    """``n_paths`` centered Gaussian draws with covariance K, shape (n_paths, n)."""
    L = chol_with_jitter(K)
    rng = np.random.default_rng(seed)
    return (L @ rng.standard_normal((K.shape[0], n_paths))).T


def sample_prior(kernel: Kernel, coords, seed) -> np.ndarray:
    """One centered prior draw over the coordinate set; deterministic per seed."""
    return _draw(gram(kernel, coords), 1, seed)[0]


def sample_paths(space: FiniteMetricSpace, kernel: Kernel | None,
                 n_paths: int, seed) -> np.ndarray:
    """Draw centered process paths whose increments match the space's metric.

    Coordinate spaces use the kernel covariance directly.  Matrix spaces
    embed the metric through the centered Gram transform, which reproduces
    the pairwise distances exactly whenever the metric is of negative type.
    Returns an array of shape (n_paths, n).
    """
    if kernel is not None and space.coords is not None:
        K = gram(kernel, space.coords)
    else:
        D = space.pairwise(np.arange(space.n))
        d0 = D[0]
        K = 0.5 * (d0[:, None] ** 2 + d0[None, :] ** 2 - D ** 2)
    return _draw(K, n_paths, seed)


def information_gain(kernel: Kernel, X, eta2: float) -> float:
    """Half log-determinant of I + K/eta2 over the design X."""
    if eta2 <= 0:
        raise ArgumentError("noise variance must be positive")
    if np.asarray(X).size == 0:
        return 0.0
    X = _as_points(X)
    K = gram(kernel, X)
    M = np.eye(K.shape[0]) + K / eta2
    try:
        L = np.linalg.cholesky(M)
    except np.linalg.LinAlgError as exc:
        raise NumericError("information-gain factorization failed") from exc
    return float(np.log(np.diag(L)).sum())


def c_eta(eta2: float) -> float:
    """Variance-to-information conversion constant 2 / log(1 + 1/eta2)."""
    if eta2 <= 0:
        raise ArgumentError("noise variance must be positive")
    return 2.0 / math.log1p(1.0 / eta2)


def squared_gaussian_interval(mu: float, sigma: float, s: float) -> tuple[float, float]:
    """Interval (l, u) with P[X^2 outside (l^2, u^2)] < exp(-s^2) for X ~ N(mu, sigma^2)."""
    if s <= 0:
        raise ArgumentError("s must be positive")
    if sigma < 0:
        raise ArgumentError("sigma must be nonnegative")
    spread = math.sqrt(2.0) * sigma * s
    u = abs(mu) + spread
    l = max(0.0, abs(mu) - spread)
    return l, u


def squared_gaussian_outside_prob(mu: float, sigma: float, l: float, u: float) -> float:
    """Exact P[X^2 outside (l^2, u^2)] for X ~ N(mu, sigma^2), via the erf identity.

    Test oracle for the interval above; requires 0 <= l <= u.
    """
    if sigma <= 0:
        raise ArgumentError("sigma must be positive")
    if not (0 <= l <= u):
        raise ArgumentError("need 0 <= l <= u")
    mu = abs(mu)
    root2s = math.sqrt(2.0) * sigma
    return 0.5 * (math.erfc((u - mu) / root2s)
                  + math.erfc((u + mu) / root2s)
                  + math.erf((mu + l) / root2s)
                  - math.erf((mu - l) / root2s))


def squared_gp_bounds(mu: float, sigma: float, u: float, n_processes: int
                      ) -> tuple[float, float]:
    """Squared confidence interval (L, U) for one channel at joint level u.

    Folds the union bound over the ``n_processes`` channels into the level,
    so the joint event over all channels fails with probability below
    ``exp(-u)``.
    """
    if u <= 0:
        raise ArgumentError("u must be positive")
    if n_processes < 1:
        raise ArgumentError("n_processes must be at least 1")
    s = math.sqrt(u + math.log(n_processes))
    l, up = squared_gaussian_interval(mu, sigma, s)
    return l * l, up * up


def write_observation_log(path: str, points: np.ndarray, ys: np.ndarray) -> None:
    """Write the observation log CSV with columns ``iter,point_id,y``."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("iter,point_id,y\n")
        for i, (p, y) in enumerate(zip(points, ys), start=1):
            fh.write(f"{i},{int(p)},{float(y):.12g}\n")
