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

from .errors import ArgumentError, CapacityError, NumericError
from .metric import _BLOCK_BYTES, DENSE_LIMIT, FiniteMetricSpace

_JITTER_START = 1e-10
_JITTER_LIMIT = 1e-6

_MATERN_P = {"matern12": 0.5, "matern32": 1.5, "matern52": 2.5}
_IN_PLACE_BYTES = 1 << 25  # smallest matrix chol_with_jitter factors without a copy
_KERNEL_SPECS = {fam: {"ls": 1.0, "var": 1.0} for fam in ("se", "ou", *_MATERN_P)}
_KERNEL_SPECS["linear"] = {"var": 1.0}    # a linear kernel has no lengthscale


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
        elif fam not in _KERNEL_SPECS:
            raise ArgumentError(f"unknown kernel family {fam!r}")
        if not 0 < self.lengthscale < math.inf:
            raise ArgumentError("lengthscale must be positive and finite")
        if not 0 < self.variance < math.inf:
            raise ArgumentError("variance scale must be positive and finite")


def _parse_spec(spec: str, table: dict[str, dict]) -> tuple[str, dict]:
    """Split ``head:key=value,...`` into its head and every option of that head.

    ``table[head]`` maps each option to its default, whose type converts the
    given value: int, float, or a tuple of floats written ``a:b:c``.  An
    unknown head or option, an item without ``=`` or a value that does not
    convert is an ArgumentError.
    """
    head, _, rest = spec.strip().partition(":")
    head = head.strip()
    if head not in table:
        raise ArgumentError(f"unknown spec head {head!r} in {spec!r}; "
                            f"expected one of {', '.join(table)}")
    defaults = table[head]
    opts = dict(defaults)
    for item in rest.split(",") if rest else ():
        key, sep, raw = item.partition("=")
        key = key.strip()
        if not sep or key not in defaults:
            raise ArgumentError(f"bad option {item!r} in {spec!r}; {head} takes "
                                f"{', '.join(defaults) or 'no options'}")
        try:
            if isinstance(defaults[key], tuple):
                opts[key] = tuple(float(v) for v in raw.split(":"))
            else:
                opts[key] = type(defaults[key])(raw)
        except ValueError as exc:
            raise ArgumentError(f"option {key!r} in {spec!r} needs a number, "
                                f"got {raw!r}") from exc
    return head, opts


def parse_kernel(spec: str) -> Kernel:
    """Parse a kernel spec string such as ``se:ls=1.0`` or ``linear``."""
    family, opts = _parse_spec(spec, _KERNEL_SPECS)
    return Kernel(family, lengthscale=opts.get("ls", 1.0), variance=opts["var"])


def _as_points(X) -> np.ndarray:
    """Coerce to an (n, D) coordinate array; 1-D input means n scalar points."""
    X = np.asarray(X, dtype=float)
    if X.ndim == 1:
        return X[:, None]
    if X.ndim != 2:
        raise ArgumentError(f"coordinates must be 1-D or 2-D, got shape {X.shape}")
    return X


def _scaled_dist(kernel: Kernel, r):
    """Stationary covariance at distance(s) r, out of place; r may be a scalar."""
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


def _scaled_dist_inplace(kernel: Kernel, r: np.ndarray) -> np.ndarray:
    """Overwrite the C-contiguous distance array r with its covariance; returns r.

    Works through r in blocks of ``_BLOCK_BYTES``, so the temporaries of the
    closed forms stay small.  Every element goes through the operations of
    :func:`_scaled_dist`, so a row computed alone equals the Gram matrix's
    row bit for bit.
    """
    flat = r.reshape(-1)
    step = _BLOCK_BYTES // 8
    for lo in range(0, flat.size, step):
        blk = flat[lo:lo + step]
        blk[...] = _scaled_dist(kernel, blk)
    return r


def _inner(A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """Sum of ``A[..., k] * B[..., k]`` over the last axis, in ascending k.

    The linear kernel does not use BLAS: its symmetric product ``X @ X.T``
    and the general product ``X[js] @ X.T`` round differently, so rows
    computed alone would not match the Gram matrix.
    """
    out = A[..., 0] * B[..., 0]
    for k in range(1, A.shape[-1]):
        out += A[..., k] * B[..., k]
    return out


def _kernel_rows(kernel: Kernel, A: np.ndarray, X: np.ndarray) -> np.ndarray:
    """Covariance rows k(A, X) of shape (len(A), len(X)), for (m, D) and (n, D) points.

    Row i depends only on ``A[i]`` and ``X``: it equals the row of the Gram
    matrix at the point ``A[i]`` bit for bit.
    """
    if kernel.family == "linear":
        K = _inner(A[:, None, :], X[None, :, :])
        K *= kernel.variance
        return K
    return _scaled_dist_inplace(kernel, cdist(A, X))


def _kernel_diag(kernel: Kernel, X: np.ndarray) -> np.ndarray:
    """k(x, x) at every row of X, equal to the Gram matrix's diagonal bit for bit."""
    if kernel.family == "linear":
        d = _inner(X, X)
        d *= kernel.variance
        return d
    # distance 0: exp(-0) = 1 and h(0) = 1 exactly, so k(x, x) is the variance
    return np.full(X.shape[0], kernel.variance)


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
    return _kernel_rows(kernel, X, X)


def canonical_metric_space(kernel: Kernel, coords) -> FiniteMetricSpace:
    """Space whose metric is the process distance sqrt(k(x,x) - 2k(x,y) + k(y,y)).

    The Gram matrix is turned into the distance matrix in place, one block
    of rows at a time, as ``(k(x,x) + k(y,y)) - 2k(x,y)`` clipped at 0, and
    the space takes that array over without a copy.  It is still checked
    against the pseudo-metric axioms.
    """
    coords = _as_points(coords)
    K = gram(kernel, coords)
    diag = K.diagonal().copy()
    n = K.shape[0]
    step = max(1, _BLOCK_BYTES // (8 * n))
    for lo in range(0, n, step):
        rows = slice(lo, lo + step)
        blk = diag[rows, None] + diag[None, :]
        blk -= 2.0 * K[rows]
        np.maximum(blk, 0.0, out=blk)
        np.sqrt(blk, out=K[rows])
    return FiniteMetricSpace(coords=coords, matrix=K)


def chol_with_jitter(M: np.ndarray) -> np.ndarray:
    """Lower-triangular factor of M + jitter I, the smallest jitter that works.

    The jitter starts at 1e-10 and grows tenfold per failure up to 1e-6.
    There is no unjittered attempt: it always fails on the centered Gram
    matrix of a matrix space (whose first row is zero) and on the
    squared-exponential Gram matrix of a fine grid, so it would cost one
    wasted factorization per draw.

    M reads unchanged afterwards.  A writable float array of 32 MiB or more
    is factored without a copy: the jitter goes onto M's own diagonal, and
    the original diagonal is written back before returning, also on
    failure.  Any other M is copied first.  glibc's malloc gives buffers of
    that size their own mappings, so there the avoided copy lowers peak
    memory by its full size; below it, skipping the copy measured worse,
    because it changed which freed heap memory the allocator kept.
    """
    A = np.asarray(M, dtype=float)
    if A.nbytes < _IN_PLACE_BYTES or not A.flags.writeable:
        A = A.copy()
    base = A.diagonal().copy()
    jitter = _JITTER_START
    try:
        while jitter <= _JITTER_LIMIT * (1 + 1e-12):
            np.fill_diagonal(A, base + jitter)
            try:
                return np.linalg.cholesky(A)
            except np.linalg.LinAlgError:
                jitter *= 10.0
    finally:
        np.fill_diagonal(A, base)
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

    Coordinate spaces use the kernel covariance directly.  Matrix spaces embed
    the metric through the centered Gram transform ``(d(0,i)^2 + d(0,j)^2 -
    d(i,j)^2) / 2``, built in one n×n buffer, which reproduces the distances
    exactly whenever the metric is of negative type.  Returns an array of
    shape (n_paths, n); more than ``DENSE_LIMIT ** 2`` values (512 MiB) is a
    CapacityError, raised before anything is built.
    """
    if n_paths * space.n > DENSE_LIMIT ** 2:
        raise CapacityError(f"{n_paths} paths over {space.n} points exceed the "
                            f"{DENSE_LIMIT ** 2}-value limit of a path draw")
    if kernel is not None and space.coords is not None:
        return _draw(gram(kernel, space.coords), n_paths, seed)
    sq = space.row(0) ** 2
    K = np.add.outer(sq, sq)
    for lo, blk in space.row_blocks(np.arange(space.n)):
        K[lo:lo + len(blk)] -= blk ** 2
    K *= 0.5
    return _draw(K, n_paths, seed)


def information_gain(kernel: Kernel, X, eta2: float) -> float:
    """Half log-determinant of I + K/eta2 over the design X."""
    if not 0 < eta2 < math.inf:
        raise ArgumentError("noise variance must be positive and finite")
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
    if not 0 < eta2 < math.inf:
        raise ArgumentError("noise variance must be positive and finite")
    return 2.0 / math.log1p(1.0 / eta2)


def squared_gaussian_interval(mu: float, sigma: float, s: float) -> tuple[float, float]:
    """Interval (l, u) with P[X^2 outside (l^2, u^2)] < exp(-s^2) for X ~ N(mu, sigma^2)."""
    if not s > 0:
        raise ArgumentError("s must be positive")
    if not sigma >= 0:
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
    if not u > 0:
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
