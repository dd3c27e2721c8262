"""Gaussian process machinery: kernels, prior sampling, information gain.

Provides covariance kernels, the canonical process metric, prior draws
through a lower-triangular factorization with escalating jitter, and the
squared-Gaussian confidence intervals used by the squared-process
optimizer, together with their exact tail probability as an erf-based
oracle for tests.  A canonical space gives :mod:`chainopt.metric` only
its distance formula and its band.  The posterior over a point set
lives in :mod:`chainopt.bandit`.
"""

from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import dataclass

import numpy as np
from scipy.spatial.distance import cdist

from .errors import ArgumentError, NumericError, is_int
from .metric import FiniteMetricSpace, _as_points, _check_budget, _euclidean_pairs, _spans

_JITTER_START = 1e-10
_JITTER_LIMIT = 1e-6

_MATERN_P = {"matern12": 0.5, "matern32": 1.5, "matern52": 2.5}
_KERNEL_SPECS = {fam: {"ls": 1.0, "var": 1.0} for fam in ("se", "ou", *_MATERN_P)}
_KERNEL_SPECS["linear"] = {"var": 1.0}    # a linear kernel has no lengthscale
# A canonical space decides on Euclidean distances within a slack on the computed
# d² of 1e-10 times the variance, thousands of times the few ulps of the variance
# by which that d² can be off.  The bound holds for variances in the range below,
# where the closed forms neither overflow nor lose bits to underflow.
_D2_SLACK = 1e-10
_BAND_VARIANCE = (1e-200, 1e200)
_BAND_GRID = 1024           # intervals of a canonical space's grid of Euclidean distances
_REFINE_STEPS = np.arange(1, 256) / 256    # the finer grid between two of those


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
    if kernel.variance > _BAND_VARIANCE[1]:
        # variance * h would overflow where the covariance is finite; the
        # ordinary order below keeps the bits of every other covariance
        return kernel.variance * (h * np.exp(-d))
    return kernel.variance * h * np.exp(-d)


def _scaled_dist_inplace(kernel: Kernel, r: np.ndarray) -> np.ndarray:
    """Overwrite the C-contiguous distance array r with its covariance; returns r.

    Works through the flattened r in the pieces of :func:`metric._spans` at
    width 1, so the temporaries of the closed forms stay small.  Every
    element goes through the operations of :func:`_scaled_dist`, so a row
    computed alone equals the Gram matrix's row bit for bit.
    """
    flat = r.reshape(-1)
    for lo, hi in _spans(flat.size, 1):
        flat[lo:hi] = _scaled_dist(kernel, flat[lo:hi])
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

    The space keeps the coordinates and the kernel, and no n×n array: every
    read computes its entries from the kernel rows as ``(k(x,x) + k(y,y)) -
    2k(x,y)``, clipped at 0, under a square root, with the same bits for
    any choice of rows and columns.  A space on which some distance is not
    finite is refused when it is built.
    """
    return _CanonicalSpace(kernel, _as_points(coords))


def _canonical(k: np.ndarray, di, dj) -> np.ndarray:
    """``sqrt(max((di + dj) - 2k, 0))`` elementwise, in a new array; k is overwritten."""
    d = di + dj
    k *= 2.0
    d -= k
    np.maximum(d, 0.0, out=d)
    return np.sqrt(d, out=d)


class _CanonicalSpace(FiniteMetricSpace):
    """The canonical metric of ``kernel`` over an (n, D) coordinate array.

    It keeps the coordinates, the kernel and its diagonal.  Reads compute
    the distances they return from :func:`_kernel_rows` (:meth:`_rows`) or
    the same operations on paired points (:meth:`_pairs`).

    For a stationary kernel the distance is g(r) for the Euclidean distance
    r, with g nondecreasing.  The computed d² = (v + v) - 2k(r), for the
    variance v, differs from the exact value of that expression at the same
    float r by a few ulps of v, far below the slack ``_D2_SLACK * v``.  So
    a Euclidean distance whose computed d² is at most eps² less the slack
    bounds every shorter pair within eps, and one whose computed d² is at
    least eps² plus the slack bounds every longer pair out of it
    (:meth:`_band`).  The base class decides on the Euclidean distances
    through that band, as it does for a coordinate space, reading the exact
    distance only between its bounds.  The linear kernel, whose diagonal
    varies, and variances outside ``_BAND_VARIANCE`` have no bounds: every
    pair is decided by its exact distance.
    """

    def __init__(self, kernel: Kernel, coords: np.ndarray):
        self._kernel = kernel
        lo, hi = _BAND_VARIANCE
        self._banded = kernel.family != "linear" and lo <= kernel.variance <= hi
        # a distance that overflows is refused when the diameter is found, not warned about
        with np.errstate(over="ignore", invalid="ignore"):
            self._kdiag = _kernel_diag(kernel, coords)
            super().__init__(coords=coords, matrix=None)

    def _rows(self, ids: np.ndarray, cols: np.ndarray | None) -> np.ndarray:
        x, diag = self._coords, self._kdiag
        xc, dc = (x, diag) if cols is None else (x[cols], diag[cols])
        return _canonical(_kernel_rows(self._kernel, x[ids], xc), diag[ids, None], dc)

    def _pairs(self, i: np.ndarray, j: np.ndarray) -> np.ndarray:
        x, kernel = self._coords, self._kernel
        if kernel.family == "linear":
            k = _inner(x[i], x[j])
            k *= kernel.variance
        else:
            k = _scaled_dist(kernel, _euclidean_pairs(x, i, j))
        return _canonical(k, self._kdiag[i], self._kdiag[j])

    def _d2(self, r: np.ndarray) -> np.ndarray:
        """The clipped d² that a read computes at Euclidean distances r (stationary kernels)."""
        v = self._kernel.variance
        return np.maximum((v + v) - 2.0 * _scaled_dist(self._kernel, r), 0.0)

    def _set_up_band(self, rmax: float) -> None:
        """The grid of Euclidean distances from 0 to the finite ``rmax`` and its d²,
        which :meth:`_band` reads, and ``_d_sup = sqrt(v + v)``, the largest value g
        takes."""
        if self._banded:
            self._d_sup = math.sqrt(2.0 * self._kernel.variance)
            self._grid = np.linspace(0.0, rmax, _BAND_GRID + 1)
            self._grid_d2 = self._d2(self._grid)

    def _band(self, eps: float) -> tuple[float, float]:
        if not self._banded:
            return -math.inf, math.inf
        if eps >= self._d_sup:
            return math.inf, math.inf
        t, slack = eps * eps, _D2_SLACK * self._kernel.variance
        return (self._edge(lambda d2: d2 <= t - slack, last=True),
                self._edge(lambda d2: d2 >= t + slack, last=False))

    def _edge(self, ok, last: bool) -> float:
        """A Euclidean distance whose computed d² passes ``ok``: the last (or first) such
        point of the cached grid, moved as far toward its failing neighbour as a finer
        grid between the two allows; -inf (or inf) where no grid point passes.  Any
        passing point is a valid bound, since the exact d² never decreases in r."""
        r = self._grid
        hit = np.flatnonzero(ok(self._grid_d2))
        if not hit.size:
            return -math.inf if last else math.inf
        k = int(hit[-1] if last else hit[0])
        other = min(k + 1, len(r) - 1) if last else max(k - 1, 0)
        fine = r[k] + (r[other] - r[k]) * _REFINE_STEPS
        hit = np.flatnonzero(ok(self._d2(fine)))
        return float(fine[hit[-1]] if hit.size else r[k])


def _not_positive_definite(err, flag):
    raise np.linalg.LinAlgError("Matrix is not positive definite")


def _cholesky_in_place(A: np.ndarray) -> np.ndarray:
    """Overwrite the float64 matrix A with its lower-triangular factor; returns A.

    numpy's own Cholesky gufunc, the one behind ``np.linalg.cholesky``, writing
    into A: the same bits, with numpy's work copy as the only other n×n array.
    A matrix that is not positive definite raises ``LinAlgError`` and leaves A
    filled with NaN.
    """
    with np.errstate(call=_not_positive_definite, invalid="call",
                     over="ignore", divide="ignore", under="ignore"):
        return np.linalg._umath_linalg.cholesky_lo(A, out=A, signature="d->d")


def chol_with_jitter(build: Callable[[], np.ndarray]) -> np.ndarray:
    """Lower-triangular factor of M + jitter I, the smallest jitter that works.

    ``build()`` returns a fresh writable float64 matrix M; it is called once
    per attempt, because each attempt factors its matrix in that matrix's own
    buffer and a failed attempt leaves it filled with NaN.  The failed buffer
    is dropped before the next is built, so an attempt holds M and numpy's
    work copy of it and nothing else n×n.

    The jitter starts at 1e-10 and grows tenfold per failure up to 1e-6.
    There is no unjittered attempt: it always fails on the centered Gram
    matrix of a matrix space (whose first row is zero) and on the
    squared-exponential Gram matrix of a fine grid, so it would cost one
    wasted factorization per draw.
    """
    jitter = _JITTER_START
    while jitter <= _JITTER_LIMIT * (1 + 1e-12):
        A = build()
        np.fill_diagonal(A, A.diagonal() + jitter)
        try:
            return _cholesky_in_place(A)
        except np.linalg.LinAlgError:
            A = None    # the failed buffer, NaN now, goes before the next is built
            jitter *= 10.0
    raise NumericError(f"factorization failed even with jitter {_JITTER_LIMIT:g}")


def _check_draw(n: int, n_paths: int) -> None:
    """Refuse ``n_paths`` paths over n points, unless a nonnegative integer under the budget."""
    if not is_int(n_paths) or n_paths < 0:
        raise ArgumentError(f"n_paths must be a nonnegative integer, got {n_paths!r}")
    paths = int(n_paths)
    block = next((hi - lo for lo, hi in _spans(paths, n)), 0)   # columns per product
    _check_budget(8 * (2 * n * n + n * (paths + block)), f"{n_paths} paths over {n} points")


def _draw(build: Callable[[], np.ndarray], n_paths: int, seed) -> np.ndarray:
    """``n_paths`` centered Gaussian draws with covariance ``build()``, shape (n_paths, n).

    The covariance is factored in its own buffer by :func:`chol_with_jitter`,
    which calls ``build`` once per attempt.  The normals are drawn as one
    (n, n_paths) array and overwritten by ``L @ z`` one ``_spans`` block of
    columns at a time, so the product never holds a second array of the
    normals' size.  A draw inside one block is one product.
    """
    L = chol_with_jitter(build)
    z = np.random.default_rng(seed).standard_normal((L.shape[0], n_paths))
    for lo, hi in _spans(n_paths, L.shape[0]):
        z[:, lo:hi] = L @ z[:, lo:hi]
    return z.T


def sample_prior(kernel: Kernel, coords, seed) -> np.ndarray:
    """One centered prior draw over the coordinate set; deterministic per seed."""
    X = _as_points(coords)
    _check_draw(X.shape[0], 1)
    return _draw(lambda: gram(kernel, X), 1, seed)[0]


def _centered_gram(space: FiniteMetricSpace) -> np.ndarray:
    """``(d(0,i)^2 + d(0,j)^2 - d(i,j)^2) / 2`` over the space, in one n×n buffer."""
    sq = space.row(0) ** 2
    K = np.add.outer(sq, sq)
    for lo, blk in space.row_blocks(np.arange(space.n)):
        K[lo:lo + len(blk)] -= blk ** 2
    K *= 0.5
    return K


def sample_paths(space: FiniteMetricSpace, kernel: Kernel | None,
                 n_paths: int, seed) -> np.ndarray:
    """Draw centered process paths whose increments match the space's metric.

    Coordinate spaces use the kernel covariance directly.  Matrix spaces embed
    the metric through the centered Gram transform ``(d(0,i)^2 + d(0,j)^2 -
    d(i,j)^2) / 2``, built in one n×n buffer, which reproduces the distances
    exactly whenever the metric is of negative type.  Either matrix is
    factored in its own buffer.  Returns an array of shape (n_paths, n).  A
    draw whose ``8 (2 n^2 + n n_paths + n w)`` bytes (the matrix, which
    becomes its factor, numpy's Cholesky work copy, the normals, and the
    product of one block of w columns, the first :func:`metric._spans` width,
    which is written back into the normals) are over the byte budget is a
    CapacityError, raised before anything is built.
    """
    _check_draw(space.n, n_paths)
    if kernel is not None and space.coords is not None:
        return _draw(lambda: gram(kernel, space.coords), n_paths, seed)
    return _draw(lambda: _centered_gram(space), n_paths, seed)


def information_gain(kernel: Kernel, X, eta2: float) -> float:
    """Half log-determinant of I + K/eta2 over the design X of t points.

    Counted bytes, checked before the Gram matrix is built: ``16 t²``, for the
    Gram matrix, which becomes I + K/eta2 and then its own factor in place, and
    numpy's Cholesky work copy of it."""
    if not 0 < eta2 < math.inf:
        raise ArgumentError("noise variance must be positive and finite")
    if np.asarray(X).size == 0:
        return 0.0
    X = _as_points(X)
    t = X.shape[0]
    _check_budget(16 * t * t, f"the information gain of {t} points")
    K = gram(kernel, X)
    K /= eta2
    np.fill_diagonal(K, K.diagonal() + 1.0)
    try:
        L = _cholesky_in_place(K)
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


def squared_gp_bounds(mu, sigma, u: float, n_processes: int):
    """Squared confidence interval (L, U) for one channel at joint level u.

    Folds the union bound over the ``n_processes`` channels into the level,
    so the joint event over all channels fails with probability below
    ``exp(-u)``: the interval of :func:`squared_gaussian_interval` at
    ``s = sqrt(u + log n_processes)``, squared.  ``mu`` and ``sigma`` may be
    arrays that broadcast together; L and U then have their shape.
    """
    if not u > 0:
        raise ArgumentError("u must be positive")
    if n_processes < 1:
        raise ArgumentError("n_processes must be at least 1")
    if not np.all(np.greater_equal(sigma, 0.0)):
        raise ArgumentError("sigma must be nonnegative")
    spread = math.sqrt(2.0 * (u + math.log(n_processes))) * sigma
    mu = np.abs(mu)
    return np.clip(mu - spread, 0.0, None) ** 2, (mu + spread) ** 2
