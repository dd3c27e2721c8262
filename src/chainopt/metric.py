"""Finite pseudo-metric spaces and epsilon-cover construction.

A space is a set of points 0..n-1 together with a pseudo-metric, given
either as an explicit distance matrix or as coordinate vectors under the
Euclidean metric; :mod:`chainopt.gp` adds the canonical (kernel) spaces,
whose distances it computes from coordinates and a covariance kernel.
A space read from coordinates stores no distance matrix at any size.  It
supplies its distance formula (a coordinate space's gives the bits of
``cdist(coords, coords)``) and its band: the Euclidean distances within
rounding of an eps-ball's edge, empty for a coordinate space.  One path
decides the cover balls, the diameter and the smallest positive distance
of every such space on Euclidean distances, and reads the formula only
in the band.  The diameter's candidate ends come from the triangle
inequality through one central row; the smallest positive distance is
proposed by a k-d tree.

Covers come in three flavours:

* ``greedy_cover`` - the heuristic that repeatedly grabs the point whose
  epsilon-ball covers the most remaining points.  Its ball is neighbour
  lists from a k-d tree where a sampled density says the ball is sparse,
  and an m×m boolean array otherwise; both give the same cover;
* ``brute_force_min_cover`` - an exhaustive minimum-cardinality oracle,
  capped at 20 points, intended for tests;
* ``sample_cover_compact`` - reduction from a compact domain to the
  finite case by i.i.d. uniform sampling.

One size rule serves every call that allocates something quadratic in its inputs:
it counts its bytes from shapes and passes them to :func:`_check_budget` first.  One
block rule cuts every piece of work in every module: :func:`_spans`.
"""

from __future__ import annotations

import array
import itertools
import math
import re
from dataclasses import dataclass
from decimal import Decimal
from typing import Callable, Iterable, Sequence

import numpy as np
from scipy.spatial import cKDTree
from scipy.spatial.distance import cdist

from .errors import ArgumentError, CapacityError, ParseError, is_int

_TRIANGLE_FULL_LIMIT = 64    # exhaustive triangle check below, sampled above
_TRIANGLE_SAMPLES = 10_000
_SYMMETRY_RTOL = 1e-12
_TRIANGLE_SLACK = 1e-9       # relative slack for floating-point distances
# Below this a computed distance may have lost bits to underflow, which no
# relative slack covers; the coordinate-space bounds then scan every pair.
_UNDERFLOW_SAFE = 1e-100
_BLOCK_BYTES = 1 << 20       # bytes per block where a large array is worked through in pieces
# The most bytes one call may hold at once in arrays that grow with its inputs
_BUDGET_BYTES = 1 << 30
# A cover's ball is built as neighbour lists from a k-d tree when it has at
# least _SPARSE_MIN points and, on _DENSITY_ROWS evenly spaced rows, fewer
# than _SPARSE_DENSITY of the pairs are k-d candidates; otherwise it is the
# m×m boolean array.  _PAIR_BYTES is what one candidate pair costs the lists:
# the k-d pair (16 bytes), its distance (8), and its two list entries with
# their sort keys and order (48).
_SPARSE_MIN = 512
_SPARSE_DENSITY = 0.02
_DENSITY_ROWS = 32
_PAIR_BYTES = 72


class FiniteMetricSpace:
    """Points ``0..n-1`` with a pseudo-metric and a cached diameter.

    Construct through :meth:`from_coordinates` or
    :meth:`from_distance_matrix` (or :func:`chainopt.gp.canonical_metric_space`
    for a kernel's canonical metric).  A matrix space keeps its checked
    matrix, which is checked against the pseudo-metric axioms: finite
    entries, zero diagonal, symmetry, nonnegativity and the triangle
    inequality (exhaustive for n <= 64, on 10 000 random triples beyond).
    A coordinate space keeps only its coordinates, a 1-D or 2-D finite
    array, at any number of points: each read computes the requested
    distances with ``scipy.spatial.distance.cdist`` (paired reads sum the
    squared differences one dimension at a time, then take the square
    root), so every read gives the bits of ``cdist(coords, coords)``
    without holding the n×n matrix.  Its balls, diameter and
    :meth:`min_positive` are those of the n² scan, decided on Euclidean
    distances by the one path of every space read from coordinates: a
    subclass supplies only its formula (:meth:`_rows`, :meth:`_pairs`) and
    its :meth:`_band` (set up by :meth:`_set_up_band`).  A space with a
    non-finite distance is refused when it is built.
    :meth:`from_distance_matrix` copies the matrix it is given, so later
    writes by the caller do not reach the space.  Instances are immutable
    once built and safe for concurrent readers.
    """

    def __init__(self, *, coords: np.ndarray | None, matrix: np.ndarray | None):
        if (coords is None) == (matrix is None):
            raise ArgumentError("need exactly one of coordinates and a distance matrix")
        self._coords = None if coords is None else _as_points(coords)
        n = matrix.shape[0] if matrix is not None else self._coords.shape[0]
        if n < 1:
            raise ArgumentError("space must contain at least one point")
        self.n = int(n)
        if matrix is not None:
            matrix = np.asarray(matrix, dtype=float)
            if matrix.shape != (n, n):
                raise ArgumentError(f"distance matrix must be square, got {matrix.shape}")
            self._dist = _checked_metric(matrix)
            self._diameter = float(self._dist.max())
        else:
            self._dist = None  # distances computed from coordinates on request
            self._diameter = self._coordinate_diameter()

    # -- constructors ------------------------------------------------------

    @classmethod
    def from_coordinates(cls, coords) -> "FiniteMetricSpace":
        """Build a space from coordinate vectors with the Euclidean metric."""
        return cls(coords=coords, matrix=None)

    @classmethod
    def from_distance_matrix(cls, matrix) -> "FiniteMetricSpace":
        """Build a space from an explicit n-by-n distance matrix, which it copies.

        The space holds no coordinates: ``coords`` is None exactly on a
        stored matrix.
        """
        return cls(coords=None, matrix=np.array(matrix, dtype=float, order="C"))

    # -- geometry ----------------------------------------------------------

    @property
    def coords(self) -> np.ndarray | None:
        return self._coords

    @property
    def diameter(self) -> float:
        return self._diameter

    def row(self, i: int) -> np.ndarray:
        """Distances from point ``i`` to every point."""
        return self.rows([i])[0]

    def rows(self, ids: Sequence[int] | np.ndarray,
             cols: Sequence[int] | np.ndarray | None = None) -> np.ndarray:
        """Distances from the point ids ``ids`` (rows) to ``cols`` (columns; default every point).

        On a stored matrix, the whole rows of one ascending run of ids are a
        read-only view of the matrix; every other read is a fresh array.
        """
        return self._rows(_point_ids(ids, self.n),
                          None if cols is None else _point_ids(cols, self.n))

    def _rows(self, ids: np.ndarray, cols: np.ndarray | None) -> np.ndarray:
        if self._dist is None:
            return cdist(self._coords[ids], self._coords if cols is None else self._coords[cols])
        if ids.size and np.all(np.diff(ids) == 1):
            block = self._dist[int(ids[0]):int(ids[-1]) + 1]
            block.flags.writeable = False
        else:
            block = self._dist[ids]
        return block if cols is None else np.take(block, cols, axis=1)

    def row_blocks(self, ids: Sequence[int] | np.ndarray,
                   cols: Sequence[int] | np.ndarray | None = None):
        """Yield ``(start, rows(ids[start:stop], cols))`` over ``ids`` in blocks of about 1 MiB.

        A block holds about 1 MiB of what it reads: the requested columns of
        a coordinate space, or the whole rows of a stored matrix plus, when
        ``cols`` is given, the copy of those columns.
        """
        ids = _point_ids(ids, self.n)
        cols = None if cols is None else _point_ids(cols, self.n)
        width = self.n if cols is None else len(cols)
        if self._dist is not None and cols is not None:
            width += self.n                  # the whole rows the columns are taken from
        for lo, hi in _spans(len(ids), width):
            yield lo, self._rows(ids[lo:hi], cols)

    def _fill_ball(self, ids: np.ndarray, eps: float, out: np.ndarray) -> None:
        """Write ``pairwise(ids) <= eps`` into the boolean m×m ``out``, a row block at a time.

        A stored matrix compares its rows; a space read from coordinates
        compares Euclidean distances against its :meth:`_band` and reads
        exact distances only inside it, never on a coordinate space.
        """
        if self._dist is not None:
            for lo, blk in self.row_blocks(ids, ids):
                np.less_equal(blk, eps, out=out[lo:lo + len(blk)])
            return
        r_in, r_out = self._band(eps)
        for lo, r in _cdist_blocks(self._coords, ids, ids):
            ball = out[lo:lo + len(r)]
            np.less_equal(r, r_in, out=ball)
            if r_out > r_in:
                band = (r <= r_out) & ~ball
                if band.any():
                    ball[band] = self._exact(ids[lo:lo + len(r)], ids, band) <= eps

    def _exact(self, rows: np.ndarray, cols: np.ndarray, mask: np.ndarray) -> np.ndarray:
        """The distances at the true entries of ``mask`` over rows × cols, in C order."""
        if mask.all():
            return self._rows(rows, cols).ravel()
        i, j = np.nonzero(mask)
        return self._pairs(rows[i], cols[j])

    def _ball_lists(self, ids: np.ndarray, eps: float) -> tuple[np.ndarray, np.ndarray] | None:
        """``pairwise(ids) <= eps`` as neighbour lists, or None where the dense ball is faster.

        Returns ``(start, nbr)``: the positions in ``ids`` within ``eps`` of
        position ``k`` are ``nbr[start[k]:start[k + 1]]``, ``k`` itself
        included.  Lists are built for a space read from coordinates whose
        :meth:`_band` has a finite ``r_out`` of at least ``_UNDERFLOW_SAFE``,
        when ``ids`` holds at least ``_SPARSE_MIN`` points and fewer than
        ``_SPARSE_DENSITY`` of the pairs from ``_DENSITY_ROWS`` evenly spaced
        rows to every point have a Euclidean distance of at most ``r_out``.
        A k-d tree proposes the pairs within ``r_out`` plus ``1e-9`` relative
        slack; each is decided as :meth:`_fill_ball` decides it, on the bits
        of ``cdist`` against ``r_in`` and by the exact distance between
        ``r_in`` and ``r_out``.  The lists' estimated size is checked against
        the byte budget before they are built.
        """
        m = len(ids)
        if self._dist is not None or m < _SPARSE_MIN:
            return None
        r_in, r_out = self._band(eps)
        if not _UNDERFLOW_SAFE <= r_out < math.inf:
            return None
        x = self._coords
        rows = ids[np.linspace(0, m - 1, _DENSITY_ROWS).astype(int)]
        density = np.count_nonzero(cdist(x[rows], x[ids]) <= r_out) / (len(rows) * m)
        if density >= _SPARSE_DENSITY:
            return None
        _check_budget(density * m * m / 2 * _PAIR_BYTES, f"a sparse ball over {m} points")
        pairs = cKDTree(x[ids]).query_pairs(r_out * (1 + _TRIANGLE_SLACK), output_type="ndarray")
        a, b = pairs[:, 0], pairs[:, 1]
        r = _euclidean_pairs(x, ids[a], ids[b])
        keep = r <= r_in
        band = np.flatnonzero(~keep & (r <= r_out))
        if band.size:
            keep[band] = self._pairs(ids[a[band]], ids[b[band]]) <= eps
        a, b, own = a[keep], b[keep], np.arange(m)
        src = np.concatenate((own, a, b))
        nbr = np.concatenate((own, b, a))[np.argsort(src, kind="stable")]
        start = np.zeros(m + 1, dtype=np.int64)
        np.cumsum(np.bincount(src, minlength=m), out=start[1:])
        return start, nbr

    def distance(self, i: int, j: int) -> float:
        """Pseudo-metric distance ``d(i, j)``, as :meth:`row` gives it."""
        return float(self.distances([i], [j])[0])

    def pairwise(self, ids: Sequence[int] | np.ndarray,
                 others: Sequence[int] | np.ndarray | None = None) -> np.ndarray:
        """Distances from the given point ids (rows) to ``others`` (columns; default ``ids``)."""
        ids = _point_ids(ids, self.n)
        return self._rows(ids, ids if others is None else _point_ids(others, self.n))

    def min_positive(self, rows: Sequence[int] | np.ndarray,
                     cols: Sequence[int] | np.ndarray | None = None) -> float:
        """Smallest positive distance from the points ``rows`` to ``cols`` (default every
        point), as a scan of their :meth:`rows` block finds it; inf if there is none.

        A stored matrix is scanned in row blocks.  A space read from
        coordinates reads one point of each distinct coordinate row, and a
        k-d tree over the column points proposes: ``est`` is the smallest
        positive exact distance from a row point to its nearest column point
        at a positive Euclidean distance.  The exact distances then decide
        over every pair whose Euclidean distance is within ``1e-9`` relative
        slack of the largest one that :meth:`_band` leaves possible for a
        distance of at most ``est``; the pair that attains the scan's
        minimum is among them.  Where there is no such bound, or it is small
        enough for underflow to matter, the distinct points are scanned
        instead.
        """
        rows = _point_ids(rows, self.n)
        cols = None if cols is None else _point_ids(cols, self.n)
        if not rows.size or (cols is not None and not cols.size):
            return math.inf
        if self._dist is None:
            x = self._coords
            if not x.shape[1]:                   # no coordinate: every distance is 0
                return math.inf
            every = np.arange(self.n) if cols is None else cols
            cols = _distinct(x, every)
            rows = cols if np.array_equal(rows, every) else _distinct(x, rows)
            col_tree = cKDTree(x[cols])
            near, at = col_tree.query(x[rows], k=2)
            first = (near[:, 0] == 0).astype(int)     # a duplicate of the row point comes first
            near, at = near[np.arange(len(rows)), first], at[np.arange(len(rows)), first]
            ok = np.isfinite(near)
            d = self._pairs(rows[ok], cols[at[ok]])
            est = float(np.min(d, where=d > 0, initial=math.inf))
            reach = self._band(est)[1] if est < math.inf else math.inf
            if _UNDERFLOW_SAFE <= reach < math.inf:
                row_tree = col_tree if rows is cols else cKDTree(x[rows])
                pairs = row_tree.sparse_distance_matrix(
                    col_tree, reach * (1 + _TRIANGLE_SLACK), output_type="ndarray")
                d = self._pairs(rows[pairs["i"]], cols[pairs["j"]])
                return float(np.min(d, where=d > 0, initial=math.inf))
        best = math.inf
        for _, blk in self.row_blocks(rows, cols):
            best = min(best, float(np.min(blk, where=blk > 0, initial=math.inf)))
        return best

    def _band(self, eps: float) -> tuple[float, float]:
        """``(r_in, r_out)``: a pair whose Euclidean distance (the bits of ``cdist``) is
        at most ``r_in`` is within ``eps``, one whose Euclidean distance exceeds
        ``r_out`` is not; between the two only the exact distance decides.  A
        coordinate space's distance is the Euclidean one, so both are ``eps``."""
        return eps, eps

    def _set_up_band(self, rmax: float) -> None:
        """Set up what :meth:`_band` reads from the finite Euclidean diameter ``rmax``."""

    def _coordinate_diameter(self) -> float:
        """The largest distance, which is also the check that every distance is finite.

        The Euclidean diameter ``rmax`` comes first, over the candidate ends
        that :func:`_far_ends` keeps for ``lb``, a distance that some pair
        attains, through the exact row ``r`` of the point c nearest the middle
        of the bounding box; one that overflows is refused before
        :meth:`_set_up_band`, whatever the formula.  The exact distance ``top``
        of the pair that attains ``rmax`` is the diameter unless some Euclidean
        distance exceeds ``_band(top)``'s ``r_in``; those pairs are read
        exactly.  Where there is a band the distance never decreases in the
        Euclidean one, so the farthest pair is finite only if every pair is;
        without one every pair is read.
        """
        x = self._coords
        mid = x.min(axis=0) / 2 + x.max(axis=0) / 2
        c = int(np.argmin(cdist(mid[None, :], x)[0]))
        r = cdist(x[c:c + 1], x)[0]
        lb = float(cdist(x[[np.argmax(r)]], x).max())
        ends = _far_ends(r, lb)
        rmax, pair = -math.inf, None
        for lo, blk in _cdist_blocks(x, ends, ends):
            k = int(np.argmax(blk))
            if blk.flat[k] > rmax:
                rmax = float(blk.flat[k])
                pair = ends[[lo + k // len(ends), k % len(ends)]]
        _check_finite("distance", np.array([rmax]))
        self._set_up_band(rmax)
        top = self._pairs(pair[:1], pair[1:])
        _check_finite("distance", top)
        best = float(top[0])
        r_in = self._band(best)[0]
        if r_in >= rmax:
            return best
        ends = _far_ends(r, r_in)
        for lo, blk in _cdist_blocks(x, ends, ends):
            far = blk > r_in
            if far.any():
                d = self._exact(ends[lo:lo + len(blk)], ends, far)
                _check_finite("distance", d)
                best = max(best, float(d.max()))
        return best

    def distances(self, i: Sequence[int] | np.ndarray,
                  j: Sequence[int] | np.ndarray) -> np.ndarray:
        """Distances ``d(i[k], j[k])`` between paired point ids, as :meth:`row` gives them;
        one id on either side pairs with every id on the other."""
        i, j = _point_ids(i, self.n), _point_ids(j, self.n)
        if i.size != j.size and 1 not in (i.size, j.size):
            raise ArgumentError(f"cannot pair {i.size} point ids with {j.size}")
        return self._pairs(i, j)

    def _pairs(self, i: np.ndarray, j: np.ndarray) -> np.ndarray:
        """:meth:`distances` of checked point ids."""
        if self._dist is not None:
            return self._dist[i, j]
        return _euclidean_pairs(self._coords, i, j)


def _spans(count: int, width: int, budget: bool = False):
    """Slices ``(lo, hi)`` of ``count`` rows of ``width`` floats, each as many rows as
    ``_BLOCK_BYTES`` holds (the whole ``_BUDGET_BYTES`` with ``budget``), but at least one."""
    step = max(1, (_BUDGET_BYTES if budget else _BLOCK_BYTES) // (8 * max(1, width)))
    return ((lo, min(lo + step, count)) for lo in range(0, count, step))


def _check_budget(nbytes: float, what: str) -> None:
    """A CapacityError naming ``what`` when ``nbytes``, a call's total, is over the budget."""
    if nbytes > _BUDGET_BYTES:
        raise CapacityError(f"{what} needs about {Decimal(nbytes):.3g} bytes, over the "
                            f"{_BUDGET_BYTES}-byte limit of one call")


def _gathered(start: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """The positions ``start[k]:start[k + 1]`` for every k in the non-empty ``rows``, in turn."""
    lo = start[rows]
    size = start[rows + 1] - lo
    ends = np.cumsum(size)
    return np.repeat(lo - (ends - size), size) + np.arange(ends[-1])


def _cdist_blocks(x: np.ndarray, ids: np.ndarray, cols: np.ndarray):
    """Yield ``(start, cdist(x[ids[start:stop]], x[cols]))`` in blocks of about 1 MiB."""
    for lo, hi in _spans(len(ids), len(cols)):
        yield lo, cdist(x[ids[lo:hi]], x[cols])


def _euclidean_pairs(x: np.ndarray, i: np.ndarray, j: np.ndarray) -> np.ndarray:
    """``cdist``'s bits for the paired rows ``x[i]``, ``x[j]``: squares summed one
    dimension at a time, in ``cdist``'s order, then the square root."""
    diff = x[i] - x[j]
    sq = np.zeros(diff.shape[:-1])
    for k in range(diff.shape[-1]):
        sq += diff[..., k] * diff[..., k]
    return np.sqrt(sq)


def _far_ends(r: np.ndarray, bound: float) -> np.ndarray:
    """The points that can end a pair longer than ``bound``, from the row ``r`` of one point.

    Since d(i, j) <= r[i] + max(r), such a pair has both ends among the
    points with ``r[i] + max(r) >= bound``, less a 1e-9 relative slack for
    rounding.  Every point is kept where ``bound`` is not finite, or small
    enough for underflow to matter.
    """
    if _UNDERFLOW_SAFE <= bound < math.inf:
        return np.flatnonzero(r + r.max() >= bound * (1 - _TRIANGLE_SLACK))
    return np.arange(len(r))


def _point_ids(ids, n: int) -> np.ndarray:
    """``ids`` (one id, an ndarray checked as it is, or any iterable, listed once) as a 1-D
    integer array; an ArgumentError for a non-integer id (bool included), more than one
    dimension or an id outside ``0..n-1``.  An object array passes when every element is
    an integer.  An empty sequence, of whatever dtype, has no ids."""
    if not isinstance(ids, np.ndarray) and np.iterable(ids):
        ids = list(ids)
        if any(isinstance(k, (bool, np.bool_)) for k in ids):
            ids = np.array(ids, dtype=object)    # numpy would read a bool among ints as 0 or 1
    try:
        arr = np.atleast_1d(ids)
    except ValueError:
        raise ArgumentError("point ids must be one id or a 1-D sequence, "
                            "got sequences of unequal lengths") from None
    if arr.ndim > 1:
        raise ArgumentError(f"point ids must be one id or a 1-D sequence, "
                            f"got {arr.ndim} dimensions")
    if arr.size == 0:
        return arr.astype(int)
    if arr.dtype.kind not in "iu":           # signed or unsigned integers
        bad = [k for k in arr.tolist() if not is_int(k)]
        if bad:                              # else an object array of integers
            raise ArgumentError(f"point id {bad[0]!r} out of range for n={n}: "
                                f"ids must be integers")
    lo, hi = arr.min(), arr.max()
    if lo < 0 or hi >= n:
        raise ArgumentError(f"point id {lo if lo < 0 else hi} out of range for n={n}")
    return arr.astype(int, copy=False)


def _distinct(coords: np.ndarray, ids: np.ndarray) -> np.ndarray:
    """One of ``ids`` per distinct coordinate row (``coords`` has at least one column)."""
    x = coords[ids]
    order = np.lexsort(x.T)                  # equal rows end up next to each other
    x = x[order]
    first = np.ones(len(ids), dtype=bool)
    first[1:] = np.any(x[1:] != x[:-1], axis=1)
    return ids[order[first]]


def _as_points(X) -> np.ndarray:
    """Coerce to a finite (n, D) coordinate array; 1-D input means n scalar points."""
    X = np.asarray(X, dtype=float)
    if X.ndim == 1:
        X = X[:, None]
    elif X.ndim != 2:
        raise ArgumentError(f"coordinates must be 1-D or 2-D, got shape {X.shape}")
    _check_finite("coordinate", X)
    return X


def _check_finite(what: str, arr: np.ndarray) -> None:
    if not np.all(np.isfinite(arr)):
        bad = arr[~np.isfinite(arr)][0]
        raise ArgumentError(f"every {what} must be finite, found {bad}")


def _checked_metric(d: np.ndarray) -> np.ndarray:
    """Check a square matrix against the pseudo-metric axioms.

    Returns the matrix, made exactly symmetric in place (by averaging it
    with its transpose) when it was symmetric only up to rounding.
    """
    _check_finite("distance", d)
    if np.any(np.abs(np.diag(d)) > 0):
        raise ArgumentError("d(i,i) must be zero for every point")
    n, b = d.shape[0], 256                   # tile against transposed tile stays in cache
    tiles = [(slice(i, i + b), slice(j, j + b)) for i in range(0, n, b) for j in range(i, n, b)]
    if not all(np.array_equal(d[r, c], d[c, r].T) for r, c in tiles):
        tol = _SYMMETRY_RTOL * max(float(d.max()), -float(d.min()), 1.0)
        if not all(np.allclose(d[r, c], d[c, r].T, rtol=_SYMMETRY_RTOL, atol=tol)
                   and np.allclose(d[c, r].T, d[r, c], rtol=_SYMMETRY_RTOL, atol=tol)
                   for r, c in tiles):
            raise ArgumentError("distance matrix is not symmetric")
        for r, c in tiles:                   # the bits of 0.5 * (d + d.T)
            d[r, c] = 0.5 * (d[r, c] + d[c, r].T)
            d[c, r] = d[r, c].T
    if np.any(d < 0):
        raise ArgumentError("distances must be nonnegative")
    if n <= 2:
        return d
    slack = _TRIANGLE_SLACK * max(float(d.max()), 1.0)
    if n <= _TRIANGLE_FULL_LIMIT:
        for i in range(n):                        # one n×n array at a time, not n×n×n
            bad = np.argwhere(d[i, None, :] > d[i, :, None] + d + slack)   # d(i,k) > d(i,j)+d(j,k)
            if bad.size:
                j, k = bad[0]
                raise ArgumentError(f"triangle inequality violated on ({i},{j},{k})")
    else:
        i, j, k = np.random.default_rng(0).integers(0, n, size=(_TRIANGLE_SAMPLES, 3)).T
        bad = np.flatnonzero(d[i, k] > d[i, j] + d[j, k] + slack)
        if bad.size:
            b = bad[0]
            raise ArgumentError(f"triangle inequality violated on ({i[b]},{j[b]},{k[b]})")
    return d


@dataclass(frozen=True)
class CoverResult:
    """An epsilon-cover: centers in selection order plus the assignment map.

    ``covered_map[p]`` is the id of a center within ``radius`` of point
    ``p``, for every point the cover was asked to cover.
    """

    centers: tuple[int, ...]
    radius: float
    covered_map: dict[int, int]

    def __len__(self) -> int:
        return len(self.centers)


def greedy_cover(space: FiniteMetricSpace, epsilon: float,
                 subset: Iterable[int] | None = None) -> CoverResult:
    """Greedy epsilon-cover of ``subset`` (default: the whole space).

    Repeatedly selects the point whose closed epsilon-ball intersects the
    most not-yet-covered points, then removes that ball.  Ties break toward
    the smallest point id, which makes the construction deterministic.
    Candidates are restricted to the not-yet-covered points themselves, so
    the result is both a cover and (strictly) epsilon-separated.

    The ball is held one of two ways, with the same booleans and so the
    same cover.  Where it is sparse it is neighbour lists from a k-d tree
    (:meth:`FiniteMetricSpace._ball_lists`); otherwise it is an m×m boolean
    array that the space fills a row block of about 1 MiB of distances at
    a time.  Each step takes from every ball's count of uncovered points
    the points it shares with the chosen ball: a sum of the members' rows
    of the array, or a ``bincount`` over the members' lists.  A ball over
    the byte budget raises a CapacityError before it is allocated.
    """
    if not epsilon > 0:
        raise ArgumentError("epsilon must be positive")
    ids = (np.arange(space.n) if subset is None
           else np.unique(_point_ids(subset, space.n)))
    if ids.size == 0:
        raise ArgumentError("subset must be non-empty")

    m = ids.size
    lists = space._ball_lists(ids, epsilon)
    if lists is None:
        _check_budget(m * m, f"the ball of a cover of {m} points")
        ball = np.empty((m, m), dtype=bool)
        space._fill_ball(ids, epsilon, ball)
        counts = ball.sum(axis=1).astype(np.int64)

        def near(k):
            return np.flatnonzero(ball[k])

        def hits(rows):
            return ball[rows].sum(axis=0)    # ball is symmetric
    else:
        start, nbr = lists
        counts = np.diff(start)

        def near(k):
            return nbr[start[k]:start[k + 1]]

        def hits(rows):
            return np.bincount(nbr[_gathered(start, rows)], minlength=m)
    alive = np.ones(m, dtype=bool)
    assigned = np.full(m, -1, dtype=np.int64)
    centers: list[int] = []
    remaining = m
    while remaining > 0:
        best = int(np.argmax(counts))          # first maximum = smallest id
        if counts[best] == 1:
            # Every remaining ball is a singleton; flush in id order at once.
            for k in np.flatnonzero(alive):
                centers.append(int(ids[k]))
                assigned[k] = ids[k]
            break
        members = near(best)
        members = members[alive[members]]
        centers.append(int(ids[best]))
        assigned[members] = ids[best]
        alive[members] = False
        counts -= hits(members)
        counts[members] = -1                   # below every live count, which is at least 1
        remaining -= members.size
    covered_map = {int(ids[k]): int(assigned[k]) for k in range(m)}
    return CoverResult(tuple(centers), float(epsilon), covered_map)


def brute_force_min_cover(space: FiniteMetricSpace, epsilon: float) -> CoverResult:
    """Exhaustive minimum-cardinality epsilon-cover (test oracle, n <= 20).

    Searches subsets in increasing size and lexicographic order, so the
    returned cover is deterministic; its cardinality is the covering number
    of the space at radius epsilon.
    """
    if not epsilon > 0:
        raise ArgumentError("epsilon must be positive")
    n = space.n
    if n > 20:
        raise CapacityError(f"brute-force cover limited to 20 points, got {n}")
    ball = space.pairwise(np.arange(n)) <= epsilon
    masks = [int(sum(1 << j for j in np.flatnonzero(ball[i]))) for i in range(n)]
    full = (1 << n) - 1
    for k in range(1, n + 1):
        for combo in itertools.combinations(range(n), k):
            acc = 0
            for c in combo:
                acc |= masks[c]
                if acc == full:
                    break
            if acc == full:
                covered_map = {}
                for p in range(n):
                    for c in combo:
                        if ball[c, p]:
                            covered_map[p] = c
                            break
                return CoverResult(tuple(combo), float(epsilon), covered_map)
    raise ArgumentError("unreachable: every point covers itself")  # pragma: no cover


def metric_entropy(space: FiniteMetricSpace, epsilon: float, mode: str = "exact") -> float:
    """Log covering number at radius epsilon: exact oracle or greedy estimate.

    The greedy estimate is an upper bound on the exact value.
    """
    if mode == "exact":
        return math.log(len(brute_force_min_cover(space, epsilon)))
    if mode == "greedy":
        return math.log(len(greedy_cover(space, epsilon)))
    raise ArgumentError(f"mode must be 'exact' or 'greedy', got {mode!r}")


def sample_cover_compact(sampler: Callable[[int], np.ndarray], epsilon: float,
                         m_estimate: int, u: float) -> tuple[FiniteMetricSpace, CoverResult]:
    """Cover a compact domain by uniform sampling plus a greedy pass.

    Draws ``n = ceil(m (log m + u))`` i.i.d. points through ``sampler`` and
    greedily covers the cloud at radius ``epsilon/2``.  With probability at
    least ``1 - exp(-u)`` the cloud is an ``epsilon/2``-net of the domain
    (``m_estimate`` must dominate the covering number at ``epsilon/4``), in
    which case the returned centers form an epsilon-net of the domain.

    Returns the sampled cloud as a space together with the cover; center
    ids index into the cloud.
    """
    if m_estimate < 1:
        raise ArgumentError("m_estimate must be at least 1")
    if not epsilon > 0:
        raise ArgumentError("epsilon must be positive")
    if not 0 < u < math.inf:
        raise ArgumentError("u must be positive and finite")
    n_draw = math.ceil(m_estimate * (math.log(m_estimate) + u))
    pts = _as_points(sampler(n_draw))
    if pts.shape[0] != n_draw:
        raise ArgumentError(f"sampler returned {pts.shape[0]} points, expected {n_draw}")
    cloud = FiniteMetricSpace.from_coordinates(pts)
    half = greedy_cover(cloud, epsilon / 2.0)
    return cloud, CoverResult(half.centers, float(epsilon), half.covered_map)


def is_cover(space: FiniteMetricSpace, centers: Sequence[int], epsilon: float,
             subset: Iterable[int] | None = None) -> bool:
    """Exhaustively check that every subset point is within epsilon of a center."""
    ids = np.arange(space.n) if subset is None else _point_ids(subset, space.n)
    centers = _point_ids(centers, space.n)
    if not centers.size:
        return ids.size == 0
    return not any((blk.min(axis=1) > epsilon).any()
                   for _, blk in space.row_blocks(ids, centers))


# -- file formats ------------------------------------------------------------

def _read_space_file(path: str, cloud: bool | None = None) -> tuple[np.ndarray, bool]:
    """The array a space file holds, read in one pass, and whether the file is a cloud.

    The first non-blank line tells the formats apart, unless ``cloud`` names
    one: a cloud's ``# dim=<D>`` or a matrix's point count n, at least 1.
    Rows are parsed straight into one buffer of doubles.  A matrix is checked
    against the byte budget from its header as ``24 n²`` bytes (the rows,
    the space's copy and one n×n temporary of its axiom check), a cloud as
    its buffer grows.  A ParseError names the line at fault."""
    with open(path, "r", encoding="utf-8") as fh:
        lines = ((num, ln.strip()) for num, ln in enumerate(fh, start=1))
        lines = ((num, ln) for num, ln in lines if ln)
        num, first = next(lines, (1, ""))
        cloud = first.startswith("#") if cloud is None else cloud
        header = re.fullmatch(r"#+\s*dim=\s*([+-]?\d+)" if cloud else r"([+-]?\d+)", first)
        width = int(header[1]) if header else 0
        if width < 1:
            form = "a '# dim=<D>' header" if cloud else "the point count"
            raise ParseError(f"expected {form} of at least 1, got {first!r}", line=num)
        if not cloud:
            _check_budget(24 * width ** 2, f"a {width}-point distance matrix")
        values, rows = array.array("d"), 0
        for num, ln in lines:
            parts = ln.split()
            if not cloud and rows == width:
                raise ParseError(f"expected {width} matrix rows, found more", line=num)
            if len(parts) != width:
                raise ParseError(f"expected {width} values, got {len(parts)}", line=num)
            if cloud:
                _check_budget(8 * (len(values) + width), f"the point cloud {path}")
            try:
                values.extend([float(p) for p in parts])
            except ValueError as exc:
                raise ParseError(f"bad value in {ln!r}", line=num) from exc
            rows += 1
    if rows < (1 if cloud else width):
        raise ParseError("point cloud file contains no points" if cloud
                         else f"expected {width} matrix rows, found {rows}")
    return np.frombuffer(values, dtype=float).reshape(rows, width), cloud


def load_point_cloud(path: str) -> np.ndarray:
    """Read a point cloud file: header ``# dim=<D>`` then one point per line."""
    return _read_space_file(path, cloud=True)[0]


def load_distance_matrix(path: str) -> np.ndarray:
    """Read a distance matrix file: first line ``n``, then n rows of n reals."""
    return _read_space_file(path, cloud=False)[0]


def load_space(path: str) -> FiniteMetricSpace:
    """Load a space from either file format, told apart by the first non-blank line."""
    values, cloud = _read_space_file(path)
    if cloud:
        return FiniteMetricSpace.from_coordinates(values)
    return FiniteMetricSpace.from_distance_matrix(values)


def write_cover_csv(cover: CoverResult, path: str) -> None:
    """Write a cover as CSV with columns ``center_id,order``."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("center_id,order\n")
        for order, cid in enumerate(cover.centers):
            fh.write(f"{cid},{order}\n")
