"""Finite pseudo-metric spaces and epsilon-cover construction.

A space is a set of points 0..n-1 together with a pseudo-metric, given
either as an explicit distance matrix or as coordinate vectors under the
Euclidean metric (kernel-induced canonical distances are built by
:mod:`chainopt.gp`, which hands the resulting matrix to this module).  A
coordinate space stores no distance matrix at any size: every read
computes the requested rows and columns with ``cdist``, bit for bit the
entries of ``cdist(coords, coords)``.  Its two whole-space summaries skip
the n² scan and still give those bits.  The diameter is the maximum over
the block of the points that the triangle inequality, through one exact
row from a central point, leaves as possible ends of the farthest pair.
The smallest positive distance is proposed by a k-d tree and decided by
the exact formula on the few pairs within rounding slack of the proposal.

Covers come in three flavours:

* ``greedy_cover`` - the quadratic heuristic that repeatedly grabs the
  point whose epsilon-ball covers the most remaining points;
* ``brute_force_min_cover`` - an exhaustive minimum-cardinality oracle,
  capped at 20 points, intended for tests;
* ``sample_cover_compact`` - reduction from a compact domain to the
  finite case by i.i.d. uniform sampling.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

import numpy as np
from scipy.spatial import cKDTree
from scipy.spatial.distance import cdist

from .errors import ArgumentError, CapacityError, ParseError

DENSE_LIMIT = 8192           # size cap of a generated space and of a path draw's side
_TRIANGLE_FULL_LIMIT = 64    # exhaustive triangle check below, sampled above
_TRIANGLE_SAMPLES = 10_000
_SYMMETRY_RTOL = 1e-12
_TRIANGLE_SLACK = 1e-9       # relative slack for floating-point distances
# Below this a computed distance may have lost bits to underflow, which no
# relative slack covers; the coordinate-space bounds then scan every pair.
_UNDERFLOW_SAFE = 1e-100
_BLOCK_BYTES = 1 << 20       # bytes per block where a large array is worked through in pieces


class FiniteMetricSpace:
    """Points ``0..n-1`` with a pseudo-metric and a cached diameter.

    Construct through :meth:`from_coordinates` or
    :meth:`from_distance_matrix`.  A matrix space keeps its checked
    matrix.  A coordinate space keeps only its coordinates, a 1-D or 2-D
    finite array, at any number of points: each read computes the
    requested distances with ``scipy.spatial.distance.cdist`` (paired
    reads sum the squared differences one dimension at a time, then take
    the square root), so every read gives the bits of
    ``cdist(coords, coords)`` without holding the n×n matrix.  Its
    diameter and :meth:`min_positive` are those of the n² scan, found
    without it: the diameter from a block of candidate ends bounded by the
    triangle inequality, the smallest positive distance from pairs that a
    k-d tree proposes and the exact formula decides.  Every
    distance matrix is checked against the pseudo-metric axioms: finite
    entries, zero diagonal, symmetry, nonnegativity and the triangle
    inequality (exhaustive for n <= 64, on 10 000 random triples beyond).
    :meth:`from_distance_matrix` copies the matrix it is given, so later
    writes by the caller do not reach the space; calling the constructor
    with ``matrix=`` takes the array over without a copy, which the
    canonical spaces of :mod:`chainopt.gp` do with the matrix they build.
    Instances are immutable once built and safe for concurrent readers.
    """

    def __init__(self, *, coords: np.ndarray | None, matrix: np.ndarray | None):
        if coords is None and matrix is None:
            raise ArgumentError("need coordinates or a distance matrix")
        self._coords = None if coords is None else np.asarray(coords, dtype=float)
        if self._coords is not None:
            if self._coords.ndim == 1:
                self._coords = self._coords[:, None]
            elif self._coords.ndim != 2:
                raise ArgumentError(f"coordinates must be a 1-D or 2-D array, "
                                    f"got {self._coords.ndim} dimensions")
        n = matrix.shape[0] if matrix is not None else self._coords.shape[0]
        if n < 1:
            raise ArgumentError("space must contain at least one point")
        self.n = int(n)
        if matrix is not None:
            matrix = np.asarray(matrix, dtype=float)
            if matrix.shape != (n, n):
                raise ArgumentError(f"distance matrix must be square, got {matrix.shape}")
            if self._coords is not None and self._coords.shape[0] != n:
                raise ArgumentError(f"{self._coords.shape[0]} coordinate rows for a "
                                    f"{n}-point distance matrix")
        if self._coords is not None:
            _check_finite("coordinate", self._coords)
        if matrix is not None:
            self._dist = _checked_metric(matrix)
            self._diameter = float(self._dist.max())
        else:
            self._dist = None  # distances computed from coordinates on request
            self._diameter = self._coordinate_diameter()

    # -- constructors ------------------------------------------------------

    @classmethod
    def from_coordinates(cls, coords) -> "FiniteMetricSpace":
        """Build a space from coordinate vectors with the Euclidean metric."""
        return cls(coords=np.asarray(coords, dtype=float), matrix=None)

    @classmethod
    def from_distance_matrix(cls, matrix, coords=None) -> "FiniteMetricSpace":
        """Build a space from an explicit n-by-n distance matrix.

        ``coords`` may carry the underlying coordinates (needed by kernel
        machinery) even though distances come from the matrix.
        """
        return cls(coords=coords, matrix=np.array(matrix, dtype=float, order="C"))

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
        ids = _point_ids(ids, self.n)
        cols = None if cols is None else _point_ids(cols, self.n)
        if self._dist is None:
            return cdist(self._coords[ids], self._coords if cols is None else self._coords[cols])
        if ids.ndim == 1 and ids.size and np.all(np.diff(ids) == 1):
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
        ids = np.asarray(ids)                # each block is checked by rows
        width = self.n if cols is None else len(cols)
        if self._dist is not None and cols is not None:
            width += self.n                  # the whole rows the columns are taken from
        step = max(1, _BLOCK_BYTES // (8 * max(1, width)))
        for lo in range(0, len(ids), step):
            yield lo, self.rows(ids[lo:lo + step], cols)

    def distance(self, i: int, j: int) -> float:
        """Pseudo-metric distance ``d(i, j)``, as :meth:`row` gives it."""
        return float(self.distances([i], [j])[0])

    def pairwise(self, ids: Sequence[int] | np.ndarray,
                 others: Sequence[int] | np.ndarray | None = None) -> np.ndarray:
        """Distances from the given point ids (rows) to ``others`` (columns; default ``ids``)."""
        return self.rows(ids, ids if others is None else others)

    def min_positive(self, rows: Sequence[int] | np.ndarray,
                     cols: Sequence[int] | np.ndarray | None = None) -> float:
        """Smallest positive distance from the points ``rows`` to ``cols`` (default every
        point), as a scan of their :meth:`rows` block finds it; inf if there is none.

        A stored matrix is scanned in row blocks.  A coordinate space reads
        one point of each distinct coordinate row, and a k-d tree over the
        column points proposes: ``est`` is the smallest positive k-d
        distance from a row point to its two nearest column points.  The
        exact paired formula then decides over every pair within
        ``est * (1 + 1e-9)``; the pair that attains the scan's minimum is
        no farther than ``est`` up to rounding, so it is among them.  Where
        ``est`` is not finite, or small enough for underflow to matter, the
        distinct points are scanned instead.
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
            near, _ = col_tree.query(x[rows], k=2)
            est = float(np.min(near, where=near > 0, initial=math.inf))
            if _UNDERFLOW_SAFE <= est < math.inf:
                row_tree = col_tree if rows is cols else cKDTree(x[rows])
                pairs = row_tree.sparse_distance_matrix(
                    col_tree, est * (1 + _TRIANGLE_SLACK), output_type="ndarray")
                d = self.distances(rows[pairs["i"]], cols[pairs["j"]])
                return float(np.min(d, where=d > 0, initial=math.inf))
        best = math.inf
        for _, blk in self.row_blocks(rows, cols):
            best = min(best, float(np.min(blk, where=blk > 0, initial=math.inf)))
        return best

    def _coordinate_diameter(self) -> float:
        """The largest entry of ``cdist(coords, coords)``, read from a block of candidate ends.

        ``r`` is the exact row of the point c nearest the middle of the
        bounding box, and ``lb`` the largest distance from the point farthest
        from c.  Since d(i, j) <= r[i] + max(r), a pair longer than ``lb``
        has both ends among the points with ``r[i] + max(r) >= lb``, less a
        1e-9 relative slack for rounding; so does the pair that gives ``lb``.
        The diameter is the maximum over those points' block.  Every point
        is a candidate where ``lb`` is not finite, or small enough for
        underflow to matter.
        """
        x = self._coords
        mid = x.min(axis=0) / 2 + x.max(axis=0) / 2
        c = int(np.argmin(cdist(mid[None, :], x)[0]))
        r = cdist(x[c:c + 1], x)[0]
        lb = float(cdist(x[[np.argmax(r)]], x).max())
        if _UNDERFLOW_SAFE <= lb < math.inf:
            ends = np.flatnonzero(r + r.max() >= lb * (1 - _TRIANGLE_SLACK))
        else:
            ends = np.arange(self.n)
        return max(float(blk.max()) for _, blk in self.row_blocks(ends, ends))

    def distances(self, i: Sequence[int] | np.ndarray,
                  j: Sequence[int] | np.ndarray) -> np.ndarray:
        """Distances ``d(i[k], j[k])`` between paired point ids, as :meth:`row` gives them."""
        i, j = _point_ids(i, self.n), _point_ids(j, self.n)
        if self._dist is not None:
            return self._dist[i, j]
        diff = self._coords[i] - self._coords[j]
        sq = np.zeros(diff.shape[:-1])
        for k in range(diff.shape[-1]):     # cdist's order: one dimension at a time
            sq += diff[..., k] * diff[..., k]
        return np.sqrt(sq)


def _point_ids(ids, n: int) -> np.ndarray:
    """``ids``, one point id or a 1-D sequence of them, as an integer array; an
    ArgumentError for a non-integer dtype (bool included), more than one dimension
    or an id outside ``0..n-1``.  An empty sequence, of whatever dtype, has no ids."""
    arr = np.asarray(ids)
    if arr.ndim > 1:
        raise ArgumentError(f"point ids must be one id or a 1-D sequence, "
                            f"got {arr.ndim} dimensions")
    if arr.size == 0:
        return arr.astype(int)
    if arr.dtype.kind not in "iu":           # signed or unsigned integers
        raise ArgumentError(f"point id {arr.ravel().tolist()[0]!r} out of range for "
                            f"n={n}: ids must be integers")
    lo, hi = arr.min(), arr.max()
    if lo < 0 or hi >= n:
        raise ArgumentError(f"point id {lo if lo < 0 else hi} out of range for n={n}")
    return arr


def _distinct(coords: np.ndarray, ids: np.ndarray) -> np.ndarray:
    """One of ``ids`` per distinct coordinate row (``coords`` has at least one column)."""
    x = coords[ids]
    order = np.lexsort(x.T)                  # equal rows end up next to each other
    x = x[order]
    first = np.ones(len(ids), dtype=bool)
    first[1:] = np.any(x[1:] != x[:-1], axis=1)
    return ids[order[first]]


def _id_array(ids: Iterable[int], n: int) -> np.ndarray:
    """:func:`_point_ids` of an iterable of ids; an ndarray is checked as it is, not listed."""
    return _point_ids(ids if isinstance(ids, np.ndarray) else list(ids), n)


def _check_finite(what: str, arr: np.ndarray) -> None:
    if not np.all(np.isfinite(arr)):
        bad = arr[~np.isfinite(arr)][0]
        raise ArgumentError(f"every {what} must be finite, found {bad}")


def _checked_metric(d: np.ndarray) -> np.ndarray:
    """Check a square matrix against the pseudo-metric axioms.

    Returns the matrix, replaced by its exactly symmetric average when it
    was symmetric only up to rounding.
    """
    _check_finite("distance", d)
    if np.any(np.abs(np.diag(d)) > 0):
        raise ArgumentError("d(i,i) must be zero for every point")
    if not _exactly_symmetric(d):
        scale = max(np.abs(d).max(), 1.0)
        if not np.allclose(d, d.T, rtol=_SYMMETRY_RTOL, atol=_SYMMETRY_RTOL * scale):
            raise ArgumentError("distance matrix is not symmetric")
        d = 0.5 * (d + d.T)  # make symmetry exact after tolerance check
    if np.any(d < 0):
        raise ArgumentError("distances must be nonnegative")
    n = d.shape[0]
    if n <= 2:
        return d
    slack = _TRIANGLE_SLACK * max(float(d.max()), 1.0)
    if n <= _TRIANGLE_FULL_LIMIT:
        lhs = d[:, None, :]                       # d(i,k)
        rhs = d[:, :, None] + d[None, :, :]       # d(i,j)+d(j,k)
        if np.any(lhs > rhs + slack):
            raise ArgumentError("triangle inequality violated")
    else:
        i, j, k = np.random.default_rng(0).integers(0, n, size=(_TRIANGLE_SAMPLES, 3)).T
        bad = np.flatnonzero(d[i, k] > d[i, j] + d[j, k] + slack)
        if bad.size:
            b = bad[0]
            raise ArgumentError(f"triangle inequality violated on ({i[b]},{j[b]},{k[b]})")
    return d


def _exactly_symmetric(d: np.ndarray) -> bool:
    """``array_equal(d, d.T)``, compared tile against transposed tile to stay in cache."""
    b = 256
    return all(np.array_equal(d[i:i + b, j:j + b], d[j:j + b, i:i + b].T)
               for i in range(0, d.shape[0], b) for j in range(i, d.shape[0], b))


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
    the result is both a cover and (strictly) epsilon-separated.  The ball
    matrix is filled from row blocks of about 1 MiB: m² booleans, no m×m floats.
    """
    if not epsilon > 0:
        raise ArgumentError("epsilon must be positive")
    ids = (np.arange(space.n) if subset is None
           else np.unique(_id_array(subset, space.n)))
    if ids.size == 0:
        raise ArgumentError("subset must be non-empty")

    m = ids.size
    ball = np.empty((m, m), dtype=bool)
    for lo, blk in space.row_blocks(ids, ids):
        np.less_equal(blk, epsilon, out=ball[lo:lo + len(blk)])
    alive = np.ones(m, dtype=bool)
    counts = ball.sum(axis=1).astype(np.int64)
    assigned = np.full(m, -1, dtype=np.int64)
    centers: list[int] = []
    remaining = m
    while remaining > 0:
        masked = np.where(alive, counts, -1)
        best = int(np.argmax(masked))          # first maximum = smallest id
        if counts[best] == 1:
            # Every remaining ball is a singleton; flush in id order at once.
            for k in np.flatnonzero(alive):
                centers.append(int(ids[k]))
                assigned[k] = ids[k]
            break
        members = np.flatnonzero(alive & ball[best])
        centers.append(int(ids[best]))
        assigned[members] = ids[best]
        alive[members] = False
        counts = counts - ball[members].sum(axis=0)    # ball is symmetric
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
    pts = np.asarray(sampler(n_draw), dtype=float)
    if pts.ndim == 1:
        pts = pts[:, None]
    if pts.shape[0] != n_draw:
        raise ArgumentError(f"sampler returned {pts.shape[0]} points, expected {n_draw}")
    cloud = FiniteMetricSpace.from_coordinates(pts)
    half = greedy_cover(cloud, epsilon / 2.0)
    return cloud, CoverResult(half.centers, float(epsilon), half.covered_map)


def is_cover(space: FiniteMetricSpace, centers: Sequence[int], epsilon: float,
             subset: Iterable[int] | None = None) -> bool:
    """Exhaustively check that every subset point is within epsilon of a center."""
    ids = np.arange(space.n) if subset is None else _id_array(subset, space.n)
    centers = _id_array(centers, space.n)
    if not centers.size:
        return ids.size == 0
    return not any((blk.min(axis=1) > epsilon).any()
                   for _, blk in space.row_blocks(ids, centers))


# -- file formats ------------------------------------------------------------

def _numbered_lines(path: str) -> list[tuple[int, str]]:
    """The file's non-blank lines, stripped, each with its 1-based line number."""
    with open(path, "r", encoding="utf-8") as fh:
        return [(num, ln.strip()) for num, ln in enumerate(fh, start=1) if ln.strip()]


def _float_rows(lines: list[tuple[int, str]], width: int, noun: str) -> np.ndarray:
    """Rows of ``width`` reals from numbered lines; a ParseError names the file line."""
    rows = []
    for num, ln in lines:
        parts = ln.split()
        if len(parts) != width:
            raise ParseError(f"expected {width} {noun}, got {len(parts)}", line=num)
        try:
            rows.append([float(p) for p in parts])
        except ValueError as exc:
            raise ParseError(f"bad value in {ln!r}", line=num) from exc
    return np.asarray(rows, dtype=float)


def load_point_cloud(path: str) -> np.ndarray:
    """Read a point cloud file: header ``# dim=<D>`` then one point per line."""
    lines = _numbered_lines(path)
    num, header = lines[0] if lines else (1, "")
    if not header.startswith("#"):
        raise ParseError("point cloud file must start with a '# dim=<D>' header", line=num)
    header = header.lstrip("#").strip()
    if not header.startswith("dim="):
        raise ParseError("header must have the form '# dim=<D>'", line=num)
    try:
        dim = int(header[4:])
    except ValueError as exc:
        raise ParseError(f"bad dimension in header: {header!r}", line=num) from exc
    if len(lines) == 1:
        raise ParseError("point cloud file contains no points")
    return _float_rows(lines[1:], dim, "coordinates")


def load_distance_matrix(path: str) -> np.ndarray:
    """Read a distance matrix file: first line ``n``, then n rows of n reals."""
    lines = _numbered_lines(path)
    if not lines:
        raise ParseError("empty distance matrix file")
    num, first = lines[0]
    try:
        n = int(first)
    except ValueError as exc:
        raise ParseError(f"first line must be the point count, got {first!r}",
                         line=num) from exc
    if len(lines) - 1 != n:
        raise ParseError(f"expected {n} matrix rows, found {len(lines) - 1}")
    return _float_rows(lines[1:], n, "entries")


def load_space(path: str) -> FiniteMetricSpace:
    """Load a space from either file format, told apart by the first non-blank line."""
    with open(path, "r", encoding="utf-8") as fh:
        first = next((ln for ln in fh if ln.strip()), "")
    if first.lstrip().startswith("#"):
        return FiniteMetricSpace.from_coordinates(load_point_cloud(path))
    return FiniteMetricSpace.from_distance_matrix(load_distance_matrix(path))


def write_cover_csv(cover: CoverResult, path: str) -> None:
    """Write a cover as CSV with columns ``center_id,order``."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("center_id,order\n")
        for order, cid in enumerate(cover.centers):
            fh.write(f"{cid},{order}\n")
