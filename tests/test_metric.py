"""Tests for finite metric spaces and cover construction.

Frozen expected values were computed with independent oracles: a
hand-simulation of the greedy selection rule (see ``_greedy_oracle``) and
exhaustive subset enumeration for minimum covers.
"""

import itertools
import math
import os
import tempfile

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy.spatial.distance import cdist

from chainopt import metric
from chainopt import (ArgumentError, CapacityError, FiniteMetricSpace,
                      ParseError, brute_force_min_cover, build_tree, greedy_cover,
                      is_cover, load_distance_matrix,
                      load_point_cloud, load_space, metric_entropy,
                      sample_cover_compact, write_cover_csv, write_tree)
from conftest import tied_spaces, ultrametric_spaces


@pytest.fixture
def line5():
    return FiniteMetricSpace.from_coordinates(np.arange(5.0))


def _greedy_oracle(D, eps, subset):
    """Reference greedy cover: argmax ball count among remaining, smallest id ties."""
    remaining = set(subset)
    centers = []
    while remaining:
        best, best_cnt = None, -1
        for x in sorted(remaining):
            cnt = sum(1 for y in remaining if D[x, y] <= eps)
            if cnt > best_cnt:
                best, best_cnt = x, cnt
        centers.append(best)
        remaining -= {y for y in remaining if D[best, y] <= eps}
    return centers


def _random_space(rng, n, dim=2):
    return FiniteMetricSpace.from_coordinates(rng.uniform(0.0, 1.0, size=(n, dim)))


class TestFiniteMetricSpace:
    def test_distance_identity_is_zero(self, line5):
        for i in range(5):
            assert line5.distance(i, i) == 0.0

    def test_line_endpoints(self, line5):
        assert line5.distance(0, 4) == pytest.approx(4.0)

    def test_diameter_is_max_over_pairs(self, line5):
        pairs = max(line5.distance(i, j) for i in range(5) for j in range(5))
        assert line5.diameter == pytest.approx(pairs)

    def test_out_of_range_id_raises(self, line5):
        with pytest.raises(ArgumentError):
            line5.distance(0, 5)
        with pytest.raises(ArgumentError):
            line5.distance(-1, 0)

    def test_distance_without_a_stored_matrix_matches_rows(self):
        # past DENSE_LIMIT nothing is stored: distance, distances, row and
        # rows compute one formula, bit for bit
        rng = np.random.default_rng(5)
        sp = FiniteMetricSpace.from_coordinates(rng.standard_normal((8193, 3)))
        i, j = rng.integers(0, 8193, size=(2, 500)).tolist()
        rows = [sp.row(a)[b] for a, b in zip(i, j)]
        assert [sp.distance(a, b) for a, b in zip(i, j)] == rows
        assert sp.distances(i, j).tolist() == rows
        block = sp.rows(i[:40])
        assert all(np.array_equal(block[k], sp.row(a)) for k, a in enumerate(i[:40]))
        assert np.array_equal(sp.pairwise(i[:40], j), block[:, j])
        assert sp.diameter >= block.max()
        for bad in ((0, 8193), (-1, 0), (0.0, 1)):
            with pytest.raises(ArgumentError, match="out of range"):
                sp.distance(*bad)

    @pytest.mark.parametrize("coords", [np.zeros((2, 2, 2)), np.float64(1.0)])
    def test_coordinates_must_be_1d_or_2d(self, coords):
        with pytest.raises(ArgumentError, match="1-D or 2-D"):
            FiniteMetricSpace.from_coordinates(coords)
        with pytest.raises(ArgumentError, match="1-D or 2-D"):
            FiniteMetricSpace.from_distance_matrix(np.zeros((2, 2)), coords=coords)

    def test_zero_column_cloud_has_all_distances_zero(self):
        sp = FiniteMetricSpace.from_coordinates(np.zeros((4, 0)))
        assert sp.n == 4 and sp.diameter == 0.0
        assert np.array_equal(sp.rows([0, 3, 3]), np.zeros((3, 4)))
        assert np.array_equal(sp.pairwise([1, 2], [0]), np.zeros((2, 1)))
        assert np.array_equal(sp.distances([0, 1, 2], [3, 3, 0]), np.zeros(3))
        assert sp.distance(0, 3) == 0.0
        assert greedy_cover(sp, 1.0).centers == (0,)

    def test_matrix_symmetry_enforced(self):
        D = np.array([[0.0, 1.0], [2.0, 0.0]])
        with pytest.raises(ArgumentError):
            FiniteMetricSpace.from_distance_matrix(D)

    def test_matrix_near_symmetry_made_exact(self):
        D = np.array([[0.0, 1.0, 2.0],
                      [1.0, 0.0, 1.0],
                      [2.0, 1.0 + 1e-14, 0.0]])
        sp = FiniteMetricSpace.from_distance_matrix(D)
        rows = np.array([sp.row(i) for i in range(3)])
        assert np.array_equal(rows, rows.T)
        assert sp.distance(1, 2) == sp.distance(2, 1) == 0.5 * (1.0 + (1.0 + 1e-14))

    def test_matrix_is_copied(self):
        D = np.array([[0.0, 1.0], [1.0, 0.0]])
        sp = FiniteMetricSpace.from_distance_matrix(D)
        D[0, 1] = D[1, 0] = 7.0
        assert sp.distance(0, 1) == 1.0

    def test_matrix_triangle_enforced(self):
        D = np.array([[0.0, 1.0, 5.0],
                      [1.0, 0.0, 1.0],
                      [5.0, 1.0, 0.0]])
        with pytest.raises(ArgumentError):
            FiniteMetricSpace.from_distance_matrix(D)

    def test_matrix_nonzero_diagonal_rejected(self):
        D = np.array([[0.1, 1.0], [1.0, 0.0]])
        with pytest.raises(ArgumentError):
            FiniteMetricSpace.from_distance_matrix(D)

    @pytest.mark.parametrize("rows", [2, 4])
    def test_coordinate_rows_must_match_matrix(self, rows):
        D = np.ones((3, 3)) - np.eye(3)
        coords = np.arange(rows, dtype=float)[:, None]
        with pytest.raises(ArgumentError, match=f"{rows} coordinate rows for a 3-point"):
            FiniteMetricSpace.from_distance_matrix(D, coords=coords)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_coordinate_rejected(self, bad):
        with pytest.raises(ArgumentError, match=f"coordinate must be finite, found {bad}"):
            FiniteMetricSpace.from_coordinates([[0.0], [bad], [1.0]])

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_distance_rejected(self, bad):
        D = np.ones((3, 3)) - np.eye(3)
        D[0, 2] = D[2, 0] = bad
        with pytest.raises(ArgumentError, match=f"distance must be finite, found {bad}"):
            FiniteMetricSpace.from_distance_matrix(D)

    def test_pseudo_metric_duplicates_allowed(self):
        # distance zero between distinct points is legal
        D = np.zeros((3, 3))
        D[0, 2] = D[2, 0] = D[1, 2] = D[2, 1] = 1.0
        sp = FiniteMetricSpace.from_distance_matrix(D)
        assert sp.distance(0, 1) == 0.0
        assert sp.diameter == 1.0

    def test_asymmetry_in_a_far_tile(self):
        # the exact check compares tiles; break one entry far off the diagonal
        D = _random_space(np.random.default_rng(8), 600).pairwise(np.arange(600))
        D[5, 590] += 1e-14
        sp = FiniteMetricSpace.from_distance_matrix(D)
        assert sp.distance(5, 590) == sp.distance(590, 5) == 0.5 * (D[5, 590] + D[590, 5])
        D[5, 590] += 0.5
        with pytest.raises(ArgumentError, match="not symmetric"):
            FiniteMetricSpace.from_distance_matrix(D)

    def test_sampled_triangle_check_on_large_space(self):
        rng = np.random.default_rng(3)
        D = _random_space(rng, 80).pairwise(np.arange(80))
        sp = FiniteMetricSpace.from_distance_matrix(D)
        assert sp.n == 80  # construction ran the sampled validation

    def test_sampled_triangle_check_reports_triple(self):
        D = np.ones((100, 100)) - np.eye(100)
        D[3, 7] = D[7, 3] = 50.0
        with pytest.raises(ArgumentError,
                           match=r"^triangle inequality violated on \(7,47,3\)$"):
            FiniteMetricSpace.from_distance_matrix(D)


@st.composite
def _float_spaces(draw):
    """Seeded Gaussian clouds of 1-5 dimensions, as coordinates or as their matrix."""
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 16)))
    sp = FiniteMetricSpace.from_coordinates(
        rng.standard_normal((draw(st.integers(1, 40)), draw(st.integers(1, 5)))))
    return FiniteMetricSpace.from_distance_matrix(sp.pairwise(np.arange(sp.n))) \
        if draw(st.booleans()) else sp


class TestRows:
    @given(space=st.one_of(_float_spaces(), tied_spaces(), ultrametric_spaces()),
           data=st.data())
    def test_rows_match_row_and_pairwise(self, space, data):
        ids = data.draw(st.lists(st.integers(0, space.n - 1), max_size=2 * space.n))
        got = space.rows(ids)
        assert got.shape == (len(ids), space.n)
        assert all(np.array_equal(got[k], space.row(i)) for k, i in enumerate(ids))
        assert np.array_equal(got, space.pairwise(ids, np.arange(space.n)))
        per_block = data.draw(st.integers(1, 3))
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(metric, "_BLOCK_BYTES", 8 * space.n * per_block)
            blocks = list(space.row_blocks(ids))
        assert [lo for lo, _ in blocks] == list(range(0, len(ids), per_block))
        assert np.array_equal(np.concatenate([b for _, b in blocks] or [got]), got)

    def test_contiguous_rows_of_a_matrix_are_a_read_only_view(self):
        D = _random_space(np.random.default_rng(2), 12).pairwise(np.arange(12))
        sp = FiniteMetricSpace.from_distance_matrix(D)
        for ids in ([3, 4, 5, 6], np.arange(12), [7], np.array([2, 3], dtype=np.uint8)):
            block = sp.rows(ids)
            assert np.array_equal(block, D[np.asarray(ids)])
            assert not block.flags.writeable
            with pytest.raises(ValueError, match="read-only"):
                block[0, 0] = 1.0
            assert np.array_equal(sp.rows(ids, [0, 5]), D[np.ix_(ids, [0, 5])])
        assert sp._dist.flags.writeable and np.array_equal(sp._dist, D)
        for ids in ([3, 5], [4, 3], [2, 2], [0, 1, 3]):    # not one ascending run: a gather
            block = sp.rows(ids)
            assert np.array_equal(block, D[ids]) and block.flags.writeable

    def test_matrix_blocks_count_the_rows_and_the_column_copy(self):
        sp = FiniteMetricSpace.from_distance_matrix(
            _random_space(np.random.default_rng(6), 30).pairwise(np.arange(30)))
        cols = np.arange(0, 30, 3)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(metric, "_BLOCK_BYTES", 8 * (30 + len(cols)) * 4)
            assert [lo for lo, _ in sp.row_blocks(np.arange(30), cols)] == list(range(0, 30, 4))
            patch.setattr(metric, "_BLOCK_BYTES", 8 * 30 * 4)    # whole rows, no copy
            assert [lo for lo, _ in sp.row_blocks(np.arange(30))] == list(range(0, 30, 4))

    def test_rows_out_of_range(self, line5):
        for bad in ([5], [-1], [0, 7]):
            with pytest.raises(ArgumentError, match="out of range"):
                line5.rows(bad)

    @pytest.mark.parametrize("matrix", [False, True])
    def test_every_read_rejects_non_integer_ids(self, line5, matrix):
        # numpy would truncate 1.7 to row 1 and read True as id 1
        sp = (FiniteMetricSpace.from_distance_matrix(line5.pairwise(np.arange(5)))
              if matrix else line5)
        reads = [lambda ids: sp.rows(ids), lambda ids: sp.rows([0], ids),
                 lambda ids: list(sp.row_blocks(ids)), lambda ids: sp.pairwise(ids),
                 lambda ids: sp.distances(ids, [3]), lambda ids: sp.distances([3], ids),
                 lambda ids: sp.row(ids[0]), lambda ids: sp.distance(ids[0], 3)]
        for read in reads:
            for bad in ([1.7], [0.9, 3.2], [True], np.array([1.0])):
                with pytest.raises(ArgumentError, match="must be integers"):
                    read(bad)
        for read in reads[:6]:
            with pytest.raises(ArgumentError, match="2 dimensions"):
                read([[0, 1]])
        assert sp.rows([]).shape == (0, 5)
        assert sp.rows(np.array([1], dtype=np.uint8)).tolist() == [[1.0, 0.0, 1.0, 2.0, 3.0]]


class TestCoordinateReadsMatchCdist:
    """Every read of a coordinate space gives the bits of ``cdist(coords, coords)``."""

    @staticmethod
    def _cloud(kind, dim):
        rng = np.random.default_rng([17, dim])
        if kind == "gaussian":
            return rng.standard_normal((300, dim))
        pts = rng.integers(0, 9, size=(280, dim)) / 4.0       # a 1/4 lattice: many ties
        return np.concatenate([pts, pts[rng.integers(0, 280, 20)]])   # and duplicates

    @pytest.mark.parametrize("kind", ["gaussian", "lattice"])
    @pytest.mark.parametrize("dim", range(1, 9))
    def test_every_read_is_cdist(self, kind, dim):
        coords = self._cloud(kind, dim)
        D = cdist(coords, coords)
        sp = FiniteMetricSpace.from_coordinates(coords)
        rng = np.random.default_rng(dim)
        ids, cols = rng.integers(0, sp.n, size=(2, 90))
        assert sp.diameter == D.max()
        assert all(np.array_equal(sp.row(int(i)), D[i]) for i in ids[:10])
        assert np.array_equal(sp.rows(ids), D[ids])
        assert np.array_equal(sp.rows(ids, cols), D[np.ix_(ids, cols)])
        assert np.array_equal(sp.pairwise(ids), D[np.ix_(ids, ids)])
        assert np.array_equal(sp.pairwise(ids, cols), D[np.ix_(ids, cols)])
        assert np.array_equal(sp.distances(ids, cols), D[ids, cols])
        assert [sp.distance(int(i), int(j)) for i, j in zip(ids, cols)] == D[ids, cols].tolist()
        for want, c in ((D[ids], None), (D[np.ix_(ids, cols)], cols)):
            width = sp.n if c is None else len(c)
            with pytest.MonkeyPatch.context() as patch:
                patch.setattr(metric, "_BLOCK_BYTES", 8 * width * 7)
                blocks = list(sp.row_blocks(ids, c))
            assert [lo for lo, _ in blocks] == list(range(0, len(ids), 7))
            assert np.array_equal(np.concatenate([b for _, b in blocks]), want)


@st.composite
def _lattice_clouds(draw):
    """Clouds on a 1/4 lattice in 1-3 dimensions; the small lattice makes ties and duplicates."""
    dim = draw(st.integers(1, 3))
    coord = st.integers(0, 8).map(lambda k: k / 4.0)
    return np.array(draw(st.lists(st.tuples(*[coord] * dim), min_size=1, max_size=40)))


class TestCoordinatesAgreeWithTheirMatrix:
    @given(coords=_lattice_clouds(), data=st.data())
    def test_covers_and_trees_match(self, coords, data):
        # the same cloud as coordinates and as its stored cdist matrix
        D = cdist(coords, coords)
        spaces = (FiniteMetricSpace.from_coordinates(coords),
                  FiniteMetricSpace.from_distance_matrix(D, coords=coords))
        eps = data.draw(st.sampled_from(sorted(set(D[D > 0].tolist())) or [1.0]))
        subset = data.draw(st.sets(st.integers(0, len(coords) - 1), min_size=1) | st.none())
        block_bytes = data.draw(st.sampled_from([1, metric._BLOCK_BYTES]))   # 1: a row a block
        schedule = data.draw(st.sampled_from(["geometric", "entropy"]))
        shift, u = data.draw(st.sampled_from([0, 1])), data.draw(st.sampled_from([0.5, 2.0]))
        covers, trees = [], []
        with pytest.MonkeyPatch.context() as patch, tempfile.TemporaryDirectory() as tmp:
            patch.setattr(metric, "_BLOCK_BYTES", block_bytes)
            for k, sp in enumerate(spaces):
                covers.append(greedy_cover(sp, eps, subset))
                path = os.path.join(tmp, f"tree{k}.csv")
                write_tree(build_tree(sp, schedule, shift, u), path)
                with open(path, "rb") as fh:
                    trees.append(fh.read())
        assert covers[0].centers == covers[1].centers
        assert covers[0].covered_map == covers[1].covered_map
        assert trees[0] == trees[1]


def _adversarial_clouds():
    """Named clouds where a bound on the farthest pair or a k-d proposal could go wrong."""
    rng = np.random.default_rng(23)
    clouds = {"single-point": np.array([[0.3, -1.0]]), "no-coordinate": np.zeros((7, 0)),
              "one-duplicate-pair": np.array([[1.0], [1.0]]),
              # squares of a few bits: a triangle bound with relative slack misses here
              "subnormal-line": np.arange(-20, 21)[:, None] * 1.2e-163}
    for dim in range(1, 6):
        pts = rng.integers(0, 6, size=(150, dim)) / 4.0           # lattice ties
        dup = np.concatenate([pts, pts[:40]])                     # and duplicates
        clouds[f"lattice-{dim}d"] = dup
        clouds[f"all-equal-{dim}d"] = np.full((30, dim), 0.7)
        clouds[f"huge-{dim}d"] = dup * 1e150 - 1e150                # coordinates of +-1e150
        clouds[f"signs-{dim}d"] = rng.choice([-1e150, 1e150], size=(40, dim))
        for scale in (1e-200, 1e-160, 1e-120):        # offsets that underflow, partly or all
            off = np.concatenate([pts[:40], pts[:20]])    # a deep tree: keep it small
            off[:10, 0] += scale
            clouds[f"offsets-{scale:g}-{dim}d"] = off
            clouds[f"tiny-lattice-{scale:g}-{dim}d"] = dup * scale
        angle = np.linspace(0, 2 * np.pi, 64, endpoint=False)
        ring = np.zeros((64, dim))
        ring[:, 0] = np.cos(angle)
        if dim > 1:
            ring[:, 1] = np.sin(angle)
        clouds[f"ring-{dim}d"] = ring     # from 2-D on, every point ends a farthest pair
    return clouds


_CLOUDS = _adversarial_clouds()


def _scan_min_positive(D):
    pos = D[D > 0]
    return float(pos.min()) if pos.size else math.inf


class TestWholeSpaceBoundsMatchTheScan:
    """A coordinate space's diameter and smallest positive distance are the dense scan's bits."""

    @pytest.mark.parametrize("name", sorted(_CLOUDS))
    def test_adversarial_clouds(self, name):
        coords = _CLOUDS[name]
        D = cdist(coords, coords)
        sp = FiniteMetricSpace.from_coordinates(coords)
        assert sp.diameter == D.max()
        assert sp.min_positive(np.arange(sp.n)) == _scan_min_positive(D)
        rng = np.random.default_rng(sp.n)
        for _ in range(4):
            cols = np.sort(rng.choice(sp.n, size=rng.integers(1, sp.n + 1), replace=False))
            rows = rng.choice(cols, size=rng.integers(0, len(cols) + 1), replace=False)
            other = rng.choice(sp.n, size=rng.integers(1, sp.n + 1))    # repeats, any order
            for r, c in ((rows, cols), (cols, cols), (other, cols), (rows, other)):
                assert sp.min_positive(r, c) == _scan_min_positive(D[np.ix_(r, c)])
        # the rows and columns validate_tree asks for, level by level
        tree = build_tree(sp, "geometric", 1, 2.0)
        seen = np.zeros(sp.n, dtype=bool)
        for lvl in tree.levels:
            level = np.unique(tree.location[lvl[~tree.is_pruned[lvl]]])
            new = level[~seen[level]]
            assert sp.min_positive(new, level) == _scan_min_positive(D[np.ix_(new, level)])
            assert sp.min_positive(level, level) == _scan_min_positive(D[np.ix_(level, level)])
            seen[:] = False
            seen[level] = True

    def test_matrix_space_scans_its_rows(self):
        line = [[0.0], [0.0], [2.0], [5.0]]
        sp = FiniteMetricSpace.from_distance_matrix(cdist(line, line))
        assert sp.min_positive([0, 1, 2, 3]) == 2.0
        assert sp.min_positive([3]) == 3.0
        assert sp.min_positive([0], [1]) == math.inf
        assert sp.min_positive([], [0]) == sp.min_positive([0], []) == math.inf

    @given(coords=_lattice_clouds(), scale=st.sampled_from([1.0, 1e150, 1e-120, 1e-170]),
           data=st.data())
    def test_lattice_clouds(self, coords, scale, data):
        coords = coords * scale
        D = cdist(coords, coords)
        sp = FiniteMetricSpace.from_coordinates(coords)
        ids = st.lists(st.integers(0, len(coords) - 1), max_size=2 * len(coords))
        rows, cols = data.draw(ids), data.draw(ids | st.none())
        assert sp.diameter == D.max()
        want = D[rows] if cols is None else D[np.ix_(rows, cols)]
        assert sp.min_positive(rows, cols) == _scan_min_positive(want)


class TestGreedyCover:
    def test_line_frozen_from_oracle(self, line5):
        cover = greedy_cover(line5, 1.0)
        D = line5.pairwise(np.arange(5))
        assert list(cover.centers) == _greedy_oracle(D, 1.0, range(5)) == [1, 3]
        assert is_cover(line5, cover.centers, 1.0)

    def test_epsilon_at_least_diameter_single_center(self, line5):
        cover = greedy_cover(line5, 4.0)
        assert cover.centers == (0,)

    def test_singleton_subset(self, line5):
        cover = greedy_cover(line5, 0.5, subset=[3])
        assert cover.centers == (3,)
        assert cover.covered_map == {3: 3}

    def test_empty_subset_raises(self, line5):
        with pytest.raises(ArgumentError):
            greedy_cover(line5, 1.0, subset=[])

    def test_subset_ids_must_be_integers_in_range(self, line5):
        for bad in ([0.5, 1.7, 2.2], [True, False], [[0, 1]]):
            with pytest.raises(ArgumentError, match="integers|dimensions"):
                greedy_cover(line5, 0.5, subset=bad)
        with pytest.raises(ArgumentError, match="point id 5 out of range for n=5"):
            greedy_cover(line5, 0.5, subset=[0, 5])

    def test_is_cover_ids_must_be_integers_in_range(self, line5):
        for centers, subset in (([0, 2, 4], [1.5]), ([True], None), ([0, 2, 4], [5]),
                                ([7], None)):
            with pytest.raises(ArgumentError, match="out of range"):
                is_cover(line5, centers, 1.0, subset)
        assert is_cover(line5, [], 1.0, subset=[])
        assert not is_cover(line5, [], 1.0)
        assert is_cover(line5, np.array([0, 2, 4]), 1.0, subset={1, 3})

    @pytest.mark.parametrize("kind", [list, set, iter, np.array, tuple])
    def test_subsets_and_centers_of_any_iterable(self, kind):
        sp = _random_space(np.random.default_rng(9), 40)
        subset, centers = [31, 2, 17, 2, 8, 25, 39], [2, 8, 17, 25, 31, 39]
        want = greedy_cover(sp, 0.2, subset)
        got = greedy_cover(sp, 0.2, kind(subset))
        assert (got.centers, got.covered_map) == (want.centers, want.covered_map)
        assert is_cover(sp, kind(centers), 0.0, kind(subset))
        assert not is_cover(sp, kind(centers[1:]), 0.0, kind(subset))

    def test_nonpositive_epsilon_raises(self, line5):
        with pytest.raises(ArgumentError):
            greedy_cover(line5, 0.0)

    def test_nan_epsilon_raises(self, line5):
        # a NaN radius gives empty balls, on which the greedy loop never ends
        with pytest.raises(ArgumentError):
            greedy_cover(line5, math.nan)

    def test_covered_map_within_radius(self, line5):
        cover = greedy_cover(line5, 1.0)
        for p, c in cover.covered_map.items():
            assert line5.distance(p, c) <= 1.0

    def test_matches_oracle_on_random_spaces(self):
        rng = np.random.default_rng(11)
        for _ in range(25):
            n = int(rng.integers(2, 15))
            sp = _random_space(rng, n)
            eps = float(rng.uniform(0.05, 1.2))
            cover = greedy_cover(sp, eps)
            D = sp.pairwise(np.arange(n))
            assert list(cover.centers) == _greedy_oracle(D, eps, range(n))
            assert is_cover(sp, cover.centers, eps)

    def test_centers_pairwise_separated(self):
        rng = np.random.default_rng(5)
        sp = _random_space(rng, 30)
        eps = 0.3
        cover = greedy_cover(sp, eps)
        for a, b in itertools.combinations(cover.centers, 2):
            assert sp.distance(a, b) > eps

    def test_determinism(self):
        rng = np.random.default_rng(17)
        coords = rng.uniform(size=(40, 2))
        first = greedy_cover(FiniteMetricSpace.from_coordinates(coords), 0.25)
        second = greedy_cover(FiniteMetricSpace.from_coordinates(coords), 0.25)
        assert first == second


class TestGreedyCoverProperties:
    @given(space=tied_spaces(), data=st.data())
    def test_each_center_has_the_largest_remaining_ball(self, space, data):
        D = space.pairwise(np.arange(space.n))
        eps = data.draw(st.sampled_from(sorted(set(D[D > 0].tolist())) or [1.0]))
        eps *= data.draw(st.sampled_from([1.0, 0.5, 1.5]))
        subset = data.draw(st.sets(st.integers(0, space.n - 1), min_size=1) | st.none())
        cover = greedy_cover(space, eps, subset)
        asked = set(range(space.n) if subset is None else subset)
        remaining = set(asked)
        for c in cover.centers:
            counts = {x: sum(D[x, y] <= eps for y in remaining) for x in remaining}
            best = max(counts.values())
            assert c == min(x for x in remaining if counts[x] == best)
            ball = {y for y in remaining if D[c, y] <= eps}
            assert all(cover.covered_map[y] == c for y in ball)
            remaining -= ball
        assert not remaining
        assert set(cover.covered_map) == asked
        assert is_cover(space, cover.centers, eps, asked)
        assert all(D[a, b] > eps for a, b in itertools.combinations(cover.centers, 2))


class TestBruteForceCover:
    def test_line_minimum_size_two(self, line5):
        cover = brute_force_min_cover(line5, 1.0)
        assert len(cover) == 2
        assert cover.centers == (0, 3)  # lexicographically first optimum
        assert is_cover(line5, cover.centers, 1.0)

    def test_epsilon_at_least_diameter(self, line5):
        assert len(brute_force_min_cover(line5, 4.0)) == 1

    def test_epsilon_below_min_distance_needs_all(self, line5):
        assert len(brute_force_min_cover(line5, 0.5)) == 5

    def test_capacity_error_beyond_20(self):
        sp = FiniteMetricSpace.from_coordinates(np.arange(21.0))
        with pytest.raises(CapacityError):
            brute_force_min_cover(sp, 1.0)

    def test_optimality_against_exhaustion(self):
        rng = np.random.default_rng(23)
        for _ in range(10):
            n = int(rng.integers(2, 9))
            sp = _random_space(rng, n)
            eps = float(rng.uniform(0.1, 0.8))
            best = len(brute_force_min_cover(sp, eps))
            sizes = [k for k in range(1, n + 1)
                     if any(is_cover(sp, c, eps)
                            for c in itertools.combinations(range(n), k))]
            assert best == min(sizes)


class TestMetricEntropy:
    def test_line_exact_frozen(self, line5):
        assert metric_entropy(line5, 1.0, "exact") == pytest.approx(math.log(2))

    def test_line_greedy_frozen(self, line5):
        # greedy happens to be optimal on the line at this radius
        assert metric_entropy(line5, 1.0, "greedy") == pytest.approx(math.log(2))

    def test_zero_at_diameter(self, line5):
        assert metric_entropy(line5, 4.0, "exact") == 0.0
        assert metric_entropy(line5, 4.0, "greedy") == 0.0

    def test_greedy_dominates_exact(self):
        rng = np.random.default_rng(31)
        for _ in range(10):
            sp = _random_space(rng, int(rng.integers(3, 13)))
            eps = float(rng.uniform(0.1, 1.0))
            assert metric_entropy(sp, eps, "greedy") >= metric_entropy(sp, eps, "exact") - 1e-12

    def test_nonincreasing_in_epsilon(self):
        rng = np.random.default_rng(37)
        sp = _random_space(rng, 12)
        values = [metric_entropy(sp, eps, "exact") for eps in (0.1, 0.3, 0.6, 1.0, 1.5)]
        assert all(a >= b - 1e-12 for a, b in zip(values, values[1:]))

    def test_unknown_mode(self, line5):
        with pytest.raises(ArgumentError):
            metric_entropy(line5, 1.0, "bogus")


class TestGreedyVsOptimalBound:
    def test_harmonic_approximation_bound(self):
        # |greedy| <= (1 + ln d_max) |optimal| with d_max the largest ball size
        rng = np.random.default_rng(41)
        for _ in range(40):
            n = int(rng.integers(2, 13))
            sp = _random_space(rng, n)
            eps = float(rng.uniform(0.1, 1.0))
            greedy = greedy_cover(sp, eps)
            best = brute_force_min_cover(sp, eps)
            ball = sp.pairwise(np.arange(n)) <= eps
            d_max = int(ball.sum(axis=1).max())
            assert len(greedy) <= (1.0 + math.log(d_max)) * len(best) + 1e-9


class TestSampleCoverCompact:
    def test_draw_count_formula(self):
        seen = {}

        def sampler(n):
            seen["n"] = n
            return np.random.default_rng(0).uniform(size=(n, 1))

        sample_cover_compact(sampler, 0.5, 4, 1.0)
        assert seen["n"] == math.ceil(4 * (math.log(4) + 1))  # 10
        sample_cover_compact(sampler, 0.5, 1, 1.0)
        assert seen["n"] == 1

    def test_invalid_m_estimate(self):
        with pytest.raises(ArgumentError):
            sample_cover_compact(lambda n: np.zeros((n, 1)), 0.5, 0, 1.0)

    @pytest.mark.parametrize("u", [-5.0, 0.0, math.nan, math.inf])
    def test_invalid_u(self, u):
        with pytest.raises(ArgumentError, match="u must be positive and finite"):
            sample_cover_compact(lambda n: np.zeros((n, 1)), 0.5, 4, u)

    def test_unit_interval_cover_property(self):
        def sampler(n):
            return np.random.default_rng(99).uniform(size=(n, 1))

        cloud, cover = sample_cover_compact(sampler, 0.25, 16, 2.0)
        assert cover.radius == 0.25
        assert is_cover(cloud, cover.centers, 0.25)
        # the greedy pass ran at half radius, so the assignment is tighter
        for p, c in cover.covered_map.items():
            assert cloud.distance(p, c) <= 0.125 + 1e-12

    def test_deterministic_given_sampler(self):
        def mk():
            return lambda n: np.random.default_rng(7).uniform(size=(n, 2))

        _, c1 = sample_cover_compact(mk(), 0.3, 8, 1.0)
        _, c2 = sample_cover_compact(mk(), 0.3, 8, 1.0)
        assert c1 == c2


class TestFileFormats:
    def test_point_cloud_roundtrip(self, tmp_path):
        path = tmp_path / "cloud.txt"
        path.write_text("# dim=2\n0.0 0.0\n1.0 0.0\n0.0 1.5\n")
        pts = load_point_cloud(str(path))
        assert pts.shape == (3, 2)
        sp = load_space(str(path))
        assert sp.n == 3
        assert sp.distance(0, 2) == pytest.approx(1.5)

    def test_leading_blank_lines_skipped(self, tmp_path):
        path = tmp_path / "cloud.txt"
        path.write_text("\n  \n# dim=1\n0\n\n2\n")
        assert load_space(str(path)).distance(0, 1) == 2.0

    def test_point_cloud_bad_header(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("0.0 0.0\n")
        with pytest.raises(ParseError):
            load_point_cloud(str(path))

    def test_point_cloud_wrong_dim(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("# dim=2\n0.0\n")
        with pytest.raises(ParseError) as err:
            load_point_cloud(str(path))
        assert "line 2" in str(err.value)

    def test_distance_matrix_roundtrip(self, tmp_path):
        path = tmp_path / "dist.txt"
        path.write_text("3\n0 1 1\n1 0 1\n1 1 0\n")
        D = load_distance_matrix(str(path))
        assert D.shape == (3, 3)
        sp = load_space(str(path))
        assert sp.diameter == 1.0

    def test_distance_matrix_row_count(self, tmp_path):
        path = tmp_path / "dist.txt"
        path.write_text("3\n0 1 1\n1 0 1\n")
        with pytest.raises(ParseError):
            load_distance_matrix(str(path))

    def test_distance_matrix_non_numeric_entry(self, tmp_path):
        path = tmp_path / "dist.txt"
        path.write_text("3\n0 1 1\n1 0 abc\n1 1 0\n")
        with pytest.raises(ParseError) as err:
            load_distance_matrix(str(path))
        assert "line 3" in str(err.value)

    @pytest.mark.parametrize("load,text,line", [
        (load_distance_matrix, "3\n\n0 1 1\n1 0 x\n1 1 0\n", 4),
        (load_distance_matrix, "\n\n2\n0 1\n1\n", 5),
        (load_distance_matrix, "\nx\n", 2),
        (load_point_cloud, "# dim=1\n\n0\n\n1 2\n", 5),
        (load_point_cloud, "\n# dim=x\n0\n", 2)],
        ids=["matrix-entry", "matrix-count", "matrix-size", "cloud-count", "cloud-header"])
    def test_errors_name_the_file_line(self, tmp_path, load, text, line):
        path = tmp_path / "space.txt"
        path.write_text(text)
        with pytest.raises(ParseError, match=f"^line {line}: "):
            load(str(path))

    @pytest.mark.filterwarnings("error")
    def test_non_finite_point_cloud_rejected(self, tmp_path):
        path = tmp_path / "cloud.txt"
        path.write_text("# dim=2\n0 0\n1 nan\n2 2\n")
        with pytest.raises(ArgumentError, match="coordinate must be finite, found nan"):
            load_space(str(path))

    @pytest.mark.filterwarnings("error")
    def test_non_finite_distance_matrix_rejected(self, tmp_path):
        path = tmp_path / "dist.txt"
        path.write_text("3\n0 1 nan\n1 0 1\nnan 1 0\n")
        with pytest.raises(ArgumentError, match="distance must be finite, found nan"):
            load_space(str(path))

    def test_cover_csv(self, tmp_path):
        sp = FiniteMetricSpace.from_coordinates(np.arange(5.0))
        cover = greedy_cover(sp, 1.0)
        out = tmp_path / "cover.csv"
        write_cover_csv(cover, str(out))
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "center_id,order"
        assert lines[1] == "1,0"
        assert lines[2] == "3,1"
