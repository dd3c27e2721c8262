"""A cover's ball as k-d neighbour lists against the dense m×m boolean ball.

``greedy_cover`` holds the ball either way, chosen from a sampled density.
Here each path is forced through its module constants: the lists must hold
exactly the pairs of the dense ball, and the covers must be the same.
"""

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from chainopt import (CapacityError, FiniteMetricSpace, Kernel,
                      canonical_metric_space, greedy_cover, metric)
from chainopt.cli import main

BANDED = ("se", "matern12", "matern32", "matern52")


def _forced(patch, path):
    """Send every cover the constants allow down ``path``: "sparse" or "dense"."""
    if path == "sparse":
        patch.setattr(metric, "_SPARSE_MIN", 1)
        patch.setattr(metric, "_SPARSE_DENSITY", 2.0)
    else:
        patch.setattr(metric, "_SPARSE_MIN", math.inf)


def _lists_as_matrix(lists, m):
    start, nbr = lists
    ball = np.zeros((m, m), dtype=bool)
    ball[np.repeat(np.arange(m), np.diff(start)), nbr] = True
    assert len(nbr) == ball.sum()                      # no pair listed twice
    return ball


def _both_paths(space, eps, subset, block_rows):
    """The sparse lists (None if the space refuses them) and the two covers."""
    ids = np.arange(space.n) if subset is None else np.array(sorted(subset))
    covers = {}
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(metric, "_BLOCK_BYTES", 8 * space.n * block_rows)
        for path in ("dense", "sparse"):
            _forced(patch, path)
            covers[path] = greedy_cover(space, eps, subset)
        lists = space._ball_lists(ids, eps)
    dense = space.pairwise(ids) <= eps
    if lists is not None:
        assert np.array_equal(_lists_as_matrix(lists, len(ids)), dense)
    assert covers["dense"].centers == covers["sparse"].centers
    assert covers["dense"].covered_map == covers["sparse"].covered_map
    return lists


@st.composite
def _lattice_clouds(draw):
    """1-40 points of a lattice in 1-5 dimensions, some repeated exactly."""
    dim = draw(st.integers(1, 5))
    step = draw(st.sampled_from([0.1, 1 / 3, 1.0, 7e-3]))
    pts = draw(st.lists(st.tuples(*[st.integers(0, 5)] * dim), min_size=1, max_size=32))
    pts = np.array(pts, dtype=float) * step
    copies = draw(st.lists(st.integers(0, len(pts) - 1), max_size=8))
    return np.concatenate([pts, pts[copies]])


def _subset(draw, n):
    return draw(st.sets(st.integers(0, n - 1), min_size=1) | st.none())


class TestSparseBallEqualsDenseBall:
    @given(coords=_lattice_clouds(), data=st.data())
    def test_lattice_clouds(self, coords, data):
        space = FiniteMetricSpace.from_coordinates(coords)
        D = space.pairwise(np.arange(space.n))
        # ties at exactly eps: eps is one of the realized distances
        eps = data.draw(st.sampled_from(sorted(set(D[D > 0].tolist())) or [1.0]))
        lists = _both_paths(space, eps, _subset(data.draw, space.n),
                            data.draw(st.integers(1, 3)))
        assert lists is not None

    @given(family=st.sampled_from(BANDED), data=st.data())
    def test_canonical_spaces(self, family, data):
        dim = data.draw(st.integers(1, 3))
        ls = data.draw(st.sampled_from([0.05, 0.3, 2.0]))
        pts = data.draw(st.lists(st.tuples(*[st.integers(0, 6)] * dim), min_size=1,
                                 max_size=32))
        X = np.array(pts, dtype=float) * ls * data.draw(st.sampled_from([0.1, 0.4, 1.0]))
        space = canonical_metric_space(Kernel(family, ls, data.draw(
            st.sampled_from([0.3, 1.0, 2.5]))), X)
        D = space.pairwise(np.arange(space.n))
        eps = data.draw(st.sampled_from(sorted(set(D[D > 0].tolist())) or [1.0]))
        # the realized distance itself, or one ulp on either side of it
        eps = float(np.nextafter(eps, data.draw(st.sampled_from([0.0, eps, math.inf]))))
        lists = _both_paths(space, eps, _subset(data.draw, space.n),
                            data.draw(st.integers(1, 3)))
        assert (lists is None) == (space._band(eps)[1] == math.inf)

    @pytest.mark.parametrize("family", BANDED)
    def test_pairs_at_the_band_edges(self, family):
        # points at exactly r_in and r_out from the point 0, and one ulp on either side:
        # the band depends only on the kernel and the Euclidean diameter, 1 here
        kernel, base = Kernel(family, 0.2), np.linspace(0.0, 1.0, 21)
        for eps in (0.05, 0.3, 1.0):
            r_in, r_out = canonical_metric_space(kernel, base)._band(eps)
            assert 0 < r_in < r_out < 1
            edges = [np.nextafter(r, toward) for r in (r_in, r_out) for toward in (0, r, 2)]
            space = canonical_metric_space(kernel, np.concatenate([base, edges]))
            assert space._band(eps) == (r_in, r_out)
            assert _both_paths(space, eps, None, 1) is not None

    def test_matrix_spaces_and_unbanded_kernels_stay_dense(self):
        X = np.linspace(0.0, 1.0, 30)[:, None]
        matrix = FiniteMetricSpace.from_distance_matrix(np.abs(X - X.T), coords=X)
        linear = canonical_metric_space(Kernel("linear"), X)
        huge = canonical_metric_space(Kernel("matern52", 0.1, 1e305), X)
        with pytest.MonkeyPatch.context() as patch:
            _forced(patch, "sparse")
            for space in (matrix, linear, huge):
                assert space._ball_lists(np.arange(30), 0.1) is None

    def test_the_sampled_density_chooses(self):
        # a 2-D grid of 1024 points: a ball of radius 1.5 steps holds 9 of them (sparse),
        # one of radius 10 steps about a quarter of them (dense)
        space = FiniteMetricSpace.from_coordinates(np.indices((32, 32)).reshape(2, -1).T)
        assert space._ball_lists(np.arange(1024), 1.5) is not None
        assert space._ball_lists(np.arange(1024), 10.0) is None
        assert space._ball_lists(np.arange(metric._SPARSE_MIN - 1), 1.5) is None


class TestExactReadsInTheBand:
    @given(coords=_lattice_clouds(), data=st.data())
    def test_a_wider_band_on_a_coordinate_space(self, coords, data):
        # a coordinate space's band is empty, so it never reads an exact distance; under
        # a wider band that is still valid, the pairs inside it (those at exactly eps
        # among them) are decided by their exact distance, to the same results
        plain = FiniteMetricSpace.from_coordinates(coords)
        every = np.arange(plain.n)
        D = plain.pairwise(every)
        eps = data.draw(st.sampled_from(sorted(set(D[D > 0].tolist())) or [1.0]))
        subset = _subset(data.draw, plain.n)
        want = greedy_cover(plain, eps, subset)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(FiniteMetricSpace, "_band",
                          lambda self, e: (e * (1 - 1e-3), e * (1 + 1e-3)))
            patch.setattr(metric, "_BLOCK_BYTES", 8 * plain.n * data.draw(st.integers(1, 3)))
            wide = FiniteMetricSpace.from_coordinates(coords)
            assert wide.diameter == plain.diameter
            for rows in (every, every[::2]):
                assert wide.min_positive(rows) == plain.min_positive(rows)
            for path in ("dense", "sparse"):
                _forced(patch, path)
                got = greedy_cover(wide, eps, subset)
                assert got.centers == want.centers and got.covered_map == want.covered_map


class TestBudget:
    def test_a_dense_ball_over_budget_is_refused_before_allocating(self):
        # 70 000 points whose ball is the whole space: 4.9e9 booleans
        space = FiniteMetricSpace.from_coordinates(np.arange(70_000.0))
        with pytest.raises(CapacityError, match="ball of a cover of 70000 points"):
            greedy_cover(space, space.diameter)

    def test_sparse_lists_over_budget_are_refused(self, monkeypatch):
        space = FiniteMetricSpace.from_coordinates(np.arange(1000.0))
        monkeypatch.setattr(metric, "_BUDGET_BYTES", 4096)
        with pytest.raises(CapacityError, match="sparse ball over 1000 points"):
            greedy_cover(space, 1.5)

    @pytest.mark.parametrize("command", [["cover", "--epsilon", "0.1"], ["tree", "build"]])
    def test_cli_exits_2(self, tmp_path, capsys, monkeypatch, command):
        path = tmp_path / "cloud.txt"
        path.write_text("# dim=1\n" + "\n".join(f"{x:.4f}" for x in np.linspace(0, 1, 100)))
        monkeypatch.setattr(metric, "_BUDGET_BYTES", 4096)
        assert main([*command, "--space", str(path), "--out", str(tmp_path / "o.csv")]) == 2
        assert "4096-byte limit" in capsys.readouterr().err
