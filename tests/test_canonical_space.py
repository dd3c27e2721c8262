"""A canonical (kernel) space against the stored matrix it replaced.

The oracle is the matrix that ``canonical_metric_space`` once kept: the Gram
matrix turned into ``sqrt(max((k(x,x) + k(y,y)) - 2k(x,y), 0))``.  Every read
of the space, and every cover, bound and tree built on it, must give the bits
that the oracle's stored-matrix space gives.
"""

import math
import os
import tempfile

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from chainopt import (ArgumentError, FiniteMetricSpace, Kernel, build_tree,
                      canonical_metric_space, gram, greedy_cover, make_grid, metric,
                      write_tree)
from chainopt.cli import main
from chainopt.gp import _CanonicalSpace

FAMILIES = ("se", "ou", "matern12", "matern32", "matern52", "linear")


def _oracle(kernel, X):
    """The stored canonical matrix, and the largest k(x, x)."""
    K = gram(kernel, X)
    diag = K.diagonal().copy()
    D = diag[:, None] + diag[None, :]
    D -= 2.0 * K
    np.maximum(D, 0.0, out=D)
    return np.sqrt(D), float(diag.max())


def _matrix_twin(D, scale):
    """The oracle as a stored-matrix space, its pseudo-metric axioms checked first.

    ``metric._checked_metric`` takes the oracle as it is, unchanged: finite,
    zero on the diagonal, exactly symmetric and nonnegative.  It may refuse
    the triangle inequality only by less than the rounding of the cancellation in
    ``(k(x,x) + k(y,y)) - 2k(x,y)``: a d² off by a few ulps of ``scale`` is a
    d off by up to their square root.
    """
    before = D.tobytes()
    try:
        assert metric._checked_metric(D) is D and D.tobytes() == before
    except ArgumentError as exc:
        assert "triangle inequality" in str(exc)
        worst = (D[:, None, :] - D[:, :, None] - D[None, :, :]).max()
        assert worst <= 4 * math.sqrt(1e-14 * scale)
    return _stored(D)


def _stored(D):
    """The oracle as a stored-matrix space, its axioms unchecked."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(metric, "_checked_metric", lambda d: d)
        return FiniteMetricSpace.from_distance_matrix(D)


@st.composite
def _clouds(draw):
    """A kernel and 1-24 points in 1-3 dimensions.

    The points sit on a lattice whose spacing is a multiple of the
    lengthscale: at 1e-10 every distance is 0 or a rounding value, at 40 the
    far pairs of a squared-exponential kernel saturate at exactly
    sqrt(2 var).  Some points are repeated exactly or shifted by up to
    3e-10 lengthscales, which maps to d = 0 or to a rounding value.
    """
    ls = draw(st.sampled_from([0.05, 1.0, 3.0]))
    kernel = Kernel(draw(st.sampled_from(FAMILIES)), ls, draw(st.sampled_from([0.3, 1.0, 2.5])))
    dim = draw(st.integers(1, 3))
    step = ls * draw(st.sampled_from([1e-10, 0.1, 0.4, 1.0, 40.0]))
    pts = np.array(draw(st.lists(st.tuples(*[st.integers(0, 4)] * dim),
                                 min_size=1, max_size=16)), dtype=float) * step
    copies = draw(st.lists(st.tuples(st.integers(0, len(pts) - 1), st.integers(0, 3)),
                           max_size=8))
    shifted = [pts[i] + np.eye(dim)[0] * (k * 1e-10 * ls) for i, k in copies]
    return kernel, np.concatenate([pts, np.reshape(shifted, (-1, dim))])


def _tree_bytes(space, schedule, shift, u, tmp):
    path = os.path.join(tmp, "tree.csv")
    write_tree(build_tree(space, schedule, shift, u), path)
    with open(path, "rb") as fh:
        return fh.read()


class TestAgainstTheStoredMatrix:
    @given(cloud=_clouds(), data=st.data())
    def test_reads_give_the_matrix_bits(self, cloud, data):
        kernel, X = cloud
        D, scale = _oracle(kernel, X)
        sp = canonical_metric_space(kernel, X)
        ids = st.lists(st.integers(0, len(X) - 1), max_size=2 * len(X))
        rows, cols = data.draw(ids), data.draw(ids)
        assert np.array_equal(sp.rows(rows), D[rows])
        assert np.array_equal(sp.pairwise(rows, cols), D[np.ix_(rows, cols)])
        k = min(len(rows), len(cols))
        assert np.array_equal(sp.distances(rows[:k], cols[:k]), D[rows[:k], cols[:k]])
        if rows:
            assert np.array_equal(sp.distances(rows[:1], cols), D[rows[0], cols])
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(metric, "_BLOCK_BYTES", 8 * len(X))      # a row a block
            blocks = [b for _, b in sp.row_blocks(rows, cols)]
        assert np.array_equal(np.concatenate(blocks or [D[:0, cols]]), D[np.ix_(rows, cols)])
        assert sp.diameter == D.max()
        _matrix_twin(D, scale)

    @given(cloud=_clouds(), data=st.data())
    def test_covers_bounds_and_trees_match(self, cloud, data):
        kernel, X = cloud
        D, scale = _oracle(kernel, X)
        spaces = (canonical_metric_space(kernel, X), _matrix_twin(D, scale))
        n = len(X)
        eps = data.draw(st.sampled_from(sorted(set(D[D > 0].tolist())) or [1.0]))  # ties at eps
        subset = data.draw(st.sets(st.integers(0, n - 1), min_size=1) | st.none())
        rows = data.draw(st.lists(st.integers(0, n - 1), max_size=2 * n))
        cols = data.draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=2 * n)
                         | st.none())
        block_bytes = data.draw(st.sampled_from([1, metric._BLOCK_BYTES]))   # 1: a row a block
        schedule = data.draw(st.sampled_from(["geometric", "entropy"]))
        shift, u = data.draw(st.sampled_from([0, 1])), data.draw(st.sampled_from([0.5, 2.0]))
        covers, mins, trees = [], [], []
        with pytest.MonkeyPatch.context() as patch, tempfile.TemporaryDirectory() as tmp:
            patch.setattr(metric, "_BLOCK_BYTES", block_bytes)
            for sp in spaces:
                covers.append(greedy_cover(sp, eps, subset))
                mins.append((sp.min_positive(rows, cols), sp.min_positive(np.arange(n))))
                trees.append(_tree_bytes(sp, schedule, shift, u, tmp))
        assert covers[0].centers == covers[1].centers
        assert covers[0].covered_map == covers[1].covered_map
        assert mins[0] == mins[1]
        assert trees[0] == trees[1]

    @pytest.mark.parametrize("family", FAMILIES)
    def test_clustered_cloud(self, family):
        # 360 points: a lattice with duplicates, copies 1e-11 away and a far cluster
        rng = np.random.default_rng(5)
        pts = rng.integers(0, 12, size=(200, 2)) * 0.05
        X = np.concatenate([pts, pts[:60], pts[:60] + [1e-11, 0.0], pts[:40] + 3.0])
        kernel = Kernel(family, 0.1, 1.7)
        D, scale = _oracle(kernel, X)
        sp, twin = canonical_metric_space(kernel, X), _matrix_twin(D, scale)
        assert sp.diameter == D.max()
        assert np.array_equal(sp.pairwise(np.arange(len(X))), D)
        levels = [sp.diameter, *np.quantile(D[D > 0], [0.001, 0.01, 0.1, 0.5], method="lower")]
        for eps in levels:
            for subset in (None, np.arange(0, len(X), 3)):
                a, b = greedy_cover(sp, eps, subset), greedy_cover(twin, eps, subset)
                assert a.centers == b.centers and a.covered_map == b.covered_map
        for rows, cols in ((np.arange(260, 320), None), (np.arange(0, 360, 7), np.arange(200))):
            assert sp.min_positive(rows, cols) == twin.min_positive(rows, cols)
        with tempfile.TemporaryDirectory() as tmp:
            assert _tree_bytes(sp, "geometric", 1, 2.0, tmp) == _tree_bytes(twin, "geometric",
                                                                            1, 2.0, tmp)


    @pytest.mark.parametrize("kernel", [Kernel("matern52", 0.1, 1e305),
                                        Kernel("se", 0.1, 1e-310), Kernel("se", 0.1, 5e-324)])
    def test_extreme_variances_read_every_pair(self, kernel):
        # these variances fall outside _BAND_VARIANCE, where the closed forms may
        # overflow or lose bits to underflow: the space has no band, so every pair is
        # decided by its exact distance
        X = np.linspace(0.0, 8.0, 60)
        with np.errstate(over="ignore", invalid="ignore"):
            D, _ = _oracle(kernel, X[:, None])
            sp, twin = canonical_metric_space(kernel, X), _stored(D)
            assert sp.diameter == D.max()
            assert sp.min_positive(np.arange(60)) == twin.min_positive(np.arange(60))
            for eps in sorted(set(D[D > 0].tolist()))[::7]:
                assert greedy_cover(sp, eps).centers == greedy_cover(twin, eps).centers


class TestDesignLimits:
    @pytest.mark.parametrize("family", FAMILIES)
    def test_keeps_no_n_by_n_array(self, family):
        n = 100
        sp = canonical_metric_space(Kernel(family, 0.3),
                                    np.random.default_rng(1).uniform(size=(n, 2)))
        build_tree(sp, "entropy", 1, 2.0)
        sizes = [v.size for v in vars(sp).values() if isinstance(v, np.ndarray)]
        assert max(sizes) < n * n

    @pytest.mark.parametrize("family,most", [("se", 0.01), ("matern32", 0.01),
                                             ("linear", 1.0)])
    def test_balls_are_decided_on_euclidean_distances(self, monkeypatch, family, most):
        # only the pairs within rounding of the ball's edge read their exact distance;
        # the linear kernel has no such edge
        sp = canonical_metric_space(Kernel(family, 0.1), make_grid(2, 24))
        read, exact = [], _CanonicalSpace._exact

        def spy(space, rows, cols, mask):
            read.append(int(mask.sum()))
            return exact(space, rows, cols, mask)

        monkeypatch.setattr(_CanonicalSpace, "_exact", spy)
        m = sp.n
        for eps in (sp.diameter / 4, sp.distance(0, 1), sp.distance(0, 30)):
            read.clear()
            want = sp.pairwise(np.arange(m)) <= eps
            got = np.empty((m, m), dtype=bool)
            sp._fill_ball(np.arange(m), eps, got)
            assert np.array_equal(got, want)
            assert sum(read) <= most * m * m

    @pytest.mark.parametrize("kernel,coords", [
        (Kernel("linear"), [[1e200], [2e200], [0.0]]),     # k(x, x) overflows
        (Kernel("matern52"), [[0.0], [1e160]]),            # h(r) exp(-r) is inf * 0
    ])
    def test_refuses_a_non_finite_distance(self, kernel, coords):
        with np.errstate(over="ignore", invalid="ignore"):
            assert not np.all(np.isfinite(_oracle(kernel, np.array(coords))[0]))
        with pytest.raises(ArgumentError, match="every distance must be finite"):
            canonical_metric_space(kernel, coords)

    def test_cli_refuses_a_non_finite_distance(self, tmp_path, capsys):
        cfg = tmp_path / "v.cfg"
        cfg.write_text("space = grid:dim=1,per_dim=3,extent=1e200\nkernel = linear\n"
                       "trials = 10\n")
        assert main(["validate-upper", "--config", str(cfg)]) == 2
        assert "every distance must be finite" in capsys.readouterr().err
