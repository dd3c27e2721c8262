"""One size rule: every call that allocates something quadratic in its inputs
counts its bytes from shapes and passes them to ``metric._check_budget`` first.
One block rule: every piece a large array is worked through in is cut by
``metric._spans``, and only ``metric`` holds the memory constants.

Most tests here lower the budget to 4096 bytes, so nothing large is allocated.
"""

import importlib
import pkgutil
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest

import chainopt
from chainopt import (CapacityError, FiniteMetricSpace, GPPosterior, Kernel, ParseError, bandit,
                      canonical_metric_space, gp, greedy_cover, harness, information_gain,
                      load_distance_matrix, load_point_cloud, load_space, make_ellipsoid,
                      make_grid, make_line, make_star, metric, sample_paths, sample_prior,
                      space_from_spec)

SE = Kernel("se", 0.5)


def _line(n):
    return FiniteMetricSpace.from_coordinates(np.arange(float(n)))


# site -> (its largest call under a 4096-byte budget, and one size more), by its count
BOUNDARIES = {
    # 8 dim points + 8 per_dim + 2048
    "grid-side": (lambda: make_grid(2, 11), lambda: make_grid(2, 12)),
    "grid-dim": (lambda: make_grid(255, 1), lambda: make_grid(256, 1)),
    "line": (lambda: make_line(512), lambda: make_line(513)),                 # 8 n
    "star": (lambda: make_star(13), lambda: make_star(14)),                   # 24 n^2
    "ellipsoid": (lambda: make_ellipsoid([1.0] * 15),                         # 8 (2D+1) D
                  lambda: make_ellipsoid([1.0] * 16)),
    # 8 (3 n^2 + 2 n paths); test_harness's test_path_limit_is_inclusive is sample_paths' own
    "prior": (lambda: sample_prior(SE, np.arange(12.0), 0),
              lambda: sample_prior(SE, np.arange(13.0), 0)),
    # 8 R capacity n
    "posterior": (lambda: GPPosterior(SE, 0.1, np.arange(16.0), 16, replicates=2),
                  lambda: GPPosterior(SE, 0.1, np.arange(16.0), 17, replicates=2)),
    # m^2 booleans
    "cover": (lambda: greedy_cover(_line(64), 63.0), lambda: greedy_cover(_line(65), 64.0)),
    # 32 t^2
    "information-gain": (lambda: information_gain(SE, np.arange(11.0), 0.1),
                         lambda: information_gain(SE, np.arange(12.0), 0.1)),
}


@pytest.mark.parametrize("site", BOUNDARIES)
def test_the_largest_call_passes_and_one_more_is_refused(monkeypatch, site):
    allowed, refused = BOUNDARIES[site]
    monkeypatch.setattr(metric, "_BUDGET_BYTES", 4096)
    allowed()
    with pytest.raises(CapacityError, match="4096-byte limit of one call"):
        refused()


def _unreachable(*args, **kwargs):
    raise AssertionError("allocated before the byte budget check")


class TestRefusedBeforeAllocating:
    def test_an_ellipsoid_with_many_axes(self, harness_cannot_allocate):
        # 10 000 axes: 20 001 points of 10 000 coordinates, 1.6 GB
        with pytest.raises(CapacityError, match="ellipsoid with 10000 axes"):
            make_ellipsoid([1.0] * 10_000)

    def test_a_posterior_with_a_large_capacity(self, monkeypatch):
        monkeypatch.setattr(np, "zeros", _unreachable)
        with pytest.raises(CapacityError, match="posterior of 1 x 1000000000000 queries"):
            GPPosterior(SE, 0.1, np.arange(16.0), 10 ** 12)

    def test_a_prior_draw_over_6688_points(self, monkeypatch):
        # 8 (3 n^2 + 2 n) bytes: 6688 points fit the budget and 6689 do not, even for one path
        class Reached(Exception):
            pass

        def reached(*args):
            raise Reached
        monkeypatch.setattr(gp, "gram", reached)
        with pytest.raises(Reached):
            sample_prior(SE, np.arange(6688.0), 0)
        monkeypatch.setattr(gp, "gram", _unreachable)
        with pytest.raises(CapacityError, match="1 paths over 6689 points"):
            sample_prior(SE, np.arange(6689.0), 0)

    def test_an_information_gain_over_5793_points(self, monkeypatch):
        # 32 t^2 bytes: 5792 points fit the budget and 5793 do not
        monkeypatch.setattr(gp, "gram", _unreachable)
        with pytest.raises(CapacityError, match="information gain of 5793 points"):
            information_gain(SE, np.arange(5793.0), 0.1)

    @pytest.mark.parametrize("load", [load_distance_matrix, load_space,
                                      lambda path: space_from_spec(f"file:{path}", SE)])
    def test_a_matrix_file_from_its_header(self, tmp_path, load):
        # 24 n^2 bytes: 6688 points fit the budget and 6689 do not, refused before the
        # malformed row is parsed
        path = tmp_path / "dist.txt"
        path.write_text("6688\n0 1\n")
        with pytest.raises(ParseError, match="line 2: expected 6688 values, got 2"):
            load(str(path))
        path.write_text("6689\n0 1\n")
        with pytest.raises(CapacityError, match="a 6689-point distance matrix"):
            load(str(path))

    @pytest.mark.parametrize("load", [load_point_cloud, load_space,
                                      lambda path: space_from_spec(f"file:{path}", SE)])
    def test_a_point_cloud_as_it_grows(self, tmp_path, monkeypatch, load):
        # 8 bytes a value: 256 points of 2 coordinates fit 4096 bytes, and the 257th is
        # refused before it is read
        monkeypatch.setattr(metric, "_BUDGET_BYTES", 4096)
        path = tmp_path / "cloud.txt"
        rows = [f"{k} 0\n" for k in range(256)]
        path.write_text("# dim=2\n" + "".join(rows))
        load(str(path))
        path.write_text("# dim=2\n" + "".join(rows) + "x y\n")
        with pytest.raises(CapacityError, match="the point cloud .* 4096-byte limit"):
            load(str(path))

    @pytest.mark.parametrize("nbytes", [10 ** 400, 2.0 ** 1000])
    def test_counts_of_any_size_are_reported(self, nbytes):
        with pytest.raises(CapacityError, match=r"needs about \d\.\d\de\+\d+ bytes"):
            metric._check_budget(nbytes, "a count")


class _Counted(Exception):
    """Raised in place of the budget check, after recording the count it was given."""


def _count(module, call) -> int:
    """The bytes ``call`` passes to the byte budget check through ``module``; nothing after
    the check runs."""
    seen = []

    def record(nbytes, what):
        seen.append(nbytes)
        raise _Counted
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(module, "_check_budget", record)
        with pytest.raises(_Counted):
            call()
    return seen[0]


class TestWorkloads:
    """The benchmark's largest calls sit under the budget by the sites' own counts, so a
    later budget change cannot quietly refuse a workload."""

    def test_budget_holds_every_workload(self):
        grid4096 = make_grid(2, 64)
        se01, se02 = Kernel("se", 0.1), Kernel("se", 0.2)
        grid256 = canonical_metric_space(se02, make_grid(1, 256))
        counts = {
            # optimize-grid4096: the 4096-point prior draw (about 402 MB) and its t=500 loop
            "prior": _count(gp, lambda: sample_prior(se01, grid4096, [0, 0])),
            "posterior": _count(bandit, lambda: GPPosterior(se01, 0.01, grid4096, 500)),
            # replicates-grid64: 20 replicates of 200 queries on 64 points
            "replicates": _count(bandit, lambda: GPPosterior(se02, 0.01, make_grid(1, 64), 200,
                                                             replicates=20)),
            # validate-mix: 1e5 paths over 256 points (about 411 MB), the 1024-point star
            # and its 1000-path draw
            "upper": _count(gp, lambda: sample_paths(grid256, se02, 100_000, 0)),
            "star": _count(harness, lambda: make_star(1024)),
            "lower": _count(gp, lambda: sample_paths(SimpleNamespace(n=1024), None, 1000, 0)),
        }
        assert counts["prior"] == 8 * (3 * 4096 ** 2 + 2 * 4096)
        assert counts["upper"] == 8 * (3 * 256 ** 2 + 2 * 256 * 100_000)
        over = {site: n for site, n in counts.items() if n > metric._BUDGET_BYTES}
        assert not over


def _traced(call):
    """``call()`` and the most bytes ``tracemalloc`` sees held at once during it."""
    tracemalloc.start()
    try:
        return call(), tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("dim,per_dim", [(13, 2), (8192, 1), (1, 8192), (2, 91), (5, 3)])
def test_the_grid_count_covers_its_traced_peak(dim, per_dim):
    count = _count(harness, lambda: make_grid(dim, per_dim))
    assert _traced(lambda: make_grid(dim, per_dim))[1] <= count


@pytest.mark.parametrize("symmetric", ["exactly", "up to rounding"])
def test_the_matrix_file_count_covers_the_traced_peak_of_load_space(tmp_path, symmetric):
    # 600 points: the axiom check's fixed temporaries (its 10 000 sampled triangles and
    # its 256 x 256 tiles) sit under one of the three counted n x n arrays
    x = np.random.default_rng(0).uniform(size=(600, 2))
    D = np.sqrt(((x[:, None, :] - x[None, :, :]) ** 2).sum(axis=2))
    if symmetric == "up to rounding":
        D[np.triu_indices(600, 1)] *= 1 + 1e-15
    path = tmp_path / "dist.txt"
    path.write_text("600\n" + "".join(" ".join(map(repr, row)) + "\n" for row in D.tolist()))
    count = _count(metric, lambda: load_space(str(path)))
    space, peak = _traced(lambda: load_space(str(path)))
    assert peak <= count
    assert np.array_equal(space.pairwise(range(600)), (D + D.T) / 2)


@pytest.mark.parametrize("family", ["se", "linear", "matern52"])
def test_the_information_gain_count_covers_its_traced_peak(family):
    # 1000 points: the kernel transform's temporaries, a few blocks of metric._spans that
    # no count includes, sit under one of the four counted t x t arrays
    X = np.linspace(0.0, 1.0, 1000)
    count = _count(gp, lambda: information_gain(Kernel(family, 0.2), X, 0.1))
    assert _traced(lambda: information_gain(Kernel(family, 0.2), X, 0.1))[1] <= count


def test_only_metric_binds_the_memory_constants():
    names = {"_BLOCK_BYTES", "_BUDGET_BYTES", "_BATCH_BYTES"}
    modules = {info.name: importlib.import_module(f"chainopt.{info.name}")
               for info in pkgutil.iter_modules(chainopt.__path__)}
    bound = {name: sorted(names & set(vars(module))) for name, module in modules.items()}
    assert bound.pop("metric") == ["_BLOCK_BYTES", "_BUDGET_BYTES"]
    assert set(bound) >= {"bandit", "gp", "harness"}
    assert not any(bound.values()), bound


class _Counting:
    """Calls ``call`` and counts the calls."""

    def __init__(self, call):
        self.call, self.calls = call, 0

    def __call__(self, *args, **kwargs):
        self.calls += 1
        return self.call(*args, **kwargs)


def _blocked(block_bytes, call, count, width):
    """``call()`` with ``metric._BLOCK_BYTES`` set to ``block_bytes``, and the number of
    pieces ``metric._spans(count, width)`` cuts there."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(metric, "_BLOCK_BYTES", block_bytes)
        return call(), len(list(metric._spans(count, width)))


class TestOneBlockRule:
    """Patching ``metric._BLOCK_BYTES`` alone recuts the pieces of gp, harness and bandit
    as ``metric._spans`` says, and every result keeps its bits."""

    def test_the_kernel_transform(self, monkeypatch):
        kernel = Kernel("matern52", 0.3)
        A, X = np.linspace(0, 1, 5)[:, None], np.linspace(0, 2, 9)[:, None]
        results = []
        for block_bytes, want in ((metric._BLOCK_BYTES, 1), (8 * 7, 7)):    # 45 covariances
            counted = _Counting(gp._scaled_dist)
            monkeypatch.setattr(gp, "_scaled_dist", counted)
            rows, pieces = _blocked(block_bytes, lambda: gp._kernel_rows(kernel, A, X), 45, 1)
            assert counted.calls == pieces == want
            results.append(rows)
        assert np.array_equal(*results)

    @pytest.mark.parametrize("rows,m,per_block", [(10, 5, 3), (7, 2, 2), (2, 3, 1)])
    def test_the_draws_of_row_maxima(self, rows, m, per_block):
        class Draws:
            def __init__(self):
                self.rng, self.calls = np.random.default_rng(4), 0

            def standard_normal(self, size):
                self.calls += 1
                return self.rng.standard_normal(size=size)
        results = []
        for block_bytes, want in ((metric._BLOCK_BYTES, 1),
                                  (8 * m * per_block, -(-rows // per_block))):
            draws = Draws()
            maxima, pieces = _blocked(block_bytes, lambda: harness._row_maxima(draws, rows, m),
                                      rows, m)
            assert draws.calls == pieces == want
            results.append((maxima, draws.rng.standard_normal()))
        (whole, after_whole), (split, after_split) = results
        assert np.array_equal(whole, split) and after_whole == after_split

    def test_the_factorization_calls_of_a_rebuild(self, monkeypatch):
        R, t, n = 5, bandit._REBUILD_EVERY, 12
        js = np.random.default_rng(1).integers(0, n, size=(t, R))
        ys = np.random.default_rng(2).normal(size=(t, R))

        def run():
            post = GPPosterior(SE, 0.1, np.linspace(0, 1, n), t, replicates=R)
            for j, y in zip(js, ys):
                post.add(j, y)                # the last add rebuilds
            return post
        results = []
        for block_bytes, want in ((metric._BLOCK_BYTES, 1), (8 * t * t * 2, 3)):  # 2 a call
            cholesky = _Counting(np.linalg.cholesky)
            monkeypatch.setattr(np.linalg, "cholesky", cholesky)
            post, pieces = _blocked(block_bytes, run, R, t * t)
            assert cholesky.calls == pieces == want
            results.append(post)
        for name in ("V", "B", "sumsq", "mean"):
            assert np.array_equal(getattr(results[0], name), getattr(results[1], name)), name
