"""Tests for kernels, posterior inference, information gain and squared intervals."""

import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy.special import erf, erfinv

from chainopt import (ArgumentError, CapacityError, FiniteMetricSpace,
                      GPPosterior, Kernel, NumericError, c_eta,
                      canonical_metric_space, gamma_t, gram,
                      information_gain, kernel_eval, make_grid, parse_kernel,
                      sample_paths, sample_prior, space_from_spec, squared_gaussian_interval,
                      squared_gaussian_outside_prob, squared_gp_bounds)
from chainopt import bandit, gp, metric
from chainopt.gp import _kernel_rows, chol_with_jitter

ALL_FAMILIES = ("se", "matern12", "matern32", "matern52", "linear")


def _dense_oracle(kernel, X, Y, eta2, x):
    """Posterior mean/variance through an explicit matrix inverse."""
    K = gram(kernel, X)
    C_inv = np.linalg.inv(K + eta2 * np.eye(len(X)))
    kvec = np.array([kernel_eval(kernel, xi, x) for xi in X])
    mu = float(kvec @ C_inv @ Y)
    var = kernel_eval(kernel, x, x) - float(kvec @ C_inv @ kvec)
    return mu, max(var, 0.0)


def _predict_at(kernel, eta2, X, Y, Xq):
    """Posterior means and deviations at the rows of Xq after observing Y at X.

    The query rows join the posterior's point set after the observed ones.
    """
    X = np.asarray(X, dtype=float).reshape(len(Y), -1)
    Xq = np.asarray(Xq, dtype=float).reshape(-1, X.shape[1])
    post = GPPosterior(kernel, eta2, np.vstack([X, Xq]), len(Y))
    for j, y in enumerate(Y):
        post.add(j, y)
    mu, sig = post.predict()
    return mu[len(Y):, 0], sig[len(Y):]


@st.composite
def _posterior_designs(draw):
    """A kernel, a noise level and 1-15 observations per replicate on a quarter-step
    lattice in 1-3 dimensions, so points repeat; 1-3 replicates."""
    kernel = Kernel(draw(st.sampled_from(ALL_FAMILIES)),
                    lengthscale=draw(st.sampled_from([0.25, 1.0, 4.0])))
    eta2 = 10.0 ** draw(st.floats(-6.0, 0.0))
    dim, n = draw(st.integers(1, 3)), draw(st.integers(2, 11))
    coords = np.array(draw(st.lists(st.tuples(*[st.integers(-4, 4)] * dim),
                                    min_size=n, max_size=n))) / 4.0
    reps, adds = draw(st.integers(1, 3)), draw(st.integers(1, 15))
    picks = np.array(draw(st.lists(st.tuples(*[st.integers(0, n - 1)] * reps),
                                   min_size=adds, max_size=adds)))
    ys = np.array(draw(st.lists(st.tuples(*[st.floats(-2.0, 2.0)] * reps),
                                min_size=adds, max_size=adds)))
    return kernel, eta2, coords, picks, ys, draw(st.integers(2, 7))


class TestKernels:
    def test_se_identical_points(self):
        assert kernel_eval(Kernel("se"), [0.3], [0.3]) == pytest.approx(1.0)

    def test_se_unit_distance(self):
        assert kernel_eval(Kernel("se"), [0.0], [1.0]) == pytest.approx(math.exp(-0.5))

    def test_matern32_zero_distance(self):
        assert kernel_eval(Kernel("matern32"), [0.0, 0.0], [0.0, 0.0]) == pytest.approx(1.0)

    def test_matern_closed_forms(self):
        r = 0.7
        for fam, p in (("matern12", 0.5), ("matern32", 1.5), ("matern52", 2.5)):
            d = math.sqrt(2 * p) * r
            h = {0.5: 1.0, 1.5: 1.0 + d, 2.5: 1.0 + d + d * d / 3.0}[p]
            assert kernel_eval(Kernel(fam), [0.0], [r]) == pytest.approx(h * math.exp(-d))

    def test_matern_at_a_huge_variance_stays_finite(self):
        # variance * h alone overflows from about 3.3 apart on; the covariance does not
        kernel, X = Kernel("matern52", 0.1, 1e305), np.linspace(0.0, 8.0, 60)
        K = gram(kernel, X)
        assert np.all(np.isfinite(K)) and K.min() > 0
        d = math.sqrt(5.0) * 8.0 / 0.1
        assert K[0, 59] == pytest.approx(1e305 * ((1 + d + d * d / 3) * math.exp(-d)))
        assert canonical_metric_space(kernel, X).distance(0, 59) == pytest.approx(
            math.sqrt(2e305))

    @pytest.mark.parametrize("fam", ["matern12", "matern32", "matern52"])
    @pytest.mark.parametrize("var", [1e-200, 0.3, 2.5, 1e200])
    def test_ordinary_variances_keep_their_rounding(self, fam, var):
        # up to the band's upper end the covariance is variance * h * exp(-d), left to right
        r = np.linspace(0.0, 3.0, 301)
        d = math.sqrt(2 * {"matern12": 0.5, "matern32": 1.5, "matern52": 2.5}[fam]) * (r / 0.7)
        h = {"matern12": 1.0, "matern32": 1.0 + d, "matern52": 1.0 + d + d * d / 3.0}[fam]
        assert np.array_equal(gp._scaled_dist(Kernel(fam, 0.7, var), r), var * h * np.exp(-d))

    def test_ou_is_matern12(self):
        assert Kernel("ou").family == "matern12"
        assert kernel_eval(Kernel("ou"), [0.0], [0.5]) == pytest.approx(
            kernel_eval(Kernel("matern12"), [0.0], [0.5]))

    def test_linear(self):
        assert kernel_eval(Kernel("linear"), [1.0, 2.0], [3.0, 1.0]) == pytest.approx(5.0)

    def test_dimension_mismatch(self):
        with pytest.raises(ArgumentError):
            kernel_eval(Kernel("se"), [0.0], [0.0, 1.0])

    def test_symmetry_and_scale(self):
        rng = np.random.default_rng(0)
        for fam in ALL_FAMILIES:
            k = Kernel(fam, lengthscale=0.7, variance=2.5)
            x, y = rng.normal(size=3), rng.normal(size=3)
            assert kernel_eval(k, x, y) == pytest.approx(kernel_eval(k, y, x))
            if fam != "linear":
                assert kernel_eval(k, x, x) == pytest.approx(2.5)

    def test_gram_psd_via_factorization(self):
        rng = np.random.default_rng(1)
        X = rng.normal(size=(12, 2))
        for fam in ALL_FAMILIES:
            K = gram(Kernel(fam, lengthscale=0.5), X)
            np.linalg.cholesky(K + 1e-8 * np.eye(12))  # raises if not PSD

    def test_parse_kernel_specs(self):
        assert parse_kernel("se:ls=1.0") == Kernel("se", 1.0)
        assert parse_kernel("matern32:ls=0.5") == Kernel("matern32", 0.5)
        assert parse_kernel("ou:ls=1.0").family == "matern12"
        assert parse_kernel("linear") == Kernel("linear")
        with pytest.raises(ArgumentError):
            parse_kernel("se:foo=1")
        with pytest.raises(ArgumentError):
            parse_kernel("warp:ls=1")

    @pytest.mark.parametrize("spec", ["se:ls=nan", "se:ls=inf", "se:var=nan", "se:var=-inf",
                                      "se:ls", "se:ls=1,", "", "se:ls=1:2",
                                      "linear:ls=1"])
    def test_bad_kernel_spec(self, spec):
        with pytest.raises(ArgumentError):
            parse_kernel(spec)

    @pytest.mark.parametrize("ls,var", [(math.nan, 1.0), (math.inf, 1.0),
                                        (1.0, math.nan), (1.0, math.inf)])
    def test_non_finite_scale_rejected(self, ls, var):
        with pytest.raises(ArgumentError, match="must be positive and finite"):
            Kernel("se", ls, var)

    def test_canonical_metric_space(self):
        k = Kernel("se", lengthscale=1.0)
        sp = canonical_metric_space(k, np.arange(4.0))
        assert sp.distance(0, 0) == 0.0
        expect = math.sqrt(2.0 - 2.0 * math.exp(-0.5))
        assert sp.distance(0, 1) == pytest.approx(expect)


class TestSamplePrior:
    def test_deterministic_per_seed(self):
        k = Kernel("se", 0.5)
        coords = np.linspace(0, 1, 8)
        assert np.array_equal(sample_prior(k, coords, 42), sample_prior(k, coords, 42))
        assert not np.array_equal(sample_prior(k, coords, 42), sample_prior(k, coords, 43))

    def test_moments_match_prior(self):
        k = Kernel("se", 0.4)
        coords = np.array([[0.0], [0.35], [1.0]])
        n = 10_000
        draws = np.stack([sample_prior(k, coords, s) for s in range(n)])
        se_mean = 1.0 / math.sqrt(n)
        assert np.all(np.abs(draws.mean(axis=0)) <= 3 * se_mean)
        # prior variance k(x,x) = 1; chi-square se of the sample variance
        var = draws.var(axis=0)
        se_var = math.sqrt(2.0 / n)
        assert np.all(np.abs(var - 1.0) <= 3 * se_var)

    def test_increment_variance_is_squared_metric(self):
        k = Kernel("se", 0.4)
        coords = np.array([[0.0], [0.35]])
        sp = canonical_metric_space(k, coords)
        d2 = sp.distance(0, 1) ** 2
        n = 10_000
        draws = np.stack([sample_prior(k, coords, s) for s in range(n)])
        inc = draws[:, 0] - draws[:, 1]
        se = math.sqrt(2.0 / n) * d2
        assert abs(np.mean(inc * inc) - d2) <= 3 * se + 1e-12

    @pytest.mark.parametrize("coords", [np.linspace(0, 1, 12), make_grid(2, 4)])
    def test_equals_single_path(self, coords):
        k = Kernel("matern32", 0.3)
        space = FiniteMetricSpace.from_coordinates(coords)
        for seed in (0, [3, 1]):
            assert np.array_equal(sample_prior(k, coords, seed),
                                  sample_paths(space, k, 1, seed)[0])

    @pytest.mark.parametrize("n_paths", [-1, 2.5, True, "3", None])
    def test_a_bad_path_count_is_refused_before_the_gram(self, monkeypatch, n_paths):
        def unreachable(*args):
            raise AssertionError("built before the path count was checked")
        monkeypatch.setattr(gp, "gram", unreachable)
        monkeypatch.setattr(gp, "chol_with_jitter", unreachable)
        k = Kernel("se", 0.5)
        coords = np.linspace(0, 1, 6)
        star = FiniteMetricSpace.from_distance_matrix(np.ones((4, 4)) - np.eye(4))
        for space, kernel in ((canonical_metric_space(k, coords), k), (star, None)):
            with pytest.raises(ArgumentError, match="n_paths must be a nonnegative integer"):
                sample_paths(space, kernel, n_paths, 0)


class TestBlockedDraw:
    """A draw writes ``L @ z`` back into its normals one ``metric._spans`` block of columns
    at a time.  On these shapes the blocks give the bits of the single product."""

    @pytest.mark.parametrize("spec,kernel,n_paths,width", [
        # 512-column blocks, as validate-mix's 1e5-path draw over the 256-point grid
        ("grid:dim=1,per_dim=256", Kernel("se", 0.2), 20_000, 512),
        # 128-column blocks, as validate-mix's 1000-path draw over the 1024-point star
        ("star:n=1024", None, 1000, 128),
        # inside one block: one product
        ("grid:dim=1,per_dim=64", Kernel("se", 0.2), 500, 500),
    ])
    def test_equals_the_single_product(self, monkeypatch, spec, kernel, n_paths, width):
        space = space_from_spec(spec, kernel)
        assert next(metric._spans(n_paths, space.n)) == (0, width)
        factored = []
        draw = gp._draw

        def recorded(build, n_paths, seed):
            factored.append(build())
            return draw(build, n_paths, seed)
        monkeypatch.setattr(gp, "_draw", recorded)
        paths = sample_paths(space, kernel, n_paths, [0, 1])
        z = np.random.default_rng([0, 1]).standard_normal((space.n, n_paths))
        assert np.array_equal(paths, (chol_with_jitter(factored[0].copy) @ z).T)


class _Builds:
    """A builder for chol_with_jitter: a fresh copy of M per call, counted."""

    def __init__(self, M):
        self.M, self.calls = M, 0

    def __call__(self):
        self.calls += 1
        return self.M.copy()


class TestCholWithJitter:
    def test_input_unchanged(self):
        M = np.ones((3, 3)) - 5e-9 * np.eye(3)
        before = M.copy()
        chol_with_jitter(M.copy)
        assert np.array_equal(M, before)

    def test_smallest_working_jitter(self):
        # M + 1e-9 I still has eigenvalue -4e-9; 1e-8 is the first rung that factors, on
        # the third matrix built, since a failed attempt leaves its matrix NaN
        M = np.ones((3, 3)) - 5e-9 * np.eye(3)
        build = _Builds(M)
        L = chol_with_jitter(build)
        assert build.calls == 3
        assert np.array_equal(L, np.tril(L))
        assert np.array_equal(L, np.linalg.cholesky(M + 1e-8 * np.eye(3)))

    def test_indefinite_raises(self):
        build = _Builds(-np.eye(3))
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            with pytest.raises(NumericError):
                chol_with_jitter(build)
        assert build.calls == 5                 # jitters 1e-10 .. 1e-6
        assert not caught

    @pytest.mark.parametrize("spec,kernel", [("grid:dim=1,per_dim=1024", Kernel("se", 0.2)),
                                             ("star:n=1024", None)])
    def test_in_place_factor_equals_numpys(self, spec, kernel):
        # the SE Gram of a fine grid and the centered Gram of a star, jittered as a draw's
        # first attempt: numpy's gufunc writing into the matrix gives np.linalg.cholesky's bits
        space = space_from_spec(spec, kernel)
        K = gram(kernel, space.coords) if kernel else gp._centered_gram(space)
        np.fill_diagonal(K, K.diagonal() + 1e-10)
        want = np.linalg.cholesky(K)
        L = gp._cholesky_in_place(K)
        assert L is K
        assert np.array_equal(L, want)


class TestKernelRows:
    # 100 points: there BLAS's X[js] @ X.T and X @ X.T round differently
    @pytest.mark.parametrize("dim", [1, 2, 3])
    @pytest.mark.parametrize("fam", ALL_FAMILIES)
    def test_rows_and_diagonal_equal_gram(self, fam, dim):
        X = np.random.default_rng(dim).uniform(-1.0, 1.0, size=(100, dim))
        k = Kernel(fam, 0.3, 1.7)
        K = gram(k, X)
        for js in ([7], [0, 99, 7, 7]):
            assert np.array_equal(_kernel_rows(k, X[js], X), K[js])
        assert np.array_equal(GPPosterior(k, 0.1, X, 1).diag, np.diag(K))

    def test_posterior_keeps_no_gram(self):
        n = 200
        X = np.random.default_rng(4).uniform(size=(n, 2))
        post = GPPosterior(Kernel("matern52", 0.3), 0.1, X, 70)
        for j in range(70):                    # crosses one refactorization
            post.add(j, 0.1 * j)
        sizes = [v.size for v in vars(post).values() if isinstance(v, np.ndarray)]
        assert max(sizes) < n * n

    def test_memory_peaks(self):
        # numpy reports its buffers to tracemalloc
        X = make_grid(2, 32, 1.0)
        full = 8 * len(X) ** 2
        k = Kernel("se", 0.1)
        tracemalloc.start()
        try:
            space = canonical_metric_space(k, X)
            _, space_peak = tracemalloc.get_traced_memory()
            tracemalloc.reset_peak()
            base, _ = tracemalloc.get_traced_memory()
            post = GPPosterior(k, 0.01, X, 10)
            for j in range(10):
                post.add(97 * j, 0.5)
            _, post_peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert space.n == len(X)
        assert space_peak < 1.5 * full
        assert post_peak - base < 0.5 * full


class TestPosterior:
    def test_prior_prediction(self):
        post = GPPosterior(Kernel("se"), 1.0, [[0.3]], 0)
        mu, sig = post.predict()
        assert mu.shape == (1, 1) and mu[0, 0] == 0.0
        assert sig[0] == pytest.approx(1.0)

    def test_single_observation_closed_form(self):
        post = GPPosterior(Kernel("se"), 1.0, [[0.0]], 1)
        post.add(0, 1.0)
        mu, sig = post.predict()
        assert mu[0, 0] == pytest.approx(0.5)
        assert sig[0] ** 2 == pytest.approx(0.5)

    def test_matches_dense_oracle(self):
        rng = np.random.default_rng(6)
        families = ("se", "matern12", "matern32", "matern52")
        for trial in range(30):
            k = Kernel(families[trial % 4], lengthscale=float(rng.uniform(0.3, 2.0)))
            t = int(rng.integers(1, 20))
            X = rng.normal(size=(t, 2))
            Y = rng.normal(size=t)
            eta2 = float(rng.uniform(0.05, 1.0))
            x = rng.normal(size=2)
            mu, sig = _predict_at(k, eta2, X, Y, x)
            mu_o, var_o = _dense_oracle(k, X, Y, eta2, x)
            assert mu[0] == pytest.approx(mu_o, abs=1e-8)
            assert sig[0] ** 2 == pytest.approx(var_o, abs=1e-8)

    def test_update_equals_rebuild(self):
        # 70 updates cross the periodic refactorization; points repeat
        rng = np.random.default_rng(8)
        k = Kernel("se", 0.6)
        eta2 = 0.1
        coords = rng.normal(size=(12, 1))
        post = GPPosterior(k, eta2, coords, 70, n_outputs=2)
        q = rng.integers(0, 12, size=70)
        Y = rng.normal(size=(70, 2))
        for j, y in zip(q, Y):
            post.add(int(j), y)
        assert len(set(q.tolist())) < 70
        mu, sig = post.predict()
        K = gram(k, coords)
        Kq = K[:, q]
        C_inv = np.linalg.inv(K[np.ix_(q, q)] + eta2 * np.eye(70))
        mu_o = Kq @ C_inv @ Y
        var_o = np.maximum(np.diag(K) - np.einsum("ij,jk,ik->i", Kq, C_inv, Kq), 0.0)
        assert np.allclose(mu, mu_o, rtol=0.0, atol=1e-9)
        assert np.allclose(sig * sig, var_o, rtol=0.0, atol=1e-9)

    def test_rejects_nonpositive_noise(self):
        for eta2 in (0.0, -0.1):
            with pytest.raises(ArgumentError):
                GPPosterior(Kernel("se"), eta2, [[0.0]], 1)

    def test_rejects_negative_capacity(self):
        with pytest.raises(ArgumentError, match="capacity must be nonnegative"):
            GPPosterior(Kernel("se"), 0.1, [[0.0]], -1)

    @pytest.mark.parametrize("capacity", [2.5, 2.0, "2", None, True])
    def test_rejects_non_integer_capacity(self, capacity):
        with pytest.raises(ArgumentError, match="capacity must be nonnegative and integral"):
            GPPosterior(Kernel("se"), 0.1, [[0.0]], capacity)

    @pytest.mark.parametrize("j", [-1, 2, 99, 1.5, True, [[0]]])
    def test_add_rejects_a_bad_point_id(self, j):
        # -1 would condition on the last point, 1.5 on point 1
        post = GPPosterior(Kernel("se"), 0.1, [[0.0], [1.0]], 2)
        with pytest.raises(ArgumentError, match="out of range|dimensions"):
            post.add(j, 1.0)
        assert post.t == 0 and not post.sumsq.any()

    @pytest.mark.parametrize("j", [[0, 1], [], np.array([0, 1, 0, 1]), range(2)])
    def test_add_takes_one_id_or_one_per_replicate(self, j):
        post = GPPosterior(Kernel("se"), 0.1, [[0.0], [1.0]], 2, replicates=3)
        with pytest.raises(ArgumentError, match="need one point id or 3, got"):
            post.add(j, 1.0)
        assert post.t == 0 and not post.sumsq.any()
        post.add(np.int64(1), [[1.0], [0.5], [0.0]])  # one id conditions every replicate
        post.add((0, 1, 0), [[0.2], [0.4], [0.6]])
        assert post.q[:, :2].tolist() == [[1, 0], [1, 1], [1, 0]]

    @pytest.mark.parametrize("y", [1.0, [1.0, 2.0], [[1.0, 2.0, 3.0, 4.0]], []])
    def test_add_needs_one_observation_per_replicate_and_channel(self, y):
        post = GPPosterior(Kernel("se"), 0.1, [[0.0], [1.0]], 2, replicates=3)
        with pytest.raises(ArgumentError,
                           match=r"need 3 observations \(3 replicates x 1 channels\), got"):
            post.add(1, y)
        assert post.t == 0 and not post.sumsq.any()
        two = GPPosterior(Kernel("se"), 0.1, [[0.0], [1.0]], 2, n_outputs=2)
        with pytest.raises(ArgumentError, match="need 2 observations"):
            two.add(0, 1.0)
        two.add(0, [1.0, 2.0])
        assert two.Yraw[0, 0].tolist() == [1.0, 2.0]

    def test_capacity_exhausted(self):
        post = GPPosterior(Kernel("se"), 0.1, [[0.0], [1.0]], 2)
        post.add(0, 1.0)
        post.add(1, 0.5)
        with pytest.raises(ArgumentError):
            post.add(0, 0.2)

    def test_negative_variance_raises(self):
        post = GPPosterior(Kernel("se"), 0.1, [[0.0], [1.0]], 2)
        post.add(0, 1.0)
        post.V[0, 0, 1] = 2.0     # a corrupted factor: w @ w exceeds k(x, x)
        with pytest.raises(NumericError):
            post.add(1, 0.5)

    def test_replicate_axis(self):
        with pytest.raises(ArgumentError):
            GPPosterior(Kernel("se"), 0.1, [[0.0]], 1, replicates=0)
        post = GPPosterior(Kernel("se"), 0.1, [[0.0], [1.0]], 2, replicates=3)
        post.add([0, 1, 0], [[1.0], [0.5], [0.2]])
        single = GPPosterior(Kernel("se"), 0.1, [[0.0], [1.0]], 2)
        single.add(1, 0.5)
        for got, want in zip(post.predict(1), single.predict()):
            assert np.array_equal(got, want)
        post.V[1, 0, 0] = 2.0     # corrupts replicate 1 only
        with pytest.raises(NumericError,
                           match=r"^negative posterior variance .*\(replicate 1\)$"):
            post.add([1, 0, 1], [[0.3], [0.3], [0.3]])

    def test_variance_decreases_at_observed_point(self):
        post = GPPosterior(Kernel("se"), 0.5, [[0.0]], 1)
        sig0 = post.predict()[1][0]
        post.add(0, 0.7)
        sig1 = post.predict()[1][0]
        assert sig1 < sig0

    def test_variance_monotone_everywhere(self):
        rng = np.random.default_rng(12)
        k = Kernel("matern32", 0.8)
        coords = np.vstack([np.linspace(-1, 1, 15)[:, None], rng.normal(size=(10, 1))])
        post = GPPosterior(k, 0.2, coords, 10)
        sig_prev = post.predict()[1][:15]
        for j in range(15, 25):
            post.add(j, float(rng.normal()))
            sig = post.predict()[1][:15]
            assert np.all(sig <= sig_prev + 1e-9)
            sig_prev = sig

    def test_duplicate_observations_accepted(self):
        post = GPPosterior(Kernel("se"), 0.3, [[0.2]], 2)
        post.add(0, 1.0)
        post.add(0, 0.8)
        mu, sig = post.predict()
        assert np.isfinite(mu[0, 0]) and sig[0] >= 0.0

    def test_sigma_bounded_by_prior(self):
        rng = np.random.default_rng(13)
        X = rng.normal(size=(8, 1))
        _, sig = _predict_at(Kernel("se", 0.5), 0.1, X, rng.normal(size=8),
                             rng.normal(size=(20, 1)))
        assert np.all(sig * sig <= 1.0 + 1e-9)

    @given(design=_posterior_designs())
    def test_every_update_matches_a_dense_solve(self, design):
        # updates, and refactorizations every 2-7 of them, against np.linalg.solve
        kernel, eta2, coords, picks, ys, every = design
        K = gram(kernel, coords)
        tol = 1e-8 * max(1.0, float(np.abs(K).max()))
        post = GPPosterior(kernel, eta2, coords, len(picks), replicates=picks.shape[1])
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(bandit, "_REBUILD_EVERY", every)
            for t in range(1, len(picks) + 1):
                post.add(picks[t - 1], ys[t - 1])
                for r in range(picks.shape[1]):
                    obs = picks[:t, r]
                    C = K[np.ix_(obs, obs)] + eta2 * np.eye(t)
                    A = np.linalg.solve(C, K[obs])
                    var = np.clip(np.diag(K) - np.einsum("ij,ij->j", K[obs], A), 0.0, None)
                    np.testing.assert_allclose(post.mean[r, :, 0], ys[:t, r] @ A,
                                               rtol=0, atol=tol)
                    np.testing.assert_allclose(post.variance()[r], var, rtol=0, atol=tol)


_COORDINATE_ENTRY_POINTS = {
    "gram": lambda X: gram(Kernel("se"), X),
    "sample_prior": lambda X: sample_prior(Kernel("se"), X, 0),
    "information_gain": lambda X: information_gain(Kernel("se"), X, 0.1),
    "canonical_metric_space": lambda X: canonical_metric_space(Kernel("se"), X),
    "GPPosterior": lambda X: GPPosterior(Kernel("se"), 0.1, X, 1),
}


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("entry", sorted(_COORDINATE_ENTRY_POINTS))
@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_non_finite_coordinate_rejected(entry, bad):
    with pytest.raises(ArgumentError, match=f"coordinate must be finite, found {bad}"):
        _COORDINATE_ENTRY_POINTS[entry]([[bad], [0.0], [1.0]])


class TestInformationGain:
    def test_empty_design(self):
        assert information_gain(Kernel("se"), np.zeros((0, 1)), 1.0) == 0.0

    def test_single_point(self):
        val = information_gain(Kernel("se"), [[0.0]], 1.0)
        assert val == pytest.approx(0.5 * math.log(2.0))

    def test_two_far_points_additive(self):
        one = information_gain(Kernel("se"), [[0.0]], 1.0)
        two = information_gain(Kernel("se"), [[0.0], [40.0]], 1.0)
        assert two == pytest.approx(2 * one, abs=1e-6)

    def test_matches_logdet(self):
        rng = np.random.default_rng(3)
        X = rng.normal(size=(7, 2))
        k = Kernel("matern52", 0.9)
        eta2 = 0.4
        K = gram(k, X)
        direct = 0.5 * math.log(np.linalg.det(np.eye(7) + K / eta2))
        assert information_gain(k, X, eta2) == pytest.approx(direct, abs=1e-9)


class TestGammaT:
    @pytest.fixture
    def space8(self):
        return FiniteMetricSpace.from_coordinates(np.linspace(0, 1, 8))

    def test_t1_modes_agree(self, space8):
        k = Kernel("se", 0.3)
        expect = 0.5 * math.log(1 + 1.0 / 0.5)
        assert gamma_t(k, space8, 1, 0.5, "exact") == pytest.approx(expect)
        assert gamma_t(k, space8, 1, 0.5, "greedy") == pytest.approx(expect)

    def test_greedy_below_exact(self, space8):
        k = Kernel("se", 0.25)
        for t in (2, 3):
            exact = gamma_t(k, space8, t, 0.3, "exact")
            greedy = gamma_t(k, space8, t, 0.3, "greedy")
            assert greedy <= exact + 1e-9

    def test_submodular_ratio(self, space8):
        k = Kernel("se", 0.25)
        exact = gamma_t(k, space8, 3, 0.3, "exact")
        greedy = gamma_t(k, space8, 3, 0.3, "greedy")
        assert greedy >= (1 - 1 / math.e) * exact - 1e-9

    def test_capacity_cap(self):
        sp = FiniteMetricSpace.from_coordinates(np.linspace(0, 1, 50))
        with pytest.raises(CapacityError):
            gamma_t(Kernel("se"), sp, 10, 0.5, "exact")

    def test_needs_coordinates(self):
        sp = FiniteMetricSpace.from_distance_matrix(np.ones((3, 3)) - np.eye(3))
        with pytest.raises(ArgumentError):
            gamma_t(Kernel("se"), sp, 1, 0.5)


class TestCEta:
    def test_unit_noise(self):
        assert c_eta(1.0) == pytest.approx(2.0 / math.log(2.0))

    def test_eta2_three(self):
        assert c_eta(3.0) == pytest.approx(2.0 / math.log(4.0 / 3.0))

    def test_monotone_to_zero(self):
        vals = [c_eta(e) for e in (1e-300, 1e-12, 1e-6, 1e-3, 0.1, 1.0)]
        assert all(a < b for a, b in zip(vals, vals[1:]))
        assert vals[0] < 0.003  # 2 / log(1e300)


def _tight_lower_oracle(mu, sigma, s):
    """Sharper lower endpoint valid when s exceeds |mu| / (sqrt(2) sigma)."""
    hi = 0.5 * (erf(math.sqrt(2) * mu / sigma + s) - erf(s))
    return math.sqrt(2) * sigma * float(erfinv(max(hi, 0.0)))


class TestSquaredGaussianInterval:
    def test_centered(self):
        l, u = squared_gaussian_interval(0.0, 1.0, 1.0)
        assert l == 0.0
        assert u == pytest.approx(math.sqrt(2.0))

    def test_shifted(self):
        l, u = squared_gaussian_interval(3.0, 1.0, 1.0)
        assert l == pytest.approx(3.0 - math.sqrt(2.0))
        assert u == pytest.approx(3.0 + math.sqrt(2.0))

    def test_exact_probability_below_bound(self):
        l, u = squared_gaussian_interval(3.0, 1.0, 1.0)
        p = squared_gaussian_outside_prob(3.0, 1.0, l, u)
        assert p < math.exp(-1.0)

    def test_oracle_matches_direct_cdf(self):
        from scipy.stats import norm
        rng = np.random.default_rng(4)
        for _ in range(20):
            mu = float(rng.uniform(0, 3))
            sigma = float(rng.uniform(0.3, 2.0))
            s = float(rng.uniform(0.5, 2.5))
            l, u = squared_gaussian_interval(mu, sigma, s)
            p = squared_gaussian_outside_prob(mu, sigma, l, u)
            inside_low = norm.cdf((l - mu) / sigma) - norm.cdf((-l - mu) / sigma)
            above = 1 - norm.cdf((u - mu) / sigma) + norm.cdf((-u - mu) / sigma)
            assert p == pytest.approx(inside_low + above, abs=1e-12)

    def test_coverage_monte_carlo_grid(self):
        rng = np.random.default_rng(5)
        n = 200_000
        for mu in (0.0, 1.0, 3.0):
            for sigma in (0.5, 1.0, 2.0):
                for s in (1.0, 2.0):
                    l, u = squared_gaussian_interval(mu, sigma, s)
                    x = rng.normal(mu, sigma, size=n)
                    sq = x * x
                    rate = float(np.mean((sq <= l * l) | (sq >= u * u)))
                    bound = math.exp(-s * s)
                    se = math.sqrt(bound * (1 - bound) / n)
                    assert rate <= bound + 3 * se

    def test_tight_lower_endpoint_dominates(self):
        # in the clamped regime the stated l is 0 while a positive l remains valid
        for mu, sigma, s in ((0.5, 1.0, 1.5), (0.2, 0.7, 2.0)):
            l_stated, u = squared_gaussian_interval(mu, sigma, s)
            l_tight = _tight_lower_oracle(mu, sigma, s)
            assert l_stated == 0.0
            assert l_tight >= 0.0
            p = squared_gaussian_outside_prob(mu, sigma, min(l_tight, u), u)
            assert p <= math.exp(-s * s) + 1e-9


class TestSquaredGpBounds:
    def test_reduces_to_interval_when_single_channel(self):
        mu, sigma, u = 1.3, 0.4, 2.0
        L, U = squared_gp_bounds(mu, sigma, u, 1)
        l, up = squared_gaussian_interval(mu, sigma, math.sqrt(u))
        assert L == pytest.approx(l * l)
        assert U == pytest.approx(up * up)

    def test_zero_mean_lower_clamps(self):
        L, _ = squared_gp_bounds(0.0, 1.0, 2.0, 4)
        assert L == 0.0

    def test_union_bound_example(self):
        mu, sigma, u, n = 1.0, 0.5, 2.0, 4
        s2 = u + math.log(n)
        spread = math.sqrt(2 * s2) * sigma
        L, U = squared_gp_bounds(mu, sigma, u, n)
        assert U == pytest.approx((mu + spread) ** 2)
        assert L == pytest.approx(max(0.0, mu - spread) ** 2)

    def test_joint_coverage_monte_carlo(self):
        rng = np.random.default_rng(9)
        trials = 100_000
        for n_proc in (1, 4):
            u = 1.0
            mus = rng.uniform(-1, 1, size=n_proc)
            sigmas = rng.uniform(0.4, 1.2, size=n_proc)
            draws = rng.normal(mus, sigmas, size=(trials, n_proc))
            ok = np.ones(trials, dtype=bool)
            for j in range(n_proc):
                L, U = squared_gp_bounds(mus[j], sigmas[j], u, n_proc)
                sq = draws[:, j] ** 2
                ok &= (sq > L) & (sq < U)
            rate = 1.0 - float(np.mean(ok))
            bound = math.exp(-u)
            se = math.sqrt(bound * (1 - bound) / trials)
            assert rate <= bound + 3 * se
