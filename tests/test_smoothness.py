"""Tests for increment tail bounds, the zeta helper and confidence levels."""

import math

import numpy as np
import pytest
from scipy.special import zeta as scipy_zeta

from chainopt import (ArgumentError, SmoothnessModel, confidence_level_u_i,
                      ell_u, psi_star_inv, squared_gp_metric, zeta)


def _zeta_bracket_oracle(a, k_max=200_000):
    """Partial sum plus the integral tail bracket; returns (value, half-width)."""
    ks = np.arange(1, k_max + 1, dtype=float)
    partial = float((ks ** -a).sum())
    hi = k_max ** (1 - a) / (a - 1)
    lo = (k_max + 1) ** (1 - a) / (a - 1)
    return partial + 0.5 * (hi + lo), 0.5 * (hi - lo)


class TestModels:
    def test_subgamma_rejects_double_zero(self):
        with pytest.raises(ArgumentError):
            SmoothnessModel.sub_gamma(0.0, 0.0)

    def test_subgamma_rejects_negative(self):
        with pytest.raises(ArgumentError):
            SmoothnessModel.sub_gamma(-1.0, 0.5)

    @pytest.mark.parametrize("nu,c", [(math.nan, 0.5), (1.0, math.nan),
                                      (math.inf, 0.0), (1.0, math.inf)])
    def test_subgamma_rejects_non_finite(self, nu, c):
        with pytest.raises(ArgumentError, match="nonnegative and finite"):
            SmoothnessModel.sub_gamma(nu, c)

    def test_squaredgp_validation(self):
        with pytest.raises(ArgumentError):
            SmoothnessModel.squared_gp(0)


class TestEllU:
    def test_gaussian_value(self):
        assert ell_u(SmoothnessModel.gaussian(), 2.0, 0.5) == pytest.approx(1.0)

    def test_subgamma_reduces_to_gaussian(self):
        m = SmoothnessModel.sub_gamma(nu=1.0, c=0.0)
        assert ell_u(m, 2.0, 1.0) == pytest.approx(2.0)

    def test_zero_distance(self):
        for m in (SmoothnessModel.gaussian(), SmoothnessModel.sub_gamma(1.0, 1.0),
                  SmoothnessModel.squared_gp(3)):
            assert ell_u(m, 1.5, 0.0) == 0.0

    def test_nonpositive_u_raises(self):
        with pytest.raises(ArgumentError):
            ell_u(SmoothnessModel.gaussian(), 0.0, 1.0)

    def test_linear_in_distance(self):
        m = SmoothnessModel.sub_gamma(2.0, 0.7)
        rng = np.random.default_rng(0)
        for _ in range(20):
            u = float(rng.uniform(0.1, 5.0))
            d = float(rng.uniform(0.0, 3.0))
            s = float(rng.uniform(0.1, 4.0))
            assert ell_u(m, u, s * d) == pytest.approx(s * ell_u(m, u, d))

    def test_nondecreasing_in_u(self):
        m = SmoothnessModel.squared_gp(4)
        vals = [ell_u(m, u, 1.0) for u in (0.5, 1.0, 2.0, 4.0, 8.0)]
        assert all(a <= b for a, b in zip(vals, vals[1:]))

    def test_squaredgp_equals_subgamma_n_1(self):
        rng = np.random.default_rng(1)
        for n in (1, 3, 7):
            sq = SmoothnessModel.squared_gp(n)
            sg = SmoothnessModel.sub_gamma(nu=float(n), c=1.0)
            for _ in range(10):
                u = float(rng.uniform(0.1, 6.0))
                d = float(rng.uniform(0.0, 2.0))
                assert ell_u(sq, u, d) == pytest.approx(ell_u(sg, u, d))


class TestPsiStarInv:
    def test_gaussian_example(self):
        assert psi_star_inv(SmoothnessModel.gaussian(), 8.0, 1.0) == pytest.approx(4.0)

    def test_subgamma_example(self):
        m = SmoothnessModel.sub_gamma(nu=2.0, c=1.0)
        assert psi_star_inv(m, 2.0, 1.0) == pytest.approx(2.0 + math.sqrt(8.0))

    def test_zero_delta(self):
        assert psi_star_inv(SmoothnessModel.gaussian(), 3.0, 0.0) == 0.0


class TestSquaredGpMetric:
    def test_identical_points(self):
        assert squared_gp_metric(1.0, 1.0) == 0.0

    def test_orthogonal(self):
        assert squared_gp_metric(0.0, 1.0) == pytest.approx(2.0)

    def test_intermediate(self):
        assert squared_gp_metric(0.6, 1.0) == pytest.approx(1.6)

    def test_out_of_range_rejected(self):
        with pytest.raises(ArgumentError):
            squared_gp_metric(1.1, 1.0)

    @pytest.mark.parametrize("kappa", [math.nan, math.inf, 0.0, -1.0])
    def test_kappa_must_be_finite_positive(self, kappa):
        with pytest.raises(ArgumentError, match="kappa"):
            squared_gp_metric(0.5, kappa)

    @pytest.mark.parametrize("k_xy", [math.nan, math.inf, -math.inf])
    def test_k_xy_must_be_finite(self, k_xy):
        with pytest.raises(ArgumentError, match="finite"):
            squared_gp_metric(k_xy, 1.0)

    def test_tolerance_clamp(self):
        assert squared_gp_metric(1.0 + 5e-10, 1.0) == 0.0


class TestZeta:
    def test_value_at_two(self):
        val, width = _zeta_bracket_oracle(2.0)
        assert abs(zeta(2.0) - val) <= width + 1e-10
        assert zeta(2.0) == pytest.approx(1.6449340668, abs=1e-9)

    def test_value_at_four(self):
        val, width = _zeta_bracket_oracle(4.0)
        assert abs(zeta(4.0) - val) <= width + 1e-10
        assert zeta(4.0) == pytest.approx(1.0823232337, abs=1e-9)

    def test_large_a_tends_to_one(self):
        assert zeta(50.0) == pytest.approx(1.0, abs=1e-10)

    def test_against_scipy_grid(self):
        for a in (1.1, 1.5, 2.0, 3.0, 4.0, 7.5, 20.0):
            assert zeta(a) == pytest.approx(float(scipy_zeta(a)), abs=1e-10)

    def test_diverges_at_one(self):
        with pytest.raises(ArgumentError):
            zeta(1.0)
        with pytest.raises(ArgumentError):
            zeta(0.5)


class TestConfidenceLevel:
    def test_combined_example(self):
        expect = 3.0 + math.log(zeta(2.0))
        assert confidence_level_u_i(1.0, 2.0, 1, 2.0) == pytest.approx(expect)
        assert confidence_level_u_i(1.0, 2.0, 1, 2.0) == pytest.approx(3.4977, abs=2e-4)

    def test_degenerate_tail(self):
        assert confidence_level_u_i(1.0, 0.0, 1, 50.0) == pytest.approx(1.0, abs=1e-9)

    def test_strictly_increasing_in_i(self):
        vals = [confidence_level_u_i(1.0, 2.0, i, 2.0) for i in range(1, 20)]
        assert all(a < b for a, b in zip(vals, vals[1:]))

    def test_preconditions(self):
        with pytest.raises(ArgumentError):
            confidence_level_u_i(1.0, 2.0, 0, 2.0)
        with pytest.raises(ArgumentError):
            confidence_level_u_i(1.0, 2.0, 1, 1.0)
        with pytest.raises(ArgumentError):
            confidence_level_u_i(1.0, -0.5, 1, 2.0)


class TestTailCoverage:
    """Empirical tail frequencies stay below exp(-u) plus three standard errors."""

    def test_gaussian_increment_tail(self):
        rng = np.random.default_rng(2024)
        n = 1_000_000
        model = SmoothnessModel.gaussian()
        for u in (1.0, 2.0, 4.0):
            for d in (0.5, 1.0, 2.0):
                # X - Y with E(X-Y)^2 = d^2, realized as d * standard normal
                diff = d * rng.standard_normal(n)
                rate = float(np.mean(diff > ell_u(model, u, d)))
                bound = math.exp(-u)
                se = math.sqrt(bound * (1 - bound) / n)
                assert rate <= bound + 3 * se

    def test_squared_gp_increment_tail(self):
        rng = np.random.default_rng(77)
        n = 1_000_000
        kappa = 1.0
        for n_proc in (1, 4):
            model = SmoothnessModel.squared_gp(n_proc)
            for u in (1.0, 2.0):
                rho = 0.6
                d = squared_gp_metric(rho, kappa)
                # f = -sum g_j^2 over channels with corr(g(x), g(y)) = rho
                gx = rng.standard_normal((n, n_proc))
                gy = rho * gx + math.sqrt(1 - rho * rho) * rng.standard_normal((n, n_proc))
                diff = (gy * gy - gx * gx).sum(axis=1)   # f(x) - f(y)
                rate = float(np.mean(diff > ell_u(model, u, d)))
                bound = math.exp(-u)
                se = math.sqrt(bound * (1 - bound) / n)
                assert rate <= bound + 3 * se
