"""Tests for finite metric spaces and cover construction.

Frozen expected values were computed with independent oracles: a
hand-simulation of the greedy selection rule (see ``_greedy_oracle``) and
exhaustive subset enumeration for minimum covers.
"""

import itertools
import math

import numpy as np
import pytest

from chainopt import (ArgumentError, CapacityError, FiniteMetricSpace,
                      ParseError, brute_force_min_cover, greedy_cover,
                      is_cover, load_distance_matrix,
                      load_point_cloud, load_space, metric_entropy,
                      sample_cover_compact, write_cover_csv)


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

    def test_nonpositive_epsilon_raises(self, line5):
        with pytest.raises(ArgumentError):
            greedy_cover(line5, 0.0)

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
