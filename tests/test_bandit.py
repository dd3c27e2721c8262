"""Tests for depth rules, optimistic selection, run loops and regret bounds."""

import math

import numpy as np
import pytest

from chainopt import (ArgumentError, BanditState, ChainingTree,
                      FiniteMetricSpace, GPPosterior, Kernel, NumericError,
                      OptimizerConfig, build_forward, build_tree, c_eta,
                      canonical_metric_space, gram,
                      depth_half_log2, depth_omega_threshold, gp_ucb_step,
                      information_gain, make_grid, omega_table,
                      prune_backward, regret_bound_rhs, run_gp_ucb,
                      run_squared_gp_ucb, sample_paths)
from chainopt import bandit
from chainopt.smoothness import SmoothnessModel, confidence_level_u_i


def _chain_tree(depth):
    locs = np.cumsum([0.0] + [2.0 ** -i for i in range(1, depth + 1)])
    sp = FiniteMetricSpace.from_coordinates(locs)
    ids = np.arange(depth + 1)
    return ChainingTree(sp, "geometric", 1, ids - 1, ids, ids)


def _dense_posterior(kernel, eta2, coords, obs, ys):
    """Posterior mean and deviation over coords through an explicit inverse."""
    K = gram(kernel, coords)
    C_inv = np.linalg.inv(K[np.ix_(obs, obs)] + eta2 * np.eye(len(obs)))
    Kq = K[:, obs]
    var = np.diag(K) - np.einsum("ij,jk,ik->i", Kq, C_inv, Kq)
    return Kq @ C_inv @ np.asarray(ys), np.sqrt(np.maximum(var, 0.0))


@pytest.fixture
def grid16():
    return FiniteMetricSpace.from_coordinates(make_grid(1, 16, 1.0))


class TestDepthHalfLog2:
    def test_examples(self):
        assert depth_half_log2(1) == 0
        assert depth_half_log2(4) == 1
        assert depth_half_log2(5) == 2

    def test_clamped(self):
        assert depth_half_log2(10_000, max_depth=3) == 3

    def test_monotone(self):
        vals = [depth_half_log2(i) for i in range(1, 200)]
        assert all(a <= b for a, b in zip(vals, vals[1:]))

    def test_rejects_zero(self):
        with pytest.raises(ArgumentError):
            depth_half_log2(0)


class TestDepthOmegaThreshold:
    def test_crossing_on_chain_tree(self):
        tree = _chain_tree(8)
        model = SmoothnessModel.gaussian()
        u, a = 1.0, 2.0
        tab = omega_table(tree, u, a, model)
        thr = math.sqrt(math.log(2.0) / 2.0)
        expect = next(h for h in range(tree.max_depth + 1)
                      if (tab[h] if h < len(tab) else 0.0) <= thr)
        assert depth_omega_threshold(tree, model, u, a, 2) == expect

    def test_returns_zero_when_omega_small(self, grid16):
        tree = build_forward(grid16)
        model = SmoothnessModel.gaussian()
        fake = np.zeros(tree.max_depth + 1)
        assert depth_omega_threshold(tree, model, 2.0, 2.0, 5, omega_values=fake) == 0

    def test_monotone_beyond_threshold_peak(self):
        tree = _chain_tree(8)
        model = SmoothnessModel.gaussian()
        vals = [depth_omega_threshold(tree, model, 1.0, 2.0, i) for i in range(4, 60)]
        assert all(a <= b for a, b in zip(vals, vals[1:]))

    def test_rejects_small_i(self):
        tree = _chain_tree(3)
        with pytest.raises(ArgumentError):
            depth_omega_threshold(tree, SmoothnessModel.gaussian(), 1.0, 2.0, 1)


class TestGpUcbStep:
    def test_first_step_breaks_ties_to_smallest_id(self, grid16):
        config = OptimizerConfig(u=2.0, t_max=5)
        tree = prune_backward(build_forward(grid16), config.u)
        post = GPPosterior(Kernel("se", 0.3), config.eta2, grid16.coords, config.t_max)
        state = BanditState(post, tree, config)
        choice = gp_ucb_step(state, 1)
        assert choice.point == int(tree.candidate_locations(0).min())
        assert choice.depth == 0
        u1 = confidence_level_u_i(config.u, tree.capacity(0), 1, config.a)
        assert choice.ucb == pytest.approx(math.sqrt(2.0 * u1))

    def test_matches_exhaustive_scan(self, grid16):
        config = OptimizerConfig(u=1.5, a=2.5, eta2=0.2, t_max=5)
        tree = prune_backward(build_forward(grid16), config.u)
        kernel = Kernel("se", 0.3)
        post = GPPosterior(kernel, config.eta2, grid16.coords, config.t_max)
        post.add(3, 0.8)
        post.add(11, -0.2)
        state = BanditState(post, tree, config)
        i = 6
        choice = gp_ucb_step(state, i)
        h = choice.depth
        cand = tree.candidate_locations(h)
        u_i = confidence_level_u_i(config.u, tree.capacity(h), i, config.a)
        mu, sig = _dense_posterior(kernel, config.eta2, grid16.coords, [3, 11],
                                   [0.8, -0.2])
        scores = mu[cand] + sig[cand] * math.sqrt(2 * u_i)
        assert choice.point == int(cand[int(np.argmax(scores))])
        assert choice.ucb == pytest.approx(float(scores.max()))
        assert choice.u_i == pytest.approx(u_i)

    def test_argmax_invariant_to_mean_shift_and_scale(self, grid16):
        config = OptimizerConfig(eta2=0.2, t_max=5)
        tree = prune_backward(build_forward(grid16), config.u)
        kernel = Kernel("se", 0.3)
        post = GPPosterior(kernel, config.eta2, grid16.coords, config.t_max)
        post.add(5, 1.0)
        state = BanditState(post, tree, config)
        choice = gp_ucb_step(state, 4)
        cand = tree.candidate_locations(choice.depth)
        mu, sig = post.predict()
        scores = mu[cand, 0] + sig[cand] * math.sqrt(2 * choice.u_i)
        for transform in (lambda s: s + 17.5, lambda s: 3.0 * s):
            assert int(cand[int(np.argmax(transform(scores)))]) == choice.point


class TestRunGpUcb:
    def test_zero_horizon(self, grid16):
        config = OptimizerConfig(t_max=0)
        truth = np.zeros(16)
        record = run_gp_ucb(grid16, Kernel("se", 0.3), config, truth, seed=0)
        assert len(record) == 0

    def test_single_point_space_no_regret(self):
        sp = FiniteMetricSpace.from_coordinates([[0.0]])
        config = OptimizerConfig(t_max=10, eta2=1e-8)
        record = run_gp_ucb(sp, Kernel("se"), config, np.array([1.3]), seed=1)
        assert np.all(record.cum_regret == 0.0)

    def test_deterministic_per_seed(self, grid16):
        kernel = Kernel("se", 0.3)
        config = OptimizerConfig(t_max=25)
        truth = sample_paths(grid16, kernel, 1, seed=5)[0]
        r1 = run_gp_ucb(grid16, kernel, config, truth, seed=7)
        r2 = run_gp_ucb(grid16, kernel, config, truth, seed=7)
        assert np.array_equal(r1.points, r2.points)
        assert np.array_equal(r1.ys, r2.ys)
        r3 = run_gp_ucb(grid16, kernel, config, truth, seed=8)
        assert not np.array_equal(r1.ys, r3.ys)

    @pytest.mark.parametrize("depth_rule,schedule", [
        ("halflog2", "geometric"), ("halflog2", "entropy"),
        ("omega", "geometric"), ("omega", "entropy")])
    def test_matches_step_by_step_loop(self, grid16, depth_rule, schedule):
        # the fast path must reproduce the reference one-step operation
        kernel = Kernel("se", 0.3)
        config = OptimizerConfig(t_max=20, eta2=0.05, depth_rule=depth_rule,
                                 schedule=schedule)
        truth = sample_paths(grid16, kernel, 1, seed=2)[0]
        tree = build_tree(grid16, config.schedule, config.shift, config.u)
        record = run_gp_ucb(grid16, kernel, config, truth, seed=3, tree=tree)

        rng = np.random.default_rng(3)
        post = GPPosterior(kernel, config.eta2, grid16.coords, config.t_max)
        state = BanditState(post, tree, config)
        for k in range(config.t_max):
            choice = gp_ucb_step(state, k + 1)
            assert choice.point == record.points[k]
            assert choice.depth == record.depths[k]
            assert choice.u_i == pytest.approx(record.u_is[k])
            assert choice.ucb == pytest.approx(record.ucbs[k], abs=1e-8)
            y = float(truth[choice.point]) + rng.normal(0.0, math.sqrt(config.eta2))
            assert y == pytest.approx(record.ys[k])
            state.posterior.add(choice.point, y)

    def test_regret_identities(self, grid16):
        kernel = Kernel("se", 0.25)
        config = OptimizerConfig(t_max=40)
        truth = sample_paths(grid16, kernel, 1, seed=11)[0]
        record = run_gp_ucb(grid16, kernel, config, truth, seed=12)
        ts = np.arange(1, len(record) + 1)
        assert np.all(record.inst_regret >= -1e-12)
        assert np.allclose(np.cumsum(record.inst_regret), record.cum_regret)
        assert np.all(record.simple_regret <= record.cum_regret / ts + 1e-12)
        assert np.all(np.diff(record.simple_regret) <= 1e-12)
        assert np.all(np.diff(record.cum_regret) >= -1e-12)

    def test_depth_schedule_monotone(self, grid16):
        kernel = Kernel("se", 0.25)
        for rule in ("halflog2", "omega"):
            config = OptimizerConfig(t_max=30, depth_rule=rule)
            truth = sample_paths(grid16, kernel, 1, seed=21)[0]
            record = run_gp_ucb(grid16, kernel, config, truth, seed=22)
            assert np.all(np.diff(record.depths) >= 0)

    def test_variance_information_inequality(self, grid16):
        kernel = Kernel("se", 0.25)
        config = OptimizerConfig(t_max=50, eta2=0.1)
        truth = sample_paths(grid16, kernel, 1, seed=31)[0]
        record = run_gp_ucb(grid16, kernel, config, truth, seed=32)
        assert np.all(record.sigma_sq_cum <= c_eta(config.eta2) * record.info_gain + 1e-9)

    def test_info_gain_matches_logdet(self, grid16):
        kernel = Kernel("se", 0.25)
        config = OptimizerConfig(t_max=30, eta2=0.1)
        truth = sample_paths(grid16, kernel, 1, seed=41)[0]
        record = run_gp_ucb(grid16, kernel, config, truth, seed=42)
        X = grid16.coords[record.points]
        assert record.info_gain[-1] == pytest.approx(
            information_gain(kernel, X, config.eta2), abs=1e-7)

    def test_live_mode_without_truth(self, grid16):
        config = OptimizerConfig(t_max=5)
        record = run_gp_ucb(grid16, Kernel("se", 0.3), config, seed=1,
                            observe=lambda x, rng: float(rng.normal()))
        assert np.all(np.isnan(record.simple_regret))
        assert len(record) == 5

    def test_ou_kernel_reports_information_gain(self, grid16):
        # no closed-form gain growth is known for this kernel; the realized
        # information gain is still recorded and usable in the bound
        kernel = Kernel("ou", 0.4)
        config = OptimizerConfig(t_max=15)
        truth = sample_paths(grid16, kernel, 1, seed=81)[0]
        record = run_gp_ucb(grid16, kernel, config, truth, seed=82)
        assert np.all(np.diff(record.info_gain) >= -1e-12)
        assert record.info_gain[-1] > 0.0

    def test_observation_log_csv(self, tmp_path, grid16):
        from chainopt.gp import write_observation_log
        kernel = Kernel("se", 0.3)
        config = OptimizerConfig(t_max=6)
        truth = sample_paths(grid16, kernel, 1, seed=91)[0]
        record = run_gp_ucb(grid16, kernel, config, truth, seed=92)
        path = tmp_path / "obs.csv"
        write_observation_log(str(path), record.points, record.ys)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "iter,point_id,y"
        assert len(lines) == 7
        assert lines[1].split(",")[0] == "1"

    def test_needs_truth_or_callback(self, grid16):
        with pytest.raises(ArgumentError):
            run_gp_ucb(grid16, Kernel("se"), OptimizerConfig(t_max=3), seed=0)

    def test_non_finite_observation_rejected(self, grid16):
        with pytest.raises(NumericError):
            run_gp_ucb(grid16, Kernel("se", 0.3), OptimizerConfig(t_max=5), seed=0,
                       observe=lambda x, rng: math.nan)

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_truth_rejected(self, grid16, bad):
        truth = np.zeros(16)
        truth[3] = bad
        with pytest.raises(NumericError):
            run_gp_ucb(grid16, Kernel("se", 0.3), OptimizerConfig(t_max=5), truth,
                       seed=0)


class TestRunSquaredGpUcb:
    def test_zero_truth_zero_regret(self, grid16):
        config = OptimizerConfig(t_max=8, eta2=1e-6)
        truth = np.zeros((1, 16))
        record = run_squared_gp_ucb(grid16, Kernel("se", 0.3), 1, config, truth, seed=4)
        assert np.all(record.cum_regret == 0.0)

    def test_sign_structure(self, grid16):
        kernel = Kernel("se", 0.3)
        config = OptimizerConfig(t_max=15)
        truth = sample_paths(grid16, kernel, 3, seed=6)
        record = run_squared_gp_ucb(grid16, kernel, 3, config, truth, seed=7)
        assert record.sup_f <= 0.0
        assert np.all(record.inst_regret >= -1e-12)
        assert np.all(np.diff(record.simple_regret) <= 1e-12)

    def test_channel_coverage_recorded(self, grid16):
        kernel = Kernel("se", 0.3)
        config = OptimizerConfig(t_max=20, u=2.0)
        truth = sample_paths(grid16, kernel, 2, seed=8)
        record = run_squared_gp_ucb(grid16, kernel, 2, config, truth, seed=9)
        assert record.channel_covered.shape == (20,)
        # intervals at level u_i are conservative; misses should be rare
        assert record.channel_covered.mean() >= 1 - math.exp(-config.u)

    def test_rejects_linear_kernel(self, grid16):
        with pytest.raises(ArgumentError):
            run_squared_gp_ucb(grid16, Kernel("linear"), 1,
                               OptimizerConfig(t_max=2), np.zeros((1, 16)), seed=0)

    def test_truth_shape_checked(self, grid16):
        with pytest.raises(ArgumentError):
            run_squared_gp_ucb(grid16, Kernel("se"), 2,
                               OptimizerConfig(t_max=2), np.zeros((1, 16)), seed=0)

    def test_zero_channels_rejected(self, grid16):
        with pytest.raises(ArgumentError):
            run_squared_gp_ucb(grid16, Kernel("se"), 0,
                               OptimizerConfig(t_max=2), np.zeros((0, 16)), seed=0)

    def test_non_finite_truth_rejected(self, grid16):
        truth = np.zeros((2, 16))
        truth[1, 5] = math.inf
        with pytest.raises(NumericError):
            run_squared_gp_ucb(grid16, Kernel("se"), 2, OptimizerConfig(t_max=2),
                               truth, seed=0)


class TestReplicateAxis:
    """A stacked truth runs R replicates through one loop; record r equals the
    single call on truth[r] with seed[r]."""

    EXACT = ("points", "depths", "u_is", "ys", "inst_regret", "cum_regret",
             "simple_regret", "info_gain", "sigma_sq_cum", "y_channels",
             "channel_covered")
    CLOSE = ("ucbs", "widths", "sigma_before")

    @classmethod
    def _same(cls, got, want):
        assert got.sup_f == want.sup_f
        for name in cls.EXACT:
            a, b = getattr(got, name), getattr(want, name)
            assert (a is None and b is None) or np.array_equal(a, b), name
        for name in cls.CLOSE:
            assert np.allclose(getattr(got, name), getattr(want, name),
                               rtol=0.0, atol=1e-9), name

    @staticmethod
    def _runner(channels, depth_rule):
        """Three truths, three seeds and a run function on a 40-point grid, t=150
        (refactors at 64 and 128)."""
        kernel = Kernel("se", 0.2)
        space = canonical_metric_space(kernel, make_grid(1, 40, 1.0))
        config = OptimizerConfig(t_max=150, depth_rule=depth_rule)
        tree = build_tree(space, config.schedule, config.shift, config.u)
        seeds = [[4, r] for r in range(3)]
        if channels is None:
            truth = np.stack([sample_paths(space, kernel, 1, seed=[3, r])[0]
                              for r in range(3)])
            return truth, seeds, lambda tr, sd: run_gp_ucb(space, kernel, config, tr,
                                                           seed=sd, tree=tree)
        truth = np.stack([sample_paths(space, kernel, channels, seed=[3, r])
                          for r in range(3)])
        return truth, seeds, lambda tr, sd: run_squared_gp_ucb(
            space, kernel, channels, config, tr, seed=sd, tree=tree)

    @pytest.mark.parametrize("depth_rule", ["halflog2", "omega"])
    @pytest.mark.parametrize("channels", [None, 1, 3], ids=["plain", "sq1", "sq3"])
    def test_stacked_equals_single_calls(self, channels, depth_rule):
        truth, seeds, run = self._runner(channels, depth_rule)
        records = run(truth, seeds)
        assert isinstance(records, list) and len(records) == 3
        for r in range(3):
            self._same(records[r], run(truth[r], seeds[r]))
        (one,) = run(truth[:1], seeds[:1])
        self._same(one, run(truth[0], seeds[0]))

    @pytest.mark.parametrize("channels", [None, 3], ids=["plain", "sq3"])
    def test_memory_budgets_split_the_work(self, monkeypatch, channels):
        truth, seeds, run = self._runner(channels, "halflog2")
        whole = run(truth, seeds)
        # two replicates per loop batch, one per refactor factorization call
        monkeypatch.setattr(bandit, "_BATCH_BYTES", 8 * 150 * 40 * 2)
        monkeypatch.setattr(bandit, "_REFACTOR_BYTES", 1)
        split = run(truth, seeds)
        assert len(split) == len(whole)
        for got, want in zip(split, whole):
            self._same(got, want)

    def test_seed_count_must_match(self, grid16):
        config = OptimizerConfig(t_max=2)
        for seed in ([1, 2], 5, None):
            with pytest.raises(ArgumentError, match="3 replicates"):
                run_gp_ucb(grid16, Kernel("se", 0.3), config, np.zeros((3, 16)), seed=seed)
        with pytest.raises(ArgumentError, match="3 replicates"):
            run_squared_gp_ucb(grid16, Kernel("se", 0.3), 2, config,
                               np.zeros((3, 2, 16)), seed=[1, 2, 3, 4])

    def test_non_finite_truth_in_one_replicate(self, grid16):
        config = OptimizerConfig(t_max=2)
        truth = np.zeros((3, 16))
        truth[1, 4] = math.nan
        with pytest.raises(NumericError, match="replicate 1"):
            run_gp_ucb(grid16, Kernel("se", 0.3), config, truth, seed=[0, 1, 2])
        channels = np.zeros((3, 2, 16))
        channels[2, 1, 0] = math.inf
        with pytest.raises(NumericError, match="replicate 2"):
            run_squared_gp_ucb(grid16, Kernel("se", 0.3), 2, config, channels,
                               seed=[0, 1, 2])


class TestRegretBoundRhs:
    def test_empty_record(self, grid16):
        kernel = Kernel("se", 0.3)
        config = OptimizerConfig(t_max=0)
        tree = prune_backward(build_forward(grid16), config.u)
        record = run_gp_ucb(grid16, kernel, config, np.zeros(16), seed=0, tree=tree)
        series = regret_bound_rhs(record, tree, SmoothnessModel.gaussian(), config)
        assert series.per_step.size == 0 and series.closed_form.size == 0

    def test_per_step_nondecreasing(self, grid16):
        kernel = Kernel("se", 0.25)
        config = OptimizerConfig(t_max=30)
        tree = prune_backward(build_forward(grid16), config.u)
        truth = sample_paths(grid16, kernel, 1, seed=51)[0]
        record = run_gp_ucb(grid16, kernel, config, truth, seed=52, tree=tree)
        series = regret_bound_rhs(record, tree, SmoothnessModel.gaussian(), config)
        assert np.all(np.diff(series.per_step) >= -1e-12)

    def test_mismatched_tree_rejected(self, grid16):
        kernel = Kernel("se", 0.25)
        config = OptimizerConfig(t_max=5)
        tree = prune_backward(build_forward(grid16), config.u)
        truth = sample_paths(grid16, kernel, 1, seed=61)[0]
        record = run_gp_ucb(grid16, kernel, config, truth, seed=62, tree=tree)
        other_space = FiniteMetricSpace.from_coordinates(make_grid(1, 8, 1.0))
        other = prune_backward(build_forward(other_space), config.u)
        with pytest.raises(ArgumentError):
            regret_bound_rhs(record, other, SmoothnessModel.gaussian(), config)
        with pytest.raises(ArgumentError):
            regret_bound_rhs([record, record], other, SmoothnessModel.gaussian(), config)

    @pytest.mark.parametrize("rule", ["halflog2", "omega"])
    def test_list_shares_one_omega_table(self, grid16, monkeypatch, rule):
        kernel = Kernel("se", 0.25)
        config = OptimizerConfig(t_max=25, depth_rule=rule)
        tree = prune_backward(build_forward(grid16), config.u)
        model = SmoothnessModel.gaussian()
        truth = np.stack([sample_paths(grid16, kernel, 1, seed=[63, r])[0] for r in range(3)])
        records = run_gp_ucb(grid16, kernel, config, truth, seed=[[64, r] for r in range(3)],
                             tree=tree)
        single = [regret_bound_rhs(rec, tree, model, config) for rec in records]
        calls = []
        real = bandit.omega_table
        monkeypatch.setattr(bandit, "omega_table",
                            lambda *args: calls.append(args) or real(*args))
        stacked = regret_bound_rhs(records, tree, model, config)
        assert len(calls) == 1 and len(stacked) == 3
        for got, want in zip(stacked, single):
            assert np.array_equal(got.per_step, want.per_step)
            assert np.array_equal(got.closed_form, want.closed_form)
        assert regret_bound_rhs([], tree, model, config) == []

    def test_bound_holds_on_most_seeds(self):
        kernel = Kernel("se", 0.2)
        space = canonical_metric_space(kernel, make_grid(1, 32, 1.0))
        config = OptimizerConfig(t_max=40, u=2.0)
        tree = prune_backward(build_forward(space), config.u)
        model = SmoothnessModel.gaussian()
        hold = 0
        n_seeds = 40
        for s in range(n_seeds):
            truth = sample_paths(space, kernel, 1, seed=[100, s])[0]
            record = run_gp_ucb(space, kernel, config, truth, seed=[200, s], tree=tree)
            series = regret_bound_rhs(record, tree, model, config)
            hold += bool(np.all(record.cum_regret <= series.per_step + 1e-9))
        bound = 2 * math.exp(-config.u)
        se = math.sqrt(bound * (1 - bound) / n_seeds)
        assert hold / n_seeds >= 1 - bound - 3 * se


class TestConfigValidation:
    def test_bad_values(self):
        with pytest.raises(ArgumentError):
            OptimizerConfig(a=1.0)
        with pytest.raises(ArgumentError):
            OptimizerConfig(eta2=0.0)
        with pytest.raises(ArgumentError):
            OptimizerConfig(u=-1.0)
        with pytest.raises(ArgumentError):
            OptimizerConfig(depth_rule="bogus")

    @pytest.mark.parametrize("field", ["u", "a", "eta2"])
    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_values(self, field, bad):
        with pytest.raises(ArgumentError, match=f"^{field} must .* finite$"):
            OptimizerConfig(**{field: bad})


class TestRecordCsv:
    def test_csv_format(self, tmp_path, grid16):
        kernel = Kernel("se", 0.3)
        config = OptimizerConfig(t_max=4)
        truth = sample_paths(grid16, kernel, 1, seed=71)[0]
        record = run_gp_ucb(grid16, kernel, config, truth, seed=72)
        path = tmp_path / "run.csv"
        record.to_csv(str(path))
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "iter,depth,u_i,point_id,ucb,y,inst_regret,cum_regret,simple_regret"
        assert len(lines) == 5
        first = lines[1].split(",")
        assert first[0] == "1" and len(first) == 9

    @pytest.mark.parametrize("live", [False, True])
    def test_csv_matches_field_by_field(self, tmp_path, grid16, live):
        kernel = Kernel("se", 0.3)
        config = OptimizerConfig(t_max=40)
        truth = sample_paths(grid16, kernel, 1, seed=73)[0]
        if live:
            record = run_gp_ucb(grid16, kernel, config, seed=74,
                                observe=lambda x, rng: truth[x] + rng.normal())
        else:
            record = run_gp_ucb(grid16, kernel, config, truth, seed=74)
        record.ucbs[3] = -0.0
        record.ys[5] = 1e-300
        record.cum_regret[7] = math.inf
        path = tmp_path / "run.csv"
        record.to_csv(str(path))
        want = ["iter,depth,u_i,point_id,ucb,y,inst_regret,cum_regret,simple_regret"]
        for k in range(len(record)):
            fields = [f"{int(record.iters[k])}", f"{int(record.depths[k])}",
                      f"{record.u_is[k]:.12g}", f"{int(record.points[k])}",
                      f"{record.ucbs[k]:.12g}", f"{record.ys[k]:.12g}"]
            for arr in (record.inst_regret, record.cum_regret, record.simple_regret):
                fields.append("" if np.isnan(arr[k]) else f"{arr[k]:.12g}")
            want.append(",".join(fields))
        assert path.read_text() == "\n".join(want) + "\n"
