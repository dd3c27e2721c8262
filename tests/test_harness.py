"""Tests for config parsing, generators, validation suites and the experiment driver."""

import hashlib
import math
import time
from dataclasses import fields, replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chainopt import (ArgumentError, CapacityError, ExperimentConfig, FiniteMetricSpace,
                      GPPosterior, InternalError, Kernel, OptimizerConfig, ParseError,
                      RegretRecord, build_forward,
                      SmoothnessModel, make_ellipsoid, make_grid, make_line,
                      make_star, parse_config, run_experiment, sample_paths,
                      space_from_spec, validate_lemmas, validate_lower,
                      validate_upper)
from chainopt import chaining, gp, harness, metric
from chainopt.chaining import TreeValidation
from chainopt.cli import main
from conftest import tied_spaces, ultrametric_spaces


def _unreachable(*args, **kwargs):
    raise AssertionError("reached past the path-size check")


def _write_config(tmp_path, text, name="exp.cfg"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


class TestParseConfig:
    def test_empty_file_gives_defaults(self, tmp_path):
        cfg = parse_config(_write_config(tmp_path, ""))
        assert cfg == ExperimentConfig()
        assert cfg.u == 2.0 and cfg.a == 2.0 and cfg.eta2 == 0.01
        assert cfg.depth_rule == "halflog2" and cfg.schedule == "geometric"
        assert all(getattr(cfg, f.name) == getattr(OptimizerConfig(), f.name)
                   for f in fields(OptimizerConfig))

    def test_keys_are_the_loop_settings_plus_the_experiment(self):
        assert issubclass(ExperimentConfig, OptimizerConfig)
        assert {f.name for f in fields(ExperimentConfig)} == (
            {f.name for f in fields(OptimizerConfig)}
            | {"space", "kernel", "model", "replicates", "seed_base", "trials", "out_dir"})

    def test_shift_checked_before_anything_runs(self, tmp_path):
        with pytest.raises(ArgumentError, match="shift must be 0 or 1"):
            ExperimentConfig(shift=5, out_dir=str(tmp_path / "out"))
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("name,bad", [("replicates", 2.5), ("replicates", 0),
                                          ("trials", 2.5), ("seed_base", 0.5),
                                          ("seed_base", "1"), ("seed_base", -1),
                                          ("replicates", True)])
    def test_integer_fields_checked_before_anything_runs(self, tmp_path, name, bad):
        with pytest.raises(ArgumentError, match=f"{name} must be an integer of at least"):
            ExperimentConfig(out_dir=str(tmp_path / "out"), **{name: bad})
        assert not (tmp_path / "out").exists()

    def test_a_must_exceed_one(self, tmp_path):
        with pytest.raises(ArgumentError, match="a must exceed 1"):
            parse_config(_write_config(tmp_path, "a = 1.0\n"))

    def test_eta2_positive(self, tmp_path):
        with pytest.raises(ArgumentError):
            parse_config(_write_config(tmp_path, "eta2 = 0\n"))

    def test_kernel_spec(self, tmp_path):
        cfg = parse_config(_write_config(tmp_path, "kernel = matern32:ls=0.5\n"))
        assert cfg.build_kernel() == Kernel("matern32", 0.5)

    def test_unknown_key_is_hard_error(self, tmp_path):
        with pytest.raises(ParseError) as err:
            parse_config(_write_config(tmp_path, "\n# comment\nwibble = 3\n"))
        assert "line 3" in str(err.value)

    def test_malformed_line(self, tmp_path):
        with pytest.raises(ParseError) as err:
            parse_config(_write_config(tmp_path, "u: 3\n"))
        assert "line 1" in str(err.value)

    @pytest.mark.parametrize("line", ["u = nan", "u = inf", "a = nan", "eta2 = nan"])
    def test_non_finite_loop_value(self, tmp_path, line):
        with pytest.raises(ArgumentError, match="finite"):
            parse_config(_write_config(tmp_path, line + "\n"))

    def test_bad_numeric_value(self, tmp_path):
        with pytest.raises(ParseError):
            parse_config(_write_config(tmp_path, "t_max = soon\n"))

    def test_missing_space_file(self, tmp_path):
        with pytest.raises(ArgumentError):
            parse_config(_write_config(tmp_path, "space = file:/nowhere/x.txt\n"))

    def test_full_config(self, tmp_path):
        text = ("space = grid:dim=1,per_dim=32\nkernel = se:ls=0.2\nu = 1.5\n"
                "a = 3\neta2 = 0.1\nt_max = 50\nreplicates = 4\nseed_base = 9\n"
                "trials = 500\nschedule = entropy\ndepth_rule = omega\n")
        cfg = parse_config(_write_config(tmp_path, text))
        assert cfg.t_max == 50 and cfg.replicates == 4 and cfg.seed_base == 9
        assert cfg.schedule == "entropy" and cfg.depth_rule == "omega"
        assert cfg.build_space(canonical=False).n == 32


class TestGenerators:
    def test_grid_shape_and_order(self):
        g = make_grid(2, 3, extent=2.0)
        assert g.shape == (9, 2)
        assert np.array_equal(g[0], [0.0, 0.0])
        assert np.array_equal(g[-1], [2.0, 2.0])
        assert np.array_equal(g[1], [0.0, 1.0])  # lexicographic

    def test_line(self):
        assert np.array_equal(make_line(4)[:, 0], [0.0, 1.0, 2.0, 3.0])

    def test_star_metric(self):
        sp = make_star(5)
        assert sp.diameter == 1.0
        assert sp.distance(1, 4) == 1.0
        assert sp.distance(2, 2) == 0.0

    def test_ellipsoid_points(self):
        pts = make_ellipsoid([2.0, 1.0])
        assert pts.shape == (5, 2)
        assert np.array_equal(pts[0], [0.0, 0.0])
        norms = np.abs(pts[1:]).max(axis=1)
        assert np.array_equal(np.sort(norms), [1.0, 1.0, 2.0, 2.0])

    def test_space_from_spec(self):
        assert space_from_spec("line:n=5").n == 5
        assert space_from_spec("star:n=7").n == 7
        assert space_from_spec("grid:dim=2,per_dim=4").n == 16
        assert space_from_spec("ellipsoid:axes=1.0:0.5:0.25").n == 7
        with pytest.raises(ArgumentError):
            space_from_spec("torus:n=3")

    @pytest.mark.parametrize("spec", ["grid:dim=12,per_dim=100", "grid:dim=100000,per_dim=2",
                                      "line:n=1000000000000", "star:n=8193", "star:n=6689"])
    def test_oversized_spec_allocates_nothing(self, harness_cannot_allocate, spec):
        # the byte count is made in Python ints before any array or point list is made
        with pytest.raises(CapacityError, match=f"{spec} needs .*-byte limit of one call"):
            space_from_spec(spec)

    @pytest.mark.parametrize("spec", ["grid:dim=2,per_dim=91", "grid:dim=100000,per_dim=1",
                                      "line:n=8193", "star:n=6000", "star:n=6688"])
    def test_past_the_old_point_limit_the_build_starts(self, harness_cannot_allocate, spec):
        # the byte count passes, so the generator goes on to numpy, which the fixture stops
        with pytest.raises(AssertionError, match="used before the size check"):
            space_from_spec(spec)

    def test_generators_up_to_the_dense_limit(self):
        assert make_grid(1, 8192).shape == (8192, 1)
        assert make_grid(13, 2).shape == (8192, 13)
        assert make_line(8192).shape == (8192, 1)

    def test_a_one_point_grid_costs_no_time_per_axis(self):
        # per_dim=1: every coordinate is linspace(0, extent, 1)[0] = 0.0, filled at once;
        # a loop of one view per axis took about 1 s over a million axes
        start = time.perf_counter()
        g = make_grid(10 ** 6, 1)
        elapsed = time.perf_counter() - start
        assert g.shape == (1, 10 ** 6)
        assert not g.any() and not np.signbit(g).any()
        assert elapsed < 0.2

    @pytest.mark.parametrize("spec", ["grid:dim=1,perdim=4", "grid:dim", "line:m=3",
                                      "star:size=4", "ellipsoid:axis=1:2", "line:n=3,"])
    def test_space_spec_rejects_unknown_options(self, spec):
        with pytest.raises(ArgumentError):
            space_from_spec(spec)

    def test_spec_with_kernel_uses_canonical_metric(self):
        sp = space_from_spec("line:n=3", kernel=Kernel("se", 1.0))
        expect = math.sqrt(2 - 2 * math.exp(-0.5))
        assert sp.distance(0, 1) == pytest.approx(expect)


def _cloud_twin(tmp_path, coords, name="twin.txt"):
    """A point cloud file holding ``coords`` exactly: repr round-trips every float."""
    path = tmp_path / name
    path.write_text(f"# dim={coords.shape[1]}\n" + "".join(
        " ".join(map(repr, row)) + "\n" for row in coords.tolist()))
    return str(path)


@st.composite
def _coordinate_specs(draw):
    """A grid, line or ellipsoid spec of at most 64 points."""
    kind = draw(st.sampled_from(["grid", "line", "ellipsoid"]))
    if kind == "grid":
        dim = draw(st.integers(1, 3))
        per_dim = draw(st.integers(1, round(64 ** (1 / dim))))
        extent = draw(st.sampled_from([0.5, 1.0, 2.5]))
        return f"grid:dim={dim},per_dim={per_dim},extent={extent}"
    if kind == "line":
        return f"line:n={draw(st.integers(1, 64))}"
    axes = draw(st.lists(st.sampled_from([0.25, 0.5, 1.0, 3.0]), min_size=1, max_size=31))
    return "ellipsoid:axes=" + ":".join(map(str, axes))


class TestFileSpaces:
    """A ``file:`` point cloud takes the metric its coordinates would take from a generator."""

    @settings(max_examples=20)
    @given(spec=_coordinate_specs(), kernel=st.sampled_from(["se:ls=0.3", "matern52:ls=1.0"]),
           schedule=st.sampled_from(["geometric", "entropy"]))
    def test_a_spec_and_its_file_twin_write_the_same_bytes(self, tmp_path_factory, spec,
                                                          kernel, schedule):
        tmp = tmp_path_factory.mktemp("twin")
        twin = f"file:{_cloud_twin(tmp, space_from_spec(spec).coords)}"
        outs = []
        for name, source in (("spec", spec), ("twin", twin)):
            cfg = ExperimentConfig(space=source, kernel=kernel, schedule=schedule, t_max=20,
                                   replicates=2, trials=200, seed_base=3,
                                   out_dir=str(tmp / name))
            run_experiment(cfg)
            validate_upper(cfg).write_csv(str(tmp / f"{name}_upper.csv"))
            outs.append({p.name: p.read_bytes() for p in (tmp / name).iterdir()})
            outs[-1]["upper"] = (tmp / f"{name}_upper.csv").read_bytes()
        assert outs[0] == outs[1]

    def test_cloud_takes_the_kernel_metric(self, tmp_path):
        kernel = Kernel("se", 0.2)
        twin = space_from_spec(f"file:{_cloud_twin(tmp_path, make_grid(1, 9))}", kernel)
        grid = space_from_spec("grid:dim=1,per_dim=9", kernel)
        assert np.array_equal(twin.coords, grid.coords)
        assert np.array_equal(twin.pairwise(range(9)), grid.pairwise(range(9)))
        # the process distance over Euclidean distance 1, not 1 itself
        assert twin.distance(0, 8) == pytest.approx(math.sqrt(2 - 2 * math.exp(-12.5)))

    def test_cloud_without_a_kernel_is_euclidean(self, tmp_path):
        sp = space_from_spec(f"file:{_cloud_twin(tmp_path, make_grid(1, 9))}")
        assert sp.distance(0, 8) == 1.0

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("spec,coords", [
        ("ellipsoid:axes=1e308", make_ellipsoid([1e308])),
        ("grid:dim=2,per_dim=3,extent=1e308", make_grid(2, 3, 1e308))], ids=["ellipsoid", "grid"])
    def test_an_overflow_is_refused_for_a_spec_and_its_file_twin(self, tmp_path, capsys, spec,
                                                                  coords):
        # finite coordinates whose Euclidean distance overflows, under a kernel whose
        # process distance would stay finite
        message = "every distance must be finite, found inf"
        for name, source in (("spec", spec), ("twin", f"file:{_cloud_twin(tmp_path, coords)}")):
            text = f"space = {source}\nkernel = se:ls=1\nt_max = 5\ntrials = 20\n"
            cfg = parse_config(_write_config(tmp_path, text, f"{name}.cfg"))
            with pytest.raises(ArgumentError, match=f"^{message}$"):
                run_experiment(replace(cfg, out_dir=str(tmp_path / name)))
            assert main(["validate-upper", "--config", str(tmp_path / f"{name}.cfg")]) == 2
            assert capsys.readouterr().err == f"error: {message}\n"

    def test_matrix_file_keeps_its_matrix(self, tmp_path):
        path = tmp_path / "dist.txt"
        path.write_text("3\n0 1 2\n1 0 1\n2 1 0\n")
        sp = space_from_spec(f"file:{path}", Kernel("se", 0.2))
        assert sp.coords is None and sp.distance(0, 2) == 2.0

    @pytest.mark.parametrize("spec", ["file: {path}", "file:  {path} ", " file :{path}",
                                      "grid: dim=1, per_dim=8"])
    def test_blanks_around_a_spec_are_dropped(self, tmp_path, spec):
        path = _cloud_twin(tmp_path, make_grid(1, 8))
        cfg = parse_config(_write_config(tmp_path, f"space = {spec.format(path=path)}\n"))
        assert cfg.build_space().n == 8

    def test_experiment_file_set_is_the_grid_file_set(self, tmp_path):
        twin = _cloud_twin(tmp_path, make_grid(1, 100))
        outs = []
        for name, spec in (("grid", "grid:dim=1,per_dim=100"), ("twin", f"file:{twin}")):
            out = tmp_path / name
            run_experiment(ExperimentConfig(space=spec, kernel="se:ls=0.2", t_max=40,
                                            replicates=2, seed_base=1, out_dir=str(out)))
            outs.append({p.name: p.read_bytes() for p in out.iterdir()})
        assert outs[0] == outs[1]


class TestIntegerSettings:
    """Integer settings refuse bools and non-integers where they come in."""

    @pytest.mark.parametrize("build,message", [
        pytest.param(lambda: OptimizerConfig(shift=True), "shift must be 0 or 1",
                     id="config-shift"),
        pytest.param(lambda: build_forward(FiniteMetricSpace.from_coordinates([[0.0], [1.0]]),
                                           shift=True), "shift must be 0 or 1",
                     id="forward-shift"),
        pytest.param(lambda: OptimizerConfig(t_max=True), "t_max must be a nonnegative integer",
                     id="t_max"),
        pytest.param(lambda: GPPosterior(Kernel("se"), 0.1, [[0.0]], 1, replicates=2.5),
                     "replicates must be an integer of at least 1", id="posterior-replicates"),
        pytest.param(lambda: make_star(2.5), "star needs an integer n >= 1", id="star"),
        pytest.param(lambda: make_grid(1, 2.5), "grid needs integers dim >= 1 and per_dim >= 1",
                     id="grid"),
        pytest.param(lambda: make_line(2.5), "line needs an integer n >= 1", id="line"),
    ])
    def test_rejected(self, build, message):
        with pytest.raises(ArgumentError, match=message):
            build()

    def test_numpy_integers_are_integers(self):
        assert make_line(np.int64(3)).shape == (3, 1)
        assert make_grid(np.int8(2), np.uint16(3)).shape == (9, 2)
        assert OptimizerConfig(shift=np.int64(0), t_max=np.int32(4)).t_max == 4


class TestBuildModel:
    @pytest.mark.parametrize("spec,model", [
        ("gaussian", SmoothnessModel.gaussian()),
        ("subgamma", SmoothnessModel.sub_gamma(1.0, 0.0)),
        ("subgamma:nu=2,c=0.5", SmoothnessModel.sub_gamma(2.0, 0.5)),
        ("squaredgp", SmoothnessModel.squared_gp(1)),
        (" squaredgp:n=3 ", SmoothnessModel.squared_gp(3))])
    def test_specs(self, spec, model):
        assert ExperimentConfig(model=spec).build_model() == model

    @pytest.mark.parametrize("spec", ["gaussian:nu=1", "squaredgp:n=2,kappa=1.0",
                                      "subgamma:nu=nan", "subgamma:c=inf",
                                      "squaredgp:n=1.5", "subgamma:nu", "gauss"])
    def test_bad_specs(self, spec):
        with pytest.raises(ArgumentError):
            ExperimentConfig(model=spec).build_model()


class TestSamplePaths:
    def test_coordinate_space_increments(self):
        kernel = Kernel("se", 0.5)
        sp = FiniteMetricSpace.from_coordinates(np.linspace(0, 1, 4))
        paths = sample_paths(sp, kernel, 40_000, seed=3)
        d2 = 2 - 2 * math.exp(-0.5 * (1.0 / 3.0 / 0.5) ** 2)
        inc = paths[:, 0] - paths[:, 1]
        se = math.sqrt(2.0 / 40_000) * d2
        assert abs(float(np.mean(inc * inc)) - d2) <= 3 * se

    def test_matrix_space_embedding_matches_metric(self):
        sp = make_star(6)
        paths = sample_paths(sp, None, 60_000, seed=4)
        for i, j in ((0, 1), (2, 5), (1, 4)):
            inc = paths[:, i] - paths[:, j]
            se = math.sqrt(2.0 / 60_000)
            assert abs(float(np.mean(inc * inc)) - 1.0) <= 3 * se

    def test_deterministic(self):
        sp = make_star(4)
        assert np.array_equal(sample_paths(sp, None, 5, seed=1),
                              sample_paths(sp, None, 5, seed=1))

    @pytest.mark.parametrize("kernel", [None, Kernel("se", 0.5)])
    def test_path_limit_before_the_gram(self, monkeypatch, kernel):
        sp = FiniteMetricSpace.from_coordinates(np.arange(4.0))
        monkeypatch.setattr(gp, "gram", _unreachable)
        monkeypatch.setattr(sp, "row", _unreachable)
        monkeypatch.setattr(sp, "rows", _unreachable)
        # 8 (2 n^2 + n paths + n w) bytes, w = 32 768 columns a block: 33 521 657 paths over
        # 4 points are the first over 2^30
        with pytest.raises(CapacityError, match="33521657 paths over 4 points"):
            sample_paths(sp, kernel, 33_521_657, seed=0)

    def test_path_limit_is_inclusive(self, monkeypatch):
        # 8 (2 n^2 + n paths + n w) bytes, the whole draw one block (w = paths): 4 points
        # and 60 paths are 4096 bytes, 61 are 4160
        monkeypatch.setattr(metric, "_BUDGET_BYTES", 4096)
        monkeypatch.setattr(gp, "_draw", lambda build, n_paths, seed: (build().shape, n_paths))
        assert sample_paths(make_star(4), None, 60, seed=0) == ((4, 4), 60)
        with pytest.raises(CapacityError, match="61 paths over 4 points"):
            sample_paths(make_star(4), None, 61, seed=0)

    @staticmethod
    def _gram(monkeypatch, space):
        """The matrix sample_paths factors for a space without a kernel."""
        seen = []
        monkeypatch.setattr(gp, "_draw", lambda build, n_paths, seed: seen.append(build()))
        sample_paths(space, None, 1, seed=0)
        return seen[0]

    @staticmethod
    def _gram_by_formula(space):
        """Reference oracle: the centered Gram transform over the whole distance matrix."""
        D = space.pairwise(np.arange(space.n))
        d0 = D[0]
        return 0.5 * (d0[:, None] ** 2 + d0[None, :] ** 2 - D ** 2)

    @pytest.mark.parametrize("n", [1, 300, 1024])
    def test_gram_on_stars_matches_the_formula(self, monkeypatch, n):
        sp = make_star(n)
        assert np.array_equal(self._gram(monkeypatch, sp), self._gram_by_formula(sp))

    @settings(max_examples=30)
    @given(space=st.one_of(tied_spaces(), ultrametric_spaces()))
    def test_gram_matches_the_formula(self, space):
        with pytest.MonkeyPatch.context() as patch:
            assert np.array_equal(self._gram(patch, space), self._gram_by_formula(space))


class TestValidateUpper:
    def test_single_point_space_never_violates(self, tmp_path):
        cfg = ExperimentConfig(space="line:n=1", trials=50)
        report = validate_upper(cfg)
        assert report.all_pass
        assert all(c.violations == 0 for c in report.claims)

    def test_row_count_is_one_plus_depths(self):
        cfg = ExperimentConfig(space="grid:dim=1,per_dim=30", kernel="se:ls=0.2",
                               schedule="entropy", trials=100)
        kernel = cfg.build_kernel()
        space = cfg.build_space(canonical=True)
        from chainopt import build_forward
        depth = build_forward(space, schedule="entropy").max_depth
        report = validate_upper(cfg)
        assert len(report.claims) == 1 + depth + 1
        assert report.claims[0].claim == "upper-joint"

    def test_grid_quick_pass(self):
        cfg = ExperimentConfig(space="grid:dim=1,per_dim=40", kernel="se:ls=0.2",
                               schedule="entropy", trials=400, seed_base=5)
        report = validate_upper(cfg)
        assert report.all_pass

    def test_capacity_cap(self, monkeypatch):
        # 64 points x 2^21 paths: the normals and their product alone are 2^31 bytes
        cfg = ExperimentConfig(space="line:n=64", trials=2 ** 21)
        monkeypatch.setattr(gp, "gram", _unreachable)
        monkeypatch.setattr(gp, "chol_with_jitter", _unreachable)
        with pytest.raises(CapacityError, match="2097152 paths over 64 points .* limit of one call"):
            validate_upper(cfg)

    def test_past_the_old_point_cap(self):
        cfg = ExperimentConfig(space="grid:dim=1,per_dim=1024", kernel="se:ls=0.2",
                               trials=2_000, seed_base=4)
        report = validate_upper(cfg)
        assert report.all_pass and report.claims[0].trials == 2_000


class TestValidateLower:
    def test_vacuous_on_balanced_tree(self):
        cfg = ExperimentConfig(space="line:n=8", trials=100)
        report = validate_lower(cfg)
        assert report.all_pass
        # no pruning happened: no value rows, no ratio criterion, data only
        assert all(not c.claim.startswith("lower-depth") for c in report.claims)
        assert all(c.claim != "lower-ratio-positive" for c in report.claims)
        assert "ratio_q05" in report.extras

    def test_star_ratio_positive(self):
        cfg = ExperimentConfig(space="star:n=40", u=1.0, trials=300, seed_base=2)
        report = validate_lower(cfg)
        assert report.all_pass
        assert report.extras["ratio_q05"] > 0.0
        names = [c.claim for c in report.claims]
        assert "lower-ratio-positive" in names
        # the star forces pruning, so per-depth rows exist (vacuous or not)
        assert any(c.claim.startswith("lower-depth") for c in report.claims)

    def test_needs_geometric_schedule(self):
        cfg = ExperimentConfig(space="star:n=20", schedule="entropy", trials=10)
        with pytest.raises(ArgumentError):
            validate_lower(cfg)


class TestValidateLemmas:
    def test_quick_suite_passes(self):
        cfg = ExperimentConfig(trials=20_000, seed_base=3)
        report = validate_lemmas(cfg)
        assert report.all_pass
        names = [c.claim for c in report.claims]
        assert sum(n.startswith("sq-tail") and not n.endswith("oracle") for n in names) == 18
        assert sum(n.endswith("oracle") for n in names) == 18
        assert "max-normal-m26-u1" in names
        assert "max-normal-m260-u10" in names
        assert any(n.startswith("packed-max-m200") for n in names)

    def test_vacuous_packed_row_marked(self):
        cfg = ExperimentConfig(trials=5_000)
        report = validate_lemmas(cfg)
        vac = [c for c in report.claims if "vacuous" in c.claim]
        assert len(vac) == 1
        assert vac[0].violations == 0 and vac[0].passed
        assert "vacuous" in vac[0].note

    @pytest.mark.parametrize("rows,m,per_block", [(1, 3, 2), (7, 2, 3), (10, 5, 3), (9, 199, 1)])
    def test_row_maxima_equal_one_draw(self, monkeypatch, rows, m, per_block):
        monkeypatch.setattr(metric, "_BLOCK_BYTES", 8 * m * per_block)
        blocked, whole = np.random.default_rng(4), np.random.default_rng(4)
        assert np.array_equal(harness._row_maxima(blocked, rows, m),
                              whole.standard_normal(size=(rows, m)).max(axis=1))
        assert blocked.standard_normal() == whole.standard_normal()

    def test_report_csv(self, tmp_path):
        cfg = ExperimentConfig(trials=2_000)
        report = validate_lemmas(cfg)
        out = tmp_path / "claims.csv"
        report.write_csv(str(out))
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "claim,trials,violations,rate,bound,se,pass"
        assert len(lines) == len(report.claims) + 1


class TestRunExperiment:
    def test_zero_horizon_empty_aggregate(self, tmp_path):
        cfg = ExperimentConfig(space="line:n=4", t_max=0, replicates=1,
                               out_dir=str(tmp_path / "out"))
        files = run_experiment(cfg)
        agg = open(files["aggregate"]).read().strip().splitlines()
        assert len(agg) == 1  # header only
        assert files["all_pass"] == "1"

    def test_byte_identical_reruns(self, tmp_path):
        base = dict(space="grid:dim=1,per_dim=12", kernel="se:ls=0.3", t_max=15,
                    replicates=3, seed_base=4)
        cfg1 = ExperimentConfig(out_dir=str(tmp_path / "a"), **base)
        cfg2 = ExperimentConfig(out_dir=str(tmp_path / "b"), **base)
        f1 = run_experiment(cfg1)
        f2 = run_experiment(cfg2)
        for key in f1:
            if key == "all_pass":
                continue
            b1 = open(f1[key], "rb").read()
            b2 = open(f2[key], "rb").read()
            assert b1 == b2, key

    def test_aggregate_quantiles_recomputable(self, tmp_path):
        cfg = ExperimentConfig(space="grid:dim=1,per_dim=12", kernel="se:ls=0.3",
                               t_max=10, replicates=5, seed_base=1,
                               out_dir=str(tmp_path / "out"))
        files = run_experiment(cfg)
        reps = []
        for r in range(5):
            rows = open(files[f"replicate_{r}"]).read().strip().splitlines()[1:]
            reps.append([float(ln.split(",")[7]) for ln in rows])  # cum_regret
        R = np.array(reps)
        agg_rows = open(files["aggregate"]).read().strip().splitlines()[1:]
        for k, ln in enumerate(agg_rows):
            parts = [float(v) for v in ln.split(",")]
            assert parts[1] == pytest.approx(np.quantile(R[:, k], 0.5), rel=1e-9)
            assert parts[2] == pytest.approx(np.quantile(R[:, k], 0.25), rel=1e-9)
            assert parts[3] == pytest.approx(np.quantile(R[:, k], 0.75), rel=1e-9)

    def test_squared_model_runs(self, tmp_path):
        cfg = ExperimentConfig(space="grid:dim=1,per_dim=8", kernel="se:ls=0.3",
                               model="squaredgp:n=2",
                               t_max=6, replicates=2, out_dir=str(tmp_path / "sq"))
        files = run_experiment(cfg)
        assert files["all_pass"] == "1"

    def test_partial_outputs_removed_on_failure(self, tmp_path, monkeypatch):
        # the second replicate's CSV fails after the first replicate's CSV is written
        calls = {"n": 0}
        real = RegretRecord.to_csv

        def flaky(record, path):
            calls["n"] += 1
            if calls["n"] >= 2:
                raise RuntimeError("boom")
            return real(record, path)

        monkeypatch.setattr(RegretRecord, "to_csv", flaky)
        out = tmp_path / "fail"
        cfg = ExperimentConfig(space="line:n=6", t_max=3, replicates=3,
                               out_dir=str(out))
        with pytest.raises(RuntimeError):
            run_experiment(cfg)
        assert not any(p.name.startswith("replicate") for p in out.iterdir())

    def test_a_file_that_fails_while_written_is_removed(self, tmp_path, monkeypatch):
        def half_written(record, path):
            with open(path, "w", encoding="utf-8") as fh:
                fh.write("iter,")
            raise OSError("no space left on device")

        monkeypatch.setattr(RegretRecord, "to_csv", half_written)
        out = tmp_path / "fail"
        with pytest.raises(OSError):
            run_experiment(ExperimentConfig(space="line:n=6", t_max=3, out_dir=str(out)))
        assert not list(out.iterdir())

    def test_a_built_tree_failing_validation_is_an_internal_error(self, tmp_path, monkeypatch):
        monkeypatch.setattr(chaining, "validate_tree",
                            lambda tree: TreeValidation(False, ["node 3: broken"], [], []))
        out = tmp_path / "out"
        cfg = ExperimentConfig(space="line:n=6", t_max=3, replicates=2, out_dir=str(out))
        with pytest.raises(InternalError, match="tree validation failed: node 3: broken"):
            run_experiment(cfg)
        assert not list(out.iterdir())

    def test_space_without_coordinates_refused_before_any_draw(self, tmp_path, monkeypatch):
        monkeypatch.setattr(harness, "sample_paths", _unreachable)
        cfg = ExperimentConfig(space="star:n=16", t_max=3, out_dir=str(tmp_path / "out"))
        with pytest.raises(ArgumentError, match="coordinate-backed space"):
            run_experiment(cfg)

    def test_validation_csv_reproducible(self, tmp_path):
        cfg = ExperimentConfig(space="grid:dim=1,per_dim=10", t_max=8,
                               replicates=2, out_dir=str(tmp_path / "v"))
        files = run_experiment(cfg)
        text = open(files["validation"]).read()
        assert "regret-bound-freq" in text
        assert "variance-info-gain" in text


_UPPER_FINGERPRINT_SPACES = ("grid:dim=1,per_dim=64", "grid:dim=1,per_dim=256",
                             "grid:dim=2,per_dim=12")
_LOWER_FINGERPRINT_SPACES = ("star:n=64", "star:n=200", "star:n=1024",
                             "grid:dim=1,per_dim=128")


def _report_digest(report, path):
    report.write_csv(str(path))
    digest = hashlib.sha256(path.read_bytes())
    for key, val in sorted(report.extras.items()):
        digest.update(f"{key}={val!r}\n".encode())
    return digest.hexdigest()


# sha256 of (write_csv output, extras) of seeded validation reports
_REPORT_FINGERPRINTS = {
    'upper grid:dim=1,per_dim=64 geometric': 'bffb1ad9fced7dce2b0e494965b21286375acac83728db2648e933fcbd9129ee',
    'upper grid:dim=1,per_dim=64 entropy': '346e383f6d35811bb75a5eb70fba4e7faab79e410994b2859c8286f46ab61e67',
    'upper grid:dim=1,per_dim=256 geometric': '5804bb3259859e6836dbf9cbf632f2dd99a3a7233c3071af856132d5b0733e0d',
    'upper grid:dim=1,per_dim=256 entropy': '5804bb3259859e6836dbf9cbf632f2dd99a3a7233c3071af856132d5b0733e0d',
    'upper grid:dim=2,per_dim=12 geometric': 'bffb1ad9fced7dce2b0e494965b21286375acac83728db2648e933fcbd9129ee',
    'upper grid:dim=2,per_dim=12 entropy': 'bcf36cf2f5a6b45de4d88a8af2a575e2a2e78d77a0bb9ad4def6b9701b7a2350',
    'lower star:n=64': 'd91afeac86cec56c69b013a2186faa8d07ba88ff6276f32f87844da8b13cb0be',
    'lower star:n=200': 'c5f21ea2f9aa1c3d2f2ce11b43b99ab59a8324f1230c9205a5645c35afeea3bc',
    'lower star:n=1024': '2c3c6ec9a0adb52a36807a23420301fb56daaf48549bdc19bdc1c0158ab3b364',
    'lower grid:dim=1,per_dim=128': '51fedfd941ebecd75c74be74ae1e8a93c455ad1a6405a1674e1e2d4c293f6bad',
}


class TestReportFingerprints:
    """Seeded validate_upper and validate_lower reports come out byte for byte as pinned.

    The digests hold at the default BLAS threading.  OpenBLAS factors the
    128-point SE Gram into a different Cholesky factor at one thread, and the
    reports' float extras carry that difference, so three ``test_lower`` cases
    fail under ``OPENBLAS_NUM_THREADS=1``; one thread is advice for steady
    timing only.
    """

    @pytest.mark.parametrize("space", _UPPER_FINGERPRINT_SPACES)
    @pytest.mark.parametrize("schedule", ["geometric", "entropy"])
    def test_upper(self, tmp_path, space, schedule):
        cfg = ExperimentConfig(space=space, kernel="se:ls=0.2", schedule=schedule,
                               trials=2_000, seed_base=11)
        got = _report_digest(validate_upper(cfg), tmp_path / "report.csv")
        assert got == _REPORT_FINGERPRINTS[f"upper {space} {schedule}"]

    @pytest.mark.parametrize("space", _LOWER_FINGERPRINT_SPACES)
    def test_lower(self, tmp_path, space):
        cfg = ExperimentConfig(space=space, kernel="se:ls=0.2", u=1.0, trials=500,
                               seed_base=12)
        got = _report_digest(validate_lower(cfg), tmp_path / "report.csv")
        assert got == _REPORT_FINGERPRINTS[f"lower {space}"]


def _run_digest(files, out):
    """sha256 over every file a run left in ``out``, by name, plus its all_pass flag."""
    digest = hashlib.sha256()
    for path in sorted(out.iterdir()):
        digest.update(f"{path.name}\n".encode())
        digest.update(path.read_bytes())
    digest.update(f"all_pass={files['all_pass']}\n".encode())
    return digest.hexdigest()


_EXPERIMENT_FINGERPRINT_RUNS = {
    "halflog2": {"depth_rule": "halflog2"},
    "omega": {"depth_rule": "omega"},
    "squaredgp": {"model": "squaredgp:n=2"},
}

# sha256 of the file sets of seeded two-replicate run_experiment calls
_EXPERIMENT_FINGERPRINTS = {
    "halflog2": "ab184e24605e5d0860639fefc692bb2c9b1a1c39a22a95969c6c6eb1289d3786",
    "omega": "f4660229fa18892124927674824c84be65936b8259d9c6afbe98b7cf4d4d5d89",
    "squaredgp": "4469160bd357dd607a922692d728c1f07385be8fb9639f00045bf2d8fc328d95",
}


class TestExperimentFingerprints:
    """Seeded run_experiment file sets come out byte for byte as pinned."""

    @pytest.mark.parametrize("run", sorted(_EXPERIMENT_FINGERPRINT_RUNS))
    def test_file_set(self, tmp_path, run):
        out = tmp_path / run
        cfg = ExperimentConfig(space="grid:dim=1,per_dim=16", kernel="se:ls=0.2",
                               t_max=70, replicates=2, seed_base=9, out_dir=str(out),
                               **_EXPERIMENT_FINGERPRINT_RUNS[run])
        files = run_experiment(cfg)
        assert sorted(p.name for p in out.iterdir()) == [
            "aggregate.csv", "replicate_0000.csv", "replicate_0001.csv", "validation.csv"]
        assert _run_digest(files, out) == _EXPERIMENT_FINGERPRINTS[run]
