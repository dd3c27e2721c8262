"""Tests for the command line interface and its exit codes."""

import numpy as np
import pytest

from chainopt.cli import main


@pytest.fixture
def cloud_file(tmp_path):
    path = tmp_path / "cloud.txt"
    lines = ["# dim=1"] + [f"{x:.3f}" for x in np.linspace(0, 1, 12)]
    path.write_text("\n".join(lines) + "\n")
    return str(path)


@pytest.fixture
def matrix_file(tmp_path):
    n = 6
    D = np.ones((n, n)) - np.eye(n)
    rows = [str(n)] + [" ".join(f"{v:g}" for v in row) for row in D]
    path = tmp_path / "dist.txt"
    path.write_text("\n".join(rows) + "\n")
    return str(path)


class TestCover:
    def test_greedy_cover_csv(self, tmp_path, cloud_file):
        out = tmp_path / "cover.csv"
        code = main(["cover", "--space", cloud_file, "--epsilon", "0.2",
                     "--out", str(out)])
        assert code == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "center_id,order"
        assert len(lines) > 1

    def test_exact_mode(self, tmp_path, cloud_file):
        out = tmp_path / "cover.csv"
        assert main(["cover", "--space", cloud_file, "--epsilon", "0.5",
                     "--mode", "exact", "--out", str(out)]) == 0

    def test_missing_space_file(self, tmp_path):
        code = main(["cover", "--space", str(tmp_path / "none.txt"),
                     "--epsilon", "0.5", "--out", str(tmp_path / "o.csv")])
        assert code == 2

    def test_non_numeric_matrix_entry_exits_2(self, tmp_path, capsys):
        path = tmp_path / "dist.txt"
        path.write_text("2\n0 1\nabc 0\n")
        code = main(["cover", "--space", str(path), "--epsilon", "0.5",
                     "--out", str(tmp_path / "o.csv")])
        assert code == 2
        assert "line 3" in capsys.readouterr().err

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("text,what", [
        ("# dim=1\n0\nnan\n1\n", "coordinate"),
        ("# dim=1\n0\ninf\n1\n", "coordinate"),
        ("2\n0 nan\nnan 0\n", "distance")], ids=["nan-cloud", "inf-cloud", "nan-matrix"])
    def test_non_finite_space_exits_2(self, tmp_path, capsys, text, what):
        path = tmp_path / "space.txt"
        path.write_text(text)
        code = main(["cover", "--space", str(path), "--epsilon", "0.5",
                     "--out", str(tmp_path / "o.csv")])
        assert code == 2
        err = capsys.readouterr().err
        assert f"every {what} must be finite" in err
        assert "symmetric" not in err

    def test_bad_epsilon(self, tmp_path, cloud_file):
        code = main(["cover", "--space", cloud_file, "--epsilon", "-1",
                     "--out", str(tmp_path / "o.csv")])
        assert code == 2

    def test_nan_epsilon_exits_2(self, tmp_path, cloud_file):
        code = main(["cover", "--space", cloud_file, "--epsilon", "nan",
                     "--out", str(tmp_path / "o.csv")])
        assert code == 2

    @pytest.mark.parametrize("case", ["space-dir", "binary-space", "out-dir"])
    def test_unreadable_file_exits_2(self, tmp_path, capsys, cloud_file, case):
        space, out = cloud_file, str(tmp_path / "o.csv")
        if case == "space-dir":
            space = str(tmp_path)
        elif case == "binary-space":
            space = str(tmp_path / "space.bin")
            (tmp_path / "space.bin").write_bytes(b"\xff\xfe\x00\x81# dim=1\n")
        else:
            out = str(tmp_path)
        code = main(["cover", "--space", space, "--epsilon", "0.5", "--out", out])
        assert code == 2
        assert capsys.readouterr().err.startswith("error: ")


class TestTreeBuild:
    def test_geometric_build(self, tmp_path, cloud_file):
        out = tmp_path / "tree.txt"
        code = main(["tree", "build", "--space", cloud_file,
                     "--schedule", "geometric", "--u", "2.0", "--out", str(out)])
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0].startswith("# schedule=geometric")
        assert lines[3] == "node_id,depth,location_id,parent_id,is_pruned,radius,value"

    def test_nan_u_exits_2(self, tmp_path, cloud_file):
        code = main(["tree", "build", "--space", cloud_file, "--u", "nan",
                     "--out", str(tmp_path / "tree.txt")])
        assert code == 2

    def test_entropy_build_from_matrix(self, tmp_path, matrix_file):
        out = tmp_path / "tree.txt"
        code = main(["tree", "build", "--space", matrix_file,
                     "--schedule", "entropy", "--out", str(out)])
        assert code == 0
        assert out.exists()


class TestOptimize:
    def test_writes_regret_csv(self, tmp_path, cloud_file):
        out = tmp_path / "run.csv"
        code = main(["optimize", "--space", cloud_file, "--kernel", "se:ls=0.3",
                     "--t", "12", "--seed", "3", "--out", str(out)])
        assert code == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "iter,depth,u_i,point_id,ucb,y,inst_regret,cum_regret,simple_regret"
        assert len(lines) == 13

    def test_deterministic(self, tmp_path, cloud_file):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        for out in (a, b):
            assert main(["optimize", "--space", cloud_file, "--t", "8",
                         "--seed", "5", "--out", str(out)]) == 0
        assert a.read_bytes() == b.read_bytes()

    @pytest.mark.parametrize("option", [["--u", "nan"], ["--u", "inf"], ["--a", "nan"],
                                        ["--eta2", "nan"], ["--kernel", "se:ls=nan"],
                                        ["--kernel", "se:var=inf"]])
    def test_non_finite_option_exits_2(self, tmp_path, cloud_file, option):
        out = tmp_path / "run.csv"
        code = main(["optimize", "--space", cloud_file, "--t", "3", "--out", str(out)]
                    + option)
        assert code == 2
        assert not out.exists()

    def test_negative_seed_exits_2(self, tmp_path, cloud_file, capsys):
        code = main(["optimize", "--space", cloud_file, "--t", "3", "--seed", "-1",
                     "--out", str(tmp_path / "r.csv")])
        assert code == 2
        assert "seed must be nonnegative" in capsys.readouterr().err

    def test_matrix_space_rejected(self, tmp_path, matrix_file):
        code = main(["optimize", "--space", matrix_file, "--t", "3",
                     "--out", str(tmp_path / "r.csv")])
        assert code == 2


class TestValidateCommands:
    def test_lemmas_quick(self, tmp_path, capsys):
        cfg = tmp_path / "v.cfg"
        cfg.write_text("trials = 5000\n")
        out = tmp_path / "report.csv"
        code = main(["validate-lemmas", "--config", str(cfg), "--out", str(out)])
        assert code == 0
        assert "[PASS]" in capsys.readouterr().out
        assert out.exists()

    def test_lower_star(self, tmp_path, capsys):
        cfg = tmp_path / "v.cfg"
        cfg.write_text("space = star:n=32\nu = 1.0\ntrials = 200\n")
        assert main(["validate-lower", "--config", str(cfg)]) == 0
        assert "ratio_q05" in capsys.readouterr().out

    def test_upper_quick(self, tmp_path):
        cfg = tmp_path / "v.cfg"
        cfg.write_text("space = grid:dim=1,per_dim=25\nkernel = se:ls=0.2\n"
                       "schedule = entropy\ntrials = 200\n")
        assert main(["validate-upper", "--config", str(cfg)]) == 0

    def test_bad_config_exits_2(self, tmp_path):
        cfg = tmp_path / "v.cfg"
        cfg.write_text("a = 1.0\n")
        assert main(["validate-lemmas", "--config", str(cfg)]) == 2

    @pytest.mark.parametrize("spec", ["grid:dim=x", "line:n=abc", "star:n=1.5",
                                      "ellipsoid:axes=1:x", "grid:dim=1,perdim=4",
                                      "line:m=3", "star:size=4", "ellipsoid:axis=1"])
    def test_non_numeric_space_option_exits_2(self, tmp_path, spec):
        cfg = tmp_path / "v.cfg"
        cfg.write_text(f"space = {spec}\ntrials = 10\n")
        assert main(["validate-upper", "--config", str(cfg)]) == 2

    @pytest.mark.parametrize("spec", ["grid:dim=12,per_dim=100", "line:n=1000000000000",
                                      "star:n=100000"])
    def test_oversized_space_exits_2(self, tmp_path, harness_cannot_allocate, capsys, spec):
        cfg = tmp_path / "v.cfg"
        cfg.write_text(f"space = {spec}\ntrials = 10\n")
        assert main(["validate-lower", "--config", str(cfg)]) == 2
        assert "8192-point limit" in capsys.readouterr().err

    def test_oversized_draw_exits_2(self, tmp_path, capsys):
        # 64 points x 2^21 paths: refused before the Gram matrix, not a MemoryError
        cfg = tmp_path / "v.cfg"
        cfg.write_text("space = star:n=64\nu = 1.0\ntrials = 2097152\n")
        assert main(["validate-lower", "--config", str(cfg)]) == 2
        assert "67108864-value limit" in capsys.readouterr().err

    @pytest.mark.parametrize("line", ["kernel = se:lengthscale=0.2", "model = gaussian:nu=1",
                                      "model = squaredgp:n=2,kappa=1.0",
                                      "model = subgamma:nu=nan", "u = nan", "a = inf",
                                      "seed_base = -1"])
    def test_bad_kernel_model_or_loop_value_exits_2(self, tmp_path, line):
        cfg = tmp_path / "v.cfg"
        cfg.write_text(f"{line}\ntrials = 10\n")
        assert main(["validate-upper", "--config", str(cfg)]) == 2

    def test_missing_config_exits_2(self, tmp_path):
        assert main(["validate-lemmas", "--config", str(tmp_path / "no.cfg")]) == 2

    def test_failed_claim_exits_1(self, tmp_path, capsys):
        # a tiny star prunes, but its root is the argmax too often for the
        # ratio percentile claim, which is a legitimate reported failure
        cfg = tmp_path / "v.cfg"
        cfg.write_text("space = star:n=9\nu = 1.0\ntrials = 2000\nseed_base = 13\n")
        assert main(["validate-lower", "--config", str(cfg)]) == 1
        assert "[FAIL]" in capsys.readouterr().out

